"""Reverse-mode automatic differentiation on an explicit tape.

Gradients are themselves built out of recorded ops, so calling ``grad`` with
``create_graph=True`` leaves the gradient computation on the tape and a second
``grad`` call differentiates through it (grad-of-grad). Everything is double
precision; tapes are single-writer and thread-local.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext

import numpy as np
from scipy.special import expit


class Tensor:
    """Double-precision array value, optionally recorded on the active tape."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor({self.data!r})"


class Record:
    __slots__ = ("op", "inputs", "out", "vjp")

    def __init__(self, op, inputs, out, vjp):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.vjp = vjp


_tls = threading.local()


def _stack():
    try:
        return _tls.stack
    except AttributeError:
        _tls.stack = []
        return _tls.stack


def _active():
    s = _stack()
    return s[-1] if s else None


class Tape:
    """Ordered op records for one forward/backward pass."""

    def __init__(self):
        self.records = []

    def __enter__(self):
        _stack().append(self)
        return self

    def __exit__(self, *exc):
        _stack().pop()
        return False


@contextmanager
def no_record():
    s = _stack()
    s.append(None)
    try:
        yield
    finally:
        s.pop()


def _out(data, op, inputs, vjp):
    # ``vjp`` may read the tensor returned here: grad calls it only later
    t = Tensor.__new__(Tensor)
    t.data = data
    tape = _active()
    if tape is not None:
        tape.records.append(Record(op, inputs, t, vjp))
    return t


def primitive(op, data, inputs, vjp):
    """Extension hook: record a custom op with a hand-written vjp."""
    return _out(np.asarray(data, dtype=np.float64), op, inputs, vjp)


def tensor(data):
    return Tensor(data)


def zeros_like(x):
    return Tensor(np.zeros_like(x.data))


def ones_like(x):
    return Tensor(np.ones_like(x.data))


def _check_same(a, b, op):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    _check_same(a, b, "add")
    return _out(a.data + b.data, "add", (a, b), lambda g: (g, g))


def sub(a, b):
    _check_same(a, b, "sub")
    return _out(a.data - b.data, "sub", (a, b), lambda g: (g, scale(g, -1.0)))


def mul(a, b):
    _check_same(a, b, "mul")
    return _out(a.data * b.data, "mul", (a, b), lambda g: (mul(g, b), mul(g, a)))


def scale(x, c):
    c = float(c)
    return _out(x.data * c, "scale", (x,), lambda g: (scale(g, c),))


def add_scalar(x, c):
    c = float(c)
    return _out(x.data + c, "add_scalar", (x,), lambda g: (g,))


# ---------------------------------------------------------------------------
# linear algebra / structure


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul: need 2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: shape mismatch {a.data.shape} vs {b.data.shape}")

    def vjp(g):
        return (matmul(g, transpose(b)), matmul(transpose(a), g))

    return _out(a.data @ b.data, "matmul", (a, b), vjp)


def transpose(x):
    if x.data.ndim != 2:
        raise ValueError(f"transpose: need 2-d tensor, got {x.data.shape}")
    return _out(np.ascontiguousarray(x.data.T), "transpose", (x,),
                lambda g: (transpose(g),))


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ValueError(f"reshape: cannot reshape {x.data.shape} to {shape}")
    old = x.data.shape
    return _out(x.data.reshape(shape), "reshape", (x,),
                lambda g: (reshape(g, old),))


def expand(x, shape):
    shape = tuple(int(s) for s in shape)
    if x.data.ndim != len(shape):
        raise ValueError(f"expand: rank mismatch {x.data.shape} vs {shape}")
    for d, s in zip(x.data.shape, shape):
        if d != s and d != 1:
            raise ValueError(f"expand: cannot expand {x.data.shape} to {shape}")
    axes = tuple(i for i, (d, s) in enumerate(zip(x.data.shape, shape)) if d == 1 and s != 1)

    def vjp(g):
        return (sum(g, axis=axes, keepdims=True) if axes else g,)

    return _out(np.ascontiguousarray(np.broadcast_to(x.data, shape)), "expand", (x,),
                vjp)


def sum(x, axis=None, keepdims=False):  # noqa: A001 - mirrors numpy naming
    if axis is not None and not isinstance(axis, tuple):
        axis = (int(axis),)
    in_shape = x.data.shape

    def vjp(g):
        g2 = g
        if axis is None:
            g2 = reshape(g2, (1,) * len(in_shape)) if in_shape else g2
        elif not keepdims:
            kshape = tuple(1 if i in axis else d for i, d in enumerate(in_shape))
            g2 = reshape(g2, kshape)
        return (expand(g2, in_shape) if in_shape else g2,)

    return _out(np.sum(x.data, axis=axis, keepdims=keepdims), "sum", (x,), vjp)


def mean(x, axis=None, keepdims=False):
    total = sum(x, axis=axis, keepdims=keepdims)
    return scale(total, total.size / x.size)


def concat(tensors, axis):
    tensors = tuple(tensors)
    if not tensors:
        raise ValueError("concat: empty input list")
    axis = int(axis)
    rank = tensors[0].data.ndim
    for t in tensors:
        if t.data.ndim != rank:
            raise ValueError(f"concat: rank mismatch {t.data.shape} vs {tensors[0].data.shape}")
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def vjp(g):
        return tuple(slice_axis(g, axis, offsets[i], offsets[i + 1])
                     for i in range(len(tensors)))

    return _out(np.concatenate([t.data for t in tensors], axis=axis), "concat",
                tensors, vjp)


def slice_axis(x, axis, start, stop):
    axis = int(axis)
    start, stop = int(start), int(stop)
    dim = x.data.shape[axis]
    if not (0 <= start <= stop <= dim):
        raise ValueError(f"slice_axis: range [{start}, {stop}) out of bounds for dim {dim}")
    index = (slice(None),) * axis + (slice(start, stop),)

    def vjp(g):
        parts = []
        if start > 0:
            shape = list(x.data.shape)
            shape[axis] = start
            parts.append(Tensor(np.zeros(shape)))
        parts.append(g)
        if stop < dim:
            shape = list(x.data.shape)
            shape[axis] = dim - stop
            parts.append(Tensor(np.zeros(shape)))
        return (concat(parts, axis) if len(parts) > 1 else g,)

    return _out(x.data[index].copy(), "slice_axis", (x,), vjp)


def gather(table, indices):
    if table.data.ndim != 2:
        raise ValueError(f"gather: table must be 2-d, got {table.data.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"gather: indices must be 1-d, got shape {idx.shape}")
    n = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"gather: index out of range for table with {n} rows")

    def vjp(g):
        return (scatter_rows(g, idx, n),)

    return _out(table.data[idx], "gather", (table,), vjp)


def scatter_rows(src, indices, num_rows):
    idx = np.asarray(indices, dtype=np.int64)
    num_rows = int(num_rows)

    out = np.zeros((num_rows, src.data.shape[1]))
    np.add.at(out, idx, src.data)

    def vjp(g):
        return (gather(g, idx),)

    return _out(out, "scatter_rows", (src,), vjp)


def take_per_row(x, indices):
    if x.data.ndim != 2:
        raise ValueError(f"take_per_row: need 2-d tensor, got {x.data.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    rows, cols = x.data.shape
    if idx.shape != (rows,):
        raise ValueError(f"take_per_row: need {rows} indices, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= cols):
        raise IndexError(f"take_per_row: index out of range for {cols} columns")
    rng = np.arange(rows)

    def vjp(g):
        return (scatter_per_row(g, idx, cols),)

    return _out(x.data[rng, idx].copy(), "take_per_row", (x,), vjp)


def scatter_per_row(src, indices, num_cols):
    idx = np.asarray(indices, dtype=np.int64)
    num_cols = int(num_cols)
    rows = src.data.shape[0]
    rng = np.arange(rows)

    out = np.zeros((rows, num_cols))
    out[rng, idx] = src.data

    def vjp(g):
        return (take_per_row(g, idx),)

    return _out(out, "scatter_per_row", (src,), vjp)


def linear_scan(u, gate, steps, reverse=False):
    """Diagonal linear recurrence ``h_t = gate * h_{t-1} + u_t``, h_0 = u_0.

    ``u`` is (steps * B, d) in position-major order: rows [t*B, (t+1)*B) hold
    position t. ``gate`` is (d,). With ``reverse`` the scan runs from the last
    position to the first, ``h_t = gate * h_{t+1} + u_t``. The loop over
    positions runs in numpy inside one record. The vjp is a scan in the other
    direction plus a gate term made of recorded ops, so the op is closed under
    differentiation and ``create_graph`` works through it.
    """
    steps = int(steps)
    if u.data.ndim != 2 or gate.data.shape != (u.data.shape[1],):
        raise ValueError(f"linear_scan: need (rows, d) input and (d,) gate, "
                         f"got {u.data.shape} and {gate.data.shape}")
    rows, width = u.data.shape
    if steps < 1 or rows % steps:
        raise ValueError(f"linear_scan: {rows} rows do not split into {steps} steps")
    batch = rows // steps
    h = np.empty_like(u.data)
    prev = None
    for t in (reversed(range(steps)) if reverse else range(steps)):
        block = slice(t * batch, (t + 1) * batch)
        h[block] = u.data[block] if prev is None else gate.data * prev + u.data[block]
        prev = h[block]

    def vjp(g):
        gu = linear_scan(g, gate, steps, not reverse)
        # row block t of ``before`` holds the state that block t's gate multiplied
        zeros = Tensor(np.zeros((batch, width)))
        if reverse:
            before = concat((slice_axis(out, 0, batch, rows), zeros), 0)
        else:
            before = concat((zeros, slice_axis(out, 0, 0, rows - batch)), 0)
        return (gu, sum(mul(gu, before), axis=0))

    out = _out(h, "linear_scan", (u, gate), vjp)
    return out


# ---------------------------------------------------------------------------
# nonlinearities


def sigmoid(x):
    out = _out(expit(x.data), "sigmoid", (x,),
               lambda g: (mul(g, mul(out, add_scalar(scale(out, -1.0), 1.0))),))
    return out


def relu(x):
    mask = (x.data > 0).astype(np.float64)
    mask_t = Tensor(mask)
    return _out(x.data * mask, "relu", (x,), lambda g: (mul(g, mask_t),))


def log(x):
    return _out(np.log(x.data), "log", (x,), lambda g: (mul(g, reciprocal(x)),))


def exp(x):
    out = _out(np.exp(x.data), "exp", (x,), lambda g: (mul(g, out),))
    return out


def square(x):
    return _out(x.data * x.data, "square", (x,), lambda g: (scale(mul(g, x), 2.0),))


def sqrt(x):
    out = _out(np.sqrt(x.data), "sqrt", (x,),
               lambda g: (mul(g, scale(reciprocal(out), 0.5)),))
    return out


def reciprocal(x):
    out = _out(1.0 / x.data, "reciprocal", (x,),
               lambda g: (scale(mul(g, square(out)), -1.0),))
    return out


def stop_gradient(x):
    return _out(x.data.copy(), "stop_gradient", (x,), None)


# ---------------------------------------------------------------------------
# differentiation


def grad(output, wrt, create_graph=False):
    """Reverse-mode gradients of a scalar ``output`` w.r.t. each tensor in ``wrt``.

    Tensors unreachable from ``output`` on the active tape get zero gradients of
    matching shape. With ``create_graph`` the returned gradients are themselves
    recorded, so a later ``grad`` call differentiates through them.

    The reverse sweep visits only the records that lie forward of ``wrt``: a
    forward pass over the tape marks a record as on the path when any of its
    inputs is in ``wrt`` or is the output of a record on the path. Records not
    backward of ``output`` are skipped as before, because no gradient reaches
    them. A pruned record feeds no tensor that ``wrt`` flows into, so every
    returned gradient is built from the same terms, added in the same order, as
    in a sweep over the whole tape: pruning is bit-identical. With
    ``create_graph`` nothing is recorded for ops upstream of ``wrt``, so k
    unrolled update steps put O(k) records on the tape, not O(k^2).
    """
    if output.size != 1:
        raise ValueError(f"grad: output must be scalar, got shape {output.data.shape}")
    tape = _active()
    if tape is None:
        raise RuntimeError("grad: no active tape")
    live = {id(w) for w in wrt}
    path = []
    for rec in tape.records:
        for t in rec.inputs:
            if id(t) in live:
                live.add(id(rec.out))
                path.append(rec)
                break
    grads = {id(output): ones_like(output)}
    ctx = nullcontext() if create_graph else no_record()
    with ctx:
        for rec in reversed(path):
            g = grads.get(id(rec.out))
            if g is None or rec.vjp is None:
                continue
            for t, gi in zip(rec.inputs, rec.vjp(g)):
                if gi is None or id(t) not in live:
                    continue
                prev = grads.get(id(t))
                grads[id(t)] = gi if prev is None else add(prev, gi)
    return [grads[id(w)] if id(w) in grads else zeros_like(w) for w in wrt]
