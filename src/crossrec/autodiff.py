"""Reverse-mode automatic differentiation on an explicit tape.

Gradients are themselves built out of recorded ops, so calling ``grad`` with
``create_graph=True`` leaves the gradient computation on the tape and a second
``grad`` call differentiates through it (grad-of-grad). The ops are the ones
the model records; binary ops broadcast like numpy, and the fused ops
(``step``, ``rms_inv``, ``softmax_rows``, ``cross_entropy``, ``linear_scan``)
write one record each with a vjp made of recorded ops. Everything is double
precision. Tapes nest on one module-level stack: the innermost entered tape
(or ``None`` inside ``no_record``) receives the records.
"""
from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext

import numpy as np


class Tensor:
    """Double-precision array value, optionally recorded on the active tape."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor({self.data!r})"


class Record:
    __slots__ = ("op", "inputs", "out", "vjp")

    def __init__(self, op, inputs, out, vjp):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.vjp = vjp


_stack = []


def _active():
    return _stack[-1] if _stack else None


class Tape:
    """Ordered op records for one forward/backward pass."""

    def __init__(self):
        self.records = []

    def __enter__(self):
        _stack.append(self)
        return self

    def __exit__(self, *exc):
        _stack.pop()
        return False


@contextmanager
def no_record():
    _stack.append(None)
    try:
        yield
    finally:
        _stack.pop()


def _out(data, op, inputs, vjp):
    # ``vjp`` may read the tensor returned here: grad calls it only later
    t = Tensor.__new__(Tensor)
    t.data = data
    if _stack and _stack[-1] is not None:
        _stack[-1].records.append(Record(op, inputs, t, vjp))
    return t


def _shapes(a, b, op):
    """Both operand shapes; raises unless they broadcast together."""
    sa, sb = a.data.shape, b.data.shape
    if sa != sb and any(m != n and m != 1 and n != 1
                        for m, n in zip(reversed(sa), reversed(sb))):
        raise ValueError(f"{op}: shape mismatch {sa} vs {sb}")
    return sa, sb


def _unbroadcast(g, shape):
    """``g`` summed over the axes that broadcasting added to ``shape``."""
    if g.data.shape == shape:
        return g
    lead = g.data.ndim - len(shape)
    kept = tuple(i + lead for i, d in enumerate(shape)
                 if d == 1 and g.data.shape[i + lead] != 1)
    if kept:
        g = sum(g, axis=kept, keepdims=True)
    return sum(g, axis=tuple(range(lead))) if lead else g


# ---------------------------------------------------------------------------
# elementwise arithmetic (binary ops broadcast like numpy)


def add(a, b):
    sa, sb = _shapes(a, b, "add")
    return _out(a.data + b.data, "add", (a, b),
                lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b):
    sa, sb = _shapes(a, b, "sub")
    return _out(a.data - b.data, "sub", (a, b),
                lambda g: (_unbroadcast(g, sa), _unbroadcast(scale(g, -1.0), sb)))


def mul(a, b):
    sa, sb = _shapes(a, b, "mul")
    return _out(a.data * b.data, "mul", (a, b),
                lambda g: (_unbroadcast(mul(g, b), sa), _unbroadcast(mul(g, a), sb)))


def scale(x, c):
    c = float(c)
    return _out(x.data * c, "scale", (x,), lambda g: (scale(g, c),))


def step(p, g, lr):
    """The descent update ``p - lr * g`` as one record."""
    if p.data.shape != g.data.shape:
        raise ValueError(f"step: shape mismatch {p.data.shape} vs {g.data.shape}")
    lr = float(lr)
    return _out(p.data - g.data * lr, "step", (p, g), lambda G: (G, scale(G, -lr)))


def add_scalar(x, c):
    c = float(c)
    return _out(x.data + c, "add_scalar", (x,), lambda g: (g,))


# ---------------------------------------------------------------------------
# linear algebra / structure


def matmul(a, b, ta=False, tb=False):
    """``op(a) @ op(b)`` of 2-d tensors, where ``op`` transposes an operand
    whose flag is set. The transpose is a numpy view, not a record, and the
    vjp is two flagged matmuls."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul: need 2-d operands, got {a.data.shape} and {b.data.shape}")
    av = a.data.T if ta else a.data
    bv = b.data.T if tb else b.data
    if av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul: shape mismatch {av.shape} vs {bv.shape}")

    def vjp(g):
        ga = matmul(b, g, tb, True) if ta else matmul(g, b, False, not tb)
        gb = matmul(g, a, True, ta) if tb else matmul(a, g, not ta, False)
        return ga, gb

    return _out(av @ bv, "matmul", (a, b), vjp)


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.size:
        raise ValueError(f"reshape: cannot reshape {x.data.shape} to {shape}")
    old = x.data.shape
    return _out(x.data.reshape(shape), "reshape", (x,),
                lambda g: (reshape(g, old),))


def expand(x, shape):
    """``x`` broadcast to ``shape`` as numpy does: leading axes are added and
    axes of length 1 repeated."""
    shape = tuple(int(s) for s in shape)
    old = x.data.shape
    lead = len(shape) - len(old)
    if lead < 0 or any(d != s and d != 1 for d, s in zip(old, shape[lead:])):
        raise ValueError(f"expand: cannot expand {old} to {shape}")
    out = np.empty(shape)
    out[...] = x.data
    return _out(out, "expand", (x,), lambda g: (_unbroadcast(g, old),))


def sum(x, axis=None, keepdims=False):  # noqa: A001 - mirrors numpy naming
    if axis is not None and not isinstance(axis, tuple):
        axis = (int(axis),)
    in_shape = x.data.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = reshape(g, tuple(1 if i in axis else d for i, d in enumerate(in_shape)))
        return (expand(g, in_shape) if in_shape else g,)

    return _out(x.data.sum(axis=axis, keepdims=keepdims), "sum", (x,), vjp)


def concat(tensors, axis):
    tensors = tuple(tensors)
    if not tensors:
        raise ValueError("concat: empty input list")
    axis = int(axis)
    rank = tensors[0].data.ndim
    for t in tensors:
        if t.data.ndim != rank:
            raise ValueError(f"concat: rank mismatch {t.data.shape} vs {tensors[0].data.shape}")
    offsets = [0]
    for t in tensors:
        offsets.append(offsets[-1] + t.data.shape[axis])

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


def straight_through(z_e, z_q):
    """Straight-through estimator: ``z_q``'s rows, then ``z_e``'s rows past
    them; the whole gradient goes to ``z_e``, none to the (shorter) ``z_q``."""
    se, sq = z_e.data.shape, z_q.data.shape
    if not se or len(sq) != len(se) or sq[1:] != se[1:] or sq[0] > se[0]:
        raise ValueError(f"straight_through: shape mismatch {se} vs {sq}")
    return _out(np.concatenate((z_q.data, z_e.data[sq[0]:])), "straight_through",
                (z_e, z_q), lambda g: (g, None))


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
    with np.errstate(over="ignore"):  # exp(-x) is inf for x << 0, and 1/inf = 0
        out = _out(1.0 / (1.0 + np.exp(-x.data)), "sigmoid", (x,),
                   lambda g: (mul(g, mul(out, add_scalar(scale(out, -1.0), 1.0))),))
    return out


def relu(x):
    mask = (x.data > 0).astype(np.float64)
    mask_t = Tensor(mask)
    return _out(x.data * mask, "relu", (x,), lambda g: (mul(g, mask_t),))


def square(x):
    return _out(x.data * x.data, "square", (x,), lambda g: (scale(mul(g, x), 2.0),))


def rms_inv(y, eps):
    """Per-row ``1 / sqrt(mean(y^2) + eps)`` of a 2-d tensor, shape (rows, 1)."""
    if y.data.ndim != 2:
        raise ValueError(f"rms_inv: need 2-d tensor, got {y.data.shape}")
    d = y.data.shape[1]
    ms = (y.data * y.data).sum(axis=1, keepdims=True) * (1.0 / d)
    out = _out(1.0 / np.sqrt(ms + float(eps)), "rms_inv", (y,),
               lambda g: (scale(mul(mul(g, mul(out, square(out))), y), -1.0 / d),))
    return out


def softmax_rows(x):
    """Softmax over each row of a 2-d tensor."""
    if x.data.ndim != 2:
        raise ValueError(f"softmax_rows: need 2-d tensor, got {x.data.shape}")
    e = np.exp(x.data - x.data.max(axis=1, keepdims=True))
    out = _out(e / e.sum(axis=1, keepdims=True), "softmax_rows", (x,),
               lambda g: (mul(out, sub(g, sum(mul(g, out), axis=1, keepdims=True))),))
    return out


def cross_entropy(logits, targets):
    """Mean over rows of ``logsumexp(row) - row[target]`` for (B, N) logits
    and B target columns, as one record; its vjp is made of recorded ops."""
    if logits.data.ndim != 2:
        raise ValueError(f"cross_entropy: need 2-d logits, got {logits.data.shape}")
    rows, cols = logits.data.shape
    idx = np.asarray(targets, dtype=np.int64)
    if idx.shape != (rows,):
        raise ValueError(f"cross_entropy: need {rows} targets, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= cols):
        raise IndexError(f"cross_entropy: target out of range [0, {cols})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))

    def vjp(g):
        onehot = np.zeros((rows, cols))
        onehot[np.arange(rows), idx] = 1.0
        return (mul(scale(sub(softmax_rows(logits), Tensor(onehot)), 1.0 / rows), g),)

    return _out((lse - z[np.arange(rows), idx]).sum() * (1.0 / rows), "cross_entropy",
                (logits,), vjp)


def stop_gradient(x):
    """``x``'s value as a constant: a new tensor that no record produced."""
    return Tensor(x.data)


# ---------------------------------------------------------------------------
# differentiation


def grad(output, wrt, create_graph=False):
    """Reverse-mode gradients of a scalar ``output`` w.r.t. each tensor in ``wrt``.

    The entry for a tensor that no gradient reaches from ``output`` on the
    active tape is ``None``: the output does not depend on it, and callers
    that want an array use zeros. With ``create_graph`` the returned gradients
    are themselves recorded, so a later ``grad`` call differentiates through
    them.

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
    # tensors hash by identity, so both maps key on the tensor itself
    live = set(wrt)
    path = []
    for rec in tape.records:
        if not live.isdisjoint(rec.inputs):
            live.add(rec.out)
            path.append(rec)
    grads = {output: Tensor(np.ones_like(output.data))}
    with nullcontext() if create_graph else no_record():
        for rec in reversed(path):
            g = grads.get(rec.out)
            if g is None:
                continue
            for t, gi in zip(rec.inputs, rec.vjp(g)):
                if gi is None or t not in live:
                    continue
                prev = grads.get(t)
                grads[t] = gi if prev is None else add(prev, gi)
    return [grads.get(w) for w in wrt]
