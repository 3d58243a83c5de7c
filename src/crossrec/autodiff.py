"""Reverse-mode automatic differentiation on an explicit tape.

Gradients are themselves built out of recorded ops, so calling ``grad`` with
``create_graph=True`` leaves the gradient computation on the tape and a second
``grad`` call differentiates through it (grad-of-grad). The ops are the ones
the model records; binary ops broadcast like numpy, ``matmul`` and the
row-wise ops take leading (task) axes, and the fused ops (``step``,
``rms_inv``, ``softmax_rows``, ``cross_entropy``, ``linear_scan``,
``vq_loss``, ``scaled_diff``) write one record each with a vjp made of
recorded ops. Everything is double precision. Tapes nest on one
module-level stack: the innermost entered tape (or ``None`` inside
``no_record``) receives the records.

A record names tensors by their ``node``, a bare object (a record as node
would make a cycle through any vjp that reads its own output), so an array
lives only while the caller or a recorded vjp holds its tensor.
"""
from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext

import numpy as np


class Tensor:
    """Double-precision array value, optionally recorded on the active tape."""

    __slots__ = ("data", "node")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = object()

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor({self.data!r})"


class Record:
    """One op: the nodes of its inputs and output, and its vjp."""

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
    t = Tensor.__new__(Tensor)
    t.data = data
    t.node = object()
    if _stack and _stack[-1] is not None:
        _stack[-1].records.append(Record(op, [x.node for x in inputs], t.node, vjp))
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
    """``op(a) @ op(b)`` over the last two axes, where ``op`` swaps the last
    two axes of an operand whose flag is set; leading axes broadcast. The swap
    is a numpy view, not a record, and the vjp is two flagged matmuls."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul: need operands of rank >= 2, got {a.data.shape} "
                         f"and {b.data.shape}")
    av = a.data.swapaxes(-1, -2) if ta else a.data
    bv = b.data.swapaxes(-1, -2) if tb else b.data
    if av.shape[-1] != bv.shape[-2]:
        raise ValueError(f"matmul: shape mismatch {av.shape} vs {bv.shape}")
    if av.ndim > 2 and bv.ndim > 2 and any(
            m != n and m != 1 and n != 1
            for m, n in zip(reversed(av.shape[:-2]), reversed(bv.shape[:-2]))):
        raise ValueError(f"matmul: leading axes mismatch {av.shape} vs {bv.shape}")
    sa, sb = a.data.shape, b.data.shape

    def vjp(g):
        ga = matmul(b, g, tb, True) if ta else matmul(g, b, False, not tb)
        gb = matmul(g, a, True, ta) if tb else matmul(a, g, not ta, False)
        return _unbroadcast(ga, sa), _unbroadcast(gb, sb)

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


def sum(x, axis=None, keepdims=False, counts=None):  # noqa: A001 - mirrors numpy naming
    """numpy's sum, or with ``counts`` the last axis kept as ``_row_sums`` sums it."""
    in_shape = x.data.shape
    if axis is not None:
        axis = tuple(int(a) % len(in_shape) for a in
                     (axis if isinstance(axis, tuple) else (axis,)))

    def vjp(g):
        if axis is not None and not keepdims:
            g = reshape(g, tuple(1 if i in axis else d for i, d in enumerate(in_shape)))
        return (expand(g, in_shape) if in_shape else g,)

    out = x.data.sum(axis=axis, keepdims=keepdims) if counts is None \
        else _row_sums(x.data, counts)[..., None]
    return _out(out, "sum", (x,), vjp)


def slice_axis(x, axis, start, stop):
    axis = int(axis) % x.data.ndim
    start, stop = int(start), int(stop)
    dim = x.data.shape[axis]
    if not (0 <= start <= stop <= dim):
        raise ValueError(f"slice_axis: range [{start}, {stop}) out of bounds for dim {dim}")
    index = (slice(None),) * axis + (slice(start, stop),)
    return _out(x.data[index].copy(), "slice_axis", (x,),
                lambda g: (pad_axis(g, axis, start, dim),))


def pad_axis(x, axis, start, dim):
    """``x`` written at ``[start, start + len)`` of ``axis`` into zeros whose
    ``axis`` has length ``dim``; the vjp is ``slice_axis``."""
    axis = int(axis) % x.data.ndim
    start, dim = int(start), int(dim)
    stop = start + x.data.shape[axis]
    if not (0 <= start <= stop <= dim):
        raise ValueError(f"pad_axis: range [{start}, {stop}) out of bounds for dim {dim}")
    if stop - start == dim:
        return x
    shape = list(x.data.shape)
    shape[axis] = dim
    out = np.zeros(shape)
    out[(slice(None),) * axis + (slice(start, stop),)] = x.data
    return _out(out, "pad_axis", (x,), lambda g: (slice_axis(g, axis, start, stop),))


def straight_through(z_e, z_q, rows):
    """Straight-through estimator: ``z_e`` with its ``rows`` replaced by
    ``z_q``'s rows; the whole gradient goes to ``z_e``, none to ``z_q``."""
    se, sq = z_e.data.shape, z_q.data.shape
    rows = np.asarray(rows, np.int64)
    if not se or len(sq) != len(se) or sq[1:] != se[1:] or rows.shape != sq[:1] \
            or (rows.size and (rows.min() < 0 or rows.max() >= se[0])):
        raise ValueError(f"straight_through: shape mismatch {se} vs {sq}")
    out = z_e.data.copy()
    out[rows] = z_q.data
    return _out(out, "straight_through", (z_e, z_q), lambda g: (g, None))


def vq_loss(z_q, z_e, counts):
    """The two-term VQ loss ``|z_q - sg[z_e]|^2 + |sg[z_q] - z_e|^2`` over
    equal-shaped (rows, d) tensors as one record. ``counts`` splits the rows
    into consecutive tables; each table's terms are divided by its row count,
    and the value holds one loss per table, shape ``(len(counts),)``."""
    q, e = z_q.data, z_e.data
    sizes = tuple(int(c) for c in counts)
    ends = np.cumsum(sizes)
    if q.ndim != 2 or q.shape != e.shape or ends[-1] != len(q) or min(sizes) < 1:
        raise ValueError(f"vq_loss: shape mismatch {q.shape} vs {e.shape} "
                         f"for row counts {sizes}")
    weights = 1.0 / np.asarray(sizes, dtype=np.float64)
    diff = q - e
    sq = diff * diff
    # a table's rows are contiguous, so each sum adds in np.sum's order for them
    parts = np.array([sq[hi - n:hi].sum() for n, hi in zip(sizes, ends)])
    value = (parts + parts) * weights
    one = len(sizes) == 1

    def vjp(g):
        # the scale both square terms share: g of the row's table over its count
        task = np.repeat(np.arange(len(sizes)), sizes)
        w = Tensor(weights[task][:, None])
        # one table's g broadcasts over its rows without a gather record
        gw = mul(g, w) if one else mul(gather(g, task[:, None]), w)
        return scaled_diff(gw, z_q, e, 2.0), scaled_diff(gw, z_e, q, 2.0)

    return _out(value, "vq_loss", (z_q, z_e), vjp)


def scaled_diff(s, x, c, k):
    """``(s * (x - c)) * k`` as one record, for a constant array ``c`` (the
    stop-gradient side of a VQ term) and a scale ``s`` that broadcasts."""
    sa, sx = _shapes(s, x, "scaled_diff")
    if c.shape != sx:
        raise ValueError(f"scaled_diff: shape mismatch {sx} vs {c.shape}")
    k = float(k)

    def vjp(g):
        gk = scale(g, k)
        return (_unbroadcast(mul(gk, add(x, Tensor(-c))), sa),
                _unbroadcast(mul(gk, s), sx))

    return _out((s.data * (x.data - c)) * k, "scaled_diff", (s, x), vjp)


def gather(table, indices):
    """Rows of ``table`` at ``indices`` (any shape), shaped
    ``indices.shape + table.shape[1:]``."""
    if table.data.ndim < 1:
        raise ValueError(f"gather: table must have rows, got {table.data.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    n = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"gather: index out of range for table with {n} rows")
    return _out(np.take(table.data, idx, axis=0), "gather", (table,),
                lambda g: (scatter_rows(g, idx, n),))


def scatter_rows(src, indices, num_rows):
    """``num_rows`` rows of zeros with ``src``'s rows added at ``indices``, in
    index order (the vjp of ``gather``)."""
    idx = np.asarray(indices, dtype=np.int64)
    num_rows = int(num_rows)
    inner = src.data.shape[idx.ndim:]
    if src.data.shape[:idx.ndim] != idx.shape:
        raise ValueError(f"scatter_rows: {src.data.shape} rows vs indices {idx.shape}")
    width = math.prod(inner)
    bins = (idx.reshape(-1, 1) * width + np.arange(width)).ravel()
    out = np.bincount(bins, weights=src.data.ravel(), minlength=num_rows * width)
    return _out(out.reshape((num_rows,) + inner), "scatter_rows", (src,),
                lambda g: (gather(g, idx),))


def linear_scan(u, gate, steps, reverse=False):
    """Diagonal linear recurrence ``h_t = gate * h_{t-1} + u_t``, h_0 = u_0,
    along axis -2.

    ``u`` is (..., steps * B, d) in position-major order: rows [t*B, (t+1)*B)
    hold position t. ``gate`` is (d,) or (..., 1, d). With ``reverse`` the scan
    runs from the last position to the first, ``h_t = gate * h_{t+1} + u_t``.
    The loop over positions runs in numpy inside one record. The vjp is a scan
    in the other direction plus a gate term made of recorded ops, so the op is
    closed under differentiation and ``create_graph`` works through it.
    """
    steps = int(steps)
    shape = u.data.shape
    if len(shape) < 2 or (gate.data.shape != shape[:-2] + (1, shape[-1]) and
                          (len(shape) > 2 or gate.data.shape != shape[-1:])):
        raise ValueError(f"linear_scan: need (..., rows, d) input and (d,) or "
                         f"(..., 1, d) gate, got {shape} and {gate.data.shape}")
    rows = shape[-2]
    if steps < 1 or rows % steps:
        raise ValueError(f"linear_scan: {rows} rows do not split into {steps} steps")
    batch = rows // steps
    axis = len(shape) - 2
    h = np.empty_like(u.data)
    # views with the position first: [t] is row block t of every task
    split = shape[:-2] + (steps, batch, shape[-1])
    first = (axis,) + tuple(range(axis)) + (axis + 1, axis + 2)
    u_t = u.data.reshape(split).transpose(first)
    h_t = h.reshape(split).transpose(first)
    prev = None
    for t in (reversed(range(steps)) if reverse else range(steps)):
        h_t[t] = u_t[t] if prev is None else gate.data * prev + u_t[t]
        prev = h_t[t]

    def vjp(g):
        gu = linear_scan(g, gate, steps, not reverse)
        # row block t of ``before`` holds the state that block t's gate multiplied
        if reverse:
            before = pad_axis(slice_axis(out, axis, batch, rows), axis, 0, rows)
        else:
            before = pad_axis(slice_axis(out, axis, 0, rows - batch), axis, batch, rows)
        return (gu, sum(mul(gu, before), axis=axis, keepdims=gate.data.ndim > 1))

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
    """``1 / sqrt(mean(y^2) + eps)`` over the last axis, keeping it as length 1."""
    if y.data.ndim < 1:
        raise ValueError(f"rms_inv: need a tensor with a last axis, got {y.data.shape}")
    d = y.data.shape[-1]
    ms = (y.data * y.data).sum(axis=-1, keepdims=True) * (1.0 / d)
    out = _out(1.0 / np.sqrt(ms + float(eps)), "rms_inv", (y,),
               lambda g: (scale(mul(mul(g, mul(out, square(out))), y), -1.0 / d),))
    return out


def _row_sums(e, counts):
    """Last-axis sums, leading index i over its first ``counts[i]`` columns
    only: numpy's pairwise sum groups by row length, so padding would round."""
    if counts is None:
        return e.sum(axis=-1)
    return np.stack([rows[..., :c].sum(axis=-1) for rows, c in zip(e, counts)])


def softmax_rows(x, counts=None):
    """Softmax over the last axis (see ``_row_sums`` for ``counts``)."""
    if x.data.ndim < 1:
        raise ValueError(f"softmax_rows: need a tensor with a last axis, got {x.data.shape}")
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    out = _out(e / _row_sums(e, counts)[..., None], "softmax_rows", (x,),
               lambda g: (mul(out, sub(g, sum(mul(g, out), -1, True, counts))),))
    return out


def cross_entropy(logits, targets, counts=None):
    """Mean over rows of ``logsumexp(row) - row[target]`` for (..., B, N)
    logits and (..., B) target columns, as one record: one mean per leading
    index. With ``counts``, leading index i reads its first ``counts[i]``
    columns only, the rest being -inf. Its vjp is made of recorded ops."""
    if logits.data.ndim < 2:
        raise ValueError(f"cross_entropy: need logits of rank >= 2, got {logits.data.shape}")
    *lead, rows, cols = logits.data.shape
    idx = np.asarray(targets, dtype=np.int64)
    if idx.shape != logits.data.shape[:-1]:
        want = " x ".join(str(n) for n in logits.data.shape[:-1])
        raise ValueError(f"cross_entropy: need {want} targets, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= cols):
        raise IndexError(f"cross_entropy: target out of range [0, {cols})")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(_row_sums(np.exp(z), counts))
    # every row of every leading index, as one flat list of rows
    flat = (np.arange(idx.size), idx.ravel())
    picked = z.reshape(-1, cols)[flat].reshape(idx.shape)

    def vjp(g):
        onehot = np.zeros((idx.size, cols))
        onehot[flat] = 1.0
        onehot = onehot.reshape(logits.data.shape)
        if lead:
            g = reshape(g, tuple(lead) + (1, 1))
        return (mul(scale(sub(softmax_rows(logits, counts), Tensor(onehot)), 1.0 / rows),
                    g),)

    return _out((lse - picked).sum(axis=-1) * (1.0 / rows), "cross_entropy",
                (logits,), vjp)


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
    live = {w.node for w in wrt}
    keep = set(live)
    path = []
    for rec in tape.records:
        if not live.isdisjoint(rec.inputs):
            live.add(rec.out)
            path.append(rec)
    grads = {output.node: Tensor(np.ones_like(output.data))}
    with nullcontext() if create_graph else no_record():
        for rec in reversed(path):
            # every consumer of rec.out comes later on the tape, so its
            # adjoint is complete here and can be freed unless it is returned
            g = grads.get(rec.out) if rec.out in keep else grads.pop(rec.out, None)
            if g is None:
                continue
            for n, gi in zip(rec.inputs, rec.vjp(g)):
                if gi is None or n not in live:
                    continue
                prev = grads.get(n)
                grads[n] = gi if prev is None else add(prev, gi)
    return [grads.get(w.node) for w in wrt]
