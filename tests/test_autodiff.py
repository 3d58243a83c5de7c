import warnings
import weakref
import zlib
from contextlib import contextmanager

import numpy as np
import pytest

from crossrec import autodiff as ad
from crossrec import meta
from crossrec.meta import MetaConfig

from oracles import fd_grad, full_sweep_grad, rel_err
from test_meta import tiny_world


def run_grad(build, arrays):
    with ad.Tape():
        ts = [ad.Tensor(a) for a in arrays]
        out = build(ts)
        return [g.data for g in ad.grad(out, ts)]


def scalar_of(build):
    return lambda arrays: float(build([ad.Tensor(a) for a in arrays]).data)


C34 = np.random.default_rng(34).standard_normal((3, 4))  # a constant operand
# logit padding for a ragged stack of two tasks, of 4 and of 3 columns
RAGGED = np.zeros((2, 3, 4))
RAGGED[1, :, 3:] = -np.inf

# one builder per forward op, each reduced to a scalar for gradient checking
OP_CASES = {
    "add": (lambda ts: ad.sum(ad.square(ad.add(ts[0], ts[1]))), [(5,), (5,)]),
    "add_row": (lambda ts: ad.sum(ad.square(ad.add(ts[0], ts[1]))), [(3, 4), (1, 4)]),
    "sub": (lambda ts: ad.sum(ad.square(ad.sub(ts[0], ts[1]))), [(5,), (5,)]),
    "sub_column": (lambda ts: ad.sum(ad.square(ad.sub(ts[0], ts[1]))), [(3, 1), (3, 4)]),
    "mul": (lambda ts: ad.sum(ad.mul(ts[0], ts[1])), [(2, 3), (2, 3)]),
    "mul_rank1": (lambda ts: ad.sum(ad.square(ad.mul(ts[0], ts[1]))), [(3, 4), (4,)]),
    "matmul": (lambda ts: ad.sum(ad.square(ad.matmul(ts[0], ts[1]))), [(3, 4), (4, 2)]),
    "matmul_ta": (lambda ts: ad.sum(ad.square(ad.matmul(ts[0], ts[1], ta=True))),
                  [(4, 3), (4, 2)]),
    "matmul_tb": (lambda ts: ad.sum(ad.square(ad.matmul(ts[0], ts[1], tb=True))),
                  [(3, 4), (2, 4)]),
    "matmul_ta_tb": (lambda ts: ad.sum(ad.square(ad.matmul(ts[0], ts[1], True, True))),
                     [(4, 3), (2, 4)]),
    "scale": (lambda ts: ad.sum(ad.square(ad.scale(ts[0], -2.5))), [(6,)]),
    "add_scalar": (lambda ts: ad.sum(ad.square(ad.add_scalar(ts[0], 0.7))), [(6,)]),
    "step": (lambda ts: ad.sum(ad.square(ad.step(ts[0], ts[1], 0.3))), [(2, 3), (2, 3)]),
    "sum": (lambda ts: ad.square(ad.sum(ts[0])), [(3, 3)]),
    "sum_axis": (lambda ts: ad.sum(ad.square(ad.sum(ts[0], axis=1))), [(3, 4)]),
    "matmul_stacked": (lambda ts: ad.sum(ad.square(ad.matmul(ts[0], ts[1], tb=True))),
                       [(2, 3, 4), (2, 5, 4)]),
    "matmul_broadcast": (lambda ts: ad.sum(ad.square(ad.matmul(ts[0], ts[1], ta=True))),
                         [(2, 4, 3), (4, 2)]),
    "slice": (lambda ts: ad.sum(ad.square(ad.slice_axis(ts[0], 1, 1, 3))), [(4, 5)]),
    "slice_last_rows": (lambda ts: ad.sum(ad.square(ad.slice_axis(ts[0], -2, 2, 4))),
                        [(2, 4, 3)]),
    "pad_axis": (lambda ts: ad.sum(ad.mul(ad.pad_axis(ts[0], 0, 1, 5), ts[1])),
                 [(3, 2), (5, 2)]),
    "scaled_diff": (lambda ts: ad.sum(ad.square(ad.scaled_diff(ts[0], ts[1], C34, -1.5))),
                    [(3, 1), (3, 4)]),
    "gather": (lambda ts: ad.sum(ad.square(ad.gather(ts[0], [2, 0, 2]))), [(4, 3)]),
    "gather_grid": (lambda ts: ad.sum(ad.square(ad.gather(ts[0], [[2, 0], [1, 2]]))),
                    [(4, 3)]),
    "gather_vector": (lambda ts: ad.sum(ad.square(ad.gather(ts[0], [[1], [3], [1]]))),
                      [(4,)]),
    "scatter_rows": (lambda ts: ad.sum(ad.square(ad.scatter_rows(ts[0], [2, 0, 2], 4))),
                     [(3, 3)]),
    "sigmoid": (lambda ts: ad.sum(ad.sigmoid(ts[0])), [(8,)]),
    "relu": (lambda ts: ad.sum(ad.square(ad.relu(ts[0]))), [(8,)]),
    "square": (lambda ts: ad.sum(ad.square(ts[0])), [(2, 4)]),
    "rms_inv": (lambda ts: ad.sum(ad.mul(ad.rms_inv(ts[0], 0.1), ts[1])), [(3, 4), (3, 1)]),
    "softmax_rows": (lambda ts: ad.sum(ad.mul(ad.softmax_rows(ts[0]), ts[1])),
                     [(3, 4), (3, 4)]),
    "cross_entropy": (lambda ts: ad.cross_entropy(ts[0], [1, 0, 3]), [(3, 4)]),
    "cross_entropy_stacked": (
        lambda ts: ad.sum(ad.mul(ad.cross_entropy(ts[0], [[1, 0, 3], [2, 2, 0]]), ts[1])),
        [(2, 3, 4), (2,)]),
    "cross_entropy_ragged": (
        lambda ts: ad.sum(ad.mul(ad.cross_entropy(ad.add(ts[0], ad.Tensor(RAGGED)),
                                                  [[1, 0, 3], [2, 2, 0]], (4, 3)), ts[1])),
        [(2, 3, 4), (2,)]),
    "rms_inv_stacked": (lambda ts: ad.sum(ad.mul(ad.rms_inv(ts[0], 0.1), ts[1])),
                        [(2, 3, 4), (2, 3, 1)]),
    "softmax_rows_stacked": (lambda ts: ad.sum(ad.mul(ad.softmax_rows(ts[0]), ts[1])),
                             [(2, 3, 4), (2, 3, 4)]),
    "reshape": (lambda ts: ad.sum(ad.square(ad.reshape(ts[0], (6,)))), [(2, 3)]),
    "expand": (lambda ts: ad.sum(ad.square(ad.expand(ts[0], (4, 3)))), [(1, 3)]),
    "expand_rank": (lambda ts: ad.sum(ad.square(ad.expand(ts[0], (2, 4, 3)))), [(4, 1)]),
    "linear_scan": (lambda ts: ad.sum(ad.square(ad.linear_scan(ts[0], ts[1], 3))),
                    [(6, 2), (2,)]),
    "linear_scan_reverse": (
        lambda ts: ad.sum(ad.square(ad.linear_scan(ts[0], ts[1], 3, reverse=True))),
        [(6, 2), (2,)]),
    "linear_scan_stacked": (lambda ts: ad.sum(ad.square(ad.linear_scan(ts[0], ts[1], 3))),
                            [(2, 6, 2), (2, 1, 2)]),
}


def recorded_ops(build):
    with ad.Tape() as tape:
        build()
    return {r.op for r in tape.records}


def test_op_cases_are_the_ops_the_model_records(monkeypatch):
    # criterion 1 runs OP_CASES, so it covers every op that a second-order
    # meta iteration records (the stacked forwards, their create_graph
    # backwards and the updates) and no other op; test_vq checks
    # straight_through and vq_loss, whose stop-gradients FD cannot see
    tapes = []

    class KeptTape(meta.Tape):
        def __enter__(self):
            tapes.append(self)
            return super().__enter__()

    monkeypatch.setattr(meta, "Tape", KeptTape)
    params, sources, target, mc = tiny_world()
    meta.train_iteration(params, sources, target, mc,
                         MetaConfig(inner_steps=1, inner_batch=4, meta_batch=4),
                         np.random.default_rng(0))
    model_ops = {r.op for t in tapes for r in t.records}
    rng = np.random.default_rng(0)
    case_ops = set()
    for build, shapes in OP_CASES.values():
        case_ops |= recorded_ops(
            lambda: build([ad.Tensor(rng.standard_normal(s)) for s in shapes]))
    assert model_ops - {"straight_through", "vq_loss"} == case_ops


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_gradient_matches_finite_differences(name):
    build, shapes = OP_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(5):
        arrays = [rng.standard_normal(s) for s in shapes]
        got = run_grad(build, arrays)
        ref = fd_grad(scalar_of(build), arrays)
        for g, r in zip(got, ref):
            assert rel_err(g, r) < 1e-6


def test_forward_examples():
    m = ad.matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]), ad.Tensor([[1.0], [1.0]]))
    assert np.array_equal(m.data, [[3.0], [7.0]])
    s = ad.sigmoid(ad.Tensor([0.0, 0.0, 0.0]))
    assert np.array_equal(s.data, [0.5, 0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # exp(1000) must overflow to inf without a warning
        s = ad.sigmoid(ad.Tensor([-1000.0, 1000.0, -np.inf, np.inf]))
    assert np.array_equal(s.data, [0.0, 1.0, 0.0, 1.0])
    e = np.eye(3)
    g = ad.gather(ad.Tensor(e), [2, 2])
    assert np.array_equal(g.data, np.stack([e[2], e[2]]))


def test_shape_mismatch_rejected_with_shapes():
    with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
        ad.add(ad.Tensor([1.0, 2.0]), ad.Tensor([1.0, 2.0, 3.0]))
    for idx in ([0, 5], [-1]):  # np.take would wrap -1 round: the range check stops it
        with pytest.raises(IndexError, match="gather"):
            ad.gather(ad.Tensor(np.eye(2)), idx)


def test_stop_gradient():
    # a stop-gradient is a new tensor over the same value: no record made it
    x = ad.Tensor([1.5, -2.0])
    assert np.array_equal(ad.Tensor(x.data).data, [1.5, -2.0])
    with ad.Tape():
        x = ad.Tensor([1.0, 2.0, 3.0])
        assert ad.grad(ad.sum(ad.Tensor(x.data)), [x]) == [None]
    with ad.Tape():
        x = ad.Tensor([3.0])
        (g,) = ad.grad(ad.sum(ad.mul(x, ad.Tensor(x.data))), [x])
        assert np.array_equal(g.data, [3.0])


def test_stop_gradient_blocks_arbitrary_expressions():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(4)
    with ad.Tape():
        x = ad.Tensor(v)
        e = ad.sum(ad.sigmoid(ad.square(ad.Tensor(x.data))))
        assert ad.grad(e, [x]) == [None]


def test_grad_power_rule_and_second_order():
    with ad.Tape():
        x = ad.Tensor([1.0, 2.0, 3.0])
        (g,) = ad.grad(ad.sum(ad.square(x)), [x])
        assert np.array_equal(g.data, [2.0, 4.0, 6.0])
    with ad.Tape():
        x = ad.Tensor([2.0])
        y = ad.sum(ad.mul(ad.mul(x, x), x))
        (g1,) = ad.grad(y, [x], create_graph=True)
        (g2,) = ad.grad(ad.sum(g1), [x])
        assert g2.data[0] == pytest.approx(12.0, abs=1e-12)


def test_second_order_matches_fd_of_first_gradient():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(4)

    def first_grad(arr):
        with ad.Tape():
            x = ad.Tensor(arr)
            y = ad.sum(ad.mul(ad.sigmoid(ad.scale(x, 0.5)), ad.square(x)))
            (g,) = ad.grad(y, [x])
        return g.data

    with ad.Tape():
        x = ad.Tensor(v)
        y = ad.sum(ad.mul(ad.sigmoid(ad.scale(x, 0.5)), ad.square(x)))
        (g1,) = ad.grad(y, [x], create_graph=True)
        (g2,) = ad.grad(ad.sum(g1), [x])

    step = 1e-6
    fd = np.zeros(4)
    for i in range(4):
        vp, vm = v.copy(), v.copy()
        vp[i] += step
        vm[i] -= step
        fd[i] = (first_grad(vp).sum() - first_grad(vm).sum()) / (2 * step)
    assert rel_err(g2.data, fd) < 1e-5


@pytest.mark.parametrize("reverse", [False, True])
def test_linear_scan_second_order_matches_fd(reverse):
    rng = np.random.default_rng(13 + reverse)
    u0, gate0 = rng.standard_normal((8, 3)), rng.uniform(-0.9, 0.9, 3)
    weight, cu, cg = (rng.standard_normal(s) for s in ((8, 3), (8, 3), (3,)))

    def probe(u, gate, create_graph):
        """<c, d loss / d (u, gate)> for a loss that weights every scan row."""
        h = ad.linear_scan(u, gate, 4, reverse)
        loss = ad.sum(ad.square(ad.mul(h, ad.Tensor(weight))))
        gu, gg = ad.grad(loss, [u, gate], create_graph=create_graph)
        return ad.add(ad.sum(ad.mul(gu, ad.Tensor(cu))), ad.sum(ad.mul(gg, ad.Tensor(cg))))

    def value(arrays):
        with ad.Tape():
            return float(probe(ad.Tensor(arrays[0]), ad.Tensor(arrays[1]), False).data)

    with ad.Tape():
        u, gate = ad.Tensor(u0), ad.Tensor(gate0)
        got = ad.grad(probe(u, gate, True), [u, gate])
    ref = fd_grad(value, [u0, gate0])
    for g, r in zip(got, ref):
        assert rel_err(g.data, r) < 1e-6


# ops whose vjp is built from recorded ops, checked through second order
SECOND_ORDER_CASES = {
    "rms_inv": (lambda ts: ad.rms_inv(ts[0], 0.1), [(4, 3)]),
    "softmax_rows": (lambda ts: ad.softmax_rows(ts[0]), [(3, 4)]),
    "cross_entropy": (lambda ts: ad.cross_entropy(ts[0], [2, 0, 3]), [(3, 4)]),
    "matmul_ta": (lambda ts: ad.matmul(ts[0], ts[1], ta=True), [(4, 3), (4, 2)]),
    "matmul_tb": (lambda ts: ad.matmul(ts[0], ts[1], tb=True), [(3, 4), (2, 4)]),
    "matmul_ta_tb": (lambda ts: ad.matmul(ts[0], ts[1], True, True), [(4, 3), (2, 4)]),
    "matmul_stacked": (lambda ts: ad.matmul(ts[0], ts[1], tb=True), [(2, 3, 4), (2, 2, 4)]),
    "cross_entropy_stacked": (lambda ts: ad.cross_entropy(ts[0], [[2, 0], [1, 1]]),
                              [(2, 2, 3)]),
    "cross_entropy_ragged": (
        lambda ts: ad.cross_entropy(ad.add(ts[0], ad.Tensor(RAGGED)),
                                    [[2, 0, 3], [1, 2, 0]], (4, 3)),
        [(2, 3, 4)]),
    "linear_scan_stacked": (lambda ts: ad.linear_scan(ts[0], ts[1], 2), [(2, 4, 3), (2, 1, 3)]),
}


@pytest.mark.parametrize("name", sorted(SECOND_ORDER_CASES))
def test_second_order_op_matches_fd(name):
    op, shapes = SECOND_ORDER_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    arrays = [rng.standard_normal(s) for s in shapes]
    weight = rng.standard_normal(np.shape(op([ad.Tensor(a) for a in arrays]).data))
    probes = [rng.standard_normal(s) for s in shapes]

    def probe(ts, create_graph):
        """<c, d loss / d inputs> for a loss that weights every output entry."""
        loss = ad.sum(ad.square(ad.mul(op(ts), ad.Tensor(weight))))
        grads = ad.grad(loss, ts, create_graph=create_graph)
        total = ad.sum(ad.mul(grads[0], ad.Tensor(probes[0])))
        for g, c in zip(grads[1:], probes[1:]):
            total = ad.add(total, ad.sum(ad.mul(g, ad.Tensor(c))))
        return total

    def value(arrs):
        with ad.Tape():
            return float(probe([ad.Tensor(a) for a in arrs], False).data)

    with ad.Tape():
        ts = [ad.Tensor(a) for a in arrays]
        got = ad.grad(probe(ts, True), ts)
    for g, r in zip(got, fd_grad(value, arrays)):
        assert rel_err(g.data, r) < 1e-6


def test_linear_scan_shape_errors():
    with pytest.raises(ValueError, match="do not split"):
        ad.linear_scan(ad.Tensor(np.zeros((5, 2))), ad.Tensor(np.zeros(2)), 2)
    with pytest.raises(ValueError, match="do not split"):
        ad.linear_scan(ad.Tensor(np.zeros((2, 5, 2))), ad.Tensor(np.zeros((2, 1, 2))), 2)
    for u, gate in [((4, 2), (3,)), ((2, 4, 2), (2,)), ((2, 4, 2), (1, 1, 2)),
                    ((2, 4, 2), (2, 4, 2)), ((2,), (2,))]:
        with pytest.raises(ValueError, match="gate"):
            ad.linear_scan(ad.Tensor(np.zeros(u)), ad.Tensor(np.zeros(gate)), 2)


def test_leading_axis_ops_match_per_slice_ops():
    # each slice of a stacked op is the 2-d op on that slice, byte for byte
    rng = np.random.default_rng(21)
    a, b = rng.standard_normal((3, 5, 4)), rng.standard_normal((3, 6, 4))
    got = ad.matmul(ad.Tensor(a), ad.Tensor(b), tb=True).data
    logits = rng.standard_normal((3, 5, 6))
    targets = rng.integers(0, 6, (3, 5))
    ce = ad.cross_entropy(ad.Tensor(logits), targets).data
    u, gate = rng.standard_normal((3, 8, 4)), rng.uniform(0, 1, (3, 1, 4))
    h = ad.linear_scan(ad.Tensor(u), ad.Tensor(gate), 4).data
    for i in range(3):
        assert got[i].tobytes() == ad.matmul(ad.Tensor(a[i]), ad.Tensor(b[i]),
                                             tb=True).data.tobytes()
        assert ce[i] == ad.cross_entropy(ad.Tensor(logits[i]), targets[i]).data
        assert h[i].tobytes() == ad.linear_scan(ad.Tensor(u[i]), ad.Tensor(gate[i, 0]),
                                                4).data.tobytes()
    assert ad.rms_inv(ad.Tensor(a), 0.1).data.shape == (3, 5, 1)
    assert ad.softmax_rows(ad.Tensor(a)).data.sum(axis=-1) == pytest.approx(np.ones((3, 5)))


def test_ragged_rows_round_like_their_own_rows():
    # tasks of 9, 20 and 17 columns on one -inf-padded stack: with the counts,
    # each task's loss, gradient and gradient of the gradient have the bytes
    # of its own unpadded rows (numpy sums 9 and 20 entries in other groups)
    rng = np.random.default_rng(22)
    counts = (9, 20, 17)
    rows = [rng.standard_normal((4, c)) for c in counts]
    targets = np.stack([rng.integers(0, c, 4) for c in counts])
    probes = [rng.standard_normal((4, c)) for c in counts]

    def run(logits, target, probe, task_counts=None):
        x = ad.Tensor(logits)
        with ad.Tape():
            loss = ad.cross_entropy(x, target, task_counts)
            (g,) = ad.grad(ad.sum(loss), [x], create_graph=True)
            (gg,) = ad.grad(ad.sum(ad.mul(g, ad.Tensor(probe))), [x])
        return loss.data, g.data, gg.data

    padded, probe = np.full((3, 4, 20), -np.inf), np.zeros((3, 4, 20))
    for i, c in enumerate(counts):
        padded[i, :, :c], probe[i, :, :c] = rows[i], probes[i]
    loss, g, gg = run(padded, targets, probe, counts)
    for i, c in enumerate(counts):
        ref = run(rows[i], targets[i], probes[i])
        assert loss[i] == ref[0], i
        assert g[i, :, :c].tobytes() == ref[1].tobytes(), i
        assert gg[i, :, :c].tobytes() == ref[2].tobytes(), i
        assert not g[i, :, c:].any() and not gg[i, :, c:].any()


def test_leading_axis_shape_errors():
    with pytest.raises(ValueError, match="leading axes"):
        ad.matmul(ad.Tensor(np.zeros((2, 3, 4))), ad.Tensor(np.zeros((3, 4, 2))))
    with pytest.raises(ValueError, match=r"shape mismatch \(2, 3, 4\)"):
        ad.matmul(ad.Tensor(np.zeros((2, 3, 4))), ad.Tensor(np.zeros((2, 3, 2))))
    with pytest.raises(ValueError, match="rank"):
        ad.matmul(ad.Tensor(np.zeros(4)), ad.Tensor(np.zeros((4, 2))))
    with pytest.raises(ValueError, match="need 2 x 3 targets"):
        ad.cross_entropy(ad.Tensor(np.zeros((2, 3, 4))), [0, 1, 2])
    with pytest.raises(ValueError, match="rank"):
        ad.cross_entropy(ad.Tensor(np.zeros(4)), [0])


def test_scatter_rows_adds_like_add_at():
    # bincount adds in index order from 0.0, as np.add.at does: byte-equal
    rng = np.random.default_rng(8)
    for rows, n, width in [(65, 96, 16), (7, 40, 3), (5, 0, 2)]:
        idx = rng.integers(0, rows, n)
        src = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-8, 8, (n, 1))
        ref = np.zeros((rows, width))
        np.add.at(ref, idx, src)
        got = ad.scatter_rows(ad.Tensor(src), idx, rows).data
        assert got.tobytes() == ref.tobytes()
    grid = ad.scatter_rows(ad.Tensor(np.ones((2, 3, 4))), [[0, 1, 0], [2, 2, 0]], 3)
    assert np.array_equal(grid.data[:, 0], [3.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="scatter_rows"):
        ad.scatter_rows(ad.Tensor(np.ones((2, 4))), [0, 1, 0], 3)


def test_pad_axis_and_slice_axis_are_each_others_vjp():
    x = ad.Tensor(np.arange(6.0).reshape(2, 3))
    padded = ad.pad_axis(x, 0, 1, 4)
    assert np.array_equal(padded.data, [[0, 0, 0], [0, 1, 2], [3, 4, 5], [0, 0, 0]])
    with ad.Tape() as tape:  # nothing to pad: equal bytes in a new tensor
        full = ad.pad_axis(x, 1, 0, 3)
    assert full is not x and full.data is not x.data
    assert (full.data.shape, full.data.tobytes()) == (x.data.shape, x.data.tobytes())
    assert [r.op for r in tape.records] == ["pad_axis"]
    with ad.Tape() as tape:
        t = ad.Tensor(np.ones((3, 4)))
        (g,) = ad.grad(ad.sum(ad.slice_axis(t, -1, 1, 3)), [t], create_graph=True)
    assert [r.op for r in tape.records] == ["slice_axis", "sum", "expand", "pad_axis"]
    assert np.array_equal(g.data, np.tile([0.0, 1.0, 1.0, 0.0], (3, 1)))
    for axis, start, dim in [(0, 3, 4), (0, -1, 4), (1, 0, 2)]:
        with pytest.raises(ValueError, match="pad_axis"):
            ad.pad_axis(x, axis, start, dim)


def test_grad_frees_adjoints_it_has_swept():
    import tracemalloc
    chain = 40
    with ad.Tape():
        x = ad.Tensor(np.ones(20000))  # 160 kB per adjoint
        y = x
        for _ in range(chain):
            y = ad.scale(y, 1.0)
        out = ad.sum(y)
        tracemalloc.start()
        (g,) = ad.grad(out, [x])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert np.array_equal(g.data, np.ones(20000))
    assert peak < 8 * x.data.nbytes  # not one adjoint per record of the chain
    with ad.Tape():
        x = ad.Tensor([1.0, 2.0])
        y = ad.square(x)
        gx, gy = ad.grad(ad.sum(ad.scale(y, 3.0)), [x, y])  # wrt entries are kept
    assert np.array_equal(gy.data, [3.0, 3.0]) and np.array_equal(gx.data, [6.0, 12.0])


RELEASE_CASES = {
    **OP_CASES,
    "vq_loss": (lambda ts: ad.sum(ad.vq_loss(ts[0], ts[1], (2, 1))), [(3, 4), (3, 4)]),
    "straight_through": (
        lambda ts: ad.sum(ad.square(ad.straight_through(ts[0], ts[1], [2, 0]))),
        [(4, 3), (2, 3)]),
}


@contextmanager
def made_arrays():
    """(op, weak reference) for the array of every tensor an op makes meanwhile."""
    made, record = [], ad._out

    def out(data, op, inputs, vjp):
        t = record(data, op, inputs, vjp)
        if isinstance(t.data, np.ndarray):  # a full sum's numpy scalar takes no weakref
            made.append((op, weakref.ref(t.data)))
        return t

    ad._out = out
    try:
        yield made
    finally:
        ad._out = record


def unread_arrays(made, tape, held):
    """(op, shape) of each array in ``made`` that is still alive although no
    vjp on ``tape`` reads it and no tensor in ``held`` holds it or a view of it.
    Fails if a record holds a tensor."""
    assert not any(isinstance(x, ad.Tensor) for r in tape.records for x in [*r.inputs, r.out])
    ids = set()
    for v in [*(c.cell_contents for r in tape.records for c in r.vjp.__closure__ or ()),
              *held]:
        a = v.data if isinstance(v, ad.Tensor) else v
        while isinstance(a, np.ndarray):
            ids.add(id(a))
            a = a.base
    return [(op, a.shape) for op, ref in made if (a := ref()) is not None and id(a) not in ids]


def second_grad_bytes(build, arrays, probes):
    """Bytes of d <probes, d build / d leaves> / d leaves, and what
    ``unread_arrays`` finds alive before the second grad."""
    with ad.Tape() as tape, made_arrays() as made:
        leaves = [ad.Tensor(a) for a in arrays]
        out = build([ad.scale(t, 1.0) for t in leaves])
        firsts = [ad.sum(ad.mul(g, ad.Tensor(c))) for g, c in
                  zip(ad.grad(out, leaves, create_graph=True), probes) if g is not None]
        total = firsts[0]
        for term in firsts[1:]:
            total = ad.add(total, term)
        unread = unread_arrays(made, tape, [*leaves, out, *firsts, total])
        return [None if g is None else g.data.tobytes() for g in ad.grad(total, leaves)], unread


@pytest.mark.parametrize("name", sorted(RELEASE_CASES))
def test_release_keeps_what_every_vjp_reads(monkeypatch, name):
    # reference counting is the release: records hold no tensor, so after the
    # forward and a create_graph grad an array that an op made is alive only
    # if a recorded vjp reads it or the caller holds it, and the second grad
    # gives the bytes it gives when every tensor is kept alive
    build, shapes = RELEASE_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    arrays = [rng.standard_normal(s) for s in shapes]
    probes = [rng.standard_normal(s) for s in shapes]
    released, unread = second_grad_bytes(build, arrays, probes)
    assert unread == []
    kept, record = [], ad._out
    monkeypatch.setattr(ad, "_out", lambda *a: kept.append(record(*a)) or kept[-1])
    assert second_grad_bytes(build, arrays, probes)[0] == released


def test_release_after_every_step_drops_what_one_full_scan_drops():
    # after several inner steps the arrays still alive are exactly those that
    # a vjp on the whole tape reads or that theta and phi hold: the phi of an
    # earlier step is dropped once no later step reads it, and so is every
    # step loss
    rng = np.random.default_rng(4)
    theta = {"table": ad.Tensor(rng.standard_normal((5, 3))),
             "w": ad.Tensor(rng.standard_normal((3, 2)))}

    def step_loss(p):
        rows = ad.sigmoid(ad.gather(p["table"], [4, 0, 2, 0]))
        return ad.sum(ad.square(ad.matmul(rows, p["w"])))

    with made_arrays() as made:
        adapted = meta.inner_adapt(theta, [step_loss] * 3, MetaConfig(inner_steps=3))
    assert unread_arrays(made, adapted.tape, [*theta.values(), *adapted.phi.values()]) == []
    assert any(op == "step" and ref() is None for op, ref in made)


def test_non_scalar_grad_rejected():
    with ad.Tape():
        x = ad.Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            ad.grad(x, [x])


def test_unreachable_wrt_gets_none():
    with ad.Tape():
        x = ad.Tensor([1.0, 2.0])
        z = ad.Tensor(np.ones((2, 2)))
        (gx, gz) = ad.grad(ad.sum(x), [x, z])
        assert np.array_equal(gx.data, [1.0, 1.0])
        assert gz is None
    with ad.Tape() as tape:
        # on the tape and forward of x, but not backward of the output
        x = ad.Tensor([1.0, 2.0])
        side = ad.square(x)
        n = len(tape.records)
        (gx, gs) = ad.grad(ad.sum(ad.scale(x, 3.0)), [x, side], create_graph=True)
        assert np.array_equal(gx.data, [3.0, 3.0])
        assert gs is None
        # only the forward sum/scale and their vjps: no zero tensor is recorded
        assert [r.op for r in tape.records[n:]] == ["scale", "sum", "expand", "scale"]
    with ad.Tape():
        # a gradient that reaches a tensor but sums to zero is not None
        x = ad.Tensor([1.0, 2.0])
        (g,) = ad.grad(ad.sum(ad.sub(x, x)), [x])
        assert np.array_equal(g.data, [0.0, 0.0])


def test_grad_records_nothing_upstream_of_wrt():
    rng = np.random.default_rng(3)
    w0, x0 = rng.standard_normal((3, 3)), rng.standard_normal((3, 1))

    def downstream(h):
        return ad.sum(ad.square(ad.mul(h, ad.sigmoid(h))))

    def run(grad_fn):
        with ad.Tape() as tape:
            h = ad.sigmoid(ad.matmul(ad.Tensor(w0), ad.Tensor(x0)))
            y = downstream(h)
            n = len(tape.records)
            (g,) = grad_fn(y, [h], create_graph=True)
        return g.data.tobytes(), [r.op for r in tape.records[n:]]

    pruned, pruned_ops = run(ad.grad)
    unpruned, unpruned_ops = run(full_sweep_grad)
    assert pruned == unpruned
    # the upstream matmul/sigmoid vjps are recorded only without pruning
    assert "matmul" in unpruned_ops and "matmul" not in pruned_ops
    # with h as a leaf the tape holds no upstream ops: same records exactly
    with ad.Tape() as tape:
        h = ad.Tensor(1.0 / (1.0 + np.exp(-(w0 @ x0))))
        y = downstream(h)
        n = len(tape.records)
        ad.grad(y, [h], create_graph=True)
        leaf_ops = [r.op for r in tape.records[n:]]
    assert pruned_ops == leaf_ops


def test_tape_determinism_and_replay(monkeypatch):
    outs, record = [], ad._out

    def out(data, op, inputs, vjp):
        if ad._active() is not None:  # the op goes on the tape
            outs.append((op, data.tobytes()))
        return record(data, op, inputs, vjp)

    monkeypatch.setattr(ad, "_out", out)

    def run():
        outs.clear()
        with ad.Tape() as tape:
            x = ad.Tensor([[0.3], [-0.7], [1.1]])
            w = ad.Tensor(np.arange(9, dtype=float).reshape(3, 3) / 10)
            y = ad.sum(ad.square(ad.sigmoid(ad.matmul(w, x))))
            gs = ad.grad(y, [x, w], create_graph=True)
            (g2,) = ad.grad(ad.sum(ad.square(gs[1])), [x])
        assert [op for op, _ in outs] == [r.op for r in tape.records]
        return list(outs), [g.data.tobytes() for g in gs + [g2]]

    first, second = run(), run()
    assert len(first[0]) > 10
    assert first == second


def test_detached_tensor_contributes_zero():
    with ad.Tape():
        x = ad.Tensor([1.0, 2.0])
        const = ad.Tensor(np.array([5.0, 5.0]))  # built outside any op
        y = ad.sum(ad.mul(x, const))
        (g,) = ad.grad(y, [x])
        assert np.array_equal(g.data, [5.0, 5.0])
