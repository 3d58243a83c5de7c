import zlib

import numpy as np
import pytest
from scipy.special import expit

from crossrec import autodiff as ad
from crossrec.data import sample_batch
from crossrec.objective import batch_loss

from oracles import fd_grad, full_sweep_grad, rel_err
from test_meta import tiny_world


def run_grad(build, arrays):
    with ad.Tape():
        ts = [ad.tensor(a) for a in arrays]
        out = build(ts)
        return [g.data for g in ad.grad(out, ts)]


def scalar_of(build):
    return lambda arrays: float(build([ad.tensor(a) for a in arrays]).data)


# one builder per forward op, each reduced to a scalar for gradient checking
OP_CASES = {
    "add": (lambda ts: ad.sum(ad.square(ad.add(ts[0], ts[1]))), [(5,), (5,)]),
    "sub": (lambda ts: ad.sum(ad.square(ad.sub(ts[0], ts[1]))), [(5,), (5,)]),
    "mul": (lambda ts: ad.sum(ad.mul(ts[0], ts[1])), [(2, 3), (2, 3)]),
    "matmul": (lambda ts: ad.sum(ad.square(ad.matmul(ts[0], ts[1]))), [(3, 4), (4, 2)]),
    "scale": (lambda ts: ad.sum(ad.square(ad.scale(ts[0], -2.5))), [(6,)]),
    "sum": (lambda ts: ad.square(ad.sum(ts[0])), [(3, 3)]),
    "sum_axis": (lambda ts: ad.sum(ad.square(ad.sum(ts[0], axis=1))), [(3, 4)]),
    "mean": (lambda ts: ad.square(ad.mean(ts[0])), [(7,)]),
    "mean_axis": (lambda ts: ad.sum(ad.square(ad.mean(ts[0], axis=0))), [(4, 3)]),
    "concat": (lambda ts: ad.sum(ad.square(ad.concat(ts, 0))), [(2, 3), (4, 3)]),
    "concat_axis1": (lambda ts: ad.sum(ad.square(ad.concat(ts, 1))), [(2, 3), (2, 2)]),
    "slice": (lambda ts: ad.sum(ad.square(ad.slice_axis(ts[0], 1, 1, 3))), [(4, 5)]),
    "gather": (lambda ts: ad.sum(ad.square(ad.gather(ts[0], [2, 0, 2]))), [(4, 3)]),
    "sigmoid": (lambda ts: ad.sum(ad.sigmoid(ts[0])), [(8,)]),
    "relu": (lambda ts: ad.sum(ad.square(ad.relu(ts[0]))), [(8,)]),
    "log": (lambda ts: ad.sum(ad.log(ad.add_scalar(ad.square(ts[0]), 1.0))), [(6,)]),
    "exp": (lambda ts: ad.sum(ad.exp(ts[0])), [(6,)]),
    "square": (lambda ts: ad.sum(ad.square(ts[0])), [(2, 4)]),
    "sqrt": (lambda ts: ad.sum(ad.sqrt(ad.add_scalar(ad.square(ts[0]), 0.5))), [(6,)]),
    "take_per_row": (lambda ts: ad.sum(ad.square(ad.take_per_row(ts[0], [1, 0, 2]))),
                     [(3, 4)]),
    "transpose": (lambda ts: ad.sum(ad.square(ad.matmul(ad.transpose(ts[0]), ts[0]))),
                  [(3, 2)]),
    "reshape": (lambda ts: ad.sum(ad.square(ad.reshape(ts[0], (6,)))), [(2, 3)]),
    "expand": (lambda ts: ad.sum(ad.square(ad.expand(ts[0], (4, 3)))), [(1, 3)]),
    "reciprocal": (lambda ts: ad.sum(ad.reciprocal(ad.add_scalar(ad.square(ts[0]), 1.0))),
                   [(5,)]),
    "linear_scan": (lambda ts: ad.sum(ad.square(ad.linear_scan(ts[0], ts[1], 3))),
                    [(6, 2), (2,)]),
    "linear_scan_reverse": (
        lambda ts: ad.sum(ad.square(ad.linear_scan(ts[0], ts[1], 3, reverse=True))),
        [(6, 2), (2,)]),
}


def recorded_ops(build):
    with ad.Tape() as tape:
        build()
    return {r.op for r in tape.records}


def test_op_cases_are_the_ops_the_model_records():
    # criterion 1 runs OP_CASES, so it covers every op of the model and no op
    # the model does not use; test_vq checks the two ops without a useful FD
    params, sources, _, mc = tiny_world()
    batch = sample_batch(sources[0], "train", 4, mc.encoder.max_len,
                         np.random.default_rng(0))
    model_ops = recorded_ops(lambda: batch_loss(params, batch, mc))
    rng = np.random.default_rng(0)
    case_ops = set()
    for build, shapes in OP_CASES.values():
        case_ops |= recorded_ops(
            lambda: build([ad.tensor(rng.standard_normal(s)) for s in shapes]))
    assert model_ops - {"straight_through", "stop_gradient"} == case_ops


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
    m = ad.matmul(ad.tensor([[1.0, 2.0], [3.0, 4.0]]), ad.tensor([[1.0], [1.0]]))
    assert np.array_equal(m.data, [[3.0], [7.0]])
    s = ad.sigmoid(ad.tensor([0.0, 0.0, 0.0]))
    assert np.array_equal(s.data, [0.5, 0.5, 0.5])
    e = np.eye(3)
    g = ad.gather(ad.tensor(e), [2, 2])
    assert np.array_equal(g.data, np.stack([e[2], e[2]]))


def test_shape_mismatch_rejected_with_shapes():
    with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
        ad.add(ad.tensor([1.0, 2.0]), ad.tensor([1.0, 2.0, 3.0]))
    with pytest.raises(IndexError):
        ad.gather(ad.tensor(np.eye(2)), [0, 5])


def test_stop_gradient():
    x = ad.tensor([1.5, -2.0])
    assert np.array_equal(ad.stop_gradient(x).data, [1.5, -2.0])
    with ad.Tape():
        x = ad.tensor([1.0, 2.0, 3.0])
        (g,) = ad.grad(ad.sum(ad.stop_gradient(x)), [x])
        assert np.array_equal(g.data, np.zeros(3))
    with ad.Tape():
        x = ad.tensor([3.0])
        (g,) = ad.grad(ad.sum(ad.mul(x, ad.stop_gradient(x))), [x])
        assert np.array_equal(g.data, [3.0])


def test_stop_gradient_blocks_arbitrary_expressions():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(4)
    with ad.Tape():
        x = ad.tensor(v)
        e = ad.sum(ad.sigmoid(ad.square(ad.stop_gradient(x))))
        (g,) = ad.grad(e, [x])
        assert np.array_equal(g.data, np.zeros(4))


def test_grad_power_rule_and_second_order():
    with ad.Tape():
        x = ad.tensor([1.0, 2.0, 3.0])
        (g,) = ad.grad(ad.sum(ad.square(x)), [x])
        assert np.array_equal(g.data, [2.0, 4.0, 6.0])
    with ad.Tape():
        x = ad.tensor([2.0])
        y = ad.sum(ad.mul(ad.mul(x, x), x))
        (g1,) = ad.grad(y, [x], create_graph=True)
        (g2,) = ad.grad(ad.sum(g1), [x])
        assert g2.data[0] == pytest.approx(12.0, abs=1e-12)


def test_second_order_matches_fd_of_first_gradient():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(4)

    def first_grad(arr):
        with ad.Tape():
            x = ad.tensor(arr)
            y = ad.sum(ad.mul(ad.exp(ad.scale(x, 0.5)), ad.square(x)))
            (g,) = ad.grad(y, [x])
        return g.data

    with ad.Tape():
        x = ad.tensor(v)
        y = ad.sum(ad.mul(ad.exp(ad.scale(x, 0.5)), ad.square(x)))
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
        loss = ad.sum(ad.square(ad.mul(h, ad.tensor(weight))))
        gu, gg = ad.grad(loss, [u, gate], create_graph=create_graph)
        return ad.add(ad.sum(ad.mul(gu, ad.tensor(cu))), ad.sum(ad.mul(gg, ad.tensor(cg))))

    def value(arrays):
        with ad.Tape():
            return float(probe(ad.tensor(arrays[0]), ad.tensor(arrays[1]), False).data)

    with ad.Tape():
        u, gate = ad.tensor(u0), ad.tensor(gate0)
        got = ad.grad(probe(u, gate, True), [u, gate])
    ref = fd_grad(value, [u0, gate0])
    for g, r in zip(got, ref):
        assert rel_err(g.data, r) < 1e-6


def test_linear_scan_shape_errors():
    with pytest.raises(ValueError, match="do not split"):
        ad.linear_scan(ad.tensor(np.zeros((5, 2))), ad.tensor(np.zeros(2)), 2)
    with pytest.raises(ValueError, match="gate"):
        ad.linear_scan(ad.tensor(np.zeros((4, 2))), ad.tensor(np.zeros(3)), 2)


def test_non_scalar_grad_rejected():
    with ad.Tape():
        x = ad.tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            ad.grad(x, [x])


def test_unreachable_wrt_gets_zeros():
    with ad.Tape():
        x = ad.tensor([1.0, 2.0])
        z = ad.tensor(np.ones((2, 2)))
        (gx, gz) = ad.grad(ad.sum(x), [x, z])
        assert np.array_equal(gx.data, [1.0, 1.0])
        assert np.array_equal(gz.data, np.zeros((2, 2)))
    with ad.Tape():
        # on the tape and forward of x, but not backward of the output
        x = ad.tensor([1.0, 2.0])
        side = ad.square(x)
        (gx, gs) = ad.grad(ad.sum(ad.scale(x, 3.0)), [x, side], create_graph=True)
        assert np.array_equal(gx.data, [3.0, 3.0])
        assert np.array_equal(gs.data, np.zeros(2))


def test_grad_records_nothing_upstream_of_wrt():
    rng = np.random.default_rng(3)
    w0, x0 = rng.standard_normal((3, 3)), rng.standard_normal((3, 1))

    def downstream(h):
        return ad.sum(ad.square(ad.mul(h, ad.sigmoid(h))))

    def run(grad_fn):
        with ad.Tape() as tape:
            h = ad.sigmoid(ad.matmul(ad.tensor(w0), ad.tensor(x0)))
            y = downstream(h)
            n = len(tape.records)
            (g,) = grad_fn(y, [h], create_graph=True)
        return g.data.tobytes(), [r.op for r in tape.records[n:]]

    pruned, pruned_ops = run(ad.grad)
    unpruned, unpruned_ops = run(full_sweep_grad)
    assert pruned == unpruned
    # the upstream matmul/sigmoid vjps are recorded only without pruning
    assert "transpose" in unpruned_ops and "transpose" not in pruned_ops
    # with h as a leaf the tape holds no upstream ops: same records exactly
    with ad.Tape() as tape:
        h = ad.tensor(expit(w0 @ x0))
        y = downstream(h)
        n = len(tape.records)
        ad.grad(y, [h], create_graph=True)
        leaf_ops = [r.op for r in tape.records[n:]]
    assert pruned_ops == leaf_ops


def test_tape_determinism_and_replay():
    def run():
        with ad.Tape() as tape:
            x = ad.tensor([[0.3], [-0.7], [1.1]])
            w = ad.tensor(np.arange(9, dtype=float).reshape(3, 3) / 10)
            y = ad.sum(ad.square(ad.sigmoid(ad.matmul(w, x))))
            gs = ad.grad(y, [x, w], create_graph=True)
            (g2,) = ad.grad(ad.sum(ad.square(gs[1])), [x])
        return ([(r.op, r.out.data.tobytes()) for r in tape.records],
                [g.data.tobytes() for g in gs + [g2]])

    first, second = run(), run()
    assert len(first[0]) > 10
    assert first == second


def test_detached_tensor_contributes_zero():
    with ad.Tape():
        x = ad.tensor([1.0, 2.0])
        const = ad.Tensor(np.array([5.0, 5.0]))  # built outside any op
        y = ad.sum(ad.mul(x, const))
        (g,) = ad.grad(y, [x])
        assert np.array_equal(g.data, [5.0, 5.0])
