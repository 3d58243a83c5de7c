import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossrec import autodiff as ad
from crossrec import vq
from crossrec.autodiff import Tensor
from crossrec.backbone import EncoderConfig, init_parameters
from crossrec.objective import ModelConfig, VQConfig, domain_item_matrix

from oracles import (fd_grad, nearest_codes_exhaustive, per_head_quantize_rows,
                     rel_err)


def book_from(rows, heads, quantized=1):
    """Codebook over an explicit table, for ``quantized`` rows of one table; a
    padding row is appended."""
    rows = np.asarray(rows, dtype=np.float64)
    table = np.vstack([rows, np.zeros((1, rows.shape[1]))])
    return vq.Codebook(table=Tensor(table), heads=heads, counts=(quantized,))


def test_single_head_nearest_by_angle():
    book = book_from([[1.0, 0.0], [0.0, 1.0]], heads=1)
    z_q, codes = vq.quantize_rows(ad.Tensor([[0.9, 0.1]]), book)
    assert np.array_equal(z_q.data, [[1.0, 0.0]])
    assert codes.tolist() == [[0]]
    # the book's row counts and its width must fit the rows
    for z in ([[0.9, 0.1], [0.0, 1.0]], [[0.9, 0.1, 0.0]]):
        with pytest.raises(ValueError, match="quantize"):
            vq.quantize_rows(ad.Tensor(z), book)


def test_two_head_example():
    rows = [[1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 1.0, 0.0],
            [1.0, 1.0, 1.0, 1.0]]
    book = book_from(rows, heads=2)
    z_q, codes = vq.quantize_rows(ad.Tensor([[2.0, 0.0, 0.0, 3.0]]), book)
    assert codes[0].tolist() == nearest_codes_exhaustive(
        np.array([2.0, 0.0, 0.0, 3.0]), np.asarray(rows), 2)
    assert codes[0].tolist() == [0, 0]
    assert np.array_equal(z_q.data, [[1.0, 0.0, 0.0, 1.0]])


def test_scaled_copy_of_target_row_maps_to_that_row():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((5, 6))
    book = book_from(rows, heads=3)
    j = 3
    z_q, codes = vq.quantize_rows(ad.Tensor(2.5 * rows[j:j + 1]), book)
    assert codes[0].tolist() == [j, j, j]
    assert np.array_equal(z_q.data[0], rows[j])


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**31 - 1), st.sampled_from([1, 2, 3]),
       st.integers(2, 7), st.floats(0.01, 100.0))
def test_codes_match_exhaustive_oracle_and_scale_invariance(seed, heads, k, c):
    rng = np.random.default_rng(seed)
    width = heads * 2
    rows = rng.standard_normal((k, width))
    book = book_from(rows, heads)
    z = rng.standard_normal(width)
    z_q, codes = vq.quantize_rows(ad.Tensor(z[None]), book)
    assert codes[0].tolist() == nearest_codes_exhaustive(z, rows, heads)
    _, scaled = vq.quantize_rows(ad.Tensor(c * z[None]), book)
    assert np.array_equal(scaled, codes)
    # every head-slice of z_q is bit-identical to some codebook slice
    for h, j in enumerate(codes[0]):
        assert np.array_equal(z_q.data[0, h * 2:(h + 1) * 2], rows[j][h * 2:(h + 1) * 2])


@pytest.mark.parametrize("block_floats", [vq.BLOCK_FLOATS, 5 * 2 * 9, 1])
def test_blocked_code_search_matches_exhaustive_oracle(monkeypatch, block_floats):
    # three stacked copies of a 9-code table, rows (11, 1, 7); at 5 rows a
    # block, a copy's rows end in a remainder block, of one row for the first
    # copy; at 1 float every block is one row
    monkeypatch.setattr(vq, "BLOCK_FLOATS", block_floats)
    rng = np.random.default_rng(23)
    heads, width, k, counts = 2, 3, 9, (11, 1, 7)
    copies = []
    for _ in counts:
        codes = rng.standard_normal((k, heads * width))
        codes[5] = codes[2]  # a duplicated code
        codes[7, width:] = codes[1, width:]  # a duplicated head slice
        codes[4] = 0.0  # an all-zero code
        codes[6, :width] = 0.0  # an all-zero head slice
        copies.append(codes)
    table = np.vstack([np.vstack([c, np.zeros((1, heads * width))]) for c in copies])
    book = vq.Codebook(table=Tensor(table), heads=heads, counts=counts)
    assert book.size == k
    z = rng.standard_normal((sum(counts), heads * width))
    z[0] = 2.0 * copies[0][2]  # ties codes 2 and 5 in both heads
    z[3, width:] = copies[0][1, width:]  # ties codes 1 and 7 in head 1
    z[5] = 0.0  # an all-zero row ties every code
    z[12] = 0.5 * copies[2][5]
    _, got = vq.quantize_rows(Tensor(z), book)
    lo = 0
    for i, (n, codes) in enumerate(zip(counts, copies)):
        for r in range(lo, lo + n):
            want = [c + i * (k + 1) for c in nearest_codes_exhaustive(z[r], codes, heads)]
            assert got[r].tolist() == want, r
        lo += n
    assert got[0].tolist() == [2, 2] and got[3, 1] == 1 and got[5].tolist() == [0, 0]
    assert got[12].tolist() == [2 + 2 * (k + 1)] * 2


def test_code_search_memory_stays_flat():
    # N = K = 2048 rows of 4 heads: one head's whole N x K score array alone
    # would be 33.5 MB
    rng = np.random.default_rng(29)
    n, heads = 2048, 4
    table = Tensor(rng.standard_normal((n + 1, heads * 4)))
    book = vq.Codebook(table=table, heads=heads, counts=(n,))
    z = rng.standard_normal((n, heads * 4))
    tracemalloc.start()
    try:
        codes = vq._head_codes(z, book)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert codes.shape == (n, heads)
    assert peak < 4 * 2**20, peak


def test_all_zero_embedding_ties_to_code_zero():
    book = book_from(np.ones((4, 2)), heads=1)
    _, codes = vq.quantize_rows(ad.Tensor([[0.0, 0.0]]), book)
    assert codes.tolist() == [[0]]


def test_vq_loss_values():
    # one loss per table, one table included
    assert ad.vq_loss(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0, 2.0]]),
                      (1,)).data.tolist() == [0.0]
    loss = ad.vq_loss(ad.Tensor([[1.0, 0.0]]), ad.Tensor([[0.0, 0.0]]), (1,))
    assert loss.data.tolist() == pytest.approx([2.0])
    # the mean over quantized rows
    rows = ad.vq_loss(ad.Tensor([[1.0, 0.0], [0.0, 3.0]]), ad.Tensor(np.zeros((2, 2))),
                      (2,))
    assert rows.data.shape == (1,) and rows.data[0] == pytest.approx((2.0 + 18.0) / 2)
    for q, e, counts in [((1, 1), (1, 2), (1,)), ((2,), (2,), (2,)),
                         ((2, 2), (2, 2), (3,)),
                         ((3, 2), (3, 2), (2, 2)), ((3, 2), (3, 2), (3, 0))]:
        with pytest.raises(ValueError, match="vq_loss"):
            ad.vq_loss(ad.Tensor(np.zeros(q)), ad.Tensor(np.zeros(e)), counts)


def test_vq_loss_per_task_equals_separate_losses():
    # one value per task, each byte-equal to the task's own loss, and the
    # gradient of their weighted sum is each task's own gradient, scaled
    rng = np.random.default_rng(12)
    zq, ze = rng.standard_normal((7, 4)), rng.standard_normal((7, 4))
    counts, weights = (3, 4), np.array([0.5, -2.0])
    with ad.Tape():
        tq, te = ad.Tensor(zq), ad.Tensor(ze)
        both = ad.vq_loss(tq, te, counts)
        gq, ge = ad.grad(ad.sum(ad.mul(both, ad.Tensor(weights))), [tq, te])
    for i, (lo, hi) in enumerate([(0, 3), (3, 7)]):
        with ad.Tape():
            sq, se = ad.Tensor(zq[lo:hi]), ad.Tensor(ze[lo:hi])
            one = ad.vq_loss(sq, se, (hi - lo,))
            rq, re = ad.grad(ad.scale(one, weights[i]), [sq, se])
        assert both.data[i] == one.data
        assert gq.data[lo:hi].tobytes() == rq.data.tobytes()
        assert ge.data[lo:hi].tobytes() == re.data.tobytes()


def test_vq_loss_zero_iff_equal():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((1, 5))
    b = a.copy()
    b[0, 2] += 1e-3
    assert ad.vq_loss(ad.Tensor(a), ad.Tensor(a), (1,)).data[0] == 0.0
    assert ad.vq_loss(ad.Tensor(a), ad.Tensor(b), (1,)).data[0] > 0.0


def test_vq_loss_gradient_separation():
    rng = np.random.default_rng(3)
    zq = rng.standard_normal((1, 4))
    ze = rng.standard_normal((1, 4))
    with ad.Tape():
        tq, te = ad.Tensor(zq), ad.Tensor(ze)
        gq, ge = ad.grad(ad.vq_loss(tq, te, (1,)), [tq, te])
    # z_e sees only the commit term: 2 (z_e - z_q); z_q only the pull term
    assert np.allclose(ge.data, 2 * (ze - zq))
    assert np.allclose(gq.data, 2 * (zq - ze))
    # numeric oracle on the commit term alone (FD cannot see stop-gradients)
    (fd,) = fd_grad(lambda arrs: float(np.sum((zq - arrs[0]) ** 2)), [ze])
    assert rel_err(ge.data, fd) < 1e-6


@pytest.mark.parametrize("counts", [(3,), (2, 1)])
def test_vq_loss_second_order_keeps_stop_gradients(counts):
    # the vjp is made of recorded ops, and the stop-gradients hold at every
    # order: d/dz_q <c, grad> sees only the pull term's z_q, d/dz_e only the
    # commit term's z_e, each 2 * (task weight / task rows) * c
    rng = np.random.default_rng(5)
    zq, ze = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    weight = rng.standard_normal(() if len(counts) == 1 else (2,))
    cq, ce = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    with ad.Tape():
        tq, te = ad.Tensor(zq), ad.Tensor(ze)
        loss = ad.sum(ad.mul(ad.vq_loss(tq, te, counts), ad.Tensor(weight)))
        gq, ge = ad.grad(loss, [tq, te], create_graph=True)
        probe = ad.add(ad.sum(ad.mul(gq, ad.Tensor(cq))), ad.sum(ad.mul(ge, ad.Tensor(ce))))
        hq, he = ad.grad(probe, [tq, te])
    scale = np.full((3, 1), weight / 3) if len(counts) == 1 else \
        np.array([[weight[0] / 2], [weight[0] / 2], [weight[1]]])
    assert np.allclose(gq.data, 2 * scale * (zq - ze), rtol=0, atol=1e-14)
    assert np.allclose(hq.data, 2 * scale * cq, rtol=0, atol=1e-14)
    assert np.allclose(he.data, 2 * scale * ce, rtol=0, atol=1e-14)


def test_straight_through_forward_and_grad():
    rng = np.random.default_rng(6)
    ze = rng.standard_normal(4)
    zq = rng.standard_normal(4)
    st_out = ad.straight_through(ad.Tensor(ze), ad.Tensor(zq), np.arange(4))
    assert np.array_equal(st_out.data, zq)
    with ad.Tape():
        te = ad.Tensor(ze)
        out = ad.straight_through(te, ad.Tensor(zq), np.arange(4))
        (g,) = ad.grad(ad.sum(out), [te])
    assert np.array_equal(g.data, np.ones(4))


def test_straight_through_keeps_rows_past_z_q():
    # the quantized rows land on ``rows``; z_e's other rows pass through raw,
    # and the gradient reaches the whole of z_e
    rng = np.random.default_rng(7)
    ze = rng.standard_normal((5, 3))
    zq = rng.standard_normal((3, 3))
    w = rng.standard_normal((5, 3))
    for rows in ([0, 1, 2], [0, 2, 3]):
        with ad.Tape():
            te, tq = ad.Tensor(ze), ad.Tensor(zq)
            out = ad.straight_through(te, tq, rows)
            ge, gq = ad.grad(ad.sum(ad.mul(out, ad.Tensor(w))), [te, tq])
        want = ze.copy()
        want[rows] = zq
        assert np.array_equal(out.data, want)
        assert np.array_equal(ge.data, w) and gq is None
    for e_shape, q_shape, rows in [((5, 3), (6, 3), range(6)), ((5, 3), (5, 2), range(5)),
                                   ((5, 3), (3,), range(3)), ((5, 3), (5, 3, 1), range(5)),
                                   ((), (), []), ((5, 3), (2, 3), [0, 5]),
                                   ((5, 3), (2, 3), [0, -1]), ((5, 3), (2, 3), [0])]:
        with pytest.raises(ValueError, match="straight_through"):
            ad.straight_through(ad.Tensor(np.zeros(e_shape)), ad.Tensor(np.zeros(q_shape)),
                                list(rows))


def test_straight_through_equals_identity_gradient():
    # downstream loss gradient at z_e equals the gradient with quantization
    # replaced by the identity mapping
    rng = np.random.default_rng(13)
    ze = rng.standard_normal((4, 1))
    zq = rng.standard_normal((4, 1))
    w = rng.standard_normal((4, 4))

    def downstream(x):
        return ad.sum(ad.square(ad.matmul(ad.Tensor(w), x)))

    with ad.Tape():
        te = ad.Tensor(ze)
        (g_st,) = ad.grad(downstream(ad.straight_through(te, ad.Tensor(zq), np.arange(4))),
                          [te])
    with ad.Tape():
        te = ad.Tensor(zq)  # identity mapping evaluated at the quantized point
        (g_id,) = ad.grad(downstream(te), [te])
    assert np.array_equal(g_st.data, g_id.data)


def test_codebook_is_a_view_of_the_target_table():
    cfg = EncoderConfig(d_model=4, max_len=4)
    params = init_parameters(cfg, {"target": 3, "src0": 2}, seed=0)
    book = vq.Codebook(params["embed.target"], heads=2, counts=(1,))
    z = params["embed.src0"].data[:1]
    _, codes_before = vq.quantize_rows(ad.Tensor(z), book)
    # mutate the target table the way a training step would (new tensor, same dict)
    bumped = params["embed.target"].data.copy()
    bumped[:3] = np.roll(bumped[:3], 1, axis=0)
    params["embed.target"].data[...] = bumped
    z_q, codes_after = vq.quantize_rows(ad.Tensor(z), book)
    for h, j in enumerate(codes_after[0]):
        assert np.array_equal(z_q.data[0, 2 * h:2 * h + 2],
                              params["embed.target"].data[j][2 * h:2 * h + 2])


def test_target_self_quantization_identity():
    rng = np.random.default_rng(17)
    rows = rng.standard_normal((6, 4))
    book = book_from(rows, heads=2, quantized=6)
    z_q, codes = vq.quantize_rows(ad.Tensor(rows), book)
    assert np.array_equal(codes, np.tile(np.arange(6)[:, None], (1, 2)))
    assert np.array_equal(z_q.data, rows)


def test_code_space_bound():
    rng = np.random.default_rng(19)
    rows = rng.standard_normal((3, 4))
    book = book_from(rows, heads=2)
    outputs = set()
    for _ in range(200):
        z = rng.standard_normal((1, 4))
        z_q, _ = vq.quantize_rows(ad.Tensor(z), book)
        outputs.add(z_q.data.tobytes())
    assert len(outputs) <= 3 ** 2


def test_quantized_item_matrix_paths():
    cfg = EncoderConfig(d_model=4, max_len=4)
    params = init_parameters(cfg, {"target": 3, "src0": 1}, seed=2)
    mc = ModelConfig(encoder=cfg, vq=VQConfig(heads=2), target_domain="target")
    raw, loss = domain_item_matrix(params, "target", mc, (3,))
    assert raw is params["embed.target"] and loss is None
    src, loss = domain_item_matrix(params, "src0", mc, (1,))
    assert loss is not None and loss.data.shape == (1,)
    assert src.data.shape == params["embed.src0"].data.shape
    row = src.data[0]
    target_rows = params["embed.target"].data[:3]
    assert any(np.array_equal(row[:2], r[:2]) for r in target_rows)
    assert any(np.array_equal(row[2:], r[2:]) for r in target_rows)
    # the padding row stays raw
    assert np.array_equal(src.data[1], params["embed.src0"].data[1])
    off = dataclasses.replace(mc, vq=None)
    assert domain_item_matrix(params, "src0", off, (1,)) == (params["embed.src0"], None)
    with pytest.raises(KeyError):
        domain_item_matrix(params, "nope", mc, (1,))
    with pytest.raises(KeyError):
        domain_item_matrix(params, "nope", off, (1,))


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_quantize_rows_matches_per_head_loop(heads):
    rng = np.random.default_rng(heads)
    table = Tensor(rng.standard_normal((6, 2 * heads)))  # 5 codes + padding
    book = vq.Codebook(table=table, heads=heads, counts=(4,))
    z = rng.standard_normal((4, 2 * heads))
    z[3] = 2.0 * z[1]  # the same code chosen twice in every head
    weight = Tensor(rng.standard_normal(z.shape))
    probe = Tensor(rng.standard_normal(table.data.shape))

    def run(quantize):
        with ad.Tape():
            z_q, codes = quantize(ad.Tensor(z), book)
            loss = ad.sum(ad.mul(ad.square(z_q), weight))
            (first,) = ad.grad(loss, [table], create_graph=True)
            (second,) = ad.grad(ad.sum(ad.mul(first, probe)), [table])
        return codes, z_q.data.tobytes(), first.data.tobytes(), second.data.tobytes()

    got, ref = run(vq.quantize_rows), run(per_head_quantize_rows)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[0][1], got[0][3])
    assert got[1:] == ref[1:]
