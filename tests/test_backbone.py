import struct

import numpy as np
import pytest

from crossrec import autodiff as ad
from crossrec import backbone as bb
from crossrec.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from crossrec.objective import ModelConfig, VQConfig, domain_item_matrix

from oracles import fd_grad, reference_encode_last, rel_err

CFG = bb.EncoderConfig(d_model=4, num_blocks=1, max_len=6)


def tiny_params(seed=0, items=3):
    return bb.init_parameters(CFG, {"d0": items}, seed)


def test_embed_is_row_lookup():
    params = tiny_params()
    table = np.eye(4)
    params["embed.d0"] = ad.Tensor(table)
    out = ad.gather(params["embed.d0"], [0, 2])
    assert np.array_equal(out.data, table[[0, 2]])
    rep = ad.gather(params["embed.d0"], [1, 1]).data
    assert np.array_equal(rep[0], rep[1])


def test_embed_errors():
    params = tiny_params()
    with pytest.raises(KeyError):
        domain_item_matrix(params, "nope", ModelConfig(CFG, VQConfig(enabled=False), "d0"),
                           (3,))
    with pytest.raises(IndexError):
        ad.gather(params["embed.d0"], [99])


def test_embed_gradient_accumulates_occurrences():
    params = tiny_params()
    with ad.Tape():
        out = ad.gather(params["embed.d0"], [1, 1, 2])
        (g,) = ad.grad(ad.sum(out), [params["embed.d0"]])
    counts = g.data.sum(axis=1) / CFG.d_model
    assert np.array_equal(counts, [0.0, 2.0, 1.0, 0.0])


def encode(params, inputs, cfg=CFG):
    return bb.encode_steps(params, cfg, params["embed.d0"], np.asarray(inputs))


def test_encode_single_step_matches_closed_form():
    params = tiny_params(seed=3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 4))
    params["embed.d0"] = ad.Tensor(np.vstack([x, np.zeros((3, 4))]))
    with ad.Tape():
        out = encode(params, [[0]])
    gate = 1.0 / (1.0 + np.exp(-params["block0.decay"].data))
    h1 = (1.0 - gate) * (x @ params["block0.w_in"].data.T)
    ff = np.maximum(h1 @ params["block0.ff_w1"].data.T, 0) @ params["block0.ff_w2"].data.T
    pre = ff + x
    expect = pre / np.sqrt(np.mean(pre**2, axis=1, keepdims=True) + bb.RMS_EPS)
    assert np.allclose(out.data, expect * params["block0.norm_gain"].data)


def test_closed_gate_removes_recurrence():
    params = tiny_params(seed=1)
    params["block0.decay"] = ad.Tensor(np.full(4, -50.0))  # gate ~ 0
    windows = np.array([[0, 1, 2], [2, 2, 1], [3, 0, 1]])
    # with the gate closed the output at t is a static transform of x_t only
    for t in range(3):
        prefix = encode(params, windows[:, :t + 1]).data
        assert np.allclose(prefix, encode(params, windows[:, t:t + 1]).data)


def test_causality_every_position():
    rng = np.random.default_rng(7)
    steps, batch = 5, 3
    u = rng.standard_normal((steps * batch, 4))
    gate = ad.Tensor(rng.uniform(0.1, 0.9, 4))
    for reverse in (False, True):
        base = ad.linear_scan(ad.Tensor(u), gate, steps, reverse).data
        for t in range(steps):
            pert = u.copy()
            pert[t * batch:(t + 1) * batch] += rng.standard_normal((batch, 4))
            out = ad.linear_scan(ad.Tensor(pert), gate, steps, reverse).data
            # a forward scan keeps the positions before t, a reverse one those after
            kept = slice((t + 1) * batch, None) if reverse else slice(0, t * batch)
            moved = slice(0, (t + 1) * batch) if reverse else slice(t * batch, None)
            assert np.array_equal(out[kept], base[kept])
            assert not np.any(out[moved] == base[moved])


def test_sequence_too_long_rejected():
    params = tiny_params()
    with pytest.raises(ValueError, match="exceeds max_len"):
        encode(params, np.zeros((2, 7), dtype=np.int64))


def scores(hidden, items):
    """Logits the way batch_loss and evaluate compute them: (B, d) x (N, d)."""
    return ad.matmul(ad.Tensor(hidden), ad.Tensor(items), tb=True).data


def test_score_examples():
    m = np.eye(4)
    s = scores(m[2:3], m)
    assert int(np.argmax(s[0])) == 2
    assert np.array_equal(scores(np.zeros((2, 4)), m), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        scores(np.zeros((1, 3)), m)


def test_score_matches_loop_oracle():
    rng = np.random.default_rng(9)
    h = rng.standard_normal((3, 4))
    m = rng.standard_normal((6, 4))
    got = scores(h, m)
    ref = np.array([[row @ hb for row in m] for hb in h])
    # BLAS gemm and per-row ddot may differ in the last ulp
    assert np.allclose(got, ref, rtol=0, atol=1e-12)


def test_score_argmax_stable_under_dominated_row():
    rng = np.random.default_rng(10)
    h = rng.standard_normal((1, 4))
    m = rng.standard_normal((6, 4))
    base = scores(h, m)[0]
    weak = h[0] * (base.max() - 1.0) / (h[0] @ h[0])  # logit strictly below max
    out = scores(h, np.vstack([m, weak]))[0]
    assert int(np.argmax(out)) == int(np.argmax(base))


def test_cross_entropy_values():
    ce = ad.cross_entropy
    assert float(ce(ad.Tensor([[0.0, 0.0]]), [0]).data) == pytest.approx(np.log(2))
    big = float(ce(ad.Tensor([[1000.0, 0.0]]), [0]).data)
    assert 0.0 <= big < 1e-10
    # the mean over rows
    pair = float(ce(ad.Tensor([[0.0, 0.0], [1000.0, 0.0]]), [1, 0]).data)
    assert pair == pytest.approx(np.log(2) / 2)
    with pytest.raises(IndexError):
        ce(ad.Tensor([[0.0, 0.0]]), [2])
    with pytest.raises(ValueError, match="need 1 targets"):
        ce(ad.Tensor([[0.0, 0.0]]), [0, 1])


def test_cross_entropy_gradient():
    rng = np.random.default_rng(12)
    logits = rng.standard_normal((3, 5))
    targets = [3, 0, 4]
    with ad.Tape():
        t = ad.Tensor(logits)
        (g,) = ad.grad(ad.cross_entropy(t, targets), [t])
    (ref,) = fd_grad(
        lambda a: float(ad.cross_entropy(ad.Tensor(a[0]), targets).data), [logits])
    assert rel_err(g.data, ref) < 1e-6


def batch_ce(encoder, params, cfg, inputs, targets):
    """Mean cross entropy of next-item logits over the table's item rows."""
    table = params["embed.d0"]
    last = encoder(params, cfg, table, inputs)
    items = ad.slice_axis(table, 0, 0, table.data.shape[0] - 1)
    return ad.cross_entropy(ad.matmul(last, items, tb=True), targets)


def test_end_to_end_gradients_vs_fd():
    cfg = bb.EncoderConfig(d_model=4, num_blocks=1, max_len=5)
    params = bb.init_parameters(cfg, {"d0": 3}, seed=21)
    inputs = np.array([[3, 0, 2], [0, 2, 1]])
    targets = [1, 2]
    names = sorted(params)

    def loss_from(arrays):
        p = {k: ad.Tensor(a) for k, a in zip(names, arrays)}
        return batch_ce(bb.encode_steps, p, cfg, inputs, targets)

    arrays = [params[k].data for k in names]
    with ad.Tape():
        ts = [ad.Tensor(a) for a in arrays]
        loss = batch_ce(bb.encode_steps, dict(zip(names, ts)), cfg, inputs, targets)
        grads = ad.grad(loss, ts)
    ref = fd_grad(lambda arrs: float(loss_from(arrs).data), arrays)
    for name, g, r in zip(names, grads, ref):
        assert rel_err(g.data, r) < 1e-5, name


ENCODER_CASES = [(blocks, batch, decay) for blocks in (1, 2) for batch in (1, 8)
                 for decay in (None, 50.0, -50.0)]


@pytest.mark.parametrize("blocks,batch,decay", ENCODER_CASES)
def test_encoder_forward_matches_per_position_loop(blocks, batch, decay):
    cfg = bb.EncoderConfig(d_model=16, num_blocks=blocks, max_len=12)
    params = bb.init_parameters(cfg, {"d0": 9}, seed=10 * blocks + batch)
    if decay is not None:  # saturated gates: fully open or fully closed
        for b in range(blocks):
            params[f"block{b}.decay"] = ad.Tensor(np.full(16, decay))
    inputs = np.random.default_rng(batch).integers(0, 10, (batch, 12))
    got = bb.encode_steps(params, cfg, params["embed.d0"], inputs).data
    ref = reference_encode_last(params, cfg, params["embed.d0"], inputs).data
    if batch > 1:
        assert got.tobytes() == ref.tobytes()
    else:
        # numpy sends single-row products to BLAS gemv, whose sums round
        # differently from the gemm rows of a stacked product
        assert rel_err(got, ref) <= 1e-14


@pytest.mark.parametrize("blocks,batch", [(1, 1), (1, 8), (2, 1), (2, 8)])
def test_encoder_gradients_match_per_position_loop(blocks, batch):
    cfg = bb.EncoderConfig(d_model=4, num_blocks=blocks, max_len=6)
    params = bb.init_parameters(cfg, {"d0": 7}, seed=3)
    rng = np.random.default_rng(blocks + batch)
    inputs = rng.integers(0, 8, (batch, 6))
    targets = rng.integers(0, 7, batch)
    names = sorted(params)

    def first_and_second(encoder):
        with ad.Tape():
            loss = batch_ce(encoder, params, cfg, inputs, targets)
            g1 = ad.grad(loss, [params[k] for k in names], create_graph=True)
            total = ad.sum(ad.square(g1[0]))
            for g in g1[1:]:
                total = ad.add(total, ad.sum(ad.square(g)))
            g2 = ad.grad(total, [params[k] for k in names])
        return g1, g2

    got, ref = first_and_second(bb.encode_steps), first_and_second(reference_encode_last)
    # same terms, summed in another order (one scatter instead of one per position)
    for order in range(2):
        for name, g, r in zip(names, got[order], ref[order]):
            assert rel_err(g.data, r.data) <= 1e-12, (order, name)


def test_checkpoint_roundtrip(tmp_path):
    params = tiny_params(seed=2)
    arrays = {k: v.data for k, v in params.items()}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, arrays, "seed=2\n")
    loaded, cfg_text = load_checkpoint(path)
    assert cfg_text == "seed=2\n"
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert np.array_equal(loaded[k], arrays[k])


def test_checkpoint_corruption_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 2))}, "x=1\n")
    raw = path.read_bytes()
    (tmp_path / "bad_magic.ckpt").write_bytes(b"XXXXX" + raw[5:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(tmp_path / "bad_magic.ckpt")
    (tmp_path / "trunc.ckpt").write_bytes(raw[:len(raw) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(tmp_path / "trunc.ckpt")


def test_checkpoint_duplicate_name_rejected(tmp_path):
    path = tmp_path / "dup.ckpt"
    save_checkpoint(path, {"w": np.ones(2), "v": np.zeros(2)}, "x=1\n")
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"\x01\x00\x00\x00v", b"\x01\x00\x00\x00w"))
    with pytest.raises(CheckpointError, match=f"{path}: tensor 'w' appears twice"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "tail.ckpt"
    save_checkpoint(path, {"w": np.ones(2)}, "x=1\n")
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match=f"{path}: trailing bytes"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_value_rejected(tmp_path, bad):
    path = tmp_path / "nan.ckpt"
    save_checkpoint(path, {"w": np.ones(2), "v": np.array([[1.0, bad]])}, "x=1\n")
    with pytest.raises(CheckpointError, match=f"{path}: tensor 'v' has non-finite"):
        load_checkpoint(path)


def test_checkpoint_every_truncation_and_bit_flip_loads_or_raises(tmp_path):
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, {"w": np.arange(6.0).reshape(2, 3),
                           "b": np.array([0.5, -1.0])}, "seed=1\n")
    raw = good.read_bytes()
    corrupted = [raw[:n] for n in range(len(raw))]
    for bit in range(8 * len(raw)):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        corrupted.append(bytes(flipped))
    path = tmp_path / "bad.ckpt"
    rejected = 0
    for blob in corrupted:
        path.write_bytes(blob)
        try:
            load_checkpoint(path)
        except CheckpointError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            rejected += 1
    assert rejected >= len(raw)  # at least every truncation


# header of save_checkpoint(path, {"w": ones((2, 3))}, "x=1\n"): magic (5),
# count (4), name length (4), "w", rank (4), then dims at 18 and 22, 48 data
# bytes, config length at 74, config text at 82
@pytest.mark.parametrize("offset,patch,what", [
    (18, struct.pack("<I", 2**31 - 1), "data of w"),
    (74, struct.pack("<Q", 2**40), "config length|config"),
    (18, struct.pack("<II", 2**32 - 1, 2**32 - 1), "data of w"),
    (82, b"\xff", "config is not UTF-8"),
], ids=["huge_dim", "huge_config_length", "dims_overflow_int64", "config_bytes"])
def test_checkpoint_corrupted_header_raises_checkpoint_error(tmp_path, offset,
                                                             patch, what):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 3))}, "x=1\n")
    raw = bytearray(path.read_bytes())
    assert struct.unpack_from("<II", raw, 18) == (2, 3) and raw[82:] == b"x=1\n"
    raw[offset:offset + len(patch)] = patch
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=f"{path}: .*({what})"):
        load_checkpoint(path)
