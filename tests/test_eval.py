import numpy as np
import pytest

from crossrec import evaluation as ev
from crossrec.autodiff import Tensor
from crossrec.backbone import EncoderConfig, encode_steps, init_parameters
from crossrec.data import eval_batch
from crossrec.objective import ModelConfig

from oracles import brute_force_rank, dataset_from_lists


# ----------------------------------------------------------------- ranking

def test_rank_examples():
    assert ev.rank_of_truth([0.1, 0.9, 0.3], 1) == 1
    assert ev.rank_of_truth([0.5] * 4, 0) == 1
    assert ev.rank_of_truth([0.5] * 4, 3) == 4
    with pytest.raises(IndexError):
        ev.rank_of_truth([0.1, 0.2], 5)


def test_rank_matches_sort_oracle_1000_vectors():
    rng = np.random.default_rng(0)
    for case in range(1000):
        n = int(rng.integers(2, 30))
        scores = rng.standard_normal(n)
        if case % 3 == 0:
            # force ties by quantizing to a few levels
            scores = np.round(scores)
        truth = int(rng.integers(n))
        assert ev.rank_of_truth(scores, truth) == \
            brute_force_rank(scores.tolist(), truth)


def test_metrics_from_rank_examples():
    assert ev.metrics_from_rank(1, 10) == (1.0, 1.0, 1.0)
    ndcg, rec, rr = ev.metrics_from_rank(3, 10)
    assert ndcg == pytest.approx(0.5) and rec == 1.0 and rr == pytest.approx(1 / 3)
    assert ev.metrics_from_rank(11, 10) == (0.0, 0.0, pytest.approx(1 / 11))
    with pytest.raises(ValueError):
        ev.metrics_from_rank(0, 10)


def test_metric_monotonicity_in_truth_score():
    rng = np.random.default_rng(4)
    scores = rng.standard_normal(20)
    truth = 7
    prev = ev.metrics_from_rank(ev.rank_of_truth(scores, truth), 5)
    for bump in np.linspace(0.1, 3.0, 15):
        cur_scores = scores.copy()
        cur_scores[truth] += bump
        cur = ev.metrics_from_rank(ev.rank_of_truth(cur_scores, truth), 5)
        assert all(c >= p for c, p in zip(cur, prev))
        prev = cur


def test_rank_invariant_under_positive_affine_transform():
    rng = np.random.default_rng(6)
    for _ in range(50):
        scores = np.round(rng.standard_normal(15), 1)  # include ties
        truth = int(rng.integers(15))
        base = ev.rank_of_truth(scores, truth)
        a, b = float(rng.uniform(0.1, 5.0)), float(rng.uniform(-3, 3))
        assert ev.rank_of_truth(a * scores + b, truth) == base


def test_recall_is_one_at_full_cutoff():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        rank = ev.rank_of_truth(rng.standard_normal(n), int(rng.integers(n)))
        assert ev.metrics_from_rank(rank, n)[1] == 1.0


def test_rank_of_matrix_equals_per_row_calls():
    rng = np.random.default_rng(12)
    for ties in (False, True):
        scores = rng.standard_normal((40, 17))
        if ties:
            scores = np.round(scores)
        truths = rng.integers(0, 17, 40)
        got = ev.rank_of_truth(scores, truths)
        assert got.tolist() == [ev.rank_of_truth(row, t) for row, t in zip(scores, truths)]
        per_row = [ev.metrics_from_rank(r, 5) for r in got]
        assert np.array_equal(np.stack(ev.metrics_from_rank(got, 5), axis=1), per_row)
    with pytest.raises(IndexError, match="truth 17"):
        ev.rank_of_truth(np.zeros((2, 17)), [3, 17])
    with pytest.raises(ValueError):
        ev.metrics_from_rank(np.array([1, 0]), 5)


def oracle_rank(row, truth):
    """``brute_force_rank`` where NaN ranks neither above nor level with any
    score: a NaN truth ranks first, and other NaN entries are left out (ids
    keep their order, so ties still break by id)."""
    if np.isnan(row[truth]):
        return 1
    kept = [i for i in range(len(row)) if not np.isnan(row[i])]
    return brute_force_rank([row[i] for i in kept], kept.index(truth))


def test_rank_of_matrix_matches_sort_oracle_with_heavy_ties():
    rng = np.random.default_rng(21)
    specials = np.array([np.nan, np.inf, -np.inf])
    seen = {"below": 0, "above": 0, "all_equal": 0, "nan": 0, "inf": 0}
    for case in range(400):
        rows, n = int(rng.integers(1, 12)), int(rng.integers(1, 40))
        if case % 10 == 0:  # rows compared with numpy's buffer cut to a row
            n = int(rng.integers(ev.WIDE_ROW, 3 * ev.WIDE_ROW))
        # a few levels, so most rows hold ties
        scores = np.round(rng.standard_normal((rows, n)) * rng.integers(1, 3))
        truths = rng.integers(0, n, rows)
        for r, t in enumerate(truths):
            kind = rng.integers(4)
            if kind == 0:
                scores[r] = scores[r, 0]
            elif kind == 1 and n > 1:  # a tie at a lower and at a higher id
                scores[r, rng.integers(0, n, 2)] = scores[r, t]
        if case % 4 == 0:
            mask = rng.random(scores.shape) < 0.15
            scores[mask] = rng.choice(specials, int(mask.sum()))
        got = ev.rank_of_truth(scores, truths)
        assert got.dtype == np.int64 and got.shape == (rows,)
        for row, t, rank in zip(scores, truths, got):
            assert rank == oracle_rank(row.tolist(), int(t))
            equal = row == row[t]
            seen["below"] += bool(equal[:t].any())
            seen["above"] += bool(equal[t + 1:].any())
            seen["all_equal"] += bool(n > 1 and equal.all())
            seen["nan"] += bool(np.isnan(row).any())
            seen["inf"] += bool(np.isinf(row[t]))
        # the 1-D vector and a scalar truth give the same ranks, one at a time
        row, t = scores[0], int(truths[0])
        one = ev.rank_of_truth(row, t)
        assert isinstance(one, np.int64) and one == got[0]
    assert all(count >= 20 for count in seen.values()), seen
    # a NaN truth equals nothing, itself included, so it hides no tie elsewhere
    assert ev.rank_of_truth([[np.nan, 1.0], [2.0, 2.0]], [0, 1]).tolist() == [1, 2]


def test_rank_leaves_numpy_buffer_size_as_it_was():
    size = np.getbufsize()
    ev.rank_of_truth(np.zeros((3, 4 * ev.WIDE_ROW)), [0, 1, 2])
    assert np.getbufsize() == size


# ---------------------------------------------------------- evaluate()

def oracle_model(item_count, train, val, test):
    """Model whose hidden state is (a positive multiple of) the embedding of
    the last input item: identity table, FF weights zeroed."""
    d = item_count + 1  # identity table including the padding row
    cfg = EncoderConfig(d_model=d, num_blocks=1, max_len=8)
    ds = dataset_from_lists("target", item_count, train, val, test)
    params = init_parameters(cfg, {"target": item_count}, seed=0)
    params["embed.target"] = Tensor(np.eye(d))
    params["block0.ff_w1"] = Tensor(np.zeros((d, d)))
    model_cfg = ModelConfig(encoder=cfg, vq=None,
                            target_domain="target")
    return params, ds, model_cfg


def oracle_ranks(params, ds, split, mc):
    """Each user's rank by a full sort of their row of the score matrix."""
    batch = eval_batch(ds, split, mc.encoder.max_len)
    table = params[f"embed.{ds.domain_id}"]
    hidden = encode_steps(params, mc.encoder, table, batch.inputs).data
    scores = hidden @ table.data[:ds.item_count].T
    return [brute_force_rank(row.tolist(), int(t))
            for row, t in zip(scores, batch.targets)]


def test_evaluate_perfect_model_scores_one():
    # each user's val item repeats their last train item -> unique argmax
    params, ds, mc = oracle_model(5, train=[[0, 2], [3, 1]], val=[2, 1],
                                  test=[2, 1])
    res = ev.evaluate(params, ds, "val", 10, mc)
    assert (res.ndcg_at_k, res.recall_at_k, res.mrr) == (1.0, 1.0, 1.0)
    assert res.num_users == 2


def test_evaluate_averages_mixed_ranks():
    # user 0: truth == last input -> rank 1; user 1: truth 2, last input 0 ->
    # score 0 tied with ids {1,3,4}, one strictly greater -> rank 3
    params, ds, mc = oracle_model(5, train=[[1, 0], [3, 0]], val=[0, 2],
                                  test=[0, 2])
    res = ev.evaluate(params, ds, "val", 10, mc)
    assert res.ndcg_at_k == pytest.approx((1.0 + 0.5) / 2)
    assert res.recall_at_k == 1.0
    assert res.mrr == pytest.approx((1.0 + 1 / 3) / 2)
    assert oracle_ranks(params, ds, "val", mc) == [1, 3]


def test_evaluate_matches_bruteforce_on_random_model():
    cfg = EncoderConfig(d_model=6, num_blocks=1, max_len=8)
    ds = dataset_from_lists("target", 9,
                            train=[[0, 4, 2], [5, 1], [7, 8, 3, 0]],
                            val=[6, 7, 2], test=[1, 0, 5])
    params = init_parameters(cfg, {"target": 9}, seed=13)
    mc = ModelConfig(encoder=cfg, vq=None,
                     target_domain="target")
    for split in ("val", "test"):
        res = ev.evaluate(params, ds, split, 2, mc)
        ranks = oracle_ranks(params, ds, split, mc)
        per = np.array([ev.metrics_from_rank(r, 2) for r in ranks])
        assert res.ndcg_at_k == pytest.approx(per[:, 0].mean())
        assert res.recall_at_k == pytest.approx(per[:, 1].mean())
        assert res.mrr == pytest.approx(per[:, 2].mean())


def test_evaluate_chunking_is_invisible(monkeypatch):
    cfg = EncoderConfig(d_model=6, num_blocks=1, max_len=8)
    ds = dataset_from_lists("target", 9,
                            train=[[i % 9, (i + 3) % 9] for i in range(7)],
                            val=[(i + 1) % 9 for i in range(7)],
                            test=[(i + 2) % 9 for i in range(7)])
    params = init_parameters(cfg, {"target": 9}, seed=3)
    mc = ModelConfig(encoder=cfg, vq=None,
                     target_domain="target")
    monkeypatch.setattr(ev, "EVAL_CHUNK", 2)
    a = ev.evaluate(params, ds, "test", 3, mc)
    monkeypatch.setattr(ev, "EVAL_CHUNK", 512)
    assert ev.evaluate(params, ds, "test", 3, mc) == a


def test_evaluate_repeated_calls_match_fresh_datasets(monkeypatch):
    cfg = EncoderConfig(d_model=6, num_blocks=1, max_len=4)
    params = init_parameters(cfg, {"target": 9}, seed=5)
    mc = ModelConfig(encoder=cfg, vq=None, target_domain="target")

    def fresh():
        return dataset_from_lists("target", 9,
                                  train=[[i % 9, (i + 4) % 9, (i + 1) % 9] for i in range(11)],
                                  val=[(i + 2) % 9 for i in range(11)],
                                  test=[(i + 5) % 9 for i in range(11)])
    ds = fresh()
    monkeypatch.setattr(ev, "EVAL_CHUNK", 4)
    got = [ev.evaluate(params, ds, split, 3, mc) for split in ("val", "test", "val")]
    assert got == [ev.evaluate(params, fresh(), split, 3, mc)
                   for split in ("val", "test", "val")]
    assert got[0] != got[1]
