"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion asserts at its stated tolerance. Criterion 8 trains
15 models (3 variants x 5 seeds) and takes a few minutes.
"""
import dataclasses
import os
import sys
import time

import numpy as np
import pytest

from crossrec import autodiff as ad
from crossrec import cli, vq
from crossrec.autodiff import Tensor
from crossrec.data import SyntheticSpec, k_core_filter, leave_one_out_split
from crossrec.evaluation import evaluate, metrics_from_rank, rank_of_truth
from crossrec.meta import MetaConfig, rescale_and_update
from crossrec.runconfig import RunConfig, parse_config, effective_model_config
from crossrec.train import build_datasets, run_ablation, run_training

from oracles import brute_force_rank, fd_grad, nearest_codes_exhaustive, \
    peel_k_core, rel_err, task_layers
from test_autodiff import OP_CASES, run_grad, scalar_of
from test_meta import pipeline_value, random_tiny_case
from test_vq import book_from


def report(n, ok, detail=""):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_1_gradient_suite():
    worst = 0.0
    for name, (build, shapes) in sorted(OP_CASES.items()):
        rng = np.random.default_rng(hash_seed(name))
        for _ in range(20):
            arrays = [rng.standard_normal(s) for s in shapes]
            got = run_grad(build, arrays)
            ref = fd_grad(scalar_of(build), arrays, step=1e-6)
            for g, r in zip(got, ref):
                worst = max(worst, rel_err(g, r))
    report(1, worst <= 1e-6, f"{len(OP_CASES)} ops x 20 cases, "
                             f"worst rel err {worst:.2e}")


def hash_seed(name):
    import zlib
    return zlib.crc32(name.encode())


def test_criterion_2_second_order_correctness():
    from crossrec.meta import inner_adapt, meta_gradient
    base = MetaConfig(inner_lr=0.1, outer_lr=0.1)
    worst = 0.0
    for seed in range(10):
        steps = 1 + seed % 2
        cfg = dataclasses.replace(base, inner_steps=steps)
        theta, step_fns, meta_fn = random_tiny_case(seed, steps)
        adapted = inner_adapt(theta, step_fns, cfg)
        grads, _ = meta_gradient(theta, adapted, meta_fn, cfg)
        names = sorted(theta)
        step = 1e-6
        for name in names:
            fd = np.zeros_like(theta[name].data)
            it = np.nditer(fd, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                arrs = {k: theta[k].data.copy() for k in names}
                arrs[name][i] += step
                up = pipeline_value([arrs[k] for k in names], names,
                                    step_fns, meta_fn, cfg)
                arrs[name][i] -= 2 * step
                dn = pipeline_value([arrs[k] for k in names], names,
                                    step_fns, meta_fn, cfg)
                fd[i] = (up - dn) / (2 * step)
            worst = max(worst, rel_err(grads[name], fd))
    # scalar analytic chain: theta=0, alpha=0.1, L_s=(t-1)^2, L_t=phi^2
    analytic = []
    for second_order, expected in ((True, 0.32), (False, 0.4)):
        cfg = dataclasses.replace(base, second_order=second_order,
                                  inner_steps=1)
        theta = {"w": Tensor(np.array([0.0]))}
        adapted = inner_adapt(
            theta, [lambda p: ad.sum(ad.square(ad.add_scalar(p["w"], -1.0)))],
            cfg)
        grads, _ = meta_gradient(
            theta, adapted, lambda p: ad.sum(ad.square(p["w"])), cfg)
        analytic.append(abs(grads["w"][0] - expected))
    ok = worst <= 1e-5 and max(analytic) <= 1e-10
    report(2, ok, f"10 models worst rel err {worst:.2e}, "
                  f"analytic err {max(analytic):.2e}")


def test_criterion_3_vq_properties():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(50):
        heads = int(rng.integers(1, 4))
        width = heads * 2
        k = int(rng.integers(2, 8))
        rows = rng.standard_normal((k, width))
        book = book_from(rows, heads)
        z = rng.standard_normal(width)
        z_q, codes = vq.quantize_rows(ad.Tensor(z[None]), book)
        ok &= codes[0].tolist() == nearest_codes_exhaustive(z, rows, heads)
        for h, j in enumerate(codes[0]):  # slices bit-match the codebook
            ok &= np.array_equal(z_q.data[0, h * 2:(h + 1) * 2],
                                 rows[j][h * 2:(h + 1) * 2])
        _, scaled = vq.quantize_rows(
            ad.Tensor(float(rng.uniform(0.1, 9)) * z[None]), book)
        ok &= np.array_equal(scaled, codes)
        # loss zero iff z_q == z_e
        ok &= ad.vq_loss(ad.Tensor(z[None]), ad.Tensor(z[None]), (1,)).data[0] == 0.0
        ok &= ad.vq_loss(z_q, ad.Tensor(z[None]), (1,)).data[0] > 0.0 or \
            np.array_equal(z_q.data[0], z)
        # straight-through == identity-mapping gradient
        w = rng.standard_normal((width, width))
        with ad.Tape():
            te = ad.Tensor(z[None])
            out = ad.straight_through(te, z_q, [0])
            (g_st,) = ad.grad(ad.sum(ad.square(ad.matmul(out, ad.Tensor(w)))),
                              [te])
        with ad.Tape():
            ti = ad.Tensor(z_q.data)
            (g_id,) = ad.grad(ad.sum(ad.square(ad.matmul(ti, ad.Tensor(w)))),
                              [ti])
        ok &= np.array_equal(g_st.data, g_id.data)
        # self-quantization identity on angularly unique slices
        self_q, self_codes = vq.quantize_rows(ad.Tensor(rows),
                                              book_from(rows, heads, quantized=k))
        if np.array_equal(self_codes,
                          np.tile(np.arange(k)[:, None], (1, heads))):
            ok &= np.array_equal(self_q.data, rows)
    report(3, ok, "50 randomized configurations")


def test_criterion_4_rescaling_properties():
    rng = np.random.default_rng(1)
    cfg = MetaConfig()
    theta = {"a": Tensor(rng.standard_normal(4)),
             "b": Tensor(rng.standard_normal((2, 3)))}

    def mk_task():
        phi = {k: Tensor(v.data + rng.standard_normal(v.data.shape))
               for k, v in theta.items()}
        grads = {k: rng.standard_normal(v.data.shape)
                 for k, v in theta.items()}
        return phi, grads

    tasks = [mk_task() for _ in range(3)]
    _, _, weights = rescale_and_update(theta, task_layers(theta, tasks), cfg)
    ok = all(all(x > 0 for x in w) and abs(sum(w) - 1.0) <= 1e-12
             for w in weights.values())
    same = [tasks[0]] * 3
    _, _, uniform = rescale_and_update(theta, task_layers(theta, same), cfg)
    ok &= all(w == pytest.approx([1 / 3] * 3, abs=1e-12)
              for w in uniform.values())
    _, scores, sharp = rescale_and_update(
        theta, task_layers(theta, tasks), dataclasses.replace(cfg, temperature=1e-3))
    distinct = all(len(set(np.round(s, 9))) == 3 for s in scores.values())
    ok &= (not distinct) or all(max(w) >= 0.99 for w in sharp.values())
    _, _, flat = rescale_and_update(
        theta, task_layers(theta, tasks), dataclasses.replace(cfg, temperature=1e3))
    ok &= all(abs(x - 1 / 3) <= 1e-3 for w in flat.values() for x in w)
    frozen, _, _ = rescale_and_update(
        theta, task_layers(theta, tasks), dataclasses.replace(cfg, outer_lr=0.0))
    ok &= all(frozen[k].data.tobytes() == theta[k].data.tobytes()
              for k in theta)
    report(4, ok, "positivity/normalization, uniform, tau limits, beta=0")


def test_criterion_5_metric_oracle():
    rng = np.random.default_rng(2)
    ok = True
    for case in range(1000):
        n = int(rng.integers(2, 40))
        scores = rng.standard_normal(n)
        if case % 2 == 0:
            scores = np.round(scores, 1 if case % 4 == 0 else 0)  # ties
        truth = int(rng.integers(n))
        rank = rank_of_truth(scores, truth)
        ref = brute_force_rank(scores.tolist(), truth)
        ok &= rank == ref
        k = int(rng.integers(1, n + 1))
        ndcg, rec, rr = metrics_from_rank(rank, k)
        ok &= (rec == (1.0 if ref <= k else 0.0))
        ok &= ndcg == (1.0 / np.log2(ref + 1) if ref <= k else 0.0)
        ok &= rr == 1.0 / ref
    report(5, ok, "1000 random score vectors incl. ties")


def test_criterion_6_data_pipeline():
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        users = int(rng.integers(1, 51))
        items = int(rng.integers(1, 51))
        n = int(rng.integers(1, 120))
        events = [(int(rng.integers(users)), int(rng.integers(items)), t)
                  for t in range(n)]
        k = int(rng.integers(1, 5))
        got = k_core_filter(events, k).tolist()
        ok &= sorted(got) == sorted(map(list, peel_k_core(events, k)))
        ok &= k_core_filter(got, k).tolist() == got  # idempotence
        ds = leave_one_out_split("d", events)
        by_user = {}
        for u, i, _ in events:
            by_user.setdefault(u, []).append(i)
        kept = [s for _, s in sorted(by_user.items()) if len(s) >= 3]
        ok &= ds.num_users == len(kept)
        for u, seq in enumerate(kept):  # partition of each kept sequence
            full = ds.items[ds.offsets[u]:ds.offsets[u + 1]]  # train, val, test
            ok &= len(full) == len(seq)
            ok &= len(full[:-2]) == len(seq) - 2
    report(6, ok, "100 random bipartite graphs, peel oracle + partition")


def test_criterion_7_determinism(tmp_path):
    cfg_text = ("iterations=6\neval_every=3\nseed=5\n"
                "synthetic.num_source_domains=2\nsynthetic.items_per_domain=12\n"
                "synthetic.users_per_domain=40\nsynthetic.seq_len_min=4\n"
                "synthetic.seq_len_max=6\nencoder.d_model=8\nencoder.max_len=6\n"
                "vq.heads=2\nmeta.inner_steps=2\nmeta.inner_batch=4\n"
                "meta.meta_batch=4\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)
    out = str(tmp_path / "out")
    blobs = []
    for _ in range(2):
        assert cli.main(["train", "--config", str(cfg_path), "--out", out]) == 0
        blobs.append((open(os.path.join(out, "metrics.csv"), "rb").read(),
                      open(os.path.join(out, "best.ckpt"), "rb").read()))
    ok = blobs[0] == blobs[1]
    report(7, ok, "byte-identical metrics.csv and best.ckpt")


def test_criterion_8_directional_transfer():
    t0 = time.time()
    seeds = range(5)
    means = {"full": 0.0, "no_meta": 0.0, "no_vq": 0.0}
    for seed in seeds:
        base = RunConfig(seed=seed, iterations=500, eval_every=50)
        base = dataclasses.replace(
            base, synthetic=dataclasses.replace(base.synthetic, seed=seed))
        data = build_datasets(base)
        for variant in means:
            cfg = dataclasses.replace(base, variant=variant)
            result = run_training(cfg, datasets=data)
            best = {k: Tensor(a) for k, a in result.best_params.items()}
            res = evaluate(best, data[1], "test", cfg.k,
                           effective_model_config(cfg))
            means[variant] += res.ndcg_at_k / len(seeds)
    elapsed = time.time() - t0
    ok = means["full"] > means["no_meta"] and \
        means["full"] >= means["no_vq"] and elapsed <= 15 * 60
    report(8, ok, "mean test NDCG@10 over 5 seeds: "
                  f"full={means['full']:.4f} no_meta={means['no_meta']:.4f} "
                  f"no_vq={means['no_vq']:.4f}, {elapsed:.0f}s")


def test_criterion_9_ablation_harness(iteration_reports):
    cfg = parse_config(
        "iterations=4\neval_every=2\nseed=2\n"
        "synthetic.num_source_domains=2\nsynthetic.items_per_domain=12\n"
        "synthetic.users_per_domain=40\nsynthetic.seq_len_min=4\n"
        "synthetic.seq_len_max=6\nencoder.d_model=8\nencoder.max_len=6\n"
        "vq.heads=2\nmeta.inner_steps=1\nmeta.inner_batch=4\n"
        "meta.meta_batch=4\n")
    results = run_ablation(cfg)
    variants = ("full", "no_multihead_vq", "no_vq", "no_rescale", "no_meta")
    ok = tuple(results) == variants
    ok &= all(np.isfinite(res.ndcg_at_k) for _, res in results.values())
    n = cfg.meta.n_tasks
    ok &= len(iteration_reports["uniform"]) == cfg.iterations
    for rep in iteration_reports["uniform"]:
        for w in rep.layer_weights.values():
            ok &= w == [1.0 / n] * n  # exactly uniform, every iteration
    report(9, ok, "5 variant rows; no_rescale weights exactly 1/n")
