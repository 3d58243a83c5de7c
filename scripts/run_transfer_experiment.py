#!/usr/bin/env python3
"""Seed-averaged transfer experiment: full vs. ablated variants.

Trains the selected variants on freshly generated synthetic data for each
seed, evaluates the best-validation and the last checkpoint on the target
test split, and prints a per-seed table plus seed-averaged means of both,
next to three reference points on the same test users: the expected NDCG@k
of a uniformly random ranking of the target's items, a popularity ranking,
and the true-chain oracle, which ranks each user's next item by the target's
own transition row.

Example:
    python3 scripts/run_transfer_experiment.py --seeds 0 1 2 3 4 \
        --variants full no_meta no_vq --iterations 500 --out results/
"""
import argparse
import dataclasses
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from crossrec import data as synthetic
from crossrec.autodiff import Tensor
from crossrec.evaluation import evaluate, metrics_from_rank, rank_of_truth
from crossrec.runconfig import RunConfig, VARIANTS, effective_model_config
from crossrec.train import run_training, write_outputs


def random_ndcg(k, n):
    """Expected NDCG@k of a uniformly random ranking of ``n`` items with one
    relevant item, in closed form: the relevant item is at each rank r with
    probability 1/n, and scores 1/log2(r+1) there if r <= k."""
    return sum(1.0 / math.log2(r + 1) for r in range(1, min(k, n) + 1)) / n


def generate_with_target_chain(spec):
    """``generate_synthetic(spec)`` and the target's cumulative transition
    rows, kept by wrapping ``crossrec.data.domain_chain`` for the call (the
    target's chain is drawn last)."""
    chains, draw = [], synthetic.domain_chain

    def keep(*args):
        perm, cum = draw(*args)
        chains.append(cum)
        return perm, cum

    synthetic.domain_chain = keep
    try:
        return synthetic.generate_synthetic(spec), chains[-1]
    finally:
        synthetic.domain_chain = draw


def ndcg_on_test(dataset, scores, k):
    """Mean NDCG@k over ``dataset``'s users of ``scores``, one row per user
    (or one row for all), with each user's test item as the truth."""
    truths = dataset.items[dataset.offsets[1:] - 1]
    scores = np.broadcast_to(scores, (len(truths), dataset.item_count))
    return float(metrics_from_rank(rank_of_truth(scores, truths), k)[0].mean())


def popularity_ndcg(dataset, k):
    """Every user ranks the items by their train plus val counts."""
    seen = np.ones(len(dataset.items), bool)
    seen[dataset.offsets[1:] - 1] = False  # the test items
    counts = np.bincount(dataset.items[seen], minlength=dataset.item_count)
    return ndcg_on_test(dataset, counts, k)


def oracle_ndcg(dataset, sampled, cum, k):
    """Each user ranks the items by the chain row of their val item.
    ``sampled`` holds the chain's item ids, aligned position by position with
    ``dataset.items``; an item no user visits has no dense id and is not
    ranked. A draw past ``cum[i, n - 2]`` goes to the last item, as
    ``data._next_items`` clamps it."""
    chain_id = np.empty(dataset.item_count, np.int64)
    chain_id[dataset.items] = sampled  # dense id -> the chain's id
    edges = cum.copy()
    edges[:, -1] = 1.0
    probs = np.diff(edges, axis=1, prepend=0.0)
    vals = dataset.items[dataset.offsets[1:] - 2]
    return ndcg_on_test(dataset, probs[chain_id[vals]][:, chain_id], k)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--variants", nargs="+", default=["full", "no_meta"],
                        choices=VARIANTS)
    parser.add_argument("--iterations", type=int, default=500)
    parser.add_argument("--eval-every", type=int, default=50)
    parser.add_argument("--rho", type=float, default=0.9)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--out", default="", help="optional directory for "
                        "per-run metrics CSVs and checkpoints")
    args = parser.parse_args()

    means = {v: np.zeros(2) for v in args.variants}  # best, last
    random_mean = popularity_mean = oracle_mean = 0.0
    print("seed\tvariant\ttest_ndcg\ttest_recall\ttest_mrr\tlast_ndcg\tseconds")
    for seed in args.seeds:
        base = RunConfig(seed=seed, iterations=args.iterations,
                         eval_every=args.eval_every, k=args.k)
        base = dataclasses.replace(
            base, synthetic=dataclasses.replace(base.synthetic, seed=seed,
                                                rho=args.rho))
        result, cum = generate_with_target_chain(base.synthetic)
        data = result.datasets[:-1], result.datasets[-1]
        random_mean += random_ndcg(args.k, data[1].item_count) / len(args.seeds)
        popularity_mean += popularity_ndcg(data[1], args.k) / len(args.seeds)
        oracle_mean += oracle_ndcg(data[1], result.sequences["target"][0], cum,
                                   args.k) / len(args.seeds)
        for variant in args.variants:
            cfg = dataclasses.replace(base, variant=variant)
            t0 = time.time()
            result = run_training(cfg, datasets=data)
            model_cfg = effective_model_config(cfg)
            best = {k: Tensor(a) for k, a in result.best_params.items()}
            res = evaluate(best, data[1], "test", cfg.k, model_cfg)
            last = evaluate(result.final_params, data[1], "test", cfg.k,
                            model_cfg).ndcg_at_k
            means[variant] += np.array([res.ndcg_at_k, last]) / len(args.seeds)
            print(f"{seed}\t{variant}\t{res.ndcg_at_k:.4f}\t"
                  f"{res.recall_at_k:.4f}\t{res.mrr:.4f}\t{last:.4f}\t"
                  f"{time.time() - t0:.0f}", flush=True)
            if args.out:
                run_dir = os.path.join(args.out, f"{variant}-s{seed}")
                os.makedirs(run_dir, exist_ok=True)
                write_outputs(result, run_dir)
    print("\nmean test NDCG@{} over {} seeds:".format(args.k, len(args.seeds)))
    for variant in args.variants:
        print(f"  {variant}: best {means[variant][0]:.4f}, last {means[variant][1]:.4f}")
    print(f"  random ranking (closed form): {random_mean:.4f}")
    print(f"  popularity (train + val counts): {popularity_mean:.4f}")
    print(f"  true-chain oracle: {oracle_mean:.4f}")


if __name__ == "__main__":
    main()
