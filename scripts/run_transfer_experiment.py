#!/usr/bin/env python3
"""Seed-averaged transfer experiment: full vs. ablated variants.

Trains the selected variants on freshly generated synthetic data for each
seed, evaluates the best checkpoint on the target test split, and prints a
per-seed table plus seed-averaged means, next to the expected NDCG@k of a
uniformly random ranking of the target's items.

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

from crossrec.autodiff import Tensor
from crossrec.evaluation import evaluate
from crossrec.runconfig import RunConfig, VARIANTS, effective_model_config
from crossrec.train import build_datasets, run_training, write_outputs


def random_ndcg(k, n):
    """Expected NDCG@k of a uniformly random ranking of ``n`` items with one
    relevant item, in closed form: the relevant item is at each rank r with
    probability 1/n, and scores 1/log2(r+1) there if r <= k."""
    return sum(1.0 / math.log2(r + 1) for r in range(1, min(k, n) + 1)) / n


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

    means = {v: 0.0 for v in args.variants}
    random_mean = 0.0
    print("seed\tvariant\ttest_ndcg\ttest_recall\ttest_mrr\tseconds")
    for seed in args.seeds:
        base = RunConfig(seed=seed, iterations=args.iterations,
                         eval_every=args.eval_every, k=args.k)
        base = dataclasses.replace(
            base, synthetic=dataclasses.replace(base.synthetic, seed=seed,
                                                rho=args.rho))
        data = build_datasets(base)
        random_mean += random_ndcg(args.k, data[1].item_count) / len(args.seeds)
        for variant in args.variants:
            cfg = dataclasses.replace(base, variant=variant)
            t0 = time.time()
            result = run_training(cfg, datasets=data)
            best = {k: Tensor(a) for k, a in result.best_params.items()}
            res = evaluate(best, data[1], "test", cfg.k,
                           effective_model_config(cfg))
            means[variant] += res.ndcg_at_k / len(args.seeds)
            print(f"{seed}\t{variant}\t{res.ndcg_at_k:.4f}\t"
                  f"{res.recall_at_k:.4f}\t{res.mrr:.4f}\t"
                  f"{time.time() - t0:.0f}", flush=True)
            if args.out:
                write_outputs(result, cfg,
                              os.path.join(args.out, f"{variant}-s{seed}"))
    print("\nmean test NDCG@{} over {} seeds:".format(args.k, len(args.seeds)))
    for variant in args.variants:
        print(f"  {variant}: {means[variant]:.4f}")
    print(f"  random ranking (closed form): {random_mean:.4f}")


if __name__ == "__main__":
    main()
