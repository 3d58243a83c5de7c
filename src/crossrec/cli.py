"""Command-line driver: generate | train | eval | ablate."""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .autodiff import Tensor
from .backbone import init_parameters
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import generate_synthetic, write_domain_tsv
from .evaluation import evaluate
from .runconfig import RunConfig, effective_model_config, load_config, parse_config
from .train import ablation_csv, build_datasets, run_ablation, run_training, write_outputs


class InputError(Exception):
    """A bad config, manifest, data file or checkpoint; ``main`` prints it as
    one ``error:`` line and exits with code 2."""


def _checked(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with errors reading user input as ``InputError``."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, OSError, CheckpointError) as exc:
        raise InputError(exc) from exc


def _resolve_config(args, **overrides):
    cfg = load_config(args.config, **overrides) if args.config else RunConfig(**overrides)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "out", None):
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    return cfg


def cmd_generate(args):
    cfg = _checked(_resolve_config, args)
    out = cfg.out_dir or "."
    _checked(os.makedirs, out, exist_ok=True)
    spec = cfg.synthetic if args.seed is None else \
        dataclasses.replace(cfg.synthetic, seed=args.seed)
    result = generate_synthetic(spec)
    lines = [f"# synthetic manifest: sources={spec.num_source_domains} "
             f"items={spec.items_per_domain} users={spec.users_per_domain} "
             f"rho={spec.rho} seed={spec.seed}"]
    for ds in result.datasets:
        fname = f"{ds.domain_id}.tsv"
        write_domain_tsv(os.path.join(out, fname), ds.domain_id,
                         result.events[ds.domain_id])
        role = "target" if ds.domain_id == "target" else "source"
        lines.append(f"{ds.domain_id}\t{role}\t{fname}")
    manifest = os.path.join(out, "manifest.tsv")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(result.datasets)} domains + manifest to {out}")
    return 0


def cmd_train(args):
    cfg = _checked(_resolve_config, args)
    out = cfg.out_dir or "run"
    _checked(os.makedirs, out, exist_ok=True)
    datasets = _checked(build_datasets, cfg)
    result = run_training(cfg, datasets=datasets)
    csv_path, ckpt_path = write_outputs(result, out)
    print(f"variant={cfg.variant} best val ndcg@{cfg.k}="
          f"{result.best_ndcg:.4f} at iteration {result.best_iteration}")
    print(f"metrics: {csv_path}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def _check_tensors(path, tensors, cfg, domains):
    """Every tensor name and shape must be those ``init_parameters`` gives
    for the config and the domain datasets."""
    counts = {d.domain_id: d.item_count for d in domains}
    expected = {name: f"shape {t.data.shape}" for name, t in
                init_parameters(cfg.encoder, counts, cfg.seed).items()}
    got = {name: f"shape {arr.shape}" for name, arr in tensors.items()}
    for name in list(expected) + [n for n in got if n not in expected]:
        if got.get(name) != expected.get(name):
            raise InputError(f"{path}: tensor {name!r}: "
                             f"{got.get(name, 'absent')} in the checkpoint, "
                             f"{expected.get(name, 'absent')} for the config "
                             f"(d_model={cfg.encoder.d_model}) and data")


def cmd_eval(args):
    if args.k is not None and args.k < 1:
        raise InputError(f"--k must be >= 1, got {args.k}")
    tensors, config_text = _checked(load_checkpoint, args.checkpoint)
    if args.config:
        cfg = _checked(load_config, args.config)
    else:
        try:
            cfg = parse_config(config_text)
        except ValueError as exc:
            raise InputError(f"{args.checkpoint}: embedded config: {exc}; pass "
                             f"--config to evaluate it under another config") from exc
    k = args.k if args.k is not None else cfg.k
    out = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    _checked(os.makedirs, out, exist_ok=True)
    sources, target = _checked(build_datasets, cfg)
    _check_tensors(args.checkpoint, tensors, cfg, sources + [target])
    model_cfg = effective_model_config(cfg, target.domain_id)
    params = {name: Tensor(arr) for name, arr in tensors.items()}
    res = evaluate(params, target, args.split, k, model_cfg)
    print(f"ndcg@{k}={res.ndcg_at_k:.6f}")
    print(f"recall@{k}={res.recall_at_k:.6f}")
    print(f"mrr={res.mrr:.6f}")
    with open(os.path.join(out, "eval.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"metric,value\nndcg@{k},{res.ndcg_at_k!r}\n"
                 f"recall@{k},{res.recall_at_k!r}\nmrr,{res.mrr!r}\n")
    return 0


def cmd_ablate(args):
    # every variant runs, so the config and data must serve the full one
    cfg = _checked(_resolve_config, args, variant="full")
    out = cfg.out_dir or "ablation"
    _checked(os.makedirs, out, exist_ok=True)
    datasets = _checked(build_datasets, cfg)
    results = run_ablation(cfg, datasets=datasets)
    table = ablation_csv(results, cfg)
    path = os.path.join(out, "ablation.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table)
    for variant, (train_result, _) in results.items():
        save_checkpoint(os.path.join(out, f"{variant}.ckpt"),
                        train_result.best_params, train_result.config_text)
    print(table, end="")
    print(f"table: {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crossrec",
        description="Cross-domain sequential recommendation lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("generate", cmd_generate), ("train", cmd_train),
                     ("eval", cmd_eval), ("ablate", cmd_ablate)):
        p = sub.add_parser(name)
        p.add_argument("--config", default="", help="flat key=value config file")
        p.add_argument("--out", default="", help="output directory")
        if name == "eval":  # draws nothing, so takes no seed
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--k", type=int, default=None, help="metric cutoff override")
            p.add_argument("--split", default="test", choices=("val", "test"))
        else:
            p.add_argument("--seed", type=int, default=None, help="overrides config seed")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
