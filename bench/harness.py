"""The benchmark's measured loop, checks and metrics; ``run.py`` is the entry.

``--trace 0`` times the workload untraced and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced chunks of the same work, checks
that both produce identical output, and prints the per-layer metrics; the
spans go to ``.bench_out/``. Human-readable lines come first; the last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics. See bench/README.md for the workloads and the metric map.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy as np
import scipy
from crossrec import evaluation, meta, train
from crossrec.data import sample_batch
from crossrec.objective import batch_loss
from crossrec.runconfig import effective_model_config

from spans import Totals, Tracer, rebound
from workloads import WORKLOADS, run_config, setup

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
MIN_OPS = 100        # timed operations per untraced run: the p90 keeps 10 above it
SETUPS = 7           # set-ups per untraced run, spread over it; setup_s is their p90
HARD_STOP_S = 120.0  # no new chunk starts after this, whatever MIN_OPS says


class Ops:
    """Operations of the closed loop: who ran, how long, and what failed."""

    def __init__(self):
        self.times = []         # seconds per untraced timed op
        self.traced_times = []  # seconds per traced timed op
        self.attempted = 0
        self.failures = []
        self.in_op = False      # an exception escaped from inside an op


def observed(label, fn, ops, times, check):
    """``fn`` counted as one op; timed into ``times`` (unless None), checked."""
    def wrapper(*args, **kwargs):
        ops.attempted += 1
        ops.in_op = True
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        dt = perf_counter() - t0
        ops.in_op = False
        if times is not None:
            times.append(dt)
        problem = check(args, out)
        if problem:
            ops.failures.append(f"{label} {ops.attempted}: {problem}")
        return out
    return wrapper


def _finite(values, lo=0.0, hi=math.inf):
    return all(math.isfinite(v) and lo <= v <= hi for v in values)


def iteration_problem(args, out):
    params, result = out
    if isinstance(result, float):
        losses = [result]
    else:
        losses = [result.overall_loss]
        for task in result.tasks:
            losses += [task.meta_loss] + list(task.inner_losses)
    if not _finite(losses):
        return f"non-finite or negative loss in {losses}"
    bad = [k for k, v in params.items() if not np.isfinite(v.data).all()]
    return f"non-finite parameters {bad}" if bad else None


def eval_problem(result, users):
    values = (result.ndcg_at_k, result.recall_at_k, result.mrr)
    if not _finite(values, 0.0, 1.0):
        return f"metric outside [0, 1]: {values}"
    if result.num_users != users:
        return f"num_users {result.num_users} != split size {users}"
    return None


def op_bindings(workload, state, ops, times, reference):
    """Rebind the closed loop's op entry points to counted, checked wrappers."""
    users = state.target.num_users
    if workload.kind == "train":
        return [
            (train, "train_iteration", observed(
                "iteration", train.train_iteration, ops, times, iteration_problem)),
            (train, "joint_train_iteration", observed(
                "iteration", train.joint_train_iteration, ops, times,
                iteration_problem)),
            (train, "evaluate", observed(
                "evaluate", train.evaluate, ops, None,
                lambda args, res: eval_problem(res, users))),
        ]

    def check(args, res):
        split = args[2]
        if res != reference[split]:
            return f"{split} result {res} != first call {reference[split]}"
        return eval_problem(res, users)
    return [(evaluation, "evaluate", observed(
        "evaluate", evaluation.evaluate, ops, times, check))]


def run_chunk(workload, cfg, state, model_cfg):
    """One chunk of closed-loop work; returns what identical chunks must repeat."""
    if workload.kind == "train":
        result = train.run_training(cfg, datasets=(state.sources, state.target))
        return "\n".join(result.csv_rows)
    return [evaluation.evaluate(state.params, state.target, ("val", "test")[i % 2],
                                cfg.k, model_cfg)
            for i in range(workload.chunk)]


def measure(workload, cfg, work_dir, state, seconds, ops, reference,
            setups, tracer=None):
    """Closed loop of chunks for ``seconds``; traced chunks alternate if tracing.

    Untraced, discarded set-ups follow the chunks until ``setups`` (seconds
    per set-up) holds SETUPS * elapsed / seconds of them, so the set-ups
    sample the same stretch of host load as the operations do.
    Returns (outputs of every chunk, wall seconds of the untraced chunks).
    """
    model_cfg = effective_model_config(cfg)
    outputs = []
    wall = 0.0
    start = perf_counter()
    while True:
        traced = tracer is not None and len(outputs) % 2 == 1
        times = ops.traced_times if traced else ops.times
        layers = tracer.bindings() if traced else []
        with rebound(layers), rebound(
                op_bindings(workload, state, ops, times, reference)):
            t0 = perf_counter()
            try:
                outputs.append(run_chunk(workload, cfg, state, model_cfg))
            except Exception as exc:  # the loop reports it as a failed op
                if not ops.in_op:
                    ops.attempted += 1
                ops.failures.append(f"chunk {len(outputs)} raised {exc!r}")
                return outputs, wall
            if not traced:
                wall += perf_counter() - t0
        while tracer is None and len(setups) < min(
                SETUPS, SETUPS * (perf_counter() - start) / seconds):
            setups.append(timed_setup(workload, cfg, work_dir)[1])
        elapsed = perf_counter() - start
        if elapsed >= HARD_STOP_S:
            return outputs, wall
        if elapsed >= seconds and (
                len(outputs) % 2 == 0 if tracer is not None
                else len(ops.times) >= MIN_OPS):
            return outputs, wall


def warm_up(workload, cfg, state, ops):
    """Untimed first calls; for eval workloads, the per-split reference results."""
    if workload.kind == "train":
        train.run_training(dataclasses.replace(cfg, iterations=2, eval_every=2),
                           datasets=(state.sources, state.target))
        return {}
    reference = {}
    for split in ("val", "test"):
        ops.attempted += 1
        reference[split] = evaluation.evaluate(
            state.params, state.target, split, cfg.k, effective_model_config(cfg))
        problem = eval_problem(reference[split], state.target.num_users)
        if problem:
            ops.failures.append(f"reference {split}: {problem}")
    return reference


def timed_setup(workload, cfg, work_dir, tracer=None):
    """One set-up from a collected heap; returns (state, seconds)."""
    gc.collect()
    t0 = perf_counter()
    if tracer is None:
        state = setup(workload, cfg, work_dir)
    else:
        with tracer.span("setup"):
            state = setup(workload, cfg, work_dir, span=tracer.span)
    return state, perf_counter() - t0


def record_probe(cfg, state):
    """Length of the adapted tape after inner_adapt and after meta_gradient
    (inner plus meta records), on one fixed source and target batch, at
    inner_steps 1-4."""
    model_cfg = effective_model_config(cfg)
    rng = np.random.default_rng(cfg.seed)
    max_len = cfg.encoder.max_len
    batch = sample_batch(state.sources[0], "train", cfg.meta.inner_batch, max_len, rng)
    meta_batch = sample_batch(state.target, "train", cfg.meta.meta_batch, max_len, rng)
    counts = {}
    for steps in range(1, 5):
        mcfg = dataclasses.replace(cfg.meta, inner_steps=steps)
        inner = [lambda p: batch_loss(p, batch, model_cfg,
                                      include_vq=mcfg.vq_in_inner)[0]] * steps
        adapted = meta.inner_adapt(state.params, inner, mcfg)
        n = len(adapted.tape.records)
        meta.meta_gradient(state.params, adapted,
                           lambda p: batch_loss(p, meta_batch, model_cfg)[0], mcfg)
        counts[f"meta.inner_adapt.records.s{steps}"] = n
        counts[f"meta.meta_gradient.records.s{steps}"] = len(adapted.tape.records)
    return counts


def quantile(values, q):
    """Inclusive-method quantile, ``q`` in tenths (5 = median, 9 = p90)."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


# spans reported per layer, with the root their means are taken per and the
# fields reported; root "op" is the workload's operation (train.iteration, or
# evaluation.evaluate on eval-wide)
LAYER_SPANS = [
    ("train.iteration", "train.iteration", ("ms", "self_ms")),
    ("op", "autodiff.grad", ("calls", "ms")),
    ("op", "autodiff.grad_cg", ("calls", "ms", "records")),
    ("op", "meta.inner_adapt", ("ms", "self_ms", "records")),
    ("op", "meta.meta_gradient", ("ms", "self_ms", "records")),
    ("op", "meta.rescale", ("ms",)),
    ("op", "backbone.encode", ("calls", "ms", "records")),
    ("op", "vq.quantize", ("calls", "ms", "records")),
    ("op", "objective.batch_loss", ("calls", "ms", "self_ms", "self_records")),
    ("op", "data.sample_batch", ("calls", "ms")),
    ("evaluation.evaluate", "data.eval_batch", ("ms",)),
    ("evaluation.evaluate", "evaluation.evaluate", ("ms", "self_ms")),
    ("evaluation.evaluate", "evaluation.rank", ("calls", "ms")),
    ("setup", "data.build", ("ms",)),
    ("setup", "backbone.init", ("ms",)),
    ("setup", "checkpoint.save", ("ms",)),
    ("setup", "checkpoint.load", ("ms",)),
]

# self times that partition one operation, per workload kind
SELF_PARTS = {
    "train": ("train.iteration.ms", [
        "train.iteration.self_ms", "data.sample_batch.ms",
        "meta.inner_adapt.self_ms", "meta.meta_gradient.self_ms",
        "meta.rescale.ms", "objective.batch_loss.self_ms", "backbone.encode.ms",
        "vq.quantize.ms", "autodiff.grad.ms", "autodiff.grad_cg.ms"]),
    "eval": ("evaluation.evaluate.ms", [
        "evaluation.evaluate.self_ms", "data.eval_batch.ms",
        "backbone.encode.ms", "evaluation.rank.ms"]),
}
PROBE_KEYS = [f"meta.{phase}.records.s{s}"
              for phase in ("inner_adapt", "meta_gradient") for s in range(1, 5)]


def layer_unit(name):
    if name.endswith("ms"):
        return "ms"
    return "bytes" if name.endswith("bytes") else "count"


def layer_metrics(workload, tracer, state, ops, probe):
    """Per-layer metrics of a traced run, and the problems its checks found."""
    totals = Totals(tracer)
    op = "train.iteration" if workload.kind == "train" else "evaluation.evaluate"
    metrics = {}
    for root, span, fields in LAYER_SPANS:
        for field in fields:
            metrics[f"{span}.{field}"] = totals.per_root(
                op if root == "op" else root, span, field)
    n_ops = totals.roots.get(op, 0)
    rows = totals.extras.get((op, "vq.quantize.rows"), [0, 0])
    sim = totals.extras.get((op, "vq.quantize.sim_bytes"), [0, 0])
    metrics["vq.quantize.rows"] = rows[0] / n_ops if n_ops else 0.0
    metrics["vq.sim_bytes"] = sim[1]
    metrics["autodiff.records_per_iter"] = (
        totals.exit_records.get(op, 0) / n_ops if n_ops else 0.0)
    metrics["checkpoint.bytes"] = state.checkpoint_bytes
    for key in PROBE_KEYS:
        metrics[key] = probe.get(key, 0)
    untraced = quantile(ops.times, 5) * 1e3
    metrics["trace.overhead_ms"] = quantile(ops.traced_times, 5) * 1e3 - untraced

    problems = []
    if not totals.nested_ok:
        problems.append("spans overlap or a self time is negative")
    if not totals.records_ok:
        problems.append("records at Tape.__exit__ != records seen by root spans")
    whole, parts = SELF_PARTS[workload.kind]
    part_sum = sum(metrics[p] for p in parts)
    if not math.isclose(part_sum, metrics[whole], rel_tol=1e-9):
        problems.append(f"self times sum to {part_sum} ms, {whole} is "
                        f"{metrics[whole]} ms")
    return metrics, problems, (whole, part_sum)


def environment():
    """Where the numbers came from, so runs on different machines stay apart."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "crossrec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def e2e_metrics(workload, ops, wall, setups):
    """End-to-end metrics with the issue's per-kind names for the printout.

    Rows named None are printed but left out of the JSON metrics: on a shared
    host whose speed switches between a fast and a slow mode for seconds at a
    time, the median and the mean move with the share of the run spent in
    each mode, while p90 stays in the slow mode (see bench/README.md).
    """
    kind = "iter" if workload.kind == "train" else "eval"
    rate = "train_iters_per_s" if workload.kind == "train" else "evals_per_s"
    n = len(ops.times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_p90 = quantile(setups, 9) if len(setups) > 1 else setups[0]
    return [
        ("op_ms.p90", f"{kind}_ms.p90", quantile(ops.times, 9) * 1e3, "ms", n),
        ("setup_s", "setup_s.p90", setup_p90, "s", len(setups)),
        ("peak_rss_mb", "peak_rss_mb", rss_mb, "MB", 1),
        (None, f"{kind}_ms.p50", quantile(ops.times, 5) * 1e3, "ms", n),
        (None, rate, n / wall, "1/s", n),
        (None, "setup_s.p50", statistics.median(setups), "s", len(setups)),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description="crossrec benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    ops = Ops()
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as work_dir:
        cfg = run_config(workload, args.seed, work_dir)
        state, first = timed_setup(workload, cfg, work_dir, tracer)
        setups = [first]
        probe = (record_probe(cfg, state)
                 if tracer is not None and workload.name == "meta-default" else {})
        reference = warm_up(workload, cfg, state, ops)
        outputs, wall = measure(workload, cfg, work_dir, state, args.seconds,
                                ops, reference, setups, tracer)

    problems = list(ops.failures)
    if workload.kind == "train" and any(o != outputs[0] for o in outputs):
        problems.append("run_training chunks differ: csv_rows are not identical"
                        + (" between traced and untraced runs" if tracer else ""))
    measured = bool(ops.times) and (tracer is None or bool(ops.traced_times))
    if not measured:
        problems.append("no operation completed")
    metrics = {}
    if measured and tracer is None:
        for name, alias, value, unit, n in e2e_metrics(workload, ops, wall,
                                                       setups):
            if name is not None:
                metrics[name] = {"value": value, "unit": unit}
            note = "" if name is not None else "  (printed only, not gated)"
            print(f"{workload.name:15s} {alias:18s} {value:12.4f} {unit:5s} "
                  f"n={n}{note}")
    elif measured:
        layer, trace_problems, (whole, part_sum) = layer_metrics(
            workload, tracer, state, ops, probe)
        problems += trace_problems
        for name in sorted(layer):
            metrics[name] = {"value": layer[name], "unit": layer_unit(name)}
            n = (f" n={len(ops.traced_times)}" if name == "trace.overhead_ms"
                 else "")
            print(f"{workload.name:15s} {name:36s} {layer[name]:14.4f} "
                  f"{layer_unit(name)}{n}")
        print(f"{workload.name:15s} self times sum to {part_sum:.4f} ms = {whole}")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl")
        tracer.write(path, {"workload": workload.name, "seed": args.seed, "env": env})
    failed = len(ops.failures)
    print(f"{workload.name:15s} fail_ratio {failed}/{ops.attempted} = "
          f"{failed / max(1, ops.attempted):.4f}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": max(1, ops.attempted),
                      "failed": failed, "metrics": metrics}))
    return 0

