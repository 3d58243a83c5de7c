"""The benchmark's four workloads: their run configs, inputs and set-up.

Every input is generated from the workload seed; crossrec sees only that data.
Set-up is the work a user pays before the first iteration or evaluate call:
building the datasets (synthesis or TSV ingestion), ``init_parameters`` and,
for ``eval-wide``, a checkpoint save/load round trip.
"""
from __future__ import annotations

import dataclasses
import os
from contextlib import nullcontext
from dataclasses import dataclass

from crossrec import train
from crossrec.autodiff import Tensor
from crossrec.backbone import init_parameters
from crossrec.checkpoint import load_checkpoint, save_checkpoint
from crossrec.data import SyntheticSpec, generate_synthetic, write_domain_tsv
from crossrec.runconfig import DataConfig, RunConfig, serialize_config


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str        # "train": run_training chunks; "eval": evaluate calls
    chunk: int       # iterations per run_training call, or evaluate calls per chunk
    eval_every: int  # periodic eval interval inside run_training (train only)
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("meta-default", "train", chunk=50, eval_every=50,
             why="the paper's method at the criterion-8 config: second-order "
                 "meta-transfer, time dominated by autodiff.grad"),
    Workload("joint-default", "train", chunk=100, eval_every=50,
             why="no_meta variant fed from TSVs + manifest: one first-order "
                 "tape, bypasses meta and second-order autodiff"),
    Workload("meta-deep-wide", "train", chunk=10, eval_every=10,
             why="full variant, 3 inner steps, 512 items: quadratic tape "
                 "growth plus dense N x K VQ similarity"),
    Workload("eval-wide", "eval", chunk=10, eval_every=0,
             why="forward-only evaluate on a 2000-user, ~1000-item target "
                 "loaded from a checkpoint; inference-shaped backbone use"),
)}


def run_config(workload, seed, work_dir):
    """The RunConfig of one workload at one seed (``iterations`` = chunk).

    ``joint-default`` reads its data through a manifest; the TSVs it names are
    written here from the seed, before any clock starts.
    """
    cfg = RunConfig(seed=seed, iterations=workload.chunk,
                    eval_every=max(1, workload.eval_every),
                    synthetic=SyntheticSpec(seed=seed))
    if workload.name == "joint-default":
        return dataclasses.replace(
            cfg, variant="no_meta",
            data=DataConfig(manifest=_write_tsv_inputs(cfg.synthetic, work_dir)))
    if workload.name == "meta-deep-wide":
        return dataclasses.replace(
            cfg, meta=dataclasses.replace(cfg.meta, inner_steps=3),
            synthetic=dataclasses.replace(cfg.synthetic, items_per_domain=512))
    if workload.name == "eval-wide":
        return dataclasses.replace(
            cfg, synthetic=dataclasses.replace(
                cfg.synthetic, num_source_domains=1, users_per_domain=20000,
                items_per_domain=1024))
    return cfg


def _write_tsv_inputs(spec, work_dir):
    """One TSV per domain plus a manifest, from the synthetic sampler."""
    result = generate_synthetic(spec)
    rows = []
    for ds in result.datasets:
        name = f"{ds.domain_id}.tsv"
        write_domain_tsv(os.path.join(work_dir, name), ds.domain_id,
                         result.events[ds.domain_id])
        role = "target" if ds is result.datasets[-1] else "source"
        rows.append(f"{ds.domain_id}\t{role}\t{name}\n")
    manifest = os.path.join(work_dir, "manifest.tsv")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.writelines(rows)
    return manifest


@dataclass
class State:
    """What set-up hands to the measured loop."""
    sources: list
    target: object
    params: dict            # name -> Tensor
    checkpoint_bytes: int = 0


def setup(workload, cfg, work_dir, span=lambda name: nullcontext()):
    """Build datasets and parameters; ``span(name)`` brackets each layer call."""
    with span("data.build"):
        sources, target = train.build_datasets(cfg)
    item_counts = {d.domain_id: d.item_count for d in sources + [target]}
    with span("backbone.init"):
        params = init_parameters(cfg.encoder, item_counts, cfg.seed)
    state = State(sources, target, params)
    if workload.kind == "eval":
        path = os.path.join(work_dir, "params.ckpt")
        with span("checkpoint.save"):
            save_checkpoint(path, {k: v.data for k, v in params.items()},
                            serialize_config(cfg))
        with span("checkpoint.load"):
            tensors, _ = load_checkpoint(path)
        state.params = {k: Tensor(v) for k, v in tensors.items()}
        state.checkpoint_bytes = os.path.getsize(path)
    return state
