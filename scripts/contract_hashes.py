#!/usr/bin/env python3
"""Hashes of the standard contract runs, to check that a change keeps every
byte of training and evaluation.

Prints one line per run: its label, then the sha256 (first 16 hex digits) of
its metrics CSV rows, of its final parameters and of its best parameters.
Every run has 200 users per source domain and 20 iterations. The next line
gives the val and test EvalResult of freshly initialized parameters on a
4000-user, 1024-item target. The next gives, at inner steps 1 to 4, the digest
of one task adapted on one source batch and differentiated through one target
batch, each a single 2-D batch. Then one line per synthetic world shaped like
a benchmark workload, at seed 0: the digest of each domain's dataset
(item_count, train, val, test) and one of all its events. The last line reads
the joint-default world back from TSVs through a manifest, one file per domain,
then src0 and target again from one shared file that interleaves src0's lines
with target's in reverse, and digests each dataset. BLAS runs on one thread:
the VQ code search and evaluate's scores are the largest matrix products, and
their bytes are shown to be the same under 1 and 2 threads only.

Run it at the parent commit and at the change, then diff the two outputs:
    python3 scripts/contract_hashes.py > after.txt
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads BLAS
os.environ["OMP_NUM_THREADS"] = "1"

import dataclasses
import hashlib
import sys
import tempfile
from itertools import zip_longest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from crossrec.backbone import init_parameters
from crossrec.data import SyntheticSpec, generate_synthetic, sample_batch, write_domain_tsv
from crossrec.evaluation import evaluate
from crossrec.meta import inner_adapt, meta_gradient
from crossrec.objective import batch_loss
from crossrec.runconfig import (VARIANTS, DataConfig, RunConfig, effective_model_config,
                                parse_config)
from crossrec.train import build_datasets, run_training

BASE = """
iterations=20
eval_every=10
synthetic.users_per_domain=200
"""

# label -> extra config lines on top of BASE
RUNS = {variant: f"variant={variant}" for variant in VARIANTS}
RUNS.update({f"full inner_steps={s}": f"meta.inner_steps={s}" for s in (1, 3, 4)})
RUNS.update({f"{v} n_tasks={n}": f"variant={v}\nmeta.n_tasks={n}"
             for v in ("full", "no_vq") for n in (1, 5)})
RUNS.update({
    "full second_order=false": "meta.second_order=false",
    "full vq_in_inner=false": "meta.vq_in_inner=false",
    "full items=512 inner_steps=3": "synthetic.items_per_domain=512\nmeta.inner_steps=3",
    "full num_blocks=2": "encoder.num_blocks=2",
    # ragged sources: 504, 508 and 508 items
    "no_meta items=512": "variant=no_meta\nsynthetic.items_per_domain=512",
    "no_meta sources=1": "variant=no_meta\nsynthetic.num_source_domains=1",
})

# label -> the synthetic world of the benchmark workload of that name
WORLDS = {
    "meta-default": SyntheticSpec(),
    "meta-deep-wide": SyntheticSpec(items_per_domain=512),
    "eval-wide": SyntheticSpec(num_source_domains=1, users_per_domain=20000,
                               items_per_domain=1024),
}


def digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def repr_digest(value):
    return digest([repr(value).encode()])


def dataset_digest(ds):
    """``ds``'s digest in the list form (item_count, train, val, test), so the
    line compares with checkouts whose datasets held such lists."""
    bounds = ds.offsets.tolist()
    seqs = [ds.items[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
    return repr_digest((ds.item_count, [s[:-2] for s in seqs], [s[-2] for s in seqs],
                        [s[-1] for s in seqs]))


def params_digest(params):
    return digest(part for name in sorted(params)
                  for part in (name.encode(), params[name].tobytes()))


def manifest_digests(manifest, rows):
    """Digests of the datasets ``build_datasets`` reads through a manifest."""
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.writelines(f"{domain}\t{role}\t{name}\n" for domain, role, name in rows)
    sources, target = build_datasets(RunConfig(data=DataConfig(manifest=manifest)))
    return [f"{d.domain_id}={dataset_digest(d)}" for d in sources + [target]]


def tsv_digests(spec):
    """Dataset digests of ``spec``'s world written as TSVs, one per domain, and
    of src0 and target read back from one shared TSV."""
    result = generate_synthetic(spec)
    with tempfile.TemporaryDirectory() as work_dir:
        rows, lines = [], {}
        for ds in result.datasets:
            path = os.path.join(work_dir, f"{ds.domain_id}.tsv")
            write_domain_tsv(path, ds.domain_id, result.events[ds.domain_id])
            with open(path, encoding="utf-8") as fh:
                lines[ds.domain_id] = fh.readlines()
            role = "target" if ds is result.datasets[-1] else "source"
            rows.append((ds.domain_id, role, f"{ds.domain_id}.tsv"))
        per_file = manifest_digests(os.path.join(work_dir, "manifest.tsv"), rows)
        with open(os.path.join(work_dir, "shared.tsv"), "w", encoding="utf-8") as fh:
            for pair in zip_longest(lines["src0"], lines["target"][::-1], fillvalue=""):
                fh.writelines(pair)
        shared = manifest_digests(os.path.join(work_dir, "shared_manifest.tsv"),
                                  [("src0", "source", "shared.tsv"),
                                   ("target", "target", "shared.tsv")])
    return per_file, shared


def single_batch_digests():
    """Per inner step count 1-4, the digest of the inner losses, the meta loss
    and every meta-gradient of the default world adapted on one src0 batch and
    differentiated through one target batch, both from rng seed 0."""
    cfg = parse_config(BASE)
    sources, target = build_datasets(cfg)
    params = init_parameters(cfg.encoder, {d.domain_id: d.item_count
                                           for d in sources + [target]}, cfg.seed)
    model_cfg = effective_model_config(cfg, target.domain_id)
    rng = np.random.default_rng(0)
    max_len = cfg.encoder.max_len
    batch = sample_batch(sources[0], "train", cfg.meta.inner_batch, max_len, rng)
    meta_batch = sample_batch(target, "train", cfg.meta.meta_batch, max_len, rng)
    parts = []
    for steps in range(1, 5):
        mcfg = dataclasses.replace(cfg.meta, inner_steps=steps)
        adapted = inner_adapt(params, [lambda p: batch_loss(p, batch, model_cfg)[0]] * steps,
                              mcfg)
        grads, meta_loss = meta_gradient(
            params, adapted, lambda p: batch_loss(p, meta_batch, model_cfg)[0], mcfg)
        losses = repr((adapted.inner_losses, meta_loss)).encode()
        parts.append(f"s{steps}={digest([losses, params_digest(grads).encode()])}")
    return parts


def main():
    for label, extra in RUNS.items():
        result = run_training(parse_config(BASE + extra))
        csv = "\n".join(result.csv_rows).encode()
        final = {k: v.data for k, v in result.final_params.items()}
        print(f"{label}: csv={digest([csv])} "
              f"final={params_digest(final)} "
              f"best={params_digest(result.best_params)}", flush=True)
    cfg = dataclasses.replace(parse_config(""), synthetic=SyntheticSpec(
        num_source_domains=1, users_per_domain=40000, items_per_domain=1024))
    sources, target = build_datasets(cfg)
    params = init_parameters(cfg.encoder, {d.domain_id: d.item_count
                                           for d in sources + [target]}, cfg.seed)
    model_cfg = effective_model_config(cfg, target.domain_id)
    results = [evaluate(params, target, split, cfg.k, model_cfg)
               for split in ("val", "test")]
    print(f"evaluate {target.num_users} users: " + " ".join(map(repr, results)),
          flush=True)
    print(f"single batch: {' '.join(single_batch_digests())}", flush=True)
    for label, spec in WORLDS.items():
        result = generate_synthetic(spec)
        parts = [f"{d.domain_id}={dataset_digest(d)}" for d in result.datasets]
        # digested as lists of (user, item, position) tuples, so the line
        # compares with checkouts whose events were such lists
        events = {d: list(map(tuple, ev.tolist())) for d, ev in result.events.items()}
        print(f"data {label}: {' '.join(parts)} events={repr_digest(events)}", flush=True)
    per_file, shared = tsv_digests(SyntheticSpec())
    print(f"tsv joint-default: {' '.join(per_file)} shared: {' '.join(shared)}",
          flush=True)


if __name__ == "__main__":
    main()
