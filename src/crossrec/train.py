"""Training driver: dataset resolution, the iteration loop for every variant,
best-checkpoint tracking, metrics CSV rows, and the ablation harness.

Metrics CSV schema (stable; one header line, then data rows):
  type,iteration,loss,task_losses,mean_max_weight,ndcg,recall,mrr
"iter" rows fill loss / task_losses ('|'-joined) / mean_max_weight; "eval"
rows fill the three metric columns. Everything is reproducible from
(config, seed): reruns emit byte-identical CSVs and checkpoints.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .backbone import init_parameters
from .checkpoint import save_checkpoint
from .data import (check_utf8, generate_synthetic, k_core_filter,
                   leave_one_out_split, load_interactions, open_text)
from .evaluation import evaluate
from .meta import joint_train_iteration, train_iteration
from .runconfig import VARIANTS, effective_model_config, serialize_config

CSV_HEADER = "type,iteration,loss,task_losses,mean_max_weight,ndcg,recall,mrr"


@dataclass
class TrainResult:
    best_params: dict
    best_ndcg: float
    best_iteration: int
    final_params: dict
    csv_rows: list
    config_text: str = ""


def load_manifest(path):
    """Manifest rows (domain, role, tsv path); paths resolve against the manifest.

    Each row is ``domain<TAB>role<TAB>path`` with role ``source`` or
    ``target``; exactly one row is the target and no domain is listed twice.
    Errors name ``path:lineno``.
    """
    base = os.path.dirname(os.path.abspath(path))
    rows = []
    seen = {}
    target_line = None
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            check_utf8(path, lineno, line)
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{where}: expected 3 tab-separated fields, "
                                 f"got {len(fields)}")
            domain, role, rel = fields
            if role not in ("source", "target"):
                raise ValueError(f"{where}: role must be 'source' or 'target', "
                                 f"got {role!r}")
            if domain in seen:
                raise ValueError(f"{where}: domain {domain!r} already listed "
                                 f"on line {seen[domain]}")
            seen[domain] = lineno
            if role == "target":
                if target_line is not None:
                    raise ValueError(f"{where}: second target row, the first "
                                     f"is on line {target_line}")
                target_line = lineno
            rows.append((domain, role, os.path.join(base, rel)))
    if target_line is None:
        raise ValueError(f"{path}: no row has role 'target'")
    return rows


def build_datasets(cfg):
    """(source datasets, target dataset) from manifest files or inline synthesis.

    A manifest domain with no rows in its TSV, or that k-core filtering leaves
    without users, is rejected, and so is a manifest without a source row
    under a meta-transfer variant.
    """
    if cfg.data.manifest:
        sources, target, parsed = [], None, {}  # parsed: path -> its one parse
        for domain, role, path in load_manifest(cfg.data.manifest):
            if path not in parsed:
                parsed[path] = load_interactions(path)
            per_domain = parsed[path]
            if domain not in per_domain:
                raise ValueError(f"{path}: no rows for domain {domain!r}; the file "
                                 f"has domains {sorted(per_domain)}")
            ds = leave_one_out_split(domain, k_core_filter(per_domain[domain], cfg.k_core))
            per_domain[domain] = None  # a domain is listed once: free its events
            if ds.num_users == 0:
                raise ValueError(f"{path}: domain {domain!r} has no users left "
                                 f"after k-core filtering with k_core={cfg.k_core}")
            if role == "target":
                target = ds
            else:
                sources.append(ds)
        if not sources and cfg.variant != "no_meta":
            raise ValueError(f"{cfg.data.manifest}: no row has role 'source', "
                             f"which variant {cfg.variant!r} needs")
        return sources, target
    result = generate_synthetic(cfg.synthetic)
    return result.datasets[:-1], result.datasets[-1]


def _fmt(x):
    return repr(float(x))


def _check_finite(it, report, params):
    """Raise FloatingPointError when an iteration left a non-finite loss or
    parameter, naming the iteration, the tasks' source domains and the first
    non-finite layer."""
    tasks = report.tasks
    bad_tasks = [t for t in tasks if not np.isfinite(t.meta_loss)]
    layer = next((k for k, v in params.items() if not np.all(np.isfinite(v.data))),
                 None)
    if layer is None and not bad_tasks and np.isfinite(report.overall_loss):
        return
    where = f"iteration {it}: loss {report.overall_loss!r}"
    if tasks:
        domains = ", ".join(t.source_domain for t in bad_tasks or tasks)
        where += f", tasks from source domains {domains}"
    what = f"first non-finite layer {layer}" if layer else "every layer finite"
    raise FloatingPointError(f"{where}; {what}")


def run_training(cfg, datasets=None):
    """Run the configured variant; returns a TrainResult.

    The checkpoint kept is the one with the best validation NDCG@10; a later
    equal score never replaces an earlier best. A non-finite loss or parameter
    stops the run with a FloatingPointError.
    """
    sources, target = datasets if datasets is not None else build_datasets(cfg)
    model_cfg = effective_model_config(cfg, target.domain_id)
    item_counts = {d.domain_id: d.item_count for d in sources + [target]}
    params = init_parameters(cfg.encoder, item_counts, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    rows = [CSV_HEADER]
    best_params = None
    best_ndcg = -1.0
    best_iter = -1
    for it in range(1, cfg.iterations + 1):
        if cfg.variant == "no_meta":
            params, report = joint_train_iteration(
                params, sources, target, model_cfg, cfg.meta, rng)
        else:
            params, report = train_iteration(
                params, sources, target, model_cfg, cfg.meta, rng,
                rescale=cfg.variant != "no_rescale")
        _check_finite(it, report, params)
        task_losses = "|".join(_fmt(t.meta_loss) for t in report.tasks)
        weights = report.layer_weights.values()
        mmw = _fmt(np.mean([max(w) for w in weights])) if weights else ""
        rows.append(f"iter,{it},{_fmt(report.overall_loss)},{task_losses},{mmw},,,")
        if it % cfg.eval_every == 0 or it == cfg.iterations:
            res = evaluate(params, target, "val", cfg.k, model_cfg)
            rows.append(f"eval,{it},,,,{_fmt(res.ndcg_at_k)},"
                        f"{_fmt(res.recall_at_k)},{_fmt(res.mrr)}")
            if res.ndcg_at_k > best_ndcg:
                best_ndcg = res.ndcg_at_k
                best_iter = it
                best_params = {k: v.data.copy() for k, v in params.items()}
    return TrainResult(best_params=best_params, best_ndcg=best_ndcg,
                       best_iteration=best_iter, final_params=params,
                       csv_rows=rows, config_text=serialize_config(cfg))


def write_outputs(result, cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "metrics.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(result.csv_rows) + "\n")
    ckpt_path = os.path.join(out_dir, "best.ckpt")
    save_checkpoint(ckpt_path, result.best_params, result.config_text)
    return csv_path, ckpt_path


def run_ablation(cfg, datasets=None):
    """Run all five variants on identical data and seed.

    Returns variant -> (TrainResult, test EvalResult).
    """
    shared = datasets if datasets is not None else build_datasets(cfg)
    out = {}
    for variant in VARIANTS:
        vcfg = dataclasses.replace(cfg, variant=variant)
        result = run_training(vcfg, datasets=shared)
        model_cfg = effective_model_config(vcfg, shared[1].domain_id)
        best = {k: Tensor(v) for k, v in result.best_params.items()}
        res = evaluate(best, shared[1], "test", vcfg.k, model_cfg)
        out[variant] = (result, res)
    return out


def ablation_csv(results, cfg):
    lines = [f"# seed={cfg.seed} data_seed={cfg.synthetic.seed} "
             f"iterations={cfg.iterations}",
             "variant,ndcg@10,recall@10,mrr"]
    for variant in VARIANTS:
        _, res = results[variant]
        lines.append(f"{variant},{_fmt(res.ndcg_at_k)},"
                     f"{_fmt(res.recall_at_k)},{_fmt(res.mrr)}")
    return "\n".join(lines) + "\n"
