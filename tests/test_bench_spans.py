"""The benchmark's span tracer rebinds crossrec attributes by name from
outside the package, and its record probe calls crossrec directly; these
tests keep those names and the traced counts working. They read ``bench/``
and never change it."""
import importlib.util
import os

import numpy as np
import pytest

from crossrec import evaluation, train
from crossrec.meta import MetaConfig
from crossrec.runconfig import RunConfig

from test_meta import PINNED_JOINT_RECORDS, PINNED_RECORDS, tiny_world

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SPANS = os.path.join(BENCH, "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    spans = load_spans()
    bindings = spans.Tracer().bindings()
    assert bindings
    for module, attr, _ in bindings:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_traced_iteration_keeps_its_counts():
    spans = load_spans()
    tracer = spans.Tracer()
    params, sources, target, mc = tiny_world()
    cfg = MetaConfig(inner_steps=2, inner_batch=4, meta_batch=4)
    with spans.rebound(tracer.bindings()):
        new, _ = train.train_iteration(params, sources, target, mc, cfg,
                                       np.random.default_rng(7))
        train.joint_train_iteration(new, sources, target, mc, cfg,
                                    np.random.default_rng(7))
    totals = spans.Totals(tracer)
    assert totals.records_ok and totals.nested_ok
    assert totals.roots == {"train.iteration": 2}
    # both iterations: one stacked meta iteration and one joint step, whose
    # source batches are one stacked call and its target batch a second
    assert totals.exit_records["train.iteration"] == PINNED_RECORDS + PINNED_JOINT_RECORDS
    for name, calls in [("meta.inner_adapt", 1), ("meta.meta_gradient", 1),
                        ("objective.batch_loss", 2 + 1 + 2), ("vq.quantize", 2 + 1),
                        ("data.sample_batch", 9 + 3)]:
        assert totals.sums[("train.iteration", name)][0] == calls, name


def test_traced_evaluate_sees_its_layers():
    # eval's per-layer numbers come from evaluation.eval_batch and
    # evaluation.rank_of_truth, looked up by name on each evaluate call
    spans = load_spans()
    tracer = spans.Tracer()
    params, _, target, mc = tiny_world()
    with spans.rebound(tracer.bindings()):
        for split in ("val", "test", "val"):
            evaluation.evaluate(params, target, split, 5, mc)
    totals = spans.Totals(tracer)
    assert totals.nested_ok
    assert totals.roots == {"evaluation.evaluate": 3}
    for name in ("data.eval_batch", "evaluation.rank"):
        assert totals.sums[("evaluation.evaluate", name)][0] >= 1, name


def test_record_probe_keeps_its_counts(monkeypatch):
    # the traced benchmark's probe: one source and one target batch from
    # sample_batch, then inner_adapt and meta_gradient over batch_loss at
    # inner_steps 1-4
    pytest.importorskip("scipy")  # bench/harness.py stamps its version
    monkeypatch.syspath_prepend(BENCH)  # harness imports its siblings by name
    harness = importlib.import_module("harness")
    workloads = importlib.import_module("workloads")
    params, sources, target, mc = tiny_world()
    cfg = RunConfig(seed=7, encoder=mc.encoder, vq=mc.vq,
                    meta=MetaConfig(inner_batch=4, meta_batch=4))
    counts = harness.record_probe(cfg, workloads.State(sources, target, params))
    for phase, pinned in [("inner_adapt", [88, 176, 264, 352]),
                          ("meta_gradient", [107, 195, 283, 371])]:
        assert [counts[f"meta.{phase}.records.s{s}"] for s in range(1, 5)] == pinned
