"""In-memory span tracer for crossrec, installed from outside the package.

``Tracer.bindings()``, applied with ``rebound()``, rebinds the module
attributes that crossrec's callers look up (``crossrec.meta.batch_loss``,
``crossrec.train.evaluate``, ``crossrec.autodiff.grad``, ...) to wrappers that
record one span per call: name, start, end, parent, and the tape records
created meanwhile. Leaving ``rebound()`` restores every original, so the
program itself is never edited.

Record counts come from the tapes entered while tracing: ``crossrec.meta.Tape``
is rebound to a subclass that registers each tape on ``__enter__`` and counts
the records it gained at every ``__exit__``.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import crossrec.autodiff as ad
import crossrec.backbone as backbone
import crossrec.evaluation as evaluation
import crossrec.meta as meta
import crossrec.objective as objective
import crossrec.train as train
from crossrec.backbone import embed_key


class Span:
    __slots__ = ("name", "parent", "start", "end", "rec0", "rec1", "exit0",
                 "exit1", "leaf", "extra")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.leaf = None   # name -> [calls, seconds] of aggregated leaf calls
        self.extra = None  # name -> number, e.g. rows quantized


class Tracer:
    """Spans of one process, kept in memory until ``write``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._tapes = {}          # id -> [tape, records counted at last exit]
        self.exit_records = 0     # records counted at Tape.__exit__

    def _records(self):
        return sum(len(t.records) for t, _ in self._tapes.values())

    def begin(self, name):
        span = Span(name, self._stack[-1] if self._stack else None)
        span.rec0 = self._records()
        span.exit0 = self.exit_records
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def end(self, span):
        span.end = perf_counter()
        span.rec1 = self._records()
        span.exit1 = self.exit_records
        self._stack.pop()
        if not self._stack:
            self._tapes.clear()   # tapes never outlive the root span using them

    @contextmanager
    def span(self, name):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def wrap(self, name, fn, extra=None):
        """``fn`` recorded as span ``name``; ``extra(args)`` adds counters."""
        def traced(*args, **kwargs):
            counters = None if extra is None else extra(*args, **kwargs)
            s = self.begin(name)
            s.extra = counters
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(s)
        return traced

    def wrap_leaf(self, name, fn):
        """A hot leaf call: summed into its parent span, not stored per call."""
        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                parent = self.spans[self._stack[-1]]
                if parent.leaf is None:
                    parent.leaf = {}
                entry = parent.leaf.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += dt
        return traced

    def wrap_grad(self, fn):
        """``autodiff.grad`` split by mode: ``grad_cg`` records its backward."""
        def traced(output, wrt, create_graph=False):
            s = self.begin("autodiff.grad_cg" if create_graph else "autodiff.grad")
            try:
                return fn(output, wrt, create_graph=create_graph)
            finally:
                self.end(s)
        return traced

    def tape_class(self, base):
        tapes = self._tapes
        tracer = self

        class TracedTape(base):
            def __enter__(self):
                tapes.setdefault(id(self), [self, 0])
                return super().__enter__()

            def __exit__(self, *exc):
                entry = tapes.setdefault(id(self), [self, 0])
                tracer.exit_records += len(self.records) - entry[1]
                entry[1] = len(self.records)
                return super().__exit__(*exc)

        return TracedTape

    def bindings(self):
        """(module, attribute, traced replacement) for every traced call."""
        def quantize_extra(params, domain, book):
            rows = params[embed_key(domain)].data.shape[0] - 1
            return {"rows": rows, "sim_bytes": rows * book.size * 8}

        evaluate = self.wrap("evaluation.evaluate", evaluation.evaluate)
        encode = self.wrap("backbone.encode", objective.encode_steps)
        return [
            (train, "train_iteration",
             self.wrap("train.iteration", train.train_iteration)),
            (train, "joint_train_iteration",
             self.wrap("train.iteration", train.joint_train_iteration)),
            (train, "evaluate", evaluate),
            (evaluation, "evaluate", evaluate),
            (evaluation, "eval_batch",
             self.wrap("data.eval_batch", evaluation.eval_batch)),
            (evaluation, "rank_of_truth",
             self.wrap_leaf("evaluation.rank", evaluation.rank_of_truth)),
            (meta, "sample_batch",
             self.wrap("data.sample_batch", meta.sample_batch)),
            (meta, "inner_adapt", self.wrap("meta.inner_adapt", meta.inner_adapt)),
            (meta, "meta_gradient",
             self.wrap("meta.meta_gradient", meta.meta_gradient)),
            (meta, "rescale_and_update",
             self.wrap("meta.rescale", meta.rescale_and_update)),
            (meta, "batch_loss", self.wrap("objective.batch_loss", meta.batch_loss)),
            (meta, "Tape", self.tape_class(meta.Tape)),
            (objective, "encode_steps", encode),
            (backbone, "encode_steps", encode),
            (objective, "quantize_domain_matrix",
             self.wrap("vq.quantize", objective.quantize_domain_matrix,
                       extra=quantize_extra)),
            (ad, "grad", self.wrap_grad(ad.grad)),
        ]

    def write(self, path, header):
        """One JSON line per span after a header line; times in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "parent": s.parent,
                       "start": s.start, "end": s.end,
                       "records": s.rec1 - s.rec0}
                if s.leaf:
                    row["leaf"] = s.leaf
                if s.extra:
                    row.update(s.extra)
                fh.write(json.dumps(row) + "\n")


@contextmanager
def rebound(bindings):
    """Set each ``module.attr`` to its replacement; restore all on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in bindings]
    try:
        for mod, attr, value in bindings:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


class Totals:
    """Per-root sums of calls, time, self time and records for each span name."""

    def __init__(self, tracer):
        spans = tracer.spans
        n = len(spans)
        child_s = [0.0] * n
        child_rec = [0] * n
        root = [0] * n
        self.nested_ok = True  # children inside parents, no negative self time
        for i, s in enumerate(spans):
            root[i] = i if s.parent is None else root[s.parent]
            if s.parent is not None:
                p = spans[s.parent]
                child_s[s.parent] += s.end - s.start
                child_rec[s.parent] += s.rec1 - s.rec0
                self.nested_ok &= p.start <= s.start and s.end <= p.end
        self.roots = {}        # root name -> number of roots
        self.sums = {}         # (root name, span name) -> [calls, s, self_s, rec, self_rec]
        self.extras = {}       # (root name, extra key) -> [sum, max]
        self.exit_records = {}  # root name -> records counted at Tape.__exit__
        for i, s in enumerate(spans):
            rname = spans[root[i]].name
            if s.parent is None:
                self.roots[rname] = self.roots.get(rname, 0) + 1
                self.exit_records[rname] = (self.exit_records.get(rname, 0)
                                            + s.exit1 - s.exit0)
            dur = s.end - s.start
            rec = s.rec1 - s.rec0
            leaf_s = 0.0
            for lname, (calls, secs) in (s.leaf or {}).items():
                leaf_s += secs
                self._add(rname, lname, calls, secs, secs, 0, 0)
            self_s = dur - child_s[i] - leaf_s
            self.nested_ok &= self_s >= 0.0
            self._add(rname, s.name, 1, dur, self_s, rec, rec - child_rec[i])
            for key, value in (s.extra or {}).items():
                self._add_extra(rname, f"{s.name}.{key}", value)
        # every record created under a root was counted once at a Tape exit
        self.records_ok = all(self.exit_records[r] == self.sums[(r, r)][3]
                              for r in self.roots)

    def _add(self, rname, name, calls, secs, self_s, rec, self_rec):
        acc = self.sums.setdefault((rname, name), [0, 0.0, 0.0, 0, 0])
        acc[0] += calls
        acc[1] += secs
        acc[2] += self_s
        acc[3] += rec
        acc[4] += self_rec

    def _add_extra(self, rname, key, value):
        total = self.extras.setdefault((rname, key), [0, 0])
        total[0] += value
        total[1] = max(total[1], value)

    def per_root(self, rname, name, field):
        """Mean of ``field`` (calls, ms, self_ms, records, self_records) per
        root span named ``rname``; 0 when there is none."""
        n = self.roots.get(rname, 0)
        acc = self.sums.get((rname, name))
        if not n or acc is None:
            return 0.0
        index = ("calls", "ms", "self_ms", "records", "self_records").index(field)
        scale = 1e3 if field.endswith("ms") else 1
        return acc[index] * scale / n
