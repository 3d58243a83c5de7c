"""Bi-level meta-transfer: inner adaptation on sampled source tasks,
second-order meta-gradients on target batches, per-layer similarity-based
gradient rescaling, and the rescaled outer update."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .backbone import embed_key, table_starts
from .data import TaskBatch, sample_batch
from .objective import batch_loss

NORM_EPS = 1e-12


@dataclass(frozen=True)
class MetaConfig:
    n_tasks: int = 3
    inner_lr: float = 0.1
    outer_lr: float = 0.1
    inner_steps: int = 2
    temperature: float = 1.0
    inner_batch: int = 8
    meta_batch: int = 8
    second_order: bool = True
    vq_in_inner: bool = True  # include the vq term in inner-level losses too

    def __post_init__(self):
        for name in ("inner_lr", "outer_lr", "temperature"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"meta.{name} must be finite, got {getattr(self, name)}")
        if self.temperature <= 0:
            raise ValueError(f"meta.temperature must be positive, got {self.temperature}")
        for name, low in (("inner_lr", 0), ("outer_lr", 0), ("n_tasks", 1),
                          ("inner_steps", 1), ("inner_batch", 1), ("meta_batch", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"meta.{name} must be >= {low}, got {getattr(self, name)}")


@dataclass
class TaskReport:
    source_domain: str
    inner_losses: list
    meta_loss: float


@dataclass
class MetaIterationReport:
    tasks: list = field(default_factory=list)
    layer_scores: dict = field(default_factory=dict)   # layer -> [s_1..s_n]
    layer_weights: dict = field(default_factory=dict)  # layer -> [w_1..w_n]
    overall_loss: float = 0.0


@dataclass
class AdaptResult:
    phi: dict                # name -> Tensor
    inner_losses: list       # per inner step: a float, or one per task
    tape: Tape               # records the unrolled updates


def inner_adapt(theta, step_loss_fns, cfg):
    """Run inner gradient-descent steps from theta; theta is never mutated.

    ``step_loss_fns`` supplies one loss callable per inner step: params -> a
    scalar, or one loss per task, whose sum is differentiated. Every update
    ``phi - inner_lr * g`` is recorded on one tape, so phi stays a
    differentiable function of theta; a parameter the step loss cannot reach
    (its gradient is ``None``) is carried over unchanged. In second-order mode
    ``g`` is recorded with ``create_graph``; in first-order mode it is a
    constant, so the meta-gradient passes through the updates unchanged (Finn
    et al. 2017, arXiv:1703.03400).

    The tape records nodes, not tensors, so an array made inside a step
    outlives it only if a recorded vjp reads it or it is the new phi.
    """
    if not step_loss_fns:
        raise ValueError("inner_adapt: no inner batches")
    names = list(theta)
    losses = []
    tape = Tape()
    with tape:
        phi = dict(theta)
        for fn in step_loss_fns:
            loss = fn(phi)
            losses.append(loss.data.tolist())
            grads = ad.grad(ad.sum(loss) if loss.data.ndim else loss,
                            [phi[k] for k in names], create_graph=cfg.second_order)
            phi = {k: phi[k] if g is None else ad.step(phi[k], g, cfg.inner_lr)
                   for k, g in zip(names, grads)}
    return AdaptResult(phi, losses, tape)


def meta_gradient(theta, adapted, meta_loss_fn, cfg):
    """d meta_loss(phi) / d theta per layer name, through the updates that
    ``inner_adapt`` recorded on ``adapted.tape``.

    ``cfg`` is unused: the gradient order was fixed by ``inner_adapt``. A
    per-task meta loss is differentiated as its sum. Returns (name -> ndarray,
    meta loss value: a float, or one per task); a layer the meta loss cannot
    reach gets zeros.
    """
    names = list(theta)
    with adapted.tape:
        loss = meta_loss_fn(adapted.phi)
        grads = ad.grad(ad.sum(loss) if loss.data.ndim else loss,
                        [theta[k] for k in names])
    return ({k: np.zeros_like(theta[k].data) if g is None else g.data.copy()
             for k, g in zip(names, grads)}, loss.data.tolist())


def _softmax(x):
    z = np.exp(x - np.max(x))
    return z / z.sum()


def rescale_and_update(theta, layers, cfg, uniform=False):
    """Per-layer similarity-weighted outer update.

    ``layers`` has every layer name of ``theta``; ``layers[name]`` holds one
    entry per task: (meta-gradient, inner displacement phi - theta), both
    shaped like the layer, or ``None`` for a task that left the layer as it
    was, which scores 0 and adds no term. Per layer, scores are the cosine
    between each task's flattened meta gradient and its displacement;
    softmax at temperature tau turns them into weights (exact 1/n when
    ``uniform``). Returns (new params, scores dict, weights dict).
    """
    names = list(theta)
    scores = {}
    weights = {}
    new_theta = {}
    for name in names:
        entries = layers[name]
        n = len(entries)
        s = np.zeros(n)
        for i, entry in enumerate(entries):
            if entry is None:
                continue
            g, d = entry[0].ravel(), entry[1].ravel()
            # pairwise sums, not BLAS: the bytes then do not depend on the
            # BLAS build or its thread count
            gn = np.sqrt(np.add.reduce(g * g))
            dn = np.sqrt(np.add.reduce(d * d))
            if not (gn < NORM_EPS or dn < NORM_EPS):
                s[i] = float(np.add.reduce(g * d)) / (gn * dn)
        w = np.full(n, 1.0 / n) if uniform else _softmax(s / cfg.temperature)
        scores[name] = s.tolist()
        weights[name] = w.tolist()
        base = theta[name].data
        update = np.zeros_like(base)
        for wi, entry in zip(w, entries):
            if entry is not None:
                update += wi * entry[0]
        new_theta[name] = Tensor(base - cfg.outer_lr * update)
    return new_theta, scores, weights


def _stack_tasks(theta, picks, model_cfg):
    """One task per source of ``picks`` as stacked parameters: each encoder
    weight gets a leading task axis (vectors as (n, 1, d)), the picked tables
    sit one after another in one flat table, and n copies of the target table
    in another. No task shares a parameter with another, so the gradient of
    the summed loss is each task's own. Returns (the stack's domain, the
    leaves, per task its (layer, stacked leaf, the task's part of that leaf))."""
    n = len(picks)
    target_key = embed_key(model_cfg.target_domain)
    source_keys = [embed_key(src.domain_id) for src in picks]
    encoder_keys = [k for k in theta if not k.startswith(embed_key(""))]
    # any name but the target's keeps the stacked source tables on the VQ path
    stack_domain = model_cfg.target_domain + ".sources"
    stack_key = embed_key(stack_domain)
    counts = tuple(theta[k].data.shape[0] - 1 for k in source_keys)
    target_rows = theta[target_key].data.shape[0]
    stacked = {k: Tensor(np.stack([np.atleast_2d(theta[k].data)] * n))
               for k in encoder_keys}
    stacked[stack_key] = Tensor(np.concatenate([theta[k].data for k in source_keys]))
    stacked[target_key] = Tensor(np.concatenate([theta[target_key].data] * n))
    starts = table_starts(counts)
    parts = [[(k, k, np.s_[i]) for k in encoder_keys]
             + [(source_keys[i], stack_key, np.s_[starts[i]:starts[i] + counts[i] + 1]),
                (target_key, target_key, np.s_[i * target_rows:(i + 1) * target_rows])]
             for i in range(n)]
    return stack_domain, stacked, parts


def _stack_batch(batches, domain):
    """Same-shaped batches as one TaskBatch on a leading task axis."""
    return TaskBatch(domain, np.stack([b.inputs for b in batches]),
                     np.stack([b.targets for b in batches]),
                     sum((b.counts for b in batches), ()))


def train_iteration(theta, sources, target, model_cfg, cfg, rng, rescale=True):
    """One meta-transfer iteration.

    Samples n source tasks plus n independent target meta-batches, runs
    inner adaptation and the meta gradient for all n pairs from the same
    starting theta, then applies one rescaled outer update. Returns (new
    params, MetaIterationReport).

    The n tasks run as one stack on one tape (``_stack_tasks``). Each task's
    meta-gradient and displacement are sliced back out for the layers it
    holds on the stack; a source table the task did not pick gets no entry.
    """
    if not sources:
        raise ValueError("train_iteration: no source domains")
    m = len(sources)
    replace = m < cfg.n_tasks
    picks = [sources[int(i)] for i in rng.choice(m, size=cfg.n_tasks, replace=replace)]
    max_len = model_cfg.encoder.max_len
    inner, meta_batches = [], []
    for src in picks:
        inner.append([sample_batch(src, "train", cfg.inner_batch, max_len, rng)
                      for _ in range(cfg.inner_steps)])
        meta_batches.append(sample_batch(target, "train", cfg.meta_batch, max_len, rng))

    stack_domain, stacked, parts = _stack_tasks(theta, picks, model_cfg)

    def stack_loss(batches, domain, include_vq):
        stack = _stack_batch(batches, domain)
        return lambda p: batch_loss(p, stack, model_cfg, include_vq=include_vq)[0]

    adapted = inner_adapt(stacked, [
        stack_loss([b[s] for b in inner], stack_domain, cfg.vq_in_inner)
        for s in range(cfg.inner_steps)], cfg)
    grads, meta_losses = meta_gradient(stacked, adapted, stack_loss(
        meta_batches, model_cfg.target_domain, True), cfg)

    layers = {k: [None] * len(picks) for k in theta}
    for i, task in enumerate(parts):
        for key, leaf, part in task:
            shape = theta[key].data.shape
            phi = adapted.phi[leaf].data[part].reshape(shape)
            layers[key][i] = (grads[leaf][part].reshape(shape), phi - theta[key].data)
    new_theta, scores, weights = rescale_and_update(
        theta, layers, cfg, uniform=not rescale)
    tasks = [TaskReport(src.domain_id, [s[i] for s in adapted.inner_losses],
                        meta_losses[i]) for i, src in enumerate(picks)]
    return new_theta, MetaIterationReport(tasks, scores, weights,
                                          float(np.mean(meta_losses)))


def joint_train_iteration(theta, sources, target, model_cfg, cfg, rng):
    """One plain gradient step on a batch pooled across all domains.

    The meta-transfer ablation baseline: no inner loop, no rescaling. Returns
    (new params, MetaIterationReport with the pooled loss and no tasks).

    The source batches run as one task stack (``_stack_tasks``) and the target
    batch, which has no VQ term, as a second ``batch_loss`` on theta. A layer
    sums its terms in the order of a sweep over one loss per domain: the target
    batch's, then the source tasks' from last to first (a sum over the task
    axis rounds differently). A table no batch reaches keeps its bytes.
    """
    batches = [sample_batch(d, "train", cfg.inner_batch, model_cfg.encoder.max_len, rng)
               for d in [*sources, target]]
    stacked, parts = {}, []
    with Tape():
        loss = batch_loss(theta, batches[-1], model_cfg)[0]
        values, total = [loss.data], loss
        if sources:
            domain, stacked, parts = _stack_tasks(theta, sources, model_cfg)
            loss = batch_loss(stacked, _stack_batch(batches[:-1], domain), model_cfg)[0]
            values[:0] = loss.data
            total = ad.add(total, ad.sum(loss))
        grads = ad.grad(ad.scale(total, 1.0 / len(batches)),
                        [*theta.values(), *stacked.values()])
    terms = {k: [g.data] for k, g in zip(theta, grads) if g is not None}
    leaf_grads = dict(zip(stacked, grads[len(theta):]))
    for key, leaf, part in (entry for task in reversed(parts) for entry in task):
        if (g := leaf_grads[leaf]) is not None:
            terms.setdefault(key, []).append(g.data[part].reshape(theta[key].data.shape))
    new_theta = {k: Tensor(t.data - cfg.outer_lr * reduce(np.add, terms[k]))
                 if k in terms else t for k, t in theta.items()}
    pooled = reduce(np.add, values) * (1.0 / len(batches))
    return new_theta, MetaIterationReport(overall_loss=float(pooled))
