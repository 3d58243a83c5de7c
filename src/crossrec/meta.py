"""Bi-level meta-transfer: inner adaptation on sampled source tasks,
second-order meta-gradients on target batches, per-layer similarity-based
gradient rescaling, and the rescaled outer update."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .data import sample_batch
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
    inner_losses: list       # float per inner step
    tape: Tape               # records the unrolled updates


def inner_adapt(theta, step_loss_fns, cfg):
    """Run inner gradient-descent steps from theta; theta is never mutated.

    ``step_loss_fns`` supplies one loss callable (params -> scalar tensor) per
    inner step. Every update ``phi - inner_lr * g`` is recorded on one tape, so
    phi stays a differentiable function of theta; a parameter the step loss
    cannot reach (its gradient is ``None``) is carried over unchanged. In
    second-order mode ``g`` is recorded with ``create_graph``; in first-order
    mode it is a constant, so the meta-gradient passes through the updates
    unchanged (Finn et al. 2017, arXiv:1703.03400).
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
            losses.append(float(loss.data))
            grads = ad.grad(loss, [phi[k] for k in names],
                            create_graph=cfg.second_order)
            phi = {k: phi[k] if g is None else ad.step(phi[k], g, cfg.inner_lr)
                   for k, g in zip(names, grads)}
    return AdaptResult(phi, losses, tape)


def meta_gradient(theta, adapted, meta_loss_fn, cfg):
    """d meta_loss(phi) / d theta per layer name, through the updates that
    ``inner_adapt`` recorded on ``adapted.tape``.

    ``cfg`` is unused: the gradient order was fixed by ``inner_adapt``.
    Returns (name -> ndarray, meta loss value); a layer the meta loss cannot
    reach gets zeros.
    """
    names = list(theta)
    with adapted.tape:
        loss = meta_loss_fn(adapted.phi)
        grads = ad.grad(loss, [theta[k] for k in names])
    return ({k: np.zeros_like(theta[k].data) if g is None else g.data.copy()
             for k, g in zip(names, grads)}, float(loss.data))


def _softmax(x):
    z = np.exp(x - np.max(x))
    return z / z.sum()


def rescale_and_update(theta, task_results, cfg, uniform=False):
    """Per-layer similarity-weighted outer update.

    ``task_results`` holds (phi, meta_grads) per task. Per layer, scores are
    the cosine between each task's flattened meta gradient and its inner
    displacement phi - theta; softmax at temperature tau turns them into
    weights (exact 1/n when ``uniform``). Returns (new params, scores dict,
    weights dict).
    """
    n = len(task_results)
    names = list(theta)
    for phi, grads in task_results:
        if set(phi) != set(names) or set(grads) != set(names):
            raise ValueError("rescale_and_update: layer-name mismatch across tasks")
    scores = {}
    weights = {}
    new_theta = {}
    for name in names:
        base = theta[name].data
        s = np.zeros(n)
        for i, (phi, grads) in enumerate(task_results):
            g = grads[name].ravel()
            d = (phi[name].data - base).ravel()
            gn = np.linalg.norm(g)
            dn = np.linalg.norm(d)
            if gn < NORM_EPS or dn < NORM_EPS:
                s[i] = 0.0
            else:
                s[i] = float(g @ d) / (gn * dn)
        w = np.full(n, 1.0 / n) if uniform else _softmax(s / cfg.temperature)
        scores[name] = s.tolist()
        weights[name] = w.tolist()
        update = np.zeros_like(base)
        for i, (_, grads) in enumerate(task_results):
            update += w[i] * grads[name]
        new_theta[name] = Tensor(base - cfg.outer_lr * update)
    return new_theta, scores, weights


def train_iteration(theta, sources, target, model_cfg, cfg, rng, rescale=True):
    """One meta-transfer iteration.

    Samples n source tasks plus n independent target meta-batches, runs
    inner adaptation and the meta gradient per pair from the same starting
    theta, then applies one rescaled outer update. Returns (new params,
    MetaIterationReport).
    """
    if not sources:
        raise ValueError("train_iteration: no source domains")
    m = len(sources)
    replace = m < cfg.n_tasks
    picks = rng.choice(m, size=cfg.n_tasks, replace=replace)
    report = MetaIterationReport()
    task_results = []
    for idx in picks:
        src = sources[int(idx)]
        inner = [sample_batch(src, "train", cfg.inner_batch,
                              model_cfg.encoder.max_len, rng)
                 for _ in range(cfg.inner_steps)]
        meta_b = sample_batch(target, "train", cfg.meta_batch,
                              model_cfg.encoder.max_len, rng)
        step_fns = [
            (lambda p, b=b: batch_loss(p, b, model_cfg,
                                       include_vq=cfg.vq_in_inner)[0])
            for b in inner
        ]
        adapted = inner_adapt(theta, step_fns, cfg)
        grads, meta_loss = meta_gradient(
            theta, adapted,
            lambda p: batch_loss(p, meta_b, model_cfg, include_vq=True)[0], cfg)
        report.tasks.append(TaskReport(src.domain_id, adapted.inner_losses, meta_loss))
        task_results.append((adapted.phi, grads))
    new_theta, scores, weights = rescale_and_update(
        theta, task_results, cfg, uniform=not rescale)
    report.layer_scores = scores
    report.layer_weights = weights
    report.overall_loss = float(np.mean([t.meta_loss for t in report.tasks]))
    return new_theta, report


def joint_train_iteration(theta, sources, target, model_cfg, cfg, rng):
    """One plain gradient step on a batch pooled across all domains.

    The meta-transfer ablation baseline: no inner loop, no rescaling. Returns
    (new params, pooled loss value).
    """
    domains = list(sources) + [target]
    if not domains:
        raise ValueError("joint_train_iteration: empty domain pool")
    batches = [sample_batch(d, "train", cfg.inner_batch,
                            model_cfg.encoder.max_len, rng)
               for d in domains]
    names = list(theta)
    with Tape():
        losses = [batch_loss(theta, b, model_cfg, include_vq=True)[0]
                  for b in batches]
        total = losses[0]
        for extra in losses[1:]:
            total = ad.add(total, extra)
        total = ad.scale(total, 1.0 / len(losses))
        grads = ad.grad(total, [theta[k] for k in names])
    new_theta = {k: Tensor(theta[k].data - cfg.outer_lr *
                           (np.zeros_like(theta[k].data) if g is None else g.data))
                 for k, g in zip(names, grads)}
    return new_theta, float(total.data)
