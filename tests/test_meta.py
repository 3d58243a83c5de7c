import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from crossrec import autodiff as ad
from crossrec import meta
from crossrec.autodiff import Tensor
from crossrec.backbone import EncoderConfig, init_parameters
from crossrec.data import SyntheticSpec, generate_synthetic, sample_batch
from crossrec.meta import (MetaConfig, inner_adapt, joint_train_iteration,
                           meta_gradient, rescale_and_update, train_iteration)
from crossrec.objective import ModelConfig, VQConfig, batch_loss
from crossrec.runconfig import RunConfig, effective_model_config

from oracles import (dataset_from_lists, draw_tasks, fd_grad, first_order_meta_gradient,
                     full_sweep_grad, per_domain_joint_iteration, per_task_train_iteration,
                     rel_err, task_layers)

CFG = MetaConfig(inner_lr=0.1, outer_lr=0.1, inner_steps=1)


def quadratic_towards(c):
    """params -> sum((w - c)^2) as a recorded scalar."""
    def fn(p):
        return ad.sum(ad.square(ad.add_scalar(p["w"], -c)))
    return fn


def checksum(params):
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].data.tobytes())
    return h.hexdigest()


# -------------------------------------------------------------- inner loop

def test_inner_adapt_zero_lr_is_identity():
    theta = {"w": Tensor(np.array([1.5, -2.0]))}
    cfg = dataclasses.replace(CFG, inner_lr=0.0)
    adapted = inner_adapt(theta, [quadratic_towards(1.0)], cfg)
    assert np.array_equal(adapted.phi["w"].data, theta["w"].data)


def test_inner_adapt_scalar_quadratic_step():
    theta = {"w": Tensor(np.array([0.0]))}
    adapted = inner_adapt(theta, [quadratic_towards(1.0)], CFG)
    # w - 0.1 * 2(w - 1) = 0.2
    assert adapted.phi["w"].data[0] == pytest.approx(0.2, abs=1e-12)
    assert adapted.inner_losses == [pytest.approx(1.0)]


@pytest.mark.parametrize("second_order", [True, False])
def test_inner_losses_monotonic_on_convex_quadratic(second_order):
    theta = {"w": Tensor(np.array([3.0, -1.0, 0.5]))}
    cfg = dataclasses.replace(CFG, inner_steps=6, second_order=second_order)
    adapted = inner_adapt(theta, [quadratic_towards(1.0)] * 6, cfg)
    assert all(b <= a + 1e-12 for a, b in
               zip(adapted.inner_losses, adapted.inner_losses[1:]))


def test_inner_adapt_never_mutates_theta():
    theta = {"w": Tensor(np.array([0.7, 0.3]))}
    before = checksum(theta)
    for so in (True, False):
        cfg = dataclasses.replace(CFG, inner_steps=3, second_order=so)
        inner_adapt(theta, [quadratic_towards(2.0)] * 3, cfg)
        assert checksum(theta) == before


# ----------------------------------------------------------- meta gradient

def meta_square(p):
    return ad.sum(ad.square(p["w"]))


def test_meta_gradient_scalar_chain_exact_and_first_order():
    for second_order, expected in ((True, 0.32), (False, 0.4)):
        cfg = dataclasses.replace(CFG, second_order=second_order)
        theta = {"w": Tensor(np.array([0.0]))}
        adapted = inner_adapt(theta, [quadratic_towards(1.0)], cfg)
        grads, loss = meta_gradient(theta, adapted, meta_square, cfg)
        assert grads["w"][0] == pytest.approx(expected, abs=1e-10)
        assert loss == pytest.approx(0.04)


def test_zero_inner_lr_collapses_modes():
    for so in (True, False):
        cfg = dataclasses.replace(CFG, inner_lr=0.0, second_order=so)
        theta = {"w": Tensor(np.array([0.3, -0.8]))}
        adapted = inner_adapt(theta, [quadratic_towards(1.0)], cfg)
        grads, _ = meta_gradient(theta, adapted, meta_square, cfg)
        assert np.allclose(grads["w"], 2 * theta["w"].data, atol=1e-12)


def random_tiny_case(seed, inner_steps):
    """A <=50-parameter model with random quadratic inner/meta losses."""
    rng = np.random.default_rng(seed)
    theta = {"a": Tensor(rng.standard_normal(4)),
             "b": Tensor(rng.standard_normal((3, 3)))}
    targets = [
        {k: rng.standard_normal(v.data.shape) for k, v in theta.items()}
        for _ in range(inner_steps)
    ]
    mix = {k: rng.standard_normal(v.data.shape) for k, v in theta.items()}

    def step_fn(t):
        def fn(p):
            parts = [ad.sum(ad.square(ad.sub(p[k], ad.Tensor(t[k]))))
                     for k in sorted(p)]
            out = parts[0]
            for extra in parts[1:]:
                out = ad.add(out, extra)
            return out
        return fn

    def meta_fn(p):
        parts = [ad.sum(ad.square(ad.mul(p[k], ad.Tensor(mix[k]))))
                 for k in sorted(p)]
        out = parts[0]
        for extra in parts[1:]:
            out = ad.add(out, extra)
        return out

    return theta, [step_fn(t) for t in targets], meta_fn


def pipeline_value(theta_arrays, names, step_fns, meta_fn, cfg):
    theta = {k: Tensor(a) for k, a in zip(names, theta_arrays)}
    adapted = inner_adapt(theta, step_fns, cfg)
    with ad.Tape():
        return float(meta_fn(adapted.phi).data)


@pytest.mark.parametrize("seed,steps", [(s, 1 + s % 2) for s in range(6)]
                         + [(6, 3), (7, 3)])
def test_exact_meta_gradient_matches_pipeline_fd(seed, steps):
    cfg = dataclasses.replace(CFG, inner_steps=steps)
    theta, step_fns, meta_fn = random_tiny_case(seed, steps)
    adapted = inner_adapt(theta, step_fns, cfg)
    grads, _ = meta_gradient(theta, adapted, meta_fn, cfg)
    names = sorted(theta)
    step = 1e-6
    for name in names:
        fd = np.zeros_like(theta[name].data)
        it = np.nditer(fd, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            arrs = {k: theta[k].data.copy() for k in names}
            arrs[name][i] += step
            up = pipeline_value([arrs[k] for k in names], names, step_fns,
                                meta_fn, cfg)
            arrs[name][i] -= 2 * step
            dn = pipeline_value([arrs[k] for k in names], names, step_fns,
                                meta_fn, cfg)
            fd[i] = (up - dn) / (2 * step)
        assert rel_err(grads[name], fd) < 1e-5, name


def test_inner_adapt_tape_grows_linearly():
    params, sources, _, mc = tiny_world()
    batch = sample_batch(sources[0], "train", 4, mc.encoder.max_len,
                         np.random.default_rng(0))
    lengths = []
    for steps in range(1, 5):
        cfg = dataclasses.replace(CFG, inner_steps=steps)
        adapted = inner_adapt(
            params, [lambda p: batch_loss(p, batch, mc)[0]] * steps, cfg)
        lengths.append(len(adapted.tape.records))
    # each step adds its forward, its create_graph backward and the updates
    assert lengths == [88, 176, 264, 352]


@pytest.mark.parametrize("steps", [8, 16])
def test_inner_adapt_tape_stays_linear_at_depth(steps):
    # the 88 records of a step, past the 4 steps pinned above
    params, sources, _, mc = tiny_world()
    batch = sample_batch(sources[0], "train", 4, mc.encoder.max_len,
                         np.random.default_rng(0))
    cfg = dataclasses.replace(CFG, inner_steps=steps)
    adapted = inner_adapt(params, [lambda p: batch_loss(p, batch, mc)[0]] * steps, cfg)
    assert len(adapted.tape.records) == 88 * steps  # 704 and 1408


def test_pruned_meta_gradient_bit_identical_to_full_sweep(monkeypatch):
    params, sources, target, mc = tiny_world()
    rng = np.random.default_rng(4)
    inner = [sample_batch(sources[1], "train", 4, mc.encoder.max_len, rng)
             for _ in range(3)]
    meta_b = sample_batch(target, "train", 4, mc.encoder.max_len, rng)
    cfg = dataclasses.replace(CFG, inner_steps=3)
    names = sorted(params)

    def run():
        adapted = inner_adapt(
            params, [lambda p, b=b: batch_loss(p, b, mc)[0] for b in inner], cfg)
        grads, _ = meta_gradient(params, adapted,
                                 lambda p: batch_loss(p, meta_b, mc)[0], cfg)
        return ([adapted.phi[k].data.tobytes() for k in names],
                [grads[k].tobytes() for k in names], len(adapted.tape.records))

    phi, grads, pruned_len = run()
    monkeypatch.setattr(ad, "grad", full_sweep_grad)
    ref_phi, ref_grads, full_len = run()
    assert phi == ref_phi and grads == ref_grads
    assert pruned_len < full_len


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_first_order_meta_gradient_bit_identical_to_separate_path(steps):
    params, sources, target, mc = tiny_world()
    rng = np.random.default_rng(steps)
    inner = [sample_batch(sources[0], "train", 4, mc.encoder.max_len, rng)
             for _ in range(steps)]
    meta_b = sample_batch(target, "train", 4, mc.encoder.max_len, rng)
    step_fns = [lambda p, b=b: batch_loss(p, b, mc)[0] for b in inner]
    meta_fn = lambda p: batch_loss(p, meta_b, mc)[0]  # noqa: E731
    cfg = dataclasses.replace(CFG, inner_steps=steps, second_order=False)
    adapted = inner_adapt(params, step_fns, cfg)
    grads, _ = meta_gradient(params, adapted, meta_fn, cfg)
    ref_phi, ref_grads = first_order_meta_gradient(params, step_fns, meta_fn,
                                                   cfg.inner_lr)
    for k in params:
        assert adapted.phi[k].data.tobytes() == ref_phi[k].tobytes(), k
        assert grads[k].tobytes() == ref_grads[k].tobytes(), k


# -------------------------------------------------------------- rescaling

def task_with(phi_delta, grad, theta):
    phi = {k: Tensor(theta[k].data + phi_delta[k]) for k in theta}
    return (phi, {k: np.asarray(grad[k], dtype=np.float64) for k in theta})


def test_identical_tasks_give_uniform_weights_and_plain_step():
    rng = np.random.default_rng(0)
    theta = {"w": Tensor(rng.standard_normal(5))}
    g = {"w": rng.standard_normal(5)}
    d = {"w": rng.standard_normal(5)}
    tasks = [task_with(d, g, theta)] * 3
    new, scores, weights = rescale_and_update(theta, task_layers(theta, tasks), CFG)
    assert weights["w"] == pytest.approx([1 / 3] * 3, abs=1e-12)
    assert np.allclose(new["w"].data, theta["w"].data - CFG.outer_lr * g["w"])


def test_opposed_task_downweighted_by_softmax():
    theta = {"w": Tensor(np.zeros(4))}
    g = {"w": np.array([1.0, 2.0, -1.0, 0.5])}
    aligned = task_with({"w": g["w"]}, g, theta)       # cos = +1
    opposed = task_with({"w": -g["w"]}, g, theta)      # cos = -1
    _, scores, weights = rescale_and_update(
        theta, task_layers(theta, [aligned, opposed]), CFG)
    assert scores["w"] == pytest.approx([1.0, -1.0], abs=1e-12)
    e2 = np.exp(2.0)
    assert weights["w"] == pytest.approx([e2 / (e2 + 1), 1 / (e2 + 1)])
    assert weights["w"] == pytest.approx([0.8808, 0.1192], abs=5e-5)


def test_weights_positive_and_normalized():
    rng = np.random.default_rng(9)
    theta = {"a": Tensor(rng.standard_normal(3)),
             "b": Tensor(rng.standard_normal((2, 2)))}
    tasks = [task_with({k: rng.standard_normal(v.data.shape) for k, v in theta.items()},
                       {k: rng.standard_normal(v.data.shape) for k, v in theta.items()},
                       theta)
             for _ in range(4)]
    _, _, weights = rescale_and_update(theta, task_layers(theta, tasks), CFG)
    for w in weights.values():
        assert all(x > 0 for x in w)
        assert abs(sum(w) - 1.0) <= 1e-12


def test_temperature_limits():
    rng = np.random.default_rng(2)
    theta = {"w": Tensor(rng.standard_normal(6))}
    tasks = [task_with({"w": rng.standard_normal(6)},
                       {"w": rng.standard_normal(6)}, theta)
             for _ in range(3)]
    _, scores, _ = rescale_and_update(theta, task_layers(theta, tasks), CFG)
    assert len(set(np.round(scores["w"], 6))) == 3  # distinct scores
    _, _, sharp = rescale_and_update(
        theta, task_layers(theta, tasks), dataclasses.replace(CFG, temperature=1e-3))
    assert max(sharp["w"]) >= 0.99
    _, _, flat = rescale_and_update(
        theta, task_layers(theta, tasks), dataclasses.replace(CFG, temperature=1e3))
    assert all(abs(x - 1 / 3) <= 1e-3 for x in flat["w"])


def test_zero_outer_lr_keeps_theta_bit_identical():
    rng = np.random.default_rng(5)
    theta = {"w": Tensor(rng.standard_normal(4))}
    tasks = [task_with({"w": rng.standard_normal(4)},
                       {"w": rng.standard_normal(4)}, theta)]
    cfg = dataclasses.replace(CFG, outer_lr=0.0)
    new, _, _ = rescale_and_update(theta, task_layers(theta, tasks), cfg)
    assert new["w"].data.tobytes() == theta["w"].data.tobytes()


def test_none_entry_scores_zero_and_adds_nothing():
    # a task that left a layer as it was: score 0, weight from that score, and
    # no term in the update; the same bytes as a zero gradient and displacement
    rng = np.random.default_rng(6)
    theta = {"w": Tensor(rng.standard_normal(5))}
    g, d = rng.standard_normal(5), rng.standard_normal(5)
    new, scores, weights = rescale_and_update(theta, {"w": [None, (g, d)]}, CFG)
    cos = float(g @ d) / (np.linalg.norm(g) * np.linalg.norm(d))
    assert scores["w"] == [0.0, cos]
    want = np.exp([0.0, cos]) / np.exp([0.0, cos]).sum()
    assert weights["w"] == pytest.approx(want.tolist(), abs=1e-15)
    assert new["w"].data.tobytes() == (
        theta["w"].data - CFG.outer_lr * (weights["w"][1] * g)).tobytes()
    zero = (np.zeros(5), np.zeros(5))
    full, full_scores, full_weights = rescale_and_update(
        theta, {"w": [zero, (g, d)]}, CFG)
    assert new["w"].data.tobytes() == full["w"].data.tobytes()
    assert (scores, weights) == (full_scores, full_weights)


def test_untouched_layer_keeps_theta_bytes():
    rng = np.random.default_rng(8)
    theta = {"a": Tensor(rng.standard_normal(3)),
             "b": Tensor(rng.standard_normal((2, 2)))}
    entries = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(3)]
    new, scores, weights = rescale_and_update(
        theta, {"a": entries, "b": [None] * 3}, CFG)
    assert new["b"].data.tobytes() == theta["b"].data.tobytes()
    assert scores["b"] == [0.0] * 3 and weights["b"] == pytest.approx([1 / 3] * 3)
    assert new["a"].data.tobytes() != theta["a"].data.tobytes()


# ------------------------------------------------------- full iterations

def tiny_world(seed=0):
    enc = EncoderConfig(d_model=4, num_blocks=1, max_len=5)
    mc = ModelConfig(encoder=enc, vq=VQConfig(heads=2),
                     target_domain="target")
    sources = [
        dataset_from_lists("src0", 5, train=[[0, 1, 2], [3, 4, 0]],
                           val=[3, 1], test=[4, 2]),
        dataset_from_lists("src1", 4, train=[[2, 0, 1], [1, 3]],
                           val=[3, 0], test=[0, 2]),
    ]
    target = dataset_from_lists("target", 6, train=[[0, 1, 2, 3], [4, 5, 0]],
                                val=[4, 1], test=[5, 2])
    counts = {d.domain_id: d.item_count for d in sources + [target]}
    params = init_parameters(enc, counts, seed)
    return params, sources, target, mc


# records of one run_once(7) iteration and of one tiny_world joint step
PINNED_RECORDS = 200
PINNED_JOINT_RECORDS = 49


def run_once(seed, **over):
    params, sources, target, mc = tiny_world()
    cfg = dataclasses.replace(MetaConfig(inner_steps=2, inner_batch=4,
                                         meta_batch=4), **over)
    rng = np.random.default_rng(seed)
    new, report = train_iteration(params, sources, target, mc, cfg, rng)
    return params, new, report


def test_train_iteration_deterministic():
    _, a, ra = run_once(7)
    _, b, rb = run_once(7)
    assert sorted(a) == sorted(b)
    for k in a:
        assert a[k].data.tobytes() == b[k].data.tobytes()
    assert ra.layer_weights == rb.layer_weights
    assert ra.overall_loss == rb.overall_loss
    assert [t.source_domain for t in ra.tasks] == [t.source_domain for t in rb.tasks]


def test_train_iteration_reports_and_theta_untouched():
    params, new, report = run_once(3)
    before = checksum(params)
    assert len(report.tasks) == 3
    for w in report.layer_weights.values():
        assert abs(sum(w) - 1.0) <= 1e-12
    assert report.overall_loss == pytest.approx(
        np.mean([t.meta_loss for t in report.tasks]))
    assert checksum(params) == before
    assert any(new[k].data.tobytes() != params[k].data.tobytes() for k in params)


def counting_tapes(monkeypatch):
    """The tapes entered from now on, each listed once."""
    tapes = []

    class CountingTape(meta.Tape):
        def __enter__(self):
            if self not in tapes:  # meta_gradient re-enters inner_adapt's tape
                tapes.append(self)
            return super().__enter__()

    monkeypatch.setattr(meta, "Tape", CountingTape)
    return tapes


def test_iteration_record_counts_are_pinned(monkeypatch):
    # a timing-free perf guard: run time is about tape records x a few us, and
    # the count depends on the op structure alone, so a change that adds
    # records to an iteration fails here, with no host noise
    tapes = counting_tapes(monkeypatch)
    run_once(7)
    assert len(tapes) == 1  # one adaptation tape for the whole stack of tasks
    assert sum(len(t.records) for t in tapes) == PINNED_RECORDS
    tapes.clear()
    params, sources, target, mc = tiny_world()
    joint_train_iteration(params, sources, target, mc, MetaConfig(inner_batch=4),
                          np.random.default_rng(7))
    assert sum(len(t.records) for t in tapes) == PINNED_JOINT_RECORDS


def test_one_task_stack_keeps_the_task_axis(monkeypatch):
    # a stack of one task: its VQ term has the task axis like its cross
    # entropy, so no unbroadcast sum is recorded, the loss keeps its task axis
    # and every part is a list
    tapes = counting_tapes(monkeypatch)
    outs = []

    def loss(*args, **kwargs):
        value, part = batch_loss(*args, **kwargs)
        outs.append((value.data.shape, part))
        return value, part
    monkeypatch.setattr(meta, "batch_loss", loss)
    run_once(7, n_tasks=1)
    assert sum(len(t.records) for t in tapes) == PINNED_RECORDS
    # two inner steps on the source stack, then the meta loss on the target,
    # which has no VQ term
    assert [sorted(p) for _, p in outs] == [["ce", "vq"]] * 2 + [["ce"]]
    for shape, part in outs:
        assert shape == (1,)
        for entry in part.values():
            assert isinstance(entry, list) and len(entry) == 1


def test_released_tape_bounds_the_iteration_heap():
    # one 3-step iteration peaks near 4.4 MB of heap on a 256-item world and
    # near 6.9 MB on a 512-item one, since an array that no recorded vjp
    # reads is freed as soon as the code that made it drops it
    for items, bound in ((256, 6e6), (512, 7.5e6)):
        cfg = RunConfig(synthetic=SyntheticSpec(items_per_domain=items,
                                                users_per_domain=200))
        *sources, target = generate_synthetic(cfg.synthetic).datasets
        params = init_parameters(cfg.encoder, {d.domain_id: d.item_count
                                               for d in sources + [target]}, 0)
        mc = effective_model_config(cfg, target.domain_id)
        tracemalloc.start()
        try:
            train_iteration(params, sources, target, mc,
                            dataclasses.replace(cfg.meta, inner_steps=3),
                            np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, items


def test_no_record_holds_a_tensor(monkeypatch):
    # a record names its tensors by node, so the tape keeps no array alive;
    # an op that put a tensor on its record would hold it for the whole tape
    tapes = counting_tapes(monkeypatch)
    run_once(7)
    params, sources, target, mc = tiny_world()
    joint_train_iteration(params, sources, target, mc, MetaConfig(inner_batch=4),
                          np.random.default_rng(7))
    assert len(tapes) == 2
    for tape in tapes:
        for r in tape.records:
            assert not any(isinstance(x, Tensor) for x in [*r.inputs, r.out]), r.op


def test_train_iteration_uniform_when_rescale_off():
    params, sources, target, mc = tiny_world()
    cfg = MetaConfig(inner_steps=1, inner_batch=4, meta_batch=4)
    _, report = train_iteration(params, sources, target, mc, cfg,
                                np.random.default_rng(1), rescale=False)
    for w in report.layer_weights.values():
        assert w == [1 / 3] * 3


def test_train_iteration_requires_sources():
    params, _, target, mc = tiny_world()
    with pytest.raises(ValueError, match="source"):
        train_iteration(params, [], target, mc, MetaConfig(),
                        np.random.default_rng(0))


# ----------------------------------------------------------- joint baseline

def test_joint_single_domain_is_plain_sgd():
    params, _, target, mc = tiny_world()
    cfg = MetaConfig(inner_batch=4)
    new, report = joint_train_iteration(params, [], target, mc, cfg,
                                        np.random.default_rng(11))
    # independent recomputation: one recorded step on the same sampled batch
    batch = sample_batch(target, "train", cfg.inner_batch,
                         mc.encoder.max_len, np.random.default_rng(11))
    names = sorted(params)
    with ad.Tape():
        ref_loss = batch_loss(params, batch, mc, include_vq=True)[0]
        grads = ad.grad(ref_loss, [params[k] for k in names])
    assert report.overall_loss == pytest.approx(float(ref_loss.data), abs=1e-12)
    for k, g in zip(names, grads):
        if g is None:  # a source table the target batch cannot reach
            assert new[k].data.tobytes() == params[k].data.tobytes()
            continue
        assert np.allclose(new[k].data,
                           params[k].data - cfg.outer_lr * g.data, atol=1e-15)


def test_joint_gradient_is_mean_over_domains():
    params, sources, target, mc = tiny_world()
    cfg = MetaConfig(inner_batch=4)
    new, _ = joint_train_iteration(params, sources, target, mc, cfg,
                                   np.random.default_rng(2))
    rng = np.random.default_rng(2)
    batches = [sample_batch(d, "train", cfg.inner_batch, mc.encoder.max_len, rng)
               for d in sources + [target]]
    names = sorted(params)
    accum = {k: np.zeros_like(params[k].data) for k in names}
    for b in batches:
        with ad.Tape():
            loss = batch_loss(params, b, mc, include_vq=True)[0]
            grads = ad.grad(loss, [params[k] for k in names])
        for k, g in zip(names, grads):
            if g is not None:
                accum[k] += g.data / len(batches)
    for k in names:
        assert np.allclose(new[k].data,
                           params[k].data - cfg.outer_lr * accum[k], atol=1e-12)


def test_joint_training_loss_decreases():
    params, sources, target, mc = tiny_world(seed=4)
    cfg = MetaConfig(inner_batch=8, outer_lr=0.2)
    rng = np.random.default_rng(0)
    losses = []
    for _ in range(50):
        params, report = joint_train_iteration(params, sources, target, mc,
                                               cfg, rng)
        losses.append(report.overall_loss)
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def synthetic_world(heads=4, variant="full", **spec):
    """A generated world and its model config: (params, sources, target, mc)."""
    cfg = RunConfig(synthetic=SyntheticSpec(**{"users_per_domain": 100, **spec}),
                    variant=variant, vq=VQConfig(heads=heads))
    *sources, target = generate_synthetic(cfg.synthetic).datasets
    params = init_parameters(cfg.encoder, {d.domain_id: d.item_count
                                           for d in sources + [target]}, 0)
    return params, sources, target, effective_model_config(cfg, target.domain_id)


def tiny_sources(m):
    """tiny_world with its first m sources; theta keeps every table."""
    params, sources, target, mc = tiny_world()
    return params, sources[:m], target, mc


JOINT_WORLDS = {
    "tiny": lambda: tiny_sources(2),
    "tiny_one_source": lambda: tiny_sources(1),
    "tiny_no_source": lambda: tiny_sources(0),
    "64_items": lambda: synthetic_world(),
    "64_items_one_head": lambda: synthetic_world(heads=1),
    "64_items_no_vq": lambda: synthetic_world(variant="no_vq"),
    "300_items_two_sources": lambda: synthetic_world(items_per_domain=300,
                                                     num_source_domains=2),
    # sources of 64, 61 and 63 items: ragged across the 8-wide blocks that
    # numpy's sums add in
    "ragged_64_items": lambda: synthetic_world(users_per_domain=20),
}


@pytest.mark.parametrize("world", sorted(JOINT_WORLDS))
def test_joint_stack_equals_per_domain_step(world):
    # the stacked joint step against one loss per domain on theta: the same
    # parameter bytes and pooled loss at every step
    params, sources, target, mc = JOINT_WORLDS[world]()
    cfg = MetaConfig(inner_batch=8)
    for seed in range(3):
        new = ref = params
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for step in range(30):
            new, report = joint_train_iteration(new, sources, target, mc, cfg, rng)
            ref, ref_report = per_domain_joint_iteration(ref, sources, target, mc, cfg,
                                                         ref_rng)
            assert sorted(new) == sorted(ref)
            for k in ref:
                assert new[k].data.tobytes() == ref[k].data.tobytes(), (seed, step, k)
            assert report.overall_loss == ref_report.overall_loss, (seed, step)


def test_joint_records_do_not_grow_with_sources(monkeypatch):
    # the source batches share one stacked forward, so a step records the same
    # count for 1, 2, 3 and 5 sources
    tapes = counting_tapes(monkeypatch)
    counts = []
    for m in (1, 2, 3, 5):
        params, sources, target, mc = synthetic_world(num_source_domains=m)
        tapes.clear()
        joint_train_iteration(params, sources, target, mc, MetaConfig(),
                              np.random.default_rng(0))
        counts.append(sum(len(t.records) for t in tapes))
    assert counts == [48] * 4


# ----------------------------------------------------------- config checks

def test_meta_config_validation():
    with pytest.raises(ValueError, match="temperature"):
        MetaConfig(temperature=0.0)
    with pytest.raises(ValueError, match="inner_lr"):
        MetaConfig(inner_lr=-0.1)
    MetaConfig(inner_lr=0.0, outer_lr=0.0)  # zero rates are legal limits


# ------------------------------------------------ the stack vs the task loop

VARIANT_CONFIGS = {
    "full": {},
    "no_multihead_vq": {"vq": VQConfig(heads=1)},
    "no_vq": {"vq": None},
    "no_rescale": {},
}


def variant_world(variant):
    params, sources, target, mc = tiny_world()
    return params, sources, target, dataclasses.replace(mc, **VARIANT_CONFIGS[variant])


@pytest.mark.parametrize("second_order", [True, False])
@pytest.mark.parametrize("variant", sorted(VARIANT_CONFIGS))
def test_stacked_iteration_equals_per_task_loop(variant, second_order):
    # tiny_world's sources hold 5 and 4 items, and 3 tasks from 2 sources
    # pick some source twice: ragged and repeated tables on one stack
    params, sources, target, mc = variant_world(variant)
    rescale = variant != "no_rescale"
    for seed in range(5):
        for steps in (1, 2, 3):
            cfg = MetaConfig(inner_steps=steps, inner_batch=4, meta_batch=4,
                             second_order=second_order)
            new, report = train_iteration(params, sources, target, mc, cfg,
                                          np.random.default_rng(seed), rescale)
            ref, ref_report = per_task_train_iteration(
                params, sources, target, mc, cfg, np.random.default_rng(seed), rescale)
            assert sorted(new) == sorted(ref)
            for k in ref:
                assert new[k].data.tobytes() == ref[k].data.tobytes(), (seed, steps, k)
            assert report == ref_report, (seed, steps)


@pytest.mark.parametrize("steps", [3, 4])
def test_stacked_meta_gradient_matches_pipeline_fd(steps, monkeypatch):
    # each task's meta-gradient from the stack against central differences of
    # that task's own pipeline: adapt on its inner batches, then the meta loss
    params, sources, target, mc = variant_world("no_vq")
    cfg = MetaConfig(inner_steps=steps, inner_batch=4, meta_batch=4)
    captured = []
    real = meta.rescale_and_update

    def capture(theta, layers, *args, **kwargs):
        captured.append(layers)
        return real(theta, layers, *args, **kwargs)

    monkeypatch.setattr(meta, "rescale_and_update", capture)
    train_iteration(params, sources, target, mc, cfg, np.random.default_rng(steps))
    tasks = draw_tasks(sources, target, mc, cfg, np.random.default_rng(steps))
    names = sorted(params)
    value_cfg = dataclasses.replace(cfg, second_order=False)  # same phi, less tape
    (layers,) = captured
    for i, (src, inner, meta_b) in enumerate(tasks):
        step_fns = [lambda p, b=b: batch_loss(p, b, mc)[0] for b in inner]

        # the task's own source table and every shared layer; other tables
        # get no entry
        checked = [k for k in names if not k.startswith("embed.")
                   or k in (f"embed.{src.domain_id}", f"embed.{target.domain_id}")]

        def value(arrays):
            theta = dict(params)
            theta.update((k, Tensor(a)) for k, a in zip(checked, arrays))
            adapted = inner_adapt(theta, step_fns, value_cfg)
            with ad.Tape():
                return float(batch_loss(adapted.phi, meta_b, mc)[0].data)

        fds = fd_grad(value, [params[k].data for k in checked])
        for k, fd in zip(checked, fds):
            assert rel_err(layers[k][i][0], fd) <= 1e-5, (src.domain_id, k)
        for k in set(names) - set(checked):
            assert layers[k][i] is None, (src.domain_id, k)


@pytest.mark.parametrize("second_order", [True, False])
def test_ragged_stack_equals_per_task_loop(second_order):
    # sources of 64, 61 and 63 items: each task's -inf-padded logit rows are
    # summed over its own columns only, so the stack keeps the loop's bytes
    params, sources, target, mc = synthetic_world(users_per_domain=20)
    for seed in range(3):
        for steps in (1, 2):
            cfg = MetaConfig(inner_steps=steps, second_order=second_order)
            new, report = train_iteration(params, sources, target, mc, cfg,
                                          np.random.default_rng(seed))
            ref, ref_report = per_task_train_iteration(params, sources, target, mc, cfg,
                                                       np.random.default_rng(seed))
            for k in ref:
                assert new[k].data.tobytes() == ref[k].data.tobytes(), (seed, steps, k)
            assert report == ref_report, (seed, steps)


@pytest.mark.parametrize("steps", [8, 16])
def test_deep_meta_gradient_matches_directional_differences(steps, monkeypatch):
    # <meta-gradient, v> against the central difference of a task's meta loss
    # along v, for seeded random directions over every layer the task holds:
    # two pipelines per direction, whatever the parameter count. At this
    # inner_lr the first-order gradient fails the same check by far
    params, sources, target, mc = variant_world("no_vq")
    cfg = MetaConfig(inner_steps=steps, inner_batch=4, meta_batch=4, inner_lr=0.3)
    captured = []
    real = meta.rescale_and_update

    def capture(theta, layers, *args, **kwargs):
        captured.append(layers)
        return real(theta, layers, *args, **kwargs)

    monkeypatch.setattr(meta, "rescale_and_update", capture)
    for second_order in (True, False):
        train_iteration(params, sources, target, mc,
                        dataclasses.replace(cfg, second_order=second_order),
                        np.random.default_rng(steps))
    exact, first = captured
    value_cfg = dataclasses.replace(cfg, second_order=False)  # same phi, less tape
    rng = np.random.default_rng(steps)
    tasks = draw_tasks(sources, target, mc, cfg, np.random.default_rng(steps))
    for i, (src, inner, meta_b) in enumerate(tasks):
        step_fns = [lambda p, b=b: batch_loss(p, b, mc)[0] for b in inner]
        checked = [k for k in sorted(params) if not k.startswith("embed.")
                   or k in (f"embed.{src.domain_id}", f"embed.{target.domain_id}")]

        def value(direction, h):
            theta = dict(params)
            theta.update((k, Tensor(params[k].data + h * direction[k])) for k in checked)
            adapted = inner_adapt(theta, step_fns, value_cfg)
            with ad.Tape():
                return float(batch_loss(adapted.phi, meta_b, mc)[0].data)

        for _ in range(3):
            v = {k: rng.standard_normal(params[k].data.shape) for k in checked}
            fd = (value(v, 1e-6) - value(v, -1e-6)) / 2e-6
            for layers, ok in ((exact, True), (first, False)):
                along = sum(float(np.vdot(layers[k][i][0], v[k])) for k in checked)
                err = abs(along - fd) / max(1.0, abs(fd))
                assert (err <= 1e-6) if ok else (err > 1e-3), (src.domain_id, ok, err)
