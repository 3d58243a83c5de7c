"""Independent numerical oracles shared across the test suite."""
from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np

from crossrec import autodiff as ad
from crossrec.backbone import _rms_norm
from crossrec.data import (DomainDataset, _random_transition, domain_chain,
                           sample_batch)
from crossrec.meta import (MetaIterationReport, TaskReport, inner_adapt,
                           meta_gradient, rescale_and_update)
from crossrec.objective import batch_loss
from crossrec.vq import _head_codes


def fd_grad(f, arrays, step=1e-6):
    """Central finite differences of a scalar function of numpy arrays.

    ``f`` takes a list of arrays and returns a float; returns one gradient
    array per input. Stays independent of the autodiff path it checks.
    """
    grads = []
    for k, x in enumerate(arrays):
        g = np.zeros_like(x, dtype=np.float64)
        it = np.nditer(x, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[k][i] += step
            minus[k][i] -= step
            g[i] = (f(plus) - f(minus)) / (2.0 * step)
        grads.append(g)
    return grads


def rel_err(a, b, floor=1e-8):
    """Norm-wise relative error, robust to near-zero reference entries."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not a.size:
        return 0.0
    return float(np.max(np.abs(a - b)) / max(floor, np.max(np.abs(b))))


def brute_force_rank(scores, truth):
    """Rank via a full sort under (score desc, id asc) total order."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order.index(truth) + 1


def per_line_interactions(path):
    """Reference ``data.load_interactions``: one line at a time, each event a
    (user, item, timestamp) tuple, tags coded per domain through
    ``setdefault``; the lists are sorted by timestamp, file order on ties."""
    per_domain = {}
    user_ids = {}
    item_ids = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields, "
                                 f"got {len(fields)}")
            domain, user, item, ts = fields
            try:
                ts = int(ts)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer timestamp {ts!r}") from None
            if not -2**63 <= ts < 2**63:
                raise ValueError(f"{path}:{lineno}: timestamp {ts} outside int64")
            users = user_ids.setdefault(domain, {})
            items = item_ids.setdefault(domain, {})
            uid = users.setdefault(user, len(users))
            iid = items.setdefault(item, len(items))
            per_domain.setdefault(domain, []).append((uid, iid, ts))
    for events in per_domain.values():
        events.sort(key=lambda e: e[2])
    return per_domain


def peel_k_core(events, k):
    """Reference k-core by repeated single-element peeling."""
    kept = list(events)
    changed = True
    while changed:
        changed = False
        users = {}
        items = {}
        for u, i, _ in kept:
            users[u] = users.get(u, 0) + 1
            items[i] = items.get(i, 0) + 1
        for idx, (u, i, _) in enumerate(kept):
            if users[u] < k or items[i] < k:
                del kept[idx]
                changed = True
                break
    return kept


def per_event_split(domain_id, events):
    """Reference ``data.leave_one_out_split``: events grouped by user in a
    dict, each item remapped through ``setdefault`` one at a time."""
    by_user = {}
    for u, i, ts in events:
        by_user.setdefault(u, []).append(i)
    item_map = {}
    train, val, test = [], [], []
    for u in sorted(by_user):
        seq = by_user[u]
        if len(seq) < 3:
            continue
        dense = [item_map.setdefault(i, len(item_map)) for i in seq]
        train.append(dense[:-2])
        val.append(dense[-2])
        test.append(dense[-1])
    return dataset_from_lists(domain_id, len(item_map), train, val, test)


def dataset_from_lists(domain_id, item_count, train, val, test):
    """A DomainDataset from per-user lists: train prefixes, val and test items."""
    seqs = [list(t) + [v, s] for t, v, s in zip(train, val, test, strict=True)]
    return DomainDataset(domain_id, item_count,
                         np.array([i for seq in seqs for i in seq], dtype=np.int64),
                         np.cumsum([0] + [len(seq) for seq in seqs], dtype=np.int64))


def list_sample_batch(train, pad_id, batch_size, max_len, rng):
    """Reference ``data.sample_batch`` over per-user train lists: one
    window sliced from a list and copied into a pad-filled row per draw.
    Returns (inputs, targets)."""
    eligible = [u for u in range(len(train)) if len(train[u]) >= 2]
    inputs = np.full((batch_size, max_len), pad_id, dtype=np.int64)
    targets = np.empty(batch_size, dtype=np.int64)
    for b in range(batch_size):
        seq = train[eligible[int(rng.integers(len(eligible)))]]
        cut = int(rng.integers(1, len(seq)))
        window = seq[max(0, cut - max_len):cut]
        inputs[b, max_len - len(window):] = window
        targets[b] = seq[cut]
    return inputs, targets


def list_eval_batch(train, val, test, pad_id, split, max_len):
    """Reference ``data.eval_batch`` over per-user lists: one slice
    assignment per user. Returns (inputs, targets)."""
    inputs = np.full((len(train), max_len), pad_id, dtype=np.int64)
    for u, seq in enumerate(train):
        window = (seq if split == "val" else seq + [val[u]])[-max_len:]
        inputs[u, max_len - len(window):] = window
    return inputs, np.array(val if split == "val" else test, dtype=np.int64)


def nearest_codes_exhaustive(z, book_rows, heads):
    """Per-head nearest code by looping over every (head, code) pair."""
    width = z.shape[0] // heads
    codes = []
    for h in range(heads):
        zs = z[h * width:(h + 1) * width]
        best, best_sim = 0, -np.inf
        for j, row in enumerate(book_rows):
            cs = row[h * width:(h + 1) * width]
            na = max(np.linalg.norm(zs), 1e-12)
            nb = max(np.linalg.norm(cs), 1e-12)
            sim = float(zs @ cs) / (na * nb)
            if sim > best_sim:
                best, best_sim = j, sim
        codes.append(best)
    return codes


def relabeled_chain(rng, base, rho):
    """Reference ``data.domain_chain``: the whole relabeled base chain as one
    array, ``base[np.ix_(perm, perm)]``, blended into the fresh matrix."""
    perm = rng.permutation(len(base))
    relabeled = base[np.ix_(perm, perm)]
    cum = _random_transition(rng, len(base))
    cum *= 1.0 - rho
    relabeled *= rho
    cum += relabeled
    cum /= cum.sum(axis=1, keepdims=True)
    np.cumsum(cum, axis=1, out=cum)
    return perm, cum


def scalar_user_draws(rng, users, seq_len_min, seq_len_max, n):
    """Reference ``data._user_draws``: three rng calls per user, the length,
    the first item, then one uniform per step."""
    lengths = np.empty(users, dtype=np.int64)
    firsts = np.empty(users, dtype=np.int64)
    draws = np.zeros((seq_len_max, users))
    for u in range(users):
        length = lengths[u] = rng.integers(seq_len_min, seq_len_max + 1)
        firsts[u] = rng.integers(n)
        draws[:length, u] = rng.random(length)
    return lengths, firsts, draws


def scalar_synthetic(spec):
    """Reference ``data.generate_synthetic``: one scalar draw and one
    ``np.searchsorted`` per event, the step clamped to the last item, and
    the events split by ``per_event_split``."""
    rng = np.random.default_rng(spec.seed)
    n = spec.items_per_domain
    base = _random_transition(rng, n)
    domains = [f"src{i}" for i in range(spec.num_source_domains)] + ["target"]
    result = SimpleNamespace(datasets=[], events={})
    for domain in domains:
        _, cum = domain_chain(rng, base, spec.rho)
        users = spec.users_per_domain if domain != "target" \
            else max(1, spec.users_per_domain // 10)
        events = []
        for u in range(users):
            length = int(rng.integers(spec.seq_len_min, spec.seq_len_max + 1))
            item = int(rng.integers(n))
            for t in range(length):
                events.append((u, item, t))
                item = min(int(np.searchsorted(cum[item], rng.random(), side="right")),
                           n - 1)
        result.events[domain] = events
        result.datasets.append(per_event_split(domain, events))
    return result


def full_sweep_grad(output, wrt, create_graph=False):
    """Reference without pruning: the reverse sweep visits every record."""
    tape = ad._active()
    records = list(tape.records)
    grads = {output.node: ad.Tensor(np.ones_like(output.data))}
    with nullcontext() if create_graph else ad.no_record():
        for rec in reversed(records):
            g = grads.get(rec.out)
            if g is None or rec.vjp is None:
                continue
            for n, gi in zip(rec.inputs, rec.vjp(g)):
                if gi is not None:
                    prev = grads.get(n)
                    grads[n] = gi if prev is None else ad.add(prev, gi)
    return [grads.get(w.node) for w in wrt]


def concat(parts, axis):
    """``parts`` joined along ``axis``, as a sum of zero-padded parts."""
    dim = sum(p.data.shape[axis] for p in parts)
    out, start = None, 0
    for p in parts:
        padded = ad.pad_axis(p, axis, start, dim)
        out = padded if out is None else ad.add(out, padded)
        start += p.data.shape[axis]
    return out


def reference_encode_last(params, cfg, table, inputs):
    """The encoder as a per-position loop: one gather and one recurrence step
    per position, the feed-forward and norm on every position of every block.
    Returns the (B, d) output at the last position."""
    x = [ad.gather(table, inputs[:, t]) for t in range(inputs.shape[1])]
    batch = x[0].data.shape[0]
    for b in range(cfg.num_blocks):
        gate = ad.sigmoid(params[f"block{b}.decay"])
        inv_gate = ad.add_scalar(ad.scale(gate, -1.0), 1.0)
        h = None
        hs = []
        for xt in x:
            drive = ad.mul(inv_gate, ad.matmul(xt, params[f"block{b}.w_in"], tb=True))
            h = drive if h is None else ad.add(ad.mul(gate, h), drive)
            hs.append(h)
        stacked_h = concat(hs, 0)
        stacked_x = concat(x, 0)
        ff = ad.matmul(ad.relu(ad.matmul(stacked_h, params[f"block{b}.ff_w1"], tb=True)),
                       params[f"block{b}.ff_w2"], tb=True)
        y = _rms_norm(ad.add(ff, stacked_x), params[f"block{b}.norm_gain"])
        x = [ad.slice_axis(y, 0, t * batch, (t + 1) * batch) for t in range(len(x))]
    return x[-1]


def first_order_meta_gradient(theta, step_loss_fns, meta_loss_fn, inner_lr):
    """Reference first-order meta-gradient as a separate path: each inner step
    on its own tape over fresh leaves, phi rebuilt in numpy, and the meta loss
    differentiated wrt phi. An unreached layer has a zero gradient. Returns
    (phi arrays, meta-gradient arrays)."""
    names = list(theta)
    phi = {k: ad.Tensor(v.data.copy()) for k, v in theta.items()}

    def arrays(grads):
        return [np.zeros_like(phi[k].data) if g is None else g.data
                for k, g in zip(names, grads)]

    for fn in step_loss_fns:
        with ad.Tape():
            grads = arrays(ad.grad(fn(phi), [phi[k] for k in names]))
        phi = {k: ad.Tensor(phi[k].data - inner_lr * g)
               for k, g in zip(names, grads)}
    with ad.Tape():
        grads = arrays(ad.grad(meta_loss_fn(phi), [phi[k] for k in names]))
    return {k: phi[k].data for k in names}, dict(zip(names, grads))


def per_head_quantize_rows(rows, book):
    """Reference VQ lookup as a loop over heads: per head, the column slice of
    the codebook table and a gather of that head's codes, then a concat."""
    codes = _head_codes(rows.data, book)
    h, d = book.heads, book.head_width
    parts = [ad.gather(ad.slice_axis(book.table, 1, i * d, (i + 1) * d), codes[:, i])
             for i in range(h)]
    return concat(parts, 1), codes


def draw_tasks(sources, target, model_cfg, cfg, rng):
    """The draws of one meta iteration in the order ``train_iteration`` makes
    them: the picks, then per task its inner batches and its meta batch.
    Returns (source, inner batches, meta batch) per task."""
    m = len(sources)
    picks = rng.choice(m, size=cfg.n_tasks, replace=m < cfg.n_tasks)
    tasks = []
    for idx in picks:
        src = sources[int(idx)]
        inner = [sample_batch(src, "train", cfg.inner_batch,
                              model_cfg.encoder.max_len, rng)
                 for _ in range(cfg.inner_steps)]
        meta_b = sample_batch(target, "train", cfg.meta_batch,
                              model_cfg.encoder.max_len, rng)
        tasks.append((src, inner, meta_b))
    return tasks


def task_layers(theta, task_results):
    """(phi, meta-gradients) per task as ``rescale_and_update``'s per-layer
    entries: every task holds every layer, with its meta-gradient and its
    displacement phi - theta."""
    return {k: [(grads[k], phi[k].data - theta[k].data) for phi, grads in task_results]
            for k in theta}


def per_task_train_iteration(theta, sources, target, model_cfg, cfg, rng,
                             rescale=True):
    """Reference meta iteration: each task adapted on its own tape from the
    untouched theta, with the single-batch loss, then the rescaled update
    with a full entry for every task and layer. Returns (new params,
    MetaIterationReport)."""
    report = MetaIterationReport()
    task_results = []
    for src, inner, meta_b in draw_tasks(sources, target, model_cfg, cfg, rng):
        step_fns = [(lambda p, b=b: batch_loss(p, b, model_cfg,
                                               include_vq=cfg.vq_in_inner)[0])
                    for b in inner]
        adapted = inner_adapt(theta, step_fns, cfg)
        grads, meta_loss = meta_gradient(
            theta, adapted, lambda p: batch_loss(p, meta_b, model_cfg)[0], cfg)
        report.tasks.append(TaskReport(src.domain_id, adapted.inner_losses, meta_loss))
        task_results.append((adapted.phi, grads))
    new_theta, scores, weights = rescale_and_update(
        theta, task_layers(theta, task_results), cfg, uniform=not rescale)
    report.layer_scores = scores
    report.layer_weights = weights
    report.overall_loss = float(np.mean([t.meta_loss for t in report.tasks]))
    return new_theta, report


def per_domain_joint_iteration(theta, sources, target, model_cfg, cfg, rng):
    """Reference ``meta.joint_train_iteration``: one ``batch_loss`` per
    domain on theta, sources then target, their mean differentiated on one
    tape, and a zero update for a layer no batch reaches. Returns (new
    params, MetaIterationReport with the pooled loss)."""
    domains = list(sources) + [target]
    batches = [sample_batch(d, "train", cfg.inner_batch,
                            model_cfg.encoder.max_len, rng)
               for d in domains]
    names = list(theta)
    with ad.Tape():
        losses = [batch_loss(theta, b, model_cfg, include_vq=True)[0]
                  for b in batches]
        total = losses[0]
        for extra in losses[1:]:
            total = ad.add(total, extra)
        total = ad.scale(total, 1.0 / len(losses))
        grads = ad.grad(total, [theta[k] for k in names])
    new_theta = {k: ad.Tensor(theta[k].data - cfg.outer_lr *
                              (np.zeros_like(theta[k].data) if g is None else g.data))
                 for k, g in zip(names, grads)}
    return new_theta, MetaIterationReport(overall_loss=float(total.data))
