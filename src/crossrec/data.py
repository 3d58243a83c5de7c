"""Interaction-log ingestion, k-core filtering, leave-one-out splitting, batch
sampling, and a synthetic multi-domain Markov-chain generator with a
controllable source-target similarity knob."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class DomainDataset:
    """One domain after the leave-one-out split. User u's sequence is
    ``items[offsets[u]:offsets[u + 1]]``: the test item last, the validation
    item second to last, the train prefix before them."""
    domain_id: str
    item_count: int
    items: np.ndarray    # int64 dense item ids, user-major
    offsets: np.ndarray  # int64, one entry per user plus one

    @property
    def num_users(self):
        return len(self.offsets) - 1

    @property
    def pad_id(self):
        return self.item_count

    @cached_property
    def eligible_users(self):
        """Users whose train prefix holds at least one (input, target) pair."""
        return np.flatnonzero(np.diff(self.offsets) >= 4)


@dataclass
class TaskBatch:
    """One batch, or n same-shaped batches on a leading task axis: task i's
    ids index the i-th of the tables that ``params[embed_key(domain_id)]``
    holds one after another, and it reads the i-th slice of every encoder
    weight."""
    domain_id: str
    inputs: np.ndarray   # ([n,] B, T) item-id windows, left-padded with pad_id
    targets: np.ndarray  # ([n,] B) next-item ids
    counts: tuple        # each table's item count, its padding row excluded


@dataclass(frozen=True)
class SyntheticSpec:
    num_source_domains: int = 3
    items_per_domain: int = 64
    users_per_domain: int = 2000
    seq_len_min: int = 8
    seq_len_max: int = 16
    rho: float = 0.9     # shared-structure strength in [0, 1]
    seed: int = 0

    def __post_init__(self):
        # a length-4 sequence leaves a train prefix of 2 items: one (input,
        # target) pair once val and test are held out
        for name, low in (("num_source_domains", 1), ("items_per_domain", 1),
                          ("users_per_domain", 1), ("seq_len_min", 4), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"synthetic.{name} must be >= {low}, "
                                 f"got {getattr(self, name)}")
        if self.seq_len_max < self.seq_len_min:
            raise ValueError(f"synthetic.seq_len_max must be >= synthetic.seq_len_min="
                             f"{self.seq_len_min}, got {self.seq_len_max}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"synthetic.rho must be in [0, 1], got {self.rho}")
        for name, span in (("items_per_domain", self.items_per_domain), (
                "seq_len_max - synthetic.seq_len_min + 1",
                self.seq_len_max - self.seq_len_min + 1)):  # _user_draws' 32-bit draws
            if span > 2**32 - 1:
                raise ValueError(f"synthetic.{name} must be <= {2**32 - 1}, got {span}")


@dataclass
class SyntheticResult:
    """Sampled datasets and sequences; ``events`` is built on first access."""
    datasets: list   # M sources then the target, in order
    sequences: dict  # domain id -> (user-major items, per-user lengths)

    @cached_property
    def events(self):
        """Domain id -> its (n, 3) int64 array of (user, item, position)
        rows, user-major."""
        events = {}
        for domain, (items, lengths) in self.sequences.items():
            firsts = np.repeat(np.cumsum(lengths) - lengths, lengths)
            events[domain] = np.stack([np.repeat(np.arange(len(lengths)), lengths),
                                       items, np.arange(len(items)) - firsts], 1)
        return events


LINES_PER_SLICE = 1 << 10  # lines parsed at once: bounds the field strings alive
USERS_PER_BLOCK = 1 << 10  # users drawn from one block of raw rng output


def open_text(path):
    """``open(path)`` for reading UTF-8 text: a byte that does not decode
    becomes a lone surrogate in the line that holds it (see ``check_utf8``)."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def check_utf8(path, lineno, text):
    """Raise ValueError naming ``path:lineno`` if ``text``, read through
    ``open_text``, holds a byte that is not UTF-8."""
    try:
        text.encode()
    except UnicodeEncodeError:
        raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None


def load_interactions(path):
    """Parse a TSV of "domain<TAB>user<TAB>item<TAB>timestamp" lines.

    Returns domain -> (n, 3) int64 array of (user, item, timestamp) rows, with
    tags mapped to dense ids per domain in first-appearance order and rows
    sorted by timestamp (stable: file order on ties). '#' comment lines and
    blank lines are skipped. The file is parsed column-wise in slices of
    ``LINES_PER_SLICE`` lines; an error names the first bad line.
    """
    tag_codes = {}, {}, {}  # domain, user and item tags -> codes over the file
    slices = []
    with open_text(path) as fh:
        start = 1
        while lines := list(itertools.islice(fh, LINES_PER_SLICE)):
            slices.append(_parse_slice(path, start, lines, tag_codes))
            start += len(lines)
    if not tag_codes[0]:
        return {}
    domains, users, items, stamps = map(np.concatenate, zip(*slices))
    events = {}
    for code, domain in enumerate(tag_codes[0]):
        rows = np.flatnonzero(domains == code)  # ids are dense in file order
        columns = _first_appearance(users[rows])[0], _first_appearance(items[rows])[0]
        events[domain] = np.stack([*columns, stamps[rows]], 1)[
            np.argsort(stamps[rows], kind="stable")]
    return events


def _parse_slice(path, start, lines, tag_codes):
    """The domain, user, item and timestamp columns of ``lines`` (line
    ``start`` first); a new tag takes the next code in ``tag_codes``."""
    rows = [line for line in lines if line[0] not in "#\n"]
    fields = "\t".join(rows).split("\t") if rows else []  # int() drops a stamp's "\n"
    try:
        "".join(lines).encode()  # a byte that is not UTF-8: UnicodeEncodeError
        if any(row.count("\t") != 3 for row in rows):
            raise ValueError  # found and named by the line-by-line scan below
        stamps = np.fromiter(map(int, fields[3::4]), np.int64, len(rows))
        columns = []
        for tags, codes in zip((fields[0::4], fields[1::4], fields[2::4]), tag_codes):
            if "" in (unique := dict.fromkeys(tags)):
                raise ValueError  # an empty tag: named by the scan below
            for tag in unique:
                codes.setdefault(tag, len(codes))
            columns.append(np.fromiter(map(codes.__getitem__, tags), np.int64, len(rows)))
    except (ValueError, OverflowError):
        for lineno, line in enumerate(lines, start=start):
            check_utf8(path, lineno, line)
            fields, where = line.rstrip("\n").split("\t"), f"{path}:{lineno}"
            if line[0] in "#\n":
                continue
            if len(fields) != 4:
                raise ValueError(f"{where}: expected 4 tab-separated fields, "
                                 f"got {len(fields)}") from None
            for name, tag in zip(("domain", "user", "item"), fields):
                if not tag:
                    raise ValueError(f"{where}: empty {name} field") from None
            try:
                ts = int(fields[3])
            except ValueError:
                raise ValueError(f"{where}: non-integer timestamp {fields[3]!r}") from None
            if not -2**63 <= ts < 2**63:
                raise ValueError(f"{where}: timestamp {ts} outside int64") from None
        raise
    return columns + [stamps]


def k_core_filter(events, k):
    """Iteratively drop users/items with < k interactions until a fixed point.

    ``events`` is any (n, 3) array-like of (user, item, timestamp) rows; the
    kept rows come back as an int64 array, in input order. Ids may be any
    int64 values, negative or sparse.
    """
    if k < 1:
        raise ValueError(f"k_core_filter: k must be >= 1, got {k}")
    kept = np.asarray(events, dtype=np.int64).reshape(-1, 3)
    while True:
        keep = np.ones(len(kept), dtype=bool)
        for ids in kept[:, 0], kept[:, 1]:
            _, inverse, counts = np.unique(ids, return_inverse=True, return_counts=True)
            keep &= counts[inverse] >= k
        if keep.all():
            return kept
        kept = kept[keep]


def leave_one_out_split(domain_id, events):
    """Build a DomainDataset: last item is test, second-to-last validation.

    ``events`` is any (n, 3) array-like of (user, item, timestamp) rows; a
    user's sequence is their rows' items in row order. Sequences shorter than
    3 are dropped. Item ids are remapped to a dense [0, |I|) space in
    first-appearance order over kept sequences.
    """
    events = np.asarray(events, dtype=np.int64).reshape(-1, 3)
    order = np.argsort(events[:, 0], kind="stable")
    _, lengths = np.unique(events[:, 0], return_counts=True)
    return _split_sequences(domain_id, events[order, 1], lengths)


def _first_appearance(values):
    """Dense ids of ``values`` in first-appearance order, and their count."""
    ids, inverse = np.unique(values, return_inverse=True)
    first = np.full(len(ids), len(values))  # each id's first position
    np.minimum.at(first, inverse, np.arange(len(values)))
    rank = np.argsort(np.argsort(first))  # id -> first-appearance rank
    return rank[inverse], len(ids)


def _split_sequences(domain_id, items, lengths):
    """``leave_one_out_split`` of user-major ``items`` in runs of ``lengths``."""
    keep = lengths >= 3
    items, lengths = items[np.repeat(keep, lengths)], lengths[keep]
    codes, count = _first_appearance(items)
    return DomainDataset(domain_id, count, codes, np.concatenate([[0], np.cumsum(lengths)]))


def sample_batch(dataset, split, batch_size, max_len, rng):
    """Uniform-with-replacement user sampling into a training (window, target)
    batch; windows cut at a random position inside the train prefix.

    ``split`` must be ``"train"``: val/test batches come from ``eval_batch``.
    """
    if split != "train":
        raise ValueError(f"sample_batch: unknown split {split!r}")
    if dataset.num_users == 0:
        raise ValueError(f"sample_batch: empty dataset {dataset.domain_id}")
    eligible = dataset.eligible_users
    if not len(eligible):
        raise ValueError(f"sample_batch: no train pairs in {dataset.domain_id}")
    starts = np.empty(batch_size, dtype=np.int64)
    ends = np.empty(batch_size, dtype=np.int64)
    for b in range(batch_size):
        u = eligible[int(rng.integers(len(eligible)))]
        start, stop = dataset.offsets[u:u + 2].tolist()
        starts[b], ends[b] = start, start + int(rng.integers(1, stop - 2 - start))
    return _windows(dataset, starts, ends, max_len)


def eval_batch(dataset, split, max_len):
    """All users of a split, user-id ascending, as one batch: the val target
    after the train prefix, the test target after the prefix and val item."""
    if split not in ("val", "test"):
        raise ValueError(f"eval_batch: unknown split {split!r}")
    if dataset.num_users == 0:
        raise ValueError(f"eval_batch: empty dataset {dataset.domain_id}")
    ends = dataset.offsets[1:] - (2 if split == "val" else 1)
    return _windows(dataset, dataset.offsets[:-1], ends, max_len)


def _windows(dataset, starts, ends, max_len):
    """Row b: the last ``max_len`` of ``items[starts[b]:ends[b]]``, left-padded
    with pad_id, and target ``items[ends[b]]``."""
    pos = ends[:, None] + np.arange(-max_len, 0)
    inputs = np.where(pos >= starts[:, None], dataset.items[np.maximum(pos, 0)],
                      dataset.pad_id)
    return TaskBatch(dataset.domain_id, inputs, dataset.items[ends], (dataset.item_count,))


def _random_transition(rng, rows, n):
    """``rows`` rows of a random n-state transition matrix: ``rows * n``
    uniforms on [0.05, 1), row-major, each row divided by its sum."""
    m = rng.uniform(0.05, 1.0, (rows, n))
    m /= m.sum(axis=1, keepdims=True)
    return m


def domain_chain(rng, base, n, rho):
    """One domain's (permutation, cumulative transition rows), in one n x n
    buffer. ``base`` is a generator at the base chain's first uniform; the
    base rows are drawn from it again in blocks of rows, each relabeled into
    the rows and columns of ``perm``, and ``base`` is left where it was."""
    perm = rng.permutation(n)
    inv, start = np.argsort(perm), base.bit_generator.state  # base row b is row inv[b]
    cum = _random_transition(rng, n, n)
    cum *= 1.0 - rho
    for i in range(0, n, rows := max(1, 2**16 // n)):  # <= 512 KB
        block = _random_transition(base, min(rows, n - i), n)
        cum[inv[i:i + rows]] += block.take(perm, axis=1) * rho
    base.bit_generator.state = start
    cum /= cum.sum(axis=1, keepdims=True)
    np.cumsum(cum, axis=1, out=cum)
    return perm, cum


def _next_items(cum, items, draws):
    """``min(np.searchsorted(cum[i], r, side="right"), n - 1)`` for each pair
    (i, r), in step: one binary search over the first n - 1 entries per row."""
    pos, size, flat = items * cum.shape[1], cum.shape[1] - 1, cum.reshape(-1)
    while size:
        half = (size + 1) // 2
        pos += half * (flat[pos + (half - 1)] <= draws)
        size //= 2
    return pos - items * cum.shape[1]


def _user_draws(rng, users, seq_len_min, seq_len_max, n):
    """(lengths, firsts, draws) as ``for u in range(users): lengths[u] =
    rng.integers(seq_len_min, seq_len_max + 1); firsts[u] = rng.integers(n);
    draws[:lengths[u], u] = rng.random(lengths[u])`` gives them, ``rng`` left
    where that loop leaves it: read from blocks of raw PCG64 output, but drawn
    by the loop's own calls for a user after a rejected word or in a one-value
    span. ``integers`` over s < 2**32 values is Lemire's draw (arXiv:1805.10941): a
    32-bit word x gives ``x * s >> 32``, unless ``x * s % 2**32 < 2**32 % s``
    rejects it for the next word. A word is the low half of a new raw output,
    whose high half is kept as the next word; one value draws no word.
    ``random()`` is one raw output r, ``(r >> 11) * 2**-53``."""
    lengths, firsts = np.empty(users, np.int64), np.empty(users, np.int64)
    draws = np.zeros((seq_len_max, users))
    spans = seq_len_max - seq_len_min + 1, n
    bits, copy = rng.bit_generator, np.random.PCG64()
    for done in range(0, users, USERS_PER_BLOCK):
        count = min(USERS_PER_BLOCK, users - done)
        state = copy.state = bits.state
        kept, half, placed = state["has_uint32"], state["uinteger"], 0
        if min(spans) > 1:
            # each user reads new raw s, then its uniforms; its length and item are
            # s's low and high halves, or the kept half (raw 0's) and s's low half
            raws = np.append(np.uint64(half) << 32,
                             copy.random_raw(count * (seq_len_max + 1)))
            low, high = raws & 0xFFFFFFFF, raws >> 32
            length = (seq_len_min + ((high if kept else low) * spans[0] >> 32)).tolist()
            s, j, starts = 1, 0, []
            for _ in range(count):
                starts.append(s)
                s, j = s + 1 + length[j if kept else s], s
            starts = np.array(starts)
            words = (high[np.append(0, starts[:-1])], low[starts]) if kept \
                else (low[starts], high[starts])
            ok = np.logical_and(*(w * m % 2**32 >= 2**32 % m for w, m in zip(words, spans)))
            placed = int(np.append(ok, False).argmin())  # users before a rejected word
            bits.advance(int(np.append(starts, s)[placed]) - 1)  # the raws they read
            half = int(high[np.append(0, starts)[placed]])  # the last one's high half
            block, starts = slice(done, done + placed), starts[:placed]
            bits.state = {**bits.state, "has_uint32": kept, "uinteger": half}
            lengths[block] = seq_len_min + (words[0][:placed] * spans[0] >> 32)
            firsts[block] = words[1][:placed] * n >> 32
            t = np.arange(seq_len_max)[:, None]
            draws[:, block] = np.where(t < lengths[block],
                                       (raws[starts + 1 + t] >> 11) * 2.0**-53, 0.0)
        for u in range(done + placed, done + count):  # numpy's own draws
            lengths[u] = rng.integers(seq_len_min, seq_len_max + 1)
            firsts[u] = rng.integers(n)
            draws[:lengths[u], u] = rng.random(lengths[u])
    return lengths, firsts, draws


def generate_synthetic(spec):
    """M source domains plus one target, sampled from blended Markov chains.

    Each domain's transition matrix is rho * (permuted base) + (1 - rho) *
    (fresh random matrix), row-normalized; the target gets an order of
    magnitude fewer users than each source. Item-id spaces are domain-local by
    construction. Draws come in a fixed order, whatever ``rho``: the n x n base
    uniforms, skipped, then drawn again per domain in row blocks by a second
    generator; per domain the permutation, then its n x n fresh uniforms; per
    user the length, the first item, then one uniform per step (last unused),
    from raw rng blocks (``_user_draws``). ``events`` is built when first read.
    """
    rng, base = np.random.default_rng(spec.seed), np.random.default_rng(spec.seed)
    n = spec.items_per_domain
    rng.bit_generator.advance(n * n)  # past the base uniforms, one raw output each
    domains = [f"src{i}" for i in range(spec.num_source_domains)] + ["target"]
    result = SyntheticResult(datasets=[], sequences={})
    for domain in domains:
        _, cum = domain_chain(rng, base, n, spec.rho)
        users = spec.users_per_domain if domain != "target" \
            else max(1, spec.users_per_domain // 10)
        items = np.empty((spec.seq_len_max, users), dtype=np.int64)
        lengths, items[0], draws = _user_draws(rng, users, spec.seq_len_min,
                                               spec.seq_len_max, n)
        for t in range(1, spec.seq_len_max):
            items[t] = _next_items(cum, items[t - 1], draws[t - 1])
        del cum, draws
        items = items.T[np.arange(spec.seq_len_max) < lengths[:, None]]
        result.sequences[domain] = items, lengths
        result.datasets.append(_split_sequences(domain, items, lengths))
    return result


def write_domain_tsv(path, domain, events):
    """Serialize one domain's events, any (n, 3) array-like of (user, item,
    timestamp) rows, to the shared TSV input format, ``LINES_PER_SLICE``
    lines at a time."""
    events = np.asarray(events, dtype=np.int64).reshape(-1, 3)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# domain {domain}\n")
        for start in range(0, len(events), LINES_PER_SLICE):
            fh.writelines(f"{domain}\tu{u}\ti{i}\t{ts}\n" for u, i, ts in
                          events[start:start + LINES_PER_SLICE].tolist())
