import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossrec import data

from oracles import (dataset_from_lists, list_eval_batch, list_sample_batch, peel_k_core,
                     per_event_split, per_line_interactions, relabeled_chain,
                     scalar_synthetic, scalar_user_draws)


def write(tmp_path, text, name="log.tsv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- ingestion

def test_load_interleaved_timestamps_sorted_per_user(tmp_path):
    path = write(tmp_path, "d\ta\tx\t3\n"
                           "d\tb\ty\t1\n"
                           "d\ta\tz\t2\n")
    events = data.load_interactions(path)["d"]
    seq_a = [i for u, i, _ in events if u == 0]
    # user a saw z (t=2) before x (t=3)
    assert seq_a == [2, 0]
    assert [ts for _, _, ts in events] == [1, 2, 3]


def test_load_duplicates_kept_and_ids_dense(tmp_path):
    path = write(tmp_path, "d\ta\tx\t1\n"
                           "d\ta\tx\t1\n"
                           "d\tb\tx\t2\n")
    events = data.load_interactions(path)["d"]
    assert events.tolist() == [[0, 0, 1], [0, 0, 1], [1, 0, 2]]


def test_load_empty_file(tmp_path):
    assert data.load_interactions(write(tmp_path, "")) == {}
    assert data.load_interactions(write(tmp_path, "# only a comment\n\n")) == {}


def test_load_malformed_lines_report_position(tmp_path):
    with pytest.raises(ValueError, match=r":2:.*fields"):
        data.load_interactions(write(tmp_path, "d\ta\tx\t1\nd\ta\tx\n"))
    with pytest.raises(ValueError, match=r":1:.*timestamp"):
        data.load_interactions(write(tmp_path, "d\ta\tx\tnoon\n"))
    with pytest.raises(ValueError, match=r":2: timestamp 9223372036854775808 outside"):
        data.load_interactions(write(tmp_path, f"d\ta\tx\t1\nd\ta\tx\t{2**63}\n"))


def test_load_reports_first_bad_line_across_slices(tmp_path, monkeypatch):
    good = "d\ta\tx\t1\n"
    # one slice: the short line fails the slice's tab check, yet the bad
    # timestamp before it is the first bad line
    with pytest.raises(ValueError, match=r":2: non-integer timestamp 'noon'"):
        data.load_interactions(write(tmp_path, good + "d\ta\tx\tnoon\nd\ta\n"))
    # the bad timestamp ends one slice, the short line starts the next
    n = data.LINES_PER_SLICE
    text = good * (n - 1) + f"d\ta\tx\t{2**63}\n" + "d\ta\n" + good
    with pytest.raises(ValueError, match=rf":{n}: timestamp {2**63} outside int64"):
        data.load_interactions(write(tmp_path, text))
    monkeypatch.setattr(data, "LINES_PER_SLICE", 3)
    text = good * 3 + "# c\td\n\nd\ta\tx\t1\t2\n" + "d\ta\tx\t+\n"
    with pytest.raises(ValueError, match=r":6: expected 4 tab-separated fields, got 5"):
        data.load_interactions(write(tmp_path, text))


@pytest.mark.parametrize("lines_per_slice", [None, 3])
def test_load_names_malformed_line_before_undecodable_byte(tmp_path, monkeypatch,
                                                           lines_per_slice):
    # a byte that is not UTF-8 is found in the line that holds it, in file
    # order with the other faults: a short line 11 is named ahead of the byte
    # 0xff on line 412
    if lines_per_slice:
        monkeypatch.setattr(data, "LINES_PER_SLICE", lines_per_slice)
    lines = [b"d\ta\tx\t1\n"] * 420
    lines[10], lines[411] = b"d\ta\n", b"d\ta\tx\xff\t1\n"
    path = tmp_path / "log.tsv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match=r":11: expected 4 tab-separated fields, got 2"):
        data.load_interactions(str(path))
    lines[10] = lines[0]
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match=r":412: not UTF-8 text"):
        data.load_interactions(str(path))


def test_load_opens_the_file_once_and_names_a_bad_last_line(tmp_path, monkeypatch):
    # the byte 0xff on the last of 2501 lines is found in the one pass over
    # the file: no second read to count the lines ahead of it
    path = tmp_path / "log.tsv"
    path.write_bytes(b"d\ta\tx\t1\n" * 2500 + b"d\ta\tx\xff\t1\n")
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)
    monkeypatch.setattr(data, "open", counting_open, raising=False)
    with pytest.raises(ValueError, match=r":2501: not UTF-8 text"):
        data.load_interactions(str(path))
    assert opened == [str(path)]


def _stamp(n, form):
    return {"plain": str(n), "spaced": f" {n} ", "signed": f"+{n}" if n >= 0 else str(n),
            "underscored": f"{n}_0"}[form]


@st.composite
def tsv_files(draw):
    """TSV text with comments (some holding tabs), blank lines, \\n, \\r\\n and
    lone \\r line ends, interleaved domains sharing tags, tied and negative
    timestamps in several int() forms, and now and then a bad line."""
    tags = st.sampled_from(["u0", "u1", "x", "i0"])
    event = st.builds(lambda d, u, i, n, form: f"{d}\t{u}\t{i}\t{_stamp(n, form)}",
                      st.sampled_from(["a", "b"]), tags, tags,
                      st.integers(-2, 2) | st.sampled_from([2**63 - 1, -2**63]),
                      st.sampled_from(["plain", "spaced", "signed", "underscored"]))
    other = st.sampled_from(["", "#", "# comment\twith\ttabs", "#a\tb\tc\t1"])
    bad = st.sampled_from(["a\tu0\ti0", "a\tu0\ti0\t1\t2", "a\tu0\ti0\tnoon",
                           f"a\tu0\ti0\t{2**63}", "a\tu0\ti0\t", " "])
    end = st.sampled_from(["\n", "\r\n", "\r"])
    n = draw(st.integers(0, 60))  # sizes drawn evenly: long files bring many ties
    lines = draw(st.lists(st.tuples(event | event | other, end), min_size=n, max_size=n))
    for pos, line in draw(st.lists(st.tuples(st.integers(0, 60), st.tuples(bad, end)),
                                   max_size=1)):
        lines.insert(pos % (len(lines) + 1), line)
    if draw(st.booleans()):  # copies past one slice of the default size
        lines *= data.LINES_PER_SLICE // max(1, len(lines)) + 1
    text = "".join(line + end for line, end in lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


def _outcome(load, path, rows):
    try:
        return [(d, rows(events)) for d, events in load(path).items()]
    except ValueError as exc:
        return str(exc)


@settings(deadline=None, max_examples=150)
@given(tsv_files(), st.sampled_from([1, 2, 5, None]))
def test_load_matches_per_line_oracle(tmp_path_factory, text, lines_per_slice):
    path = tmp_path_factory.mktemp("tsv") / "log.tsv"
    path.write_bytes(text.encode())
    with mock.patch.object(data, "LINES_PER_SLICE",
                           lines_per_slice or data.LINES_PER_SLICE):
        got = _outcome(data.load_interactions, str(path), np.ndarray.tolist)
    assert got == _outcome(per_line_interactions, str(path),
                           lambda events: [list(e) for e in events])


def test_tsv_round_trip(tmp_path):
    events = [(0, 5, 1), (0, 3, 2), (1, 5, 3), (0, 3, 4)]
    path = tmp_path / "d.tsv"
    data.write_domain_tsv(path, "d", events)
    parsed = data.load_interactions(str(path))["d"]
    # ids are relabeled densely but per-user sequences survive the round trip
    ref = data.leave_one_out_split("d", events)
    got = data.leave_one_out_split("d", parsed)
    assert (got.items.tolist(), got.offsets.tolist()) == \
        (ref.items.tolist(), ref.offsets.tolist())


# ------------------------------------------------------------------ k-core

def test_k_core_chain_collapses():
    events = [(1, 1, 0), (2, 1, 1)]
    assert data.k_core_filter(events, 2).tolist() == []


def test_k_core_complete_bipartite_untouched():
    events = [(u, i, u * 3 + i) for u in range(3) for i in range(3)]
    assert data.k_core_filter(events, 3).tolist() == [list(e) for e in events]


def test_k_core_k1_identity_and_k0_rejected():
    events = [(0, 0, 0), (1, 1, 1)]
    assert data.k_core_filter(events, 1).tolist() == [list(e) for e in events]
    with pytest.raises(ValueError):
        data.k_core_filter(events, 0)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**31 - 1), st.integers(2, 4))
def test_k_core_matches_peel_oracle_and_is_idempotent(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    events = [(int(rng.integers(8)), int(rng.integers(8)), t) for t in range(n)]
    got = data.k_core_filter(events, k).tolist()
    assert sorted(got) == sorted(map(list, peel_k_core(events, k)))
    assert data.k_core_filter(got, k).tolist() == got


def test_k_core_result_set_invariant_to_event_order():
    rng = np.random.default_rng(3)
    events = [(int(rng.integers(6)), int(rng.integers(6)), t) for t in range(40)]
    shuffled = list(events)
    rng.shuffle(shuffled)
    a = data.k_core_filter(events, 2).tolist()
    b = data.k_core_filter(shuffled, 2).tolist()
    assert sorted(a) == sorted(b)


# ------------------------------------------------------------------ splits

def test_leave_one_out_examples():
    events = [(0, 10, 0), (0, 11, 1), (0, 12, 2), (0, 13, 3),
              (1, 10, 0), (1, 11, 1), (1, 12, 2),
              (2, 10, 0), (2, 11, 1)]
    ds = data.leave_one_out_split("d", events)
    # train [0, 1] and [0], val 2 and 1, test 3 and 2
    assert ds.items.tolist() == [0, 1, 2, 3, 0, 1, 2]
    assert ds.offsets.tolist() == [0, 4, 7]
    assert ds.num_users == 2  # user 2's two events are dropped
    assert ds.item_count == 4
    assert ds.pad_id == 4


def test_leave_one_out_partition_property():
    rng = np.random.default_rng(11)
    events = []
    for u in range(20):
        for t in range(int(rng.integers(1, 9))):
            events.append((u, int(rng.integers(12)), t))
    by_user = {}
    for u, i, _ in events:
        by_user.setdefault(u, []).append(i)
    ds = data.leave_one_out_split("d", events)
    kept = [seq for seq in by_user.values() if len(seq) >= 3]
    assert ds.num_users == len(kept)
    relabel = {}
    for u in range(ds.num_users):
        # the user's slice is their full kept sequence under one relabeling:
        # train prefix, then val, then test
        full = ds.items[ds.offsets[u]:ds.offsets[u + 1]].tolist()
        assert len(full) == len(kept[u])
        assert all(relabel.setdefault(i, d) == d for i, d in zip(kept[u], full))
    assert ds.eligible_users.tolist() == [u for u in range(ds.num_users)
                                          if len(kept[u]) >= 4]


@st.composite
def event_lists(draw):
    """Events over a few sparse user and item ids, in timestamp order with
    ties, so users interleave and some have only one or two events."""
    ids = st.integers(-2**62, 2**62)
    users = draw(st.lists(ids, min_size=1, max_size=8, unique=True))
    items = draw(st.lists(ids, min_size=1, max_size=12, unique=True))
    events = draw(st.lists(st.tuples(st.sampled_from(users), st.sampled_from(items),
                                     st.integers(0, 6)), max_size=60))
    return sorted(events, key=lambda e: e[2])


@settings(deadline=None, max_examples=200)
@given(event_lists())
def test_leave_one_out_matches_per_event_oracle(events):
    got, want = data.leave_one_out_split("d", events), per_event_split("d", events)
    assert (got.item_count, got.items.tolist(), got.offsets.tolist()) == \
        (want.item_count, want.items.tolist(), want.offsets.tolist())
    assert got.items.dtype == got.offsets.dtype == np.int64


# ----------------------------------------------------------------- batches

TOY_TRAIN, TOY_VAL, TOY_TEST = [[0, 1, 2, 3], [4, 5, 0]], [4, 1], [5, 2]


def toy_dataset():
    return dataset_from_lists("d", 6, TOY_TRAIN, TOY_VAL, TOY_TEST)


def test_sample_batch_train_pairs_are_contiguous():
    ds = toy_dataset()
    rng = np.random.default_rng(0)
    for _ in range(20):
        batch = data.sample_batch(ds, "train", 8, 5, rng)
        for row, tgt in zip(batch.inputs, batch.targets):
            window = [x for x in row.tolist() if x != ds.pad_id]
            # scan oracle: window + target occurs contiguously in some sequence
            probe = window + [int(tgt)]
            assert any(seq[j:j + len(probe)] == probe
                       for seq in TOY_TRAIN
                       for j in range(len(seq) - len(probe) + 1))


def test_eval_batch_left_padding_and_targets():
    ds = toy_dataset()
    val = data.eval_batch(ds, "val", 10)
    assert val.targets.tolist() == TOY_VAL
    for u, row in enumerate(val.inputs):
        seq = [x for x in row.tolist() if x != ds.pad_id]
        assert seq == TOY_TRAIN[u]
        assert np.all(row[:10 - len(seq)] == ds.pad_id)
    test = data.eval_batch(ds, "test", 10)
    assert test.targets.tolist() == TOY_TEST
    for u, row in enumerate(test.inputs):
        assert [x for x in row.tolist() if x != ds.pad_id] == \
            TOY_TRAIN[u] + [TOY_VAL[u]]


def test_sample_batch_seeded_reproducible_and_errors():
    ds = toy_dataset()
    a = data.sample_batch(ds, "train", 4, 6, np.random.default_rng(7))
    b = data.sample_batch(ds, "train", 4, 6, np.random.default_rng(7))
    assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.targets, b.targets)
    for split in ("val", "test", "future"):
        with pytest.raises(ValueError, match="split"):
            data.sample_batch(ds, split, 1, 6, np.random.default_rng(0))
    empty = dataset_from_lists("e", 0, [], [], [])
    with pytest.raises(ValueError, match="empty"):
        data.sample_batch(empty, "train", 1, 6, np.random.default_rng(0))


def test_eval_batch_covers_all_users_ascending():
    ds = toy_dataset()
    batch = data.eval_batch(ds, "val", 8)
    assert batch.inputs.shape == (2, 8)
    assert batch.targets.tolist() == TOY_VAL


def test_eval_batch_splits_window_lengths_and_bad_split():
    ds = toy_dataset()
    first = data.eval_batch(ds, "val", 10)
    # another split or window length is another batch
    assert data.eval_batch(ds, "test", 10).targets.tolist() == TOY_TEST
    assert data.eval_batch(ds, "val", 3).inputs.shape == (2, 3)
    assert first.inputs[0].tolist() == [6] * 6 + TOY_TRAIN[0]
    with pytest.raises(ValueError, match="split"):
        data.eval_batch(ds, "train", 10)


@st.composite
def ragged_worlds(draw):
    """(max_len, item count, train, val, test) per-user lists; sequence
    lengths run from 3, a one-item train prefix that is never drawn, to
    max_len + 4, a prefix longer than a window."""
    max_len = draw(st.integers(1, 16))
    count = draw(st.integers(1, 9))
    seqs = draw(st.lists(st.lists(st.integers(0, count - 1), min_size=3,
                                  max_size=max_len + 4), min_size=1, max_size=8))
    return max_len, count, [s[:-2] for s in seqs], [s[-2] for s in seqs], \
        [s[-1] for s in seqs]


def as_bytes(*arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@settings(deadline=None, max_examples=200)
@given(ragged_worlds(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_windows_match_list_reference(world, batch_size, seed):
    # windows cut from the flat items and offsets are the bytes of windows
    # sliced from per-user lists, and sample_batch draws in the same order
    max_len, count, train, val, test = world
    ds = dataset_from_lists("d", count, train, val, test)
    for split in ("val", "test"):
        batch = data.eval_batch(ds, split, max_len)
        assert as_bytes(batch.inputs, batch.targets) == as_bytes(
            *list_eval_batch(train, val, test, ds.pad_id, split, max_len))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if all(len(prefix) < 2 for prefix in train):
        with pytest.raises(ValueError, match="no train pairs"):
            data.sample_batch(ds, "train", batch_size, max_len, rng)
        return
    for _ in range(3):
        batch = data.sample_batch(ds, "train", batch_size, max_len, rng)
        assert as_bytes(batch.inputs, batch.targets) == as_bytes(
            *list_sample_batch(train, ds.pad_id, batch_size, max_len, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# --------------------------------------------------------------- synthetic

SMALL = data.SyntheticSpec(num_source_domains=2, items_per_domain=12,
                           users_per_domain=40, seq_len_min=4, seq_len_max=6,
                           rho=0.9, seed=5)


def chains(seed, n, rho, count):
    """``count`` domain chains over one base, as (permutation, transition
    matrix) pairs; the matrix is recovered from the cumulative one."""
    rng = np.random.default_rng(seed)
    base = data._random_transition(rng, n)
    out = []
    for _ in range(count):
        perm, cum = data.domain_chain(rng, base, rho)
        out.append((perm, np.diff(cum, axis=1, prepend=0.0)))
    return base, out


@pytest.mark.parametrize("n", [1, 7, 64])
@pytest.mark.parametrize("rho", [0.0, 0.9, 1.0])
def test_domain_chain_matches_whole_matrix_relabeling(n, rho):
    # relabeling a row at a time gives the bytes of the whole-matrix formula
    base = data._random_transition(np.random.default_rng(n), n)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(2):
        perm, cum = data.domain_chain(rng, base, rho)
        ref_perm, ref_cum = relabeled_chain(ref_rng, base, rho)
        assert np.array_equal(perm, ref_perm)
        assert cum.tobytes() == ref_cum.tobytes()


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**31 - 1), st.integers(1, 9))
def test_row_search_matches_clamped_searchsorted(seed, n):
    # rows drawn from a few levels repeat entries; probes hit entries exactly,
    # 0.0, values past the last entry, and values between entries
    rng = np.random.default_rng(seed)
    levels = np.array([0.0, 0.25, 0.5, 0.5 + 2**-40, 1.0 - 2**-52, 1.0])
    ends = rng.choice([1.0 - 2**-52, 1.0], (4, 1))
    cum = np.sort(np.hstack([rng.choice(levels, (4, n - 1)), ends]), axis=1)
    probes = np.concatenate([levels, [1.0 - 2**-53, 1.5], rng.random(8)])
    items = np.repeat(np.arange(4), len(probes))
    draws = np.tile(probes, 4)
    want = [min(np.searchsorted(cum[i], r, side="right"), n - 1)
            for i, r in zip(items, draws)]
    assert data._next_items(cum, items, draws).tolist() == want


def test_row_search_clamps_a_row_ending_below_one():
    # a draw at or past a row's last entry stays on the last item instead of
    # indexing past the end of the chain
    rng = np.random.default_rng(0)
    _, cum = data.domain_chain(rng, data._random_transition(rng, 64), 0.9)
    rows = np.flatnonzero(cum[:, -1] < 1.0)
    assert rows.size
    draws = np.full(rows.size, 1.0 - 2**-53)
    assert np.searchsorted(cum[rows[0]], draws[0], side="right") == 64
    assert data._next_items(cum, rows, draws).tolist() == [63] * rows.size


BLOCK = data.USERS_PER_BLOCK
# (users, seq_len_min, seq_len_max, items): 0, 1 and a block +- 1 users; a span
# of 1 for the lengths, the items or both; 2**31 + 1 items, which reject about
# half their words, also with lengths of 15 or 16, where a block reads more raw
# output than its users * (seq_len_max + 1) estimate; 2**32 - 5 items
USER_DRAWS = [(0, 8, 16, 64), (1, 8, 16, 64), (BLOCK - 1, 8, 16, 1024),
              (BLOCK, 4, 6, 7), (BLOCK + 1, 8, 16, 1000), (2 * BLOCK + 3, 8, 16, 3),
              (300, 4, 4, 64), (300, 8, 16, 1), (300, 5, 5, 1),
              (300, 8, 16, 2**31 + 1), (BLOCK, 15, 16, 2**31 + 1), (300, 4, 9, 2**32 - 5)]
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def rng_at(start, seed):
    """A generator whose next draw meets ``start``: no kept half ("fresh"), a
    kept half ("kept"), a kept half of 0, or a next raw output whose low half
    is 0; a zero word is rejected by every span that is not a power of two."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    if start == "kept":
        rng.integers(7)
    elif start == "zero kept":
        rng.bit_generator.state = {**state, "has_uint32": 1, "uinteger": 0}
    elif start == "zero low":
        # invert one PCG64 step: the state after it outputs rotr64(high ^ low,
        # high >> 58) from its 64-bit halves
        high, word = 0x9E3779B97F4A7C15 ^ seed, 0xDEADBEEF << 32
        rot = high >> 58
        low = high ^ ((word << rot | word >> (64 - rot)) & (2**64 - 1))
        inc = state["state"]["inc"]
        before = ((high << 64 | low) - inc) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
        rng.bit_generator.state = {**state, "state": {"state": before, "inc": inc}}
    return rng


@pytest.mark.parametrize("start", ["fresh", "kept", "zero kept", "zero low"])
@pytest.mark.parametrize("users,seq_len_min,seq_len_max,n", USER_DRAWS)
def test_user_draws_match_scalar_loop(start, users, seq_len_min, seq_len_max, n):
    # the raw-block reader gives the scalar loop's draws and leaves the
    # generator where the loop leaves it, kept half and all
    rng, ref = rng_at(start, users), rng_at(start, users)
    got = data._user_draws(rng, users, seq_len_min, seq_len_max, n)
    want = scalar_user_draws(ref, users, seq_len_min, seq_len_max, n)
    for a, b in zip(got, want, strict=True):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert rng.bit_generator.state == ref.bit_generator.state
    assert (rng.random(), rng.integers(1000)) == (ref.random(), ref.integers(1000))


def test_rng_at_reaches_each_start():
    assert rng_at("fresh", 3).bit_generator.state["has_uint32"] == 0
    assert rng_at("kept", 3).bit_generator.state["has_uint32"] == 1
    assert rng_at("zero low", 3).bit_generator.random_raw() == 0xDEADBEEF << 32


def test_user_draws_memory_is_bounded_by_the_block():
    # beyond its outputs the reader holds one block of raw output at a time:
    # one block of all 50,000 users would hold about 40 MB
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        out = data._user_draws(rng, 50_000, 8, 16, 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - sum(a.nbytes for a in out) < 2 * 2**20, peak


SPECS = [dict(items_per_domain=1, users_per_domain=10),
         dict(items_per_domain=7, users_per_domain=50, rho=0.0),
         dict(items_per_domain=64, users_per_domain=300, rho=1.0),
         dict(items_per_domain=64, users_per_domain=200, seq_len_min=4,
              seq_len_max=4, seed=3),
         dict(items_per_domain=512, users_per_domain=500, num_source_domains=1,
              seed=1)]


@pytest.mark.parametrize("spec", SPECS)
def test_generator_matches_scalar_oracle(spec):
    # the array sampler gives the bytes of one scalar draw per event
    spec = data.SyntheticSpec(**spec)
    got, want = data.generate_synthetic(spec), scalar_synthetic(spec)
    assert {d: ev.tolist() for d, ev in got.events.items()} == \
        {d: [list(e) for e in ev] for d, ev in want.events.items()}
    for a, b in zip(got.datasets, want.datasets, strict=True):
        assert (a.domain_id, a.item_count, a.items.tolist(), a.offsets.tolist()) == \
            (b.domain_id, b.item_count, b.items.tolist(), b.offsets.tolist())


def test_generator_specs_reach_both_parities(monkeypatch):
    # the specs above start user draws with and without a kept half
    parities, draw = [], data._user_draws

    def recording(rng, *args):
        parities.append(rng.bit_generator.state["has_uint32"])
        return draw(rng, *args)

    monkeypatch.setattr(data, "_user_draws", recording)
    for spec in SPECS:
        data.generate_synthetic(data.SyntheticSpec(**spec))
    assert set(parities) == {0, 1}


def test_rho_leaves_lengths_and_first_items_unchanged():
    # rho blends the chains but takes no draws of its own, so the per-user
    # draws (length, first item) are the same at every rho
    def starts(rho):
        result = data.generate_synthetic(data.SyntheticSpec(
            items_per_domain=16, users_per_domain=100, rho=rho, seed=9))
        return {d: (ev[ev[:, 2] == 0, 1].tolist(), np.bincount(ev[:, 0]).tolist())
                for d, ev in result.events.items()}
    assert starts(0.0) == starts(0.5) == starts(0.95)


def test_synthetic_shapes_and_row_sums():
    result = data.generate_synthetic(SMALL)
    assert [d.domain_id for d in result.datasets] == ["src0", "src1", "target"]
    assert result.datasets[-1].num_users <= SMALL.users_per_domain // 10
    _, domains = chains(SMALL.seed, SMALL.items_per_domain, SMALL.rho, 3)
    for _, mat in domains:
        assert np.all(np.abs(mat.sum(axis=1) - 1.0) <= 1e-12)


def test_synthetic_rho_one_matches_permuted_base():
    base, domains = chains(3, 10, 1.0, 2)
    for perm, mat in domains:
        assert np.allclose(mat, base[np.ix_(perm, perm)])


def test_synthetic_rho_zero_independent():
    # Monte-Carlo: with no shared structure, the de-permuted off-diagonal
    # entries of two domains are uncorrelated across seeds
    xs, ys = [], []
    for seed in range(60):
        _, ((perm0, mat0), (perm1, mat1)) = chains(seed, 6, 0.0, 2)
        inv0, inv1 = np.argsort(perm0), np.argsort(perm1)
        m0 = mat0[np.ix_(inv0, inv0)]
        m1 = mat1[np.ix_(inv1, inv1)]
        xs.extend(m0[~np.eye(6, dtype=bool)])
        ys.extend(m1[~np.eye(6, dtype=bool)])
    corr = np.corrcoef(xs, ys)[0, 1]
    assert abs(corr) < 0.1


def test_synthetic_invalid_rho():
    with pytest.raises(ValueError):
        data.generate_synthetic(data.SyntheticSpec(rho=1.5))


def test_synthetic_deterministic():
    a = data.generate_synthetic(SMALL)
    b = data.generate_synthetic(SMALL)
    assert {d: ev.tolist() for d, ev in a.events.items()} == \
        {d: ev.tolist() for d, ev in b.events.items()}
    for d0, d1 in zip(a.datasets, b.datasets):
        assert (d0.items.tolist(), d0.offsets.tolist()) == \
            (d1.items.tolist(), d1.offsets.tolist())
