"""Reuse-distance engine: unit cases, the naive Mattson oracle, and byte
compatibility with the scalar Fenwick tracker it replaced."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simt import events
from repro.simt.ir import MemSpace
from repro.simt.memory import ADDRESS_LIMIT
from repro.trace.collector import CollectorConfig
from repro.trace.passes.reuse import ReusePass
from repro.trace.passes.texture import TexturePass
from repro.trace.profile import KernelProfile
from repro.trace.reuse import ReuseDistanceTracker, _earlier_greater, block_major_lines
from tests.trace.batches import record
from tests.trace.fenwick_reference import ReuseDistanceTracker as FenwickTracker


def naive_stack_distances(lines):
    """O(N^2) Mattson reference: distinct lines since previous access."""
    out = []
    history = []
    for line in lines:
        if line in history:
            pos = len(history) - 1 - history[::-1].index(line)
            out.append(len(set(history[pos + 1 :])))
            history.append(line)
        else:
            out.append(-1)
            history.append(line)
    return out


def previous_times(lines):
    """Time of each access's previous access to the same line (None if cold)."""
    last = {}
    out = []
    for t, line in enumerate(lines):
        out.append(last.get(line))
        last[line] = t
    return out


def legacy_fenwick_distances(lines):
    """Naive distances with the Fenwick tracker's documented growth skew.

    A growth at ``T = 1024 * 2**k`` whose access is a reuse with previous
    time ``P`` makes every reuse at a time in ``(T, 2T]`` whose previous
    access came after ``P`` read one less.
    """
    prev = previous_times(lines)
    out = naive_stack_distances(lines)
    phantom = None
    for t, p in enumerate(prev):
        if p is not None and phantom is not None and p > phantom:
            out[t] -= 1
        if t >= 1024 and t & (t - 1) == 0:
            phantom = p
    return out


def histogram_of(lines, distances):
    hist = np.zeros(64, dtype=np.int64)
    for p, d in zip(previous_times(lines), distances):
        if p is not None:
            hist[int(d).bit_length()] += 1
    return hist


def tracked(lines, cuts=()):
    """A tracker fed ``lines`` in ``extend`` calls split at ``cuts``."""
    t = ReuseDistanceTracker()
    for part in np.split(np.asarray(lines, dtype=np.int64), sorted(cuts)):
        t.extend(part)
    return t


def assert_matches_reference(t, lines):
    ref = FenwickTracker()
    ref.access_many(lines)
    np.testing.assert_array_equal(t.histogram, ref.histogram)
    assert t.cold_misses == ref.cold_misses
    assert t.accesses == ref.accesses
    assert t.unique_lines == ref.unique_lines


def test_simple_sequence():
    lines = [1, 2, 1, 1, 3, 2]
    # 1 reuses over {2}, then immediately, and 2 over {1, 3}.
    assert naive_stack_distances(lines) == [-1, -1, 1, 0, -1, 2]
    t = tracked(lines, cuts=[2, 3])
    assert list(t.histogram[:4]) == [1, 1, 1, 0]
    assert t.cold_misses == 3


def test_cold_miss_accounting():
    t = tracked([1, 2, 3, 1, 2, 3])
    assert t.cold_misses == 3
    assert t.accesses == 6
    assert t.cold_miss_rate == 0.5
    assert t.unique_lines == 3


def test_histogram_buckets():
    t = tracked([0, 0, 1, 0])  # distance 0 -> bucket 0, distance 1 -> bucket 1
    assert t.histogram[0] == 1
    assert t.histogram[1] == 1


def test_cdf_at_thresholds():
    # Touch 100 lines, then re-touch line 0: distance 99.
    t = tracked(list(range(100)) + [0])
    assert t.cdf_at(64) == 0.0
    assert t.cdf_at(128) == 1.0


def test_cdf_empty_is_zero():
    t = ReuseDistanceTracker()
    assert t.cdf_at(16) == 0.0
    t.extend(np.array([5], dtype=np.int64))
    assert t.cdf_at(16) == 0.0  # only a cold miss, no reuses


def test_fenwick_growth_beyond_initial_capacity():
    # 3000 cold lines pass the legacy tree's growths at 1024 and 2048; both
    # growth accesses are cold, so no skew applies.
    lines = list(range(3000)) + [0]
    t = tracked(lines, cuts=[1024, 2048])
    assert t.histogram[(3000 - 1).bit_length()] == 1
    assert t.histogram.sum() == 1
    assert_matches_reference(t, lines)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=400),
    st.lists(st.integers(min_value=0, max_value=400), max_size=6),
    st.sampled_from([1, 3, 16, 1 << 13]),
)
def test_matches_naive_oracle(lines, cuts, chunk):
    with mock.patch.object(ReuseDistanceTracker, "chunk", chunk):
        t = tracked(lines, cuts)
        hist = t.histogram
    np.testing.assert_array_equal(hist, histogram_of(lines, naive_stack_distances(lines)))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200),
    st.lists(st.integers(min_value=0, max_value=200), max_size=4),
)
def test_invariants(lines, cuts):
    t = tracked(lines, cuts)
    assert t.cold_misses == len(set(lines))
    assert t.unique_lines == len(set(lines))
    assert t.accesses == len(lines)
    assert int(t.histogram.sum()) + t.cold_misses == t.accesses


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12_000),
    universe=st.integers(min_value=1, max_value=3000),
    walk=st.booleans(),
    ncuts=st.integers(min_value=0, max_value=12),
    chunk=st.sampled_from([1, 5, 64, 700, 1 << 13]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=12_000, universe=3000, walk=True, ncuts=12, chunk=64, seed=1)
@example(n=12_000, universe=300, walk=False, ncuts=3, chunk=700, seed=2)
def test_matches_fenwick_reference(n, universe, walk, ncuts, chunk, seed):
    rng = np.random.default_rng(seed)
    if walk:  # short strides: many small distances, including 0
        lines = np.cumsum(rng.integers(-3, 4, n)) % universe
    else:
        lines = rng.integers(0, universe, n)
    cuts = rng.integers(0, n, ncuts)
    with mock.patch.object(ReuseDistanceTracker, "chunk", chunk):
        t = tracked(lines, cuts)
        assert_matches_reference(t, lines.tolist())


def test_growth_skew_is_the_documented_artifact():
    lines = list(range(1024))  # t = 0..1023, all cold
    lines += [1000]  # t = 1024: growth on a reuse, phantom at P = 1000
    lines += [1001, 1001]  # previous access after P: both read one less
    lines += [3]  # previous access before P: exact
    lines += list(range(5000, 5000 + 2048 - len(lines)))  # cold up to t = 2047
    lines += [3]  # t = 2048: previous access after P = 1000, one less; then
    # this growth on a reuse moves the phantom to P = 1027
    lines += [3, 1001]  # after the new P: one less; before it: exact
    legacy = legacy_fenwick_distances(lines)
    exact = naive_stack_distances(lines)
    skewed = [t for t, (a, b) in enumerate(zip(legacy, exact)) if a != b]
    assert skewed == [1025, 1026, 2048, 2049]
    assert legacy[1026] == -1  # a true distance of 0 lands in bucket 1

    t = tracked(lines, cuts=[1000, 1025, 2049])
    hist = t.histogram
    np.testing.assert_array_equal(hist, histogram_of(lines, legacy))
    assert not np.array_equal(hist, histogram_of(lines, exact))
    assert_matches_reference(t, lines)


def _row_loop_lines(evs, P, line_bits):
    """The per-row ``np.unique`` stream that ``block_major_lines`` replaced."""
    parts = [
        np.unique((addrs[i] >> line_bits)[act[i]])
        for i in range(P)
        for addrs, act in evs
        if act[i].any()
    ]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _random_mem_events(rng, P, npad, nevents, universe):
    """``int32`` address rows as the recorder stores them, over ``universe``
    lines at the bottom and at the top of the 31-bit address space."""
    evs = []
    top = ADDRESS_LIMIT - (universe + 4) * 128
    for _ in range(nevents):
        base = rng.integers(0, universe * 128) + top * rng.integers(0, 2)
        addrs = base + rng.integers(0, 4 * 128, (P, npad))
        act = rng.random((P, npad)) < rng.choice([0.0, 0.3, 1.0])
        evs.append((addrs.astype(np.int32), act))
    return evs


@settings(max_examples=40, deadline=None)
@given(
    P=st.integers(min_value=1, max_value=9),
    nevents=st.integers(min_value=0, max_value=12),
    stack_elems=st.sampled_from([32, 100, 1000, 1 << 16]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_block_major_lines_matches_row_loop(P, nevents, stack_elems, seed):
    rng = np.random.default_rng(seed)
    evs = _random_mem_events(rng, P, 64, nevents, universe=50)
    addrs = np.stack([a for a, _ in evs]) if evs else np.empty((0, P, 64), dtype=np.int32)
    act = np.stack([m for _, m in evs]) if evs else np.empty((0, P, 64), dtype=bool)
    idx = np.flatnonzero(rng.random(nevents) < 0.7)
    with mock.patch.object(events, "STACK_ELEMS", stack_elems):
        got = block_major_lines(addrs, act, idx, 7)
    np.testing.assert_array_equal(got, _row_loop_lines([evs[i] for i in idx], P, 7))


def test_reuse_and_texture_passes_match_fenwick_row_loop():
    rng = np.random.default_rng(7)
    config = CollectorConfig()
    profile = KernelProfile("k", (1, 1), (64, 1), 1, 1, 64)
    passes = [ReusePass(config), TexturePass(config)]
    spaces = {"reuse": MemSpace.GLOBAL, "texture": MemSpace.TEXTURE}
    refs = {name: FenwickTracker() for name in spaces}
    with mock.patch.object(ReuseDistanceTracker, "chunk", 300):
        for p in passes:
            p.begin_kernel(None, profile)
        for _ in range(30):
            P = int(rng.integers(1, 6))
            evs = []
            for space in rng.choice(list(spaces.values()), 10):
                (addrs, act), = _random_mem_events(rng, P, 64, 1, universe=40)
                evs.append(("mem", 0, space, "load", 4, addrs, act))
            batch = record(evs, P, 64)
            for p in passes:
                p.consume(batch)
            for name, space in spaces.items():
                pairs = [(ev[5], ev[6]) for ev in evs if ev[2] is space]
                refs[name].access_many(_row_loop_lines(pairs, P, config.line_bits))
        for p in passes:
            p.end_kernel(profile)
    sections = {"reuse": profile.locality, "texture": profile.texture}
    assert refs["reuse"].accesses > 1024 and refs["texture"].accesses > 1024
    for name, ref in refs.items():
        got = sections[name]
        np.testing.assert_array_equal(got.reuse_histogram, ref.histogram)
        assert got.cold_misses == ref.cold_misses
        assert got.line_accesses == ref.accesses
        assert got.unique_lines == ref.unique_lines


@pytest.mark.parametrize("shape", ["random", "ascending", "nearly-ascending", "descending"])
def test_earlier_greater_matches_brute_force(shape):
    # Running maxima are counted by searchsorted and the rest by the
    # wavelet pass: mostly ascending values (a reuse stream's usual shape)
    # send few elements to the wavelet pass, descending ones all but one.
    rng = np.random.default_rng(len(shape))
    for k in (0, 1, 2, 3, 17, 64, 300, 1025):
        values = rng.permutation(3 * k + 1)[:k].astype(np.int64)
        if shape != "random":
            values = np.sort(values)
        if shape == "nearly-ascending" and k > 1:
            for i in rng.choice(k - 1, max(k // 8, 1), replace=False):
                j = min(k - 1, i + int(rng.integers(1, 6)))
                values[[i, j]] = values[[j, i]]
        if shape == "descending":
            values = values[::-1].copy()
        want = [int((values[:i] > values[i]).sum()) for i in range(k)]
        assert _earlier_greater(values).tolist() == want
