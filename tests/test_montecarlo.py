"""Monte Carlo engine: determinism, replay exactness, and estimator laws."""

import functools
import hashlib
import json
import math
import os
import select
import signal
import subprocess
import sys
import threading
import traceback
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from herdsim import _native, montecarlo
from herdsim.belief import ActionLabel, d_minus, d_plus, ell_star_path, rb_mistake_weight
from herdsim.montecarlo import (
    AggregateStats,
    default_checkpoints,
    estimate_mistake_curve,
    estimate_time_to_learn,
    estimate_upset_tail,
    extract_runs_and_upsets,
    merge_aggregates,
    run_trials,
    simulate_baseline_llr,
    simulate_trajectory,
)
from herdsim.signal_models import (
    GaussianSignalModel,
    PolyTailSignalModel,
    SignalModel,
    StateOfWorld,
    _poly_tail_tables,
    build_rate_target,
)

MINUS, PLUS = StateOfWorld.MINUS, StateOfWorld.PLUS
G1 = GaussianSignalModel(sigma=1.0)
G2 = GaussianSignalModel(sigma=2.0)
G07 = GaussianSignalModel(sigma=0.7)  # tau = 2/sigma is no power of two: scaling z rounds
PT2 = PolyTailSignalModel(k=2.0)
RT = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=500)
FIVE_MODELS = [G1, G07, PT2, PolyTailSignalModel(k=0.5), RT]


class SubGaussian(GaussianSignalModel):
    """The base's law in a subclass, to which _native gives no C kernel of the base."""


class SubPolyTail(PolyTailSignalModel):
    """The base's law in a subclass, to which _native gives no C kernel of the base."""


@pytest.fixture
def own_tables():
    """Evicts the shared PolyTail tables before and after the test.

    A model the test builds then has splines of its own, and a spline that
    fails its check under the test's patches is not handed to later models.
    """
    _poly_tail_tables.cache_clear()
    yield
    _poly_tail_tables.cache_clear()


class TestCheckpoints:
    def test_125_grid(self):
        assert default_checkpoints(100) == (1, 2, 5, 10, 20, 50, 100)
        assert default_checkpoints(30) == (1, 2, 5, 10, 20, 30)
        assert default_checkpoints(1) == (1,)


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        a, _ = simulate_trajectory(G1, PLUS, 500, master_seed=42, trial_index=7)
        b, _ = simulate_trajectory(G1, PLUS, 500, master_seed=42, trial_index=7)
        assert np.array_equal(a.actions, b.actions)
        assert a.ell_checkpoints == b.ell_checkpoints

    def test_different_trials_different_streams(self):
        a, _ = simulate_trajectory(G1, PLUS, 500, master_seed=42, trial_index=0)
        b, _ = simulate_trajectory(G1, PLUS, 500, master_seed=42, trial_index=1)
        assert not np.array_equal(a.actions, b.actions)

    def test_thread_count_does_not_change_results(self):
        kw = dict(horizon=300, trials=600, master_seed=99, batch_size=128)
        one = run_trials(G1, PLUS, threads=1, **kw)
        four = run_trials(G1, PLUS, threads=4, **kw)
        assert one.first_mistake_hist == four.first_mistake_hist
        assert one.upset_hist == four.upset_hist
        assert np.array_equal(one.rb_sum, four.rb_sum)
        assert one.ttl_lower_bound_sum == four.ttl_lower_bound_sum

    def test_batch_size_does_not_change_results(self):
        kw = dict(horizon=200, trials=500, master_seed=7)
        a = run_trials(G1, PLUS, batch_size=64, **kw)
        b = run_trials(G1, PLUS, batch_size=500, **kw)
        assert a.first_mistake_hist == b.first_mistake_hist
        assert a.upset_hist == b.upset_hist
        assert a.last_mistake_sum == b.last_mistake_sum
        # float checkpoint sums are batch-order-reduced: equal to rounding
        assert_allclose(a.ell_sum, b.ell_sum, rtol=1e-12)

    def test_merge_equals_serial(self):
        ck = default_checkpoints(200)
        whole = run_trials(G1, PLUS, 200, 400, master_seed=5, checkpoint_times=ck)
        left = run_trials(
            G1, PLUS, 200, 400, master_seed=5, checkpoint_times=ck, batch_size=100
        )
        assert whole.trial_count == left.trial_count
        assert whole.first_mistake_hist == left.first_mistake_hist
        assert_allclose(whole.rb_sum, left.rb_sum, rtol=1e-12)
        assert whole.last_mistake_sum == left.last_mistake_sum

    def test_merge_rejects_mismatched_grids(self):
        a = run_trials(G1, PLUS, 100, 10, master_seed=1)
        b = run_trials(G1, PLUS, 200, 10, master_seed=1)
        with pytest.raises(ValueError):
            merge_aggregates(a, b)


class TestReplay:
    @pytest.mark.parametrize(
        "model",
        [G1, PolyTailSignalModel(k=2.0), build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=500)],
        ids=lambda m: repr(m)[:30],
    )
    def test_checkpoint_ells_replay_from_actions(self, model):
        # replay the stored actions through the one-step updates (with the
        # same compensated summation the engine uses) and compare beliefs
        traj, _ = simulate_trajectory(model, PLUS, 1000, master_seed=31, trial_index=3)
        ell, carry = 0.0, 0.0
        ckpts = dict(traj.ell_checkpoints)
        for t, a in enumerate(traj.actions, start=1):
            if t in ckpts:
                assert ckpts[t] == ell
            incr = float(d_plus(model, ell)) if a > 0 else float(d_minus(model, ell))
            y = incr - carry
            s = ell + y
            carry = (s - ell) - y
            ell = s

    def test_stats_match_actions(self):
        traj, stats = simulate_trajectory(G1, PLUS, 2000, master_seed=8, trial_index=11)
        a = traj.actions
        mistakes = np.nonzero(a != 1)[0] + 1
        if len(mistakes):
            assert stats.t_first_mistake == mistakes[0]
            assert stats.t_last_mistake == mistakes[-1]
        else:
            assert stats.t_first_mistake == 0 and stats.t_last_mistake == 0
        dec = extract_runs_and_upsets(a, PLUS)
        assert stats.upsets == dec.upsets
        assert stats.censored == (a[-1] != 1)
        good = [b.length for b in dec.blocks if b.good]
        bad = [b.length for b in dec.blocks if not b.good]
        assert stats.max_good_run == max(good, default=0)
        assert stats.max_bad_run == max(bad, default=0)

    def test_baseline_shares_the_signal_stream(self):
        # first checkpoint of the baseline equals the first private LLR draw
        gen_draw = G2.sample_llr(PLUS, _rng_for(17, 4), size=1)
        base = simulate_baseline_llr(G2, PLUS, 100, master_seed=17, trial_index=4)
        assert base[0][0] == 1
        assert base[0][1] == pytest.approx(float(gen_draw[0]), rel=0, abs=0)

    def test_baseline_is_a_cumulative_sum(self):
        base = simulate_baseline_llr(G2, PLUS, 3000, master_seed=2, trial_index=0)
        draws = G2.sample_llr(PLUS, _rng_for(2, 0), size=3000)
        csum = np.cumsum(draws)
        for t, v in base:
            assert_allclose(v, csum[t - 1], rtol=1e-12)


def _rng_for(master_seed, trial_index):
    ss = np.random.SeedSequence(master_seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.Philox(ss))


def _state_row(bit_generator):
    """A ``Philox``'s state as a stream row: counter, key, buffer, buffer_pos, has_uint32, uinteger."""
    state = bit_generator.state
    words = [*state["state"]["counter"], *state["state"]["key"], *state["buffer"]]
    words += [state["buffer_pos"], state["has_uint32"], state["uinteger"]]
    return np.array(words, dtype=np.uint64)


class TestStreamKeys:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**200)),
        extra=st.lists(st.integers(0, 2**32 - 1), max_size=4),
    )
    def test_batched_keys_equal_seed_sequence(self, seed, extra):
        # One vectorised pass must reproduce numpy's per-trial SeedSequence
        # keys, and with them the streams' states, bit for bit.
        indices = [0, 2047, 2048, 2**32 - 1] + extra
        streams = montecarlo._trial_rng(seed, indices)
        assert streams.dtype == np.uint64 and streams.shape == (len(indices), _native.STATE_WORDS)
        for row, i in zip(streams, indices):
            assert np.array_equal(row, _state_row(_rng_for(seed, i).bit_generator))

    def test_empty_batch(self):
        assert montecarlo._trial_rng(3, []).shape == (0, _native.STATE_WORDS)


@pytest.fixture(params=["c", "python"])
def fill_route(request, native_loop, python_loop):
    """``montecarlo._fill_streams`` through the C fill, or with the library unavailable."""
    if request.param == "python":
        return functools.partial(python_loop, montecarlo._fill_streams)
    if _native._sampler() is None:
        pytest.skip("numpy ships no libnpyrandom.a or no sampler headers to link the C fill with")
    assert hasattr(native_loop, "philox_fill")
    return montecarlo._fill_streams


class TestStreamFill:
    # Both fills must continue each stream exactly as its Generator would,
    # also where a fill stops inside a block of four Philox words.
    SIZES = (1, 3, 257, 1024)

    @pytest.mark.parametrize("normal", [False, True], ids=["random", "standard_normal"])
    @pytest.mark.parametrize("seed", [0, 2**32, 2**200])
    def test_fills_equal_the_generator(self, fill_route, seed, normal):
        indices = [0, 2047, 2**32 - 1]
        streams = montecarlo._trial_rng(seed, indices)
        refs = [_rng_for(seed, i) for i in indices]
        for size in self.SIZES:
            out = np.empty((len(indices), size))
            fill_route(streams, out, normal)
            for row, state, ref in zip(out, streams, refs):
                expected = ref.standard_normal(size) if normal else ref.random(size)
                assert np.array_equal(row, expected), size
                assert np.array_equal(state, _state_row(ref.bit_generator)), size

    @pytest.mark.parametrize("normal", [False, True], ids=["random", "standard_normal"])
    def test_counter_word_0_wraps_into_word_1(self, fill_route, normal):
        ref = np.random.Generator(np.random.Philox(key=2**100 + 7, counter=2**64 - 1))
        streams = _state_row(ref.bit_generator)[None].copy()
        for size in self.SIZES:
            out = np.empty((1, size))
            fill_route(streams, out, normal)
            assert np.array_equal(out[0], ref.standard_normal(size) if normal else ref.random(size))
        assert streams[0, 0] < 2**10 and streams[0, 1] == 1  # the counter wrapped
        assert np.array_equal(streams[0], _state_row(ref.bit_generator))

    def test_c_fill_refuses_arrays_it_cannot_fill(self, native_loop):
        if not hasattr(native_loop, "philox_fill"):
            pytest.skip("the library holds no C fill")
        streams = montecarlo._trial_rng(1, range(3))
        with pytest.raises(ValueError, match="states"):
            _native.fill(native_loop, streams[:, :-1].copy(), np.empty((3, 4)), False)
        with pytest.raises(ValueError, match="out"):
            _native.fill(native_loop, streams, np.empty((2, 4)), False)
        with pytest.raises(ValueError, match="out"):
            _native.fill(native_loop, streams, np.empty((4, 3)).T, False)


class TestFusedExtremes:
    # The C fill folds each row into its cohort's per-step extreme while the
    # row is in cache.  Its rows must be philox_fill's and its extremes
    # _extremes', bit for bit, from any buffer position and at any chunk
    # length, for cohorts of no rows, one row and many rows, on both sides.
    SIZES = [2, 0, 1, 250, 3, 0, 1, 40]
    CASES = {"middle": SIZES, "empty-ends": [0, *SIZES, 0]}  # empty cohorts first and last too

    @staticmethod
    def _cohorts(sizes):
        start = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        low = np.arange(len(sizes)) % 3 != 1  # mixed sides, both at empty cohorts
        return start, low

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("normal", [False, True], ids=["random", "standard_normal"])
    def test_rows_and_extremes_equal_the_plain_fill(self, fill_route, normal, case):
        start, low = self._cohorts(self.CASES[case])
        streams = montecarlo._trial_rng(9, range(start[-1]))
        for lead in (0, 1, 2, 3):  # buffer positions 0..3 inside a block, then each chunk
            ref_streams = streams.copy()
            for cols in (lead or 4, 1, 3, 97, 258):
                out, ext = np.empty((len(streams), cols)), np.full((len(low), cols), np.nan)
                fill_route(streams, out, normal, (start, low, ext))
                ref = np.empty_like(out)
                montecarlo._fill_streams(ref_streams, ref, normal)
                assert out.tobytes() == ref.tobytes(), (lead, cols)
                assert np.array_equal(streams, ref_streams), (lead, cols)
                expected = montecarlo._extremes(ref, start, low)
                assert np.array_equal(ext, expected), (lead, cols)
                sizes = np.diff(start)
                assert np.all(ext[(sizes == 0) & low] == np.inf)
                assert np.all(ext[(sizes == 0) & ~low] == -np.inf)
                for c in np.flatnonzero(sizes):  # the reference takes the side it is told
                    rows = ref[start[c]:start[c + 1]]
                    assert np.array_equal(ext[c], rows.min(axis=0) if low[c] else rows.max(axis=0))
            streams = montecarlo._trial_rng(9 + lead + 1, range(start[-1]))

    def test_c_fill_refuses_cohorts_it_cannot_read(self, native_loop):
        if not hasattr(native_loop, "philox_fill_extremes"):
            pytest.skip("the library holds no C fill")
        start, low = self._cohorts([2, 0, 3])
        streams, out = montecarlo._trial_rng(1, range(5)), np.empty((5, 4))
        ext = np.empty((3, 4))
        call = functools.partial(_native.fill_extremes, native_loop, streams, out, False)
        for bad in ([1, 2, 2, 5], [0, 2, 2, 4], [0, 3, 2, 5], [0, 2, 2, 6]):  # not 0 to 5 rising
            with pytest.raises(ValueError, match="start"):
                call(np.array(bad, dtype=np.int64), low, ext)
        with pytest.raises(ValueError, match="start"):
            call(start.astype(np.int32), low, ext)
        with pytest.raises(ValueError, match="low"):
            call(start, low[:2], ext)
        with pytest.raises(ValueError, match="low"):
            call(start, low.astype(np.int64), ext)
        with pytest.raises(ValueError, match="ext"):
            call(start, low, np.empty((3, 3)))
        with pytest.raises(ValueError, match="ext"):
            call(start, low, np.empty((3, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="ext"):
            call(start, low, np.empty((4, 3)).T)
        with pytest.raises(ValueError, match="states"):
            _native.fill_extremes(native_loop, streams[:, :-1].copy(), out, False, start, low, ext)
        assert np.array_equal(streams, montecarlo._trial_rng(1, range(5)))  # nothing was drawn


def _run_digest(got):
    """sha256 of a ``run_trials(..., collect_actions=True)`` result: every aggregate field and the actions."""
    agg, actions = got
    digest = hashlib.sha256(actions.tobytes())
    for name in _AGG_FIELDS:
        value = getattr(agg, name)
        digest.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return digest.hexdigest()


@pytest.fixture
def split_fill(native_loop):
    if not hasattr(native_loop, "philox_fill_extremes"):
        pytest.skip("the library holds no C fill")
    return native_loop


class TestSplitFill:
    # The C fill cuts the rows into parts that its threads claim in turn.
    # Each row's stream is its own and a cohort spanning parts is folded in
    # part order, so every part and thread count must give the one-thread
    # fill's rows, extremes and streams bit for bit.
    ROWS = 42  # the part boundaries: 21 (2 parts), 14 and 28 (3), 6, 12, ..., 36 (7)
    CASES = {
        "one-cohort": [ROWS],
        "straddles-every-boundary": [1, ROWS - 2, 1],
        "empty-at-boundaries-and-ends": [0, 6, 0, 6, 2, 0, 7, 0, 7, 0, 8, 6, 0],
        "uneven": [5, 1, 0, 17, 3, 9, 8],  # 43 rows: 2, 3 and 7 divide none
        "fewer-rows-than-parts": [0, 2, 0, 1, 0],
    }

    @staticmethod
    def _streams(rows, seed):
        """Streams at buffer positions 0..4, every other one with a counter about to carry."""
        streams = montecarlo._trial_rng(seed, range(rows))
        rng = np.random.Generator(np.random.Philox(seed))
        streams[:, montecarlo._BUFFER] = rng.integers(0, 2**64, (rows, 4), dtype=np.uint64)
        streams[:, montecarlo._BUFFER_POS] = np.arange(rows) % 5
        streams[::2, 0] = np.uint64(2**64 - 1) - np.arange(0, rows, 2).astype(np.uint64) % 3
        return streams

    @staticmethod
    def _fill(monkeypatch, lib, streams, normal, start, low, cols, parts, threads):
        """``fill_extremes`` on a copy of ``streams``, cut into ``parts`` on ``threads``."""
        monkeypatch.setattr(_native, "fill_split", lambda *shape: (parts, threads))
        streams = streams.copy()
        out, ext = np.empty((len(streams), cols)), np.full((len(low), cols), np.nan)
        _native.fill_extremes(lib, streams, out, normal, start, low, ext)
        return out, ext, streams

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("normal", [False, True], ids=["random", "standard_normal"])
    def test_every_part_count_gives_one_parts_bits(self, split_fill, monkeypatch, normal, case):
        sizes = self.CASES[case]
        start = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        low = np.arange(len(sizes)) % 3 != 1
        streams = self._streams(int(start[-1]), 37)
        for cols in (1, 5, 97):
            one = self._fill(monkeypatch, split_fill, streams, normal, start, low, cols, 1, 1)
            assert one[1].tobytes() == montecarlo._extremes(one[0], start, low).tobytes()
            for parts in (2, 3, 7):
                for threads in (1, 2, 3):
                    got = self._fill(monkeypatch, split_fill, streams, normal, start, low, cols, parts, threads)
                    for name, a, b in zip(("out", "ext", "states"), got, one):
                        assert a.tobytes() == b.tobytes(), (name, cols, parts, threads)

    def test_ties_keep_the_first_value_across_parts(self, split_fill, monkeypatch):
        # The fold's strict compare keeps the earlier of equal values: a
        # straddling cohort's parts, merged in part order, must too.  A word
        # of layer 5 is a normal of rabs * wi[5], negated by its sign bit.
        # Rows 0-3 draw a value on the far side of the extreme (rabs 1), rows
        # 4-7 the zero that must win and rows 8-11 the zero of the other sign.
        streams = self._streams(12, 3)
        streams[:, montecarlo._BUFFER_POS] = 0
        start, rows = np.array([0, 12], np.int64), np.arange(12)
        for low in (True, False):
            word = lambda sign, rabs: 5 | sign << 8 | rabs << 9
            streams[:, montecarlo._BUFFER.start] = np.select(
                [rows < 4, rows < 8], [word(1 - low, 1), word(int(low), 0)], word(1 - low, 0)).astype(np.uint64)
            one = self._fill(monkeypatch, split_fill, streams, True, start, np.array([low]), 1, 1, 1)
            draws = one[0][:, 0]
            assert np.all(draws[:4] != 0.0) and np.all(draws[4:] == 0.0)
            assert np.array_equal(np.signbit(draws), np.where(rows // 4 == 1, low, not low))
            assert one[1][0, 0] == 0.0 and np.signbit(one[1][0, 0]) == low
            for parts in (3, 5, 12):
                got = self._fill(monkeypatch, split_fill, streams, True, start, np.array([low]), 1, parts, 2)
                assert got[1].tobytes() == one[1].tobytes(), (low, parts)

    def test_fill_split_counts_cpus_and_draws(self, monkeypatch):
        monkeypatch.setattr(_native, "fill_cpus", lambda: 4)
        assert _native.fill_split(2048, 256) == (32, 4)  # parts of 2**14 draws
        assert _native.fill_split(2048, 64) == (8, 2)  # 2**17 draws: two threads of 2**16
        assert _native.fill_split(100, 100) == (1, 1)
        assert _native.fill_split(3, 10**6) == (3, 3)  # at most one part and thread per row
        assert _native.fill_split(0, 256) == (1, 1)
        monkeypatch.setattr(_native, "fill_cpus", lambda: 1)
        assert _native.fill_split(2048, 256) == (1, 1)

    def test_fill_cpus_is_the_affinity_mask(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity mask on this platform")
        assert _native.fill_cpus() == len(os.sched_getaffinity(0))

    def test_fill_cpus_is_the_cpu_count_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _native.fill_cpus.__wrapped__() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=["plus", "minus"])
    @pytest.mark.parametrize("model", [G1, PT2], ids=["gaussian", "polytail"])
    def test_run_trials_gives_the_bits_of_one_part(self, split_fill, monkeypatch, model, theta):
        splits = []
        counted = _native.fill_split
        monkeypatch.setattr(_native, "fill_split", lambda *shape: splits.append(counted(*shape)) or splits[-1])

        def run(cpus):
            monkeypatch.setattr(_native, "fill_cpus", lambda: cpus)
            return _run_digest(run_trials(model, theta, 700, 2048, master_seed=11, collect_actions=True))

        one = run(1)
        assert set(splits) == {(1, 1)}
        for cpus in (2, 7):
            splits.clear()
            assert run(cpus) == one, cpus
            assert max(splits) == (32, cpus)  # a chunk of 2048 x 256 draws: 32 parts on that many threads

    def test_no_thread_outlives_a_split_fill(self, split_fill, monkeypatch):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count the threads in")
        start, low = np.array([0, 700, 2048], np.int64), np.array([True, False])
        before = sorted(os.listdir("/proc/self/task"))
        for threads in (2, 3, 7):
            self._fill(monkeypatch, split_fill, self._streams(2048, 5), True, start, low, 256, 32, threads)
            assert sorted(os.listdir("/proc/self/task")) == before, threads

    def test_a_split_fill_under_a_1ms_alarm_keeps_its_bits(self, split_fill, monkeypatch):
        # As perfbench's sampler does, a SIGALRM handler runs every 1 ms of
        # wall time: it runs on the main thread, and the fill keeps its bits.
        # That the helpers block every signal is the next test's.
        start, low = np.array([0, 1000, 2048], np.int64), np.array([False, True])
        streams = self._streams(2048, 9)
        want = self._fill(monkeypatch, split_fill, streams, True, start, low, 256, 1, 1)
        seen = []
        previous = signal.signal(signal.SIGALRM, lambda *_: seen.append(threading.current_thread()))
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
            got = [self._fill(monkeypatch, split_fill, streams, True, start, low, 256, 32, 3) for _ in range(10)]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        for each in got:
            for a, b in zip(each, want):
                assert a.tobytes() == b.tobytes()
        assert seen and all(t is threading.main_thread() for t in seen)

    # Run by a second process: it reads the signal masks of this process's
    # threads that are not in argv[2:] until it has seen 20, or for 5 s.
    WATCH = """
import json, os, sys, time
pid, known, seen = sys.argv[1], set(sys.argv[2:]), []
end = time.monotonic() + 5.0
while len(seen) < 20 and time.monotonic() < end:
    try:
        tids = set(os.listdir(f"/proc/{pid}/task")) - known
        for tid in tids:
            with open(f"/proc/{pid}/task/{tid}/status") as fh:
                seen += [int(line.split()[1], 16) for line in fh if line.startswith("SigBlk:")]
    except OSError:  # the thread ended while it was read
        pass
print(json.dumps(seen))
"""

    def test_every_helper_thread_blocks_every_signal(self, split_fill, monkeypatch):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to read the threads' signal masks from")
        start, low = np.array([0, 2048], np.int64), np.array([True])
        streams = self._streams(2048, 2)
        watch = subprocess.Popen([sys.executable, "-c", self.WATCH, str(os.getpid()),
                                  *os.listdir("/proc/self/task")], stdout=subprocess.PIPE, text=True)
        try:
            while watch.poll() is None:
                self._fill(monkeypatch, split_fill, streams, True, start, low, 256, 32, 2)
        finally:
            seen = json.loads(watch.communicate(timeout=30)[0])
        if not seen:
            pytest.skip("the watcher saw no helper thread while it ran")
        blockable = [s for s in range(1, 32) if s not in (signal.SIGKILL, signal.SIGSTOP)]
        assert all(mask >> (s - 1) & 1 for mask in seen for s in blockable), [hex(m) for m in seen]

    def test_a_child_forked_after_split_fills_gives_the_parents_bits(self, split_fill, monkeypatch):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        monkeypatch.setattr(_native, "fill_cpus", lambda: 3)
        kw = dict(horizon=600, trials=2048, master_seed=4, collect_actions=True)
        parent = _run_digest(run_trials(G1, PLUS, **kw))
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: its digest down the pipe, then out without pytest's exit handlers
            code = 1
            try:
                os.close(read)
                os.write(write, _run_digest(run_trials(G1, PLUS, **kw)).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        if not select.select([read], [], [], 120.0)[0]:  # the child is stuck: end it, and fail
            os.kill(pid, signal.SIGKILL)
        with os.fdopen(read) as fh:
            child = fh.read()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert child == parent


def _one_word_normal(word):
    """numpy's standard normal of ``word`` needs no other word: its ziggurat fast path takes it."""
    bits = np.random.Philox(0)
    state = bits.state
    state["buffer"], state["buffer_pos"] = np.array([word, 0, 0, 0], np.uint64), 0
    bits.state = state
    np.random.Generator(bits).standard_normal()
    after = bits.state
    return after["buffer_pos"] == 1 and np.array_equal(after["state"]["counter"], [0, 0, 0, 0])


def _slow_kind(word):
    """'tail' or 'wedge' for a word off the ziggurat's fast path (layer 0 is the tail), or None."""
    if _one_word_normal(word):
        return None
    return "tail" if int(word) & 0xFF == 0 else "wedge"


class TestZigguratSlowPaths:
    # The C fill takes a word's ziggurat fast path inline and hands every other
    # word back to numpy's sampler.  These streams' next word is a slow one, at
    # each buffer position and just after a counter wrap.
    KEY = 2**70 + 5
    KINDS = ("wedge", "tail")

    @pytest.fixture(scope="class")
    def slow_words(self):
        """{(kind, buffer position): index of the first such slow word of Philox(key=KEY)}."""
        words = np.random.Philox(key=self.KEY).random_raw(2**18)
        layer0 = (words & 0xFF) == 0
        found = {}
        for kind, candidates in (("wedge", ~layer0), ("tail", layer0)):
            positions = {}
            for j in np.flatnonzero(candidates):
                if j % 4 not in positions and not _one_word_normal(words[j]):
                    positions[j % 4] = j
                    if len(positions) == 4:
                        break
            found.update({(kind, pos): j for pos, j in positions.items()})
        assert sorted(found) == [(kind, pos) for kind in sorted(self.KINDS) for pos in range(4)]
        return found

    @staticmethod
    def _before_word(key, j):
        """A ``Philox`` whose next word is word j of ``Philox(key=key)``, its block buffered."""
        bits = np.random.Philox(key=key)
        bits.random_raw(j // 4 * 4 + 4)
        state = bits.state
        state["buffer_pos"] = j % 4
        bits.state = state
        return bits

    @pytest.mark.parametrize("size", [1, 2, 9])
    def test_slow_words_at_every_buffer_position(self, fill_route, slow_words, size):
        bits = [self._before_word(self.KEY, j) for j in slow_words.values()]
        streams = np.array([_state_row(b) for b in bits])
        assert sorted(streams[:, montecarlo._BUFFER_POS]) == [0, 0, 1, 1, 2, 2, 3, 3]
        out = np.empty((len(bits), size))
        fill_route(streams, out, True)
        for row, state, b in zip(out, streams, bits):
            assert row.tobytes() == np.random.Generator(b).standard_normal(size).tobytes()
            assert np.array_equal(state, _state_row(b))

    @pytest.mark.parametrize("kind", KINDS)
    def test_slow_word_just_after_a_counter_wrap(self, fill_route, kind):
        def wrapped(key):
            return np.random.Philox(key=key, counter=2**64 - 1)

        key = next(k for k in range(10**5) if kind in map(_slow_kind, wrapped(k).random_raw(4)))
        ref = np.random.Generator(wrapped(key))
        streams = _state_row(ref.bit_generator)[None].copy()
        out = np.empty((1, 16))
        fill_route(streams, out, True)
        assert out[0].tobytes() == ref.standard_normal(16).tobytes()
        assert streams[0, 0] < 16 and streams[0, 1] == 1  # the counter wrapped
        assert np.array_equal(streams[0], _state_row(ref.bit_generator))

    @pytest.mark.parametrize("layer", [0, 1, 2, 128, 255])
    def test_words_at_the_edge_of_the_fast_path(self, fill_route, layer):
        # the least rabs (bits 9-60) whose word misses the fast path, by bisection on numpy
        lo, hi = 0, 2**52
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if _one_word_normal(layer | mid << 9) else (lo, mid)
        edge = [layer | rabs << 9 for rabs in (max(lo - 1, 0), lo)]
        bits = np.random.Philox(key=self.KEY)
        state = bits.state
        state["buffer"] = np.array(edge + [word | 1 << 8 for word in edge], np.uint64)  # +-
        state["buffer_pos"] = 0
        bits.state = state
        streams = _state_row(bits)[None].copy()
        out = np.empty((1, 8))
        fill_route(streams, out, True)
        assert out[0].tobytes() == np.random.Generator(bits).standard_normal(8).tobytes()
        assert np.array_equal(streams[0], _state_row(bits))

    def test_many_streams_equal_the_generator(self, native_loop):
        # about 1.5% of these 2**18 normals take a slow path
        if not hasattr(native_loop, "philox_fill"):
            pytest.skip("the library holds no C fill")
        streams = montecarlo._trial_rng(16, range(64))
        out = np.empty((64, 4096))
        _native.fill(native_loop, streams, out, True)
        for i, (row, state) in enumerate(zip(out, streams)):
            ref = _rng_for(16, i)
            assert row.tobytes() == ref.standard_normal(4096).tobytes(), i
            assert np.array_equal(state, _state_row(ref.bit_generator)), i

    def test_the_inline_fast_path_passes_its_self_check(self, native_loop):
        # where it failed, the fill would draw every normal through numpy's own fill
        if not hasattr(native_loop, "philox_fill"):
            pytest.skip("the library holds no C fill")
        assert native_loop.normals_checked() == 1


@dataclass(frozen=True)
class LogisticModel(SignalModel):
    """A custom model that defines only ``sample_llr``, no quantile or Gaussian route.

    The LLR is logistic around +-1 under theta = +-1.  Its draws use
    32-bit uniforms, so a draw can leave half of a Philox word for the next.
    """

    family = "logistic"

    def llr_log_sf(self, state, x):
        return -np.logaddexp(0.0, np.asarray(x, dtype=float) - state.sign)

    def llr_log_cdf(self, state, x):
        return -np.logaddexp(0.0, state.sign - np.asarray(x, dtype=float))

    def sample_llr(self, state, rng, size=None):
        u = rng.random(size, dtype=np.float32).astype(float) + 2.0**-25  # in (0, 1)
        return state.sign + np.log(u) - np.log1p(-u)


class TestCustomSampler:
    # A model without llr_from_uniform or a Gaussian law is drawn through its
    # own sample_llr on each stream, chunk by chunk.
    MODEL = LogisticModel()

    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    def test_run_trials_draws_as_per_stream_sample_llr(self, theta, monkeypatch):
        trials, horizon, batch_size = 20, 60, 7
        # chunks of 7 steps: an odd number of 32-bit draws per chunk
        monkeypatch.setattr(montecarlo, "_DRAW_BUDGET", 7 * trials)
        agg, actions = run_trials(
            self.MODEL, theta, horizon, trials, master_seed=5, batch_size=batch_size,
            collect_actions=True,
        )
        # the replay checks every action against the per-stream sample_llr draws
        ref, _ = _replay_aggregate(self.MODEL, theta, horizon, trials, 5, batch_size, actions)
        _same_aggregate(agg, ref)
        assert 0 < sum(c for t, c in agg.first_mistake_hist.items() if t) < trials

    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    def test_baseline_draws_as_per_stream_sample_llr(self, theta):
        horizon, ckpt = 2100, (1, 1024, 1025, 2048, 2049, 2100)
        for i in (0, 3):
            base = simulate_baseline_llr(self.MODEL, theta, horizon, 8, i, ckpt)
            gen, total, carry, ref = _rng_for(8, i), 0.0, 0.0, {}
            for t in range(1, horizon + 1, montecarlo._TIME_CHUNK):
                chunk = min(montecarlo._TIME_CHUNK, horizon - t + 1)
                partial = np.cumsum(self.MODEL.sample_llr(theta, gen, size=chunk))
                ref.update((c, total + float(partial[c - t])) for c in ckpt if t <= c < t + chunk)
                y = float(partial[-1]) - carry
                tot = total + y
                carry, total = (tot - total) - y, tot
            assert base == tuple((c, ref[c]) for c in ckpt)


class TestBaselineBatch:
    @pytest.mark.parametrize("model", [G2, G07, PT2, RT], ids=repr)
    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    def test_rows_equal_the_per_trial_reference(self, model, theta, python_loop):
        # Reference: one stream at a time, each chunk summed and the chunk
        # totals added with a compensated carry.
        horizon, ckpt = 2500, (1, 2, 1023, 1024, 1025, 2048, 2049, 2500)
        for i in [0, 1, 7, 2047, 2048, 5000]:
            gen, total, carry, ref = _rng_for(9, i), 0.0, 0.0, {}
            for t in range(1, horizon + 1, montecarlo._TIME_CHUNK):
                chunk = min(montecarlo._TIME_CHUNK, horizon - t + 1)
                partial = np.cumsum(model.sample_llr(theta, gen, size=chunk))
                ref.update((c, total + float(partial[c - t])) for c in ckpt if t <= c < t + chunk)
                y = float(partial[-1]) - carry
                tot = total + y
                carry, total = (tot - total) - y, tot
            want = tuple((c, ref[c]) for c in ckpt)
            assert simulate_baseline_llr(model, theta, horizon, 9, i, ckpt) == want
            assert python_loop(simulate_baseline_llr, model, theta, horizon, 9, i, ckpt) == want


class TestRunsAndUpsets:
    def test_blocks(self):
        dec = extract_runs_and_upsets([1, 1, -1, -1, -1, 1], PLUS)
        assert dec.upsets == 2
        assert [(b.start, b.length, b.good) for b in dec.blocks] == [
            (1, 2, True),
            (3, 3, False),
            (6, 1, True),
        ]
        assert dec.blocks[1].label is ActionLabel.MINUS

    def test_single_block(self):
        dec = extract_runs_and_upsets([-1, -1], PLUS)
        assert dec.upsets == 0 and len(dec.blocks) == 1
        assert not dec.blocks[0].good

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extract_runs_and_upsets([], PLUS)

    def test_upsets_equals_blocks_minus_one_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.choice([-1, 1], size=rng.integers(1, 40))
            dec = extract_runs_and_upsets(a, PLUS)
            assert dec.upsets == len(dec.blocks) - 1
            assert sum(b.length for b in dec.blocks) == len(a)


class TestEstimators:
    def test_first_action_minus_fraction(self):
        # [DERIVED] P(a_1 = -1 | theta=+1) = Phi(-1/2) = 0.30854 for sigma=2
        agg = run_trials(G2, PLUS, 1, 20000, master_seed=13)
        n_mistake = sum(c for t, c in agg.first_mistake_hist.items() if t == 1)
        assert abs(n_mistake / 20000 - 0.308537538725986896) < 0.015

    @pytest.mark.parametrize("model", [G2, RT, PolyTailSignalModel(k=3.0)],
                             ids=["gaussian", "ratetarget", "polytail-k3"])
    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    def test_baseline_mean_is_t_times_the_mean_llr(self, model, theta):
        # E_theta[sum of t LLRs] = t E_theta[L]; PolyTail k = 2 is left out, as
        # its variance is infinite and the standard error means nothing
        t, n = 1000, 400
        sums = np.array([simulate_baseline_llr(model, theta, t, 23, i, (t,))[0][1] for i in range(n)])
        stderr = np.std(sums, ddof=1) / math.sqrt(n)
        assert abs(np.mean(sums) - t * model.llr_mean(theta)) < 3 * stderr

    def test_mistake_curve_shape(self):
        agg = run_trials(G2, PLUS, 100, 2000, master_seed=3)
        rows = estimate_mistake_curve(agg)
        assert rows[0][0] == 0 and rows[0][2] == 0.5  # prior row
        ts = [r[0] for r in rows]
        assert ts == sorted(ts)
        # RB estimate decreases broadly and stays within [0, 1/2]
        rb = np.array([r[1] for r in rows])
        assert np.all((0 <= rb) & (rb <= 0.5))
        assert rb[-1] < rb[0]
        # RB and naive agree within 3 combined standard errors at each t
        for t, p_rb, p_naive, se_rb in rows[1:]:
            se_n = math.sqrt(max(p_naive * (1 - p_naive), 1e-12) / agg.trial_count)
            assert abs(p_rb - p_naive) <= 3.0 * (se_rb + se_n) + 1e-9

    def test_rb_has_smaller_stderr(self):
        agg = run_trials(G2, PLUS, 50, 4000, master_seed=19)
        rows = estimate_mistake_curve(agg)
        t, p_rb, p_naive, se_rb = rows[-1]
        se_naive = math.sqrt(p_naive * (1 - p_naive) / agg.trial_count)
        assert se_rb < se_naive

    def test_time_to_learn_report(self):
        agg = run_trials(G1, PLUS, 2000, 2000, master_seed=23)
        rep = estimate_time_to_learn(agg)
        assert rep.horizon == 2000 and rep.trial_count == 2000
        assert rep.censored_fraction < 0.01 and not rep.unreliable
        assert rep.mean_uncensored >= 1.0
        assert rep.lower_bound <= rep.mean_uncensored + rep.censored_fraction * 2000
        # lower bound from the aggregate equals the by-hand average
        assert rep.lower_bound == pytest.approx(
            agg.ttl_lower_bound_sum / agg.trial_count
        )

    def test_upset_tail_fit(self):
        agg = run_trials(G1, PLUS, 1000, 20000, master_seed=29)
        fit = estimate_upset_tail(agg)
        assert fit.slope < 0.0
        assert fit.r_squared >= 0.9
        assert np.all(fit.wilson_lo <= fit.survival + 1e-12)
        assert np.all(fit.survival <= fit.wilson_hi + 1e-12)
        assert fit.survival[0] == 1.0  # every trial has Xi >= 0

    def test_upset_fit_needs_bins(self):
        agg = run_trials(G1, PLUS, 5, 10, master_seed=1)
        with pytest.raises(ValueError):
            estimate_upset_tail(agg, min_count=1000)

    @pytest.mark.parametrize(
        "estimator", [estimate_mistake_curve, estimate_time_to_learn, estimate_upset_tail]
    )
    def test_empty_aggregate_is_named(self, estimator):
        # no trials: a named error, not rows of NaN or a ZeroDivisionError
        empty = AggregateStats(horizon=10, checkpoint_times=(1, 2, 5, 10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty aggregate"):
                estimator(empty)


class TestValidation:
    @pytest.mark.parametrize("trials", [0, 2.5, True])
    def test_bad_arguments(self, trials):
        with pytest.raises(ValueError, match="trials"):
            run_trials(G1, PLUS, 100, trials, master_seed=1)
        with pytest.raises(ValueError):
            simulate_trajectory(G1, PLUS, 0, master_seed=1, trial_index=0)

    @pytest.mark.parametrize("horizon", [0, -3, 10.5, True])
    def test_nonpositive_horizon_is_named(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            run_trials(G1, PLUS, horizon, 10, master_seed=1)
        with pytest.raises(ValueError, match="horizon"):
            simulate_trajectory(G1, PLUS, horizon, master_seed=1, trial_index=0)
        with pytest.raises(ValueError, match="horizon"):
            simulate_baseline_llr(G1, PLUS, horizon, master_seed=1, trial_index=0)

    @pytest.mark.parametrize(
        "grid", [[0, 5], [5, 101], [-1], [101], [2.5], [True], [5, 10.0], [], [math.nan]]
    )
    def test_checkpoints_outside_the_horizon_are_named(self, grid):
        with pytest.raises(ValueError, match="checkpoint_times"):
            run_trials(G1, PLUS, 100, 10, master_seed=1, checkpoint_times=grid)
        with pytest.raises(ValueError, match="checkpoint_times"):
            simulate_trajectory(G1, PLUS, 100, 1, 0, checkpoint_times=grid)
        with pytest.raises(ValueError, match="checkpoint_times"):
            simulate_baseline_llr(G1, PLUS, 100, 1, 0, checkpoint_times=grid)

    @pytest.mark.parametrize("batch_size", [0, -3, 2.0, True, "64"])
    def test_bad_batch_size_is_named(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            run_trials(G1, PLUS, 100, 10, master_seed=1, batch_size=batch_size)

    @pytest.mark.parametrize("threads", [0, -1, 2.5, True])
    def test_bad_threads_is_named(self, threads):
        with pytest.raises(ValueError, match="threads"):
            run_trials(G1, PLUS, 20, 5, master_seed=0, threads=threads)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_bad_master_seed_is_named(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            montecarlo._trial_rng(seed, [0])
        with pytest.raises(ValueError, match="master_seed"):
            run_trials(G1, PLUS, 100, 10, master_seed=seed)

    @pytest.mark.parametrize("indices", [[-1], [2**32], [0, 2**64], [0.0], [True]])
    def test_trial_index_outside_32_bits_is_named(self, indices):
        with pytest.raises(ValueError, match="trial_indices"):
            montecarlo._trial_rng(1, indices)
        with pytest.raises(ValueError, match="trial_indices"):
            simulate_baseline_llr(G1, PLUS, 10, 1, indices[-1])

    @pytest.mark.parametrize("theta", [1, -1, 1.0, "PLUS", ActionLabel.PLUS], ids=repr)
    def test_run_trials_names_a_theta_that_is_no_state(self, theta):
        with pytest.raises(ValueError, match="theta"):
            run_trials(G1, theta, 10, 1, master_seed=0)

    @pytest.mark.parametrize("theta", [1, -1, 1.0, "PLUS", ActionLabel.PLUS], ids=repr)
    def test_simulate_trajectory_names_a_theta_that_is_no_state(self, theta):
        with pytest.raises(ValueError, match="theta"):
            simulate_trajectory(G1, theta, 10, master_seed=0, trial_index=0)

    @pytest.mark.parametrize("theta", [1, -1, 1.0, "PLUS", ActionLabel.PLUS], ids=repr)
    def test_simulate_baseline_llr_names_a_theta_that_is_no_state(self, theta):
        # a bare 1 once summed the theta = -1 draws without a word
        with pytest.raises(ValueError, match="theta"):
            simulate_baseline_llr(PT2, theta, 10, master_seed=0, trial_index=0)

    def test_checkpoints_at_both_ends_are_accepted(self):
        agg = run_trials(G1, PLUS, 100, 10, master_seed=1, checkpoint_times=[100, 1])
        assert agg.checkpoint_times == (1, 100)


class TestCascade:
    def test_rate_target_herd_past_the_cut_stays_finite(self):
        # Once the shared belief passes the truncated support's cut no signal
        # can overturn it: D+- is 0 there, the herd holds its belief and no
        # trial errs for the first time afterwards.  (When D+- was NaN there,
        # every remaining herd member recorded a mistake at t = 3252.)
        model = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=30)
        cut = float(model.support[-1])
        t_cross = int(np.argmax(ell_star_path(model, 5000).values > cut)) + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            agg = run_trials(model, PLUS, 5000, 200, master_seed=0)
        for name in ("rb_sum", "rb_sumsq", "naive_sum", "ell_sum"):
            assert np.all(np.isfinite(getattr(agg, name))), name
        assert max(agg.first_mistake_hist) < t_cross
        assert agg.first_mistake_hist[0] > 0


# ---------------------------------------------------------------------------
# The cohort engine against scalar references
# ---------------------------------------------------------------------------

_CONTINUOUS = [GaussianSignalModel(sigma=s) for s in (0.3, 1.0, 2.0, 5.0)] + [
    PolyTailSignalModel(k=k) for k in (0.5, 2.0, 4.0)
]
# Dense in the bulk, geometric out to |x| = 1e18: reaches the tail form of
# both increments, PolyTail's asymptotic log-tail past 60 and the Gaussian
# deep-tail log_ndtr branch.
_MIRROR_GRID = np.concatenate(
    (np.linspace(-300.0, 300.0, 120001), np.geomspace(1e-8, 1e18, 8001), -np.geomspace(1e-8, 1e18, 8001))
)


class TestSignedIncrement:
    def test_a_rate_target_model_without_information_herds_at_once(self):
        # cut 0: every signal is L = 0, so every agent plays -1 and no belief
        # moves; the emptied first cohort (+1 at ell = 0 = -cut) steps by 0
        model = build_rate_target([1.0, 0.5])
        assert len(model.support) == 1
        agg = run_trials(model, PLUS, 20, 8, master_seed=1)
        assert agg.first_mistake_hist == {1: 8} and agg.censored_count == 8
        assert not agg.ell_sum.any()

    @pytest.mark.parametrize("model", _CONTINUOUS, ids=repr)
    def test_d_minus_is_mirrored_d_plus_exactly(self, model):
        # The engine steps all cohorts with one call sgn * d_plus(sgn * ell);
        # that is exact only if D_-(x) == -D_+(-x) to the last bit.
        x = _MIRROR_GRID
        with np.errstate(divide="ignore"):  # log1p(-1) where the tail form underflows
            dm = d_minus(model, x)
            dp = d_plus(model, -x)
        assert not np.any(np.isnan(dm))
        assert np.array_equal(dm, -dp)
        # both branches of both increments are exercised
        lsm = model.llr_log_sf(MINUS, x)
        lcp = model.llr_log_cdf(PLUS, -x)
        assert np.any(lsm > -1e-8) and np.any(lsm <= -1e-8)
        assert np.any(lcp > -1e-8) and np.any(lcp <= -1e-8)

    @pytest.mark.parametrize("model", [G1, G07, PolyTailSignalModel(k=0.5), PT2, RT], ids=repr)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_run_only_moves_away_from_its_switch(self, model, sign):
        # _bounds clears a cohort for a whole chunk from its belief at the
        # chunk's start; that is sound only if no step, as rounded, moves a
        # belief back toward the action's switch.
        ell = np.concatenate((_MIRROR_GRID, np.geomspace(1e-300, 1e150, 3001),
                              -np.geomspace(1e-300, 1e150, 3001), [0.0]))
        with np.errstate(divide="ignore"):
            step = sign * montecarlo._increment(model, ell, np.full(len(ell), sign))
        assert np.all(step >= 0.0)


class TestBlockedSampling:
    @pytest.mark.parametrize("model", FIVE_MODELS, ids=repr)
    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    def test_blocked_draws_equal_per_trial_sampling(self, model, theta):
        trials, chunk = 300, 257
        streams = montecarlo._trial_rng(5, range(trials))

        def llr(draws, j):
            # inversion-sampled models' rows are left as uniforms, Gaussian
            # rows as standard normals
            return montecarlo._llr(model, theta, draws[j].copy())

        blocked = montecarlo._draw_chunk(model, theta, streams, np.empty((trials, chunk)))
        for j in range(trials):
            ref = model.sample_llr(theta, _rng_for(5, j), size=2 * chunk)
            assert np.array_equal(llr(blocked, j), ref[:chunk])
        # the streams continue where the block left them
        again = montecarlo._draw_chunk(model, theta, streams, np.empty((trials, chunk)))
        for j in (0, 127, 128, 129, trials - 1):
            ref = model.sample_llr(theta, _rng_for(5, j), size=2 * chunk)
            assert np.array_equal(llr(again, j), ref[chunk:])

    @pytest.mark.parametrize("model", FIVE_MODELS, ids=repr)
    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    def test_bounds_hold_every_row_of_their_cohort(self, model, theta):
        # cohorts of one row, a few rows and many rows, in one chunk, each
        # bounded on its erring side: below for +1, above for -1
        sizes = [1, 3, 1, 250, 5, 40, 1]
        start = np.concatenate(([0], np.cumsum(sizes)))
        sgn = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
        streams = montecarlo._trial_rng(6, range(start[-1]))
        draws = montecarlo._draw_chunk(model, theta, streams, np.empty((start[-1], 97)))
        llr = montecarlo._llr(model, theta, draws)
        llr_map = montecarlo._llr_map(model, theta, _native.library())
        # the pass reads the map's direction off its ends: only PolyTail's falls, under theta = +
        ends = llr_map(np.array([0.0, 1.0 - 2.0**-53]))
        decreasing = bool(ends[0] > ends[1])
        assert decreasing == (model.family == "polytail" and theta is PLUS)
        low = (sgn > 0.0) != decreasing
        extremes = montecarlo._extremes(draws, start, low)
        lowest = np.array([llr[lo:hi].min() for lo, hi in zip(start[:-1], start[1:])])
        highest = np.array([llr[lo:hi].max() for lo, hi in zip(start[:-1], start[1:])])
        # a belief at the switch clears no cohort; one far past it clears every one
        far = sgn * (1.0 + np.abs(lowest) + np.abs(highest))
        for ell, cleared in ((np.zeros(len(sizes)), False), (far, True)):
            bounds = montecarlo._bounds(llr_map, extremes, start, ell, sgn, low)
            assert bounds.shape == (97, len(sizes)) and bounds.flags.c_contiguous
            for c, (lo, hi) in enumerate(zip(start[:-1], start[1:])):
                rows, b = llr[lo:hi], bounds[:, c]
                assert np.all(sgn[c] * (rows - b) >= 0.0), c
                # the margin is the only slack
                ext = rows.min(axis=0) if sgn[c] > 0.0 else rows.max(axis=0)
                if cleared:  # one value for the chunk: the extreme over every row and step
                    assert np.all(b == b[0]), c
                    ext = ext.min() if sgn[c] > 0.0 else ext.max()
                assert_allclose(b, ext, rtol=1e-8, atol=1e-8)
                assert np.all((ell[c] + b > 0.0) == (sgn[c] > 0.0)) == cleared, c
        # a cohort whose rows have all left gets a value that never flags,
        # and the others keep their bounds
        start, sgn = np.insert(start, 3, start[3]), np.insert(sgn, 3, -1.0)
        low = (sgn > 0.0) != decreasing
        empty = montecarlo._bounds(llr_map, montecarlo._extremes(draws, start, low), start,
                                   np.insert(ell, 3, 0.0), sgn, low)
        assert np.all(empty[:, 3] == -np.inf)
        assert np.array_equal(np.delete(empty, 3, axis=1), bounds)

    @pytest.mark.parametrize("model", [PT2, RT], ids=repr)
    def test_uniform_transform_is_elementwise(self, model):
        u = np.random.default_rng(3).random((64, 40))
        u[0, :3] = (0.0, 1.0 - 2.0**-53, model.llr_cdf(MINUS, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = model.llr_from_uniform(PLUS, u)
            for j in range(u.shape[1]):
                assert np.array_equal(block[:, j], model.llr_from_uniform(PLUS, u[:, j].copy()))
        assert np.all(np.isfinite(block))  # Generator.random can return u = 0
        # the scalar draw takes the same route
        u0 = np.random.default_rng(4).random()
        assert model.sample_llr(MINUS, np.random.default_rng(4)) == model.llr_from_uniform(
            MINUS, np.array([u0])
        )[0]


def _replay_aggregate(model, theta, horizon, trials, seed, batch_size, actions):
    """Every AggregateStats field rebuilt from the stored actions alone.

    Each trial's private draws come from its own stream; its actions are
    checked against the decision rule and replayed through scalar
    d_plus / d_minus with compensated summation.  Checkpoint sums reduce
    each batch's full-width vector in trial order with np.sum, as the
    engine promises, and batches merge in order.  Also returns, per batch,
    the per-trial checkpoint ells and stats.
    """
    ck = default_checkpoints(horizon)
    correct = theta.sign

    @functools.lru_cache(maxsize=None)
    def incr(x, a):
        return float(d_plus(model, x)) if a > 0 else float(d_minus(model, x))

    batches = []
    for lo in range(0, trials, batch_size):
        idx = range(lo, min(lo + batch_size, trials))
        nb = len(idx)
        ells = np.zeros((nb, len(ck)))
        naive = np.zeros((nb, len(ck)), dtype=bool)
        t_first, t_last = np.zeros(nb, dtype=np.int64), np.zeros(nb, dtype=np.int64)
        upsets, max_good, max_bad = (np.zeros(nb, dtype=np.int64) for _ in range(3))
        censored = np.zeros(nb, dtype=bool)
        for r, i in enumerate(idx):
            a = actions[i]
            draws = model.sample_llr(theta, _rng_for(seed, i), size=horizon)
            ell = carry = 0.0
            for t in range(1, horizon + 1):
                if t in ck:
                    k = ck.index(t)
                    ells[r, k] = ell
                    naive[r, k] = t > 1 and a[t - 2] != correct
                assert a[t - 1] == (1 if ell + draws[t - 1] > 0.0 else -1), (i, t)
                y = incr(ell, int(a[t - 1])) - carry
                s = ell + y
                carry = (s - ell) - y
                ell = s
            wrong = np.flatnonzero(a != correct) + 1
            t_first[r] = wrong[0] if len(wrong) else 0
            t_last[r] = wrong[-1] if len(wrong) else 0
            dec = extract_runs_and_upsets(a, theta)
            upsets[r] = dec.upsets
            max_good[r] = max((b.length for b in dec.blocks if b.good), default=0)
            max_bad[r] = max((b.length for b in dec.blocks if not b.good), default=0)
            censored[r] = a[-1] != correct
        batch = AggregateStats(horizon=horizon, checkpoint_times=ck, trial_count=nb)
        for name, values in (
            ("first_mistake_hist", t_first), ("upset_hist", upsets),
            ("max_good_run_hist", max_good), ("max_bad_run_hist", max_bad),
        ):
            u, c = np.unique(values, return_counts=True)
            setattr(batch, name, {int(k): int(n) for k, n in zip(u, c)})
        w = rb_mistake_weight(ells)
        batch.rb_sum = np.array([float(np.sum(w[:, k])) for k in range(len(ck))])
        batch.rb_sumsq = np.array([float(np.sum(w[:, k] * w[:, k])) for k in range(len(ck))])
        batch.naive_sum = np.array([float(np.sum(naive[:, k])) for k in range(len(ck))])
        batch.ell_sum = np.array([float(np.sum(ells[:, k])) for k in range(len(ck))])
        unc = ~censored
        batch.censored_count = int(np.sum(censored))
        batch.uncensored_count = nb - batch.censored_count
        batch.last_mistake_sum = float(np.sum(t_last[unc]))
        batch.last_mistake_sumsq = float(np.sum(t_last[unc].astype(float) ** 2))
        batch.ttl_lower_bound_sum = float(np.sum(np.where(unc, t_last + 1, horizon).astype(float)))
        per_trial = {
            "t_first": t_first, "t_last": t_last, "upsets": upsets,
            "max_good": max_good, "max_bad": max_bad, "censored": censored,
        }
        batches.append((batch, per_trial, ells))
    total = batches[0][0]
    for batch, _, _ in batches[1:]:
        total = merge_aggregates(total, batch)
    return total, [(per, ells) for _, per, ells in batches]


_AGG_FIELDS = (
    "horizon", "checkpoint_times", "trial_count", "first_mistake_hist", "upset_hist",
    "max_good_run_hist", "max_bad_run_hist", "rb_sum", "rb_sumsq", "naive_sum", "ell_sum",
    "censored_count", "uncensored_count", "last_mistake_sum", "last_mistake_sumsq",
    "ttl_lower_bound_sum",
)


class TestScalarReplayOracle:
    @pytest.mark.parametrize("model", [G2, PT2, RT], ids=lambda m: m.family)
    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    @pytest.mark.parametrize("trials,batch_size", [(3, 1), (20, 7), (2048, 2048)])
    def test_engine_equals_scalar_replay(self, model, theta, trials, batch_size):
        horizon = 60
        agg, actions = run_trials(
            model, theta, horizon, trials, master_seed=77, batch_size=batch_size,
            collect_actions=True,
        )
        assert actions.shape == (trials, horizon) and actions.dtype == np.int8
        ref, ref_batches = _replay_aggregate(model, theta, horizon, trials, 77, batch_size, actions)
        plain = run_trials(model, theta, horizon, trials, master_seed=77, batch_size=batch_size)
        for name in _AGG_FIELDS:
            for got in (agg, plain):
                a, b = getattr(got, name), getattr(ref, name)
                if isinstance(b, np.ndarray):
                    assert np.array_equal(a, b), name
                else:
                    assert a == b, name
        # per trial, a 1-ulp belief error would vanish in the sums above
        ck = default_checkpoints(horizon)
        for b, (per, ells) in enumerate(ref_batches):
            idx = list(range(b * batch_size, min((b + 1) * batch_size, trials)))
            _, got_per, _, got_ells = montecarlo._simulate_batch(model, theta, horizon, 77, idx, ck)
            assert np.array_equal(got_ells.view(np.int64), ells.view(np.int64))
            for name, values in per.items():
                assert np.array_equal(got_per[name], values), name

    def test_oracle_sees_herd_exits_and_recoveries(self):
        # the 2048-trial batches above hold first mistakes after t=1,
        # recoveries and censored trials, so every lane transition is covered
        agg = run_trials(G2, PLUS, 60, 2048, master_seed=77)
        assert any(t > 1 for t in agg.first_mistake_hist if t)
        assert any(u >= 2 for u in agg.upset_hist)
        assert 0 < agg.censored_count < agg.trial_count


@settings(max_examples=25, deadline=None)
@given(
    model=st.sampled_from([G2, PT2, PolyTailSignalModel(k=0.5), RT]),
    theta=st.sampled_from([PLUS, MINUS]),
    trials=st.integers(min_value=1, max_value=12),
    batch_size=st.integers(min_value=1, max_value=12),
    horizon=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_engine_equals_scalar_replay_property(model, theta, trials, batch_size, horizon, seed):
    agg, actions = run_trials(
        model, theta, horizon, trials, master_seed=seed, batch_size=batch_size,
        collect_actions=True,
    )
    ref, ref_batches = _replay_aggregate(model, theta, horizon, trials, seed, batch_size, actions)
    for name in _AGG_FIELDS:
        a, b = getattr(agg, name), getattr(ref, name)
        assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b, name
    ck = default_checkpoints(horizon)
    for b, (per, ells) in enumerate(ref_batches):
        idx = list(range(b * batch_size, min((b + 1) * batch_size, trials)))
        _, got_per, _, got_ells = montecarlo._simulate_batch(model, theta, horizon, seed, idx, ck)
        assert np.array_equal(got_ells.view(np.int64), ells.view(np.int64))
        for name, values in per.items():
            assert np.array_equal(got_per[name], values), name


def _same_aggregate(a, b):
    for name in _AGG_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert np.array_equal(x, y) if isinstance(y, np.ndarray) else x == y, name


class TestLockstepPasses:
    # A run's batches step together in passes of whole batches, and a pass
    # draws at most _DRAW_BUDGET values per chunk.  Neither the pass width
    # nor the chunk length may change a bit: every trial's stream and
    # cohort states are its own, and each batch is still summed alone.
    TRIALS, BATCH, HORIZON = 50, 8, 1030  # 7 divides neither 1030 nor 50 - 48
    # (pass cap, draw budget): one batch or all of them per pass, chunks of
    # 1024 and of 7 steps
    LAYOUTS = {
        "batch-per-pass/chunk-1024": (BATCH, 1024 * BATCH),
        "one-pass/chunk-1024": (TRIALS, 1024 * TRIALS),
        "batch-per-pass/chunk-7": (BATCH, 7 * BATCH),
        "one-pass/chunk-7": (TRIALS, 7 * TRIALS),
    }

    @pytest.mark.parametrize("model", [G07, PT2, RT], ids=lambda m: m.family)
    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    def test_pass_layout_does_not_change_run_trials(self, model, theta, monkeypatch):
        args = (model, theta, self.HORIZON, self.TRIALS, 41)
        kw = dict(batch_size=self.BATCH, collect_actions=True)
        ref, ref_actions = run_trials(*args, **kw)
        assert len(montecarlo._passes(self.TRIALS, self.BATCH)) == 1
        for layout, (cap, budget) in self.LAYOUTS.items():
            monkeypatch.setattr(montecarlo, "_PASS_TRIALS", cap)
            monkeypatch.setattr(montecarlo, "_DRAW_BUDGET", budget)
            agg, actions = run_trials(*args, **kw)
            _same_aggregate(agg, ref)
            assert np.array_equal(actions, ref_actions), layout
        # lanes flip back and forth, so cohorts live across chunk boundaries
        assert any(u >= 2 for u in ref.upset_hist) and ref.censored_count < self.TRIALS

    @pytest.mark.parametrize("model", [G07, PT2, RT], ids=lambda m: m.family)
    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    def test_pass_layout_does_not_change_per_trial_outputs(self, model, theta, monkeypatch):
        ck = default_checkpoints(self.HORIZON)
        whole = montecarlo._simulate_batch(model, theta, self.HORIZON, 41, range(self.TRIALS), ck, True)
        for layout, (cap, budget) in self.LAYOUTS.items():
            monkeypatch.setattr(montecarlo, "_DRAW_BUDGET", budget)
            parts = [
                montecarlo._simulate_batch(
                    model, theta, self.HORIZON, 41, range(lo, min(lo + cap, self.TRIALS)), ck, True
                )
                for lo in range(0, self.TRIALS, cap)
            ]
            for name, values in whole[1].items():
                assert np.array_equal(np.concatenate([p[1][name] for p in parts]), values), layout
            assert np.array_equal(np.concatenate([p[2] for p in parts]), whole[2]), layout
            got_ells = np.concatenate([p[3] for p in parts])
            assert np.array_equal(got_ells.view(np.int64), whole[3].view(np.int64)), layout

    def test_passes_hold_whole_batches_of_about_equal_count(self, monkeypatch):
        assert montecarlo._passes(10**4, 2048) == [(0, 6144), (6144, 10**4)]
        assert montecarlo._passes(20000, 5000) == [(0, 5000), (5000, 10000), (10000, 15000), (15000, 20000)]
        assert montecarlo._passes(5, 2048) == [(0, 5)]
        monkeypatch.setattr(montecarlo, "_PASS_TRIALS", 8)
        assert montecarlo._passes(50, 8) == [(lo, min(lo + 8, 50)) for lo in range(0, 50, 8)]

    def test_draws_stay_within_the_budget(self, monkeypatch):
        # A 5000-trial batch alone fills a pass; its chunks are shortened
        # so that no draw buffer exceeds the 2048 x 256 of a default batch.
        sizes = []
        draw_chunk = montecarlo._draw_chunk

        def spy(model, theta, streams, draws, *cohorts):
            sizes.append(draws.shape)
            return draw_chunk(model, theta, streams, draws, *cohorts)

        monkeypatch.setattr(montecarlo, "_draw_chunk", spy)
        run_trials(G1, PLUS, 450, 10000, master_seed=3, batch_size=5000)
        assert max(n * chunk for n, chunk in sizes) <= montecarlo._DRAW_BUDGET == 2048 * 256
        assert {n for n, _ in sizes} == {5000}
        # chunks of 2048 * 256 // 5000 = 104 steps: 5 per trial's 450 steps
        assert sum(chunk for _, chunk in sizes) == 2 * 450 and len(sizes) == 2 * 5


class TestCohortFork:
    # A forked cohort must carry its source's compensation term: in the
    # engine the leader's carry at a late herd exit is nonzero but too small
    # to change the rounding of D- - carry, so no end-to-end run notices it.
    ELL = np.array([4.75, -1.5, 2.25])
    CARRY = np.array([3.5e-16, -2.0e-17, 7.0e-17])
    SGN = np.array([1.0, -1.0, 1.0])

    def test_lane_flips_share_one_new_cohort_per_source(self):
        new, ell, carry, sgn = montecarlo._fork(self.ELL, self.CARRY, self.SGN, np.array([2, 1, 2]))
        assert new.tolist() == [4, 3, 4]
        assert np.array_equal(ell, [4.75, -1.5, 2.25, -1.5, 2.25])
        assert np.array_equal(carry, [3.5e-16, -2.0e-17, 7.0e-17, -2.0e-17, 7.0e-17])
        assert np.array_equal(sgn, [1.0, -1.0, 1.0, 1.0, -1.0])

    def test_herd_exits_fork_the_leader(self):
        leader = np.zeros(2, dtype=np.int64)
        new, ell, carry, sgn = montecarlo._fork(self.ELL, self.CARRY, self.SGN, leader)
        assert new.tolist() == [3, 3]
        assert (ell[3], carry[3], sgn[3]) == (4.75, 3.5e-16, -1.0)


class TestInheritedBounds:
    # A cohort forked mid-chunk starts with a bound that always flags it; at
    # the first step at which no trial switches, it and every other flagged
    # cohort are bounded by their own remaining rows.  An infinite margin
    # reads every row at every step, so the bounds must change no output.
    TRIALS, HORIZON, CHUNK = 300, 1000, 100

    @pytest.mark.parametrize("model", [G07, PT2, RT], ids=lambda m: m.family)
    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    def test_forked_cohorts_need_no_bounds_of_their_own(self, model, theta, monkeypatch):
        monkeypatch.setattr(montecarlo, "_DRAW_BUDGET", self.CHUNK * self.TRIALS)
        args = (model, theta, self.HORIZON, 8, range(self.TRIALS),
                default_checkpoints(self.HORIZON), True)
        fast = montecarlo._simulate_batch(*args)
        monkeypatch.setattr(montecarlo, "_HERD_MARGIN", math.inf)
        exact = montecarlo._simulate_batch(*args)
        _same_aggregate(fast[0], exact[0])
        for name in fast[1]:
            assert np.array_equal(fast[1][name], exact[1][name]), name
        assert np.array_equal(fast[2], exact[2])
        assert np.array_equal(fast[3].view(np.int64), exact[3].view(np.int64))
        # some trial switches twice in one chunk: a cohort born mid-chunk
        # switched again
        actions = fast[2]
        before = np.concatenate((np.full((self.TRIALS, 1), theta.sign), actions[:, :-1]), axis=1)
        trial, t = np.nonzero(actions != before)
        chunk = t // self.CHUNK
        pairs = set(zip(trial.tolist(), chunk.tolist()))
        assert len(pairs) < len(trial)


class TestHerdEdge:
    @pytest.mark.parametrize("model", [G2, PT2, RT], ids=lambda m: m.family)
    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    def test_exact_fallback_matches_the_edge_shortcut(self, model, theta, monkeypatch):
        # An infinite margin leaves no step to the edge: every step takes the
        # exact path, which transforms and compares the herd's draws one by
        # one, whether or not any of them errs.  The shortcut must agree.
        args = (model, theta, 1500, 3, list(range(300)), default_checkpoints(1500), True)
        fast = montecarlo._simulate_batch(*args)
        monkeypatch.setattr(montecarlo, "_HERD_MARGIN", math.inf)
        exact = montecarlo._simulate_batch(*args)
        assert vars(fast[0]).keys() == vars(exact[0]).keys()
        for name, value in vars(fast[0]).items():
            other = getattr(exact[0], name)
            assert np.array_equal(value, other) if isinstance(value, np.ndarray) else value == other
        for name in fast[1]:
            assert np.array_equal(fast[1][name], exact[1][name]), name
        assert np.array_equal(fast[2], exact[2])
        assert np.array_equal(fast[3].view(np.int64), exact[3].view(np.int64))
        # the run left the herd mid-chunk, so lane-only transforms were exercised
        assert any(1 < t <= 1024 for t in fast[0].first_mistake_hist)

    @staticmethod
    def _dense_uniforms(model):
        """Uniforms on a dense grid plus ulp-spaced runs at every branch point and knot."""
        centers = [0.5]
        if isinstance(model, PolyTailSignalModel):
            centers.append(model.c / model.k)  # the power/spline switch
            w = model._pos_branch_ppf.x  # spline knots in w = log(1 - u)
            centers.extend(-np.expm1(w[w > math.log(2.0**-53)][::50]))
        else:
            centers.extend(model._cdf_minus[:60])  # the atoms' jumps
            centers.extend(model._cdf_plus[:60])
        runs = [
            u + np.arange(-64, 65) * np.spacing(u) for u in np.asarray(centers, dtype=float)
        ] + [u + np.linspace(-1e-7, 1e-7, 257) for u in centers]
        u = np.concatenate([np.linspace(0.0, 1.0 - 2.0**-53, 400001)] + runs)
        return np.unique(u[(u >= 0.0) & (u < 1.0)])

    @pytest.mark.parametrize(
        "model",
        [PolyTailSignalModel(k=k) for k in (0.5, 2.0, 4.0)] + [RT],
        ids=lambda m: f"{m.family}-{getattr(m, 'k', '')}",
    )
    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    def test_transform_is_monotone_within_the_margin(self, model, theta):
        # The edge shortcut reads a step's herd minimum off its two extreme
        # uniforms.  That is sound if llr_from_uniform is monotone up to the
        # margin: no value falls below a value at a smaller (or, for a
        # decreasing map, larger) uniform by more than _HERD_MARGIN relative.
        x = model.llr_from_uniform(theta, self._dense_uniforms(model))
        if x[-1] < x[0]:  # decreasing in u: read the grid backwards
            x = x[::-1]
        slack = montecarlo._HERD_MARGIN * (1.0 + np.abs(x))
        assert np.all(x >= np.maximum.accumulate(x) - slack)
        assert np.all(x <= np.minimum.accumulate(x[::-1])[::-1] + slack)


class TestCohortLoop:
    # A Gaussian or PolyTail pass runs every step in C's cohort_steps, through
    # the pass's _native.cohort_stepper; every other pass runs the Python step
    # (montecarlo._python_stepper), which is the reference.
    @pytest.mark.parametrize("model", [G1, G07, PT2, RT, LogisticModel()],
                             ids=["gaussian", "gaussian-sigma0.7", "polytail", "ratetarget", "logistic"])
    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    def test_run_trials_equals_the_python_loop(self, model, theta, native_loop, python_loop,
                                               monkeypatch):
        # chunks of 50 steps; checkpoints inside quiet stretches and at chunk edges
        monkeypatch.setattr(montecarlo, "_DRAW_BUDGET", 50 * 60)
        args = (model, theta, 700, 60, 13, [1, 3, 49, 50, 51, 120, 333, 699, 700])
        kw = dict(batch_size=16, collect_actions=True)
        agg, actions = run_trials(*args, **kw)
        ref, ref_actions = python_loop(functools.partial(run_trials, **kw), *args)
        _same_aggregate(agg, ref)
        assert np.array_equal(actions, ref_actions)
        assert sum(c for t, c in ref.first_mistake_hist.items() if t) > 0

    @staticmethod
    def _python_steps(model, ell, carry, sgn, steps):
        for _ in range(steps):
            y = montecarlo._increment(model, ell, sgn) - carry
            s2 = ell + y
            ell, carry = s2, (s2 - ell) - y
        return ell, carry

    @staticmethod
    def _cohorts(case, model):
        """Bulk beliefs; beliefs just past the tail switch, where a Gaussian
        step calls _increment throughout; or beliefs below the deep switch
        (ndtr < 1e-300), which the first step leaves."""
        # x = sgn * ell = 5.75 tau + 2 / sigma^2 puts b- = log ndtr(5.75) at
        # -4.5e-9, just above -1e-8: x = 13.5 at sigma = 1 (20.5 at 0.7)
        edge = 5.75 * getattr(model, "tau", 2.0) + 2.0 / getattr(model, "sigma", 1.0) ** 2
        return {
            "bulk": ([0.3, -2.5, 4.0, -0.1], [1.0, -1.0, 1.0, 1.0]),
            "tail": ([0.3, edge, -edge - 0.1], [1.0, 1.0, -1.0]),
            "deep": ([0.3, -80.0, 150.0], [1.0, 1.0, -1.0]),
        }[case]

    @staticmethod
    def _no_flag(sgn, steps):
        """Bounds that flag no cohort at any of ``steps`` steps: +inf for a cohort
        playing +1, -inf for one playing -1."""
        return np.tile(np.where(sgn > 0.0, np.inf, -np.inf), (steps, 1))

    @staticmethod
    def _counted(calls):
        def increment(*args):
            calls.append(1)
            return montecarlo._increment(*args)

        return increment

    @staticmethod
    def _stepper(lib, model, increment):
        """A pass's C stepper for ``model`` as ``steps(cohorts, bounds, s, stop)``, every cohort live.

        Its chunk holds one row, which the steps read only if a bound flags
        it, so ``bounds`` must flag nothing (``_no_flag``); a step that
        forked or ended a run would fail the call.
        """
        book = np.zeros((6, 1), dtype=np.int64)
        llr = _native.llr_transform(lib, model, 1.0)
        stepper = _native.cohort_stepper(lib, model, increment, llr, book, None, 10**9, 1.0, False, 0.0)
        one = np.zeros(1, dtype=np.int64)

        def steps(cohorts, bounds, s, stop):
            cohort_count = len(cohorts[0])
            got, n, room = stepper(cohorts, bounds, s, stop,
                                   (np.zeros((1, len(bounds))), one, one, 1, cohort_count))
            assert (n, room) == (cohort_count, 0) and not book.any()
            return got

        return steps

    @pytest.mark.parametrize("case", ["bulk", "tail", "deep"])
    @pytest.mark.parametrize("model", [G1, G07], ids=["sigma1", "sigma0.7"])
    def test_direct_call_stops_at_the_limit(self, case, model, native_loop):
        ell0, sgn = (np.array(v) for v in self._cohorts(case, model))
        carry0 = np.full(len(ell0), 1e-17)
        calls, ell, carry = [], ell0.copy(), carry0.copy()
        got = self._stepper(native_loop, model, self._counted(calls))((ell, carry, sgn),
                                                                      self._no_flag(sgn, 40), 3, 30)
        ref = self._python_steps(model, ell0, carry0, sgn, 27)
        assert got == 30
        assert ell.tobytes() == ref[0].tobytes() and carry.tobytes() == ref[1].tobytes()
        assert len(calls) == {"bulk": 0, "tail": 27, "deep": 1}[case]

    def test_direct_call_refuses_what_it_cannot_read(self, native_loop):
        ell, sgn = (np.array(v) for v in self._cohorts("tail", G1))  # every step calls the increment
        carry = np.zeros(len(ell))
        bounds = self._no_flag(sgn, 5)

        def call(cohorts, bounds, s, stop, increment=montecarlo._increment):
            return self._stepper(native_loop, G1, increment)(cohorts, bounds, s, stop)

        with pytest.raises(ValueError, match="bounds"):
            call((ell, carry, sgn), np.zeros((5, 2)), 0, 5)  # no column for cohort 2
        with pytest.raises(ValueError, match="bounds"):
            call((ell, carry, sgn), bounds, 0, 6)  # past the chunk
        with pytest.raises(TypeError, match="float64"):
            call((ell, carry[:1], sgn), bounds, 0, 5)
        with pytest.raises(TypeError, match="float64"):
            call((ell, carry, sgn), bounds, 0, 5, increment=lambda m, e, s: e[:1])
        with pytest.raises(ZeroDivisionError):
            call((ell, carry, sgn), bounds, 0, 5, increment=lambda m, e, s: 1 / 0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("k", [0.5, 2.0, 7.3])
    def test_fused_polytail_step_equals_the_increment(self, k, sign, native_loop):
        # A step at a = sgn * ell on knots, next to knots, at 1 and at 60 (11.5
        # at k = 7.3, whose tail branch starts near 12) is fused: no Python call
        model = PolyTailSignalModel(k)
        top = 60.0 if k < 7.0 else 11.5
        knots = model._tail_nodes[0]
        sample = knots[knots <= top][::37]
        a = np.concatenate([sample, np.nextafter(sample, 0.0), np.nextafter(sample, 99.0), [1.0, top]])
        a = a[(1.0 <= a) & (a <= top)]
        sgn = np.full(len(a), sign)
        ell0, carry0 = sign * a, np.linspace(-3e-16, 3e-16, len(a))
        bounds = self._no_flag(sgn, 1)
        calls, (ell, carry) = [], (ell0.copy(), carry0.copy())
        got = self._stepper(native_loop, model, self._counted(calls))((ell, carry, sgn), bounds, 0, 1)
        ref = self._python_steps(model, ell0, carry0, sgn, 1)
        assert got == 1 and calls == []
        assert ell.tobytes() == ref[0].tobytes() and carry.tobytes() == ref[1].tobytes()

    @pytest.mark.parametrize("case, a, steps", [
        ("gap", -0.5, 1),  # D+ > 1 in the gap (-1, 1): a leaves it at once
        ("past-60", 61.0, 4),  # a = sgn * ell never falls
        ("nan", math.nan, 4),
        ("tail", 30.0, 4),  # b- > -1e-8 at k = 7.3
    ])
    def test_polytail_steps_in_another_branch_call_the_increment(self, case, a, steps,
                                                                  native_loop):
        # Only a NaN belief and the tail branch leave a PolyTail step to Python
        calls_per_step = 1 if case in ("nan", "tail") else 0
        model = PolyTailSignalModel(7.3 if case == "tail" else 2.0)
        sgn = np.array([1.0, -1.0, -1.0])
        ell0, carry0 = np.array([3.0, -5.0, -a]), np.full(3, 1e-17)
        bounds = self._no_flag(sgn, steps)
        calls, (ell, carry) = [], (ell0.copy(), carry0.copy())
        got = self._stepper(native_loop, model, self._counted(calls))((ell, carry, sgn), bounds, 0,
                                                                      steps)
        ref = self._python_steps(model, ell0, carry0, sgn, steps)
        assert got == steps and len(calls) == calls_per_step * steps
        assert ell.tobytes() == ref[0].tobytes() and carry.tobytes() == ref[1].tobytes()

    @pytest.mark.parametrize("k", [0.5, 2.0])
    def test_every_polytail_branch_in_one_step(self, k, native_loop):
        # Cohorts on every branch of a = sgn * ell at once: a <= -1 with the
        # spline and past -60 with the series, the gap, a >= 1 with the spline
        # and past 60 with the series; 61 and 75 share one series loop, whose
        # stop depends on both, and so do -61 and -75.
        model = PolyTailSignalModel(k)
        a = np.array([-75.0, -61.0, -30.0, -1.0, -0.5, 0.5, 1.0, 30.0, 60.0, 61.0, 75.0])
        sgn = np.repeat([1.0, -1.0], len(a))
        ell0, carry0 = sgn * np.tile(a, 2), np.linspace(-3e-16, 3e-16, 2 * len(a))
        steps = 6
        calls, (ell, carry) = [], (ell0.copy(), carry0.copy())
        got = self._stepper(native_loop, model, self._counted(calls))(
            (ell, carry, sgn), self._no_flag(sgn, steps), 0, steps)
        ref = self._python_steps(model, ell0, carry0, sgn, steps)
        assert got == steps and calls == []
        assert ell.tobytes() == ref[0].tobytes() and carry.tobytes() == ref[1].tobytes()

    @pytest.mark.parametrize("k", [0.5, 2.0, 7.3])
    def test_c_spline_equals_scipy_bit_for_bit(self, k, native_loop, own_tables):
        # The log-T spline on even knots and the quantile spline on uneven ones,
        # against scipy's CubicSpline through the same nodes: the coefficients,
        # the numpy reference (also past the knots, at +-inf and at NaN) and C's
        # evaluation, both by spline_values and by the spline's own call
        from scipy.interpolate import CubicSpline

        model = PolyTailSignalModel(k)
        x_nodes, log_t = model._tail_nodes
        w_nodes = np.log(model.c) + log_t
        pairs = [(model._log_tail_spline, CubicSpline(x_nodes, log_t)),
                 (model._pos_branch_ppf, CubicSpline(w_nodes[::-1], x_nodes[::-1]))]
        for spline, scipy_spline in pairs:
            assert spline.x.tobytes() == scipy_spline.x.tobytes()
            assert spline.c.tobytes() == scipy_spline.c.tobytes()
            knots = spline.x
            x = np.concatenate([
                knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                np.random.default_rng(5).uniform(knots[0], knots[-1], 10**5),
            ])
            outside = np.array([knots[0] - 3.0, knots[0] - 1e-9, knots[-1] + 1e-9, knots[-1] + 0.5, math.nan])
            for v in (x, outside):
                want = scipy_spline(v).tobytes()
                assert spline.reference(v).tobytes() == want
                assert _native.spline_values(native_loop, spline, v).tobytes() == want
            assert np.isnan(spline.reference(outside)).tolist() == [False] * 4 + [True]
            far = np.array([-np.inf, np.inf, -1e300, 1e300])  # inf - inf and overflow, silent in PPoly
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert spline.reference(far).tobytes() == scipy_spline(far).tobytes()
            assert _native.checked_spline(native_loop, spline) is not None
            assert spline(x).tobytes() == scipy_spline(x).tobytes()
            assert spline._call  # the call ran C's checked evaluation

    @staticmethod
    def _inside(knots):
        # every knot, both neighbours of each, and 10**4 uniform points, strictly inside the knots
        v = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                            np.random.default_rng(6).uniform(knots[0], knots[-1], 10**4)])
        return v[(knots[0] < v) & (v < knots[-1])]

    def test_the_spline_table_bounds_each_interval(self, native_loop):
        # C's bucket of a value inside the knots, (v - x0) / (x[-1] - x0) * (n - 1) cut
        # to n - 2, holds its interval between table entries b and b + 1, which on the
        # even log-T knots and on the uneven quantile knots are at most 2 apart
        for spline in (PT2._log_tail_spline, PT2._pos_branch_ppf):
            knots = spline.x
            n, tab = len(knots), _native._spline_table(native_loop, np.ascontiguousarray(knots))
            v = self._inside(knots)
            guess = (v - knots[0]) / (knots[-1] - knots[0]) * float(n - 1)
            b = np.where(guess < n - 2, guess, n - 2).astype(np.int64)
            interval = np.searchsorted(knots, v, side="right") - 1
            assert np.all(tab[b] <= interval) and np.all(interval <= tab[b + 1])
            assert tab[0] == 0 and tab[-1] == n - 2 and 0 <= np.diff(tab).min() <= np.diff(tab).max() <= 2

    @pytest.mark.parametrize("entry", ["first", "last"])
    def test_a_spline_table_that_misses_still_finds_the_interval(self, entry, native_loop, monkeypatch):
        # The table only narrows the search: with every entry at the first interval
        # (or the last) a value past (or before) them is bisected beyond, same bits
        spline = PT2._pos_branch_ppf
        n = len(spline.x)
        monkeypatch.setattr(_native, "_spline_table",
                            lambda lib, knots: np.full(n, 0 if entry == "first" else n - 2, np.int32))
        v = self._inside(spline.x)
        assert _native.spline_values(native_loop, spline, v).tobytes() == spline.reference(v).tobytes()

    def test_a_spline_that_fails_its_check_leaves_every_step_to_python(self, native_loop,
                                                                       monkeypatch, own_tables):
        model = PolyTailSignalModel(2.0)  # a spline of its own, not checked yet
        spline_at = _native.spline_values
        monkeypatch.setattr(_native, "spline_values",
                            lambda *args: np.nextafter(spline_at(*args), 0.0))
        callers, increment = [], montecarlo._increment

        def spy_increment(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return increment(*args)

        monkeypatch.setattr(montecarlo, "_increment", spy_increment)
        agg, actions = run_trials(model, PLUS, 600, 64, 7, collect_actions=True)
        assert _native.checked_spline(native_loop, model._log_tail_spline) is None
        assert model._log_tail_spline._call is False  # the spline's own calls take its reference
        # C steps no step of the pass: each of the 600 calls it once from the Python step
        assert callers == ["python_steps"] * 600
        monkeypatch.undo()
        ref, ref_actions = run_trials(PT2, PLUS, 600, 64, 7, collect_actions=True)
        _same_aggregate(agg, ref)
        assert np.array_equal(actions, ref_actions)

    @pytest.mark.parametrize("model", [G1, PT2], ids=lambda m: m.family)
    def test_python_increment_runs_only_on_flagged_steps(self, model, native_loop, monkeypatch):
        # It runs on no step of a Gaussian or PolyTail pass, flagged ones
        # included: C settles those, reading and mapping the flagged rows,
        # ending the runs of those that switch, forking their cohorts and
        # rebounding idle ones; it ends every run at the horizon and adds each
        # step's increment fused.  So the pass calls none of the Python step's
        # helpers, yet its trials switch.
        calls, built = _spy_calls(monkeypatch, "_fork", "_close_runs", "_increment"), []
        stepper = _native.cohort_stepper
        monkeypatch.setattr(_native, "cohort_stepper",
                            lambda lib, model, *args: built.append(model) or stepper(lib, model, *args))
        agg = run_trials(model, PLUS, 3000, 2048, master_seed=0)
        assert built == [model]  # one pass, one stepper
        assert calls == []
        assert sum(c for t, c in agg.first_mistake_hist.items() if t) > 0
        assert sum(c for u, c in agg.upset_hist.items() if u > 1) > 0  # switches back and forth

    @pytest.mark.parametrize("model", [RT, LogisticModel(), SubGaussian(1.0), SubPolyTail(2.0),
                                       "polytail-failed-spline"],
                             ids=["ratetarget", "logistic", "gaussian-subclass", "polytail-subclass",
                                  "polytail-failed-spline"])
    def test_a_pass_c_cannot_step_runs_the_python_step(self, model, native_loop, monkeypatch,
                                                        own_tables):
        # A model that C cannot map and step gets no C stepper: the whole pass,
        # quiet steps included, runs the Python step, and cohort_steps is never entered
        if model == "polytail-failed-spline":
            model = PolyTailSignalModel(2.0)  # a spline of its own, which fails its check
            spline_at = _native.spline_values
            monkeypatch.setattr(_native, "spline_values",
                                lambda *args: np.nextafter(spline_at(*args), 0.0))
        built, entered, stepper = [], [], _native.cohort_stepper
        monkeypatch.setattr(_native, "cohort_stepper",
                            lambda *args: built.append(stepper(*args)) or built[-1])
        monkeypatch.setattr(native_loop, "cohort_steps", lambda *args: entered.append(args))
        calls = _spy_calls(monkeypatch, "_fork", "_close_runs")
        run_trials(model, PLUS, 600, 64, 7)
        assert built == [None] and entered == []
        assert calls.count("_fork") > 0  # the Python step settled the switches


def _spy_calls(monkeypatch, *names):
    """The names of montecarlo's functions ``names`` in the order they are called, a list."""
    calls = []
    for name in names:
        def spy(*args, _name=name, _f=getattr(montecarlo, name)):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(montecarlo, name, spy)
    return calls


class TestFlaggedStepsInC:
    # A pass's stepper settles its flagged steps in C; the Python step, which
    # takes every step without the library, is its reference bit for bit.
    TRIALS, HORIZON, CHUNK = 300, 1000, 100
    CKPT = (1, 2, 50, 99, 100, 101, 250, 333, 999, 1000)  # inside chunks and at their edges

    @classmethod
    def _args(cls, model, theta):
        return model, theta, cls.HORIZON, 8, range(cls.TRIALS), cls.CKPT, True

    @staticmethod
    def _same(got, ref):
        """_lockstep's outputs, C's and the Python step's, bit for bit."""
        assert got[0].keys() == ref[0].keys()
        for name in ref[0]:
            assert np.array_equal(got[0][name], ref[0][name]), name
        assert np.array_equal(got[1], ref[1])  # naive
        assert np.array_equal(got[2], ref[2])  # actions
        assert np.array_equal(got[3].view(np.int64), ref[3].view(np.int64))

    @pytest.mark.parametrize("model", [G07, PT2, RT], ids=lambda m: m.family)
    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    def test_c_settles_as_the_python_step(self, model, theta, native_loop, python_loop,
                                          monkeypatch):
        monkeypatch.setattr(montecarlo, "_DRAW_BUDGET", self.CHUNK * self.TRIALS)
        args = self._args(model, theta)
        got = montecarlo._lockstep(*args)
        self._same(got, python_loop(montecarlo._lockstep, *args))
        actions = got[2]
        # forks mid-chunk, and a cohort born mid-chunk switched again
        before = np.concatenate((np.full((self.TRIALS, 1), theta.sign), actions[:, :-1]), axis=1)
        trial, t = np.nonzero(actions != before)
        assert np.any(t % self.CHUNK > 0)
        assert len(set(zip(trial.tolist(), (t // self.CHUNK).tolist()))) < len(trial)

    @pytest.mark.parametrize("model", [G2, PT2], ids=lambda m: m.family)
    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    def test_the_horizon_ends_wrong_runs_as_the_python_step(self, model, theta, native_loop,
                                                            python_loop):
        # C ends every run at the pass's last step; at a short horizon some
        # trials' last runs are wrong
        args = (model, theta, 12, 8, range(self.TRIALS), (1, 5, 12), True)
        got = montecarlo._lockstep(*args)
        self._same(got, python_loop(montecarlo._lockstep, *args))
        assert got[0]["censored"].any() and (got[0]["max_bad"] > 0).any()

    @pytest.mark.parametrize("model", [G07, PT2], ids=lambda m: m.family)
    def test_cohorts_past_the_spare_columns_widen_them(self, model, native_loop, python_loop,
                                                       monkeypatch):
        # Each chunk starts with one spare cohort column, which the first fork
        # of more than one cohort outgrows: C hands the step back with the
        # columns it needs, and settles it once Python has widened the arrays.
        monkeypatch.setattr(montecarlo, "_SPARE_COHORTS", 1)
        rooms, stepper = [], _native.cohort_stepper

        def spy_stepper(*args):
            steps = stepper(*args)

            def spy_steps(*call):
                got = steps(*call)
                rooms.append(got[2])
                return got

            return spy_steps

        monkeypatch.setattr(_native, "cohort_stepper", spy_stepper)
        calls = _spy_calls(monkeypatch, "_fork", "_close_runs")
        args = self._args(model, PLUS)
        got = montecarlo._lockstep(*args)
        assert sum(room > 0 for room in rooms) > 1 and calls == []
        self._same(got, python_loop(montecarlo._lockstep, *args))

    @staticmethod
    def _flagged_step(ell0, cap):
        """Cohort 0 plays +1 at ell0 and cohort 1 -1 at -0.25, in cap columns, and both bounds
        flag: rows 0 and 1 in cohort 0 draw LLR -16, rows 2 and 3 in cohort 1 LLR 20, so every
        row switches at step 1."""
        draws = np.repeat([[-9.0], [9.0]], 2, axis=0) * np.ones(5)
        cohorts = np.zeros((3, cap))
        cohorts[:, :2] = [[ell0, -0.25], [0.125, -0.0625], [1.0, -1.0]]
        bounds = np.tile([-np.inf, np.inf] + [0.0] * (cap - 2), (5, 1))
        return cohorts, bounds, draws, np.array([0, 0, 1, 1]), np.arange(4)

    def test_a_step_past_the_spare_columns_is_handed_back_unchanged(self, native_loop):
        book = np.zeros((6, 4), dtype=np.int64)
        steps = _native.cohort_stepper(native_loop, G1, montecarlo._increment, None, book, None,
                                       10, 1.0, False, 0.0)
        for cap, want in ((3, (0, 2, 4)), (4, (1, 4, 0))):
            cohorts, bounds, draws, coh, trial = self._flagged_step(0.5, cap)
            before = cohorts.copy()
            got = steps(cohorts, bounds, 0, 1, (draws, coh.copy(), trial, 1, 2))
            assert got == want
            if cap == 3:  # two forks need four columns: the step is handed back
                assert cohorts.tobytes() == before.tobytes() and not book.any()
                continue
            # room for both forks: every row switches at step 1, into a cohort with its
            # source's ell and carry, and the step adds their increments
            assert book[0].tolist() == [1] * 4
            ell, carry, sgn = montecarlo._fork(*before[:, :2], np.array([0, 1]))[1:]
            y = montecarlo._increment(G1, ell, sgn) - carry
            ref = np.array([ell + y, (ell + y - ell) - y, sgn])
            assert cohorts.tobytes() == ref.tobytes()
        for bad in (np.array([0, 0, 1, 2]), np.array([0, -1, 1, 1])):  # cohorts 0 and 1 are live
            with pytest.raises(ValueError, match="live cohort"):
                steps(cohorts, bounds, 0, 1, (draws, bad, trial, 1, 2))
        with pytest.raises(ValueError, match="trial of the book"):
            steps(cohorts, bounds, 0, 1, (draws, coh, np.array([0, 1, 2, 4]), 1, 2))

    @pytest.mark.parametrize("cap", [3, 4])
    def test_a_flagged_nan_belief_steps_as_the_python_step(self, cap, native_loop):
        # Cohort 0 plays +1 at a NaN belief: its bound flags it, and each of its
        # rows switches, as in the Python step, whose NaN belief C carries too
        llr, books = functools.partial(montecarlo._llr, G1, PLUS), np.zeros((2, 6, 4), dtype=np.int64)
        steppers = (_native.cohort_stepper(native_loop, G1, montecarlo._increment, llr, books[0], None, 10,
                                           1.0, False, montecarlo._HERD_MARGIN),
                    montecarlo._python_stepper(G1, llr, books[1], None, 10, 1.0, False))
        out = []
        for steps, book in zip(steppers, books):
            cohorts, bounds, draws, coh, trial = self._flagged_step(math.nan, cap)
            got = steps(cohorts, bounds, 0, 1, (draws, coh, trial, 1, 2))
            out.append((got, cohorts.tobytes(), book.tobytes(), coh.tobytes()))
        assert out[0] == out[1]
        assert out[0][0] == ((1, 4, 0) if cap == 4 else (0, 2, 4))
        if cap == 4:
            assert np.isnan(np.frombuffer(out[0][1])[[0, 2]]).all()


class TestPolyTailTransform:
    # A pass maps a PolyTail model's uniforms by the C transform that
    # _native.llr_transform hands it, which must equal llr_from_uniform
    # (_ppf_minus) bit for bit; a transform that fails its once-per-model
    # check leaves every draw to Python.
    @staticmethod
    def _uniforms(model):
        """0, 2**-53 and 1 - 2**-53, c/k and its neighbours, the u at which log(1 - u) is
        each knot of the quantile spline and their neighbours, and 10**5 random values."""
        ck = model.c / model.k
        at = -np.expm1(model._pos_branch_ppf.x)
        u = np.concatenate([[0.0, 2.0**-53, ck, np.nextafter(ck, 0.0), np.nextafter(ck, 1.0),
                             1.0 - 2.0**-53], at, np.nextafter(at, 0.0), np.nextafter(at, 1.0),
                            np.random.default_rng(11).random(10**5)])
        return u[u < 1.0]

    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    @pytest.mark.parametrize("k", [0.5, 2.0, 7.3])
    def test_c_transform_equals_python_bit_for_bit(self, k, theta, native_loop):
        model = PolyTailSignalModel(k)
        u = self._uniforms(model)
        ref = model.llr_from_uniform(theta, u)
        transform = _native.llr_transform(native_loop, model, theta.sign)
        in_place = u.copy()
        assert transform(in_place) is in_place
        assert in_place.tobytes() == ref.tobytes()
        assert _native.checked_transform(native_loop, model)
        rows = u[:4 * 1000].reshape(4, 1000).copy()  # a block of rows, as a pass maps them
        llr = montecarlo._llr_map(model, theta, native_loop)
        assert llr(rows).tobytes() == ref[:4000].reshape(4, 1000).tobytes()

    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    def test_a_pass_maps_in_place_with_its_lookups_made_once(self, theta, native_loop, monkeypatch):
        u = self._uniforms(PT2)
        ref = PT2.llr_from_uniform(theta, u)
        rows = u.copy()
        llr = montecarlo._llr_map(PT2, theta, native_loop)
        assert llr(rows) is rows and rows.tobytes() == ref.tobytes()
        for model, lib in ((PT2, None), (G1, native_loop), (RT, native_loop)):  # these map by _llr
            assert montecarlo._llr_map(model, theta, lib).func is montecarlo._llr
        # a pass checks the transform once and builds one map, however often it maps
        checks, checked, maps, transform = [], _native.checked_transform, [], _native.llr_transform
        monkeypatch.setattr(_native, "checked_transform",
                            lambda lib, model: checks.append(model) or checked(lib, model))
        monkeypatch.setattr(_native, "llr_transform", lambda lib, model, sign: maps.append(
            (model, sign)) or transform(lib, model, sign))
        agg = run_trials(PT2, theta, 600, 64, 7)
        assert checks == [PT2] and maps == [(PT2, theta.sign)]
        monkeypatch.undo()  # the same run, each array mapped by _llr
        monkeypatch.setattr(montecarlo, "_llr_map",
                            lambda model, theta, lib: functools.partial(montecarlo._llr, model, theta))
        _same_aggregate(agg, run_trials(PT2, theta, 600, 64, 7))

    def test_c_transform_refuses_arrays_it_cannot_read(self, native_loop):
        # the map writes in place: C takes only writable C-contiguous float64 arrays
        transform = _native.llr_transform(native_loop, PT2, 1.0)
        u = np.linspace(0.0, 0.9, 12)
        readonly = u.copy()
        readonly.flags.writeable = False
        for bad, error, match in ((u.astype(np.float32), TypeError, "float64"),
                                  (u.reshape(3, 4).T, ValueError, "contiguous"),
                                  (np.linspace(0.0, 0.9, 24)[::2], ValueError, "contiguous"),
                                  (readonly, ValueError, "read-only")):
            before = bad.copy()
            with pytest.raises(error, match=match):
                transform(bad)
            assert bad.tobytes() == before.tobytes()

    def test_a_transform_that_fails_its_check_leaves_every_draw_to_python(self, native_loop,
                                                                          monkeypatch, own_tables):
        model = PolyTailSignalModel(2.0)  # a transform of its own, not checked yet
        stacks, callers = [], []
        transform, llr_from_uniform = _native.polytail_transform, model.llr_from_uniform

        def spy_transform(*args):
            mapped = transform(*args)

            def off_by_an_ulp(u):
                stacks.append({frame.name for frame in traceback.extract_stack()})
                return np.nextafter(mapped(u), 0.0)

            return off_by_an_ulp

        def spy_llr(self, theta, u):
            callers.append(sys._getframe(1).f_code.co_name)
            return llr_from_uniform(theta, u)

        monkeypatch.setattr(_native, "polytail_transform", spy_transform)
        monkeypatch.setattr(PolyTailSignalModel, "llr_from_uniform", spy_llr)
        agg, actions = run_trials(model, PLUS, 600, 64, 7, collect_actions=True)
        assert not _native.checked_transform(native_loop, model)
        assert _native.llr_transform(native_loop, model, 1.0) is None
        # the C transform ran in the check only; the bounds and the rows read took Python's
        assert stacks and all("checked_transform" in names for names in stacks)
        assert "_llr" in callers
        monkeypatch.undo()
        ref, ref_actions = run_trials(PT2, PLUS, 600, 64, 7, collect_actions=True)
        assert _native.checked_transform(native_loop, PT2)
        _same_aggregate(agg, ref)
        assert np.array_equal(actions, ref_actions)


class TestExactTypes:
    # _native chooses a model's C kernels by its exact type, since a subclass
    # may change the law.  These subclasses keep their base's law, so they
    # take the Python map and the Python increment and give the base's bits.
    SUBCLASSES = [(SubGaussian(1.0), G1), (SubPolyTail(2.0), PT2)]

    @pytest.mark.parametrize("sub, base", SUBCLASSES, ids=["gaussian", "polytail"])
    def test_a_subclass_takes_no_c_kernel(self, sub, base, native_loop):
        book = np.zeros((6, 1), dtype=np.int64)
        for theta in (PLUS, MINUS):
            assert _native.llr_transform(native_loop, sub, theta.sign) is None
            llr = montecarlo._llr_map(sub, theta, native_loop)
            assert llr.func is montecarlo._llr
            assert _native.cohort_stepper(native_loop, sub, montecarlo._increment, llr, book, None,
                                          10, theta.sign, False, 0.0) is None
        # bulk beliefs, whose increments the base computes in C, as the subclass's Python step does
        ell0, sgn = np.array([0.5, -3.0, 4.0, 1.5]), np.array([1.0, 1.0, -1.0, -1.0])
        carry0, steps = np.full(4, 1e-17), 25
        calls, ell, carry = [], ell0.copy(), carry0.copy()
        stepper = TestCohortLoop._stepper(native_loop, base, TestCohortLoop._counted(calls))
        assert stepper((ell, carry, sgn), TestCohortLoop._no_flag(sgn, steps), 0, steps) == steps
        ref = TestCohortLoop._python_steps(sub, ell0, carry0, sgn, steps)
        assert ell.tobytes() + carry.tobytes() == ref[0].tobytes() + ref[1].tobytes()
        assert calls == []

    @pytest.mark.parametrize("sub, base", SUBCLASSES, ids=["gaussian", "polytail"])
    @pytest.mark.parametrize("theta", [PLUS, MINUS], ids=str)
    def test_a_subclass_runs_as_its_base(self, sub, base, theta, native_loop, python_loop):
        args = (theta, 600, 64, 7)
        run = functools.partial(run_trials, collect_actions=True)
        ref, ref_actions = run(base, *args)
        assert sum(c for t, c in ref.first_mistake_hist.items() if t) > 0
        for agg, actions in (run(sub, *args), python_loop(run, sub, *args)):
            _same_aggregate(agg, ref)
            assert np.array_equal(actions, ref_actions)
        for i in range(8):
            baseline = simulate_baseline_llr(base, theta, 600, 7, i)
            assert simulate_baseline_llr(sub, theta, 600, 7, i) == baseline
            assert python_loop(simulate_baseline_llr, sub, theta, 600, 7, i) == baseline
