"""Reproducible Monte Carlo over full action trajectories.

Each trial owns a counter-based random stream keyed by (master_seed,
trial_index), so results are a pure function of the seed and trial index
regardless of batch size or the ``threads`` setting.  The key is numpy's
``SeedSequence(master_seed, spawn_key=(trial_index,))`` key, computed for a
whole batch of trials in one vectorised pass of that algorithm.  Philox is
counter-based, so a stream needs no Python object: a batch's streams are one
array whose row j holds stream j's ``Philox`` state words, and one call of
``_native``'s C fill steps them all for a chunk of draws as numpy's samplers
do: uniforms and the ziggurat's fast path inline, the rare wedge or tail
word through numpy's own normal sampler, so each row equals
``Generator(Philox)``'s draws bit for bit.  A lockstep chunk's fill splits
its rows over up to one thread per CPU that the process may run on
(``_native.fill_split``); every stream is its own, so no draw depends on it.
Where that library is missing, and for models that only define
``sample_llr``, one ``Generator`` steps the rows in turn from their states.
Trials are simulated in lockstep, stepped by cohort: trials with equal
(ell, carry, action) step identically, so each trial points into a small
array of cohort states and the signed increment runs once per cohort (a
lookup in a per-cell table for rate-target models).  Every trial starts in
cohort 0, on the deterministic path ell*.  Each chunk of steps orders the
streams by cohort, and the C fill folds each row, while it is in cache,
into its cohort's per-step extreme on the erring side.  From these
extremes every cohort is bounded: a cohort whose belief keeps its action
against its extreme draw over the whole chunk is cleared for the chunk,
the others are bounded per step; a cohort whose bound keeps its action
costs one comparison, and only the rows of a cohort that the bound could
flip are read exactly.  A switch forks the switching trials' cohort into
one with the other action and ends a run in each trial's run book; the
horizon ends the last runs.  A fork is flagged at every step until one at
which no trial switches; there every flagged cohort is bounded by its own
remaining rows.  Draws stay raw, uniforms for inversion-sampled models
and standard normals for Gaussian ones; only the bounds and the draws read
exactly are mapped to LLRs, each map monotone, so a mapped extreme is the
extreme LLR.  Which C kernel serves a model is ``_native``'s choice, made
once per pass by two builders: ``llr_transform`` gives the raw-to-LLR map
(PolyTail's C quantile transform, else None and ``_llr`` in Python), and
``cohort_stepper`` the stepper.  One engine steps a whole pass: C for a
Gaussian model, or a PolyTail one whose C spline and transform pass their
checks, where the library loads; its stepper settles the flagged steps too
(it reads and maps the flagged rows, ends runs, forks cohorts and
rebounds idle ones) and computes the increments by numpy's and scipy's
own ufuncs and, for PolyTail, the spline evaluation redone in C; the
Python step (``_python_stepper``), its reference, for every other model
and without the library.  Checkpoint beliefs are
summed after the last step, so the aggregates are bit-identical to
stepping every trial.  The observed-signals baseline of one trial
(``simulate_baseline_llr``) draws its stream chunk by chunk through the
same sampler, maps it by the same ``_llr_map`` and sums it along time in
numpy; its mean over trials, t E+[L], is exact (``SignalModel.llr_mean``),
so ``baseline-compare`` draws none.  Batches are reduced into mergeable
``AggregateStats``; batch boundaries are fixed by the trial indices alone.
A run's batches step together in lockstep passes of whole batches and
bounded width, each pass drawing at most ``_DRAW_BUDGET`` values at once;
each batch is then summed on its own, and the batches merge in batch order.
So ``batch_size`` sets only how the aggregate is summed, which fixes its
last bits, not which trials step together.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .belief import ActionLabel, _rate_table, _signed_increment, rb_mistake_weight
from .signal_models import (
    GaussianSignalModel,
    InverseCdfSignalModel,
    SignalModel,
    StateOfWorld,
    _check_size,
    _is_int,
)

__all__ = [
    "Trajectory",
    "TrajectoryStats",
    "AggregateStats",
    "RunBlock",
    "RunDecomposition",
    "TimeToLearnReport",
    "UpsetTailFit",
    "default_checkpoints",
    "simulate_trajectory",
    "simulate_baseline_llr",
    "run_trials",
    "extract_runs_and_upsets",
    "estimate_mistake_curve",
    "estimate_time_to_learn",
    "estimate_upset_tail",
    "merge_aggregates",
]

DEFAULT_BATCH_SIZE = 2048
_TIME_CHUNK = 1024
_PASS_TRIALS = 8192  # trials stepped together in one lockstep pass, in whole batches
_DRAW_BUDGET = DEFAULT_BATCH_SIZE * 256  # draws held at once by a lockstep pass


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# A stream's state row, numpy's ``philox_state`` as uint64 words, as the C
# fill reads it: counter[4], key[2], buffer[4], buffer_pos, has_uint32,
# uinteger.  A new stream has counter 0 and an empty buffer.
_COUNTER, _KEY, _BUFFER = slice(0, 4), slice(4, 6), slice(6, 10)
_BUFFER_POS, _HAS_UINT32, _UINTEGER, _STATE_WORDS = 10, 11, 12, 13


def _philox_keys(master_seed: int, indices: np.ndarray) -> np.ndarray:
    """Rows ``SeedSequence(master_seed, spawn_key=(i,)).generate_state(2, np.uint64)``.

    The public SeedSequence algorithm with a 4-word pool.  Its hash steps
    serve Python ints and uint32 arrays alike, since both wrap mod 2**32
    under the masks: the master seed's words (zero-padded to 4) are mixed
    in once, as ints, and only the last entropy word, the index, and the
    output hash run as vector operations over the batch.
    """
    words = []
    while True:
        words.append(master_seed & _MASK32)
        master_seed >>= 32
        if not master_seed:
            break
    words += [0] * (4 - len(words))
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:] + [indices.astype(np.uint32)]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))

    h = _INIT_B
    state = []
    for word in pool:
        word = word ^ h
        h = h * _MULT_B & _MASK32
        word = word * h & _MASK32
        state.append((word ^ word >> 16).astype(np.uint64))
    # Little-endian pairs of 32-bit words make the two 64-bit key words.
    high = np.uint64(32)
    return np.stack((state[0] | state[1] << high, state[2] | state[3] << high), axis=1)


def _trial_rng(master_seed: int, trial_indices: Sequence[int]) -> np.ndarray:
    """The counter-based streams owned by a batch of trials, as state rows in order.

    Row j is the state of ``Philox`` keyed by ``SeedSequence(master_seed,
    spawn_key=(trial_indices[j],))``, bit for bit; the keys of the whole
    batch are derived in one vectorised pass.
    """
    if not _is_int(master_seed) or master_seed < 0:
        raise ValueError(f"master_seed must be a non-negative integer, got {master_seed!r}")
    idx = np.asarray(trial_indices)
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"trial_indices must be integers in [0, 2**32), got dtype {idx.dtype}")
    if idx.size and not (0 <= idx.min() and idx.max() <= _MASK32):
        raise ValueError(f"trial_indices must lie in [0, 2**32), got {idx.min()}..{idx.max()}")
    keys = _philox_keys(int(master_seed), idx.reshape(-1))
    streams = np.zeros((len(keys), _STATE_WORDS), np.uint64)
    streams[:, _KEY] = keys
    streams[:, _BUFFER_POS] = 4
    return streams


def _python_fill(streams: np.ndarray, out: np.ndarray, draw) -> None:
    """``draw(gen, row)`` for each row of ``out``, gen on its stream's state, which it advances.

    One ``Generator`` serves every row: its ``Philox`` takes the row's
    state, draws, and hands its new state back to the row.
    """
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    for state, row in zip(streams, out):
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": state[_COUNTER], "key": state[_KEY]},
            "buffer": state[_BUFFER],
            "buffer_pos": int(state[_BUFFER_POS]),
            "has_uint32": int(state[_HAS_UINT32]),
            "uinteger": int(state[_UINTEGER]),
        }
        draw(gen, row)
        new = bits.state
        state[_COUNTER] = new["state"]["counter"]
        state[_BUFFER] = new["buffer"]
        state[_BUFFER_POS] = new["buffer_pos"]
        state[_HAS_UINT32] = new["has_uint32"]
        state[_UINTEGER] = new["uinteger"]


def _check_theta(theta) -> None:
    if not isinstance(theta, StateOfWorld):  # a bare +-1 would be read as a sign, or fail late
        raise ValueError(f"theta must be a StateOfWorld, got {theta!r}")


def _checkpoint_grid(checkpoint_times: Sequence[int] | None, horizon: int) -> tuple[int, ...]:
    """The sorted checkpoint grid, validated against the horizon."""
    _check_size("horizon", horizon)
    if checkpoint_times is None:
        return default_checkpoints(horizon)
    grid = tuple(checkpoint_times)
    if not grid or not all(_is_int(t) for t in grid):
        raise ValueError(f"checkpoint_times must be a nonempty list of integers, got {grid!r}")
    grid = tuple(sorted(set(int(t) for t in grid)))
    if not (1 <= grid[0] and grid[-1] <= horizon):
        raise ValueError(
            f"checkpoint_times must lie in [1, horizon={horizon}], got {grid[0]}..{grid[-1]}"
        )
    return grid


def default_checkpoints(horizon: int) -> tuple[int, ...]:
    """Logarithmic {1, 2, 5} x 10^j checkpoints up to and including the horizon."""
    pts = {1, horizon}
    scale = 1
    while scale <= horizon:
        for m in (1, 2, 5):
            if m * scale <= horizon:
                pts.add(m * scale)
        scale *= 10
    return tuple(sorted(pts))


@dataclass(frozen=True)
class Trajectory:
    """One realized action path plus its public-belief checkpoints."""

    theta: StateOfWorld
    actions: np.ndarray  # int8 in {-1, +1}, length horizon
    ell_checkpoints: tuple[tuple[int, float], ...]
    seed_id: int


@dataclass(frozen=True)
class TrajectoryStats:
    """One-pass summary of a trajectory; 0 encodes "never" for mistake times."""

    t_first_mistake: int
    t_last_mistake: int
    upsets: int
    max_good_run: int
    max_bad_run: int
    censored: bool


@dataclass
class AggregateStats:
    """Mergeable reduction of many trials on a common checkpoint grid.

    Histograms are sparse integer dicts; per-checkpoint arrays hold running
    sums across trials.  ``naive_sum[i]`` counts mistakes by the agent just
    before checkpoint time ``checkpoint_times[i]`` (the paper indexes the
    mistake probability at t-1 by the belief at t).
    """

    horizon: int
    checkpoint_times: tuple[int, ...]
    trial_count: int = 0
    first_mistake_hist: dict = field(default_factory=dict)
    upset_hist: dict = field(default_factory=dict)
    max_good_run_hist: dict = field(default_factory=dict)
    max_bad_run_hist: dict = field(default_factory=dict)
    rb_sum: np.ndarray = None
    rb_sumsq: np.ndarray = None
    naive_sum: np.ndarray = None
    ell_sum: np.ndarray = None
    censored_count: int = 0
    uncensored_count: int = 0
    last_mistake_sum: float = 0.0
    last_mistake_sumsq: float = 0.0
    ttl_lower_bound_sum: float = 0.0

    def __post_init__(self):
        n = len(self.checkpoint_times)
        for name in ("rb_sum", "rb_sumsq", "naive_sum", "ell_sum"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(n))


def _add_hist(hist: dict, values: np.ndarray) -> None:
    uniq, counts = np.unique(values, return_counts=True)
    for v, c in zip(uniq, counts):
        hist[int(v)] = hist.get(int(v), 0) + int(c)


# A pass's run book: one int64 row per field, one column per trial, changed
# only when a trial switches action: its current run started at ``run_start``;
# ``runs`` counts finished ones.
_BOOK = ("t_first", "t_last", "runs", "max_good", "max_bad", "run_start")

# Spare cohort columns of a chunk, for the cohorts that its switches fork.
_SPARE_COHORTS = 32

# Relative slack on the cohorts' bounds.  It covers transforms that are
# monotone only to within a few ulps (spline and power evaluations), so a
# step is cleared from a cohort's extreme uniforms only when none of its
# draws can flip it.
_HERD_MARGIN = 1e-9


def _draw_chunk(model: SignalModel, theta: StateOfWorld, streams: np.ndarray,
                draws: np.ndarray, cohorts=None) -> np.ndarray:
    """Raw draws in ``draws`` (trials x chunk), row j from stream j, which ``_llr`` maps to LLRs.

    Inversion-sampled models draw uniforms and Gaussian models standard
    normals (by ``_native``'s C fill, else ``_python_fill``), which ``_llr``
    maps to the per-stream ``sample_llr`` draws bit for bit, so the caller
    transforms only the draws it reads.  Any other model draws each row by
    its ``sample_llr`` on the row's stream.  The streams advance.  Given
    ``cohorts`` = (start, low, ext), ext gets the cohorts' raw extremes,
    ``_extremes(draws, *cohorts)``, which the C fill takes while each row is
    in cache; without, the rows are one cohort whose extremes go unread.
    Returns ``draws``.
    """
    from . import _native  # imported here: importing the package loads no library

    if cohorts is None:
        cohorts = np.array([0, len(draws)]), np.zeros(1, bool), np.empty((1, draws.shape[1]))
    gaussian = isinstance(model, GaussianSignalModel)
    lib = _native.library()
    if not (gaussian or isinstance(model, InverseCdfSignalModel)):
        def draw(gen, row):
            row[:] = model.sample_llr(theta, gen, size=draws.shape[1])
    elif _native.has_fill(lib):
        _native.fill_extremes(lib, streams, draws, gaussian, *cohorts)
        return draws
    else:
        name = "standard_normal" if gaussian else "random"

        def draw(gen, row):
            getattr(gen, name)(out=row)

    _python_fill(streams, draws, draw)
    _extremes(draws, *cohorts)
    return draws


def _llr(model: SignalModel, theta: StateOfWorld, raw):
    """The LLRs of raw draws of ``_draw_chunk``, in Python.

    A Gaussian's standard normal z maps to z * tau + mean, which is
    ``rng.normal(mean, tau)``'s own arithmetic; a uniform maps through
    ``llr_from_uniform``; any other model's draws are LLRs already.
    """
    if isinstance(model, GaussianSignalModel):
        return raw * model.tau + model.llr_mean(theta)
    if isinstance(model, InverseCdfSignalModel):
        return model.llr_from_uniform(theta, raw)
    return raw


def _llr_map(model: SignalModel, theta: StateOfWorld, lib) -> Callable[[np.ndarray], np.ndarray]:
    """A pass's map of raw draws to LLRs: ``_native.llr_transform``'s C map, else ``_llr``.

    ``lib`` is ``_native.library()``.  The map may write the LLRs over its
    argument, so a pass hands it only fresh C-contiguous float64 arrays of
    its own (extremes, flagged rows, baseline chunks).
    """
    from . import _native  # imported here: importing the package loads no library

    return _native.llr_transform(lib, model, theta.sign) or functools.partial(_llr, model, theta)


def _extremes(draws: np.ndarray, start: np.ndarray, low: np.ndarray, out=None) -> np.ndarray:
    """Row c: per step, the min of rows ``draws[start[c]:start[c + 1]]`` if low[c], else the max.

    A cohort with no rows gets +inf where low[c], else -inf.  The rows go
    into ``out`` if given.  This is the reference of the C fill's
    ``philox_fill_extremes``.
    """
    size = np.diff(start)
    ext = np.empty((len(size), draws.shape[1])) if out is None else out
    ext[size == 1] = draws[start[:-1][size == 1]]  # a single row is its own extreme
    for c in np.flatnonzero(size > 1):
        (np.minimum if low[c] else np.maximum).reduce(draws[start[c]:start[c + 1]], axis=0, out=ext[c])
    empty = size == 0
    ext[empty] = np.where(low[empty], np.inf, -np.inf)[:, None]
    return ext


def _bounds(llr: Callable[[np.ndarray], np.ndarray], ext: np.ndarray, start: np.ndarray,
            ell: np.ndarray, sgn: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Per step, a bound on the LLRs of each cohort's rows on its erring side, from raw extremes.

    Cohort c holds the rows ``start[c]:start[c + 1]`` and plays sgn[c] at
    belief ell[c]; row c of ``ext`` holds, per step, the min of its raw
    draws where low[c], else the max (``_extremes``).  ``llr`` is the
    pass's ``_llr_map``, and ``low`` the raw side that it maps to the erring
    side: sgn > 0, flipped where the map is decreasing.  Column c of
    the result holds, at each step, a value at or below all of its LLRs if
    sgn[c] is +1 and one at or above them if it is -1: the side on which a
    draw could switch it.  The
    cohort's extreme raw value over all steps is transformed first; if
    ell[c] keeps its action against it, the column is that one value, and
    the cohort is cleared for these steps.  That is sound because rows only
    leave a cohort, and within a run its belief only moves away from its
    switch: no family rounds sgn * increment below 0, so the margin needs
    no share for that, and the compensated update can step back by no more
    than about an ulp of the belief, far inside the margin.  Otherwise each
    step's extreme is transformed.  The map is monotone, so a transformed
    extreme is the extreme LLR, exactly for a Gaussian.  Every value is
    widened by ``_HERD_MARGIN``; a cohort with no rows gets a value that
    never flags.
    """
    def widen(raw, sgn):
        x = llr(raw)
        return x - sgn * _HERD_MARGIN * (1.0 + np.abs(x))

    some = start[1:] > start[:-1]
    whole = sgn * np.inf  # no rows: a value that never flags
    whole[some] = widen(np.where(low, ext.min(axis=1), ext.max(axis=1))[some], sgn[some])
    out = np.tile(whole, (ext.shape[1], 1))
    stepped = np.flatnonzero((ell + whole > 0.0) != (sgn > 0.0))
    out[:, stepped] = widen(ext[stepped], sgn[stepped, None]).T
    return out


def _increment(model: SignalModel, ell: np.ndarray, sgn: np.ndarray) -> np.ndarray:
    """D_plus(ell) where ``sgn`` is +1 and D_minus(ell) where it is -1.

    For continuous families D_minus(x) = -D_plus(-x) holds bit for bit, so
    one signed call serves both actions.  The discrete rate-target model
    breaks that identity at its integer atoms; both read its ``_rate_table``,
    which builds the slices of the cells read that are not built yet.
    """
    if model.is_discrete:  # D_plus at cell ceil(ell), D_minus at 1 - ceil(ell); index cell + cut
        k, cut = np.ceil(ell), len(model.support) // 2
        index = np.clip(np.where(sgn > 0.0, k, 1.0 - k) + cut, 0, 2 * cut + 1)
        return sgn * _rate_table(model).read(model, index.astype(np.int64))
    return sgn * _signed_increment(model, sgn * ell, +1)


def _close_runs(book: np.ndarray, trials: np.ndarray, ended_good, t: int) -> None:
    """``trials`` switch action at step t, ending the run over [run_start, t).

    Switches of action and the horizon (t = horizon + 1) both end runs
    here.  Only a non-empty run counts, so a trial's upsets are its runs - 1.
    ``trials`` holds no trial twice.
    """
    _, t_last, runs, max_good, max_bad, run_start = book
    length = t - run_start[trials]
    ended_bad = np.logical_not(ended_good)
    runs[trials] += length > 0
    max_good[trials] = np.where(ended_good, np.maximum(max_good[trials], length), max_good[trials])
    max_bad[trials] = np.where(ended_bad, np.maximum(max_bad[trials], length), max_bad[trials])
    t_last[trials] = np.where(ended_bad, t - 1, t_last[trials])
    run_start[trials] = t


def _fork(ell: np.ndarray, carry: np.ndarray, sgn: np.ndarray, source: np.ndarray):
    """New cohorts for trials that switch action out of cohorts ``source``.

    Each source gets one new cohort with its ell and carry and the other
    action.  Returns the trials' new cohorts and the extended (ell, carry, sgn).
    """
    src, new = np.unique(source, return_inverse=True)
    new += len(ell)
    return new, np.append(ell, ell[src]), np.append(carry, carry[src]), np.append(sgn, -sgn[src])


def _simulate_batch(
    model: SignalModel,
    theta: StateOfWorld,
    horizon: int,
    master_seed: int,
    trial_indices: Sequence[int],
    checkpoint_times: tuple[int, ...],
    collect_actions: bool = False,
):
    """One lockstep pass over ``trial_indices``, reduced as a single batch.

    Returns (AggregateStats, per-trial stats arrays dict, actions or None,
    per-trial checkpoint ell matrix).  Output depends only on
    (model, theta, horizon, master_seed, trial_indices, checkpoint_times).
    """
    per_trial, naive, actions, ell_ckpt = _lockstep(
        model, theta, horizon, master_seed, trial_indices, checkpoint_times, collect_actions
    )
    agg = _aggregate(horizon, checkpoint_times, per_trial, naive, ell_ckpt)
    return agg, per_trial, actions, ell_ckpt.T


def _lockstep(
    model: SignalModel,
    theta: StateOfWorld,
    horizon: int,
    master_seed: int,
    trial_indices: Sequence[int],
    checkpoint_times: tuple[int, ...],
    collect_actions: bool,
):
    """Simulation of a pass of trials, stepped by cohort.

    Trials with equal (ell, carry, action) step identically, so a trial
    holds an index into a small array of cohort states, and the increment
    runs once per cohort; every trial starts in cohort 0.  Each chunk drops
    the unused cohorts, orders the streams by cohort, draws them with each
    cohort's raw extremes on its erring side (``_draw_chunk``), and bounds
    each cohort's draws from those (``_bounds``), for the whole chunk or
    per step.  The raw-to-LLR map (``_llr_map``) is set up once per pass,
    and its direction is read off it.  A step reads exactly only the rows
    of cohorts whose bound could switch them.  A switch forks the switching
    trials' cohorts, whose bound flags them at every step, and ends a run
    in each trial's run book.  At a flagged step at which no trial
    switches, every flagged cohort is bounded by its own remaining rows for
    the rest of the chunk (``_extremes``), or by a value that never flags
    if none are left.  A chunk holds at most ``_DRAW_BUDGET`` draws; its
    length changes no value, since every trial's stream and cohort states
    are its own.  The cohorts live in the first n columns of arrays with
    spare ones (``_SPARE_COHORTS`` per chunk), into which forks go.  One
    stepper runs each stretch of steps up to the next checkpoint: C's
    (``_native.cohort_stepper``) where it can map and step the model, else
    the Python step (``_python_stepper``), its reference bit for bit.  It
    writes the actions and, at the horizon, ends the runs.  It stops
    before a step whose forks outgrow the spare columns; the arrays are
    widened, and the step is taken again.

    Returns the per-trial stats arrays dict and, per checkpoint row and
    trial column, whether the trial's last action was a mistake and its
    belief, besides the actions matrix or None.
    """
    nb = len(trial_indices)
    streams = _trial_rng(master_seed, trial_indices)
    time_chunk = max(1, min(_TIME_CHUNK, _DRAW_BUDGET // max(nb, 1)))
    # every chunk's draws, in its first values: a buffer allocated afresh per
    # chunk may be mapped afresh, at a page fault per page
    buffer = np.empty(nb * min(time_chunk, horizon))

    # Cohort c holds ell[c], carry[c] and the latest action sgn[c] as +-1.0,
    # the rows of the first n columns of ``cohorts``; the others are spare.
    # Row r of the streams and draws is trial trial[r], in cohort coh[r];
    # column j of the rows of ``book`` (``_BOOK``) is trial j's run bookkeeping.
    cohorts = np.array([[0.0], [0.0], [float(theta.sign)]])
    trial = np.arange(nb)
    coh = np.zeros(nb, dtype=np.int64)
    book = np.zeros((len(_BOOK), nb), dtype=np.int64)
    book[-1] = 1  # run_start

    ckpt = np.asarray(checkpoint_times, dtype=np.int64)
    ell_ckpt = np.zeros((len(ckpt), nb))  # row i: every trial's belief at ckpt[i]
    naive = np.zeros((len(ckpt), nb), dtype=bool)  # row i: who erred just before ckpt[i]
    actions = np.full((nb, horizon), theta.sign, dtype=np.int8) if collect_actions else None

    from . import _native  # imported here: importing the package loads no library

    lib = _native.library()
    llr = _llr_map(model, theta, lib)
    ends = llr(np.array([0.0, 1.0 - 2.0**-53]))  # PolyTail's map falls in u under theta = +
    decreasing = bool(ends[0] > ends[1])
    pass_args = (llr, book, actions, horizon, float(theta.sign), decreasing)
    steps = None if lib is None else _native.cohort_stepper(lib, model, _increment, *pass_args,
                                                            _HERD_MARGIN)
    steps = steps or _python_stepper(model, *pass_args)
    next_ckpt = 0
    t = 1
    while t <= horizon:
        chunk = min(time_chunk, horizon - t + 1)
        live, coh = np.unique(coh, return_inverse=True)
        n = len(live)
        cohorts = _widened(cohorts[:, live], n + _SPARE_COHORTS)
        ell, carry, sgn = cohorts[:, :n]
        order = np.argsort(coh, kind="stable")
        coh, trial, streams = coh[order], trial[order], streams[order]
        start = np.searchsorted(coh, np.arange(n + 1))
        low, ext = (sgn > 0.0) != decreasing, np.empty((n, chunk))
        draws = _draw_chunk(model, theta, streams, buffer[:nb * chunk].reshape(nb, chunk),
                            (start, low, ext))
        bounds = np.empty((chunk, cohorts.shape[1]))  # column c: cohort c
        bounds[:, :n] = _bounds(llr, ext, start, ell, sgn, low)
        s = 0
        while s < chunk:
            if next_ckpt < len(ckpt) and t == ckpt[next_ckpt]:
                ell_ckpt[next_ckpt, trial] = ell[coh]
                naive[next_ckpt, trial] = sgn[coh] != theta.sign
                next_ckpt += 1
            stop = min(chunk, s + int(ckpt[next_ckpt]) - t) if next_ckpt < len(ckpt) else chunk
            got, n, room = steps(cohorts, bounds, s, stop, (draws, coh, trial, t - s, n))
            s, t = got, t + got - s
            if room:  # step s forks past the spare columns: it is stepped again in wider ones
                cohorts, bounds = (_widened(a, 2 * room) for a in (cohorts, bounds))
            ell, carry, sgn = cohorts[:, :n]

    # A trial whose last run is wrong at the horizon is censored.
    final_good = np.empty(nb, dtype=bool)
    final_good[trial] = sgn[coh] == theta.sign
    t_first, t_last, runs, max_good, max_bad, _ = book
    per_trial = dict(t_first=t_first, t_last=t_last, max_good=max_good, max_bad=max_bad,
                     upsets=runs - 1, censored=~final_good)
    return per_trial, naive, actions, ell_ckpt


def _python_stepper(model: SignalModel, llr, book: np.ndarray, actions, horizon: int, sign: float,
                    decreasing: bool):
    """A pass's ``steps(cohorts, bounds, s, stop, chunk)`` in Python: C's reference, and its fallback.

    ``steps`` runs a chunk's steps s..stop-1 in place on ``cohorts`` =
    (ell, carry, sgn), cohort c reading column c of ``bounds``, given
    ``chunk`` = (draws, coh, trial, t0, n): the chunk's raw draws, each
    row's cohort and trial, the time of step 0 and the live cohorts, the
    first n of capacity arrays ``cohorts`` and of the columns of
    ``bounds``.  It writes ``actions`` unless None, records the switches in
    ``book`` (``_BOOK``'s rows) and at ``horizon`` ends every run.  It
    returns (s, n, room): s is stop, or a step whose forks need room
    columns, more than ``cohorts`` has (room is 0 otherwise), which it
    leaves unchanged for the caller to widen the arrays and go on.
    """
    def python_steps(cohorts, bounds, s, stop, chunk):
        draws, coh, trial, t0, n = chunk
        ell, carry, sgn = cohorts[:, :n]
        for s in range(s, stop):
            t = t0 + s
            # fl(ell + x) is monotone in x: a cohort whose bound keeps its
            # action holds no row that switches.
            flag = (ell + bounds[s, :n] > 0.0) != (sgn > 0.0)
            if flag.any():
                rows = np.flatnonzero(flag[coh])
                c = coh[rows]
                x = llr(draws[rows, s])
                flip = (ell[c] + x > 0.0) != (sgn[c] > 0.0)
                if flip.any():
                    rows, c = rows[flip], c[flip]
                    new, *forked = _fork(ell, carry, sgn, c)
                    if len(forked[0]) > cohorts.shape[1]:
                        return s, n, len(forked[0])
                    switched = trial[rows]
                    _close_runs(book, switched, sgn[c] == sign, t)
                    t_first = book[0]  # a trial's first switch is its first mistake
                    t_first[switched[t_first[switched] == 0]] = t
                    coh[rows] = new
                    n, n0 = len(forked[0]), n
                    cohorts[:, :n] = forked
                    ell, carry, sgn = cohorts[:, :n]
                    bounds[s + 1:, n0:n] = -sgn[n0:] * np.inf  # flagged until an idle step
                elif s + 1 < len(bounds):  # idle: each flagged cohort is bounded by its own rows
                    flagged, order = np.flatnonzero(flag), np.argsort(c, kind="stable")
                    own = np.searchsorted(c[order], np.append(flagged, n))
                    low = (sgn[flagged] > 0.0) != decreasing
                    ext = _extremes(draws[rows[order], s + 1:], own, low)
                    bounds[s + 1:, flagged] = _bounds(llr, ext, own, ell[flagged], sgn[flagged], low)
            if actions is not None:
                actions[trial, t - 1] = sgn[coh]
            y = _increment(model, ell, sgn) - carry
            s2 = ell + y
            carry[:] = (s2 - ell) - y
            ell[:] = s2
        if t0 + stop == horizon + 1:  # the pass's last step: the horizon ends every run
            _close_runs(book, trial, sgn[coh] == sign, horizon + 1)
        return stop, n, 0

    return python_steps


def _widened(a: np.ndarray, cols: int) -> np.ndarray:
    """A C-contiguous copy of the 2-d ``a`` with ``cols`` columns, ``a``'s first; the others unset."""
    out = np.empty((len(a), cols))
    out[:, :a.shape[1]] = a
    return out


def _aggregate(horizon: int, checkpoint_times: tuple[int, ...], per_trial: dict,
               naive: np.ndarray, ell_ckpt: np.ndarray) -> AggregateStats:
    """The ``AggregateStats`` of one batch, from its trials' columns of a pass.

    Sums run over the batch's own contiguous copy, so they round exactly
    as they would if the batch had been stepped alone.
    """
    ell_ckpt = np.ascontiguousarray(ell_ckpt)
    nb = ell_ckpt.shape[1]
    agg = AggregateStats(horizon=horizon, checkpoint_times=tuple(checkpoint_times), trial_count=nb)
    agg.naive_sum += np.count_nonzero(naive, axis=1)
    w = rb_mistake_weight(ell_ckpt)
    agg.rb_sum += np.sum(w, axis=1)
    agg.rb_sumsq += np.sum(w * w, axis=1)
    agg.ell_sum += np.sum(ell_ckpt, axis=1)
    for name, hist in (("t_first", agg.first_mistake_hist), ("upsets", agg.upset_hist),
                       ("max_good", agg.max_good_run_hist), ("max_bad", agg.max_bad_run_hist)):
        _add_hist(hist, per_trial[name])
    final_good = ~per_trial["censored"]
    agg.uncensored_count = int(np.count_nonzero(final_good))
    agg.censored_count = nb - agg.uncensored_count
    t_last = per_trial["t_last"]
    agg.last_mistake_sum = float(np.sum(t_last[final_good]))
    agg.last_mistake_sumsq = float(np.sum(t_last[final_good].astype(float) ** 2))
    agg.ttl_lower_bound_sum = float(np.sum(np.where(final_good, t_last + 1, horizon).astype(float)))
    return agg


def simulate_trajectory(
    model: SignalModel,
    theta: StateOfWorld,
    horizon: int,
    master_seed: int,
    trial_index: int,
    checkpoint_times: Sequence[int] | None = None,
) -> tuple[Trajectory, TrajectoryStats]:
    """Simulate one full trajectory with stored actions and checkpoints."""
    _check_theta(theta)
    checkpoint_times = _checkpoint_grid(checkpoint_times, horizon)
    _, per, actions, ell_ckpt = _simulate_batch(
        model, theta, horizon, master_seed, [trial_index], checkpoint_times,
        collect_actions=True,
    )
    traj = Trajectory(
        theta=theta,
        actions=actions[0],
        ell_checkpoints=tuple(
            (int(t), float(v)) for t, v in zip(checkpoint_times, ell_ckpt[0])
        ),
        seed_id=trial_index,
    )
    stats = TrajectoryStats(
        t_first_mistake=int(per["t_first"][0]),
        t_last_mistake=int(per["t_last"][0]),
        upsets=int(per["upsets"][0]),
        max_good_run=int(per["max_good"][0]),
        max_bad_run=int(per["max_bad"][0]),
        censored=bool(per["censored"][0]),
    )
    return traj, stats


def simulate_baseline_llr(
    model: SignalModel,
    theta: StateOfWorld,
    horizon: int,
    master_seed: int,
    trial_index: int,
    checkpoint_times: Sequence[int] | None = None,
) -> tuple[tuple[int, float], ...]:
    """Running sum of the raw private LLRs (the observed-signals baseline).

    Uses the same per-trial stream as simulate_trajectory, so the baseline
    and the herding run see identical signal sequences.  Each time chunk of
    draws is summed in place along time; the chunk totals are added with a
    compensated (Kahan) carry.  The chunk length fixes the bits of the sums.
    """
    from . import _native  # imported here: importing the package loads no library

    _check_theta(theta)
    ckpt = _checkpoint_grid(checkpoint_times, horizon)
    stream = _trial_rng(master_seed, [trial_index])
    llr = _llr_map(model, theta, _native.library())
    sums, total, carry = [], 0.0, 0.0
    for t in range(1, ckpt[-1] + 1, _TIME_CHUNK):
        chunk = min(_TIME_CHUNK, horizon - t + 1)
        draws = _draw_chunk(model, theta, stream, np.empty((1, chunk)))
        partial = np.cumsum(llr(draws), axis=1, out=draws)[0]
        sums += [(c, total + float(partial[c - t])) for c in ckpt[len(sums):] if c < t + chunk]
        y = float(partial[-1]) - carry
        tot = total + y
        carry = (tot - total) - y
        total = tot
    return tuple(sums)


def run_trials(
    model: SignalModel,
    theta: StateOfWorld,
    horizon: int,
    trials: int,
    master_seed: int,
    checkpoint_times: Sequence[int] | None = None,
    threads: int = 1,
    batch_size: int = DEFAULT_BATCH_SIZE,
    collect_actions: bool = False,
):
    """Simulate ``trials`` independent trajectories and merge their aggregates.

    Batches are fixed slices of the trial-index range.  Whole batches step
    together in lockstep passes of bounded width; each batch is then
    summed on its own, and the batches merge in index order.  So
    ``batch_size`` sets only how the aggregate is summed, which fixes its
    last bits, not which trials step together.  ``threads`` is validated
    and kept for the config key and CLI flag, but it starts no worker and
    the results never depend on it.  The C fill spreads each chunk's rows
    over the CPUs that the process may run on, whatever ``threads`` says
    (``_native.fill_split``), with the bits of one thread.  When
    ``collect_actions`` is set, the raw action matrices are returned
    alongside the aggregate.
    """
    _check_theta(theta)
    _check_size("trials", trials)
    _check_size("batch_size", batch_size)
    _check_size("threads", threads)
    checkpoint_times = _checkpoint_grid(checkpoint_times, horizon)
    total, actions = None, []
    for lo, hi in _passes(trials, batch_size):
        per_trial, naive, acts, ell_ckpt = _lockstep(
            model, theta, horizon, master_seed, range(lo, hi), checkpoint_times, collect_actions
        )
        for a in range(0, hi - lo, batch_size):
            batch = slice(a, a + batch_size)
            agg = _aggregate(
                horizon, checkpoint_times, {k: v[batch] for k, v in per_trial.items()},
                naive[:, batch], ell_ckpt[:, batch],
            )
            total = agg if total is None else merge_aggregates(total, agg)
        actions.append(acts)
    if collect_actions:
        return total, np.concatenate(actions, axis=0)
    return total


def _passes(trials: int, batch_size: int) -> list[tuple[int, int]]:
    """The trial ranges [lo, hi) of a run's lockstep passes.

    A pass holds whole batches, at most ``_PASS_TRIALS`` trials unless one
    batch is wider, and the passes hold about equal numbers of batches.
    """
    batches = -(-trials // batch_size)
    passes = -(-batches // max(1, _PASS_TRIALS // batch_size))
    ends = [min(trials, -(-batches * k // passes) * batch_size) for k in range(passes + 1)]
    return list(zip(ends[:-1], ends[1:]))


# ---------------------------------------------------------------------------
# Run/upset decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunBlock:
    start: int  # 1-based time of the first action in the block
    length: int
    label: ActionLabel
    good: bool


@dataclass(frozen=True)
class RunDecomposition:
    blocks: tuple[RunBlock, ...]
    upsets: int


def extract_runs_and_upsets(
    actions: Sequence[int], theta: StateOfWorld = StateOfWorld.PLUS
) -> RunDecomposition:
    """Maximal constant blocks of an action sequence; upsets = blocks - 1."""
    a = np.asarray([x.sign if isinstance(x, ActionLabel) else int(x) for x in actions])
    if len(a) == 0:
        raise ValueError("action sequence must be nonempty")
    change = np.nonzero(np.diff(a) != 0)[0]
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change + 1, [len(a)]))
    blocks = tuple(
        RunBlock(
            start=int(s) + 1,
            length=int(e - s),
            label=ActionLabel(int(a[s])),
            good=int(a[s]) == theta.sign,
        )
        for s, e in zip(starts, ends)
    )
    return RunDecomposition(blocks=blocks, upsets=len(blocks) - 1)


# ---------------------------------------------------------------------------
# Estimators over aggregates
# ---------------------------------------------------------------------------


def estimate_mistake_curve(agg: AggregateStats) -> list[tuple[int, float, float, float]]:
    """Rows (t, p_rb, p_naive, stderr) estimating the mistake probability.

    Row t reports the mistake probability of agent t, estimated
    Rao-Blackwellized as the mean of min(mu, 1-mu) at the belief held
    after that agent acted (checkpoint time t+1 in the engine's indexing);
    p_naive is the plain indicator frequency.  The t=0 row is the prior.
    """
    n = agg.trial_count
    if n < 1:
        raise ValueError("empty aggregate")
    rows = []
    for i, ck in enumerate(agg.checkpoint_times):
        p_rb = agg.rb_sum[i] / n
        var = max(agg.rb_sumsq[i] / n - p_rb * p_rb, 0.0)
        stderr = math.sqrt(var / n)
        p_naive = 0.5 if ck == 1 else agg.naive_sum[i] / n
        rows.append((ck - 1, float(p_rb), float(p_naive), float(stderr)))
    return rows


@dataclass(frozen=True)
class TimeToLearnReport:
    """Censored summary of the time to learn T_L at a finite horizon."""

    horizon: int
    trial_count: int
    mean_uncensored: float  # mean of (last mistake + 1) over uncensored trials
    var_uncensored: float
    censored_fraction: float
    lower_bound: float  # E(min(T_L, horizon)) estimate including censored trials
    unreliable: bool  # censored fraction above 1%


def estimate_time_to_learn(agg: AggregateStats) -> TimeToLearnReport:
    if agg.trial_count < 1:
        raise ValueError("empty aggregate")
    n_unc = agg.uncensored_count
    if n_unc > 0:
        mean_tl = agg.last_mistake_sum / n_unc + 1.0
        mean_last = agg.last_mistake_sum / n_unc
        var = max(agg.last_mistake_sumsq / n_unc - mean_last**2, 0.0)
    else:
        mean_tl = float("nan")
        var = float("nan")
    frac = agg.censored_count / agg.trial_count
    return TimeToLearnReport(
        horizon=agg.horizon,
        trial_count=agg.trial_count,
        mean_uncensored=float(mean_tl),
        var_uncensored=float(var),
        censored_fraction=float(frac),
        lower_bound=float(agg.ttl_lower_bound_sum / agg.trial_count),
        unreliable=frac > 0.01,
    )


@dataclass(frozen=True)
class UpsetTailFit:
    """Empirical survival of the upset count with a geometric-tail fit."""

    n_values: np.ndarray
    survival: np.ndarray
    wilson_lo: np.ndarray
    wilson_hi: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    fit_range: tuple[int, int]


def _wilson(successes: np.ndarray, n: int, z: float = 1.959963984540054):
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return np.clip(center - half, 0.0, 1.0), np.clip(center + half, 0.0, 1.0)


# Trials that back a survival bin of the default upset-tail fit; with fewer
# trials in all, no bin is backed.
_UPSET_FIT_MIN_COUNT = 50


def estimate_upset_tail(
    agg: AggregateStats, min_count: int = _UPSET_FIT_MIN_COUNT
) -> UpsetTailFit:
    """Survival P(Xi >= n) with Wilson bands and a log-linear fit.

    The fit covers the survival bins backed by at least ``min_count``
    trials; its slope is the log of the fitted geometric decay rate.
    """
    n = agg.trial_count
    if n < 1:
        raise ValueError("empty aggregate")
    max_u = max(agg.upset_hist)
    counts = np.zeros(max_u + 1, dtype=np.int64)
    for k, c in agg.upset_hist.items():
        counts[k] = c
    tail_counts = np.cumsum(counts[::-1])[::-1]  # trials with Xi >= n
    ns = np.arange(max_u + 1)
    survival = tail_counts / n
    lo, hi = _wilson(tail_counts.astype(float), n)

    use = tail_counts >= min_count
    xs = ns[use].astype(float)
    ys = np.log(survival[use])
    if len(xs) < 2:
        raise ValueError("not enough well-populated bins for a tail fit")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return UpsetTailFit(
        n_values=ns,
        survival=survival,
        wilson_lo=lo,
        wilson_hi=hi,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        fit_range=(int(xs[0]), int(xs[-1])),
    )


def merge_aggregates(a: AggregateStats, b: AggregateStats) -> AggregateStats:
    """Commutative, associative merge of two aggregates on the same grid.

    Every ``AggregateStats`` field after the shared grid (``horizon``,
    ``checkpoint_times``) is merged by its type: the histograms (dicts) add
    count by count, and the counts and per-checkpoint sums add.
    """
    if a.horizon != b.horizon or a.checkpoint_times != b.checkpoint_times:
        raise ValueError("aggregates use different horizons or checkpoint grids")
    merged = {}
    for f in fields(AggregateStats)[2:]:
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, dict):
            merged[f.name] = va | {k: va.get(k, 0) + v for k, v in vb.items()}
        else:
            merged[f.name] = va + vb
    return AggregateStats(horizon=a.horizon, checkpoint_times=a.checkpoint_times, **merged)
