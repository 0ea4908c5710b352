"""Exact dynamics of the public log-likelihood ratio.

The state variable is ell, the log odds an outside observer assigns to the
event theta=+1 after seeing the actions so far.  Observing action +1 moves
ell up by d_plus(ell); observing -1 moves it down by d_minus(ell).  The
module also provides the deterministic all-correct path ell*, the exact
distribution of the first mistake along it, and a few diagnostics used by
the asymptotic analysis.

All functions are pure; d_plus / d_minus accept scalars or arrays, not NaN.
"""

from __future__ import annotations

import functools
import math
import queue
import threading
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .asymptotics import _compensated_steps, fused_loop
from .signal_models import (
    GaussianSignalModel,
    NumericalFailure,
    PolyTailSignalModel,
    RateTargetSignalModel,
    SignalModel,
    StateOfWorld,
    _as1d,
    _check_finite,
    _check_size,
    _restore,
    log_ndtr_scalar,
)
from enum import Enum

__all__ = [
    "ActionLabel",
    "BeliefState",
    "EllStarPath",
    "FirstMistakeDistribution",
    "d_plus",
    "d_minus",
    "log_d_plus",
    "log_d_minus",
    "decide",
    "update",
    "public_belief",
    "action_probability",
    "martingale_residual",
    "ell_star_path",
    "first_mistake_distribution",
    "rb_mistake_weight",
    "u_plus_monotone_threshold",
]


class ActionLabel(Enum):
    """An agent's binary action; serialized as -1 / +1."""

    MINUS = -1
    PLUS = +1

    @property
    def sign(self) -> int:
        return self.value


@dataclass(frozen=True)
class BeliefState:
    """Public log-likelihood ratio before agent t acts."""

    ell: float
    t: int = 1


# ---------------------------------------------------------------------------
# Update increments
# ---------------------------------------------------------------------------


def _log_tail_gap(near, far):
    """log(e^near - e^far) for far <= near; -inf when both tails are empty."""
    empty = near == -np.inf
    if empty.any():  # past the cut of a truncated support; -inf - -inf is NaN
        out = np.full_like(near, -np.inf)
        out[~empty] = _log_tail_gap(near[~empty], far[~empty])
        return out
    with np.errstate(divide="ignore"):  # far == near: log1p(-1) is the -inf of an empty gap
        return near + np.log1p(-np.exp(far - near))


def _signed_increment(model: SignalModel, x, sign: int):
    """D_plus(x) for ``sign`` = +1 and D_minus(x) for ``sign`` = -1.

    In the bulk D = B(PLUS) - B(MINUS), with B(state) the log-probability
    of the action at x (``model.log_action_probabilities``).  Once the near
    state's tail mass (minus for +1, plus for -1) drops below 1e-8 that
    difference loses all precision, and D switches to the tail form
    sign * (G_near - G_far) in the other log function T; its neglected
    relative correction is of order that mass.  Past the cut of a truncated
    support both tails are empty and D = 0; where the action itself is
    impossible under both states the model raises ValueError.
    """
    x, scalar = _as1d(x)
    b_minus, b_plus = model.log_action_probabilities(x, sign)
    out = b_plus - b_minus
    tail = (b_minus if sign > 0 else b_plus) > -1e-8
    if tail.any():
        tail_log = model.llr_log_cdf if sign > 0 else model.llr_log_sf
        near, far = (StateOfWorld.MINUS, StateOfWorld.PLUS)[::sign]
        xt = -x[tail]
        t_near = np.asarray(tail_log(near, xt), dtype=float)
        t_far = np.asarray(tail_log(far, xt), dtype=float)
        gap = np.exp(_log_tail_gap(t_near, t_far))
        out[tail] = gap if sign > 0 else -gap
    return _restore(out, scalar)


def _log_signed_increment(model: SignalModel, x, sign: int):
    """log(sign * D(x)), usable far beyond the underflow point of D.

    Deep in the tail D = sign * (G_near - G_far) up to a relative error of
    order G_near, so that log form is taken once G_near drops below 1e-8.
    """
    x, scalar = _as1d(x)
    tail_log = model.llr_log_cdf if sign > 0 else model.llr_log_sf
    near, far = (StateOfWorld.MINUS, StateOfWorld.PLUS)[::sign]
    t_near = np.asarray(tail_log(near, -x), dtype=float)
    t_far = np.asarray(tail_log(far, -x), dtype=float)
    out = np.empty_like(t_near)
    tail = t_near < math.log(1e-8)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[tail] = _log_tail_gap(t_near[tail], t_far[tail])
        out[~tail] = np.log(sign * _signed_increment(model, x[~tail], sign))
    return _restore(out, scalar)


def _not_nan(x, name: str = "x"):
    if np.isnan(x).any():  # no increment is defined at a NaN belief
        raise ValueError(f"{name} must not be NaN")
    return x


def _defined(out, x, name: str = "x"):
    """``out``, the increments at beliefs x, unless one is NaN: that belief is refused by name.

    A Gaussian's D+ is NaN past about -3.9e154 (D- past +3.9e154), where
    both action log-probabilities are -inf.
    """
    undefined = np.isnan(out)
    if np.any(undefined):
        at = float(np.ravel(x)[np.argmax(np.ravel(undefined))])
        raise ValueError(f"no increment at {name} = {at!r}: both action log-probabilities are -inf")
    return out


def d_plus(model: SignalModel, x):
    """Increment of ell when action +1 is observed at public LLR x; >= 0.

    For a Gaussian model it reads 0 from about x = -2**53 * 2/sigma**2 down
    (-1.8e16 at sigma = 1), where x +- 2/sigma**2 rounds to x and both
    action log-probabilities coincide; no run reaches such a belief.
    """
    return _defined(_signed_increment(model, _not_nan(x), +1), x)


def d_minus(model: SignalModel, x):
    """Increment of ell when action -1 is observed at public LLR x; <= 0.

    It mirrors ``d_plus``: 0 for a Gaussian model from about x = 2**53 * 2/sigma**2 up.
    """
    return _defined(_signed_increment(model, _not_nan(x), -1), x)


def log_d_plus(model: SignalModel, x):
    """log D_plus(x), usable far beyond the underflow point of d_plus.

    For a Gaussian model it is -inf where ``d_plus`` reads 0, from about
    x = -2**53 * 2/sigma**2 down.
    """
    return _defined(_log_signed_increment(model, _not_nan(x), +1), x)


def log_d_minus(model: SignalModel, x):
    """log(-D_minus(x)), the mirrored companion of log_d_plus.

    For a Gaussian model it is -inf where ``d_minus`` reads 0, from about
    x = 2**53 * 2/sigma**2 up.
    """
    return _defined(_log_signed_increment(model, _not_nan(x), -1), x)


_RATE_TABLES = weakref.WeakKeyDictionary()  # the model stores only its law
_TABLE_SLICE = 8192  # cells per kernel call of a table build; bounds its temporaries


class _RateTable:
    """D_plus on the cells (k - 1, k], k = -cut..cut + 1, at index k + cut; each slice built at its first read.

    The LLR lives on the integers, so D_plus(x) depends on x only through
    ceil(x): the table is exact.  Cell 0 (k = -cut), where no agent plays
    +1, holds 0; D_minus(x) = -cells[1 - ceil x].  The other cells come in
    slices of ``_TABLE_SLICE``, aligned on 0: slice s holds the cells whose
    right ends lie in [s * S, (s + 1) * S), and is built by one kernel call
    over those ends.  The kernel acts on each end alone, so every cell has
    the bits of a build of the whole table at once.  A slice of ends >= 0
    never reads the model's ``_log_far_tail``, which only the ends below
    about -734 need for criterion 10's model.  ``ready[j]`` is set once
    cell j's slice is written whole; it is a byte per cell so that a
    reader's check is one lookup, as cheap as the read itself.  Both arrays
    are zero-filled (calloc'd), so an unbuilt slice costs neither time nor
    resident memory: a path from a prior near 0 builds one or two of
    criterion 10's 50 slices.  Every reader builds what it reads: the
    Monte Carlo increment (``read``), ``_scalar_increment``'s ``rate`` and,
    by calling ``rate``, C's ``table_steps``.
    """

    __slots__ = ("cells", "ready", "_lock")

    def __init__(self, size: int):
        self.cells = np.zeros(size + 1)
        self.ready = np.zeros(size + 1, np.uint8)
        self.ready[0] = 1
        self._lock = threading.Lock()  # one build per slice, whichever thread reads it first

    def build(self, model: RateTargetSignalModel, j: int) -> None:
        """Write the slice of ``model``'s table that holds cell j > 0, unless it is built."""
        with self._lock:
            if not self.ready[j]:
                cut = len(model.support) // 2  # cell j's right end is j - cut
                start = cut + (j - cut) // _TABLE_SLICE * _TABLE_SLICE
                lo, hi = max(start, 1), min(start + _TABLE_SLICE, len(self.cells))
                self.cells[lo:hi] = _signed_increment(model, model.support[lo - 1:hi - 1] + 1.0, +1)
                self.ready[lo:hi] = 1

    def read(self, model: RateTargetSignalModel, index: np.ndarray) -> np.ndarray:
        """The cells at ``index`` (int64), building the slices they lie in first."""
        if b"\0" in self.ready[index].tobytes():  # one check per call; faster than .all() on a few cells
            for j in np.unique(index[self.ready[index] == 0]).tolist():
                self.build(model, j)
        return self.cells[index]


def _rate_table(model: RateTargetSignalModel) -> _RateTable:
    """``model``'s table of D_plus per integer cell, one per model, slices built as they are read."""
    table = _RATE_TABLES.get(model)
    if table is None:
        table = _RATE_TABLES.setdefault(model, _RateTable(len(model.support)))
    return table


# ---------------------------------------------------------------------------
# Decision rule and one-step dynamics
# ---------------------------------------------------------------------------


def decide(ell: float, llr: float) -> ActionLabel:
    """Optimal action given public LLR and the agent's private LLR; ties pick -1; NaN is refused."""
    total = _not_nan(_not_nan(ell, "ell") + _not_nan(llr, "llr"), "ell + llr")  # inf - inf is NaN
    return ActionLabel.PLUS if total > 0.0 else ActionLabel.MINUS


def update(model: SignalModel, state: BeliefState, action: ActionLabel) -> BeliefState:
    """Public belief after observing one action."""
    ell = _not_nan(state.ell, "state.ell")
    incr = float(_defined(_signed_increment(model, ell, action.sign), ell, "state.ell"))
    return BeliefState(ell=state.ell + incr, t=state.t + 1)


def public_belief(ell):
    """mu = e^ell / (e^ell + 1), overflow-safe for every ell, infinite ones too.

    Both branches of the ``where`` share e = exp(-|ell|) <= 1, so neither
    overflows; -|ell| is -ell or ell exactly, so each branch's bits are those
    of 1/(1 + e^-ell) and e^ell/(1 + e^ell).
    """
    ell = _not_nan(np.asarray(ell, dtype=float), "ell")
    e = np.exp(-np.abs(ell))
    return np.where(ell >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def action_probability(model: SignalModel, ell, state: StateOfWorld):
    """P(a = +1 | ell, theta) = 1 - G_theta(-ell), evaluated via log-survival."""
    return np.exp(model.llr_log_sf(state, -_not_nan(np.asarray(ell, dtype=float), "ell")))


def rb_mistake_weight(ell):
    """Conditional mistake probability min(mu, 1-mu) = 1/(e^|ell| + 1)."""
    ell = _not_nan(np.asarray(ell, dtype=float), "ell")
    return 1.0 / (np.exp(np.abs(ell)) + 1.0)


def martingale_residual(model: SignalModel, ell: float) -> float:
    """One-step martingale defect of the public belief; zero in exact arithmetic."""
    mu = float(public_belief(ell))  # refuses a NaN ell by name
    p_plus_given_plus = float(action_probability(model, ell, StateOfWorld.PLUS))
    p_plus_given_minus = float(action_probability(model, ell, StateOfWorld.MINUS))
    p_plus = mu * p_plus_given_plus + (1.0 - mu) * p_plus_given_minus
    p_minus = mu * (1.0 - p_plus_given_plus) + (1.0 - mu) * (1.0 - p_plus_given_minus)
    mu_up = float(public_belief(ell + float(d_plus(model, ell))))
    mu_dn = float(public_belief(ell + float(d_minus(model, ell))))
    return p_plus * mu_up + p_minus * mu_dn - mu


# ---------------------------------------------------------------------------
# The all-correct path and the first-mistake law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EllStarPath:
    """Deterministic public LLR when every agent so far acted +1.

    ``values[i]`` is ell*_{i+1}; ``values[0]`` equals the prior LLR.
    """

    values: np.ndarray
    prior_llr: float = 0.0

    def __len__(self):
        return len(self.values)


def _scalar_increment(model: SignalModel) -> tuple[Callable[[float], float], float]:
    """A fast scalar x -> D_plus(x) for the tight path loops, and its kernel stretch.

    The second value is the x below which the scalar increment is the kernel
    itself: -inf for the Gaussian closed form and the rate-target table, 40
    for PolyTail, +inf for any other model (a subclass counts as its base).
    """
    if isinstance(model, GaussianSignalModel):
        mean_p, inv_tau = 2.0 / (model.sigma * model.sigma), 1.0 / model.tau

        def incr(x: float) -> float:
            # log sf(state, -x) = log_ndtr((x + mean_state) / tau)
            return log_ndtr_scalar((x + mean_p) * inv_tau) - log_ndtr_scalar(
                (x - mean_p) * inv_tau
            )

        return incr, -math.inf

    if isinstance(model, RateTargetSignalModel):
        table, cut, top = _rate_table(model), len(model.support) // 2, len(model.support)
        cells, ready = memoryview(table.cells), memoryview(table.ready)

        def rate(x: float, ceil=math.ceil) -> float:
            k = ceil(x) + cut  # clamped by comparisons: min and max calls cost thrice as much
            k = k if 0 <= k <= top else (0 if k < 0 else top)
            if not ready[k]:
                table.build(model, k)
            return cells[k]

        return rate, -math.inf

    if isinstance(model, PolyTailSignalModel):
        c, k = model.c, model.k
        a = c / k

        def poly(x: float) -> float:
            if x < 40.0:
                return _signed_increment(model, x, +1)
            # both tails are closed forms here: the minus-state left tail is
            # a x^-k and the plus-state one is c T(x) with T(x) ~ e^-x x^-k-1,
            # smaller by a factor ~ e^-x x^k+1, i.e. < 1e-15 of the result
            return -math.log1p(-a * x**-k) - c * math.exp(-x) * x ** (-k - 1.0)

        return poly, 40.0

    def generic(x: float) -> float:
        return _signed_increment(model, x, +1)

    return generic, math.inf


# Steps per block of the block solve, and the sweeps a block may take
# before it is finished by the sequential loop instead.
_BLOCK = 256
_MAX_SWEEPS = 24


def _solve_blocks(model, incr, below, values, a):
    """Fill ``values[1:]`` from ``values[0] = a`` while the path lies below ``below``.

    While x < ``below`` the path's increment is the kernel itself, so a block of
    steps is the fixed point of "evaluate the kernel at guessed positions in one
    call, rerun the compensated scan over those steps": each sweep fixes at
    least one more position, and only the sequential path returns its input
    bit for bit.  A block that has not converged within ``_MAX_SWEEPS``
    commits the prefix its last sweep returned unchanged, plus the next
    position, which that exact prefix determines.  A block whose sweep fails
    (a guessed position may be one the path never visits) is run by the
    sequential loop, which raises any error where the step-by-step iteration
    would.  Returns the index of the last position filled, with its value
    and carry.
    """
    horizon = len(values)
    i, carry, slope = 0, 0.0, 0.0
    while i < horizon - 1 and a < below:
        n = min(_BLOCK, horizon - 1 - i)
        x = a + slope * np.arange(n, dtype=float)  # x[j] guesses values[i + j]
        x[0] = a
        new = values[i + 1:i + n]  # what the scan makes of x[1:]
        for _ in range(_MAX_SWEEPS):
            try:
                steps = _signed_increment(model, x, +1)
                end = _compensated_steps(_replay(steps), values, i + 1, i + 1 + n, a, carry)
            except (ArithmeticError, ValueError, NumericalFailure):
                exact = 0  # the sequential loop below raises it again if the path meets it
                break
            moved = new.view(np.int64) != x[1:].view(np.int64)
            # x[:j + 1] is exact while the scan returns x[1:j + 1] unchanged,
            # and then so is the step it takes from there
            exact = int(np.argmax(moved)) + 1 if moved.any() else n
            if exact == n:
                break
            x[1:] = new
        if not exact:
            a, carry = _compensated_steps(incr, values, i + 1, i + 1 + n, a, carry)
            i += n
        else:
            # past the first position >= below the steps are not the path's
            crossed = np.flatnonzero(values[i + 1:i + exact] >= below)
            if len(crossed):
                exact = int(crossed[0]) + 1
            if exact < n:
                end = _compensated_steps(
                    _replay(steps[:exact]), values, i + 1, i + 1 + exact, a, carry
                )
            a, carry = end
            i += exact
        slope = values[i] - values[i - 1]
    return i, a, carry


def _replay(steps: np.ndarray) -> Callable[[float], float]:
    """An increment that returns ``steps`` in turn, whatever its argument.

    ``next(it, a)`` returns the next step (``a`` would only be the default
    of an exhausted iterator), with no Python frame per step; a memoryview
    yields them as Python floats.
    """
    steps = np.ascontiguousarray(steps, dtype=float)
    return functools.partial(next, iter(memoryview(steps)))


# Steps per resume of the path loop after the block solve: the unit in which
# ``first_mistake_distribution`` reads the path while the rest is computed.
_CHUNK = 2**16


def ell_star_path(
    model: SignalModel,
    horizon: int,
    prior_llr: float = 0.0,
    *,
    on_chunk: Callable[[np.ndarray, int], None] | None = None,
) -> EllStarPath:
    """Iterate ell' = ell + D_plus(ell) for ``horizon`` agents.

    Compensated summation (``asymptotics.iterate_recurrence``'s loop) keeps
    even 1e7 steps of shrinking increments accurate; a step that underflows
    to exactly 0 holds the path (a rate-target one from a prior at or below
    -cut).  Every loop runs in C where ``_native`` loads: the one
    ``_native.path_steps`` picks for ``model``, which steps an exact-type
    Gaussian, PolyTail or rate-target path by its own increment in C
    (``asymptotics.fused_loop``).  Any other path whose increment is the
    kernel itself (PolyTail below 40 in a subclass or without the library,
    custom models) is first solved in blocks of steps (``_solve_blocks``),
    bit-identical to the step-by-step loop.  The loop then runs in chunks
    of ``_CHUNK`` steps, each resumed from the (a, carry) the last one
    returned, so the bytes are those of one loop.
    After the block solve and after each chunk, ``on_chunk(values, stop)``
    (if given) sees the path's array, final up to ``stop``; an exception it
    raises ends the path.  ``prior_llr`` must be finite.
    """
    _check_size("horizon", horizon)
    _check_finite("prior_llr", prior_llr)
    values = np.empty(horizon, dtype=float)
    values[0] = a = float(prior_llr)
    incr, below = _scalar_increment(model)
    i, carry = 0, 0.0
    if below > -math.inf and not fused_loop(model):
        i, a, carry = _solve_blocks(model, incr, below, values, a)
    start = i + 1
    if on_chunk is not None:
        on_chunk(values, start)
    for stop in [*range(start + _CHUNK, horizon, _CHUNK), horizon]:
        a, carry = _compensated_steps(incr, values, start, stop, a, carry, model)
        start = stop
        if on_chunk is not None:
            on_chunk(values, stop)
    return EllStarPath(values=values, prior_llr=float(prior_llr))


class _Stopped(Exception):
    """Raised to a path's ``on_chunk`` caller once its reader has stopped."""


@dataclass(frozen=True)
class FirstMistakeDistribution:
    """Exact law of the first mistake time under theta=+1.

    ``pmf[i]`` is P(T1 = i+1) and ``survivor[i]`` is P(T1 > i+1), both from
    sums of logs, so neither cancels; ``survivor_mass`` is the probability that
    no mistake occurs within the horizon (the paper's T1 = 0 convention).
    """

    pmf: np.ndarray
    survivor: np.ndarray
    ell_star: EllStarPath

    @property
    def survivor_mass(self) -> float:
        return float(self.survivor[-1])

    def total(self) -> float:
        return float(np.sum(self.pmf) + self.survivor_mass)


def first_mistake_distribution(
    model: SignalModel, horizon: int, prior_llr: float = 0.0
) -> FirstMistakeDistribution:
    """P(T1 = t) = G_plus(-ell*_t) * prod_{s<t} (1 - G_plus(-ell*_s)), exactly.

    Products are accumulated as sums of log-survivals, so horizons of 1e6+
    lose no accuracy even when the per-step mistake probability is tiny.
    One helper thread runs ``ell_star_path``, which hands over each chunk
    of final values (``on_chunk``) while this thread turns it into the law,
    at most ``_CHUNK`` steps at a time: their mistake and survival logs,
    then ``np.cumsum`` started from the running log-survival total, which
    adds in the order of one cumsum over the whole path.  So the bytes are
    those of the whole-path computation, and besides the path, ``pmf`` and
    ``survivor`` the law holds only one chunk's temporaries.  The Gaussian
    path loop runs in C without the GIL, so on a second CPU the two
    overlap; a loop that calls Python overlaps less.  An error of the path
    is raised here as ``ell_star_path`` raises it; an error here stops the
    helper after its current chunk.  Either way the helper has ended when
    this returns.
    """
    _check_size("horizon", horizon)
    _check_finite("prior_llr", prior_llr)
    pmf, survivor = np.empty(horizon), np.empty(horizon)
    ready, stopped = queue.SimpleQueue(), threading.Event()

    def hand_over(values, stop):
        ready.put((values, stop))
        if stopped.is_set():
            raise _Stopped

    def produce():
        try:
            ready.put(ell_star_path(model, horizon, prior_llr, on_chunk=hand_over))
        except _Stopped:
            pass
        except BaseException as exc:  # handed to the caller, which raises it
            ready.put(exc)

    helper = threading.Thread(target=produce, name="ell-star-path")
    helper.start()
    try:
        done, total, path = 0, 0.0, None
        while path is None:
            item = ready.get()
            if isinstance(item, BaseException):
                raise item
            if isinstance(item, tuple):
                values, final = item
            else:  # the path, after its last chunk
                path, values, final = item, item.values, horizon
            for lo in range(done, final, _CHUNK):
                hi = min(lo + _CHUNK, final)
                neg = -values[lo:hi]
                log_mistake = np.asarray(model.llr_log_cdf(StateOfWorld.PLUS, neg), dtype=float)
                cum = np.empty(hi - lo + 1)
                cum[0] = total
                cum[1:] = model.llr_log_sf(StateOfWorld.PLUS, neg)
                np.cumsum(cum, out=cum)
                np.exp(log_mistake + cum[:-1], out=pmf[lo:hi])
                np.exp(cum[1:], out=survivor[lo:hi])
                total = cum[-1]
            done = final
    finally:
        stopped.set()
        helper.join()
    return FirstMistakeDistribution(pmf=pmf, survivor=survivor, ell_star=path)


def u_plus_monotone_threshold(
    model: SignalModel, search_limit: float, grid_step: float = 0.01
):
    """Smallest grid point past which u_+(x) = x + D_plus(x) increases.

    Returns None when no such point exists below ``search_limit``.
    """
    for name, value in (("search_limit", search_limit), ("grid_step", grid_step)):
        _check_finite(name, value)
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    xs = np.arange(0.0, search_limit + grid_step, grid_step)
    u = xs + np.asarray(d_plus(model, xs), dtype=float)
    slopes = np.diff(u)
    bad = np.nonzero(slopes <= 0.0)[0]
    idx = 0 if len(bad) == 0 else int(bad[-1]) + 1
    if idx >= len(slopes):
        return None
    return float(xs[idx])
