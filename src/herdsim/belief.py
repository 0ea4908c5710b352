"""Exact dynamics of the public log-likelihood ratio.

The state variable is ell, the log odds an outside observer assigns to the
event theta=+1 after seeing the actions so far.  Observing action +1 moves
ell up by d_plus(ell); observing -1 moves it down by d_minus(ell).  The
module also provides the deterministic all-correct path ell*, the exact
distribution of the first mistake along it, and a few diagnostics used by
the asymptotic analysis.

All functions are pure; d_plus / d_minus accept scalars or arrays.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Callable

import numpy as np

from .signal_models import (
    GaussianSignalModel,
    PolyTailSignalModel,
    RateTargetSignalModel,
    SignalModel,
    StateOfWorld,
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
    "export_first_mistake_csv",
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


def d_plus(model: SignalModel, x):
    """Increment of ell when action +1 is observed at public LLR x.

    Computed as a difference of log-survival values while the minus-state
    tail mass at -x is above 1e-8.  Past that point both log-survivals are
    within rounding of zero and the difference loses all precision, so the
    computation switches to the tail form G_minus(-x) - G_plus(-x) (whose
    neglected relative correction is of order the tail mass itself).
    Always positive.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    lsm = np.asarray(model.llr_log_sf(StateOfWorld.MINUS, -x), dtype=float)
    lsp = np.asarray(model.llr_log_sf(StateOfWorld.PLUS, -x), dtype=float)
    out = lsp - lsm
    tail = lsm > -1e-8
    if np.any(tail):
        xt = x[tail]
        lcm = np.asarray(model.llr_log_cdf(StateOfWorld.MINUS, -xt), dtype=float)
        lcp = np.asarray(model.llr_log_cdf(StateOfWorld.PLUS, -xt), dtype=float)
        out[tail] = np.exp(lcm + np.log1p(-np.exp(lcp - lcm)))
    return float(out[0]) if scalar else out


def d_minus(model: SignalModel, x):
    """Increment of ell when action -1 is observed; always negative.

    Mirrors d_plus: log-CDF difference in the bulk, switching to the tail
    form -(1 - G_plus(-x)) + (1 - G_minus(-x)) once the plus-state upper
    tail mass at -x drops below 1e-8.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    lcp = np.asarray(model.llr_log_cdf(StateOfWorld.PLUS, -x), dtype=float)
    lcm = np.asarray(model.llr_log_cdf(StateOfWorld.MINUS, -x), dtype=float)
    out = lcp - lcm
    tail = lcp > -1e-8
    if np.any(tail):
        xt = x[tail]
        lsm = np.asarray(model.llr_log_sf(StateOfWorld.MINUS, -xt), dtype=float)
        lsp = np.asarray(model.llr_log_sf(StateOfWorld.PLUS, -xt), dtype=float)
        out[tail] = -np.exp(lsp + np.log1p(-np.exp(lsm - lsp)))
    return float(out[0]) if scalar else out


def log_d_plus(model: SignalModel, x):
    """log D_plus(x), usable far beyond the underflow point of d_plus.

    For large x, D_plus(x) = G_minus(-x) - G_plus(-x) up to a relative
    error of order G_minus(-x); we switch to that log-space form once the
    tail arguments drop below 1e-8, where the correction is negligible.
    """
    x, scalar = np.asarray(x, dtype=float), np.asarray(x).ndim == 0
    x = np.atleast_1d(x)
    lcm = np.asarray(model.llr_log_cdf(StateOfWorld.MINUS, -x), dtype=float)
    lcp = np.asarray(model.llr_log_cdf(StateOfWorld.PLUS, -x), dtype=float)
    out = np.empty_like(lcm)
    tail = lcm < math.log(1e-8)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[tail] = lcm[tail] + np.log1p(-np.exp(lcp[tail] - lcm[tail]))
        bulk = ~tail
        out[bulk] = np.log(d_plus(model, x[bulk]))
    return float(out[0]) if scalar else out


def log_d_minus(model: SignalModel, x):
    """log(-D_minus(x)), the mirrored companion of log_d_plus."""
    x, scalar = np.atleast_1d(np.asarray(x, dtype=float)), np.asarray(x).ndim == 0
    lsm = np.asarray(model.llr_log_sf(StateOfWorld.MINUS, -x), dtype=float)
    lsp = np.asarray(model.llr_log_sf(StateOfWorld.PLUS, -x), dtype=float)
    out = np.empty_like(lsm)
    tail = lsp < math.log(1e-8)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[tail] = lsp[tail] + np.log1p(-np.exp(lsm[tail] - lsp[tail]))
        bulk = ~tail
        out[bulk] = np.log(-d_minus(model, x[bulk]))
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Decision rule and one-step dynamics
# ---------------------------------------------------------------------------


def decide(ell: float, llr: float) -> ActionLabel:
    """Optimal action given public LLR and the agent's private LLR; ties pick -1."""
    return ActionLabel.PLUS if ell + llr > 0.0 else ActionLabel.MINUS


def update(model: SignalModel, state: BeliefState, action: ActionLabel) -> BeliefState:
    """Public belief after observing one action."""
    if action is ActionLabel.PLUS:
        incr = float(d_plus(model, state.ell))
    else:
        incr = float(d_minus(model, state.ell))
    return BeliefState(ell=state.ell + incr, t=state.t + 1)


def public_belief(ell):
    """mu = e^ell / (e^ell + 1), overflow-safe for |ell| up to 1e4 and beyond."""
    ell = np.asarray(ell, dtype=float)
    with np.errstate(over="ignore"):
        return np.where(ell >= 0, 1.0 / (1.0 + np.exp(-ell)), np.exp(ell) / (1.0 + np.exp(ell)))


def action_probability(model: SignalModel, ell, state: StateOfWorld):
    """P(a = +1 | ell, theta) = 1 - G_theta(-ell), evaluated via log-survival."""
    return np.exp(model.llr_log_sf(state, -np.asarray(ell, dtype=float)))


def rb_mistake_weight(ell):
    """Conditional mistake probability min(mu, 1-mu) = 1/(e^|ell| + 1)."""
    ell = np.asarray(ell, dtype=float)
    return 1.0 / (np.exp(np.abs(ell)) + 1.0)


def martingale_residual(model: SignalModel, ell: float) -> float:
    """One-step martingale defect of the public belief; zero in exact arithmetic."""
    mu = float(public_belief(ell))
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


def _scalar_increment(model: SignalModel) -> Callable[[float], float]:
    """A fast scalar x -> D_plus(x) for the tight path loops."""
    if isinstance(model, GaussianSignalModel):
        mean_p = 2.0 / (model.sigma * model.sigma)
        inv_tau = 1.0 / model.tau

        def incr(x: float) -> float:
            # log sf(state, -x) = log_ndtr((x + mean_state) / tau)
            return log_ndtr_scalar((x + mean_p) * inv_tau) - log_ndtr_scalar(
                (x - mean_p) * inv_tau
            )

        return incr

    if isinstance(model, PolyTailSignalModel):
        c, k = model.c, model.k
        a = c / k

        def poly(x: float) -> float:
            if x < 40.0:
                return float(d_plus(model, x))
            # both tails are closed forms here: the minus-state left tail is
            # a x^-k and the plus-state one is c T(x) with T(x) ~ e^-x x^-k-1,
            # smaller by a factor ~ e^-x x^k+1, i.e. < 1e-15 of the result
            return -math.log1p(-a * x**-k) - c * math.exp(-x) * x ** (-k - 1.0)

        return poly

    def generic(x: float) -> float:
        return float(d_plus(model, x))

    return generic


def ell_star_path(model: SignalModel, horizon: int, prior_llr: float = 0.0) -> EllStarPath:
    """Iterate ell' = ell + D_plus(ell) for ``horizon`` agents.

    Uses compensated summation so that even 1e7 steps of shrinking
    increments accumulate negligible rounding.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if isinstance(model, RateTargetSignalModel):
        return _ell_star_path_ratetarget(model, horizon, prior_llr)
    values = np.empty(horizon, dtype=float)
    incr = _scalar_increment(model)
    ell = float(prior_llr)
    carry = 0.0
    values[0] = ell
    for i in range(1, horizon):
        y = incr(ell) - carry
        s = ell + y
        carry = (s - ell) - y
        ell = s
        values[i] = ell
    return EllStarPath(values=values, prior_llr=float(prior_llr))


def _ell_star_path_ratetarget(
    model: RateTargetSignalModel, horizon: int, prior_llr: float
) -> EllStarPath:
    """Exploits that D_plus is piecewise constant between integers.

    Within an integer cell the path is an arithmetic progression, so whole
    segments are filled at once; the cost is O(support + horizon) instead
    of one CDF lookup per step.
    """
    values = np.empty(horizon, dtype=float)
    ell = float(prior_llr)
    values[0] = ell
    i = 0
    while i < horizon - 1:
        step = float(d_plus(model, ell))
        if step <= 0.0 or not math.isfinite(step):
            # Beyond the truncated support the increment vanishes.
            values[i:] = ell
            break
        next_boundary = math.floor(ell) + 1.0
        n_steps = int(math.ceil((next_boundary - ell) / step))
        n_steps = max(1, min(n_steps, horizon - 1 - i))
        seg = ell + step * np.arange(1, n_steps + 1)
        values[i + 1:i + 1 + n_steps] = seg
        ell = float(seg[-1])
        i += n_steps
    return EllStarPath(values=values, prior_llr=float(prior_llr))


@dataclass(frozen=True)
class FirstMistakeDistribution:
    """Exact law of the first mistake time under theta=+1.

    ``pmf[i]`` is P(T1 = i+1); ``survivor_mass`` is the probability that no
    mistake occurs within the horizon (the paper's T1 = 0 convention).
    """

    pmf: np.ndarray
    survivor_mass: float
    ell_star: EllStarPath

    def total(self) -> float:
        return float(np.sum(self.pmf) + self.survivor_mass)


def first_mistake_distribution(
    model: SignalModel, horizon: int, prior_llr: float = 0.0
) -> FirstMistakeDistribution:
    """P(T1 = t) = G_plus(-ell*_t) * prod_{s<t} (1 - G_plus(-ell*_s)), exactly.

    Products are accumulated as sums of log-survivals, so horizons of 1e6+
    lose no accuracy even when the per-step mistake probability is tiny.
    """
    path = ell_star_path(model, horizon, prior_llr)
    neg = -path.values
    log_mistake = np.asarray(model.llr_log_cdf(StateOfWorld.PLUS, neg), dtype=float)
    log_correct = np.asarray(model.llr_log_sf(StateOfWorld.PLUS, neg), dtype=float)
    cum = np.concatenate(([0.0], np.cumsum(log_correct)))
    pmf = np.exp(log_mistake + cum[:-1])
    survivor = float(np.exp(cum[-1]))
    return FirstMistakeDistribution(pmf=pmf, survivor_mass=survivor, ell_star=path)


def u_plus_monotone_threshold(
    model: SignalModel, search_limit: float, grid_step: float = 0.01
):
    """Smallest grid point past which u_+(x) = x + D_plus(x) increases.

    Returns None when no such point exists below ``search_limit``.
    """
    if search_limit <= 0:
        raise ValueError("search_limit must be positive")
    xs = np.arange(0.0, search_limit + grid_step, grid_step)
    u = xs + np.asarray(d_plus(model, xs), dtype=float)
    slopes = np.diff(u)
    bad = np.nonzero(slopes <= 0.0)[0]
    idx = 0 if len(bad) == 0 else int(bad[-1]) + 1
    if idx >= len(slopes):
        return None
    return float(xs[idx])


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def export_first_mistake_csv(dist: FirstMistakeDistribution, fh: IO[str]) -> None:
    """Write (t, ell_star, p_first_mistake, log10_p, survivor_mass_running)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["t", "ell_star", "p_first_mistake", "log10_p", "survivor_mass_running"])
    running = 1.0
    with np.errstate(divide="ignore"):
        log10p = np.log10(dist.pmf)
    for i, (ell, p) in enumerate(zip(dist.ell_star.values, dist.pmf)):
        running -= p
        writer.writerow(
            [
                i + 1,
                format(ell, ".17g"),
                format(p, ".17g"),
                format(float(log10p[i]), ".17g"),
                format(running, ".17g"),
            ]
        )
