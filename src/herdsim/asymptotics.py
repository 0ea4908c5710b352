"""Long-run growth predictions for the public log-likelihood ratio.

The discrete recurrence ell_{t+1} = ell_t + D_plus(ell_t) is asymptotically
equivalent to the autonomous differential equation f'(t) = G_minus(-f(t)).
This module integrates that equation for any signal model or synthetic tail
by Dormand-Prince RK45 (Dormand & Prince 1980), with the arithmetic of
scipy's ``solve_ivp`` reproduced bit for bit (see ``solve_growth_ode``),
provides the closed forms for exponential and polynomial tails, the Gaussian
sqrt(log t) rate with its envelope solutions, and a generic compensated
recurrence iterator for recurrence-vs-ODE comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .signal_models import (
    NumericalFailure,
    SignalModel,
    StateOfWorld,
    _check_finite,
    _check_size,
)

__all__ = [
    "OdeSolution",
    "GaussianEnvelope",
    "solve_growth_ode",
    "solve_belief_ode",
    "closed_form_exponential_tail",
    "closed_form_polynomial_tail",
    "gaussian_rate_prediction",
    "gaussian_envelope_solutions",
    "iterate_recurrence",
    "ratio_curve",
]


@dataclass(frozen=True)
class OdeSolution:
    """A monotone solution f of f'(t) = rate(f(t)) on [t0, horizon].

    ``t_grid``/``f_values`` hold the accepted integrator steps; ``__call__``
    queries the dense interpolant at arbitrary times in range.
    """

    t_grid: np.ndarray
    f_values: np.ndarray
    t0: float
    f0: float
    _q: tuple  # per step, the coefficients (1 x 4) of its quartic interpolant
    _rate: Callable[[float], float]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if t.ndim > 1:
            raise ValueError("query times must be a scalar or a 1-D array")
        if np.isnan(t).any():
            raise ValueError("query time t must not be NaN")
        if np.any(t < self.t_grid[0]) or np.any(t > self.t_grid[-1]):
            raise ValueError("query time outside the integrated range")
        out = self._dense(np.atleast_1d(t))
        return float(out[0]) if t.ndim == 0 else out

    def derivative(self, t):
        f = np.atleast_1d(self(t))
        out = np.array([self._rate(float(v)) for v in f])
        return float(out[0]) if np.asarray(t).ndim == 0 else out

    def _dense(self, t: np.ndarray) -> np.ndarray:
        # scipy's OdeSolution.__call__: the points in increasing order, each
        # run that falls in one step evaluated by one call of that step's quartic
        order = np.argsort(t)
        t_sorted = t[order]
        steps = np.searchsorted(self.t_grid, t_sorted, side="left") - 1
        steps = np.clip(steps, 0, len(self._q) - 1)
        starts = np.flatnonzero(np.diff(steps, prepend=-1))
        out = np.empty(len(t))
        for start, end in zip(starts, [*starts[1:], len(t)]):
            i = steps[start]
            t_old = self.t_grid[i]
            h = self.t_grid[i + 1] - t_old
            x = (t_sorted[start:end] - t_old) / h
            p = np.cumprod(np.tile(x, (4, 1)), axis=0)
            y = h * np.dot(self._q[i], p)
            y += self.f_values[i]
            out[order[start:end]] = y[0]
        return out


# Dormand & Prince's 5(4) pair with Shampine's quartic dense output (the
# optimum c6), as scipy's RK45 holds them, and its step control.  The stage
# times C = (0, 1/5, 3/10, 4/5, 8/9, 1) do not enter: the rate reads f alone.
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size ** 0.5


def solve_growth_ode(
    rate: Callable[[float], float],
    t0: float,
    f0: float,
    horizon: float,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> OdeSolution:
    """Integrate f' = rate(f) by Dormand-Prince RK45 with quartic dense output.

    The arithmetic is scipy 1.17's ``solve_ivp(..., method="RK45",
    dense_output=True)`` for one equation, bit for bit: the same tableau,
    initial step, step control and RMS norm, and the same numpy calls on
    arrays of the same shapes (the stages K are 7 x 1, f is 1-D), since a
    ``np.dot`` over other shapes may sum in another order.  The dense output
    keeps scipy's grouping too: a query evaluates each run of its sorted
    points that falls in one step by one call, because a BLAS product over a
    group of one point may round differently from one over many.  Doing it
    here spares a run the import of ``scipy.integrate``, which loads most of
    scipy.

    ``rate`` must be positive on the solution range so f is increasing.
    Raises NumericalFailure if rate returns NaN (naming the f) or the
    integrator cannot reach the horizon.
    """
    for name, value in (("t0", t0), ("f0", f0), ("horizon", horizon), ("rtol", rtol), ("atol", atol)):
        _check_finite(name, value)
    if not horizon > t0:
        raise ValueError("horizon must exceed t0")
    if atol < 0.0:
        raise ValueError("atol must be non-negative")
    rtol = max(rtol, 100 * np.finfo(float).eps)

    def fun(y):
        x = float(y[0])
        out = np.asarray([rate(x)], dtype=float)
        if out[0] != out[0]:  # it would make every step size NaN, and steps would never end
            raise NumericalFailure(f"growth ODE rate is NaN at f = {x!r}")
        return out

    t, horizon = float(t0), float(horizon)
    y = np.asarray([f0], dtype=float)
    f = fun(y)

    # scipy's select_initial_step (Hairer, Norsett & Wanner, sec. II.4)
    interval_length = horizon - t
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    d2 = _rms((fun(y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, interval_length)

    # solve_ivp's loop.  It drops a step whose time repeats the last one, which
    # cannot happen here: every step advances t by at least min_step.
    K = np.empty((7, 1))
    ts, fs, qs = [t], [f0], []
    while t < horizon:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # NaN too: it would never shrink
                raise NumericalFailure(f"growth ODE integration failed: {_TOO_SMALL_STEP}")
            t_new = min(t + h_abs, horizon)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = fun(y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = fun(y_new)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        qs.append(K.T.dot(_P))
        ts.append(t_new)
        fs.append(y_new[0])
        t, y, f = t_new, y_new, f_new

    f_values = np.array(fs, dtype=float)
    if np.any(np.diff(f_values) < 0.0):
        raise NumericalFailure("growth ODE produced a non-monotone solution")
    return OdeSolution(
        t_grid=np.array(ts),
        f_values=f_values,
        t0=float(t0),
        f0=float(f0),
        _q=tuple(qs),
        _rate=rate,
    )


def solve_belief_ode(
    model: SignalModel, t0: float, f0: float, horizon: float, **kwargs
) -> OdeSolution:
    """The belief-growth ODE f'(t) = G_minus(-f(t)) for a signal model."""
    _check_finite("f0", f0)  # t0 and horizon are checked by solve_growth_ode
    if not f0 > 0.0:
        raise ValueError("f0 must be positive")

    def rate(x: float) -> float:
        return float(np.exp(model.llr_log_cdf(StateOfWorld.MINUS, -x)))

    return solve_growth_ode(rate, t0, f0, horizon, **kwargs)


def closed_form_exponential_tail(c: float, t) -> float:
    """Solution log(t + c) of f' = e^{-f}."""
    _check_finite("c", c)
    t = np.asarray(t, dtype=float)
    if not np.all(t + c > 0.0):
        raise ValueError("t + c must be positive")
    out = np.log(t + c)
    return float(out) if out.ndim == 0 else out


def closed_form_polynomial_tail(k: float, c: float, t) -> float:
    """Solution ((k+1) t + c)^{1/(k+1)} of f' = f^{-k}."""
    _check_finite("k", k)
    _check_finite("c", c)
    if k <= 0.0:
        raise ValueError("tail exponent k must be positive")
    t = np.asarray(t, dtype=float)
    arg = (k + 1.0) * t + c
    if not np.all(arg > 0.0):
        raise ValueError("(k+1) t + c must be positive")
    out = np.power(arg, 1.0 / (k + 1.0))
    return float(out) if out.ndim == 0 else out


def gaussian_rate_prediction(sigma: float, t, order: int = 1) -> float:
    """The growth of the Gaussian model's ell*_t: leading order, or to second order.

    ``order`` 1 gives (2 sqrt(2) / sigma) sqrt(log t) = tau sqrt(2 log t),
    with tau = 2/sigma the LLR's standard deviation.  ``order`` 2 adds the
    Mills-ratio shift: m + tau sqrt(2 log(t / (tau sqrt(2 pi)))), with
    m = 2/sigma**2 the LLR's mean, defined for t > tau sqrt(2 pi).
    """
    _check_finite("sigma", sigma)
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    t = np.asarray(t, dtype=float)
    if order == 1:
        if not np.all(t > 1.0):
            raise ValueError("prediction requires t > 1")
        out = (2.0 * math.sqrt(2.0) / sigma) * np.sqrt(np.log(t))
    else:
        m, tau = 2.0 / sigma**2, 2.0 / sigma
        scale = tau * math.sqrt(2.0 * math.pi)
        if not np.all(t > scale):
            raise ValueError(f"second-order prediction requires t > tau sqrt(2 pi) = {scale!r}")
        out = m + tau * np.sqrt(2.0 * np.log(t / scale))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GaussianEnvelope:
    """Comparison tail F_eta(x) = e^{-(1-eta) x^2 / (2 tau^2)} / x.

    eta = 0 gives the lower comparison (F_0 below the Gaussian tail of
    G_minus), eta > 0 the upper.  tau = 2/sigma is the standard deviation
    of the private LLR.
    """

    eta: float
    tau: float
    c_shift: float = 0.0

    def __post_init__(self):
        _check_envelope(self.eta, self.tau, self.c_shift)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-(1.0 - self.eta) * x * x / (2.0 * self.tau**2)) / x

    def solution(self, t):
        return gaussian_envelope_solutions(self.eta, self.tau, self.c_shift, t)


def gaussian_envelope_solutions(eta: float, tau: float, c_shift: float, t):
    """The envelope curve f_eta(t) associated with F_eta.

    f_eta(t) = (sqrt(2) tau / sqrt(1-eta)) * sqrt(log(t + c_shift) + A)
    with A = log((1-eta)^2 / (2 tau^2)).  Note f_eta satisfies the
    time-rescaled equation f' = ((1-eta)/2) F_eta(f) exactly; it differs
    from the exact solution of f' = F_eta(f) only by a bounded shift
    inside the logarithm, which is irrelevant at the sqrt(log t) scale.
    """
    _check_envelope(eta, tau, c_shift)
    t = np.asarray(t, dtype=float)
    inner = np.log(t + c_shift) + math.log((1.0 - eta) ** 2 / (2.0 * tau**2))
    if not np.all(inner > 0.0):
        raise ValueError("envelope argument not positive at the requested time")
    out = (math.sqrt(2.0) * tau / math.sqrt(1.0 - eta)) * np.sqrt(inner)
    return float(out) if out.ndim == 0 else out


def _check_envelope(eta: float, tau: float, c_shift: float) -> None:
    """The parameter checks shared by GaussianEnvelope and gaussian_envelope_solutions."""
    if not (0.0 <= eta < 1.0):
        raise ValueError(f"eta must lie in [0, 1), got {eta!r}")
    _check_finite("tau", tau)
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    _check_finite("c_shift", c_shift)


def iterate_recurrence(
    increment: Callable[[float], float], a0: float, horizon: int
) -> np.ndarray:
    """Run a_{t+1} = a_t + increment(a_t) with compensated summation.

    Returns the array [a_1, ..., a_horizon] with a_1 = a0.  A step of
    exactly 0 (an increment that underflows in double precision) holds
    the sequence; a negative or non-finite step raises NumericalFailure.
    The sequence never decreases: a step smaller than the compensation
    carry (the amount by which the rounded sum overshoots the exact one)
    holds the value and is taken out of the carry instead.
    """
    _check_size("horizon", horizon)
    _check_finite("a0", a0)
    values = np.empty(horizon, dtype=float)
    values[0] = a = float(a0)
    _compensated_steps(increment, values, 1, horizon, a, 0.0)
    return values


def _compensated_steps(
    increment: Callable[[float], float],
    values: np.ndarray,
    start: int,
    stop: int,
    a: float,
    carry: float,
    model: SignalModel | None = None,
) -> tuple[float, float]:
    """Fill ``values[start:stop]`` with a <- a + increment(a), Kahan-compensated.

    ``a`` and ``carry`` are the value at ``start - 1`` and the running
    compensation there; the pair at ``stop - 1`` is returned, so a caller
    can resume the sequence.  The one compensated loop of the recurrence
    iterators: where ``_native`` loads it runs in C, in the loop that
    ``_native.path_steps`` picks for ``model`` (``increment``'s, or None),
    and ``_python_steps`` takes any step C hands back and the rest of the range.
    """
    from . import _native  # imported here: importing the package loads no library

    lib = _native.library()
    if lib is not None:
        start, a, carry, step = _native.path_steps(lib, model, increment, values, start, stop, a, carry)
        if start < stop:  # the Python loop raises at this step, or goes on from it
            a, carry = _python_steps(lambda _: step, values, start, start + 1, a, carry)
            start += 1
    return _python_steps(increment, values, start, stop, a, carry)


def fused_loop(model: SignalModel) -> bool:
    """Whether ``_compensated_steps`` steps ``model``'s ell* in its own C loop (``_native.path_loop``)."""
    from . import _native  # imported here: importing the package loads no library

    lib = _native.library()
    return lib is not None and _native.path_loop(lib, model) is not None


def _python_steps(increment, values, start, stop, a, carry) -> tuple[float, float]:
    """``_compensated_steps`` in Python: the reference of the C loops, and their fallback."""
    out = memoryview(values)  # stores a Python float faster than ndarray item assignment
    inf = math.inf
    for i in range(start, stop):
        step = increment(a)
        if not 0.0 < step < inf:
            if step != 0.0:  # NaN included
                raise _invalid_step(step, a)
            out[i] = a  # a zero step holds a; applying the carry could move it down
            continue
        y = step - carry
        if y < 0.0:  # a overshoots the exact sum by more than the step: hold it there
            carry = -y
            out[i] = a
            continue
        s = a + y
        carry = (s - a) - y
        a = s
        out[i] = a
    return a, carry


def _invalid_step(step: float, a: float) -> NumericalFailure:
    """The error of a recurrence whose increment at ``a`` is negative or not finite."""
    return NumericalFailure(f"increment {step!r} not finite and >= 0 at a={a!r}")


def ratio_curve(
    seq_a: Sequence[float], seq_b: Sequence[float], sample_times: Sequence[int]
) -> list[tuple[int, float]]:
    """Elementwise ratios a_t / b_t at the given 1-based times; a NaN element is refused."""
    a = np.asarray(seq_a, dtype=float)
    b = np.asarray(seq_b, dtype=float)
    out = []
    for t in sample_times:
        if not (1 <= t <= len(a) and t <= len(b)):
            raise ValueError(f"sample time {t} outside the sequences")
        if math.isnan(a[t - 1]) or math.isnan(b[t - 1]):
            raise ValueError(f"NaN element at sample time {t}: a_t = {a[t - 1]:g}, b_t = {b[t - 1]:g}")
        out.append((int(t), float(a[t - 1] / b[t - 1])))
    return out
