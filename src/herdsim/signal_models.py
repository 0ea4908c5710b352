"""Private-signal models for sequential binary-action learning.

A signal model is described entirely through the conditional laws of the
private log-likelihood ratio L of a single agent's signal: the CDF G_plus
(conditioned on the true state being +1) and G_minus (conditioned on -1).
All downstream dynamics only ever touch these two distributions, so the
models here expose tail-accurate CDF / log-CDF / log-survival evaluation
and reproducible sampling, and nothing else.

Three families are provided:

* ``GaussianSignalModel``   -- signals N(+-1, sigma^2); L is Gaussian too.
* ``PolyTailSignalModel``   -- explicit piecewise density with polynomial
  left tail and e^{-x} x^{-k-1} right tail; the LLR of a sample equals the
  sample itself.
* ``RateTargetSignalModel`` -- discrete integer-supported model built from
  a decreasing table Q, engineered so the public belief can grow at a
  prescribed sub-linear rate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
from scipy import special

__all__ = [
    "StateOfWorld",
    "SignalModel",
    "InverseCdfSignalModel",
    "GaussianSignalModel",
    "PolyTailSignalModel",
    "RateTargetSignalModel",
    "NumericalFailure",
    "ModelValidationError",
    "poly_tail_normalizer",
    "build_rate_target",
    "check_llr_identity",
    "model_to_json",
    "model_from_json",
]

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _as1d(x):
    """Coerce to a 1-d float array, remembering whether the input was scalar."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def _restore(out, scalar):
    return float(out[0]) if scalar else out


def _is_int(value) -> bool:
    """An int or numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_size(name: str, value) -> None:
    """Refuse a size argument that is not an integer >= 1, naming it."""
    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_finite(name: str, value) -> None:
    """Refuse a parameter that is NaN or infinite, naming it."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


class NumericalFailure(RuntimeError):
    """A quadrature or root-find did not converge to the requested accuracy."""


class ModelValidationError(ValueError):
    """Model parameters violate the constraints of the family."""


class StateOfWorld(Enum):
    """The binary state of the world; serialized as -1 / +1."""

    MINUS = -1
    PLUS = +1

    @property
    def sign(self) -> int:
        return self.value


def log_ndtr_scalar(a: float) -> float:
    """Fast scalar log of the standard normal CDF.

    Matches ``scipy.special.log_ndtr`` to better than 1e-12 everywhere; the
    three branches (log1p near +inf, erfc in the bulk, asymptotic series in
    the deep left tail) are chosen so adjacent branches agree to 1e-12 at
    the switch points.
    """
    if a > 6.0:
        return math.log1p(-0.5 * math.erfc(a / _SQRT2))
    if a > -37.0:
        return math.log(0.5 * math.erfc(-a / _SQRT2))
    # Deep tail: log phi(a) - log(-a) + log of the Mills-ratio series.
    inv2 = 1.0 / (a * a)
    series = 1.0 + inv2 * (-1.0 + inv2 * (3.0 + inv2 * (-15.0 + inv2 * (105.0 - 945.0 * inv2))))
    return -0.5 * a * a - _LOG_SQRT_2PI - math.log(-a) + math.log(series)


class SignalModel:
    """Behavioral contract shared by all signal models.

    Concrete models are immutable after construction and safe to share
    across workers; sampling takes a caller-provided generator.
    """

    family: str = "abstract"

    # -- CDF surface ---------------------------------------------------

    def llr_cdf(self, state: StateOfWorld, x):
        """G_state(x): conditional CDF of the private LLR."""
        raise NotImplementedError

    def llr_log_cdf(self, state: StateOfWorld, x):
        """log G_state(x), accurate deep into the left tail."""
        raise NotImplementedError

    def llr_log_sf(self, state: StateOfWorld, x):
        """log(1 - G_state(x)), accurate deep into the right tail."""
        raise NotImplementedError

    def llr_pdf(self, state: StateOfWorld, x):
        """Conditional density of the LLR; None for discrete models."""
        return None

    def llr_mean(self, state: StateOfWorld) -> float:
        """E_state[L], the mean private LLR; +-inf where it diverges."""
        raise NotImplementedError

    def log_action_probabilities(self, x: np.ndarray, sign: int):
        """log P(action ``sign`` | public LLR x) under theta = -1 and under theta = +1.

        An agent plays +1 when x + L > 0, so these are the log-survivals of
        L at -x for ``sign`` = +1 and the log-CDFs for -1.  Families override
        this to evaluate both states in one pass over the 1-d array x.
        """
        log_p = self.llr_log_sf if sign > 0 else self.llr_log_cdf
        return (
            np.asarray(log_p(StateOfWorld.MINUS, -x), dtype=float),
            np.asarray(log_p(StateOfWorld.PLUS, -x), dtype=float),
        )

    # -- sampling ------------------------------------------------------

    def sample_llr(self, state: StateOfWorld, rng: np.random.Generator, size=None):
        """Draw LLR samples from the conditional law.

        Identical generator state yields identical samples, and drawing in
        chunks consumes the stream exactly like drawing one at a time.
        """
        raise NotImplementedError

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        raise NotImplementedError

    @property
    def is_discrete(self) -> bool:
        return False


def _hybrid_log_ndtr(z):
    """log Phi(z) at full accuracy, ~4x faster than the all-log evaluation.

    ndtr keeps full relative precision down to its underflow point, so
    log(ndtr) is exact to machine epsilon wherever ndtr stays normal; the
    slower asymptotic log form is used only in the far tail.
    """
    z = np.asarray(z, dtype=float)
    p = special.ndtr(z)
    if not (p < 1e-300).any():  # the mask is gone before log allocates: no extra peak memory
        return np.log(p)
    deep = p < 1e-300
    # the placeholder 1 keeps log(0) from warning where log_ndtr takes over
    return np.where(deep, special.log_ndtr(z), np.log(np.where(deep, 1.0, p)))


class InverseCdfSignalModel(SignalModel):
    """A model that samples by inversion: one uniform per draw.

    ``llr_from_uniform`` is the only sampling route; ``sample_llr`` feeds it
    ``rng.random(size)``.  The map is elementwise, so a caller may draw each
    stream's uniforms separately and transform them together in one block
    of any shape, bit-identically to per-stream ``sample_llr`` calls.
    """

    def llr_from_uniform(self, state: StateOfWorld, u: np.ndarray) -> np.ndarray:
        """The quantile function of G_state applied to uniforms u in [0, 1)."""
        raise NotImplementedError

    def sample_llr(self, state, rng, size=None):
        x = self.llr_from_uniform(state, np.atleast_1d(rng.random(size)))
        return float(x[0]) if size is None else x


# ---------------------------------------------------------------------------
# Gaussian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianSignalModel(SignalModel):
    """Signals are N(theta, sigma^2); the LLR is N(theta*2/sigma^2, 4/sigma^2)."""

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ModelValidationError(f"sigma must be positive, got {self.sigma}")

    family = "gaussian"

    @property
    def tau(self) -> float:
        """Standard deviation of the private LLR (= 2/sigma)."""
        return 2.0 / self.sigma

    def llr_mean(self, state: StateOfWorld) -> float:
        return state.sign * 2.0 / (self.sigma * self.sigma)

    def _z(self, state: StateOfWorld, x):
        return (np.asarray(x, dtype=float) - self.llr_mean(state)) / self.tau

    def llr_cdf(self, state, x):
        return special.ndtr(self._z(state, x))

    def llr_log_cdf(self, state, x):
        return _hybrid_log_ndtr(self._z(state, x))

    def llr_log_sf(self, state, x):
        return _hybrid_log_ndtr(-self._z(state, x))

    def llr_pdf(self, state, x):
        z = self._z(state, x)
        return np.exp(-0.5 * z * z) / (self.tau * math.sqrt(2.0 * math.pi))

    @cached_property
    def _state_means(self):
        return np.array([[self.llr_mean(StateOfWorld.MINUS)], [self.llr_mean(StateOfWorld.PLUS)]])

    def log_action_probabilities(self, x, sign):
        # Row 0 is theta = -1, row 1 is theta = +1, so ndtr and log run once
        # for both states.  z equals -_z(state, -x) bit for bit, because
        # negation commutes with rounding.
        z = (x + self._state_means) / self.tau
        b_minus, b_plus = _hybrid_log_ndtr(z if sign > 0 else -z)
        return b_minus, b_plus

    def sample_llr(self, state, rng, size=None):
        return rng.normal(self.llr_mean(state), self.tau, size)

    def to_dict(self):
        return {"family": "gaussian", "sigma": self.sigma}


# ---------------------------------------------------------------------------
# Polynomial-tail model
# ---------------------------------------------------------------------------


def _log_exp_poly_upper_tail(x, k: float, max_iter: int = 400):
    """log T(x) for x >= 1, where T(x) = integral_x^inf e^{-t} t^{-k-1} dt.

    T(x) = Gamma(-k, x), and the Legendre continued fraction for the upper
    incomplete gamma converges for all x >= 1 when the parameter is
    negative, giving full double precision (the library confluent-U route
    loses ~1e-4 relative accuracy past x ~ 35).
    """
    x, scalar = _as1d(x)
    a = -k
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, max_iter + 1):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        np.putmask(d, np.abs(d) < tiny, tiny)
        c = b + an / c
        np.putmask(c, np.abs(c) < tiny, tiny)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if np.all(np.abs(delta - 1.0) < 1e-15):
            break
    else:
        raise NumericalFailure("incomplete-gamma continued fraction did not converge")
    return _restore(-x + a * np.log(x) + np.log(h), scalar)


def _log_exp_poly_tail_asymptotic(x, k: float):
    """log T(x) for large x via the divergent-but-usable Watson series.

    T(x) = e^{-x} x^{-k-1} [1 - (k+1)/x + (k+1)(k+2)/x^2 - ...]; for
    x >= 60 and moderate k the terms reach 1e-17 long before they turn.
    """
    x = np.asarray(x, dtype=float)
    total = np.ones_like(x)
    term = np.ones_like(x)
    for j in range(1, 40):
        term = term * (-(k + j) / x)
        total += term
        if np.all(np.abs(term) < 1e-17):
            break
    return -x - (k + 1.0) * np.log(x) + np.log(total)


def _series_serves(x: float, k: float) -> bool:
    """Whether ``_log_exp_poly_tail_asymptotic``'s terms at x > 0 fall below 1e-17 within its 39 before they turn.

    The magnitudes of the terms shrink while (k + j)/x < 1 and grow after.
    Where a term falls below 1e-17 first, the series sums log T to double
    precision; elsewhere (x not far above k + 39) it is no approximation:
    at k = 50 it gives NaN at x = 61.  A term's magnitude is the product
    of the ratios (k + j)/x, as in the series.  Each ratio and product is
    correctly rounded, so each is monotone in x and the answer is False up
    to some x and True past it (``_PolyTailTables.series_floor``).
    """
    term = 1.0
    for j in range(1, 40):
        ratio = (k + j) / x
        if ratio >= 1.0:
            return False
        term = term * ratio
        if term < 1e-17:
            return True
    return False


def poly_tail_normalizer(k: float) -> float:
    """Normalizing constant of the piecewise polynomial-tail density.

    Solves c * (T(1) + 1/k) = 1 where T(1) = integral_1^inf e^{-x} x^{-k-1} dx.
    """
    if not (k > 0.0 and math.isfinite(k)):
        raise ModelValidationError(f"tail exponent k must be positive, got {k}")
    val = float(np.exp(_log_exp_poly_upper_tail(1.0, k)))
    if not (math.isfinite(val) and val > 0.0):
        raise NumericalFailure(f"tail integral evaluation failed for k={k}")
    return 1.0 / (val + 1.0 / k)


class SingularSystemError(NumericalFailure):
    """A tridiagonal system met a zero pivot: its matrix is singular."""


def _solve_tridiagonal(dl, d, du, b):
    """x with A x = b, A tridiagonal with sub-, main and superdiagonals dl, d, du (lists, all overwritten).

    Reference LAPACK ``dgtsv`` for one right-hand side, in its order of
    operations: Gaussian elimination with partial pivoting, which swaps rows
    i and i + 1 where |dl[i]| > |d[i]| and keeps the fill-in of the second
    superdiagonal in dl, then the two-term back substitution.  scipy's
    ``solve_banded((1, 1), ...)`` calls that routine, so the bits are its
    bits.  A zero pivot raises ``SingularSystemError`` (scipy raises
    ``LinAlgError("singular matrix")``).  Returns b, holding x.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise SingularSystemError(f"singular matrix: zero pivot in row {i}")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:  # interchange rows i and i + 1
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise SingularSystemError(f"singular matrix: zero pivot in row {n - 1}")
    b[n - 1] = b[n - 1] / d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


class _CubicSpline:
    """Not-a-knot cubic spline through (x, y), x increasing, with scipy's ``CubicSpline``'s bits.

    The slopes at the knots solve ``CubicSpline``'s tridiagonal system (scipy
    1.17, more than three knots, not-a-knot at both ends), built in its order
    of operations and solved by ``_solve_tridiagonal``, the LAPACK routine
    that its ``solve_banded`` call runs, on Python floats (about 9 ms for
    20001 knots; importing ``scipy.linalg`` cost more); the coefficients
    ``c`` (4 x n-1, highest power first) are then formed as
    ``CubicHermiteSpline`` forms them.  ``reference`` evaluates as scipy's
    ``PPoly`` does, extrapolating past the end knots.  A call runs C's
    ``spline_values`` once ``_native.checked_spline`` has found it equal to
    ``reference`` bit for bit, else ``reference``.  Hashed by identity.
    """

    __slots__ = ("x", "c", "_call", "__weakref__")

    def __init__(self, x, y):
        x, y = np.ascontiguousarray(x, dtype=float), np.asarray(y, dtype=float)
        n, dx = len(x), np.diff(x)
        slope = np.diff(y) / dx
        d, b = np.empty(n), np.empty(n)  # the main diagonal and the right-hand side
        d[1:-1] = 2 * (dx[:-1] + dx[1:])
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d[0] = dx[1]
        du = [float(x[2] - x[0]), *dx[:-1].tolist()]  # the superdiagonal; Python floats step fastest
        b[0] = ((dx[0] + 2 * du[0]) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / du[0]
        d[-1] = dx[-2]
        dl = [*dx[1:].tolist(), float(x[-1] - x[-3])]  # the subdiagonal
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * dl[-1] + dx[-1]) * dx[-2] * slope[-1]) / dl[-1]
        s = np.array(_solve_tridiagonal(dl, d.tolist(), du, b.tolist()))
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
        self._call = None  # C's checked evaluation, or False for reference; resolved at first call

    def reference(self, v):
        """The spline at v in ``PPoly``'s order of operations; NaN gives NaN, and +-inf PPoly's value."""
        v = np.asarray(v, dtype=float)
        i = np.clip(np.searchsorted(self.x, v, "right") - 1, 0, len(self.x) - 2)
        c0, c1, c2, c3 = (row.take(i) for row in self.c)
        s = v - self.x.take(i)
        with np.errstate(over="ignore", invalid="ignore"):  # far out, and inf - inf at +-inf: PPoly is silent
            s2 = s * s
            return ((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s)

    def __call__(self, v):
        call = self._call
        if call is None:
            from . import _native  # imported here: _native imports this module

            call = self._call = _native.spline_call(self) or False
        return call(v) if call else self.reference(v)


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


class _PolyTailTables:
    """The tables of the PolyTail models of one k: the normalizer, then each other at first use.

    They are pure functions of k, so ``_poly_tail_tables`` shares one holder
    among all the models of a k.  Its arrays are read-only, so no model can
    change another's tables.
    """

    def __init__(self, k):
        self.c = poly_tail_normalizer(k)  # validates k
        self.k = k

    @cached_property
    def series_floor(self) -> float:
        """The largest float >= 60 at which ``_series_serves`` fails: 60.0 for k up to 5.

        ``PolyTailSignalModel._log_T`` takes the series past it and the
        continued fraction on (60, series_floor]; C leaves a step there to
        Python (``_native._polytail_consts``).  Found by bisection over the
        floats, whose bit patterns sort as they do.
        """
        k, to_float = self.k, lambda i: float(np.int64(i).view(np.float64))  # noqa: E731
        lo = hi = int(np.float64(60.0).view(np.int64))
        while not _series_serves(to_float(hi), k):  # doubling x: the terms (k + j)/x shrink
            lo, hi = hi, int(np.float64(2.0 * to_float(hi)).view(np.int64))
        while hi - lo > 1:  # the series fails at lo (or lo is 60) and serves at hi
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _series_serves(to_float(mid), k) else (mid, hi)
        return to_float(lo)

    # T in the notation of PolyTailSignalModel
    @cached_property
    def tail_nodes(self):
        """(x, log T(x)) on 20001 even nodes of [1, 60], shared by both splines.

        The Legendre continued fraction for T costs about 11 ms for the whole
        table at k=2, so it runs once per k per process.
        """
        x_nodes = np.linspace(1.0, 60.0, 20001)
        log_t = _log_exp_poly_upper_tail(x_nodes, self.k)
        _read_only(x_nodes, log_t)
        return x_nodes, log_t

    @cached_property
    def log_tail_spline(self):
        """Dense not-a-knot cubic spline of log T on [1, 60]; max error ~1e-13.

        Exact evaluation of T is far too slow for the simulation hot path;
        the spline (plus the asymptotic series beyond x=60) reproduces it to
        near machine precision at vector speed.
        """
        spline = _CubicSpline(*self.tail_nodes)
        _read_only(spline.x, spline.c)
        return spline

    @cached_property
    def pos_branch_ppf(self):
        """Inverse of s = c*T(x) on x in [1, 60], as a cubic spline in log s.

        The map log s -> x is close to linear, so a dense spline reproduces
        the exact inverse to ~1e-13 in probability.  Every draw lands inside
        it: for u in [0, 1), s = 1 - u >= 2**-53, so log s >= -36.74, while
        the spline reaches down to log(c*T(60)), about -71.8 for k=2 and
        lower for every k.
        """
        x_nodes, log_t = self.tail_nodes
        w_nodes = np.log(self.c) + log_t
        # w decreases in x; the spline wants increasing abscissae.
        spline = _CubicSpline(w_nodes[::-1], x_nodes[::-1])
        _read_only(spline.x, spline.c)
        return spline


@lru_cache(maxsize=8, typed=True)  # about 2 MiB per k once a model of it has sampled
def _poly_tail_tables(k) -> _PolyTailTables:
    """The tables of tail exponent k, one holder per k (and type of k) per process."""
    return _PolyTailTables(k)


@dataclass(frozen=True)
class PolyTailSignalModel(InverseCdfSignalModel):
    """Piecewise density with polynomial left tail and e^{-x} x^{-k-1} right tail.

    Under theta=-1 the density is c*e^{-x} x^{-k-1} for x >= 1, zero on
    (-1, 1) and c*(-x)^{-k-1} for x <= -1; under theta=+1 it is mirrored.
    The construction makes the LLR of a sample equal to the sample itself,
    and gives the exact closed tails G_minus(-x) = 1 - G_plus(x) = (c/k) x^{-k}
    for x > 1.  The normalizer, the table of log T and both splines are
    shared with every other model of the same k (``_PolyTailTables``); a
    model keeps its own references to them.
    """

    k: float
    c: float = field(init=False)  # normalizer, fixed by k

    family = "polytail"

    def __post_init__(self):  # the normalizer also validates k
        object.__setattr__(self, "c", self._tables.c)

    @cached_property
    def _tables(self):
        return _poly_tail_tables(self.k)

    @cached_property
    def _tail_nodes(self):
        return self._tables.tail_nodes

    @cached_property
    def _log_tail_spline(self):
        return self._tables.log_tail_spline

    def _log_T(self, x):
        """log T(x) for x >= 1, elementwise and fast.

        The spline on [1, 60]; past 60 the asymptotic series where its terms
        fall below 1e-17 before they turn (past ``series_floor``: every x >
        60 for k up to 5), else the continued fraction.  NaN takes the series.
        """
        x = np.asarray(x, dtype=float)
        near = x <= 60.0
        if near.all():
            return self._log_tail_spline(x)
        out = np.empty_like(x)
        out[near] = self._log_tail_spline(x[near])
        far = ~near
        exact = far & (x <= self._tables.series_floor)  # none for k up to 5; NaN takes the series
        series = far & ~exact
        out[series] = _log_exp_poly_tail_asymptotic(x[series], self.k)
        if np.any(exact):
            out[exact] = _log_exp_poly_upper_tail(x[exact], self.k)
        return out

    def _T(self, x):
        return np.exp(self._log_T(x))

    # -- G_minus and its logs; G_plus comes from the mirror symmetry ----

    def _cdf_minus(self, x):
        x, scalar = _as1d(x)
        ck = self.c / self.k
        out = np.full_like(x, np.nan)  # NaN stays NaN: it fails every mask
        left = x <= -1.0
        right = x >= 1.0
        mid = (-1.0 < x) & (x < 1.0)
        out[left] = ck * np.power(-x[left], -self.k)
        out[mid] = ck
        out[right] = 1.0 - self.c * self._T(x[right])
        return _restore(out, scalar)

    def _log_cdf_minus(self, x):
        x, scalar = _as1d(x)
        ck = self.c / self.k
        out = np.full_like(x, np.nan)
        left = x <= -1.0
        right = x >= 1.0
        mid = (-1.0 < x) & (x < 1.0)
        out[left] = math.log(ck) - self.k * np.log(-x[left])
        out[mid] = math.log(ck)
        out[right] = np.log1p(-self.c * self._T(x[right]))
        return _restore(out, scalar)

    def _log_sf_minus(self, x):
        x, scalar = _as1d(x)
        ck = self.c / self.k
        out = np.full_like(x, np.nan)
        left = x <= -1.0
        right = x >= 1.0
        mid = (-1.0 < x) & (x < 1.0)
        out[left] = np.log1p(-ck * np.power(-x[left], -self.k))
        out[mid] = math.log1p(-ck)
        out[right] = math.log(self.c) + self._log_T(x[right])
        return _restore(out, scalar)

    def log_action_probabilities(self, x, sign):
        # With a = sign * x >= 1 everywhere (every belief past the gap on the
        # action's side, the usual lockstep case) the near state's log is a
        # closed power of a and the far state's needs log T(a): one spline
        # pass serves both states.  Otherwise the two log functions run.
        a = sign * x
        if not (a >= 1.0).all():
            return super().log_action_probabilities(x, sign)
        near = np.log1p(-(self.c / self.k) * np.power(a, -self.k))
        far = np.log1p(-self.c * np.exp(self._log_T(a)))
        return (near, far) if sign > 0 else (far, near)

    def llr_cdf(self, state, x):
        if state is StateOfWorld.MINUS:
            return self._cdf_minus(x)
        return 1.0 - self._cdf_minus(-np.asarray(x, dtype=float))

    def llr_log_cdf(self, state, x):
        if state is StateOfWorld.MINUS:
            return self._log_cdf_minus(x)
        return self._log_sf_minus(-np.asarray(x, dtype=float))

    def llr_log_sf(self, state, x):
        if state is StateOfWorld.MINUS:
            return self._log_sf_minus(x)
        return self._log_cdf_minus(-np.asarray(x, dtype=float))

    def llr_pdf(self, state, x):
        x, scalar = _as1d(x)
        if state is StateOfWorld.PLUS:
            x = -x
        out = np.full_like(x, np.nan)  # NaN stays NaN: it fails every mask
        right = x >= 1.0
        left = x <= -1.0
        out[(-1.0 < x) & (x < 1.0)] = 0.0
        out[right] = self.c * np.exp(-x[right]) * np.power(x[right], -self.k - 1.0)
        out[left] = self.c * np.power(-x[left], -self.k - 1.0)
        return _restore(out, scalar)

    def llr_mean(self, state):
        # Under theta=+1 the density c x^{-k-1} on x >= 1 adds c/(k - 1) to the mean,
        # finite only for k > 1, and c e^{x} (-x)^{-k-1} on x <= -1 adds -c Gamma(1 - k, 1)
        if not self.k > 1.0:
            mean = math.inf
        else:
            gamma = float(np.exp(_log_exp_poly_upper_tail(1.0, self.k - 1.0)))
            mean = self.c * (1.0 / (self.k - 1.0) - gamma)
        return mean if state is StateOfWorld.PLUS else -mean

    # -- sampling ------------------------------------------------------

    @cached_property
    def _pos_branch_ppf(self):
        return self._tables.pos_branch_ppf

    def _ppf_minus(self, u):
        """Quantile function of G_minus for u in [0,1), elementwise.

        u = 0, which ``Generator.random`` can return, is read as its
        smallest positive value 2**-53, so every draw is finite.
        """
        u = np.asarray(u, dtype=float)
        ck = self.c / self.k
        out = np.empty_like(u)
        lo = u <= ck
        out[lo] = -np.power(self.k * np.maximum(u[lo], 2.0**-53) / self.c, -1.0 / self.k)
        hi = ~lo
        if np.any(hi):
            spl = self._pos_branch_ppf
            out[hi] = spl(np.clip(np.log(1.0 - u[hi]), spl.x[0], spl.x[-1]))
        return out

    def llr_from_uniform(self, state, u):
        x = self._ppf_minus(u)
        return -x if state is StateOfWorld.PLUS else x

    def to_dict(self):
        return {"family": "polytail", "k": self.k}

    def __getstate__(self):
        return {"k": self.k, "c": self.c}  # the shared tables are looked up lazily after unpickling


# ---------------------------------------------------------------------------
# Rate-targeted discrete model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RateTargetSignalModel(InverseCdfSignalModel):
    """Integer-supported model from a decreasing table Q.

    Built so that the measure nu(n) = (Q(n-1) - Q(n))/e^n on the positive
    integers and nu(-n) = Q(n-1) - Q(n) on the negatives has the same total
    mass C under both conditionals, which keeps the LLR at support point n
    equal to n exactly after renormalization.  The plus law is the mirror
    of the minus law, P(L = n | +) = P(L = -n | -), so only the minus
    masses are stored and the plus state reads them reversed.  Equality and
    hashing are by identity, since the fields hold arrays.
    """

    q_table: np.ndarray  # Q(-1), Q(0), ..., Q(N) as validated, for serialization
    support: np.ndarray = field(repr=False)  # the integers -N'..N', as floats
    w_minus: np.ndarray = field(repr=False)  # unnormalized nu masses
    normalizer: float

    family = "ratetarget"

    @property
    def is_discrete(self):
        return True

    @property
    def _p_minus(self):
        return self.w_minus / self.normalizer

    # Both sums round above 1 near the top of a long support; they are
    # clamped there, so no probability exceeds 1 and no log-probability 0.

    @cached_property
    def _cdf_minus(self):
        return np.minimum(np.cumsum(self._p_minus), 1.0)

    @cached_property
    def _cdf_plus(self):
        # P(L <= n | +) = P(L >= -n | -): the minus masses accumulated from
        # the far right, so tiny tail masses are summed before the bulk.
        return np.minimum(np.cumsum(self._p_minus[::-1]), 1.0)

    def llr_mean(self, state):
        # the plus law mirrors the minus law: E+[L] = -E-[L]
        mean = float(np.sum(self.support * self._p_minus))
        return -mean if state is StateOfWorld.PLUS else mean

    def _index_leq(self, x):
        """Number of support points <= x, elementwise."""
        return np.searchsorted(self.support, np.floor(x), side="right")

    def _lookup_cdf(self, cdf, x):
        x, scalar = _as1d(x)
        idx = self._index_leq(x)
        out = np.full_like(x, np.nan)  # NaN sorts past the support but fails both masks
        out[x < self.support[0]] = 0.0
        hit = x >= self.support[0]  # idx > 0
        out[hit] = cdf[idx[hit] - 1]
        return _restore(out, scalar)

    def llr_cdf(self, state, x):
        cdf = self._cdf_minus if state is StateOfWorld.MINUS else self._cdf_plus
        return self._lookup_cdf(cdf, x)

    def llr_log_cdf(self, state, x):
        return self._log_probabilities(x, False, (state,))[0]

    def llr_log_sf(self, state, x):
        return self._log_probabilities(x, True, (state,))[0]

    def _log_probabilities(self, y, above: bool, states=(StateOfWorld.MINUS, StateOfWorld.PLUS)):
        """log P(L > y) if ``above``, else log P(L <= y), under each of ``states``.

        The points y are sorted into the support once for all the states.
        Where the far state's plain sums underflow (theta = -1 above,
        theta = +1 below), ``_fill_far_tail`` puts back the finite value.
        A NaN y, which sorts past the support, fails both ``hit`` and
        ``miss`` and gives NaN.
        """
        y, scalar = _as1d(y)
        idx = self._index_leq(y)
        if above:  # P(L > y) = sf[idx]; each state's survival is the other's CDF reversed
            hit, miss = idx < len(self.support), y >= self.support[-1]
            tables = {StateOfWorld.MINUS: self._cdf_plus[::-1],
                      StateOfWorld.PLUS: self._cdf_minus[::-1]}
            far = StateOfWorld.MINUS
        else:  # P(L <= y) = cdf[idx - 1]
            hit, miss = y >= self.support[0], y < self.support[0]  # hit: idx > 0
            idx = idx - 1
            tables = {StateOfWorld.MINUS: self._cdf_minus, StateOfWorld.PLUS: self._cdf_plus}
            far = StateOfWorld.PLUS
        out = []
        for state in states:
            p = np.full(idx.shape, np.nan)
            p[miss] = 0.0
            p[hit] = tables[state][idx[hit]]
            with np.errstate(divide="ignore"):
                log_p = np.log(p)
            if state is far and (log_p == -np.inf).any():
                # L > y is L >= floor(y) + 1; L <= y is -L >= ceil(-y)
                self._fill_far_tail(log_p, np.floor(y) + 1.0 if above else np.ceil(-y))
            out.append(_restore(log_p, scalar))
        return out

    def _fill_far_tail(self, log_p, m):
        """Replace -inf in log_p by ``_log_far_tail[m]`` wherever m <= cut.

        m is the least support magnitude that qualifies.  Deep on the far
        side (|x| past ~734 for Q(n) = 1/log(n + 2 + e)) the plain sums of
        one state's masses dq(n) e^-n underflow to 0, although the
        probability stays positive up to the cut.
        """
        lost = (log_p == -np.inf) & (m <= len(self.support) // 2)
        log_p[lost] = self._log_far_tail[m[lost].astype(np.int64)]

    def log_action_probabilities(self, x, sign):
        """As for every model, from one support lookup; raises where the action is impossible.

        Action +1 needs L > -x and -1 needs L <= -x.  At x <= -cut (for +1)
        or x > cut (for -1) no support point qualifies: the action has
        probability 0 under both states and the update after it is undefined.
        A NaN x is refused first, as ``belief`` refuses it.
        """
        if np.isnan(x).any():
            raise ValueError("x must not be NaN")
        b_minus, b_plus = self._log_probabilities(-x, sign > 0)
        far = b_minus if sign > 0 else b_plus  # the state whose masses can underflow
        lost = ~(far > -np.inf)
        if lost.any():  # no support point qualifies
            raise ValueError(
                f"action {sign:+d} has probability 0 under both states at x = "
                f"{float(x[lost][0])!r}: the support is cut at +-{len(self.support) // 2}"
            )
        return b_minus, b_plus

    @cached_property
    def _log_far_tail(self):
        """log P(L >= m | theta = -1) = log P(L <= -m | theta = +1), m = 0..cut.

        Both sum dq(j) e^-j over j >= m; in log space they stay finite.
        """
        cut = len(self.support) // 2
        log_terms = np.log(self.w_minus[cut::-1]) - np.arange(cut + 1)  # w_minus(-j) = dq(j)
        return np.logaddexp.accumulate(log_terms[::-1])[::-1] - math.log(self.normalizer)

    def llr_from_uniform(self, state, u):
        cdf = self._cdf_minus if state is StateOfWorld.MINUS else self._cdf_plus
        idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(self.support) - 1)
        return self.support[idx]

    def to_dict(self):
        return {"family": "ratetarget", "q_table": self.q_table.tolist()}


def build_rate_target(q: Sequence[float], max_support: int = 10**5) -> RateTargetSignalModel:
    """Build a ``RateTargetSignalModel`` from the table Q(-1), Q(0), ..., Q(N).

    The support is truncated symmetrically at the smallest N' whose residual
    in-table nu-mass falls below 1e-12 (symmetric truncation keeps
    the two conditional normalizers exactly equal, hence LLR(n) = n exact).
    If no such N' exists the full table is used.

    ``q`` may also be a callable Q; it is then tabulated on -1..max_support.
    ``max_support`` must be an integer >= 0.
    """
    if not _is_int(max_support) or max_support < 0:
        raise ModelValidationError(f"max_support must be an integer >= 0, got {max_support!r}")
    if callable(q):
        q = [float(q(n)) for n in range(-1, max_support + 1)]
    q = np.array(q, dtype=float)  # a copy: the model must not alias a caller's array
    if q.ndim != 1 or len(q) < 2:
        raise ModelValidationError("q_table must contain Q(-1) and at least Q(0)")
    if not np.all(np.isfinite(q)):
        raise ModelValidationError("q_table entries must be finite")
    if np.any(q <= 0.0):
        raise ModelValidationError("q_table entries must be positive")
    if np.any(np.diff(q) >= 0.0):
        raise ModelValidationError("q_table must be strictly decreasing")

    dq = -np.diff(q)  # dq[n] = Q(n-1) - Q(n), n = 0..N
    n_max = len(dq) - 1
    if n_max > max_support:
        raise ModelValidationError(
            f"q_table support {n_max} exceeds the hard cap {max_support}"
        )

    nu_pos = dq * np.exp(-np.arange(n_max + 1.0))  # nu(n), n >= 0; nu(-n) = dq[n]

    # Residual mass beyond a symmetric cut at N': sum over n > N' of both sides.
    resid = np.cumsum((nu_pos + dq)[::-1])[::-1]
    cut = n_max
    below = np.nonzero(resid <= 1e-12)[0]
    if len(below) > 0:
        cut = max(int(below[0]) - 1, 0)

    support = np.arange(-cut, cut + 1, dtype=float)
    # ascending support -cut .. -1, 0, 1 .. cut; nu(0) = dq[0] = nu_pos[0]
    w_minus = np.concatenate((dq[cut:0:-1], nu_pos[:cut + 1]))

    # The two total masses agree exactly in exact arithmetic; use a single
    # normalizer so LLR(n) = n survives renormalization bit-for-bit.
    normalizer = float(np.sum(w_minus))

    return RateTargetSignalModel(
        q_table=q, support=support, w_minus=w_minus, normalizer=normalizer
    )


# ---------------------------------------------------------------------------
# The LLR self-consistency identity
# ---------------------------------------------------------------------------


def check_llr_identity(model: SignalModel, grid) -> float:
    """Max discrepancy of G_plus(x) = integral_{-inf}^x e^z dnu_minus(z).

    The identity expresses that the log-likelihood ratio of the LLR is the
    LLR itself; it holds for every valid model and is checked by exact
    summation for discrete models and adaptive quadrature otherwise.
    """
    grid = np.asarray(grid, dtype=float)
    if model.is_discrete:
        lhs = model.llr_cdf(StateOfWorld.PLUS, grid)
        pm = model._p_minus
        sup = model.support
        # exp(n) * p_minus(n) evaluated in log space so large positive
        # support points neither overflow nor poison the cumulative sum.
        weights = np.zeros_like(pm)
        pos = pm > 0.0
        weights[pos] = np.exp(sup[pos] + np.log(pm[pos]))
        cum = np.cumsum(weights)
        rhs = model._lookup_cdf(cum, grid)
        return float(np.max(np.abs(lhs - rhs)))

    from scipy.integrate import quad  # imported here: it pulls in most of scipy

    def integrand(z):
        return math.exp(z) * float(model.llr_pdf(StateOfWorld.MINUS, z))

    worst = 0.0
    for x in grid:
        pieces = [-np.inf]
        # Split at the density breakpoints of the polynomial-tail family.
        if isinstance(model, PolyTailSignalModel):
            pieces += [p for p in (-1.0, 1.0) if p < x]
        pieces.append(float(x))
        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            val, err = quad(integrand, a, b, limit=200)
            if not math.isfinite(val):
                raise NumericalFailure(f"identity quadrature failed on [{a}, {b}]")
            total += val
        lhs = float(model.llr_cdf(StateOfWorld.PLUS, x))
        worst = max(worst, abs(lhs - total))
    return worst


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def model_from_dict(doc: dict) -> SignalModel:
    family = doc.get("family")
    if family == "gaussian":
        return GaussianSignalModel(sigma=float(doc["sigma"]))
    if family == "polytail":
        return PolyTailSignalModel(k=float(doc["k"]))
    if family == "ratetarget":
        if "q_table" not in doc:
            raise ModelValidationError("ratetarget model requires q_table")
        return build_rate_target(doc["q_table"])
    raise ModelValidationError(f"unknown model family: {family!r}")


def model_to_json(model: SignalModel) -> str:
    return json.dumps(model.to_dict(), sort_keys=True)


def model_from_json(text: str) -> SignalModel:
    return model_from_dict(json.loads(text))
