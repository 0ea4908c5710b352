"""Tests that show, from exact laws, what the paper's results predict, and why criteria fail by design.

The paper's dichotomy: the left tail of the private signals decides whether
the expected time until agents stop erring is finite.  A rate-target model
with Q(n) = e^{-n/c} puts ell*_t near c log t, so P(T1 = t) falls like
t^{-c-1} and E[T1; T1 <= t] grows like the sum of s^{-c} over s <= t: like
t^{1-c} for c < 1, like log t at c = 1, and to a finite limit for c > 1.
"""

import math

import numpy as np

from herdsim.asymptotics import gaussian_rate_prediction
from herdsim.belief import ell_star_path, first_mistake_distribution
from herdsim.signal_models import GaussianSignalModel, build_rate_target

DECADES = (10**4, 10**5, 10**6)


def _partial_means(c: float) -> list[float]:
    """E[T1; T1 <= t] at each t of DECADES, from the exact first-mistake law to 10**6."""
    model = build_rate_target(lambda n: math.exp(-n / c), max_support=200)
    law = first_mistake_distribution(model, DECADES[-1])
    partial = np.cumsum(np.arange(1, DECADES[-1] + 1) * law.pmf)  # pmf[i] is P(T1 = i + 1)
    return [float(partial[t - 1]) for t in DECADES]


def test_rate_target_boundary():
    # c = 0.8: a power law, t^0.2 per decade is x1.585; c = 1: log t, a constant
    # increment per decade; c = 1.25: increments shrinking by about 10^-0.25 = 0.562
    below = _partial_means(0.8)
    for lo, hi in zip(below, below[1:]):
        ratio = hi / lo
        assert 1.5 <= ratio <= 1.7, (
            f"c = 0.8: E[T1; T1 <= t] grows x{ratio:.4f} per decade, not in [1.5, 1.7]")
    at = _partial_means(1.0)
    for lo, hi in zip(at, at[1:]):
        step = hi - lo
        assert 0.5 <= step <= 0.7, f"c = 1: E[T1; T1 <= t] grows by {step:.4f} per decade, not in [0.5, 0.7]"
    above = _partial_means(1.25)
    shrink = (above[2] - above[1]) / (above[1] - above[0])
    assert 0.5 <= shrink <= 0.65, (
        f"c = 1.25: the increment of E[T1; T1 <= t] per decade shrinks x{shrink:.4f}, not in [0.5, 0.65]")


def test_gaussian_second_order_rate():
    # Criterion 05 asks |ell*/prediction - 1| to fall monotonically against the
    # leading-order rate, whose ratio sits at 1.118-1.137 and is not monotone up
    # to 10**7.  The Mills-ratio shift m + tau sqrt(2 ln(t / (tau sqrt(2 pi))))
    # is what the path follows: against it the ratio rises strictly towards 1.
    horizons = [10**e for e in range(2, 8)]
    path = ell_star_path(GaussianSignalModel(sigma=1.0), horizons[-1]).values
    ratios = [float(path[t - 1]) / gaussian_rate_prediction(1.0, t, order=2) for t in horizons]
    expected = [0.9845, 0.9932, 0.9965, 0.9979, 0.9986, 0.9990]
    for t, ratio, want in zip(horizons, ratios, expected):
        assert abs(ratio - want) < 5e-5, f"ell*/second-order prediction at t = {t} is {ratio:.5f}, not {want}"
    for t, lo, hi in zip(horizons[1:], ratios, ratios[1:]):
        assert lo < hi < 1.0, (
            f"ell*/second-order prediction does not rise strictly below 1 at t = {t}: {ratios}")
    leading = [float(path[t - 1]) / gaussian_rate_prediction(1.0, t) for t in horizons]
    assert all(1.11 < r < 1.14 for r in leading), f"ell*/leading-order prediction: {leading}"


def test_first_mistake_slope_follows_second_order():
    # Criterion 07 asks the log-log slope of P(T1 = t) over [10**2, 10**6] to lie
    # in [-1.25, -1]; it is -1.488.  With u = sqrt(2 ln(t / (tau sqrt(2 pi)))), the
    # Mills-ratio argument of the second-order rate, the local slope is
    # -1 - tau/u - 1/u**2: over each decade the exact pmf's slope lies within 0.03
    # of it at the decade's geometric middle, and nearer each decade.  The formula
    # reaches -1.25 only near t = 2e16.
    tau = 2.0  # sigma = 1
    law = first_mistake_distribution(GaussianSignalModel(sigma=1.0), 10**6)
    t = np.arange(1, 10**6 + 1)
    gaps = []
    for lo in (10**2, 10**3, 10**4, 10**5):
        decade = (t >= lo) & (t <= 10 * lo)
        slope = float(np.polyfit(np.log10(t[decade]), np.log10(law.pmf[decade]), 1)[0])
        u = math.sqrt(2.0 * math.log(lo * math.sqrt(10.0) / (tau * math.sqrt(2.0 * math.pi))))
        predicted = -1.0 - tau / u - 1.0 / u**2
        gap = abs(slope - predicted)
        assert gap < 0.03, (
            f"decade [{lo:g}, {10 * lo:g}]: log-log slope of the pmf {slope:.4f} is {gap:.4f} "
            f"from the second-order prediction {predicted:.4f}")
        if gaps:
            assert gap < gaps[-1], (
                f"decade [{lo:g}, {10 * lo:g}]: slope {slope:.4f} is {gap:.4f} from the prediction "
                f"{predicted:.4f}, no nearer than the decade before ({gaps[-1]:.4f})")
        gaps.append(gap)
