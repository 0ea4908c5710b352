"""Public-belief dynamics: increments, martingale identity, ell*, first mistake."""

import concurrent.futures
import functools
import hashlib
import math
import os
import re
import shlex
import subprocess
import sys
import sysconfig
import threading
import time
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from herdsim import _native, belief, montecarlo
from herdsim.asymptotics import iterate_recurrence
from herdsim.belief import (
    ActionLabel,
    BeliefState,
    action_probability,
    d_minus,
    d_plus,
    decide,
    ell_star_path,
    first_mistake_distribution,
    log_d_minus,
    log_d_plus,
    martingale_residual,
    public_belief,
    rb_mistake_weight,
    u_plus_monotone_threshold,
    update,
)
from herdsim.signal_models import (
    GaussianSignalModel,
    NumericalFailure,
    PolyTailSignalModel,
    SignalModel,
    StateOfWorld,
    build_rate_target,
)

MINUS, PLUS = StateOfWorld.MINUS, StateOfWorld.PLUS

G1 = GaussianSignalModel(sigma=1.0)
G2 = GaussianSignalModel(sigma=2.0)
PT1 = PolyTailSignalModel(k=1.0)
PT2 = PolyTailSignalModel(k=2.0)
RT = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=2000)

ALL = [G1, G2, PT1, PT2, RT]


class SubGaussian(GaussianSignalModel):
    """The base's law in a subclass, to which _native gives no C loop of the base."""


class SubPolyTail(PolyTailSignalModel):
    """The base's law in a subclass: its path below 40 is block-solved, since C steps only the base's."""


class TestIncrements:
    def test_gaussian_d_plus_at_zero(self):
        # [DERIVED] mpmath: ln(Phi(1/2)/Phi(-1/2)) = 0.806965346304962216
        assert_allclose(d_plus(G2, 0.0), 0.806965346304962216, rtol=1e-13)
        assert_allclose(d_minus(G2, 0.0), -0.806965346304962216, rtol=1e-13)

    def test_directions(self):
        xs = np.linspace(-25, 25, 301)
        for model in ALL:
            dp = np.asarray(d_plus(model, xs))
            dm = np.asarray(d_minus(model, xs))
            assert np.all(dp > 0.0)
            assert np.all(dm < 0.0)

    def test_gaussian_symmetry(self):
        # [TRIVIAL] D_+(x) = -D_-(-x) for the symmetric pair
        for x in (0.0, 1.0, 5.0):
            assert_allclose(d_plus(G2, x), -d_minus(G2, -x), atol=1e-9)

    def test_d_plus_tail_ratio_sigma2(self):
        # [DERIVED] mpmath at 200 digits: D_+(20)/G_-(-20) = 0.999999998039
        ratio = float(d_plus(G2, 20.0)) / math.exp(float(G2.llr_log_cdf(MINUS, -20.0)))
        assert 0.99 <= ratio <= 1.01
        assert_allclose(ratio, 0.999999998039, rtol=1e-9)

    def test_d_minus_tail_ratio_sigma2(self):
        # [DERIVED] mpmath: -d_minus(-20)/(1 - G_+(20)) = 0.999999998039
        ratio = -float(d_minus(G2, -20.0)) / math.exp(float(G2.llr_log_sf(PLUS, 20.0)))
        assert 0.99 <= ratio <= 1.01
        assert_allclose(ratio, 0.999999998039, rtol=1e-9)

    def test_log_d_plus_deep_tail_oracle(self):
        # [DERIVED] mpmath 200 digits: log D_+(50) = -292.0987210032 at sigma=1
        assert_allclose(log_d_plus(G1, 50.0), -292.0987210032, rtol=1e-10)
        assert_allclose(log_d_plus(G1, 60.0), -424.7874199097, rtol=1e-10)

    def test_log_forms_match_linear_forms(self):
        xs = np.linspace(-8, 8, 33)
        for model in ALL:
            assert_allclose(
                np.exp(log_d_plus(model, xs)), np.asarray(d_plus(model, xs)), rtol=1e-9
            )
            assert_allclose(
                np.exp(log_d_minus(model, xs)), -np.asarray(d_minus(model, xs)), rtol=1e-9
            )

    def test_rate_target_increments_vanish_past_the_cut(self):
        # Past the support's cut every signal is outvoted (an information
        # cascade), so an action carries no information: D is exactly 0.
        model = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=30)
        cut = float(model.support[-1])
        xs = cut + np.array([0.5, 1.0, 7.25, 1e6])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(d_plus(model, xs) == 0.0) and d_plus(model, cut + 1.0) == 0.0
            assert np.all(d_minus(model, -xs) == 0.0) and d_minus(model, -cut - 1.0) == 0.0
            assert np.all(log_d_plus(model, xs) == -np.inf)
            assert np.all(log_d_minus(model, -xs) == -np.inf)
        assert d_plus(model, cut) > 0.0 and d_minus(model, 0.5 - cut) < 0.0

    def test_rate_target_impossible_action_is_named(self):
        # At x <= -cut no signal makes an agent play +1, and at x > cut none
        # makes it play -1: the action has probability 0 under both states
        # and the update after it is undefined, so asking for it raises.
        model = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=30)
        cut = int(model.support[-1])
        cases = [(d_plus, -31.0), (log_d_plus, -31.0), (d_plus, -float(cut)),
                 (d_minus, 31.0), (log_d_minus, 31.0), (d_minus, np.array([0.0, cut + 0.5]))]
        for fn, x in cases:
            with pytest.raises(ValueError, match=rf"x = .*cut at \+-{cut}"):
                fn(model, x)
        # the all-correct path from such a prior holds, and agent 1 errs surely
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(ell_star_path(model, 20, -31.0).values == -31.0)
            law = first_mistake_distribution(model, 20, -31.0)
        assert law.pmf[0] == pytest.approx(1.0, abs=1e-15) and law.survivor_mass == 0.0

    def test_rate_target_deep_far_side_stays_finite(self):
        # Past |x| ~ 734 the plain sums of one state's masses dq(n) e^-n
        # underflow to 0 while the other state's stay positive; the
        # increments must still be the finite log-ratio of the two sums.
        q = [1.0 / math.log(n + 2.0 + math.e) for n in range(-1, 2001)]
        model = build_rate_target(q)
        assert int(model.support[-1]) == 2000
        log_dq = np.log(-np.diff(q))
        n = np.arange(len(log_dq))

        def log_ratio(k):  # log P(|L| in k | +) / P(|L| in k | -) over the mask k of n >= 0
            return np.logaddexp.reduce(log_dq[k]) - np.logaddexp.reduce(log_dq[k] - n[k])

        for x in (-744.0, -744.5, -800.5, -1500.5, -1999.0):  # +1 needs L = n > -x
            assert float(d_plus(model, x)) == pytest.approx(log_ratio(n > -x), rel=1e-14)
            assert float(log_d_plus(model, x)) == pytest.approx(math.log(log_ratio(n > -x)))
        for x in (744.0, 744.5, 800.5, 1500.5, 2000.0):  # -1 needs L = -n with n >= x
            assert float(d_minus(model, x)) == pytest.approx(-log_ratio(n >= x), rel=1e-14)
            assert float(log_d_minus(model, x)) == pytest.approx(math.log(log_ratio(n >= x)))
        assert float(d_plus(model, -700.0)) == 706.9976574921798

    def test_vanishing_increments(self):
        # lim_x D_+(x) = 0
        assert float(d_plus(G1, 30.0)) < 1e-40
        assert float(d_plus(PT2, 1e6)) < 1e-11


# The public increments, each called at a belief x
INCREMENTS = {
    "d_plus": d_plus,
    "d_minus": d_minus,
    "log_d_plus": log_d_plus,
    "log_d_minus": log_d_minus,
    "update": lambda model, x: update(model, BeliefState(ell=x), ActionLabel.PLUS),
}


@pytest.mark.parametrize("name", list(INCREMENTS))
@pytest.mark.parametrize("model", [G1, PT2, RT], ids=lambda m: m.family)
def test_a_nan_belief_is_refused(model, name):
    # unchecked, a NaN would fall into some piece of the increment (PolyTail's
    # gap (-1, 1)) or come back as a value; it is no belief
    with pytest.raises(ValueError, match="must not be NaN"):
        INCREMENTS[name](model, math.nan)
    if name != "update":
        with pytest.raises(ValueError, match="x must not be NaN"):
            INCREMENTS[name](model, np.array([0.0, math.nan]))


@pytest.mark.parametrize("name", list(INCREMENTS))
def test_a_gaussian_increment_that_is_nan_is_refused_by_name(name):
    # Past about 3.9e154 on the erring side both Gaussian action
    # log-probabilities are -inf, and their difference was a silent NaN
    x = -4e154 if name in ("d_plus", "log_d_plus", "update") else 4e154
    label = "state.ell" if name == "update" else "x"
    message = f"no increment at {label} = {x!r}: both action log-probabilities are -inf"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's own, on the way to the NaN
        with pytest.raises(ValueError) as refused:
            INCREMENTS[name](G1, x)
        assert str(refused.value) == message
        if name != "update":
            with pytest.raises(ValueError) as refused:
                INCREMENTS[name](G1, np.array([0.0, 1e3, x, -x]))
            assert str(refused.value) == message
    # the values at +-1e3 are unchanged
    pinned = {
        "d_plus": (1000.0039999733563, 0.0),
        "d_minus": (-0.0, -1000.0039999733563),
        "log_d_plus": (6.907759278947493, -124507.63154864496),
        "log_d_minus": (-124507.63154864496, 6.907759278947493),
        "update": (-1e3 + 1000.0039999733563, 1e3),
    }[name]
    got = [INCREMENTS[name](G1, v) for v in (-1e3, 1e3)]
    got = [g.ell if name == "update" else float(g) for g in got]
    assert [repr(g) for g in got] == [repr(p) for p in pinned]
    if name != "update":
        assert np.array_equal(INCREMENTS[name](G1, np.array([-1e3, 1e3])), pinned)


def test_an_empty_tail_gap_is_zero_without_a_warning():
    # far past the switch a Gaussian's two tail logs are equal: the gap is
    # log1p(-1) = -inf, and D is 0.0 without numpy's divide-by-zero warning
    x = np.array([30.0, 1e3, 1e154, 3e154])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert repr(float(d_plus(G1, 3e154))) == "0.0"
        assert repr(float(d_minus(G1, -3e154))) == "-0.0"
        assert d_plus(G1, x).tolist() == [7.793536819192108e-45, 0.0, 0.0, 0.0]
        assert _bytes_equal(d_minus(G1, -x), -d_plus(G1, x))


# The public functions of a belief ell besides the increments
OF_BELIEF = {
    "public_belief": lambda model, ell: public_belief(ell),
    "rb_mistake_weight": lambda model, ell: rb_mistake_weight(ell),
    "action_probability": lambda model, ell: action_probability(model, ell, PLUS),
    "martingale_residual": martingale_residual,
}


@pytest.mark.parametrize("name", list(OF_BELIEF))
@pytest.mark.parametrize("model", [G1, PT2, RT], ids=lambda m: m.family)
def test_a_nan_belief_is_refused_by_name(model, name):
    # unchecked, a NaN came back as NaN, or as a value from some piece of the
    # law (0.82 from PolyTail's gap (-1, 1), 0.0 from a rate-target model)
    with pytest.raises(ValueError, match="^ell must not be NaN$"):
        OF_BELIEF[name](model, math.nan)
    if name != "martingale_residual":  # a scalar function
        with pytest.raises(ValueError, match="^ell must not be NaN$"):
            OF_BELIEF[name](model, np.array([0.0, math.nan]))
        assert np.all(np.isfinite(OF_BELIEF[name](model, np.array([0.0, -3.0, 40.0]))))


class TestDecisionAndUpdate:
    def test_decide_tie_break(self):
        assert decide(0.5, -0.5) is ActionLabel.MINUS  # ties break to minus
        assert decide(0.5, -0.4) is ActionLabel.PLUS
        assert decide(-1.0, 0.5) is ActionLabel.MINUS
        assert decide(math.inf, -1e308) is ActionLabel.PLUS  # one infinity decides
        assert decide(-math.inf, 1e308) is ActionLabel.MINUS

    @pytest.mark.parametrize("ell, llr, name", [
        (math.nan, 1.0, "ell"), (0.0, math.nan, "llr"), (math.nan, math.nan, "ell"),
        (math.inf, -math.inf, "ell + llr"), (-math.inf, math.inf, "ell + llr"),
    ])
    def test_decide_refuses_nan_by_name(self, ell, llr, name):
        # a NaN compares false, so it would silently pick -1
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must not be NaN$"):
            decide(ell, llr)

    def test_update_round_trip(self):
        # [TRIVIAL] plus-then-minus from 0 lands strictly below d_plus(0)
        for model in (G2, RT):
            s0 = BeliefState(ell=0.0)
            s1 = update(model, s0, ActionLabel.PLUS)
            s2 = update(model, s1, ActionLabel.MINUS)
            assert s1.t == 2 and s2.t == 3
            assert abs(s2.ell) < abs(float(d_plus(model, 0.0)))

    def test_rate_target_update_matches_mass_ratio(self):
        # [DERIVED] discrete-sum oracle for D_+(0)
        p_m = RT._p_minus
        p_p = p_m[::-1]  # P(L = n | +) = P(L = -n | -)
        above = RT.support >= 1  # L > 0 given ell = 0 means support >= 1
        expected = math.log(np.sum(p_p[above])) - math.log(np.sum(p_m[above]))
        assert_allclose(float(d_plus(RT, 0.0)), expected, rtol=1e-12)

    def test_action_probability(self):
        # [DERIVED] 1 - Phi(-1/2) oracles
        assert_allclose(action_probability(G2, 0.0, PLUS), 0.691462461274013104, rtol=1e-13)
        assert_allclose(action_probability(G2, 0.0, MINUS), 0.308537538725986896, rtol=1e-13)
        assert float(action_probability(G2, 200.0, PLUS)) == pytest.approx(1.0)

    def test_public_belief_values(self):
        assert public_belief(0.0) == 0.5
        assert_allclose(public_belief(math.log(3.0)), 0.75, rtol=1e-15)
        assert float(public_belief(-1e4)) == pytest.approx(0.0, abs=1e-300)

    def test_public_belief_is_silent_past_overflow(self):
        # exp(ell) overflows past ell ~ 709; no branch may warn, so -W error holds
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = public_belief(np.array([800.0, 1e4, math.inf, -800.0, -1e4, -math.inf]))
            assert got.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
            assert float(public_belief(800.0)) == 1.0
            assert martingale_residual(G2, 800.0) == pytest.approx(0.0, abs=1e-12)

    def test_public_belief_keeps_the_bits_of_the_two_branch_formula(self):
        ell = np.concatenate([np.linspace(-700.0, 700.0, 20001), [0.0, -0.0, 5e-324, -5e-324],
                              np.random.default_rng(3).normal(0.0, 30.0, 10**4)])
        ell = ell[np.abs(ell) <= 700.0]
        old = np.where(ell >= 0, 1.0 / (1.0 + np.exp(-ell)), np.exp(ell) / (1.0 + np.exp(ell)))
        assert public_belief(ell).tobytes() == old.tobytes()

    def test_rb_mistake_weight(self):
        # [TRIVIAL] 1/(e^|l|+1)
        assert rb_mistake_weight(0.0) == 0.5
        assert_allclose(rb_mistake_weight(math.log(3.0)), 0.25, rtol=1e-15)
        assert_allclose(rb_mistake_weight(-math.log(3.0)), 0.25, rtol=1e-15)


class TestMartingale:
    @pytest.mark.parametrize("model", ALL, ids=lambda m: repr(m)[:30])
    def test_residual_vanishes_on_grid(self, model):
        grid = np.linspace(-12.0, 12.0, 100)
        res = np.array([martingale_residual(model, float(x)) for x in grid])
        assert np.max(np.abs(res)) <= 1e-12

    @given(st.floats(-20.0, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_residual_vanishes_everywhere_gaussian(self, ell):
        assert abs(martingale_residual(G1, ell)) <= 1e-12


class TestEllStarPath:
    def test_first_values(self):
        path = ell_star_path(G2, 3)
        assert path.values[0] == 0.0  # uniform prior
        assert_allclose(path.values[1], 0.806965346304962216, rtol=1e-13)

    def test_prior_configurable(self):
        p0 = 0.8
        prior_llr = math.log(p0 / (1 - p0))
        path = ell_star_path(G2, 2, prior_llr=prior_llr)
        assert path.values[0] == prior_llr

    @pytest.mark.parametrize("model", ALL, ids=lambda m: repr(m)[:30])
    def test_strictly_increasing_with_shrinking_increments(self, model):
        path = ell_star_path(model, 3000)
        diffs = np.diff(path.values)
        assert np.all(diffs > 0.0)
        if model.is_discrete:
            return  # a step-function increment is not monotone within cells
        # increments eventually decreasing
        tail = diffs[100:]
        assert np.all(np.diff(tail) <= 1e-15)

    def test_matches_naive_iteration(self):
        for model in (G1, PT2, RT):
            path = ell_star_path(model, 1500)
            ell, vals = 0.0, []
            for _ in range(1500):
                vals.append(ell)
                ell += float(d_plus(model, ell))
            assert np.max(np.abs(path.values - np.array(vals))) < 1e-11

    def test_sublinearity(self):
        # ell*_t / t below 1e-2 at 1e5 and decreasing across decades
        for model in (G2, PT2, RT):
            path = ell_star_path(model, 10**5)
            ratios = [path.values[t - 1] / t for t in (10**3, 10**4, 10**5)]
            assert ratios[-1] < 1e-2
            assert ratios[0] > ratios[1] > ratios[2]

    def test_long_horizon_rate_sigma1(self):
        # [DERIVED] consistency with the sqrt(log t) growth scale
        path = ell_star_path(G1, 10**5)
        pred = (2.0 * math.sqrt(2.0)) * math.sqrt(math.log(10**5))
        assert 0.75 <= path.values[-1] / pred <= 1.25

    @pytest.mark.parametrize("horizon", [0, -3, 10.5, True])
    def test_bad_horizon(self, horizon):
        for model in (G1, PT2, RT):
            with pytest.raises(ValueError, match="horizon"):
                ell_star_path(model, horizon)
            with pytest.raises(ValueError, match="horizon"):
                first_mistake_distribution(model, horizon)

    @pytest.mark.parametrize("prior_llr", [math.nan, math.inf, -math.inf])
    def test_non_finite_prior_is_named(self, prior_llr):
        for model in (G1, PT2, RT):
            with pytest.raises(ValueError, match="prior_llr"):
                ell_star_path(model, 10, prior_llr)
            with pytest.raises(ValueError, match="prior_llr"):
                first_mistake_distribution(model, 10, prior_llr)

    def test_underflowed_increment_holds_the_path(self):
        # D_plus underflows to exactly 0 past ell ~ 38 for sigma = 2
        assert d_plus(G2, 40.0) == 0.0
        assert np.all(ell_star_path(G2, 5, prior_llr=40.0).values == 40.0)


@dataclass(frozen=True)
class LogisticModel(SignalModel):
    """A minimal custom model: the LLR is logistic around +-1 under theta = +-1.

    Past ``bad_above`` its increments are NaN, a model defect the path
    iteration must report.
    """

    bad_above: float = math.inf
    family = "logistic"

    def llr_log_sf(self, state, x):
        x = np.asarray(x, dtype=float)
        return np.where(-x > self.bad_above, np.nan, -np.logaddexp(0.0, x - state.sign))

    def llr_log_cdf(self, state, x):
        x = np.asarray(x, dtype=float)
        return np.where(-x > self.bad_above, np.nan, -np.logaddexp(0.0, state.sign - x))


def _sequential(model, horizon, prior):
    """ell* by the step-by-step compensated loop over the scalar increment."""
    incr, _ = belief._scalar_increment(model)
    return iterate_recurrence(incr, prior, horizon)


def _bytes_equal(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


PRIORS = [0.0, 0.3, -2.0, 39.5, 41.0, -45.0]


class TestBlockSolve:
    """ell_star_path solves the d_plus stretch in blocks; the bytes are the loop's."""

    @pytest.mark.parametrize("kind", [PolyTailSignalModel, SubPolyTail], ids=["exact", "subclass"])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 4.0])
    def test_polytail_paths_equal_the_sequential_loop(self, k, kind):
        model = kind(k=k)
        # a prior from which the path crosses 40 within a few hundred steps,
        # inside a block; from 41 it starts past 40
        crossing = 40.0 - 300.0 * float(d_plus(model, 40.0))
        for prior in PRIORS + [-70.0, 1e3, crossing]:
            for horizon in (1, 2, 3000):  # 3000 steps end mid-block
                path = ell_star_path(model, horizon, prior).values
                assert _bytes_equal(path, _sequential(model, horizon, prior)), (prior, horizon)
        assert 100 < np.argmax(ell_star_path(model, 3000, crossing).values >= 40.0) < 3000

    def test_generic_model_equals_the_sequential_loop(self):
        model = LogisticModel()
        for prior in (0.0, -2.0, 5.0):
            for horizon in (1, 2, 1000):
                path = ell_star_path(model, horizon, prior).values
                assert _bytes_equal(path, _sequential(model, horizon, prior))
        assert np.all(np.diff(ell_star_path(model, 1000).values) > 0.0)

    @pytest.mark.parametrize(
        "q, support",
        [(lambda n: 1.0 / (n + 2.0), 5000), (lambda n: 1.0 / (n + 2.0), 30),
         (lambda n: 1.0 / math.log(n + 2.0 + math.e), 200000)],
        ids=["harmonic", "harmonic-cut30", "log"],
    )
    def test_rate_target_paths_equal_the_recurrence(self, q, support):
        # D+ is constant on each integer cell (k, k+1], so a path that lands
        # on an integer takes the step of the cell below it
        model = build_rate_target(q, max_support=support)
        cut = float(model.support[-1])
        for prior in (0.0, 0.3, 1.0, 2.0, -2.0, cut - 5.5, -cut + 0.5):
            path = ell_star_path(model, 3000, prior).values
            recurrence = iterate_recurrence(lambda x: float(d_plus(model, x)), prior, 3000)
            assert _bytes_equal(path, recurrence), prior
        # at -cut no signal makes an agent play +1: the path holds and agent 1 errs
        assert np.all(ell_star_path(model, 50, -cut).values == -cut)
        assert first_mistake_distribution(model, 50, -cut).pmf[0] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("model", [G1, PT1, PT2, RT, LogisticModel()], ids=lambda m: m.family)
    def test_first_mistake_law_bytes(self, model):
        for prior in (0.0, -2.0, 39.5):
            law = first_mistake_distribution(model, 1500, prior)
            neg = -_sequential(model, 1500, prior)
            log_correct = np.asarray(model.llr_log_sf(PLUS, neg), dtype=float)
            cum = np.concatenate(([0.0], np.cumsum(log_correct)))
            pmf = np.exp(np.asarray(model.llr_log_cdf(PLUS, neg), dtype=float) + cum[:-1])
            assert _bytes_equal(law.pmf, pmf) and _bytes_equal(law.survivor, np.exp(cum[1:]))

    @staticmethod
    def _spy_on_scans(monkeypatch):
        """Record the (start, stop) of every scan: over the model's own increment, and replays."""
        sequential, replayed, scan = [], [], belief._compensated_steps

        def spy(increment, values, start, stop, a, carry, model=None):
            # a replay of solved steps is a partial; anything else steps the model
            replay = isinstance(increment, functools.partial)
            (replayed if replay else sequential).append((start, stop))
            return scan(increment, values, start, stop, a, carry, model)

        monkeypatch.setattr(belief, "_compensated_steps", spy)
        return sequential, replayed

    def test_sweep_cap_commits_the_converged_prefix(self, monkeypatch):
        model = SubPolyTail(k=2.0)  # block-solved with or without the library
        expected = {prior: _sequential(model, 700, prior) for prior in PRIORS}
        sequential, replayed = self._spy_on_scans(monkeypatch)
        monkeypatch.setattr(belief, "_MAX_SWEEPS", 1)  # one sweep solves no block of 3+ steps
        for prior in PRIORS:
            assert _bytes_equal(ell_star_path(model, 700, prior).values, expected[prior])
        # each capped block commits the step its exact start fixes; none runs step by step
        assert all(stop == 700 for _, stop in sequential)
        assert (1, 257) in replayed and (1, 2) in replayed and (2, 258) in replayed

    @pytest.mark.parametrize("k", [2.0, 4.0])
    def test_unconverged_first_block_is_not_rerun_step_by_step(self, k, monkeypatch):
        # from a prior near 0 the first block of a k >= 1 path hits the sweep cap
        model = SubPolyTail(k=k)
        expected = _sequential(model, 1000, 0.1)
        sequential, replayed = self._spy_on_scans(monkeypatch)
        assert _bytes_equal(ell_star_path(model, 1000, 0.1).values, expected)
        assert sequential == [(1000, 1000)]
        prefix = [stop for start, stop in replayed if start == 1 and stop < 257]
        assert len(prefix) == 1 and 2 < prefix[0]

    def test_invalid_guessed_step_falls_back(self, monkeypatch):
        # the path stays below 10 for 300 steps, but the straight-line guess
        # of the first block runs past it into NaN increments
        model = LogisticModel(bad_above=10.0)
        expected = _sequential(model, 300, 0.0)
        sequential, _ = self._spy_on_scans(monkeypatch)
        path = ell_star_path(model, 300).values
        assert path[-1] < 10.0 and _bytes_equal(path, expected)
        assert (1, 257) in sequential

    def test_invalid_step_on_the_path_raises_as_the_loop_does(self):
        model = LogisticModel(bad_above=3.0)
        with pytest.raises(NumericalFailure) as sequential:
            _sequential(model, 300, 0.0)
        with pytest.raises(NumericalFailure) as blocked:
            ell_star_path(model, 300)
        assert str(blocked.value) == str(sequential.value)
        assert "nan" in str(blocked.value)


RATE_TARGETS = pytest.mark.parametrize(
    "q, support",
    [(lambda n: 1.0 / (n + 2.0), 5000), (lambda n: 1.0 / (n + 2.0), 30),
     (lambda n: 1.0 / math.log(n + 2.0 + math.e), 200000)],
    ids=["harmonic", "harmonic-cut30", "log"],
)


class TestRateTable:
    """A rate-target model's D+ per integer cell is exact: every reader of it gets the kernel's bytes."""

    @staticmethod
    def _points(model):
        """Every integer cell end, the floats on either side of it, and 1e5 uniform beliefs."""
        cut = float(model.support[-1])
        ends = np.arange(-cut - 2.0, cut + 3.0)
        uniform = np.random.default_rng(18).uniform(-cut - 2.0, cut + 2.0, 10**5)
        x = np.concatenate((ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf), uniform))
        return cut, x

    @RATE_TARGETS
    def test_path_increment_is_d_plus(self, q, support):
        model = build_rate_target(q, max_support=support)
        cut, x = self._points(model)
        incr, below = belief._scalar_increment(model)
        steps = np.array([incr(v) for v in x])
        plus = x > -cut  # at x <= -cut no agent plays +1 and d_plus raises
        assert _bytes_equal(steps[plus], d_plus(model, x[plus]))
        assert not steps[~plus].any()  # those x read cell -cut, which holds
        assert below == -math.inf  # no stretch is block-solved

    @RATE_TARGETS
    def test_lockstep_increments_are_the_kernels(self, q, support):
        # D+ reads the table at cell ceil x, D- its mirror at 1 - ceil x
        model = build_rate_target(q, max_support=support)
        cut, x = self._points(model)
        ones = np.ones(len(x))
        plus, minus = x > -cut, x <= cut  # where each action is possible
        up = montecarlo._increment(model, x, ones)
        down = montecarlo._increment(model, x, -ones)
        assert _bytes_equal(up[plus], d_plus(model, x[plus]))
        assert _bytes_equal(down[minus], d_minus(model, x[minus]))

    @RATE_TARGETS
    def test_lockstep_increment_equals_the_split_calls(self, q, support):
        model = build_rate_target(q, max_support=support)
        cut = float(model.support[-1])
        rng = np.random.default_rng(19)
        ell = np.concatenate(
            ([0.0, 1.0, -1.0, cut - 0.5, 0.5 - cut], rng.uniform(0.5 - cut, cut - 0.5, 2000))
        )
        for sgn in (np.ones(len(ell)), -np.ones(len(ell)), rng.choice([-1.0, 1.0], len(ell))):
            plus = sgn > 0.0
            split = np.empty(len(ell))
            split[plus] = d_plus(model, ell[plus])
            split[~plus] = d_minus(model, ell[~plus])
            assert _bytes_equal(montecarlo._increment(model, ell, sgn), split)

    def test_a_path_calls_the_kernel_only_to_build_the_table(self, monkeypatch):
        model = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=30000)
        cut = int(model.support[-1])
        calls, kernel = [], belief._signed_increment

        def spy(model, x, sign):
            calls.append(np.size(x))
            return kernel(model, x, sign)

        monkeypatch.setattr(belief, "_signed_increment", spy)
        expected = iterate_recurrence(lambda x: float(d_plus(model, x)), 0.3, 5000)
        calls.clear()
        assert _bytes_equal(ell_star_path(model, 5000, 0.3).values, expected)
        # one kernel call for each slice of cells that the path reads, and none for the rest
        read = np.unique(np.ceil(expected[:-1]) // belief._TABLE_SLICE)
        assert calls == [belief._TABLE_SLICE] * len(read) and len(read) < self._slices(cut)
        calls.clear()
        again = ell_star_path(model, 5000, -2.0).values
        first_mistake_distribution(model, 5000)
        new = np.setdiff1d(np.unique(np.ceil(again[:-1]) // belief._TABLE_SLICE), read)
        assert calls == [belief._TABLE_SLICE] * len(new)  # only the slices not read before

    def test_threads_reading_one_table_build_each_slice_once(self, monkeypatch):
        # eight threads read one fresh table, by the lockstep increment and by the path's, with
        # the interpreter switching threads every microsecond: each slice is built by one kernel
        # call, and every read gets its cell whole
        model = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=30000)
        cut = len(model.support) // 2
        x = np.random.default_rng(4).uniform(0.5 - cut, cut + 2.0, (8, 300))
        expected = [d_plus(model, row) for row in x]
        calls, kernel = [], belief._signed_increment
        monkeypatch.setattr(belief, "_signed_increment",
                            lambda model, ends, sign: calls.append(float(ends[0])) or kernel(model, ends, sign))
        incr = belief._scalar_increment(model)[0]
        got = [None] * len(x)

        def read(i):
            got[i] = (montecarlo._increment(model, x[i], np.ones(x.shape[1])) if i % 2
                      else np.array([incr(v) for v in x[i]]))

        threads = [threading.Thread(target=read, args=(i,)) for i in range(len(x))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(calls) == len(set(calls)) == self._slices(cut)
        for row, want in zip(got, expected):
            assert _bytes_equal(row, want)

    @staticmethod
    def _slice_of(cut):
        """The slice of each cell 1..2 cut + 1: slices are aligned on the right end 0."""
        return (np.arange(1, 2 * cut + 2) - cut) // belief._TABLE_SLICE

    @classmethod
    def _slices(cls, cut):
        return len(np.unique(cls._slice_of(cut)))

    @staticmethod
    def _boundary_model():
        """Criterion 10's model: Q(n) = 1/log(n + 2 + e), support +-2e5, 50 slices of cells."""
        return build_rate_target(lambda n: 1.0 / math.log(n + 2.0 + math.e), max_support=200000)

    def test_a_path_near_0_builds_only_the_slices_it_reads(self):
        model = self._boundary_model()
        cut = len(model.support) // 2
        path = ell_star_path(model, 10**4, 0.0).values
        assert hashlib.sha256(path.tobytes()).hexdigest() == (
            "3a4bcb7447f34815672183885900c0476e100fe1d5f682050eccfb825657fe5d")  # the eager table's path
        built = np.unique(self._slice_of(cut)[belief._rate_table(model).ready[1:] == 1])
        assert self._slices(cut) == 50 and 1 <= len(built) <= 2
        # the slices of ends >= 0 need no far tail, which ends below about -734 read
        assert "_log_far_tail" not in vars(model)

    def test_reads_at_both_far_ends_give_the_eager_cells(self):
        model = self._boundary_model()
        cut = len(model.support) // 2
        eager = np.zeros(2 * cut + 2)
        for lo in range(0, 2 * cut + 1, belief._TABLE_SLICE):  # the table as it was built whole
            ends = model.support[lo:lo + belief._TABLE_SLICE] + 1.0
            eager[lo + 1:lo + 1 + len(ends)] = belief._signed_increment(model, ends, +1)
        x = np.concatenate([np.arange(-cut - 3.0, -cut + 40.0), np.arange(cut - 40.0, cut + 4.0)])
        x = np.concatenate([x, x - 0.5])
        cell = np.clip(np.ceil(x) + cut, 0, 2 * cut + 1).astype(np.int64)
        mirror = np.clip(1.0 - np.ceil(x) + cut, 0, 2 * cut + 1).astype(np.int64)
        ones = np.ones(len(x))
        model = self._boundary_model()  # a fresh table
        assert _bytes_equal(montecarlo._increment(model, x, -ones), -eager[mirror])  # D- first
        assert _bytes_equal(montecarlo._increment(model, x, ones), eager[cell])
        incr = belief._scalar_increment(self._boundary_model())[0]  # a fresh table, read one cell at a time
        assert _bytes_equal(np.array([incr(v) for v in x[::-1]]), eager[cell[::-1]])
        table = belief._rate_table(model)
        built = table.ready == 1
        assert built[0] and built[-1] and not built.all()  # the slices near 0 were never read
        slice_of = self._slice_of(cut)  # each slice is built whole or not at all
        assert np.array_equal(built[1:], np.isin(slice_of, slice_of[built[1:]]))
        assert _bytes_equal(table.cells[built], eager[built])
        assert not table.cells[~built].any()
        # read whole, the table is the eager one
        assert _bytes_equal(table.read(model, np.arange(2 * cut + 2)), eager)


class TestNativeLoops:
    """Every compensated loop runs in C where the library builds; the bytes are the Python loop's."""

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 3.0])
    def test_paths_equal_the_sequential_loop(self, sigma, native_loop, python_loop):
        model = GaussianSignalModel(sigma=sigma)
        # -40: the deep-tail series branch; 700: the increment underflows and holds
        for prior in (-40.0, -3.0, 0.0, 0.1, 5.0, 700.0):
            for horizon in (1, 2, 10**5):
                path = ell_star_path(model, horizon, prior).values
                expected = python_loop(_sequential, model, horizon, prior)
                assert _bytes_equal(path, expected), (prior, horizon)

    def test_million_step_path_equals_the_sequential_loop(self, native_loop, python_loop):
        expected = python_loop(_sequential, G1, 10**6, 0.1)
        assert _bytes_equal(ell_star_path(G1, 10**6, 0.1).values, expected)

    @pytest.mark.parametrize("k", [0.5, 2.0, 4.0, 20.0])
    def test_polytail_paths_equal_the_python_loop(self, k, native_loop, python_loop):
        model = PolyTailSignalModel(k=k)
        crossing = 40.0 - 300.0 * float(d_plus(model, 40.0))  # crosses 40 inside a block
        # -70: the increment's deep left branch (a < -60); 1e3: far past 40
        for prior in (0.0, 0.3, -2.0, 39.5, 41.0, -70.0, 1e3, crossing):
            path = ell_star_path(model, 3000, prior).values
            assert _bytes_equal(path, python_loop(ell_star_path, model, 3000, prior).values), prior
            assert _bytes_equal(path, python_loop(_sequential, model, 3000, prior)), prior
        if k < 20.0:
            assert 100 < np.argmax(ell_star_path(model, 3000, crossing).values >= 40.0) < 3000
        else:  # the tail branch, which C leaves to the Python increment, lies below 40
            b_minus, _ = model.log_action_probabilities(np.array([5.0, 39.5]), +1)
            assert np.all(b_minus > -1e-8)

    @pytest.mark.parametrize(
        "q, support",
        [(lambda n: 1.0 / (n + 2.0), 5000), (lambda n: 1.0 / (n + 2.0), 30),
         (lambda n: 1.0 / math.log(n + 2.0 + math.e), 200000)],
        ids=["harmonic", "harmonic-cut30", "log"],
    )
    def test_rate_target_paths_equal_the_python_loop(self, q, support, native_loop, python_loop):
        model = build_rate_target(q, max_support=support)
        cut = float(model.support[-1])
        for prior in (0.0, 0.3, 1.0, 2.0, -2.0, cut - 5.5, -cut + 0.5):
            path = ell_star_path(model, 3000, prior).values
            assert _bytes_equal(path, python_loop(ell_star_path, model, 3000, prior).values), prior

    def test_generic_model_equals_the_python_loop(self, native_loop, python_loop):
        model = LogisticModel()
        for prior in (0.0, -2.0, 5.0):
            path = ell_star_path(model, 2000, prior).values
            assert _bytes_equal(path, python_loop(ell_star_path, model, 2000, prior).values)
            assert _bytes_equal(path, python_loop(_sequential, model, 2000, prior))

    def test_invalid_step_raises_as_the_loop_does(self, native_loop, python_loop):
        with pytest.raises(NumericalFailure) as sequential:
            python_loop(_sequential, G1, 10, -1e160)
        with pytest.raises(NumericalFailure) as compiled:
            ell_star_path(G1, 10, -1e160)
        assert str(compiled.value) == str(sequential.value)
        assert str(compiled.value) == "increment nan not finite and >= 0 at a=-1e+160"

    def test_invalid_replayed_step_raises_as_the_loop_does(self, native_loop, python_loop):
        model = LogisticModel(bad_above=3.0)
        with pytest.raises(NumericalFailure) as python:
            python_loop(ell_star_path, model, 300)
        with pytest.raises(NumericalFailure) as compiled:
            ell_star_path(model, 300)
        assert str(compiled.value) == str(python.value)

    def test_exhausted_replay_steps_by_its_argument_as_the_python_loop(self, native_loop, python_loop):
        # next(it, a) returns a once the steps run out, also called from the C loop
        def replayed():
            values = np.zeros(6)
            end = belief._compensated_steps(belief._replay(np.array([0.5, 1e-17])), values, 1, 6, 0.25, 0.0)
            return values.tobytes(), end

        assert replayed() == python_loop(replayed)

    def test_without_the_library_the_python_loop_gives_the_same_bytes(self, native_loop, python_loop):
        for model in (G2, PT2, RT):
            compiled = ell_star_path(model, 5000, -3.0).values
            assert _bytes_equal(python_loop(ell_star_path, model, 5000, -3.0).values, compiled)

    def test_build_goes_to_a_private_cache_file_named_by_the_source(self, native_loop, tmp_path):
        cache = tmp_path / "herdsim"
        assert _native._load(str(cache)) is not None
        assert os.stat(cache).st_mode & 0o777 == 0o700
        library = _native._library_path(str(cache))
        assert os.listdir(cache) == [os.path.basename(library)]
        built = os.stat(library).st_mtime_ns
        assert _native._load(str(cache)) is not None
        assert os.stat(library).st_mtime_ns == built  # loaded, not rebuilt

    def test_library_path_is_keyed_by_the_interpreter_abi(self, monkeypatch, tmp_path):
        # the library links the C API, so another interpreter ABI builds its own
        here = _native._library_path(str(tmp_path))
        config_var = sysconfig.get_config_var
        monkeypatch.setattr(
            _native.sysconfig, "get_config_var",
            lambda name: "cpython-00-other" if name == "SOABI" else config_var(name),
        )
        other = _native._library_path(str(tmp_path))
        assert other != here and os.path.dirname(other) == os.path.dirname(here)

    def test_library_path_is_keyed_by_the_numpy_version(self, monkeypatch, tmp_path):
        # the library links numpy's sampler code, so a numpy upgrade builds anew
        here = _native._library_path(str(tmp_path))
        monkeypatch.setattr(_native.np, "__version__", "0.0.0-other")
        other = _native._library_path(str(tmp_path))
        assert other != here and os.path.dirname(other) == os.path.dirname(here)
        assert _native._LIBRARY_NAME.fullmatch(os.path.basename(other))  # _remove_stale sees it

    def test_without_numpys_sampler_library_the_loops_still_build(self, native_loop, monkeypatch,
                                                                   tmp_path):
        monkeypatch.setattr(_native, "_sampler", lambda: None)
        lib = _native._load(str(tmp_path / "herdsim"))
        assert lib is not None and not hasattr(lib, "philox_fill")
        values = np.empty(5)
        assert _native.path_steps(lib, None, lambda a: 1.0, values, 0, 5, 0.0, 0.0)[0] == 5
        assert values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_the_c_source_compiles_with_warnings_as_errors(self, native_loop):
        paths = sysconfig.get_paths()
        includes = ["-I", paths["include"], "-I", paths["platinclude"], "-I", np.get_include()]
        cc = shlex.split(sysconfig.get_config_var("CC"))
        done = subprocess.run([*cc, "-Wall", "-Wextra", "-Werror", "-fsyntax-only", *includes,
                               "-x", "c", "-"], input=_native._source(), text=True,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_every_exported_c_function_is_registered(self, native_loop):
        # a function that is not static is an entry point: _load gives it argtypes,
        # so a dead or unregistered entry shows here
        exported = set(re.findall(r"^(?!static\b)\w+[ *]+(\w+)\(", _native._source(), re.M))
        registered = {name for name, f in vars(native_loop).items()
                      if isinstance(f, native_loop._FuncPtr) and f.argtypes is not None}
        assert {"gaussian_steps", "call_steps", "cohort_steps"} <= exported
        assert exported == registered

    def test_a_build_removes_the_libraries_it_replaces(self, native_loop, monkeypatch, tmp_path):
        cache = tmp_path / "herdsim"
        cache.mkdir(mode=0o700)
        abi = sysconfig.get_config_var("SOABI") or ""
        removed = [
            f"compensated_steps-{abi}-0123456789abcdef.so",  # this ABI, another key, built long ago
        ]
        kept = [
            f"compensated_steps-{abi}-fedcba9876543210.so",  # this ABI, another key, built lately
            "compensated_steps-cpython-00-other-0123456789abcdef.so",
            "compensated_steps-0123456789abcdef.so",  # no ABI: not a name a build gives
            "gaussian_steps-0123456789abcdef.so",
            "notes.txt",
        ]
        for name in removed + kept:
            (cache / name).write_bytes(b"")
        old = time.time() - _native._STALE_AFTER_S - 60
        for name in removed + kept[2:]:  # built long ago, but only this ABI's library goes
            os.utime(cache / name, (old, old))
        config_var = sysconfig.get_config_var
        with monkeypatch.context() as patch:  # a failed build removes nothing
            patch.setattr(
                _native.sysconfig, "get_config_var",
                lambda name: "no-such-cc-herdsim" if name == "CC" else config_var(name),
            )
            assert _native._load(str(cache)) is None
        assert sorted(os.listdir(cache)) == sorted(removed + kept)
        assert _native._load(str(cache)) is not None
        own = os.path.basename(_native._library_path(str(cache)))
        assert own.startswith(f"compensated_steps-{abi}-")
        assert sorted(os.listdir(cache)) == sorted(kept + [own])
        (cache / removed[0]).write_bytes(b"")  # loading a built library removes nothing
        os.utime(cache / removed[0], (old, old))
        assert _native._load(str(cache)) is not None
        assert sorted(os.listdir(cache)) == sorted(kept + [own, removed[0]])

    def test_no_compiler_or_shared_cache_dir_loads_nothing(self, monkeypatch, tmp_path):
        shared = tmp_path / "shared"
        shared.mkdir(mode=0o777)
        os.chmod(shared, 0o777)
        assert _native._load(str(shared)) is None
        assert os.listdir(shared) == []
        monkeypatch.setattr(_native.sysconfig, "get_config_var", lambda name: "no-such-cc-herdsim")
        assert _native._load(str(tmp_path / "herdsim")) is None
        assert os.listdir(tmp_path / "herdsim") == []

    def test_importing_the_package_loads_no_library(self):
        code = "import sys, herdsim; sys.exit('herdsim._native' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestFirstMistake:
    def test_first_step_probability(self):
        # [DERIVED] P(T1=1) = G_+(0) = Phi(-1/2)
        dist = first_mistake_distribution(G2, 100)
        assert_allclose(dist.pmf[0], 0.308537538725986896, rtol=1e-13)

    @pytest.mark.parametrize("model", ALL, ids=lambda m: repr(m)[:30])
    def test_total_probability(self, model):
        dist = first_mistake_distribution(model, 2000)
        assert np.all(dist.pmf >= 0.0)
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_product(self):
        dist = first_mistake_distribution(G2, 50)
        path = dist.ell_star
        prod = 1.0
        for t in range(50):
            g = float(G2.llr_cdf(PLUS, -path.values[t]))
            assert_allclose(dist.pmf[t], g * prod, rtol=1e-12)
            prod *= 1.0 - g

    def test_survivor_is_product_of_survivals(self):
        dist = first_mistake_distribution(G2, 50)
        assert_allclose(dist.survivor_mass, 1.0 - np.sum(dist.pmf), rtol=1e-12)

    def test_survivor_is_exact_in_the_deep_tail(self):
        # Prior 1e-9 on theta=+: almost every herd errs at t=1, and 1 - cumsum(pmf)
        # cancels to 0.0 long before t=200.  The survivor is built from logs.
        dist = first_mistake_distribution(G1, 200, math.log(1e-9 / (1.0 - 1e-9)))
        # [DERIVED] mpmath at 40 digits: prod_t (1 - Phi((-ell*_t - 2)/2)) = 3.1741267904184383e-21
        assert_allclose(dist.survivor[-1], 3.1741267904184383e-21, rtol=1e-12)
        assert dist.survivor_mass == dist.survivor[-1]
        # P(T1 > t-1) = P(T1 = t) + P(T1 > t), all terms positive, so no cancellation
        assert_allclose(dist.pmf[1:] + dist.survivor[1:], dist.survivor[:-1], rtol=1e-12)
        assert dist.pmf[0] + dist.survivor[0] == pytest.approx(1.0, rel=1e-15)


def _one_pass_law(model, horizon, prior):
    """ell*, pmf and survivor as computed in one pass each: the reference of the streamed law.

    The path is the block solve and then one compensated loop over the rest;
    the law is one log-probability pass and one cumsum over the whole path.
    """
    values = np.empty(horizon)
    values[0] = float(prior)
    incr, below = belief._scalar_increment(model)
    i, a, carry = belief._solve_blocks(model, incr, below, values, values[0])
    belief._compensated_steps(incr, values, i + 1, horizon, a, carry)
    neg = -values
    log_mistake = np.asarray(model.llr_log_cdf(PLUS, neg), dtype=float)
    cum = np.concatenate(([0.0], np.cumsum(np.asarray(model.llr_log_sf(PLUS, neg), dtype=float))))
    return values, np.exp(log_mistake + cum[:-1]), np.exp(cum[1:])


RT5000 = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=5000)
CHUNK = belief._CHUNK


class _LawFailed(Exception):
    pass


class TestStreamedLaw:
    """The first-mistake law reads ell* chunk by chunk from a helper thread; the bytes are one pass's."""

    @pytest.mark.parametrize("native", [True, False], ids=["native", "python"])
    @pytest.mark.parametrize(
        "model, prior",
        [(G1, 0.0), (PT2, 0.0), (RT5000, 0.3), (RT5000, -float(RT5000.support[-1]))],
        ids=["gaussian", "polytail", "ratetarget", "ratetarget-held"],
    )
    def test_law_equals_the_one_pass_law(self, model, prior, native, request, monkeypatch):
        if native:
            request.getfixturevalue("native_loop")
        else:
            monkeypatch.setattr(_native, "library", lambda: None)
        threads = threading.active_count()
        for horizon in (1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3):
            values, pmf, survivor = _one_pass_law(model, horizon, prior)
            law = first_mistake_distribution(model, horizon, prior)
            assert threading.active_count() == threads
            assert _bytes_equal(law.ell_star.values, values), horizon
            assert _bytes_equal(law.pmf, pmf) and _bytes_equal(law.survivor, survivor), horizon
        if prior < -5000.0:  # at -cut the path holds on every step and agent 1 errs
            assert np.all(values == prior) and law.pmf[0] == pytest.approx(1.0, rel=1e-12)

    def test_concurrent_laws_keep_their_bytes_under_fast_thread_switches(self, monkeypatch):
        # six callers, each with a helper thread, on fewer CPUs; short chunks hand over often
        monkeypatch.setattr(belief, "_CHUNK", 512)
        cases = [(model, prior) for model in (G1, PT2, RT5000) for prior in (0.0, 0.3)]
        expected = [_one_pass_law(model, 5000, prior) for model, prior in cases]
        threads, switch = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with concurrent.futures.ThreadPoolExecutor(len(cases)) as pool:
                futures = [pool.submit(first_mistake_distribution, model, 5000, prior)
                           for model, prior in cases]
                laws = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(switch)
        assert threading.active_count() == threads
        for law, (values, pmf, survivor) in zip(laws, expected):
            assert _bytes_equal(law.ell_star.values, values)
            assert _bytes_equal(law.pmf, pmf) and _bytes_equal(law.survivor, survivor)

    @pytest.mark.parametrize("native", [True, False], ids=["native", "python"])
    def test_a_path_error_in_the_second_chunk_is_raised_as_ell_star_path_raises_it(
        self, native, request, monkeypatch
    ):
        if native:
            request.getfixturevalue("native_loop")
        else:
            monkeypatch.setattr(_native, "library", lambda: None)
        # a subclass, whose C loop calls the scalar increment at every step
        model, horizon = SubGaussian(1.0), CHUNK + 100
        at = float(ell_star_path(model, horizon).values[CHUNK + 50])  # in the second resume
        incr, below = belief._scalar_increment(model)

        def failing(model):
            return (lambda x: math.nan if x >= at else incr(x)), below

        monkeypatch.setattr(belief, "_scalar_increment", failing)
        threads = threading.active_count()
        with pytest.raises(NumericalFailure) as path:
            ell_star_path(model, horizon)
        with pytest.raises(NumericalFailure) as law:
            first_mistake_distribution(model, horizon)
        assert str(law.value) == str(path.value)
        assert str(law.value) == f"increment nan not finite and >= 0 at a={at!r}"
        assert threading.active_count() == threads

    @pytest.mark.parametrize("native", [True, False], ids=["native", "python"])
    def test_an_error_of_the_law_stops_the_path(self, native, request, monkeypatch):
        if native:
            request.getfixturevalue("native_loop")
        else:
            monkeypatch.setattr(_native, "library", lambda: None)
        resumes, raised, scan = [], threading.Event(), belief._compensated_steps
        log_sf, calls = GaussianSignalModel.llr_log_sf, []

        def spy_scan(increment, values, start, stop, a, carry, model=None):
            resumes.append(start)
            if len(resumes) > 1:  # the second resume starts once the law has failed, and ends
                assert raised.wait(timeout=60)  # long after the failure stopped the helper
                time.sleep(0.2)
            return scan(increment, values, start, stop, a, carry, model)

        def failing_log_sf(self, state, x):
            calls.append(len(x))
            if len(calls) == 2:  # the first resume's chunk
                raised.set()
                raise _LawFailed("log-survival failed")
            return log_sf(self, state, x)

        monkeypatch.setattr(belief, "_compensated_steps", spy_scan)
        monkeypatch.setattr(GaussianSignalModel, "llr_log_sf", failing_log_sf)
        threads = threading.active_count()
        with pytest.raises(_LawFailed, match="log-survival failed"):
            first_mistake_distribution(G1, 8 * CHUNK)
        assert threading.active_count() == threads
        # of the path's 8 resumes, the helper ran the one under way when the law failed
        assert calls == [1, CHUNK] and resumes == [1, 1 + CHUNK]


class TestExactType:
    # _native.path_steps fuses the Gaussian closed form into C for the exact
    # type only, since a subclass may change the law.  SubGaussian keeps its
    # base's law, so C calls its scalar increment and gives the base's bytes.

    def test_a_subclass_gives_the_base_bytes(self, native_loop, python_loop):
        horizon = CHUNK + 3  # the law reads two chunks
        for sigma, prior in ((1.0, 0.0), (0.7, 0.3), (1.0, -80.0)):
            sub, base = SubGaussian(sigma), GaussianSignalModel(sigma)
            ref = first_mistake_distribution(base, horizon, prior)
            for law in (first_mistake_distribution(sub, horizon, prior),
                        python_loop(first_mistake_distribution, sub, horizon, prior)):
                assert _bytes_equal(law.ell_star.values, ref.ell_star.values), (sigma, prior)
                assert _bytes_equal(law.pmf, ref.pmf) and _bytes_equal(law.survivor, ref.survivor)
            for path in (ell_star_path(sub, horizon, prior),
                         python_loop(ell_star_path, sub, horizon, prior)):
                assert _bytes_equal(path.values, ref.ell_star.values), (sigma, prior)

    def test_only_the_exact_type_runs_the_fused_loop(self, native_loop, monkeypatch):
        # the fused loop calls no increment, and the law's path reaches it
        incr, _ = belief._scalar_increment(G1)
        calls = []

        def counted(x):
            calls.append(x)
            return incr(x)

        monkeypatch.setattr(belief, "_scalar_increment", lambda model: (counted, -math.inf))
        out = []
        for model in (SubGaussian(1.0), G1):
            calls.clear()
            values = np.zeros(1000)
            end = _native.path_steps(native_loop, model, counted, values, 1, 1000, 0.0, 0.0)
            direct = len(calls)
            law = first_mistake_distribution(model, 1000)
            out.append((values.tobytes(), end, law.ell_star.values.tobytes(), direct, len(calls) - direct))
        sub, base = out
        assert sub[:3] == base[:3] and sub[0] == sub[2] and sub[1][0] == 1000
        assert sub[3:] == (999, 999) and base[3:] == (0, 0)


class TestUPlusMonotone:
    def test_gaussian_threshold_exists(self):
        x_hat = u_plus_monotone_threshold(G1, 10.0)
        assert x_hat is not None and x_hat < 10.0

    def test_polytail_threshold_exists(self):
        x_hat = u_plus_monotone_threshold(PT2, 20.0)
        assert x_hat is not None and x_hat < 20.0
        # [TRIVIAL] slopes past the threshold are positive
        for x in (x_hat + 1.0, x_hat + 2.0):
            u0 = x + float(d_plus(PT2, x))
            u1 = (x + 0.01) + float(d_plus(PT2, x + 0.01))
            assert u1 >= u0

    @pytest.mark.parametrize(
        "name, kwargs",
        [("search_limit", {"search_limit": -1.0}), ("search_limit", {"search_limit": math.nan}),
         ("search_limit", {"search_limit": math.inf}), ("grid_step", {"grid_step": math.nan}),
         ("grid_step", {"grid_step": 0.0})],
    )
    def test_invalid_limit(self, name, kwargs):
        with pytest.raises(ValueError, match=name):
            u_plus_monotone_threshold(G1, **{"search_limit": 10.0, **kwargs})


class TestUpsetContraction:
    def test_polytail_upset_contracts_above_threshold(self):
        # |x + D_-(x)| <= x for all x above some threshold below 100
        xs = np.arange(1.0, 100.0, 0.25)
        ok = np.abs(xs + np.asarray(d_minus(PT2, xs))) <= xs
        assert ok[-1]
        threshold = xs[np.nonzero(~ok)[0][-1] + 1] if not ok.all() else xs[0]
        assert threshold < 100.0
        above = xs >= threshold
        assert np.all(ok[above])
