"""ODE growth predictions: closed forms, recurrence agreement, envelopes."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from herdsim.asymptotics import (
    GaussianEnvelope,
    closed_form_exponential_tail,
    closed_form_polynomial_tail,
    gaussian_envelope_solutions,
    gaussian_rate_prediction,
    iterate_recurrence,
    ratio_curve,
    solve_belief_ode,
    solve_growth_ode,
)
from herdsim.belief import d_plus, ell_star_path
from herdsim.signal_models import (
    GaussianSignalModel,
    NumericalFailure,
    PolyTailSignalModel,
    StateOfWorld,
    build_rate_target,
)


class TestClosedForms:
    def test_exponential_closed_form_solves_ode(self):
        # [TRIVIAL] d/dt log(t+c) = 1/(t+c) = e^{-f}
        for c in (0.5, 3.0):
            for t in (10.0, 1e3, 1e6):
                f = closed_form_exponential_tail(c, t)
                assert_allclose(math.exp(-f), 1.0 / (t + c), rtol=1e-14)

    def test_polynomial_closed_form_solves_ode(self):
        for k in (1.0, 2.0):
            for t in (10.0, 1e4):
                f = closed_form_polynomial_tail(k, 1.0, t)
                h = 1e-4 * t
                df = (
                    closed_form_polynomial_tail(k, 1.0, t + h)
                    - closed_form_polynomial_tail(k, 1.0, t - h)
                ) / (2 * h)
                assert_allclose(df, f**-k, rtol=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            closed_form_exponential_tail(-20.0, 10.0)
        with pytest.raises(ValueError):
            closed_form_polynomial_tail(0.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            gaussian_rate_prediction(1.0, 0.5)
        with pytest.raises(ValueError):
            gaussian_rate_prediction(-1.0, 10.0)


class TestSolver:
    def test_exponential_rate_matches_closed_form(self):
        c = 2.0
        sol = solve_growth_ode(
            lambda f: math.exp(-f), t0=10.0, f0=math.log(10.0 + c), horizon=1e6
        )
        ts = np.logspace(1.01, 5.99, 40)
        assert_allclose(sol(ts), closed_form_exponential_tail(c, ts), rtol=1e-6)

    def test_polynomial_rate_matches_closed_form(self):
        k, c = 2.0, 5.0
        sol = solve_growth_ode(
            lambda f: f**-k,
            t0=10.0,
            f0=closed_form_polynomial_tail(k, c, 10.0),
            horizon=1e6,
        )
        ts = np.logspace(1.01, 5.99, 40)
        assert_allclose(sol(ts), closed_form_polynomial_tail(k, c, ts), rtol=1e-6)

    def test_dense_output_and_derivative(self):
        sol = solve_growth_ode(lambda f: math.exp(-f), 1.0, 0.0, 100.0)
        t = 37.5
        assert_allclose(sol.derivative(t), math.exp(-sol(t)), rtol=1e-12)
        with pytest.raises(ValueError):
            sol(1e9)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            solve_growth_ode(lambda f: 1.0, 10.0, 0.0, 10.0)

    def test_belief_ode_requires_positive_start(self):
        with pytest.raises(ValueError):
            solve_belief_ode(PolyTailSignalModel(k=2.0), 1.0, 0.0, 100.0)

    def test_belief_ode_polytail_tracks_polynomial_form(self):
        # rate = G_-(-f) = (c/k) f^{-k} for f > 1, so the solution matches
        # the rescaled polynomial closed form exactly
        pt = PolyTailSignalModel(k=2.0)
        a = pt.c / pt.k
        sol = solve_belief_ode(pt, t0=1.0, f0=2.0, horizon=1e5)
        # f' = a f^-2  =>  f = (3 a t + const)^{1/3}
        const = 2.0**3 - 3.0 * a * 1.0
        ts = np.logspace(0.1, 4.9, 30)
        assert_allclose(sol(ts), (3.0 * a * ts + const) ** (1.0 / 3.0), rtol=1e-6)

    def test_a_nan_rate_is_refused_by_its_f(self):
        # scipy's first step would be NaN, and max(0.2, nan) keeps every later one NaN
        with pytest.raises(NumericalFailure, match=r"^growth ODE rate is NaN at f = 1\.0$"):
            solve_growth_ode(lambda f: math.nan, 1.0, 1.0, 10.0)
        with pytest.raises(NumericalFailure, match=r"^growth ODE rate is NaN at f = 2\.\d+$"):
            solve_growth_ode(lambda f: 1.0 if f <= 2.0 else math.nan, 1.0, 1.0, 10.0)

    @pytest.mark.parametrize("t", [math.nan, np.array([math.nan, 2.0]), [2.0, math.nan]])
    def test_a_nan_query_time_is_refused(self, t):
        sol = solve_growth_ode(lambda f: 1.0, 1.0, 1.0, 10.0)
        with pytest.raises(ValueError, match="^query time t must not be NaN$"):
            sol(t)
        with pytest.raises(ValueError, match="^query time t must not be NaN$"):
            sol.derivative(t)


def _belief_rate(model):
    return lambda x: float(np.exp(model.llr_log_cdf(StateOfWorld.MINUS, -x)))


# The equations the package solves: the belief ODE of four models from (1, 1),
# and ode-check's synthetic tails from 0 (their rates and starts).
PARITY_CASES = {
    "gaussian": lambda: (_belief_rate(GaussianSignalModel(1.0)), 1.0, 1.0),
    "gaussian-sigma0.7": lambda: (_belief_rate(GaussianSignalModel(0.7)), 1.0, 1.0),
    "polytail": lambda: (_belief_rate(PolyTailSignalModel(2.0)), 1.0, 1.0),
    "ratetarget": lambda: (
        _belief_rate(build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=2000)), 1.0, 1.0),
    "exponential-tail": lambda: (lambda x: math.exp(-x), 0.0, 0.0),
    "polynomial-tail": lambda: (
        lambda x: x ** -2.0 if x > 1e-12 else 1e12, 0.0, closed_form_polynomial_tail(2.0, 1.0, 0.0)),
    # a rate too small for RK45's first-step estimate: d1, d2 <= 1e-15 take h1 = max(1e-6, h0 * 1e-3)
    "flat": lambda: (lambda x: 1e-30, 1.0, 1.0),
}


def _scipy_solution(rate, t0, f0, horizon):
    from scipy.integrate import solve_ivp

    return solve_ivp(lambda _t, y: [rate(float(y[0]))], (t0, horizon), [f0], method="RK45",
                     rtol=1e-9, atol=1e-12, dense_output=True)


class TestScipyParity:
    """The solver is scipy's RK45 with dense output, bit for bit."""

    @pytest.mark.parametrize("horizon", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_grid_values_and_dense_output_equal_scipy(self, case, horizon):
        rate, t0, f0 = PARITY_CASES[case]()
        want = _scipy_solution(rate, t0, f0, horizon)
        sol = solve_growth_ode(rate, t0, f0, horizon)
        assert sol.t_grid.tobytes() == want.t.tobytes()
        assert sol.f_values.tobytes() == want.y[0].tobytes()

        def dense(t):  # how the solver's callers queried scipy's interpolant
            return np.atleast_2d(want.sol(np.atleast_1d(t)))[0]

        grid = want.t
        points = [grid, np.nextafter(grid[1:], -np.inf), np.nextafter(grid[:-1], np.inf),
                  np.random.default_rng(7).uniform(grid[0], grid[-1], 10**3)]
        for t in points:
            assert sol(t).tobytes() == dense(t).tobytes()
        # one point per call is evaluated alone, which can round differently
        t = np.concatenate(points)
        single = np.array([sol(float(v)) for v in t])
        assert single.tobytes() == np.array([dense(v)[0] for v in t]).tobytes()

    def test_an_infinite_rate_fails_with_scipys_message(self):
        with np.errstate(invalid="ignore"):  # inf - inf in both
            want = _scipy_solution(lambda f: math.inf, 1.0, 1.0, 10.0)
            with pytest.raises(NumericalFailure) as err:
                solve_growth_ode(lambda f: math.inf, 1.0, 1.0, 10.0)
        assert not want.success
        assert str(err.value) == f"growth ODE integration failed: {want.message}"

    def test_a_cold_ode_run_loads_no_scipy_integrate(self):
        # scipy.integrate pulls in scipy.sparse, optimize, spatial, fft and
        # constants: about 0.18 s and 16 MiB
        code = (
            "import contextlib, io, json, os, sys, tempfile\n"
            "from herdsim import GaussianSignalModel, cli, solve_belief_ode\n"
            "solve_belief_ode(GaussianSignalModel(1.0), 1.0, 1.0, 1e4)\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            "    for i, model in enumerate(({'family': 'polytail', 'k': 2.0},\n"
            "                               {'family': 'synthetic', 'tail': 'exponential'})):\n"
            "        path = os.path.join(tmp, f'{i}.json')\n"
            "        with open(path, 'w') as fh:\n"
            "            json.dump({'experiment': 'ode-check', 'horizon': 1000, 'model': model,\n"
            "                       'output_dir': os.path.join(tmp, str(i))}, fh)\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            assert cli.main(['run', path]) == 0\n"
            "print(sorted(n for n in ('scipy.integrate', 'scipy.optimize', 'scipy.sparse') if n in sys.modules))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.split() == ["[]"]


class TestRecurrenceVsOde:
    def test_exponential_increment_matches_analytic(self):
        # a_{t+1} = a_t + e^{-a_t} vs f(t) = log(t + c): |a_t/f(t) - 1| <= 0.05
        horizon = 10**6
        seq = iterate_recurrence(lambda a: math.exp(-a), 0.0, horizon)
        c = math.exp(seq[0]) - 1.0  # f(1) = a_1
        f = closed_form_exponential_tail(c, float(horizon))
        assert abs(seq[-1] / f - 1.0) <= 0.05

    def test_paired_recurrences_with_equivalent_increments(self):
        # increments 2e^{-a} vs e^{-a}(2 - 1/(1+a)): ratio of increments -> 1,
        # so the iterates agree to 1% at 1e6
        horizon = 10**6
        a = iterate_recurrence(lambda x: 2.0 * math.exp(-x), 0.0, horizon)
        b = iterate_recurrence(
            lambda x: math.exp(-x) * (2.0 - 1.0 / (1.0 + x)), 0.0, horizon
        )
        assert abs(a[-1] / b[-1] - 1.0) <= 0.01

    def test_monotone_comparison(self):
        # a pointwise larger increment yields a pointwise larger path
        horizon = 2000
        lo = iterate_recurrence(lambda x: math.exp(-x), 0.0, horizon)
        hi = iterate_recurrence(lambda x: 2.0 * math.exp(-x), 0.0, horizon)
        assert np.all(hi[1:] > lo[1:])

    def test_increment_must_be_positive(self):
        with pytest.raises(NumericalFailure):
            iterate_recurrence(lambda x: -1.0, 0.0, 10)

    @pytest.mark.parametrize("horizon", [0, -3, 10.5, True])
    def test_bad_horizon_is_named(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            iterate_recurrence(lambda x: 1.0, 0.0, horizon)

    def test_zero_step_holds(self):
        # an increment that underflows to 0 is exact, not a failure
        assert np.array_equal(iterate_recurrence(lambda x: 0.0, 1.5, 4), [1.5] * 4)

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_non_finite_step_raises(self, step):
        with pytest.raises(NumericalFailure):
            iterate_recurrence(lambda x: step, 0.0, 10)

    def test_model_recurrence_tracks_belief_ode(self):
        # the exact discrete path and the continuous ODE agree to a few
        # percent by t = 1e4 for the polynomial-tail model
        pt = PolyTailSignalModel(k=1.0)
        path = ell_star_path(pt, 10**4)
        sol = solve_belief_ode(pt, t0=100.0, f0=float(path.values[99]), horizon=1e4)
        assert abs(path.values[-1] / sol(1e4) - 1.0) < 0.03


# criterion 04's increments: a_{t+1} = a_t + e^{-a_t} and the paired 2e^{-x}, e^{-x}(2 - 1/(1+x))
CRITERION_04_INCREMENTS = {
    "exp": lambda a: math.exp(-a),
    "two_exp": lambda x: 2.0 * math.exp(-x),
    "paired": lambda x: math.exp(-x) * (2.0 - 1.0 / (1.0 + x)),
}


def _recorded_run(ret, at):
    """iterate_recurrence over an increment that returns ``ret`` at call ``at``, recording its calls.

    Returns the outcome (the values, or the exception's type and message)
    and every call's argument, by type and repr.
    """
    calls = []

    def increment(a):
        calls.append((type(a).__name__, repr(a)))
        if len(calls) != at:
            return 0.5 / (1.0 + a)
        if ret is ZeroDivisionError:
            return 1.0 / 0
        return ret

    try:
        outcome = iterate_recurrence(increment, 0.25, 12).tobytes()
    except Exception as exc:  # noqa: BLE001 (the outcome compared is whatever it raises)
        outcome = (type(exc), str(exc))
    return outcome, calls


class TestCompiledRecurrence:
    """iterate_recurrence calls a Python increment from C; its bytes and errors are the Python loop's."""

    @pytest.mark.parametrize("name", sorted(CRITERION_04_INCREMENTS))
    def test_criterion_04_increments_equal_the_python_loop(self, name, native_loop, python_loop):
        increment = CRITERION_04_INCREMENTS[name]
        compiled = iterate_recurrence(increment, 0.0, 10**5)
        assert compiled.tobytes() == python_loop(iterate_recurrence, increment, 0.0, 10**5).tobytes()

    @pytest.mark.parametrize("at", [1, 2, 7, 11])
    @pytest.mark.parametrize(
        "ret",
        [np.float64(0.5), np.float64(-1.0), 1, "0.5", None, ZeroDivisionError,
         -1.0, -1e-300, math.nan, math.inf, 0.0],
        ids=["np.float64", "np.float64-negative", "int", "str", "None", "raises",
             "negative", "tiny-negative", "nan", "inf", "zero"],
    )
    def test_other_returns_go_as_in_the_python_loop(self, ret, at, native_loop, python_loop):
        # the same exception type and text, or the same values, and the same
        # calls with the same argument types (np.float64 propagates into a)
        compiled = _recorded_run(ret, at)
        assert compiled == python_loop(_recorded_run, ret, at)
        if isinstance(ret, np.float64) and ret > 0.0:
            types = [name for name, _ in compiled[1]]
            assert types == ["float"] * at + ["float64"] * (11 - at)
        if isinstance(ret, np.float64) and ret < 0.0:
            assert compiled[0][1].startswith("increment np.float64(-1.0) not finite")


class TestGaussianEnvelopes:
    def test_tail_formula(self):
        env = GaussianEnvelope(eta=0.0, tau=2.0)
        x = 3.0
        assert_allclose(env.tail(x), math.exp(-(x * x) / 8.0) / x, rtol=1e-14)

    def test_tail_brackets_gaussian_model_tail(self):
        # F_0(x) <= G_-(-x) <= F_eta(x) for large x (sigma=1, tau=2); the
        # upper comparison only dominates once 0.1 x^2 > 4x - 4, i.e. x > 39
        g = GaussianSignalModel(sigma=1.0)
        lo = GaussianEnvelope(eta=0.0, tau=2.0)
        hi = GaussianEnvelope(eta=0.1, tau=2.0)
        xs = np.linspace(45.0, 80.0, 71)
        gm = np.exp(np.asarray(g.llr_log_cdf(StateOfWorld.MINUS, -xs), dtype=float))
        assert np.all(lo.tail(xs) <= gm)
        assert np.all(gm <= hi.tail(xs))

    def test_solution_scale(self):
        # f_eta / sqrt(log t) -> sqrt(2) tau / sqrt(1 - eta)
        tau = 2.0
        t = 1e60
        for eta in (0.0, 0.1):
            f = gaussian_envelope_solutions(eta, tau, 0.0, t)
            assert_allclose(
                f / math.sqrt(math.log(t)),
                math.sqrt(2.0) * tau / math.sqrt(1.0 - eta),
                rtol=1e-2,
            )

    def test_solution_satisfies_rescaled_ode(self):
        # f' = ((1-eta)/2) F_eta(f), checked by central differences
        tau, eta, c = 2.0, 0.1, 0.0
        env = GaussianEnvelope(eta=eta, tau=tau, c_shift=c)
        for t in (1e4, 1e7):
            h = 1e-5 * t
            df = (env.solution(t + h) - env.solution(t - h)) / (2.0 * h)
            f = env.solution(t)
            assert_allclose(df, 0.5 * (1.0 - eta) * env.tail(f), rtol=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianEnvelope(eta=1.0, tau=2.0)
        with pytest.raises(ValueError):
            GaussianEnvelope(eta=0.5, tau=0.0)
        with pytest.raises(ValueError):
            gaussian_envelope_solutions(0.0, 2.0, 0.0, 1.0)  # inner log <= 0


class TestNonFiniteParameters:
    """A NaN or infinite parameter is refused by name, never returned as NaN."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name, call",
        [
            ("a0", lambda v: iterate_recurrence(lambda x: 1.0, v, 3)),
            ("sigma", lambda v: gaussian_rate_prediction(v, 10.0)),
            ("c", lambda v: closed_form_exponential_tail(v, [10.0, 1e3])),
            ("k", lambda v: closed_form_polynomial_tail(v, 1.0, [10.0, 1e3])),
            ("c", lambda v: closed_form_polynomial_tail(2.0, v, [10.0, 1e3])),
            ("eta", lambda v: gaussian_envelope_solutions(v, 2.0, 0.0, 1e3)),
            ("tau", lambda v: gaussian_envelope_solutions(0.1, v, 0.0, 1e3)),
            ("c_shift", lambda v: gaussian_envelope_solutions(0.1, 2.0, v, 1e3)),
            ("tau", lambda v: GaussianEnvelope(0.1, v).solution(1e3)),
            ("c_shift", lambda v: GaussianEnvelope(0.1, 2.0, v).solution(1e3)),
            ("t0", lambda v: solve_growth_ode(lambda x: 1.0, v, 1.0, 10.0)),
            ("f0", lambda v: solve_growth_ode(lambda x: 1.0, 1.0, v, 10.0)),
            ("horizon", lambda v: solve_growth_ode(lambda x: 1.0, 1.0, 1.0, v)),
            ("t0", lambda v: solve_belief_ode(GaussianSignalModel(1.0), v, 1.0, 10.0)),
            ("f0", lambda v: solve_belief_ode(GaussianSignalModel(1.0), 1.0, v, 10.0)),
            ("horizon", lambda v: solve_belief_ode(GaussianSignalModel(1.0), 1.0, 1.0, v)),
        ],
    )
    def test_parameter_is_named(self, name, call, value):
        with pytest.raises(ValueError, match=rf"^{name} must "):
            call(value)

    def test_a0_wording_matches_the_ell_star_prior(self):
        with pytest.raises(ValueError, match=r"^a0 must be finite, got nan$"):
            iterate_recurrence(lambda x: 1.0, math.nan, 3)
        with pytest.raises(ValueError, match=r"^prior_llr must be finite, got nan$"):
            ell_star_path(GaussianSignalModel(1.0), 3, math.nan)

    def test_non_finite_times_are_refused(self):
        with pytest.raises(ValueError, match="t > 1"):
            gaussian_rate_prediction(1.0, [10.0, math.nan])
        with pytest.raises(ValueError, match="positive"):
            closed_form_exponential_tail(1.0, math.nan)
        with pytest.raises(ValueError, match="positive"):
            closed_form_polynomial_tail(2.0, 1.0, math.nan)
        with pytest.raises(ValueError, match="positive"):
            gaussian_envelope_solutions(0.1, 2.0, 0.0, math.nan)


class TestRatioCurveAndExport:
    def test_ratio_curve(self):
        a = [1.0, 2.0, 3.0]
        b = [2.0, 2.0, 2.0]
        assert ratio_curve(a, b, [1, 3]) == [(1, 0.5), (3, 1.5)]
        with pytest.raises(ValueError):
            ratio_curve(a, b, [4])

    @pytest.mark.parametrize("a, b", [([math.nan, 1.0], [1.0, 1.0]), ([1.0, 1.0], [math.nan, 1.0])])
    def test_ratio_curve_refuses_a_nan_element_by_its_time(self, a, b):
        with pytest.raises(ValueError, match="sample time 1"):
            ratio_curve(a, b, [1, 2])
        with pytest.raises(ValueError, match="sample time 2"):
            ratio_curve(a[::-1], b[::-1], [1, 2])


class TestGaussianRateAgainstPath:
    def test_sigma_scaling(self):
        # prediction scales as 1/sigma
        assert_allclose(
            gaussian_rate_prediction(1.0, 1e4),
            2.0 * gaussian_rate_prediction(2.0, 1e4),
            rtol=1e-14,
        )

    def test_path_within_band_at_1e5(self):
        # the exact path over prediction lies in [0.75, 1.25] well before 1e7
        g = GaussianSignalModel(sigma=1.0)
        path = ell_star_path(g, 10**5)
        ratio = path.values[-1] / gaussian_rate_prediction(1.0, 10**5)
        assert 0.75 <= ratio <= 1.25
