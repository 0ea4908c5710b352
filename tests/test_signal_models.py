"""Signal-model distributions: tail accuracy, identities, and sampling laws.

Oracle values are frozen from extended-precision computations (mpmath) or
quadrature and noted inline; property tests use hypothesis where natural.
"""

import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, stats

from herdsim import _native, belief, signal_models
from herdsim.belief import d_minus, d_plus, ell_star_path, first_mistake_distribution, log_d_plus
from herdsim.montecarlo import run_trials
from herdsim.signal_models import (
    GaussianSignalModel,
    InverseCdfSignalModel,
    ModelValidationError,
    PolyTailSignalModel,
    RateTargetSignalModel,
    StateOfWorld,
    _poly_tail_tables,
    build_rate_target,
    check_llr_identity,
    log_ndtr_scalar,
    model_from_dict,
    model_from_json,
    model_to_json,
    poly_tail_normalizer,
)

MINUS, PLUS = StateOfWorld.MINUS, StateOfWorld.PLUS


def all_models():
    return [
        GaussianSignalModel(sigma=1.0),
        GaussianSignalModel(sigma=2.0),
        PolyTailSignalModel(k=1.0),
        PolyTailSignalModel(k=2.0),
        build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=2000),
    ]


class TestScalarLogPhi:
    def test_matches_extended_precision(self):
        # [DERIVED] mpmath log ncdf oracles
        assert_allclose(log_ndtr_scalar(-40.5), -824.745849244038018, rtol=1e-13)
        assert_allclose(log_ndtr_scalar(-37.2), -696.455968620533152, rtol=1e-13)
        assert_allclose(log_ndtr_scalar(-5.0), -15.0649983939887257, rtol=1e-13)
        assert_allclose(log_ndtr_scalar(0.0), math.log(0.5), rtol=1e-15)

    def test_agrees_with_scipy_where_scipy_is_exact(self):
        from scipy.special import log_ndtr

        xs = np.linspace(-37, 8, 4001)
        ours = np.array([log_ndtr_scalar(float(x)) for x in xs])
        assert np.max(np.abs(ours - log_ndtr(xs))) < 1e-12 * np.max(np.abs(ours))

    def test_right_tail_approaches_zero(self):
        # [TRIVIAL] survival of full support
        assert log_ndtr_scalar(40.0) == pytest.approx(0.0, abs=1e-300)


class TestGaussianModel:
    def test_cdf_at_zero(self):
        # [DERIVED] Phi(-1/2) = 0.308537538725986896 (mpmath)
        g = GaussianSignalModel(sigma=2.0)
        assert_allclose(g.llr_cdf(MINUS, 0.0), 0.691462461274013104, rtol=1e-14)
        assert_allclose(g.llr_cdf(PLUS, 0.0), 0.308537538725986896, rtol=1e-14)

    def test_log_sf_deep_tail(self):
        # [DERIVED] sigma=2, state=minus, x=40: z=(40+0.5)/1, log Phi(-40.5)
        g = GaussianSignalModel(sigma=2.0)
        assert_allclose(
            g.llr_log_sf(MINUS, 40.0), -824.745849244038018, rtol=1e-12
        )

    def test_log_sf_approaches_zero_left(self):
        # [TRIVIAL]
        for model in all_models():
            assert float(model.llr_log_sf(MINUS, -1e12)) == pytest.approx(0.0, abs=1e-8)

    def test_tau_and_mean(self):
        g = GaussianSignalModel(sigma=0.5)
        assert g.tau == 4.0
        llr_mean = 2.0 / 0.25
        samples = g.sample_llr(PLUS, np.random.default_rng(3), size=200000)
        assert abs(np.mean(samples) - llr_mean) < 3 * g.tau / math.sqrt(200000)

    def test_invalid_sigma(self):
        with pytest.raises(ModelValidationError):
            GaussianSignalModel(sigma=0.0)
        with pytest.raises(ModelValidationError):
            GaussianSignalModel(sigma=-1.0)

    @given(st.floats(-30.0, 30.0), st.floats(0.3, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_log_cdf_log_sf_consistent(self, x, sigma):
        g = GaussianSignalModel(sigma=sigma)
        total = math.exp(float(g.llr_log_cdf(MINUS, x))) + math.exp(
            float(g.llr_log_sf(MINUS, x))
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestPolyTailModel:
    def test_normalizer_oracle(self):
        # [DERIVED] mpmath: c = 1/(Gamma(-k,1) + 1/k)
        assert_allclose(poly_tail_normalizer(1.0), 0.870704320652693368, rtol=1e-12)
        assert_allclose(poly_tail_normalizer(2.0), 1.640172503167717250, rtol=1e-12)

    def test_density_integrates_to_one(self):
        for k in (1.0, 2.0, 3.5):
            pt = PolyTailSignalModel(k=k)
            pieces = [
                integrate.quad(lambda x: pt.llr_pdf(MINUS, x), a, b, limit=200)[0]
                for a, b in ((-np.inf, -1.0), (1.0, np.inf))
            ]
            assert_allclose(sum(pieces), 1.0, rtol=1e-8)

    def test_closed_tail_forms(self):
        # G_-(-x) = (c/k) x^{-k} and 1 - G_+(x) = (c/k) x^{-k} for x > 1
        pt = PolyTailSignalModel(k=2.0)
        for x in (1.5, 4.0, 30.0):
            assert_allclose(
                pt.llr_cdf(MINUS, -x), (pt.c / pt.k) * x**-2.0, rtol=1e-12
            )
            assert_allclose(
                math.exp(float(pt.llr_log_sf(PLUS, x))),
                (pt.c / pt.k) * x**-2.0,
                rtol=1e-10,
            )

    def test_normalizer_is_not_a_parameter(self):
        # a caller-set c would build an unnormalized density
        with pytest.raises(TypeError):
            PolyTailSignalModel(k=2.0, c=0.9)
        assert PolyTailSignalModel(k=2.0).c == poly_tail_normalizer(2.0)

    def test_flat_gap(self):
        # density vanishes on (-1, 1): CDF constant there
        pt = PolyTailSignalModel(k=1.0)
        assert pt.llr_cdf(MINUS, -0.99) == pt.llr_cdf(MINUS, 0.99)
        assert pt.llr_pdf(MINUS, 0.0) == 0.0

    def test_mirror_symmetry(self):
        pt = PolyTailSignalModel(k=2.0)
        for x in (-5.0, -1.2, 0.3, 2.0, 17.0):
            assert_allclose(
                pt.llr_cdf(PLUS, x), 1.0 - pt.llr_cdf(MINUS, -x), rtol=1e-12
            )

    def test_quantile_round_trip(self):
        # spline quantile: u -> x -> cdf(x) recovers u to 1e-10
        pt = PolyTailSignalModel(k=2.0)
        us = np.array([1e-8, 1e-4, 0.1, 0.4, 0.6, 0.9, 0.999, 1 - 1e-9, 1 - 1e-13])
        xs = pt._ppf_minus(us)
        back = pt.llr_cdf(MINUS, xs)
        assert np.max(np.abs(back - us)) < 1e-10

    @pytest.mark.parametrize("k", [0.5, 2.0, 4.0])
    def test_largest_uniform_stays_inside_the_spline(self, k):
        # 1 - u >= 2**-53 for every u in [0, 1), so log(1 - u) >= -36.74, far
        # above the spline's lower end log(c*T(60)): no draw needs x > 60.
        pt = PolyTailSignalModel(k=k)
        x = pt._ppf_minus(np.array([1.0 - 2.0**-53]))[0]
        assert math.isfinite(x) and 1.0 <= x <= 60.0
        assert pt._pos_branch_ppf.x[0] < math.log(2.0**-53)
        assert pt.llr_from_uniform(MINUS, np.array([1.0 - 2.0**-53]))[0] == x

    def test_invalid_k(self):
        with pytest.raises(ModelValidationError):
            PolyTailSignalModel(k=0.0)

    def test_a_cold_polytail_run_loads_neither_interpolate_nor_optimize(self):
        # The splines solve their own systems: a fresh process that builds the
        # model, evaluates its tails, runs an exact path and a Monte Carlo run
        # never imports scipy.interpolate or scipy.optimize, which cost about
        # 0.15 s at import, nor scipy.linalg (about 35 ms and 6 MiB).  It runs
        # silent under -W error, and a second model of the same k builds no
        # second table of log T.
        code = (
            "import sys, numpy as np, herdsim\n"
            "from herdsim import PolyTailSignalModel, StateOfWorld, ell_star_path, run_trials\n"
            "from herdsim import signal_models\n"
            "tail, tables = signal_models._log_exp_poly_upper_tail, []\n"
            "def counted(x, k):\n"
            "    tables.append(np.size(x))\n"
            "    return tail(x, k)\n"
            "signal_models._log_exp_poly_upper_tail = counted\n"
            "for m in (PolyTailSignalModel(2.0), PolyTailSignalModel(2.0)):\n"
            "    grid = np.linspace(-80.0, 80.0, 641)\n"
            "    for state in StateOfWorld:\n"
            "        m.llr_log_cdf(state, grid), m.llr_log_sf(state, grid)\n"
            "    ell_star_path(m, 1000)\n"
            "    run_trials(m, StateOfWorld.PLUS, 300, 64, 1)\n"
            "print(sorted(n for n in ('scipy.interpolate', 'scipy.linalg', 'scipy.optimize') if n in sys.modules))\n"
            "print(sum(n > 1 for n in tables))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.split() == ["[]", "1"]


class TestTridiagonalSolve:
    """The splines' solve is LAPACK's dgtsv, the routine of scipy's solve_banded((1, 1), ...), bit for bit."""

    @staticmethod
    def _both(dl, d, du, b):
        from scipy.linalg import solve_banded

        ab = np.zeros((3, len(d)))
        ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
        want = solve_banded((1, 1), ab, b, check_finite=False)
        got = np.array(signal_models._solve_tridiagonal(list(dl), list(d), list(du), list(b)))
        return got, want

    @pytest.mark.parametrize("n", [2, 3, 4, 1000])
    def test_random_systems_equal_solve_banded(self, n):
        rng = np.random.default_rng(n)
        for scale in (0.1, 1.0, 10.0):  # a small diagonal swaps most rows, a large one none
            dl, du, b = rng.normal(size=n - 1), rng.normal(size=n - 1), rng.normal(size=n)
            d = scale * rng.normal(size=n)
            got, want = self._both(dl, d, du, b)
            assert got.tobytes() == want.tobytes()

    def test_forced_interchanges_equal_solve_banded(self):
        # |dl[i]| > |d[i]| in every row, in every other row, and only in the last one
        rng = np.random.default_rng(5)
        n = 9
        dl, du, b = rng.uniform(1.0, 2.0, n - 1), rng.normal(size=n - 1), rng.normal(size=n)
        for d in (rng.uniform(-0.5, 0.5, n), np.where(np.arange(n) % 2, 0.1, 5.0), np.r_[[5.0] * (n - 2), 0.1, 3.0]):
            got, want = self._both(dl, d, du, b)
            assert got.tobytes() == want.tobytes()

    def test_the_quantile_splines_system_equals_solve_banded(self):
        # the knots log(c T(x)) are uneven; the system as _CubicSpline builds it
        model = PolyTailSignalModel(k=2.0)
        x_nodes, log_t = model._tail_nodes
        x = (np.log(model.c) + log_t)[::-1]
        dx = np.diff(x)
        rng = np.random.default_rng(7)
        d = np.r_[dx[1], 2 * (dx[:-1] + dx[1:]), dx[-2]]
        got, want = self._both(np.r_[dx[1:], x[-1] - x[-3]], d, np.r_[x[2] - x[0], dx[:-1]],
                               rng.normal(size=len(x)))
        assert got.tobytes() == want.tobytes()

    def test_a_zero_pivot_is_named(self):
        with pytest.raises(signal_models.SingularSystemError, match="zero pivot in row 1"):
            signal_models._solve_tridiagonal([0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(signal_models.SingularSystemError, match="zero pivot in row 2"):
            signal_models._solve_tridiagonal([0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0], [1.0, 1.0, 1.0])
        with pytest.raises(signal_models.SingularSystemError), np.errstate(divide="ignore"):  # repeated knots
            signal_models._CubicSpline(np.array([0.0, 1.0, 1.0, 2.0, 3.0]), np.arange(5.0))


class TestPolyTailFarTail:
    """log T past 60 takes the series only where its terms fall below 1e-17 before they turn."""

    def test_k2_takes_the_series_at_every_point_past_60(self):
        model = PolyTailSignalModel(k=2.0)
        x = np.concatenate([[np.nextafter(60.0, np.inf), 61.0, 70.0, 1e3, 1e300, np.inf, np.nan],
                            np.random.default_rng(3).uniform(60.0, 200.0, 500)])
        assert model._tables.series_floor == 60.0
        assert model._log_T(x).tobytes() == signal_models._log_exp_poly_tail_asymptotic(x, 2.0).tobytes()

    @pytest.mark.parametrize("k, served", [(0.5, True), (5.0, True), (5.01, False), (20.0, False), (50.0, False)])
    def test_the_series_serves_every_point_past_60_up_to_k_5(self, k, served):
        floor = _poly_tail_tables(k).series_floor
        assert (floor == 60.0) is served
        # the least float past the floor is served, and the floor itself is not (unless it is 60)
        assert signal_models._series_serves(float(np.nextafter(floor, np.inf)), k)
        assert served or not signal_models._series_serves(floor, k)
        x = np.random.default_rng(8).uniform(60.0, 2.0 * floor, 300).tolist()  # one threshold decides
        assert [signal_models._series_serves(v, k) for v in x] == [v > floor for v in x]

    @pytest.mark.parametrize("k", [20.0, 50.0])
    def test_large_k_takes_the_continued_fraction_where_the_series_fails(self, k):
        model = PolyTailSignalModel(k=k)
        x = np.array([61.0, 70.0, 100.0, 200.0, 1e4, np.nan])
        series = np.array([signal_models._series_serves(v, k) for v in x])
        assert np.array_equal(series[:-1], x[:-1] > _poly_tail_tables(k).series_floor)
        exact = signal_models._log_exp_poly_upper_tail(x[:-1], k)
        got = model._log_T(x)
        assert np.isnan(got[-1])
        assert got[:-1][~series[:-1]].tobytes() == exact[~series[:-1]].tobytes()
        assert np.all(np.abs(got[:-1] - exact) <= 1e-12 * np.abs(exact))
        assert not series[0] and series[-2]  # 61 is too near k + 39; 1e4 is far past it

    @pytest.mark.parametrize("k", [7.3, 50.0])
    def test_c_leaves_a_step_the_series_cannot_serve_to_python(self, k, native_loop, python_loop, monkeypatch):
        model = PolyTailSignalModel(k=k)
        assert _native.path_loop(native_loop, model) is not None
        for prior in (-70.0, -61.0):
            path = ell_star_path(model, 500, prior).values
            assert path.tobytes() == python_loop(ell_star_path, model, 500, prior).values.tobytes()
            assert np.all(np.isfinite(path))
        for theta in (MINUS, PLUS):
            agg = run_trials(model, theta, 300, 64, 3)
            assert repr(vars(agg)) == repr(vars(python_loop(run_trials, model, theta, 300, 64, 3)))
        # from -61 the first steps need log T at 61, which the series does not serve: C calls Python
        calls, kernel = [], belief._signed_increment
        monkeypatch.setattr(belief, "_signed_increment", lambda *args: calls.append(1) or kernel(*args))
        ell_star_path(model, 3, -61.0)
        assert calls


def _table_arrays(model):
    """The arrays of ``model``'s shared tables: the nodes of log T and both splines' knots and coefficients."""
    return [*model._tail_nodes, model._log_tail_spline.x, model._log_tail_spline.c,
            model._pos_branch_ppf.x, model._pos_branch_ppf.c]


def _outputs(model):
    """Bytes of a model's exact path and law, tails, draws and a Monte Carlo run with its actions."""
    grid = np.linspace(-80.0, 80.0, 641)
    law = first_mistake_distribution(model, 3000)
    agg, actions = run_trials(model, PLUS, 400, 64, 5, collect_actions=True)
    arrays = [ell_star_path(model, 3000).values, law.pmf, law.survivor, actions,
              *(f(state, grid) for f in (model.llr_log_cdf, model.llr_log_sf) for state in (MINUS, PLUS)),
              *(model.sample_llr(state, np.random.default_rng(3), 5000) for state in (MINUS, PLUS))]
    return [a.tobytes() for a in arrays] + [repr(vars(agg))]


class TestSharedPolyTailTables:
    # The tables of a PolyTail model are pure functions of k: the models of
    # one k share them, read-only, and each k has its own.
    def test_a_second_model_of_a_k_builds_and_checks_nothing(self, native_loop, monkeypatch):
        first = PolyTailSignalModel(3.5)
        run_trials(first, PLUS, 200, 32, 1)  # builds both splines and runs both checks
        first.sample_llr(MINUS, np.random.default_rng(0), 100)
        splines, transforms = set(_native._checked_splines), set(_native._checked_transforms)
        assert {first._log_tail_spline, first._pos_branch_ppf} <= splines
        calls = []
        tail = signal_models._log_exp_poly_upper_tail
        monkeypatch.setattr(signal_models, "_log_exp_poly_upper_tail",
                            lambda *args: calls.append(args) or tail(*args))
        second = PolyTailSignalModel(3.5)
        run_trials(second, PLUS, 200, 32, 1)
        second.sample_llr(MINUS, np.random.default_rng(0), 100)
        second.llr_log_sf(PLUS, np.linspace(-80.0, 80.0, 33))
        assert calls == []
        assert second.c == first.c
        assert second._tail_nodes is first._tail_nodes
        assert second._log_tail_spline is first._log_tail_spline
        assert second._pos_branch_ppf is first._pos_branch_ppf
        assert set(_native._checked_splines) <= splines
        assert set(_native._checked_transforms) <= transforms

    def test_the_shared_arrays_are_read_only(self):
        model = PolyTailSignalModel(2.0)
        for array in _table_arrays(model):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0.0

    def test_models_of_different_k_share_nothing(self):
        a, b = PolyTailSignalModel(2.0), PolyTailSignalModel(3.0)
        assert a._tables is not b._tables and a.c != b.c
        for x in _table_arrays(a):
            assert not any(np.shares_memory(x, y) for y in _table_arrays(b))
        # the key is typed: an int k has tables of its own
        assert PolyTailSignalModel(2)._tables is not a._tables

    def test_a_shared_model_gives_the_bytes_of_one_built_alone(self):
        first = PolyTailSignalModel(2.0)
        shared = PolyTailSignalModel(2.0)
        assert shared._tables is first._tables
        want = _outputs(shared)
        _poly_tail_tables.cache_clear()
        alone = PolyTailSignalModel(2.0)
        assert alone._tables is not shared._tables
        assert alone._log_tail_spline is not shared._log_tail_spline
        assert _outputs(alone) == want
        # an eviction leaves the tables of the models built before it
        assert shared._tables is first._tables


@pytest.mark.parametrize("name", ["llr_cdf", "llr_log_cdf", "llr_log_sf", "llr_pdf"])
@pytest.mark.parametrize("state", [MINUS, PLUS], ids=str)
@pytest.mark.parametrize("model", [GaussianSignalModel(sigma=1.0), PolyTailSignalModel(k=2.0),
                                   build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=500)],
                         ids=lambda m: m.family)
def test_a_nan_point_gives_nan(model, state, name):
    # PolyTail's NaN fell into the gap and rate-target's sorted past the
    # support, each giving a finite value; the point beside it keeps its bits
    fn = getattr(model, name)
    got = fn(state, np.array([math.nan, 0.5]))
    if model.is_discrete and name == "llr_pdf":
        assert got is None
        return
    assert math.isnan(got[0]) and math.isnan(fn(state, math.nan))
    assert got[1:].tobytes() == np.asarray(fn(state, np.array([0.5]))).tobytes()
    assert got[1] == fn(state, 0.5)


@pytest.mark.parametrize("sign", [1, -1])
def test_a_rate_target_action_at_a_nan_belief_is_refused(sign):
    model = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=500)
    with pytest.raises(ValueError, match="^x must not be NaN$") as refused:
        model.log_action_probabilities(np.array([0.0, math.nan]), sign)
    assert "support" not in str(refused.value)


class TestRateTargetModel:
    def setup_method(self):
        self.model = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=2000)

    def test_llr_is_exactly_the_support_point(self):
        m = self.model
        p_m = m._p_minus
        p_p = p_m[::-1]  # P(L = n | +) = P(L = -n | -)
        # exclude subnormal masses, where the stored ratio has lost bits
        pos = (p_m > 1e-300) & (p_p > 1e-300)
        llr = np.log(p_p[pos]) - np.log(p_m[pos])
        assert np.max(np.abs(llr - m.support[pos])) < 1e-9

    def test_mass_at_zero(self):
        # nu(0) = Q(-1) - Q(0) = 1 - 1/2, normalized by C
        m = self.model
        i = np.nonzero(m.support == 0)[0][0]
        assert_allclose(m._p_minus[i], 0.5 / m.normalizer, rtol=1e-14)

    def test_antisymmetry_of_increments(self):
        # D+(x) = -D-(-x) exactly: both read the same entries of the one
        # stored law, the far-side logs included (past |x| ~ 734 for 1/log)
        log_q = build_rate_target(lambda n: 1.0 / math.log(n + 2.0 + math.e), max_support=2000)
        cut30 = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=30)
        for m in (self.model, cut30, log_q):
            cut = len(m.support) // 2
            grid = np.arange(-cut, cut) + 0.5  # every cell inside the support
            d_p = m.llr_log_sf(PLUS, -grid) - m.llr_log_sf(MINUS, -grid)
            d_m = m.llr_log_cdf(PLUS, grid) - m.llr_log_cdf(MINUS, grid)
            assert np.all(np.isfinite(d_p)) and np.array_equal(d_p, -d_m)

    def test_the_law_is_stored_once(self):
        # P(L = n | +) = P(L = -n | -): the model keeps the minus masses and
        # two cumulative sums, and each state's survival is the other's CDF
        # reversed, equal to a survival summed on its own.
        q = np.array([1.0 / math.log(n + 2.0 + math.e) for n in range(-1, 2001)])
        m = build_rate_target(q)
        cut = len(m.support) // 2
        x = np.arange(-cut, cut + 1) + 0.5  # the far side too, past |x| ~ 734
        d = [d_plus(m, x), d_minus(m, -x)]
        for state in (MINUS, PLUS):
            m.sample_llr(state, np.random.default_rng(1), 1000)
        arrays = {k: v for k, v in vars(m).items() if isinstance(v, np.ndarray)}
        full = sorted(k for k, v in arrays.items() if v.size == m.support.size)
        assert full == ["_cdf_minus", "_cdf_plus", "support", "w_minus"]
        # the rest, q_table and the far-side logs, hold about half as many entries
        assert all(v.size <= cut + 2 for k, v in arrays.items() if k not in full)

        dq = -np.diff(q)
        nu = dq * np.exp(-np.arange(cut + 1.0))
        p_minus = np.concatenate((dq[:0:-1], nu)) / m.normalizer
        p_plus = np.concatenate((nu[:0:-1], dq)) / m.normalizer  # nu(n) e^n, normalized
        assert np.array_equal(m.w_minus / m.normalizer, p_minus)
        assert np.array_equal(m._cdf_plus, np.minimum(np.cumsum(p_plus), 1.0))
        for sf, p in ((m._cdf_plus[::-1], p_minus), (m._cdf_minus[::-1], p_plus)):
            assert np.array_equal(sf, np.minimum(np.cumsum(p[::-1])[::-1], 1.0))

        doc = m.to_dict()
        q[:] = 0.5  # the model keeps a copy of the caller's table
        assert m.to_dict() == doc and doc["q_table"][2] == 1.0 / math.log(1.0 + 2.0 + math.e)
        clone = pickle.loads(pickle.dumps(m))
        assert [a.tobytes() for a in (d_plus(clone, x), d_minus(clone, -x))] == [
            a.tobytes() for a in d
        ]

    def test_far_tails_stay_finite_past_underflow(self):
        # Past |x| ~ 734 the plain sums of dq(n) e^-n underflow to 0 while
        # the probability is positive up to the cut; the log tails must be
        # the log of those sums, and stay -inf only past the cut.
        q = [1.0 / math.log(n + 2.0 + math.e) for n in range(-1, 2001)]
        m = build_rate_target(q)
        log_dq = np.log(-np.diff(q))
        n = np.arange(len(log_dq))

        def log_tail(n_min):  # log sum over n >= n_min of dq(n) e^-n, normalized
            k = n >= n_min
            return np.logaddexp.reduce(log_dq[k] - n[k]) - math.log(m.normalizer)

        for x in (700.5, 744.5, 1500.5, 1999.5):
            sf_minus = float(m.llr_log_sf(MINUS, x))  # L >= floor(x) + 1
            cdf_plus = float(m.llr_log_cdf(PLUS, -x))  # -L >= ceil(x)
            assert sf_minus == pytest.approx(log_tail(math.floor(x) + 1), rel=1e-13)
            assert cdf_plus == pytest.approx(log_tail(math.ceil(x)), rel=1e-13)
        xs = np.array([700.5, 744.5, 2000.0, 2000.5])
        assert np.array_equal(m.llr_log_sf(MINUS, xs)[:2], [m.llr_log_sf(MINUS, x) for x in xs[:2]])
        assert m.llr_log_sf(MINUS, xs)[2:].tolist() == [-np.inf, -np.inf]
        assert float(m.llr_log_cdf(PLUS, -2000.5)) == -np.inf

    def test_probabilities_stay_at_most_one_at_the_top(self):
        # Summed over a long support the CDFs round above 1 (unclamped, at
        # 4,971 entries of this model under theta = -1 and its top entry
        # under +1), which gave positive log-probabilities and a
        # first-mistake pmf[0] of 1 + 2.4e-15 from a prior that holds.
        m = build_rate_target(lambda n: 1.0 / math.log(n + 2.0 + math.e), max_support=5000)
        cut = float(m.support[-1])
        top = np.arange(cut - 100.0, cut + 2.0)
        for state in (MINUS, PLUS):
            assert np.all(m.llr_cdf(state, top) <= 1.0)
            assert np.all(m.llr_log_cdf(state, top) <= 0.0)
            assert np.all(m.llr_log_sf(state, -top) <= 0.0)
        assert first_mistake_distribution(m, 5, -cut).pmf[0] <= 1.0

    def test_sampling_matches_pmf(self):
        m = self.model
        rng = np.random.default_rng(11)
        draws = m.sample_llr(MINUS, rng, size=100000)
        # chi-square over the well-populated inner support
        inner = np.abs(m.support) <= 3
        expected = m._p_minus[inner] * 100000
        observed = np.array([np.sum(draws == s) for s in m.support[inner]])
        chi2 = np.sum((observed - expected) ** 2 / expected)
        # 7 cells; significance 1e-3
        assert chi2 < stats.chi2.ppf(1 - 1e-3, df=len(expected) - 1)

    def test_validation_errors(self):
        with pytest.raises(ModelValidationError):
            build_rate_target([1.0, 1.0, 0.5])  # not strictly decreasing
        with pytest.raises(ModelValidationError):
            build_rate_target([1.0, -0.5])  # not positive

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_are_refused_by_name(self, bad):
        # a NaN passes the positivity and monotonicity checks, and the model
        # would have a NaN normalizer and NaN increments
        for table in ([1.0, bad, 0.25, 0.1], [bad, 0.5, 0.25]):
            with pytest.raises(ModelValidationError, match=r"^q_table entries must be finite"):
                build_rate_target(table)

    @pytest.mark.parametrize("bad", [-1, 2.5, math.nan, "10", True, None])
    def test_max_support_is_refused_by_name(self, bad):
        # a bool is an int, and the others would fail later, inside numpy
        # or range(), without naming the argument
        for q in ([1.0, 0.5, 0.25], lambda n: 1.0 / (n + 2.0)):
            with pytest.raises(ModelValidationError, match=r"^max_support must be an integer >= 0"):
                build_rate_target(q, max_support=bad)

    def test_max_support_zero_builds(self):
        m = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=np.int64(0))
        assert m.support.tolist() == [0.0] and m.q_table.tolist() == [1.0, 0.5]

    def test_equality_is_identity(self):
        # the fields hold arrays, so field-wise == and hash cannot work
        other = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=2000)
        assert self.model == self.model and self.model != other
        assert len({self.model, other, self.model}) == 2

    def test_callable_q_matches_table(self):
        q = [1.0 / (n + 2.0) for n in range(-1, 101)]
        a = build_rate_target(q)
        b = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=100)
        assert a.support.tolist() == b.support.tolist()
        assert_allclose(a.w_minus, b.w_minus, rtol=0)


class TestCrossModelProperties:
    @pytest.mark.parametrize("model", all_models(), ids=lambda m: repr(m)[:30])
    def test_dominance(self, model):
        # G_+(x) <= G_-(x): plus-conditional LLR stochastically larger
        xs = np.linspace(-30, 30, 601)
        cdf_p = np.asarray(model.llr_cdf(PLUS, xs))
        cdf_m = np.asarray(model.llr_cdf(MINUS, xs))
        assert np.all(cdf_p <= cdf_m + 1e-15)

    @pytest.mark.parametrize("model", all_models(), ids=lambda m: repr(m)[:30])
    def test_llr_identity(self, model):
        grid = np.array([-5.0, -2.0, -1.0, -0.3, 0.0, 0.4, 1.0, 2.5, 8.0])
        err = check_llr_identity(model, grid)
        tol = 1e-12 if model.is_discrete else 1e-8
        assert err <= tol

    @pytest.mark.parametrize("model", all_models(), ids=lambda m: repr(m)[:30])
    def test_sampling_law_goodness_of_fit(self, model):
        rng = np.random.default_rng(2718)
        for state in (MINUS, PLUS):
            draws = model.sample_llr(state, rng, size=100000)
            if model.is_discrete:
                continue  # covered by the rate-target chi-square test
            res = stats.kstest(draws, lambda x: np.asarray(model.llr_cdf(state, x)))
            assert res.pvalue > 1e-3

    @pytest.mark.parametrize("model", all_models(), ids=lambda m: repr(m)[:30])
    def test_chunked_sampling_consumes_stream_identically(self, model):
        one = model.sample_llr(MINUS, np.random.default_rng(5), size=64)
        rng = np.random.default_rng(5)
        parts = np.concatenate(
            [model.sample_llr(MINUS, rng, size=16) for _ in range(4)]
        )
        assert_allclose(one, parts, rtol=0)


class TestLlrMean:
    # E+[L], the per-step mean of the observed-signals baseline, and E-[L] = -E+[L]
    @pytest.mark.parametrize("sigma, mean", [(2.0, 0.5), (1.0, 2.0), (0.7, 2.0 / (0.7 * 0.7))])
    def test_gaussian_is_two_over_sigma_squared(self, sigma, mean):
        model = GaussianSignalModel(sigma=sigma)
        assert model.llr_mean(PLUS) == mean and model.llr_mean(MINUS) == -mean

    @pytest.mark.parametrize("k", [1.5, 2.0, 3.0])
    def test_polytail_equals_quadrature(self, k):
        model = PolyTailSignalModel(k=k)
        pieces = [
            integrate.quad(lambda x: x * model.llr_pdf(PLUS, x), a, b, limit=500, epsabs=0, epsrel=1e-13)[0]
            for a, b in ((-np.inf, -1.0), (1.0, np.inf))
        ]
        assert_allclose(model.llr_mean(PLUS), sum(pieces), rtol=1e-12)

    @pytest.mark.parametrize("k", [0.5, 0.8, 1.0])
    def test_polytail_is_infinite_for_k_at_most_one(self, k):
        # the tail x^{-k-1} on x >= 1 has no mean
        model = PolyTailSignalModel(k=k)
        assert model.llr_mean(PLUS) == math.inf and model.llr_mean(MINUS) == -math.inf

    def test_rate_target_equals_the_direct_sum(self):
        model = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=5000)
        p_plus = model._p_minus[::-1]  # P(L = n | +) = P(L = -n | -) on the symmetric support
        direct = math.fsum(float(n) * float(p) for n, p in zip(model.support, p_plus))
        assert_allclose(model.llr_mean(PLUS), direct, rtol=1e-12)
        assert model.llr_mean(PLUS) == pytest.approx(6.5074256704, abs=1e-10)

    @pytest.mark.parametrize("model", [*all_models(), PolyTailSignalModel(k=3.0)],
                             ids=lambda m: repr(m)[:30])
    def test_the_minus_mean_mirrors_the_plus_mean(self, model):
        assert model.llr_mean(MINUS) == -model.llr_mean(PLUS)


class TestSerialization:
    @pytest.mark.parametrize("model", all_models(), ids=lambda m: repr(m)[:30])
    def test_json_round_trip(self, model):
        clone = model_from_json(model_to_json(model))
        xs = np.array([-3.0, 0.0, 1.7, 12.0])
        assert_allclose(
            np.asarray(clone.llr_cdf(MINUS, xs)),
            np.asarray(model.llr_cdf(MINUS, xs)),
            rtol=0,
        )

    @pytest.mark.parametrize(
        "model",
        [GaussianSignalModel(sigma=1.0), PolyTailSignalModel(k=2.0),
         build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=2000)],
        ids=lambda m: m.family,
    )
    def test_pickle_round_trip_is_bit_exact(self, model):
        xs = np.array([-50.0, -3.0, -0.5, 0.0, 0.7, 1.7, 12.0, 45.0, 80.0])
        u = np.random.default_rng(3).random(64)

        def outputs(m):
            out = [d_plus(m, xs), log_d_plus(m, xs)]
            if isinstance(m, InverseCdfSignalModel):
                out += [m.llr_from_uniform(state, u) for state in (MINUS, PLUS)]
            else:
                out += [m.sample_llr(state, np.random.default_rng(5), 64) for state in (MINUS, PLUS)]
            return [np.asarray(a).tobytes() for a in out]

        expected = outputs(model)  # builds every cached table first
        blob = pickle.dumps(model)
        assert outputs(pickle.loads(blob)) == expected
        if isinstance(model, PolyTailSignalModel):
            assert len(blob) < 1024  # the node table and splines are not pickled

    def test_unknown_family(self):
        with pytest.raises(ModelValidationError):
            model_from_dict({"family": "cauchy"})
