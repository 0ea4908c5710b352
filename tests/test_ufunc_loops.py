"""The float64 loops of numpy's and scipy's ufuncs that the C kernels call directly (``herdsim._native``)."""

import ctypes
import dataclasses
import math
import warnings

import numpy as np
import pytest

from herdsim import _native, asymptotics, belief, montecarlo
from herdsim.signal_models import (
    GaussianSignalModel,
    PolyTailSignalModel,
    StateOfWorld,
    build_rate_target,
)

PT2 = PolyTailSignalModel(k=2.0)
RT = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=500)
LENGTHS = [*range(1, 71), 255, 256, 257]


def _apply(lib, entry, x, arg):
    """``ufunc_apply`` of C's table ``entry`` on the float64 array x in place, ``arg`` a float or None."""
    ref = None if arg is None else np.array([arg])
    lib.ufunc_apply(ctypes.byref(entry), x.ctypes.data, len(x), None if ref is None else ref.ctypes.data)
    return x


def _fallback(lib):
    """What a failed check leaves: the table with no loop, so that C calls each ufunc itself."""
    table = _native.ufunc_loops(lib)
    for entry in table:
        entry.loop = entry.data = None
    return table


def _counted_fallback(calls):
    """``_fallback`` whose ufuncs append their names to ``calls`` when C calls them."""

    def loops(lib):
        table = _fallback(lib)
        for entry in table:
            ufunc = entry.ufunc
            entry.ufunc = lambda *args, _f=ufunc: calls.append(_f.__name__) or _f(*args)
        return table

    return loops


class TestDirectLoops:
    def test_every_ufunc_has_a_checked_float64_loop(self, native_loop):
        table = _native.checked_loops(native_loop)
        assert [entry.ufunc for entry in table] == list(_native._UFUNCS)
        assert all(entry.loop for entry in table)

    @pytest.mark.parametrize("index", range(len(_native._UFUNCS)),
                             ids=[f.__name__ for f in _native._UFUNCS])
    def test_each_loop_equals_its_ufunc_on_the_checks_inputs(self, index, native_loop):
        entry = _native.checked_loops(native_loop)[index]
        inputs, exponents = _native._loop_inputs()
        values = inputs[index]
        for arg in (exponents if entry.ufunc.nin == 2 else [None]):
            for n in LENGTHS:
                for offset in (0, 1, 3):
                    x = values[(n * 7 + np.arange(n)) % len(values)]  # the check's window
                    direct, called = np.zeros(n + offset), np.zeros(n + offset)
                    direct[offset:], called[offset:] = x, x
                    with np.errstate(all="ignore"):
                        _apply(native_loop, entry, direct[offset:], arg)
                        args = (called[offset:],) if arg is None else (called[offset:], arg)
                        entry.ufunc(*args, out=called[offset:])
                    assert direct.tobytes() == called.tobytes(), (entry.ufunc.__name__, arg, n, offset)

    def test_a_loop_that_differs_fails_its_check(self, native_loop):
        table = _native.ufunc_loops(native_loop)
        log, exp = table[1], table[2]
        log.loop, log.data = exp.loop, exp.data  # log's entry runs exp's loop
        inputs, _ = _native._loop_inputs()
        with np.errstate(all="ignore"):
            assert native_loop.loop_checked(ctypes.byref(log), inputs[1].ctypes.data, len(inputs[1]),
                                            None, 0) == 0
            assert native_loop.loop_checked(ctypes.byref(exp), inputs[2].ctypes.data, len(inputs[2]),
                                            None, 0) == 1
        assert not log.loop and exp.loop

    def test_without_a_loop_the_ufunc_is_called(self, native_loop):
        x = np.array([0.25, 3.0, 1e-30])
        for entry, direct in zip(_fallback(native_loop), _native.checked_loops(native_loop)):
            arg = -2.0 if entry.ufunc.nin == 2 else None
            got = _apply(native_loop, entry, x.copy(), arg)
            assert not entry.loop and got.tobytes() == _apply(native_loop, direct, x.copy(), arg).tobytes()


class TestFloatingPointErrors:
    """A loop's floating-point errors are reported as a call of its ufunc reports them."""

    @pytest.mark.parametrize("direct", [True, False], ids=["loop", "ufunc"])
    def test_log_of_zero_warns_and_raises_under_errstate(self, direct, native_loop, monkeypatch):
        if not direct:
            monkeypatch.setattr(_native, "checked_loops", _fallback)
        transform = _native.polytail_transform(native_loop, PT2, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = transform(np.array([1.0]))  # 1 - u = 0: the quantile spline at log 0
        assert [str(w.message) for w in caught] == ["divide by zero encountered in log"]
        assert caught[0].category is RuntimeWarning and np.isfinite(x).all()
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError, match="divide by zero .* log"):
            transform(np.array([1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transform(np.array([0.5]))  # no error, no warning

    def test_an_error_of_one_loop_is_not_reported_by_the_next(self, native_loop):
        table = _native.checked_loops(native_loop)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _apply(native_loop, table[1], np.zeros(3), None)  # log: divide by zero
            _apply(native_loop, table[2], np.ones(3), None)  # exp: none
        assert [str(w.message) for w in caught] == ["divide by zero encountered in log"]


class TestFailedChecks:
    """A failed check leaves C calling the ufuncs themselves, with the same bytes."""

    @staticmethod
    def _outputs():
        paths = [belief.ell_star_path(model, 3000, prior).values
                 for model in (PT2, PolyTailSignalModel(20.0)) for prior in (0.0, -70.0, 39.5, 41.0)]
        u = np.concatenate([[0.0, 2.0**-53, 0.5], np.linspace(0.0, 1.0, 257)[1:-1]])
        draws = [_native.polytail_transform(_native.library(), PT2, sign)(u.copy()) for sign in (-1.0, 1.0)]
        runs = [montecarlo.run_trials(model, theta, 400, 64, 5, collect_actions=True)
                for model in (GaussianSignalModel(1.0), PT2)
                for theta in (StateOfWorld.PLUS, StateOfWorld.MINUS)]
        aggregates = [[v.tobytes() if isinstance(v, np.ndarray) else repr(v)
                       for v in (getattr(agg, f.name) for f in dataclasses.fields(agg))] for agg, _ in runs]
        return [a.tobytes() for a in paths + draws + [actions for _, actions in runs]] + aggregates

    def test_failed_loop_checks_give_the_same_bytes(self, native_loop, monkeypatch):
        direct, calls = self._outputs(), []
        monkeypatch.setattr(_native, "checked_loops", _counted_fallback(calls))
        assert self._outputs() == direct
        assert set(calls) == {f.__name__ for f in _native._UFUNCS}

    def test_a_failed_far_step_check_leaves_no_path_loop_and_gives_the_same_bytes(self, native_loop,
                                                                                  monkeypatch):
        assert _native.checked_far_steps(native_loop, PT2)
        assert _native.path_loop(native_loop, PT2) is not None
        fused = [belief.ell_star_path(PT2, 30000, prior).values for prior in (0.0, 41.0)]
        monkeypatch.setattr(_native, "checked_far_steps", lambda lib, model: False)
        assert _native.path_loop(native_loop, PT2) is None  # C calls the scalar increment at every step
        for path, prior in zip(fused, (0.0, 41.0)):
            assert path.tobytes() == belief.ell_star_path(PT2, 30000, prior).values.tobytes()
        assert fused[0][-1] > 40.0  # the first crosses 40


class TestPathLoops:
    @pytest.mark.parametrize("k", [0.5, 2.0, 20.0])
    def test_far_steps_equal_the_python_form(self, k, native_loop):
        assert _native.checked_far_steps(native_loop, PolyTailSignalModel(k))

    def test_a_tail_branch_below_40_is_stepped_in_c(self, native_loop, monkeypatch):
        model = PolyTailSignalModel(20.0)
        b_minus, _ = model.log_action_probabilities(np.array([5.0]), +1)
        assert b_minus[0] > -1e-8  # from 5 up to 40 every step is in the tail branch
        calls, kernel = [], belief._signed_increment
        monkeypatch.setattr(belief, "_signed_increment", lambda *args: calls.append(1) or kernel(*args))
        belief.ell_star_path(model, 3000, 5.0)
        assert calls == []

    def test_only_a_subclass_polytail_path_has_no_path_loop(self, native_loop):
        class SubPolyTail(PolyTailSignalModel):
            pass

        assert _native.path_loop(native_loop, PT2) is not None
        assert _native.path_loop(native_loop, SubPolyTail(2.0)) is None
        for prior in (0.1, -70.0):
            exact = belief.ell_star_path(PT2, 1000, prior).values
            assert exact.tobytes() == belief.ell_star_path(SubPolyTail(2.0), 1000, prior).values.tobytes()

    def test_a_non_finite_rate_target_belief_is_stepped_by_the_python_increment(self, native_loop,
                                                                                python_loop):
        # no path reaches one (its prior and steps are finite), but the loop raises as the Python loop
        incr = belief._scalar_increment(RT)
        for a in (math.nan, math.inf):
            errors = []
            for run in (lambda f, *args: f(*args), python_loop):
                with pytest.raises((ValueError, OverflowError)) as raised:
                    run(asymptotics._compensated_steps, incr, np.zeros(4), 1, 4, a, 0.0, RT)
                errors.append((raised.type, str(raised.value)))
            assert errors[0] == errors[1]
