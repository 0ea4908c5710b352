"""Property tests of the input edges: identity equality, priors, config types, stalls."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from herdsim.asymptotics import iterate_recurrence
from herdsim.belief import ell_star_path, first_mistake_distribution
from herdsim.experiments import ConfigError, parse_config
from herdsim.signal_models import (
    GaussianSignalModel,
    NumericalFailure,
    PolyTailSignalModel,
    build_rate_target,
)

G1 = GaussianSignalModel(sigma=1.0)
PT2 = PolyTailSignalModel(k=2.0)
RT = build_rate_target(lambda n: 1.0 / (n + 2.0), max_support=200)

# Strictly decreasing positive tables Q(-1), Q(0), ..., Q(N).
q_tables = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False), min_size=2, max_size=12, unique=True
).map(lambda v: sorted(v, reverse=True))


@settings(max_examples=30, deadline=None)
@given(q=q_tables)
def test_rate_target_equality_is_identity(q):
    a, b = build_rate_target(q), build_rate_target(q)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


@settings(max_examples=30, deadline=None)
@given(
    model=st.sampled_from([G1, PT2, RT]),
    prior=st.sampled_from([math.nan, math.inf, -math.inf]),
    horizon=st.integers(min_value=1, max_value=40),
)
def test_non_finite_prior_is_named(model, prior, horizon):
    with pytest.raises(ValueError, match="prior_llr"):
        ell_star_path(model, horizon, prior)
    with pytest.raises(ValueError, match="prior_llr"):
        first_mistake_distribution(model, horizon, prior)


@settings(max_examples=40, deadline=None)
@given(
    a0=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    steps=st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=20),
    horizon=st.integers(min_value=1, max_value=30),
)
# a zero step, then a step smaller than the carry, right after a step that
# leaves a carry of half an ulp: applying the carry would move the value down
@example(a0=1.7463821097862393, steps=[510.4912475341722], horizon=3)
@example(a0=1.7463821097862393, steps=[510.4912475341722, 8.037100231503564e-181], horizon=3)
def test_zero_step_holds_the_recurrence(a0, steps, horizon):
    # the increment falls to exactly 0 after len(steps) calls and stays there
    calls = []

    def step(a):
        calls.append(a)
        return steps[len(calls) - 1] if len(calls) <= len(steps) else 0.0

    values = iterate_recurrence(step, a0, horizon)
    held = values[min(len(steps), horizon - 1):]
    assert np.all(held == held[0])
    assert np.all(np.diff(values) >= 0.0)


@settings(max_examples=30, deadline=None)
@given(bad=st.sampled_from([-1e-300, -1.0, math.nan, math.inf, -math.inf]), at=st.integers(1, 9))
def test_negative_or_non_finite_step_raises(bad, at):
    calls = []

    def step(a):
        calls.append(a)
        return bad if len(calls) == at else 0.5

    with pytest.raises(NumericalFailure):
        iterate_recurrence(step, 0.0, 10)


# JSON values of every type; each key below rejects all but its own.
json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=5),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
BASE = {"experiment": "mistake-curve", "model": {"family": "gaussian", "sigma": 1.0}, "horizon": 100}
KEYS = {
    "horizon": lambda v: type(v) is int and v >= 1,
    "trials": lambda v: type(v) is int and v >= 1,
    "threads": lambda v: type(v) is int and v >= 1,
    "master_seed": lambda v: type(v) is int and v >= 0,
    "prior": lambda v: type(v) in (int, float) and 0.0 < v < 1.0,
    "output_dir": lambda v: type(v) is str,
    "dump_trajectories": lambda v: type(v) is bool,
}


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(KEYS)), value=json_values)
def test_config_type_holes_name_the_key(key, value):
    doc = dict(BASE, **{key: value})
    if KEYS[key](value):
        parse_config(json.dumps(doc))
        return
    with pytest.raises(ConfigError, match=f"^{key}:"):
        parse_config(json.dumps(doc))


MODELS = {
    "model.sigma": ("mistake-curve", {"family": "gaussian"}, "sigma"),
    "model.k": ("mistake-curve", {"family": "polytail"}, "k"),
    "model.cutoff_mass": (
        "rate-target", {"family": "ratetarget", "q_table": [1.0, 0.5, 0.25, 0.125]}, "cutoff_mass"
    ),
}
non_numbers = json_values.filter(lambda v: type(v) not in (int, float))


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(sorted(MODELS)), value=non_numbers)
def test_model_parameters_must_be_numbers(key, value):
    experiment, model, param = MODELS[key]
    doc = dict(BASE, experiment=experiment, model=dict(model, **{param: value}))
    with pytest.raises(ConfigError, match=f"^{key}:"):
        parse_config(json.dumps(doc))


@settings(max_examples=40, deadline=None)
@given(entry=non_numbers, where=st.integers(min_value=0, max_value=3))
def test_q_table_entries_must_be_numbers(entry, where):
    q = [1.0, 0.5, 0.25, 0.125]
    q.insert(where, entry)
    doc = dict(BASE, experiment="rate-target", model={"family": "ratetarget", "q_table": q})
    with pytest.raises(ConfigError, match="^model.q_table:"):
        parse_config(json.dumps(doc))
