"""Config-driven experiments tying the engine modules to CSV artifacts.

Each experiment name exercises one asymptotic claim: the Gaussian
sqrt(log t) rate, the exact first-mistake law, censored time-to-learn,
the geometric upset tail, rate-targeted growth, the mistake-probability
curve, the observed-signals baseline, and the recurrence-vs-ODE check.
Outputs are deterministic CSV files plus a manifest with checksums; a
run is a pure function of (config, master_seed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import asymptotics, belief, montecarlo
from .signal_models import (
    ModelValidationError,
    NumericalFailure,
    RateTargetSignalModel,
    StateOfWorld,
    model_from_dict,
)

__all__ = [
    "EXPERIMENT_NAMES",
    "ConfigError",
    "ExperimentConfig",
    "RunManifest",
    "parse_config",
    "run_experiment",
    "emit_outputs",
]


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending key."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One checked run; the fields are the config keys, in the order parse_config checks them."""

    experiment: str
    model: dict  # model document; "synthetic" family allowed for ode-check
    horizon: int
    trials: int = 1
    master_seed: int = 0
    prior: float = 0.5
    checkpoints: tuple[int, ...] | None = None
    output_dir: str = "."
    threads: int = 1
    dump_trajectories: bool = False

    @property
    def prior_llr(self) -> float:
        return math.log(self.prior / (1.0 - self.prior))

    def checkpoint_times(self) -> tuple[int, ...]:
        if self.checkpoints is not None:
            return self.checkpoints
        return montecarlo.default_checkpoints(self.horizon)

    def canonical_document(self) -> dict:
        return {
            "experiment": self.experiment,
            "model": self.model,
            "horizon": self.horizon,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "prior": self.prior,
            "checkpoints": list(self.checkpoints) if self.checkpoints else None,
        }


@dataclass
class RunManifest:
    config: dict
    config_hash: str
    master_seed: int
    started_at: str
    finished_at: str = ""
    files: dict = field(default_factory=dict)  # name -> sha256
    summary: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)  # what the bits may depend on: ``_environment()``

    def to_json(self) -> str:
        # The fields hold only JSON values, so no deep copy (dataclasses.asdict) is needed
        doc = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """Parse and validate a JSON experiment document, applying defaults.

    ``overrides`` (the CLI flags) replace keys of the document before
    validation; a value of None means "not given".  The keys, defaults and
    order come from ``ExperimentConfig``'s fields, and every invalid value
    raises a ConfigError that names its key.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    doc.update((key, value) for key, value in overrides.items() if value is not None)

    fields = dataclasses.fields(ExperimentConfig)
    unknown = [key for key in doc if key not in {f.name for f in fields}]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    values = {}
    for f in fields:
        value = doc.get(f.name, None if f.default is dataclasses.MISSING else f.default)
        _check(f.name, value, values)
        values[f.name] = value
    experiment, model = values["experiment"], values["model"]
    family = model["family"]
    for key, param in model.items():
        if key not in ("family", *_MODEL_KEYS[family]):
            raise ConfigError(f"model.{key}: not a parameter of a {family} model")
        if f"model.{key}" in _RULES:
            _check(f"model.{key}", param, values)

    if family == "synthetic":
        tail = model.get("tail")
        if tail not in ("exponential", "polynomial"):
            raise ConfigError("model.tail: must be 'exponential' or 'polynomial'")
        if tail == "polynomial" and not (model.get("k", 0) > 0):
            raise ConfigError("model.k: positive tail exponent required")
    else:
        try:
            model_from_dict(model)
        except (ModelValidationError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"model: {exc}") from exc
    if experiment == "baseline-compare" and family == "polytail" and not model["k"] > 1:
        raise ConfigError(
            f"model.k: baseline-compare needs a finite mean LLR, which a polytail model "
            f"has only for k > 1, got {model['k']!r}"
        )
    family_needed, first_t = _PAIRED.get(experiment, (family, 1))
    if family_needed != family or _PAIRED.get(family, (experiment, 1))[0] != experiment:
        raise ConfigError(f"model.family: {experiment} cannot take a {family!r} model")
    if experiment == "ode-check" and values["horizon"] < _ODE_FIRST_T:
        raise ConfigError(
            f"horizon: ode-check samples t on [{_ODE_FIRST_T}, horizon], "
            f"so it needs horizon >= {_ODE_FIRST_T}, got {values['horizon']}"
        )
    fit_trials = montecarlo._UPSET_FIT_MIN_COUNT
    if experiment == "upset-tail" and values["trials"] < fit_trials:
        raise ConfigError(
            f"trials: the upset-tail fit uses bins of at least {fit_trials} trials, "
            f"so it needs trials >= {fit_trials}, got {values['trials']}"
        )
    grid = values["checkpoints"] or [values["horizon"]]  # the default grid ends at the horizon
    if max(grid) < first_t:
        raise ConfigError(
            f"checkpoints: {experiment} needs a checkpoint t >= {first_t}, "
            f"got {values['checkpoints']!r} with horizon {values['horizon']}"
        )

    if values["checkpoints"] is not None:
        values["checkpoints"] = tuple(sorted(set(values["checkpoints"])))
    values["prior"] = float(values["prior"])
    return ExperimentConfig(**values)


def _check(key: str, value, values: dict) -> None:
    valid, expected = _RULES[key]
    if not valid(value, values):
        raise ConfigError(f"{key}: must be {expected}, got {value!r}")


def _positive_int(value, _=None) -> bool:
    # type(), not isinstance(): JSON true/false parse to bool, a subclass of int
    return type(value) is int and value >= 1


def _number(value, _=None) -> bool:
    return type(value) in (int, float)


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Experiment bodies: each takes (config, model) and returns
# ({filename: text}, summary dict); model is None for a synthetic ode-check
# ---------------------------------------------------------------------------


def _ratio_to_reference(config, model, reference, name: str, file: str = "ratio.csv"):
    """``file`` of ell*_t against a reference curve at the checkpoints where it is defined.

    ``parse_config`` has checked that the grid reaches the experiment's
    first usable t, so the file has at least one row.
    """
    first_t = _PAIRED.get(config.experiment, (None, 1))[1]
    path = belief.ell_star_path(model, config.horizon, config.prior_llr)
    rows = [
        (t, path.values[t - 1], reference(t), path.values[t - 1] / reference(t))
        for t in config.checkpoint_times()
        if t >= first_t
    ]
    return {file: _csv_text(["t", "ell_star", name, "ratio"], rows)}, [r[3] for r in rows]


def _exp_gauss_rate(config: ExperimentConfig, model):
    files, ratios = _ratio_to_reference(
        config, model, lambda t: asymptotics.gaussian_rate_prediction(model.sigma, t), "prediction"
    )
    return files, {"final_ratio": ratios[-1]}


def _exp_first_mistake(config: ExperimentConfig, model):
    dist = belief.first_mistake_distribution(model, config.horizon, config.prior_llr)
    with np.errstate(divide="ignore"):
        log10p = np.log10(dist.pmf)
    fm_rows = [
        (t + 1, dist.ell_star.values[t], dist.pmf[t], log10p[t], dist.survivor[t])
        for t in range(config.horizon)
    ]
    files = {
        "first_mistake.csv": _csv_text(
            ["t", "ell_star", "p_first_mistake", "log10_p", "survivor_mass_running"],
            fm_rows,
        )
    }
    if config.trials >= 2:
        hist = _run_aggregate(config, model).first_mistake_hist
        empirical = [hist.get(t, 0) / config.trials for t in range(1, config.horizon + 1)]
    else:
        empirical = [float("nan")] * config.horizon
    t1_rows = zip(range(1, config.horizon + 1), empirical, dist.pmf)
    files["t1.csv"] = _csv_text(["t", "empirical", "exact"], t1_rows)
    return files, {"survivor_mass": dist.survivor_mass}


def _run_aggregate(config: ExperimentConfig, model, trials=None, **kwargs):
    return montecarlo.run_trials(
        model, StateOfWorld.PLUS, config.horizon, trials or config.trials,
        config.master_seed, config.checkpoint_times(), threads=config.threads, **kwargs,
    )


def _exp_time_to_learn(config: ExperimentConfig, model):
    report = montecarlo.estimate_time_to_learn(_run_aggregate(config, model))
    rows = [
        (
            report.horizon,
            report.mean_uncensored,
            report.lower_bound,
            report.censored_fraction,
        )
    ]
    files = {
        "ttl.csv": _csv_text(
            ["horizon", "mean_uncensored", "lower_bound", "censored_frac"], rows
        )
    }
    return files, {
        "censored_fraction": report.censored_fraction,
        "lower_bound": report.lower_bound,
        "unreliable": report.unreliable,
    }


def _exp_upset_tail(config: ExperimentConfig, model):
    agg = _run_aggregate(config, model)
    try:
        fit = montecarlo.estimate_upset_tail(agg)
    except ValueError as exc:  # a fit needs upset counts that enough trials reach
        raise ConfigError(
            f"trials: {config.trials} are too few for the upset-tail fit ({exc})"
        ) from exc
    upset_rows = [
        (int(n), fit.survival[n], fit.wilson_lo[n], fit.wilson_hi[n])
        for n in range(len(fit.n_values))
    ]
    run_rows = []
    for label, hist in (("good", agg.max_good_run_hist), ("bad", agg.max_bad_run_hist)):
        for length in sorted(hist):
            run_rows.append((length, hist[length], label))
    files = {
        "upsets.csv": _csv_text(["n", "survival", "lo", "hi"], upset_rows),
        "runs.csv": _csv_text(["length", "count", "kind"], run_rows),
    }
    return files, {"slope": fit.slope, "r_squared": fit.r_squared}


def _exp_rate_target(config: ExperimentConfig, model):
    files, ratios = _ratio_to_reference(config, model, lambda t: t / math.log(t), "r_t")
    return files, {"min_ratio": min(ratios)}


def _exp_mistake_curve(config: ExperimentConfig, model):
    rows = montecarlo.estimate_mistake_curve(_run_aggregate(config, model))
    files = {"mistakes.csv": _csv_text(["t", "p_rb", "p_naive", "stderr"], rows)}
    return files, {"final_p_rb": rows[-1][1]}


def _exp_baseline_compare(config: ExperimentConfig, model):
    # the observed-signals baseline: E+[sum of t private LLRs] = t E+[L], exactly
    per_step = model.llr_mean(StateOfWorld.PLUS)
    files, _ = _ratio_to_reference(
        config, model, lambda t: t * per_step, "mean_ell_tilde", "baseline.csv"
    )
    summary = {"final_per_step": per_step}
    if isinstance(model, RateTargetSignalModel):
        # the mean of the truncated table: where sum n dq(n) diverges, the cut sets it
        summary["support_cut"] = int(model.support[-1])
    return files, summary


def _exp_ode_check(config: ExperimentConfig, model):
    ts = np.geomspace(float(_ODE_FIRST_T), float(config.horizon), 40)
    if model is None:
        if config.model["tail"] == "exponential":
            rate = lambda x: math.exp(-x)
            closed = lambda t: asymptotics.closed_form_exponential_tail(1.0, t)
            sol = asymptotics.solve_growth_ode(rate, 0.0, 0.0, float(config.horizon))
        else:
            k = float(config.model["k"])
            rate = lambda x: x ** (-k) if x > 1e-12 else 1e12
            closed = lambda t: asymptotics.closed_form_polynomial_tail(k, 1.0, t)
            sol = asymptotics.solve_growth_ode(
                rate, 0.0, closed(0.0), float(config.horizon)
            )
        rows = []
        for t in ts:
            f_ode = sol(float(t))
            f_ref = closed(float(t))
            rows.append((t, f_ode, f_ref, abs(f_ode / f_ref - 1.0)))
        files = {"ode_check.csv": _csv_text(["t", "f_ode", "f_closed", "rel_err"], rows)}
        return files, {"max_rel_err": max(r[3] for r in rows)}

    sol = asymptotics.solve_belief_ode(model, 1.0, 1.0, float(config.horizon))
    path = belief.ell_star_path(model, config.horizon, config.prior_llr)
    rows = []
    for t in ts:
        ti = int(t)
        f_ode = sol(float(ti))
        rows.append((ti, path.values[ti - 1], f_ode, path.values[ti - 1] / f_ode))
    files = {"ode_check.csv": _csv_text(["t", "recurrence", "f_ode", "ratio"], rows)}
    return files, {"final_ratio": rows[-1][3]}


# ode-check's rows sample t geometrically from here to the horizon.
_ODE_FIRST_T = 10

_DISPATCH = {
    "gauss-rate": _exp_gauss_rate,
    "first-mistake": _exp_first_mistake,
    "time-to-learn": _exp_time_to_learn,
    "upset-tail": _exp_upset_tail,
    "rate-target": _exp_rate_target,
    "mistake-curve": _exp_mistake_curve,
    "baseline-compare": _exp_baseline_compare,
    "ode-check": _exp_ode_check,
}
EXPERIMENT_NAMES = tuple(_DISPATCH)


# The parameters of each model family; any other key would be ignored, so it is refused.
_MODEL_KEYS = {
    "gaussian": ("sigma",),
    "polytail": ("k",),
    "ratetarget": ("q_table",),
    "synthetic": ("tail", "k"),
}

# key -> (valid(value, values parsed so far), what a valid value is)
_RULES = {
    "experiment": (
        lambda v, _: v in EXPERIMENT_NAMES, "one of " + ", ".join(EXPERIMENT_NAMES)
    ),
    "model": (
        lambda v, _: isinstance(v, dict) and v.get("family") in tuple(_MODEL_KEYS),
        "a model document whose 'family' is one of " + ", ".join(_MODEL_KEYS),
    ),
    "horizon": (_positive_int, "a positive integer"),
    "trials": (_positive_int, "a positive integer"),
    "master_seed": (lambda v, _: type(v) is int and v >= 0, "a nonnegative integer"),
    "prior": (lambda v, _: type(v) in (int, float) and 0.0 < v < 1.0, "strictly between 0 and 1"),
    "checkpoints": (
        lambda v, got: v is None or type(v) is list and len(v) > 0
        and all(_positive_int(t) and t <= got["horizon"] for t in v),
        "a nonempty list of integers in [1, horizon]",
    ),
    "output_dir": (lambda v, _: type(v) is str, "a string"),
    "threads": (_positive_int, "a positive integer"),
    "dump_trajectories": (lambda v, _: type(v) is bool, "true or false"),
    # parameters of the model document; JSON true must not pass as 1
    "model.sigma": (_number, "a number"),
    "model.k": (_number, "a number"),
    "model.q_table": (
        lambda v, _: type(v) is list and all(_number(q) and math.isfinite(q) for q in v),
        "a list of finite numbers",
    ),
}

# An experiment that needs one model family, with the first checkpoint t
# its ratio.csv uses (gauss-rate's sqrt(log t) is 0 at t = 1, rate-target's
# t/log t falls until t = e), and a family that needs one experiment: the
# closed-form "synthetic" tails only make sense for ode-check.
_PAIRED = {
    "gauss-rate": ("gaussian", 2),
    "rate-target": ("ratetarget", 3),
    "synthetic": ("ode-check", 1),
}


def _dump_trajectories(config: ExperimentConfig, model) -> dict:
    _, actions = _run_aggregate(config, model, min(config.trials, 100), collect_actions=True)
    # A trial's lines are its number joined by the line tails ",t,a\n" that its actions pick.
    steps = np.arange(actions.shape[1])
    tails = np.array([[f",{t + 1},{a}\n" for t in steps] for a in (-1, 1)], dtype=object)
    picked = tails[(actions > 0).astype(np.intp), steps]
    return {"trajectories.csv": "trial,t,action\n"
            + "".join(f"{trial}" + f"{trial}".join(row) for trial, row in enumerate(picked))}


def emit_outputs(files: dict, output_dir: str) -> dict:
    """Write the file set atomically enough for cleanup; return checksums."""
    os.makedirs(output_dir, exist_ok=True)
    checksums = {}
    written = []
    try:
        for name, text in sorted(files.items()):
            path = os.path.join(output_dir, name)
            with open(path, "w", newline="") as fh:
                fh.write(text)
            written.append(path)
            checksums[name] = hashlib.sha256(text.encode()).hexdigest()
    except BaseException:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
    return checksums


def _environment() -> dict:
    """The versions, CPU count and CPU features of this process, for a run's manifest.

    numpy picks its SIMD loops at run time (NEP 38) from the targets that
    it was built for (``__cpu_dispatch__``) and that this CPU has, less any
    that ``NPY_DISABLE_CPU_FEATURES`` turns off; the C kernels call those
    loops, so the bits of a run may depend on them.  ``fill_threads`` is the
    most threads the C fill of a lockstep chunk runs on (one per CPU the
    process may run on; 1 without the C fill): the time of a run depends on
    it, its bits do not.
    """
    import platform

    import scipy

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath

    from . import __version__, _native

    features = umath.__cpu_features__
    return {
        "herdsim": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "fill_threads": _native.fill_threads(),
        "numpy_cpu_baseline": list(umath.__cpu_baseline__),
        "numpy_cpu_dispatch": [name for name in umath.__cpu_dispatch__ if features.get(name)],
    }


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Run one experiment and write its artifacts plus manifest.json.

    ``config`` comes from ``parse_config``, which has already checked it;
    the signal model is built here once and shared by the experiment body
    and the trajectory dump.  An upset-tail run whose trials turn out too
    few for its tail fit raises a ConfigError naming ``trials``.
    """
    started = datetime.now(timezone.utc).isoformat()
    model = None if config.model["family"] == "synthetic" else model_from_dict(config.model)
    try:
        files, summary = _DISPATCH[config.experiment](config, model)
        if config.dump_trajectories and model is not None:
            files.update(_dump_trajectories(config, model))
    except NumericalFailure as exc:
        raise NumericalFailure(f"{config.experiment}: {exc}") from exc
    checksums = emit_outputs(files, config.output_dir)
    doc = config.canonical_document()
    config_hash = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()
    manifest = RunManifest(
        config=doc,
        config_hash=config_hash,
        master_seed=config.master_seed,
        started_at=started,
        finished_at=datetime.now(timezone.utc).isoformat(),
        files=checksums,
        summary={k: (None if v is None else float(v) if isinstance(v, (int, float, np.floating)) and not isinstance(v, bool) else v) for k, v in summary.items()},
        environment=_environment(),
    )
    with open(os.path.join(config.output_dir, "manifest.json"), "w", newline="") as fh:
        fh.write(manifest.to_json())
    return manifest
