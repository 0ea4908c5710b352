"""The benchmark's workloads: generated inputs, timed operations and output checks.

A workload yields one list of named operations per repetition.  run.py times
the list as a whole, then hands each output to ``check_op``, which returns
the problems found.  An operation that raises or has a problem counts as
failed.  The checks test properties of the results, never the layout of
random streams, so an engine that draws its randomness differently can
still pass them.

The seed only selects generated inputs (master seeds, priors, starting
points and config jitter).  It never changes the size of an operation
(trials, horizons, path lengths).  In the Monte Carlo operations the share
of lockstep steps that hold both actions still varies with the draws, so
every repetition draws fresh master seeds and a run reports the median.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import time

import numpy as np
from scipy import special

import herdsim
from herdsim import asymptotics, belief, cli, montecarlo
from herdsim.signal_models import StateOfWorld

PLUS = StateOfWorld.PLUS
EXPERIMENTS = (
    "gauss-rate",
    "first-mistake",
    "time-to-learn",
    "upset-tail",
    "rate-target",
    "mistake-curve",
    "baseline-compare",
    "ode-check",
)
# A run stops after this many repetitions whatever its time budget; the
# band checks of mc-long split their false-alarm budget over this many.
MAX_REPS = 15


def rate_target_q(n: int) -> float:
    """Q(n) = 1/log(n + 2 + e), the rate-target table of acceptance criterion 10."""
    return 1.0 / math.log(n + 2.0 + math.e)


def build_models() -> tuple[dict, dict]:
    """The three signal models every workload sets up, with build seconds.

    PolyTail's tail and quantile splines are built through public calls: a
    log-tail evaluation on both sides of the support and a sampling call.
    """
    gaussian = herdsim.GaussianSignalModel(sigma=1.0)
    t0 = time.perf_counter()
    polytail = herdsim.PolyTailSignalModel(k=2.0)
    grid = np.linspace(-70.0, 70.0, 64)
    polytail.llr_log_sf(PLUS, grid)
    polytail.llr_log_cdf(PLUS, grid)
    polytail.sample_llr(PLUS, np.random.Generator(np.random.Philox(0)), size=4096)
    t1 = time.perf_counter()
    ratetarget = herdsim.build_rate_target(rate_target_q, max_support=200_000)
    t2 = time.perf_counter()
    models = {"gaussian": gaussian, "polytail": polytail, "ratetarget": ratetarget}
    return models, {"build_s.polytail": t1 - t0, "build_s.ratetarget": t2 - t1}


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _path_problems(values, horizon: int) -> list[str]:
    problems = []
    values = np.asarray(values, dtype=float)
    if len(values) != horizon:
        problems.append(f"path has {len(values)} values, expected {horizon}")
    if not _finite(values):
        problems.append("path has non-finite values")
    elif not np.all(np.diff(values) > 0.0):
        problems.append("path is not strictly increasing")
    return problems


def binomial_p_value(observed: int, n: int, p: float) -> float:
    """Two-sided exact binomial p-value: twice the smaller tail, capped at 1."""
    if p <= 0.0:
        return 1.0 if observed == 0 else 0.0
    if p >= 1.0:
        return 1.0 if observed == n else 0.0
    lower = float(special.bdtr(observed, n, p))
    upper = float(special.bdtrc(observed - 1, n, p)) if observed > 0 else 1.0
    return min(1.0, 2.0 * min(lower, upper))


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, models: dict, workdir: str):
        self.smoke = smoke
        self.models = models
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def warm_up(self) -> None:
        """One small call through the workload's code paths; part of set-up."""

    def operations(self) -> list:
        """The next repetition's (name, zero-argument callable) pairs."""
        raise NotImplementedError

    def check_op(self, name: str, output, outputs: dict) -> list[str]:
        """Problems with one operation's output; ``outputs`` holds the repetition's."""
        raise NotImplementedError


class McLong(Workload):
    """run_trials under theta=+ at a long horizon: one batch per family."""

    name = "mc-long"
    families = ("gaussian", "polytail")
    max_bins = 100  # first-mistake bins tested per aggregate
    false_alarm = 1e-4  # per run, over all bin tests

    def __init__(self, *args):
        super().__init__(*args)
        self.horizon, self.trials = (300, 256) if self.smoke else (3000, 2048)
        self._exact = {}

    def warm_up(self):
        for fam in self.families:
            montecarlo.run_trials(self.models[fam], PLUS, 64, 64, 0)

    def operations(self):
        ops = []
        for fam in self.families:
            model, seed = self.models[fam], self.rng.getrandbits(32)
            ops.append((fam, lambda m=model, s=seed: montecarlo.run_trials(
                m, PLUS, self.horizon, self.trials, s, threads=1
            )))
        return ops

    def check_op(self, name, agg, outputs):
        problems = []
        n = self.trials
        if agg.trial_count != n:
            problems.append(f"trial_count {agg.trial_count} != {n}")
        if agg.censored_count + agg.uncensored_count != n:
            problems.append("censored + uncensored != trials")
        for label, hist in (("first_mistake", agg.first_mistake_hist), ("upset", agg.upset_hist)):
            if sum(hist.values()) != n:
                problems.append(f"{label} histogram holds {sum(hist.values())} trials, not {n}")
        arrays = (agg.rb_sum, agg.rb_sumsq, agg.naive_sum, agg.ell_sum)
        scalars = (agg.last_mistake_sum, agg.last_mistake_sumsq, agg.ttl_lower_bound_sum)
        if not all(_finite(a) for a in arrays) or not _finite(scalars):
            problems.append("non-finite aggregate")
        return problems + self._band_problems(name, agg)

    def _band_problems(self, family, agg) -> list[str]:
        """First-mistake counts against the exact law, bin by exact binomial test.

        Bins are t = 1..t_max (the last t expecting at least 25 trials, as
        in acceptance criterion 11, capped at ``max_bins - 2``), the rest of
        the horizon, and "no mistake".  Each test runs at a level that keeps
        the false-alarm rate of a whole run below ``false_alarm``.
        """
        if family not in self._exact:
            self._exact[family] = belief.first_mistake_distribution(self.models[family], self.horizon)
        exact = self._exact[family]
        n = self.trials
        pmf = exact.pmf
        big = np.nonzero(pmf * n >= 25.0)[0]
        t_max = min(int(big[-1]) + 1 if len(big) else 0, self.max_bins - 2)
        hist = agg.first_mistake_hist
        bins = [(f"t={t}", hist.get(t, 0), float(pmf[t - 1])) for t in range(1, t_max + 1)]
        rest = sum(c for t, c in hist.items() if t > t_max)
        bins.append((f"t>{t_max}", rest, float(np.sum(pmf[t_max:]))))
        bins.append(("none", hist.get(0, 0), float(exact.survivor_mass)))
        level = self.false_alarm / (MAX_REPS * len(self.families) * self.max_bins)
        return [
            f"first-mistake bin {label}: {obs} observed, {n * p:.1f} expected"
            for label, obs, p in bins
            if binomial_p_value(obs, n, min(max(p, 0.0), 1.0)) < level
        ]


def _exp_neg(a: float) -> float:
    return math.exp(-a)


class ExactPaths(Workload):
    """The deterministic layer: ell* paths, the first-mistake law, the recurrence, the ODE.

    The Gaussian ell* path is the one ``first_mistake_distribution`` builds,
    so it is computed once per repetition, as a user of the law pays it.
    """

    name = "exact-paths"

    def __init__(self, *args):
        super().__init__(*args)
        if self.smoke:
            self.steps = {"gaussian": 10**4, "polytail": 10**4, "ratetarget": 2000, "recurrence": 10**4}
        else:
            self.steps = {"gaussian": 10**6, "polytail": 10**4, "ratetarget": 10**4, "recurrence": 10**6}

    def warm_up(self):
        for model in self.models.values():
            belief.ell_star_path(model, 100)
        belief.first_mistake_distribution(self.models["gaussian"], 100)
        asymptotics.iterate_recurrence(_exp_neg, 0.0, 100)
        asymptotics.solve_belief_ode(self.models["gaussian"], 1.0, 1.0, 100.0)

    def operations(self):
        u, steps = self.rng.uniform, self.steps
        g = self.models["gaussian"]
        ops = [("first_mistake.gaussian",
                lambda p=u(-0.2, 0.2): belief.first_mistake_distribution(g, steps["gaussian"], p))]
        for fam in ("polytail", "ratetarget"):
            ops.append((f"ell_star.{fam}", lambda m=self.models[fam], n=steps[fam], p=u(-0.2, 0.2):
                        belief.ell_star_path(m, n, p)))
        a0, f0 = u(0.0, 0.5), u(0.5, 1.5)
        ops.append(("recurrence.exponential",
                    lambda: (a0, asymptotics.iterate_recurrence(_exp_neg, a0, steps["recurrence"]))))
        ops.append(("ode.gaussian",
                    lambda: asymptotics.solve_belief_ode(g, 1.0, f0, float(steps["gaussian"]))))
        return ops

    def check_op(self, name, out, outputs):
        steps = self.steps
        if name == "first_mistake.gaussian":
            t = steps["gaussian"]
            problems = _path_problems(out.ell_star.values, t)
            if not problems:
                # Second-order Mills-ratio prediction m + tau sqrt(2 ln(t / (tau sqrt(2 pi)))).
                sigma = self.models["gaussian"].sigma
                m, tau = 2.0 / sigma**2, 2.0 / sigma
                pred = m + tau * math.sqrt(2.0 * math.log(t / (tau * math.sqrt(2.0 * math.pi))))
                ell = float(out.ell_star.values[-1])
                if abs(ell / pred - 1.0) > 0.01:
                    problems.append(f"ell*({t}) = {ell:.6g}, {abs(ell / pred - 1):.2%} from {pred:.6g}")
            if len(out.pmf) != t or not _finite(out.pmf) or np.any(out.pmf < 0.0):
                problems.append("pmf has the wrong length, negative or non-finite entries")
            total = float(np.sum(out.pmf)) + float(out.survivor_mass)
            if not abs(total - 1.0) <= 1e-9:
                problems.append(f"sum(pmf) + survivor_mass = {total!r}")
            return problems
        if name == "ell_star.polytail":
            return _path_problems(out.values, steps["polytail"])
        if name == "ell_star.ratetarget":
            t = steps["ratetarget"]
            problems = _path_problems(out.values, t)
            ratio = float(out.values[-1]) / (t / math.log(t))
            if not 0.1 <= ratio <= 10.0:
                problems.append(f"ell*/(t/log t) = {ratio:.4g} at t={t} outside [0.1, 10]")
            return problems
        if name == "recurrence.exponential":
            a0, values = out
            problems = _path_problems(values, steps["recurrence"])
            closed = math.log(steps["recurrence"] + math.exp(a0) - 1.0)
            if not problems and abs(values[-1] / closed - 1.0) > 0.05:
                problems.append(f"a_t = {values[-1]:.6g} more than 5% from log(t+c) = {closed:.6g}")
            return problems
        if name == "ode.gaussian":
            problems = []
            horizon = float(steps["gaussian"])
            if not (_finite(out.f_values) and np.all(np.diff(out.f_values) >= 0.0)):
                problems.append("ODE solution not finite and nondecreasing")
            elif out.t_grid[-1] != horizon:
                problems.append(f"ODE stopped at t={out.t_grid[-1]!r}, not {horizon!r}")
            fm = outputs.get("first_mistake.gaussian")
            if not problems and fm is not None:
                ratio = float(out(horizon)) / float(fm.ell_star.values[-1])
                if abs(ratio - 1.0) > 0.02:
                    problems.append(f"ODE / recurrence = {ratio:.6g} at t={horizon:g}")
            return problems
        return [f"unknown operation {name}"]


class CliSuite(Workload):
    """All eight experiments through ``herdsim.cli.main`` with generated configs."""

    name = "cli-suite"

    def __init__(self, *args):
        super().__init__(*args)
        small = self.smoke
        jitter = lambda: round(0.5 + self.rng.uniform(-0.05, 0.05), 6)
        gauss = {"family": "gaussian", "sigma": 1.0}
        n_q = 200 if small else 2000
        q_table = [rate_target_q(n) for n in range(-1, n_q + 1)]
        trials = 256 if small else 4096
        docs = {
            "gauss-rate": {"model": gauss, "horizon": 2000 if small else 100_000, "prior": jitter()},
            "first-mistake": {"model": gauss, "horizon": 200 if small else 500, "trials": trials},
            "time-to-learn": {"model": {"family": "polytail", "k": 2.0},
                              "horizon": 100 if small else 300, "trials": trials},
            "upset-tail": {"model": gauss, "horizon": 100 if small else 200,
                           "trials": 2 * trials if small else trials},
            "rate-target": {"model": {"family": "ratetarget", "q_table": q_table},
                            "horizon": 500 if small else 10_000, "prior": jitter()},
            "mistake-curve": {"model": gauss, "horizon": 100 if small else 300, "trials": trials},
            "baseline-compare": {"model": {"family": "gaussian", "sigma": 2.0},
                                 "horizon": 200 if small else 1000, "trials": trials},
            "ode-check": {"model": gauss, "horizon": 2000 if small else 100_000, "prior": jitter()},
        }
        self.docs = docs
        self.config_dir = os.path.join(self.workdir, "configs")
        self.out_dir = os.path.join(self.workdir, "out")
        os.makedirs(self.config_dir, exist_ok=True)
        for exp, doc in docs.items():
            with open(self._config_path(exp), "w") as fh:
                json.dump({"experiment": exp, **doc}, fh)

    def _config_path(self, exp: str) -> str:
        return os.path.join(self.config_dir, f"{exp}.json")

    def _run(self, config_path: str, seed: int, out_dir: str, dump: bool = False) -> int:
        argv = ["run", config_path, "--output-dir", out_dir, "--seed", str(seed)]
        if dump:
            argv.append("--dump-trajectories")
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self):
        path = os.path.join(self.config_dir, "warm-up.json")
        with open(path, "w") as fh:
            json.dump({"experiment": "gauss-rate", "model": {"family": "gaussian", "sigma": 1.0},
                       "horizon": 100}, fh)
        self._run(path, 0, os.path.join(self.workdir, "warm-up"))

    def operations(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        seed = self.rng.getrandbits(31)
        return [
            (exp, lambda e=exp: self._run(
                self._config_path(e), seed, os.path.join(self.out_dir, e), dump=e == "upset-tail"
            ))
            for exp in EXPERIMENTS
        ]

    def check_op(self, name, code, outputs):
        if code != 0:
            return [f"exit code {code}"]
        out_dir = os.path.join(self.out_dir, name)
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        problems = []
        on_disk = sorted(f for f in os.listdir(out_dir) if f != "manifest.json")
        if on_disk != sorted(manifest["files"]):
            problems.append(f"files {on_disk} differ from manifest {sorted(manifest['files'])}")
        for fname, digest in manifest["files"].items():
            path = os.path.join(out_dir, fname)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    if hashlib.sha256(fh.read()).hexdigest() != digest:
                        problems.append(f"{fname}: checksum differs from manifest")
        for key, value in manifest["summary"].items():
            if isinstance(value, bool):
                continue
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"summary {key} = {value!r} is not a finite number")
        if name == "upset-tail":
            doc = self.docs[name]
            expected = 1 + min(doc["trials"], 100) * doc["horizon"]
            path = os.path.join(out_dir, "trajectories.csv")
            lines = 0
            if os.path.exists(path):
                with open(path) as fh:
                    lines = sum(1 for _ in fh)
            if lines != expected:
                problems.append(f"trajectories.csv has {lines} lines, expected {expected}")
        return problems


WORKLOADS = {w.name: w for w in (McLong, ExactPaths, CliSuite)}
