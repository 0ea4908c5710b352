"""Print a sha256 digest of every deterministic output, one ``name digest`` line each.

Run against any checkout of the package and diff two runs to see exactly
which outputs a change moves:

    PYTHONPATH=<checkout>/src python3 tools/output_digests.py [--quick] [--no-native] > digests.txt

The outputs are the ell* path and the first-mistake law of each model
family at priors 0, 0.3 and 2, and of a Gaussian at sigma = 0.7, whose
constants 2/sigma^2 and sigma/2 in the fused C loop are rounded; the
Gaussian ell* from -80, which starts in the deep-tail series of
``log_ndtr`` (argument below -37), the PolyTail ell* from 41, which
steps past 40 from the start, from -70, whose first steps take the
deep left branch (a < -60) of the increment, and from -0.5, inside the
gap (-1, 1), and its long path from 0, which crosses 40 in the full
run; the rate-target ell* from -cut, where it holds, and from
-cut + 0.5, and its long path of criterion 06, whose increments stay
in one integer cell for many steps; each family's law at that long
horizon, which the law computes in more than one chunk; each model's
CDF, log-CDF and log-survival under both states and D+-, log D+- on a
fixed grid; each model's draws under both states (``llr_from_uniform``
on a fixed grid of uniforms from 0 to 1 - 2^-53, and for the Gaussian
``sample_llr`` from a fixed Philox);
``iterate_recurrence`` over criterion 04's three increments from 0; the
growth ODE of the Gaussian at sigma = 1 from (1, 1) and of ode-check's
exponential and polynomial (k = 2) tails from 0: the step grid, the values
and the dense output at every grid point, both neighbours of each and an
even grid, by one call per point and by one call for all (each call groups
its points by step, and the grouping can move the last bit); the
``run_trials`` aggregate of each family at theta = +-, and of a Gaussian
at sigma = 0.7, whose LLR scale 2/sigma rounds its draws; the aggregate of
a run of several batches and time chunks per family, and that run's
action matrix under both states, which sees every switch of every trial;
a long Gaussian run and a long PolyTail run, each of which steps through
many quiet chunks and the default checkpoints inside them; the observed-signals
sums of ``simulate_baseline_llr`` at sigma = 0.7 and of the PolyTail k = 2
and rate-target models at theta = +-, over at least two time chunks, which
see every last bit of the draws and of the streams' continuation from one
chunk to the next (the aggregates see a draw only through an action); the
sums of ``simulate_baseline_llr`` for 13 trials of each family at theta = +-,
stacked into one array (the ``baseline_batch`` lines), over two time chunks
with checkpoints at both ends of the first; the knots and coefficients of
both PolyTail k = 2 splines (log T and the quantile); the rate-target D+
table of acceptance criterion 10's model (Q(n) = 1/log(n + 2 + e), support
+-2e5) read cell by cell through ``montecarlo._increment``: the cells
around 0 first, then every cell from -cut - 1 up to -735 and from 735 up
to cut + 2 (the far cells past +-734, where one state's plain sums
underflow, and the clamped ends); and the CSV files of all eight
CLI experiments, with upset-tail's trajectory dump on (``manifest.json``
holds timestamps, so it is skipped).  ``--quick``
shrinks every size, for a smoke run.  ``--no-native`` runs without the
compiled library (``herdsim._native.library`` returns None), so every loop
and fill takes its Python path; its lines must equal those of a run with it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from herdsim import _native, asymptotics, belief, cli, montecarlo
from herdsim.signal_models import (
    GaussianSignalModel,
    PolyTailSignalModel,
    StateOfWorld,
    build_rate_target,
)

PRIORS = (0.0, 0.3, 2.0)
GRID = np.linspace(-60.0, 60.0, 241)
# both ends of [0, 1) and the values next to them, plus an even grid
UNIFORMS = np.concatenate(
    [[0.0, 2.0**-53, 1e-12], np.linspace(0.0, 1.0, 4097)[1:-1], [1.0 - 1e-12, 1.0 - 2.0**-53]]
)

# the checkpoints of the stacked baseline rows: step 1, both ends of the first time chunk, one in the second
BASELINE_CKPT = (1, 2, 1023, 1024, 1025, 1600)

# ell* horizon, the long rate-target path's horizon, recurrence steps, Monte Carlo trials and horizon, the same
# with a batch size for a multi-batch run, a long run's trials and horizon, baseline trials and horizon (the
# inversion-sampled ones' horizon spans two time chunks or more), and CLI
# horizon and trials, and the growth ODE's horizon
SIZES = {
    "full": {
        "path": 10**4, "long_path": 10**5, "recurrence": 10**5, "mc": (256, 2000), "multi": (3000, 1500, 512),
        "long": (2048, 20000), "baseline": (64, 3000), "inverse_baseline": (64, 3000), "cli": (2000, 400),
        "ode": 10**6,
    },
    "quick": {
        "path": 300, "long_path": 3000, "recurrence": 300, "mc": (16, 100), "multi": (40, 100, 16),
        "long": (64, 2000), "baseline": (4, 300), "inverse_baseline": (4, 2100), "cli": (200, 200),
        "ode": 10**4,
    },
}

# criterion 04: a_{t+1} = a_t + e^{-a_t}, and the paired 2e^{-x} against e^{-x}(2 - 1/(1+x))
RECURRENCES = {
    "exp_neg": lambda a: math.exp(-a),
    "two_exp_neg": lambda x: 2.0 * math.exp(-x),
    "exp_neg_paired": lambda x: math.exp(-x) * (2.0 - 1.0 / (1.0 + x)),
}


class GaussianSubclass(GaussianSignalModel):
    """The Gaussian law in a subclass, which ``_native`` steps in Python: it chooses kernels by exact type."""


def _harmonic_q(n: int) -> float:
    return 1.0 / (n + 2.0)


def models() -> dict:
    return {
        "gaussian": GaussianSignalModel(sigma=1.0),
        "polytail": PolyTailSignalModel(k=2.0),
        "ratetarget": build_rate_target(_harmonic_q, max_support=5000),
    }


def sha(*parts) -> str:
    """The digest of arrays (by their bytes) and other values (by their repr)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.tobytes())
        elif isinstance(part, dict):
            h.update(repr(sorted(part.items())).encode())
        else:  # a float's repr is exact
            h.update(repr(part).encode())
    return h.hexdigest()


def path_digests(size: dict):
    for family, model in models().items():
        for prior in PRIORS:
            law = belief.first_mistake_distribution(model, size["path"], prior)
            yield f"ell_star/{family}/prior={prior}", sha(law.ell_star.values)
            yield f"first_mistake/{family}/prior={prior}/pmf", sha(law.pmf)
            yield f"first_mistake/{family}/prior={prior}/survivor", sha(law.survivor)
    law = belief.first_mistake_distribution(GaussianSignalModel(sigma=0.7), size["path"])
    yield "ell_star/gaussian-sigma0.7/prior=0.0", sha(law.ell_star.values)
    yield "first_mistake/gaussian-sigma0.7/prior=0.0/pmf", sha(law.pmf)
    yield "first_mistake/gaussian-sigma0.7/prior=0.0/survivor", sha(law.survivor)
    for family, prior in (("gaussian", -80.0), ("polytail", 41.0), ("polytail", -70.0), ("polytail", -0.5)):
        path = belief.ell_star_path(models()[family], size["path"], prior)
        yield f"ell_star/{family}/prior={prior}", sha(path.values)
    path = belief.ell_star_path(models()["polytail"], size["long_path"])
    yield "ell_star/polytail/long", sha(path.values)
    model = models()["ratetarget"]
    cut = float(model.support[-1])
    for prior in (-cut, 0.5 - cut):  # the hold in cell -cut, and the cell above it
        path = belief.ell_star_path(model, size["path"], prior)
        yield f"ell_star/ratetarget/prior={prior}", sha(path.values)
    path = belief.ell_star_path(model, size["long_path"])
    yield "ell_star/ratetarget/long", sha(path.values)
    for family, model in models().items():  # in the full run, over a chunk boundary of the law
        law = belief.first_mistake_distribution(model, size["long_path"])
        yield f"first_mistake/{family}/long/pmf", sha(law.pmf)
        yield f"first_mistake/{family}/long/survivor", sha(law.survivor)


def model_digests(_size: dict):
    for family, model in models().items():
        for fn in (model.llr_cdf, model.llr_log_cdf, model.llr_log_sf):
            for theta in (StateOfWorld.PLUS, StateOfWorld.MINUS):
                values = np.asarray(fn(theta, GRID))
                yield f"model/{family}/{fn.__name__}/theta={theta.sign:+d}", sha(values)


def sample_digests(_size: dict):
    for family, model in models().items():
        for theta in (StateOfWorld.PLUS, StateOfWorld.MINUS):
            if family == "gaussian":
                draws = model.sample_llr(theta, np.random.Generator(np.random.Philox(23)), 4096)
            else:
                draws = model.llr_from_uniform(theta, UNIFORMS)
            yield f"sample/{family}/theta={theta.sign:+d}", sha(draws)


def increment_digests(_size: dict):
    for family, model in models().items():
        for fn in (belief.d_plus, belief.d_minus, belief.log_d_plus, belief.log_d_minus):
            yield f"increment/{family}/{fn.__name__}", sha(np.asarray(fn(model, GRID)))


def recurrence_digests(size: dict):
    for name, increment in RECURRENCES.items():
        values = asymptotics.iterate_recurrence(increment, 0.0, size["recurrence"])
        yield f"recurrence/{name}", sha(values)


def _ode_solutions(horizon: float) -> dict:
    """The belief ODE of a Gaussian and ode-check's two synthetic tails (its rates and starts)."""
    poly_start = asymptotics.closed_form_polynomial_tail(2.0, 1.0, 0.0)
    return {
        "gaussian": lambda: asymptotics.solve_belief_ode(models()["gaussian"], 1.0, 1.0, horizon),
        "exponential-tail": lambda: asymptotics.solve_growth_ode(lambda x: math.exp(-x), 0.0, 0.0, horizon),
        "polynomial-tail": lambda: asymptotics.solve_growth_ode(
            lambda x: x ** -2.0 if x > 1e-12 else 1e12, 0.0, poly_start, horizon),
    }


def ode_digests(size: dict):
    horizon = float(size["ode"])
    for name, solve in _ode_solutions(horizon).items():
        sol = solve()
        grid = sol.t_grid
        t = np.concatenate([grid, np.nextafter(grid[1:], -np.inf), np.nextafter(grid[:-1], np.inf),
                            np.linspace(grid[0], grid[-1], 1001)])
        yield f"ode/{name}/t_grid", sha(grid)
        yield f"ode/{name}/f_values", sha(sol.f_values)
        yield f"ode/{name}/dense/one-call", sha(sol(t))
        yield f"ode/{name}/dense/call-per-point", sha(np.array([sol(float(v)) for v in t]))


def aggregate_sha(agg) -> str:
    return sha(*[x for f in dataclasses.fields(agg) for x in (f.name, getattr(agg, f.name))])


def aggregate_digests(size: dict):
    trials, horizon = size["mc"]
    # at sigma = 1 and 2 the scale 2/sigma is a power of two and scales draws exactly
    mc_models = {**models(), "gaussian-sigma0.7": GaussianSignalModel(sigma=0.7)}
    for family, model in mc_models.items():
        for theta in (StateOfWorld.PLUS, StateOfWorld.MINUS):
            agg = montecarlo.run_trials(model, theta, horizon, trials, master_seed=20)
            yield f"run_trials/{family}/theta={theta.sign:+d}", aggregate_sha(agg)
    for theta in (StateOfWorld.PLUS, StateOfWorld.MINUS):
        agg = montecarlo.run_trials(GaussianSubclass(sigma=1.0), theta, horizon, trials, master_seed=20)
        yield f"run_trials/gaussian-subclass/theta={theta.sign:+d}", aggregate_sha(agg)
    trials, horizon, batch_size = size["multi"]
    for family, model in mc_models.items():
        agg = montecarlo.run_trials(
            model, StateOfWorld.PLUS, horizon, trials, master_seed=21, batch_size=batch_size
        )
        yield f"run_trials/{family}/multi-batch", aggregate_sha(agg)
    for family, model in mc_models.items():
        for theta in (StateOfWorld.PLUS, StateOfWorld.MINUS):
            _, actions = montecarlo.run_trials(
                model, theta, horizon, trials, master_seed=21, batch_size=batch_size,
                collect_actions=True,
            )
            yield f"run_trials/{family}/actions/theta={theta.sign:+d}", sha(actions)
    trials, horizon = size["long"]
    for family in ("gaussian", "polytail"):
        agg = montecarlo.run_trials(models()[family], StateOfWorld.PLUS, horizon, trials, 24)
        yield f"run_trials/{family}/long", aggregate_sha(agg)


def baseline_digests(size: dict):
    trials, horizon = size["baseline"]
    model = GaussianSignalModel(sigma=0.7)
    for theta in (StateOfWorld.PLUS, StateOfWorld.MINUS):
        sums = [
            montecarlo.simulate_baseline_llr(model, theta, horizon, 22, i) for i in range(trials)
        ]
        yield f"baseline/gaussian-sigma0.7/theta={theta.sign:+d}", sha(*sums)
    trials, horizon = size["inverse_baseline"]
    for family in ("polytail", "ratetarget"):
        model = models()[family]
        for theta in (StateOfWorld.PLUS, StateOfWorld.MINUS):
            sums = [
                montecarlo.simulate_baseline_llr(model, theta, horizon, 22, i)
                for i in range(trials)
            ]
            yield f"baseline/{family}/theta={theta.sign:+d}", sha(*sums)
    # 13 trials over two time chunks, their sums stacked row by row
    for family, model in {**models(), "gaussian-sigma0.7": GaussianSignalModel(sigma=0.7)}.items():
        for theta in (StateOfWorld.PLUS, StateOfWorld.MINUS):
            sums = np.array([
                [v for _, v in montecarlo.simulate_baseline_llr(model, theta, 1600, 25, i, BASELINE_CKPT)]
                for i in range(13)
            ])
            yield f"baseline_batch/{family}/theta={theta.sign:+d}", sha(sums)


def spline_digests(_size: dict):
    model = models()["polytail"]
    for name, spline in (("tail", model._log_tail_spline), ("quantile", model._pos_branch_ppf)):
        yield f"spline/polytail/k={model.k:g}/{name}", sha(spline.x, spline.c)


def rate_table_digests(_size: dict):
    model = build_rate_target(lambda n: 1.0 / math.log(n + 2.0 + math.e), max_support=200_000)
    cut = len(model.support) // 2
    for name, cells in (("near0", np.arange(-733.0, 734.0)), ("minus-far", np.arange(-cut - 1.0, -734.0)),
                        ("plus-far", np.arange(735.0, cut + 3.0))):
        yield f"rate_table/q=1-log/{name}", sha(montecarlo._increment(model, cells, np.ones(len(cells))))


def _cli_configs(horizon: int, trials: int) -> dict:
    gauss = {"family": "gaussian", "sigma": 2.0}
    poly = {"family": "polytail", "k": 2.0}
    rate = {"family": "ratetarget", "q_table": [_harmonic_q(n) for n in range(-1, 2001)]}
    return {
        "gauss-rate": {"model": gauss},
        "first-mistake": {"model": gauss, "trials": trials},
        "time-to-learn": {"model": poly, "trials": trials},
        "upset-tail": {"model": gauss, "trials": trials, "dump_trajectories": True},
        "rate-target": {"model": rate, "prior": 0.3},
        "mistake-curve": {"model": poly, "trials": trials},
        "baseline-compare": {"model": gauss, "trials": trials},
        "ode-check": {"model": poly},
    }


def cli_digests(size: dict):
    horizon, trials = size["cli"]
    with tempfile.TemporaryDirectory() as tmp:
        for name, over in _cli_configs(horizon, trials).items():
            out = os.path.join(tmp, name)
            doc = {"experiment": name, "horizon": horizon, "master_seed": 3, "output_dir": out}
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w") as fh:
                json.dump({**doc, **over}, fh)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", path])
            if code != 0:
                raise RuntimeError(f"herdsim run {name} exited {code}")
            with open(os.path.join(out, "manifest.json")) as fh:
                files = json.load(fh)["files"]
            for fname, digest in sorted(files.items()):
                yield f"cli/{name}/{fname}", digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smallest sizes, for a smoke run")
    parser.add_argument("--no-native", action="store_true",
                        help="run without the compiled library: the Python loops and fill")
    args = parser.parse_args(argv)
    if args.no_native:
        _native.library = lambda: None
    size = SIZES["quick" if args.quick else "full"]
    for digests in (path_digests, model_digests, sample_digests, increment_digests,
                    recurrence_digests, ode_digests, aggregate_digests, baseline_digests, spline_digests,
                    rate_table_digests, cli_digests):
        for name, digest in digests(size):
            print(name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
