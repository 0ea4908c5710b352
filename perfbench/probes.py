"""Layer probes: fixed-input timings of single herdsim calls, run in traced mode.

Every traced run reports them, whatever its workload, so each per-layer
figure exists on every workload.  Inputs are fixed (not drawn from the
workload seed) so that the figures of different runs compare directly.

Three probes reproduce known baselines and dead ends; see NOTES.md:
a D+ lookup table through ``np.interp``, ``run_trials(threads=2)``, and the
support-size cost of the rate-target model's scalar increment.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

import herdsim
from herdsim import belief, montecarlo
from herdsim.signal_models import StateOfWorld

PLUS, MINUS = StateOfWorld.PLUS, StateOfWorld.MINUS
FAMILIES = ("gaussian", "polytail", "ratetarget")
BATCH = 2048


def _seconds_per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean time of ``calls`` calls."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def _x_range(family: str) -> tuple[float, float]:
    """Public-LLR values that the engine meets for this family."""
    return (0.0, 6000.0) if family == "ratetarget" else (-2.0, 12.0)


def run_probes(models: dict, rate_target_q, smoke: bool) -> dict:
    scale = 16 if smoke else 1
    rng = np.random.default_rng(20171707)
    out = {}

    for fam in FAMILIES:
        m = models[fam]
        gen = np.random.Generator(np.random.Philox(1))
        n = 2**20 // scale
        out[f"signal_models.sample_llr.ns_per_draw.{fam}"] = 1e9 / n * _seconds_per_call(
            lambda: m.sample_llr(PLUS, gen, size=n), 1, 3
        )
        out[f"signal_models.sample_llr.ns_per_draw.small.{fam}"] = 1e9 / 1024 * _seconds_per_call(
            lambda: m.sample_llr(PLUS, gen, size=1024), 256 // scale
        )

        lo, hi = _x_range(fam)
        span = max(abs(lo), abs(hi)) + 28.0
        grid = np.linspace(-span, span, 2**16 // scale)

        def log_tails():
            for state in (PLUS, MINUS):
                m.llr_log_sf(state, grid)
                m.llr_log_cdf(state, grid)

        out[f"signal_models.log_tail.ns_per_elt.{fam}"] = 1e9 / (4 * len(grid)) * _seconds_per_call(
            log_tails, 1
        )

        x = rng.uniform(lo, hi, BATCH)
        xs = [float(v) for v in x[:8]]
        scalar_calls = (20 if fam == "ratetarget" else 400) // (4 if smoke else 1)
        for side, fn in (("d_plus", belief.d_plus), ("d_minus", belief.d_minus)):
            base = f"belief.{side}.ns_per_elt.{fam}"
            out[f"{base}.batch"] = 1e9 / BATCH * _seconds_per_call(
                lambda: fn(m, x), (20 if fam == "ratetarget" else 100) // (4 if smoke else 1)
            )
            it = itertools.cycle(xs)
            out[f"{base}.scalar"] = 1e9 * _seconds_per_call(lambda: fn(m, next(it)), scalar_calls // 5)

    # Dead end: D+ from a log-space table of 1e5+1 points through np.interp,
    # queried in the unsorted order of a lockstep batch.
    g = models["gaussian"]
    grid = np.linspace(-40.0, 40.0, 100_001)
    log_table = np.log(belief.d_plus(g, grid))
    x = rng.uniform(-2.0, 12.0, BATCH)
    out["baselines.d_plus_interp_table.ns_per_elt"] = 1e9 / BATCH * _seconds_per_call(
        lambda: np.exp(np.interp(x, grid, log_table)), 100 // (4 if smoke else 1)
    )

    # Dead end: a worker pool of two threads against one, alternated so that
    # drift of the machine's speed falls on both alike.
    horizon, trials = (200, 512) if smoke else (1000, 4096)
    batch = 256 if smoke else montecarlo.DEFAULT_BATCH_SIZE
    per_step = {1: [], 2: []}
    for _ in range(3):
        for threads in per_step:
            t0 = time.perf_counter()
            montecarlo.run_trials(g, PLUS, horizon, trials, 11, threads=threads, batch_size=batch)
            per_step[threads].append((time.perf_counter() - t0) * 1e9 / (horizon * trials))
    for threads, values in per_step.items():
        out[f"baselines.run_trials.threads{threads}.ns_per_trial_step"] = statistics.median(values)

    # Known defect: the rate-target scalar increment grows with the support,
    # because searchsorted converts the int64 support for a float key.
    small = herdsim.build_rate_target(rate_target_q, max_support=5000)
    key = np.array([1000.0])
    for label, m, calls in (("1e4", small, 40), ("4e5", models["ratetarget"], 10)):
        out[f"baselines.ratetarget.d_plus_scalar_us.support_{label}"] = 1e6 * _seconds_per_call(
            lambda: belief.d_plus(m, 1000.5), calls
        )
        out[f"baselines.ratetarget.searchsorted_us.support_{label}"] = 1e6 * _seconds_per_call(
            lambda: np.searchsorted(m.support, key, side="right"), calls
        )
    float_support = models["ratetarget"].support.astype(float)
    out["baselines.ratetarget.searchsorted_us.support_4e5_float"] = 1e6 * _seconds_per_call(
        lambda: np.searchsorted(float_support, key, side="right"), 100
    )
    return out
