"""tools/output_digests.py runs against the package in src/, names every output once and
prints the same lines without the compiled library; tools/bench_pairs.py summarises
benchmark pairs and parses criterion lines."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = [
    "gauss-rate", "first-mistake", "time-to-learn", "upset-tail",
    "rate-target", "mistake-curve", "baseline-compare", "ode-check",
]


def _quick_digests(cwd, *flags):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digests.py"), "--quick", *flags],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.splitlines()


@pytest.fixture(scope="module")
def quick_lines(tmp_path_factory):
    return _quick_digests(tmp_path_factory.mktemp("digests"))


def test_output_digests_without_the_library_are_the_same(quick_lines, tmp_path):
    # --no-native takes every Python loop and fill, the reference of the C ones
    assert _quick_digests(tmp_path, "--no-native") == quick_lines


def test_output_digests_smoke(quick_lines):
    lines = quick_lines
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines), lines
    names = [line.split()[0] for line in lines]
    assert len(names) == len(set(names))
    families = ("gaussian", "polytail", "ratetarget")
    for family in families:
        for prior in ("0.0", "0.3", "2.0"):
            assert f"ell_star/{family}/prior={prior}" in names
            assert f"first_mistake/{family}/prior={prior}/pmf" in names
        # the law at the long horizon, computed over a chunk boundary in the full run
        assert {f"first_mistake/{family}/long/{part}" for part in ("pmf", "survivor")} <= set(names)
        assert f"increment/{family}/log_d_minus" in names
        for theta in ("+1", "-1"):
            for fn in ("llr_cdf", "llr_log_cdf", "llr_log_sf"):
                assert f"model/{family}/{fn}/theta={theta}" in names
            assert f"sample/{family}/theta={theta}" in names
        assert {f"run_trials/{family}/theta=+1", f"run_trials/{family}/theta=-1"} <= set(names)
        # a run of several batches, stepped in one pass
        assert f"run_trials/{family}/multi-batch" in names
        # every action of that run, over several time chunks
        assert {f"run_trials/{family}/actions/theta={s}" for s in ("+1", "-1")} <= set(names)
    # rounded constants of the fused Gaussian loop, its deep-tail series, and PolyTail past 40
    assert {"ell_star/gaussian-sigma0.7/prior=0.0", "first_mistake/gaussian-sigma0.7/prior=0.0/pmf",
            "first_mistake/gaussian-sigma0.7/prior=0.0/survivor", "ell_star/gaussian/prior=-80.0",
            "ell_star/polytail/prior=41.0"} <= set(names)
    # a PolyTail subclass, which no C loop of its own steps, below 40 and across it
    assert {"ell_star/polytail-subclass/prior=0.0", "ell_star/polytail-subclass/prior=39.5"} <= set(names)
    # the rate-target path held in cell -cut, started in the cell above it, and a long one
    assert {"ell_star/ratetarget/prior=-5000.0", "ell_star/ratetarget/prior=-4999.5",
            "ell_star/ratetarget/long"} <= set(names)
    # a Gaussian scale 2/sigma that rounds its draws, seen by the aggregates
    # only through actions and by the baseline sums in every bit
    assert {f"run_trials/gaussian-sigma0.7/theta={s}" for s in ("+1", "-1")} <= set(names)
    assert "run_trials/gaussian-sigma0.7/multi-batch" in names
    # a subclass of the Gaussian model, whose passes take the Python step
    assert {f"run_trials/gaussian-subclass/theta={s}" for s in ("+1", "-1")} <= set(names)
    # many quiet chunks, checkpoints inside them
    assert {"run_trials/gaussian/long", "run_trials/polytail/long"} <= set(names)
    assert {f"baseline/gaussian-sigma0.7/theta={s}" for s in ("+1", "-1")} <= set(names)
    # inversion draws and the streams' continuation across time chunks, in every bit
    for family in ("polytail", "ratetarget"):
        assert {f"baseline/{family}/theta={s}" for s in ("+1", "-1")} <= set(names)
    # 13 trials' sums over two time chunks, stacked into one array
    for family in (*families, "gaussian-sigma0.7"):
        assert {f"baseline_batch/{family}/theta={s}" for s in ("+1", "-1")} <= set(names)
    # the growth ODE's steps, values and dense output, by one call and by a call per point
    assert {f"ode/{eq}/{part}" for eq in ("gaussian", "exponential-tail", "polynomial-tail")
            for part in ("t_grid", "f_values", "dense/one-call", "dense/call-per-point")} <= set(names)
    for name in ("exp_neg", "two_exp_neg", "exp_neg_paired"):  # criterion 04's increments
        assert f"recurrence/{name}" in names
    assert sorted({n.split("/")[1] for n in names if n.startswith("cli/")}) == sorted(EXPERIMENTS)
    assert "cli/upset-tail/trajectories.csv" in names  # the dump's bytes


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(wall, rss, failed=0):
    return {"correct": failed == 0, "attempted": 14, "failed": failed,
            "metrics": {"wall_ref_s": {"value": wall, "unit": "s"},
                        "peak_rss_mib": {"value": rss, "unit": "MiB"}}}


def test_bench_pairs_summarizes_pairs_in_the_bench_layout():
    bench = _bench_pairs()
    stdout = 'perfbench noise\n{"environment": {}}\n' + json.dumps(_result(0.5, 100.0)) + "\n"
    assert bench.result_line(stdout) == _result(0.5, 100.0)
    parent = [0.50, 0.52, 0.48, 0.51, 0.49, 0.53]
    change = [0.40, 0.41, 0.50, 0.39, 0.42, 0.40]
    pairs = [(_result(p, 100.0 + i), _result(c, 100.0, failed=i == 2))
             for i, (p, c) in enumerate(zip(parent, change))]
    got = bench.summarize(pairs, {"wall_ref_s": "lower", "peak_rss_mib": "lower"})
    assert got["pairs"] == 6 and got["failed"] == {"parent": 0, "change": 1}
    wall = got["wall_ref_s"]
    assert wall["parent"] == parent and wall["change"] == change
    assert wall["median_parent"] == 0.505 and wall["median_change"] == 0.405
    assert wall["change_better_pairs"] == 5  # 0.50 against 0.48 is the one loss
    assert wall["parent_iqr"] == 0.035  # statistics.quantiles' exclusive quartiles, 0.4875 and 0.5225
    assert wall["rel"] == round(0.405 / 0.505 - 1.0, 4)
    assert got["peak_rss_mib"]["change_better_pairs"] == 5  # equal in pair 0 is no win
    higher = bench.summarize(pairs, {"wall_ref_s": "higher"})["wall_ref_s"]
    assert higher["change_better_pairs"] == 1
    assert bench.claim_result(got, "wall_ref_s").startswith("not met")  # 5 of 6 pairs
    pairs[2] = (_result(0.48, 100.0), _result(0.47, 100.0))
    assert bench.claim_result(bench.summarize(pairs, {"wall_ref_s": "lower"}),
                              "wall_ref_s").startswith("met: median 0.505 -> 0.405")
    # each run's record adds the median unscaled repetition time and the failed
    # fraction of the environment line, and rep_wall_s is summarised as a metric
    env = {"environment": {"rep_wall_s": [0.61, 0.58, 0.7, 0.6], "failed_frac": 0.25}}
    record = bench.run_record(f"perfbench noise\n{json.dumps(env)}\n{json.dumps(_result(0.5, 100.0))}\n")
    assert record == {**_result(0.5, 100.0), "rep_wall_s": 0.605, "failed_frac": 0.25}
    records = [({**p, "rep_wall_s": 0.6}, {**c, "rep_wall_s": 0.7 - 0.2 * (i != 2)})
               for i, (p, c) in enumerate(pairs)]
    reps = bench.summarize(records, {"rep_wall_s": "lower"})["rep_wall_s"]
    assert reps["parent"] == [0.6] * 6 and reps["change"] == [0.5, 0.5, 0.7, 0.5, 0.5, 0.5]
    assert reps["change_better_pairs"] == 5 and reps["median_change"] == 0.5


def test_bench_pairs_parses_criterion_lines():
    log = "\n".join([
        "tests/test_acceptance.py criterion 05: FAIL (1.2s) final ratio 1.1237",
        "criterion 08: FAIL (80.4s) pt change 0.0000, gauss growth 0.000",
        "criterion 12: PASS (3.0s)",
        "criterion 9: PASS (1.0s)",  # not two digits: no criterion line
        "4 failed, 600 passed",
    ])
    assert _bench_pairs().parse_criteria(log) == {
        "05": {"verdict": "FAIL", "s": 1.2, "detail": "final ratio 1.1237"},
        "08": {"verdict": "FAIL", "s": 80.4, "detail": "pt change 0.0000, gauss growth 0.000"},
        "12": {"verdict": "PASS", "s": 3.0, "detail": ""},
    }


def test_bench_pairs_records_the_cpus_the_fill_may_use():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no affinity mask on this platform")
    got = _bench_pairs().machine()
    assert (got["cpu_count"], got["cpu_affinity"]) == (os.cpu_count(), len(os.sched_getaffinity(0)))


def test_bench_pairs_records_no_affinity_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _bench_pairs().machine()["cpu_affinity"] is None
