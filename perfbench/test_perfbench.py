"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench -q

Each workload runs plainly and traced and reports every metric that
BENCHMARK.json names, with its unit; a wrong output injected into each
workload is counted as a failed operation; and the command refuses to run
where there is no herdsim source tree.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _result(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_follows_the_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_reports_end_to_end_metrics(workload):
    result = _result(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_per_layer_metrics(workload):
    result = _result(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert all(math.isfinite(v["value"]) for v in metrics.values())
    if workload == "mc-long":
        for fam in ("gaussian", "polytail"):
            base = f"montecarlo.run_trials.ns_per_trial_step.{fam}"
            parts = sum(metrics[f"{base}.{p}"]["value"] for p in ("sampling", "increment", "rb_weight", "loop_self"))
            assert parts == pytest.approx(metrics[base]["value"], rel=1e-9)
            assert metrics[f"{base}.sampling"]["value"] > 0
        assert metrics["montecarlo.trial_steps"]["value"] > 0
    if workload == "cli-suite":
        for exp in workloads.EXPERIMENTS:
            assert metrics[f"experiments.run_experiment.s.{exp}"]["value"] > 0
        assert metrics["montecarlo.simulate_trajectory.calls"]["value"] == 100


def _models():
    return workloads.build_models()[0]


def _corrupt_first_mistake(monkeypatch):
    # Simulating a noisier model than the one asked for about doubles the
    # first mistakes at t=1, far outside the bands of the exact law.
    from herdsim import GaussianSignalModel, montecarlo

    original = montecarlo.run_trials
    monkeypatch.setattr(
        montecarlo, "run_trials",
        lambda model, *a, **k: original(GaussianSignalModel(sigma=2.0), *a, **k),
    )


def _corrupt_path(monkeypatch):
    from herdsim import belief

    original = belief.ell_star_path
    monkeypatch.setattr(
        belief, "ell_star_path",
        lambda *a, **k: belief.EllStarPath(values=original(*a, **k).values * 1.05),
    )


def _corrupt_checksum(monkeypatch):
    from herdsim import experiments

    original = experiments.emit_outputs

    def emit(files, output_dir):
        sums = original(files, output_dir)
        return {name: "0" * 64 for name in sums}

    monkeypatch.setattr(experiments, "emit_outputs", emit)


@pytest.mark.parametrize("workload, corrupt", [
    ("mc-long", _corrupt_first_mistake),
    ("exact-paths", _corrupt_path),
    ("cli-suite", _corrupt_checksum),
])
def test_wrong_output_counts_as_failed(workload, corrupt, monkeypatch, tmp_path):
    wl = workloads.WORKLOADS[workload](5, True, _models(), str(tmp_path))
    assert not run.run_rep(wl).failures
    corrupt(monkeypatch)
    assert run.run_rep(wl).failures


def test_sampler_reads_during_an_operation_and_restores_the_handler():
    import signal
    import time

    import calibrate

    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as sampler:
        end = time.perf_counter() + 5 * calibrate.INTERVAL_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(sampler.readings) >= 2
    assert 0 < sampler.wall_s < 5 * calibrate.INTERVAL_S
    assert signal.getsignal(signal.SIGALRM) is previous


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
