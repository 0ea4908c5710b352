"""tools/output_digests.py runs against the package in src/ and names every output once."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = [
    "gauss-rate", "first-mistake", "time-to-learn", "upset-tail",
    "rate-target", "mistake-curve", "baseline-compare", "ode-check",
]


def test_output_digests_smoke(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digests.py"), "--quick"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines), lines
    names = [line.split()[0] for line in lines]
    assert len(names) == len(set(names))
    families = ("gaussian", "polytail", "ratetarget")
    for family in families:
        for prior in ("0.0", "0.3", "2.0"):
            assert f"ell_star/{family}/prior={prior}" in names
            assert f"first_mistake/{family}/prior={prior}/pmf" in names
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
    # the rate-target path held in cell -cut, started in the cell above it, and a long one
    assert {"ell_star/ratetarget/prior=-5000.0", "ell_star/ratetarget/prior=-4999.5",
            "ell_star/ratetarget/long"} <= set(names)
    # a Gaussian scale 2/sigma that rounds its draws, seen by the aggregates
    # only through actions and by the baseline sums in every bit
    assert {f"run_trials/gaussian-sigma0.7/theta={s}" for s in ("+1", "-1")} <= set(names)
    assert "run_trials/gaussian-sigma0.7/multi-batch" in names
    assert "run_trials/gaussian/long" in names  # many quiet chunks, checkpoints inside them
    assert {f"baseline/gaussian-sigma0.7/theta={s}" for s in ("+1", "-1")} <= set(names)
    # inversion draws and the streams' continuation across time chunks, in every bit
    for family in ("polytail", "ratetarget"):
        assert {f"baseline/{family}/theta={s}" for s in ("+1", "-1")} <= set(names)
    for name in ("exp_neg", "two_exp_neg", "exp_neg_paired"):  # criterion 04's increments
        assert f"recurrence/{name}" in names
    assert sorted({n.split("/")[1] for n in names if n.startswith("cli/")}) == sorted(EXPERIMENTS)
    assert "cli/upset-tail/trajectories.csv" in names  # the dump's bytes
