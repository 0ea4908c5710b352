"""Config-driven experiments and the command-line front end.

An experiment is a JSON document naming one of eight studies, a signal
model, and run parameters.  Running it writes deterministic CSV artifacts
plus a manifest with SHA-256 checksums; the same config and seed always
reproduce the same bytes.  The CLI wraps the same runner:

    herdsim run config.json --seed 7 --output-dir out
"""

import json
import pathlib
import tempfile

from herdsim import parse_config, run_experiment
from herdsim.cli import main as herdsim_main

workdir = pathlib.Path(tempfile.mkdtemp(prefix="herdsim-demo-"))

config = {
    "experiment": "first-mistake",
    "model": {"family": "gaussian", "sigma": 2.0},
    "horizon": 200,
    "trials": 5000,
    "master_seed": 42,
    "output_dir": str(workdir / "out"),
}

manifest = run_experiment(parse_config(json.dumps(config)))
print("experiment:", manifest.config["experiment"])
print("config hash:", manifest.config_hash[:16], "...")
print("summary:", manifest.summary)
print("artifacts:")
for name, sha in manifest.files.items():
    print(f"  {name}: sha256 {sha[:16]}...")

ratio_lines = (workdir / "out" / "t1.csv").read_text().splitlines()
print("\nfirst rows of t1.csv (empirical vs exact first-mistake law):")
for line in ratio_lines[:6]:
    print(" ", line)

# The CLI entry point drives the same runner; exit code 0 means success,
# 2 a configuration problem, 3 a numerical failure.
config_path = workdir / "config.json"
config_path.write_text(json.dumps(config))
code = herdsim_main(
    ["run", str(config_path), "--output-dir", str(workdir / "cli-out"), "--seed", "42"]
)
print("\nCLI exit code:", code)

a = (workdir / "out" / "t1.csv").read_bytes()
b = (workdir / "cli-out" / "t1.csv").read_bytes()
print("CLI output byte-identical to library run:", a == b)
