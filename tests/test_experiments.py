"""Config parsing, experiment artifacts, reproducibility, and CLI exit codes."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

from herdsim import _native, belief, experiments, montecarlo
from herdsim.cli import main as cli_main
from herdsim.signal_models import NumericalFailure, StateOfWorld, build_rate_target
from herdsim.experiments import (
    EXPERIMENT_NAMES,
    ConfigError,
    emit_outputs,
    parse_config,
    run_experiment,
)

PLUS = StateOfWorld.PLUS
GAUSS = {"family": "gaussian", "sigma": 2.0}
POLY = {"family": "polytail", "k": 2.0}
Q_TABLE = [1.0 / (n + 2.0) for n in range(-1, 41)]
RATE = {"family": "ratetarget", "q_table": Q_TABLE}


def make_config(**over):
    doc = {"experiment": "gauss-rate", "model": GAUSS, "horizon": 100}
    doc.update(over)
    return json.dumps(doc)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(make_config())
        assert cfg.trials == 1
        assert cfg.master_seed == 0
        assert cfg.prior == 0.5
        assert cfg.prior_llr == 0.0
        assert cfg.threads == 1
        assert cfg.checkpoints is None
        assert cfg.checkpoint_times()[0] == 1
        assert cfg.checkpoint_times()[-1] == 100

    @pytest.mark.parametrize(
        "over,needle",
        [
            ({"experiment": "nope"}, "experiment"),
            ({"horizon": 0}, "horizon"),
            ({"horizon": "big"}, "horizon"),
            ({"trials": -3}, "trials"),
            # the upset-tail fit needs bins of 50 trials
            ({"experiment": "upset-tail", "trials": 49}, "trials"),
            ({"prior": 1.5}, "prior"),
            ({"master_seed": -1}, "master_seed"),
            ({"threads": 0}, "threads"),
            ({"checkpoints": [0, 5]}, "checkpoints"),
            ({"checkpoints": [5, 101]}, "checkpoints"),
            ({"model": {"nofamily": 1}}, "model"),
            ({"model": {"family": "gaussian", "sigma": -2.0}}, "model"),
            ({"model": {"family": "ratetarget"}}, "q_table"),
            ({"typo_key": 1}, "typo_key"),
            # JSON true is an int to Python; no integer field may take it
            ({"horizon": True}, "horizon"),
            ({"trials": True}, "trials"),
            ({"master_seed": True}, "master_seed"),
            ({"threads": True}, "threads"),
            ({"checkpoints": [True, 5]}, "checkpoints"),
            ({"output_dir": 7}, "output_dir"),
            ({"dump_trajectories": "no"}, "dump_trajectories"),
            # an empty grid would leave the CSVs without rows and alias the default hash
            ({"checkpoints": []}, "checkpoints"),
            ({"model": POLY}, "model.family"),
            ({"experiment": "rate-target"}, "model.family"),
            # JSON true is a number to Python; no model parameter may take it
            ({"model": {"family": "gaussian", "sigma": True}}, "model.sigma"),
            ({"experiment": "time-to-learn", "model": dict(POLY, k=True)}, "model.k"),
            ({"experiment": "ode-check", "model": {"family": "synthetic", "tail": "polynomial",
                                                   "k": True}}, "model.k"),
            ({"experiment": "rate-target", "model": dict(RATE, cutoff_mass=True)},
             "model.cutoff_mass"),
            ({"experiment": "rate-target", "model": dict(RATE, q_table=[1.0, True, 0.25])},
             "model.q_table"),
            ({"experiment": "rate-target", "model": dict(RATE, q_table=[1.0, math.nan, 0.25])},
             "model.q_table"),
            ({"experiment": "rate-target", "model": dict(RATE, q_table=[math.inf, 0.5, 0.25])},
             "model.q_table"),
            # no checkpoint at which the ratio is defined: ratio.csv would be empty
            ({"checkpoints": [1]}, "checkpoints"),
            ({"horizon": 1}, "checkpoints"),
            ({"experiment": "rate-target", "model": RATE, "checkpoints": [1, 2]}, "checkpoints"),
            # a key the family does not take would be ignored: refused, not dropped
            ({"model": {"family": "gaussian", "sigma": 1.0, "sgima": 3}}, "model.sgima:"),
            # a polytail law with k <= 1 has no mean LLR for baseline-compare to read
            ({"experiment": "baseline-compare", "model": dict(POLY, k=1.0)}, "model.k"),
        ],
    )
    def test_errors_name_the_key(self, over, needle):
        with pytest.raises(ConfigError) as err:
            parse_config(make_config(**over))
        assert needle in str(err.value)

    def test_not_json(self):
        with pytest.raises(ConfigError):
            parse_config("{nope")
        with pytest.raises(ConfigError):
            parse_config("[1, 2]")

    def test_synthetic_only_for_ode_check(self):
        with pytest.raises(ConfigError):
            parse_config(make_config(model={"family": "synthetic", "tail": "exponential"}))
        cfg = parse_config(
            make_config(
                experiment="ode-check",
                model={"family": "synthetic", "tail": "exponential"},
            )
        )
        assert cfg.model["tail"] == "exponential"

    def test_overrides_are_validated_like_keys(self):
        cfg = parse_config(make_config(master_seed=4), master_seed=None, threads=3)
        assert (cfg.master_seed, cfg.threads) == (4, 3)
        assert parse_config(make_config(), dump_trajectories=True).dump_trajectories
        for key, value in (("master_seed", -1), ("threads", 0), ("output_dir", 5)):
            with pytest.raises(ConfigError, match=key):
                parse_config(make_config(), **{key: value})

    def test_checkpoints_sorted_deduped(self):
        cfg = parse_config(make_config(checkpoints=[50, 10, 50, 1]))
        assert cfg.checkpoints == (1, 10, 50)


def _cfg(tmp_path, name, **over):
    doc = {
        "experiment": name,
        "model": GAUSS,
        "horizon": 60,
        "trials": 40,
        "master_seed": 11,
        "output_dir": str(tmp_path / name),
    }
    doc.update(over)
    return parse_config(json.dumps(doc))


class TestExperiments:
    EXPECTED_FILES = {
        "gauss-rate": ["ratio.csv"],
        "first-mistake": ["first_mistake.csv", "t1.csv"],
        "time-to-learn": ["ttl.csv"],
        "upset-tail": ["upsets.csv", "runs.csv"],
        "rate-target": ["ratio.csv"],
        "mistake-curve": ["mistakes.csv"],
        "baseline-compare": ["baseline.csv"],
        "ode-check": ["ode_check.csv"],
    }

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_each_experiment_runs_and_writes(self, tmp_path, name):
        over = {}
        if name == "rate-target":
            over["model"] = RATE
        elif name == "upset-tail":
            over["trials"] = 400
        elif name == "ode-check":
            over["model"] = POLY
            over["horizon"] = 1000
        manifest = run_experiment(_cfg(tmp_path, name, **over))
        out = tmp_path / name
        for fname in self.EXPECTED_FILES[name]:
            path = out / fname
            assert path.exists(), fname
            assert fname in manifest.files
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert manifest.files[fname] == digest
        assert (out / "manifest.json").exists()
        rows = read_csv(out / self.EXPECTED_FILES[name][0])
        assert len(rows) >= 2  # header + data

    def test_manifest_json_is_the_deep_copy_form(self, tmp_path):
        # to_json reads the fields without dataclasses.asdict's deep copy of
        # the config (here a q_table of 2002 entries); the bytes are the same
        q_table = [1.0 / (n + 2.0) for n in range(-1, 2001)]
        manifest = run_experiment(_cfg(tmp_path, "rate-target", horizon=40, trials=8,
                                       model={"family": "ratetarget", "q_table": q_table}))
        deep = json.dumps(dataclasses.asdict(manifest), indent=2, sort_keys=True) + "\n"
        assert manifest.to_json() == deep
        assert (tmp_path / "rate-target" / "manifest.json").read_text() == deep
        assert len(manifest.config["model"]["q_table"]) == 2002

    def test_manifest_records_the_environment_outside_the_summary(self, tmp_path):
        manifest = run_experiment(_cfg(tmp_path, "gauss-rate"))
        doc = json.loads((tmp_path / "gauss-rate" / "manifest.json").read_text())
        assert doc["environment"] == manifest.environment
        assert "environment" not in doc["summary"]
        env = manifest.environment
        assert (env["herdsim"], env["python"], env["numpy"], env["scipy"], env["cpu_count"]) == (
            "0.1.0", platform.python_version(), np.__version__, scipy.__version__, os.cpu_count())
        assert env["numpy_cpu_baseline"] and all(isinstance(name, str) for name in env["numpy_cpu_baseline"])
        assert all(isinstance(name, str) for name in env["numpy_cpu_dispatch"])

    def test_manifest_records_the_fill_threads_beside_the_cpu_count(self, tmp_path, monkeypatch):
        big = dict(trials=4096, horizon=100)  # chunks of 4096 x 100 draws: up to 6 threads of 2**16
        env = run_experiment(_cfg(tmp_path / "here", "first-mistake", **big)).environment
        split = _native.has_fill(_native.library())
        assert env["fill_threads"] == (_native.fill_cpus() if split else 1)
        assert list(env).index("fill_threads") == list(env).index("cpu_count") + 1
        monkeypatch.setattr(_native, "fill_cpus", lambda: 5)
        again = run_experiment(_cfg(tmp_path / "five", "first-mistake", **big))
        assert again.environment["fill_threads"] == (5 if split else 1)
        files = lambda out: {f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"}
        assert files(tmp_path / "five" / "first-mistake") == files(tmp_path / "here" / "first-mistake")

    def test_a_disabled_cpu_target_leaves_the_environment_and_not_the_csv(self, tmp_path):
        # numpy reads NPY_DISABLE_CPU_FEATURES at import, so the run is a new process
        target = "AVX512_SPR"
        if target not in experiments._environment()["numpy_cpu_dispatch"]:
            pytest.skip(f"numpy does not dispatch to {target} on this host")
        cfg = {"experiment": "gauss-rate", "model": GAUSS, "horizon": 200, "master_seed": 11}
        runs = {}
        for name, env in (("here", {}), ("disabled", {"NPY_DISABLE_CPU_FEATURES": target})):
            out = tmp_path / name
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**cfg, "output_dir": str(out)}))
            done = subprocess.run(
                [sys.executable, "-m", "herdsim.cli", "run", str(path)],
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env},
                capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr[-2000:]
            runs[name] = json.loads((out / "manifest.json").read_text())
        assert target in runs["here"]["environment"]["numpy_cpu_dispatch"]
        assert target not in runs["disabled"]["environment"]["numpy_cpu_dispatch"]
        assert runs["disabled"]["files"] == runs["here"]["files"]

    def test_baseline_compare_rows_are_exact(self, tmp_path):
        # the signals side is t E+[L] = t/2 at sigma = 2, whatever the trials
        cfg = _cfg(tmp_path, "baseline-compare", prior=0.3, checkpoints=[1, 7, 60])
        path = belief.ell_star_path(experiments.model_from_dict(GAUSS), cfg.horizon, cfg.prior_llr)
        want = experiments._csv_text(
            ["t", "ell_star", "mean_ell_tilde", "ratio"],
            [(t, path.values[t - 1], 0.5 * t, path.values[t - 1] / (0.5 * t)) for t in (1, 7, 60)],
        )
        manifest = run_experiment(cfg)
        assert (tmp_path / "baseline-compare" / "baseline.csv").read_text() == want
        assert manifest.summary["final_per_step"] == 0.5
        other = run_experiment(dataclasses.replace(cfg, trials=1, output_dir=str(tmp_path / "one")))
        assert other.files == manifest.files

    def test_baseline_compare_names_the_support_cut_that_sets_a_rate_target_mean(self, tmp_path):
        # for Q(n) = 1/log(n + 2 + e), sum n dq(n) diverges: E+[L] is the truncated table's, and
        # grows with the cut, which the summary names
        summaries = []
        for cut in (2000, 20000):
            table = [1.0 / math.log(n + 2.0 + math.e) for n in range(-1, cut + 1)]
            model = {"family": "ratetarget", "q_table": table}
            cfg = _cfg(tmp_path, "baseline-compare", model=model, output_dir=str(tmp_path / str(cut)))
            summary = run_experiment(cfg).summary
            assert summary == {"final_per_step": build_rate_target(table).llr_mean(PLUS), "support_cut": cut}
            summaries.append(summary)
        assert 3.0 * summaries[0]["final_per_step"] < summaries[1]["final_per_step"]
        assert set(run_experiment(_cfg(tmp_path, "baseline-compare")).summary) == {"final_per_step"}

    def test_gauss_rate_rejects_other_models(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(_cfg(tmp_path, "gauss-rate", model=POLY))

    def test_first_mistake_exact_column(self, tmp_path):
        run_experiment(_cfg(tmp_path, "first-mistake", trials=1))
        rows = read_csv(tmp_path / "first-mistake" / "first_mistake.csv")
        assert rows[0] == ["t", "ell_star", "p_first_mistake", "log10_p", "survivor_mass_running"]
        assert len(rows) == 1 + 60  # one row per agent up to the horizon
        # t=1 row: P(T1=1) = Phi(-1/2) for sigma=2
        assert float(rows[1][2]) == pytest.approx(0.308537538725986896, rel=1e-12)
        # empirical column is NaN with a single trial
        t1 = read_csv(tmp_path / "first-mistake" / "t1.csv")
        assert t1[1][1] == "nan"

    def test_first_mistake_survivor_column_is_exact(self, tmp_path):
        # at prior 1e-9, 1 - cumsum(pmf) cancels to 0.0; the exact value is 3.17e-21
        cfg = _cfg(
            tmp_path, "first-mistake", model={"family": "gaussian", "sigma": 1.0},
            horizon=200, trials=1, prior=1e-9,
        )
        manifest = run_experiment(cfg)
        rows = read_csv(tmp_path / "first-mistake" / "first_mistake.csv")
        assert float(rows[-1][4]) == pytest.approx(3.1741267904184383e-21, rel=1e-12)
        assert float(rows[-1][4]) == manifest.summary["survivor_mass"]

    def test_dump_trajectories(self, tmp_path):
        cfg = _cfg(tmp_path, "mistake-curve", trials=3, dump_trajectories=True)
        manifest = run_experiment(cfg)
        assert "trajectories.csv" in manifest.files
        rows = read_csv(tmp_path / "mistake-curve" / "trajectories.csv")
        assert rows[0] == ["trial", "t", "action"]
        assert len(rows) == 1 + 3 * 60
        assert set(r[2] for r in rows[1:]) <= {"-1", "1"}

    def test_synthetic_ode_check_hits_tolerance(self, tmp_path):
        cfg = _cfg(
            tmp_path,
            "ode-check",
            model={"family": "synthetic", "tail": "exponential"},
            horizon=10**6,
            trials=1,
        )
        manifest = run_experiment(cfg)
        assert manifest.summary["max_rel_err"] < 1e-6


    def test_explicit_checkpoints_set_the_rows(self, tmp_path):
        # sorted and deduplicated; row t is the mistake before checkpoint t
        run_experiment(_cfg(tmp_path, "mistake-curve", checkpoints=[40, 3, 3, 10]))
        rows = read_csv(tmp_path / "mistake-curve" / "mistakes.csv")
        assert [r[0] for r in rows[1:]] == ["2", "9", "39"]

    def test_synthetic_polynomial_ode_check_hits_tolerance(self, tmp_path):
        cfg = _cfg(
            tmp_path, "ode-check", model={"family": "synthetic", "tail": "polynomial", "k": 2},
            horizon=1000, trials=1,
        )
        assert run_experiment(cfg).summary["max_rel_err"] < 1e-6

    def test_emit_outputs_removes_what_it_wrote_on_failure(self, tmp_path):
        (tmp_path / "b.csv").mkdir()  # the second file cannot be written
        with pytest.raises(OSError):
            emit_outputs({"a.csv": "x\n", "b.csv": "y\n", "c.csv": "z\n"}, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["b.csv"]


class TestReproducibility:
    def _digest_dir(self, d):
        out = {}
        for name in sorted(os.listdir(d)):
            if name == "manifest.json":
                continue
            out[name] = hashlib.sha256((d / name).read_bytes()).hexdigest()
        return out

    def test_identical_rerun_byte_identical(self, tmp_path):
        a = _cfg(tmp_path / "a", "mistake-curve", trials=50)
        b = _cfg(tmp_path / "b", "mistake-curve", trials=50)
        ma = run_experiment(a)
        mb = run_experiment(b)
        assert self._digest_dir(tmp_path / "a" / "mistake-curve") == self._digest_dir(
            tmp_path / "b" / "mistake-curve"
        )
        # manifests agree on everything except the wall-clock timestamps
        assert ma.files == mb.files
        assert ma.config_hash == mb.config_hash

    def test_thread_variation_byte_identical(self, tmp_path):
        a = _cfg(tmp_path / "a", "upset-tail", trials=300, threads=1)
        b = _cfg(tmp_path / "b", "upset-tail", trials=300, threads=4)
        run_experiment(a)
        run_experiment(b)
        assert self._digest_dir(tmp_path / "a" / "upset-tail") == self._digest_dir(
            tmp_path / "b" / "upset-tail"
        )

    def test_seed_changes_results(self, tmp_path):
        a = _cfg(tmp_path / "a", "mistake-curve", trials=50, master_seed=1)
        b = _cfg(tmp_path / "b", "mistake-curve", trials=50, master_seed=2)
        run_experiment(a)
        run_experiment(b)
        assert self._digest_dir(tmp_path / "a" / "mistake-curve") != self._digest_dir(
            tmp_path / "b" / "mistake-curve"
        )


class TestCli:
    def _write(self, tmp_path, doc):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_success_exit_zero(self, tmp_path, capsys):
        p = self._write(
            tmp_path,
            {
                "experiment": "gauss-rate",
                "model": GAUSS,
                "horizon": 100,
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert cli_main(["run", p]) == 0
        assert (tmp_path / "out" / "ratio.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_a_cold_run_of_every_experiment_loads_only_scipy_special(self, tmp_path):
        # scipy.special's ndtr and log_ndtr are the only scipy a run reads; the splines
        # solve their own systems and the ODE steps its own Runge-Kutta
        code = (
            "import contextlib, io, json, os, sys\n"
            "import scipy\n"
            "from herdsim import cli\n"
            "tmp = sys.argv[1]\n"
            "gauss, poly = {'family': 'gaussian', 'sigma': 2.0}, {'family': 'polytail', 'k': 2.0}\n"
            "rate = {'family': 'ratetarget', 'q_table': [1.0 / (n + 2.0) for n in range(-1, 201)]}\n"
            "runs = {'gauss-rate': gauss, 'first-mistake': gauss, 'time-to-learn': poly,\n"
            "        'upset-tail': gauss, 'rate-target': rate, 'mistake-curve': poly,\n"
            "        'baseline-compare': gauss, 'ode-check': poly}\n"
            "for name, model in runs.items():\n"
            "    path = os.path.join(tmp, name + '.json')\n"
            "    with open(path, 'w') as fh:\n"
            "        json.dump({'experiment': name, 'model': model, 'horizon': 300, 'trials': 400,\n"
            "                   'dump_trajectories': name == 'upset-tail',\n"
            "                   'output_dir': os.path.join(tmp, name)}, fh)\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(['run', path]) == 0, name\n"
            "print(sorted(n for n in scipy.submodules if 'scipy.' + n in sys.modules))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.split() == ["['special']"]
        assert len(list(tmp_path.glob("*/manifest.json"))) == 8

    def test_missing_config_exit_two(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "nope.json")]) == 2

    def test_bad_config_exit_two(self, tmp_path):
        p = self._write(tmp_path, {"experiment": "gauss-rate"})
        assert cli_main(["run", p]) == 2

    def test_overrides(self, tmp_path):
        p = self._write(
            tmp_path,
            {
                "experiment": "mistake-curve",
                "model": GAUSS,
                "horizon": 50,
                "trials": 20,
                "output_dir": str(tmp_path / "ignored"),
            },
        )
        out = tmp_path / "cli-out"
        code = cli_main(
            ["run", p, "--seed", "77", "--output-dir", str(out), "--threads", "2",
             "--dump-trajectories"]
        )
        assert code == 0
        assert (out / "mistakes.csv").exists()
        assert (out / "trajectories.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 77
        assert not (tmp_path / "ignored").exists()

    def test_nan_in_q_table_exit_two(self, tmp_path, capsys):
        # json.dump writes the NaN token, which json.loads reads back as nan
        p = self._write(
            tmp_path,
            {"experiment": "rate-target", "model": dict(RATE, q_table=[1.0, math.nan, 0.25, 0.1]),
             "horizon": 50, "output_dir": str(tmp_path / "out")},
        )
        assert "NaN" in open(p).read()
        assert cli_main(["run", p]) == 2
        assert "model.q_table" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k", [0.8, 1])
    def test_baseline_compare_without_a_mean_llr_exit_two(self, tmp_path, capsys, k):
        p = self._write(
            tmp_path,
            {"experiment": "baseline-compare", "model": dict(POLY, k=k), "horizon": 50,
             "output_dir": str(tmp_path / "out")},
        )
        assert cli_main(["run", p]) == 2
        assert "model.k" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_threads_exit_two(self, tmp_path, capsys):
        p = self._write(
            tmp_path,
            {"experiment": "gauss-rate", "model": GAUSS, "horizon": 100},
        )
        assert cli_main(["run", p, "--threads", "0"]) == 2
        assert "threads" in capsys.readouterr().err

    def test_invalid_seed_exit_two(self, tmp_path, capsys):
        p = self._write(
            tmp_path,
            {"experiment": "mistake-curve", "model": GAUSS, "horizon": 20, "trials": 5,
             "output_dir": str(tmp_path / "out")},
        )
        assert cli_main(["run", p, "--seed", "-1"]) == 2
        assert "master_seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,model,grid", [("gauss-rate", GAUSS, [1]), ("rate-target", RATE, [1, 2])]
    )
    def test_checkpoints_before_the_first_ratio_exit_two(self, tmp_path, capsys, name, model, grid):
        p = self._write(
            tmp_path,
            {"experiment": name, "model": model, "horizon": 50, "checkpoints": grid,
             "output_dir": str(tmp_path / "out")},
        )
        assert cli_main(["run", p]) == 2
        assert "checkpoints" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["gauss-rate", "mistake-curve", "baseline-compare"])
    def test_empty_checkpoints_exit_two(self, tmp_path, capsys, name):
        p = self._write(
            tmp_path,
            {"experiment": name, "model": GAUSS, "horizon": 100, "checkpoints": [],
             "output_dir": str(tmp_path / "out")},
        )
        assert cli_main(["run", p]) == 2
        assert "checkpoints" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "model,horizon",
        [(GAUSS, 5), ({"family": "synthetic", "tail": "exponential"}, 9)],
    )
    def test_ode_check_below_its_first_sample_exit_two(self, tmp_path, capsys, model, horizon):
        # its rows sample t on [10, horizon]
        p = self._write(
            tmp_path,
            {"experiment": "ode-check", "model": model, "horizon": horizon,
             "output_dir": str(tmp_path / "out")},
        )
        assert cli_main(["run", p]) == 2
        assert "horizon" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ode_check_at_its_first_sample_runs(self, tmp_path):
        p = self._write(
            tmp_path,
            {"experiment": "ode-check", "model": GAUSS, "horizon": 10,
             "output_dir": str(tmp_path / "out")},
        )
        assert cli_main(["run", p]) == 0

    def test_upset_tail_with_too_few_trials_exit_two(self, tmp_path, capsys, monkeypatch):
        # no upset count is reached by the fit's 50 trials, so none is simulated
        p = self._write(
            tmp_path,
            {"experiment": "upset-tail", "model": {"family": "gaussian", "sigma": 1.0},
             "horizon": 50, "trials": 3, "output_dir": str(tmp_path / "out")},
        )
        ran = []
        monkeypatch.setattr(montecarlo, "run_trials", lambda *a, **k: ran.append(a))
        assert cli_main(["run", p]) == 2
        assert ran == []
        assert "trials" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_upset_tail_fit_that_fails_exit_two(self, tmp_path, capsys):
        # enough trials to try the fit, but at sigma 0.3 too few upsets to fit
        p = self._write(
            tmp_path,
            {"experiment": "upset-tail", "model": {"family": "gaussian", "sigma": 0.3},
             "horizon": 50, "trials": 50, "output_dir": str(tmp_path / "out")},
        )
        assert cli_main(["run", p]) == 2
        assert "trials" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_numerical_failure_exit_three(self, tmp_path, capsys, monkeypatch):
        def failing(config, model):
            raise NumericalFailure("quadrature did not converge")

        monkeypatch.setitem(experiments._DISPATCH, "gauss-rate", failing)
        p = self._write(
            tmp_path,
            {"experiment": "gauss-rate", "model": GAUSS, "horizon": 100,
             "output_dir": str(tmp_path / "out")},
        )
        assert cli_main(["run", p]) == 3
        assert "gauss-rate: quadrature did not converge" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
