"""herdsim benchmark: one command, three workloads, results checked.

    python3 perfbench/run.py --workload {mc-long,exact-paths,cli-suite} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run it from the root of a herdsim checkout; it imports the package from
``src/`` of that checkout and exits with code 2 if there is none.  With
``--trace 0`` it sets the workload up several times (``setup_s`` is their
median), then repeats the workload body for about ``--seconds`` seconds
and reports the end-to-end metrics as medians over the repetitions.  The
body's times are scaled to a reference machine speed by a calibration
kernel timed around and during every operation (see calibrate.py).  With
``--trace 1`` it runs the body once plainly and once with every herdsim
layer wrapped in spans, then runs the layer probes, and reports the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``, where ``failed`` counts
operations that raised or failed their output check; the line before it
records the environment.  ``--smoke`` shrinks every input, for the
benchmark's own tests.
"""

import os

# Pinned before numpy is imported anywhere in this process or its children.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 5  # one in this process, the rest in fresh interpreters
SUBPROCESS_TIMEOUT_S = 120
TRACE_PAIRS = 2  # plain + traced repetitions in a traced run

import setup_probe  # stdlib only at import time, so the timed set-up starts cold


@dataclass
class Rep:
    wall: float
    cpu: float
    ops: int
    failures: dict = field(default_factory=dict)  # operation -> problems
    wall_ref: float = 0.0  # wall and CPU time scaled to the reference speed
    cpu_ref: float = 0.0
    kernel_s: list = field(default_factory=list)  # calibration readings


def run_rep(wl, sample: bool = True) -> Rep:
    """Time one repetition of the workload body, then check its outputs.

    Each operation is timed on its own and scaled by the machine's speed
    around and, with ``sample``, during it (see calibrate.py).
    """
    import calibrate  # numpy-based, so imported only after the timed set-up

    ops = wl.operations()
    gc.collect()
    outputs, raised = {}, {}
    rep = Rep(0.0, 0.0, len(ops))
    before = calibrate.reading()
    rep.kernel_s.append(before)
    for name, fn in ops:
        sampler = calibrate.Sampler()
        with sampler if sample else contextlib.nullcontext():
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                outputs[name] = fn()
            except Exception as exc:  # counted as a failed operation
                raised[name] = exc
        wall = time.perf_counter() - w0 - sampler.wall_s
        cpu = time.process_time() - c0 - sampler.cpu_s
        after = calibrate.reading()
        readings = [before, after] + sampler.readings
        scale = calibrate.REFERENCE_S / statistics.median(readings)
        rep.wall += wall
        rep.cpu += cpu
        rep.wall_ref += wall * scale
        rep.cpu_ref += cpu * scale
        rep.kernel_s += readings[1:]
        before = after

    for name, exc in raised.items():
        traceback.print_exception(exc, file=sys.stderr)
        rep.failures[name] = [f"raised {type(exc).__name__}: {exc}"]
    for name, output in outputs.items():
        try:
            problems = wl.check_op(name, output, outputs)
        except Exception as exc:  # a check that cannot read the output fails it
            traceback.print_exception(exc, file=sys.stderr)
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            rep.failures[name] = problems
    for name, problems in rep.failures.items():
        print(f"perfbench: {wl.name}/{name} failed: {'; '.join(problems)}", file=sys.stderr)
    return rep


def measure(wl, seconds: float, max_reps: int) -> list:
    """Repeat the body until the next repetition would overrun ``seconds``."""
    reps = []
    start = time.perf_counter()
    while len(reps) < max_reps:
        t0 = time.perf_counter()
        reps.append(run_rep(wl))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    return reps


def setup_in_fresh_interpreter(args, workdir: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), args.workload, str(args.seed), workdir]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_head(root: str):
    """The commit checked out at ``root``, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "herdsim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_head(ROOT),
        "source_sha256": _source_sha256(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("mc-long", "exact-paths", "cli-suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(args, spec: dict, workdir: str) -> tuple[dict, dict]:
    """Set up, measure and check; return (result line, environment record)."""
    setups = []
    timings, wl = setup_probe.timed_setup(args.workload, args.seed, args.smoke, os.path.join(workdir, "setup0"))
    setups.append(timings)
    import herdsim

    if os.path.realpath(os.path.dirname(herdsim.__file__)) != os.path.realpath(os.path.join(SRC, "herdsim")):
        raise RuntimeError(f"imported herdsim from {herdsim.__file__}, not from {SRC}")
    for i in range(1, SETUP_SAMPLES):
        setups.append(setup_in_fresh_interpreter(args, os.path.join(workdir, f"setup{i}")))

    def setup_median(key):
        return statistics.median(s[key] for s in setups)

    import workloads

    if args.trace:
        import probes
        import tracer

        # Plain and traced repetitions alternate, so slow drift of the
        # machine's speed does not show up as tracing overhead.
        plain, traced, layers = [], [], []
        for _ in range(TRACE_PAIRS):
            plain.append(run_rep(wl, sample=False))
            tr = tracer.Tracer()
            tracer.install(tr, herdsim)
            try:
                traced.append(run_rep(wl, sample=False))
            finally:
                tr.restore()
            layers.append(tracer.layer_metrics(tr.spans, workloads.EXPERIMENTS))
        reps = plain + traced
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics.update(probes.run_probes(wl.models, workloads.rate_target_q, args.smoke))
        metrics["signal_models.build_s.polytail"] = setup_median("build_s.polytail")
        metrics["signal_models.build_s.ratetarget"] = setup_median("build_s.ratetarget")
        metrics["cli.import_s"] = setup_median("import_s")
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain)
        )
        metrics["raw.wall_s"] = statistics.median(r.wall for r in plain)
        metrics["raw.cpu_s"] = statistics.median(r.cpu for r in plain)
        metrics["machine.kernel_ms"] = 1e3 * statistics.median(k for r in reps for k in r.kernel_s)
        wanted = spec["per_layer"]
    else:
        reps = measure(wl, args.seconds, workloads.MAX_REPS)
        metrics = {
            "wall_ref_s": statistics.median(r.wall_ref for r in reps),
            "cpu_ref_s": statistics.median(r.cpu_ref for r in reps),
            "setup_s": setup_median("setup_s"),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]

    attempted = sum(r.ops for r in reps)
    failed = sum(len(r.failures) for r in reps)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    env = environment(args)
    env.update(
        failed_frac=failed / attempted,
        reps=len(reps),
        rep_wall_s=[r.wall for r in reps],
        rep_wall_ref_s=[r.wall_ref for r in reps],
        kernel_ms=1e3 * statistics.median(k for r in reps for k in r.kernel_s),
        setup_samples=setups,
        failures={name: p for r in reps for name, p in r.failures.items()},
    )
    return result, env


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "herdsim", "__init__.py")):
        print(f"perfbench: no herdsim package under {SRC}; run from a herdsim checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        result, env = run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
