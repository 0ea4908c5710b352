"""Run the benchmark in alternating parent/change pairs and write one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent <checkout> --change <checkout> --out BENCH_<n>.json \\
        [--pairs mc-long=10 --pairs cli-suite=6 ...] [--seconds 20] [--seed 2001] \\
        [--claim mc-long:wall_ref_s] [--criteria-log parent=<log> ...] [--note key=text ...]

Pair i of a workload runs ``perfbench/run.py --workload W --seed <seed + i>
--seconds S --trace 0`` once in each checkout; the side that runs first
alternates from pair to pair.  Each checkout gets its own ``XDG_CACHE_HOME``
in a temporary directory, so neither side's compiled library replaces the
other's.  The file records the machine, every run's result line with the
median unscaled repetition wall time (``rep_wall_s``, which the calibration
scaling of ``wall_ref_s`` cannot hide a helper thread's time from) and the
failed fraction of the environment line before it, and per workload and
end-to-end metric, and for ``rep_wall_s``, both sides' values, their
medians, the parent's interquartile range and in how many pairs the change
was better, plus the failed operations of each side.  ``--criteria-log`` parses the
``criterion NN: PASS|FAIL (X.Xs) ...`` lines of saved tier-1 logs, and
``--note`` adds a top-level text field.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
CRITERION = re.compile(r"criterion (\d\d): (PASS|FAIL) \((\d+(?:\.\d+)?)s\) ?(.*)")


def machine() -> dict:
    """The CPU count, platform and the Python, numpy, scipy and gcc versions."""
    import numpy
    import scipy

    gcc = subprocess.run(["gcc", "--version"], capture_output=True, text=True).stdout
    return {"cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "gcc": gcc.splitlines()[0] if gcc else None}


def result_line(stdout: str) -> dict:
    """The result, the last line of a benchmark run's standard output."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_record(stdout: str) -> dict:
    """The result line, with ``rep_wall_s`` (the median of the repetitions' unscaled wall
    times) and ``failed_frac`` from the environment line before it."""
    env = json.loads(stdout.strip().splitlines()[-2])["environment"]
    return {**result_line(stdout), "rep_wall_s": round(statistics.median(env["rep_wall_s"]), 4),
            "failed_frac": env["failed_frac"]}


def value(result: dict, name: str) -> float:
    """A run's end-to-end metric ``name``, or its record's own field (``rep_wall_s``)."""
    return result[name] if name in result else result["metrics"][name]["value"]


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric, both sides' values in pair order, medians, the parent's IQR and wins.

    ``pairs`` holds (parent result, change result); ``better`` maps each
    metric to "lower" or "higher".
    """
    out = {"pairs": len(pairs),
           "failed": {side: sum(p[i]["failed"] for p in pairs) for i, side in enumerate(SIDES)}}
    for name, direction in better.items():
        got = {side: [round(value(p[i], name), 4) for p in pairs]
               for i, side in enumerate(SIDES)}
        sign = 1.0 if direction == "lower" else -1.0
        quart = statistics.quantiles(got["parent"], n=4) if len(pairs) > 1 else [0.0, 0.0, 0.0]
        mid = {side: statistics.median(got[side]) for side in SIDES}
        out[name] = {
            **got, "median_parent": round(mid["parent"], 4), "median_change": round(mid["change"], 4),
            "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(got["parent"], got["change"])),
            "parent_iqr": round(quart[2] - quart[0], 4),
            "rel": round(mid["change"] / mid["parent"] - 1.0, 4),
        }
    return out


def claim_result(summary: dict, metric: str) -> str:
    """Whether the change beat the parent on ``metric`` in the median by more than its IQR."""
    m = summary[metric]
    gap = m["median_parent"] - m["median_change"]
    met = gap > m["parent_iqr"] and m["change_better_pairs"] >= 0.9 * summary["pairs"]
    return (f"{'met' if met else 'not met'}: median {m['median_parent']} -> {m['median_change']} "
            f"({m['rel']:+.1%}), the change better in {m['change_better_pairs']} of "
            f"{summary['pairs']} pairs; the gap {gap:.4f} against the parent's IQR {m['parent_iqr']}")


def parse_criteria(text: str) -> dict:
    """``criterion NN`` -> its verdict, seconds and printed detail, from a tier-1 log."""
    found = {}
    for line in text.splitlines():
        match = CRITERION.search(line)
        if match:
            found[match[1]] = {"verdict": match[2], "s": float(match[3]), "detail": match[4].strip()}
    return found


def run_side(checkout: str, cache: str, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, XDG_CACHE_HOME=cache)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    )
    return run_record(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--pairs", action="append", default=[], help="WORKLOAD=N")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--claim", help="WORKLOAD:METRIC")
    parser.add_argument("--criteria-log", action="append", default=[], help="SIDE=PATH")
    parser.add_argument("--note", action="append", default=[], help="KEY=TEXT")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    plan = [(w, int(n)) for w, n in (p.split("=") for p in args.pairs or
                                     ["mc-long=10", "cli-suite=6", "exact-paths=6"])]
    doc = {key: text for key, text in (n.split("=", 1) for n in args.note)}
    shown = " ".join(["tools/bench_pairs.py", *(argv or sys.argv[1:])])
    doc.update(command=re.sub(r"/(?:[^\s/=]+/)+", "", shown),  # paths by their last part
               machine=machine(), pairs={}, runs=[])
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, n in plan:
            pairs = []
            for i in range(n):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                got = {side: run_side(checkouts[side], os.path.join(tmp, side), workload,
                                      args.seed + i, args.seconds) for side in order}
                pairs.append((got["parent"], got["change"]))
                doc["runs"].append({"workload": workload, "seed": args.seed + i, "first": order[0], **got})
                print(workload, i, [got[s]["metrics"]["wall_ref_s"]["value"] for s in SIDES], file=sys.stderr)
            doc["pairs"][workload] = summarize(pairs, {**better, "rep_wall_s": "lower"})
    if args.claim:
        workload, metric = args.claim.split(":")
        doc["claim"], doc["claim_result"] = args.claim, claim_result(doc["pairs"][workload], metric)
    for item in args.criteria_log:
        side, path = item.split("=", 1)
        with open(path) as fh:
            doc.setdefault("criteria", {}).setdefault(side, []).append(parse_criteria(fh.read()))
    with open(args.out, "w") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
