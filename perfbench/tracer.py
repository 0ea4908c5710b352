"""Span recorder that times herdsim's layers from outside the package.

``install`` swaps public functions of the herdsim modules for wrappers that
record one span per call: name, start, end, the index of the enclosing span
and a few attributes read from the arguments or the result.  Nothing under
``src/`` is edited; every wrapper is undone by ``Tracer.restore``.  Spans are
kept in memory and reduced to per-layer metrics by ``layer_metrics`` once the
traced repetition has ended.

The recorder keeps one span stack, so it must only trace single-threaded
runs (``run_trials(threads=1)``).
"""

from __future__ import annotations

import inspect
import math
import time
from collections import defaultdict

FAMILIES = ("gaussian", "polytail", "ratetarget")
MC_FAMILIES = ("gaussian", "polytail")
MC_PARTS = ("sampling", "increment", "rb_weight", "loop_self")


class Tracer:
    """In-memory spans ``[name, start, end, parent_index, attrs]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, describe=None, on_result=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper; skip it if it does not exist.

        ``describe(args, kwargs)`` returns the span's attributes before the
        call; ``on_result(attrs, result)`` may add to them after it.  Both
        run outside the span's own interval.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            attrs = describe(args, kwargs) if describe is not None else {}
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(attrs, result)
            return result

        self._undo.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original, owned = self._undo.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _binder(fn):
    """Map a call's (args, kwargs) to named arguments with defaults applied."""
    sig = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def install(tracer: Tracer, herdsim) -> None:
    """Wrap the layer boundaries of herdsim that the per-layer metrics read."""
    mc, bl, asy = herdsim.montecarlo, herdsim.belief, herdsim.asymptotics
    ex, cli, sm = herdsim.experiments, herdsim.cli, herdsim.signal_models

    bind_trials = _binder(mc.run_trials)

    def run_trials_attrs(args, kwargs):
        a = bind_trials(args, kwargs)
        return {
            "family": a["model"].family,
            "horizon": int(a["horizon"]),
            "trials": int(a["trials"]),
            "batch_size": int(a.get("batch_size") or getattr(mc, "DEFAULT_BATCH_SIZE", 2048)),
        }

    def run_trials_result(attrs, result):
        agg = result[0] if isinstance(result, tuple) else result
        attrs["upsets"] = sum(int(k) * int(v) for k, v in agg.upset_hist.items())
        attrs["censored"] = int(agg.censored_count)

    tracer.wrap(mc, "run_trials", "montecarlo.run_trials", run_trials_attrs, run_trials_result)
    tracer.wrap(mc, "simulate_trajectory", "montecarlo.simulate_trajectory")
    bind_baseline = _binder(mc.simulate_baseline_llr)
    tracer.wrap(
        mc, "simulate_baseline_llr", "montecarlo.simulate_baseline_llr",
        lambda a, k: {"horizon": int(bind_baseline(a, k)["horizon"])},
    )
    # Callees of the lockstep loop, looked up in montecarlo's own namespace.
    tracer.wrap(mc, "d_plus", "belief.d_plus")
    tracer.wrap(mc, "d_minus", "belief.d_minus")
    tracer.wrap(mc, "rb_mistake_weight", "belief.rb_mistake_weight")
    tracer.wrap(mc, "_trial_rng", "montecarlo.stream_setup")
    for cls in _subclasses(sm.SignalModel):
        if "sample_llr" in vars(cls):
            tracer.wrap(cls, "sample_llr", "signal_models.sample_llr")

    bind_path = _binder(bl.ell_star_path)

    def path_attrs(args, kwargs):
        a = bind_path(args, kwargs)
        return {"family": a["model"].family, "horizon": int(a["horizon"])}

    tracer.wrap(bl, "ell_star_path", "belief.ell_star_path", path_attrs)
    tracer.wrap(bl, "first_mistake_distribution", "belief.first_mistake_distribution")
    bind_rec = _binder(asy.iterate_recurrence)
    tracer.wrap(
        asy, "iterate_recurrence", "asymptotics.iterate_recurrence",
        lambda a, k: {"horizon": int(bind_rec(a, k)["horizon"])},
    )
    tracer.wrap(asy, "solve_belief_ode", "asymptotics.solve_belief_ode")

    bind_emit = _binder(ex.emit_outputs)
    tracer.wrap(
        ex, "emit_outputs", "experiments.emit_outputs",
        lambda a, k: {
            "bytes": sum(len(t.encode()) for t in bind_emit(a, k)["files"].values())
        },
    )
    bind_run = _binder(ex.run_experiment)
    describe_run = lambda a, k: {"experiment": bind_run(a, k)["config"].experiment}
    # cli.main calls the name it imported; experiments code calls its own.
    tracer.wrap(cli, "run_experiment", "experiments.run_experiment", describe_run)
    tracer.wrap(cli, "main", "cli.main")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _dur(span) -> float:
    return span[2] - span[1]


def layer_metrics(spans: list[list], experiment_names) -> dict:
    """Reduce spans to the span-derived per-layer metrics.

    A layer that the traced workload never entered reports 0.
    """
    children = defaultdict(list)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        children[span[3]].append(i)
        by_name[span[0]].append(i)

    def child_time(i, names) -> float:
        return sum(_dur(spans[c]) for c in children[i] if spans[c][0] in names)

    def per(num, den) -> float:
        return num / den if den else 0.0

    out = {}

    # -- montecarlo: lockstep engine split and counts --------------------
    trial_steps = {f: 0 for f in MC_FAMILIES}
    parts = {f: dict.fromkeys(("total",) + MC_PARTS, 0.0) for f in MC_FAMILIES}
    lockstep_steps = increment_calls = batches = 0
    upsets = censored = trials = 0
    stream_s = 0.0
    for i in by_name["montecarlo.run_trials"]:
        span = spans[i]
        a = span[4]
        total = _dur(span)
        sampling = child_time(i, ("signal_models.sample_llr",))
        increment = child_time(i, ("belief.d_plus", "belief.d_minus"))
        rb = child_time(i, ("belief.rb_mistake_weight",))
        fam = a["family"]
        if fam in parts:
            p = parts[fam]
            p["total"] += total
            p["sampling"] += sampling
            p["increment"] += increment
            p["rb_weight"] += rb
            p["loop_self"] += total - sampling - increment - rb
            trial_steps[fam] += a["trials"] * a["horizon"]
        n_batches = math.ceil(a["trials"] / a["batch_size"])
        batches += n_batches
        lockstep_steps += a["horizon"] * n_batches
        increment_calls += sum(
            1 for c in children[i] if spans[c][0] in ("belief.d_plus", "belief.d_minus")
        )
        stream_s += child_time(i, ("montecarlo.stream_setup",))
        upsets += a.get("upsets", 0)
        censored += a.get("censored", 0)
        trials += a["trials"]
    for fam in MC_FAMILIES:
        base = f"montecarlo.run_trials.ns_per_trial_step.{fam}"
        out[base] = per(parts[fam]["total"] * 1e9, trial_steps[fam])
        for part in MC_PARTS:
            out[f"{base}.{part}"] = per(parts[fam][part] * 1e9, trial_steps[fam])
    out["montecarlo.trial_steps"] = sum(trial_steps.values())
    # A lockstep step calls one increment, or both when the batch holds both
    # actions, so the calls beyond one per step count the mixed steps.
    out["montecarlo.mixed_step_frac"] = per(max(increment_calls - lockstep_steps, 0), lockstep_steps)
    out["montecarlo.upsets_per_trial"] = per(upsets, trials)
    out["montecarlo.censored_frac"] = per(censored, trials)
    out["montecarlo.stream_setup_s_per_batch"] = per(stream_s, batches)

    base_spans = [spans[i] for i in by_name["montecarlo.simulate_baseline_llr"]]
    out["montecarlo.simulate_baseline_llr.ns_per_step"] = per(
        sum(_dur(s) for s in base_spans) * 1e9, sum(s[4]["horizon"] for s in base_spans)
    )
    traj = by_name["montecarlo.simulate_trajectory"]
    out["montecarlo.simulate_trajectory.calls"] = len(traj)
    out["montecarlo.simulate_trajectory.s"] = sum(_dur(spans[i]) for i in traj)

    # -- belief and asymptotics: the deterministic layer -----------------
    path_s = dict.fromkeys(FAMILIES, 0.0)
    path_steps = dict.fromkeys(FAMILIES, 0)
    for i in by_name["belief.ell_star_path"]:
        a = spans[i][4]
        if a["family"] in path_s:
            path_s[a["family"]] += _dur(spans[i])
            path_steps[a["family"]] += a["horizon"]
    for fam in FAMILIES:
        out[f"belief.ell_star_path.ns_per_step.{fam}"] = per(path_s[fam] * 1e9, path_steps[fam])
    out["belief.first_mistake_distribution.s"] = sum(
        _dur(spans[i]) for i in by_name["belief.first_mistake_distribution"]
    )
    rec = [spans[i] for i in by_name["asymptotics.iterate_recurrence"]]
    out["asymptotics.iterate_recurrence.ns_per_step"] = per(
        sum(_dur(s) for s in rec) * 1e9, sum(s[4]["horizon"] for s in rec)
    )
    out["asymptotics.solve_belief_ode.s"] = sum(
        _dur(spans[i]) for i in by_name["asymptotics.solve_belief_ode"]
    )

    # -- experiments and cli ---------------------------------------------
    exp_s = dict.fromkeys(experiment_names, 0.0)
    for i in by_name["experiments.run_experiment"]:
        name = spans[i][4]["experiment"]
        exp_s[name] = exp_s.get(name, 0.0) + _dur(spans[i])
    for name in experiment_names:
        out[f"experiments.run_experiment.s.{name}"] = exp_s[name]
    emits = [spans[i] for i in by_name["experiments.emit_outputs"]]
    out["experiments.emit_outputs.s"] = sum(_dur(s) for s in emits)
    out["experiments.csv_bytes"] = sum(s[4]["bytes"] for s in emits)
    out["cli.main.overhead_s"] = sum(
        _dur(spans[i]) - child_time(i, ("experiments.run_experiment",))
        for i in by_name["cli.main"]
    )
    return out
