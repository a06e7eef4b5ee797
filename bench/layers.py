"""What the traced run wraps and the per-layer metrics derived from it.

The layers are the modules ``cli``, ``channel``, ``scheme``, ``simulate`` and
``bounds``.  Per-unit metrics divide by work counted from the workload's
configuration (``workloads.units``), never by the program's internal call
counts, so they stay comparable when a refactor merges or deletes functions.
A per-unit metric reads 0 on a workload that does none of its units.
"""

from __future__ import annotations

import numpy as np

import workloads

LAYERS = ("cli", "channel", "scheme", "simulate", "bounds")

# Called 1e4 or more times per pass: aggregate counters only, no spans.
HOT = ("channel.end_to_end", "channel.check_conditions",
       "bounds.classify_state")

GROUPS = {
    "census": ("bounds.census", "bounds.slot_states"),
    "lemma2": ("bounds.check_lemma2", "bounds.random_lemma2_instance"),
    "reconstruct": ("scheme.reconstruct_d1", "scheme.reconstruct_d2"),
}


def _count_checks(counters, args, kwargs, report) -> None:
    # One channel is one row of gains, so a batched check counts every row.
    gains = args[0] if args else kwargs.get("ch")
    shape = getattr(gains, "shape", ())
    counters["channel.checks"] += shape[0] if len(shape) == 2 else 1
    counters["channel.generic"] += int(np.count_nonzero(report.generic))


PROBES = {"channel.check_conditions": _count_checks}


def module_self(trace: dict) -> dict:
    totals = dict.fromkeys(LAYERS, 0.0)
    for key, stats in trace["functions"].items():
        totals[key.split(".", 1)[0]] += stats["self_s"]
    return totals


def metrics(spec: dict, trace: dict, wall_s: float, bytes_written: int) -> dict:
    """Per-layer values of one traced pass, except ``trace.overhead_s``,
    which needs the untraced passes too."""
    u = workloads.units(spec)
    fn, groups, counters = trace["functions"], trace["groups"], trace["counters"]

    def calls(key):
        return fn.get(key, {}).get("calls", 0)

    def per(amount, base, scale=1.0):
        return amount / base * scale if base else 0.0

    checks = counters.get("channel.checks", 0)
    out = {f"{layer}.self_s": t for layer, t in module_self(trace).items()}
    out.update({
        "cli.bytes_written": bytes_written,
        "channel.check_conditions.calls": calls("channel.check_conditions"),
        "channel.check_conditions.us_per_call": per(
            fn.get("channel.check_conditions", {}).get("incl_s", 0.0), checks, 1e6),
        "channel.genericity.accept_ratio": per(
            counters.get("channel.generic", 0), checks),
        "channel.end_to_end.calls": calls("channel.end_to_end"),
        "scheme.plan_achievability.calls": calls("scheme.plan_achievability"),
        "scheme.reconstruct.ns_per_block": per(
            groups.get("reconstruct", 0.0), u["blocks"], 1e9),
        "simulate.trials": u["sim_trials"],
        "simulate.ns_per_slot": per(out["simulate.self_s"], u["sim_slots"], 1e9),
        "simulate.us_per_trial": per(groups.get("simulate", 0.0),
                                     u["sim_trials"], 1e6),
        "bounds.classify_state.calls": calls("bounds.classify_state"),
        "bounds.census.ns_per_slot": per(groups.get("census", 0.0),
                                         u["census_slots"], 1e9),
        "bounds.random_schedule.ns_per_slot": per(
            fn.get("bounds.random_schedule", {}).get("incl_s", 0.0),
            u["schedule_slots"], 1e9),
        "bounds.lemma2.us_per_instance": per(groups.get("lemma2", 0.0),
                                             u["lemma_instances"], 1e6),
        "bounds.lemma2.accept_ratio": per(
            u["lemma_instances"], calls("bounds.random_lemma2_instance")),
        "trace.unattributed_s": wall_s - trace["covered_s"],
    })
    return out
