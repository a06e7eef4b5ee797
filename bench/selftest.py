"""Self-test of the benchmark harness.

    python3 bench/selftest.py [--seed N]

Run from the root of a source checkout.  Checks that

1. the tracer wraps a function in every namespace that binds it, counts
   calls through any binding once, attributes them to the defining module,
   skips names the package does not define, and restores the originals;
2. a traced pass writes byte-identical seeded outputs (``rates.csv``,
   ``slope.json``, ``census.csv``, ``bounds.json``, every other output file
   and stdout) to an untraced pass, on every workload;
3. two traced passes of one seed give identical call counts and counters;
4. in each traced pass the module self times plus ``trace.unattributed_s``
   sum to the traced wall time within 1 us, and the unattributed time is
   non-negative and under 2 % of the wall time.

Prints one line per check and exits 0 when all pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run

sys.path.insert(0, run.SRC)

import afdof  # noqa: E402
import afdof.bounds  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SUM_TOL_S = 1e-6
MAX_UNATTRIBUTED = 0.02


def check_tracer() -> list[str]:
    original = afdof.end_to_end
    tracer = Tracer(afdof, layers.LAYERS, hot=("channel.no_such_function",),
                    groups={"g": ("bounds.no_such_function",)})
    tracer.install()
    try:
        ch = afdof.sample_channel(1)
        afdof.end_to_end(ch, 1.0, 0.5)
        afdof.channel.end_to_end(ch, 1.0, 0.5)
        afdof.bounds.end_to_end(ch, 1.0, 0.5)
        afdof.scheme.end_to_end(ch, 1.0, 0.5)
        report = tracer.report()
    finally:
        tracer.uninstall()
    failures = []
    calls = report["functions"].get("channel.end_to_end", {}).get("calls")
    if calls != 4:
        failures.append(f"end_to_end counted {calls} calls through 4 bindings")
    if afdof.end_to_end is not original or afdof.bounds.end_to_end is not original:
        failures.append("uninstall left wrappers in place")
    return failures


def outputs(result: dict, rep_dir: str) -> dict:
    """Every seeded output of one pass: files by op, stdout, panel slopes."""
    found = {"channels": json.dumps(result["channels"], sort_keys=True)}
    for index, op in enumerate(result["ops"]):
        found[f"op{index}/stdout"] = op["stdout"]
        out_dir = workloads.op_dir(rep_dir, index)
        for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
            with open(os.path.join(out_dir, name), "rb") as fh:
                found[f"op{index}/{name}"] = fh.read()
    return found


def counts(trace: dict) -> dict:
    return {"calls": {k: v["calls"] for k, v in trace["functions"].items()},
            "counters": trace["counters"]}


def check_workload(name: str, seed: int, work_dir: str) -> list[str]:
    spec = workloads.make_spec(name, seed)
    passes = {}
    for label, traced in (("untraced", False), ("traced", True),
                          ("traced_again", True)):
        rep_dir = os.path.join(work_dir, f"{name}-{label}")
        result = run.run_rep(spec, traced, rep_dir)
        problems, _, _, _ = workloads.verify(spec, result, rep_dir)
        if problems:
            return [f"{label} pass failed: {problems}"]
        passes[label] = (result, outputs(result, rep_dir))

    failures = []
    plain, traced = passes["untraced"][1], passes["traced"][1]
    if plain != traced:
        differ = sorted(k for k in plain.keys() | traced.keys()
                        if plain.get(k) != traced.get(k))
        failures.append(f"traced outputs differ from untraced: {differ}")
    first, second = passes["traced"][0]["trace"], passes["traced_again"][0]["trace"]
    if counts(first) != counts(second):
        failures.append("call counts differ between two traced passes")
    for label in ("traced", "traced_again"):
        result = passes[label][0]
        wall = result["wall_s"]
        unattributed = wall - result["trace"]["covered_s"]
        total = sum(layers.module_self(result["trace"]).values()) + unattributed
        if abs(total - wall) > SUM_TOL_S:
            failures.append(f"{label}: self times + unattributed = {total:.9f} s, "
                            f"wall = {wall:.9f} s")
        if not 0 <= unattributed <= MAX_UNATTRIBUTED * wall:
            failures.append(f"{label}: unattributed {unattributed:.6f} s of "
                            f"{wall:.6f} s wall")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    work_dir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    checks = [("tracer wraps every binding", check_tracer)]
    checks += [(f"{name} traced vs untraced",
                lambda name=name: check_workload(name, args.seed, work_dir))
               for name in workloads.NAMES]
    ok = True
    try:
        for label, check in checks:
            failures = check()
            ok = ok and not failures
            print(f"{'PASS' if not failures else 'FAIL'}: {label}"
                  + "".join(f"\n  {f}" for f in failures), flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
