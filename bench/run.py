"""afdof benchmark.

    python3 bench/run.py --workload {achieve,bounds,panel} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; it imports ``afdof`` from ``src/``
and fails with a nonzero exit when that is missing.  Metric names and units
come from ``BENCHMARK.json`` at the checkout root.  Each repetition runs
one pass of the workload in a fresh child process (``bench/child.py``) with
the BLAS thread pools pinned to one thread.  New repetitions start while the
next one is expected to end within S seconds; at least one always runs.

``--trace 0`` reports the end-to-end metrics (medians over repetitions);
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics (medians over traced repetitions) and the tracing
overhead.  Every output is checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Human-readable
lines above it give the machine, each metric's quartiles and sample count,
and ``failed_frac``.  A full record is left in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


class ChildFailed(Exception):
    """A repetition's process exited nonzero, timed out or wrote no result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "AFDOF_SEED"}
    env.update(THREAD_PINS, PYTHONPATH=SRC)
    return env


def run_rep(spec: dict, trace: bool, rep_dir: str) -> dict:
    """One repetition in a fresh process; returns the child's result."""
    os.makedirs(rep_dir)
    spec_path = os.path.join(rep_dir, "spec.json")
    result_path = os.path.join(rep_dir, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    argv = [sys.executable, CHILD, spec_path, result_path, rep_dir,
            "1" if trace else "0"]
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    try:
        with open(result_path) as fh:
            result = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ChildFailed(f"no result: {exc}") from exc
    return result


def _cache_info() -> list[str]:
    base = "/sys/devices/system/cpu/cpu0/cache"
    caches = []
    try:
        for index in sorted(os.listdir(base)):
            fields = {}
            for name in ("level", "type", "size", "shared_cpu_list"):
                with open(os.path.join(base, index, name)) as fh:
                    fields[name] = fh.read().strip()
            caches.append(f"L{fields['level']} {fields['type']} {fields['size']}"
                          f" (cpus {fields['shared_cpu_list']})")
    except OSError:
        pass
    return caches


def machine() -> dict:
    import numpy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "caches": _cache_info(), "python": platform.python_version(),
            "numpy": numpy.__version__, "thread_pins": THREAD_PINS}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="afdof benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "afdof", "__init__.py")):
        print(f"afdof sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    sys.path.insert(0, SRC)
    import layers
    import workloads
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    spec = workloads.make_spec(args.workload, args.seed)
    run_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    # Warm the file cache and write the .pyc files, which users pay once.
    subprocess.run([sys.executable, "-c", "import afdof.cli"], env=child_env(),
                   cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)

    # Untraced passes give the end-to-end metrics; traced passes alternate
    # with untraced ones so their difference is the tracing overhead.
    kinds = ("untraced", "traced") if args.trace else ("untraced",)
    reps = {kind: [] for kind in kinds}
    problems, fingerprints = [], set()
    attempted = failed = 0
    spans = None
    started = time.monotonic()
    rounds = 0
    try:
        while True:
            for kind in kinds:
                rep_dir = os.path.join(run_dir, f"{kind}{len(reps[kind])}")
                try:
                    result = run_rep(spec, kind == "traced", rep_dir)
                except ChildFailed as exc:
                    problems.append(f"{kind} repetition failed: {exc}")
                    n_ops = len(spec["ops"]) + spec.get("panel", {}).get("channels", 0)
                    attempted += n_ops
                    failed += n_ops
                    continue
                rep_problems, n_ops, fingerprint, written = workloads.verify(
                    spec, result, rep_dir)
                attempted += n_ops
                failed += len(rep_problems)
                problems += rep_problems
                fingerprints.add(fingerprint)
                result["bytes_written"] = written
                if kind == "traced":
                    spans = result["trace"].pop("spans")
                reps[kind].append(result)
                shutil.rmtree(rep_dir, ignore_errors=True)
            rounds += 1
            elapsed = time.monotonic() - started
            if elapsed + elapsed / rounds > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not all(reps.values()):
        print("no repetition completed:", *problems[:5], sep="\n  ",
              file=sys.stderr)
        return 1
    if len(fingerprints) > 1:
        problems.append("seeded outputs differ between repetitions of one seed")

    info = machine()
    print("machine:", json.dumps(info))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "spec": spec, "machine": info, "problems": problems}
    if args.trace:
        per_rep = [layers.metrics(spec, r["trace"], r["wall_s"], r["bytes_written"])
                   for r in reps["traced"]]
        samples = {name: [m[name] for m in per_rep] for name in per_rep[0]}
        samples["trace.overhead_s"] = [
            statistics.median(r["wall_s"] for r in reps["traced"])
            - statistics.median(r["wall_s"] for r in reps["untraced"])]
        reported = contract["per_layer"]
        record["functions"] = reps["traced"][-1]["trace"]["functions"]
    else:
        passes = reps["untraced"]
        samples = {
            "wall_s": [r["wall_s"] for r in passes],
            "cpu_s": [r["cpu_s"] for r in passes],
            "setup_s": [r["setup_s"] for r in passes],
            "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in passes],
        }
        reported = contract["end_to_end"]
    metrics = {}
    for entry in reported:
        name, unit = entry["name"], entry["unit"]
        q1, med, q3 = quartiles(samples[name])
        metrics[name] = {"value": med, "unit": unit}
        print(f"{name}: {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, "
              f"n={len(samples[name])})")
    print(f"failed_frac: {failed / attempted:.6g}  ({failed}/{attempted} operations)")
    for problem in problems:
        print("problem:", problem)

    record.update(samples=samples, attempted=attempted, failed=failed)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(spans, fh)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
