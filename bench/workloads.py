"""The three benchmark workloads: inputs from the workload seed, one timed
pass (run in a child process), and the check of its outputs.

- achieve: one long-block ``run-achievability``; time goes to the chain
  kernel and RNG in ``simulate``.
- bounds: ``verify-bounds`` with fuzzed schedules, then ``check-lemma2``;
  time goes to the per-slot loops and the lemma's small dense linear
  algebra in ``bounds``.
- panel: ``sample-conditions``, then many short sweeps through the public
  API; time goes to scalar genericity checks and to the fixed per-trial
  cost in ``simulate``.

An operation is one CLI invocation or one panel channel.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os

import afdof
import afdof.cli

NAMES = ("achieve", "bounds", "panel")

# README's analytic screen: keep channels whose largest decoded-stream noise
# variance is at most 1e3, so the [1e3, 1e9] grid shows the asymptotic slope.
VARIANCE_SCREEN = 1e3

ACHIEVE = {"trials": 4, "n_triples": 100_000}
BOUNDS = {"slots": 300, "fuzz": 250, "count": 250, "max_dim": 4}
PANEL = {"samples": 25_000, "channels": 10, "trials": 40, "n_triples": 50}

# Acceptance criterion 4's tolerance on empirical against analytic stream
# MSE; achieve's 8e5 samples per stream give a relative standard error ~0.16 %.
MSE_REL_TOL = 0.02


def screened(ch_seed: int):
    """Channel, plan and analytic stream variances, in rates.csv's stream
    order (a1, a2, b1, b2), if ``ch_seed`` passes the screen; else None."""
    ch = afdof.sample_channel(ch_seed)
    plan = afdof.plan_achievability(ch)
    v1, v2 = afdof.analytic_noise_variances(ch, plan)
    if max(*v1, *v2) <= VARIANCE_SCREEN:
        return ch, plan, (v1[0], v1[1], v2[1], v2[0])
    return None


def first_screened(start: int) -> int:
    seed = start
    while screened(seed) is None:
        seed += 1
    return seed


def make_spec(workload: str, seed: int) -> dict:
    """Inputs of one pass, derived from the workload seed alone."""
    if workload == "achieve":
        cs = first_screened(seed)
        ops = [["run-achievability", "--trials", str(ACHIEVE["trials"]),
                "--n-triples", str(ACHIEVE["n_triples"]),
                "--seed", str(seed), "--channel-seed", str(cs)]]
        return {"workload": workload, "seed": seed, "channel_seed": cs,
                "ops": ops}
    if workload == "bounds":
        cs = first_screened(seed)
        ops = [["verify-bounds", "--slots", str(BOUNDS["slots"]),
                "--fuzz", str(BOUNDS["fuzz"]),
                "--seed", str(seed), "--channel-seed", str(cs)],
               ["check-lemma2", "--count", str(BOUNDS["count"]),
                "--max-dim", str(BOUNDS["max_dim"]), "--seed", str(seed)]]
        return {"workload": workload, "seed": seed, "channel_seed": cs,
                "ops": ops}
    if workload == "panel":
        ops = [["sample-conditions", "--samples", str(PANEL["samples"]),
                "--seed", str(seed)]]
        return {"workload": workload, "seed": seed, "ops": ops,
                "panel": {"start": seed, **{k: PANEL[k] for k in
                                            ("channels", "trials", "n_triples")}}}
    raise ValueError(f"unknown workload {workload!r}")


def units(spec: dict) -> dict:
    """Work done by one pass, counted from its configuration, not from the
    program's internal calls."""
    points = len(afdof.cli.DEFAULT_GRID)
    u = {"sim_trials": 0, "sim_slots": 0, "blocks": 0, "census_slots": 0,
         "schedule_slots": 0, "lemma_instances": 0}
    sweeps = []
    if spec["workload"] == "achieve":
        sweeps.append((ACHIEVE["trials"], ACHIEVE["n_triples"]))
    if spec["workload"] == "panel":
        sweeps += [(PANEL["trials"], PANEL["n_triples"])] * PANEL["channels"]
    for trials, n_triples in sweeps:
        u["sim_trials"] += points * trials
        u["blocks"] += points * trials * n_triples
        u["sim_slots"] += points * trials * 3 * n_triples
    if spec["workload"] == "bounds":
        u["census_slots"] = (1 + BOUNDS["fuzz"]) * BOUNDS["slots"]
        u["schedule_slots"] = BOUNDS["fuzz"] * BOUNDS["slots"]
        u["lemma_instances"] = BOUNDS["count"]
    return u


def op_dir(rep_dir: str, index: int) -> str:
    return os.path.join(rep_dir, f"op{index}")


def run_pass(spec: dict, rep_dir: str) -> dict:
    """The timed work of one repetition.  Calls go through module attributes
    so an installed tracer sees them."""
    ops = []
    for index, argv in enumerate(spec["ops"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                rc = afdof.cli.main([*argv, "--out", op_dir(rep_dir, index)])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # noqa: BLE001 - recorded as a failed op
                rc, out = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
        ops.append({"argv": argv, "rc": rc, "stdout": out.getvalue()})

    channels = []
    if "panel" in spec:
        cfg = spec["panel"]
        ch_seed = cfg["start"]
        while len(channels) < cfg["channels"]:
            try:
                found = screened(ch_seed)
                if found is not None:
                    ch, plan, _ = found
                    points = afdof.sweep_power_grid(
                        ch, plan, afdof.cli.DEFAULT_GRID,
                        n_triples=cfg["n_triples"], trials=cfg["trials"],
                        seed=ch_seed)
                    slope = afdof.fit_rate_report(points).slope_sum
                    channels.append({"seed": ch_seed, "slope_sum": slope})
            except Exception as exc:  # noqa: BLE001 - recorded as a failed op
                channels.append({"seed": ch_seed,
                                 "error": f"{type(exc).__name__}: {exc}"})
            ch_seed += 1
    return {"ops": ops, "channels": channels}


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _check_achieve(spec, out_dir, stdout) -> str | None:
    with open(os.path.join(out_dir, "slope.json")) as fh:
        slope = json.load(fh)["scheme"]["slope"]
    lo, hi = afdof.cli.SCHEME_SLOPE_WINDOW
    if not lo <= slope <= hi:
        return f"scheme slope {slope} outside {afdof.cli.SCHEME_SLOPE_WINDOW}"
    _, _, analytic = screened(spec["channel_seed"])
    with open(os.path.join(out_dir, "rates.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(afdof.cli.DEFAULT_GRID):
        return f"rates.csv has {len(rows)} rows"
    for row in rows:
        mses = [float(row[k]) for k in ("mse_a1", "mse_a2", "mse_b1", "mse_b2")]
        worst = max(abs(m - a) / a for m, a in zip(mses, analytic))
        if not worst <= MSE_REL_TOL:
            return f"P={row['P']}: MSE off the analytic variance by {worst:.4f}"
    return None


def _check_verify_bounds(spec, out_dir, stdout) -> str | None:
    with open(os.path.join(out_dir, "bounds.json")) as fh:
        report = json.load(fh)
    if report["fuzz"] != {"schedules": BOUNDS["fuzz"], "violations": 0}:
        return f"fuzz result {report['fuzz']}"
    if not math.isclose(report["min_fraction"]["fraction"], 1 / 3):
        return f"min census fraction {report['min_fraction']}"
    with open(os.path.join(out_dir, "census.csv"), newline="") as fh:
        states = [row["state"] for row in csv.DictReader(fh)]
    third = BOUNDS["slots"] // 3
    if sorted(states) != sorted(["A", "B", "C1"] * third):
        return "census.csv is not one third each of A, B and C1"
    return None


def _check_stdout(expected: dict):
    def check(spec, out_dir, stdout) -> str | None:
        got = json.loads(stdout)
        wrong = {k: got.get(k) for k, v in expected.items() if got.get(k) != v}
        return f"unexpected {wrong}" if wrong else None
    return check


_CHECKS = {
    "run-achievability": _check_achieve,
    "verify-bounds": _check_verify_bounds,
    "check-lemma2": _check_stdout({"count": BOUNDS["count"], "violations": 0}),
    "sample-conditions": _check_stdout({"samples": PANEL["samples"],
                                        "failures": 0}),
}


def verify(spec: dict, result: dict, rep_dir: str):
    """Judge every operation of one pass.

    Returns ``(problems, attempted, fingerprint, bytes_written)``: one line
    per failed operation, the operation count, a digest of every seeded
    output (equal across repetitions of one seed), and the bytes the CLI
    wrote to files and stdout.
    """
    problems, digest, written = [], hashlib.sha256(), 0
    for index, op in enumerate(result["ops"]):
        command, out_dir = op["argv"][0], op_dir(rep_dir, index)
        files = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
        for name in files:
            data = _read(os.path.join(out_dir, name))
            written += len(data)
            digest.update(name.encode() + b"\0" + data)
        written += len(op["stdout"].encode())
        digest.update(op["stdout"].encode())
        try:
            if "error.json" in files:
                problem = " ".join(
                    _read(os.path.join(out_dir, "error.json")).decode().split())
            elif op["rc"] != 0:
                problem = f"exit status {op['rc']}: {op['stdout'].strip()}"
            else:
                problem = _CHECKS[command](spec, out_dir, op["stdout"])
        except (OSError, KeyError, ValueError) as exc:
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            problems.append(f"{command}: {problem}")

    lo, hi = afdof.cli.SCHEME_SLOPE_WINDOW
    for channel in result["channels"]:
        digest.update(json.dumps(channel, sort_keys=True).encode())
        if "error" in channel:
            problems.append(f"panel channel {channel['seed']}: {channel['error']}")
        elif not lo <= channel["slope_sum"] <= hi:
            problems.append(f"panel channel {channel['seed']}: sum slope "
                            f"{channel['slope_sum']} outside {(lo, hi)}")
    if "panel" in spec and len(result["channels"]) != spec["panel"]["channels"]:
        problems.append(f"panel ran {len(result['channels'])} channels")
    attempted = len(result["ops"]) + len(result["channels"])
    return problems, attempted, digest.hexdigest(), written
