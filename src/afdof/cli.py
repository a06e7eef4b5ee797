"""Command-line experiments over the two-hop AF machinery.

Subcommands: run-achievability (rate sweep with the TDMA baseline),
verify-bounds (state census and slope bounds), check-lemma2 (random
Gaussian instances of the entropy lemma), sample-conditions (genericity
sampling).  Settings resolve as defaults < JSON config < flags; the seed
additionally falls back to the AFDOF_SEED environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelRealization,
    check_conditions,
    sample_channel,
    DEFAULT_REL_TOL,
)
from .scheme import (
    InvalidPower,
    baseline_tdma_rate,
    achievable_rate,
    analytic_noise_variances,
    plan_achievability,
    schedule_from_plan,
)
from .simulate import estimate_dof_slope, sweep_power_grid
from .bounds import (
    SingularCovariance,
    StateCensus,
    bound_constants,
    census,
    check_lemma2,
    evaluate_bounds,
    min_census_fraction,
    random_lemma2_instance,
    random_schedule,
    slot_states,
    DEFAULT_STATE_TOL,
)

DEFAULT_GRID = (1e3, 10 ** 4.5, 1e6, 10 ** 7.5, 1e9)

SCHEME_SLOPE_WINDOW = (1.27, 1.40)
USER_SLOPE_WINDOW = (0.62, 0.72)
TDMA_SLOPE_WINDOW = (0.95, 1.05)
SLOPE_DOMINANCE_TOL = 0.05

_FLOAT_FMT = ".12g"

_INT_KEYS = ("trials", "n_triples", "schedule_slots", "fuzz", "samples",
             "count", "max_dim")
_FLOAT_KEYS = ("rel_tol", "state_tol")
_CONFIG_KEYS = {"channel", "power_grid", "seed", "output_dir", *_INT_KEYS,
                *_FLOAT_KEYS}
_CHANNEL_KEYS = {"gains", "seed"}


@dataclass
class ExperimentConfig:
    """Resolved experiment settings shared by the subcommands."""

    channel_seed: int = 42
    channel_gains: dict | None = None
    power_grid: tuple[float, ...] = DEFAULT_GRID
    trials: int = 20
    n_triples: int = 500
    seed: int = 0
    output_dir: str = "afdof-out"
    rel_tol: float = DEFAULT_REL_TOL
    state_tol: float = DEFAULT_STATE_TOL
    schedule_slots: int = 300
    fuzz: int = 0
    samples: int = 100_000
    count: int = 1000
    max_dim: int = 4


def parse_power(token: str) -> float:
    """Parse one grid value; accepts fractional exponents like 1e4.5."""
    token = token.strip()
    try:
        return float(token)
    except ValueError:
        pass
    m = re.fullmatch(r"([+-]?[0-9]*\.?[0-9]*)[eE]([+-]?[0-9]+\.?[0-9]*)", token)
    if not m or not m.group(2):
        raise ValueError(f"cannot parse power value {token!r}")
    mantissa = float(m.group(1)) if m.group(1) not in ("", "+", "-") else float(m.group(1) + "1")
    return mantissa * 10.0 ** float(m.group(2))


def parse_grid(text: str) -> tuple[float, ...]:
    return tuple(parse_power(tok) for tok in text.split(",") if tok.strip())


def _validate_grid(grid) -> None:
    if not all(math.isfinite(p) for p in grid):
        raise ValueError(f"power grid values must be finite, got {list(grid)}")
    if any(p < 1 for p in grid):
        raise InvalidPower(f"power grid values must be >= 1, got {list(grid)}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("power grid must be strictly increasing")


def _config_int(key: str, value) -> int:
    """A config integer: a JSON number with no fractional part, not a bool."""
    integral = (isinstance(value, int)
                or (isinstance(value, float) and value.is_integer()))
    if isinstance(value, bool) or not integral:
        raise ValueError(f"config key {key} must be an integer, got {value!r}")
    return int(value)


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, the optional JSON config, flag overrides and the
    AFDOF_SEED fallback into one settings object.  Unknown config keys,
    non-integral integer settings, negative seeds, an unreadable config and
    a non-integer AFDOF_SEED raise."""
    cfg = ExperimentConfig()
    seed_from_config = None
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict) or not isinstance(raw.get("channel", {}), dict):
            raise ValueError("config and its channel entry must be JSON objects")
        channel = raw.get("channel", {})
        unknown = sorted(set(raw) - _CONFIG_KEYS) + [
            f"channel.{k}" for k in sorted(set(channel) - _CHANNEL_KEYS)]
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        if "gains" in channel:
            cfg.channel_gains = dict(channel["gains"])
        if "seed" in channel:
            cfg.channel_seed = _config_int("channel.seed", channel["seed"])
        if "power_grid" in raw:
            cfg.power_grid = tuple(float(p) for p in raw["power_grid"])
        for key in _INT_KEYS:
            if key in raw:
                setattr(cfg, key, _config_int(key, raw[key]))
        if "seed" in raw:
            seed_from_config = _config_int("seed", raw["seed"])
        if "output_dir" in raw:
            cfg.output_dir = str(raw["output_dir"])
        for key in _FLOAT_KEYS:
            if key in raw:
                setattr(cfg, key, float(raw[key]))

    if getattr(args, "grid", None):
        cfg.power_grid = parse_grid(args.grid)
    if getattr(args, "out", None):
        cfg.output_dir = args.out
    for flag in ("trials", "n_triples", "channel_seed", "slots", "fuzz",
                 "samples", "count", "max_dim"):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, "schedule_slots" if flag == "slots" else flag, int(value))

    if getattr(args, "seed", None) is not None:
        cfg.seed = int(args.seed)
    elif seed_from_config is not None:
        cfg.seed = seed_from_config
    elif os.environ.get("AFDOF_SEED"):
        cfg.seed = int(os.environ["AFDOF_SEED"])
    if cfg.seed < 0 or cfg.channel_seed < 0:
        raise ValueError(f"seeds must be >= 0, got seed {cfg.seed} and "
                         f"channel seed {cfg.channel_seed}")
    return cfg


def _resolve_channel(cfg: ExperimentConfig) -> ChannelRealization:
    if cfg.channel_gains is not None:
        return ChannelRealization.from_dict(cfg.channel_gains)
    return sample_channel(cfg.channel_seed, rel_tol=cfg.rel_tol)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fail(outdir: str, name: str, detail) -> int:
    payload = {"error": name, "detail": detail}
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        _write_json(os.path.join(outdir, "error.json"), payload)
    print(json.dumps(payload), file=sys.stderr)
    return 1


def _fmt(x: float) -> str:
    return format(float(x), _FLOAT_FMT)


def cmd_run_achievability(cfg: ExperimentConfig) -> int:
    try:
        _validate_grid(cfg.power_grid)
        ch = _resolve_channel(cfg)
        plan = plan_achievability(ch, cfg.rel_tol)
        points = sweep_power_grid(ch, plan, cfg.power_grid,
                                  n_triples=cfg.n_triples, trials=cfg.trials,
                                  seed=cfg.seed)
        scheme_fit = estimate_dof_slope([(p.P, p.R1 + p.R2) for p in points])
        slope_user1 = estimate_dof_slope([(p.P, p.R1) for p in points]).slope
        slope_user2 = estimate_dof_slope([(p.P, p.R2) for p in points]).slope
        tdma_rates = [baseline_tdma_rate(ch, p.P, plan) for p in points]
        tdma_fit = estimate_dof_slope(
            [(p.P, r1 + r2) for p, (r1, r2) in zip(points, tdma_rates)])
    except Exception as exc:  # noqa: BLE001 - every failure maps to error.json
        return _fail(cfg.output_dir, type(exc).__name__, str(exc))

    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "rates.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["P", "R1", "R2", "R_sum", "mse_a1", "mse_a2",
                         "mse_b1", "mse_b2", "relay_pu", "relay_pv"])
        for p in points:
            writer.writerow([_fmt(v) for v in (
                p.P, p.R1, p.R2, p.R1 + p.R2, p.mse_a1, p.mse_a2,
                p.mse_b1, p.mse_b2, p.relay_pu, p.relay_pv)])
    _write_json(os.path.join(cfg.output_dir, "plan.json"), {
        **plan.to_dict(),
        "alphabet": {"U": list(plan.alphabet().U), "V": list(plan.alphabet().V)},
        "channel": ch.to_dict(),
    })
    _write_json(os.path.join(cfg.output_dir, "slope.json"), {
        "scheme": {**scheme_fit.to_dict(),
                   "slope_user1": slope_user1,
                   "slope_user2": slope_user2},
        "tdma": tdma_fit.to_dict(),
    })

    checks = []
    lo, hi = SCHEME_SLOPE_WINDOW
    checks.append(("scheme_sum_slope", lo <= scheme_fit.slope <= hi,
                   scheme_fit.slope))
    lo, hi = USER_SLOPE_WINDOW
    checks.append(("per_user_slopes",
                   lo <= slope_user1 <= hi and lo <= slope_user2 <= hi,
                   (slope_user1, slope_user2)))
    lo, hi = TDMA_SLOPE_WINDOW
    checks.append(("tdma_slope", lo <= tdma_fit.slope <= hi, tdma_fit.slope))
    top = points[-1]
    tdma_top = sum(tdma_rates[-1])
    checks.append(("tdma_below_scheme",
                   tdma_fit.slope < scheme_fit.slope
                   and tdma_top < top.R1 + top.R2,
                   {"tdma_sum": tdma_top, "scheme_sum": top.R1 + top.R2}))
    checks.append(("relay_power_feasible",
                   all(p.relay_pu <= p.P + 3 * p.relay_pu_se
                       and p.relay_pv <= p.P + 3 * p.relay_pv_se
                       for p in points),
                   [(p.relay_pu / p.P, p.relay_pv / p.P) for p in points]))
    sums = [p.R1 + p.R2 for p in points]
    checks.append(("monotone_sum_rate",
                   all(b >= a for a, b in zip(sums, sums[1:])), sums))

    failed = [(name, detail) for name, ok, detail in checks if not ok]
    if failed:
        return _fail(cfg.output_dir, "invariant_check_failed",
                     {name: detail for name, detail in failed})
    return 0


def cmd_verify_bounds(cfg: ExperimentConfig) -> int:
    try:
        _validate_grid(cfg.power_grid)
        n = cfg.schedule_slots
        if n < 3 or n % 3 != 0:
            raise ValueError("schedule_slots must be a positive multiple of 3")
        if cfg.fuzz < 0:
            raise ValueError("fuzz must be >= 0")
        ch = _resolve_channel(cfg)
        plan = plan_achievability(ch, cfg.rel_tol)
        schedule = schedule_from_plan(plan, n)
        labels = slot_states(ch, schedule, cfg.state_tol)
        cens = StateCensus.from_labels(labels)
        constants = bound_constants(ch, plan.alphabet())
        set_name, fraction = min_census_fraction(cens)

        evaluations = [(P, evaluate_bounds(cens, P, constants))
                       for P in cfg.power_grid]
        var_d1, var_d2 = analytic_noise_variances(ch, plan)
        achieved = [(P, achievable_rate(P, *var_d1) + achievable_rate(P, *var_d2))
                    for P in cfg.power_grid]
        achieved_fit = estimate_dof_slope(achieved)

        fuzz_violations = 0
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.fuzz):
            sched = random_schedule(ch, plan, n, rng)
            _, frac = min_census_fraction(census(ch, sched, cfg.state_tol))
            if frac > 1.0 / 3.0 + 1e-12:
                fuzz_violations += 1
    except Exception as exc:  # noqa: BLE001
        return _fail(cfg.output_dir, type(exc).__name__, str(exc))

    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "census.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "mu", "lambda", "state"])
        for k, ((mu, lam), label) in enumerate(zip(schedule.pairs, labels)):
            writer.writerow([k, _fmt(mu), _fmt(lam), label.value])
    min_bound_slope = min(ev.min_slope_dof() for _, ev in evaluations)
    _write_json(os.path.join(cfg.output_dir, "bounds.json"), {
        "census": cens.to_dict(),
        "min_fraction": {"set": set_name, "fraction": fraction},
        "constants": constants.to_dict(),
        "achieved_sum_slope": achieved_fit.slope,
        "min_bound_slope": min_bound_slope,
        "per_P": [{"P": P, **ev.to_dict()} for P, ev in evaluations],
        "fuzz": {"schedules": cfg.fuzz, "violations": fuzz_violations},
    })

    checks = [
        ("pigeonhole", fraction <= 1.0 / 3.0 + 1e-12, fraction),
        ("achievability_census_balanced",
         cens.nA == cens.nB == cens.nC1 == n // 3 and cens.nZero == 0,
         cens.to_dict()),
        ("slope_dominance",
         achieved_fit.slope <= min_bound_slope + SLOPE_DOMINANCE_TOL,
         {"achieved": achieved_fit.slope, "min_bound": min_bound_slope}),
        ("fuzz_violations", fuzz_violations == 0, fuzz_violations),
    ]
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    if failed:
        return _fail(cfg.output_dir, "invariant_check_failed",
                     {name: detail for name, detail in failed})
    return 0


def cmd_check_lemma2(count: int, max_dim: int, seed: int) -> int:
    if count < 1:
        print("usage error: count must be >= 1", file=sys.stderr)
        return 2
    if not 1 <= max_dim <= 8:
        print("usage error: max_dim must be in [1, 8]", file=sys.stderr)
        return 2
    rng = np.random.default_rng(seed)
    violations = 0
    checked = 0
    attempts = 0
    while checked < count:
        attempts += 1
        if attempts > 100 * count:
            print("too many singular resamples", file=sys.stderr)
            return 1
        instance = random_lemma2_instance(rng, max_dim)
        try:
            _, _, holds = check_lemma2(*instance)
        except SingularCovariance:
            continue  # resampled, not counted
        checked += 1
        if not holds:
            violations += 1
    print(json.dumps({"count": checked, "violations": violations}))
    return 0 if violations == 0 else 1


def cmd_sample_conditions(cfg: ExperimentConfig) -> int:
    if cfg.channel_gains is not None:
        ch = ChannelRealization.from_dict(cfg.channel_gains)
        report = check_conditions(ch, cfg.rel_tol)
        failures = 0 if report.generic else 1
        print(json.dumps({"samples": 1, "failures": failures,
                          "fraction": float(failures), "generic": report.generic}))
        return 0 if failures == 0 else 1
    if cfg.samples < 1:
        print("usage error: samples must be >= 1", file=sys.stderr)
        return 2
    rng = np.random.default_rng(cfg.seed)
    failures = 0
    for _ in range(cfg.samples):
        ch = ChannelRealization(*(float(g) for g in rng.standard_normal(8)))
        if not check_conditions(ch, cfg.rel_tol).generic:
            failures += 1
    print(json.dumps({"samples": cfg.samples, "failures": failures,
                      "fraction": failures / cfg.samples}))
    return 0 if failures == 0 else 1


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    sub.add_argument("--seed", type=int, default=None,
                     help="experiment seed (fallback: config, then AFDOF_SEED)")
    sub.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afdof",
        description=("Two-hop interference channel experiments with "
                     "time-varying amplify-forward relays.  Settings "
                     "precedence: built-in defaults < --config JSON < flags; "
                     "AFDOF_SEED seeds runs when neither flag nor config "
                     "sets one."))
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run-achievability",
                          help="rate sweep over a power grid plus TDMA baseline")
    _add_common(run)
    run.add_argument("--grid", help="comma-separated powers, e.g. 1e3,1e4.5,1e6")
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--n-triples", dest="n_triples", type=int, default=None)
    run.add_argument("--channel-seed", dest="channel_seed", type=int, default=None)

    ver = subs.add_parser("verify-bounds",
                          help="state census, slope bounds and pigeonhole checks")
    _add_common(ver)
    ver.add_argument("--grid", help="comma-separated powers")
    ver.add_argument("--slots", type=int, default=None,
                     help="schedule length (multiple of 3)")
    ver.add_argument("--fuzz", type=int, default=None,
                     help="number of random schedules to fuzz")
    ver.add_argument("--channel-seed", dest="channel_seed", type=int, default=None)

    lem = subs.add_parser("check-lemma2",
                          help="random Gaussian instances of the entropy lemma")
    _add_common(lem)
    lem.add_argument("--count", type=int, default=None)
    lem.add_argument("--max-dim", dest="max_dim", type=int, default=None)

    cond = subs.add_parser("sample-conditions",
                           help="sample channels and report genericity failures")
    _add_common(cond)
    cond.add_argument("--samples", type=int, default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except (OSError, ValueError, TypeError) as exc:
        return _fail(args.out, type(exc).__name__, str(exc))
    if args.command == "run-achievability":
        return cmd_run_achievability(cfg)
    if args.command == "verify-bounds":
        return cmd_verify_bounds(cfg)
    if args.command == "check-lemma2":
        return cmd_check_lemma2(cfg.count, cfg.max_dim, cfg.seed)
    if args.command == "sample-conditions":
        return cmd_sample_conditions(cfg)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
