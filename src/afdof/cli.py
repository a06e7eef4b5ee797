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
from dataclasses import asdict, dataclass, fields

import numpy as np

from .channel import (
    ChannelRealization,
    check_conditions,
    sample_channel,
)
from .scheme import (
    InvalidPower,
    baseline_tdma_rate,
    achievable_rate,
    analytic_noise_variances,
    plan_achievability,
    relay_powers,
    scheme_schedule,
)
from .simulate import (FUZZ, LEMMA, SAMPLE_CONDITIONS, estimate_dof_slope,
                       fit_rate_report, keyed_rng, sweep_power_grid)
from .bounds import (
    FILLER_RANGE,
    RATIO_MAP_REL_TOL,
    StateCensus,
    bound_slopes,
    check_lemma2,
    min_census_fraction,
    random_lemma2_stacks,
    ratio_map_probe,
    slot_states,
)

DEFAULT_GRID = (1e3, 10 ** 4.5, 1e6, 10 ** 7.5, 1e9)

SCHEME_SLOPE_WINDOW = (1.27, 1.40)
USER_SLOPE_WINDOW = (0.62, 0.72)
TDMA_SLOPE_WINDOW = (0.95, 1.05)
SLOPE_DOMINANCE_TOL = 0.05

_FLOAT_FMT = ".12g"

# sample-conditions checks gains in chunks of at most this many rows, which
# keeps each temporary array of the check near 32 KB.
GAIN_CHUNK_ROWS = 4096


@dataclass
class ExperimentConfig:
    """The one list of settings.  Config keys and flag dests are the field
    names; the config gives ``channel_seed`` and ``channel_gains`` as
    ``channel.seed`` and ``channel.gains``."""

    channel_seed: int = 42
    channel_gains: dict | None = None
    power_grid: tuple[float, ...] = DEFAULT_GRID
    trials: int = 20
    n_triples: int = 500
    seed: int = 0
    output_dir: str = "afdof-out"
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


def _config_value(key: str, default, value):
    """Type-check one config value against its field's default.  The grid
    is a list; integers are numbers with no fractional part; no number may
    be a bool."""
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ValueError(f"config key {key} must be a list of numbers, "
                             f"got {value!r}")
        return tuple(_config_value(key, default[0], p) for p in value)
    if default is None or isinstance(default, str):
        if not isinstance(value, dict if default is None else str):
            kind = "an object" if default is None else "a string"
            raise ValueError(f"config key {key} must be {kind}, got {value!r}")
        return value
    integral = isinstance(value, int) or (isinstance(value, float)
                                          and value.is_integer())
    kind = "an integer" if isinstance(default, int) else "a number"
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (kind == "an integer" and not integral)):
        raise ValueError(f"config key {key} must be {kind}, got {value!r}")
    return type(default)(value)


def read_config(path: str | None) -> dict:
    """The parsed JSON config, or {} without one."""
    if not path:
        return {}
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not isinstance(raw.get("channel", {}), dict):
        raise ValueError("config and its channel entry must be JSON objects")
    return raw


def load_config(args: argparse.Namespace, raw: dict) -> ExperimentConfig:
    """Merge defaults < config < flags (the seed falls back to AFDOF_SEED),
    then validate.  A channel given twice fails, but --channel-seed replaces gains."""
    names = {f.name for f in fields(ExperimentConfig)}
    flags = {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}
    channel = raw.get("channel", {})
    settings = {k: v for k, v in raw.items() if k != "channel"}
    unknown = sorted(k for k in settings
                     if k not in names or k.startswith("channel_")) + [
        f"channel.{k}" for k in sorted(channel) if f"channel_{k}" not in names]
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    # Only sample-conditions reads samples (a config may also feed the others).
    drawn = ("--samples" if "samples" in flags else "config samples" if
             args.command == "sample-conditions" and "samples" in raw else None)
    clash = "channel.seed" if "seed" in channel else drawn
    if "gains" in channel and clash:
        raise ValueError(f"channel given twice: config channel.gains and {clash}")
    settings.update({f"channel_{k}": v for k, v in channel.items()})

    cfg = ExperimentConfig()
    for name, value in settings.items():
        setattr(cfg, name, _config_value(name.replace("channel_", "channel."),
                                         getattr(cfg, name), value))
    if "seed" not in flags and "seed" not in raw and os.environ.get("AFDOF_SEED"):
        cfg.seed = int(os.environ["AFDOF_SEED"])
    for name, value in flags.items():
        setattr(cfg, name, parse_grid(value) if name == "power_grid" else value)
    if "channel_seed" in flags:
        cfg.channel_gains = None
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    """Range-check the merged settings, whatever their source.  The error
    names every rule they break."""
    grid = cfg.power_grid
    broken = [f"{rule}, got {value!r}" for rule, value, ok in (
        ("seeds must be >= 0", (cfg.seed, cfg.channel_seed),
         cfg.seed >= 0 and cfg.channel_seed >= 0),
        ("trials must be >= 1", cfg.trials, cfg.trials >= 1),
        ("n_triples must be >= 1", cfg.n_triples, cfg.n_triples >= 1),
        ("samples must be >= 1", cfg.samples, cfg.samples >= 1),
        ("count must be >= 1", cfg.count, cfg.count >= 1),
        ("fuzz must be >= 0", cfg.fuzz, cfg.fuzz >= 0),
        ("schedule_slots must be a positive multiple of 3", cfg.schedule_slots,
         cfg.schedule_slots >= 3 and cfg.schedule_slots % 3 == 0),
        ("max_dim must be in [1, 8]", cfg.max_dim, 1 <= cfg.max_dim <= 8),
        ("output_dir must be nonempty", cfg.output_dir, cfg.output_dir != ""),
        ("power grid values must be finite", list(grid),
         all(math.isfinite(p) for p in grid)),
        ("power grid must be strictly increasing", list(grid),
         all(b > a for a, b in zip(grid, grid[1:]))),
    ) if not ok]
    if broken:
        raise ValueError("; ".join(broken))
    if any(p < 1 for p in grid):
        raise InvalidPower(f"power grid values must be >= 1, got {list(grid)}")


def _resolve_channel(cfg: ExperimentConfig) -> ChannelRealization:
    if cfg.channel_gains is not None:
        return ChannelRealization.from_dict(cfg.channel_gains)
    return sample_channel(cfg.channel_seed)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fail(outdir: str, name: str, detail) -> int:
    payload = {"error": name, "detail": detail}
    os.makedirs(outdir, exist_ok=True)
    _write_json(os.path.join(outdir, "error.json"), payload)
    print(json.dumps(payload), file=sys.stderr)
    return 1


def _fmt(x: float) -> str:
    return format(float(x), _FLOAT_FMT)


def cmd_run_achievability(cfg: ExperimentConfig) -> list:
    ch = _resolve_channel(cfg)
    plan = plan_achievability(ch)
    points = sweep_power_grid(ch, plan, cfg.power_grid,
                              n_triples=cfg.n_triples, trials=cfg.trials,
                              seed=cfg.seed)
    report = fit_rate_report(points)
    tdma_rates = [baseline_tdma_rate(ch, p.P, plan) for p in points]
    moments = [relay_powers(ch, plan, p.P) for p in points]  # per phase (u, v)
    tdma_fit = estimate_dof_slope(
        [(p.P, r1 + r2) for p, (r1, r2) in zip(points, tdma_rates)])

    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "rates.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["P", "R1", "R2", "R_sum", "mse_a1", "mse_a2",
                         "mse_b1", "mse_b2", "relay_pu", "relay_pv"])
        for p, phases in zip(points, moments):
            writer.writerow([_fmt(v) for v in (
                p.P, p.R1, p.R2, p.R1 + p.R2, p.mse_a1, p.mse_a2,
                p.mse_b1, p.mse_b2, *np.mean(phases, axis=0))])
    _write_json(os.path.join(cfg.output_dir, "plan.json"), {
        **asdict(plan), "channel": ch.to_dict()})
    _write_json(os.path.join(cfg.output_dir, "slope.json"), {
        "scheme": {**asdict(report.sum_fit),
                   "slope_user1": report.slope_user1,
                   "slope_user2": report.slope_user2},
        "tdma": asdict(tdma_fit),
    })

    sums = [p.R1 + p.R2 for p in points]
    worst_power = max(np.max(phases) / p.P for p, phases in zip(points, moments))
    lo, hi = USER_SLOPE_WINDOW
    return [
        ("scheme_sum_slope",
         SCHEME_SLOPE_WINDOW[0] <= report.slope_sum <= SCHEME_SLOPE_WINDOW[1],
         report.slope_sum),
        ("per_user_slopes",
         lo <= report.slope_user1 <= hi and lo <= report.slope_user2 <= hi,
         (report.slope_user1, report.slope_user2)),
        ("tdma_slope",
         TDMA_SLOPE_WINDOW[0] <= tdma_fit.slope <= TDMA_SLOPE_WINDOW[1],
         tdma_fit.slope),
        ("tdma_below_scheme",
         tdma_fit.slope < report.slope_sum and sum(tdma_rates[-1]) < sums[-1],
         {"tdma_sum": sum(tdma_rates[-1]), "scheme_sum": sums[-1]}),
        ("relay_power_feasible", worst_power <= 1 + 1e-12, worst_power),
        ("monotone_sum_rate", all(b >= a for a, b in zip(sums, sums[1:])), sums),
    ]


def cmd_verify_bounds(cfg: ExperimentConfig) -> list:
    """Census, bound slopes and ratio-map probe of the scheme's schedule,
    after checking the plan's phases as run-achievability does."""
    n = cfg.schedule_slots
    ch = _resolve_channel(cfg)
    plan = plan_achievability(ch)
    var_d1, var_d2 = analytic_noise_variances(ch, plan)
    mu, lam = scheme_schedule(plan, n // 3)
    states = slot_states(ch, mu, lam)  # census.csv's state column
    cens = StateCensus.of(states)
    set_name, fraction = min_census_fraction(cens)
    slope_dof = bound_slopes(cens)
    min_bound_slope = min(slope_dof)

    achieved = [(P, achievable_rate(P, *var_d1) + achievable_rate(P, *var_d2))
                for P in cfg.power_grid]
    achieved_fit = estimate_dof_slope(achieved)

    fillers = keyed_rng(FUZZ, cfg.seed).uniform(*FILLER_RANGE, cfg.fuzz)
    probe = ratio_map_probe(ch, plan, fillers)

    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "census.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "mu", "lambda", "state"])
        for k, (mu_k, lam_k, label) in enumerate(zip(mu, lam, states)):
            writer.writerow([k, _fmt(mu_k), _fmt(lam_k), label.value])
    _write_json(os.path.join(cfg.output_dir, "bounds.json"), {
        "census": asdict(cens),
        "min_fraction": {"set": set_name, "fraction": fraction},
        "achieved_sum_slope": achieved_fit.slope,
        "min_bound_slope": min_bound_slope,
        "slope_dof": slope_dof,
        "fuzz": {"schedules": cfg.fuzz, "violations": probe.violations},
        "ratio_map": {"probes": probe.probes, "band": probe.band,
                      "disagreements": probe.disagreements,
                      "rel_tol": RATIO_MAP_REL_TOL},
    })

    return [
        ("pigeonhole", 3 * min(cens.nA, cens.nB, cens.nC) <= cens.n, fraction),
        ("achievability_census_balanced",
         cens.nA == cens.nB == cens.nC1 == n // 3 and cens.nZero == 0,
         asdict(cens)),
        ("slope_dominance",
         achieved_fit.slope <= min_bound_slope + SLOPE_DOMINANCE_TOL,
         {"achieved": achieved_fit.slope, "min_bound": min_bound_slope}),
        ("fuzz_ratio_map", probe.violations == 0, probe.violations),
    ]


def cmd_check_lemma2(cfg: ExperimentConfig) -> list:
    """Check ``count`` random lemma instances, one check_lemma2 call per
    dimension's stack; random_lemma2_stacks draws none that is singular."""
    stacks = random_lemma2_stacks(keyed_rng(LEMMA, cfg.seed), cfg.count,
                                  cfg.max_dim)
    violations = sum(int(np.count_nonzero(~check_lemma2(*s)[2])) for s in stacks)
    print(json.dumps({"count": cfg.count, "violations": violations}))
    return [("lemma2_violations", violations == 0, violations)]


def cmd_sample_conditions(cfg: ExperimentConfig) -> list:
    inline = cfg.channel_gains is not None
    samples = 1 if inline else cfg.samples
    if inline:
        chunks = [[ChannelRealization.from_dict(cfg.channel_gains).gains()]]
    else:
        # Chunks continue one stream: they equal per-channel draws of 8 gains.
        rng = keyed_rng(SAMPLE_CONDITIONS, cfg.seed)
        chunks = (rng.standard_normal((min(GAIN_CHUNK_ROWS, samples - start), 8))
                  for start in range(0, samples, GAIN_CHUNK_ROWS))
    failures = sum(int(np.count_nonzero(~check_conditions(rows).generic))
                   for rows in chunks)
    report = {"samples": samples, "failures": failures, "fraction": failures / samples}
    print(json.dumps({**report, "generic": failures == 0} if inline else report))
    return [("genericity_failures", failures == 0, failures)]


_COMMANDS = {  # name: (function, help, flags beyond --config, --seed, --out)
    "run-achievability": (cmd_run_achievability,
                          "rate sweep over a power grid plus TDMA baseline",
                          ("--grid", "--trials", "--n-triples", "--channel-seed")),
    "verify-bounds": (cmd_verify_bounds,
                      "state census, slope bounds and the ratio-map probe",
                      ("--grid", "--slots", "--fuzz", "--channel-seed")),
    "check-lemma2": (cmd_check_lemma2,
                     "random Gaussian instances of the entropy lemma",
                     ("--count", "--max-dim")),
    "sample-conditions": (cmd_sample_conditions,
                          "sample channels and report genericity failures",
                          ("--samples",)),
}

_FLAGS = {  # flag: (ExperimentConfig field it sets, help)
    "--grid": ("power_grid", "comma-separated powers, e.g. 1e3,1e4.5,1e6"),
    "--trials": ("trials", None),
    "--n-triples": ("n_triples", None),
    "--channel-seed": ("channel_seed", "seeded channel; replaces channel.gains"),
    "--slots": ("schedule_slots", "schedule length (multiple of 3)"),
    "--fuzz": ("fuzz", "number of random filler values to probe"),
    "--count": ("count", None),
    "--max-dim": ("max_dim", None),
    "--samples": ("samples", "channels to draw; not with channel.gains"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afdof",
        description=("Two-hop interference channel experiments with "
                     "time-varying amplify-forward relays.  Settings "
                     "precedence: built-in defaults < --config JSON < flags; "
                     "AFDOF_SEED seeds runs when neither flag nor config "
                     "sets one."))
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="JSON config file; flags override its fields")
        sub.add_argument("--seed", type=int,
                         help="experiment seed (fallback: config, then AFDOF_SEED)")
        sub.add_argument("--out", dest="output_dir", metavar="OUT",
                         help="output directory")
        for flag in flags:
            dest, flag_help = _FLAGS[flag]
            sub.add_argument(flag, dest=dest, help=flag_help,
                             metavar=flag[2:].replace("-", "_").upper(),
                             type=str if dest == "power_grid" else int)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Each ``cmd_*`` writes its outputs and returns
    its ``(name, ok, detail)`` invariant checks.  Any exception or failed
    check ends in ``error.json`` and exit status 1, in the directory settled
    first: ``--out``, else the config's ``output_dir`` if it is a nonempty
    string, else the default."""
    args = build_parser().parse_args(argv)
    outdir = args.output_dir or ExperimentConfig.output_dir
    try:
        raw = read_config(args.config)
        if not args.output_dir and isinstance(raw.get("output_dir"), str):
            outdir = raw["output_dir"] or outdir
        checks = _COMMANDS[args.command][0](load_config(args, raw))
    except Exception as exc:  # noqa: BLE001 - every failure maps to error.json
        return _fail(outdir, type(exc).__name__, str(exc))
    failed = {name: detail for name, ok, detail in checks if not ok}
    return _fail(outdir, "invariant_check_failed", failed) if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
