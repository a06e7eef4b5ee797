import collections
import csv
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

import afdof.bounds
import afdof.channel
import afdof.cli
import afdof.scheme
from afdof import (ChannelRealization, check_conditions, plan_achievability,
                   relay_powers)
from afdof.cli import (
    SCHEME_SLOPE_WINDOW,
    TDMA_SLOPE_WINDOW,
    USER_SLOPE_WINDOW,
    main,
    parse_grid,
    parse_power,
)
from afdof.simulate import SAMPLE_CONDITIONS, keyed_rng
from conftest import REFERENCE_GAINS

REF_GAIN_JSON = {
    "s1u": 1, "s2u": 2, "s1v": 3, "s2v": 1,
    "ud1": 1, "vd1": 1, "ud2": 2, "vd2": 1,
}


def write_config(path, **overrides):
    payload = {
        "channel": {"gains": REF_GAIN_JSON},
        "power_grid": [1e3, 10 ** 4.5, 1e6, 10 ** 7.5, 1e9],
        "trials": 4,
        "n_triples": 300,
        "seed": 0,
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_power_fractional_exponent():
    assert parse_power("1e3") == 1e3
    assert parse_power("1e4.5") == pytest.approx(10 ** 4.5)
    assert parse_power("2.5e2") == 250.0
    assert parse_grid("1e3, 1e4.5,1e6") == (1e3, pytest.approx(10 ** 4.5), 1e6)
    with pytest.raises(ValueError):
        parse_power("banana")


def test_run_achievability(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["run-achievability", "--config", cfg, "--out", str(out)]) == 0

    with open(out / "rates.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert set(rows[0]) == {"P", "R1", "R2", "R_sum", "mse_a1", "mse_a2",
                            "mse_b1", "mse_b2", "relay_pu", "relay_pv"}
    # The relay columns are the exact phase means of relay_powers.
    ch = ChannelRealization(*REFERENCE_GAINS)
    plan = plan_achievability(ch)
    grid = json.loads((tmp_path / "cfg.json").read_text())["power_grid"]
    for row, P in zip(rows, grid):
        pu, pv = np.mean(relay_powers(ch, plan, P), axis=0)
        assert (row["relay_pu"], row["relay_pv"]) == (format(pu, ".12g"),
                                                      format(pv, ".12g"))

    # Record field names are the JSON schema; a renamed field fails here.
    fit_keys = {"grid", "sum_rates", "slope", "intercept", "residual"}
    slope = json.loads((out / "slope.json").read_text())
    assert set(slope) == {"scheme", "tdma"}
    assert set(slope["scheme"]) == fit_keys | {"slope_user1", "slope_user2"}
    assert set(slope["tdma"]) == fit_keys
    assert SCHEME_SLOPE_WINDOW[0] <= slope["scheme"]["slope"] <= SCHEME_SLOPE_WINDOW[1]
    assert TDMA_SLOPE_WINDOW[0] <= slope["tdma"]["slope"] <= TDMA_SLOPE_WINDOW[1]
    for user in ("slope_user1", "slope_user2"):
        assert USER_SLOPE_WINDOW[0] <= slope["scheme"][user] <= USER_SLOPE_WINDOW[1]

    plan = json.loads((out / "plan.json").read_text())
    assert set(plan) == {"c", "l", "lambda_phase1", "lambda_phase2",
                         "channel"}
    assert plan["c"] == pytest.approx(0.15075567228888181)
    assert plan["channel"]["s1u"] == 1.0


def test_run_achievability_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", trials=2, n_triples=100)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run-achievability", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["run-achievability", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "rates.csv").read_bytes() == (out_b / "rates.csv").read_bytes()
    assert (out_a / "slope.json").read_bytes() == (out_b / "slope.json").read_bytes()
    # The seeded-output contract: this .12g CSV changes only on purpose (a
    # new stream layout updates the digest).  The sweep draws its blocks'
    # Gram matrix from chisquare, numpy's gamma sampler, and
    # standard_normal.  Full-precision JSON floats may differ in the last
    # bits across numpy builds and BLAS kernels (the sweep's small matmuls
    # round otherwise without FMA, as under OpenBLAS's SandyBridge kernel),
    # so only the CSV is pinned.
    assert hashlib.sha256((out_a / "rates.csv").read_bytes()).hexdigest() == (
        "3d491c864680f617b1fa447c9cd99f4370a236ae416721759c4a8dca5b47e546")


def test_run_achievability_digest_depends_on_trials_times_triples(tmp_path):
    # A sweep reads trials and n_triples only through their product, so one
    # trial of 200 triples gives the digest pinned in
    # test_run_achievability_deterministic for two trials of 100.
    cfg = write_config(tmp_path / "cfg.json", trials=1, n_triples=200)
    out = tmp_path / "out"
    assert main(["run-achievability", "--config", cfg, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "rates.csv").read_bytes()).hexdigest() == (
        "3d491c864680f617b1fa447c9cd99f4370a236ae416721759c4a8dca5b47e546")


def test_relay_power_check_can_fail(tmp_path, monkeypatch):
    # One phase over the budget by 1 % must fail the run, whatever the rest.
    exact = afdof.cli.relay_powers

    def over_budget(ch, plan, P):
        (_, v1), *rest = exact(ch, plan, P)
        return ((1.01 * P, v1), *rest)

    monkeypatch.setattr(afdof.cli, "relay_powers", over_budget)
    cfg = write_config(tmp_path / "cfg.json", trials=2, n_triples=100)
    out = tmp_path / "out"
    assert main(["run-achievability", "--config", cfg, "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "invariant_check_failed"
    assert err["detail"] == {"relay_power_feasible": pytest.approx(1.01)}


def test_run_achievability_rejects_low_power(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", power_grid=[0.5, 1e3, 1e6, 1e9])
    out = tmp_path / "out"
    assert main(["run-achievability", "--config", cfg, "--out", str(out)]) != 0
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "InvalidPower"


def test_verify_bounds(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["verify-bounds", "--config", cfg, "--out", str(out),
                 "--slots", "30", "--fuzz", "50"]) == 0

    with open(out / "census.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    states = [r["state"] for r in rows]
    assert states[:3] == ["B", "A", "C1"]
    # census.csv prints .12g: each slot's mu and lam (plan_achievability's
    # scalar float arithmetic and math.sqrt, np.tile) and its state by the
    # zero rule (elementwise abs, max and comparison).  bounds.json keeps
    # full precision: counts and their ratios, the probe's counts and bands
    # (the FUZZ stream's uniform fillers pick its pairs; PROBE_OFFSETS are
    # the bands) and the achieved slope, from the analytic sigma^2 through
    # elementwise ops, math.log2 and math.fsum.  No BLAS matmul and no
    # reduction whose order depends on the SIMD level reaches either file,
    # so both are pinned.
    assert hashlib.sha256((out / "census.csv").read_bytes()).hexdigest() == (
        "d398fc321b110d6d22bbd1218f1096c286a5de38cb70194c1c70f364d5d72852")
    assert hashlib.sha256((out / "bounds.json").read_bytes()).hexdigest() == (
        "7dbf94c3c405e5a9ef9b7ebdfdc637921bf911c5b0a0a1ad0d55c50ce74082bf")

    bounds = json.loads((out / "bounds.json").read_text())
    counts = collections.Counter(states)
    assert bounds["census"] == {"nA": counts["A"], "nB": counts["B"],
                                "nC1": counts["C1"], "nC2": counts["C2"],
                                "nC3": counts["C3"], "nZero": counts["Zero"],
                                "n": len(states)}
    assert bounds["census"]["nA"] == bounds["census"]["nB"] == 10
    assert bounds["min_fraction"]["fraction"] == pytest.approx(1 / 3)
    assert bounds["fuzz"] == {"schedules": 50, "violations": 0}
    ratio_map = bounds["ratio_map"]
    assert set(ratio_map) == {"probes", "disagreements", "rel_tol", "band"}
    assert ratio_map["probes"] == 88 + 7 + 50
    assert ratio_map["rel_tol"] == 1e-9
    assert set(ratio_map["band"]) == {"A", "B", "C2", "C3"}
    assert bounds["achieved_sum_slope"] <= bounds["min_bound_slope"] + 0.05
    assert set(bounds) == {"census", "min_fraction", "achieved_sum_slope",
                           "min_bound_slope", "slope_dof", "fuzz", "ratio_map"}
    assert bounds["slope_dof"] == pytest.approx([4 / 3] * 3)
    assert bounds["min_bound_slope"] == min(bounds["slope_dof"])


def swap_labels(monkeypatch, e, f):
    """Swap the labels of the one-zero patterns of entries e and f, in
    (alpha1, beta1, alpha2, beta2) order, in the one zero rule."""
    swapped = afdof.channel._PATTERN_IDS.copy()
    swapped[[1 << e, 1 << f]] = swapped[[1 << f, 1 << e]]
    monkeypatch.setattr(afdof.channel, "_PATTERN_IDS", swapped)


def test_fuzz_ratio_map_check_can_fail(tmp_path, monkeypatch):
    # Swapping the C2 and C3 labels keeps every census balanced and leaves
    # the scheme's phases (B, A, C1) alone, so the census checks and
    # phase_matrices pass; only the ratio-map probe, which runs at the
    # default --fuzz 0, sees the swap.
    swap_labels(monkeypatch, 0, 3)
    out = tmp_path / "out"
    assert main(["verify-bounds", "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "invariant_check_failed"
    assert list(err["detail"]) == ["fuzz_ratio_map"]
    bounds = json.loads((out / "bounds.json").read_text())
    assert bounds["fuzz"]["schedules"] == 0
    assert 0 < err["detail"]["fuzz_ratio_map"] == bounds["fuzz"]["violations"]


def test_ratio_map_disagreement_inside_a_band_passes(tmp_path):
    # On channel 42 the zero rule and the critical-ratio map label some
    # probes near a critical ratio differently, all inside that entry's
    # band, so verify-bounds reports them and still exits 0.
    out = tmp_path / "out"
    assert main(["verify-bounds", "--channel-seed", "42",
                 "--out", str(out)]) == 0
    bounds = json.loads((out / "bounds.json").read_text())
    assert bounds["fuzz"] == {"schedules": 0, "violations": 0}
    assert bounds["ratio_map"]["disagreements"] > 0
    assert all(1e-9 <= b <= 1e-3 for b in bounds["ratio_map"]["band"].values())


def test_label_swap_stops_the_scheme(tmp_path, monkeypatch):
    # With A and B swapped, phase 1 is labelled A: phase_matrices refuses
    # to decode, before any trial runs.
    swap_labels(monkeypatch, 1, 2)
    out = tmp_path / "out"
    assert main(["run-achievability", "--trials", "1", "--n-triples", "10",
                 "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "DegenerateCoefficients"
    assert err["detail"].startswith("phase 1 is A, not B: entries")
    assert not (out / "rates.csv").exists()


@pytest.mark.parametrize("flags", [["--slots", "31"], ["--fuzz", "-5"],
                                   ["--grid", "nan,1e4,1e5,1e6,1e7"]],
                         ids=["slots", "fuzz", "nan-grid"])
def test_verify_bounds_rejects_bad_slots(tmp_path, flags):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["verify-bounds", "--config", cfg, "--out", str(out),
                 *flags]) != 0
    assert (out / "error.json").exists()
    assert not (out / "bounds.json").exists()


@pytest.mark.parametrize("overrides,detail", [
    ({"trails": 2}, "unknown config keys"),
    ({"channel": {"sed": 3}}, "unknown config keys"),
    ({"trials": 2.7}, "trials must be an integer"),
    ({"trials": True}, "trials must be an integer"),
    ({"fuzz": 1.9}, "fuzz must be an integer"),
    ({"seed": 0.5}, "seed must be an integer"),
    ({"channel": {"seed": 1.5}}, "channel.seed must be an integer"),
    ({"seed": -1}, "seeds must be >= 0"),
    ({"channel": {"seed": -3}}, "seeds must be >= 0"),
    ({"rel_tol": 1e-12}, "unknown config keys"),
    ({"state_tol": 1e-9}, "unknown config keys"),
    ({"power_grid": [1e3, True, 1e6]}, "power_grid must be a number"),
    ({"power_grid": 1000}, "config key power_grid must be a list"),
    ({"power_grid": "1e3,1e6"}, "config key power_grid must be a list"),
    ({"channel": {"gains": {**REF_GAIN_JSON, "s1u": float("inf")}}},
     "channel gain s1u must be a finite number"),
    ({"channel": {"gains": {**REF_GAIN_JSON, "extra": 5}}},
     "unknown channel gains: ['extra']"),
    ({"output_dir": None}, "output_dir must be a string"),
    ({"output_dir": 7}, "output_dir must be a string"),
    ({"channel": {"gains": [list(kv) for kv in REF_GAIN_JSON.items()]}},
     "channel.gains must be an object"),
    ({"channel": [1]}, "must be JSON objects"),
    ({"channel": {"seed": 3, "gains": REF_GAIN_JSON}},
     "channel given twice: config channel.gains and channel.seed"),
], ids=["top-level", "channel", "float-trials", "bool-trials", "float-fuzz",
        "float-seed", "float-channel-seed", "negative-seed",
        "negative-channel-seed", "removed-rel-tol", "removed-state-tol",
        "bool-grid-entry", "int-grid", "string-grid", "inf-gain", "extra-gain",
        "null-output-dir", "int-output-dir", "list-gains", "list-channel",
        "seed-and-gains"])
def test_config_rejects_unknown_key(tmp_path, overrides, detail):
    # Unknown keys and malformed values of known keys both fail up front.
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "out"
    assert main(["run-achievability", "--config", cfg, "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError"
    assert detail in err["detail"]
    assert not (out / "rates.csv").exists()


def test_config_errors_write_error_json(tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert main(["sample-conditions", "--config", str(tmp_path / "missing.json"),
                 "--out", str(out)]) == 1
    assert json.loads((out / "error.json").read_text())["error"] == "FileNotFoundError"
    # A config that is not a JSON object fails before any setting is read.
    (tmp_path / "list.json").write_text("[1, 2]")
    assert main(["sample-conditions", "--config", str(tmp_path / "list.json"),
                 "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError" and "JSON objects" in err["detail"]
    for argv in (["check-lemma2", "--seed", "-1"],
                 ["sample-conditions", "--seed", "-1"]):
        (out / "error.json").unlink()
        assert main([*argv, "--out", str(out)]) == 1
        assert json.loads((out / "error.json").read_text())["error"] == "ValueError"
    for env_seed in ("nine", "-1"):
        (out / "error.json").unlink()
        monkeypatch.setenv("AFDOF_SEED", env_seed)
        assert main(["sample-conditions", "--samples", "5",
                     "--out", str(out)]) == 1
        assert json.loads((out / "error.json").read_text())["error"] == "ValueError"
    # Without --out, error.json goes to the config's output_dir, even when a
    # later config key is the one that fails.
    cfg = tmp_path / "cfg.json"
    for command, overrides in (("run-achievability", {"trials": 2.5}),
                               ("sample-conditions", {"samples": 0})):
        cfg_out = tmp_path / command
        cfg.write_text(json.dumps({"output_dir": str(cfg_out), **overrides}))
        assert main([command, "--config", str(cfg)]) == 1
        assert json.loads((cfg_out / "error.json").read_text())["error"] == "ValueError"
    # An empty output_dir is rejected, and error.json falls back to the
    # default directory.
    monkeypatch.chdir(tmp_path)
    cfg.write_text(json.dumps({"output_dir": ""}))
    assert main(["sample-conditions", "--config", str(cfg), "--samples", "5"]) == 1
    err = json.loads((tmp_path / "afdof-out" / "error.json").read_text())
    assert err["error"] == "ValueError" and "output_dir" in err["detail"]
    # So is a null output_dir, which must not become a directory named None.
    (tmp_path / "afdof-out" / "error.json").unlink()
    cfg.write_text(json.dumps({"output_dir": None}))
    assert main(["sample-conditions", "--config", str(cfg), "--samples", "5"]) == 1
    err = json.loads((tmp_path / "afdof-out" / "error.json").read_text())
    assert err["error"] == "ValueError" and "output_dir" in err["detail"]
    assert not (tmp_path / "None").exists()
    # Empty flags are applied, not skipped: --out "" fails the same rule,
    # and --grid "" leaves no grid to fit.
    monkeypatch.delenv("AFDOF_SEED")
    (tmp_path / "afdof-out" / "error.json").unlink()
    assert main(["verify-bounds", "--out", ""]) == 1
    err = json.loads((tmp_path / "afdof-out" / "error.json").read_text())
    assert err["error"] == "ValueError" and "output_dir" in err["detail"]
    assert not (tmp_path / "afdof-out" / "bounds.json").exists()
    assert main(["verify-bounds", "--grid", ""]) == 1
    err = json.loads((tmp_path / "afdof-out" / "error.json").read_text())
    assert err["error"] == "InsufficientGrid"
    assert not (tmp_path / "afdof-out" / "bounds.json").exists()


def test_nongeneric_draw_stops_run_achievability(tmp_path, monkeypatch):
    # A seed is one draw and the planner is its one genericity gate: a
    # draw the check rejects fails the run before any sweep.  A tolerance
    # of 10 rejects every draw.
    monkeypatch.setattr(afdof.channel, "GENERIC_TOL", 10.0)
    out = tmp_path / "out"
    assert main(["run-achievability", "--channel-seed", "3",
                 "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "NonGenericChannel"
    assert not (out / "rates.csv").exists()


def test_undecodable_channel_fails_alike_in_both_subcommands(tmp_path):
    # With h_s1u at 1e-9 of the largest gain the channel passes the
    # genericity check, but phase 2's matrix has two zero entries.  Both
    # subcommands check the plan's phases before anything else, so both
    # name the same phase and error.
    gains = np.random.default_rng(3).standard_normal(8)
    gains[0] = 1e-9 * np.abs(gains).max()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"channel": {"gains": dict(
        zip(REF_GAIN_JSON, gains.tolist()))}}))
    for command in ("run-achievability", "verify-bounds"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "DegenerateCoefficients", command
        assert err["detail"].startswith("phase 2 is impossible, not A"), command


def test_check_lemma2_command(capsys):
    assert main(["check-lemma2", "--count", "50", "--max-dim", "3",
                 "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"count": 50, "violations": 0}


def test_check_lemma2_fails_loudly_on_a_singular_stack(monkeypatch, tmp_path):
    # Y = Z almost surely: the drawn stack is singular, and check-lemma2
    # fails as every subcommand does, with no resampling.
    singular = (np.ones((1, 1, 1)),) * 3 + (np.ones((1, 2, 2)),)
    monkeypatch.setattr(afdof.cli, "random_lemma2_stacks",
                        lambda rng, count, max_dim: [singular])
    out = tmp_path / "out"
    assert main(["check-lemma2", "--count", "1", "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "SingularCovariance"


def recorded(monkeypatch, module, name):
    """Wrap ``module``'s binding of ``name``; returns the list of its
    results, each taken as a list, so a generator's items stay readable."""
    results = []
    draw = getattr(module, name)

    def wrapper(*args):
        results.append(list(draw(*args)))
        return results[-1]

    monkeypatch.setattr(module, name, wrapper)
    return results


FUZZ_DIGEST = "2447c3f6c4af2369660d1067fca93d23bb6abb5f755cf559f311e8b60aacd591"
LEMMA_DIGEST = "e8be5c7c6cc53b195e9baa6cf50574c8c39819e63f352dfd5ae6700afeb6ee6d"


def test_fuzz_and_lemma_draws_pinned(tmp_path, monkeypatch, capsys):
    # Neither bounds.json nor the check-lemma2 stdout shows what was drawn,
    # so the FUZZ and LEMMA streams are pinned by their seed-0 draws: moving
    # either to another keyed_rng key changes its digest.  The LEMMA digest
    # covers the first five instances in stack order.  Both print .12g.
    # FUZZ is SFC64's uniform draws alone.  LEMMA is its integers (the
    # dimensions) and standard normals, with random_spd's small BLAS
    # matmuls; its redraw rule reads np.linalg.inv and the 2-norm, which is
    # LAPACK's SVD, but these five draws have ||W||_2 <= 26.1, 38x inside
    # W_NORM_MAX, so no LAPACK rounding can change which pairs are kept.
    fillers = []
    probe = afdof.cli.ratio_map_probe
    monkeypatch.setattr(afdof.cli, "ratio_map_probe", lambda ch, plan, f: (
        fillers.append(f), probe(ch, plan, f))[1])
    draws = recorded(monkeypatch, afdof.cli, "random_lemma2_stacks")
    assert main(["verify-bounds", "--seed", "0", "--fuzz", "3",
                 "--out", str(tmp_path / "vb")]) == 0
    assert main(["check-lemma2", "--seed", "0", "--count", "5",
                 "--out", str(tmp_path / "lemma")]) == 0
    capsys.readouterr()
    assert len(fillers) == 1 and len(fillers[0]) == 3 and len(draws) == 1
    instances = [inst for stack in draws[0] for inst in zip(*stack)]
    assert len(instances) == 5
    fuzz = ",".join(f"{f:.12g}" for f in fillers[0])
    lemma = "\n".join(f"{inst[0].shape[0]};" + ";".join(
        ",".join(f"{v:.12g}" for v in m.ravel()) for m in inst)
        for inst in instances)
    assert hashlib.sha256(fuzz.encode()).hexdigest() == FUZZ_DIGEST
    assert hashlib.sha256(lemma.encode()).hexdigest() == LEMMA_DIGEST


def test_check_lemma2_usage_errors(tmp_path):
    out = tmp_path / "out"
    for argv, setting in ((["check-lemma2", "--count", "0"], "count"),
                          (["check-lemma2", "--count", "5", "--max-dim", "9"],
                           "max_dim"),
                          (["sample-conditions", "--samples", "0"], "samples"),
                          (["run-achievability", "--trials", "0"], "trials")):
        assert main([*argv, "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ValueError"
        assert setting in err["detail"]
        (out / "error.json").unlink()


def test_sample_conditions(capsys):
    assert main(["sample-conditions", "--samples", "2000", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["samples"] == 2000
    assert report["failures"] == 0


def test_sample_conditions_output_pinned(tmp_path, capsys):
    # 10000 rows cross two chunk boundaries; the inline config checks one
    # channel and prints "generic" as a JSON bool.  The stdout holds counts
    # of the SAMPLE_CONDITIONS stream's standard normals that fail
    # check_conditions (elementwise products, abs, maximum and comparison);
    # no matmul or reduction reaches it.
    assert 2 * afdof.cli.GAIN_CHUNK_ROWS < 10000
    assert main(["sample-conditions", "--samples", "10000", "--seed", "3",
                 "--out", str(tmp_path / "drawn")]) == 0
    assert (capsys.readouterr().out
            == '{"samples": 10000, "failures": 0, "fraction": 0.0}\n')
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["sample-conditions", "--config", cfg,
                 "--out", str(tmp_path / "inline")]) == 0
    assert (capsys.readouterr().out == '{"samples": 1, "failures": 0, '
            '"fraction": 0.0, "generic": true}\n')


def test_sample_conditions_counts_its_keyed_rows(tmp_path, capsys, monkeypatch):
    # On random gains the count is 0 whatever the draws.  At a coarse
    # tolerance about 12 % of rows fail, so the count shows which rows were
    # drawn: the chunked CLI count over 10000 rows (two chunk boundaries)
    # equals a one-channel count over the sample-conditions stream's rows.
    monkeypatch.setattr(afdof.channel, "GENERIC_TOL", 1e-2)
    rows = keyed_rng(SAMPLE_CONDITIONS, 3).standard_normal((10000, 8)).tolist()
    want = sum(not check_conditions(ChannelRealization(*row)).generic
               for row in rows)
    assert 0 < want < len(rows)
    assert main(["sample-conditions", "--samples", "10000", "--seed", "3",
                 "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == want


def test_sample_conditions_deterministic(capsys):
    main(["sample-conditions", "--samples", "50", "--seed", "9"])
    first = capsys.readouterr().out
    main(["sample-conditions", "--samples", "50", "--seed", "9"])
    assert capsys.readouterr().out == first


def test_sample_conditions_inline_nongeneric(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"channel": {"gains": {k: 1 for k in REF_GAIN_JSON}}}))
    out = tmp_path / "out"
    assert main(["sample-conditions", "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["generic"] is False
    assert json.loads((out / "error.json").read_text())["error"] == "invariant_check_failed"


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("AFDOF_SEED", "9")
    main(["sample-conditions", "--samples", "50"])
    via_env = capsys.readouterr().out
    monkeypatch.delenv("AFDOF_SEED")
    main(["sample-conditions", "--samples", "50", "--seed", "9"])
    assert capsys.readouterr().out == via_env


def test_flag_overrides_config_seed(tmp_path):
    # precedence: flags beat the config file
    cfg = write_config(tmp_path / "cfg.json", seed=4, trials=2, n_triples=50)
    out_flag = tmp_path / "flag"
    out_cfg = tmp_path / "cfg_only"
    assert main(["run-achievability", "--config", cfg, "--out", str(out_cfg)]) == 0
    assert main(["run-achievability", "--config", cfg, "--seed", "5",
                 "--out", str(out_flag)]) == 0
    assert ((out_flag / "rates.csv").read_bytes()
            != (out_cfg / "rates.csv").read_bytes())


def test_a_channel_is_given_once(tmp_path, capsys):
    # --channel-seed beats the config's inline gains, as every flag beats
    # the config: the run is the seeded channel's, not the gains'.
    cfg = write_config(tmp_path / "cfg.json")
    runs = {name: tmp_path / name for name in ("both", "flag", "gains")}
    for name, argv in (("both", ["--config", cfg, "--channel-seed", "7"]),
                       ("flag", ["--channel-seed", "7"]),
                       ("gains", ["--config", cfg])):
        assert main(["verify-bounds", *argv, "--out", str(runs[name])]) == 0
    both, flag, gains = ((runs[n] / "bounds.json").read_bytes() for n in runs)
    assert both == flag != gains
    # --samples asks for drawn channels, which inline gains do not give.
    out = tmp_path / "samples"
    assert main(["sample-conditions", "--config", cfg, "--samples", "5000",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    err = json.loads((out / "error.json").read_text())
    assert err == {"error": "ValueError", "detail": "channel given twice: "
                   "config channel.gains and --samples"}
    # So does a config's samples, in sample-conditions, the one command
    # that reads it; the same config still feeds the other commands.
    cfg = write_config(tmp_path / "samples.json", samples=5000)
    assert main(["sample-conditions", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    err = json.loads((out / "error.json").read_text())
    assert err == {"error": "ValueError", "detail": "channel given twice: "
                   "config channel.gains and config samples"}
    assert main(["verify-bounds", "--config", cfg,
                 "--out", str(tmp_path / "vb")]) == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "afdof.cli", "sample-conditions",
         "--samples", "20", "--seed", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failures"] == 0
