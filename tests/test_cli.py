import collections
import csv
import hashlib
import json
import subprocess
import sys

import pytest

import afdof.bounds
from afdof.cli import (
    SCHEME_SLOPE_WINDOW,
    TDMA_SLOPE_WINDOW,
    USER_SLOPE_WINDOW,
    main,
    parse_grid,
    parse_power,
)
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
                         "lambda_phase3", "mu_all", "alphabet", "channel"}
    assert set(plan["alphabet"]) == {"U", "V"}
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
    # new stream layout updates the digest).  Full-precision JSON floats may
    # differ in the last bits across numpy builds, so only the CSV is pinned.
    assert hashlib.sha256((out_a / "rates.csv").read_bytes()).hexdigest() == (
        "52e135bdc072a91c81f6e607cc4c9dacf2dccc1240572e5b570449ec948c5dbe")


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

    bounds = json.loads((out / "bounds.json").read_text())
    counts = collections.Counter(states)
    assert bounds["census"] == {"nA": counts["A"], "nB": counts["B"],
                                "nC1": counts["C1"], "nC2": counts["C2"],
                                "nC3": counts["C3"], "nZero": counts["Zero"],
                                "n": len(states)}
    assert bounds["census"]["nA"] == bounds["census"]["nB"] == 10
    assert bounds["min_fraction"]["fraction"] == pytest.approx(1 / 3)
    assert bounds["fuzz"] == {"schedules": 50, "violations": 0}
    assert bounds["achieved_sum_slope"] <= bounds["min_bound_slope"] + 0.05
    assert set(bounds["constants"]) == {"M", "N", "M_ij"}
    per_P = bounds["per_P"]
    assert len(per_P) == 5
    for entry in per_P:
        assert set(entry) == {"P", "bound1", "bound2", "bound3", "slope_dof",
                              "argmin_set", "residual_note"}
        assert entry["argmin_set"] == bounds["min_fraction"]["set"]
        assert entry["residual_note"] == afdof.bounds.RESIDUAL_NOTE
    assert bounds["min_bound_slope"] == min(min(e["slope_dof"]) for e in per_P)


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
    ({"channel": {"gains": {**REF_GAIN_JSON, "s1u": float("inf")}}},
     "channel gain s1u must be a finite number"),
    ({"output_dir": None}, "output_dir must be a string"),
    ({"output_dir": 7}, "output_dir must be a string"),
    ({"channel": {"gains": [list(kv) for kv in REF_GAIN_JSON.items()]}},
     "channel.gains must be an object"),
], ids=["top-level", "channel", "float-trials", "bool-trials", "float-fuzz",
        "float-seed", "float-channel-seed", "negative-seed",
        "negative-channel-seed", "removed-rel-tol", "removed-state-tol",
        "bool-grid-entry", "inf-gain", "null-output-dir", "int-output-dir",
        "list-gains"])
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


def test_check_lemma2_command(capsys):
    assert main(["check-lemma2", "--count", "50", "--max-dim", "3",
                 "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"count": 50, "violations": 0}


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "afdof.cli", "sample-conditions",
         "--samples", "20", "--seed", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failures"] == 0
