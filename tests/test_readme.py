import inspect
import json
import pathlib
import re
from dataclasses import fields

import pytest

import afdof
from afdof.cli import SCHEME_SLOPE_WINDOW, ExperimentConfig
from conftest import reference_channel

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_api_tour_runs(capsys):
    # The README's python block must run as written and print what its
    # comments promise.
    tour = README.read_text().split("## Quick API tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    slope, fraction = capsys.readouterr().out.splitlines()
    assert SCHEME_SLOPE_WINDOW[0] <= float(slope) <= SCHEME_SLOPE_WINDOW[1]
    assert fraction == repr(("A", 1 / 3))


def test_readme_settings_are_the_config_fields():
    # The config keys the README names, in its JSON schema block and in its
    # "A config may also set ..." sentence, are exactly ExperimentConfig's
    # fields; channel.seed and channel.gains are channel_seed and
    # channel_gains.
    text = README.read_text()
    schema = json.loads(re.search(r"Config schema:\n\n```json\n(.*?)```",
                                  text, re.S).group(1))
    named = [k for k in schema if k != "channel"]
    named += [f"channel.{k}" for k in schema.get("channel", {})]
    sentence = re.search(r"A config may also set (.*?);", text, re.S).group(1)
    named += re.findall(r"`([\w.]+)`", sentence)
    keys = [k.replace("channel.", "channel_") for k in named]
    assert len(keys) == len(set(keys))
    assert set(keys) == {f.name for f in fields(ExperimentConfig)}


def _backticked(pattern: str) -> list[str]:
    text = " ".join(README.read_text().split())
    return re.findall(r"`(\w+)`", re.search(pattern, text).group(1))


def test_readme_api_names_exist():
    # The records the Outputs paragraph names and the functions its
    # InvalidPower sentence lists are afdof's, and each of those functions
    # rejects P = 0.5 as it says.
    records = _backticked(r"field names of the records they hold \((.*?)\)")
    guarded = _backticked(r"API functions that take a power \((.*?)\) raise")
    assert records and guarded
    for name in records + guarded:
        assert hasattr(afdof, name), name
    ch = reference_channel()
    args = {"ch": ch, "plan": afdof.plan_achievability(ch), "P": 0.5,
            "grid": (0.5,),
            "n_triples": 1, "trials": 1, "seed": 0,
            "sigma1_sq": 1.0, "sigma2_sq": 1.0}
    for name in guarded:
        fn = getattr(afdof, name)
        params = inspect.signature(fn).parameters.values()
        kwargs = {p.name: args[p.name] for p in params
                  if p.default is inspect.Parameter.empty or p.name in args}
        with pytest.raises(afdof.InvalidPower):
            fn(**kwargs)
