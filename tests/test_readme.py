import json
import pathlib
import re
from dataclasses import fields

from afdof.cli import SCHEME_SLOPE_WINDOW, ExperimentConfig

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
