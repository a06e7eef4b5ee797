import pathlib
import re

from afdof.cli import SCHEME_SLOPE_WINDOW

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
