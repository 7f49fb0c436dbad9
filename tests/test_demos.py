"""Every demo under ``demos/`` runs to the end and prints exactly its pinned text.

``tests/golden_demos/<stem>.txt`` holds the standard output of each demo;
a change to a demo's text must update that file on purpose.
"""

import contextlib
import io
import pathlib
import runpy

import pytest

HERE = pathlib.Path(__file__).resolve().parent
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()
    assert out.getvalue() == (HERE / "golden_demos" / f"{path.stem}.txt").read_text()
