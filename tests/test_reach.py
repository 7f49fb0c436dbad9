"""Each entry of the reach gate's allow-list names a function of ``src/tdk``.

``scripts/reach.py`` runs every program path under a profiler and fails on
a function that none of them calls, unless its allow-list names it.  Here
each entry is looked up among the ``def``s of ``src/tdk``, found by ``ast``
alone without running the probe, so an entry whose function was deleted or
renamed fails at once.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_allowed_name_is_a_function_of_tdk():
    reach = _reach()
    assert sorted(set(reach.ALLOWED) - set(reach.functions())) == []
