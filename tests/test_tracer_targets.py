"""Every function the benchmark tracer wraps still exists under its name.

The tracer patches attributes by name; a renamed or moved function would
drop its per-layer metric without any error. The tracer file is compiled
and executed into a private namespace, so nothing under perfbench/ is
imported as a package or written.
"""

import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_points():
    ns = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), ns)
    return ns["SPAN_POINTS"] + ns["COUNT_POINTS"] + ns["FIELD_OPS"]


def test_tracer_targets_resolve():
    points = _tracer_points()
    assert points
    missing = []
    for modname, clsname, attr, _ in points:
        module = importlib.import_module(modname)
        owner = vars(module).get(clsname) if clsname else module
        if owner is None or attr not in vars(owner):
            missing.append((modname, clsname, attr))
    assert missing == []
