"""The benchmark's tracer (bench/spans.py) rebinds proofbench functions by name.

A renamed or deleted function would make ``bench/run.py --trace 1`` crash, so
every name its tables list must exist.
"""

import importlib.util
from pathlib import Path

from proofbench import semantics
from proofbench.parser import parse
from proofbench.syntax import Implies, Not, Or


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    spans = _load_spans()
    for _span, home, attr, _patch_home, _observe in spans._FUNCTIONS:
        assert callable(getattr(home, attr, None)), f"{home.__name__}.{attr}"
    for _span, cls, attr, _observe in spans._METHODS:
        assert callable(vars(cls).get(attr)), f"{cls.__name__}.{attr}"
    # the width probe is installed on this one by name as well
    assert callable(semantics._check_width)


def test_sweeps_report_their_width_through_check_width(monkeypatch):
    # the tracer's skeleton_atoms_max comes from the calls to this name
    widths = []
    check = semantics._check_width
    monkeypatch.setattr(semantics, "_check_width", lambda n: widths.append(n) or check(n))
    a, b, c, held = (parse(f"{k} = {k}") for k in ("0", "1", "S(0)", "S(1)"))
    row = semantics.lowest_row([Or(a, held)], Implies(b, Or(c, a)), pinned=lambda f: f is held)
    assert row is not None
    assert widths == [3]  # a, b and c; the pinned atom takes no bit
    semantics.is_tautology(Or(a, Not(a)))
    assert widths == [3, 1]
