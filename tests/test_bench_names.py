"""The benchmark's tracer (bench/spans.py) rebinds proofbench functions by name.

A renamed or deleted function would make ``bench/run.py --trace 1`` crash, so
every name its tables list must exist.
"""

import importlib.util
from pathlib import Path

from proofbench import semantics


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
