"""A traced benchmark run on each workload, end to end.

``bench/spans.py`` rebinds functions by name, so a function that moves out
of the module the tracer names is still found but no longer seen: its
counters read 0.  ``test_bench_names.py`` checks that the names exist; this
runs ``bench/run.py --trace 1`` and checks that the counters move.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: counters a traced chain-audit pass must see; they read 185 checks per pass
#: when this test was written.  The recheck reads certificates' let lines
#: and no formula text, so its reading shows as proofs.script_parse_s.
_CHAIN_AUDIT_SEEN = ("proofs.check_calls", "proofs.script_parse_s", "audit.recheck_s",
                     "audit.strict_check_s")


@pytest.mark.parametrize("workload", ["chain-audit", "nested-prove", "oracles"])
def test_traced_bench_run(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    if workload == "chain-audit":
        for name in _CHAIN_AUDIT_SEEN:
            assert result["metrics"][name]["value"] > 0, name
