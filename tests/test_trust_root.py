"""The trust root: ``proofs`` and the three modules it imports.

A re-check runs only ``syntax``, ``parser``, ``schemata`` and ``proofs``.
Each test runs in a fresh interpreter, so no module another test imported
is counted.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

from proofbench import audit, proofs
from proofbench.audit import run_audit, write_report
from proofbench.engine import Budget
from proofbench.scripts import builtin_claims

SRC = Path(__file__).resolve().parents[1] / "src"
ROOT = ["proofbench", "proofbench.parser", "proofbench.proofs", "proofbench.schemata",
        "proofbench.syntax"]
_SHOW = "import sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'proofbench'))\n"


def _loaded(code: str, *argv: str) -> tuple[str, list[str]]:
    """What ``code`` prints in a fresh interpreter, and the ``proofbench``
    modules loaded after it ran."""
    proc = subprocess.run(
        [sys.executable, "-c", code + _SHOW, *argv],
        capture_output=True,
        text=True,
        cwd=SRC,  # imports the checkout's package
    )
    assert proc.returncode == 0, proc.stderr
    *printed, modules = proc.stdout.splitlines()
    return "\n".join(printed), ast.literal_eval(modules)


def test_importing_proofs_loads_only_the_trust_root():
    assert _loaded("import proofbench.proofs\n") == ("", ROOT)


def test_cli_check_loads_only_the_trust_root_and_cli(tmp_path):
    write_report(run_audit("lemma-4.2", builtin_claims("lemma-4.2"), Budget()), tmp_path)
    certificate = tmp_path / "details" / "s15-m01.proof"
    code = "import sys\nfrom proofbench.cli import main\nprint(main(['check', sys.argv[1], '--strict']))\n"
    printed, modules = _loaded(code, str(certificate))
    assert printed.startswith("ok ") and printed.endswith("\n0")
    assert modules == sorted(ROOT + ["proofbench.cli"])


def test_audit_recheck_report_is_the_trust_roots():
    assert audit.recheck_report is proofs.recheck_report


def test_readme_names_the_trust_root_line_counts():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Trust root\n", 1)[1].split("\n## ", 1)[0]
    counts = {m: int(n) for m, n in re.findall(r"`(\w+)` \((\d+)(?: lines)?\)", section)}
    total = int(re.search(r"([\d,]+) lines in all", section)[1].replace(",", ""))
    names = [m.removeprefix("proofbench.") for m in ROOT[1:]]
    actual = {n: len((SRC / "proofbench" / f"{n}.py").read_bytes().splitlines()) for n in names}
    assert counts == actual
    assert total == sum(actual.values())


def _cap_comparisons(path: Path) -> list[str]:
    """The functions of ``path`` holding a comparison that names
    ``MAX_NESTING``, qualified by class, once per comparison."""
    found = []

    def walk(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Compare) and any(
                getattr(n, "id", getattr(n, "attr", None)) == "MAX_NESTING"
                for n in ast.walk(child)
            ):
                found.append(f"{path.stem}.{where}")
            walk(child, where)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_the_nesting_cap_is_compared_only_where_nodes_and_frames_are_made():
    # the kernel's constructors check a node's height, and the parser its own
    # open frames: any other depth rule is a third one
    found = [c for path in (SRC / "proofbench").glob("*.py") for c in _cap_comparisons(path)]
    assert sorted(found) == ["parser._Parser.expr", "syntax._store"]
