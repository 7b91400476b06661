"""The README's ``pycon`` examples and command lines run as written."""

import doctest
import io
import re
import shlex
from pathlib import Path

from proofbench import engine, schemata, semantics, syntax
from proofbench.cli import main

README = Path(__file__).parents[1] / "README.md"


def test_readme_pycon_blocks_run_in_order():
    # one namespace: a later block may use what an earlier one defined
    blocks = re.findall(r"```pycon\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    test = doctest.DocTestParser().get_doctest("\n".join(blocks), {}, "README", str(README), 0)
    out: list[str] = []
    result = doctest.DocTestRunner().run(test, out=out.append)
    assert result.attempted > len(blocks)
    assert result.failed == 0, "".join(out)


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # each line of § Command line, in a directory holding the files it names
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S)[1]
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert argvs and all(argv[0] == "proofbench" for argv in argvs)
    monkeypatch.chdir(tmp_path)
    scripts = [b for b in re.findall(r"```text\n(.*?)```", readme, re.S) if "\nclaim " in b]
    (tmp_path / "myscript.txt").write_text(scripts[0], encoding="utf-8")
    (tmp_path / "hyps.txt").write_text("0 = 0\n(Ax1)~(1 = x1 + 1)\n", encoding="utf-8")
    (tmp_path / "formulas.txt").write_text("0 = 0 -> 0 = 0\n0 = 0 -> 0 = 1\n", encoding="utf-8")
    prove = next(argv for argv in argvs if argv[1] == "prove")
    out = io.StringIO()
    assert main(prove[1:], out=out, err=io.StringIO()) == 0
    (tmp_path / "proof.txt").write_text(out.getvalue(), encoding="utf-8")
    for argv in argvs:
        err = io.StringIO()
        assert main(argv[1:], out=io.StringIO(), err=err) != 2, (argv, err.getvalue())


def test_readme_names_each_cap_once_with_its_value():
    readme = README.read_text(encoding="utf-8")
    caps = {
        "MAX_NESTING": syntax.MAX_NESTING,
        "MAX_DEPTH": engine.MAX_DEPTH,
        "BACKWARD_DEPTH": engine.BACKWARD_DEPTH,
        "MAX_SKELETON_ATOMS": semantics.MAX_SKELETON_ATOMS,
        "CACHE_SIZE": schemata.CACHE_SIZE,
    }
    for name, value in caps.items():
        assert readme.count(name) == 1, name
        assert f"| `{name}` | {value} |" in readme, name
