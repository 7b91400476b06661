"""The README's ``pycon`` examples and command lines run as written."""

import ast
import doctest
import importlib
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
        "MAX_MEMBER_WIDTH": engine.MAX_MEMBER_WIDTH,
        "BACKWARD_DEPTH": engine.BACKWARD_DEPTH,
        "MAX_SKELETON_ATOMS": semantics.MAX_SKELETON_ATOMS,
        "CACHE_SIZE": schemata.CACHE_SIZE,
    }
    for name, value in caps.items():
        assert readme.count(name) == 1, name
        assert f"| `{name}` | {value} |" in readme, name


def test_readme_package_layout_names_what_each_module_provides():
    # one row per module; a backticked name is an attribute of its row's
    # module, a trailing * matches a prefix, and a console script names the
    # module of its entry point
    readme = README.read_text(encoding="utf-8")
    section = readme.split("## Package layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\| (.*) \|$", section, re.M)
    package = README.parent / "src" / "proofbench"
    assert {m for m, _ in rows} == {f.stem for f in package.glob("[!_]*.py")}
    pyproject = (README.parent / "pyproject.toml").read_text(encoding="utf-8")
    table = pyproject.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    scripts = dict(re.findall(r'^(\S+) = "([\w.]+):\w+"$', table, re.M))
    assert scripts
    for module_name, provides in rows:
        module = importlib.import_module(f"proofbench.{module_name}")
        for name in re.findall(r"`([^`]+)`", provides):
            if name in scripts:
                assert scripts[name] == module.__name__, name
            elif name.endswith("*"):
                assert any(a.startswith(name[:-1]) for a in dir(module)), (module_name, name)
            else:
                assert hasattr(module, name), (module_name, name)


def test_package_data_ships_every_claim_script():
    # a non-editable install copies only what the package-data globs match
    pyproject = (README.parent / "pyproject.toml").read_text(encoding="utf-8")
    globs = ast.literal_eval(
        re.search(r"^\[tool\.setuptools\.package-data\]\nproofbench = (\[.*\])$", pyproject, re.M)[1]
    )
    package = README.parent / "src" / "proofbench"
    shipped = {p for g in globs for p in package.glob(g)}
    files = {p for p in (package / "claims").rglob("*") if p.is_file()}
    assert files and shipped == files
