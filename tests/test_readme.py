"""The README's ``pycon`` examples run as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_pycon_blocks_run_in_order():
    # one namespace: a later block may use what an earlier one defined
    blocks = re.findall(r"```pycon\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    test = doctest.DocTestParser().get_doctest("\n".join(blocks), {}, "README", str(README), 0)
    out: list[str] = []
    result = doctest.DocTestRunner().run(test, out=out.append)
    assert result.attempted > len(blocks)
    assert result.failed == 0, "".join(out)
