"""The README's library quick start runs and prints what it says it prints."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
# a fenced pycon block; the closing fence ends the last expected output
PYCON = re.compile(r"^```pycon\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_readme_pycon_blocks():
    text = README.read_text(encoding="utf-8")
    blocks = list(PYCON.finditer(text))
    assert len(blocks) == 3
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    report: list[str] = []
    globs: dict = {}  # the blocks run in order, each on the one before
    for block in blocks:
        lineno = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block.group(1), globs, "README.md", str(README), lineno)
        runner.run(test, out=report.append, clear_globs=False)
        globs = test.globs  # each test runs on a copy of the namespace
    failed, attempted = runner.summarize(verbose=False)
    assert attempted == 14
    assert failed == 0, "".join(report)
