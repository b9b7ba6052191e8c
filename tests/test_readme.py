"""Every fenced ``python`` block of README.md runs as a doctest."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_pass_as_doctests():
    # The blocks share one namespace, in order, as a reader runs them.
    # Only the block bodies are parsed: doctest would read each closing
    # fence as expected output.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    test = doctest.DocTestParser().get_doctest("\n".join(blocks), {}, "README.md", str(README), 0)
    assert test.examples
    report: list[str] = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)
