"""Every fenced ``python`` block of README.md runs as a doctest, and every
``$ dicots`` example of its "Command line" block prints what it shows."""

import doctest
import re
import shlex
from pathlib import Path

from dicots.cli import main

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


def command_line_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ dicots ...`` line of the "Command line" section's fenced
    block, with the lines printed under it."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line") :]
    block = re.search(r"^```\n(.*?)^```$", section, re.M | re.S).group(1)
    examples: list[tuple[str, list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        else:
            examples[-1][1].append(line)
    return examples


def test_readme_command_line_examples_print_what_they_show(capsys):
    examples = command_line_examples()
    assert len(examples) == 8
    for command, shown in examples:
        program, *argv = shlex.split(command)
        assert program == "dicots", command
        assert main(argv) == 0, command
        assert capsys.readouterr().out.splitlines() == shown, command
