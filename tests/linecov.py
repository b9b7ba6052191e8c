"""Opt-in line tracer: lists the statements under src/dicots no test ran.

Run tier-1 with it loaded as a plugin; it uses only the standard library:

    python -m pytest -q -p tests.linecov

A statement is a line that carries bytecode in some code object of a
module under src/dicots. The tracer starts before the conftest files
import the package, so module-level lines count, and it is set again, for
this thread and for threads started later, before every test: a test that
provokes a RecursionError drops the tracer CPython was running. Code run
in a subprocess is not traced. At the end of the session the plugin prints
each unexecuted statement with its source line.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dicots"

# Executed line numbers, keyed by the traced module's file name.
_hits: dict[str, set[int]] = {str(p): set() for p in sorted(SRC.glob("*.py"))}


def _trace(frame, event, arg):
    hits = _hits.get(frame.f_code.co_filename)
    if hits is None:
        return None

    def line(frame, event, arg):
        if event == "line":
            hits.add(frame.f_lineno)
        return line

    return line


def _arm() -> None:
    sys.settrace(_trace)
    threading.settrace(_trace)


def _statements(path: str) -> set[int]:
    """Line numbers that carry bytecode in the module at ``path``."""
    lines: set[int] = set()
    codes = [compile(Path(path).read_text(), path, "exec")]
    while codes:
        code = codes.pop()
        lines.update(n for _, _, n in code.co_lines() if n)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    _arm()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    _arm()
    yield


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    write = terminalreporter.write_line
    write("")
    total = 0
    for path, hits in _hits.items():
        source = Path(path).read_text().splitlines()
        missed = sorted(_statements(path) - hits)
        total += len(missed)
        rel = Path(path).relative_to(SRC.parent.parent)
        for n in missed:
            write(f"{rel}:{n}: {source[n - 1].strip()}")
    write(f"linecov: {total} statements under {SRC.name} not executed")
