"""Command line behavior: exact output, formats, batching, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dicots
from dicots import cli
from dicots.canonical import step_as_dict
from dicots.cli import main
from dicots.forms import MEMO_TABLES, DicotViolation, ParseError, Store, notation, parse
from dicots.selftest import day2_population, day3_sample

DAY2_CANONICAL_NOTATIONS = [
    "0",
    "*",
    "{0|*}",
    "{0|0,*}",
    "{*|0}",
    "{*|0,*}",
    "{0,*|0}",
    "{0,*|*}",
    "*2",
]


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_outcome_text(capsys):
    rc, out, err = run_cli(capsys, "outcome", "*2+*2")
    assert (rc, out, err) == (0, "P\n", "")


def test_outcome_json(capsys):
    rc, out, _ = run_cli(capsys, "outcome", "--format", "json", "*2+*2")
    assert rc == 0
    assert json.loads(out) == {"verb": "outcome", "input": "*2+*2", "result": "P"}


def test_compare_text_and_json(capsys):
    rc, out, _ = run_cli(capsys, "compare", "*+*", "0")
    assert (rc, out) == (0, "=\n")
    rc, out, _ = run_cli(capsys, "compare", "--format", "json", "*", "0")
    assert json.loads(out) == {"verb": "compare", "input": ["*", "0"], "result": "||"}


def test_canonical_with_trace(capsys):
    rc, out, _ = run_cli(capsys, "canonical", "{0,*,*2|0}", "--trace")
    assert rc == 0
    assert out.splitlines() == [
        "{0,*|0}",
        "NonAtomicReverseL: {0,*,*2|0} -> {0,*|0}",
    ]


def test_canonical_trace_json(capsys):
    rc, out, _ = run_cli(capsys, "canonical", "--trace", "--format", "json", "{*|*}")
    doc = json.loads(out)
    assert doc["result"] == {
        "canonical": "0",
        "trace": [{"kind": "Substitution", "before": "{*|*}", "after": "0"}],
    }


def test_trace_batch_renders_as_step_by_step(capsys, tmp_path, monkeypatch):
    """A --trace batch renders each trace form once per invocation; its
    output, text and json, is byte-identical to rendering every step on its
    own."""
    store = Store()
    lines = [notation(store, g) for g in day2_population(store) + day3_sample(store, 300)]
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [["canonical", "--trace", "--file", str(f), "--format", fmt] for fmt in ("text", "json")]
    shared = [run_cli(capsys, *a) for a in argv]
    monkeypatch.setattr(cli, "step_as_dict", lambda s, step, names: step_as_dict(s, step))
    alone = [run_cli(capsys, *a) for a in argv]
    assert shared == alone
    assert shared[0][0] == 0
    assert shared[0][1].count("\n") > 2 * len(lines)  # several steps a line


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(dicots.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "dicots", "outcome", "*2+*2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "P\n", "")


def test_invertible_text(capsys):
    rc, out, _ = run_cli(capsys, "invertible", "{0,*,*2|0}")
    assert (rc, out) == (0, "true (canonical: {0,*|0})\n")
    rc, out, _ = run_cli(capsys, "invertible", "{0|*2}")
    assert (rc, out) == (0, "false (canonical: {0|*2})\n")


def test_invertible_report_json(capsys):
    rc, out, _ = run_cli(capsys, "invertible", "--report", "--format", "json", "{0|*2}")
    doc = json.loads(out)
    assert doc["verb"] == "invertible"
    result = doc["result"]
    assert result["verdict"] is False
    assert result["witness"] == "*2"
    assert result["follower_outcomes"]["*2"] == "P"


def test_invertible_report_text_is_json(capsys):
    rc, out, _ = run_cli(capsys, "invertible", "--report", "*")
    assert json.loads(out)["verdict"] is True


def test_inverse(capsys):
    rc, out, _ = run_cli(capsys, "inverse", "{0,*,*2|0}")
    assert (rc, out) == (0, "{0|0,*}\n")
    rc, out, _ = run_cli(capsys, "inverse", "*2")
    assert (rc, out) == (0, "none\n")
    rc, out, _ = run_cli(capsys, "inverse", "--format", "json", "*2")
    assert json.loads(out)["result"] is None


def test_adjoint_and_followers(capsys):
    rc, out, _ = run_cli(capsys, "adjoint", "*")
    assert (rc, out) == (0, "{*|*}\n")
    # New adjoints are interned in ascending id order of the forms they
    # mirror, and options print in id order.
    rc, out, _ = run_cli(capsys, "adjoint", "{0,{0|*},{*|0,*}|0,{0|0,*},{*|0,*}}")
    assert (rc, out) == (0, "{*,{*,{*|*}|{*|*}},{*,{*|*}|*}|*,{{*|*}|*},{*,{*|*}|{*|*}}}\n")
    rc, out, _ = run_cli(capsys, "followers", "{0|*2}")
    assert (rc, out) == (0, "0 * *2 {0|*2}\n")


def test_witness(capsys):
    rc, out, _ = run_cli(capsys, "witness", "*2")
    assert (rc, out) == (0, "*\n")
    rc, out, _ = run_cli(capsys, "witness", "*")
    assert (rc, out) == (0, "none\n")


def test_conjugate_expression_after_separator(capsys):
    rc, out, _ = run_cli(capsys, "outcome", "--", "-{0|*}")
    assert (rc, out) == (0, "L\n")


def test_enumerate(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "--birthday", "1")
    assert (rc, out) == (0, "0\n*\n")
    rc, out, _ = run_cli(capsys, "enumerate", "--birthday", "2", "--canonical-only")
    assert out.splitlines() == DAY2_CANONICAL_NOTATIONS
    rc, out, _ = run_cli(capsys, "enumerate", "--birthday", "3", "--limit", "25")
    assert len(out.splitlines()) == 25


def test_enumerate_json(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "--birthday", "1", "--format", "json")
    doc = json.loads(out)
    assert doc["result"] == ["0", "*"]
    assert doc["input"]["birthday"] == 1


def test_batch_file_text(capsys, tmp_path):
    f = tmp_path / "batch.txt"
    f.write_text("0\n\n*2+*2\n{0,*,*2|0}\n")
    rc, out, _ = run_cli(capsys, "outcome", "--file", str(f))
    assert rc == 0
    assert out.splitlines() == ["0\tN", "*2+*2\tP", "{0,*,*2|0}\tL"]


def test_batch_file_json(capsys, tmp_path):
    f = tmp_path / "batch.txt"
    f.write_text("*\n{0|*2}\n")
    rc, out, _ = run_cli(capsys, "invertible", "--file", str(f), "--format", "json")
    docs = json.loads(out)
    assert [d["result"]["verdict"] for d in docs] == [True, False]
    assert docs[1]["input"] == "{0|*2}"


def test_batch_file_reports_the_failing_line(capsys, tmp_path):
    f = tmp_path / "batch.txt"
    f.write_text("0\n{0|}\n*\n")
    rc, out, err = run_cli(capsys, "outcome", "--file", str(f))
    assert rc == 1
    assert "line 2:" in err


def test_domain_errors_exit_1(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "outcome", "{0|}")
    assert rc == 1
    assert err.startswith("error:")
    rc, _, err = run_cli(capsys, "outcome", "*99")
    assert rc == 1
    rc, _, err = run_cli(capsys, "enumerate", "--birthday", "9")
    assert rc == 1
    # Out-of-range numbers, non-ASCII digits and unreadable files: one error
    # line, no traceback.
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"{0|\xe9}\n")
    for argv in (
        ["outcome", "*\u00b2"],
        ["enumerate", "--birthday", "-1"],
        ["enumerate", "--birthday", "2", "--limit", "-1"],
        ["outcome", "--file", str(tmp_path / "missing.txt")],
        ["outcome", "--file", str(tmp_path)],
        ["outcome", "--file", str(not_utf8)],
    ):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (1, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_deep_nesting_exits_1(capsys, tmp_path):
    """A 1,000-deep chain {...{{0|0}|0}...|0} overflows Python's recursion
    limit in the parser, which recurses per brace level: each verb reports
    one error line and exits 1, naming the line in --file mode, with no
    traceback."""
    deep = "{" * 999 + "{0|0}" + "|0}" * 999
    batch = tmp_path / "deep.txt"
    batch.write_text(f"*\n{deep}\n", encoding="utf-8")
    cases = [
        (["outcome", deep], ""),
        (["canonical", deep], ""),
        (["invertible", deep], ""),
        (["compare", deep, "0"], ""),
        (["outcome", "--file", str(batch)], "line 2: "),
    ]
    for argv, where in cases:
        want = (1, "", f"error: {where}expression nested too deeply\n")
        assert run_cli(capsys, *argv) == want, argv[0]


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["outcome"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["outcome", "0", "--file", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_selftest_quick_text(capsys):
    rc, out, _ = run_cli(capsys, "selftest", "--level", "quick")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 14
    assert all(line.startswith("PASS ") for line in lines)


def test_selftest_quick_json(capsys):
    rc, out, _ = run_cli(capsys, "selftest", "--level", "quick", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    names = [r["name"] for r in doc["result"]]
    assert names[0] == "reference-positions"
    assert all(r["passed"] for r in doc["result"])


def test_batch_option_order_follows_interning_order(capsys, tmp_path):
    """Within one store options print in id order, so a --file line's
    printed option order depends on what earlier lines interned."""
    alone = run_cli(capsys, "followers", "{0|{0,*|0},{*|0}}")[1]
    assert alone == "0 * {0,*|0} {*|0} {0|{0,*|0},{*|0}}\n"
    f = tmp_path / "batch.txt"
    f.write_text("{*|0}\n{0,*|0}\n{0|{0,*|0},{*|0}}\n")
    last = run_cli(capsys, "followers", "--file", str(f))[1].splitlines()[-1]
    assert last == "{0|{0,*|0},{*|0}}\t0 * {*|0} {0,*|0} {0|{*|0},{0,*|0}}"


# sha256 of (exit code, stdout, stderr), in order, of every invocation in
# test_expression_verbs_print_the_pinned_bytes. Options print in id order,
# so a change to what is interned, or when, can move these bytes; a change
# that moves them must say why.
BATCH_BYTES_DIGEST = "19fb58980aeea99195adad459f69855c1f45b6450030a549dd2c7bae585e3a24"


def test_expression_verbs_print_the_pinned_bytes(capsys, tmp_path):
    """The seven expression verbs over one --file batch (day 2 and 60
    sampled day-3 forms), in text and json, canonical also with --trace and
    invertible also with --report."""
    store = Store()
    batch = tmp_path / "batch.txt"
    batch.write_text(
        "".join(notation(store, g) + "\n" for g in day2_population(store) + day3_sample(store, 60))
    )
    flags = {"canonical": ["--trace"], "invertible": ["--report"]}
    digest = hashlib.sha256()
    for verb in cli._EXPR_VERBS:
        for extra in [[], flags[verb]] if verb in flags else [[]]:
            for fmt in ("text", "json"):
                got = run_cli(capsys, verb, "--file", str(batch), "--format", fmt, *extra)
                digest.update(repr(got).encode())
    assert digest.hexdigest() == BATCH_BYTES_DIGEST


# One json invocation per verb, with the input its envelope echoes.
ENVELOPE_CASES = [
    (["outcome", "*2+*2"], "*2+*2"),
    (["canonical", "{0,*,*2|0}", "--trace"], "{0,*,*2|0}"),
    (["invertible", "{0|*2}", "--report"], "{0|*2}"),
    (["inverse", "*2"], "*2"),
    (["adjoint", "*"], "*"),
    (["followers", "{0|*2}"], "{0|*2}"),
    (["witness", "*2"], "*2"),
    (["compare", "*+*", "0"], ["*+*", "0"]),
    (
        ["enumerate", "--birthday", "2", "--canonical-only"],
        {"birthday": 2, "limit": None, "canonical_only": True},
    ),
    (["selftest", "--level", "quick"], {"level": "quick"}),
]


@pytest.mark.parametrize("argv, given", ENVELOPE_CASES, ids=[c[0][0] for c in ENVELOPE_CASES])
def test_every_verb_emits_one_envelope(capsys, tmp_path, argv, given):
    """README: --format json on any verb emits one {"verb", "input",
    "result"} document, and with --file an array of them, one per line."""
    rc, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert list(doc) == ["verb", "input", "result"]
    assert (doc["verb"], doc["input"]) == (argv[0], given)
    if argv[0] not in cli._EXPR_VERBS:
        return
    f = tmp_path / "batch.txt"
    f.write_text(f"{given}\n0\n")
    rc, out, _ = run_cli(capsys, argv[0], "--file", str(f), *argv[2:], "--format", "json")
    assert rc == 0
    docs = json.loads(out)
    assert [list(d) for d in docs] == [["verb", "input", "result"]] * 2
    assert [(d["verb"], d["input"]) for d in docs] == [(argv[0], given), (argv[0], "0")]
    assert docs[0] == doc


# One invocation per verb, and one that ends in a domain error.
STATS_ARGV = [
    ["outcome", "*2+*2"],
    ["canonical", "{0,*,*2|0}", "--trace"],
    ["invertible", "--report", "--format", "json", "{0|*2}"],
    ["inverse", "*2"],
    ["adjoint", "*"],
    ["followers", "{0|*2}"],
    ["witness", "*2"],
    ["compare", "*+*", "0"],
    ["enumerate", "--birthday", "2", "--canonical-only"],
    ["selftest", "--level", "quick"],
    ["outcome", "{0|}"],
]


def untimed(text):
    """Text output with selftest's per-check seconds, which vary, cut out."""
    return re.sub(r"\(\d+\.\ds, ", "(", text)


@pytest.mark.parametrize("argv", STATS_ARGV, ids=lambda argv: " ".join(argv))
def test_stats_flag_adds_one_json_line_to_stderr(capsys, argv):
    plain = run_cli(capsys, *argv)
    rc, out, err = run_cli(capsys, *argv, "--stats")
    assert (rc, untimed(out)) == (plain[0], untimed(plain[1]))
    assert err.startswith(plain[2])
    line = err[len(plain[2]) :]
    assert line.endswith("\n") and line.count("\n") == 1
    doc = json.loads(line)
    assert list(doc) == ["verb", "wall_s", "stats"]
    assert doc["verb"] == argv[0]
    assert doc["wall_s"] >= 0
    assert list(doc["stats"]) == ["forms", *MEMO_TABLES]
    assert doc["stats"]["forms"] >= 2


# Raw text over the expression alphabet rarely parses, so half the examples
# are built from the grammar (one-sided braces included) and rendered.
_ATOMS = st.sampled_from(["0", "*", "*2", "{|}", "{0|}", "{|*}"])
_EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.builds(lambda a, b: f"{a}+{b}", inner, inner),
        st.builds(lambda a: f"-{a}", inner),
        st.builds(
            lambda ls, rs: "{" + ",".join(ls) + "|" + ",".join(rs) + "}",
            st.lists(inner, max_size=2),
            st.lists(inner, max_size=2),
        ),
    ),
    max_leaves=6,
)
FUZZ_TEXT = st.one_of(
    st.text(alphabet="0*{}|,+- 2", max_size=40),
    _EXPRESSIONS.filter(lambda t: len(t) <= 40),
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(FUZZ_TEXT)
def test_fuzzed_text_parses_round_trip_or_raises_a_domain_error(text):
    """Text over the expression alphabet either parses to a form whose
    notation parses back to it, or raises ParseError or DicotViolation; the
    CLI answers it or exits 1, with no traceback."""
    store = Store()
    try:
        g = parse(store, text)
    except (ParseError, DicotViolation):
        pass
    else:
        assert parse(store, notation(store, g)) == g
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["outcome", "--", text])
    assert rc in (0, 1), (text, err.getvalue())


# Deep inputs as text: a chain of nestings, each level {g|0} or {0|g} in a
# repeating pattern, around a core of up to six {g|g} levels (each doubles
# the text, so only the core repeats g), then wrapped in a conjugate or a
# sum. Past a few hundred levels the parser runs out of recursion.
_LEVELS = {"{g|0}": ("{", "|0}"), "{0|g}": ("{0|", "}")}
_WRAPS = ["{}", "-{}", "{}+*", "*+-{}"]


def _deep_text(pattern, depth, doublings, core, wrap):
    levels = [_LEVELS[pattern[i % len(pattern)]] for i in range(depth)]
    for _ in range(doublings):
        core = "{" + core + "|" + core + "}"
    opens = "".join(o for o, _ in reversed(levels))
    closes = "".join(c for _, c in levels)
    return wrap.format(opens + core + closes)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(_LEVELS)), min_size=1, max_size=3),
    st.integers(1, 1500),
    st.integers(0, 6),
    st.sampled_from(["0", "*"]),
    st.sampled_from(_WRAPS),
)
def test_deep_nestings_get_an_answer_or_exit_1(pattern, depth, doublings, core, wrap):
    """Every verb that takes one form answers a deep nesting (exit 0, no
    stderr) or reports one error line and exits 1, with no traceback."""
    text = _deep_text(pattern, depth, doublings, core, wrap)
    for argv in (["outcome", text], ["canonical", text], ["invertible", text], ["compare", text, "0"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([argv[0], "--", *argv[1:]])
        if rc == 0:
            assert out.getvalue() and not err.getvalue(), argv[0]
        else:
            assert (rc, out.getvalue()) == (1, ""), argv[0]
            assert err.getvalue().startswith("error: "), argv[0]
            assert err.getvalue().count("\n") == 1, argv[0]
