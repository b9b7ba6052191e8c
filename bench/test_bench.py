"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from api import load, store_counters
from oracle import outcome_letter
from workloads import DEFAULT_SEED, SELFTEST_CHECKS, WORKLOADS, census_row

ROOT = Path(__file__).resolve().parent.parent
SEEDED = [w for w in WORKLOADS.values() if w.seeded]


@pytest.fixture(scope="module")
def api():
    return load(ROOT)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("work")


@pytest.fixture(scope="module")
def runs(api, workdir):
    """Per workload: inputs at the default seed, expected answers, and two
    untraced passes."""
    out = {}
    for w in WORKLOADS.values():
        inputs = w.setup(api, DEFAULT_SEED, workdir)
        out[w.name] = (inputs, w.reference(api, inputs), w.run_pass(api, inputs), w.run_pass(api, inputs))
    return out


@pytest.mark.parametrize("w", SEEDED, ids=lambda w: w.name)
def test_seed_determines_inputs(api, workdir, w):
    a = w.setup(api, 7, workdir)
    assert w.setup(api, 7, workdir) == a
    assert w.setup(api, 8, workdir) != a


def test_selftest_inputs_ignore_the_seed(api, workdir):
    w = WORKLOADS["selftest-full"]
    assert w.setup(api, 7, workdir) == w.setup(api, 8, workdir)


def test_census_rows_follow_the_enumeration(api):
    from dicots import enumerate_dicots

    store = api.Store()
    pop = api.enumerate_dicots(store, 2)
    small, full = (1 << len(api.enumerate_dicots(store, 1))) - 1, (1 << len(pop)) - 1
    rows = [p for mi in range(1, 6) for p in census_row(mi, small, full)]
    want = list(itertools.islice(enumerate_dicots(store, 3), len(pop), len(pop) + len(rows)))
    got = [store.intern([pop[i] for i in li], [pop[i] for i in ri]) for li, ri in rows]
    assert got == want


@pytest.mark.parametrize("name", ["census-slice", "order-sums"])
def test_each_pass_starts_on_a_fresh_store(api, runs, name):
    fresh = len(api.Store())
    _, _, p1, p2 = runs[name]
    assert p1.start_forms == p2.start_forms == fresh
    assert p1.forms > fresh


@pytest.mark.parametrize("name", ["census-slice", "order-sums"])
def test_pass_counters_repeat_exactly(runs, name):
    _, _, p1, p2 = runs[name]
    assert p1.counters == p2.counters
    assert p1.forms == p2.forms
    assert p1.counters["canonical.steps"] is not None


@pytest.mark.parametrize("name", ["cli-batch", "selftest-full"])
def test_replay_counters_repeat_exactly(api, runs, name):
    inputs = runs[name][0]

    def counts():
        got = run.replay_counters(WORKLOADS[name], api, inputs)
        return {k: v for k, v in got.items() if not k.endswith("_s")}

    first = counts()
    assert counts() == first
    assert first["forms.interned"] > 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_passes_are_correct_and_pinned(runs, name):
    w = WORKLOADS[name]
    inputs, expected, p1, p2 = runs[name]
    attempted, failed = w.check(inputs, expected, p1.outputs)
    assert attempted >= 1 and failed == 0
    assert w.digest(p1.outputs) == w.digest(p2.outputs) == run.PINNED_DIGESTS[name]


def _corrupt(name, outputs):
    if name == "selftest-full":
        rc, text = outputs
        doc = json.loads(text)
        doc["result"][1]["passed"] = False
        return rc, json.dumps(doc)
    if name == "cli-batch":
        rc, text = outputs
        rows = text.splitlines()
        expr, _, verdict = rows[0].partition("\t")
        flipped = verdict.replace("true", "false", 1) if verdict.startswith("true") else verdict.replace("false", "true", 1)
        return rc, "\n".join([f"{expr}\t{flipped}"] + rows[1:]) + "\n"
    if name == "census-slice":
        o, v, w, c = outputs[0]
        return [("P" if o != "P" else "L", v, w, c)] + outputs[1:]
    return None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_wrong_answer_is_counted(runs, name):
    w = WORKLOADS[name]
    inputs, expected, p1, _ = runs[name]
    if name == "order-sums":
        k = next(i for i, want in enumerate(expected) if want is not None)
        bad = list(p1.outputs)
        bad[k] = "||" if bad[k] != "||" else ">"
    else:
        bad = _corrupt(name, p1.outputs)
    attempted, failed = w.check(inputs, expected, bad)
    assert failed >= 1 and attempted >= failed


def test_a_failed_cli_call_fails_every_input(runs):
    w = WORKLOADS["cli-batch"]
    inputs, expected, p1, _ = runs["cli-batch"]
    assert w.check(inputs, expected, (1, p1.outputs[1])) == (len(inputs["lines"]),) * 2


def test_brute_minimax_agrees_on_day2(api):
    store = api.Store()
    memo: dict = {}
    for g in api.enumerate_dicots(store, 2):
        assert outcome_letter(store, g, memo) == api.outcome(store, g).value


def test_missing_memo_table_is_absent_not_zero(api):
    class AttributeStore:
        def __init__(self, store):
            self._store = store
            self.sum = {1: 2}

        def __len__(self):
            return len(self._store)

    counters = store_counters(AttributeStore(api.Store()), api.StepKind)
    assert counters["forms.sum_memo"] == 1
    assert counters["order.geq_memo"] is None
    assert counters["canonical.steps"] is None


def test_static_names_match_the_package(api):
    assert run.STEP_KINDS == tuple(k.value for k in api.StepKind)
    assert SELFTEST_CHECKS == tuple(r.name for r in api.iter_checks("quick", api.Store()))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    proc = _bench("--workload", "order-sums", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert list(result["metrics"]) == [n for n, _ in names]


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "census-slice", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
