"""The four benchmark workloads.

Each workload is a closed loop: one input is handed to the package, and the
next is sent only after the answer returns. Every timed pass starts on a
fresh ``Store`` (the CLI makes its own). A workload provides:

* ``setup(api, seed, workdir)``: generate the inputs from the seed. Inputs
  are plain data (text lines, option-index tuples), never package objects:
  every worker process generates its own, and the parent checks they all
  agree by hashing their ``repr``.
* ``run_pass(api, inputs)``: one timed pass, returning a ``Pass``.
* ``replay(api, inputs, tracer)``: for the two CLI workloads, the CLI's
  work redone through public calls on a store the benchmark can see, to
  read work counts and, when traced, the layer split. Returns the store and
  a dict of extra per-layer times.
* ``reference(api, inputs)``: expected answers, computed on separate stores
  and by code independent of what the pass measured.
* ``check(inputs, expected, outputs)``: (answers attempted, answers failed).
* ``digest(outputs)``: a hash of the pass's output, pinned at DEFAULT_SEED.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass

from api import store_counters
from oracle import outcome_letter

DEFAULT_SEED = 1

# Workload sizes. A pass of each takes roughly 0.5 to 3 s on one core.
CLI_LINES = 2000
CENSUS_POPCOUNT = 4  # Left options in the first census row; the second has the rest
POOL_DRAW = 450  # day-3 sample canonicalised into the order-sums pool
ORDER_QUERIES = 2000
BRUTE_EVERY = 10  # census inputs whose outcome the brute minimax re-derives

SELFTEST_ARGV = ["selftest", "--level", "full", "--format", "json"]
SELFTEST_CHECKS = (
    "reference-positions",
    "inversion-characterization",
    "inversion-corollaries",
    "positivity-under-self-pairs",
    "adjoint-law",
    "conjugate-outcome-symmetry",
    "canonical-idempotent",
    "canonical-preserves-value",
    "order-axioms",
    "sum-monotonicity",
    "hand-tying",
    "invertible-cancellation",
    "zero-test-consistency",
    "order-context-semantics",
)

# sha256 of each workload's pass output at DEFAULT_SEED. A change here means
# the package's answers (or their printed bytes) changed.
PINNED_DIGESTS = {
    "selftest-full": "569aa81dd67df92e58fa65290353edb4987e81ebff921cd2b3a1fbe81dac21f9",
    "cli-batch": "315eb6724fab734202313868b3986f2c58e63ec7ff84f1f6a58b9b021f7b5b91",
    "census-slice": "6e4a47cd3f33d5f05f05869d747e6c16cf26add4d8f9d977854f5039a43fe755",
    "order-sums": "4cd80e8d8a526fbb9852566e410ee914b625e4920e88db630e44f5afcc083825",
}


@dataclass
class Pass:
    wall: float  # seconds for the whole pass
    items: list[float]  # seconds per closed-loop input
    outputs: object
    start_forms: int | None = None  # len(store) when the timed pass began
    forms: int | None = None  # len(store) when it ended
    counters: dict | None = None  # store_counters of the pass's store


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def census_row(mi: int, small: int, full: int) -> list[tuple]:
    """Row ``mi`` of the enumeration of the next day: (Left, Right) option
    index tuples over the previous population, in enumeration order. Right
    masks inside ``small`` are skipped when the Left mask is, since both
    sides would then come from forms already born a day earlier."""
    start = small + 1 if mi <= small else 1
    return [(_bits(mi), _bits(ri)) for ri in range(start, full + 1)]


def _run_cli(api, argv: list[str]) -> tuple[float, tuple[int, str]]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = api.cli_main(argv)
    return time.perf_counter() - t0, (rc, buf.getvalue())


def export_forms(store, roots: list[int]) -> tuple[list, list[int]]:
    """Every follower of ``roots`` as (left, right) option indices into the
    returned table, oldest first, plus the roots' indices. Options are always
    older than their form, so the table can be re-interned front to back."""
    forms = sorted({f for r in roots for f in store.followers(r)})
    index = {f: i for i, f in enumerate(forms)}
    table = [
        (tuple(index[x] for x in store.left(f)), tuple(index[x] for x in store.right(f)))
        for f in forms
    ]
    return table, [index[r] for r in roots]


def import_forms(store, table: list) -> list[int]:
    ids: list[int] = []
    for left, right in table:
        ids.append(store.intern([ids[i] for i in left], [ids[i] for i in right]))
    return ids


class SelftestFull:
    """``dicots selftest --level full --format json`` through ``cli.main``."""

    name = "selftest-full"
    seeded = False  # the populations are pinned by the library's own seeds

    def setup(self, api, seed, workdir):
        return {"argv": list(SELFTEST_ARGV)}

    def n_inputs(self, inputs):
        return 1

    def run_pass(self, api, inputs):
        wall, out = _run_cli(api, inputs["argv"])
        return Pass(wall, [wall], out)

    def replay(self, api, inputs, tracer=None):
        """``iter_checks`` on a fresh store, one span per result it yields.

        The algebraic-property checks are computed as one batch and yielded
        together, so the span of the first of them covers them all; the
        per-check times therefore come from each result's own ``seconds``.
        When traced, the inversion-characterization check, most of the
        sweep, is then replayed stage by stage on a second fresh store, so
        its time is split by layer.
        """
        store = api.Store()
        api.day2_population(store)
        day3 = api.selftest_levels["full"]["day3"]
        api.day3_sample(store, day3)
        checks = api.iter_checks("full", store)
        seconds = {}
        while True:
            span = tracer.begin("selftest.next") if tracer else None
            r = next(checks, None)
            if tracer:
                tracer.end(span, f"selftest.{r.name}" if r else "selftest.end")
            if r is None:
                break
            seconds[f"selftest.{r.name}_s"] = r.seconds
        if tracer:
            inv = api.Store()
            drawn = api.enumerate_dicots(inv, 3, day3 + 60)  # as selftest.day3_sample draws
            population = api.enumerate_dicots(inv, 2) + [g for g in drawn if inv.birthday(g) == 3][:day3]
            canon = [api.canonical(inv, g) for g in population]
            for g in population:
                api.is_invertible(inv, g)
            for c in canon:
                api.oracle_invertible(inv, c)
        return store, seconds

    def reference(self, api, inputs):
        return SELFTEST_CHECKS

    def _results(self, outputs):
        rc, text = outputs
        if rc != 0:
            return None
        try:
            return [(r["name"], r["passed"], r["detail"]) for r in json.loads(text)["result"]]
        except (ValueError, KeyError, TypeError):
            return None

    def check(self, inputs, expected, outputs):
        results = self._results(outputs)
        if results is None:
            return len(expected), len(expected)
        passed = {name for name, ok, _ in results if ok is True}
        failed = sum(name not in passed for name in expected)
        failed += sum(name not in expected for name, _, _ in results)
        return len(expected), min(failed, len(expected))

    def digest(self, outputs):
        return _digest([outputs[0], self._results(outputs)])

    def describe(self, inputs, outputs):
        results = self._results(outputs) or []
        return [f"checks passed: {sum(ok is True for _, ok, _ in results)} of {len(results)}"]


class CliBatch:
    """``dicots invertible --file F`` through ``cli.main``; F holds distinct
    day-3 forms sampled with the workload seed and printed in notation."""

    name = "cli-batch"
    seeded = True

    def setup(self, api, seed, workdir):
        store = api.Store()
        drawn = api.enumerate_dicots(store, 3, CLI_LINES + 60, seed=seed)
        lines = [api.notation(store, g) for g in drawn if store.birthday(g) == 3]
        lines = lines[:CLI_LINES]
        path = workdir / "cli-batch.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return {"lines": lines, "argv": ["invertible", "--file", str(path)]}

    def n_inputs(self, inputs):
        return len(inputs["lines"])

    def run_pass(self, api, inputs):
        wall, out = _run_cli(api, inputs["argv"])
        return Pass(wall, [wall], out)

    def replay(self, api, inputs, tracer=None):
        """The CLI's calls staged so each stage memoizes what the next
        reuses: parse, outcome, canonical, is_invertible, notation."""
        store = api.Store()
        forms = [api.parse(store, line) for line in inputs["lines"]]
        for g in forms:
            api.outcome(store, g)
        for g in forms:
            api.canonical(store, g)
        reports = [api.is_invertible(store, g) for g in forms]
        for r in reports:
            api.notation(store, r.canonical)
        return store, {}

    def reference(self, api, inputs):
        store = api.Store()
        return [api.oracle_invertible(store, api.parse(store, x)) for x in inputs["lines"]]

    def check(self, inputs, expected, outputs):
        rc, text = outputs
        lines = inputs["lines"]
        if rc != 0:
            return len(lines), len(lines)
        got = text.splitlines()
        failed = abs(len(got) - len(lines))
        for line, want, row in zip(lines, expected, got):
            expr, _, verdict = row.partition("\t")
            if expr != line or verdict.split(" ", 1)[0] != ("true" if want else "false"):
                failed += 1
        return len(lines), min(failed, len(lines))

    def digest(self, outputs):
        return _digest(list(outputs))

    def describe(self, inputs, outputs):
        rows = outputs[1].splitlines()
        true = sum(r.partition("\t")[2].startswith("true") for r in rows)
        return [f"lines: {len(inputs['lines'])}, invertible: {true}"]


class CensusSlice:
    """Whole rows of the exhaustive day-3 enumeration. A row is one Left
    option set with every admissible Right option set, in the enumeration's
    own order. The seed picks a Left set of CENSUS_POPCOUNT day-2 forms; its
    complement is the second row. Rows with larger Left sets cost more, and
    a complementary pair always totals ten options, which keeps the work of
    a pass within a few percent across seeds."""

    name = "census-slice"
    seeded = True

    def setup(self, api, seed, workdir):
        store = api.Store()
        population = api.enumerate_dicots(store, 2)
        older = len(api.enumerate_dicots(store, 1))
        full = (1 << len(population)) - 1
        small = (1 << older) - 1  # Left masks inside it skip pairs born by day 2
        masks = [m for m in range(1, full + 1) if bin(m).count("1") == CENSUS_POPCOUNT]
        first = random.Random(seed).choice(masks)
        rows = [first, full ^ first]
        inputs = [pair for mi in rows for pair in census_row(mi, small, full)]
        return {"rows": rows, "inputs": inputs}

    def n_inputs(self, inputs):
        return len(inputs["inputs"])

    def run_pass(self, api, inputs):
        clock = time.perf_counter
        store = api.Store()
        start_forms = len(store)
        items, outputs = [], []
        t0 = clock()
        pop = api.enumerate_dicots(store, 2)
        for li, ri in inputs["inputs"]:
            t = clock()
            g = store.intern([pop[i] for i in li], [pop[i] for i in ri])
            o = api.outcome(store, g)
            c = api.canonical(store, g)
            v = api.is_invertible(store, g).verdict
            w = api.oracle_invertible(store, g)
            items.append(clock() - t)
            outputs.append((o.value, v, w, c))
        wall = clock() - t0
        return Pass(wall, items, outputs, start_forms, len(store),
                    store_counters(store, api.StepKind))

    def reference(self, api, inputs):
        store = api.Store()
        pop = api.enumerate_dicots(store, 2)
        memo: dict = {}
        return {
            k: outcome_letter(store, store.intern([pop[i] for i in li], [pop[i] for i in ri]), memo)
            for k, (li, ri) in enumerate(inputs["inputs"])
            if k % BRUTE_EVERY == 0
        }

    def check(self, inputs, expected, outputs):
        failed = 0
        for k, (o, v, w, _) in enumerate(outputs):
            if v != w or (k in expected and expected[k] != o):
                failed += 1
        n = len(inputs["inputs"])
        return n, min(n, failed + abs(len(outputs) - n))

    def _tally(self, outputs):
        counts = {x: 0 for x in "LNPR"}
        for o, *_ in outputs:
            counts[o] += 1
        return {
            "outcomes": counts,
            "invertible": sum(v for _, v, _, _ in outputs),
            "values": len({c for *_, c in outputs}),
        }

    def digest(self, outputs):
        return _digest([[o, v, w] for o, v, w, _ in outputs] + [self._tally(outputs)])

    def describe(self, inputs, outputs):
        t = self._tally(outputs)
        return [
            f"rows: {inputs['rows']}, forms: {len(outputs)}",
            f"outcomes: {t['outcomes']}, invertible: {t['invertible']}, "
            f"distinct values: {t['values']}",
        ]


class OrderSums:
    """``compare(g + j, h + j)`` for seeded triples over a fixed pool of
    canonical forms born by day 3. The pool is interned before the timer
    starts, so the timed pass never canonicalises."""

    name = "order-sums"
    seeded = True

    def setup(self, api, seed, workdir):
        store = api.Store()
        pool: dict = {}
        for g in api.enumerate_dicots(store, 3, POOL_DRAW, seed=api.enumeration_seed):
            pool.setdefault(api.canonical(store, g), None)
        table, roots = export_forms(store, list(pool))
        rng = random.Random(seed)
        n = len(roots)
        queries = [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(ORDER_QUERIES)]
        return {"table": table, "roots": roots, "queries": queries}

    def n_inputs(self, inputs):
        return len(inputs["queries"])

    def run_pass(self, api, inputs):
        clock = time.perf_counter
        store = api.Store()
        start_forms = len(store)
        ids = import_forms(store, inputs["table"])
        pool = [ids[r] for r in inputs["roots"]]
        items, outputs = [], []
        t0 = clock()
        for a, b, c in inputs["queries"]:
            t = clock()
            g, h, j = pool[a], pool[b], pool[c]
            r = api.compare(store, api.sum(store, g, j), api.sum(store, h, j))
            items.append(clock() - t)
            outputs.append(r.value)
        wall = clock() - t0
        return Pass(wall, items, outputs, start_forms, len(store),
                    store_counters(store, api.StepKind))

    def reference(self, api, inputs):
        """compare(g, h) wherever j is invertible (cancellation), else None.
        Invertibility of j is decided by the oracle route."""
        store = api.Store()
        ids = import_forms(store, inputs["table"])
        pool = [ids[r] for r in inputs["roots"]]
        invertible = [api.oracle_invertible(store, g) for g in pool]
        return [
            api.compare(store, pool[a], pool[b]).value if invertible[c] else None
            for a, b, c in inputs["queries"]
        ]

    def check(self, inputs, expected, outputs):
        failed = sum(want is not None and want != got for want, got in zip(expected, outputs))
        n = len(inputs["queries"])
        return n, min(n, failed + abs(len(outputs) - n))

    def digest(self, outputs):
        return _digest(outputs)

    def describe(self, inputs, outputs):
        counts = {r: outputs.count(r) for r in (">", "<", "=", "||")}
        return [f"pool: {len(inputs['roots'])} values, queries: {len(outputs)}, verdicts: {counts}"]


WORKLOADS = {w.name: w for w in (SelftestFull(), CliBatch(), CensusSlice(), OrderSums())}
