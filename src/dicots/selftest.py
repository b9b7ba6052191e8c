"""Self-checks covering every headline guarantee the library makes.

Each check returns a CheckResult; ``iter_checks`` runs a named level and
yields the results as they finish, and ``format_line`` renders one as a
PASS/FAIL line. The ``full`` level is the acceptance sweep
(exhaustive at birthday <= 2 plus a fixed 10,000-form sample at birthday 3,
property suites at 500 cases); ``quick`` shrinks the sampled populations to
finish well under a minute. The acceptance test module drives these same
functions, so the CLI and the test suite cannot drift apart.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterator

from .canonical import canonical, is_canonical
from .forms import Store, enumerate_dicots, notation, parse
from .invert import is_invertible, lemma_check, lemma_witness, oracle_invertible
from .order import OrderResult, compare, eq, eq_zero, geq, geq_zero, leq_zero
from .outcomes import (
    Outcome,
    conjugate_outcome,
    left_wins_moving_first,
    outcome,
    outcome_geq,
)

# Fixed seed for property-case sampling; results must reproduce everywhere.
PROPERTY_SEED = 314159

LEVELS = {
    "quick": {"day3": 300, "cases": 200},
    "full": {"day3": 10000, "cases": 500},
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def format_line(r: CheckResult) -> str:
    mark = "PASS" if r.passed else "FAIL"
    return f"{mark} {r.name} ({r.seconds:.1f}s, {r.detail})"


def day2_population(store: Store) -> list[int]:
    """All ten dicots born by day 2, in enumeration order."""
    return list(enumerate_dicots(store, 2))


def day3_sample(store: Store, count: int) -> list[int]:
    """A fixed-seed sample of exactly ``count`` birthday-3 forms.

    Draws a little over ``count`` from the day-3 population and keeps the
    forms whose birthday is exactly 3 (the sampler ranges over birthdays up
    to 3, but smaller birthdays occupy 10 of the 1,046,530 index slots, so
    the overdraw is ample).
    """
    draw = count + 60
    got = [g for g in enumerate_dicots(store, 3, limit=draw) if store.birthday(g) == 3]
    if len(got) < count:
        raise RuntimeError("day-3 overdraw exhausted; raise it")
    return got[:count]


def _result(name: str, t0: float, failures: list[str], total: int) -> CheckResult:
    if failures:
        detail = f"{len(failures)} of {total} failed: " + "; ".join(failures[:3])
    else:
        detail = f"{total} cases"
    return CheckResult(name, not failures, detail, time.perf_counter() - t0)


def check_reference_positions(store: Store) -> CheckResult:
    """Exact values for the pinned reference positions; runs in well under a second."""
    t0 = time.perf_counter()
    failures: list[str] = []
    seen = [0]

    def expect(cond: bool, label: str) -> None:
        seen[0] += 1
        if not cond:
            failures.append(label)

    z = store.zero
    expect(compare(store, parse(store, "*+*"), z) is OrderResult.EQ, "*+* = 0")
    two = parse(store, "*2+*2")
    expect(outcome(store, two) is Outcome.P, "o(*2+*2) = P")
    expect(not eq_zero(store, two), "*2+*2 != 0")

    g = parse(store, "{0|*2}")
    expect(is_canonical(store, g), "{0|*2} canonical")
    gg = store.sum(g, store.conjugate(g))
    expect(outcome(store, gg) is Outcome.N, "o({0|*2}-{0|*2}) = N")
    expect(not eq_zero(store, gg), "{0|*2}-{0|*2} != 0")
    expect(not is_invertible(store, g).verdict, "{0|*2} not invertible")

    h = parse(store, "{0,*|{*|0,*},{0|0,*}}")
    expect(is_canonical(store, h), "{0,*|{*|0,*},{0|0,*}} canonical")
    g2 = store.intern((z,), (h,))
    expect(store.nimber(2) not in store.followers(g2), "*2 not a follower of {0|H}")
    g2g2 = store.sum(g2, store.conjugate(g2))
    expect(outcome(store, g2g2) is Outcome.N, "o({0|H}-{0|H}) = N")
    expect(not eq_zero(store, g2g2), "{0|H}-{0|H} != 0")
    expect(not is_invertible(store, g2).verdict, "{0|H} not invertible")

    wide = parse(store, "{0,*,*2|0}")
    expect(canonical(store, wide) == parse(store, "{0,*|0}"), "canonical({0,*,*2|0}) = {0,*|0}")
    expect(is_invertible(store, wide).verdict, "{0,*,*2|0} invertible")

    return _result("reference-positions", t0, failures, seen[0])


def check_inversion_characterization(store: Store, population: list[int]) -> CheckResult:
    """The follower scan and the direct zero test must agree on every form."""
    t0 = time.perf_counter()
    failures: list[str] = []
    for g in population:
        scan = is_invertible(store, g).verdict
        direct = oracle_invertible(store, canonical(store, g))
        if scan != direct:
            failures.append(f"{notation(store, g)}: scan {scan}, direct {direct}")
    return _result("inversion-characterization", t0, failures, len(population))


def check_inversion_corollaries(store: Store, population: list[int]) -> CheckResult:
    """A *2 follower forces non-invertibility, and invertibility is hereditary.

    Both are properties of the value, so each is checked once per canonical
    form; the population's size is still the number of cases reported.
    """
    t0 = time.perf_counter()
    failures: list[str] = []
    star2 = store.nimber(2)
    for c in sorted({canonical(store, g) for g in population}):
        verdict = is_invertible(store, c).verdict
        if verdict and star2 in store.followers(c):
            failures.append(f"{notation(store, c)}: invertible despite a *2 follower")
        if verdict:
            for f in store.followers(c):
                if not is_invertible(store, f).verdict:
                    failures.append(
                        f"{notation(store, c)}: non-invertible follower {notation(store, f)}"
                    )
                    break
    return _result("inversion-corollaries", t0, failures, len(population))


def check_positivity_under_self_pairs(store: Store) -> CheckResult:
    """Strictly positive forms never drop below 0 when a pair h - h is added,
    and the witness construction separates every nonzero pair from 0."""
    t0 = time.perf_counter()
    failures: list[str] = []
    day2 = day2_population(store)
    total = 0

    positives = [g for g in day2 if compare(store, g, store.zero) is OrderResult.GT]
    if not positives:
        failures.append("no strictly positive day-2 form found")
    for g in positives:
        for h in day2:
            total += 1
            if not lemma_check(store, g, h):
                failures.append(
                    f"{notation(store, g)} + {notation(store, h)} - same dropped below 0"
                )

    # Two birthday-3 positions whose self-pairs are next-player wins, to
    # exercise the nontrivial branch of the witness construction.
    extras = [
        parse(store, "{0|*2}"),
        store.intern((store.zero,), (parse(store, "{0,*|{*|0,*},{0|0,*}}"),)),
    ]
    for h in day2 + extras:
        total += 1
        s = store.sum(h, store.conjugate(h))
        x = lemma_witness(store, h)
        if eq_zero(store, s):
            if x is not None:
                failures.append(f"{notation(store, h)}: witness for a zero pair")
            continue
        if x is None:
            failures.append(f"{notation(store, h)}: no witness for a nonzero pair")
            continue
        distinguishes = (
            left_wins_moving_first(store, store.sum(s, x))
            and not left_wins_moving_first(store, x)
            and outcome(store, store.sum(s, x)) is not outcome(store, x)
        )
        if not distinguishes:
            failures.append(f"{notation(store, h)}: witness fails to distinguish")
    return _result("positivity-under-self-pairs", t0, failures, total)


def check_algebraic_properties(
    store: Store, day2: list[int], day3: list[int], cases: int
) -> list[CheckResult]:
    """Property suites, each over at least ``cases`` fixed-seed cases."""
    rng = random.Random(PROPERTY_SEED)
    pop = day2 + day3
    sample = pop[:cases]
    results: list[CheckResult] = []

    t0 = time.perf_counter()
    failures = [
        notation(store, g)
        for g in sample
        if outcome(store, store.sum(g, store.adjoint(g))) is not Outcome.P
    ]
    results.append(_result("adjoint-law", t0, failures, len(sample)))

    t0 = time.perf_counter()
    failures = [
        notation(store, g)
        for g in sample
        if outcome(store, store.conjugate(g)) is not conjugate_outcome(outcome(store, g))
    ]
    results.append(_result("conjugate-outcome-symmetry", t0, failures, len(sample)))

    t0 = time.perf_counter()
    failures = [
        notation(store, g)
        for g in sample
        if canonical(store, canonical(store, g)) != canonical(store, g)
    ]
    results.append(_result("canonical-idempotent", t0, failures, len(sample)))

    t0 = time.perf_counter()
    failures = [
        notation(store, g) for g in sample if not eq(store, g, canonical(store, g))
    ]
    results.append(_result("canonical-preserves-value", t0, failures, len(sample)))

    t0 = time.perf_counter()
    failures = []
    total = 0
    for g in sample:
        total += 1
        if not geq(store, g, g):
            failures.append(f"reflexivity: {notation(store, g)}")
    canon = sorted({canonical(store, g) for g in day2})
    canon += [canonical(store, g) for g in rng.sample(day3, min(15, len(day3)))]
    for c1 in canon:
        for c2 in canon:
            total += 1
            if eq(store, c1, c2) and c1 != c2:
                failures.append(
                    f"antisymmetry: {notation(store, c1)} = {notation(store, c2)}"
                )
    for g in day2:
        for h in day2:
            for j in day2:
                total += 1
                if geq(store, g, h) and geq(store, h, j) and not geq(store, g, j):
                    failures.append(
                        f"transitivity: {notation(store, g)}, {notation(store, h)}, {notation(store, j)}"
                    )
    results.append(_result("order-axioms", t0, failures, total))

    t0 = time.perf_counter()
    failures = []
    for _ in range(cases):
        g, h, j = rng.choice(day2), rng.choice(day2), rng.choice(day2)
        if geq(store, g, h) and not geq(store, store.sum(g, j), store.sum(h, j)):
            failures.append(
                f"{notation(store, g)} >= {notation(store, h)} broken by +{notation(store, j)}"
            )
    results.append(_result("sum-monotonicity", t0, failures, cases))

    t0 = time.perf_counter()
    failures = []
    nonzero = [g for g in pop if g != store.zero]
    for _ in range(cases):
        g = rng.choice(nonzero)
        a = rng.choice(pop)
        wider = store.intern(set(store._lefts[g]) | {a}, store._rights[g])
        if not geq(store, wider, g):
            failures.append(f"{notation(store, g)} hurt by extra Left option")
    results.append(_result("hand-tying", t0, failures, cases))

    t0 = time.perf_counter()
    failures = []
    inv_pool = [g for g in day2 if is_invertible(store, g).verdict]
    extra = []
    for g in day3[:200]:
        if is_invertible(store, g).verdict:
            extra.append(canonical(store, g))
        if len(extra) >= 20:
            break
    inv_pool += sorted(set(extra))
    for _ in range(cases):
        j = rng.choice(inv_pool)
        g, h = rng.choice(day2), rng.choice(day2)
        if geq(store, store.sum(g, j), store.sum(h, j)) != geq(store, g, h):
            failures.append(
                f"cancelling {notation(store, j)} flips {notation(store, g)} vs {notation(store, h)}"
            )
    results.append(_result("invertible-cancellation", t0, failures, cases))

    t0 = time.perf_counter()
    failures = []
    z = store.zero
    zero_sample = sample + [store.sum(g, store.conjugate(g)) for g in pop[:50]]
    for g in zero_sample:
        if geq_zero(store, g) != geq(store, g, z) or leq_zero(store, g) != geq(store, z, g):
            failures.append(notation(store, g))
    results.append(_result("zero-test-consistency", t0, failures, len(zero_sample)))

    t0 = time.perf_counter()
    failures = []
    total = 0
    for g in day2:
        for h in day2:
            if not geq(store, g, h):
                continue
            for x in day2:
                total += 1
                if not outcome_geq(
                    outcome(store, store.sum(g, x)), outcome(store, store.sum(h, x))
                ):
                    failures.append(
                        f"{notation(store, g)} >= {notation(store, h)} refuted by {notation(store, x)}"
                    )
    for g in rng.sample(day3, min(35, len(day3))):
        c = canonical(store, g)
        for x in day2:
            total += 1
            if outcome(store, store.sum(g, x)) is not outcome(store, store.sum(c, x)):
                failures.append(
                    f"{notation(store, g)} vs its canonical form refuted by {notation(store, x)}"
                )
    results.append(_result("order-context-semantics", t0, failures, total))

    return results


def iter_checks(level: str = "quick", store: Store | None = None) -> Iterator[CheckResult]:
    """Run every check at the given level, yielding results as they finish."""
    sizes = LEVELS[level]
    if store is None:
        store = Store()
    day2 = day2_population(store)
    day3 = day3_sample(store, sizes["day3"])
    yield check_reference_positions(store)
    yield check_inversion_characterization(store, day2 + day3)
    yield check_inversion_corollaries(store, day2 + day3)
    yield check_positivity_under_self_pairs(store)
    yield from check_algebraic_properties(store, day2, day3, sizes["cases"])

