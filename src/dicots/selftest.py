"""Self-checks covering every headline guarantee the library makes.

Each check returns a CheckResult, and the property suites yield one per
sweep; ``iter_checks`` runs a named level and yields the results as they
finish, and ``format_line`` renders one as a PASS/FAIL line. The ``full``
level is the acceptance sweep
(exhaustive at birthday <= 2 plus a fixed 10,000-form sample at birthday 3,
property suites at 500 cases); ``quick`` shrinks the sampled populations to
finish well under a minute. The acceptance test module drives these same
functions, so the CLI and the test suite cannot drift apart.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .canonical import canonical, is_canonical
from .forms import Store, enumerate_dicots, notation, parse
from .invert import is_invertible, lemma_check, lemma_witness, oracle_invertible
from .order import OrderResult, compare, eq, eq_zero, geq, geq_zero, leq_zero
from .outcomes import (
    Outcome,
    _outcome_of,
    _wins,
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

    Draws from a sample of ``count + 60`` forms of the day-3 population and
    keeps the forms whose birthday is exactly 3, stopping at the
    ``count``-th, so the rest of the overdraw is never interned (the
    sampler ranges over birthdays up to 3, but smaller birthdays occupy 10
    of the 1,046,530 index slots, so the overdraw is ample).
    """
    drawn = enumerate_dicots(store, 3, limit=count + 60)
    got = list(islice((g for g in drawn if store.birthday(g) == 3), count))
    if len(got) < count:
        raise RuntimeError("day-3 overdraw exhausted; raise it")
    return got


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


def population_values(store: Store, population: list[int]) -> list[int]:
    """The canonical forms that ``population`` reaches, in ascending id
    order, canonicalising every form in population order.

    Invertibility is a property of the value (canonical forms are unique),
    so the invertibility checks take this list, built once, together with
    the population's size as their number of cases.
    """
    return sorted({canonical(store, g) for g in population})


def check_inversion_characterization(store: Store, values: list[int], cases: int) -> CheckResult:
    """The follower scan and the direct zero test must agree on every value.

    ``values`` comes from ``population_values``. Both routes run once per
    value, in ascending id order, and a failure names that value; ``cases``,
    the population's size, is the number of cases reported. Running the
    zero test on every raw form would cost about half a full selftest more;
    tier-1 runs it on raw forms too.
    """
    t0 = time.perf_counter()
    failures: list[str] = []
    for c in values:
        scan = is_invertible(store, c).verdict
        direct = oracle_invertible(store, c)
        if scan != direct:
            failures.append(f"{notation(store, c)}: scan {scan}, direct {direct}")
    return _result("inversion-characterization", t0, failures, cases)


def check_inversion_corollaries(store: Store, values: list[int], cases: int) -> CheckResult:
    """A *2 follower forces non-invertibility, and invertibility is hereditary.

    Both are properties of the value, so each is checked once per value from
    ``population_values``; ``cases``, the population's size, is the number
    of cases reported. Verdicts come from ``is_invertible``, whose ``invert``
    table answers each canonical form once, and the followers of a
    canonical form are canonical.
    """
    t0 = time.perf_counter()
    failures: list[str] = []
    star2 = store.nimber(2)
    for c in values:
        if not is_invertible(store, c).verdict:
            continue
        if star2 in store.followers(c):
            failures.append(f"{notation(store, c)}: invertible despite a *2 follower")
        for f in store.followers(c):
            if not is_invertible(store, f).verdict:
                failures.append(
                    f"{notation(store, c)}: non-invertible follower {notation(store, f)}"
                )
                break
    return _result("inversion-corollaries", t0, failures, cases)


def check_positivity_under_self_pairs(store: Store) -> CheckResult:
    """Strictly positive forms never drop below 0 when a pair h - h is added,
    and the witness construction separates every nonzero pair from 0.

    The check builds each g + h - h and each pair s = h + conjugate(h), and
    zero-tests them, because those sums are what it tests. The witness X is
    judged without building s + X: that sum is the difference
    s - conjugate(X), so the win solver decides whether Left, moving first,
    wins it on the id pair (s, conjugate(X)).
    """
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
        # Left winning s + X moving first and losing X moving first makes
        # their outcomes differ (L or N against P or R): no Right-first test.
        left_first = _wins(store, s, store.conjugate(x))
        if not left_first or left_wins_moving_first(store, x):
            failures.append(f"{notation(store, h)}: witness fails to distinguish")
    return _result("positivity-under-self-pairs", t0, failures, total)


def _sum_outcome(store: Store, g: int, x: int) -> Outcome:
    """The outcome of g + x, decided on the id pair (g, conjugate(x))
    without building the sum: g + x is the difference g - conjugate(x),
    which Left moving first wins on (g, conjugate(x)) and Right moving
    first on (conjugate(x), g)."""
    c = store.conjugate(x)
    return _outcome_of(_wins(store, g, c), _wins(store, c, g))


def check_algebraic_properties(
    store: Store, day2: list[int], day3: list[int], cases: int
) -> Iterator[CheckResult]:
    """Property suites, each over at least ``cases`` fixed-seed cases,
    yielding each suite's result as it ends."""
    rng = random.Random(PROPERTY_SEED)
    pop = day2 + day3
    sample = pop[:cases]

    # g + adjoint(g) is the difference a - c with a = adjoint(g) and
    # c = conjugate(g), decided on the id pair without building the sum: it
    # is P exactly when Left moving first (a, c) and Right moving first
    # (c, a) both lose. conjugate(g) is interned for the symmetry check
    # below anyway; no adjoint is conjugated.
    t0 = time.perf_counter()
    failures = []
    for g in sample:
        a, c = store.adjoint(g), store.conjugate(g)
        if _wins(store, a, c) or _wins(store, c, a):
            failures.append(notation(store, g))
    yield _result("adjoint-law", t0, failures, len(sample))

    t0 = time.perf_counter()
    failures = [
        notation(store, g)
        for g in sample
        if outcome(store, store.conjugate(g)) is not conjugate_outcome(outcome(store, g))
    ]
    yield _result("conjugate-outcome-symmetry", t0, failures, len(sample))

    t0 = time.perf_counter()
    failures = [
        notation(store, g)
        for g in sample
        if canonical(store, canonical(store, g)) != canonical(store, g)
    ]
    yield _result("canonical-idempotent", t0, failures, len(sample))

    t0 = time.perf_counter()
    failures = [
        notation(store, g) for g in sample if not eq(store, g, canonical(store, g))
    ]
    yield _result("canonical-preserves-value", t0, failures, len(sample))

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
    yield _result("order-axioms", t0, failures, total)

    t0 = time.perf_counter()
    failures = []
    for _ in range(cases):
        g, h, j = rng.choice(day2), rng.choice(day2), rng.choice(day2)
        if geq(store, g, h) and not geq(store, store.sum(g, j), store.sum(h, j)):
            failures.append(
                f"{notation(store, g)} >= {notation(store, h)} broken by +{notation(store, j)}"
            )
    yield _result("sum-monotonicity", t0, failures, cases)

    t0 = time.perf_counter()
    failures = []
    nonzero = [g for g in pop if g != store.zero]
    for _ in range(cases):
        g = rng.choice(nonzero)
        a = rng.choice(pop)
        wider = store.intern(set(store._lefts[g]) | {a}, store._rights[g])
        if not geq(store, wider, g):
            failures.append(f"{notation(store, g)} hurt by extra Left option")
    yield _result("hand-tying", t0, failures, cases)

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
    yield _result("invertible-cancellation", t0, failures, cases)

    t0 = time.perf_counter()
    failures = []
    z = store.zero
    zero_sample = sample + [store.sum(g, store.conjugate(g)) for g in pop[:50]]
    for g in zero_sample:
        if geq_zero(store, g) != geq(store, g, z) or leq_zero(store, g) != geq(store, z, g):
            failures.append(notation(store, g))
    yield _result("zero-test-consistency", t0, failures, len(zero_sample))

    # Outcomes of g + X come from the id pair (g, conjugate(X)); X is a
    # day-2 form, and day 2 is closed under conjugation, so this sweep
    # interns no form.
    t0 = time.perf_counter()
    failures = []
    total = 0
    for g in day2:
        for h in day2:
            if not geq(store, g, h):
                continue
            for x in day2:
                total += 1
                if not outcome_geq(_sum_outcome(store, g, x), _sum_outcome(store, h, x)):
                    failures.append(
                        f"{notation(store, g)} >= {notation(store, h)} refuted by {notation(store, x)}"
                    )
    for g in rng.sample(day3, min(35, len(day3))):
        c = canonical(store, g)
        for x in day2:
            total += 1
            if _sum_outcome(store, g, x) is not _sum_outcome(store, c, x):
                failures.append(
                    f"{notation(store, g)} vs its canonical form refuted by {notation(store, x)}"
                )
    yield _result("order-context-semantics", t0, failures, total)


def iter_checks(level: str, store: Store) -> Iterator[CheckResult]:
    """Run every check at the given level, yielding results as they finish."""
    sizes = LEVELS[level]
    day2 = day2_population(store)
    day3 = day3_sample(store, sizes["day3"])
    yield check_reference_positions(store)
    population = day2 + day3
    values = population_values(store, population)
    yield check_inversion_characterization(store, values, len(population))
    yield check_inversion_corollaries(store, values, len(population))
    yield check_positivity_under_self_pairs(store)
    yield from check_algebraic_properties(store, day2, day3, sizes["cases"])

