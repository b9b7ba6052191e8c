"""The selftest harness: sampling, result formatting, check roster."""

import dataclasses
import itertools

import pytest

from dicots import (
    Outcome,
    OrderResult,
    Store,
    canonical,
    geq,
    is_invertible,
    notation,
    outcome,
    parse,
    selftest,
)
from dicots.selftest import CheckResult, day2_population, day3_sample, format_line, iter_checks

CHECK_NAMES = [
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
]


def test_format_line():
    assert format_line(CheckResult("adjoint-law", True, "500 cases", 1.234)) == (
        "PASS adjoint-law (1.2s, 500 cases)"
    )
    assert format_line(CheckResult("x", False, "1 of 3 failed: boom", 0.01)).startswith("FAIL x")


def test_day2_population(store, day2):
    assert len(day2) == 10
    assert day2_population(store) == day2


def test_day3_sample_is_deterministic_and_on_day_3():
    a, b = Store(), Store()
    sample_a = day3_sample(a, 400)
    sample_b = day3_sample(b, 400)
    assert len(sample_a) == 400
    assert all(a.birthday(g) == 3 for g in sample_a)
    assert [notation(a, g) for g in sample_a] == [notation(b, g) for g in sample_b]


def test_day3_sample_interns_only_what_it_returns():
    """On a store holding only day 2 the sampler interns exactly the forms
    it returns: it stops at the last one, and the rest of the overdraw is
    never drawn."""
    store = Store()
    day2_population(store)
    n = len(store)
    sample = day3_sample(store, 250)
    assert len(store) - n == len(sample) == 250
    assert sample == day3_sample(Store(), 250)


def test_day3_sample_raises_when_the_overdraw_runs_out(monkeypatch):
    real = selftest.enumerate_dicots

    def short(store, max_birthday, limit):
        return itertools.islice(real(store, max_birthday, limit), 20)

    monkeypatch.setattr(selftest, "enumerate_dicots", short)
    with pytest.raises(RuntimeError, match="overdraw exhausted"):
        day3_sample(Store(), 30)


# Store.stats() after a full sweep on a fresh store; a memo miss inserts one
# entry, so these are the sweep's work. forms: day 2, the 10,000-form day-3
# sample, the canonical forms population_values builds, and the adjoints,
# conjugates and sums below, plus hand-tying's widened forms. sum: the
# reference positions, the positivity check's g + h - h and self-pairs, sum
# monotonicity, invertible cancellation and zero-test consistency; the
# adjoint law and the order-context sweep judge outcomes on id pairs and
# build none. conjugate: mostly the adjoint law's conjugate(g), which the
# symmetry check reuses. adjoint: the adjoint law and the positivity
# witnesses. first_wins: the follower scans, the adjoint law and the
# order-context sweep. geq: canonicalisation, then the property suites.
# geq_zero: the oracle and zero-test consistency. canonical and kept:
# population_values. followers and invert: the follower scans of the
# characterization sweep. canonical_steps stays empty: nothing calls explain.
PINNED_FULL_STATS = {
    "forms": 13474,
    "sum": 643,
    "conjugate": 1047,
    "followers": 772,
    "adjoint": 537,
    "first_wins": 12847,
    "geq": 8828,
    "geq_zero": 2666,
    "canonical": 11325,
    "canonical_steps": 0,
    "kept": 2043,
    "invert": 770,
}


def test_full_sweep_work_is_pinned():
    store = Store()
    results = list(iter_checks("full", store))
    assert all(r.passed for r in results)
    assert store.stats() == PINNED_FULL_STATS


def test_quick_level_runs_every_check(store):
    results = list(iter_checks("quick", store))
    assert [r.name for r in results] == CHECK_NAMES
    assert all(r.passed for r in results)


def test_corollary_check_fails_on_a_non_invertible_follower(monkeypatch):
    """The heredity check runs once per value but still fails, naming the
    value, when a follower of an invertible value reports non-invertible;
    its case count stays the population's size."""
    store = Store()
    population = day2_population(store) + day3_sample(store, 300)
    values = selftest.population_values(store, population)
    c = next(v for v in values if v != store.zero and is_invertible(store, v).verdict)
    f = store.followers(c)[-2]  # c's youngest proper follower; c itself is last

    def broken(store, g):
        report = is_invertible(store, g)
        return dataclasses.replace(report, verdict=False) if g == f else report

    monkeypatch.setattr(selftest, "is_invertible", broken)
    r = selftest.check_inversion_corollaries(store, values, len(population))
    assert not r.passed
    assert r.detail.split(":")[0].endswith(f" of {len(population)} failed")
    assert f"{notation(store, c)}: non-invertible follower {notation(store, f)}" in r.detail


def test_characterization_check_fails_on_a_wrong_value(monkeypatch):
    """Both routes run once per value, yet the check still fails when the
    oracle flips one value's verdict: the detail names that value and the
    case count stays the population's size. ``population_values``
    canonicalises every form and returns the distinct values in order."""
    store = Store()
    population = day2_population(store) + day3_sample(store, 300)
    c = canonical(store, population[-1])
    assert sum(g in store.canonical_memo for g in population) < 20  # c's followers only
    oracle = selftest.oracle_invertible

    def flipped(store, g):
        return oracle(store, g) != (g == c)

    monkeypatch.setattr(selftest, "oracle_invertible", flipped)
    values = selftest.population_values(store, population)
    assert all(g in store.canonical_memo for g in population)
    assert values == sorted({store.canonical_memo[g] for g in population})
    r = selftest.check_inversion_characterization(store, values, len(population))
    assert not r.passed
    assert r.detail.startswith(f"1 of {len(population)} failed: {notation(store, c)}: ")


def test_adjoint_law_check_fails_on_a_wrong_adjoint():
    """With adjoint(g) replaced by 0 for one nonzero form g whose outcome is
    not P, g + 0 is not P, so the pair route must report that form."""
    store = Store()
    day2 = day2_population(store)
    day3 = day3_sample(store, 300)
    sample = (day2 + day3)[:50]
    g = next(x for x in sample if x != store.zero and outcome(store, x) is not Outcome.P)
    adjoint = store.adjoint
    store.adjoint = lambda x: store.zero if x == g else adjoint(x)
    results = selftest.check_algebraic_properties(store, day2, day3, 50)
    r = next(r for r in results if r.name == "adjoint-law")
    assert not r.passed
    assert r.detail == f"1 of 50 failed: {notation(store, g)}"


def test_property_sweeps_yield_each_result_as_it_ends(monkeypatch):
    """The first four sweeps never call ``geq``, so they come out of the
    generator before the order-axioms sweep, the first that does, runs."""
    store = Store()
    day2 = day2_population(store)
    day3 = day3_sample(store, 300)

    def no_geq(*args):
        raise AssertionError("geq called before its sweep was asked for")

    monkeypatch.setattr(selftest, "geq", no_geq)
    sweeps = selftest.check_algebraic_properties(store, day2, day3, 50)
    first = list(itertools.islice(sweeps, 4))
    assert [r.name for r in first] == CHECK_NAMES[4:8]
    assert all(r.passed for r in first)
    with pytest.raises(AssertionError, match="geq called"):
        next(sweeps)


def test_positivity_check_fails_on_a_wrong_witness(monkeypatch):
    """With * as the witness for every nonzero pair, the pair route finds
    that it separates *2 - *2 from 0 but not the pairs of the two
    birthday-3 extras, whose self-pairs are next-player wins."""
    store = Store()
    witness = selftest.lemma_witness

    def star_witness(store, h):
        return None if witness(store, h) is None else store.star

    monkeypatch.setattr(selftest, "lemma_witness", star_witness)
    r = selftest.check_positivity_under_self_pairs(store)
    assert not r.passed
    assert r.detail == (
        "2 of 22 failed: {0|*2}: witness fails to distinguish; "
        "{0|{0,*|{0|0,*},{*|0,*}}}: witness fails to distinguish"
    )


def _replace(name, fake):
    """Patch selftest's ``name`` with ``fake``."""
    return lambda monkeypatch, store: monkeypatch.setattr(selftest, name, fake)


def _deny_geq(g_text, h_text):
    """Patch selftest's ``geq`` to deny g >= h for one pair of forms and
    answer truly for every other pair."""

    def patch(monkeypatch, store):
        pair = (parse(store, g_text), parse(store, h_text))
        monkeypatch.setattr(selftest, "geq", lambda s, g, h: (g, h) != pair and geq(s, g, h))

    return patch


def _conjugate_as_canonical(monkeypatch, store):
    monkeypatch.setattr(selftest, "canonical", lambda s, g: s.conjugate(g))


def _negating_sum(monkeypatch, store):
    monkeypatch.setattr(store, "sum", lambda g, h: store.conjugate(g))


def _star2_invertible(monkeypatch, store):
    star2 = store.nimber(2)

    def broken(s, g):
        report = is_invertible(s, g)
        return dataclasses.replace(report, verdict=True) if g == star2 else report

    monkeypatch.setattr(selftest, "is_invertible", broken)


def _corollaries(store):
    values = selftest.population_values(store, day2_population(store))
    return selftest.check_inversion_corollaries(store, values, 10)


def _sweep(name):
    """Run the property sweeps on day 2 and 300 day-3 forms at 50 cases,
    up to the one named, and return its result."""

    def run(store):
        day2, day3 = day2_population(store), day3_sample(store, 300)
        sweeps = selftest.check_algebraic_properties(store, day2, day3, 50)
        return next(r for r in sweeps if r.name == name)

    return run


# Each check with one call it relies on broken, and what its detail must
# report: how many cases failed, and the first failure it names.
BROKEN_CHECKS = {
    "reference-positions": (
        selftest.check_reference_positions,
        _replace("is_canonical", lambda s, g: False),
        ("2 of 14", "{0|*2} canonical"),
    ),
    "corollaries-star2": (
        _corollaries,
        _star2_invertible,
        ("1 of 10", "*2: invertible despite a *2 follower"),
    ),
    "positivity-no-positive": (
        selftest.check_positivity_under_self_pairs,
        _replace("compare", lambda s, g, h: OrderResult.EQ),
        ("1 of 12", "no strictly positive day-2 form found"),
    ),
    "positivity-lemma": (
        selftest.check_positivity_under_self_pairs,
        _replace("lemma_check", lambda s, g, h: False),
        ("10 of 22", "{0,*|*} + 0 - same dropped below 0"),
    ),
    "positivity-no-witness": (
        selftest.check_positivity_under_self_pairs,
        _replace("lemma_witness", lambda s, h: None),
        ("3 of 22", "*2: no witness for a nonzero pair"),
    ),
    "positivity-zero-pair-witness": (
        selftest.check_positivity_under_self_pairs,
        _replace("lemma_witness", lambda s, h: s.star),
        ("11 of 22", "0: witness for a zero pair"),
    ),
    "conjugate-outcome-symmetry": (
        _sweep("conjugate-outcome-symmetry"),
        _replace("conjugate_outcome", lambda o: o),
        ("18 of 50", "{0|*}"),
    ),
    "canonical-idempotent": (
        _sweep("canonical-idempotent"),
        _conjugate_as_canonical,
        ("46 of 50", "{0|*}"),
    ),
    "canonical-preserves-value": (
        _sweep("canonical-preserves-value"),
        _conjugate_as_canonical,
        ("45 of 50", "{0|*}"),
    ),
    "order-axioms-reflexivity": (
        _sweep("order-axioms"),
        _deny_geq("0", "0"),
        ("2 of 1626", "reflexivity: 0"),
    ),
    "order-axioms-antisymmetry": (
        _sweep("order-axioms"),
        _replace("eq", lambda s, g, h: True),
        ("552 of 1626", "antisymmetry: 0 = *"),
    ),
    "order-axioms-transitivity": (
        _sweep("order-axioms"),
        _deny_geq("{0,*|0}", "{0|0,*}"),
        ("2 of 1626", "transitivity: {0,*|0}, *, {0|0,*}"),
    ),
    "sum-monotonicity": (
        _sweep("sum-monotonicity"),
        _negating_sum,
        ("8 of 50", "{0,*|*} >= *2 broken by +{0|*}"),
    ),
    "hand-tying": (
        _sweep("hand-tying"),
        _replace("geq", lambda s, g, h: False),
        (
            "50 of 50",
            "{*,{0|*},{0|0,*},{*|0},{*|*},{0,*|0}|0,{0|0,*},{*|*},*2} hurt by extra Left option",
        ),
    ),
    "invertible-cancellation": (
        _sweep("invertible-cancellation"),
        _negating_sum,
        ("16 of 50", "cancelling {0,*|0} flips {0,*|0} vs *"),
    ),
    "zero-test-consistency": (
        _sweep("zero-test-consistency"),
        _replace("geq_zero", lambda s, g: True),
        ("60 of 100", "*"),
    ),
    "order-context-semantics-order": (
        _sweep("order-context-semantics"),
        _replace("outcome_geq", lambda a, b: a is b),
        ("111 of 650", "0 >= {*|0,*} refuted by *"),
    ),
    "order-context-semantics-canonical": (
        _sweep("order-context-semantics"),
        _conjugate_as_canonical,
        (
            "86 of 650",
            "{*,{0|*},{0|0,*},{*|*},{*|0,*},{0,*|0},{0,*|*}|*,{0|*},{0|0,*},{*|*},{0,*|0},{0,*|*}}"
            " vs its canonical form refuted by {0|*}",
        ),
    ),
}


@pytest.mark.parametrize("case", BROKEN_CHECKS)
def test_each_check_fails_on_a_broken_call(monkeypatch, case):
    """Every failure branch of the selftest is reachable: with one call a
    check relies on broken, the check fails and names the broken case."""
    run, patch, (count, first) = BROKEN_CHECKS[case]
    store = Store()
    patch(monkeypatch, store)
    r = run(store)
    assert r.passed is False
    failed, failures = r.detail.split(" failed: ", 1)
    assert (failed, failures.split("; ")[0]) == (count, first)
