"""Acceptance criteria at full scale, one test per criterion.

Each test prints one PASS/FAIL line per check (live with ``pytest -s``,
otherwise in the captured output of any failure) and then asserts.
"""

from dicots.selftest import (
    check_algebraic_properties,
    check_inversion_characterization,
    check_inversion_corollaries,
    check_positivity_under_self_pairs,
    check_reference_positions,
    format_line,
    population_values,
)


def _settle(result):
    print(format_line(result))
    assert result.passed, result.detail


def test_criterion_1_reference_positions(store):
    """Pinned positions with exact expected values, zero tolerance."""
    r = check_reference_positions(store)
    _settle(r)
    assert r.seconds < 1.0


def test_criterion_2_characterization_sweep(store, day2, day3_big):
    """The structural invertibility criterion agrees with the direct
    order-theoretic oracle on all of day 2 plus 10,000 fixed-seed
    birthday-3 samples, with zero disagreements."""
    assert len(day2) == 10
    assert len(day3_big) == 10000
    population = day2 + day3_big
    values = population_values(store, population)
    _settle(check_inversion_characterization(store, values, len(population)))


def test_criterion_3_corollaries(store, day2, day3_big):
    """On the same population: a *2 follower forces non-invertibility, and
    followers of invertible canonical forms are invertible."""
    population = day2 + day3_big
    values = population_values(store, population)
    _settle(check_inversion_corollaries(store, values, len(population)))


def test_criterion_4_positivity_lemma(store):
    """Strictly positive day-2 forms survive every added pair h - h, and
    the witness construction separates every nonzero self-pair from 0."""
    r = check_positivity_under_self_pairs(store)
    _settle(r)
    assert r.seconds < 60.0


def test_criterion_5_property_suites(store, day2, day3_big):
    """Ten algebraic property sweeps, each at 500 or more fixed-seed cases."""
    results = list(check_algebraic_properties(store, day2, day3_big, 500))
    for r in results:
        print(format_line(r))
    assert len(results) == 10
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
        assert int(r.detail.split()[0]) >= 500, r.name
