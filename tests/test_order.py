"""The partial order on dicot forms, decided modulo the dicot universe."""

import itertools

from dicots import (
    Outcome,
    OrderResult,
    Store,
    compare,
    eq,
    eq_zero,
    geq,
    geq_zero,
    leq_zero,
    outcome,
    outcome_geq,
    parse,
)
from dicots.order import _geq_zero
from dicots.selftest import day3_sample

from _oracles import day2_by_hand

# compare() across all ten day-2 forms, row vs column. Certified against
# the raw in-context definition: every claimed direction respects outcomes
# in all day-2 contexts, and every denied one has a violating day-2 context
# (test_day2_order_equals_raw_in_context_definition re-derives this).
DAY2_ORDER = {
    "0": "= || || || || = > || < ||",
    "*": "|| = || > || || || < || ||",
    "{0|*}": "|| || = > || || || || < ||",
    "{0|0,*}": "|| < < = || || || < < <",
    "{*|0}": "|| || || || = || > < || ||",
    "{*|*}": "= || || || || = > || < ||",
    "{*|0,*}": "< || || || < < = < < <",
    "{0,*|0}": "|| > || > > || > = || >",
    "{0,*|*}": "> || > > || > > || = >",
    "*2": "|| || || > || || > < < =",
}


def test_day2_comparison_matrix(store):
    forms = day2_by_hand(store)
    names = list(forms)
    for a in names:
        row = DAY2_ORDER[a].split()
        for b, want in zip(names, row):
            assert str(compare(store, forms[a], forms[b])) == want, (a, b)


def test_day2_order_equals_raw_in_context_definition(store, day2):
    """geq must coincide with quantification over contexts.

    Claimed directions have to respect outcomes in every context; denied
    ones happen to all have a violating context already at day 2, so on
    this population the raw definition is decidable and must match exactly.
    """
    for g, h in itertools.product(day2, repeat=2):
        holds_everywhere = all(
            outcome_geq(outcome(store, store.sum(g, x)), outcome(store, store.sum(h, x)))
            for x in day2
        )
        assert geq(store, g, h) == holds_everywhere


def test_geq_outcome_proviso_reads_the_stored_wins(store, day2):
    """geq tests its outcome proviso on the first-mover results the store
    keeps: h wins moving first where g does not. That is exactly
    outcome_geq failing, on all 100 ordered day-2 pairs, which cover all
    four outcomes; and geq never holds where the proviso fails."""
    lw, rw = store._left_wins, store._right_wins
    assert {outcome(store, g) for g in day2} == set(Outcome)
    for g, h in itertools.product(day2, repeat=2):
        fails = lw[h] and not lw[g] or rw[g] and not rw[h]
        assert fails == (not outcome_geq(outcome(store, g), outcome(store, h)))
        if fails:
            assert not geq(store, g, h)


def test_pinned_comparisons(store):
    assert compare(store, store.star, store.zero) is OrderResult.CONFUSED
    assert compare(store, parse(store, "*+*"), store.zero) is OrderResult.EQ
    assert compare(store, parse(store, "{0,*|*}"), store.zero) is OrderResult.GT
    assert compare(store, parse(store, "{*|0,*}"), store.zero) is OrderResult.LT
    assert compare(store, store.nimber(2), store.star) is OrderResult.CONFUSED


def test_exactly_one_day2_form_is_strictly_positive(store, day2):
    positives = [g for g in day2 if compare(store, g, store.zero) is OrderResult.GT]
    assert positives == [parse(store, "{0,*|*}")]


def test_compare_is_antisymmetric_in_its_arguments(store, day2):
    flip = {
        OrderResult.GT: OrderResult.LT,
        OrderResult.LT: OrderResult.GT,
        OrderResult.EQ: OrderResult.EQ,
        OrderResult.CONFUSED: OrderResult.CONFUSED,
    }
    for g, h in itertools.product(day2, repeat=2):
        assert compare(store, g, h) is flip[compare(store, h, g)]


def test_conjugation_reverses_the_order(store, day2):
    for g, h in itertools.product(day2, repeat=2):
        assert geq(store, g, h) == geq(store, store.conjugate(h), store.conjugate(g))


def test_order_axioms_on_day2(store, day2):
    for g in day2:
        assert geq(store, g, g)
    for g, h, k in itertools.product(day2, repeat=3):
        if geq(store, g, h) and geq(store, h, k):
            assert geq(store, g, k)


def test_eq_is_geq_both_ways(store, day2):
    for g, h in itertools.product(day2, repeat=2):
        assert eq(store, g, h) == (geq(store, g, h) and geq(store, h, g))


def test_the_only_day2_equivalence_is_zero_with_star_of_star(store, day2):
    pairs = [
        (g, h)
        for g, h in itertools.combinations(day2, 2)
        if compare(store, g, h) is OrderResult.EQ
    ]
    assert pairs == [(store.zero, parse(store, "{*|*}"))]


def test_zero_specializations_agree_with_geq(store, day2, day3_big):
    for g in day2 + day3_big[:300]:
        assert geq_zero(store, g) == geq(store, g, store.zero)
        assert leq_zero(store, g) == geq(store, store.zero, g)


def test_pair_zero_test_agrees_with_geq_on_the_built_difference(store, day2):
    """_geq_zero decides a - b on the id pair (a, b); geq decides the
    interned sum a + conjugate(b) against 0. Checked on every day-2 pair,
    on 40 day-3 forms against each day-2 form both ways, and on the
    self-pairs of 300 day-3 forms: 1,200 pairs."""
    day3 = day3_sample(store, 300)
    pairs = list(itertools.product(day2, repeat=2))
    pairs += [p for g in day3[:40] for x in day2 for p in ((g, x), (x, g))]
    pairs += [(g, g) for g in day3]
    assert len(pairs) == 1200
    for a, b in pairs:
        difference = store.sum(a, store.conjugate(b))
        want = geq(store, difference, store.zero)
        assert _geq_zero(store, a, b) == want, (a, b)


def test_zero_test_stops_at_the_first_unanswered_left_option():
    """Every Right option of a is answered in a - b below, and then the
    first Left option of b that Left cannot answer decides False. Stopping
    there leaves 4 memo entries; going on through b's other Left options
    reaches the same verdict with 7, so the entry count pins the stop. The
    store is fresh, so its ``geq_zero`` table holds those entries alone."""
    store = Store()
    a = parse(store, "{*,{*|0,*}|{*|0,*}}")
    b = parse(store, "{0,*,{*|*},{0,*|0}|0}")
    assert not _geq_zero(store, a, b)
    assert len(store.geq_zero_memo) == 4


def test_no_move_from_a_self_difference_is_nonnegative(store, day2):
    """Left's moves from x - x, to xL - x and to x - xR, are never >= 0, so
    _left_answers returns False on a self-pair without a search. Decided by
    geq on the built sums, which runs no zero test, for every follower of
    day 2 and of 300 day-3 forms."""
    followers = set()
    for g in day2 + day3_sample(store, 300):
        followers.update(store.followers(g))
    moves = 0
    for x in sorted(followers):
        for xl in store.left(x):
            assert not geq(store, store.sum(xl, store.conjugate(x)), store.zero), (xl, x)
            moves += 1
        for xr in store.right(x):
            assert not geq(store, store.sum(x, store.conjugate(xr)), store.zero), (x, xr)
            moves += 1
    assert (len(followers), moves) == (310, 2901)


def test_leq_zero_is_geq_zero_of_the_conjugate(store, day2, day3_big, raw_forms):
    for g in day2 + day3_big[:2000] + raw_forms:
        assert leq_zero(store, g) == geq_zero(store, store.conjugate(g))


def test_eq_zero_pinned_values(store):
    assert eq_zero(store, parse(store, "*+*"))
    assert not eq_zero(store, parse(store, "*2+*2"))
    g = parse(store, "{0|*2}")
    pair = store.sum(g, store.conjugate(g))
    assert not eq_zero(store, pair)
    assert not geq(store, store.zero, pair)
    assert not eq_zero(store, store.star)


def test_positive_plus_nonnegative_stays_positive(store, day2):
    pairs = 0
    for g in day2:
        if compare(store, g, store.zero) is not OrderResult.GT:
            continue
        for h in day2:
            if not geq(store, h, store.zero):
                continue
            pairs += 1
            assert compare(store, store.sum(g, h), store.zero) is OrderResult.GT
    assert pairs > 0


def test_sum_is_monotone_on_day2(store, day2):
    for g, h in itertools.product(day2, repeat=2):
        if not geq(store, g, h):
            continue
        for x in day2:
            assert geq(store, store.sum(g, x), store.sum(h, x))


def test_order_result_str():
    assert str(OrderResult.GT) == ">"
    assert str(OrderResult.LT) == "<"
    assert str(OrderResult.EQ) == "="
    assert str(OrderResult.CONFUSED) == "||"
