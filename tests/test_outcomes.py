"""Outcome classification under the misere convention."""

import itertools

from dicots import (
    Outcome,
    Store,
    conjugate_outcome,
    left_wins_moving_first,
    outcome,
    outcome_geq,
    parse,
    right_wins_moving_first,
)
from dicots.outcomes import _wins

from _oracles import brute_outcome, brute_wins, day2_by_hand

# Derived with the brute minimax oracle and frozen.
DAY2_OUTCOMES = {
    "0": "N",
    "*": "P",
    "{0|*}": "R",
    "{0|0,*}": "R",
    "{*|0}": "L",
    "{*|*}": "N",
    "{*|0,*}": "N",
    "{0,*|0}": "L",
    "{0,*|*}": "N",
    "*2": "N",
}

# Pairs (a, b) with a at least as good for Left as b; everything else false.
OUTCOME_GEQ_TRUE = {
    ("L", "L"),
    ("L", "N"),
    ("L", "P"),
    ("L", "R"),
    ("N", "N"),
    ("N", "R"),
    ("P", "P"),
    ("P", "R"),
    ("R", "R"),
}


def test_player_without_a_move_wins(store):
    z = store.zero
    assert left_wins_moving_first(store, z)
    assert right_wins_moving_first(store, z)
    assert outcome(store, z) is Outcome.N


def test_star_is_a_previous_player_win(store):
    assert not left_wins_moving_first(store, store.star)
    assert not right_wins_moving_first(store, store.star)
    assert outcome(store, store.star) is Outcome.P


def test_day2_outcome_table(store):
    for text, g in day2_by_hand(store).items():
        assert outcome(store, g).value == DAY2_OUTCOMES[text], text


def test_outcome_agrees_with_moving_first_flags(store, day2, day3_big):
    table = {
        (True, True): Outcome.N,
        (True, False): Outcome.L,
        (False, True): Outcome.R,
        (False, False): Outcome.P,
    }
    for g in day2 + day3_big[:500]:
        lw = left_wins_moving_first(store, g)
        rw = right_wins_moving_first(store, g)
        assert outcome(store, g) is table[(lw, rw)]


def test_outcomes_match_brute_minimax(store, day2, day3_big, raw_forms):
    """Over enumerated forms, and sums and conjugates through the followers
    of raw_forms. The first-mover results fixed at interning also equal the
    pair solver's on (g, 0) and (0, g)."""
    forms = set(day2 + day3_big[:500])
    for g in raw_forms:
        forms.update(store.followers(g))
    memo = {}
    first = store.first_wins_memo
    z = store.zero
    for g in sorted(forms):
        assert outcome(store, g) is brute_outcome(store, g, memo)
        assert left_wins_moving_first(store, g) == _wins(store, first, g, z)
        assert right_wins_moving_first(store, g) == _wins(store, first, z, g)


def test_outcome_and_birthday_take_deep_forms():
    """Both are fixed when a form is interned, so a 5,000-deep chain needs
    no recursion. Along h = {h|h} the outcome alternates P (odd depth) and
    N (even depth); along h = {0|h} Left moving first must move to 0 and
    lose, while Right moving first wins from depth 1 on."""
    store = Store()
    z = store.zero
    sym = tail = z
    for _ in range(5000):
        sym = store.intern((sym,), (sym,))
        tail = store.intern((z,), (tail,))
    assert outcome(store, sym) is Outcome.N
    assert left_wins_moving_first(store, sym) and right_wins_moving_first(store, sym)
    assert outcome(store, tail) is Outcome.R
    assert not left_wins_moving_first(store, tail)
    assert right_wins_moving_first(store, tail)
    assert store.birthday(sym) == store.birthday(tail) == 5000


def test_pinned_sum_outcomes(store):
    assert outcome(store, parse(store, "*+*")) is Outcome.N
    assert outcome(store, parse(store, "*2+*2")) is Outcome.P
    g = parse(store, "{0|*2}")
    assert outcome(store, store.sum(g, store.conjugate(g))) is Outcome.N


def test_conjugate_outcome_mapping():
    assert conjugate_outcome(Outcome.L) is Outcome.R
    assert conjugate_outcome(Outcome.R) is Outcome.L
    assert conjugate_outcome(Outcome.N) is Outcome.N
    assert conjugate_outcome(Outcome.P) is Outcome.P


def test_conjugating_a_form_conjugates_its_outcome(store, day2, day3_big):
    for g in day2 + day3_big[:300]:
        assert outcome(store, store.conjugate(g)) is conjugate_outcome(outcome(store, g))


def test_self_pair_outcomes_never_favor_a_player(store, day2, day3_big):
    """g + conjugate(g) has a symmetric tree, so its outcome is N or P."""
    for g in day2 + day3_big[:300]:
        pair = store.sum(g, store.conjugate(g))
        assert outcome(store, pair) in (Outcome.N, Outcome.P)


def test_outcome_geq_truth_table():
    for a, b in itertools.product(Outcome, repeat=2):
        assert outcome_geq(a, b) == ((a.value, b.value) in OUTCOME_GEQ_TRUE)


def test_outcome_str():
    assert [str(o) for o in Outcome] == ["L", "N", "P", "R"]


def test_pair_wins_match_brute_minimax_on_the_built_difference(store, day2):
    """_wins decides a - b on the id pair; the brute minimax walks the
    interned sum a + conjugate(b)."""
    memo: dict = {}
    for a, b in itertools.product(day2, repeat=2):
        d = store.sum(a, store.conjugate(b))
        assert _wins(store, store.first_wins_memo, a, b) == brute_wins(store, d, True, memo)
        assert _wins(store, store.first_wins_memo, b, a) == brute_wins(store, d, False, memo)
