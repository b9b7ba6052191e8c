"""Invertibility: structural criterion, direct oracle, and the positivity lemma."""

import sys
import threading

import pytest

from dicots import (
    Outcome,
    PreconditionViolated,
    Store,
    canonical,
    eq,
    eq_zero,
    geq,
    inverse,
    is_invertible,
    left_wins_moving_first,
    lemma_check,
    lemma_witness,
    notation,
    oracle_invertible,
    outcome,
    parse,
    report_as_dict,
    right_wins_moving_first,
)

from dicots.order import _geq_zero
from dicots.outcomes import _outcome_of, _wins
from dicots.selftest import day2_population, day3_sample

from _oracles import brute_outcome, day2_by_hand, structure_key

# Every day-2 form except *2 is invertible (derived, inverse verified by
# summing back to an eq-0 form).
DAY2_INVERSES = {
    "0": "0",
    "*": "*",
    "{0|*}": "{*|0}",
    "{0|0,*}": "{0,*|0}",
    "{*|0}": "{0|*}",
    "{*|*}": "0",
    "{*|0,*}": "{0,*|*}",
    "{0,*|0}": "{0|0,*}",
    "{0,*|*}": "{*|0,*}",
}


def test_day2_invertibility(store):
    for text, g in day2_by_hand(store).items():
        report = is_invertible(store, g)
        if text == "*2":
            assert not report.verdict
            assert report.witness == store.nimber(2)
            assert inverse(store, g) is None
        else:
            assert report.verdict
            assert report.witness is None
            assert notation(store, inverse(store, g)) == DAY2_INVERSES[text]


def test_inverses_sum_to_an_eq_zero_form(store):
    for text, g in day2_by_hand(store).items():
        inv = inverse(store, g)
        if inv is not None:
            assert eq_zero(store, store.sum(g, inv))


def test_pinned_non_invertible_forms(store):
    g = parse(store, "{0|*2}")
    report = is_invertible(store, g)
    assert not report.verdict
    assert report.witness == store.nimber(2)
    assert not eq_zero(store, store.sum(g, store.conjugate(g)))
    assert outcome(store, store.sum(g, store.conjugate(g))) is Outcome.N

    # A non-invertible form with no *2 anywhere among its followers.
    h = parse(store, "{0,*|{*|0,*},{0|0,*}}")
    g2 = store.intern((store.zero,), (h,))
    assert store.nimber(2) not in store.followers(g2)
    report = is_invertible(store, g2)
    assert not report.verdict
    assert outcome(store, store.sum(g2, store.conjugate(g2))) is Outcome.N


def test_pinned_invertible_form_with_reduction(store):
    g = parse(store, "{0,*,*2|0}")
    report = is_invertible(store, g)
    assert report.verdict
    assert notation(store, report.canonical) == "{0,*|0}"
    assert notation(store, inverse(store, g)) == "{0|0,*}"


def test_report_fields(store):
    g = parse(store, "{0|*2}")
    report = is_invertible(store, g)
    assert report.input == g
    assert report.canonical == g
    followers = store.followers(g)
    assert tuple(report.follower_outcomes) == followers
    assert report.follower_outcomes[store.nimber(2)] is Outcome.P
    assert report.follower_outcomes[store.zero] is Outcome.N


def test_pair_outcomes_match_the_built_self_pairs(store, day2, day3_big):
    """The scan decides f + conjugate(f) on the id pair (f, f); here the sum
    is built, which also keeps sum and conjugate under test."""
    for g in day2 + day3_big[:2000]:
        built = outcome(store, store.sum(g, store.conjugate(g)))
        assert (Outcome.N if _wins(store, g, g) else Outcome.P) is built
        for f, o in is_invertible(store, g).follower_outcomes.items():
            assert o is outcome(store, store.sum(f, store.conjugate(f)))


def test_reports_do_not_share_the_memoized_scan():
    store = Store()
    g = parse(store, "{0|*2}")
    first = is_invertible(store, g)
    want = dict(first.follower_outcomes)
    first.follower_outcomes.clear()
    again = is_invertible(store, g)
    assert again.follower_outcomes == want
    again.follower_outcomes[store.zero] = Outcome.P
    # {0|*2} + 0 is the same value through another form.
    other = is_invertible(store, parse(store, "{0|*2}+{*|*}"))
    assert other.canonical == g
    assert other.follower_outcomes == want
    assert store.stats()["invert"] == 1


def _report_key(store, report, memo):
    def key(f):
        return None if f is None else structure_key(store, f, memo)

    return (
        key(report.input),
        key(report.canonical),
        report.verdict,
        key(report.witness),
        {key(f): o for f, o in report.follower_outcomes.items()},
    )


def test_concurrent_is_invertible_matches_a_single_thread():
    """Threads racing through is_invertible on one store, the switch
    interval forced tiny so they interleave inside the scan, get the
    reports a single-threaded store gives. Ids of forms interned while
    racing may differ from that store's, so reports are compared by the
    structure of their forms."""
    single = Store()
    want = [_report_key(single, is_invertible(single, g), {}) for g in day3_sample(single, 400)]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(5):
            store = Store()
            forms = day3_sample(store, 400)
            results: list = [None] * 4
            errors: list = []
            barrier = threading.Barrier(4, timeout=60)

            def work(slot: int) -> None:
                barrier.wait()
                try:
                    results[slot] = [is_invertible(store, g) for g in forms]
                except Exception as exc:  # reported below, with its type
                    errors.append(repr(exc))

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert all(r == results[0] for r in results)
            memo: dict = {}
            assert [_report_key(store, r, memo) for r in results[0]] == want
    finally:
        sys.setswitchinterval(interval)


def test_report_as_dict(store):
    d = report_as_dict(store, is_invertible(store, parse(store, "{0|*2}")))
    assert d["input"] == "{0|*2}"
    assert d["canonical"] == "{0|*2}"
    assert d["verdict"] is False
    assert d["witness"] == "*2"
    assert d["follower_outcomes"]["*2"] == "P"
    d = report_as_dict(store, is_invertible(store, store.star))
    assert d["verdict"] is True
    assert "witness" not in d


def test_structural_criterion_agrees_with_direct_oracle(store, day2, day3_big, raw_forms):
    """The oracle runs on each form as given, and on its canonical form."""
    for g in day2 + day3_big[:500] + raw_forms:
        verdict = is_invertible(store, g).verdict
        assert verdict == oracle_invertible(store, g)
        assert verdict == oracle_invertible(store, canonical(store, g))


def test_direct_oracle_agrees_with_general_geq_on_the_built_sum(store, day2, day3_big, raw_forms):
    """oracle_invertible builds nothing; here g + conjugate(g) is interned
    and compared with 0 by the general geq recursion both ways."""
    for g in day2 + day3_big[:2000] + raw_forms:
        pair = store.sum(g, store.conjugate(g))
        assert oracle_invertible(store, g) == eq(store, pair, store.zero)


def test_direct_oracle_interns_nothing():
    store = Store()
    g = parse(store, "{0,*,*2|0}+{0|*2}")
    before = (len(store), len(store.sum_memo), len(store.conjugate_memo))
    assert not oracle_invertible(store, g)
    assert (len(store), len(store.sum_memo), len(store.conjugate_memo)) == before


def test_only_the_conjugate_can_be_an_inverse():
    """g + conjugate(k), the difference g - k decided on the id pair (g, k),
    is 0 only when g = k, over every ordered pair of the distinct values of
    day 2 and a day-3 sample; and g - g is 0 exactly when g is invertible.
    So the conjugate is the only candidate inverse."""
    store = Store()
    forms = day2_population(store) + day3_sample(store, 300)
    values = sorted({canonical(store, g) for g in forms})
    zeros = [
        (g, k)
        for g in values
        for k in values
        if _geq_zero(store, g, k) and _geq_zero(store, k, g)
    ]
    assert len(values) == 174
    assert [(g, k) for g, k in zeros if g != k] == []
    assert len(zeros) == 87
    assert {g for g, _ in zeros} == {g for g in values if is_invertible(store, g).verdict}


def test_the_routes_share_only_the_win_solver():
    """Corrupting either route's own tables moves none of the other route's
    verdicts, over day 2 and a day-3 sample, so a fault in one route's
    kernel cannot hide behind the other. first_wins, the win solver's
    table, is the one table both routes fill."""
    store = Store()
    forms = day2_population(store) + day3_sample(store, 2000)
    structural = [is_invertible(store, g).verdict for g in forms]
    direct = [oracle_invertible(store, g) for g in forms]
    assert structural == direct
    # The oracle's zero tests flipped; the structural route starts afresh.
    for key, hit in store.geq_zero_memo.items():
        store.geq_zero_memo[key] = not hit
    for table in (
        store.canonical_memo,
        store.kept_memo,
        store.geq_memo,
        store.invert_memo,
        store.followers_memo,
    ):
        table.clear()
    assert [is_invertible(store, g).verdict for g in forms] == structural
    # The structural route's comparisons flipped and every form's canonical
    # form set to 0; the oracle starts afresh on the forms as given.
    for key, hit in store.geq_memo.items():
        store.geq_memo[key] = not hit
    for key in store.canonical_memo:
        store.canonical_memo[key] = store.zero
    store.geq_zero_memo.clear()
    assert [oracle_invertible(store, g) for g in forms] == direct
    filled = []
    for route in (is_invertible, oracle_invertible):
        fresh = Store()
        for g in day2_population(fresh):
            route(fresh, g)
        filled.append({name for name, size in fresh.stats().items() if size and name != "forms"})
    assert filled[0] & filled[1] == {"first_wins"}


def test_star2_follower_forces_non_invertibility(store, day2, day3_big):
    star2 = store.nimber(2)
    for g in day2 + day3_big[:500]:
        c = canonical(store, g)
        if star2 in store.followers(c):
            assert not is_invertible(store, g).verdict


def test_followers_of_invertible_forms_are_invertible(store, day2, day3_big):
    for g in day2 + day3_big[:300]:
        c = canonical(store, g)
        if is_invertible(store, c).verdict:
            for f in store.followers(c):
                assert is_invertible(store, f).verdict


def test_lemma_witness_none_exactly_when_pair_is_zero(store, day2):
    for h in day2:
        pair = store.sum(h, store.conjugate(h))
        w = lemma_witness(store, h)
        assert (w is None) == eq_zero(store, pair)


def test_lemma_witness_distinguishes_the_pair_from_zero(store, day2):
    for h in day2:
        w = lemma_witness(store, h)
        if w is None:
            continue
        pair = store.sum(h, store.conjugate(h))
        assert outcome(store, store.sum(pair, w)) is not outcome(store, w)


def test_witness_sums_built_match_the_pair_route(store, day2):
    """s + X, for s = h + conjugate(h) and X its witness, is checked by
    brute minimax on the built sum; the selftest decides it on the pair
    (s, conjugate(X)) instead, and both movers there agree with the
    first-mover results the store fixed when it interned the sum. The
    population is the selftest's: every day-2 h and its two birthday-3
    extras, {0|*2} and {0|H}."""
    extras = [parse(store, "{0|*2}"), parse(store, "{0|{0,*|{*|0,*},{0|0,*}}}")]
    brute: dict = {}
    nonzero = 0
    for h in day2 + extras:
        x = lemma_witness(store, h)
        if x is None:
            continue
        nonzero += 1
        s = store.sum(h, store.conjugate(h))
        built = store.sum(s, x)
        cx = store.conjugate(x)
        left_first, right_first = _wins(store, s, cx), _wins(store, cx, s)
        assert left_first == left_wins_moving_first(store, built), notation(store, h)
        assert right_first == right_wins_moving_first(store, built), notation(store, h)
        assert _outcome_of(left_first, right_first) is brute_outcome(store, built, brute)
    assert nonzero == 3  # *2 and both extras


def test_lemma_witness_pinned_cases(store):
    assert lemma_witness(store, store.star) is None
    assert lemma_witness(store, store.nimber(2)) == store.star
    w = lemma_witness(store, parse(store, "{0|*2}"))
    assert w is not None and w != store.star


def test_lemma_check_requires_strict_positivity(store):
    with pytest.raises(PreconditionViolated):
        lemma_check(store, store.star, store.star)
    with pytest.raises(PreconditionViolated):
        lemma_check(store, parse(store, "{*|0,*}"), store.zero)


def test_lemma_check_on_the_positive_day2_form(store, day2):
    g = parse(store, "{0,*|*}")
    for h in day2:
        assert lemma_check(store, g, h)


def test_deep_chains_stay_within_the_recursion_limit():
    # g = {...{{0|0}|0}...|0}, 300 deep, interned directly because the
    # parser recurses once per nesting level on its own. Every chain is
    # canonical and invertible (checked by both routes up to depth 12).
    store = Store()
    g = store.zero
    for _ in range(300):
        g = store.intern((g,), (store.zero,))
    assert oracle_invertible(store, g) is True
    assert geq(store, g, g) is True
