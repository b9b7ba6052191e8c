"""Interning store, structural operations, notation, and enumeration."""

import hashlib
import itertools
import threading

import pytest

import dicots
from dicots import (
    BoundExceeded,
    DicotViolation,
    NIMBER_CAP,
    ParseError,
    Store,
    UnknownId,
    canonical,
    enumerate_dicots,
    explain,
    is_invertible,
    notation,
    oracle_invertible,
    outcome,
    parse,
)
from dicots.forms import MEMO_TABLES
from dicots.selftest import day2_population, day3_sample

from _oracles import day2_by_hand

DAY2_NOTATIONS = [
    "0",
    "*",
    "{0|*}",
    "{0|0,*}",
    "{*|0}",
    "{*|*}",
    "{*|0,*}",
    "{0,*|0}",
    "{0,*|*}",
    "*2",
]


def test_zero_and_star_are_preinterned(store):
    assert store.zero == 0
    assert store.star == 1
    assert store.left(store.zero) == ()
    assert store.left(store.star) == (store.zero,)
    assert store.right(store.star) == (store.zero,)


def test_intern_sorts_and_dedupes(store):
    z, s = store.zero, store.star
    a = store.intern((s, z, z), (z,))
    b = store.intern([z, s], [z])
    assert a == b
    assert store.left(a) == (z, s)
    assert store.right(a) == (z,)


def test_identical_structure_means_identical_id(store):
    assert parse(store, "{0,*|0}") == parse(store, "{*,0|0}")
    assert parse(store, "{0|*}") != parse(store, "{*|0}")


def test_one_sided_forms_are_rejected(store):
    with pytest.raises(DicotViolation):
        store.intern((store.zero,), ())
    with pytest.raises(DicotViolation):
        parse(store, "{0|}")
    with pytest.raises(DicotViolation):
        parse(store, "{|0,*}")


def test_unknown_ids_are_rejected(store):
    with pytest.raises(UnknownId):
        store.intern((10**9,), (store.zero,))
    with pytest.raises(UnknownId):
        store.left(10**9)
    with pytest.raises(UnknownId):
        store.right(-1)


def test_public_intern_keeps_its_checks_on_a_busy_store():
    store = Store()
    is_invertible(store, parse(store, "{0,*,*2|0}+{0|*2}"))
    n = len(store)
    for bad in (10**9, n, -1, "0", None, True, False):
        with pytest.raises(UnknownId):
            store.intern((bad,), (store.zero,))
    with pytest.raises(UnknownId):
        store.intern((store.zero, "0"), (store.zero,))
    with pytest.raises(DicotViolation):
        store.intern((store.zero,), ())
    with pytest.raises(DicotViolation):
        store.intern((), (store.star,))
    assert len(store) == n
    store.validate()


# Public functions that take form ids, with the number of ids each takes.
ID_TAKERS = {
    "outcome": 1,
    "left_wins_moving_first": 1,
    "right_wins_moving_first": 1,
    "geq": 2,
    "geq_zero": 1,
    "leq_zero": 1,
    "eq_zero": 1,
    "eq": 2,
    "compare": 2,
    "canonical": 1,
    "is_canonical": 1,
    "explain": 1,
    "is_invertible": 1,
    "inverse": 1,
    "oracle_invertible": 1,
    "lemma_witness": 1,
    "lemma_check": 2,
    "notation": 1,
    "reduce_once": 1,
}


def test_public_functions_refuse_unknown_ids():
    """-1 would index from the end, len(store) past it, and True hashes as
    the id 1; each is refused before any table is touched."""
    store = Store()
    g = parse(store, "{0,*|*}")  # strictly positive, as lemma_check needs
    before = store.stats()
    for name, arity in ID_TAKERS.items():
        fn = getattr(dicots, name)
        for bad in (-1, len(store), True):
            for pos in range(arity):
                args = [g] * arity
                args[pos] = bad
                with pytest.raises(UnknownId):
                    fn(store, *args)
    assert store.stats() == before


# Memo tables the benchmark reads by name through Store.cache.
BENCH_TABLES = ("sum", "conjugate", "followers", "first_wins", "geq", "canonical", "canonical_steps")


def test_cache_returns_the_attribute_tables():
    store = Store()
    tables = {name: store.cache(name) for name in MEMO_TABLES}
    # The parser builds the sum and the conjugate; is_invertible fills the
    # rest but the traces, which only explain records.
    g = parse(store, "{0,*,*2|0}+-{0|*2}")
    is_invertible(store, g)
    explain(store, g)
    for name in MEMO_TABLES:
        assert store.cache(name) is tables[name] is getattr(store, f"{name}_memo")
    assert set(BENCH_TABLES) <= set(MEMO_TABLES)
    assert all(store.cache(name) for name in BENCH_TABLES)
    with pytest.raises(KeyError):
        store.cache("no-such-table")


def test_memo_tables_are_exactly_the_memo_attributes():
    """stats() and --stats report MEMO_TABLES, so every ``*_memo``
    attribute a store sets must be named there, and every name must have
    its attribute."""
    attrs = {name.removesuffix("_memo") for name in vars(Store()) if name.endswith("_memo")}
    assert attrs == set(MEMO_TABLES)
    assert len(MEMO_TABLES) == len(set(MEMO_TABLES))


def test_stats_counts_forms_and_every_memo_table():
    store = Store()
    assert store.stats() == {"forms": 2, **dict.fromkeys(MEMO_TABLES, 0)}
    g = parse(store, "{0,*,*2|0}")
    report = is_invertible(store, g)
    stats = store.stats()
    assert list(stats) == ["forms", *MEMO_TABLES]
    assert stats["forms"] == len(store)
    for name in MEMO_TABLES:
        assert stats[name] == len(store.cache(name))
    # Deterministic work: g's four followers canonicalised, and the form
    # {0,*|0} left after domination stored as its own canonical form; one
    # follower scan over that form, no self-pair interned, and no trace
    # recorded until explain asks for one per follower.
    assert stats["canonical"] == len(store.followers(g)) + 1 == 5
    assert store.canonical_memo[report.canonical] == report.canonical
    assert stats["canonical_steps"] == 0
    assert stats["invert"] == 1
    assert stats["sum"] == stats["conjugate"] == 0
    # Another form of the same value reuses the scan.
    assert is_invertible(store, report.canonical).follower_outcomes == report.follower_outcomes
    assert store.stats()["invert"] == 1
    # explain records one trace per follower.
    explain(store, g)
    assert store.stats()["canonical_steps"] == 4


# Store.stats() after the slice in test_work_counts_are_pinned. A memo miss
# inserts one entry, so these are the work the kernels do; the search order
# of the win solver, the zero tests, geq and the reversal scans fixes them.
# A change to any of those orders must explain its diff here. Birthdays and
# outcomes are fixed at interning and fill no table, so first_wins holds only
# the pairs the zero tests and the invertibility scan ask about. The follower
# scan interns no self-pair sums (sum and conjugate stay empty) and runs
# once per canonical form (invert); canonical walks followers without the
# followers table, which memoizes only the form asked for, so followers
# holds just the canonical forms the scan walked.
# canonical interns no form per rewrite step and records no trace
# (canonical_steps stays empty until explain). Its fixpoint runs the
# reversal scan once per post-domination form and stores that form's
# canonical form in canonical, beside the followers' entries. Its domination
# scan runs once per canonical option tuple and side; kept also maps each
# raw tuple that canonicalises to another onto that tuple's entry.
# canonical's reversal scan compares with 0 through geq, as its domination
# and replacement tests do, so geq_zero holds only the oracle's pairs and
# first_wins only the pairs the oracle and the follower scan ask about. The
# win solver reads a pair with 0 on either side from the first-mover results
# fixed at interning, so first_wins holds no endgame pair. The zero test
# tries the mirror answer (y, y) or (x, x) first, a self-pair that many
# forms share, then the answers that move on the pair's newer form, and
# tests Left's first-mover win on a pair only after Right's threats are
# answered. The day-3 sampler stops at its 300th form, so the rest of its
# 60-form overdraw is never interned: forms counts day 2, the 300 sampled
# forms and what the kernels build.
PINNED_SLICE_STATS = {
    "forms": 556,
    "sum": 0,
    "conjugate": 0,
    "followers": 174,
    "adjoint": 0,
    "first_wins": 2009,
    "geq": 829,
    "geq_zero": 520,
    "canonical": 556,
    "canonical_steps": 0,
    "kept": 698,
    "invert": 174,
}


def test_work_counts_are_pinned():
    store = Store()
    for g in day2_population(store) + day3_sample(store, 300):
        outcome(store, g)
        canonical(store, g)
        is_invertible(store, g)
        oracle_invertible(store, g)
    assert store.stats() == PINNED_SLICE_STATS
    assert not [key for key in store.first_wins_memo if 0 in key]


def _chain(store, depth):
    """The chain {...{{0|0}|0}...|0} of the given depth; with a fresh store
    it is the whole store, its first link being * (id 1)."""
    g = store.zero
    for _ in range(depth):
        g = store.intern((g,), (store.zero,))
    return g


def test_followers_and_birthday_take_deep_forms():
    """Both walk a 5,000-deep chain without recursing. followers memoizes
    only the form asked for, so its memory is the answer's size, not the
    sum of every link's follower set."""
    store = Store()
    g = _chain(store, 5000)
    assert store.birthday(g) == 5000
    assert store.followers(g) == tuple(range(len(store)))
    assert len(store.followers_memo) == 1


def test_notation_takes_deep_forms():
    """notation walks a 5,000-deep chain without recursing."""
    store = Store()
    text = notation(store, _chain(store, 5000))
    assert text == "{" * 4999 + "*" + "|0}" * 4999
    assert len(text) == 19997


def test_conjugate_and_adjoint_take_deep_forms():
    """Both walk a 5,000-deep chain without recursing. Its conjugate is the
    mirrored chain {0|{0|...{0|0}...}}, interned beforehand, and conjugating
    that again, with the memo emptied, gives the chain back. The adjoint of
    the endgame is *, and each link {h|0} has adjoint {*|adjoint(h)}."""
    store = Store()
    g = _chain(store, 5000)
    mirror = store.zero
    for _ in range(5000):
        mirror = store.intern((store.zero,), (mirror,))
    assert store.conjugate(g) == mirror
    store.conjugate_memo.clear()
    assert store.conjugate(mirror) == g
    a = store.adjoint(g)
    assert store.birthday(a) == 5001
    for _ in range(5000):
        assert store.left(a) == (store.star,)
        (a,) = store.right(a)
    assert a == store.star


def _recursive(store, memo, g, op):
    """Reference recursion for conjugate ("conjugate") and adjoint, straight
    from the definitions."""
    if g not in memo:
        rs = [_recursive(store, memo, x, op) for x in store.right(g)]
        ls = [_recursive(store, memo, x, op) for x in store.left(g)]
        if op == "conjugate":
            memo[g] = store.intern(rs, ls)
            memo[memo[g]] = g
        else:
            memo[g] = store.intern(rs, ls) if ls else store.star
    return memo[g]


def _walk_population(store):
    """Sums of day-3 forms, youngest first, then day 2 and 300 sampled
    day-3 forms. The sums' followers are sums whose conjugates, adjoints
    and canonical forms are new forms, several per call."""
    forms = day2_population(store) + day3_sample(store, 300)
    return [store.sum(g, h) for g, h in zip(forms[10:60], forms[11:61])][::-1] + forms


@pytest.mark.parametrize("op", ["conjugate", "adjoint"])
def test_conjugate_and_adjoint_agree_with_a_recursion(op):
    """In one store the walk and the recursion give every form the same
    id, and the store hash-conses, so the same id is the same form."""
    store = Store()
    memo: dict = {}
    for g in _walk_population(store):
        assert getattr(store, op)(g) == _recursive(store, memo, g, op)


@pytest.mark.parametrize("op", ["conjugate", "adjoint", "canonical"])
def test_unbuilt_lists_the_followers_without_an_entry(op):
    """Each table is closed under followers, so the forms a miss walks are
    exactly g's followers without an entry, in ascending id order."""
    store = Store()
    memo = getattr(store, f"{op}_memo")
    build = {
        "conjugate": store.conjugate,
        "adjoint": store.adjoint,
        "canonical": lambda g: canonical(store, g),
    }[op]
    for g in _walk_population(store):
        if g not in memo:
            assert store._unbuilt(memo, g) == [f for f in store.followers(g) if f not in memo]
        build(g)


def test_canonical_walks_without_the_followers_table():
    store = Store()
    canonical(store, parse(store, "{0,*,*2|0}+{0|*2}"))
    assert store.stats()["followers"] == 0


def test_conjugate_swaps_players_and_is_an_involution(store, day2):
    g = parse(store, "{0|*2}")
    assert notation(store, store.conjugate(g)) == "{*2|0}"
    for h in day2:
        assert store.conjugate(store.conjugate(h)) == h
    # nimbers are their own conjugates
    for n in range(5):
        assert store.conjugate(store.nimber(n)) == store.nimber(n)


def test_sum_with_zero_is_identity(store, day2):
    for g in day2:
        assert store.sum(store.zero, g) == g
        assert store.sum(g, store.zero) == g


def test_sum_is_commutative_and_associative_on_forms(store, day2):
    for g, h in itertools.combinations(day2, 2):
        assert store.sum(g, h) == store.sum(h, g)
    for g, h, k in itertools.product(day2[:5], repeat=3):
        assert store.sum(store.sum(g, h), k) == store.sum(g, store.sum(h, k))


def test_star_plus_star_is_star_of_star(store):
    assert store.sum(store.star, store.star) == parse(store, "{*|*}")


def test_conjugate_distributes_over_sum(store, day2):
    for g, h in itertools.combinations(day2, 2):
        assert store.conjugate(store.sum(g, h)) == store.sum(
            store.conjugate(g), store.conjugate(h)
        )


def test_adjoint_structural_values(store):
    assert store.adjoint(store.zero) == store.star
    assert notation(store, store.adjoint(store.star)) == "{*|*}"
    assert notation(store, store.adjoint(store.nimber(2))) == "{*,{*|*}|*,{*|*}}"


def test_birthday(store):
    assert store.birthday(store.zero) == 0
    assert store.birthday(store.star) == 1
    assert store.birthday(store.nimber(2)) == 2
    assert store.birthday(parse(store, "{0|*2}")) == 3
    assert store.birthday(parse(store, "{0|*2}+*")) == 4


def test_followers_include_the_form_itself(store):
    g = parse(store, "{0|*2}")
    assert store.followers(g) == (store.zero, store.star, store.nimber(2), g)
    assert store.followers(store.zero) == (store.zero,)


def test_nimbers(store):
    assert store.nimber(0) == store.zero
    assert store.nimber(1) == store.star
    assert store.nimber(2) == parse(store, "*2")
    assert notation(store, store.nimber(5)) == "*5"
    assert store.nimber_index(store.zero) == 0
    assert store.nimber_index(store.star) == 1
    assert store.nimber_index(parse(store, "{0,*|0}")) is None
    with pytest.raises(ValueError):
        store.nimber(-1)


def test_notation_does_not_grow_the_store():
    # Symmetric forms whose options are not the nimbers *0..*(n-1): printing
    # them must not intern *n to find out.
    for text in (
        "{0,{0|*}|0,{0|*}}",
        "{0,*,{0|*},{*|0},{0|0,*},{*|0,*},{0,*|0}|0,*,{0|*},{*|0},{0|0,*},{*|0,*},{0,*|0}}",
    ):
        store = Store()
        g = parse(store, text)
        n = len(store)
        assert notation(store, g) == text
        assert len(store) == n


def test_nimber_above_cap_prints_as_braces_and_round_trips(store):
    big = store.nimber(NIMBER_CAP + 1)
    text = notation(store, big)
    assert text.startswith("{")
    assert parse(store, text) == big


def test_parse_rejects_nimber_misuse(store):
    with pytest.raises(ParseError) as err:
        parse(store, "*0")
    assert err.value.position == 1
    with pytest.raises(ParseError) as err:
        parse(store, f"*{NIMBER_CAP + 1}")
    assert err.value.position == 1
    assert str(NIMBER_CAP) in str(err.value)


def test_parse_error_positions(store):
    with pytest.raises(ParseError) as err:
        parse(store, "")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse(store, "0*")
    assert err.value.position == 1
    with pytest.raises(ParseError) as err:
        parse(store, "{0,|*}")
    assert err.value.position == 3
    # A closed option list must be followed by its separator or closer.
    for text, closer, position in (("{0}", "|", 2), ("{0|0", "}", 4)):
        with pytest.raises(ParseError) as err:
            parse(store, text)
        assert err.value.position == position, text
        assert str(err.value).startswith(f"expected '{closer}'"), text
    # Only ASCII digits make a nimber index; * then a superscript or
    # Arabic-Indic digit is * with trailing input.
    for text in ("*\u00b2", "*\u0663"):
        with pytest.raises(ParseError) as err:
            parse(store, text)
        assert err.value.position == 1, text


def test_parse_expressions(store):
    assert parse(store, "{|}") == store.zero
    assert parse(store, "*+*") == parse(store, "{*|*}")
    assert parse(store, "{ 0 , * | * }") == parse(store, "{0,*|*}")
    g = parse(store, "{0|*2}")
    assert parse(store, "-{0|*2}") == store.conjugate(g)
    assert parse(store, "{0|*2}+-{0|*2}") == store.sum(g, store.conjugate(g))


def test_brace_lists_accept_full_expressions(store):
    assert parse(store, "{*+*|0}") == store.intern((parse(store, "{*|*}"),), (store.zero,))
    assert parse(store, "{-{0|*}|0,*+*2}") == store.intern(
        (parse(store, "{*|0}"),), (store.zero, store.sum(store.star, store.nimber(2)))
    )


def test_sum_star_with_star2_expands_per_the_definition(store):
    opts = (store.star, store.nimber(2), parse(store, "{*|*}"))
    assert store.sum(store.star, store.nimber(2)) == store.intern(opts, opts)


def test_notation_round_trips(store, day2, day3_big):
    for g in day2 + day3_big[:300]:
        assert parse(store, notation(store, g)) == g


def test_enumeration_small_days(store, day2):
    assert [notation(store, g) for g in enumerate_dicots(store, 0)] == ["0"]
    assert [notation(store, g) for g in enumerate_dicots(store, 1)] == ["0", "*"]
    assert [notation(store, g) for g in day2] == DAY2_NOTATIONS


def test_day2_matches_hand_construction(store, day2):
    by_hand = day2_by_hand(store)
    assert list(by_hand.values()) == day2
    for text, g in by_hand.items():
        assert notation(store, g) == text


def test_enumeration_is_deterministic_across_stores():
    a, b = Store(), Store()
    run_a = [notation(a, g) for g in enumerate_dicots(a, 3, limit=200)]
    run_b = [notation(b, g) for g in enumerate_dicots(b, 3, limit=200)]
    assert run_a == run_b
    assert len(set(run_a)) == 200


def _notation_digest(store, forms) -> str:
    return hashlib.sha256("\n".join(notation(store, g) for g in forms).encode()).hexdigest()


def test_populations_are_pinned_across_machines():
    """README: two runs, or two machines, see the same forms in the same
    order. Pinned as the sha256 of the printed populations, one per line."""
    s = Store()
    assert _notation_digest(s, day2_population(s)) == (
        "21f1f7382c2d4a49dc4aa52954b4b383ba632ec4dccee2ceeb676dd2a342913b"
    )
    s = Store()
    assert _notation_digest(s, day3_sample(s, 300)) == (
        "d3d26078a8d655babcd08d3f1212b445147c5aee01b0474c16e286a0c90d97e2"
    )
    # The full day-3 order; positions from 3,070 on pair left masks above
    # the older forms' with every right mask.
    s = Store()
    assert _notation_digest(s, itertools.islice(enumerate_dicots(s, 3), 5000)) == (
        "0cac1718aa7c6c2fc89b307211702f017edcd490760bdd89fc92000e16ad894d"
    )


def test_sampling_with_plentiful_limit_is_full_enumeration(store, day2):
    assert list(enumerate_dicots(store, 2, limit=10)) == day2
    assert list(enumerate_dicots(store, 2, limit=10**6)) == day2


def test_sample_is_a_subsequence_of_the_full_order(store, day2):
    sampled = list(enumerate_dicots(store, 2, limit=6))
    positions = [day2.index(g) for g in sampled]
    assert positions == sorted(positions)
    assert len(set(sampled)) == 6
    # Day 3, drawn as day3_sample(10_000) draws, against a prefix of the
    # full order in the same store.
    s = Store()
    prefix = {g: i for i, g in enumerate(itertools.islice(enumerate_dicots(s, 3), 20_000))}
    positions = [prefix[g] for g in enumerate_dicots(s, 3, limit=10_060) if g in prefix]
    assert len(positions) == 185
    assert positions == sorted(positions)


def test_seed_changes_the_sample():
    a, b = Store(), Store()
    run_a = {notation(a, g) for g in enumerate_dicots(a, 3, limit=50, seed=1)}
    run_b = {notation(b, g) for g in enumerate_dicots(b, 3, limit=50, seed=2)}
    assert run_a != run_b


def test_enumeration_respects_birthdays(store):
    for g in enumerate_dicots(store, 3, limit=500):
        assert store.birthday(g) <= 3


def test_enumeration_bounds(store):
    with pytest.raises(ValueError):
        list(enumerate_dicots(store, -1))
    with pytest.raises(BoundExceeded):
        list(enumerate_dicots(store, 4))
    with pytest.raises(BoundExceeded):
        list(enumerate_dicots(store, 4, limit=5))
    with pytest.raises(BoundExceeded):
        list(enumerate_dicots(store, 0, limit=-1))
    with pytest.raises(BoundExceeded):
        list(enumerate_dicots(store, 3, limit=-1))
    assert list(enumerate_dicots(store, 0, limit=0)) == []


def test_concurrent_interning_is_consistent():
    store = Store()
    texts = DAY2_NOTATIONS * 20
    results: list[list[int]] = [[] for _ in range(8)]
    barrier = threading.Barrier(8)

    def work(slot: int) -> None:
        barrier.wait()
        results[slot] = [parse(store, t) for t in texts]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    store.validate()


def test_validate_accepts_a_busy_store():
    store = Store()
    list(enumerate_dicots(store, 2))
    parse(store, "{0|{0,*|*}}+*3")
    store.validate()


@pytest.mark.parametrize("facts", ["_birthdays", "_left_wins", "_right_wins"])
def test_validate_rejects_a_fact_the_options_do_not_give(facts):
    store = Store()
    g = parse(store, "{0|{0,*|*}}+*3")
    damaged = getattr(store, facts)
    if facts == "_birthdays":
        damaged[g] += 1
    else:
        damaged[g] = not damaged[g]
    with pytest.raises(ValueError, match=f"form {g} has a wrong birthday or outcome"):
        store.validate()


@pytest.mark.parametrize(
    "table, options, error, message",
    [
        ("_rights", lambda g: (), DicotViolation, "is one-sided"),
        ("_lefts", lambda g: (0, g), ValueError, "has an option .* not older than itself"),
        ("_rights", lambda g: (1, 0), ValueError, "has unsorted or duplicated options"),
        ("_lefts", lambda g: (0, 0), ValueError, "has unsorted or duplicated options"),
    ],
    ids=["one-sided", "option-not-older", "unsorted", "duplicated"],
)
def test_validate_rejects_damaged_options(table, options, error, message):
    store = Store()
    g = parse(store, "{0,*|0,*}")
    getattr(store, table)[g] = options(g)
    with pytest.raises(error, match=f"form {g} {message}"):
        store.validate()
