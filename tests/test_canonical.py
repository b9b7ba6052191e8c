"""Reduction to canonical form and the reduction traces."""

import itertools
import sys
import threading

from dicots import (
    ENUMERATION_SEED,
    Store,
    StepKind,
    canonical,
    enumerate_dicots,
    eq,
    explain,
    is_canonical,
    is_invertible,
    notation,
    parse,
    reduce_once,
    step_as_dict,
)
from dicots.canonical import _drops, _reverse
from dicots.selftest import day2_population, day3_sample

from _oracles import assert_replay_reaches_canonical, day2_by_hand

# The module, which the package's canonical function shadows as an attribute.
canonical_module = sys.modules["dicots.canonical"]

# Identity except for {*|*}, which collapses to 0.
DAY2_CANONICAL = {
    "0": "0",
    "*": "*",
    "{0|*}": "{0|*}",
    "{0|0,*}": "{0|0,*}",
    "{*|0}": "{*|0}",
    "{*|*}": "0",
    "{*|0,*}": "{*|0,*}",
    "{0,*|0}": "{0,*|0}",
    "{0,*|*}": "{0,*|*}",
    "*2": "*2",
}

# (input, kind fired by reduce_once, result). One pinned case per rewrite
# kind, each small enough to check by hand against the side conditions.
PINNED_STEPS = [
    ("{0,{0,*|*}|0}", "DominationL", "{{0,*|*}|0}"),
    ("{0|0,{*|0,*}}", "DominationR", "{0|{*|0,*}}"),
    ("{0,*,*2|0}", "NonAtomicReverseL", "{0,*|0}"),
    ("{0|*,{*|0,*}}", "NonAtomicReverseR", "{0|0,*}"),
    ("{0,{0|0,*},{*|0}|{0|0,*}}", "AtomicReverseDropL", "{0,{*|0}|{0|0,*}}"),
    ("{0,{*|0}|{0|0,*}}", "AtomicReverseStarL", "{0,*|{0|0,*}}"),
    ("{*|*,{0|*},{*|0,*}}", "AtomicReverseDropR", "{*|{0|*},{*|0,*}}"),
    ("{*|0,{0|0,*}}", "AtomicReverseStarR", "{*|0,*}"),
    ("{*|*}", "Substitution", "0"),
]


def test_day2_canonical_map(store):
    for text, g in day2_by_hand(store).items():
        assert notation(store, canonical(store, g)) == DAY2_CANONICAL[text]


def test_is_canonical_on_day2(store):
    for text, g in day2_by_hand(store).items():
        assert is_canonical(store, g) == (text != "{*|*}")


def test_pinned_single_step_reductions():
    # reduce_once tries candidates in id order, so which rewrite fires first
    # depends on interning history: pin it on a store of its own with the
    # day-2 population interned first. Compared by parsed form, not by
    # notation text, which orders options by id for the same reason.
    store = Store()
    day2_population(store)
    for text, kind, after in PINNED_STEPS:
        g = parse(store, text)
        hit = reduce_once(store, g)
        assert hit is not None, text
        h, step = hit
        assert step.kind.value == kind, text
        assert step.before == g
        assert step.after == h
        assert h == parse(store, after), text


def test_every_step_kind_is_pinned():
    assert {k for _, k, _ in PINNED_STEPS} == {k.value for k in StepKind}


def test_reduce_once_returns_none_on_canonical_forms(store):
    for text in ["{0|*2}", "{0,*|{*|0,*},{0|0,*}}", "{0,*|0}", "*3"]:
        assert reduce_once(store, parse(store, text)) is None


def test_reduce_once_preserves_value_even_with_raw_options(store, day3_big):
    """A single root rewrite is sound on its own, canonical options or not."""
    g = parse(store, "{{*|*}|{*|*}}")
    hit = reduce_once(store, g)
    assert hit is not None
    assert eq(store, g, hit[0])
    fired = 0
    for g in day3_big[:150]:
        hit = reduce_once(store, g)
        if hit is not None:
            fired += 1
            assert eq(store, g, hit[0])
    assert fired > 0


def test_reduce_once_ignores_the_fixpoint_memos():
    """The canonical and kept memos belong to canonical's fixpoint loop,
    where every proper follower is canonical; the public reduce_once neither
    reads nor fills them. The second form starts with a domination step."""
    for text in ("{{*|*}|{*|*}}", "{0,{0,*|*}|0}"):
        store = Store()
        g = parse(store, text)
        hit = reduce_once(store, g)
        assert hit is not None
        assert store.canonical_memo == store.kept_memo == {}
        # Memo entries claiming g is its own canonical form and that
        # domination keeps every option.
        store.canonical_memo[g] = g
        store.kept_memo[(store.left(g), True)] = store.left(g)
        assert reduce_once(store, g) == hit
        assert eq(store, g, hit[0])


def test_pinned_traces(store):
    g = parse(store, "{0,{0,*|*}|0}")
    steps = [(s.kind.value, notation(store, s.after)) for s in explain(store, g)]
    assert steps == [
        ("DominationL", "{{0,*|*}|0}"),
        ("NonAtomicReverseL", "*"),
    ]
    assert notation(store, canonical(store, g)) == "*"

    g = parse(store, "{{*|*}|{*|*}}")
    steps = [(s.kind.value, notation(store, s.before), notation(store, s.after)) for s in explain(store, g)]
    assert steps == [("Substitution", "{*|*}", "0")]
    assert notation(store, canonical(store, g)) == "*"

    assert explain(store, parse(store, "{0|*2}")) == []


def test_canonical_is_idempotent(store, day2, day3_big):
    for g in day2 + day3_big[:300]:
        c = canonical(store, g)
        assert canonical(store, c) == c
        assert is_canonical(store, c)


def test_canonical_preserves_value(store, day2, day3_big):
    for g in day2 + day3_big[:200]:
        assert eq(store, g, canonical(store, g))


def test_canonical_never_grows_the_birthday(store, day2, day3_big):
    for g in day2 + day3_big[:300]:
        assert store.birthday(canonical(store, g)) <= store.birthday(g)


def test_equivalent_forms_share_a_canonical_form(store, day2, day3_big):
    for g, h in itertools.combinations(day2, 2):
        assert (canonical(store, g) == canonical(store, h)) == eq(store, g, h)
    for g, h in itertools.combinations(day3_big[:40], 2):
        assert (canonical(store, g) == canonical(store, h)) == eq(store, g, h)


def test_followers_of_a_canonical_form_are_canonical(store, day3_big):
    for g in day3_big[:100]:
        for f in store.followers(canonical(store, g)):
            assert is_canonical(store, f)


def test_trace_replay_reaches_the_canonical_form(store, day2, day3_big):
    for g in day2 + day3_big[:150]:
        states = assert_replay_reaches_canonical(store, g)
        for a, b in zip(states, states[1:]):
            assert eq(store, a, b)


def test_explain_replays_each_follower_to_its_canonical_form(store, day2, day3_big):
    """Every follower's recorded steps form one chain from the form with its
    canonicalised options to the form canonical reached without them."""
    for g in day2 + day3_big[:2000]:
        explain(store, g)
        for f in store.followers(g):
            h = store.intern(
                [canonical(store, x) for x in store.left(f)],
                [canonical(store, x) for x in store.right(f)],
            )
            for step in store.canonical_steps_memo[f]:
                assert step.before == h
                h = step.after
            assert h == canonical(store, f)


def test_explain_records_the_steps_reduce_once_takes(store, day2, day3_big, raw_forms):
    """Each follower's recorded trace is the one reduce_once takes, one step
    at a time, from the form with its canonicalised options until nothing
    fires, so explain follows the public single-step rule; and its last
    step lands on the form canonical's batched fixpoint reached."""
    for g in day2 + day3_big[:2000] + raw_forms:
        explain(store, g)
        for f in store.followers(g):
            h = store.intern(
                [canonical(store, x) for x in store.left(f)],
                [canonical(store, x) for x in store.right(f)],
            )
            want = []
            while (hit := reduce_once(store, h)) is not None:
                h, step = hit
                want.append((step.kind, step.before, step.after))
            got = [(s.kind, s.before, s.after) for s in store.canonical_steps_memo[f]]
            assert got == want, notation(store, f)
            assert h == canonical(store, f)


def test_only_star_star_collapses_to_zero(store, day2, day3_big, raw_forms):
    """The collapse to 0 fires at {*|*} alone: on any other form whose lone
    options reverse through the endgame, the endgame rewrite fires first.
    Checked on every form of these traces and every follower of the inputs."""
    forms = set()
    for g in day2 + day3_big[:2000] + raw_forms:
        forms.update(store.followers(g))
        for step in explain(store, g):
            forms.update((step.before, step.after))
    star_star = parse(store, "{*|*}")
    assert star_star in forms
    for f in forms:
        hit = _reverse(store, f)
        collapses = hit is not None and hit[1] is StepKind.SUBSTITUTION
        assert collapses == (f == star_star), notation(store, f)
    assert _reverse(store, star_star) == (store.zero, StepKind.SUBSTITUTION)


def test_canonical_alone_records_no_traces():
    store = Store()
    for g in day2_population(store) + day3_sample(store, 300):
        canonical(store, g)
    assert store.canonical_memo
    assert store.canonical_steps_memo == {}


def test_domination_memo_is_pure():
    """Every kept entry whose options are all canonical is what a fresh
    domination pass keeps for its key, every other entry is its
    canonicalised key's entry, and canonical forms do not depend on which
    entries are there."""
    store, bare = Store(), Store()
    forms = day2_population(store) + day3_sample(store, 2000)
    day2_population(bare), day3_sample(bare, 2000)
    got = [canonical(store, g) for g in forms]
    raw = 0
    for (opts, left), kept in store.kept_memo.items():
        canon = tuple(sorted({canonical(store, x) for x in opts}))
        if canon == opts:
            dropped = set(_drops(store, opts, left))
            assert kept == tuple(x for x in opts if x not in dropped)
        else:
            raw += 1
            assert kept == store.kept_memo[(canon, left)]
    assert 0 < raw < len(store.kept_memo)
    want = []
    for g in forms:
        bare.kept_memo.clear()
        want.append(canonical(bare, g))
    assert got == want


def _reduced(store, g):
    """Where reduce_once, which reads no memo, stops when applied from g."""
    while (hit := reduce_once(store, g)) is not None:
        g = hit[0]
    return g


def _stale_entries(store, forms):
    """The forms among ``forms`` whose canonical entry differs from where
    reduce_once stops from them. The forms given are post-domination forms,
    whose options are canonical, so single steps reach their canonical
    forms."""
    memo = store.canonical_memo
    return [x for x in forms if _reduced(store, x) != memo[x]]


def test_canonical_memo_is_pure_and_closed(monkeypatch):
    """canonical runs the reversal scan once per post-domination form and
    stores that form's canonical form under its id. Every such entry is what
    reduce_once, which reads no memo, reaches from the form; every
    key's options are keys, and every canonical form is its own entry;
    canonical forms do not depend on whether the entries of forms that are
    no input's followers are there; and a wrong entry planted under one
    scanned form is caught."""
    store, bare = Store(), Store()
    forms = day2_population(store) + day3_sample(store, 2000)
    day2_population(bare), day3_sample(bare, 2000)
    scans = []
    reverse = canonical_module._reverse
    monkeypatch.setattr(canonical_module, "_reverse", lambda s, g: scans.append(g) or reverse(s, g))
    got = [canonical(store, g) for g in forms]
    monkeypatch.undo()
    memo = store.canonical_memo
    assert len(scans) == len(set(scans)) > 0
    assert set(scans) <= set(memo)
    assert _stale_entries(store, scans) == []
    for x, c in memo.items():
        assert memo[c] == c
        assert all(y in memo for y in store.left(x) + store.right(x))
    want, walked = [], set()
    for g in forms:
        for x in [x for x in bare.canonical_memo if x not in walked]:
            del bare.canonical_memo[x]
        want.append(canonical(bare, g))
        walked.update(bare.followers(g))
    assert got == want
    x = next(x for x in scans if memo[x] != x)
    memo[x] = store.star if memo[x] == store.zero else store.zero
    assert _stale_entries(store, scans) == [x]


def test_canonical_answers_from_the_kept_form_without_a_fixpoint(monkeypatch):
    """A miss on g whose kept options make a form with a canonical entry is
    answered from that entry, without a call to the fixpoint. Over day 2
    and a 2,000-form day-3 sample on a fresh store the fixpoint runs 1,433
    times; without the lookup it would run 2,010 times, to the same
    verdicts and table entries."""
    store = Store()
    forms = day2_population(store) + day3_sample(store, 2000)
    calls = []
    fixpoint = canonical_module._fixpoint
    monkeypatch.setattr(canonical_module, "_fixpoint", lambda s, g: calls.append(g) or fixpoint(s, g))
    for g in forms:
        canonical(store, g)
    assert len(calls) == 1433


def test_the_walk_skips_a_follower_an_earlier_fixpoint_stored(monkeypatch):
    """Domination takes {0|0,*} from the follower {0,*,{0|0,*}|{0|*}},
    which leaves the younger follower {0,*|{0|*}}; the older one's
    fixpoint stores its entry, and the walk does not reduce it again (a
    second fixpoint would scan its options for domination once more)."""
    store = Store()
    g = parse(store, "{{0,*,{0|0,*}|{0|*}}|{0,*|{0|*}}}")
    older, younger = store.left(g)[0], store.right(g)[0]
    assert older < younger
    calls = []
    fixpoint = canonical_module._fixpoint
    monkeypatch.setattr(canonical_module, "_fixpoint", lambda s, f: calls.append(f) or fixpoint(s, f))
    canonical(store, g)
    assert older in calls and younger in store.canonical_memo
    assert younger not in calls


def test_canonical_interns_no_form_between_steps():
    """Two rewrites reduce {{*|*},{0,*|*}|0}: its options canonicalise to 0
    and {0,*|*}, which dominates 0, and {{0,*|*}|0} reverses to *. When the
    form left after domination and * exist already, canonical interns
    nothing; only explain interns the dominated form {0,{0,*|*}|0} its trace
    starts from."""
    store = Store()
    g = parse(store, "{{*|*},{0,*|*}|0}")
    parse(store, "{{0,*|*}|0}")
    n = len(store)
    assert canonical(store, g) == store.star
    assert len(store) == n
    steps = [(s.kind.value, notation(store, s.before)) for s in explain(store, g)]
    assert steps == [
        ("Substitution", "{*|*}"),
        ("DominationL", "{0,{0,*|*}|0}"),
        ("NonAtomicReverseL", "{{0,*|*}|0}"),
    ]
    assert len(store) == n + 1


def test_step_as_dict(store):
    hit = reduce_once(store, parse(store, "{*|*}"))
    assert hit is not None
    assert step_as_dict(store, hit[1]) == {
        "kind": "Substitution",
        "before": "{*|*}",
        "after": "0",
    }


def test_concurrent_explain_sees_complete_traces():
    """Threads racing through canonical and explain on one shared store all
    get the same complete traces. The switch interval is forced tiny so the
    threads interleave inside canonical's bottom-up loop. Were a form's
    canonical memo entry published before its steps, about one trial in
    three would raise KeyError."""
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(10):
            store = Store()
            forms = day3_sample(store, 400)
            results: list = [None] * 4
            errors: list = []
            barrier = threading.Barrier(4, timeout=60)

            def work(slot: int) -> None:
                barrier.wait()
                try:
                    results[slot] = [explain(store, g) for g in forms]
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
    finally:
        sys.setswitchinterval(interval)


def test_results_do_not_depend_on_store_history():
    """canonical and explain give the same answers on a fresh store and on
    one first warmed on a different population. Options are scanned and
    printed in id order, so both stores intern day 2 first and agree on
    those ids; every form born later gets different ids in the two."""
    fresh = Store()
    texts = [notation(fresh, g) for g in day3_sample(fresh, 300)]
    warm = Store()
    day2_population(warm)
    inputs = []
    for g in enumerate_dicots(warm, 3, limit=1500, seed=ENUMERATION_SEED + 1):
        is_invertible(warm, g)
        inputs.append(g)
    # The warm store holds the canonical form of some form that is no
    # input's follower: one the fixpoint met after domination.
    walked = set().union(*(warm.followers(g) for g in inputs))
    assert set(warm.canonical_memo) - walked
    for text in texts:
        views = []
        for s in (fresh, warm):
            g = parse(s, text)
            views.append(
                (notation(s, canonical(s, g)), [step_as_dict(s, st) for st in explain(s, g)])
            )
        assert views[0] == views[1], text
