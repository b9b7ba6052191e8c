"""Reduction of dicot forms to canonical form under misere play.

Three families of rewrites preserve the value of a form while shrinking it:

* domination: drop an option when a sibling serves its player at least as
  well (for Left a >= the dropped one, for Right a <= it);
* reversibility with replacements: when a Left option A has a Right response
  B with B <= G and B has Left options, bypass A and promote B's Left
  options (mirrored for Right);
* reversibility through the endgame: when instead B is the endgame (the only
  option-less dicot) and G >= 0, drop A if some other winning Left move
  remains, or replace A by * when A was the unique winning move (mirrored
  for Right); and when the form left is {*|*}, it collapses to 0.

Every reversibility test is one relation, B <= G, decided by ``geq`` (Siegel,
"Misere canonical forms of partizan games"); B is 0 through the endgame.

Applied bottom-up until nothing fires, these rewrites terminate in the
unique smallest form of each equivalence class. Because that form is unique,
``canonical`` keeps only the fixpoint: it drops every dominated option in
one pass and interns no form per step. ``reduce_once`` is the single-step
rule, and ``explain`` records a trace by applying it until nothing fires,
one ReductionStep per rewrite; the tests check that the trace ends where
``canonical`` does.

A rewrite that would reproduce the same form (a replacement already present)
counts as not applicable; the scan simply moves on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .forms import FormId, Store, check_id, notation
from .order import _geq


class StepKind(Enum):
    DOMINATION_L = "DominationL"
    DOMINATION_R = "DominationR"
    NON_ATOMIC_REVERSE_L = "NonAtomicReverseL"
    NON_ATOMIC_REVERSE_R = "NonAtomicReverseR"
    ATOMIC_REVERSE_DROP_L = "AtomicReverseDropL"
    ATOMIC_REVERSE_STAR_L = "AtomicReverseStarL"
    ATOMIC_REVERSE_DROP_R = "AtomicReverseDropR"
    ATOMIC_REVERSE_STAR_R = "AtomicReverseStarR"
    SUBSTITUTION = "Substitution"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ReductionStep:
    """One applied rewrite: ``before`` became ``after`` by a rewrite of kind
    ``kind`` at the root of ``before``."""

    kind: StepKind
    before: FormId
    after: FormId


def _drops(store: Store, opts: tuple[FormId, ...], left: bool) -> Iterator[FormId]:
    """The options of one side that domination drops, in step order.

    Candidates are tried in ascending id order, each against the options
    still kept, and the first sibling found at least as good for the side's
    player (>= it for Left, <= it for Right) decides the drop. Taking the
    first drop is one rewrite step; taking them all is every domination
    step on that side, because a drop never makes an earlier candidate
    dominated.
    """
    kept = list(opts)
    for a in opts:
        for b in kept:
            if b != a and (_geq(store, b, a) if left else _geq(store, a, b)):
                kept.remove(a)
                yield a
                break


def _reverse(store: Store, g: FormId) -> tuple[FormId, StepKind] | None:
    """First applicable reversibility rewrite of g at the root, with its
    kind, or None: with replacements (Left then Right), through the endgame
    (Left then Right), then the collapse of {*|*} to 0. Each test is one
    ``geq`` call."""
    lefts, rights = store._lefts, store._rights
    left, right = lefts[g], rights[g]
    zero, star = store.zero, store.star
    intern = store._intern_sorted

    for a in left:
        for b in rights[a]:
            if lefts[b] and _geq(store, g, b):
                after = intern(tuple(sorted((set(left) - {a}) | set(lefts[b]))), right)
                if after != g:
                    return after, StepKind.NON_ATOMIC_REVERSE_L
    for a in right:
        for b in lefts[a]:
            if rights[b] and _geq(store, b, g):
                after = intern(left, tuple(sorted((set(right) - {a}) | set(rights[b]))))
                if after != g:
                    return after, StepKind.NON_ATOMIC_REVERSE_R

    # Reversibility through the endgame. In a dicot store the endgame is the
    # only form without Left options, so "A reverses through an option-less
    # position" means exactly: 0 is a Right option of A, and 0 <= g.
    # Left's winning moves: options where Right, moving first, loses.
    if _geq(store, g, zero):
        winners = [c for c in left if not store._right_wins[c]]
        for a in left:
            if zero not in rights[a]:
                continue
            if any(c != a for c in winners):
                after = intern(tuple(x for x in left if x != a), right)
                return after, StepKind.ATOMIC_REVERSE_DROP_L
            # g >= 0 guarantees Left a winning first move, so the unique
            # winner must be a itself: bypassing it still leaves *.
            assert winners == [a]
            after = intern(tuple(sorted((set(left) - {a}) | {star})), right)
            if after != g:
                return after, StepKind.ATOMIC_REVERSE_STAR_L
    if _geq(store, zero, g):
        winners = [c for c in right if not store._left_wins[c]]
        for a in right:
            if zero not in lefts[a]:
                continue
            if any(c != a for c in winners):
                after = intern(left, tuple(x for x in right if x != a))
                return after, StepKind.ATOMIC_REVERSE_DROP_R
            assert winners == [a]
            after = intern(left, tuple(sorted((set(right) - {a}) | {star})))
            if after != g:
                return after, StepKind.ATOMIC_REVERSE_STAR_R

    # A lone Left option a with 0 among its Right options, in a g >= 0, is
    # the unique winning move, so the block above replaces it by * unless it
    # is * already; the same holds on the Right. So the two-singleton
    # collapse to 0 is left only for {*|*}, which is both >= 0 and <= 0.
    if left == right == (star,):
        return zero, StepKind.SUBSTITUTION

    return None


def reduce_once(store: Store, g: FormId) -> tuple[FormId, ReductionStep] | None:
    """First applicable rewrite of g at the root, or None when none applies.

    Each rewrite preserves the value of g whatever its options are;
    `canonical` canonicalises every proper follower first (bottom-up), which
    is what makes its fixpoint the canonical form. The scan order is fixed
    so traces reproduce: domination (Left then Right), reversibility with
    replacements (Left then Right), reversibility through the endgame (Left
    then Right), then the collapse of {*|*} to 0; candidates are tried
    in stored (ascending id) order. It reads no memo table. `canonical`
    reaches the same fixpoint without interning a form per step; `explain`
    records the steps this function takes, one call at a time.
    """
    check_id(store, g)
    left, right = store._lefts[g], store._rights[g]
    intern = store._intern_sorted
    a = next(_drops(store, left, True), None)
    if a is not None:
        after = intern(tuple(x for x in left if x != a), right)
        return after, ReductionStep(StepKind.DOMINATION_L, g, after)
    a = next(_drops(store, right, False), None)
    if a is not None:
        after = intern(left, tuple(x for x in right if x != a))
        return after, ReductionStep(StepKind.DOMINATION_R, g, after)
    hit = _reverse(store, g)
    if hit is None:
        return None
    after, kind = hit
    return after, ReductionStep(kind, g, after)


def _canonical_tuple(store: Store, opts: tuple[FormId, ...]) -> tuple[FormId, ...]:
    """opts with every option replaced by its canonical form, sorted and
    without repeats; each option's canonical form must be in the memo
    already."""
    memo = store.canonical_memo
    return tuple(sorted({memo[x] for x in opts}))


def _kept(store: Store, opts: tuple[FormId, ...], left: bool) -> tuple[FormId, ...]:
    """The options of one side that domination keeps once each option is
    replaced by its canonical form, memoized per (options, side) in the
    store's ``kept`` table (filled only by ``_fixpoint``).

    ``opts`` is the tuple as the form holds it, and each option has its
    canonical form in the memo already. When canonicalising changes the
    tuple, the canonical tuple's entry is stored under the raw key as well,
    so a domination scan runs once per canonical tuple and side.
    """
    key = (opts, left)
    kept = store.kept_memo.get(key)
    if kept is None:
        canon = _canonical_tuple(store, opts)
        if canon != opts:
            kept = _kept(store, canon, left)
        else:
            dropped = set(_drops(store, opts, left))
            kept = tuple(x for x in opts if x not in dropped)
        store.kept_memo[key] = kept
    return kept


def _fixpoint(store: Store, g: FormId) -> FormId:
    """The canonical form of g, every proper follower of which has its
    canonical form in the memo already, without interning the forms in
    between.

    Each round drops every dominated option at once (Left, then Right, on
    the options' canonical forms) and interns the form left over, which the
    reversibility tests take as an id. Its ``canonical`` entry ends the
    loop; without one, a reversal's result starts the next round. These
    forms all have g's value, and canonical forms are unique, so the result
    is stored under each, the last round's first (so it is a key before any
    form maps to it): one reversal scan per post-domination form. Their
    options, canonical forms and their followers, are keys already. A first
    round that hits every table writes nothing.
    """
    memo = store.canonical_memo
    lefts, rights = store._lefts, store._rights
    intern = store._intern_sorted
    seen = []
    while True:
        g = intern(_kept(store, lefts[g], True), _kept(store, rights[g], False))
        if g in memo:
            g = memo[g]
            break
        seen.append(g)
        hit = _reverse(store, g)
        if hit is None:
            break
        g = hit[0]
    for x in reversed(seen):
        memo[x] = g
    return g


def canonical(store: Store, g: FormId) -> FormId:
    """The canonical form of g: smallest form equivalent to g, memoized.

    Works bottom-up in one walk over g and its followers without an entry,
    in ascending id order (every option is older than its form, so options
    come first): replace every option by its canonical form, then rewrite
    at the root to a fixpoint. Canonical forms are unique, so only the
    fixpoint is kept: dominated options are dropped all at once, and no
    form is interned for a step on the way (``explain`` takes them one at a
    time with ``reduce_once`` when asked).

    The fixpoint takes each follower's options as the follower holds them
    and canonicalises them inside its domination scan, memoized per (option
    tuple, side) in the ``kept`` table. It also memoizes every form left
    after domination, so followers that agree once dominated options are
    gone share one reversal scan, and the walk skips a follower that an
    earlier one's fixpoint stored.

    A miss on g is first looked up under the form g's kept options make,
    the form the fixpoint's first round would reach: it has g's value, so
    its entry is g's canonical form. Both ``kept`` keys being present also
    shows that g's options have their canonical forms, since a ``kept`` key
    is written only once every option in its tuple has one. The lookup
    writes nothing, and neither would a first round making the same hits.
    """
    check_id(store, g)
    memo = store.canonical_memo
    got = memo.get(g)
    if got is not None:
        return got
    lefts, rights, kept = store._lefts, store._rights, store.kept_memo
    # The entry of the form g's kept options make. A miss anywhere gives
    # None: no ``_ids`` key has a None side, and None is no memo key.
    got = memo.get(store._ids.get((kept.get((lefts[g], True)), kept.get((rights[g], False)))))
    if got is None:
        for f in store._unbuilt(memo, g):
            if f not in memo:
                memo[f] = _fixpoint(store, f)
    else:
        memo[g] = got
    return memo[g]


def is_canonical(store: Store, g: FormId) -> bool:
    """True iff g is its own canonical form."""
    return canonical(store, g) == g


def explain(store: Store, g: FormId) -> list[ReductionStep]:
    """Deterministic trace of every rewrite between g and canonical(g).

    Steps for deeper followers come first. Replaying the steps in order as
    global rewrites (replace each step's ``before`` by its ``after``
    everywhere) transforms g into canonical(store, g).

    A follower's steps are recorded on the first ``explain`` that reaches
    it, in the store's ``canonical_steps`` table, by applying ``reduce_once``
    until it returns None, starting from the form with the follower's
    canonicalised options. This interns the forms in between, which
    ``canonical`` skips, and repeats each step's domination scan, which
    ``canonical`` reads from the ``kept`` table.
    """
    canonical(store, g)
    steps_memo = store.canonical_steps_memo
    out: list[ReductionStep] = []
    for f in sorted(store.followers(g), key=lambda x: (store.birthday(x), x)):
        steps = steps_memo.get(f)
        if steps is None:
            route: list[ReductionStep] = []
            h = store._intern_sorted(
                _canonical_tuple(store, store._lefts[f]),
                _canonical_tuple(store, store._rights[f]),
            )
            while (hit := reduce_once(store, h)) is not None:
                h, step = hit
                route.append(step)
            steps = steps_memo[f] = tuple(route)
        out.extend(steps)
    return out


def step_as_dict(store: Store, step: ReductionStep, names: dict | None = None) -> dict:
    """Serializable view of a step, forms rendered in notation.

    ``names``, when given, maps ids to their notation: it is read first and
    filled on a miss, so steps sharing a dict render each form once.
    """
    if names is None:
        names = {}
    out = {"kind": step.kind.value}
    for field, g in (("before", step.before), ("after", step.after)):
        name = names.get(g)
        if name is None:
            name = names[g] = notation(store, g)
        out[field] = name
    return out
