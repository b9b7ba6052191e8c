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
  for Right); and when both a lone Left and a lone Right option reverse
  through the endgame this way, the whole form collapses to 0.

Applied bottom-up until nothing fires, these rewrites terminate in the
unique smallest form of each equivalence class. Because that form is unique,
``canonical`` keeps only the fixpoint: it drops every dominated option in
one pass and interns no form per step. ``explain`` asks the same fixpoint
loop to write down its route, one ReductionStep per rewrite, so the trace
ends where ``canonical`` does. ``reduce_once`` is the single-step rule the
route is made of.

A rewrite that would reproduce the same form (a replacement already present)
counts as not applicable; the scan simply moves on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .forms import FormId, Store, check_id, notation
from .order import _geq, geq_zero, leq_zero


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
    memo = store.geq_memo
    kept = list(opts)
    for a in opts:
        for b in kept:
            if b != a and (_geq(store, memo, b, a) if left else _geq(store, memo, a, b)):
                kept.remove(a)
                yield a
                break


def _reverse(store: Store, g: FormId) -> tuple[FormId, StepKind] | None:
    """First applicable reversibility rewrite of g at the root, with its
    kind, or None: with replacements (Left then Right), through the endgame
    (Left then Right), then the two-singleton collapse to 0."""
    lefts, rights = store._lefts, store._rights
    left, right = lefts[g], rights[g]
    zero, star = store.zero, store.star
    intern = store._intern_sorted
    memo = store.geq_memo

    for a in left:
        for b in rights[a]:
            if lefts[b] and _geq(store, memo, g, b):
                repl = set(left)
                repl.discard(a)
                repl.update(lefts[b])
                after = intern(tuple(sorted(repl)), right)
                if after != g:
                    return after, StepKind.NON_ATOMIC_REVERSE_L
    for a in right:
        for b in lefts[a]:
            if rights[b] and _geq(store, memo, b, g):
                repl = set(right)
                repl.discard(a)
                repl.update(rights[b])
                after = intern(left, tuple(sorted(repl)))
                if after != g:
                    return after, StepKind.NON_ATOMIC_REVERSE_R

    # Reversibility through the endgame. In a dicot store the endgame is the
    # only form without Left options, so "A reverses through an option-less
    # position" means exactly: 0 is a Right option of A, and 0 <= g.
    # Left's winning moves: options where Right, moving first, loses.
    if geq_zero(store, g):
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
            repl = set(left)
            repl.discard(a)
            repl.add(star)
            after = intern(tuple(sorted(repl)), right)
            if after != g:
                return after, StepKind.ATOMIC_REVERSE_STAR_L
    if leq_zero(store, g):
        winners = [c for c in right if not store._left_wins[c]]
        for a in right:
            if zero not in lefts[a]:
                continue
            if any(c != a for c in winners):
                after = intern(left, tuple(x for x in right if x != a))
                return after, StepKind.ATOMIC_REVERSE_DROP_R
            assert winners == [a]
            repl = set(right)
            repl.discard(a)
            repl.add(star)
            after = intern(left, tuple(sorted(repl)))
            if after != g:
                return after, StepKind.ATOMIC_REVERSE_STAR_R

    if len(left) == 1 and len(right) == 1:
        a, c = left[0], right[0]
        if (
            zero in rights[a]
            and zero in lefts[c]
            and geq_zero(store, g)
            and leq_zero(store, g)
        ):
            return zero, StepKind.SUBSTITUTION

    return None


def reduce_once(store: Store, g: FormId) -> tuple[FormId, ReductionStep] | None:
    """First applicable rewrite of g at the root, or None when none applies.

    Each rewrite preserves the value of g whatever its options are;
    `canonical` canonicalises every proper follower first (bottom-up), which
    is what makes its fixpoint the canonical form. The scan order is fixed
    so traces reproduce: domination (Left then Right), reversibility with
    replacements (Left then Right), reversibility through the endgame (Left
    then Right), then the two-singleton collapse to 0; candidates are tried
    in stored (ascending id) order. `canonical` reaches the same fixpoint
    without interning a form per step, and the steps `explain` records are
    the ones this function takes, one call at a time.
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


def _kept(store: Store, opts: tuple[FormId, ...], left: bool) -> tuple[FormId, ...]:
    """The options of one side that domination keeps, memoized per
    (options, side) in the store's ``kept`` table (filled only by
    ``_fixpoint``: its size counts the distinct domination scans)."""
    key = (opts, left)
    kept = store.kept_memo.get(key)
    if kept is None:
        dropped = set(_drops(store, opts, left))
        kept = tuple(x for x in opts if x not in dropped)
        store.kept_memo[key] = kept
    return kept


def _fixpoint(
    store: Store,
    left: tuple[FormId, ...],
    right: tuple[FormId, ...],
    steps: list[ReductionStep] | None = None,
) -> FormId:
    """The form reduce_once reaches from the form with options (left, right),
    every one of them canonical, without interning the forms in between.

    Each round drops every dominated option at once (Left, then Right) and
    interns only the form left over, which the reversibility tests take as
    an id; a reversal's result starts the next round.

    Given a ``steps`` list, it appends the route reduce_once takes: each
    round interns the form holding its options, then each dropped option
    is one domination step (Left, then Right, in ascending id order, as
    ``_drops`` finds them), then comes the reversal's step.
    """
    lefts, rights = store._lefts, store._rights
    intern = store._intern_sorted
    while True:
        kept_left = _kept(store, left, True)
        kept_right = _kept(store, right, False)
        if steps is not None:
            g = intern(left, right)
            for a in left:
                if a not in kept_left:
                    left = tuple(x for x in left if x != a)
                    after = intern(left, right)
                    steps.append(ReductionStep(StepKind.DOMINATION_L, g, after))
                    g = after
            for a in right:
                if a not in kept_right:
                    right = tuple(x for x in right if x != a)
                    after = intern(left, right)
                    steps.append(ReductionStep(StepKind.DOMINATION_R, g, after))
                    g = after
        g = intern(kept_left, kept_right)
        hit = _reverse(store, g)
        if hit is None:
            return g
        if steps is not None:
            steps.append(ReductionStep(hit[1], g, hit[0]))
        g = hit[0]
        left, right = lefts[g], rights[g]


def _canonical_options(store: Store, f: FormId) -> tuple[tuple[FormId, ...], tuple[FormId, ...]]:
    """f's option sets with every option replaced by its canonical form;
    each option's canonical form must be in the memo already."""
    memo = store.canonical_memo
    return (
        tuple(sorted({memo[x] for x in store._lefts[f]})),
        tuple(sorted({memo[x] for x in store._rights[f]})),
    )


def canonical(store: Store, g: FormId) -> FormId:
    """The canonical form of g: smallest form equivalent to g, memoized.

    Works bottom-up over g's followers in ascending id order (every option
    is older than its form, so options come first): replace every option by
    its canonical form, then rewrite at the root to a fixpoint. Canonical
    forms are unique, so only the fixpoint is kept: dominated options are
    dropped all at once, and no form is interned for a step on the way
    (``explain`` has the fixpoint record them when asked).

    Followers whose options canonicalise alike share the fixpoint: it is
    memoized per canonicalised option pair in the store's ``rewrite`` table
    (filled only here: its size counts the fixpoints canonicalisation
    computed). A row of the day-3 census, where many options are
    non-canonical forms of one value, finds about half its followers there.
    Inside the fixpoint, the options domination keeps are memoized per
    (option tuple, side) in the ``kept`` table, so a tuple met again costs
    one lookup instead of a scan.

    When every option of g already has its canonical form, so has every
    proper follower (an option's entry is published only after its own
    followers'), and g is the one follower left: it is processed alone,
    without walking or memoizing its followers. The order of work, and so
    the ids interned, are those of the full walk.
    """
    check_id(store, g)
    memo = store.canonical_memo
    got = memo.get(g)
    if got is not None:
        return got
    rewrites = store.rewrite_memo
    lefts, rights = store._lefts, store._rights
    todo = (g,)
    for x in lefts[g] + rights[g]:
        if x not in memo:
            todo = store.followers(g)
            break
    for f in todo:
        if f in memo:
            continue
        key = _canonical_options(store, f)
        c = rewrites.get(key)
        if c is None:
            c = rewrites[key] = _fixpoint(store, *key)
        memo[f] = c
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
    it, in the store's ``canonical_steps`` table, by running canonical's
    fixpoint from the form with its canonicalised options with a list to
    write its route into; this interns the forms in between, which
    ``canonical`` skips.
    """
    canonical(store, g)
    steps_memo = store.canonical_steps_memo
    out: list[ReductionStep] = []
    for f in sorted(store.followers(g), key=lambda x: (store.birthday(x), x)):
        steps = steps_memo.get(f)
        if steps is None:
            route: list[ReductionStep] = []
            _fixpoint(store, *_canonical_options(store, f), route)
            steps = steps_memo[f] = tuple(route)
        out.extend(steps)
    return out


def step_as_dict(store: Store, step: ReductionStep) -> dict:
    """Serializable view of a step, forms rendered in notation."""
    return {
        "kind": step.kind.value,
        "before": notation(store, step.before),
        "after": notation(store, step.after),
    }
