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
unique smallest form of each equivalence class. Each application is recorded
as a ReductionStep, and the full per-form traces are kept on the store so
``explain`` can replay any form's route to its canonical form.

A rewrite that would reproduce the same form (a replacement already present)
counts as not applicable; the scan simply moves on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .forms import FormId, Store, check_id, notation
from .order import _geq, geq_zero, leq_zero
from .outcomes import Outcome, outcome


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


def reduce_once(store: Store, g: FormId) -> tuple[FormId, ReductionStep] | None:
    """First applicable rewrite of g at the root, or None when none applies.

    Each rewrite preserves the value of g whatever its options are;
    `canonical` canonicalises every proper follower first (bottom-up), which
    is what makes its fixpoint the canonical form. The scan order is fixed
    so traces reproduce: domination (Left then Right), reversibility with
    replacements (Left then Right), reversibility through the endgame (Left
    then Right), then the two-singleton collapse to 0; candidates are tried
    in stored (ascending id) order.
    """
    left, right = store.left(g), store.right(g)
    lefts, rights = store._lefts, store._rights
    zero, star = store.zero, store.star
    intern = store._intern_sorted
    memo = store.geq_memo

    for a in left:
        for b in left:
            if b != a and _geq(store, memo, b, a):
                after = intern(tuple(x for x in left if x != a), right)
                return after, ReductionStep(StepKind.DOMINATION_L, g, after)
    for a in right:
        for b in right:
            if b != a and _geq(store, memo, a, b):
                after = intern(left, tuple(x for x in right if x != a))
                return after, ReductionStep(StepKind.DOMINATION_R, g, after)

    for a in left:
        for b in rights[a]:
            if lefts[b] and _geq(store, memo, g, b):
                repl = set(left)
                repl.discard(a)
                repl.update(lefts[b])
                after = intern(tuple(sorted(repl)), right)
                if after != g:
                    return after, ReductionStep(StepKind.NON_ATOMIC_REVERSE_L, g, after)
    for a in right:
        for b in lefts[a]:
            if rights[b] and _geq(store, memo, b, g):
                repl = set(right)
                repl.discard(a)
                repl.update(rights[b])
                after = intern(left, tuple(sorted(repl)))
                if after != g:
                    return after, ReductionStep(StepKind.NON_ATOMIC_REVERSE_R, g, after)

    # Reversibility through the endgame. In a dicot store the endgame is the
    # only form without Left options, so "A reverses through an option-less
    # position" means exactly: 0 is a Right option of A, and 0 <= g.
    if geq_zero(store, g):
        winners = [c for c in left if outcome(store, c) in (Outcome.L, Outcome.P)]
        for a in left:
            if zero not in rights[a]:
                continue
            if any(c != a for c in winners):
                after = intern(tuple(x for x in left if x != a), right)
                return after, ReductionStep(StepKind.ATOMIC_REVERSE_DROP_L, g, after)
            # g >= 0 guarantees Left a winning first move, so the unique
            # winner must be a itself: bypassing it still leaves *.
            assert winners == [a]
            repl = set(left)
            repl.discard(a)
            repl.add(star)
            after = intern(tuple(sorted(repl)), right)
            if after != g:
                return after, ReductionStep(StepKind.ATOMIC_REVERSE_STAR_L, g, after)
    if leq_zero(store, g):
        winners = [c for c in right if outcome(store, c) in (Outcome.R, Outcome.P)]
        for a in right:
            if zero not in lefts[a]:
                continue
            if any(c != a for c in winners):
                after = intern(left, tuple(x for x in right if x != a))
                return after, ReductionStep(StepKind.ATOMIC_REVERSE_DROP_R, g, after)
            assert winners == [a]
            repl = set(right)
            repl.discard(a)
            repl.add(star)
            after = intern(left, tuple(sorted(repl)))
            if after != g:
                return after, ReductionStep(StepKind.ATOMIC_REVERSE_STAR_R, g, after)

    if len(left) == 1 and len(right) == 1:
        a, c = left[0], right[0]
        if (
            zero in rights[a]
            and zero in lefts[c]
            and geq_zero(store, g)
            and leq_zero(store, g)
        ):
            return zero, ReductionStep(StepKind.SUBSTITUTION, g, zero)

    return None


def canonical(store: Store, g: FormId) -> FormId:
    """The canonical form of g: smallest form equivalent to g, memoized.

    Works bottom-up over g's followers in ascending id order (every option
    is older than its form, so options come first): replace every option by
    its canonical form, then rewrite at the root to a fixpoint. The steps
    applied at each follower are recorded for ``explain``.

    The root rewrite of a form depends on that form alone, and different
    followers often pass through the same intermediate forms, so inside the
    fixpoint it is memoized per form in the store's ``rewrite`` table (filled
    only here: its size counts the root scans canonicalisation made). A
    follower's steps are published before its canonical form, so whoever
    sees the form also finds its steps.

    When every option of g already has its canonical form, so has every
    proper follower (an option's entry is published only after its own
    followers'), and g is the one follower left: it is processed alone,
    without walking or memoizing its followers. The order of work, and so
    the ids interned and the steps recorded, are those of the full walk.
    """
    check_id(store, g)
    memo = store.canonical_memo
    got = memo.get(g)
    if got is not None:
        return got
    steps_memo = store.canonical_steps_memo
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
        h = store._intern_sorted(
            tuple(sorted({memo[x] for x in lefts[f]})),
            tuple(sorted({memo[x] for x in rights[f]})),
        )
        steps = []
        while True:
            if h in rewrites:
                hit = rewrites[h]
            else:
                hit = rewrites[h] = reduce_once(store, h)
            if hit is None:
                break
            h, step = hit
            steps.append(step)
        steps_memo[f] = tuple(steps)
        memo[f] = h
    return memo[g]


def is_canonical(store: Store, g: FormId) -> bool:
    """True iff g is its own canonical form."""
    return canonical(store, g) == g


def explain(store: Store, g: FormId) -> list[ReductionStep]:
    """Deterministic trace of every rewrite between g and canonical(g).

    Steps for deeper followers come first. Replaying the steps in order as
    global rewrites (replace each step's ``before`` by its ``after``
    everywhere) transforms g into canonical(store, g).
    """
    canonical(store, g)
    steps_memo = store.canonical_steps_memo
    out: list[ReductionStep] = []
    for f in sorted(store.followers(g), key=lambda x: (store.birthday(x), x)):
        out.extend(steps_memo[f])
    return out


def step_as_dict(store: Store, step: ReductionStep) -> dict:
    """Serializable view of a step, forms rendered in notation."""
    return {
        "kind": step.kind.value,
        "before": notation(store, step.before),
        "after": notation(store, step.after),
    }
