"""Decision procedures for the partial order on dicots under misere play.

``geq(store, g, h)`` decides whether g is at least as good as h for Left in
every dicotic context, without quantifying over contexts. The recursion has
two parts: the outcomes themselves must already favour g, and each player's
threats must be covered option for option. Concretely, every Right option of
g must either be matched by a Right option of h it dominates, or carry a
Left response that beats h outright; dually, every Left option of h must be
matched from g's Left options or be answerable inside h itself. Each inner
comparison strictly shrinks the combined birthday, so the recursion grounds
out.

``geq_zero`` and ``leq_zero`` are the same recursion with the endgame
substituted for one side, which collapses it to a linear scan: the outcome
must be at least (at most) N, and every Right (Left) option must admit a
Left (Right) response that is again >= 0 (<= 0). ``eq_zero`` is both at once.
"""

from __future__ import annotations

from enum import Enum

from .forms import FormId, Store
from .outcomes import Outcome, outcome, outcome_geq


class OrderResult(Enum):
    """Four-way comparison: greater, less, equal, or incomparable."""

    GT = ">"
    LT = "<"
    EQ = "="
    CONFUSED = "||"

    def __str__(self) -> str:
        return self.value


def geq(store: Store, g: FormId, h: FormId) -> bool:
    """True iff g >= h modulo the dicot misere universe."""
    return _geq(store, store.geq_memo, g, h)


def _geq(store: Store, memo: dict, g: FormId, h: FormId) -> bool:
    key = (g, h)
    hit = memo.get(key)
    if hit is None:
        hit = _geq_compute(store, memo, g, h)
        memo[key] = hit
    return hit


def _geq_compute(store: Store, memo: dict, g: FormId, h: FormId) -> bool:
    if not outcome_geq(outcome(store, g), outcome(store, h)):
        return False
    lefts, rights = store._lefts, store._rights
    for gr in rights[g]:
        if any(_geq(store, memo, gr, hr) for hr in rights[h]):
            continue
        if any(_geq(store, memo, grl, h) for grl in lefts[gr]):
            continue
        return False
    for hl in lefts[h]:
        if any(_geq(store, memo, gl, hl) for gl in lefts[g]):
            continue
        if any(_geq(store, memo, g, hlr) for hlr in rights[hl]):
            continue
        return False
    return True


def geq_zero(store: Store, g: FormId) -> bool:
    """True iff g >= 0: outcome at least N, and every Right option admits a
    Left response that is again >= 0. Agrees with geq(store, g, zero)."""
    return _geq_zero(store, store.geq_zero_memo, g)


def _geq_zero(store: Store, memo: dict, g: FormId) -> bool:
    hit = memo.get(g)
    if hit is not None:
        return hit
    o = outcome(store, g)
    if o is Outcome.L or o is Outcome.N:
        lefts = store._lefts
        result = all(
            any(_geq_zero(store, memo, grl) for grl in lefts[gr])
            for gr in store._rights[g]
        )
    else:
        result = False
    memo[g] = result
    return result


def leq_zero(store: Store, g: FormId) -> bool:
    """True iff g <= 0; the mirror of geq_zero. Agrees with geq(store, zero, g)."""
    return _leq_zero(store, store.leq_zero_memo, g)


def _leq_zero(store: Store, memo: dict, g: FormId) -> bool:
    hit = memo.get(g)
    if hit is not None:
        return hit
    o = outcome(store, g)
    if o is Outcome.R or o is Outcome.N:
        rights = store._rights
        result = all(
            any(_leq_zero(store, memo, glr) for glr in rights[gl])
            for gl in store._lefts[g]
        )
    else:
        result = False
    memo[g] = result
    return result


def eq_zero(store: Store, g: FormId) -> bool:
    """True iff g is equivalent to 0: both zero tests hold (their outcome
    conditions, at least N and at most N, meet exactly in N)."""
    return geq_zero(store, g) and leq_zero(store, g)


def eq(store: Store, g: FormId, h: FormId) -> bool:
    """Equivalence modulo dicots: geq in both directions."""
    return geq(store, g, h) and geq(store, h, g)


def compare(store: Store, g: FormId, h: FormId) -> OrderResult:
    """Four-way comparison of g and h, derived from geq both ways."""
    ge = geq(store, g, h)
    le = geq(store, h, g)
    if ge and le:
        return OrderResult.EQ
    if ge:
        return OrderResult.GT
    if le:
        return OrderResult.LT
    return OrderResult.CONFUSED
