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
substituted for one side, which collapses it to a linear scan. It runs on a
difference a - b, the sum a + conjugate(b) given as the pair of ids (a, b)
and never interned: Left's options are (aL, b) and (a, bR), Right's are
(aR, b) and (a, bL). a - b >= 0 when Left wins moving first and every Right
option admits a Left response that is again >= 0. ``geq_zero(g)`` is the
pair (g, 0) and ``leq_zero(g)`` the pair (0, g), because g <= 0 exactly when
its conjugate 0 - g is >= 0. ``eq_zero`` is both at once. This zero test
serves the invertibility oracle and the public zero tests alone; canonical
forms compare with 0 through ``geq``, so the two routes stay independent.
Each pair kernel owns its memo table on the store, so no caller names one:
``_geq`` keeps ``geq``, ``_geq_zero`` ``geq_zero`` and ``_wins`` ``first_wins``.

The verdicts do not depend on the search order, but the work does, so the
zero test answers from pairs many forms share before pairs of one form: the
win solver reads endgame pairs (a, 0) and (0, b) from the first-mover
results fixed at interning, Left's answers try the mirror self-pair
first and then the moves on the newer form of the pair, and Left's
first-mover win on a - b, a search of that difference alone, is tested
only after every Right option has its answer.
"""

from __future__ import annotations

from enum import Enum

from .forms import FormId, Store, check_id
from .outcomes import _wins


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
    check_id(store, g)
    check_id(store, h)
    return _geq(store, g, h)


def _geq(store: Store, g: FormId, h: FormId) -> bool:
    memo = store.geq_memo
    key = (g, h)
    hit = memo.get(key)
    if hit is None:
        hit = _geq_compute(store, g, h)
        memo[key] = hit
    return hit


def _geq_compute(store: Store, g: FormId, h: FormId) -> bool:
    # The outcome proviso outcome_geq(outcome(g), outcome(h)) fails exactly
    # when h wins where g does not, on the stored first-mover results.
    lw, rw = store._left_wins, store._right_wins
    if lw[h] and not lw[g] or rw[g] and not rw[h]:
        return False
    lefts, rights = store._lefts, store._rights
    for gr in rights[g]:
        for hr in rights[h]:
            if _geq(store, gr, hr):
                break
        else:
            for grl in lefts[gr]:
                if _geq(store, grl, h):
                    break
            else:
                return False
    for hl in lefts[h]:
        for gl in lefts[g]:
            if _geq(store, gl, hl):
                break
        else:
            for hlr in rights[hl]:
                if _geq(store, g, hlr):
                    break
            else:
                return False
    return True


def geq_zero(store: Store, g: FormId) -> bool:
    """True iff g >= 0: Left wins moving first, and every Right option admits
    a Left response that is again >= 0. Agrees with geq(store, g, zero)."""
    check_id(store, g)
    return _geq_zero(store, g, store.zero)


def leq_zero(store: Store, g: FormId) -> bool:
    """True iff g <= 0, that is 0 - g >= 0. Agrees with geq(store, zero, g)."""
    check_id(store, g)
    return _geq_zero(store, store.zero, g)


def _geq_zero(store: Store, a: FormId, b: FormId) -> bool:
    """True iff the difference a - b is >= 0, decided on the pair (a, b)
    and memoized in the store's ``geq_zero`` table.

    Right's threats are answered before Left's first-mover win is tested:
    the answers are mostly pairs shared by many differences and already in
    the table, while ``_wins`` on (a, b) is a search of this difference alone.
    """
    memo = store.geq_zero_memo
    key = (a, b)
    hit = memo.get(key)
    if hit is None:
        hit = True
        for ar in store._rights[a]:
            if not _left_answers(store, ar, b):
                hit = False
                break
        else:
            for bl in store._lefts[b]:
                if not _left_answers(store, a, bl):
                    hit = False
                    break
        if hit:
            hit = _wins(store, a, b)
        memo[key] = hit
    return hit


def _left_answers(store: Store, x: FormId, y: FormId) -> bool:
    """True iff Left has a move from x - y to a difference that is >= 0;
    never on x - x, by induction on x: Right answers xL - x with xL - xL
    and x - xR with xR - xR, from which Left has no such move.

    The mirror answer goes first: when y is a Left option of x, Left can
    move to y - y, and when x is a Right option of y, to x - x. Then come
    the answers that move on the newer side, the one with the larger id,
    then those that move on the older side, each in stored order. Options
    are older than their form, so the earlier answers are pairs of older
    forms, which many differences share and the table mostly holds.
    """
    if x == y:
        return False
    xls, yrs = store._lefts[x], store._rights[y]
    mirror = y if y in xls else x if x in yrs else None
    if mirror is not None and _geq_zero(store, mirror, mirror):
        return True
    if x < y:
        for yr in yrs:
            if yr != mirror and _geq_zero(store, x, yr):
                return True
    for xl in xls:
        if xl != mirror and _geq_zero(store, xl, y):
            return True
    if x >= y:
        for yr in yrs:
            if yr != mirror and _geq_zero(store, x, yr):
                return True
    return False


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
