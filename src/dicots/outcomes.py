"""Misere outcome solver and the partial order on outcomes.

Under misere play a player who cannot move wins. The outcome of a form says
who wins with optimal play: L (Left wins regardless of who starts), R (Right
wins regardless), N (whoever moves next wins), P (whoever moved previously
wins). Outcomes are ordered from Left's point of view: L is best, R worst,
and N and P are incomparable.
"""

from __future__ import annotations

from enum import Enum

from .forms import FormId, Store, check_id


class Outcome(Enum):
    """Who wins under optimal misere play."""

    L = "L"
    N = "N"
    P = "P"
    R = "R"

    def __str__(self) -> str:
        return self.value


_GE = frozenset(
    [(o, o) for o in Outcome]
    + [
        (Outcome.L, Outcome.N),
        (Outcome.L, Outcome.P),
        (Outcome.L, Outcome.R),
        (Outcome.N, Outcome.R),
        (Outcome.P, Outcome.R),
    ]
)

_CONJ = {
    Outcome.L: Outcome.R,
    Outcome.R: Outcome.L,
    Outcome.N: Outcome.N,
    Outcome.P: Outcome.P,
}


def outcome_geq(a: Outcome, b: Outcome) -> bool:
    """True iff a is at least as good for Left as b (N and P are incomparable)."""
    return (a, b) in _GE


def conjugate_outcome(a: Outcome) -> Outcome:
    """Outcome after swapping the players: L and R trade places, N and P stay."""
    return _CONJ[a]


def left_wins_moving_first(store: Store, g: FormId) -> bool:
    """True iff Left, moving first at g, wins with optimal play."""
    check_id(store, g)
    return _wins(store, store.first_wins_memo, g, store.zero)


def right_wins_moving_first(store: Store, g: FormId) -> bool:
    """True iff Right, moving first at g, wins with optimal play."""
    check_id(store, g)
    return _wins(store, store.first_wins_memo, store.zero, g)


def _wins(store: Store, memo: dict, a: FormId, b: FormId) -> bool:
    """True iff Left, moving first on the difference a - b, wins.

    a - b is a + conjugate(b), never built: Left moves to (aL, b) or
    (a, bR). Right to move on x - y is Left to move on its conjugate y - x,
    so one table keyed (a, b) holds both movers. No move means the opponent
    moved last and loses; otherwise some move must leave the opponent, now
    to move, losing.
    """
    key = (a, b)
    hit = memo.get(key)
    if hit is None:
        al, br = store._lefts[a], store._rights[b]
        hit = not al and not br
        for x in al:
            if not _wins(store, memo, b, x):
                hit = True
                break
        else:
            for y in br:
                if not _wins(store, memo, y, a):
                    hit = True
                    break
        memo[key] = hit
    return hit


def outcome(store: Store, g: FormId) -> Outcome:
    """Misere outcome of g, memoized on the store."""
    check_id(store, g)
    memo = store.outcome_memo
    hit = memo.get(g)
    if hit is None:
        first = store.first_wins_memo
        lf = _wins(store, first, g, store.zero)
        rf = _wins(store, first, store.zero, g)
        if lf:
            hit = Outcome.N if rf else Outcome.L
        else:
            hit = Outcome.R if rf else Outcome.P
        memo[g] = hit
    return hit
