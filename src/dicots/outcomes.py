"""Misere outcome solver and the partial order on outcomes.

Under misere play a player who cannot move wins. The outcome of a form says
who wins with optimal play: L (Left wins regardless of who starts), R (Right
wins regardless), N (whoever moves next wins), P (whoever moved previously
wins). Outcomes are ordered from Left's point of view: L is best, R worst,
and N and P are incomparable.

The store fixes who wins each form moving first when it interns the form;
the pair solver ``_wins`` asks the same of a difference a - b never interned.
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


# Reading a member off the Enum class is slow on Python 3.11.
_L, _N, _P, _R = Outcome.L, Outcome.N, Outcome.P, Outcome.R


def outcome_geq(a: Outcome, b: Outcome) -> bool:
    """True iff a is at least as good for Left as b: L is above every
    outcome, R below every outcome, and N and P are incomparable."""
    return a is b or a is _L or b is _R


def conjugate_outcome(a: Outcome) -> Outcome:
    """Outcome after swapping the players: Left wins moving first exactly
    when Right did, so L and R trade places and N and P stay."""
    return _outcome_of(a is _R or a is _N, a is _L or a is _N)


def left_wins_moving_first(store: Store, g: FormId) -> bool:
    """True iff Left, moving first at g, wins with optimal play."""
    check_id(store, g)
    return store._left_wins[g]


def right_wins_moving_first(store: Store, g: FormId) -> bool:
    """True iff Right, moving first at g, wins with optimal play."""
    check_id(store, g)
    return store._right_wins[g]


def _wins(store: Store, a: FormId, b: FormId) -> bool:
    """True iff Left, moving first on the difference a - b, wins.

    a - b is a + conjugate(b), never built: Left moves to (aL, b) or
    (a, bR). Right to move on x - y is Left to move on its conjugate y - x,
    so the store's ``first_wins`` table, keyed (a, b) and read by this
    function alone, holds both movers. No move means the opponent moved
    last and loses; otherwise some move must leave the opponent, now to
    move, losing. A pair with the endgame on one side is a form the store
    has interned, so it is read from the first-mover results fixed then and
    never enters the table.
    """
    if b == 0:  # a - 0 is a: the stored first-mover fact
        return store._left_wins[a]
    if a == 0:  # 0 - b is b with Right to move
        return store._right_wins[b]
    memo = store.first_wins_memo
    key = (a, b)
    hit = memo.get(key)
    if hit is None:
        hit = False  # Left has a move: a and b are nonzero dicots
        for x in store._lefts[a]:
            if not _wins(store, b, x):
                hit = True
                break
        else:
            for y in store._rights[b]:
                if not _wins(store, y, a):
                    hit = True
                    break
        memo[key] = hit
    return hit


def _outcome_of(left_first: bool, right_first: bool) -> Outcome:
    """The outcome of a form that Left, moving first, wins exactly when
    ``left_first`` and Right exactly when ``right_first``."""
    if left_first:
        return _N if right_first else _L
    return _R if right_first else _P


def outcome(store: Store, g: FormId) -> Outcome:
    """Misere outcome of g, from the first-mover results fixed when g was
    interned."""
    check_id(store, g)
    return _outcome_of(store._left_wins[g], store._right_wins[g])
