"""Brute-force misere outcomes, sharing no code with ``dicots.outcomes``.

Only the store's public ``left``/``right`` accessors are used. The minimax is
written out from the definition: under misere play a player with no move
wins, otherwise the mover wins when some move leaves the opponent, now to
move, losing.
"""

from __future__ import annotations


def mover_wins(store, g: int, left_moves: bool, memo: dict) -> bool:
    key = (g, left_moves)
    if key not in memo:
        moves = store.left(g) if left_moves else store.right(g)
        memo[key] = not moves or not all(
            mover_wins(store, m, not left_moves, memo) for m in moves
        )
    return memo[key]


def outcome_letter(store, g: int, memo: dict) -> str:
    """'L', 'R', 'N' or 'P' by plain minimax."""
    left_first = mover_wins(store, g, True, memo)
    right_first = mover_wins(store, g, False, memo)
    if left_first and right_first:
        return "N"
    if left_first:
        return "L"
    return "R" if right_first else "P"
