"""Independent cross-checks used by the tests.

Everything here recomputes results from first principles, sharing no code
path with the library internals beyond the public Store accessors. A
mismatch between these and the library is a test failure, never a reason
to adjust the oracle.
"""

from dicots import Outcome, Store, canonical, explain
from dicots.forms import FormId


def brute_wins(store: Store, g: FormId, left_to_move: bool, memo: dict) -> bool:
    """Plain minimax, no shortcuts: the mover wins iff stuck or some move
    leaves the opponent losing."""
    key = (g, left_to_move)
    got = memo.get(key)
    if got is not None:
        return got
    opts = store.left(g) if left_to_move else store.right(g)
    won = not opts or any(not brute_wins(store, o, not left_to_move, memo) for o in opts)
    memo[key] = won
    return won


def brute_outcome(store: Store, g: FormId, memo: dict) -> Outcome:
    lw = brute_wins(store, g, True, memo)
    rw = brute_wins(store, g, False, memo)
    if lw and rw:
        return Outcome.N
    if lw:
        return Outcome.L
    if rw:
        return Outcome.R
    return Outcome.P


def structure_key(store: Store, g: FormId, memo: dict) -> tuple:
    """The option sets of g, recursively, as sorted nested tuples: the same
    for the same form in any store, whatever ids its history gave it."""
    got = memo.get(g)
    if got is None:
        got = memo[g] = (
            tuple(sorted(structure_key(store, x, memo) for x in store.left(g))),
            tuple(sorted(structure_key(store, x, memo) for x in store.right(g))),
        )
    return got


def day2_by_hand(store: Store) -> dict[str, FormId]:
    """The ten dicots born by day 2, constructed option by option."""
    z = store.zero
    s = store.star
    return {
        "0": z,
        "*": s,
        "{0|*}": store.intern((z,), (s,)),
        "{0|0,*}": store.intern((z,), (z, s)),
        "{*|0}": store.intern((s,), (z,)),
        "{*|*}": store.intern((s,), (s,)),
        "{*|0,*}": store.intern((s,), (z, s)),
        "{0,*|0}": store.intern((z, s), (z,)),
        "{0,*|*}": store.intern((z, s), (s,)),
        "*2": store.intern((z, s), (z, s)),
    }


def _substitute(store: Store, g: FormId, old: FormId, new: FormId, memo: dict) -> FormId:
    if g == old:
        return new
    got = memo.get(g)
    if got is not None:
        return got
    lefts = store.left(g)
    rights = store.right(g)
    out = store.intern(
        [_substitute(store, x, old, new, memo) for x in lefts],
        [_substitute(store, x, old, new, memo) for x in rights],
    )
    memo[g] = out
    return out


def replay(store: Store, g: FormId) -> list[FormId]:
    """Fold the explain() trace as global rewrites, returning every
    intermediate form. The last entry must be canonical(g)."""
    states = [g]
    for step in explain(store, g):
        states.append(_substitute(store, states[-1], step.before, step.after, {}))
    return states


def assert_replay_reaches_canonical(store: Store, g: FormId) -> list[FormId]:
    states = replay(store, g)
    want = canonical(store, g)
    assert states[-1] == want, (
        f"trace replay of form {g} ended at {states[-1]}, canonical is {want}"
    )
    return states
