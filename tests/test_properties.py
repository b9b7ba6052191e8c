"""Property tests over generated dicots: the laws the selftest checks on
enumerated populations, on forms built from braces, sums and conjugates."""

from hypothesis import given, settings, strategies as st

from dicots import (
    Store,
    canonical,
    eq,
    is_invertible,
    notation,
    oracle_invertible,
    outcome,
)

from _oracles import assert_replay_reaches_canonical, brute_outcome

# A form as a build tree: "0" and "*" are leaves; ("{", lefts, rights) has
# both sides non-empty, so every brace is a dicot ({|} is the leaf "0");
# ("+", a, b) is a sum and ("-", a) a conjugate.
def _side(inner):
    return st.lists(inner, min_size=1, max_size=3)


DICOT_TREES = st.recursive(
    st.sampled_from(["0", "*"]),
    lambda inner: st.one_of(
        st.tuples(st.just("{"), _side(inner), _side(inner)),
        st.tuples(st.just("+"), inner, inner),
        st.tuples(st.just("-"), inner),
    ),
    max_leaves=10,
)


def _build(store, tree):
    if tree == "0":
        return store.zero
    if tree == "*":
        return store.star
    op = tree[0]
    if op == "{":
        return store.intern([_build(store, t) for t in tree[1]], [_build(store, t) for t in tree[2]])
    if op == "+":
        return store.sum(_build(store, tree[1]), _build(store, tree[2]))
    return store.conjugate(_build(store, tree[1]))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(DICOT_TREES)
def test_generated_dicots_keep_the_laws(tree):
    """On each generated form g: its trace replays to canonical(g);
    canonical is idempotent and equal to g; the structural invertibility
    verdict on the raw g agrees with the order-theoretic oracle; and the
    outcome agrees with brute-force minimax."""
    store = Store()
    g = _build(store, tree)
    store.validate()
    text = notation(store, g)
    assert_replay_reaches_canonical(store, g)
    c = canonical(store, g)
    assert canonical(store, c) == c, text
    assert eq(store, g, c), text
    assert is_invertible(store, g).verdict == oracle_invertible(store, g), text
    assert outcome(store, g) == brute_outcome(store, g, {}), text
