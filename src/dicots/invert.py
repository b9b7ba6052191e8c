"""Invertibility of dicots under misere play.

A form G is invertible when some H sums with it to a form equivalent to 0;
the only candidate is the conjugate of G, so invertibility is decidable two
independent ways. ``is_invertible`` uses the structural criterion: after
canonicalising, G is invertible exactly when no follower G' of the canonical
form has G' + conjugate(G') as a previous-player win. That self-pair is the
difference G' - G', decided on the pair (G', G') of ids by the win solver:
it is its own conjugate, so Left and Right moving first ask the same
question, and it is P exactly when the mover loses. Canonical forms are
unique, so the scan is a property of the value: it runs once per canonical
form and is memoized in the store's ``invert`` table. ``oracle_invertible``
instead asks the order machinery directly whether G + conjugate(G) is
equivalent to 0, on the difference G - G held as the pair (G, G) of ids.
Neither route builds a sum or a conjugate, and besides the interned forms
the two share only the win solver and its ``first_wins`` table. They must
agree; the test suite sweeps that agreement across whole populations.

``lemma_witness`` and ``lemma_check`` exercise the fact that strictly
positive forms stay non-negative in the presence of any pair H - H: when
H + conjugate(H) is not equivalent to 0, there is a dicot X whose outcome
changes when that pair is added, and the construction here produces one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import canonical
from .forms import FormId, Store, check_id, notation
from .order import OrderResult, _geq_zero, compare
from .outcomes import Outcome, _wins


class PreconditionViolated(ValueError):
    """Raised when lemma_check is handed a g that is not strictly positive."""


@dataclass(frozen=True, slots=True)
class InvertReport:
    """Everything is_invertible looked at, for auditing.

    ``follower_outcomes`` maps each follower f of the canonical form, in
    ascending id order, to the outcome of f + conjugate(f): N or P, since
    the self-pair is its own conjugate. The verdict is true exactly when no
    entry is P, and ``witness`` is the least follower breaking it otherwise.
    Every report holds its own copy of the map, so changing it changes no
    later report.
    """

    input: FormId
    canonical: FormId
    follower_outcomes: dict
    verdict: bool
    witness: FormId | None


def is_invertible(store: Store, g: FormId) -> InvertReport:
    """Decide invertibility of g by the follower scan over its canonical form.

    The scan is memoized per canonical form, and each follower's self-pair
    is decided on the id pair (f, f) without building f + conjugate(f).
    """
    c = canonical(store, g)
    scan = store.invert_memo.get(c)
    if scan is None:
        follower_outcomes: dict = {}
        witness = None
        for f in store.followers(c):
            if _wins(store, f, f):
                follower_outcomes[f] = Outcome.N
            else:
                follower_outcomes[f] = Outcome.P
                if witness is None:
                    witness = f
        scan = store.invert_memo[c] = (follower_outcomes, witness)
    follower_outcomes, witness = scan
    return InvertReport(g, c, dict(follower_outcomes), witness is None, witness)


def inverse(store: Store, g: FormId) -> FormId | None:
    """The inverse of g modulo dicots (the conjugate of its canonical form),
    or None when g is not invertible. When a form comes back, summing it
    with g is equivalent to 0."""
    if is_invertible(store, g).verdict:
        return store.conjugate(canonical(store, g))
    return None


def oracle_invertible(store: Store, g: FormId) -> bool:
    """Invertibility decided the direct way: is g + conjugate(g) equal to 0?

    The sum is the difference g - g, decided as the pair (g, g) without
    interning anything. g - g is its own conjugate, and g - g <= 0 means
    that its conjugate is >= 0, so the <= 0 half of equality with 0 is the
    >= 0 half again: one zero test settles it.
    """
    check_id(store, g)
    return _geq_zero(store, g, g)


def lemma_witness(store: Store, h: FormId) -> FormId | None:
    """A dicot whose outcome separates h + conjugate(h) from 0, or None when
    the pair is equivalent to 0 and no such dicot exists.

    When the pair is a previous-player win, * works: Left entering the pair
    plus * removes the star and wins. Otherwise the pair is a next-player
    win by symmetry, and {0 | {adjoints of all its followers | 0}} works.

    The pair is the difference h - h, its own conjugate: its zero test is
    the >= 0 half alone and its outcome is P exactly when the mover loses,
    both decided on the id pair (h, h). Only the N case builds the pair,
    because the adjoint construction needs its followers.
    """
    check_id(store, h)
    if _geq_zero(store, h, h):
        return None
    if not _wins(store, h, h):
        return store.star
    s = store.sum(h, store.conjugate(h))
    adjoints = {store.adjoint(f) for f in store.followers(s)}
    inner = store.intern(adjoints, (store.zero,))
    return store.intern((store.zero,), (inner,))


def lemma_check(store: Store, g: FormId, h: FormId) -> bool:
    """For strictly positive g, report whether g + h - h avoids dropping
    below 0. Raises PreconditionViolated unless compare(g, 0) is GT."""
    check_id(store, g)
    check_id(store, h)
    if compare(store, g, store.zero) is not OrderResult.GT:
        raise PreconditionViolated("lemma_check needs g strictly greater than 0")
    total = store.sum(store.sum(g, h), store.conjugate(h))
    return compare(store, total, store.zero) is not OrderResult.LT


def report_as_dict(store: Store, report: InvertReport) -> dict:
    """Serializable view of an InvertReport, forms rendered in notation."""
    d: dict = {
        "input": notation(store, report.input),
        "canonical": notation(store, report.canonical),
        "verdict": report.verdict,
    }
    if report.witness is not None:
        d["witness"] = notation(store, report.witness)
    d["follower_outcomes"] = {
        notation(store, f): o.value for f, o in report.follower_outcomes.items()
    }
    return d
