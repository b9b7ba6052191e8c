"""Interned store of dicotic game forms.

A form is a pair of finite option sets (Left's and Right's), each option a
previously interned form, with the dicot condition enforced everywhere: at
every position either both players can move or neither can. Forms are
hash-consed into an append-only table, so two forms are structurally
identical exactly when they carry the same integer id. Option sets are kept
sorted by id, which makes identity checks, printing, and iteration order
deterministic.

Besides construction this module provides the structural algebra
(disjunctive sum, conjugate, adjoint, followers), the textual notation, and
a bounded enumerator of all dicots up to a given birthday.

Notation grammar (whitespace insignificant)::

    expr := term ('+' term)*
    term := '-'? game
    game := '0' | '*' nat? | '{' list '|' list '}'
    list := (expr (',' expr)*)?

'+' is disjunctive sum and '-' is conjugation; both are evaluated during
parsing, so the parser always returns a plain interned form. '*' abbreviates
'*1', and '*n' denotes the nimber {0,*,..,*(n-1) | 0,*,..,*(n-1)}. '*0' is
rejected (write '0'). Nimber indices are capped at NIMBER_CAP.
"""

from __future__ import annotations

import random
import threading
from typing import Iterable, Iterator

FormId = int

# Largest nimber index the notation accepts. Printing falls back to brace
# notation above the cap, so parse/notation round-trips hold for every form.
NIMBER_CAP = 31

# Enumeration guard. Birthday 4 already means about 2**1046530 forms.
DEFAULT_BIRTHDAY_BOUND = 3

# Fixed seed so sampled enumeration is reproducible across runs and machines.
ENUMERATION_SEED = 271828


class DicotViolation(ValueError):
    """Raised when exactly one option set of a form would be empty."""


class UnknownId(ValueError):
    """Raised when an id does not name a form interned in the store at hand."""


class BoundExceeded(ValueError):
    """Raised when enumeration is asked to go beyond its birthday bound,
    or below zero (a negative birthday or sample size)."""


class ParseError(ValueError):
    """Notation error; ``position`` is the 0-based offset into the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


# Names of the memo tables every Store owns. Table ``name`` is the store
# attribute ``<name>_memo``; ``Store.cache(name)`` returns that same dict.
MEMO_TABLES = (
    "sum",
    "conjugate",
    "followers",
    "adjoint",
    "first_wins",
    "geq",
    "geq_zero",
    "canonical",
    "canonical_steps",
    "kept",
    "invert",
)


class Store:
    """Append-only interning table for dicot forms.

    Ids are indices into the table and stay valid for the store's lifetime.
    Get-or-insert is atomic: one plain lock, taken only to insert a new
    form, guards insertion. Everything else built on top is a pure memoized
    function of ids, so concurrent readers are safe. ``zero`` and ``star``
    are pre-interned with ids 0 and 1.

    Interning a form fixes its birthday and whether each player wins moving
    first, read off its options' own entries; ``birthday`` and
    ``outcomes.outcome`` look them up.

    The memo tables are plain dict attributes named ``<name>_memo``, one per
    entry of MEMO_TABLES, keyed by form id (or id pair) and filled by the
    function they memoize, here or in the module that defines it.

    Inside the package options are read one way: ``_lefts`` and
    ``_rights`` are indexed directly. The module-level public functions
    (``outcome``, ``geq``, ``canonical``, ``is_invertible``, ``notation``,
    ...) first pass each id they are handed through ``check_id``, or to a
    public function that does; the methods here do not. The checked
    ``left`` and ``right`` are for callers outside the package.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._lefts: list[tuple[FormId, ...]] = []
        self._rights: list[tuple[FormId, ...]] = []
        self._ids: dict[tuple, FormId] = {}
        self._birthdays: list[int] = []
        self._left_wins: list[bool] = []
        self._right_wins: list[bool] = []
        self.sum_memo: dict = {}
        self.conjugate_memo: dict = {}
        self.followers_memo: dict = {}
        self.adjoint_memo: dict = {}
        self.first_wins_memo: dict = {}
        self.geq_memo: dict = {}
        self.geq_zero_memo: dict = {}
        self.canonical_memo: dict = {}
        self.canonical_steps_memo: dict = {}
        self.kept_memo: dict = {}
        self.invert_memo: dict = {}
        self.zero = self.intern((), ())
        self.star = self.intern((self.zero,), (self.zero,))

    def __len__(self) -> int:
        return len(self._lefts)

    def intern(self, left: Iterable[FormId], right: Iterable[FormId]) -> FormId:
        """Return the id of the form with the given option sets.

        Options are deduplicated and sorted; interning the same sets twice
        yields the same id. Raises DicotViolation when exactly one side is
        empty and UnknownId when an option id is not in the table. The
        table's length is read without the lock: ids only grow, so an id
        below it stays valid.
        """
        l, r = tuple(left), tuple(right)
        if bool(l) != bool(r):
            raise DicotViolation(
                "one-sided form: a dicot has moves for both players or neither"
            )
        n = len(self._lefts)
        for x in l + r:
            # bool is an int subclass; True and False are not ids.
            if type(x) is not int or not 0 <= x < n:
                raise UnknownId(f"option {x!r} is not an interned form")
        return self._intern_sorted(tuple(sorted(set(l))), tuple(sorted(set(r))))

    def _intern_sorted(self, l: tuple[FormId, ...], r: tuple[FormId, ...]) -> FormId:
        """``intern`` for option tuples the store itself produced: interned
        ids, sorted, duplicate free, and both sides empty or neither. Nothing
        is checked. A hit takes no lock; a miss takes the store's plain lock,
        once, and looks again under it. A new form's facts go in before its
        options (which ``check_id`` and ``intern`` count), and its id into
        ``_ids`` last, so a lock-free reader never sees an id it cannot look
        up."""
        key = (l, r)
        gid = self._ids.get(key)
        if gid is None:
            with self._lock:
                gid = self._ids.get(key)
                if gid is None:
                    births, lwins, rwins = self._birthdays, self._left_wins, self._right_wins
                    b, lw, rw = 0, not l, not r
                    for x in l:
                        if births[x] >= b:
                            b = births[x] + 1
                        if not rwins[x]:
                            lw = True
                    for x in r:
                        if births[x] >= b:
                            b = births[x] + 1
                        if not lwins[x]:
                            rw = True
                    births.append(b)
                    lwins.append(lw)
                    rwins.append(rw)
                    gid = len(self._lefts)
                    self._lefts.append(l)
                    self._rights.append(r)
                    self._ids[key] = gid
        return gid

    def left(self, g: FormId) -> tuple[FormId, ...]:
        """Left options of g, sorted by id."""
        check_id(self, g)
        return self._lefts[g]

    def right(self, g: FormId) -> tuple[FormId, ...]:
        """Right options of g, sorted by id."""
        check_id(self, g)
        return self._rights[g]

    def cache(self, name: str) -> dict:
        """The memo table called ``name`` in MEMO_TABLES: the very dict held
        by the attribute ``<name>_memo``. Raises KeyError for other names."""
        if name not in MEMO_TABLES:
            raise KeyError(f"no memo table named {name!r}")
        return getattr(self, name + "_memo")

    def stats(self) -> dict[str, int]:
        """Number of interned forms (``forms``) and the size of every memo
        table, by name. A memo miss inserts one entry (two for
        ``conjugate``: g and its conjugate), so sizes count the work done."""
        out = {"forms": len(self)}
        for name in MEMO_TABLES:
            out[name] = len(self.cache(name))
        return out

    def _unbuilt(self, memo: dict, g: FormId) -> list[FormId]:
        """g and every follower without an entry in ``memo`` reached from g
        through such followers, in ascending id order. Options are older
        than their forms, so a table filled in this order finds each
        option's entry in place. The walk is on an explicit stack, so deep
        forms need no deep recursion."""
        lefts, rights = self._lefts, self._rights
        seen = {g}
        stack = [g]
        while stack:
            x = stack.pop()
            for o in lefts[x] + rights[x]:
                if o not in memo and o not in seen:
                    seen.add(o)
                    stack.append(o)
        return sorted(seen)

    def conjugate(self, g: FormId) -> FormId:
        """Swap the players everywhere. An involution.

        On a miss every unbuilt follower gets its conjugate, in ascending id
        order, with the pair stored both ways; a follower that is the
        conjugate of one built before it in the walk is skipped.
        """
        memo = self.conjugate_memo
        c = memo.get(g)
        if c is None:
            lefts, rights = self._lefts, self._rights
            for x in self._unbuilt(memo, g):
                if x not in memo:
                    c = self._intern_sorted(
                        tuple(sorted([memo[o] for o in rights[x]])),
                        tuple(sorted([memo[o] for o in lefts[x]])),
                    )
                    memo[x] = c
                    memo[c] = x
            c = memo[g]
        return c

    def sum(self, g: FormId, h: FormId) -> FormId:
        """Disjunctive sum: move in one component, the other stays put."""
        if h < g:
            g, h = h, g
        if g == 0:  # the endgame, pre-interned as id 0
            return h
        key = (g, h)
        s = self.sum_memo.get(key)
        if s is None:
            add = self.sum
            lefts, rights = self._lefts, self._rights
            left = {add(gl, h) for gl in lefts[g]}
            left.update([add(g, hl) for hl in lefts[h]])
            right = {add(gr, h) for gr in rights[g]}
            right.update([add(g, hr) for hr in rights[h]])
            s = self._intern_sorted(tuple(sorted(left)), tuple(sorted(right)))
            self.sum_memo[key] = s
        return s

    def adjoint(self, g: FormId) -> FormId:
        """The adjoint of g: a form whose sum with g is a previous-player win.

        The adjoint of the endgame is *; otherwise Left's options are the
        adjoints of g's Right options and Right's the adjoints of g's Left
        options. (Outside the dicots a player without a move gets the option
        0 instead; in a dicot store no form is one-sided.) On a miss every
        unbuilt follower gets its adjoint, in ascending id order.
        """
        memo = self.adjoint_memo
        a = memo.get(g)
        if a is None:
            lefts, rights = self._lefts, self._rights
            for x in self._unbuilt(memo, g):
                # The adjoint is injective, so neither side has duplicates.
                if lefts[x]:
                    memo[x] = self._intern_sorted(
                        tuple(sorted([memo[o] for o in rights[x]])),
                        tuple(sorted([memo[o] for o in lefts[x]])),
                    )
                else:
                    memo[x] = self.star
            a = memo[g]
        return a

    def birthday(self, g: FormId) -> int:
        """Height of the game tree: 0 for the endgame, else 1 + max over
        options. Fixed when g was interned."""
        return self._birthdays[g]

    def followers(self, g: FormId) -> tuple[FormId, ...]:
        """All positions reachable by any sequence of moves, g included, sorted by id.

        Only the form asked for gets a memo entry, so memory stays linear in
        the answers; a follower that has an entry already contributes it
        whole. The rest is walked on an explicit stack, so deep forms need
        no deep Python recursion. Options are older than their forms, so
        ascending id order lists every follower after its own followers.
        """
        memo = self.followers_memo
        f = memo.get(g)
        if f is None:
            lefts, rights = self._lefts, self._rights
            seen = {g}
            stack = [g]
            while stack:
                x = stack.pop()
                for o in lefts[x] + rights[x]:
                    if o in seen:
                        continue
                    known = memo.get(o)
                    if known is None:
                        seen.add(o)
                        stack.append(o)
                    else:
                        seen.update(known)
            f = memo[g] = tuple(sorted(seen))
        return f

    def nimber(self, n: int) -> FormId:
        """The nimber *n; *0 is the endgame and *1 is star."""
        if n < 0:
            raise ValueError("nimber index must be >= 0")
        g = self.zero
        prev: tuple[FormId, ...] = ()
        for _ in range(n):
            prev += (g,)  # *k has *(k-1) as an option, so a larger id
            g = self._intern_sorted(prev, prev)
        return g

    def nimber_index(self, g: FormId) -> int | None:
        """n when g is structurally the nimber *n (n <= NIMBER_CAP), else None.

        g is *n exactly when its options on both sides are *0, ..., *(n-1).
        Each is looked up, never interned, so printing leaves the store as
        it is.
        """
        l, r = self._lefts[g], self._rights[g]
        if l != r or len(l) > NIMBER_CAP:
            return None
        prev: tuple[FormId, ...] = ()
        for x in l:
            if self._ids.get((prev, prev)) != x:
                return None
            prev += (x,)
        return len(l)

    def validate(self) -> None:
        """Check structural invariants of the whole table; raises on damage.

        Every option id must be smaller than its form's id (the table is
        acyclic by construction), option tuples must be sorted and duplicate
        free, the dicot condition must hold everywhere, and each form's
        birthday and first-mover wins must be those its options give.
        """
        births, lwins, rwins = self._birthdays, self._left_wins, self._right_wins
        for gid in range(len(self._lefts)):
            l, r = self._lefts[gid], self._rights[gid]
            if bool(l) != bool(r):
                raise DicotViolation(f"form {gid} is one-sided")
            for x in l + r:
                if not 0 <= x < gid:
                    raise ValueError(f"form {gid} has an option {x} not older than itself")
            if l != tuple(sorted(set(l))) or r != tuple(sorted(set(r))):
                raise ValueError(f"form {gid} has unsorted or duplicated options")
            facts = (
                max([births[x] + 1 for x in l + r], default=0),
                not l or not all([rwins[x] for x in l]),
                not r or not all([lwins[x] for x in r]),
            )
            if facts != (births[gid], lwins[gid], rwins[gid]):
                raise ValueError(f"form {gid} has a wrong birthday or outcome")


def check_id(store: Store, g: object) -> None:
    """Raise UnknownId unless g is the id of a form in ``store``: a plain
    int (not a bool) in range. Negative ids are refused, not counted from
    the end."""
    if type(g) is not int or not 0 <= g < len(store._lefts):
        raise UnknownId(f"form {g!r} is not in this store")


class _Parser:
    def __init__(self, store: Store, text: str):
        self._store = store
        self._text = text
        self._pos = 0

    def parse(self) -> FormId:
        g = self._expr()
        if self._peek():
            raise ParseError("unexpected trailing input", self._pos)
        return g

    def _peek(self) -> str:
        t = self._text
        while self._pos < len(t) and t[self._pos].isspace():
            self._pos += 1
        return t[self._pos] if self._pos < len(t) else ""

    def _expr(self) -> FormId:
        g = self._term()
        while self._peek() == "+":
            self._pos += 1
            g = self._store.sum(g, self._term())
        return g

    def _term(self) -> FormId:
        if self._peek() == "-":
            self._pos += 1
            return self._store.conjugate(self._game())
        return self._game()

    def _game(self) -> FormId:
        c = self._peek()
        if c == "0":
            self._pos += 1
            return self._store.zero
        if c == "*":
            self._pos += 1
            start = self._pos
            t = self._text
            while self._pos < len(t) and t[self._pos] in "0123456789":
                self._pos += 1
            if self._pos == start:
                return self._store.star
            n = int(t[start : self._pos])
            if n == 0:
                raise ParseError("*0 is not a form, write 0", start)
            if n > NIMBER_CAP:
                raise ParseError(f"nimber index above cap {NIMBER_CAP}", start)
            return self._store.nimber(n)
        if c == "{":
            self._pos += 1
            left = self._options("|")
            self._expect("|")
            right = self._options("}")
            self._expect("}")
            return self._store.intern(left, right)
        raise ParseError("expected '0', '*' or '{'", self._pos)

    def _options(self, closer: str) -> list[FormId]:
        if self._peek() == closer:
            return []
        out = [self._expr()]
        while self._peek() == ",":
            self._pos += 1
            out.append(self._expr())
        return out

    def _expect(self, c: str) -> None:
        if self._peek() != c:
            raise ParseError(f"expected '{c}'", self._pos)
        self._pos += 1


def parse(store: Store, text: str) -> FormId:
    """Parse notation into an interned form; see the module docstring for the grammar."""
    return _Parser(store, text).parse()


def notation(store: Store, g: FormId) -> str:
    """Deterministic textual form of g; parse(store, notation(store, g)) == g.

    Nimbers are printed with their shorthand, everything else as braces with
    options in stored (sorted id) order. The form is walked on an explicit
    stack of ids and literal tokens, so deep forms need no deep recursion.
    """
    check_id(store, g)
    lefts, rights = store._lefts, store._rights
    out: list[str] = []
    stack: list = [g]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
            continue
        n = store.nimber_index(x)
        if n == 0:
            out.append("0")
        elif n == 1:
            out.append("*")
        elif n:
            out.append(f"*{n}")
        else:
            tokens: list = ["{"]
            for side, closer in ((lefts[x], "|"), (rights[x], "}")):
                for i, o in enumerate(side):
                    if i:
                        tokens.append(",")
                    tokens.append(o)
                tokens.append(closer)
            stack.extend(reversed(tokens))
    return "".join(out)


def _subsets(population: list[FormId]) -> list[tuple[FormId, ...]]:
    """Every subset of ``population`` as a sorted option tuple, indexed by
    bitmask: bit i of the index selects ``population[i]``, and entry 0 is
    the empty tuple."""
    subsets: list[tuple[FormId, ...]] = [()]
    for g in population:
        subsets += [tuple(sorted(s + (g,))) for s in subsets]
    return subsets


def _layer_sizes(max_birthday: int) -> list[int]:
    """Form counts per birthday; options draw on every strictly younger form."""
    sizes = [1]
    older = 0  # forms of birthday <= d-2
    total = 1  # forms of birthday <= d-1
    for _ in range(max_birthday):
        full = (1 << total) - 1
        small = (1 << older) - 1
        sizes.append(full * full - small * small)
        older, total = total, total + sizes[-1]
    return sizes


def enumerate_dicots(
    store: Store,
    max_birthday: int,
    limit: int | None = None,
    *,
    seed: int = ENUMERATION_SEED,
) -> Iterator[FormId]:
    """Yield every dicot of birthday <= max_birthday exactly once.

    Order is deterministic: day by day, and within a day by ascending
    (left, right) subset masks over the previously generated population,
    skipping pairs already generated on an earlier day. With ``limit`` set
    to less than the population size, yields a fixed-seed pseudo-random
    sample of that many forms instead (a subsequence of the full order);
    with ``limit`` at least the population size, yields everything.

    Raises BoundExceeded when max_birthday exceeds DEFAULT_BIRTHDAY_BOUND
    (3) or when max_birthday or ``limit`` is negative. The bound is
    deliberate: day-4 populations are astronomically large.

    Both paths build each option subset of the previous population once
    per mask, as a sorted tuple (1,023 of them for day 3), and intern every
    form from two of them unchecked: population ids are distinct interned
    forms and masks are never 0, so each pair is a valid dicot.
    """
    if max_birthday < 0:
        raise BoundExceeded("max_birthday must be >= 0")
    if max_birthday > DEFAULT_BIRTHDAY_BOUND:
        raise BoundExceeded(f"max_birthday {max_birthday} exceeds bound {DEFAULT_BIRTHDAY_BOUND}")
    if limit is not None:
        yield from _sample(store, max_birthday, limit, seed)
        return
    population: list[FormId] = [store.zero]
    yield store.zero
    older = 0
    for _day in range(max_birthday):
        prev = len(population)
        small = (1 << older) - 1
        subsets = _subsets(population)
        layer: list[FormId] = []
        for mi in range(1, 1 << prev):
            li = subsets[mi]
            rstart = small + 1 if mi <= small else 1
            for ri in range(rstart, 1 << prev):
                form = store._intern_sorted(li, subsets[ri])
                layer.append(form)
                yield form
        population.extend(layer)
        older = prev


def _sample(store: Store, max_birthday: int, limit: int, seed: int):
    if limit < 0:
        raise BoundExceeded("limit must be >= 0")
    sizes = _layer_sizes(max_birthday)
    total = sum(sizes)
    if limit >= total:
        yield from enumerate_dicots(store, max_birthday, None, seed=seed)
        return
    if max_birthday == 0:  # day 0 holds one form, so limit is 0 here
        return
    picks = sorted(random.Random(seed).sample(range(total), limit))
    population = list(enumerate_dicots(store, max_birthday - 1, None))
    subsets = _subsets(population)
    base = len(population)  # == total - sizes[-1]
    older = base - sizes[-2]  # forms of birthday <= max_birthday - 2
    small = (1 << older) - 1
    full = (1 << base) - 1
    small_rows = small * (full - small)
    for idx in picks:
        if idx < base:
            yield population[idx]
            continue
        r = idx - base
        if r < small_rows:
            mi = 1 + r // (full - small)
            ri = small + 1 + r % (full - small)
        else:
            r2 = r - small_rows
            mi = small + 1 + r2 // full
            ri = 1 + r2 % full
        yield store._intern_sorted(subsets[mi], subsets[ri])
