"""Finite monoids as dense multiplication tables.

Elements are the indices 0..n-1; ``table[x][y]`` is the product x*y. Labels
are cosmetic. All structures are immutable once validated and safe to share.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from operator import itemgetter, ne
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    IndexOutOfRange,
    NotACongruence,
    NotAssociative,
    NotHomomorphism,
    NotIdentity,
    ValidationError,
)


@dataclass(frozen=True)
class _Sealed:
    """A record that only its checker, or a builder that proves its axioms,
    makes: each passes this module-private class as ``seal``."""

    seal: InitVar[object] = field(default=None, kw_only=True)

    def __init_subclass__(cls, checker: str) -> None:
        cls._checker = checker

    def __post_init__(self, seal: object) -> None:
        if seal is not _Sealed:
            raise TypeError(f"{type(self).__name__} is made only by {self._checker}")


@dataclass(frozen=True)
class FiniteMonoid:
    n: int
    table: tuple[tuple[int, ...], ...]
    id: int
    labels: tuple[str, ...] | None = None

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def idempotents(self) -> list[int]:
        return [x for x in range(self.n) if self.table[x][x] == x]

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)


@dataclass(frozen=True)
class MonoidMap:
    """A total map between monoids."""

    source: FiniteMonoid
    target: FiniteMonoid
    values: tuple[int, ...]

    def is_injective(self) -> bool:
        return len(set(self.values)) == len(self.values)

    def is_surjective(self) -> bool:
        return len(set(self.values)) == self.target.n


@dataclass(frozen=True)
class Congruence(_Sealed, checker="make_congruence"):
    """Partition of a monoid compatible with multiplication.

    ``class_of`` uses contiguous class indices numbered by first occurrence,
    which makes equal congruences compare equal; ``reps[c]`` is the least
    member of class c.
    """

    monoid: FiniteMonoid
    class_of: tuple[int, ...]
    reps: tuple[int, ...]

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.reps]
        for x, c in enumerate(self.class_of):
            out[c].append(x)
        return out


def validate_monoid(n: int, table: Sequence[Sequence[int]], id: int,
                    labels: Sequence[str] | None = None) -> FiniteMonoid:
    """Check closure, identity and associativity of a table of int cells.

    Associativity is decided by Light's test in O(|A|*n^2) for a generating
    set A; only a table that fails it is scanned triple by triple, in
    lexicographic order, to name the first failing triple as the witness.
    """
    if n <= 0:
        raise ValidationError(f"element count: expected at least 1, got {n}")
    if len(table) != n:
        raise ValidationError(f"row count: expected {n}, got {len(table)}")
    rows = []
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValidationError(f"row {i} length: expected {n}, got {len(row)}")
        r = tuple(row)
        if min(r) < 0 or max(r) >= n:
            bad = next(v for v in r if not 0 <= v < n)
            raise IndexOutOfRange(f"table[{i}]", bad, n)
        rows.append(r)
    t = tuple(rows)
    if not (0 <= id < n):
        raise IndexOutOfRange("identity index", id, n)
    for x in range(n):
        if t[id][x] != x or t[x][id] != x:
            raise NotIdentity(id, x)
    if not _light_associative(t, id):
        for x in range(n):
            tx = t[x]
            for y in range(n):
                txy = t[tx[y]]
                ty = t[y]
                for z in range(n):
                    if txy[z] != tx[ty[z]]:
                        raise NotAssociative(x, y, z)
    lab = tuple(str(s) for s in labels) if labels is not None else None
    if lab is not None and len(lab) != n:
        raise ValidationError(f"label count: expected {n}, got {len(lab)}")
    return FiniteMonoid(n=n, table=t, id=id, labels=lab)


def _generators(t: tuple[tuple[int, ...], ...], id: int) -> list[int]:
    """A generating set, chosen greedily: elements by descending number of
    distinct row entries, then by index, skipping those already reached;
    the reached set grows from 1 by right multiplication with the chosen."""
    n = len(t)
    gens: list[int] = []
    reached = {id}
    for a in sorted(range(n), key=lambda a: (-len(set(t[a])), a)):
        if len(reached) == n:
            break
        if a in reached:
            continue
        gens.append(a)
        frontier = list(reached)
        while frontier:
            row = t[frontier.pop()]
            for g in gens:
                if row[g] not in reached:
                    reached.add(row[g])
                    frontier.append(row[g])
    return gens


def _light_associative(t: tuple[tuple[int, ...], ...], id: int) -> bool:
    """Light's test: (x*a)*y == x*(a*y) for all x, y and each generator a.

    Sound for any table with identity ``id``: the set of a that pass contains
    1 and is closed under the table product, since for passing a and b
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y). Every element
    reached from 1 by right multiplication with generators therefore passes.
    """
    for a in _generators(t, id):
        # x_ay(row x) is the row of x*(a*y) over y; a generator exists only
        # for n >= 2, so the getter returns a tuple to compare with row x*a.
        x_ay = itemgetter(*t[a])
        for tx in t:
            if t[tx[a]] != x_ay(tx):
                return False
    return True


def tabulate(elements: Sequence, mul: Callable, identity, label: Callable[..., str]) \
        -> tuple[FiniteMonoid, dict]:
    """The monoid on ``elements``, closed under ``mul``, with element i being
    ``elements[i]``; also the index from each element to its number."""
    index = {x: i for i, x in enumerate(elements)}
    table = [[index[mul(x, y)] for y in elements] for x in elements]
    labels = [label(x) for x in elements]
    return validate_monoid(len(elements), table, index[identity], labels), index


def backtrack(domains: Sequence[Iterable], accept: Callable[[list, int], bool]) \
        -> Iterator[tuple]:
    """Every tuple a with a[d] drawn from domains[d] and accept(a, d) true as
    each a[d] is set, in lexicographic order; accept reads only a[:d+1].

    A loop over depths, so the stack does not grow with len(domains).
    """
    if not domains:
        yield ()
        return
    a: list = [None] * len(domains)
    todo = [iter(domains[0])]  # per depth, the values not yet tried
    while todo:
        d = len(todo) - 1
        for v in todo[d]:
            a[d] = v
            if accept(a, d):
                if d + 1 == len(a):
                    yield tuple(a)
                else:
                    todo.append(iter(domains[d + 1]))
                break
        else:
            todo.pop()


def make_monoid_map(source: FiniteMonoid, target: FiniteMonoid,
                    values: Sequence[int]) -> MonoidMap:
    """Check that ``values`` is a homomorphism from ``source`` to ``target``."""
    vals = tuple(int(v) for v in values)
    if len(vals) != source.n:
        raise ValidationError(f"map length: expected {source.n}, got {len(vals)}")
    for v in vals:
        if not (0 <= v < target.n):
            raise IndexOutOfRange("map value", v, target.n)
    if vals[source.id] != target.id:
        raise NotHomomorphism(source.id)
    st, tt = source.table, target.table
    for x in range(source.n):
        sx, tvx = st[x], tt[vals[x]]
        for y in range(source.n):
            if vals[sx[y]] != tvx[vals[y]]:
                raise NotHomomorphism(x, y)
    return MonoidMap(source=source, target=target, values=vals)


def first_occurrence_classes(keys: Sequence[int]) -> tuple[int, ...]:
    """Renumber class keys 0, 1, ... in order of first occurrence."""
    renum: dict[int, int] = {}
    return tuple(renum.setdefault(k, len(renum)) for k in keys)


def make_congruence(m: FiniteMonoid, class_of: Sequence[int]) -> Congruence:
    """Canonicalize a class vector and verify compatibility with the table."""
    if len(class_of) != m.n:
        raise ValidationError(f"class vector length: expected {m.n}, got {len(class_of)}")
    # canon numbers the classes 0, 1, ... in order of first occurrence, and
    # least[c] is the least member of class c.
    renum: dict[int, int] = {}
    canon: list[int] = []
    least: list[int] = []
    for x, key in enumerate(class_of):
        c = renum.setdefault(key, len(renum))
        if c == len(least):
            least.append(x)
        canon.append(c)
    rep = list(map(least.__getitem__, canon))
    # Compatibility is equivalent to the product class being a function of
    # the factor classes: the class of x·y is that of rep(x)·rep(y). So each
    # row of classes must be its class's least member's row read at rep(y).
    # The first failing (x, y) in row-major order is the witness, with
    # (rep(x), rep(y)), the first pair in that order with those classes.
    want: list[list[int]] = []
    for x, cx in enumerate(canon):
        row = list(map(canon.__getitem__, m.table[x]))
        if x == least[cx]:
            want.append(list(map(row.__getitem__, rep)))
        expected = want[cx]
        if row != expected:
            y = list(map(ne, row, expected)).index(True)
            raise NotACongruence(((rep[x], rep[y]), (x, y)))
    return Congruence(monoid=m, class_of=tuple(canon), reps=tuple(least), seal=_Sealed)


def quotient(theta: Congruence) -> tuple[FiniteMonoid, MonoidMap]:
    """Quotient monoid on the classes of ``theta`` plus the projection map.

    ``make_congruence`` has checked compatibility, so class c is its least
    member reps[c], multiplied through the representatives; the quotient of a
    monoid by a congruence is a monoid with identity [1], and the projection
    x -> class_of[x] is a homomorphism.
    """
    m, cls, reps = theta.monoid, theta.class_of, theta.reps
    t = m.table
    q = FiniteMonoid(n=len(reps), id=cls[m.id],
                     table=tuple(tuple(cls[t[c][d]] for d in reps) for c in reps),
                     labels=tuple(f"[{m.label(c)}]" for c in reps))
    return q, MonoidMap(m, q, cls)


def direct_product(a: FiniteMonoid, b: FiniteMonoid) -> FiniteMonoid:
    """Componentwise product; element (x,y) is encoded as x*b.n + y."""
    return tabulate([(x, y) for x in range(a.n) for y in range(b.n)],
                    lambda p, q: (a.mul(p[0], q[0]), b.mul(p[1], q[1])), (a.id, b.id),
                    lambda p: f"({a.label(p[0])},{b.label(p[1])})")[0]


def generated_submonoid(m: FiniteMonoid, subset: Sequence[int]) \
        -> tuple[FiniteMonoid, MonoidMap]:
    """Closure of ``subset`` (plus the identity) with its inclusion into ``m``."""
    elems = set(int(x) for x in subset)
    for x in elems:
        if not (0 <= x < m.n):
            raise IndexOutOfRange("generator", x, m.n)
    elems.add(m.id)
    frontier = list(elems)
    while frontier:
        x = frontier.pop()
        for y in list(elems):
            for p in (m.mul(x, y), m.mul(y, x)):
                if p not in elems:
                    elems.add(p)
                    frontier.append(p)
    order = sorted(elems)
    sub, _ = tabulate(order, m.mul, m.id, m.label)
    return sub, MonoidMap(sub, m, tuple(order))


def is_group(m: FiniteMonoid) -> bool:
    """True iff 1 is the only idempotent: some power x^k of each x is idempotent,
    so x^k = 1 and x^(k-1) inverts x; in a group, e*e = e forces e = 1."""
    return m.idempotents() == [m.id]
