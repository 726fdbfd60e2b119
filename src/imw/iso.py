"""Certified isomorphism checking.

``verify_iso`` confirms an explicitly given pair of maps; ``brute_force_iso``
searches for one from scratch and is the independent oracle that the theorems
and ``canonical_table``, a complete isomorphism invariant, are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations, product
from typing import Sequence

from .core import FiniteMonoid, MonoidMap, backtrack, make_monoid_map
from .errors import NotInverse, SizeLimitExceeded

DEFAULT_ISO_LIMIT = 12


@dataclass(frozen=True)
class IsoWitness:
    a: FiniteMonoid
    b: FiniteMonoid
    forward: MonoidMap
    backward: MonoidMap


def verify_iso(a: FiniteMonoid, b: FiniteMonoid,
               forward: Sequence[int], backward: Sequence[int]) -> IsoWitness:
    """Check homomorphy of both maps and that they compose to the identities."""
    fwd = make_monoid_map(a, b, forward)
    bwd = make_monoid_map(b, a, backward)
    for x in range(a.n):
        if bwd.values[fwd.values[x]] != x:
            raise NotInverse(x, "backward∘forward")
    for y in range(b.n):
        if fwd.values[bwd.values[y]] != y:
            raise NotInverse(y, "forward∘backward")
    return IsoWitness(a=a, b=b, forward=fwd, backward=bwd)


def element_profile(m: FiniteMonoid, x: int) -> tuple[bool, int, int, int]:
    """Cheap isomorphism invariant: (idempotent?, power index, power period, #generalized inverses)."""
    seen = {x: 1}
    p = x
    k = 1
    while True:
        p = m.mul(p, x)
        k += 1
        if p in seen:
            index, period = seen[p], k - seen[p]
            break
        seen[p] = k
    geninv = sum(1 for y in range(m.n)
                 if m.mul(m.mul(x, y), x) == x and m.mul(m.mul(y, x), y) == y)
    return (m.is_idempotent(x), index, period, geninv)


def _rank(signatures: list) -> list[int]:
    """Each signature's rank among the distinct signatures, in sorted order."""
    rank = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    return [rank[sig] for sig in signatures]


def _cells(m: FiniteMonoid) -> list[list[int]]:
    """m's elements grouped by colour refinement, the cells in colour order.

    The identity starts alone in the least colour, and every other x in the
    colour of its profile. Each round refines the colour of x by the
    multiset, over all y, of (c(y), c(xy), c(yx), xy = x, xy = y, yx = x,
    yx = y), until the number of colours stops growing. Colours are ranks of
    signatures, never element indices, so an isomorphism maps every cell
    onto the cell of the same rank.
    """
    n, t = m.n, m.table
    colour = _rank([(False,) if x == m.id else (True, element_profile(m, x))
                    for x in range(n)])
    while True:
        refined = _rank([(colour[x], tuple(sorted(
            (colour[y], colour[t[x][y]], colour[t[y][x]],
             t[x][y] == x, t[x][y] == y, t[y][x] == x, t[y][x] == y)
            for y in range(n)))) for x in range(n)])
        if max(refined) == max(colour):
            break
        colour = refined
    cells: list[list[int]] = [[] for _ in range(max(colour) + 1)]
    for x in range(n):
        cells[colour[x]].append(x)
    return cells


def canonical_table(m: FiniteMonoid) -> tuple[tuple[int, ...], ...]:
    """Least relabelling of m's table by an order with the identity first and
    then the cells of the refined colouring in colour order, over all orders
    within each cell. Equal iff isomorphic, since an isomorphism keeps the
    identity and maps each cell onto the cell of the same colour."""
    def relabel(cell_orders) -> tuple[tuple[int, ...], ...]:
        order = list(chain.from_iterable(cell_orders))
        pos = {x: i for i, x in enumerate(order)}
        return tuple(tuple(pos[m.table[x][y]] for y in order) for x in order)
    return min(map(relabel, product(*map(permutations, _cells(m)))))


def _search(a: FiniteMonoid, b: FiniteMonoid,
            candidates: list[list[int]]) -> tuple[int, ...] | None:
    """The first injective map x -> fwd[x] from candidates[x] that keeps every
    product; an instance p*q = r is checked at the depth of its last index,
    the first at which fwd[p], fwd[q] and fwd[r] are all set. Those with x as
    a factor are read from row and column x; only those whose product
    exceeds both factors are indexed, under the product."""
    ta, tb = a.table, b.table
    above: list[list[tuple[int, int]]] = [[] for _ in range(a.n)]
    for p, row in enumerate(ta):
        for q, r in enumerate(row):
            if r > p and r > q:
                above[r].append((p, q))

    def accept(fwd: list, x: int) -> bool:
        fx = fwd[x]
        if fx in fwd[:x]:
            return False
        image = tb[fx]
        return all(image[fwd[q]] == fwd[r] for q, r in enumerate(ta[x][:x + 1]) if r <= x) \
            and all(tb[fwd[p]][fx] == fwd[ta[p][x]] for p in range(x) if ta[p][x] <= x) \
            and all(tb[fwd[p]][fwd[q]] == fx for p, q in above[x])

    return next(backtrack(candidates, accept), None)


def brute_force_iso(a: FiniteMonoid, b: FiniteMonoid,
                    max_n: int = DEFAULT_ISO_LIMIT) -> IsoWitness | None:
    """First isomorphism found in a deterministic backtracking order, or None."""
    if a.n != b.n:
        return None
    n = a.n
    if n > max_n:
        raise SizeLimitExceeded(n, max_n)
    prof_a = [element_profile(a, x) for x in range(n)]
    prof_b = [element_profile(b, x) for x in range(n)]
    if sorted(prof_a) != sorted(prof_b):
        return None
    candidates = []
    for x in range(n):
        if x == a.id:
            candidates.append([b.id])
        else:
            candidates.append([y for y in range(n)
                               if y != b.id and prof_b[y] == prof_a[x]])
    fwd = _search(a, b, candidates)
    if fwd is None:
        return None
    back = [0] * n
    for x, y in enumerate(fwd):
        back[y] = x
    return verify_iso(a, b, fwd, back)
