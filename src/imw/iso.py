"""Certified isomorphism checking.

``verify_iso`` confirms an explicitly given pair of maps; ``brute_force_iso``
searches for one from scratch and is the independent oracle that the theorems
are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import FiniteMonoid, MonoidMap, backtrack, make_monoid_map
from .errors import SizeLimitExceeded, ValidationError

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
            raise ValidationError(
                f"candidate maps are not mutually inverse (backward∘forward fails at {x})")
    for y in range(b.n):
        if fwd.values[bwd.values[y]] != y:
            raise ValidationError(
                f"candidate maps are not mutually inverse (forward∘backward fails at {y})")
    return IsoWitness(a=a, b=b, forward=fwd, backward=bwd)


def element_profile(m: FiniteMonoid, x: int) -> tuple[bool, int, int, int]:
    """Cheap isomorphism invariant: (idempotent?, power index, power period, #generalized inverses)."""
    t = m.table
    seen = {x: 1}
    p = x
    k = 1
    while True:
        p = t[p][x]
        k += 1
        if p in seen:
            index, period = seen[p], k - seen[p]
            break
        seen[p] = k
    tx = t[x]
    geninv = sum(1 for y, xy in enumerate(tx) if t[xy][x] == x and t[t[y][x]][y] == y)
    return (tx[x] == x, index, period, geninv)


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
