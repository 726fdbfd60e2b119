"""Inverse-monoid recognition and its order-theoretic apparatus.

Covers unique generalized inverses, the idempotent semilattice, the natural
partial order, the minimum group congruence, and the E-unitary / F-inverse /
Clifford predicates with explicit counterexample witnesses. Each
``InverseMonoid`` derives σ, E(M), M/σ and every verdict at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import TYPE_CHECKING

from .core import (
    Congruence,
    FiniteMonoid,
    MonoidMap,
    _Sealed,
    make_congruence,
    quotient,
)
from .errors import NoInverse, NonUniqueInverse, ValidationError

if TYPE_CHECKING:
    from .extension import WSFInverseReport


@dataclass(frozen=True)
class InverseMonoid(_Sealed, checker="validate_inverse"):
    base: FiniteMonoid
    inv: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def id(self) -> int:
        return self.base.id

    def mul(self, x: int, y: int) -> int:
        return self.base.table[x][y]

    def label(self, x: int) -> str:
        return self.base.label(x)

    def leq(self, x: int, y: int) -> bool:  # the natural order: x = x*inv(x)*y
        t = self.base.table
        return t[t[x][self.inv[x]]][y] == x

    @cached_property
    def sigma(self) -> Congruence:
        return min_group_congruence(self)

    @cached_property
    def e_unitary(self) -> Verdict:
        return is_e_unitary(self)

    @cached_property
    def f_inverse(self) -> FInverseResult:
        return is_f_inverse(self)

    @cached_property
    def clifford(self) -> Verdict:
        return is_clifford(self)

    @cached_property
    def weakly_schreier(self) -> WSFInverseReport:  # KernelMismatch unless E-unitary
        from .extension import weakly_schreier_iff_f_inverse
        return weakly_schreier_iff_f_inverse(self)

    @cached_property
    def semilattice(self) -> tuple[SemilatticeMonoid, MonoidMap]:  # E(M) and k
        return idempotent_semilattice(self)

    @cached_property
    def idempotent_index(self) -> dict[int, int]:  # each idempotent e to k⁻¹(e)
        return {e: i for i, e in enumerate(self.semilattice[1].values)}

    @cached_property
    def group_image(self) -> tuple[FiniteMonoid, MonoidMap]:  # M/σ and q
        return quotient(self.sigma)


@dataclass(frozen=True)
class SemilatticeMonoid(_Sealed, checker="validate_semilattice"):
    """Commutative idempotent monoid; multiplication is meet, identity is top."""

    base: FiniteMonoid

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def top(self) -> int:
        return self.base.id

    def meet(self, x: int, y: int) -> int:
        return self.base.table[x][y]

    def leq(self, x: int, y: int) -> bool:
        return self.base.table[x][y] == x


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: tuple[int, int] | None = None  # the pair that refutes the property


@dataclass(frozen=True)
class FInverseResult:
    holds: bool
    selector: tuple[int, ...] | None = None  # class index -> greatest element
    witness_class: int | None = None
    witness_maximals: tuple[int, ...] | None = None


def validate_inverse(m: FiniteMonoid) -> InverseMonoid:
    """Accept iff each element has exactly one generalized inverse."""
    t = m.table
    inv = []
    for x in range(m.n):
        tx = t[x]
        cands = [y for y in range(m.n) if t[tx[y]][x] == x and t[t[y][x]][y] == y]
        if not cands:
            raise NoInverse(x)
        if len(cands) > 1:
            raise NonUniqueInverse(x, cands)
        inv.append(cands[0])
    return InverseMonoid(base=m, inv=tuple(inv), seal=_Sealed)


def validate_semilattice(m: FiniteMonoid) -> SemilatticeMonoid:
    for x in range(m.n):
        if m.mul(x, x) != x:
            raise ValidationError(f"not a semilattice monoid (not idempotent): witness {x}")
        for y in range(m.n):
            if m.mul(x, y) != m.mul(y, x):
                raise ValidationError(
                    f"not a semilattice monoid (not commutative): witness {(x, y)}")
    return SemilatticeMonoid(base=m, seal=_Sealed)


def idempotent_semilattice(m: InverseMonoid) -> tuple[SemilatticeMonoid, MonoidMap]:
    """E(M) as a monoid in its own right, with the inclusion into M."""
    # The idempotents of an inverse monoid commute, a theorem the tests keep
    # as an oracle, so E(M) is closed (e·f·e·f = e·e·f·f = e·f) and a semilattice.
    idem = m.base.idempotents()
    pos = {e: i for i, e in enumerate(idem)}
    t = m.base.table
    sub = FiniteMonoid(n=len(idem), id=pos[m.id],
                       table=tuple(tuple(pos[t[e][f]] for f in idem) for e in idem),
                       labels=tuple(m.label(e) for e in idem))
    return SemilatticeMonoid(sub, seal=_Sealed), MonoidMap(sub, m.base, tuple(idem))


def natural_order(m: InverseMonoid) -> list[tuple[int, int]]:
    """The pairs x <= y of the natural order (``InverseMonoid.leq``), x-major."""
    t = m.base.table
    return [(x, y) for x in range(m.n)
            for y, v in enumerate(t[t[x][m.inv[x]]]) if v == x]


def min_group_congruence(m: InverseMonoid) -> Congruence:
    """a ~ b iff e*a = e*b for some idempotent e; quotient is the greatest group image.

    The product e0 of all idempotents is the least one, and e*a = e*b forces
    e0*a = e0*b, so the class of x is determined by e0*x. e0 is central (the
    identity of the least ideal, a group), so the relation is a congruence,
    and [x*inv(x)] = [e0] = [1] for every x makes its quotient a group.
    """
    e0 = reduce(m.mul, m.base.idempotents(), m.id)
    return make_congruence(m.base, [m.mul(e0, x) for x in range(m.n)])


def is_e_unitary(m: InverseMonoid) -> Verdict:
    """x*e idempotent with e idempotent must force x idempotent.

    The witness of a failure is the first (x, e) with x not idempotent, e
    idempotent and x*e idempotent.
    """
    idem = m.base.idempotents()
    iset = set(idem)
    for x in range(m.n):
        if x in iset:
            continue
        for e in idem:
            if m.mul(x, e) in iset:
                return Verdict(holds=False, witness=(x, e))
    return Verdict(holds=True)


def is_f_inverse(m: InverseMonoid) -> FInverseResult:
    """Every sigma class must contain a greatest element under the natural order.

    One pass moves the candidate up to each member above it, so it ends on
    the greatest element if the class has one. Only a class without one gets
    its maximals: for a finite class a unique maximal is the greatest
    element, so the offending class and its incomparable maximals are
    returned.
    """
    leq = m.leq
    selector = []
    for c, members in enumerate(m.sigma.classes()):
        top = members[0]
        for x in members:
            if leq(top, x):
                top = x
        if not all(leq(y, top) for y in members):
            maximals = [x for x in members
                        if not any(leq(x, y) for y in members if y != x)]
            return FInverseResult(holds=False, witness_class=c,
                                  witness_maximals=tuple(maximals))
        selector.append(top)
    return FInverseResult(holds=True, selector=tuple(selector))


def is_clifford(m: InverseMonoid) -> Verdict:
    """Idempotents must be central.

    The witness of a failure is the first (e, x) with e idempotent and
    e*x != x*e, in idempotent-major order.
    """
    t = m.base.table
    witness = next(((e, x) for e in m.base.idempotents() for x in range(m.n)
                    if t[e][x] != t[x][e]), None)
    return Verdict(holds=witness is None, witness=witness)
