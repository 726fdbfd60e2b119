"""Input tables for the ``check-large`` workload.

Every table is built from public ``imw`` constructors, carries the verdicts
and invariants it has by construction, and is relabelled by a seeded random
permutation that never leaves the identity at index 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations, product

from imw.constructions import f_product, gluing, validate_almost_action, validate_gluing_map
from imw.core import FiniteMonoid, direct_product, validate_monoid
from imw.corpus import cyclic_group, m3, m7
from imw.inverse import SemilatticeMonoid, validate_semilattice
from imw.mtab import serialize_mtab

ALL_TRUE = (True, True, True, True, True)
NOT_E_UNITARY = (True, False, False, False, False)
E_UNITARY_NOT_F = (True, True, False, False, False)
F_NOT_CLIFFORD = (True, True, True, False, True)
VERDICT_KEYS = ("inverse", "e_unitary", "f_inverse", "clifford", "weakly_schreier")


@dataclass(frozen=True)
class TableSpec:
    """One table and what it must yield; ``idempotents`` and ``sigma_classes``
    are None for a table that is not inverse."""

    name: str
    monoid: FiniteMonoid
    verdicts: dict
    idempotents: int | None
    sigma_classes: int | None

    @property
    def exit_code(self) -> int:
        return 0 if all(v is True for v in self.verdicts.values()) else 1


def _verdicts(flags) -> dict:
    if flags is None:
        return {"inverse": False, "e_unitary": None, "f_inverse": None,
                "clifford": None, "weakly_schreier": None}
    return dict(zip(VERDICT_KEYS, flags))


def symmetric_inverse_monoid(k: int) -> FiniteMonoid:
    """I_k: partial bijections of k points, (x*y)(i) = y(x(i))."""
    maps = []
    for size in range(k + 1):
        for dom in combinations(range(k), size):
            for img in permutations(range(k), size):
                f = [-1] * k
                for i, j in zip(dom, img):
                    f[i] = j
                maps.append(tuple(f))
    maps.sort()
    pos = {f: i for i, f in enumerate(maps)}
    table = [[pos[tuple(-1 if x[i] < 0 else y[x[i]] for i in range(k))]
              for y in maps] for x in maps]
    return validate_monoid(len(maps), table, pos[tuple(range(k))])


def full_transformation_monoid(k: int) -> FiniteMonoid:
    """T_k: all self-maps of k points; regular but not inverse for k >= 2."""
    maps = sorted(product(range(k), repeat=k))
    pos = {f: i for i, f in enumerate(maps)}
    table = [[pos[tuple(y[x[i]] for i in range(k))] for y in maps] for x in maps]
    return validate_monoid(len(maps), table, pos[tuple(range(k))])


def boolean_semilattice(k: int) -> SemilatticeMonoid:
    """Subsets of k points under intersection; the full set is the identity."""
    n = 1 << k
    table = [[i & j for j in range(n)] for i in range(n)]
    return validate_semilattice(validate_monoid(n, table, n - 1))


def symmetric_group(k: int) -> tuple[FiniteMonoid, list[tuple[int, ...]]]:
    perms = sorted(permutations(range(k)))
    pos = {p: i for i, p in enumerate(perms)}
    table = [[pos[tuple(p[q[i]] for i in range(k))] for q in perms] for p in perms]
    return validate_monoid(len(perms), table, pos[tuple(range(k))]), perms


def s3_almost_action_monoid() -> FiniteMonoid:
    """F(Y,S3) for Y the subsets of {0,1,2,3}: S3 permutes 0,1,2, and odd
    permutations also meet with {0,1,2}. That set is S3-invariant, so the
    axioms hold; the action is not by automorphisms, and the monoid is
    F-inverse but not Clifford (n = 16*3 + 8*3 = 72)."""
    s3, perms = symmetric_group(3)
    y = boolean_semilattice(4)

    def sign(p) -> int:
        return sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j]) % 2

    dot = []
    for p in perms:
        row = []
        for s in range(y.n):
            img = sum(1 << p[i] for i in range(3) if s >> i & 1) | (s & 8)
            row.append(img & 7 if sign(p) else img)
        dot.append(row)
    return f_product(validate_almost_action(s3, y, dot)).monoid.base


def z6_gluing_monoid() -> FiniteMonoid:
    """Gl(f) over Z6 with f(g) = the set of subgroups {0,3}, {0,2,4}, {0}
    containing g, in the subsets of three points (n = 8 + 2 + 2*2 + 2*1 = 16).
    Membership of g and gh in a subgroup agree whenever g is in it, which is
    the gluing condition."""
    z6 = cyclic_group(6)
    y = boolean_semilattice(3)
    subgroups = ({0, 3}, {0, 2, 4}, {0})
    f = [sum(1 << i for i, k in enumerate(subgroups) if g in k) for g in range(6)]
    return gluing(validate_gluing_map(z6, y, f)).monoid.base


def _product(*factors: FiniteMonoid) -> FiniteMonoid:
    out = factors[0]
    for f in factors[1:]:
        out = direct_product(out, f)
    return out


def build_tables() -> list[TableSpec]:
    """The fixed check-large set, covering every verdict polarity.

    Five tables check faster than ``m7xm7xz3`` and five slower, so the
    median op is that table, whose cost does not depend on the relabelling.
    """
    m3_, m7_, z3 = m3(), m7(), cyclic_group(3)
    i3, t3 = symmetric_inverse_monoid(3), full_transformation_monoid(3)
    gl, fs3 = z6_gluing_monoid(), s3_almost_action_monoid()
    specs = [
        ("t3", t3, None, None, None),
        ("i3", i3, NOT_E_UNITARY, 8, 1),
        ("m7xm3xz2", _product(m7_, m3_, cyclic_group(2)), E_UNITARY_NOT_F, 8, 8),
        ("b5", boolean_semilattice(5).base, ALL_TRUE, 32, 1),
        ("fs3", fs3, F_NOT_CLIFFORD, 16, 6),
        ("m7xm7xz3", _product(m7_, m7_, z3), E_UNITARY_NOT_F, 16, 12),
        ("glz6xm3xz4", _product(gl, m3_, cyclic_group(4)), ALL_TRUE, 16, 48),
        ("i4", symmetric_inverse_monoid(4), NOT_E_UNITARY, 16, 1),
        ("t3xz9", _product(t3, cyclic_group(9)), None, None, None),
        ("fs3xz3", _product(fs3, z3), F_NOT_CLIFFORD, 16, 18),
        ("m3^4xz3", _product(m3_, m3_, m3_, m3_, z3), ALL_TRUE, 16, 48),
    ]
    return [TableSpec(name, m, _verdicts(flags), idem, sig)
            for name, m, flags, idem, sig in specs]


def relabel(m: FiniteMonoid, rng: random.Random) -> FiniteMonoid:
    """The same monoid under a random renaming of its elements."""
    perm = list(range(m.n))
    rng.shuffle(perm)
    if m.n > 1 and perm[m.id] == 0:
        other = (m.id + 1) % m.n
        perm[m.id], perm[other] = perm[other], perm[m.id]
    old = [0] * m.n
    for x, p in enumerate(perm):
        old[p] = x
    table = tuple(tuple(perm[m.table[old[a]][old[b]]] for b in range(m.n))
                  for a in range(m.n))
    labels = tuple(m.labels[old[a]] for a in range(m.n)) if m.labels else None
    return FiniteMonoid(n=m.n, table=table, id=perm[m.id], labels=labels)


def generate(seed: int) -> list[tuple[TableSpec, str]]:
    """Each spec with the mtab text of its relabelled table."""
    rng = random.Random(seed)
    return [(spec, serialize_mtab(relabel(spec.monoid, rng)))
            for spec in build_tables()]
