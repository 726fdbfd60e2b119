"""Almost semidirect products, crossed products, and modified Artin gluings.

Each construction has a validated input type, a builder that produces a
table-level monoid, and an extraction map going the other way. Every
isomorphism claimed by theory is realized by the explicit maps the theorem
gives and certified by ``verify_iso``; brute-force search is not used here,
since it is the independent oracle the suite and the tests check against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .core import FiniteMonoid, _Sealed, first_occurrence_classes, is_group, tabulate
from .errors import (
    AxiomViolation,
    ConditionViolation,
    IdentityNotTop,
    PreconditionFailed,
    ValidationError,
)
from .extension import Extension, WSSplitting
from .inverse import InverseMonoid, SemilatticeMonoid, validate_inverse
from .iso import IsoWitness, verify_iso


@dataclass(frozen=True)
class AlmostAction(_Sealed, checker="validate_almost_action"):
    group: FiniteMonoid
    semilattice: SemilatticeMonoid
    dot: tuple[tuple[int, ...], ...]  # dot[g][y]

    @cached_property
    def f_product(self) -> PairMonoid:  # F(Y,G)
        return f_product(self)


@dataclass(frozen=True)
class FactorSystem(_Sealed, checker="validate_factor_system"):
    h_part: FiniteMonoid
    n_part: FiniteMonoid
    sim: tuple[tuple[int, ...], ...]  # sim[h][n]: class of n at index h
    act: tuple[tuple[int, ...], ...]  # act[h][n]
    chi: tuple[tuple[int, ...], ...]  # chi[h1][h2]


@dataclass(frozen=True)
class GluingMap(_Sealed, checker="validate_gluing_map"):
    group: FiniteMonoid
    semilattice: SemilatticeMonoid
    f: tuple[int, ...]

    @cached_property
    def meet_action(self) -> AlmostAction:  # g·y = f(g) ∧ y; A3 is the gluing condition
        rows = tuple(self.semilattice.base.table[c] for c in self.f)
        return AlmostAction(self.group, self.semilattice, rows, seal=_Sealed)


@dataclass(frozen=True)
class PairMonoid:
    """A monoid whose elements decode to (y, g) pairs."""

    monoid: InverseMonoid
    pairs: tuple[tuple[int, int], ...]
    index: dict[tuple[int, int], int] = field(compare=False)  # pair -> element


@dataclass(frozen=True)
class CrossedProduct:
    """Disjoint union of per-index quotients of N, with decoding data."""

    monoid: FiniteMonoid
    elements: tuple[tuple[int, int], ...]  # (h, class id under sim[h])
    reps: tuple[int, ...]  # the least member n of each element's class
    index: dict[tuple[int, int], int] = field(compare=False)  # (h, class) -> element


# --- almost actions and F(Y,G) ------------------------------------------------


def validate_almost_action(group: FiniteMonoid, semilattice: SemilatticeMonoid,
                           dot) -> AlmostAction:
    """Exhaustive check of the three almost-action axioms."""
    if not is_group(group):
        raise PreconditionFailed("acting monoid must be a group")
    y_n = semilattice.n
    top = semilattice.top
    rows = tuple(tuple(int(v) for v in row) for row in dot)
    if len(rows) != group.n or any(len(r) != y_n for r in rows):
        raise AxiomViolation("shape", (len(rows),))
    for r in rows:
        for v in r:
            if not (0 <= v < y_n):
                raise AxiomViolation("range", v)
    for y in range(y_n):
        if rows[group.id][y] != y:
            raise AxiomViolation("A1", (y,))
    meet = semilattice.meet
    for g in range(group.n):
        for y in range(y_n):
            for z in range(y_n):
                if rows[g][meet(y, z)] != meet(rows[g][y], rows[g][z]):
                    raise AxiomViolation("A2", (g, y, z))
    for g in range(group.n):
        gtop = rows[g][top]
        for h in range(group.n):
            gh = group.mul(g, h)
            for y in range(y_n):
                if rows[g][rows[h][y]] != meet(rows[gh][y], gtop):
                    raise AxiomViolation("A3", (g, h, y))
    return AlmostAction(group=group, semilattice=semilattice, dot=rows, seal=_Sealed)


def f_product(aa: AlmostAction) -> PairMonoid:
    """Pairs (y,g) with y below g*top, multiplied by (y ∧ g*z, gh)."""
    g_mon, semi = aa.group, aa.semilattice
    meet, gmul, dot = semi.base.table, g_mon.table, aa.dot
    pairs = tuple((y, g) for g in range(g_mon.n) for y in range(semi.n)
                  if semi.leq(y, dot[g][semi.top]))
    base, index = tabulate(
        pairs, lambda p, q: (meet[p[0]][dot[p[1]][q[0]]], gmul[p[1]][q[1]]),
        (semi.top, g_mon.id), lambda p: f"({semi.base.label(p[0])},{g_mon.label(p[1])})")
    return PairMonoid(monoid=validate_inverse(base), pairs=pairs, index=index)


# --- factor systems and crossed products --------------------------------------


def validate_factor_system(h_part: FiniteMonoid, n_part: FiniteMonoid,
                           sim, act, chi) -> FactorSystem:
    """Exhaustively verify the eleven compatibility conditions."""
    hn, nn = h_part.n, n_part.n
    sim_t = tuple(first_occurrence_classes([int(c) for c in row]) for row in sim)
    act_t = tuple(tuple(int(v) for v in row) for row in act)
    chi_t = tuple(tuple(int(v) for v in row) for row in chi)
    if len(sim_t) != hn or any(len(r) != nn for r in sim_t):
        raise ConditionViolation("shape", "sim")
    if len(act_t) != hn or any(len(r) != nn for r in act_t):
        raise ConditionViolation("shape", "act")
    if len(chi_t) != hn or any(len(r) != hn for r in chi_t):
        raise ConditionViolation("shape", "chi")
    for row in act_t:
        for v in row:
            if not (0 <= v < nn):
                raise ConditionViolation("range", ("act", v))
    for row in chi_t:
        for v in row:
            if not (0 <= v < nn):
                raise ConditionViolation("range", ("chi", v))

    hid, nid = h_part.id, n_part.id
    nt, ht = n_part.table, h_part.table

    related = [[(a, b) for a in range(nn) for b in range(nn)
                if a != b and sim_t[h][a] == sim_t[h][b]]
               for h in range(hn)]

    # 1: the relation at the identity index is equality.
    for (a, b) in related[hid]:
        raise ConditionViolation(1, (a, b))
    # 2: left multiplication preserves the relation.
    for h in range(hn):
        sh = sim_t[h]
        for (a, b) in related[h]:
            for x, tx in enumerate(nt):
                if sh[tx[a]] != sh[tx[b]]:
                    raise ConditionViolation(2, (h, a, b, x))
    # 3: right multiplication by chi moves h-related pairs to h1h2-related pairs.
    for h1 in range(hn):
        for (a, b) in related[h1]:
            ta, tb = nt[a], nt[b]
            for h2 in range(hn):
                c, s12 = chi_t[h1][h2], sim_t[ht[h1][h2]]
                if s12[ta[c]] != s12[tb[c]]:
                    raise ConditionViolation(3, (h1, h2, a, b))
    # 4: right multiplication by an acted element preserves the relation.
    for h in range(hn):
        sh = sim_t[h]
        for (a, b) in related[h]:
            ta, tb = nt[a], nt[b]
            for x, hx in enumerate(act_t[h]):
                if sh[ta[hx]] != sh[tb[hx]]:
                    raise ConditionViolation(4, (h, a, b, x))
    # 5: acting then multiplying by chi respects the inner relation.
    for h2 in range(hn):
        for (a, b) in related[h2]:
            for h1 in range(hn):
                c, s12, a1 = chi_t[h1][h2], sim_t[ht[h1][h2]], act_t[h1]
                if s12[nt[a1[a]][c]] != s12[nt[a1[b]][c]]:
                    raise ConditionViolation(5, (h1, h2, a, b))
    # 6: the action is multiplicative up to the relation.
    for h in range(hn):
        sh, ah = sim_t[h], act_t[h]
        for a in range(nn):
            ta, tha = nt[a], nt[ah[a]]
            for b in range(nn):
                if sh[ah[ta[b]]] != sh[tha[ah[b]]]:
                    raise ConditionViolation(6, (h, a, b))
    # 7: chi conjugates the composite action to the iterated action.
    for h1 in range(hn):
        for h2 in range(hn):
            h12 = ht[h1][h2]
            c = chi_t[h1][h2]
            s12, a12, a1, a2, tc = sim_t[h12], act_t[h12], act_t[h1], act_t[h2], nt[c]
            for a in range(nn):
                if s12[tc[a12[a]]] != s12[nt[a1[a2[a]]][c]]:
                    raise ConditionViolation(7, (h1, h2, a))
    # 8: the action nearly preserves the unit.
    for h in range(hn):
        if sim_t[h][act_t[h][nid]] != sim_t[h][nid]:
            raise ConditionViolation(8, (h,))
    # 9: the identity index nearly acts trivially.
    s1, a1 = sim_t[hid], act_t[hid]
    for a in range(nn):
        if s1[a1[a]] != s1[a]:
            raise ConditionViolation(9, (a,))
    # 10: chi is normalized at the identity.
    for h in range(hn):
        sh = sim_t[h]
        if sh[chi_t[hid][h]] != sh[nid]:
            raise ConditionViolation(10, ("left", h))
        if sh[chi_t[h][hid]] != sh[nid]:
            raise ConditionViolation(10, ("right", h))
    # 11: the cocycle identity up to the relation.
    for x in range(hn):
        for y in range(hn):
            xy = ht[x][y]
            cx, cxy, cy, ax = chi_t[x], chi_t[xy], chi_t[y], act_t[x]
            for z in range(hn):
                lhs = nt[cx[y]][cxy[z]]
                rhs = nt[ax[cy[z]]][cx[ht[y][z]]]
                s = sim_t[ht[xy][z]]
                if s[lhs] != s[rhs]:
                    raise ConditionViolation(11, (x, y, z))
    return FactorSystem(h_part=h_part, n_part=n_part,
                        sim=sim_t, act=act_t, chi=chi_t, seal=_Sealed)


def factor_system_from_almost_action(aa: AlmostAction) -> FactorSystem:
    """Relate y,z at g iff they agree below g*top; chi(g,h) = g*top."""
    g_mon, semi = aa.group, aa.semilattice
    meet = semi.meet
    top = semi.top
    sim = [[meet(y, aa.dot[g][top]) for y in range(semi.n)]
           for g in range(g_mon.n)]
    chi = [[aa.dot[g][top]] * g_mon.n for g in range(g_mon.n)]
    return validate_factor_system(g_mon, semi.base, sim, aa.dot, chi)


def crossed_product(fs: FactorSystem) -> CrossedProduct:
    """Monoid on the disjoint union of the per-index quotients of N.

    (h,[n])·(h',[n']) = (hh', [n·act(h,n')·chi(h,h')]), computed on the least
    member of each class. For a validated factor system that choice does not
    change the class: another left member gives an hh'-related product by
    conditions 4 and 3, and another right member by conditions 5 and 2.
    """
    nt, ht, sim, act, chi = fs.n_part.table, fs.h_part.table, fs.sim, fs.act, fs.chi
    least: dict[tuple[int, int], int] = {}
    for h, row in enumerate(sim):
        for n, c in enumerate(row):
            least.setdefault((h, c), n)

    def mul(e: tuple[int, int], e2: tuple[int, int]) -> tuple[int, int]:
        (h, _), (h2, _) = e, e2
        h12 = ht[h][h2]
        n = nt[least[e]][act[h][least[e2]]]
        return (h12, sim[h12][nt[n][chi[h][h2]]])

    elements = list(least)
    monoid, index = tabulate(
        elements, mul, (fs.h_part.id, sim[fs.h_part.id][fs.n_part.id]),
        lambda e: f"([{fs.n_part.label(least[e])}],{fs.h_part.label(e[0])})")
    return CrossedProduct(monoid=monoid, elements=tuple(elements),
                          reps=tuple(least.values()), index=index)


def iso_f_product_crossed(aa: AlmostAction) -> IsoWitness:
    """Certify F(Y,G) against the crossed product of the derived factor system.

    Forward sends (y,g) to its class at g; backward sends a class back to the
    meet of any representative with g*top.
    """
    fp = aa.f_product
    fs = factor_system_from_almost_action(aa)
    xp = crossed_product(fs)
    semi = aa.semilattice
    forward = [xp.index[(g, fs.sim[g][y])] for (y, g) in fp.pairs]
    backward = [fp.index[(semi.meet(y, aa.dot[g][semi.top]), g)]
                for (g, _), y in zip(xp.elements, xp.reps)]
    return verify_iso(fp.monoid.base, xp.monoid, forward, backward)


# --- gluings ------------------------------------------------------------------


def validate_gluing_map(group: FiniteMonoid, semilattice: SemilatticeMonoid,
                        f) -> GluingMap:
    """f must send the identity to top and satisfy f(gh) ∧ f(g) = f(g) ∧ f(h)."""
    if not is_group(group):
        raise PreconditionFailed("gluing base must be a group")
    vals = tuple(int(v) for v in f)
    if len(vals) != group.n:
        raise ConditionViolation("shape", "f")
    for v in vals:
        if not (0 <= v < semilattice.n):
            raise ConditionViolation("range", ("f", v))
    if vals[group.id] != semilattice.top:
        raise IdentityNotTop(vals[group.id])
    meet = semilattice.meet
    for g in range(group.n):
        for h in range(group.n):
            if meet(vals[group.mul(g, h)], vals[g]) != meet(vals[g], vals[h]):
                raise ConditionViolation("gluing", (g, h))
    return GluingMap(group=group, semilattice=semilattice, f=vals, seal=_Sealed)


def gluing(gm: GluingMap) -> PairMonoid:
    """Gl(f) = F(Y,G) of the meet action g*y = f(g) ∧ y.

    Its pairs (y,g) with y below f(g) multiply coordinatewise. That Gl(f) is
    F-inverse Clifford with section g ↦ (f(g), g) is the theorem the suite
    checks, not this builder.
    """
    return f_product(gm.meet_action)


def _require_f_inverse(m: InverseMonoid) -> None:
    fres = m.f_inverse
    if not fres.holds:
        raise PreconditionFailed("monoid must be F-inverse",
                                 (fres.witness_class, fres.witness_maximals))


def _certify_pairs(m: InverseMonoid, pm: PairMonoid) -> IsoWitness:
    """Certify M ≅ pm by x ↦ (x·x⁻¹, σ(x)) and (y, g) ↦ y·s(g)."""
    pos, sel = m.idempotent_index, m.f_inverse.selector
    forward = [pm.index[(pos[m.mul(x, m.inv[x])], m.sigma.class_of[x])]
               for x in range(m.n)]
    backward = [m.mul(m.semilattice[1].values[y], sel[g]) for (y, g) in pm.pairs]
    return verify_iso(m.base, pm.monoid.base, forward, backward)


def gluing_map_from_clifford(m: InverseMonoid) -> GluingMap:
    """Recover f(g) = s(g)*inv(s(g)) from an F-inverse Clifford monoid."""
    if not m.clifford.holds:
        raise PreconditionFailed("monoid must be Clifford", m.clifford.witness)
    _require_f_inverse(m)
    pos, sel, h = m.idempotent_index, m.f_inverse.selector, m.group_image[0]
    f = [pos[m.mul(sel[c], m.inv[sel[c]])] for c in range(h.n)]
    return validate_gluing_map(h, m.semilattice[0], f)


def clifford_reconstruction(m: InverseMonoid) -> tuple[GluingMap, IsoWitness]:
    """Recover the gluing map of M and certify M against the Gl(f) it builds."""
    gm = gluing_map_from_clifford(m)
    return gm, _certify_pairs(m, gluing(gm))


# --- extraction back to construction data --------------------------------------


def almost_action_from_f_inverse(m: InverseMonoid) -> tuple[AlmostAction, IsoWitness]:
    """Recover an almost action by conjugation with the greatest elements.

    The axioms are re-checked, and M is certified against F(Y,G) by
    x ↦ (x·x⁻¹, σ(x)) and (y, g) ↦ y·s(g); a failure is raised, never ignored.
    """
    _require_f_inverse(m)
    pos, sel = m.idempotent_index, m.f_inverse.selector
    (semi, k), (h, _) = m.semilattice, m.group_image
    # s·y·s⁻¹ is idempotent for every idempotent y and every s.
    dot = [[pos[m.mul(m.mul(s_g, y), m.inv[s_g])] for y in k.values] for s_g in sel]
    aa = validate_almost_action(h, semi, dot)
    return aa, _certify_pairs(m, aa.f_product)


def factor_system_from_extension(ext: Extension, ws: WSSplitting) \
        -> tuple[FactorSystem, IsoWitness]:
    """Extract (sim, act, chi) from a weakly Schreier splitting.

    Witness elements are resolved to the least index. The eleven conditions
    are checked, and the crossed product is certified against the middle
    object by (h, [n]) ↦ k(n)·s(h) and g ↦ (q(g), [n]) for the n with
    k(n)·s(q(g)) = g.
    """
    n_mon, g_mon, h_mon = ext.k.source, ext.q.source, ext.q.target
    k, s, q = ext.k.values, ws.s.values, ext.q.values
    sim = [[g_mon.mul(k[n], s[h]) for n in range(n_mon.n)] for h in range(h_mon.n)]
    # least[h][g]: the least n with k(n)·s(h) = g.
    least: list[dict[int, int]] = [{} for _ in range(h_mon.n)]
    for h, row in enumerate(sim):
        for n, g in enumerate(row):
            least[h].setdefault(g, n)
    act = []
    for h in range(h_mon.n):
        row = []
        for n in range(n_mon.n):
            cand = least[h].get(g_mon.mul(s[h], k[n]))
            if cand is None:
                raise ValidationError(f"no element solves k(n')*s({h}) = s({h})*k({n})")
            row.append(cand)
        act.append(row)
    chi = []
    for h1 in range(h_mon.n):
        row = []
        for h2 in range(h_mon.n):
            cand = least[h_mon.mul(h1, h2)].get(g_mon.mul(s[h1], s[h2]))
            if cand is None:
                raise ValidationError(
                    f"no element solves k(n)*s({h1}*{h2}) = s({h1})*s({h2})")
            row.append(cand)
        chi.append(row)
    fs = validate_factor_system(h_mon, n_mon, sim, act, chi)
    xp = crossed_product(fs)
    forward = [g_mon.mul(k[n], s[h]) for (h, _), n in zip(xp.elements, xp.reps)]
    backward = []
    for g in range(g_mon.n):
        n = least[q[g]].get(g)
        if n is None:
            raise PreconditionFailed("splitting must be weakly Schreier", g)
        backward.append(xp.index[(q[g], fs.sim[q[g]][n])])
    return fs, verify_iso(xp.monoid, g_mon, forward, backward)
