import pytest

from conftest import unchecked
from imw.constructions import (
    FactorSystem,
    almost_action_from_f_inverse,
    clifford_reconstruction,
    crossed_product,
    f_product,
    factor_system_from_almost_action,
    factor_system_from_extension,
    gluing,
    gluing_map_from_clifford,
    iso_f_product_crossed,
    validate_almost_action,
    validate_factor_system,
    validate_gluing_map,
)
from imw.core import MonoidMap, direct_product, quotient, validate_monoid
from imw.corpus import (
    chain,
    cyclic_group,
    diamond,
    enumerate_almost_actions,
    enumerate_gluing_maps,
    enumerate_inverse_monoids,
    enumerate_semilattices,
    klein_four,
    m3,
    m7,
    small_groups,
    trivial_monoid,
    z2_ch2_action,
    z2_ch2_gluing,
)
from imw.errors import (
    AxiomViolation,
    ConditionViolation,
    IdentityNotTop,
    PreconditionFailed,
)
from imw.extension import (
    WSSplitting,
    build_canonical_extension,
    is_weakly_schreier,
    weakly_schreier_iff_f_inverse,
)
from imw.inverse import (
    idempotent_semilattice,
    is_clifford,
    is_f_inverse,
    min_group_congruence,
    validate_inverse,
)
from imw.iso import brute_force_iso


def trivial_action(group, semi):
    return validate_almost_action(group, semi,
                                  [list(range(semi.n))] * group.n)


def test_trivial_action_is_almost_action():
    aa = trivial_action(cyclic_group(3), chain(3))
    assert aa.dot[1] == (0, 1, 2)


def test_z2_ch2_action_valid():
    aa = z2_ch2_action()
    assert aa.dot == ((0, 1), (1, 1))


def test_constant_top_row_violates_a3():
    with pytest.raises(AxiomViolation) as exc:
        validate_almost_action(cyclic_group(2), chain(2), [[0, 1], [0, 0]])
    assert exc.value.axiom == "A3"


def test_f_product_of_trivial_action_is_direct_product():
    g, y = cyclic_group(2), chain(3)
    fp = f_product(trivial_action(g, y))
    assert fp.monoid.n == 6
    assert brute_force_iso(fp.monoid.base, direct_product(y.base, g)) is not None


def test_f_product_z2_ch2_is_m3():
    fp = f_product(z2_ch2_action())
    assert fp.pairs == ((0, 0), (1, 0), (1, 1))
    assert fp.monoid.base.table == ((0, 1, 2), (1, 1, 2), (2, 2, 1))
    assert fp.monoid.base.table == m3().table


def test_f_product_trivial_group_is_semilattice():
    y = diamond()
    fp = f_product(trivial_action(trivial_monoid(), y))
    assert brute_force_iso(fp.monoid.base, y.base) is not None


def test_factor_system_from_trivial_action():
    g, y = cyclic_group(2), chain(2)
    fs = factor_system_from_almost_action(trivial_action(g, y))
    # Relation is equality at every index; chi is constantly the top.
    assert fs.sim == ((0, 1), (0, 1))
    assert fs.chi == ((0, 0), (0, 0))


def test_factor_system_from_z2_ch2_action():
    fs = factor_system_from_almost_action(z2_ch2_action())
    assert fs.sim == ((0, 1), (0, 0))  # everything collapses below e at g
    assert fs.chi == ((0, 0), (1, 1))
    assert fs.act == ((0, 1), (1, 1))


def test_altered_chi_fails_condition():
    fs = factor_system_from_almost_action(z2_ch2_action())
    chi = [list(r) for r in fs.chi]
    chi[1][1] = 0  # claim chi(g,g) = top
    with pytest.raises(ConditionViolation) as exc:
        validate_factor_system(fs.h_part, fs.n_part, fs.sim, fs.act, chi)
    assert exc.value.condition == 3


# The left-zero band {p, q} with an identity 1 and a zero 0 adjoined, as
# elements 0..3 = 1, p, q, 0. It is not commutative: p*q = p but q*p = q.
_LEFT_ZERO = validate_monoid(4, [[0, 1, 2, 3], [1, 1, 1, 3], [2, 2, 2, 3], [3, 3, 3, 3]], 0)
_Z2, _Z3, _CH2, _CH3 = cyclic_group(2), cyclic_group(3), chain(2).base, chain(3).base


# Each input is a valid factor system with one cell changed (the last drops a
# row of chi), except condition 4's. For a commutative N, as when N is a
# semilattice, condition 2 implies condition 4, so its input is over
# _LEFT_ZERO: 1 ~ p at index 1, and right multiplication by q = act(1, 2)
# separates them (1*q = q, p*q = p), while conditions 1-3 hold.
@pytest.mark.parametrize("condition, h, n, sim, act, chi, message", [
    (1, _Z2, _CH2, [[1, 1], [0, 0]], [[0, 1], [1, 1]], [[0, 0], [1, 1]],
     "condition 1 fails at (0, 1)"),
    (2, _Z2, _CH3, [[0, 1, 2], [2, 1, 2]], [[0, 1, 2]] * 2, [[0, 0]] * 2,
     "condition 2 fails at (1, 0, 2, 1)"),
    (3, _Z2, _CH3, [[0, 1, 2], [0, 0, 2]], [[0, 1, 2]] * 2, [[0, 0]] * 2,
     "condition 3 fails at (1, 1, 0, 1)"),
    (4, _Z2, _LEFT_ZERO, [[0, 1, 2, 3], [0, 0, 1, 2]], [[0, 1, 2, 3]] * 2, [[0, 0], [0, 3]],
     "condition 4 fails at (1, 0, 1, 2)"),
    (5, _Z2, _CH3, [[0, 1, 2], [0, 0, 1]], [[2, 1, 2], [1, 1, 2]], [[0, 0], [1, 1]],
     "condition 5 fails at (0, 1, 0, 1)"),
    (6, _Z2, _CH3, [[0, 1, 2]] * 2, [[2, 1, 2], [0, 1, 2]], [[0, 0]] * 2,
     "condition 6 fails at (0, 0, 1)"),
    (7, _Z2, _CH3, [[0, 1, 2]] * 2, [[1, 1, 2], [0, 1, 2]], [[0, 0]] * 2,
     "condition 7 fails at (0, 1, 0)"),
    (8, _Z2, _CH2, [[0, 1], [0, 0]], [[1, 1], [1, 1]], [[0, 0], [1, 1]],
     "condition 8 fails at (0,)"),
    (9, _Z2, _CH2, [[0, 1], [0, 0]], [[0, 0], [1, 1]], [[0, 0], [1, 1]],
     "condition 9 fails at (1,)"),
    (10, _Z2, _CH2, [[0, 1], [0, 0]], [[0, 1], [1, 1]], [[1, 0], [1, 1]],
     "condition 10 fails at ('left', 0)"),
    (11, _Z3, _CH2, [[0, 1]] * 3, [[0, 1]] * 3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
     "condition 11 fails at (1, 1, 2)"),
    ("shape", _Z2, _CH2, [[0, 1], [0, 0]], [[0, 1], [1, 1]], [[0, 0]],
     "condition shape fails at chi"),
], ids=["1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "chi-shape"])
def test_each_factor_system_condition_fails_on_its_input(condition, h, n, sim, act, chi,
                                                        message):
    with pytest.raises(ConditionViolation) as exc:
        validate_factor_system(h, n, sim, act, chi)
    assert exc.value.condition == condition
    assert str(exc.value) == message


def test_crossed_product_with_trivial_group():
    y = chain(3)
    fs = factor_system_from_almost_action(trivial_action(trivial_monoid(), y))
    xp = crossed_product(fs)
    assert brute_force_iso(xp.monoid, y.base) is not None


def test_crossed_product_z2_ch2_is_m3():
    fs = factor_system_from_almost_action(z2_ch2_action())
    xp = crossed_product(fs)
    assert xp.monoid.n == 3
    assert brute_force_iso(xp.monoid, m3()) is not None


def test_crossed_product_of_trivial_action():
    g, y = cyclic_group(2), chain(2)
    fs = factor_system_from_almost_action(trivial_action(g, y))
    xp = crossed_product(fs)
    assert brute_force_iso(xp.monoid, direct_product(y.base, g)) is not None


class _IllDefined(Exception):
    pass


def _crossed_product_by_all_pairs(fs):
    """Oracle: the elements and table of the crossed product, each product
    computed on every pair of class members; raises _IllDefined with the
    first pair ((h, a), (h2, b)) whose product class differs from that of
    the least members, row-major over (element, element)."""
    members = {}
    for h, row in enumerate(fs.sim):
        for n, c in enumerate(row):
            members.setdefault((h, c), []).append(n)
    elements = list(members)

    def product_class(h, n, h2, n2):
        h12 = fs.h_part.mul(h, h2)
        val = fs.n_part.mul(fs.n_part.mul(n, fs.act[h][n2]), fs.chi[h][h2])
        return (h12, fs.sim[h12][val])

    def mul(e, e2):
        (h, _), (h2, _) = e, e2
        out = product_class(h, members[e][0], h2, members[e2][0])
        for a in members[e]:
            for b in members[e2]:
                if product_class(h, a, h2, b) != out:
                    raise _IllDefined(((h, a), (h2, b)))
        return out

    return elements, tuple(tuple(elements.index(mul(e, e2)) for e2 in elements)
                           for e in elements)


def test_crossed_product_rejects_broken_relation():
    # Merging the two incomparable atoms of the diamond makes the product
    # depend on the representative (a∧a = a, b∧a = 0). crossed_product reads
    # least members only, so validation refuses the system: the relation at
    # the identity index must be equality (condition 1).
    y = diamond()
    sim, act, chi = ((0, 1, 1, 2),), ((0, 1, 2, 3),), ((0,),)
    with pytest.raises(ConditionViolation) as exc:
        validate_factor_system(trivial_monoid(), y.base, sim, act, chi)
    assert (exc.value.condition, exc.value.witness) == (1, (1, 2))
    fs = unchecked(FactorSystem, h_part=trivial_monoid(), n_part=y.base,
                   sim=sim, act=act, chi=chi)
    with pytest.raises(_IllDefined) as exc:
        _crossed_product_by_all_pairs(fs)
    # Row-major over (element, element), the first representative pair that
    # disagrees: a∧a = a against a∧b = 0 in the class {a, b}.
    assert exc.value.args[0] == ((0, 1), (0, 2))


def test_crossed_product_matches_the_all_pairs_product(monkeypatch):
    # Every factor system that one suite run checks: 135 in criterion 3 and
    # 281 in criterion 7. Criterion 7 builds 159 of the 281, one per distinct
    # monoid, since each Gl(f) shares the object of its F(Y,G); so the 281 are
    # extracted here from the monoids it checks, and equal the 159 as a set.
    import imw.constructions
    from imw.suite import build_context, criterion_3, criterion_7
    built = []

    def recording_crossed_product(fs):
        built.append((fs, crossed_product(fs)))
        return built[-1][1]

    monkeypatch.setattr(imw.constructions, "crossed_product", recording_crossed_product)
    ctx = build_context()
    assert criterion_3(ctx).passed and len(built) == 135
    assert criterion_7(ctx).passed and len(built) == 135 + 159
    in_criterion_7 = built[135:]
    del built[135:]
    for _, m in ctx.monoids:
        if m.e_unitary.holds and m.weakly_schreier.holds:
            wsf = m.weakly_schreier
            factor_system_from_extension(wsf.extension, wsf.splitting)
    assert len(built) == 135 + 281 and set(built[135:]) == set(in_criterion_7)
    for fs, xp in built:
        elements, table = _crossed_product_by_all_pairs(fs)
        assert list(xp.elements) == elements and xp.monoid.table == table
        assert list(xp.reps) == [min(n for n, c in enumerate(fs.sim[h]) if c == cls)
                                 for h, cls in elements]


def test_pair_and_crossed_products_carry_the_index_tabulate_built(monkeypatch):
    import imw.constructions
    import imw.core
    built = []

    def recording_tabulate(*args):
        built.append(imw.core.tabulate(*args))
        return built[-1]

    monkeypatch.setattr(imw.constructions, "tabulate", recording_tabulate)
    aa = z2_ch2_action()
    fp = f_product(aa)
    xp = crossed_product(factor_system_from_almost_action(aa))
    assert fp.index is built[0][1] and xp.index is built[1][1]
    assert fp.index == {p: i for i, p in enumerate(fp.pairs)}
    assert xp.index == {e: i for i, e in enumerate(xp.elements)}
    # The index is left out of == and hashing, so both stay defined.
    again = f_product(aa)
    assert again == fp and hash(again) == hash(fp)


def test_iso_f_product_crossed_on_examples():
    for aa in (z2_ch2_action(),
               trivial_action(cyclic_group(3), chain(2)),
               trivial_action(klein_four(), diamond())):
        w = iso_f_product_crossed(aa)
        fp = f_product(aa)
        xp = crossed_product(factor_system_from_almost_action(aa))
        assert brute_force_iso(fp.monoid.base, xp.monoid, max_n=16) is not None
        assert len(w.forward.values) == fp.monoid.n


def test_iso_f_product_crossed_certifies_the_cached_f_product():
    aa = z2_ch2_action()
    fp = aa.f_product
    assert aa.f_product is fp
    assert iso_f_product_crossed(aa).a is fp.monoid.base


def test_gluing_map_validation():
    g, y = cyclic_group(2), chain(2)
    assert validate_gluing_map(g, y, [0, 0]).f == (0, 0)
    assert validate_gluing_map(g, y, [0, 1]).f == (0, 1)
    with pytest.raises(IdentityNotTop):
        validate_gluing_map(g, y, [1, 1])


def test_gluing_map_condition_violation():
    g, y = cyclic_group(3), chain(2)
    f = [0, 1, 0]
    # Oracle: the pair (g^2, g^2) fails f(g^4) ∧ f(g^2) = f(g^2) ∧ f(g^2).
    meet = y.meet
    bad_pairs = [(a, b) for a in range(3) for b in range(3)
                 if meet(f[g.mul(a, b)], f[a]) != meet(f[a], f[b])]
    assert (2, 2) in bad_pairs
    with pytest.raises(ConditionViolation):
        validate_gluing_map(g, y, f)


def test_gluing_full_map_is_direct_product():
    g, y = cyclic_group(2), chain(3)
    gl = gluing(validate_gluing_map(g, y, [0, 0]))
    assert brute_force_iso(gl.monoid.base, direct_product(y.base, g)) is not None


def test_gluing_z2_ch2_is_m3():
    gl = gluing(z2_ch2_gluing())
    assert gl.monoid.base.table == m3().table


def _gluing_by_definition(gm):
    """Gl(f) from its definition: the pairs (y,g) with y below f(g), multiplied
    coordinatewise, and (y,g) inverted to (y,g⁻¹).

    Returns the pairs, the table, the identity, the labels and the inverses.
    """
    g_mon, semi = gm.group, gm.semilattice
    pairs = [(y, g) for g in range(g_mon.n) for y in range(semi.n)
             if semi.leq(y, gm.f[g])]
    pos = {p: i for i, p in enumerate(pairs)}
    table = tuple(tuple(pos[(semi.meet(y, z), g_mon.mul(g, h))] for (z, h) in pairs)
                  for (y, g) in pairs)
    labels = tuple(f"({semi.base.label(y)},{g_mon.label(g)})" for (y, g) in pairs)
    g_inv = [next(h for h in range(g_mon.n) if g_mon.mul(g, h) == g_mon.id)
             for g in range(g_mon.n)]
    inv = tuple(pos[(y, g_inv[g])] for (y, g) in pairs)
    return tuple(pairs), table, pos[(semi.top, g_mon.id)], labels, inv


def test_gluing_matches_its_definition():
    count = 0
    for g in small_groups():
        for y in enumerate_semilattices(4):
            for gm in enumerate_gluing_maps(g, y):
                gl = gluing(gm)
                t = gl.monoid.base
                assert (gl.pairs, t.table, t.id, t.labels, gl.monoid.inv) == \
                    _gluing_by_definition(gm), (g.n, y.n, gm.f)
                # The theorem gluing does not check: Gl(f) is F-inverse
                # Clifford, and its canonical section is g -> (f(g), g).
                assert gl.monoid.clifford.holds and gl.monoid.f_inverse.holds
                assert gl.monoid.weakly_schreier.splitting.s.values == \
                    tuple(gl.index[(fg, g)] for g, fg in enumerate(gm.f))
                count += 1
    assert count == 273  # 86 of them over the non-abelian S3


def test_gluing_trivial_group():
    y = diamond()
    gl = gluing(validate_gluing_map(trivial_monoid(), y, [0]))
    assert brute_force_iso(gl.monoid.base, y.base) is not None


def test_gluing_map_from_clifford_on_product():
    m = validate_inverse(direct_product(chain(2).base, cyclic_group(2)))
    gm = gluing_map_from_clifford(m)
    assert all(v == gm.semilattice.top for v in gm.f)


def test_gluing_map_from_clifford_on_m3():
    gm = gluing_map_from_clifford(validate_inverse(m3()))
    assert gm.f == (0, 1)


def test_gluing_map_from_clifford_rejects_m7():
    with pytest.raises(PreconditionFailed):
        gluing_map_from_clifford(validate_inverse(m7()))


def test_clifford_reconstruction():
    for m in (m3(), direct_product(chain(2).base, cyclic_group(2)),
              cyclic_group(5)):
        inv = validate_inverse(m)
        gm, w = clifford_reconstruction(inv)
        assert gm == gluing_map_from_clifford(inv)
        assert len(w.forward.values) == m.n


def test_almost_action_from_group():
    g = validate_inverse(cyclic_group(4))
    aa, w = almost_action_from_f_inverse(g)
    assert aa.semilattice.n == 1
    assert brute_force_iso(f_product(aa).monoid.base, g.base) is not None


def test_almost_action_from_m3():
    aa, w = almost_action_from_f_inverse(validate_inverse(m3()))
    assert aa.dot == ((0, 1), (1, 1))  # recovers the defining action


def test_almost_action_from_gluings_round_trip():
    g, y = cyclic_group(2), diamond()
    for gm in enumerate_gluing_maps(g, y):
        gl = gluing(gm)
        aa, w = almost_action_from_f_inverse(gl.monoid)
        assert len(w.forward.values) == gl.monoid.n
        assert brute_force_iso(w.a, w.b) is not None


def test_almost_action_rejects_non_f_inverse():
    with pytest.raises(PreconditionFailed):
        almost_action_from_f_inverse(validate_inverse(m7()))


def test_factor_system_from_group_extension():
    g = validate_inverse(cyclic_group(3))
    ext = build_canonical_extension(g)
    ws = is_weakly_schreier(ext)
    fs, w = factor_system_from_extension(ext, ws)
    assert fs.n_part.n == 1
    assert fs.chi == ((0, 0, 0),) * 3


def test_factor_system_from_m3_extension():
    m = validate_inverse(m3())
    ext = build_canonical_extension(m)
    ws = is_weakly_schreier(ext)
    fs, w = factor_system_from_extension(ext, ws)  # certifies internally
    xp = crossed_product(fs)
    assert w.a == xp.monoid and w.b == m.base
    assert brute_force_iso(xp.monoid, m.base) is not None


def test_factor_system_from_gluing_extensions():
    for gm in enumerate_gluing_maps(cyclic_group(4), chain(3)):
        gl = gluing(gm)
        ext = build_canonical_extension(gl.monoid)
        ws = is_weakly_schreier(ext)
        fs, w = factor_system_from_extension(ext, ws)
        assert fs.h_part.n == 4
        assert brute_force_iso(w.a, w.b) is not None


def test_factor_system_from_extension_needs_a_weakly_schreier_section():
    # m7 is E-unitary but not F-inverse: whichever element of its non-identity
    # fiber {4, 5, 6} the section picks, some g is not k(n)*s(q(g)).
    m = validate_inverse(m7())
    ext = build_canonical_extension(m)
    for pick in (4, 5, 6):
        s = MonoidMap(ext.q.target, ext.q.source, (0, pick))
        with pytest.raises(PreconditionFailed, match="weakly Schreier"):
            factor_system_from_extension(ext, WSSplitting(s=s, candidates=()))


def _extraction_cases(corpus_monoids):
    """The F-inverse corpus, the F-inverse monoids of order at most 5, the
    gluings over z2 x diamond and z4 x ch3, and the F(Y,G) of every almost
    action of z2 and of the Klein group over the diamond, as criterion 7 sees
    them."""
    cases = [m for _, m in corpus_monoids]
    cases += list(enumerate_inverse_monoids(5))
    for g, y in ((cyclic_group(2), diamond()), (cyclic_group(4), chain(3))):
        cases += [gluing(gm).monoid for gm in enumerate_gluing_maps(g, y)]
    for g in (cyclic_group(2), klein_four()):
        cases += [aa.f_product.monoid for aa in enumerate_almost_actions(g, diamond())]
    return [m for m in cases if m.f_inverse.holds]


def test_extraction_witnesses_are_the_theorem_maps(corpus_monoids):
    cases = _extraction_cases(corpus_monoids)
    # Seven of the F(Y,G), one over z2 and six over the Klein group, are not
    # Clifford: their actions are not meet actions.
    assert len(cases) == 11 + 25 + 4 + 6 + 5 + 31
    assert sum(not m.clifford.holds for m in cases) == 1 + 6
    for m in cases:
        sigma, sel = m.sigma, m.f_inverse.selector
        _, emb = idempotent_semilattice(m)
        pos = {e: i for i, e in enumerate(emb.values)}
        # M = F(E(M), M/sigma) by x -> (x*inv(x), sigma(x)) and (y, g) -> y*s(g).
        aa, w = almost_action_from_f_inverse(m)
        fp = f_product(aa)
        assert (w.a, w.b) == (m.base, fp.monoid.base)
        assert [fp.pairs[v] for v in w.forward.values] == \
            [(pos[m.mul(x, m.inv[x])], sigma.class_of[x]) for x in range(m.n)]
        assert list(w.backward.values) == \
            [m.mul(emb.values[y], sel[g]) for (y, g) in fp.pairs]
        assert brute_force_iso(w.a, w.b, max_n=m.n) is not None
        # The crossed product is G by (h, [n]) -> k(n)*s(h) for every n in [n].
        wsf = weakly_schreier_iff_f_inverse(m)
        ext, s = wsf.extension, wsf.splitting.s.values
        fs, w = factor_system_from_extension(ext, wsf.splitting)
        xp = crossed_product(fs)
        assert (w.a, w.b) == (xp.monoid, ext.q.source)
        for (h, c), img in zip(xp.elements, w.forward.values):
            assert {m.mul(ext.k.values[n], s[h]) for n in range(fs.n_part.n)
                    if fs.sim[h][n] == c} == {img}
        assert [xp.elements[v][0] for v in w.backward.values] == list(ext.q.values)
        assert brute_force_iso(w.a, w.b, max_n=m.n) is not None


def test_greatest_elements_are_closed_under_inversion(corpus_monoids):
    # Inversion is an order automorphism, so inv(s(c)) = s(c⁻¹) in every
    # F-inverse monoid; gluing_map_from_clifford relies on it unchecked.
    for m in _extraction_cases(corpus_monoids):
        sel, h = m.f_inverse.selector, m.group_image[0]
        for c in range(h.n):
            c_inv = next(d for d in range(h.n) if h.mul(c, d) == h.id)
            assert m.inv[sel[c]] == sel[c_inv]


def test_conjugates_of_idempotents_are_idempotent(corpus_monoids):
    # x·y·x⁻¹ is idempotent for every idempotent y: the fact that lets
    # almost_action_from_f_inverse index each conjugate in E(M).
    for m in _extraction_cases(corpus_monoids):
        idem = m.base.idempotents()
        for x in range(m.n):
            assert all(m.mul(m.mul(x, y), m.inv[x]) in idem for y in idem)


def grid_actions():
    for g in (cyclic_group(2), cyclic_group(3)):
        for y in (chain(2), chain(3), diamond()):
            yield from enumerate_almost_actions(g, y)


def test_f_product_structure_invariants():
    # E(F) recovers Y and F/sigma recovers G, for every small grid action.
    for aa in grid_actions():
        fp = f_product(aa)
        assert is_f_inverse(fp.monoid).holds
        semi, _ = idempotent_semilattice(fp.monoid)
        assert brute_force_iso(semi.base, aa.semilattice.base) is not None
        sigma = min_group_congruence(fp.monoid)
        q, _ = quotient(sigma)
        assert brute_force_iso(q, aa.group) is not None


def test_greatest_element_identities():
    # s(g)s(h) <= s(gh) and inv(s(g)) = s(inverse class) on F-inverse corpus.
    instances = [m3(), direct_product(chain(2).base, cyclic_group(2)),
                 cyclic_group(4)]
    instances += [f_product(aa).monoid.base for aa in grid_actions()]
    for base in instances:
        m = validate_inverse(base) if not hasattr(base, "inv") else base
        res = is_f_inverse(m)
        assert res.holds
        sel, sigma = res.selector, m.sigma
        q, _ = quotient(sigma)
        for g in range(q.n):
            for h in range(q.n):
                gh = q.mul(g, h)
                assert m.leq(m.mul(sel[g], sel[h]), sel[gh])
            ginv = next(d for d in range(q.n)
                        if q.mul(g, d) == q.id and q.mul(d, g) == q.id)
            assert m.inv[sel[g]] == sel[ginv]


def test_gluing_abelian_is_commutative():
    for gm in enumerate_gluing_maps(klein_four(), chain(3)):
        t = gluing(gm).monoid.base
        for x in range(t.n):
            for y in range(t.n):
                assert t.mul(x, y) == t.mul(y, x)


def test_gluing_round_trip_reproduces_f():
    for gm in enumerate_gluing_maps(cyclic_group(4), diamond()):
        gl = gluing(gm)
        back = gluing_map_from_clifford(gl.monoid)
        assert back.f == gm.f
        assert back.group.table == gm.group.table
