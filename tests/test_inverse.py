import ast
import sys
from collections import Counter
from functools import reduce
from itertools import product

import pytest

import imw.extension
import imw.inverse
import imw.suite
from conftest import _symmetric_inverse_monoid
from imw.constructions import clifford_reconstruction, factor_system_from_extension
from imw.core import (
    MonoidMap,
    backtrack,
    direct_product,
    is_group,
    make_congruence,
    make_monoid_map,
    quotient,
    tabulate,
    validate_monoid,
)
from imw.corpus import (
    brandt_b2_1,
    chain,
    cyclic_group,
    diamond,
    enumerate_inverse_monoids,
    klein_four,
    m3,
    m7,
    sym3,
    trivial_monoid,
)
from imw.errors import NoInverse, NonUniqueInverse, NotACongruence, ValidationError
from imw.extension import WSSplitting, build_canonical_extension, make_extension
from imw.inverse import (
    FInverseResult,
    idempotent_semilattice,
    is_clifford,
    is_e_unitary,
    is_f_inverse,
    min_group_congruence,
    natural_order,
    validate_inverse,
    validate_semilattice,
)
from imw.iso import verify_iso
from imw.report import analyze
from imw.suite import (
    build_context,
    criterion_1,
    criterion_2,
    criterion_4,
    criterion_6,
    criterion_7,
    sigma_by_exhaustion,
)


def sigma_by_union_find(m):
    """Oracle straight from the definition: merge a, b when e*a = e*b for an idempotent e."""
    idem = m.base.idempotents()
    parent = list(range(m.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(m.n):
        for b in range(a + 1, m.n):
            if any(m.mul(e, a) == m.mul(e, b) for e in idem):
                parent[find(a)] = find(b)
    return make_congruence(m.base, [find(x) for x in range(m.n)])


def dense_natural_order(m):
    """Oracle straight from the definition: leq[x][y] iff x = e*y for some
    idempotent e, as a dense matrix checked to be a partial order."""
    idem = m.base.idempotents()
    leq = [[False] * m.n for _ in range(m.n)]
    for y in range(m.n):
        for e in idem:
            leq[m.mul(e, y)][y] = True
    for x in range(m.n):
        assert leq[x][x], ("reflexivity", x)
        for y in range(m.n):
            assert not (leq[x][y] and leq[y][x] and x != y), ("antisymmetry", (x, y))
            if leq[x][y]:
                for z in range(m.n):
                    assert leq[x][z] or not leq[y][z], ("transitivity", (x, y, z))
    return leq


def _pairs(leq):
    return [(x, y) for x, row in enumerate(leq) for y, v in enumerate(row) if v]


def test_group_inverse_is_group_inverse():
    g = validate_inverse(cyclic_group(4))
    for x in range(4):
        assert g.mul(x, g.inv[x]) == g.id


def test_semilattice_inverse_is_identity():
    y = validate_inverse(chain(3).base)
    assert y.inv == (0, 1, 2)


def test_two_element_semilattice_table():
    m = validate_inverse(validate_monoid(2, [[0, 1], [1, 1]], 0))
    assert m.inv == (0, 1)


def test_no_inverse_witness():
    # With e*t = e the non-idempotent t has no generalized inverse at all.
    bad = validate_monoid(3, [[0, 1, 2], [1, 1, 1], [2, 1, 1]], 0)
    with pytest.raises(NoInverse) as exc:
        validate_inverse(bad)
    assert exc.value.witness == 2


def test_non_unique_inverse_witness():
    # Left-zero pair with identity: a and b are generalized inverses of
    # each other and of themselves.
    bad = validate_monoid(3, [[0, 1, 2], [1, 1, 1], [2, 2, 2]], 0)
    with pytest.raises(NonUniqueInverse) as exc:
        validate_inverse(bad)
    assert exc.value.witness == (1, (1, 2))  # candidates in ascending order


def test_non_unique_found_by_exhaustive_search():
    # Independent oracle: scan all 3x3 monoid tables for a witness.
    def gen_tables():
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    for d in range(3):
                        yield [[0, 1, 2], [1, a, b], [2, c, d]]

    found = None
    for t in gen_tables():
        try:
            m = validate_monoid(3, t, 0)
        except Exception:
            continue
        try:
            validate_inverse(m)
        except NonUniqueInverse:
            found = t
            break
        except NoInverse:
            continue
    assert found is not None


def test_inverse_involution_and_antihomomorphism(corpus_monoids):
    for name, m in corpus_monoids:
        for x in range(m.n):
            assert m.inv[m.inv[x]] == x, name
            for y in range(m.n):
                assert m.inv[m.mul(x, y)] == m.mul(m.inv[y], m.inv[x]), name


def test_idempotent_semilattice():
    g = validate_inverse(sym3())
    semi, emb = idempotent_semilattice(g)
    assert semi.n == 1
    y = validate_inverse(diamond().base)
    semi, emb = idempotent_semilattice(y)
    assert semi.n == 4 and emb.values == (0, 1, 2, 3)
    m = validate_inverse(m3())
    semi, emb = idempotent_semilattice(m)
    assert emb.values == (0, 1)
    assert semi.base.table == ((0, 1), (1, 1))


def test_natural_order_on_groups_is_equality():
    g = validate_inverse(klein_four())
    assert natural_order(g) == [(x, x) for x in range(4)]


def test_natural_order_on_semilattice_is_meet_order():
    y = diamond()
    m = validate_inverse(y.base)
    for a in range(4):
        for b in range(4):
            assert m.leq(a, b) == y.leq(a, b)


def test_natural_order_m3():
    # Oracle: direct scan of the definition x = e*y over E = {1, e}.
    m = validate_inverse(m3())
    expected = set()
    idem = [0, 1]
    for y in range(3):
        for e in idem:
            expected.add((m.mul(e, y), y))
    assert expected == {(0, 0), (1, 1), (2, 2), (1, 0)}
    assert set(natural_order(m)) == expected


def test_natural_order_on_symmetric_inverse_monoids_is_graph_inclusion():
    # Oracle without any search: partial bijections f <= g iff f is a
    # restriction of g. The labels of I_k are the maps themselves.
    for k, count in ((3, 139), (4, 1473)):
        m = validate_inverse(_symmetric_inverse_monoid(k))
        graphs = [{(i, j) for i, j in enumerate(ast.literal_eval(m.label(x))) if j >= 0}
                  for x in range(m.n)]
        expected = [(x, y) for x in range(m.n) for y in range(m.n)
                    if graphs[x] <= graphs[y]]
        assert len(expected) == count
        assert natural_order(m) == expected == _pairs(dense_natural_order(m))


def test_sigma_examples():
    g = validate_inverse(sym3())
    assert len(min_group_congruence(g).reps) == 6
    y = validate_inverse(chain(3).base)
    assert len(min_group_congruence(y).reps) == 1
    m = validate_inverse(m3())
    assert min_group_congruence(m).class_of == (0, 0, 1)


def test_sigma_matches_exhaustive_oracle(corpus_monoids):
    for name, m in corpus_monoids:
        if m.n > 6:
            continue
        oracle, found = sigma_by_exhaustion(m)
        assert found >= 1, name
        assert min_group_congruence(m).class_of == oracle, name


def all_congruences(m):
    """Oracle: every congruence of m, via restricted-growth partition enumeration."""
    for classes in backtrack([range(x + 1) for x in range(m.n)],
                             lambda a, x: a[x] <= max(a[:x], default=-1) + 1):
        try:
            yield make_congruence(m, classes)
        except NotACongruence:
            pass


@pytest.mark.parametrize("source", ["enumerated", "corpus"])
def test_sigma_search_finds_every_group_congruence_in_order(source, corpus_monoids,
                                                            monkeypatch):
    # The σ oracle tries only the partitions with every idempotent in the
    # class of 1. The group congruences among them must be those of the full
    # congruence enumeration, in its order; the totals were counted with the
    # search over every partition.
    if source == "enumerated":
        cases, count = list(enumerate_inverse_monoids(5)), 73
    else:
        cases, count = [m for _, m in corpus_monoids if m.n <= 6], 23
    tried = []

    def recording_quotient(theta):
        tried.append(theta)
        return quotient(theta)

    monkeypatch.setattr(imw.suite, "quotient", recording_quotient)
    total = 0
    for m in cases:
        tried.clear()
        _, found = sigma_by_exhaustion(m)
        got = [c.class_of for c in tried if is_group(quotient(c)[0])]
        want = [c.class_of for c in all_congruences(m.base) if is_group(quotient(c)[0])]
        assert got == want and found == len(want), m.base.table
        total += found
    assert total == count


def test_group_quotient_iff_x_inv_x_is_one(corpus_monoids):
    # The test min_group_congruence applies to σ holds for any congruence.
    cases = [m for _, m in corpus_monoids if m.n <= 7]
    cases += list(enumerate_inverse_monoids(4))
    checked = 0
    for m in cases:
        for cong in all_congruences(m.base):
            one = cong.class_of[m.id]
            by_inverses = all(cong.class_of[m.mul(x, m.inv[x])] == one
                              for x in range(m.n))
            q, qmap = quotient(cong)
            assert validate_monoid(q.n, q.table, q.id, q.labels) == q
            assert by_inverses == is_group(q)
            # The projection is built unchecked; the homomorphism check is the oracle.
            assert make_monoid_map(m.base, q, qmap.values) == qmap
            checked += 1
    assert checked == 129


def test_idempotent_semilattice_passes_the_checks_it_skips(order_cases):
    # E(M) and k are built unchecked: validate_inverse compared the pairs of
    # idempotents, so they are closed under the product, and k is read from
    # M's own product. The definitional checks and the build through
    # tabulate are the oracles.
    for m, _ in order_cases:
        semi, k = m.semilattice
        e = semi.base
        assert validate_semilattice(validate_monoid(e.n, e.table, e.id, e.labels)) == semi
        assert tabulate(k.values, m.mul, m.id, m.label)[0] == e
        assert make_monoid_map(e, m.base, k.values) == k


def test_group_image_passes_the_checks_it_skips(order_cases):
    # M/σ is built unchecked from the least members of the classes, and σ
    # from the least idempotent with no group check; the monoid check, the
    # build through tabulate and is_group are the oracles.
    for m, _ in order_cases:
        q, _ = m.group_image
        cls, reps, t = m.sigma.class_of, m.sigma.reps, m.base.table
        assert validate_monoid(q.n, q.table, q.id, q.labels) == q
        assert is_group(q)
        assert tabulate(reps, lambda x, y: reps[cls[t[x][y]]], reps[cls[m.id]],
                        lambda x: f"[{m.label(x)}]")[0] == q


def _congruences_by_scan(m):
    """Oracle: the restricted-growth strings of the full n^n scan, in scan
    order, that make_congruence accepts, as class vectors."""
    found = []
    for a in product(range(m.n), repeat=m.n):
        if all(a[x] <= max(a[:x], default=-1) + 1 for x in range(m.n)):
            try:
                found.append(make_congruence(m, a).class_of)
            except NotACongruence:
                pass
    return found


@pytest.mark.parametrize("source", ["enumerated", "corpus"])
def test_all_congruences_match_the_scan(source, corpus_monoids):
    if source == "enumerated":
        cases, count = [m.base for m in enumerate_inverse_monoids(5)], 346
    else:
        cases, count = [m.base for _, m in corpus_monoids if m.n <= 6], 44
    total = 0
    for m in cases:
        got = [cong.class_of for cong in all_congruences(m)]
        assert got == _congruences_by_scan(m)
        total += len(got)
    assert total == count


def test_sigma_matches_union_find_definition(corpus_monoids):
    z2, z3 = cyclic_group(2), cyclic_group(3)
    products = [
        ("m7xm3xz2", direct_product(direct_product(m7(), m3()), z2)),
        ("b2-1xz3", direct_product(brandt_b2_1(), z3)),
        ("b2-1xm3xz3", direct_product(direct_product(brandt_b2_1(), m3()), z3)),
    ]
    cases = list(corpus_monoids)
    cases += [(f"enum#{i}", m) for i, m in enumerate(enumerate_inverse_monoids(5))]
    cases += [(name, validate_inverse(p)) for name, p in products]
    assert max(m.n for _, m in cases) >= 40
    for name, m in cases:
        assert min_group_congruence(m) == sigma_by_union_find(m), name


def test_least_idempotent_is_central_and_below_every_idempotent(corpus_monoids):
    for name, m in corpus_monoids:
        idem = m.base.idempotents()
        e0 = reduce(m.mul, idem, m.id)
        assert m.base.table[e0][e0] == e0, name
        assert all(m.mul(e0, x) == m.mul(x, e0) for x in range(m.n)), name
        assert all(m.mul(e0, e) == e0 for e in idem), name


@pytest.fixture()
def sigma_calls(monkeypatch):
    """The monoids whose sigma is computed, one entry per computation.

    Every imw module that binds min_group_congruence gets the counter, so a
    direct call from any of them is seen as well.
    """
    calls = []
    original = imw.inverse.min_group_congruence

    def counting(m):
        calls.append(m)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("imw") and \
                getattr(module, "min_group_congruence", None) is original:
            monkeypatch.setattr(module, "min_group_congruence", counting)
    return calls


def test_analyze_computes_sigma_once(sigma_calls):
    analyze(m7(), "m7")
    assert [m.base for m in sigma_calls] == [m7()]


def test_clifford_reconstruction_computes_sigma_once_per_monoid(sigma_calls):
    # The rebuilt gluing is a second monoid, but building it derives nothing.
    m = validate_inverse(m3())
    clifford_reconstruction(m)
    assert len(sigma_calls) == 1 and sigma_calls[0] is m


@pytest.fixture()
def derivation_calls(monkeypatch):
    """The monoids each part of E(M) -> M -> M/σ and each verdict is derived
    for, one entry per derivation, keyed by the function that derives it.

    Entries are InverseMonoid objects, except for ``quotient``, whose entries
    are the FiniteMonoid divided, and ``is_weakly_schreier``, whose entries
    are the middle FiniteMonoid of the extension it splits. Only quotients by
    a σ that min_group_congruence returned count: not the one it takes for its
    own group check before returning, nor those of the oracle of criterion 6.
    Every imw module that binds one of these functions gets a counter.
    """
    names = ("min_group_congruence", "is_f_inverse", "idempotent_semilattice",
             "quotient", "is_e_unitary", "is_clifford",
             "build_canonical_extension", "is_weakly_schreier")
    calls = {name: [] for name in names}
    sigmas = []

    def counter(name, original):
        def counting(m, *args):
            if name != "quotient" or any(m is s for s in sigmas):
                calls[name].append(m.q.source if name == "is_weakly_schreier"
                                   else m.monoid if name == "quotient" else m)
            result = original(m, *args)
            if name == "min_group_congruence":
                sigmas.append(result)
            return result
        return counting

    for name in names:
        original = getattr(imw.inverse, name, None) or getattr(imw.extension, name)
        counting = counter(name, original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("imw") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_canonical_diagram_is_derived_once_per_monoid(derivation_calls):
    from test_acceptance import small_context

    analyze(m7(), "m7")
    ctx = small_context()
    m = ctx.monoids[0][1]
    clifford_reconstruction(m)
    # small_context lacks the negatives that criteria 1 and 2 demand.
    for criterion in (criterion_1, criterion_2, criterion_4, criterion_6,
                      criterion_7):
        assert criterion(ctx).checked == 1
    built = derivation_calls["idempotent_semilattice"]
    assert built[0].base == m7() and sum(x is m for x in built) == 1
    # m7, m3 and the Gl(f) of the context are derived; the Gl(f') that
    # criterion 4 and clifford_reconstruction rebuild are not. Only m7 and
    # m3 are asked whether they are E-unitary, and so split.
    expected = dict.fromkeys(derivation_calls, 3)
    expected.update(dict.fromkeys(
        ("is_e_unitary", "build_canonical_extension", "is_weakly_schreier"), 2))
    for name, monoids in derivation_calls.items():
        counts = Counter(id(x) for x in monoids)
        assert len(counts) == expected[name] and max(counts.values()) == 1, \
            (name, counts)


def test_e_unitary():
    assert is_e_unitary(validate_inverse(sym3())).holds
    assert is_e_unitary(validate_inverse(m3())).holds
    res = is_e_unitary(validate_inverse(brandt_b2_1()))
    assert not res.holds
    x, e = res.witness
    b = validate_inverse(brandt_b2_1())
    xe = b.mul(x, e)
    assert b.base.table[e][e] == e
    assert b.base.table[xe][xe] == xe
    assert b.base.table[x][x] != x


def test_e_unitary_iff_kernel_is_idempotents(corpus_monoids):
    for name, m in corpus_monoids:
        sigma = min_group_congruence(m)
        kernel = {x for x in range(m.n)
                  if sigma.class_of[x] == sigma.class_of[m.id]}
        assert is_e_unitary(m).holds == (kernel == set(m.base.idempotents())), name


def test_f_inverse():
    g = validate_inverse(klein_four())
    res = is_f_inverse(g)
    assert res.holds and res.selector == (0, 1, 2, 3)
    m = validate_inverse(m3())
    res = is_f_inverse(m)
    assert res.holds and res.selector == (0, 2)


def test_m7_not_f_inverse():
    m = validate_inverse(m7())
    res = is_f_inverse(m)
    assert not res.holds
    # The failing class is the fiber {(a,g), (b,g), (0,g)} with the two
    # incomparable pairs (a,g) and (b,g) maximal.
    members = [x for x in range(m.n)
               if m.sigma.class_of[x] == res.witness_class]
    assert sorted(members) == [4, 5, 6]
    assert res.witness_maximals == (4, 5)
    leq = dense_natural_order(m)
    a, b = res.witness_maximals
    assert not leq[a][b] and not leq[b][a]


def _f_inverse_by_order(m, leq):
    """Oracle: the greatest element of each sigma class, read off the dense
    natural order leq, as (selector, witness class, witness maximals)."""
    selector = []
    for c, members in enumerate(m.sigma.classes()):
        maximals = tuple(x for x in members
                         if not any(leq[x][y] for y in members if y != x))
        if len(maximals) != 1:
            return None, c, maximals
        assert all(leq[y][maximals[0]] for y in members)
        selector.append(maximals[0])
    return tuple(selector), None, None


@pytest.fixture(scope="module")
def order_cases(corpus_monoids):
    """Each monoid with its dense natural order: the corpus, the inverse
    monoids up to n = 5 and the suite's grid."""
    cases = [m for _, m in corpus_monoids]
    cases += list(enumerate_inverse_monoids(5))
    cases += [m for _, m in build_context().monoids]
    return [(m, dense_natural_order(m)) for m in cases]


def test_f_inverse_matches_the_dense_natural_order(order_cases):
    assert (len(order_cases),
            sum(not is_f_inverse(m).holds for m, _ in order_cases)) == (346, 29)
    for m, leq in order_cases:
        res = is_f_inverse(m)
        assert (res.selector, res.witness_class, res.witness_maximals) == \
            _f_inverse_by_order(m, leq)


def _f_inverse_by_maximal_scan(m):
    """Oracle: the maximal elements of each sigma class under m.leq, by a
    scan over every pair of members, with the unique one confirmed greatest."""
    selector = []
    for c, members in enumerate(m.sigma.classes()):
        maximals = tuple(x for x in members
                         if not any(m.leq(x, y) for y in members if y != x))
        if len(maximals) != 1:
            return FInverseResult(holds=False, witness_class=c, witness_maximals=maximals)
        assert all(m.leq(y, maximals[0]) for y in members)
        selector.append(maximals[0])
    return FInverseResult(holds=True, selector=tuple(selector))


def test_f_inverse_matches_the_maximal_scan(order_cases):
    # is_f_inverse finds a candidate in one pass and scans for maximals only
    # in a class that has no greatest element.
    for m, _ in order_cases:
        assert is_f_inverse(m) == _f_inverse_by_maximal_scan(m)


def test_natural_order_matches_the_dense_oracle(order_cases):
    for m, leq in order_cases:
        pairs = _pairs(leq)
        assert natural_order(m) == pairs
        assert [(x, y) for x in range(m.n) for y in range(m.n) if m.leq(x, y)] == pairs


def test_f_inverse_implies_e_unitary(corpus_monoids):
    for name, m in corpus_monoids:
        if is_f_inverse(m).holds:
            assert is_e_unitary(m).holds, name


def test_clifford():
    assert is_clifford(validate_inverse(m3())).holds
    assert is_clifford(validate_inverse(cyclic_group(5))).holds
    res = is_clifford(validate_inverse(m7()))
    assert not res.holds
    e, x = res.witness
    m = validate_inverse(m7())
    assert m.base.table[e][e] == e and m.mul(e, x) != m.mul(x, e)
    # B2^1 x B2^1 with (1,a) and (ab,1) numbered first. The least non-central
    # idempotent (ab,1) commutes with (1,a), so the first pair in
    # idempotent-major order is not the first in element-major order.
    b = brandt_b2_1()
    first = [(0, 0), (0, 1), (3, 0)]
    pairs = first + [p for p in product(range(b.n), repeat=2) if p not in first]
    bb = tabulate(pairs, lambda p, q: (b.mul(p[0], q[0]), b.mul(p[1], q[1])), (0, 0),
                  lambda p: f"({b.label(p[0])},{b.label(p[1])})")[0]
    res = is_clifford(validate_inverse(bb))
    assert [bb.label(v) for v in res.witness] == ["(ab,1)", "(a,1)"]


def test_clifford_iff_x_inv_x_is_inv_x_x(order_cases):
    # is_clifford tests only that idempotents are central. In an inverse
    # monoid that holds iff x*inv(x) = inv(x)*x for every x, and the witness
    # is the first non-commuting (e, x) in idempotent-major order.
    verdicts = [(m, is_clifford(m)) for m, _ in order_cases]
    assert sum(not res.holds for _, res in verdicts) == 17
    for m, res in verdicts:
        assert res.holds == all(m.mul(x, m.inv[x]) == m.mul(m.inv[x], x) for x in range(m.n))
        pairs = [(e, x) for e in range(m.n) if m.mul(e, e) == e
                 for x in range(m.n) if m.mul(e, x) != m.mul(x, e)]
        assert res.witness == (pairs[0] if pairs else None)


def _no_action_witness():
    # The right-zero band {1, a, b} (x*y = y) over the trivial group, with s
    # picking a: s*k(b) = b, but every k(n)*s = a.
    rz = validate_monoid(3, [[0, 1, 2], [1, 1, 2], [2, 1, 2]], 0)
    one = trivial_monoid()
    ext = make_extension(make_monoid_map(rz, rz, [0, 1, 2]),
                         make_monoid_map(rz, one, [0, 0, 0]))
    s = MonoidMap(one, rz, (1,))
    factor_system_from_extension(ext, WSSplitting(s=s, candidates=()))


def _no_chi_witness():
    # Z2 over itself with the section swapped: s(0)*s(0) = 1*1 = 0, but k(n)*s(0) = 1.
    ext = build_canonical_extension(validate_inverse(cyclic_group(2)))
    s = MonoidMap(ext.q.target, ext.q.source, (1, 0))
    factor_system_from_extension(ext, WSSplitting(s=s, candidates=()))


@pytest.mark.parametrize("fail, cls, message", [
    (lambda: verify_iso(trivial_monoid(), cyclic_group(2), [0], [0, 0]), ValidationError,
     "candidate maps are not mutually inverse (forward∘backward fails at 1)"),
    (lambda: verify_iso(cyclic_group(2), cyclic_group(2), [0, 1], [0, 0]), ValidationError,
     "candidate maps are not mutually inverse (backward∘forward fails at 1)"),
    (lambda: validate_semilattice(cyclic_group(2)), ValidationError,
     "not a semilattice monoid (not idempotent): witness 1"),
    # The left-zero band with an identity.
    (lambda: validate_semilattice(validate_monoid(3, [[0, 1, 2], [1, 1, 1], [2, 2, 2]], 0)),
     ValidationError, "not a semilattice monoid (not commutative): witness (1, 2)"),
    (_no_action_witness, ValidationError, "no element solves k(n')*s(0) = s(0)*k(2)"),
    (_no_chi_witness, ValidationError, "no element solves k(n)*s(0*0) = s(0)*s(0)"),
], ids=["forward-backward", "backward-forward", "not-idempotent", "not-commutative",
        "no-action", "no-chi"])
def test_each_failure_without_its_own_class_keeps_its_message(fail, cls, message):
    with pytest.raises(cls) as exc:
        fail()
    assert str(exc.value) == message


def test_order_restricted_to_idempotents_is_semilattice_order(corpus_monoids):
    for name, m in corpus_monoids:
        semi, emb = idempotent_semilattice(m)
        for i, e in enumerate(emb.values):
            for j, f in enumerate(emb.values):
                assert m.leq(e, f) == semi.leq(i, j), name


def test_enumerated_inverse_monoids_have_commuting_idempotents(order_cases):
    # validate_inverse does not check this theorem, and E(M) relies on it.
    for m, _ in order_cases:
        for e in m.base.idempotents():
            for f in m.base.idempotents():
                assert m.mul(e, f) == m.mul(f, e)
