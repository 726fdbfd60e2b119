from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (_monoid_tables_by_scan, _semilattices_by_scan,
                      _symmetric_inverse_monoid, identity_congruence,
                      universal_congruence)
from imw.constructions import (
    AlmostAction,
    FactorSystem,
    GluingMap,
    crossed_product,
    f_product,
    gluing,
)
from imw.core import (
    Congruence,
    _generators,
    _Sealed,
    backtrack,
    direct_product,
    generated_submonoid,
    is_group,
    make_congruence,
    make_monoid_map,
    quotient,
    tabulate,
    validate_monoid,
)
from imw.corpus import (
    brandt_b2_1,
    builtin_corpus,
    chain,
    cyclic_group,
    diamond,
    enumerate_inverse_monoids,
    klein_four,
    m3,
    m7,
    small_groups,
    sym3,
    trivial_monoid,
)
from imw.errors import (
    IndexOutOfRange,
    NotACongruence,
    NotAssociative,
    NotHomomorphism,
    NotIdentity,
    ValidationError,
)
from imw.inverse import (
    InverseMonoid,
    SemilatticeMonoid,
    idempotent_semilattice,
    is_clifford,
    validate_inverse,
)
from imw.iso import brute_force_iso
from imw.inverse import min_group_congruence


def assoc_failure(table):
    """Independent oracle: first associativity failure, or None."""
    n = len(table)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return (x, y, z)
    return None


def test_trivial_monoid():
    m = validate_monoid(1, [[0]], 0)
    assert m.n == 1 and m.id == 0


def test_z2():
    m = validate_monoid(2, [[0, 1], [1, 0]], 0)
    assert is_group(m)


def test_z2_with_zero_is_associative():
    # This table (t*t = 1, e absorbing) is the two-element group with an
    # adjoined zero; the oracle confirms it is associative, and it is even
    # an inverse monoid.
    table = [[0, 1, 2], [1, 1, 1], [2, 1, 0]]
    assert assoc_failure(table) is None
    m = validate_monoid(3, table, 0)
    assert validate_inverse(m).inv == (0, 1, 2)


def test_not_associative_witness():
    table = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    expected = assoc_failure(table)
    assert expected is not None
    with pytest.raises(NotAssociative) as exc:
        validate_monoid(3, table, 0)
    x, y, z = exc.value.witness
    assert table[table[x][y]][z] != table[x][table[y][z]]


def has_two_sided_inverses(m):
    """Oracle for is_group: search every element for a two-sided inverse."""
    return all(any(m.mul(x, y) == m.id and m.mul(y, x) == m.id for y in range(m.n))
               for x in range(m.n))


def test_is_group_matches_the_inverse_search(corpus_monoids):
    enumerated = [m.base for m in enumerate_inverse_monoids(5)]
    for m in small_groups() + [m.base for _, m in corpus_monoids] + enumerated:
        assert is_group(m) == has_two_sided_inverses(m), m.table
    # Z1, Z2, Z3, Z4, the Klein four-group and Z5.
    assert sum(is_group(m) for m in enumerated) == 6


def test_tabulate_numbers_elements_in_list_order():
    # Z2 on the strings "a" (the identity) and "b", listed as b, a.
    m, index = tabulate(["b", "a"], lambda x, y: "a" if x == y else "b", "a", str.upper)
    assert index == {"b": 0, "a": 1}
    assert (m.table, m.id, m.labels) == (((1, 0), (0, 1)), 1, ("B", "A"))
    table = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    with pytest.raises(NotAssociative):
        tabulate(range(3), lambda x, y: table[x][y], 0, str)


def test_bad_identity_and_range():
    with pytest.raises(NotIdentity):
        validate_monoid(2, [[0, 0], [1, 0]], 0)
    with pytest.raises(IndexOutOfRange):
        validate_monoid(2, [[0, 1], [1, 2]], 0)
    with pytest.raises(IndexOutOfRange):
        validate_monoid(2, [[0, 1], [1, 0]], 5)


@pytest.mark.parametrize("table, message", [
    ([[0, 1, 2], [1, 7, -2], [2, -5, 9]], "table[1]: entry 7 outside 0..2"),
    ([[0, 1, 2], [1, -1, 5], [2, 2, 2]], "table[1]: entry -1 outside 0..2"),
    ([[0, 1, 2], [1, 2, 3], [2, 2]], "table[1]: entry 3 outside 0..2"),
    ([[0, 1, 2], [1, 1, 1], [-3, 2, 2]], "table[2]: entry -3 outside 0..2"),
])
def test_range_error_names_the_first_bad_cell_row_by_row(table, message):
    # Recorded before the range check read each row once: the first value
    # out of range in row-major order, before a later row's length.
    with pytest.raises(IndexOutOfRange) as exc:
        validate_monoid(3, table, 0)
    assert str(exc.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: validate_monoid(0, [], 0), "element count: expected at least 1, got 0"),
    (lambda: validate_monoid(-1, [], 0), "element count: expected at least 1, got -1"),
    (lambda: validate_monoid(2, [[0, 1]], 0), "row count: expected 2, got 1"),
    (lambda: validate_monoid(2, [[0, 1], [1, 0], [0, 0]], 0), "row count: expected 2, got 3"),
    (lambda: validate_monoid(2, [[0, 1], [1]], 0), "row 1 length: expected 2, got 1"),
    (lambda: validate_monoid(2, [[0, 1], [1, 0]], 0, ["1"]), "label count: expected 2, got 1"),
    (lambda: make_monoid_map(m3(), cyclic_group(2), [0, 0]), "map length: expected 3, got 2"),
    (lambda: make_congruence(m3(), [0, 0, 1, 1]), "class vector length: expected 3, got 4"),
])
def test_length_error_states_the_expected_length(build, message):
    # A wrong length is not a value out of range, so no range is named.
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message
    assert not isinstance(exc.value, IndexOutOfRange)


@pytest.mark.parametrize("values, cls, message", [
    ([0, 1, 5], IndexOutOfRange, "map value: entry 5 outside 0..1"),
    ([1, 1, 0], NotHomomorphism, "map does not preserve the identity (0)"),
])
def test_make_monoid_map_rejects_a_bad_value(values, cls, message):
    with pytest.raises(cls) as exc:
        make_monoid_map(m3(), cyclic_group(2), values)
    assert str(exc.value) == message


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.lists(st.lists(st.integers(0, n - 1),
                                          min_size=n, max_size=n),
                                 min_size=n, max_size=n))))
def test_validator_matches_oracle(case):
    n, table = case
    # Force row/column 0 to make 0 an identity; the oracle then decides.
    for j in range(n):
        table[0][j] = j
        table[j][0] = j
    witness = assoc_failure(table)
    if witness is None:
        m = validate_monoid(n, table, 0)
        assert m.table == tuple(tuple(r) for r in table)
    else:
        with pytest.raises(NotAssociative):
            validate_monoid(n, table, 0)


def test_quotient_identity_congruence(corpus_monoids):
    for _, m in corpus_monoids:
        q, qmap = quotient(identity_congruence(m.base))
        assert brute_force_iso(q, m.base) is not None
        assert qmap.values == tuple(range(m.n))


def test_quotient_universal_congruence():
    m = m3()
    q, _ = quotient(universal_congruence(m))
    assert q.n == 1


def test_quotient_m3_by_sigma_is_z2():
    m = validate_inverse(m3())
    sigma = min_group_congruence(m)
    assert sigma.class_of == (0, 0, 1)
    q, qmap = quotient(sigma)
    assert brute_force_iso(q, cyclic_group(2)) is not None
    # The projection is a homomorphism by construction; recheck explicitly.
    for x in range(m.n):
        for y in range(m.n):
            assert qmap.values[m.mul(x, y)] == q.mul(qmap.values[x], qmap.values[y])


def test_quotient_rejects_incompatible_partition():
    # make_congruence is the one compatibility check quotient relies on:
    # {1, t} is not a class, since e*1 = e and e*t = t fall in different
    # classes.
    with pytest.raises(NotACongruence) as exc:
        make_congruence(m3(), [0, 1, 0])
    assert exc.value.witness == ((1, 0), (1, 2))


def _set_partitions(n):
    """Every partition of range(n) as a restricted growth string."""
    if n == 0:
        yield ()
        return
    for head in _set_partitions(n - 1):
        for c in range(max(head, default=-1) + 2):
            yield head + (c,)


def test_quotient_checks_every_pair_of_representatives():
    # Oracle: a partition is a congruence iff x ~ x' implies z*x ~ z*x' and
    # x*z ~ x'*z for every z. make_congruence compares each pair only with
    # its representatives' product; it must agree on every partition, and a
    # rejection must name two pairs with equal classes but unequal products.
    accepted = rejected = 0
    for m in (m3(), m7(), brandt_b2_1(), klein_four(), chain(3).base):
        t = m.table
        for c in _set_partitions(m.n):
            same = [(x, y) for x in range(m.n) for y in range(m.n)
                    if c[x] == c[y]]
            ok = all(c[t[z][x]] == c[t[z][y]] and c[t[x][z]] == c[t[y][z]]
                     for x, y in same for z in range(m.n))
            if ok:
                assert make_congruence(m, c).class_of == c
                accepted += 1
                continue
            with pytest.raises(NotACongruence) as exc:
                make_congruence(m, c)
            (a, b), (x, y) = exc.value.witness
            assert c[a] == c[x] and c[b] == c[y] and c[t[a][b]] != c[t[x][y]]
            rejected += 1
    assert accepted and rejected


def test_direct_product_trivial():
    m = m3()
    p = direct_product(trivial_monoid(), m)
    assert brute_force_iso(p, m) is not None


def test_direct_product_klein():
    p = direct_product(cyclic_group(2), cyclic_group(2))
    assert brute_force_iso(p, klein_four()) is not None


def test_direct_product_ch2_z2_is_clifford():
    p = direct_product(chain(2).base, cyclic_group(2))
    assert p.n == 4
    assert is_clifford(validate_inverse(p)).holds


def test_direct_product_projections_are_homomorphisms():
    a, b = cyclic_group(2), chain(3).base
    p = direct_product(a, b)
    first = [i // b.n for i in range(p.n)]
    second = [i % b.n for i in range(p.n)]
    make_monoid_map(p, a, first)  # raises if not a homomorphism
    make_monoid_map(p, b, second)


def test_generated_submonoid():
    m = m3()
    sub, emb = generated_submonoid(m, [m.id])
    assert sub.n == 1
    z2 = cyclic_group(2)
    sub, emb = generated_submonoid(z2, [1])
    assert sub.n == 2 and emb.values == (0, 1)
    sub, emb = generated_submonoid(m, [1])  # the idempotent e
    assert sub.n == 2 and emb.values == (0, 1)
    assert brute_force_iso(sub, chain(2).base) is not None
    assert emb.is_injective()
    # The closure grows: g generates Z4, and t generates e = t*t.
    sub, emb = generated_submonoid(cyclic_group(4), [1])
    assert sub.n == 4 and emb.values == (0, 1, 2, 3)
    sub, emb = generated_submonoid(m, [2])
    assert sub.n == 3 and emb.values == (0, 1, 2)
    assert make_monoid_map(sub, m, emb.values) == emb  # built unchecked


# Light's test decides associativity from a generating set; these tests hold
# it to the triple loop above, witness for witness.

def _expect_oracle(table):
    """validate_monoid on ``table`` (identity 0) agrees with assoc_failure."""
    n = len(table)
    expected = assoc_failure(table)
    if expected is None:
        m = validate_monoid(n, table, 0)
        assert m.table == tuple(tuple(r) for r in table)
    else:
        with pytest.raises(NotAssociative) as exc:
            validate_monoid(n, table, 0)
        assert exc.value.witness == expected
    return expected


def _small_associative_tables():
    """The tables of the unpruned scan for 2 <= n <= 4, all associative."""
    return [t for n in range(2, 5) for t in _monoid_tables_by_scan(n)]


def _random_table(n, cells):
    table = [[cells[i * n + j] for j in range(n)] for i in range(n)]
    for j in range(n):  # identity 0
        table[0][j] = j
        table[j][0] = j
    return table


def _planted_table(case):
    base, x, y, v = case
    table = [list(r) for r in base]
    n = len(table)
    x, y = 1 + x % (n - 1), 1 + y % (n - 1)  # keep the identity row and column
    table[x][y] = v % n
    return table


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(2, 6).flatmap(lambda n: st.builds(
        _random_table, st.just(n),
        st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))),
    st.builds(_planted_table, st.tuples(
        st.sampled_from(_small_associative_tables()),
        st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)))))
def test_validator_witness_is_the_oracles_first_triple(table):
    _expect_oracle(table)


def _relabel_identity_to_0(m):
    """The same table with the identity swapped to index 0."""
    perm = list(range(m.n))
    perm[0], perm[m.id] = m.id, 0
    return [[perm[m.table[perm[x]][perm[y]]] for y in range(m.n)] for x in range(m.n)]


def _planted_cells(table):
    """A changed cell in a generator's row, one in a generator's column, and
    one whose row and column are neither a generator nor the identity."""
    t = tuple(tuple(r) for r in table)
    gens = _generators(t, 0)
    far = [x for x in range(1, len(t)) if x not in gens]
    return [(gens[0], far[-1]), (far[len(far) // 2], gens[-1]), (far[-1], far[-2])]


def test_validator_witness_on_planted_cells_in_large_tables():
    large = [direct_product(m7(), sym3()),
             direct_product(brandt_b2_1(), direct_product(m7(), cyclic_group(3))),
             direct_product(direct_product(m3(), m7()), klein_four()),
             _symmetric_inverse_monoid(4)]
    assert [m.n for m in large] == [42, 126, 84, 209]
    for m in large:
        table = _relabel_identity_to_0(m)
        assert _expect_oracle(table) is None
        for x, y in _planted_cells(table):
            planted = [list(r) for r in table]
            planted[x][y] = (planted[x][y] + 1) % m.n
            assert _expect_oracle(planted) is not None, (m.n, x, y)


def test_validator_accepts_every_corpus_and_enumerated_table():
    for inst in builtin_corpus():
        m = inst.table
        again = validate_monoid(m.n, m.table, m.id, m.labels)
        assert (again.table, again.labels) == (m.table, m.labels)
    tables = [t for n in range(1, 6) for t in _monoid_tables_by_scan(n)]
    assert len(tables) == 1 + 2 + 11 + 156 + 4122
    for table in tables:
        assert validate_monoid(len(table), table, 0).table == tuple(map(tuple, table))
    semis = _semilattices_by_scan(6)
    assert semis
    for table in semis:
        assert assoc_failure(table) is None
        assert validate_monoid(6, table, 0).table == table


# Witnesses recorded before make_monoid_map and make_congruence read table
# rows directly: both scan x-major, and the first failing cell is the witness.

def test_homomorphism_witness_is_the_first_failing_cell():
    # The failing cells are (2,5), (5,1) and (5,5); a y-major scan would
    # report (5,1).
    with pytest.raises(NotHomomorphism) as exc:
        make_monoid_map(m7(), m3(), (0, 1, 1, 1, 1, 0, 1))
    assert exc.value.witness == (2, 5)
    assert str(exc.value) == "map is not a homomorphism at (2,5)"


def test_congruence_witness_is_the_first_conflicting_pair():
    # A y-major scan would report ((4, 0), (4, 1)).
    with pytest.raises(NotACongruence) as exc:
        make_congruence(m7(), (0, 0, 1, 1, 2, 2, 3))
    assert exc.value.witness == ((0, 4), (1, 5))
    assert str(exc.value) == \
        "relation is not compatible with multiplication: ((0, 4), (1, 5))"


def test_congruence_witness_names_the_least_members_of_a_later_row():
    # Classes {1, (a,1)} and the rest. Rows 2 and 3 agree with row 2, the
    # least of their class; row 4 is the first that does not: (a,g)·(b,g) =
    # (a,1), while (b,1)·(b,1) = (b,1).
    with pytest.raises(NotACongruence) as exc:
        make_congruence(m7(), (0, 0, 1, 1, 1, 1, 1))
    assert exc.value.witness == ((2, 2), (4, 5))


def _t3():
    """T3, the self-maps of 3 points: regular but not inverse."""
    maps = sorted(product(range(3), repeat=3))
    return tabulate(maps, lambda x, y: tuple(y[x[i]] for i in range(3)), (0, 1, 2), str)[0]


# Each record built by hand, passed to the consumer that trusts it.
_HAND_BUILT = [
    # Not a congruence: quotient would read its reps and give the 2-chain.
    ("Congruence", "make_congruence",
     lambda: quotient(Congruence(monoid=m3(), class_of=(0, 1, 0), reps=(0, 1)))),
    # T3 is not inverse: E(M) of it would raise a bare KeyError.
    ("InverseMonoid", "validate_inverse",
     lambda: idempotent_semilattice(InverseMonoid(base=_t3(), inv=tuple(range(27))))),
    ("SemilatticeMonoid", "validate_semilattice",
     lambda: SemilatticeMonoid(base=cyclic_group(2))),
    # The swap of the 2-chain breaks A2, yet F(Y,G) of it would be a monoid.
    ("AlmostAction", "validate_almost_action",
     lambda: f_product(AlmostAction(cyclic_group(2), chain(2), ((0, 1), (1, 0))))),
    # f(1) is not the top.
    ("GluingMap", "validate_gluing_map",
     lambda: gluing(GluingMap(cyclic_group(2), chain(2), (1, 0)))),
    # The diamond system of test_crossed_product_rejects_broken_relation:
    # crossed_product would read least members and give the 3-chain.
    ("FactorSystem", "validate_factor_system",
     lambda: crossed_product(FactorSystem(h_part=trivial_monoid(), n_part=diamond().base,
                                          sim=((0, 1, 1, 2),), act=((0, 1, 2, 3),),
                                          chi=((0,),)))),
]


@pytest.mark.parametrize("record, checker, build", _HAND_BUILT,
                         ids=[record for record, _, _ in _HAND_BUILT])
def test_each_checked_record_comes_only_from_its_checker(record, checker, build):
    with pytest.raises(TypeError) as exc:
        build()
    assert str(exc.value) == f"{record} is made only by {checker}"


def test_a_forged_seal_is_refused():
    with pytest.raises(TypeError, match="Congruence is made only by make_congruence"):
        Congruence(monoid=m3(), class_of=(0, 1, 2), reps=(0, 1, 2), seal=object())
    cong = Congruence(monoid=m3(), class_of=(0, 1, 2), reps=(0, 1, 2), seal=_Sealed)
    assert cong == make_congruence(m3(), [0, 1, 2])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), max_size=4), max_size=5),
       st.functions(like=lambda prefix: None, returns=st.booleans(), pure=True))
@example([], lambda prefix: False)  # zero positions: one empty tuple
@example([[0, 1], [], [2]], lambda prefix: True)  # an empty domain: nothing
def test_backtrack_is_the_filtered_product_in_order(domains, keep):
    # keep sees only the prefix a[:d+1], so a tuple survives iff each of its
    # prefixes is kept, and the product lists tuples in lexicographic order.
    expected = [a for a in product(*domains)
                if all(keep(a[:d + 1]) for d in range(len(a)))]
    assert list(backtrack(domains, lambda a, d: keep(tuple(a[:d + 1])))) == expected
    if not domains:
        assert expected == [()]
    elif not all(domains):
        assert expected == []
