import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imw.core import (
    Congruence,
    direct_product,
    generated_submonoid,
    identity_congruence,
    is_group,
    make_congruence,
    make_monoid_map,
    quotient,
    tabulate,
    universal_congruence,
    validate_monoid,
)
from imw.corpus import (
    chain,
    cyclic_group,
    enumerate_inverse_monoids,
    klein_four,
    m3,
    small_groups,
    trivial_monoid,
)
from imw.errors import (
    IndexOutOfRange,
    NotACongruence,
    NotAssociative,
    NotIdentity,
)
from imw.inverse import is_clifford, validate_inverse
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
        q, qmap = quotient(m.base, identity_congruence(m.base))
        assert brute_force_iso(q, m.base) is not None
        assert qmap.values == tuple(range(m.n))


def test_quotient_universal_congruence():
    m = m3()
    q, _ = quotient(m, universal_congruence(m))
    assert q.n == 1


def test_quotient_m3_by_sigma_is_z2():
    m = validate_inverse(m3())
    sigma = min_group_congruence(m)
    assert sigma.class_of == (0, 0, 1)
    q, qmap = quotient(m.base, sigma)
    assert brute_force_iso(q, cyclic_group(2)) is not None
    # The projection is a homomorphism by construction; recheck explicitly.
    for x in range(m.n):
        for y in range(m.n):
            assert qmap.values[m.mul(x, y)] == q.mul(qmap.values[x], qmap.values[y])


def test_quotient_rejects_incompatible_partition():
    m = m3()
    with pytest.raises(NotACongruence):
        make_congruence(m, [0, 1, 0])  # merges 1 and t but separates e


def test_quotient_checks_every_pair_of_representatives():
    # Congruence built directly, bypassing make_congruence: {1, t} is not a
    # class, since e*1 = e and e*t = t fall in different classes.
    m = m3()
    with pytest.raises(NotACongruence) as exc:
        quotient(m, Congruence(monoid=m, class_of=(0, 1, 0), num_classes=2))
    assert exc.value.witness == ((1, 0), (1, 2))


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
