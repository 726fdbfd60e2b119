import contextlib
import inspect
import io
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _least_relabelled_table, _monoid_tables_by_scan, _semilattices_by_scan
from imw.cli import cli_main
from imw.core import direct_product, validate_monoid
from imw.corpus import (
    _least_strict_order,
    chain,
    cyclic_group,
    enumerate_inverse_monoids,
    enumerate_semilattices,
    klein_four,
    m3,
    small_groups,
    sym3,
    trivial_monoid,
)
from imw.errors import NoInverse, NonUniqueInverse, NotHomomorphism, SizeLimitExceeded
from imw.inverse import validate_inverse
from imw.iso import brute_force_iso, element_profile, verify_iso
from imw.mtab import serialize_mtab


def test_identity_witness():
    m = m3()
    w = verify_iso(m, m, [0, 1, 2], [0, 1, 2])
    assert w.forward.values == (0, 1, 2)


def test_inversion_automorphism():
    z3 = cyclic_group(3)
    w = verify_iso(z3, z3, [0, 2, 1], [0, 2, 1])
    assert w.backward.values == (0, 2, 1)
    k = klein_four()
    verify_iso(k, k, [0, 2, 1, 3], [0, 2, 1, 3])  # swapping a and b


def test_non_multiplicative_bijection_rejected():
    m = m3()
    # Swapping e and t: t*t = e must map to e*e = e, but the image is t.
    with pytest.raises(NotHomomorphism):
        verify_iso(m, m, [0, 2, 1], [0, 2, 1])


def test_self_iso():
    for m in (m3(), sym3(), chain(4).base):
        w = brute_force_iso(m, m)
        assert w is not None


def test_klein_vs_z4():
    assert brute_force_iso(klein_four(), cyclic_group(4)) is None


def test_size_mismatch():
    assert brute_force_iso(m3(), cyclic_group(2)) is None


def test_size_limit():
    big = direct_product(cyclic_group(4), cyclic_group(4))
    with pytest.raises(SizeLimitExceeded):
        brute_force_iso(big, big)
    assert brute_force_iso(big, big, max_n=16) is not None


def test_relabeled_copy_found():
    m = sym3()
    # Conjugating the table by a permutation yields an isomorphic copy.
    perm = [0, 2, 3, 4, 5, 1]
    inv = [0] * 6
    for i, p in enumerate(perm):
        inv[p] = i
    table = [[perm[m.table[inv[i]][inv[j]]] for j in range(6)] for i in range(6)]
    other = validate_monoid(6, table, perm[m.id])
    w = brute_force_iso(m, other)
    assert w is not None
    assert w.forward.values[m.id] == other.id


SMALL = [trivial_monoid(), cyclic_group(2), cyclic_group(3), cyclic_group(4),
         klein_four(), sym3(), chain(2).base, chain(3).base, m3()]


def test_symmetry_of_verdict():
    for a in SMALL:
        for b in SMALL:
            assert (brute_force_iso(a, b) is None) == (brute_force_iso(b, a) is None)


def _iso_by_permutations(a, b):
    """Oracle: try every bijection that fixes the identity, with no pruning."""
    if a.n != b.n:
        return None
    rng = list(range(a.n))
    for perm in permutations(rng):
        if perm[a.id] != b.id:
            continue
        if all(perm[a.mul(x, y)] == b.mul(perm[x], perm[y])
               for x in rng for y in rng):
            back = [0] * a.n
            for x, y in enumerate(perm):
                back[y] = x
            return verify_iso(a, b, list(perm), back)
    return None


def test_pruning_soundness_against_slow_mode():
    for a in SMALL:
        for b in SMALL:
            fast = brute_force_iso(a, b)
            slow = _iso_by_permutations(a, b)
            assert (fast is None) == (slow is None)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL), st.sampled_from(SMALL))
def test_witnesses_verify(a, b):
    w = brute_force_iso(a, b)
    if w is not None:
        # verify_iso accepts exactly what the search emits.
        verify_iso(a, b, list(w.forward.values), list(w.backward.values))


ENUMERATED = [s.base for s in enumerate_semilattices(5)] \
    + [m.base for m in enumerate_inverse_monoids(4)]


def _relabel(m, perm):
    """The copy of m in which element x is called perm[x]."""
    table = [[0] * m.n for _ in range(m.n)]
    for x in range(m.n):
        for y in range(m.n):
            table[perm[x]][perm[y]] = perm[m.mul(x, y)]
    return validate_monoid(m.n, table, perm[m.id])


def _is_inverse(m):
    try:
        validate_inverse(m)
    except (NoInverse, NonUniqueInverse):
        return False
    return True


def _partition(key, monoids):
    """For each monoid, the index of the first one with the same key."""
    first = {}
    return [first.setdefault(key(m), i) for i, m in enumerate(monoids)]


def test_least_relabelled_table_decides_isomorphism_on_the_candidates():
    # brute_force_iso is the oracle: each candidate is isomorphic to the first
    # of its class, and the firsts are pairwise not. Every semilattice element
    # has the same profile, so the profiles alone cannot tell them apart.
    semilattices = [validate_monoid(n, table, 0) for n in range(1, 7)
                    for table in _semilattices_by_scan(n)]
    tables = [validate_monoid(n, table, 0) for n in range(1, 6)
              for table in _monoid_tables_by_scan(n)]
    monoids = [m for m in tables if _is_inverse(m)] + small_groups()
    assert (len(semilattices), len(monoids)) == (1154, 497 + 8)
    for candidates in (semilattices, monoids):
        classes = _partition(_least_relabelled_table, candidates)
        for m, first in zip(candidates, classes):
            assert brute_force_iso(candidates[first], m) is not None
        firsts = [candidates[i] for i in sorted(set(classes))]
        for i, a in enumerate(firsts):
            for b in firsts[i + 1:]:
                assert brute_force_iso(a, b) is None, (a.table, b.table)
    # The least strict order is the same complete invariant on semilattices.
    assert _partition(lambda m: (m.n, _least_strict_order(m.table)[0]), semilattices) \
        == _partition(_least_relabelled_table, semilattices)


def _element_profile_by_mul(m, x):
    """Oracle: element_profile written with m.mul, one call per product."""
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
    return (m.table[x][x] == x, index, period, geninv)


def test_element_profile_matches_its_definition(corpus_monoids):
    cases = [m.base for _, m in corpus_monoids] + \
        [m.base for m in enumerate_inverse_monoids(5)]
    for m in cases:
        for x in range(m.n):
            assert element_profile(m, x) == _element_profile_by_mul(m, x), (m.table, x)


def _iso_by_recursion(a, b):
    """Oracle: the forward map of brute_force_iso's search written as a
    recursion, one stack frame per element, or None."""
    if a.n != b.n:
        return None
    n = a.n
    prof_a = [element_profile(a, x) for x in range(n)]
    prof_b = [element_profile(b, x) for x in range(n)]
    if sorted(prof_a) != sorted(prof_b):
        return None
    candidates = [[b.id] if x == a.id else
                  [y for y in range(n) if y != b.id and prof_b[y] == prof_a[x]]
                  for x in range(n)]
    fwd = [-1] * n
    used = [False] * n

    def consistent(x):
        for u in range(x + 1):
            fu = fwd[u]
            for (p, q) in ((u, x), (x, u)):
                r = a.mul(p, q)
                if fwd[r] >= 0 and fwd[r] != b.mul(fwd[p], fwd[q]):
                    return False
            for q in range(x + 1):
                if a.mul(u, q) == x and b.mul(fu, fwd[q]) != fwd[x]:
                    return False
        return True

    def assign(x):
        if x == n:
            return True
        for img in candidates[x]:
            if used[img]:
                continue
            fwd[x] = img
            used[img] = True
            if consistent(x) and assign(x + 1):
                return True
            fwd[x] = -1
            used[img] = False
        return False

    return tuple(fwd) if assign(0) else None


def test_search_finds_the_witness_of_the_recursion(corpus_monoids):
    # Each monoid also meets a relabelled copy, so the search must backtrack
    # to find a witness other than the identity.
    monoids = [m.base for _, m in corpus_monoids] + ENUMERATED \
        + [m.base for m in enumerate_inverse_monoids(5) if m.n == 5]
    monoids += [_relabel(m, [*range(m.n)][::-1]) for m in monoids]
    found = 0
    for a in monoids:
        for b in monoids:
            if a.n == b.n:
                w = brute_force_iso(a, b)
                assert (w and w.forward.values) == _iso_by_recursion(a, b)
                found += w is not None
    assert found >= 2 * len(monoids)  # each meets itself and its relabelled copy


def test_iso_runs_in_a_stack_that_a_recursion_per_element_overflows(tmp_path):
    # 256 elements against a stack limit about 100 frames above the caller's.
    path = tmp_path / "z16xz16.mtab"
    path.write_text(serialize_mtab(direct_product(cyclic_group(16), cyclic_group(16))),
                    encoding="utf-8")
    out = io.StringIO()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main(["iso", str(path), str(path), "--max-iso-n", "256"])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert out.getvalue().startswith("isomorphic: (1,1)->(1,1), ")
