from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _least_relabelled_table,
    _least_strict_order_by_scan,
    _monoid_tables_by_scan,
    _semilattices_by_scan,
)
from imw.constructions import validate_almost_action, validate_gluing_map
from imw.core import is_group, validate_monoid
from imw.corpus import (
    _add_atom,
    _least_strict_order,
    _meet_endomorphisms,
    _monoid_tables,
    builtin_corpus,
    chain,
    cyclic_group,
    diamond,
    enumerate_almost_actions,
    enumerate_gluing_maps,
    enumerate_inverse_monoids,
    enumerate_semilattices,
    klein_four,
    m3,
    small_groups,
    sym3,
)
from imw.errors import BudgetExceeded, NoInverse, NonUniqueInverse, PreconditionFailed
from imw.inverse import validate_inverse, validate_semilattice
from imw.iso import brute_force_iso
from imw.report import analyze


def test_builtin_tables_validate():
    # Every table is inverse, and its kind is the one the table has.
    for inst in builtin_corpus():
        m = validate_inverse(inst.table)
        if is_group(m.base):
            kind = "group"
        elif all(m.base.is_idempotent(x) for x in range(m.n)):
            validate_semilattice(m.base)
            kind = "semilattice"
        else:
            kind = "monoid"
        assert kind == inst.kind, inst.name


def test_builtin_expected_verdicts():
    for inst in builtin_corpus():
        report = analyze(inst.table, inst.name)
        for key, want in inst.expected.items():
            assert report.verdicts[key] == want, (inst.name, key)


def test_small_groups():
    groups = small_groups()
    assert [g.n for g in groups] == [1, 2, 3, 4, 5, 6, 4, 6]
    k = klein_four()
    assert sum(1 for x in range(4) if x != k.id and k.mul(x, x) == k.id) == 3
    s = sym3()
    pair = next(((a, b) for a in range(6) for b in range(6)
                 if s.mul(a, b) != s.mul(b, a)), None)
    assert pair is not None


def test_semilattice_counts():
    # Regression values computed by this enumerator; they agree with the
    # count of finite lattices (a meet semilattice with top is a lattice).
    assert sum(1 for _ in enumerate_semilattices(1)) == 1
    assert sum(1 for _ in enumerate_semilattices(2)) == 2
    by_size = {}
    for s in enumerate_semilattices(7):
        by_size[s.n] = by_size.get(s.n, 0) + 1
    assert by_size == {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}  # OEIS A006966


def test_semilattice_size4_includes_chain_and_diamond():
    found_chain = found_diamond = False
    for s in enumerate_semilattices(4):
        if s.n != 4:
            continue
        if brute_force_iso(s.base, chain(4).base) is not None:
            found_chain = True
        if brute_force_iso(s.base, diamond().base) is not None:
            found_diamond = True
    assert found_chain and found_diamond


@pytest.mark.parametrize("n", range(1, 7))
def test_semilattices_match_the_scan(n):
    # The strict-order scan visits every labelling with the top 0; the
    # enumerator emits, in scan order, the first table of each class.
    firsts = []
    for table in _semilattices_by_scan(n):
        m = validate_monoid(n, table, 0)
        if all(brute_force_iso(m, f) is None for f in firsts):
            firsts.append(m)
    assert [s.base.table for s in enumerate_semilattices(n) if s.n == n] \
        == [f.table for f in firsts]


def test_every_grown_table_is_a_semilattice():
    grown = [table for s in enumerate_semilattices(6) for table in _add_atom(s)]
    assert len(grown) == 37 + 116  # sizes 3..6, and size 7
    for table in grown:
        validate_semilattice(validate_monoid(len(table), table, 0))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(enumerate_semilattices(7)))
       .flatmap(lambda s: st.tuples(st.just(s), st.permutations(range(1, s.n)))))
def test_least_strict_order_ignores_relabelling(case):
    s, perm = case
    perm = [0, *perm]
    table = [[0] * s.n for _ in range(s.n)]
    for x in range(s.n):
        for y in range(s.n):
            table[perm[x]][perm[y]] = perm[s.meet(x, y)]
    least = _least_strict_order(s.base.table)
    assert _least_strict_order(table) == least
    assert least[1] == [list(row) for row in s.base.table]


def test_least_strict_order_matches_the_scan():
    # Every grown table to n = 7, and every class to n = 7.
    grown = [table for s in enumerate_semilattices(6) for table in _add_atom(s)]
    assert [sum(len(t) == n for t in grown) for n in range(3, 8)] == [1, 2, 7, 27, 116]
    for table in grown + [s.base.table for s in enumerate_semilattices(7)]:
        assert _least_strict_order(table) == _least_strict_order_by_scan(table)


def test_almost_action_counts():
    assert sum(1 for _ in enumerate_almost_actions(cyclic_group(1), chain(2))) == 1
    actions = list(enumerate_almost_actions(cyclic_group(2), chain(2)))
    assert [aa.dot for aa in actions] == [((0, 1), (0, 1)), ((0, 1), (1, 1))]
    # Regression pins for the larger grid cells, computed by this enumerator.
    assert sum(1 for _ in enumerate_almost_actions(
        cyclic_group(4), diamond(), budget=10 ** 8)) == 13
    assert sum(1 for _ in enumerate_almost_actions(
        klein_four(), diamond(), budget=10 ** 8)) == 31


def _meet_endomorphisms_by_scan(semilattice):
    """Oracle: every row of the full |Y|^|Y| scan that keeps meets, in scan order."""
    n, meet = semilattice.n, semilattice.meet
    return [row for row in product(range(n), repeat=n)
            if all(row[meet(y, z)] == meet(row[y], row[z])
                   for y in range(n) for z in range(y, n))]


def test_meet_endomorphisms_match_the_scan():
    for semi in [*enumerate_semilattices(6), chain(6)]:
        assert _meet_endomorphisms(semi) == _meet_endomorphisms_by_scan(semi)


def _almost_actions_by_exhaustion(group, semilattice):
    """The action tables of the full scan over rows^(|G|-1), in scan order."""
    meet = semilattice.meet
    top = semilattice.top
    y_n, g_n = semilattice.n, group.n
    rows = _meet_endomorphisms(semilattice)
    others = [g for g in range(g_n) if g != group.id]
    id_row = tuple(range(y_n))
    found = []
    for combo in product(rows, repeat=len(others)):
        dot = [None] * g_n
        dot[group.id] = id_row
        for g, row in zip(others, combo):
            dot[g] = row
        if all(dot[g][dot[h][y]] == meet(dot[group.mul(g, h)][y], dot[g][top])
               for g in range(g_n) for h in range(g_n) for y in range(y_n)):
            found.append(tuple(dot))
    return found


def test_almost_actions_match_exhaustion_on_suite_grid():
    # The search seals each action without validate_almost_action, which
    # still accepts it.
    total = 0
    for group in (cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four()):
        for semi in enumerate_semilattices(4):
            actions = list(enumerate_almost_actions(group, semi, budget=10 ** 8))
            assert [aa.dot for aa in actions] == _almost_actions_by_exhaustion(group, semi)
            for aa in actions:
                assert validate_almost_action(group, semi, aa.dot) == aa
            total += len(actions)
    assert total == 135


@pytest.mark.parametrize("group", [sym3(), cyclic_group(5), cyclic_group(6)],
                         ids=["s3", "z5", "z6"])
def test_almost_actions_match_exhaustion_beyond_grid(group):
    actions = list(enumerate_almost_actions(group, chain(2)))
    assert [aa.dot for aa in actions] == _almost_actions_by_exhaustion(group, chain(2))
    for aa in actions:
        assert validate_almost_action(group, chain(2), aa.dot) == aa


@pytest.mark.parametrize("enumerator, requirement", [
    (enumerate_almost_actions, "acting monoid must be a group"),
    (enumerate_gluing_maps, "gluing base must be a group")])
def test_enumerators_refuse_a_non_group_before_the_search(enumerator, requirement):
    # A budget of 0 would stop the search at its first row.
    with pytest.raises(PreconditionFailed) as exc:
        next(enumerator(m3(), chain(2), budget=0))
    assert str(exc.value) == f"precondition not met: {requirement}"


def test_almost_action_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_almost_actions(klein_four(), diamond(), budget=100))


@pytest.mark.parametrize("group, count", [(sym3(), 98), (cyclic_group(5), 18),
                                          (cyclic_group(6), 54)],
                         ids=["s3", "z5", "z6"])
def test_almost_actions_beyond_grid_fit_the_default_budget(group, count):
    # The a-priori space of s3 over a 4-element Y is 4^20; the rows tried
    # stay in the thousands.
    assert sum(1 for semi in enumerate_semilattices(4)
               for _ in enumerate_almost_actions(group, semi)) == count


def _rows_tried(group, semilattice):
    """Candidate rows the search tries: every meet endomorphism, once below
    each partial table (rows of 1 and the first d others) that passes A3."""
    meet = semilattice.meet
    top = semilattice.top
    y_n, g_n = semilattice.n, group.n
    rows = _meet_endomorphisms(semilattice)
    others = [g for g in range(g_n) if g != group.id]
    tried = 0
    for d in range(len(others)):
        filled = {group.id, *others[:d]}
        for combo in product(rows, repeat=d):
            dot = {group.id: tuple(range(y_n)), **dict(zip(others, combo))}
            if all(dot[g][dot[h][y]] == meet(dot[group.mul(g, h)][y], dot[g][top])
                   for g in filled for h in filled if group.mul(g, h) in filled
                   for y in range(y_n)):
                tried += len(rows)
    return tried


def test_budget_counts_the_rows_tried():
    tried = _rows_tried(klein_four(), diamond())
    assert tried == 775
    assert len(list(enumerate_almost_actions(klein_four(), diamond(),
                                             budget=tried))) == 31
    with pytest.raises(BudgetExceeded, match="budget"):
        list(enumerate_almost_actions(klein_four(), diamond(), budget=tried - 1))


def _gluing_maps_by_exhaustion(group, semilattice):
    """The maps f of the full scan over Y^(|G|-1), in scan order."""
    meet = semilattice.meet
    g_n = group.n
    others = [g for g in range(g_n) if g != group.id]
    found = []
    for combo in product(range(semilattice.n), repeat=len(others)):
        f = [semilattice.top] * g_n
        for g, v in zip(others, combo):
            f[g] = v
        if all(meet(f[group.mul(g, h)], f[g]) == meet(f[g], f[h])
               for g in range(g_n) for h in range(g_n)):
            found.append(tuple(f))
    return found


def test_gluing_maps_match_exhaustion():
    total = 0
    for group in small_groups():
        for semi in enumerate_semilattices(4):
            got = [gm.f for gm in enumerate_gluing_maps(group, semi)]
            assert got == _gluing_maps_by_exhaustion(group, semi)
            total += len(got)
    assert total == 273


def test_gluing_maps_and_their_meet_actions_pass_the_validators():
    # The search seals each map without validate_gluing_map, and
    # GluingMap.meet_action seals g·y = f(g) ∧ y without
    # validate_almost_action; both validators still accept them, and each
    # meet action is one of its cell's almost actions, as the suite assumes.
    total = 0
    for group in small_groups():
        for semi in enumerate_semilattices(4):
            actions = set(enumerate_almost_actions(group, semi))
            for gm in enumerate_gluing_maps(group, semi):
                assert validate_gluing_map(group, semi, gm.f) == gm
                meet = gm.meet_action
                assert validate_almost_action(group, semi, meet.dot) == meet
                assert meet in actions
                total += 1
    assert total == 273


def test_gluing_map_counts():
    assert sum(1 for _ in enumerate_gluing_maps(cyclic_group(1), chain(3))) == 1
    maps = list(enumerate_gluing_maps(cyclic_group(2), chain(2)))
    assert [gm.f for gm in maps] == [(0, 0), (0, 1)]
    # The constant-bottom map passes for a non-abelian group as well.
    s3_maps = list(enumerate_gluing_maps(sym3(), chain(2)))
    assert (0, 1, 1, 1, 1, 1) in {gm.f for gm in s3_maps}


def _is_inverse(table):
    try:
        validate_inverse(validate_monoid(len(table), table, 0))
    except (NoInverse, NonUniqueInverse):
        return False
    return True


@pytest.mark.parametrize("n", range(1, 6))
def test_monoid_tables_match_the_scan(n):
    # The unpruned scan yields every table of a class under the relabellings
    # that fix 0; the pruned search keeps the first, which is the least, of
    # each class that is an inverse monoid.
    seen, first = set(), []
    for table in _monoid_tables_by_scan(n):
        key = _least_relabelled_table(validate_monoid(n, table, 0))
        if key not in seen:
            seen.add(key)
            first.append(table)
    assert list(_monoid_tables(n)) == [table for table in first if _is_inverse(table)]


def test_monoid_tables_complete_one_table_per_inverse_class():
    counts = []
    for n in range(1, 7):
        tables = list(_monoid_tables(n))
        assert all(_is_inverse(table) for table in tables)
        counts.append(len(tables))
    assert counts == [1, 2, 4, 11, 27, 89]


def test_inverse_monoid_counts():
    assert sum(1 for _ in enumerate_inverse_monoids(1)) == 1
    two = list(enumerate_inverse_monoids(2))
    assert [m.n for m in two] == [1, 2, 2]  # the two size-2 ones plus trivial
    assert any(brute_force_iso(m.base, cyclic_group(2)) is not None for m in two)
    assert any(brute_force_iso(m.base, chain(2).base) is not None for m in two)
    by_size = {}
    for m in enumerate_inverse_monoids(4):
        by_size[m.n] = by_size.get(m.n, 0) + 1
    # Regression values computed by this enumerator.
    assert by_size == {1: 1, 2: 2, 3: 4, 4: 11}


def test_hierarchy_counts_up_to_six():
    # The README's note on m7. F-inverse implies E-unitary, so equal counts
    # mean every E-unitary class is F-inverse, and Clifford too.
    counts = {key: [0] * 6 for key in ("inverse", "e_unitary", "f_inverse",
                                       "f_inverse_clifford")}
    for m in enumerate_inverse_monoids(6):
        counts["inverse"][m.n - 1] += 1
        counts["e_unitary"][m.n - 1] += m.e_unitary.holds
        counts["f_inverse"][m.n - 1] += m.f_inverse.holds
        counts["f_inverse_clifford"][m.n - 1] += m.f_inverse.holds and m.clifford.holds
    assert counts == {"inverse": [1, 2, 4, 11, 27, 89],
                      "e_unitary": [1, 2, 3, 7, 12, 33],
                      "f_inverse": [1, 2, 3, 7, 12, 33],
                      "f_inverse_clifford": [1, 2, 3, 7, 12, 33]}


def test_enumerations_are_deterministic():
    a1 = [aa.dot for aa in enumerate_almost_actions(klein_four(), chain(3))]
    a2 = [aa.dot for aa in enumerate_almost_actions(klein_four(), chain(3))]
    assert a1 == a2
    s1 = [s.base.table for s in enumerate_semilattices(5)]
    s2 = [s.base.table for s in enumerate_semilattices(5)]
    assert s1 == s2
    m1 = [m.base.table for m in enumerate_inverse_monoids(4)]
    m2 = [m.base.table for m in enumerate_inverse_monoids(4)]
    assert m1 == m2


def test_no_two_emitted_instances_isomorphic():
    monoids = [m.base for m in enumerate_inverse_monoids(4)]
    for i, a in enumerate(monoids):
        for b in monoids[i + 1:]:
            assert brute_force_iso(a, b) is None
    # To n = 6 by the least relabelled table, a complete invariant: the
    # enumerator keeps no set of the classes it has emitted.
    keys = [_least_relabelled_table(m.base) for m in enumerate_inverse_monoids(6)]
    assert len(keys) == 134 and len(set(keys)) == len(keys)
    semis = [s.base for s in enumerate_semilattices(5)]
    for i, a in enumerate(semis):
        for b in semis[i + 1:]:
            assert brute_force_iso(a, b) is None
