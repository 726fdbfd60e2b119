from functools import cache
from itertools import combinations, permutations, product
from typing import Sequence

import pytest

from imw.core import _Sealed, make_congruence, tabulate
from imw.corpus import builtin_corpus
from imw.inverse import validate_inverse


@pytest.fixture(scope="session")
def corpus_monoids():
    """Every builtin instance that is a monoid, as (name, InverseMonoid)."""
    return [(inst.name, validate_inverse(inst.table)) for inst in builtin_corpus()]


def unchecked(record, **fields):
    """A ``record`` made from ``fields`` without its checker, for a test of
    what a consumer does with data that the checker would refuse."""
    return record(**fields, seal=_Sealed)


def identity_congruence(m):
    return make_congruence(m, list(range(m.n)))


def universal_congruence(m):
    return make_congruence(m, [0] * m.n)


def _symmetric_inverse_monoid(k):
    """I_k: partial bijections of k points, (f*g)(i) = g(f(i))."""
    maps = sorted(tuple(dict(zip(dom, img)).get(i, -1) for i in range(k))
                  for size in range(k + 1)
                  for dom in combinations(range(k), size)
                  for img in permutations(range(k), size))
    return tabulate(maps, lambda f, g: tuple(-1 if f[i] < 0 else g[f[i]] for i in range(k)),
                    tuple(range(k)), str)[0]


def _least_relabelled_table(m):
    """Oracle: the least of m's tables over every labelling that calls the
    identity 0, so equal for two monoids iff they are isomorphic."""
    def relabel(order):
        pos = {x: i for i, x in enumerate(order)}
        return tuple(tuple(pos[m.table[x][y]] for y in order) for x in order)
    others = [x for x in range(m.n) if x != m.id]
    return min(relabel((m.id, *perm)) for perm in permutations(others))


def _least_strict_order_by_scan(meet):
    """Oracle: corpus._least_strict_order by trying all (n - 1)! labellings.
    The least strict order over the labellings of a lattice with top 0 that
    keep the top, and the meet table in that labelling. The order gives the
    pairs i < j of 1..n-1 in lexicographic order the states 0 (incomparable),
    1 (i below j) and 2 (j below i)."""
    state = [[(x == xy) + 2 * (y == xy) for y, xy in enumerate(row)]
             for x, row in enumerate(meet)]

    def key(order: Sequence[int]) -> tuple[int, ...]:
        return tuple(state[x][y] for i, x in enumerate(order) for y in order[i + 1:])

    order = [0, *min(permutations(range(1, len(meet))), key=key)]
    return key(order[1:]), [[order.index(meet[x][y]) for y in order] for x in order]


@cache
def _semilattices_by_scan(n):
    """Oracle: the meet tables of the full 3^(pairs) scan over strict orders of
    1..n-1 below the top 0, in scan order, for those that are transitive and
    where every pair has a meet. The pairs i < j are taken in lexicographic
    order, with the states incomparable, i below j and j below i."""
    if n == 1:
        return [((0,),)]
    sub = list(range(1, n))
    pairs = [(i, j) for ai, i in enumerate(sub) for j in sub[ai + 1:]]
    found = []
    for states in product(range(3), repeat=len(pairs)):
        lt = [[False] * n for _ in range(n)]  # lt[x][y]: x strictly below y
        for x in sub:
            lt[x][0] = True
        for (i, j), st in zip(pairs, states):
            if st == 1:
                lt[i][j] = True
            elif st == 2:
                lt[j][i] = True
        if any(lt[x][y] and lt[y][z] and not lt[x][z]
               for x in sub for y in sub for z in sub):
            continue
        leq = [[lt[x][y] or x == y for y in range(n)] for x in range(n)]
        meet_table = []
        for x in range(n):
            row = []
            for y in range(n):
                lower = [z for z in range(n) if leq[z][x] and leq[z][y]]
                row.append(next((z for z in lower
                                 if all(leq[w][z] for w in lower)), None))
            meet_table.append(tuple(row))
        if all(None not in row for row in meet_table):
            found.append(tuple(meet_table))
    return found


@cache
def _monoid_tables_by_scan(n):
    """Oracle: every complete table with identity 0, in lexicographic order,
    from the backtracking over cells in row-major order that, for each value,
    rescans every cell for the associativity instances the new cell
    completes, and checks that idempotents commute. It prunes by no
    relabelling, so each class comes with all its tables."""
    t = [[-1] * n for _ in range(n)]
    for j in range(n):
        t[0][j] = j
        t[j][0] = j
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def consistent(i, j):
        v = t[i][j]
        for z in range(n):
            jz = t[j][z]
            if t[v][z] >= 0 and jz >= 0 and t[i][jz] >= 0 and t[v][z] != t[i][jz]:
                return False
        for x in range(n):
            xi = t[x][i]
            if xi >= 0 and t[xi][j] >= 0 and t[x][v] >= 0 and t[xi][j] != t[x][v]:
                return False
        for x in range(n):
            for y in range(n):
                if t[x][y] == i:
                    yj = t[y][j]
                    if yj >= 0 and t[x][yj] >= 0 and t[x][yj] != v:
                        return False
        for y in range(n):
            for z in range(n):
                if t[y][z] == j:
                    iy = t[i][y]
                    if iy >= 0 and t[iy][z] >= 0 and t[iy][z] != v:
                        return False
        return not (t[i][i] == i and t[j][j] == j and t[j][i] >= 0 and t[j][i] != v)

    found = []

    def fill(depth):
        if depth == len(cells):
            found.append([row[:] for row in t])
            return
        i, j = cells[depth]
        for v in range(n):
            t[i][j] = v
            if consistent(i, j):
                fill(depth + 1)
        t[i][j] = -1

    fill(0)
    return found
