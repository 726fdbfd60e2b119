"""The desk-scale test universe.

Named instances witnessing each predicate both ways, hard-coded small groups,
and exhaustive enumerators (semilattices, almost actions, gluing maps,
inverse monoids); the row searches take a budget. Each record emitted is
sealed by its checker or by the search that proves it, and enumeration
order is deterministic so counts can be pinned as regression values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, permutations
from typing import Iterator, Sequence

from .constructions import (
    AlmostAction,
    GluingMap,
    validate_almost_action,
    validate_gluing_map,
)
from .core import FiniteMonoid, _Sealed, backtrack, is_group, tabulate, validate_monoid
from .errors import BudgetExceeded, PreconditionFailed
from .inverse import InverseMonoid, SemilatticeMonoid, validate_inverse, validate_semilattice

DEFAULT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class CorpusInstance:
    name: str
    kind: str  # monoid | group | semilattice
    table: FiniteMonoid
    expected: dict


# --- named builders -------------------------------------------------------


def trivial_monoid() -> FiniteMonoid:
    return validate_monoid(1, [[0]], 0, ["1"])


def cyclic_group(n: int) -> FiniteMonoid:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    return validate_monoid(n, table, 0, labels)


def klein_four() -> FiniteMonoid:
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return validate_monoid(4, table, 0, ["1", "a", "b", "c"])


def sym3() -> FiniteMonoid:
    perms = sorted(permutations(range(3)))
    return tabulate(perms, lambda p, q: tuple(p[q[k]] for k in range(3)), (0, 1, 2),
                    lambda p: "".join(str(v) for v in p))[0]


def chain(k: int) -> SemilatticeMonoid:
    # Element 0 is the top; meet of two chain elements is the lower one.
    table = [[max(i, j) for j in range(k)] for i in range(k)]
    labels = ["1"] + [f"e{i}" for i in range(1, k)]
    return validate_semilattice(validate_monoid(k, table, 0, labels))


def diamond() -> SemilatticeMonoid:
    # 0 = top, 1 and 2 incomparable, 3 = bottom.
    def meet(i: int, j: int) -> int:
        if i == j:
            return i
        if i == 0:
            return j
        if j == 0:
            return i
        return 3

    table = [[meet(i, j) for j in range(4)] for i in range(4)]
    return validate_semilattice(validate_monoid(4, table, 0, ["1", "a", "b", "0"]))


def m3() -> FiniteMonoid:
    # {1, e, t} with t*t = e and e*t = t*e = t; the smallest F-inverse
    # monoid that is neither a group nor a semilattice.
    return validate_monoid(3, [[0, 1, 2], [1, 1, 2], [2, 2, 1]], 0, ["1", "e", "t"])


def brandt_b2_1() -> FiniteMonoid:
    # The 2x2 matrix-unit semigroup {a=E12, b=E21, ab=E11, ba=E22, 0} with an
    # adjoined identity; inverse but not E-unitary.
    table = [
        [0, 1, 2, 3, 4, 5],
        [1, 5, 3, 5, 1, 5],
        [2, 4, 5, 2, 5, 5],
        [3, 1, 5, 3, 5, 5],
        [4, 5, 2, 5, 4, 5],
        [5, 5, 5, 5, 5, 5],
    ]
    return validate_monoid(6, table, 0, ["1", "a", "b", "ab", "ba", "0"])


def m7() -> FiniteMonoid:
    # Subsemigroup of (diamond semilattice) x| Z2 with the swap action,
    # omitting the pair (top, g); E-unitary but not F-inverse, not Clifford.
    dia = diamond()
    act = ((0, 1, 2, 3), (0, 2, 1, 3))  # 1 fixes the diamond, g swaps its atoms
    pairs = [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1)]
    return tabulate(pairs, lambda p, q: (dia.meet(p[0], act[p[1]][q[0]]), p[1] ^ q[1]),
                    (0, 0), lambda p: f"({dia.base.label(p[0])},{'1g'[p[1]]})")[0]


def z2_ch2_action() -> AlmostAction:
    # The non-trivial almost action of Z2 on the 2-chain: g sends both
    # elements to the bottom. Its F(Y,G) is m3.
    return validate_almost_action(cyclic_group(2), chain(2), [[0, 1], [1, 1]])


def z2_ch2_gluing() -> GluingMap:
    return validate_gluing_map(cyclic_group(2), chain(2), [0, 1])


ALL_TRUE = {"inverse": True, "e_unitary": True, "f_inverse": True,
            "clifford": True, "weakly_schreier": True}


def builtin_corpus() -> list[CorpusInstance]:
    """Named tables pinning every predicate in both polarities."""
    groups = [
        ("t1", trivial_monoid()),
        ("z2", cyclic_group(2)),
        ("z3", cyclic_group(3)),
        ("z4", cyclic_group(4)),
        ("klein", klein_four()),
        ("s3", sym3()),
    ]
    semis = [("ch2", chain(2)), ("ch3", chain(3)), ("ch4", chain(4)),
             ("d4", diamond())]
    out = [CorpusInstance(name, "group", g, dict(ALL_TRUE)) for name, g in groups]
    out += [CorpusInstance(name, "semilattice", s.base, dict(ALL_TRUE))
            for name, s in semis]
    out.append(CorpusInstance("m3", "monoid", m3(), dict(ALL_TRUE)))
    out.append(CorpusInstance("b2-1", "monoid", brandt_b2_1(), {
        "inverse": True, "e_unitary": False, "f_inverse": False,
        "clifford": False, "weakly_schreier": False}))
    out.append(CorpusInstance("m7", "monoid", m7(), {
        "inverse": True, "e_unitary": True, "f_inverse": False,
        "clifford": False, "weakly_schreier": False}))
    return out


def small_groups() -> list[FiniteMonoid]:
    """Z1..Z6, the Klein four-group and S3, each checked to be a group."""
    groups = [cyclic_group(n) for n in range(1, 7)] + [klein_four(), sym3()]
    for g in groups:
        assert is_group(g)
    return groups


# --- enumerators -----------------------------------------------------------


def enumerate_semilattices(max_n: int) -> Iterator[SemilatticeMonoid]:
    """All semilattice monoids of size 1..max_n up to isomorphism.

    A finite semilattice monoid is a lattice, and deleting an atom other than
    the top leaves a lattice (Heitzig & Reinhold, "Counting finite lattices",
    2002). So from size 3 on, the classes grow from those one smaller by
    ``_add_atom``, deduped by ``_least_strict_order``, a complete invariant;
    each is emitted in the labelling of that order, sorted by it.
    """
    classes = [validate_semilattice(trivial_monoid())]
    for n in range(1, max_n + 1):
        if n == 2:
            classes = [validate_semilattice(validate_monoid(2, [[0, 1], [1, 1]], 0))]
        elif n > 2:
            keyed = dict(_least_strict_order(table)
                         for s in classes for table in _add_atom(s))
            classes = [validate_semilattice(validate_monoid(n, keyed[key], 0))
                       for key in sorted(keyed)]
        yield from classes


def _add_atom(semi: SemilatticeMonoid) -> Iterator[list[list[int]]]:
    """semi's meet table with a new atom n below F, for each proper up-set F
    (so F avoids the bottom) that holds every meet of two of its members other
    than the bottom; such a meet becomes n."""
    n, meet = semi.n, semi.base.table
    bottom = next(x for x, row in enumerate(meet) if set(row) == {x})
    for k in range(1, n):
        for up in combinations(range(n), k):
            if all(y in up for x in up for y in range(n) if meet[x][y] == x) and \
                    all(meet[x][y] in up or meet[x][y] == bottom for x in up for y in up):
                up += (n,)
                table = [[*row, bottom] for row in meet] + [[bottom] * (n + 1)]
                yield [[n if x in up and y in up and xy == bottom else xy
                        for y, xy in enumerate(row)] for x, row in enumerate(table)]


def _least_strict_order(meet: Sequence[Sequence[int]]) -> tuple[tuple, list[list[int]]]:
    """The least strict order over the labellings of a lattice with top 0 that
    keep the top, and the meet table in that labelling. The order gives the
    pairs i < j of 1..n-1 in lexicographic order the states 0 (incomparable),
    1 (i below j) and 2 (j below i); every isomorphism keeps the top, so two
    lattices get the same order iff they are isomorphic.

    Found by individualisation and refinement, one element at a time. Each
    branch keeps the elements left as an ordered partition, one cell at
    first. The next element x comes from the first cell, and every cell is
    split by its state with x, in the order 0, 1, 2. x's block of the order,
    its states with the elements after it, is least when they follow these
    cells, so this fixes the block. Level by level only the branches with
    the least block survive, and ties branch.
    """
    state = [[(x == xy) + 2 * (y == xy) for y, xy in enumerate(row)]
             for x, row in enumerate(meet)]
    branches = [([0], [list(range(1, len(meet)))])]
    key: list[int] = []
    for _ in range(1, len(meet)):
        least, survivors = None, []
        for order, (first, *cells) in branches:
            for x in first:
                row, split = state[x], []
                for cell in ([y for y in first if y != x], *cells):
                    parts: tuple[list[int], ...] = ([], [], [])
                    for y in cell:
                        parts[row[y]].append(y)
                    split += filter(None, parts)
                block = [row[y] for cell in split for y in cell]
                if least is None or block < least:
                    least, survivors = block, []
                if block == least:
                    survivors.append(([*order, x], split))
        key += least
        branches = survivors
    order = branches[0][0]
    return tuple(key), [[order.index(meet[x][y]) for y in order] for x in order]


def _meet_endomorphisms(semi: SemilatticeMonoid) -> list[tuple[int, ...]]:
    """Every row with row[y ∧ z] = row[y] ∧ row[z], in lexicographic order.

    Fills row[0], row[1], ... in ascending value, and backtracks as soon as
    a condition whose indices y, z and y ∧ z are all filled fails.
    """
    n = semi.n
    meet = semi.base.table
    # The condition at (y, z) is checked at the last of its three indices.
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for y in range(n):
        for z in range(y, n):
            checks[max(y, z, meet[y][z])].append((y, z, meet[y][z]))
    return list(backtrack([range(n)] * n, lambda row, d: all(
        row[yz] == meet[row[y]][row[z]] for y, z, yz in checks[d])))


def _row_search(group: FiniteMonoid, semilattice: SemilatticeMonoid,
                rows: Sequence[tuple[int, ...]], budget: int, role: str) -> Iterator[tuple]:
    """Action tables with the identity row at 1 and the other rows from
    ``rows``, filled one group element at a time, in table order. The search
    backtracks as soon as axiom A3 fails; the budget caps the rows tried."""
    if not is_group(group):
        raise PreconditionFailed(f"{role} must be a group")
    y_n, g_n = semilattice.n, group.n
    meet = semilattice.base.table
    mul = group.table
    top = semilattice.top
    others = [g for g in range(g_n) if g != group.id]
    # A3 at (g, h) reads the rows of g, h and gh, so it is checked at the
    # depth where the last of the three gets its row; rows left over from an
    # earlier branch are never read.
    depth_of = {g: d for d, g in enumerate(others)}
    depth_of[group.id] = -1
    checks: list[list[tuple[int, int, int]]] = [[] for _ in others]
    for g in range(g_n):
        for h in range(g_n):
            d = max(depth_of[g], depth_of[h], depth_of[mul[g][h]])
            if d >= 0:
                checks[d].append((g, h, mul[g][h]))
    dot: list[tuple[int, ...] | None] = [None] * g_n
    dot[group.id] = tuple(range(y_n))
    tried = 0

    def accept(chosen: list, d: int) -> bool:
        nonlocal tried
        tried += 1
        if tried > budget:
            raise BudgetExceeded(tried, budget)
        dot[others[d]] = chosen[d]
        return all(dot[g][dot[h][y]] == meet[dot[gh][y]][dot[g][top]]
                   for g, h, gh in checks[d] for y in range(y_n))

    return (tuple(dot) for _ in backtrack([rows] * len(others), accept))


def enumerate_almost_actions(group: FiniteMonoid, semilattice: SemilatticeMonoid,
                             budget: int = DEFAULT_BUDGET) -> Iterator[AlmostAction]:
    """Every action table passing the three axioms, in table order: A1 by the
    identity row, A2 by the meet-endomorphism rows, A3 by the row search."""
    for dot in _row_search(group, semilattice, _meet_endomorphisms(semilattice),
                           budget, "acting monoid"):
        yield AlmostAction(group, semilattice, dot, seal=_Sealed)


def enumerate_gluing_maps(group: FiniteMonoid, semilattice: SemilatticeMonoid,
                          budget: int = DEFAULT_BUDGET) -> Iterator[GluingMap]:
    """Every admissible f with f(1) = top, in table order.

    f is admissible iff g·y = f(g) ∧ y satisfies axiom A3: f(g) ∧ f(h) ∧ y =
    f(gh) ∧ f(g) ∧ y is the gluing condition met with y. So the row search
    draws from the meet translations y ↦ c ∧ y (row c of the meet table), and
    f(g) is row g at top, so f(1) = top.
    """
    top = semilattice.top
    for dot in _row_search(group, semilattice, semilattice.base.table, budget, "gluing base"):
        yield GluingMap(group, semilattice, tuple(row[top] for row in dot), seal=_Sealed)


def enumerate_inverse_monoids(max_n: int) -> Iterator[InverseMonoid]:
    """All inverse monoids of size 1..max_n up to isomorphism: the least
    table of each class, from ``_monoid_tables``. The inverse validator is
    its certificate, so a table the search should have dropped raises."""
    for n in range(1, max_n + 1):
        for table in _monoid_tables(n):
            yield validate_inverse(validate_monoid(n, table, 0))


def _monoid_tables(n: int) -> Iterator[list[list[int]]]:
    """The inverse monoid tables with identity 0, in lexicographic order, one
    for each class under the relabellings that fix 0: its least.

    Backtracks over the cells in row-major order. A partial table T is
    dropped as soon as a law an inverse monoid keeps fails on its filled
    cells: associativity or unique inverses (some x has two settled
    inverses, or every y is ruled out). Both survive a relabelling pi, so T
    is also dropped as soon as pi(T) is smaller than T at the first cell
    where the two differ (lex-leader pruning; Distler & Kelsey, "The monoids
    of orders eight, nine & ten", 2009). An associative table with unique
    inverses is an inverse monoid, so the search completes no other table.
    Its idempotents commute, so they are not checked on partial tables: such
    a check was measured to reject none for n <= 7."""
    t = [[-1] * n for _ in range(n)]
    for j in range(n):
        t[0][j] = j
        t[j][0] = j
    rest = range(1, n)
    cells = [(i, j) for i in rest for j in rest]
    depth_of = {cell: d for d, cell in enumerate(cells)}
    # waiting[d]: the relabellings pi other than the identity whose next
    # comparison can be made once cells[d] is filled, each as (pi, src, p):
    # p is the first depth at which pi(T) and T are not yet known to agree,
    # and src[e] the depth of the cell that pi(T)[cells[e]] =
    # pi(T[pi^-1 i][pi^-1 j]) reads. The identity row and column are the same
    # in pi(T) and T.
    waiting: list[list[tuple]] = [[] for _ in cells]
    for image in islice(permutations(rest), 1, None):
        pi = (0, *image)
        inv = sorted(range(n), key=pi.__getitem__)
        src = [depth_of[inv[i], inv[j]] for i, j in cells]
        waiting[src[0]].append((pi, src, 0))
    # at[v]: the filled cells off the identity row and column whose value is v.
    at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    # vals[d]: the value of cells[d], for the filled depths.
    vals = [-1] * len(cells)

    def consistent(i: int, j: int) -> bool:
        v = t[i][j]
        ti, tj, tv = t[i], t[j], t[v]
        # Associativity instances (xy)z = x(yz) in which cell (i,j) takes part
        # and whose other cells are filled; those with a factor 0 hold by the
        # identity row and column.
        for z in rest:
            jz = tj[z]
            if tv[z] >= 0 and jz >= 0 and ti[jz] >= 0 and tv[z] != ti[jz]:
                return False
        for x in rest:
            xi = t[x][i]
            if xi >= 0 and t[xi][j] >= 0 and t[x][v] >= 0 and t[xi][j] != t[x][v]:
                return False
        for x, y in at[i]:
            yj = t[y][j]
            if yj >= 0 and t[x][yj] >= 0 and t[x][yj] != v:
                return False
        for y, z in at[j]:
            iy = ti[y]
            if iy >= 0 and t[iy][z] >= 0 and t[iy][z] != v:
                return False
        # Every pair x, y whose inverse status reads cell (i,j) has i or j in it.
        return invertible(i) and (j == i or invertible(j))

    def invertible(x: int) -> bool:
        """False if the filled cells already give x two inverses y (x·y·x = x
        and y·x·y = y), or rule out every y. A product of three is read
        through either bracketing; the two agree where both are filled. 0 is
        no inverse of x != 0, as 0·x·0 = x."""
        tx, undecided, found = t[x], False, False
        for y in rest:
            ty = t[y]
            xy, yx = tx[y], ty[x]
            xyx = t[xy][x] if xy >= 0 else -1
            if xyx < 0 <= yx:
                xyx = tx[yx]
            if xyx >= 0 and xyx != x:
                continue
            yxy = t[yx][y] if yx >= 0 else -1
            if yxy < 0 <= xy:
                yxy = ty[xy]
            if yxy >= 0 and yxy != y:
                continue
            if xyx < 0 or yxy < 0:
                undecided = True
            elif found:
                return False
            else:
                found = True
        return undecided or found

    def leader(depth: int) -> list | None:
        """Move each relabelling waiting on cells[depth] on to the depth it
        waits on next, and return those depths; or undo the moves and return
        None if one of them makes T smaller. A relabelling that makes T
        greater, or that agrees with T on every cell, waits on nothing."""
        moved = []
        for pi, src, p in waiting[depth]:
            while p <= depth and src[p] <= depth and pi[vals[src[p]]] == vals[p]:
                p += 1
            if p > depth or src[p] > depth:
                if p < len(cells):
                    d = max(p, src[p])
                    waiting[d].append((pi, src, p))
                    moved.append(d)
            elif pi[vals[src[p]]] < vals[p]:
                for d in moved:
                    waiting[d].pop()
                return None
        return moved

    def fill(depth: int) -> Iterator[list[list[int]]]:
        if depth == len(cells):
            # A cell fill checks a pair x, y from one side only, so an x
            # whose last candidate fell with a cell of y's is caught here.
            if all(invertible(x) for x in rest):
                yield [row[:] for row in t]
            return
        i, j = cells[depth]
        for v in range(n):
            t[i][j] = v
            vals[depth] = v
            at[v].append((i, j))
            if consistent(i, j):
                moved = leader(depth)
                if moved is not None:
                    yield from fill(depth + 1)
                    for d in moved:
                        waiting[d].pop()
            at[v].pop()
        t[i][j] = -1

    yield from fill(0)
