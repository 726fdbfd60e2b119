from itertools import combinations, permutations

import pytest

from imw.core import tabulate
from imw.corpus import builtin_corpus
from imw.inverse import validate_inverse


@pytest.fixture(scope="session")
def corpus_monoids():
    """Every builtin instance that is a monoid, as (name, InverseMonoid)."""
    out = []
    for inst in builtin_corpus():
        if inst.kind in ("monoid", "group"):
            out.append((inst.name, validate_inverse(inst.payload)))
        elif inst.kind == "semilattice":
            out.append((inst.name, validate_inverse(inst.payload.base)))
    return out


def _symmetric_inverse_monoid(k):
    """I_k: partial bijections of k points, (f*g)(i) = g(f(i))."""
    maps = sorted(tuple(dict(zip(dom, img)).get(i, -1) for i in range(k))
                  for size in range(k + 1)
                  for dom in combinations(range(k), size)
                  for img in permutations(range(k), size))
    return tabulate(maps, lambda f, g: tuple(-1 if f[i] < 0 else g[f[i]] for i in range(k)),
                    tuple(range(k)), str)[0]
