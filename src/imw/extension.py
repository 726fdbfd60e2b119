"""The canonical diagram E(M) -> M -> M/sigma and its splitting behaviour.

An extension here is an injection k and a surjection q whose kernel (the
preimage of the identity) is exactly the image of k. The canonical diagram
is an extension precisely for E-unitary monoids, and weakly Schreier
precisely for F-inverse ones; both facts are re-derived per instance rather
than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import MonoidMap
from .errors import (
    EmptyCandidateFiber,
    KernelMismatch,
    PreconditionFailed,
    TheoremViolation,
)
from .inverse import InverseMonoid


@dataclass(frozen=True)
class Extension:
    k: MonoidMap  # N -> G, injective
    q: MonoidMap  # G -> H, surjective


@dataclass(frozen=True)
class WSSplitting:
    s: MonoidMap  # H -> G, set-theoretic section of q
    candidates: tuple[tuple[int, ...], ...]  # admissible section values per fiber


@dataclass(frozen=True)
class Cosplitting:
    ell: MonoidMap  # G -> N, retraction of k
    ell_is_homomorphism: bool


@dataclass(frozen=True)
class WSFInverseReport:
    extension: Extension
    splitting: WSSplitting | None
    fiber_witness: tuple[int, tuple[int, ...]] | None
    holds: bool  # the shared verdict of the two independent routes


def make_extension(k: MonoidMap, q: MonoidMap) -> Extension:
    """N -> G -> H with N = k.source, G = k.target = q.source and H = q.target."""
    if q.source != k.target:
        raise PreconditionFailed("quotient map must start where the kernel map ends")
    if not k.is_injective():
        raise PreconditionFailed("kernel map must be injective")
    if not q.is_surjective():
        raise PreconditionFailed("quotient map must be surjective")
    image = set(k.values)
    kernel = {x for x, h in enumerate(q.values) if h == q.target.id}
    for x in sorted(kernel - image):
        raise KernelMismatch(x, "in the kernel but not in the image of k")
    for x in sorted(image - kernel):
        raise KernelMismatch(x, "in the image of k but not in the kernel")
    return Extension(k=k, q=q)


def build_canonical_extension(m: InverseMonoid) -> Extension:
    """E(M) -> M -> M/sigma; raises KernelMismatch exactly when M is not E-unitary."""
    return make_extension(m.semilattice[1], m.group_image[1])


def is_weakly_schreier(ext: Extension) -> WSSplitting:
    """Find a section s with every g equal to k(n)*s(q(g)) for some n.

    The defining condition constrains only the section value of each fiber,
    so fibers are searched independently; the least admissible index wins.
    """
    g, h = ext.q.source, ext.q.target
    fibers: list[list[int]] = [[] for _ in range(h.n)]
    for x in range(g.n):
        fibers[ext.q.values[x]].append(x)
    kimg = ext.k.values
    values = []
    all_candidates = []
    for hh in range(h.n):
        fiber = fibers[hh]
        cands = []
        for x in fiber:
            reachable = {g.mul(e, x) for e in kimg}
            if all(y in reachable for y in fiber):
                cands.append(x)
        if not cands:
            raise EmptyCandidateFiber(hh, fiber)
        values.append(cands[0])
        all_candidates.append(tuple(cands))
    s = MonoidMap(h, g, tuple(values))
    return WSSplitting(s=s, candidates=tuple(all_candidates))


def weakly_schreier_iff_f_inverse(m: InverseMonoid) -> WSFInverseReport:
    """Run the order route and the fiber route independently and demand agreement.

    This is the one place the weakly Schreier verdict of a canonical extension
    is decided, once per monoid as ``InverseMonoid.weakly_schreier``. When
    both routes succeed the section must pick exactly the greatest element of
    each fiber. Raises KernelMismatch when M is not E-unitary, since then
    there is no extension to split.
    """
    ext = build_canonical_extension(m)
    fres = m.f_inverse
    splitting = None
    fiber_witness = None
    try:
        splitting = is_weakly_schreier(ext)
        ws = True
    except EmptyCandidateFiber as exc:
        fiber_witness = (exc.h, exc.fiber)
        ws = False
    if ws != fres.holds:
        raise TheoremViolation(
            f"weakly-Schreier={ws} but F-inverse={fres.holds}")
    if ws and splitting.s.values != fres.selector:
        raise TheoremViolation(
            f"section {splitting.s.values} differs from greatest-element "
            f"selector {fres.selector}")
    return WSFInverseReport(extension=ext, splitting=splitting,
                            fiber_witness=fiber_witness, holds=ws)


def cosplit_retraction(m: InverseMonoid) -> Cosplitting:
    """The retraction l(x) = x*inv(x) of the kernel inclusion; homomorphy is reported, not required.

    l∘k is the identity since inv(e) = e for an idempotent e. l is a
    homomorphism iff M is Clifford: central idempotents give l(x*y) =
    x*l(y)*inv(x) = l(x)*l(y), and conversely l(inv(x)*x) = l(inv(x))*l(x)
    and its mirror give inv(x)*x = x*inv(x).
    """
    ext = build_canonical_extension(m)
    pos = m.idempotent_index
    ell = MonoidMap(ext.q.source, ext.k.source,
                    tuple(pos[m.mul(x, m.inv[x])] for x in range(m.n)))
    return Cosplitting(ell=ell, ell_is_homomorphism=m.clifford.holds)
