import pytest

from imw.constructions import (
    almost_action_from_f_inverse,
    clifford_reconstruction,
    gluing_map_from_clifford,
)
from imw.core import make_monoid_map, validate_monoid
from imw.corpus import brandt_b2_1, chain, cyclic_group, enumerate_inverse_monoids, m3, m7, sym3
from imw.errors import EmptyCandidateFiber, KernelMismatch, PreconditionFailed
from imw.extension import (
    build_canonical_extension,
    cosplit_retraction,
    is_weakly_schreier,
    make_extension,
    weakly_schreier_iff_f_inverse,
)
from imw.inverse import validate_inverse
from imw.iso import brute_force_iso


def test_canonical_extension_of_group():
    g = validate_inverse(sym3())
    ext = build_canonical_extension(g)
    assert ext.k.source.n == 1
    assert brute_force_iso(ext.q.target, sym3()) is not None


def test_canonical_extension_of_m3():
    ext = build_canonical_extension(validate_inverse(m3()))
    assert ext.k.values == (0, 1)  # the chain {1, e}
    assert brute_force_iso(ext.q.target, cyclic_group(2)) is not None
    assert ext.q.values == (0, 0, 1)


def test_canonical_extension_fails_on_b2_1():
    with pytest.raises(KernelMismatch) as exc:
        build_canonical_extension(validate_inverse(brandt_b2_1()))
    x = exc.value.witness
    assert not brandt_b2_1().is_idempotent(x)


def test_make_extension_rejects_wrong_kernel():
    z4 = cyclic_group(4)
    z2 = cyclic_group(2)
    k = make_monoid_map(validate_monoid(1, [[0]], 0), z4, [0])
    q = make_monoid_map(z4, z2, [0, 1, 0, 1])
    # The kernel of q is {0, 2} but the image of k is only {0}.
    with pytest.raises(KernelMismatch):
        make_extension(k, q)


@pytest.mark.parametrize("k_values, q_values, message", [
    ([0, 0], [0, 1], "precondition not met: kernel map must be injective"),
    ([0, 1], [0, 0], "precondition not met: quotient map must be surjective"),
])
def test_make_extension_rejects_a_non_injective_k_or_a_non_surjective_q(
        k_values, q_values, message):
    z2 = cyclic_group(2)
    k = make_monoid_map(z2, z2, k_values)
    q = make_monoid_map(z2, z2, q_values)
    with pytest.raises(PreconditionFailed) as exc:
        make_extension(k, q)
    assert str(exc.value) == message


def test_make_extension_rejects_maps_that_do_not_compose():
    # q starts at Z4 but k ends at Z2, so there is no middle object G.
    z2 = cyclic_group(2)
    k = make_monoid_map(validate_monoid(1, [[0]], 0), z2, [0])
    q = make_monoid_map(cyclic_group(4), z2, [0, 1, 0, 1])
    with pytest.raises(PreconditionFailed):
        make_extension(k, q)


def test_weakly_schreier_on_group_extension():
    g = validate_inverse(cyclic_group(4))
    ws = is_weakly_schreier(build_canonical_extension(g))
    assert ws.s.values == (0, 1, 2, 3)
    assert all(len(c) == 1 for c in ws.candidates)


def test_weakly_schreier_on_m3():
    ws = is_weakly_schreier(build_canonical_extension(validate_inverse(m3())))
    assert ws.s.values == (0, 2)


def test_weakly_schreier_fails_on_m7():
    ext = build_canonical_extension(validate_inverse(m7()))
    with pytest.raises(EmptyCandidateFiber) as exc:
        is_weakly_schreier(ext)
    assert exc.value.h == 1
    assert sorted(exc.value.fiber) == [4, 5, 6]


def test_section_stays_in_fiber(corpus_monoids):
    for name, m in corpus_monoids:
        try:
            ext = build_canonical_extension(m)
        except KernelMismatch:
            continue
        try:
            ws = is_weakly_schreier(ext)
        except EmptyCandidateFiber:
            continue
        for h in range(ext.q.target.n):
            assert ext.q.values[ws.s.values[h]] == h, name


def test_biconditional_report(corpus_monoids):
    for name, m in corpus_monoids:
        try:
            report = weakly_schreier_iff_f_inverse(m)
        except KernelMismatch:
            continue  # not E-unitary, so no canonical extension
        assert report.holds == m.f_inverse.holds, name
        assert report.extension.k is m.semilattice[1], name
        assert report.extension.q is m.group_image[1], name
        if report.holds:
            assert report.splitting is not None
        else:
            assert report.fiber_witness is not None


def test_cosplit_on_group():
    m = validate_inverse(sym3())
    cs = cosplit_retraction(m)
    assert cs.ell.source is m.base
    assert cs.ell.target is m.semilattice[1].source
    assert set(cs.ell.values) == {0}
    assert cs.ell_is_homomorphism


def test_cosplit_on_m3():
    m = validate_inverse(m3())
    cs = cosplit_retraction(m)
    assert cs.ell.source is m.base
    assert cs.ell.target is m.semilattice[1].source
    assert cs.ell.values == (0, 1, 1)  # 1->1, e->e, t->t*t^-1 = e
    assert cs.ell_is_homomorphism


def test_cosplit_on_m7_is_not_homomorphism():
    # l((a,g)(a,g)) = l((0,1)) = (0,1) but l(a,g)*l(a,g) = (a,1).
    m = validate_inverse(m7())
    cs = cosplit_retraction(m)
    semi = cs.ell.target
    v = cs.ell.values
    direct = all(v[m.mul(x, y)] == semi.mul(v[x], v[y])
                 for x in range(m.n) for y in range(m.n))
    assert not direct
    assert cs.ell_is_homomorphism == direct


def test_cosplit_retraction_identity(corpus_monoids):
    for name, m in corpus_monoids:
        try:
            cs = cosplit_retraction(m)
        except KernelMismatch:
            continue
        assert cs.ell.source is m.base, name
        assert cs.ell.target is m.semilattice[1].source, name
        for i, e in enumerate(m.semilattice[1].values):
            assert cs.ell.values[e] == i, name


def test_cosplit_homomorphism_on_clifford(corpus_monoids):
    # ell_is_homomorphism is the Clifford verdict; the direct scan of
    # l(x*y) = l(x)*l(y) is its oracle on every monoid with a canonical
    # extension.
    cases = corpus_monoids + [(f"inverse-{m.n}-{i}", m)
                              for i, m in enumerate(enumerate_inverse_monoids(5))]
    direct = {}
    for name, m in cases:
        if not m.e_unitary.holds:
            continue
        cs = cosplit_retraction(m)
        semi, v = cs.ell.target, cs.ell.values
        direct[name] = v[m.id] == semi.id and all(
            v[m.mul(x, y)] == semi.mul(v[x], v[y]) for x in range(m.n) for y in range(m.n))
        assert cs.ell_is_homomorphism == direct[name], name
    assert direct["m7"] is False and True in direct.values()


def test_section_data_and_cosplit_read_the_cached_idempotent_index():
    class CountingIndex(dict):
        reads = 0

        def __getitem__(self, e):
            CountingIndex.reads += 1
            return super().__getitem__(e)

    for build in (cosplit_retraction, almost_action_from_f_inverse,
                  gluing_map_from_clifford, clifford_reconstruction):
        m = validate_inverse(m3())
        assert m.idempotent_index == {e: i for i, e in enumerate(m.semilattice[1].values)}
        m.__dict__["idempotent_index"] = CountingIndex(m.idempotent_index)
        CountingIndex.reads = 0
        build(m)
        assert CountingIndex.reads > 0, build.__name__
