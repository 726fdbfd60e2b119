"""Acceptance gate: each criterion runs at its stated tolerance (exact logic,
zero failures allowed) and prints one pass/fail line."""

import hashlib
import subprocess
import sys
from collections import Counter

import pytest

import imw.constructions
import imw.extension
import imw.suite
from imw.constructions import PairMonoid, gluing, validate_gluing_map
from imw.core import validate_monoid
from imw.corpus import chain, cyclic_group, m3, m7, z2_ch2_action, z2_ch2_gluing
from imw.errors import EmptyCandidateFiber
from imw.inverse import validate_inverse, validate_semilattice
from imw.suite import (
    SuiteContext,
    build_context,
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
)


@pytest.fixture(scope="module")
def ctx():
    return build_context()


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.number}: {status}  {result.name} "
          f"({result.checked} checks)")
    assert result.passed, result.failures


def test_criterion_1_extension_iff_e_unitary(ctx):
    res = criterion_1(ctx)
    assert res.details["negatives"] >= 1
    _report(res)


def test_criterion_2_weakly_schreier_iff_f_inverse(ctx):
    res = criterion_2(ctx)
    assert res.details["negatives"] >= 1
    _report(res)


def test_criterion_3_factor_system_and_crossed_product(ctx):
    res = criterion_3(ctx)
    assert res.checked >= 100  # the full grid, not a truncation
    _report(res)


def test_criterion_4_gluing_round_trip(ctx):
    res = criterion_4(ctx)
    assert res.checked >= 100
    _report(res)


def test_criterion_5_abelian_gluings_commutative(ctx):
    res = criterion_5(ctx)
    assert res.checked >= 100
    _report(res)


def test_criterion_6_sigma_minimality(ctx):
    res = criterion_6(ctx)
    assert res.checked >= 20
    _report(res)


def test_criterion_7_factor_system_extraction(ctx):
    res = criterion_7(ctx)
    assert res.checked >= 100
    _report(res)


def test_criterion_8_suite_json_deterministic():
    runs = []
    for _ in range(2):
        r = subprocess.run([sys.executable, "-m", "imw.cli", "suite", "--json"],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stdout + r.stderr
        runs.append(r.stdout)
    passed = runs[0] == runs[1] and len(runs[0]) > 0
    # The bytes of perfbench/reference/suite.json.
    assert hashlib.sha256(runs[0].encode("utf-8")).hexdigest() == \
        "bca1a526c326ccba2147b84ada0ea2e4f2154017b96f037c2ab757218134d6fd"
    print(f"criterion 8: {'PASS' if passed else 'FAIL'}  "
          f"two consecutive suite --json runs are byte-identical")
    assert passed


def small_context() -> SuiteContext:
    """m3, its almost action and its gluing map: one item for criteria 3, 4 and 7."""
    gm = z2_ch2_gluing()
    return SuiteContext(monoids=[("m3", validate_inverse(m3()))],
                        actions=[("z2-ch2-action", z2_ch2_action())],
                        gluing_maps=[("z2-ch2-gluing", gm, gluing(gm))])


BUILDERS = ("f_product", "factor_system_from_almost_action", "crossed_product", "gluing")


@pytest.fixture()
def build_calls(monkeypatch):
    """How often each construction in BUILDERS is built, by name.

    Every imw module that binds a builder gets the counter, so calls from
    inside other constructions are seen as well.
    """
    calls = dict.fromkeys(BUILDERS, 0)
    for fn in BUILDERS:
        original = getattr(imw.constructions, fn)

        def counting(*args, _fn=fn, _original=original, **kwargs):
            calls[_fn] += 1
            return _original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("imw") and getattr(module, fn, None) is original:
                monkeypatch.setattr(module, fn, counting)
    return calls


def test_criteria_3_and_4_build_each_construction_once(build_calls):
    ctx = small_context()
    build_calls.update(dict.fromkeys(BUILDERS, 0))
    assert criterion_3(ctx).passed
    assert build_calls == {"f_product": 1, "factor_system_from_almost_action": 1,
                           "crossed_product": 1, "gluing": 0}
    build_calls.update(dict.fromkeys(BUILDERS, 0))
    assert criterion_4(ctx).passed
    # Once to rebuild Gl(f) from the recovered map, whose F(Y,G) it is.
    assert build_calls == {"f_product": 1, "factor_system_from_almost_action": 0,
                           "crossed_product": 0, "gluing": 1}


def test_criterion_4_records_what_gluing_does_not_check():
    # gluing does not check its theorem, so a bad Gl(f) shows in criterion 4
    # as a failure, not an exception: m7 is not Clifford, and a Gl(f) over
    # ch3 given with a map over ch3 with its two lower elements swapped
    # differs from its recovered map in Y alone.
    z2, ch3 = cyclic_group(2), chain(3)
    swapped = validate_semilattice(validate_monoid(
        3, [[0, 1, 2], [1, 1, 1], [2, 1, 2]], 0, ch3.base.labels))
    gl = gluing(validate_gluing_map(z2, ch3, [0, 0]))
    m7_gl = PairMonoid(monoid=validate_inverse(m7()), pairs=(), index={})
    ctx = SuiteContext(monoids=[], actions=[], gluing_maps=[
        ("ch3", validate_gluing_map(z2, ch3, [0, 0]), gl),
        ("swapped", validate_gluing_map(z2, swapped, [0, 0]), gl),
        ("m7", z2_ch2_gluing(), m7_gl)])
    res = criterion_4(ctx)
    assert (res.passed, res.checked) == (False, 3)
    assert res.failures == [
        {"instance": "swapped", "error": "recovered map differs",
         "f": [0, 0], "recovered": [0, 0]},
        {"instance": "m7",
         "error": "precondition not met: monoid must be Clifford (witness (1, 4))"}]


def _no_iso(*args, **kwargs):
    return None


def test_criterion_7_runs_the_crossed_product_check(monkeypatch):
    ctx = small_context()
    assert criterion_7(ctx).passed
    monkeypatch.setattr(imw.suite, "brute_force_iso", _no_iso)
    res = criterion_7(ctx)
    assert not res.passed and res.checked == 1
    assert [f["error"] for f in res.failures] == ["brute force found no iso"]


def test_each_distinct_suite_monoid_is_one_object(monkeypatch):
    # Gl(f) is the F(Y,G) of the meet action, so each grid Gl(f) is the cached
    # F(Y,G) of the grid action equal to its meet action, and no other F(Y,G)
    # is built; criteria 6 and 7 run their oracles once per object and still
    # report every name.
    calls = Counter()

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in ("sigma_by_exhaustion", "factor_system_from_extension", "brute_force_iso"):
        monkeypatch.setattr(imw.suite, fn, counting(getattr(imw.suite, fn)))
    monkeypatch.setattr(imw.constructions, "f_product",
                        counting(imw.constructions.f_product))
    ctx = build_context()
    assert calls["f_product"] == len(ctx.actions) == 135 and len(ctx.gluing_maps) == 122
    grid = {aa: aa for _, aa in ctx.actions}
    assert all(gl is grid[gm.meet_action].f_product for _, gm, gl in ctx.gluing_maps)
    objects = list({id(m): m for _, m in ctx.monoids}.values())
    assert (len(ctx.monoids), len(objects), len(set(objects))) == (288, 166, 166)
    twins = {m.base: m for name, m in ctx.monoids if name.startswith("F[")}
    glued = [(name, m) for name, m in ctx.monoids if name.startswith("Gl[")]
    assert len(glued) == 122 and all(m is twins[m.base] for _, m in glued)
    assert all(gl.monoid is twins[gl.monoid.base] for _, _, gl in ctx.gluing_maps)

    assert criterion_6(ctx).checked == 84 and calls["sigma_by_exhaustion"] == 57
    res = criterion_7(ctx)
    assert (res.passed, res.checked) == (True, 281)
    assert calls["factor_system_from_extension"] == calls["brute_force_iso"] == 159
    monkeypatch.setattr(imw.suite, "brute_force_iso", _no_iso)
    res = criterion_7(ctx)
    assert res.checked == len(res.failures) == 281
    assert res.failures == [
        {"instance": name, "error": "brute force found no iso"}
        for name, m in ctx.monoids if m.e_unitary.holds and m.weakly_schreier.holds]


def _no_section(ext):
    raise EmptyCandidateFiber(0, ())


def test_criteria_1_and_2_record_a_fiber_route_disagreement(monkeypatch):
    # m3 is F-inverse, so a fiber search that always fails contradicts it.
    ctx = small_context()
    monkeypatch.setattr(imw.extension, "is_weakly_schreier", _no_section)
    # The extension of m3 was built; only the negative case b2-1 is missing.
    assert [f["instance"] for f in criterion_1(ctx).failures] == ["b2-1"]
    res = criterion_2(ctx)
    assert not res.passed and res.checked == 1
    assert [f["instance"] for f in res.failures] == ["m3", "m7"]
    assert "F-inverse=True" in res.failures[0]["error"]


def test_criteria_3_and_4_run_their_brute_force_checks(monkeypatch):
    ctx = small_context()
    assert criterion_3(ctx).passed and criterion_4(ctx).passed
    monkeypatch.setattr(imw.suite, "brute_force_iso", _no_iso)
    for criterion in (criterion_3, criterion_4):
        res = criterion(ctx)
        assert not res.passed
        assert [f["error"] for f in res.failures] == ["brute force found no iso"]
