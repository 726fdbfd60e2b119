"""The acceptance suite: every theorem re-checked over the whole corpus.

Each criterion scans a deterministic corpus (named instances, the exhaustive
enumerations, and every constructed F(Y,G) and Gl(f) over the standard grid)
and reports a pass/fail verdict with counterexample details. The final
criterion re-runs the first seven and demands byte-identical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constructions import (
    clifford_reconstruction,
    factor_system_from_extension,
    iso_f_product_crossed,
)
from .core import (
    backtrack,
    first_occurrence_classes,
    is_group,
    make_congruence,
    quotient,
)
from .corpus import (
    builtin_corpus,
    cyclic_group,
    enumerate_almost_actions,
    enumerate_gluing_maps,
    enumerate_inverse_monoids,
    enumerate_semilattices,
    klein_four,
)
from .errors import (
    ImwError,
    KernelMismatch,
    NotACongruence,
    SizeLimitExceeded,
    TheoremViolation,
)
from .inverse import InverseMonoid, validate_inverse
from .iso import brute_force_iso
from .mtab import SCHEMA_VERSION
from .report import to_canonical_json

# Size cap of the brute-force cross-checks; the largest monoid they see has 16 elements.
SUITE_ISO_LIMIT = 24


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    checked: int
    details: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {"number": self.number, "name": self.name, "passed": self.passed,
                "checked": self.checked, "details": self.details,
                "failures": self.failures}


@dataclass
class SuiteResult:
    criteria: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def to_json_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, "all_passed": self.all_passed,
                "criteria": [c.to_json_dict() for c in self.criteria]}


@dataclass
class SuiteContext:
    """Shared corpus: built once, scanned by several criteria."""

    monoids: list  # (name, InverseMonoid): named + enumerated + constructed
    actions: list  # (name, AlmostAction) over the standard grid
    gluing_maps: list  # (name, GluingMap, Gl(f)); Gl(f) is the F(Y,G) of its meet action in actions


def build_context() -> SuiteContext:
    monoids: list[tuple[str, InverseMonoid]] = [
        (inst.name, validate_inverse(inst.table)) for inst in builtin_corpus()]
    for i, m in enumerate(enumerate_inverse_monoids(4)):
        monoids.append((f"enum{m.n}#{i}", m))

    grid_groups = [("z2", cyclic_group(2)), ("z3", cyclic_group(3)),
                   ("z4", cyclic_group(4)), ("klein", klein_four())]
    grid_semis = [(f"y{s.n}#{i}", s) for i, s in enumerate(enumerate_semilattices(4))]
    actions = []
    gluing_maps = []
    for gname, g in grid_groups:
        for yname, y in grid_semis:
            cell = {aa: aa for aa in enumerate_almost_actions(g, y)}
            actions += [(f"aa({gname},{yname})#{i}", aa) for i, aa in enumerate(cell)]
            gluing_maps += [(f"gl({gname},{yname})#{i}", gm, cell[gm.meet_action].f_product)
                            for i, gm in enumerate(enumerate_gluing_maps(g, y))]
    for name, aa in actions:
        monoids.append((f"F[{name}]", aa.f_product.monoid))
    for name, _, gl in gluing_maps:
        monoids.append((f"Gl[{name}]", gl.monoid))
    return SuiteContext(monoids=monoids, actions=actions, gluing_maps=gluing_maps)


def criterion_1(ctx: SuiteContext) -> CriterionResult:
    """Extension exists iff E-unitary, with at least one negative case."""
    failures = []
    negatives = []
    for name, m in ctx.monoids:
        verdict = m.e_unitary.holds
        built = True
        try:
            m.weakly_schreier
        except KernelMismatch:
            built = False
        except TheoremViolation:
            pass  # raised after the extension is built; criterion 2 records it
        if built != verdict:
            failures.append({"instance": name, "e_unitary": verdict,
                             "extension_built": built})
        if not verdict:
            negatives.append(name)
    if "b2-1" not in negatives:
        failures.append({"instance": "b2-1", "error": "expected negative case missing"})
    return CriterionResult(
        1, "canonical extension exists iff E-unitary",
        passed=not failures, checked=len(ctx.monoids),
        details={"negatives": len(negatives)}, failures=failures)


def criterion_2(ctx: SuiteContext) -> CriterionResult:
    """Weakly Schreier iff F-inverse on E-unitary instances; the section is
    the greatest-element selector and is the unique fiber candidate."""
    failures = []
    checked = 0
    negatives = []
    for name, m in ctx.monoids:
        if not m.e_unitary.holds:
            continue
        checked += 1
        try:
            wsf = m.weakly_schreier
        except TheoremViolation as exc:
            failures.append({"instance": name, "error": str(exc)})
            continue
        if not wsf.holds:
            negatives.append(name)
            continue
        sizes = [len(c) for c in wsf.splitting.candidates]
        if any(size != 1 for size in sizes):
            failures.append({"instance": name,
                             "error": "fiber candidate not unique", "sizes": sizes})
    if "m7" not in negatives:
        failures.append({"instance": "m7", "error": "expected negative case missing"})
    return CriterionResult(
        2, "weakly Schreier iff F-inverse, section = greatest selector",
        passed=not failures, checked=checked,
        details={"negatives": len(negatives)}, failures=failures)


def criterion_3(ctx: SuiteContext) -> CriterionResult:
    """Every grid almost action yields a valid factor system and a certified
    isomorphism F(Y,G) = crossed product, cross-checked by brute force."""
    failures = []
    for name, aa in ctx.actions:
        try:
            w = iso_f_product_crossed(aa)
            if brute_force_iso(w.a, w.b, max_n=SUITE_ISO_LIMIT) is None:
                failures.append({"instance": name, "error": "brute force found no iso"})
        except SizeLimitExceeded:
            raise
        except ImwError as exc:
            failures.append({"instance": name, "error": str(exc)})
    return CriterionResult(
        3, "factor system valid and F(Y,G) = crossed product on the grid",
        passed=not failures, checked=len(ctx.actions), failures=failures)


def criterion_4(ctx: SuiteContext) -> CriterionResult:
    """Every grid gluing is F-inverse Clifford, reproduces its map pointwise
    (G, Y and f), and reconstructs to an isomorphic copy. The recovery refuses
    a Gl(f) that is not Clifford or not F-inverse, and f comes back only if
    the greatest element of class g is (f(g), g), the section criterion 2
    demands."""
    failures = []
    for name, gm, gl in ctx.gluing_maps:
        try:
            back, w = clifford_reconstruction(gl.monoid)
            if back.f != gm.f or back.group.table != gm.group.table \
                    or back.semilattice.base.table != gm.semilattice.base.table:
                failures.append({"instance": name, "error": "recovered map differs",
                                 "f": list(gm.f), "recovered": list(back.f)})
                continue
            if brute_force_iso(w.a, w.b, max_n=SUITE_ISO_LIMIT) is None:
                failures.append({"instance": name, "error": "brute force found no iso"})
        except SizeLimitExceeded:
            raise
        except ImwError as exc:
            failures.append({"instance": name, "error": str(exc)})
    return CriterionResult(
        4, "gluings are F-inverse Clifford and reconstruct round-trip",
        passed=not failures, checked=len(ctx.gluing_maps), failures=failures)


def criterion_5(ctx: SuiteContext) -> CriterionResult:
    """Gluings over abelian groups are commutative."""
    failures = []
    checked = 0
    for name, gm, gl in ctx.gluing_maps:
        g = gm.group
        if any(g.mul(a, b) != g.mul(b, a) for a in range(g.n) for b in range(g.n)):
            continue
        checked += 1
        t = gl.monoid.base
        bad = next(((x, y) for x in range(t.n) for y in range(t.n)
                    if t.mul(x, y) != t.mul(y, x)), None)
        if bad is not None:
            failures.append({"instance": name, "witness": list(bad)})
    return CriterionResult(
        5, "gluings over abelian groups are commutative",
        passed=not failures, checked=checked, failures=failures)


def sigma_by_exhaustion(m: InverseMonoid) -> tuple[tuple[int, ...], int]:
    """Intersection of all group congruences, found by brute-force search.

    Only the partitions that put every idempotent in one class are tried: the
    class of an idempotent is an idempotent of the group M/θ, so it is [1].
    """
    n = m.n
    idem = m.base.idempotents()
    first, rest = idem[0], frozenset(idem[1:])
    related = [[True] * n for _ in range(n)]
    found = 0
    for classes in backtrack([range(x + 1) for x in range(n)],
                             lambda a, x: a[x] <= max(a[:x], default=-1) + 1
                             and (x not in rest or a[x] == a[first])):
        try:
            cong = make_congruence(m.base, classes)
        except NotACongruence:
            continue
        q, _ = quotient(cong)
        if not is_group(q):
            continue
        found += 1
        for a in range(n):
            for b in range(n):
                if cong.class_of[a] != cong.class_of[b]:
                    related[a][b] = False
    return first_occurrence_classes([related[a].index(True) for a in range(n)]), found


def criterion_6(ctx: SuiteContext) -> CriterionResult:
    """Sigma is minimal: it equals the intersection of all group congruences."""
    failures = []
    checked = 0
    oracles = {}  # id(m) -> sigma_by_exhaustion(m), once per distinct monoid
    for name, m in ctx.monoids:
        if m.n > 6:
            continue
        checked += 1
        sigma = m.sigma
        if id(m) not in oracles:
            oracles[id(m)] = sigma_by_exhaustion(m)
        oracle, found = oracles[id(m)]
        if sigma.class_of != oracle:
            failures.append({"instance": name, "sigma": list(sigma.class_of),
                             "oracle": list(oracle), "group_congruences": found})
    return CriterionResult(
        6, "sigma equals the intersection of all group congruences (n<=6)",
        passed=not failures, checked=checked, failures=failures)


def _rebuild_outcome(m: InverseMonoid) -> tuple[bool, str | None]:
    """Whether criterion 7 checks E-unitary m, and the error it finds, if any."""
    checked = False
    try:
        wsf = m.weakly_schreier
        if not wsf.holds:
            return False, None
        checked = True
        _, w = factor_system_from_extension(wsf.extension, wsf.splitting)
        if brute_force_iso(w.a, w.b, max_n=SUITE_ISO_LIMIT) is None:
            return True, "brute force found no iso"
    except SizeLimitExceeded:
        raise
    except ImwError as exc:
        return checked, str(exc)
    return True, None


def criterion_7(ctx: SuiteContext) -> CriterionResult:
    """Factor systems extracted from weakly Schreier canonical extensions
    rebuild the middle object: the certified isomorphism of the extraction,
    cross-checked by brute force."""
    failures = []
    checked = 0
    outcomes = {}  # id(m) -> _rebuild_outcome(m), once per distinct monoid
    for name, m in ctx.monoids:
        if not m.e_unitary.holds:
            continue
        if id(m) not in outcomes:
            outcomes[id(m)] = _rebuild_outcome(m)
        counted, error = outcomes[id(m)]
        checked += counted
        if error is not None:
            failures.append({"instance": name, "error": error})
    return CriterionResult(
        7, "extracted factor systems rebuild the middle object",
        passed=not failures, checked=checked, failures=failures)


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4,
            criterion_5, criterion_6, criterion_7]


def _run_once() -> list[CriterionResult]:
    ctx = build_context()
    return [c(ctx) for c in CRITERIA]


def run_suite() -> SuiteResult:
    """Run criteria 1-7, then re-run them and compare canonical JSON bytes."""
    results = _run_once()
    first = to_canonical_json(
        {"criteria": [c.to_json_dict() for c in results]})
    second = to_canonical_json(
        {"criteria": [c.to_json_dict() for c in _run_once()]})
    results.append(CriterionResult(
        8, "two consecutive runs are byte-identical",
        passed=first == second, checked=2,
        details={"bytes": len(first)},
        failures=[] if first == second else [{"error": "outputs differ"}]))
    return SuiteResult(criteria=results)


def format_suite(result: SuiteResult, fmt: str = "human") -> str:
    if fmt == "json":
        return to_canonical_json(result.to_json_dict())
    lines = []
    for c in result.criteria:
        status = "PASS" if c.passed else "FAIL"
        extra = f" ({c.checked} checks)"
        lines.append(f"criterion {c.number}: {status}  {c.name}{extra}")
        for f in c.failures[:5]:
            lines.append(f"    failure: {f}")
        if len(c.failures) > 5:
            lines.append(f"    ... and {len(c.failures) - 5} more")
    ok = sum(1 for c in result.criteria if c.passed)
    lines.append(f"suite: {'PASS' if result.all_passed else 'FAIL'} "
                 f"({ok}/{len(result.criteria)})")
    return "\n".join(lines) + "\n"
