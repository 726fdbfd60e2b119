"""Analysis reports: one structure per instance, rendered as stable JSON
(sorted keys, schema-versioned) or a human table."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import FiniteMonoid
from .errors import NoInverse, NonUniqueInverse, TheoremViolation
from .inverse import natural_order, validate_inverse
from .mtab import SCHEMA_VERSION

VERDICT_NAMES = ("inverse", "e_unitary", "f_inverse", "clifford", "weakly_schreier")


@dataclass(frozen=True)
class AnalysisReport:
    name: str
    monoid: FiniteMonoid
    verdicts: dict
    witnesses: dict
    sigma_classes: list | None
    idempotents: list | None
    natural_order_pairs: list | None
    max_selector: list | None

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "instance": self.name,
            "n": self.monoid.n,
            "labels": list(self.monoid.labels) if self.monoid.labels else None,
            "verdicts": dict(self.verdicts),
            "witnesses": dict(self.witnesses),
            "sigma_classes": self.sigma_classes,
            "idempotents": self.idempotents,
            "natural_order": self.natural_order_pairs,
            "max_selector": self.max_selector,
        }


def analyze(m: FiniteMonoid, name: str = "monoid") -> AnalysisReport:
    """Decide every predicate of the hierarchy, collecting witnesses.

    The weakly-Schreier verdict comes from weakly_schreier_iff_f_inverse,
    which demands that the fiber search and the F-inverse verdict agree; a
    mismatch is a bug, not a property of the input.
    """
    verdicts: dict = {k: None for k in VERDICT_NAMES}
    witnesses: dict = {k: None for k in VERDICT_NAMES}
    try:
        inv = validate_inverse(m)
    except NoInverse as exc:
        verdicts["inverse"] = False
        witnesses["inverse"] = {"kind": "no_inverse", "element": exc.witness}
        return AnalysisReport(name, m, verdicts, witnesses, None, None, None, None)
    except NonUniqueInverse as exc:
        verdicts["inverse"] = False
        witnesses["inverse"] = {"kind": "non_unique_inverse",
                               "element": exc.witness[0],
                               "inverses": list(exc.witness[1])}
        return AnalysisReport(name, m, verdicts, witnesses, None, None, None, None)
    verdicts["inverse"] = True

    eu = inv.e_unitary
    verdicts["e_unitary"] = eu.holds
    if not eu.holds:
        witnesses["e_unitary"] = {"element": eu.witness[0], "idempotent": eu.witness[1]}

    fr = inv.f_inverse
    verdicts["f_inverse"] = fr.holds
    if not fr.holds:
        witnesses["f_inverse"] = {"sigma_class": fr.witness_class,
                                  "maximals": list(fr.witness_maximals)}

    cl = inv.clifford
    verdicts["clifford"] = cl.holds
    if not cl.holds:
        witnesses["clifford"] = {"idempotent": cl.witness[0], "element": cl.witness[1]}

    if eu.holds:
        wsf = inv.weakly_schreier
        verdicts["weakly_schreier"] = wsf.holds
        if not wsf.holds:
            h, fiber = wsf.fiber_witness
            witnesses["weakly_schreier"] = {"kind": "empty_fiber",
                                            "sigma_class": h,
                                            "fiber": sorted(fiber)}
    else:
        if fr.holds:
            raise TheoremViolation(f"{name}: F-inverse without being E-unitary")
        verdicts["weakly_schreier"] = False
        witnesses["weakly_schreier"] = {"kind": "not_e_unitary",
                                        "element": eu.witness[0]}

    return AnalysisReport(
        name=name,
        monoid=m,
        verdicts=verdicts,
        witnesses=witnesses,
        sigma_classes=[list(c) for c in inv.sigma.classes()],
        idempotents=m.idempotents(),
        natural_order_pairs=[list(p) for p in natural_order(inv)],
        max_selector=list(fr.selector) if fr.selector is not None else None,
    )


def to_canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _yes_no(v) -> str:
    if v is None:
        return "n/a"
    return "yes" if v else "no"


def emit_report(report: AnalysisReport, format: str = "human") -> str:
    if format == "json":
        return to_canonical_json(report.to_json_dict())
    if format != "human":
        raise ValueError(f"unknown format {format!r}")
    m = report.monoid
    lab = m.label
    lines = [f"instance: {report.name}  (n={m.n})"]
    pretty = {"inverse": "inverse", "e_unitary": "E-unitary",
              "f_inverse": "F-inverse", "clifford": "Clifford",
              "weakly_schreier": "weakly Schreier"}
    for key in VERDICT_NAMES:
        line = f"  {pretty[key] + ':':<17} {_yes_no(report.verdicts[key])}"
        w = report.witnesses[key]
        if w is not None:
            parts = []
            for k in sorted(w):
                v = w[k]
                if k in ("element", "idempotent") and isinstance(v, int):
                    v = lab(v)
                elif k in ("maximals", "fiber", "inverses"):
                    v = "{" + ", ".join(lab(x) for x in v) + "}"
                parts.append(f"{k}={v}")
            line += "   witness: " + ", ".join(parts)
        lines.append(line)
    if report.idempotents is not None:
        lines.append("  idempotents:      " + ", ".join(lab(e) for e in report.idempotents))
    if report.sigma_classes is not None:
        lines.append("  sigma classes:    " +
                     " | ".join("{" + ", ".join(lab(x) for x in c) + "}"
                                for c in report.sigma_classes))
    if report.max_selector is not None:
        lines.append("  max selector:     " +
                     ", ".join(f"[{lab(s)}]->{lab(s)}" for s in report.max_selector))
    return "\n".join(lines) + "\n"
