"""The three workloads: how each is set up, which CLI commands are its ops,
and how every op's output is checked.

An op is one ``imw`` command run in-process through ``imw.cli.cli_main``.
A pass is one run of every op of the workload, in a fixed order.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"
DEFAULT_SEED = 0

SUITE_ARGV = ["suite", "--json"]
ENUMERATE_ARGVS = {
    "inverse-monoid": (["enumerate", "--kind", "inverse-monoid", "--max-n", "5", "--json"],
                       [1, 2, 4, 11, 27]),
    "semilattice": (["enumerate", "--kind", "semilattice", "--max-n", "6", "--json"],
                    [1, 1, 1, 2, 5, 15]),
}


@dataclass(frozen=True)
class Op:
    """One command and the check of its result; ``check`` returns an error
    message, or None when the exit code and output are as expected."""

    name: str
    argv: list
    check: Callable[[int, str, str], str | None]


def _expect_bytes(ref_name: str):
    expected = (REFERENCE / ref_name).read_text(encoding="utf-8")

    def check(rc: int, out: str, err: str) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0: {err.strip()[:200]}"
        if out != expected:
            return f"output differs from {ref_name} ({len(out)} vs {len(expected)} bytes)"
        return None
    return check


def class_counts(out: str) -> list[int]:
    """Classes per size in an ``enumerate --json`` document."""
    sizes = [item["n"] for item in json.loads(out)["items"]]
    return [sizes.count(n) for n in range(1, max(sizes) + 1)]


def _expect_enumeration(kind: str, counts: list[int]):
    same_bytes = _expect_bytes(f"enumerate-{kind}.json")

    def check(rc: int, out: str, err: str) -> str | None:
        problem = same_bytes(rc, out, err)
        if problem is None and class_counts(out) != counts:
            problem = f"class counts {class_counts(out)}, expected {counts}"
        return problem
    return check


def suite_ops(seed: int) -> list[Op]:
    # The suite input is fixed inside imw: the seed has no effect.
    return [Op("suite", SUITE_ARGV, _expect_bytes("suite.json"))]


def enumerate_ops(seed: int) -> list[Op]:
    # Fixed input: the seed has no effect.
    return [Op(kind, argv, _expect_enumeration(kind, counts))
            for kind, (argv, counts) in ENUMERATE_ARGVS.items()]


def report_summary(out: str) -> dict:
    """The parts of a ``check --json`` report that relabelling cannot change."""
    doc = json.loads(out)

    def size(key):
        return None if doc[key] is None else len(doc[key])
    return {
        "instance": doc["instance"], "n": doc["n"], "verdicts": doc["verdicts"],
        "idempotents": size("idempotents"), "order_pairs": size("natural_order"),
        "sigma_class_sizes": None if doc["sigma_classes"] is None
        else sorted(len(c) for c in doc["sigma_classes"]),
        "witness_fields": {k: sorted(w) for k, w in doc["witnesses"].items() if w is not None},
    }


def check_large_ops(seed: int, verify_reference: bool = True) -> list[Op]:
    """Writes the seeded tables and returns one ``check --json`` op per table.

    Every report must match its construction and, unless the reference is
    being recorded, the relabelling-invariant summary recorded for it; with
    the default seed its bytes must also match the recorded digest.
    """
    inputs = importlib.import_module("inputs")
    reference = None
    if verify_reference:
        reference = json.loads((REFERENCE / "check-large.json").read_text(encoding="utf-8"))
    folder = OUT / "inputs"
    folder.mkdir(parents=True, exist_ok=True)
    ops = []
    for spec, text in inputs.generate(seed):
        path = folder / f"{spec.name}.mtab"
        path.write_text(text, encoding="utf-8")

        def check(rc: int, out: str, err: str, spec=spec) -> str | None:
            if rc != spec.exit_code:
                return f"exit {rc}, expected {spec.exit_code}: {err.strip()[:200]}"
            summary = report_summary(out)
            sizes = summary["sigma_class_sizes"]
            got = (summary["instance"], summary["n"], summary["verdicts"],
                   summary["idempotents"], None if sizes is None else len(sizes))
            want = (spec.name, spec.monoid.n, spec.verdicts, spec.idempotents,
                    spec.sigma_classes)
            if got != want:
                return f"report {got} differs from the construction {want}"
            if reference is None:
                return None
            if summary != reference[spec.name]["summary"]:
                return f"report summary of {spec.name} differs from the reference"
            if seed == DEFAULT_SEED and \
                    hashlib.sha256(out.encode()).hexdigest() != reference[spec.name]["sha256"]:
                return f"output differs from the recorded digest of {spec.name}"
            return None
        ops.append(Op(spec.name, ["check", "--json", str(path)], check))
    return ops


WORKLOADS = {"suite": suite_ops, "check-large": check_large_ops, "enumerate": enumerate_ops}


def purge_modules() -> None:
    """Forget imw and the modules bound to it, so the next import runs again."""
    for name in list(sys.modules):
        if name == "imw" or name.startswith("imw.") or name == "inputs":
            del sys.modules[name]


def import_cli():
    """Import ``imw.cli`` from this checkout's ``src``, never from elsewhere."""
    src = str(ROOT / "src")
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    cli = importlib.import_module("imw.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"imw was imported from {cli.__file__}, not from {src}")
    return cli
