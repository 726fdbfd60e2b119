"""Command-line interface.

Exit codes: 0 = all requested checks pass, 1 = a property verdict is false
(the witness is printed), 2 = input or validation error. Being inverse is a
verdict for ``check``, which exits 1 with a witness on a non-inverse table,
but a precondition for ``extension`` and ``decompose``, which exit 2 on one.
Every command takes ``--json``, and ``enumerate --kind almost-action`` and
``gluing-map`` require it; ``enumerate`` also takes ``--budget`` and ``iso``
takes ``--max-iso-n``. A flag a command, or an ``enumerate --kind``,
does not read is a usage error, and so is a negative limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .constructions import (
    almost_action_from_f_inverse,
    crossed_product,
    f_product,
    factor_system_from_extension,
    gluing,
    gluing_map_from_clifford,
)
from .corpus import DEFAULT_BUDGET, builtin_corpus, enumerate_almost_actions, \
    enumerate_gluing_maps, enumerate_inverse_monoids, enumerate_semilattices, small_groups
from .errors import ImwError, KernelMismatch, PreconditionFailed, ValidationError
from .inverse import validate_inverse, validate_semilattice
from .iso import DEFAULT_ISO_LIMIT, brute_force_iso
from .mtab import (
    SCHEMA_VERSION,
    almost_action_from_json,
    almost_action_to_json,
    factor_system_from_json,
    factor_system_to_json,
    gluing_map_from_json,
    gluing_map_to_json,
    monoid_to_json,
    parse_mtab,
    serialize_mtab,
)
from .report import analyze, emit_report, to_canonical_json
from .suite import format_suite, run_suite

EXIT_OK = 0
EXIT_PROPERTY_FALSE = 1
EXIT_USAGE = 2

# Largest --max-n each table enumerator accepts without --force-bound.
SEMILATTICE_BOUND = 8
INVERSE_MONOID_BOUND = 6

# The enumerate flags each --kind reads; giving any other is a usage error.
ENUMERATE_FLAGS = {"semilattice": ("max_n", "force_bound"),
                   "inverse-monoid": ("max_n", "force_bound"), "group": ("max_n",),
                   "almost-action": ("group", "semilattice", "budget"),
                   "gluing-map": ("group", "semilattice", "budget")}


def _read_monoid(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_mtab(text)


def _named_structures():
    names = {inst.name: inst.table for inst in builtin_corpus()}
    for g, label in zip(small_groups(), ["z1", "z2", "z3", "z4", "z5", "z6",
                                         "klein", "s3"]):
        names.setdefault(label, g)
    return names


def cmd_check(args) -> int:
    report = analyze(_read_monoid(args.file), Path(args.file).stem)
    out = emit_report(report, "json" if args.json else "human")
    sys.stdout.write(out)
    return EXIT_OK if report.all_pass else EXIT_PROPERTY_FALSE


def cmd_extension(args) -> int:
    m = _read_monoid(args.file)
    name = Path(args.file).stem
    inv = validate_inverse(m)
    payload = {"schema": SCHEMA_VERSION, "instance": name}
    code = EXIT_OK
    try:
        wsf = inv.weakly_schreier
    except KernelMismatch as exc:
        payload["extension"] = None
        payload["weakly_schreier"] = False
        payload["witness"] = {"kind": "kernel_mismatch", "element": exc.witness}
        code = EXIT_PROPERTY_FALSE
    else:
        ext = wsf.extension
        payload["extension"] = {
            "kernel": list(ext.k.values),
            "quotient": monoid_to_json(ext.q.target),
            "projection": list(ext.q.values),
        }
        payload["weakly_schreier"] = wsf.holds
        if wsf.holds:
            payload["splitting"] = list(wsf.splitting.s.values)
        else:
            h, fiber = wsf.fiber_witness
            payload["witness"] = {"kind": "empty_fiber", "sigma_class": h,
                                  "fiber": sorted(fiber)}
            code = EXIT_PROPERTY_FALSE
    if args.json:
        sys.stdout.write(to_canonical_json(payload))
    else:
        lines = [f"instance: {name}  (n={m.n})"]
        if payload["extension"] is None:
            w = payload["witness"]
            lines.append("  extension:        no   witness: element "
                         f"{m.label(w['element'])} is in the kernel but not idempotent")
        else:
            lines.append(f"  extension:        yes  E(M) size "
                         f"{len(payload['extension']['kernel'])}, quotient size "
                         f"{payload['extension']['quotient']['n']}")
            if payload["weakly_schreier"]:
                sel = ", ".join(m.label(x) for x in payload["splitting"])
                lines.append(f"  weakly Schreier:  yes  section: {sel}")
            else:
                w = payload["witness"]
                fib = ", ".join(m.label(x) for x in w["fiber"])
                lines.append("  weakly Schreier:  no   witness: class "
                             f"{w['sigma_class']} with fiber {{{fib}}}")
        sys.stdout.write("\n".join(lines) + "\n")
    return code


def cmd_decompose(args) -> int:
    m = _read_monoid(args.file)
    name = Path(args.file).stem
    inv = validate_inverse(m)
    try:
        aa, _ = almost_action_from_f_inverse(inv)
    except PreconditionFailed as exc:
        msg = {"schema": SCHEMA_VERSION, "instance": name, "decomposable": False,
               "reason": str(exc)}
        sys.stdout.write(to_canonical_json(msg) if args.json else f"{exc}\n")
        return EXIT_PROPERTY_FALSE
    wsf = inv.weakly_schreier
    fs, _ = factor_system_from_extension(wsf.extension, wsf.splitting)
    payload = {
        "schema": SCHEMA_VERSION,
        "instance": name,
        "decomposable": True,
        "almost_action": almost_action_to_json(aa),
        "factor_system": factor_system_to_json(fs),
        "gluing_map": None,
    }
    if inv.clifford.holds:
        payload["gluing_map"] = gluing_map_to_json(gluing_map_from_clifford(inv))
    if args.json:
        sys.stdout.write(to_canonical_json(payload))
    else:
        lines = [f"instance: {name}  (n={m.n})",
                 f"  group part:       n={aa.group.n}",
                 f"  semilattice part: n={aa.semilattice.n}",
                 "  action rows:      " + "; ".join(
                     " ".join(str(v) for v in row) for row in aa.dot),
                 "  chi row 0:        " + " ".join(str(v) for v in fs.chi[0])]
        if payload["gluing_map"] is not None:
            lines.append("  gluing f:         " +
                         " ".join(str(v) for v in payload["gluing_map"]["f"]))
        else:
            lines.append("  gluing f:         (not Clifford)")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_construct(args) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValidationError("JSON input is nested too deeply") from None
    except ValueError as exc:  # JSONDecodeError, or an integer too long for int()
        raise ValidationError(f"invalid JSON input: {exc}") from None
    if args.what == "fproduct":
        built = f_product(almost_action_from_json(doc)).monoid.base
    elif args.what == "gluing":
        built = gluing(gluing_map_from_json(doc)).monoid.base
    else:
        built = crossed_product(factor_system_from_json(doc)).monoid
    if args.json:
        sys.stdout.write(to_canonical_json(monoid_to_json(built)))
    else:
        sys.stdout.write(serialize_mtab(built))
    return EXIT_OK


def cmd_iso(args) -> int:
    a = _read_monoid(args.file_a)
    b = _read_monoid(args.file_b)
    witness = brute_force_iso(a, b, max_n=args.max_iso_n)
    if witness is None:
        if args.json:
            sys.stdout.write(to_canonical_json(
                {"schema": SCHEMA_VERSION, "isomorphic": False}))
        else:
            sys.stdout.write("not isomorphic\n")
        return EXIT_PROPERTY_FALSE
    if args.json:
        sys.stdout.write(to_canonical_json(
            {"schema": SCHEMA_VERSION, "isomorphic": True,
             "forward": list(witness.forward.values),
             "backward": list(witness.backward.values)}))
    else:
        mapping = ", ".join(f"{a.label(x)}->{b.label(y)}"
                            for x, y in enumerate(witness.forward.values))
        sys.stdout.write(f"isomorphic: {mapping}\n")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    for flag in ("max_n", "force_bound", "group", "semilattice", "budget"):
        if getattr(args, flag) is not None and flag not in ENUMERATE_FLAGS[args.kind]:
            raise ValidationError(f"--{flag.replace('_', '-')} is not read by "
                                  f"--kind {args.kind}")
    if args.kind in ("almost-action", "gluing-map"):
        if not args.json:
            raise ValidationError(f"--kind {args.kind} writes only JSON; pass --json")
        if not args.group or not args.semilattice:
            raise ValidationError(f"--group and --semilattice are required "
                                  f"for kind {args.kind}")
        names = _named_structures()
        g = names.get(args.group)
        y = names.get(args.semilattice)
        if g is None or y is None:
            raise ValidationError("unknown --group or --semilattice name; "
                                  f"known: {', '.join(sorted(names))}")
        y = validate_semilattice(y)
        budget = DEFAULT_BUDGET if args.budget is None else args.budget
        if args.kind == "almost-action":
            docs = [almost_action_to_json(aa)
                    for aa in enumerate_almost_actions(g, y, budget=budget)]
        else:
            docs = [gluing_map_to_json(gm)
                    for gm in enumerate_gluing_maps(g, y, budget=budget)]
        sys.stdout.write(to_canonical_json(
            {"schema": SCHEMA_VERSION, "count": len(docs), "items": docs}))
        return EXIT_OK
    max_n = 4 if args.max_n is None else args.max_n
    bound = {"semilattice": SEMILATTICE_BOUND,
             "inverse-monoid": INVERSE_MONOID_BOUND}.get(args.kind)
    if bound is not None and max_n > bound and not args.force_bound:
        raise ValidationError(f"requested size {max_n} exceeds enumeration bound {bound}")
    if args.kind == "semilattice":
        items = [s.base for s in enumerate_semilattices(max_n)]
    elif args.kind == "inverse-monoid":
        items = [m.base for m in enumerate_inverse_monoids(max_n)]
    else:
        items = [g for g in small_groups() if args.max_n is None or g.n <= args.max_n]
    if args.json:
        sys.stdout.write(to_canonical_json(
            {"schema": SCHEMA_VERSION, "count": len(items),
             "items": [monoid_to_json(m) for m in items]}))
    else:
        blocks = [serialize_mtab(m, name=f"{args.kind} {i}")
                  for i, m in enumerate(items)]
        sys.stdout.write("\n".join(blocks))
    return EXIT_OK


def cmd_suite(args) -> int:
    result = run_suite()
    sys.stdout.write(format_suite(result, "json" if args.json else "human"))
    return EXIT_OK if result.all_passed else EXIT_PROPERTY_FALSE


def _limit(text: str) -> int:
    """argparse type of --max-n, --budget and --max-iso-n: an int, at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imw", description="Finite inverse monoid workbench")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output with sorted keys")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="decide the property hierarchy for an mtab file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("extension", parents=[common],
                       help="build the canonical extension and test the splitting")
    p.add_argument("file")
    p.set_defaults(func=cmd_extension)

    p = sub.add_parser("decompose", parents=[common],
                       help="extract action, factor system and gluing data")
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("construct", parents=[common],
                       help="build a monoid from a JSON construction document")
    p.add_argument("what", choices=["fproduct", "gluing", "crossed"])
    p.add_argument("file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("iso", parents=[common],
                       help="search for an isomorphism between two mtab files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--max-iso-n", type=_limit, default=DEFAULT_ISO_LIMIT,
                   help="size cap for brute-force isomorphism search")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("enumerate", parents=[common],
                       help="emit an exhaustive family of structures")
    p.add_argument("--kind", required=True,
                   choices=["semilattice", "inverse-monoid", "group",
                            "almost-action", "gluing-map"])
    p.add_argument("--max-n", type=_limit, default=None)
    p.add_argument("--force-bound", action="store_true", default=None,
                   help="lift the default enumeration size bound (can be slow)")
    p.add_argument("--group", default=None)
    p.add_argument("--semilattice", default=None)
    p.add_argument("--budget", type=_limit, default=None,
                   help="candidate rows the almost-action and gluing-map searches "
                        f"may try (default {DEFAULT_BUDGET})")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("suite", parents=[common],
                       help="run the full acceptance suite")
    p.set_defaults(func=cmd_suite)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ImwError, OSError, UnicodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(cli_main())
