"""File formats: the line-oriented ``mtab v1`` table format plus JSON
documents for construction inputs (actions, gluing maps, factor systems).

All indices in files are 0-based, exactly as in memory. Serialization is
canonical so parse∘serialize is the identity byte-for-byte on JSON output.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .constructions import (
    AlmostAction,
    FactorSystem,
    GluingMap,
    validate_almost_action,
    validate_factor_system,
    validate_gluing_map,
)
from .core import FiniteMonoid, validate_monoid
from .errors import MtabSyntaxError, ValidationError
from .inverse import validate_inverse, validate_semilattice

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class MtabDocument:
    n: int
    id: int
    labels: tuple[str, ...] | None
    rows: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...] | None


def _logical_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out


def _parse_int(token: str, lineno: int, column: int) -> int:
    # Exact integers only; no floats, signs or stray characters.
    if not token.isdecimal():
        raise MtabSyntaxError(f"expected a non-negative integer, got {token!r}",
                              lineno, column)
    try:
        return int(token)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise MtabSyntaxError("integer too long", lineno, column) from None


def _parse_csv_ints(body: str, lineno: int, prefix: str) -> tuple[int, ...]:
    col = len(prefix) + 1
    out = []
    for tok in body.split(","):
        out.append(_parse_int(tok.strip(), lineno, col))
        col += len(tok) + 1
    return tuple(out)


def parse_mtab_document(text: str) -> MtabDocument:
    lines = _logical_lines(text)
    pos = 0

    def need(what: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise MtabSyntaxError(f"unexpected end of file, expected {what}", last)
        item = lines[pos]
        pos += 1
        return item

    lineno, body = need("header 'mtab v1'")
    if body != "mtab v1":
        raise MtabSyntaxError(f"expected header 'mtab v1', got {body!r}", lineno)
    lineno, body = need("'n=<int>'")
    if not body.startswith("n="):
        raise MtabSyntaxError(f"expected 'n=<int>', got {body!r}", lineno)
    n = _parse_int(body[2:].strip(), lineno, 3)
    lineno, body = need("'id=<int>'")
    if not body.startswith("id="):
        raise MtabSyntaxError(f"expected 'id=<int>', got {body!r}", lineno)
    ident = _parse_int(body[3:].strip(), lineno, 4)
    labels: tuple[str, ...] | None = None
    if pos < len(lines) and lines[pos][1].startswith("labels="):
        lineno, body = need("labels")
        try:
            labels = tuple(next(csv.reader([body[len("labels="):]])))
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise MtabSyntaxError(f"bad labels: {exc}", lineno) from None
        if len(labels) != n:
            raise MtabSyntaxError(f"expected {n} labels, got {len(labels)}", lineno)
    # A cell is almost always some v < n spelled str(v): read it from this
    # dict, and any other token, or a wrong count, by the exact parse below.
    # n rows of n cells take at least n * n characters, so a file too short for
    # them gets no dict, which then never has more than √len(text) entries.
    cell = {str(v): v for v in range(n)} if len(text) >= n * n else {}
    rows = []
    for i in range(n):
        lineno, body = need(f"table row {i}")
        toks = body.split()
        if len(toks) == n:
            try:
                rows.append(tuple(map(cell.__getitem__, toks)))
                continue
            except KeyError:
                pass
        if len(toks) != n:
            col = sum(len(t) + 1 for t in toks[:n]) + 1 if len(toks) > n else len(body) + 1
            raise MtabSyntaxError(f"row {i} has {len(toks)} entries, expected {n}",
                                  lineno, col)
        row = []
        col = 1
        for tok in toks:
            row.append(_parse_int(tok, lineno, col))
            col += len(tok) + 1
        rows.append(tuple(row))
    inv: tuple[int, ...] | None = None
    if pos < len(lines) and lines[pos][1].startswith("inv="):
        lineno, body = need("inv")
        inv = _parse_csv_ints(body[len("inv="):], lineno, "inv=")
        if len(inv) != n:
            raise MtabSyntaxError(f"expected {n} inverse entries, got {len(inv)}",
                                  lineno)
    if pos < len(lines):
        lineno, body = need("end of file")
        raise MtabSyntaxError(f"unexpected trailing content {body!r}", lineno)
    return MtabDocument(n=n, id=ident, labels=labels, rows=tuple(rows), inv=inv)


def parse_mtab(text: str) -> FiniteMonoid:
    """Parse and validate; a declared inv row must match the computed inverses."""
    doc = parse_mtab_document(text)
    m = validate_monoid(doc.n, doc.rows, doc.id, doc.labels)
    if doc.inv is not None:
        inv_monoid = validate_inverse(m)
        if inv_monoid.inv != doc.inv:
            raise ValidationError(
                f"declared inverses {list(doc.inv)} do not match computed "
                f"{list(inv_monoid.inv)}")
    return m


def serialize_mtab(m: FiniteMonoid, include_inv: bool = False,
                   name: str | None = None) -> str:
    out = []
    if name:
        out.append(f"# {name}")
    out.append("mtab v1")
    out.append(f"n={m.n}")
    out.append(f"id={m.id}")
    if m.labels is not None:
        if any("#" in lab or "".join(lab.splitlines()) != lab for lab in m.labels):
            raise ValidationError("labels may not contain '#' or line breaks")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(m.labels)
        line = "labels=" + buf.getvalue()
        # parse_mtab strips each line, which would cut an unquoted last label.
        if line != line.strip():
            raise ValidationError("the last label may not end in whitespace")
        out.append(line)
    for row in m.table:
        out.append(" ".join(str(v) for v in row))
    if include_inv:
        inv = validate_inverse(m).inv
        out.append("inv=" + ",".join(str(v) for v in inv))
    return "\n".join(out) + "\n"


# --- JSON documents -------------------------------------------------------


def monoid_to_json(m: FiniteMonoid) -> dict:
    doc = {"schema": SCHEMA_VERSION, "kind": "monoid", "n": m.n, "id": m.id,
           "table": [list(row) for row in m.table]}
    if m.labels is not None:
        doc["labels"] = list(m.labels)
    return doc


def _monoid(doc: dict, where: str) -> FiniteMonoid:
    labels = doc.get("labels")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(s, str) for s in labels)):
        raise ValidationError(f"{where}labels must be a list of strings")
    return validate_monoid(_field(doc, "n", 0, where), _field(doc, "table", 2, where),
                           _field(doc, "id", 0, where), labels)


def almost_action_to_json(aa: AlmostAction) -> dict:
    return {"schema": SCHEMA_VERSION, "kind": "almost-action",
            "group": _nested(aa.group),
            "semilattice": _nested(aa.semilattice.base),
            "dot": [list(row) for row in aa.dot]}


def almost_action_from_json(doc: dict) -> AlmostAction:
    _check_kind(doc, "almost-action")
    group = _nested_monoid(doc, "group")
    semi = validate_semilattice(_nested_monoid(doc, "semilattice"))
    return validate_almost_action(group, semi, _field(doc, "dot", 2))


def gluing_map_to_json(gm: GluingMap) -> dict:
    return {"schema": SCHEMA_VERSION, "kind": "gluing-map",
            "group": _nested(gm.group),
            "semilattice": _nested(gm.semilattice.base),
            "f": list(gm.f)}


def gluing_map_from_json(doc: dict) -> GluingMap:
    _check_kind(doc, "gluing-map")
    group = _nested_monoid(doc, "group")
    semi = validate_semilattice(_nested_monoid(doc, "semilattice"))
    return validate_gluing_map(group, semi, _field(doc, "f", 1))


def factor_system_to_json(fs: FactorSystem) -> dict:
    return {"schema": SCHEMA_VERSION, "kind": "factor-system",
            "h": _nested(fs.h_part), "n": _nested(fs.n_part),
            "sim": [list(row) for row in fs.sim],
            "act": [list(row) for row in fs.act],
            "chi": [list(row) for row in fs.chi]}


def factor_system_from_json(doc: dict) -> FactorSystem:
    _check_kind(doc, "factor-system")
    h = _nested_monoid(doc, "h")
    n = _nested_monoid(doc, "n")
    return validate_factor_system(h, n, _field(doc, "sim", 2), _field(doc, "act", 2),
                                  _field(doc, "chi", 2))


def _nested_monoid(doc: dict, key: str) -> FiniteMonoid:
    if key not in doc:
        raise ValidationError(f"missing key {key!r}")
    if not isinstance(doc[key], dict):
        raise ValidationError(f"{key} must be a JSON object")
    return _monoid(doc[key], f"{key}.")


_SHAPES = ("an integer", "a list of integers", "a list of lists of integers")


def _field(doc: dict, key: str, depth: int, where: str = ""):
    """doc[key], checked to be an integer nested in ``depth`` levels of lists."""
    if key not in doc:
        raise ValidationError(f"missing key {where + key!r}")
    value = doc[key]
    if not _nested_ints(value, depth):
        raise ValidationError(f"{where}{key} must be {_SHAPES[depth]}")
    return value


def _nested_ints(value, depth: int) -> bool:
    if depth == 0:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, list) and all(_nested_ints(v, depth - 1) for v in value)


def _nested(m: FiniteMonoid) -> dict:
    doc = monoid_to_json(m)
    del doc["schema"]
    del doc["kind"]
    return doc


def _check_kind(doc: dict, kind: str) -> None:
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema {doc.get('schema')!r}")
    if doc.get("kind") != kind:
        raise ValidationError(f"expected kind {kind!r}, got {doc.get('kind')!r}")
