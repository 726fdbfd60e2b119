"""The exit-code contract of the command line, fuzzed in-process.

Every input gives 0 (all checks pass), 1 (a property verdict is false) or 2
(input or validation error, with an ``error:`` line on stderr); no exception
escapes ``cli_main``.
"""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import imw.cli
from imw.cli import ENUMERATE_FLAGS, _named_structures, cli_main
from imw.constructions import factor_system_from_almost_action
from imw.corpus import brandt_b2_1, m3, m7, z2_ch2_action, z2_ch2_gluing
from imw.mtab import (
    almost_action_to_json,
    factor_system_to_json,
    gluing_map_to_json,
    serialize_mtab,
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


# More digits than int() converts by default (sys.get_int_max_str_digits()).
_HUGE = "9" * 5000


def _assert_contract(code, out, err, codes):
    assert code in codes, (code, err)
    if code == 2:
        assert err.startswith("error:") and not out, err
    else:
        assert not err, err


_TOKEN = st.one_of(st.integers(0, 3).map(str), st.text(max_size=3))
_LINE = st.one_of(
    st.just("mtab v1"),
    st.builds("n={}".format, _TOKEN),
    st.builds("id={}".format, _TOKEN),
    st.builds("labels={}".format, st.text(max_size=8)),
    st.builds("inv={}".format, st.lists(_TOKEN, max_size=4).map(",".join)),
    st.lists(_TOKEN, max_size=4).map(" ".join),
    st.text(max_size=10),
)


@st.composite
def _small_tables(draw):
    """mtab text for an arbitrary n x n table, so that 0 and 1 occur too."""
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    body = "\n".join(" ".join(map(str, row)) for row in rows)
    return f"mtab v1\nn={n}\nid={draw(st.integers(0, n - 1))}\n{body}\n"


@st.composite
def _edited_corpus_text(draw):
    """A corpus table's mtab text with one span replaced by arbitrary text."""
    text = serialize_mtab(draw(st.sampled_from([m3(), m7(), brandt_b2_1()])),
                          include_inv=True)
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 4)))
    return text[:i] + draw(st.text(max_size=4)) + text[j:]


MTAB_TEXT = st.one_of(st.text(), st.lists(_LINE, max_size=8).map("\n".join),
                      _small_tables(), _edited_corpus_text())


@settings(max_examples=300, deadline=None)
@given(MTAB_TEXT)
@example("mtab v1\nn=²\nid=0\n0\n")  # a digit that int() does not parse
@example("mtab v1\nn=1\nid=0\nlabels=" + "a" * 200000 + "\n0\n")  # csv.Error
@example("mtab v1\nn=" + _HUGE + "\nid=0\n0\n")
def test_check_exit_code_on_arbitrary_mtab_text(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.mtab"
    path.write_text(text, encoding="utf-8")
    _assert_contract(*_run(["check", str(path)]), codes=(0, 1, 2))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)

_DOCS = {"fproduct": almost_action_to_json(z2_ch2_action()),
         "gluing": gluing_map_to_json(z2_ch2_gluing()),
         "crossed": factor_system_to_json(
             factor_system_from_almost_action(z2_ch2_action()))}


def _int_cells(value, path=()):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _int_cells(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _int_cells(v, path + (i,))
    elif isinstance(value, int):
        yield path


@st.composite
def _edited_document(draw, what):
    """A valid construction document with one integer set to a small value,
    or one field, possibly of a nested monoid, set to an arbitrary JSON value."""
    doc = json.loads(json.dumps(_DOCS[what]))
    if draw(st.booleans()):
        *path, last = draw(st.sampled_from(list(_int_cells(doc))))
        target = doc
        for key in path:
            target = target[key]
        target[last] = draw(st.integers(-1, 3))
        return doc
    target = doc
    nested = sorted(k for k, v in doc.items() if isinstance(v, dict))
    if nested and draw(st.booleans()):
        target = doc[draw(st.sampled_from(nested))]
    target[draw(st.sampled_from(sorted(target)))] = draw(JSON_VALUES)
    return doc


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_DOCS)).flatmap(
    lambda what: st.tuples(st.just(what),
                           st.one_of(JSON_VALUES, _edited_document(what))
                           .map(json.dumps))))
@example(("gluing", json.dumps({**_DOCS["gluing"], "f": "HUGE"})
          .replace('"HUGE"', f"[0, {_HUGE}]")))  # json.loads raises ValueError
def test_construct_exit_code_on_arbitrary_json(tmp_path_factory, case):
    what, text = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text, encoding="utf-8")
    _assert_contract(*_run(["construct", what, str(path)]), codes=(0, 2))


_MONOID_TABLE = {"fproduct": "group", "gluing": "group", "crossed": "h"}


@pytest.mark.parametrize("cell", [1.0, True, "1"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("what", sorted(_DOCS))
def test_construct_refuses_a_cell_that_is_not_an_int(tmp_path, what, cell):
    # validate_monoid takes int cells as given, so the JSON reader refuses the rest.
    doc = json.loads(json.dumps(_DOCS[what]))
    doc[_MONOID_TABLE[what]]["table"][1][0] = cell
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _run(["construct", what, str(path)])
    _assert_contract(code, out, err, codes=(2,))
    assert "table must be a list of lists of integers" in err


@pytest.mark.parametrize("group, message", [
    ({"n": 2, "id": 0, "table": [[0, 1]]}, "row count: expected 2, got 1"),
    ({"n": 0, "id": 0, "table": []}, "element count: expected at least 1, got 0"),
], ids=["one-row", "empty"])
def test_construct_names_the_expected_length(tmp_path, group, message):
    doc = {**_DOCS["fproduct"], "group": group}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _run(["construct", "fproduct", str(path)])
    _assert_contract(code, out, err, codes=(2,))
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("cell", ["1.0", "True", "'1'"], ids=["float", "bool", "string"])
def test_check_refuses_a_cell_that_is_not_an_int(tmp_path, cell):
    path = tmp_path / "z2.mtab"
    path.write_text(f"mtab v1\nn=2\nid=0\n0 1\n{cell} 0\n", encoding="utf-8")
    code, out, err = _run(["check", str(path)])
    _assert_contract(code, out, err, codes=(2,))
    assert f"line 5, column 1: expected a non-negative integer, got {cell!r}" in err


# F-inverse, E-unitary but not F-inverse, and not E-unitary.
CORPUS_TEXT = st.sampled_from([serialize_mtab(m) for m in (m3(), m7(), brandt_b2_1())])
ANALYSIS_TEXT = st.one_of(MTAB_TEXT, CORPUS_TEXT)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["extension", "decompose"]), ANALYSIS_TEXT)
def test_extension_and_decompose_exit_code_on_arbitrary_mtab_text(
        tmp_path_factory, command, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.mtab"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run([command, "--json", str(path)])
    _assert_contract(code, out, err, codes=(0, 1, 2))
    if code == 1:  # only for a false verdict
        doc = json.loads(out)
        if command == "extension":
            assert doc["witness"]["kind"] in ("kernel_mismatch", "empty_fiber"), out
        else:
            assert doc["decomposable"] is False, out


@settings(max_examples=300, deadline=None)
@given(ANALYSIS_TEXT, CORPUS_TEXT)
def test_iso_exit_code_on_arbitrary_mtab_text(tmp_path_factory, text_a, text_b):
    paths = [tmp_path_factory.getbasetemp() / f"fuzz-{side}.mtab" for side in "ab"]
    for path, text in zip(paths, (text_a, text_b)):
        path.write_text(text, encoding="utf-8")
    code, out, err = _run(["iso", *map(str, paths)])
    _assert_contract(code, out, err, codes=(0, 1, 2))
    assert code != 1 or out == "not isomorphic\n", out


_NAMES = sorted(_named_structures())
_KINDS = ["semilattice", "inverse-monoid", "group", "almost-action", "gluing-map"]
_JUNK = st.text(max_size=4)


@st.composite
def _enumerate_argv(draw):
    """enumerate flags from the valid values plus junk. --max-n stays small
    (inverse monoids up to 3, the rest up to 4, below both default bounds),
    so no example starts a long search, with or without --force-bound. Half
    the examples draw only flags their kind reads, so that most of those
    reach the enumerator instead of the refusal of a stray flag."""
    kind = draw(st.one_of(st.sampled_from(_KINDS), _JUNK))
    stray = draw(st.booleans())

    def wants(flag: str) -> bool:
        return (stray or flag in ENUMERATE_FLAGS.get(kind, ())) and draw(st.booleans())

    argv = ["enumerate", "--kind", kind]
    for flag in ("group", "semilattice"):
        if wants(flag):
            argv += [f"--{flag}", draw(st.one_of(st.sampled_from(_NAMES), _JUNK))]
    if kind == "inverse-monoid" or wants("max_n"):
        cap = 3 if kind == "inverse-monoid" else 4
        argv += ["--max-n", str(draw(st.integers(-3, cap)))]
    if wants("budget"):
        argv += ["--budget", draw(st.one_of(st.integers().map(str), _JUNK))]
    if wants("force_bound"):
        argv.append("--force-bound")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=300, deadline=None)
@given(_enumerate_argv())
@example(["enumerate", "--kind", "almost-action", "--group", "s3",
          "--semilattice", "d4", "--budget", "100", "--json"])
@example(["enumerate", "--kind", "group", "--max-n", "-3", "--json"])
def test_enumerate_exit_code_on_arbitrary_flags(argv):
    code, out, err = _run(argv)
    assert code in (0, 2), (code, err)
    reads = ENUMERATE_FLAGS.get(argv[2], ())
    if any(a.startswith("--") and a[2:].replace("-", "_") not in reads + ("kind", "json")
           for a in argv[1:]):
        assert code == 2, argv
    assert "Traceback" not in err, err
    if code == 2:
        assert not out and err, err
    else:
        assert not err, err
        if "--json" in argv:
            assert json.loads(out)["count"] >= 0


@pytest.mark.parametrize("kind, requirement", [
    ("almost-action", "acting monoid must be a group"),
    ("gluing-map", "gluing base must be a group")])
@pytest.mark.parametrize("group", ["m3", "b2-1", "m7", "d4", "ch2", "ch3", "ch4"])
def test_enumerate_refuses_a_group_that_is_not_one(kind, requirement, group):
    code, out, err = _run(["enumerate", "--kind", kind, "--group", group,
                           "--semilattice", "ch2", "--json"])
    assert (code, out, err) == (2, "", f"error: precondition not met: {requirement}\n")


@st.composite
def _refused_suite_call(draw):
    """suite flags that must be refused before the suite runs: the suite
    reads neither --budget nor --max-iso-n, whatever their value."""
    flag = draw(st.sampled_from(["--budget", "--max-iso-n"]))
    argv = ["suite", f"{flag}={draw(st.one_of(st.integers().map(str), _JUNK))}"]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=300, deadline=None)
@given(_refused_suite_call())
def test_suite_refuses_bad_flags_before_running(argv):
    def no_run():
        raise AssertionError("the suite ran despite a refused flag")

    with mock.patch.object(imw.cli, "run_suite", no_run):
        code, out, err = _run(argv)
    assert code == 2 and not out, (code, out)
    assert err and "Traceback" not in err, err
