import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imw.constructions import factor_system_from_almost_action
from imw.corpus import builtin_corpus, m3, m7, z2_ch2_action, z2_ch2_gluing
from imw.errors import MtabSyntaxError, ValidationError
from imw.mtab import (
    almost_action_from_json,
    almost_action_to_json,
    factor_system_from_json,
    factor_system_to_json,
    gluing_map_from_json,
    gluing_map_to_json,
    parse_mtab,
    parse_mtab_document,
    serialize_mtab,
)
from imw.report import analyze, emit_report


def test_parse_trivial():
    m = parse_mtab("mtab v1\nn=1\nid=0\n0\n")
    assert m.n == 1


def test_parse_m3():
    text = """\
# three-element example
mtab v1
n=3
id=0
labels=1,e,t
0 1 2   # identity row
1 1 2
2 2 1
inv=0,1,2
"""
    m = parse_mtab(text)
    assert m.table == m3().table
    assert m.labels == ("1", "e", "t")


def test_wrong_arity_row():
    text = "mtab v1\nn=2\nid=0\n0 1\n1\n"
    with pytest.raises(MtabSyntaxError) as exc:
        parse_mtab(text)
    assert exc.value.line == 5


_LONG = "9" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize("row,column,message", [
    ("0 1 x 3", 5, "expected a non-negative integer, got 'x'"),
    ("0 1 2 3.0", 7, "expected a non-negative integer, got '3.0'"),
    ("0 1 " + _LONG + " 3", 5, "integer too long"),
    ("0 " + _LONG + " x 3", 3, "integer too long"),
    ("0 1 x " + _LONG, 5, "expected a non-negative integer, got 'x'"),
], ids=["letter", "float", "long", "long-then-letter", "letter-then-long"])
def test_bad_token_mid_row_is_named_by_line_and_column(row, column, message):
    text = f"mtab v1\nn=4\nid=0\n0 1 2 3\n{row}\n2 2 2 2\n3 3 3 3\n"
    with pytest.raises(MtabSyntaxError) as exc:
        parse_mtab_document(text)
    assert (exc.value.line, exc.value.column) == (5, column)
    assert str(exc.value) == f"line 5, column {column}: {message}"


@pytest.mark.parametrize("row,cells", [
    ("1 007", (1, 7)),
    ("1 5", (1, 5)),
    ("1 \u0663", (1, 3)),  # ARABIC-INDIC DIGIT THREE
    ("\u0661 1", (1, 1)),
], ids=["leading-zeros", "value-over-n", "non-ascii-digit", "non-ascii-first"])
def test_cells_off_the_canonical_spelling_parse_exactly(row, cells):
    # Row cells are read through a dict of the spellings str(v), v < n;
    # every other token goes to the exact parse, which accepts these.
    doc = parse_mtab_document(f"mtab v1\nn=2\nid=0\n0 1\n{row}\n")
    assert doc.rows == ((0, 1), cells)


def _parse_peak(text):
    import tracemalloc
    tracemalloc.start()
    try:
        with pytest.raises(MtabSyntaxError) as exc:
            parse_mtab_document(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return str(exc.value), peak


@pytest.mark.parametrize("n,lines", [(1_000_000, 1), (100_000, 100_000)],
                         ids=["one-line", "n-lines"])
def test_a_huge_n_fails_at_row_0_without_a_cell_dict(n, lines):
    # n rows of n cells need at least n * n characters; a shorter file gets
    # no dict of the n spellings (about 100 bytes each), whatever its line
    # count. The bound is set by the same lines under n=1, which parse row 0
    # with a one-entry dict and then fail on the second line.
    body = "0\n" * lines
    message, peak = _parse_peak(f"mtab v1\nn={n}\nid=0\n{body}")
    assert message == f"line 4, column 2: row 0 has 1 entries, expected {n}"
    if lines > 1:
        _, lines_peak = _parse_peak(f"mtab v1\nn=1\nid=0\n{body}")
    else:
        lines_peak = 0
    assert peak < 1.25 * lines_peak + 1_000_000


def test_header_required():
    with pytest.raises(MtabSyntaxError):
        parse_mtab("n=1\nid=0\n0\n")


def test_reject_floats_and_negatives():
    with pytest.raises(MtabSyntaxError):
        parse_mtab("mtab v1\nn=2\nid=0\n0 1\n1 0.0\n")
    with pytest.raises(MtabSyntaxError):
        parse_mtab("mtab v1\nn=2\nid=0\n0 -1\n1 0\n")


def test_trailing_content_rejected():
    with pytest.raises(MtabSyntaxError):
        parse_mtab("mtab v1\nn=1\nid=0\n0\nextra\n")


def test_wrong_label_count():
    with pytest.raises(MtabSyntaxError):
        parse_mtab("mtab v1\nn=2\nid=0\nlabels=a\n0 1\n1 0\n")


def test_inv_row_must_match():
    with pytest.raises(ValidationError):
        parse_mtab("mtab v1\nn=2\nid=0\n0 1\n1 0\ninv=0,0\n")


def test_inv_row_on_non_inverse_monoid():
    # Left-zero pair with identity has non-unique inverses.
    text = "mtab v1\nn=3\nid=0\n0 1 2\n1 1 1\n2 2 2\ninv=0,1,2\n"
    with pytest.raises(ValidationError):
        parse_mtab(text)


def test_round_trip_all_builtin():
    for inst in builtin_corpus():
        again = parse_mtab(serialize_mtab(inst.table))
        assert again == inst.table, inst.name


def test_round_trip_labels_with_commas():
    m = m7()
    text = serialize_mtab(m, include_inv=True)
    assert parse_mtab(text) == m
    doc = parse_mtab_document(text)
    assert doc.inv is not None and doc.labels is not None


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_labels_with_any_line_break_are_refused(brk):
    # parse_mtab splits lines wherever str.splitlines does.
    from imw.core import validate_monoid
    m = validate_monoid(2, [[0, 1], [1, 1]], 0, ["1", f"e{brk}f"])
    with pytest.raises(ValidationError, match="line breaks"):
        serialize_mtab(m)


_LABEL_CHARS = st.sampled_from(list(" \t\u3000\xa0\x1f#,\"'ab\n\r\x85\u2028"))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.text(_LABEL_CHARS, max_size=4), min_size=n, max_size=n)))
@example(["1", "g "])
@example([" "])
@example(["\u3000"])
def test_labels_round_trip_or_are_refused(labels):
    from imw.core import validate_monoid
    n = len(labels)
    m = validate_monoid(n, [[(i + j) % n for j in range(n)] for i in range(n)], 0, labels)
    try:
        text = serialize_mtab(m)
    except ValidationError:
        return
    assert parse_mtab(text).labels == tuple(labels)


def test_empty_labels_round_trip():
    from imw.core import validate_monoid
    m = validate_monoid(2, [[0, 1], [1, 1]], 0, ["", ""])
    assert parse_mtab(serialize_mtab(m)) == m


def test_json_documents_round_trip():
    aa = z2_ch2_action()
    assert almost_action_from_json(almost_action_to_json(aa)) == aa
    gm = z2_ch2_gluing()
    assert gluing_map_from_json(gluing_map_to_json(gm)) == gm
    fs = factor_system_from_almost_action(aa)
    assert factor_system_from_json(factor_system_to_json(fs)) == fs


def test_json_kind_checked():
    doc = almost_action_to_json(z2_ch2_action())
    with pytest.raises(ValidationError):
        gluing_map_from_json(doc)


def test_report_m3_json():
    out = emit_report(analyze(m3(), "m3"), "json")
    assert '"f_inverse": true' in out
    assert '"weakly_schreier": true' in out
    assert out == emit_report(analyze(m3(), "m3"), "json")  # byte stable


def test_report_b2_1_human():
    from imw.corpus import brandt_b2_1
    out = emit_report(analyze(brandt_b2_1(), "b2-1"), "human")
    assert "E-unitary:        no" in out
    assert "witness" in out


def test_report_trivial_all_true():
    from imw.corpus import trivial_monoid
    rep = analyze(trivial_monoid(), "t1")
    assert rep.all_pass
    assert all(w is None for w in rep.witnesses.values())


def test_report_non_inverse_monoid():
    from imw.core import validate_monoid
    bad = validate_monoid(3, [[0, 1, 2], [1, 1, 1], [2, 2, 2]], 0)
    rep = analyze(bad, "bad")
    assert rep.verdicts["inverse"] is False
    assert rep.verdicts["f_inverse"] is None
    assert not rep.all_pass
