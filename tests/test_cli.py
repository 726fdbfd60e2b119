import json
import subprocess
import sys

import pytest

from imw.corpus import brandt_b2_1, cyclic_group, m3, m7
from imw.mtab import serialize_mtab


def run_cli(*args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "imw.cli", *args],
                          capture_output=True, text=True, env=full_env)


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, m in [("m3", m3()), ("m7", m7()), ("b21", brandt_b2_1()),
                    ("z3", cyclic_group(3))]:
        p = tmp_path / f"{name}.mtab"
        p.write_text(serialize_mtab(m), encoding="utf-8")
        paths[name] = str(p)
    return paths


def test_check_pass(files):
    r = run_cli("check", files["m3"])
    assert r.returncode == 0
    assert "F-inverse:        yes" in r.stdout


def test_check_property_false(files):
    r = run_cli("check", files["b21"])
    assert r.returncode == 1
    assert "witness" in r.stdout


def test_check_json_contains_verdicts(files):
    r = run_cli("check", files["m3"], "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["verdicts"]["f_inverse"] is True
    assert doc["schema"] == 1


def test_check_invalid_file(tmp_path):
    p = tmp_path / "bad.mtab"
    p.write_text("not a table\n", encoding="utf-8")
    r = run_cli("check", str(p))
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_check_non_associative_table(tmp_path):
    p = tmp_path / "na.mtab"
    p.write_text("mtab v1\nn=3\nid=0\n0 1 2\n1 0 1\n2 1 0\n", encoding="utf-8")
    r = run_cli("check", str(p))
    assert r.returncode == 2


def test_extension_m3(files):
    r = run_cli("extension", files["m3"])
    assert r.returncode == 0
    assert "weakly Schreier:  yes" in r.stdout


def test_extension_m7(files):
    r = run_cli("extension", files["m7"])
    assert r.returncode == 1
    assert "weakly Schreier:  no" in r.stdout


def test_extension_b21(files):
    r = run_cli("extension", files["b21"])
    assert r.returncode == 1
    assert "extension:        no" in r.stdout


def test_iso_self(files):
    r = run_cli("iso", files["m3"], files["m3"])
    assert r.returncode == 0
    assert "isomorphic" in r.stdout


def test_iso_negative(files):
    r = run_cli("iso", files["m3"], files["z3"])
    assert r.returncode == 1
    assert "not isomorphic" in r.stdout


def test_decompose_construct_round_trip(files, tmp_path):
    r = run_cli("decompose", files["m3"], "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["decomposable"] is True
    for key, what in [("almost_action", "fproduct"), ("gluing_map", "gluing"),
                      ("factor_system", "crossed")]:
        p = tmp_path / f"{key}.json"
        p.write_text(json.dumps(doc[key]), encoding="utf-8")
        built = run_cli("construct", what, str(p))
        assert built.returncode == 0, built.stderr
        out = tmp_path / f"{key}.mtab"
        out.write_text(built.stdout, encoding="utf-8")
        iso = run_cli("iso", files["m3"], str(out))
        assert iso.returncode == 0, f"{what} output not isomorphic to source"


def test_decompose_rejects_non_f_inverse(files):
    r = run_cli("decompose", files["m7"])
    assert r.returncode == 1


def test_enumerate_semilattices_mtab():
    r = run_cli("enumerate", "--kind", "semilattice", "--max-n", "3")
    assert r.returncode == 0
    assert r.stdout.count("mtab v1") == 3


def test_enumerate_group_json():
    r = run_cli("enumerate", "--kind", "group", "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["count"] == 8


def test_enumerate_almost_actions_cli():
    r = run_cli("enumerate", "--kind", "almost-action",
                "--group", "z2", "--semilattice", "ch2", "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["count"] == 2


def test_enumerate_requires_group_for_actions():
    r = run_cli("enumerate", "--kind", "almost-action")
    assert r.returncode == 2


def test_usage_error():
    r = run_cli("frobnicate")
    assert r.returncode == 2
    r = run_cli("iso")
    assert r.returncode == 2


def test_exit_code_contract_over_builtin_corpus(tmp_path):
    from imw.corpus import builtin_corpus
    from imw.report import analyze

    for inst in builtin_corpus():
        m = inst.table
        p = tmp_path / f"{inst.name}.mtab"
        p.write_text(serialize_mtab(m), encoding="utf-8")
        expected = 0 if analyze(m, inst.name).all_pass else 1
        r = run_cli("check", str(p))
        assert r.returncode == expected, inst.name


def test_suite_refused_iso_search_is_a_usage_error(monkeypatch, capsys):
    # A size cap below the grid's monoids refuses searches; no theorem failed.
    import imw.suite
    from imw.cli import cli_main
    monkeypatch.setattr(imw.suite, "SUITE_ISO_LIMIT", 4)
    code = cli_main(["suite"])
    out, err = capsys.readouterr()
    assert code == 2, out
    assert err.startswith("error:") and "exceeds limit 4" in err
    assert "Traceback" not in err and "FAIL" not in out


@pytest.mark.parametrize("argv", [
    [*command, flag, "5"]
    for command in (["check", "F"], ["extension", "F"], ["decompose", "F"],
                    ["construct", "gluing", "F"], ["suite"])
    for flag in ("--budget", "--max-iso-n")
] + [["iso", "F", "F", "--budget", "5"], ["enumerate", "--kind", "group", "--max-iso-n", "5"]],
    ids=" ".join)
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv, tmp_path):
    path = tmp_path / "m3.mtab"
    path.write_text(serialize_mtab(m3()), encoding="utf-8")
    r = run_cli(*[str(path) if a == "F" else a for a in argv])
    assert r.returncode == 2 and r.stdout == ""
    assert "unrecognized arguments" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("argv, flag", [
    (["enumerate", "--kind", "semilattice", "--max-n", "-1", "--json"], "--max-n"),
    (["enumerate", "--kind", "group", "--max-n", "-1", "--json"], "--max-n"),
    (["enumerate", "--kind", "almost-action", "--group", "z2", "--semilattice", "ch2",
      "--budget", "-3", "--json"], "--budget"),
    (["iso", "F", "F", "--max-iso-n", "-5"], "--max-iso-n"),
], ids=["semilattice-max-n", "group-max-n", "budget", "max-iso-n"])
def test_a_negative_limit_is_a_usage_error(argv, flag, tmp_path):
    path = tmp_path / "m3.mtab"
    path.write_text(serialize_mtab(m3()), encoding="utf-8")
    r = run_cli(*[str(path) if a == "F" else a for a in argv])
    assert (r.returncode, r.stdout) == (2, "")
    value = argv[argv.index(flag) + 1]
    assert f"argument {flag}: must not be negative, got {value}" in r.stderr
    assert "Traceback" not in r.stderr


def test_a_limit_of_zero_is_read(files):
    # argparse takes 0; the iso search then refuses a size over the cap.
    r = run_cli("iso", files["m3"], files["m3"], "--max-iso-n", "0")
    assert (r.returncode, r.stderr) == (2, "error: isomorphism search on 3 elements "
                                           "exceeds limit 0\n")
    r = run_cli("enumerate", "--kind", "semilattice", "--max-n", "0", "--json")
    assert r.returncode == 0 and json.loads(r.stdout)["count"] == 0


@pytest.mark.parametrize("kind, max_n, bound", [("semilattice", "9", 8),
                                                ("inverse-monoid", "7", 6)])
def test_enumerate_refuses_a_size_over_the_bound_before_searching(kind, max_n, bound,
                                                                 monkeypatch, capsys):
    import imw.cli

    def no_search(max_n):
        raise AssertionError("the enumerator ran despite the bound")

    monkeypatch.setattr(imw.cli, "enumerate_semilattices", no_search)
    monkeypatch.setattr(imw.cli, "enumerate_inverse_monoids", no_search)
    assert imw.cli.cli_main(["enumerate", "--kind", kind, "--max-n", max_n]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: requested size {max_n} exceeds enumeration bound {bound}\n"


_TABLE_KINDS = ("semilattice", "inverse-monoid", "group")
_SEARCH_KINDS = ("almost-action", "gluing-map")
_FLAG_ARGS = {"--group": ["--group", "s3"], "--semilattice": ["--semilattice", "d4"],
              "--budget": ["--budget", "5"], "--force-bound": ["--force-bound"],
              "--max-n": ["--max-n", "2"]}


@pytest.mark.parametrize("flag, kind", [
    *((flag, kind) for flag in ("--group", "--semilattice", "--budget")
      for kind in _TABLE_KINDS),
    *(("--force-bound", kind) for kind in ("group",) + _SEARCH_KINDS),
    *(("--max-n", kind) for kind in _SEARCH_KINDS),
    *((None, kind) for kind in _SEARCH_KINDS),  # no --json, which they require
])
def test_enumerate_refuses_a_flag_its_kind_does_not_read(flag, kind, monkeypatch, capsys):
    import imw.cli

    def no_search(*args, **kwargs):
        raise AssertionError("the enumerator ran despite a refusal")

    for name in ("enumerate_semilattices", "enumerate_inverse_monoids", "small_groups",
                 "enumerate_almost_actions", "enumerate_gluing_maps", "_named_structures"):
        monkeypatch.setattr(imw.cli, name, no_search)
    argv = ["enumerate", "--kind", kind, *_FLAG_ARGS.get(flag, [])]
    if flag is not None:
        argv.append("--json")
    if kind in _SEARCH_KINDS and flag not in ("--group", "--semilattice"):
        argv += ["--group", "s3", "--semilattice", "d4"]  # the flags it requires
    assert imw.cli.cli_main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    if flag is None:
        assert err == f"error: --kind {kind} writes only JSON; pass --json\n"
    else:
        assert err == f"error: {flag} is not read by --kind {kind}\n"


def test_enumerate_group_refuses_search_flags():
    # The group list reads neither --budget nor --group; the first one stops it.
    r = run_cli("enumerate", "--kind", "group", "--max-n", "2", "--budget", "5",
                "--group", "nope", "--json")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


def test_force_bound_lifts_the_enumeration_bound(monkeypatch, capsys):
    import imw.cli
    monkeypatch.setattr(imw.cli, "SEMILATTICE_BOUND", 3)
    argv = ["enumerate", "--kind", "semilattice", "--max-n", "4", "--json"]
    assert imw.cli.cli_main(argv) == 2
    assert "exceeds enumeration bound 3" in capsys.readouterr().err
    assert imw.cli.cli_main(argv + ["--force-bound"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 5


@pytest.mark.parametrize("command", [["check"], ["construct", "gluing"]])
def test_unreadable_input_is_a_usage_error(command, tmp_path):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("mtab v1\n# café\n".encode("latin-1"))
    for path in (tmp_path, latin1):  # a directory, then a file that is not UTF-8
        r = run_cli(*command, str(path))
        assert r.returncode == 2, path
        assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


def _gluing_doc():
    from imw.corpus import z2_ch2_gluing
    from imw.mtab import gluing_map_to_json
    return gluing_map_to_json(z2_ch2_gluing())


def _action_doc():
    from imw.corpus import z2_ch2_action
    from imw.mtab import almost_action_to_json
    return almost_action_to_json(z2_ch2_action())


@pytest.mark.parametrize("what, doc, message", [
    ("gluing", {**_gluing_doc(), "group": {"n": 2}}, "missing key 'group.table'"),
    ("gluing", {**_gluing_doc(),
                "group": {**_gluing_doc()["group"], "n": "2"}}, "group.n"),
    ("fproduct", {**_action_doc(), "dot": 5}, "dot must be a list of lists"),
    ("gluing", {**_gluing_doc(), "group": {**_gluing_doc()["group"],
                                           "labels": ["a", [[[]]]]}},
     "group.labels must be a list of strings"),
    ("gluing", {**_gluing_doc(), "group": {**_gluing_doc()["group"],
                                           "labels": [None, "b"]}},
     "group.labels must be a list of strings"),
    ("fproduct", {k: v for k, v in _action_doc().items() if k != "group"},
     "missing key 'group'"),
], ids=["missing-key", "string-n", "non-list-dot", "nested-list-label", "null-label",
        "missing-group"])
def test_malformed_construction_json_is_a_usage_error(what, doc, message, tmp_path):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    r = run_cli("construct", what, str(p))
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and message in r.stderr
    assert "Traceback" not in r.stderr


def test_construct_crossed_names_the_failing_condition(tmp_path):
    from imw.constructions import factor_system_from_almost_action
    from imw.corpus import z2_ch2_action
    from imw.mtab import factor_system_to_json
    doc = factor_system_to_json(factor_system_from_almost_action(z2_ch2_action()))
    doc["act"][0][1] = 0  # the identity of Z2 must fix every element of N
    p = tmp_path / "factors.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    r = run_cli("construct", "crossed", str(p))
    assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: condition 9 fails at (1,)\n")


def test_gluing_with_a_carriage_return_label(tmp_path):
    # The mtab text would split the label line in two, so it is refused; the
    # JSON output carries the label as it is.
    doc = _gluing_doc()
    doc["group"]["labels"] = ["1", "g\rh"]
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    r = run_cli("construct", "gluing", str(p))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error:") and "line breaks" in r.stderr
    r = run_cli("construct", "gluing", str(p), "--json")
    assert r.returncode == 0
    assert "g\rh" in "".join(json.loads(r.stdout)["labels"])


def test_deeply_nested_construction_json_is_a_usage_error(tmp_path):
    # json.loads raises RecursionError here, not JSONDecodeError.
    p = tmp_path / "deep.json"
    p.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    r = run_cli("construct", "gluing", str(p))
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "nested too deeply" in r.stderr
    assert "Traceback" not in r.stderr


def test_enumerate_almost_actions_over_s3():
    from test_corpus import _almost_actions_by_exhaustion

    from imw.corpus import chain, sym3
    r = run_cli("enumerate", "--kind", "almost-action",
                "--group", "s3", "--semilattice", "ch2", "--json")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["count"] == len(
        _almost_actions_by_exhaustion(sym3(), chain(2)))


@pytest.mark.parametrize("max_n, orders", [("2", [1, 2]), ("0", [])])
def test_enumerate_groups_up_to_max_n(max_n, orders):
    r = run_cli("enumerate", "--kind", "group", "--max-n", max_n, "--json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["count"] == len(orders)
    assert [item["n"] for item in doc["items"]] == orders


def test_enumerate_almost_actions_of_s3_over_the_diamond():
    # The a-priori space is 4^20; the search tries 3,525 rows.
    r = run_cli("enumerate", "--kind", "almost-action",
                "--group", "s3", "--semilattice", "d4", "--json")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["count"] == 48
    r = run_cli("enumerate", "--kind", "almost-action",
                "--group", "s3", "--semilattice", "d4", "--json", "--budget", "100")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "budget" in r.stderr and "Traceback" not in r.stderr
