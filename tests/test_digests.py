"""Byte-identity guard: CLI and report output pinned by SHA-256.

The report and ``extension`` digests were recorded before σ moved to the
least-idempotent route and before the weakly Schreier verdict was given a
single code path; the ``decompose`` and ``construct gluing`` digests were
recorded before Gl(f) was built through F(Y,G); the ``enumerate`` digests
were recorded before the canonical table refined colours, the one of the
semilattices to n = 7 before they were grown by adding an atom, the one of the
semilattices to n = 8 before their least strict order was found by
refinement, the one of the inverse monoids to n = 6 before their search kept
only the least table of each class, and the one of the inverse monoids to
n = 7 before their search filled the cells that associativity forces; the
human-format ``suite`` digest was recorded before each grid Gl(f) shared the
object of its equal F(Y,G). Any change to the bytes of ``check --json`` (via
``emit_report``), or to the exit code and stdout of ``extension --json``,
``decompose --json``, ``construct gluing --json``, the six pinned
``enumerate --json`` runs or the human-format ``suite`` run, shows up here.
"""

import contextlib
import hashlib
import io

import pytest

from imw.cli import cli_main
from imw.core import direct_product, validate_monoid
from imw.corpus import (
    brandt_b2_1,
    builtin_corpus,
    chain,
    cyclic_group,
    enumerate_gluing_maps,
    enumerate_inverse_monoids,
    m3,
    m7,
    sym3,
    z2_ch2_gluing,
)
from imw.mtab import gluing_map_to_json, serialize_mtab
from imw.report import analyze, emit_report, to_canonical_json


def digest_inputs():
    """(name, FiniteMonoid) for every table whose output is pinned."""
    out = [(inst.name, inst.table) for inst in builtin_corpus()]
    for i, m in enumerate(enumerate_inverse_monoids(4)):
        out.append((f"enum{m.n}-{i}", m.base))
    z2, z3 = cyclic_group(2), cyclic_group(3)
    out.append(("m7xm3xz2", direct_product(direct_product(m7(), m3()), z2)))
    out.append(("b2-1xz3", direct_product(brandt_b2_1(), z3)))
    out.append(("b2-1xm3xz3", direct_product(direct_product(brandt_b2_1(), m3()), z3)))
    # Non-inverse tables: no generalized inverse, and a non-unique one.
    out.append(("no-inverse", validate_monoid(3, [[0, 1, 2], [1, 1, 1], [2, 1, 1]], 0)))
    out.append(("left-zero", validate_monoid(3, [[0, 1, 2], [1, 1, 1], [2, 2, 2]], 0)))
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli_run(argv) -> tuple[int, str]:
    """Exit code and stdout of a CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue()


def _cli_digest(argv) -> str:
    """Digest of a CLI run's exit code plus stdout."""
    code, out = _cli_run(argv)
    return _sha(f"{code}\n{out}")


def output_digests(name, m, directory) -> tuple[str, str]:
    """Digest of the JSON report, and of ``extension --json`` exit code plus stdout."""
    report = _sha(emit_report(analyze(m, name), "json"))
    path = directory / f"{name}.mtab"
    path.write_text(serialize_mtab(m), encoding="utf-8")
    return report, _cli_digest(["extension", "--json", str(path)])


EXPECTED = {
    "t1": (
        "23baa00694c42e3f684ffb189f604f003b9bff21f6e4da7e208da69f355d5c6e",
        "8165ef20b346e4aca78b16c6d8b9c8314d70a0ce7d0bb5c75da5158de9e17a71"),
    "z2": (
        "5488772a264f7b2232ce7f9e1e1376b08fbdb71d8a693ea7f19c6d3acbcedba9",
        "fcf5f1da83978f527b497828fca949dfc59fc9de0470582dc95df66d75f7a9da"),
    "z3": (
        "063f0a1026684864d715459ae35770fdd4d5de1713b94bbba64cabc38aded3f3",
        "d6edfde62dbfbfc9ae1cb3d4fd1c6bfb5c723b98f666078dd94d8ffdc09af9e0"),
    "z4": (
        "78d6dfb3fbf28fc40b7654edb763da591dbcc11478f00ceab3752fe0db1eacb3",
        "c6abd38f6bd665a3d6ce3ce451b1c2fdec97114fab5abe9a09fe36922f8b32ef"),
    "klein": (
        "14347e1cbfeba53da473e4628976e4c11e0b925ae92d8e5e22c0567cf0f30d4e",
        "545263072d0908f106ab899d2ece39959f6348ac3dab5bfc76347ad34563c2af"),
    "s3": (
        "d079e305365cedaf2581a8c14b5676b81ae51831bf738e79b13d0c82c62b8263",
        "2e86e89499b2cc766c528d0cd39f1624ccb6cf9d13f3b4109e8961e95d2d0081"),
    "ch2": (
        "e24b6ddcf7d09451e08944dff890a30c38b8fb62ec7d12f795efd7c65e76b89c",
        "1e54ef64755670c45d81a36c368715b00702c555d11f3790c07fc0cbed8e0611"),
    "ch3": (
        "317126a29a893e627c4563c8731211914c90c0ba850581fa2b1562a8b6e8b22d",
        "7b80ebc979aec67e50bc0a5c8a083c3ca59600beed37cfb4e265c9e6ce4909a1"),
    "ch4": (
        "9f525241ffde8a1a1becd003c3ac5109f49d006390cc174ef0382a8a28668782",
        "959d3d601e2ff1429529d66dd858a838587b2aff1044a0f2f1d69ab4b43eeabe"),
    "d4": (
        "4b9458bf7546285659b45d35f4438175703faa62040d1fec0ddcc4ce6bd066ba",
        "815a681049a594ccfa4d917d9cd6c69f5b8fb7e52fecc375a303445f188e63b9"),
    "m3": (
        "93f28e240db0f01c0d8cd5dabb5e9e46cd4dac46d6b090d5d7f37647b221acd8",
        "257e4eb3ddc0aae5d6b9c848b8ab588dd666d73f803a15805c6958e0fac68c96"),
    "b2-1": (
        "7004d6e4cf5d0e5347d9364de45952cab0a07e83855459f1ca53075a7248b763",
        "f4c1049038c42c617348ffd1b0131ac65f1e5a25d428b9fc05ed890c081fa5f5"),
    "m7": (
        "3e5fd844620ed6959b71a15e47cb207483ccd08d699f8658002fca24ca4a18d6",
        "ef71a390836165ddcd987a35a9605ed7e88d39738bd2320aa948d4fe69d16047"),
    "enum1-0": (
        "d8ae4cb45795640c81281b47147eb2702e7634551ed6b6c54872e007b4b9f1fa",
        "4a07af8a55293b8ed8ff199246418e2c367a9f2846eed30c1d5731a39ac4b16d"),
    "enum2-1": (
        "3999290bcfed55846e05d09558ed4fc67dbb9964cca04f73e1b61b5130b80053",
        "20d928ea4e7dbec27ea1d3d9de549d68150ad2d99ce3cb930e3f7479fe434888"),
    "enum2-2": (
        "8edce6827a9b1034a9672bdfd5c10d6c3932e2a1dcd45a87cd4054d36c1c22eb",
        "af8e9a4d2694f1881e3c7debd5ff068ecf918550abdc331eedf1b56a7be3eb67"),
    "enum3-3": (
        "6d800284e0dd5489c4495a15daacef4591a7ef11f39efc3a2cbf25c885175d03",
        "0bd5dc05f7990df7b387814e81e3776d35f0ca26f69da7bb56b93a0e7b591eb9"),
    "enum3-4": (
        "f25282aeaadf3995ae11b4a57f64b420a3d7cd9fd253f525a6fa0f0cbadb2ca1",
        "748d6d2c88e7c64b5119b3ba7f6d61862f685d3f9201805c006ae502e37a9786"),
    "enum3-5": (
        "e952ca99903a3b69b92b478d2ec12125f0acf54572444e5e0ce71793b52ee6df",
        "928204f6734c34b91ddaf4bc38df4cea54e8a1e222d4b426afd4aca2b08c547f"),
    "enum3-6": (
        "88dd6b0dff0915c48f3801b91e154b468fcc950c4a851653c80ba92b15408a1d",
        "d71796bf78fa739b8d3e82c7d181ae3b62231cd68731dbbd0b87923a8583a393"),
    "enum4-7": (
        "1f8d8131168771734651e1571294529a1afe6051a56744ac1c0081fab8e3ae5e",
        "6d62439618c34959747de4f8f2a4154a6185cad362d7f59cb65debaf9e9b928a"),
    "enum4-8": (
        "93b83ec087f0d94297ce453a7c9492341affad3ea710b464acd4f06548dcf136",
        "63a392c4b9ec663cf31d74efa51b9b2745e59fa7ec843512afed20a181db4348"),
    "enum4-9": (
        "ef26fcb991356811a4c8f3155fd699e914d4fa07735a591ea4158a1323ad3283",
        "d53fb94f8eca6e86408c135c769168934bf5368de7b7a09084d6d8dfb5b9f7ac"),
    "enum4-10": (
        "416d17b9bc7fdfe12f39b9be5e56b3b16fa74b1f85424f204a254164f3ba85df",
        "8e8cafa9f87990e170ea1b3bf8b4bc5d826356717d9b9257bc77321d7ccb51ea"),
    "enum4-11": (
        "38bcbd6ce76ac2219381995c9e117b74c1dba3f84f7ce0beaa5048422a29b18b",
        "b34d532b7f17326bbf1bee9a9f8e2f5caa2aa7911ccc9fa1403855d9ec3dc4bc"),
    "enum4-12": (
        "31f34fd85d87a732dcc2b9bcd6a1998e7e52389364e2dfb17f9927fc3516e07c",
        "61f7d937ae7f312659dddc1235d7facc609767e6491cbf494c12a926f955278e"),
    "enum4-13": (
        "ac86dd602f48c3cefab276892babb65339c93c07e3407603ce4cc684e9a3a6e5",
        "f1e4db3ddec347ccd0a446f1848d7ca1a612c11cc6764002c0df9c03c2449e16"),
    "enum4-14": (
        "76d0a8267461b2e0aae7e946fb5a43484faa0b22207ae8511c3e6b4e8d98e51d",
        "67d1bad5aa614b1ba3dd0c0cf0797ecd78bddf140e5d26f8de3dd5bf43a27af3"),
    "enum4-15": (
        "dbea907372cb1847f364f2107b35f9ccadd4fb89d5f3a7054572446dc47af374",
        "993275d10ccc777d1d466f39bc7e77c4cd9814831adf21f858621a2108b17155"),
    "enum4-16": (
        "e0ce8bacb4fa23bed9bd6af1e314bd8e9227fbb952671045861afcdca6616269",
        "c8c5a169ff2bb1f80a65847f1100456bb60b084e011968de32752e8a16bc3a12"),
    "enum4-17": (
        "ee75084d538af24ca8b390c912edc993125d6b4e1ecd8a03c776f917e25f9e3d",
        "98eb451076b366af8e0d331c85ffc331a41bb156fc6dac8c945ce7b0acc8501a"),
    "m7xm3xz2": (
        "3b93e83eb09d3553cb7819b9344d22f894c1766060c74bf2c32adbb7553be59c",
        "fd5bf562eb6de3d06a942122053bf479c07c375d67d7576ac7839f05854421be"),
    "b2-1xz3": (
        "cb3cb87da1f1a7dfafb4afa83dbb7bd98e141fcb76668c6d5f1ed51a5ea92b30",
        "cc4adaed33dee22e28d8daaa7b7669055af8163f6fc7281e844d91b4032d32e7"),
    "b2-1xm3xz3": (
        "b0c7c40a16685a3f665bb902ec38b5bc8f4f1ddff8ef39d32e80196da9affed6",
        "655a1513a463437ae1eae1e7e125295297aa236e8daa52e21a6aa952d43efef3"),
    "no-inverse": (
        "b2277f9eb5a23d0dcd237b1af4f6ad7dcf099e296c1098c9468d5b505fe1e274",
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    "left-zero": (
        "20124f4d43dc8324cc3405b3a633a2a3f8c62c2df06c79d703c28c9afeba86e4",
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
}


INPUTS = dict(digest_inputs())


@pytest.mark.parametrize("name", list(INPUTS))
def test_output_bytes_unchanged(name, tmp_path):
    assert output_digests(name, INPUTS[name], tmp_path) == EXPECTED[name]


def test_every_input_is_pinned():
    assert sorted(EXPECTED) == sorted(INPUTS)


CORPUS_TABLES = [inst.name for inst in builtin_corpus()]

DECOMPOSE_EXPECTED = {
    "t1": "202a0fafe5eabd47752156fb7cd5d03c0c1e00d5e89e1a1ead52d911efa39a59",
    "z2": "c7309af8b87a7bda51f4a9660a1c110668119ef61f850f89014c1f26d7cc0ad3",
    "z3": "134eb06f2217261e8215c69be91dccc2a8ea8ce25c74abc50f16f48ac387d739",
    "z4": "a0d8b9e147e8d19a069790efd8037344b2704bc200be44bb36931e23ffabb83e",
    "klein": "fd00a0201999c230b462bcbf64296b391efad4749126d221e1ca935e09041f83",
    "s3": "5d905a8173e64e634c5bcb1e0a20e7956d268472075ca5d8b9caece35f79eb73",
    "ch2": "c3e011040f3e766c52ca5309ec1285a0fca5164ec01b20f8a6c8f6ba906b9ef2",
    "ch3": "0070607799bc40476c0e61978089cf836f37c64f1f6d2ce6acdbb16a4708f75c",
    "ch4": "5cbc68ddb2b8f06d12c488a06709151da4d86f8c7db2ad2cd95550e227123165",
    "d4": "93b1f05c4e4217299fa56eb1b12467984e91901cad01bd5d62014c9d4ba02352",
    "m3": "bd94fb35d2b8821cf3dd11be60ac5940e0ace03a9d2bf780e24c948f8d019131",
    "b2-1": "7d9c3a7e95661601fa04ff5c82abfe935b1841f820e608ac3795fae0e4e3081c",
    "m7": "6d723230da914ebdd6b701ea59789d4266d8ea622a6de934554ed6c49ff8095b",
}


@pytest.mark.parametrize("name", CORPUS_TABLES)
def test_decompose_bytes_unchanged(name, tmp_path):
    path = tmp_path / f"{name}.mtab"
    path.write_text(serialize_mtab(INPUTS[name]), encoding="utf-8")
    assert _cli_digest(["decompose", "--json", str(path)]) == DECOMPOSE_EXPECTED[name]


def gluing_documents():
    """(name, gluing-map JSON document) for every pinned ``construct gluing``."""
    # Map 11 over the non-abelian S3 and the 3-chain takes all three values.
    s3_ch3 = list(enumerate_gluing_maps(sym3(), chain(3)))[11]
    return [("z2-ch2-gluing", gluing_map_to_json(z2_ch2_gluing())),
            ("s3-ch3-gluing-11", gluing_map_to_json(s3_ch3))]


CONSTRUCT_GLUING_EXPECTED = {
    "z2-ch2-gluing": "7456fec52005b945c3dfdb633f8e3266c9d7038428b1bcc099f6217423c48493",
    "s3-ch3-gluing-11": "c0acb9e57e7b90fed3af5c9183db40536fea925df4c7c7a763e58c214fcc9944",
}


@pytest.mark.parametrize("name,doc", gluing_documents())
def test_construct_gluing_bytes_unchanged(name, doc, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(to_canonical_json(doc), encoding="utf-8")
    assert _cli_digest(["construct", "gluing", "--json", str(path)]) \
        == CONSTRUCT_GLUING_EXPECTED[name]


# (exit code plus stdout, stdout alone); the second is the digest of
# perfbench/reference/enumerate-<kind>.json.
ENUMERATE_EXPECTED = {
    "semilattice": (
        "87759df8b4a3b98e18b65f0a9d827403b6ed4c86c020bf038e13ef648b44f5f0",
        "ec2cf011fa21cdc3cd16f7d1722128d5b580ed6994e2968991bc7195d6f38dd4"),
    "inverse-monoid": (
        "4a4a2bc216919a11f459e805757b51e63a34a5b9587db48c3b3c77a79a79d17e",
        "11156d9b323dc82665f17423e88ccca687d8c75d59f6e2c89f9585b2ab9c733f"),
}


@pytest.mark.parametrize("kind,max_n", [("semilattice", 6), ("inverse-monoid", 5)])
def test_enumerate_bytes_unchanged(kind, max_n):
    code, out = _cli_run(["enumerate", "--kind", kind, "--max-n", str(max_n), "--json"])
    assert (_sha(f"{code}\n{out}"), _sha(out)) == ENUMERATE_EXPECTED[kind]


# (exit code plus stdout, stdout alone) of the semilattices to n = 7, recorded
# while they were still found by a search over labelled strict orders.
SEMILATTICES_TO_SEVEN_EXPECTED = (
    "b6fd691c3c12176365ce4b68dc2883fe50416b53fc0286c3b7a6179ec0cb2dce",
    "ca4228a0193f0f33b0e47330f16c034b86478bd426ca28c766513346c91c3e4a")


def test_enumerate_semilattices_to_seven_bytes_unchanged():
    code, out = _cli_run(["enumerate", "--kind", "semilattice", "--max-n", "7",
                          "--force-bound", "--json"])
    assert (_sha(f"{code}\n{out}"), _sha(out)) == SEMILATTICES_TO_SEVEN_EXPECTED


# (exit code plus stdout, stdout alone) of the semilattices to n = 8, recorded
# while the grown tables were deduped by canonical table and each class was
# put in its least strict order by trying every labelling.
SEMILATTICES_TO_EIGHT_EXPECTED = (
    "1978d82c4b3b6b96d4ee0db886bb1bdad564434279cdee73b0de360ac1bbecc4",
    "f73a87aa388e004d1952e61d2b476ba0e442372a2a23b21f426fced8932d7ea6")


def test_enumerate_semilattices_to_eight_bytes_unchanged():
    code, out = _cli_run(["enumerate", "--kind", "semilattice", "--max-n", "8",
                          "--force-bound", "--json"])
    assert (_sha(f"{code}\n{out}"), _sha(out)) == SEMILATTICES_TO_EIGHT_EXPECTED


# (exit code plus stdout, stdout alone) of the inverse monoids to n = 6,
# recorded while each class was kept as the first table of its canonical
# table among all the tables of a search with no lex-leader pruning.
INVERSE_MONOIDS_TO_SIX_EXPECTED = (
    "6dfa5bd65a10dfde3e9de1dd59e72c1ca2bc30c5b5916522c665a78976f31ecc",
    "d3f564d685a224b97b774dce6563ff1b1d011d01202dd0aa508a1c5630c2c495")


def test_enumerate_inverse_monoids_to_six_bytes_unchanged():
    code, out = _cli_run(["enumerate", "--kind", "inverse-monoid", "--max-n", "6",
                          "--force-bound", "--json"])
    assert (_sha(f"{code}\n{out}"), _sha(out)) == INVERSE_MONOIDS_TO_SIX_EXPECTED


# (exit code plus stdout, stdout alone) of the inverse monoids to n = 7,
# recorded while the search filled only the cells it branched on.
INVERSE_MONOIDS_TO_SEVEN_EXPECTED = (
    "a8cb54820db6fd459f1846e51fd51396509b2e618d363061a1cc1eb6549576c9",
    "639e36a9eafd8fa8946e5afe0694620a8d27a102009dded842064d2fd8876119")


def test_enumerate_inverse_monoids_to_seven_bytes_unchanged():
    code, out = _cli_run(["enumerate", "--kind", "inverse-monoid", "--max-n", "7",
                          "--force-bound", "--json"])
    assert (_sha(f"{code}\n{out}"), _sha(out)) == INVERSE_MONOIDS_TO_SEVEN_EXPECTED


# Exit code and stdout digest of ``imw suite`` in human format; its ``--json``
# bytes are perfbench/reference/suite.json, pinned in test_acceptance.
SUITE_HUMAN_EXPECTED = (
    0, "70a89efded2ead20dbbe3c796fb7c45da1c8086fa1126b3ea94ed4530da6da21")


def test_suite_human_output_unchanged():
    code, out = _cli_run(["suite"])
    assert (code, _sha(out)) == SUITE_HUMAN_EXPECTED
