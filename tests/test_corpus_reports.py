"""Report bytes of every corpus command line, pinned by sha256.

Each of the six subcommands runs with default flags on each of the five
corpus documents.  A line that exits 0 or 1 prints a report; its sha256 is
pinned here, so a refactor that changes one byte of any report fails this
test.  A line that exits 2 (the document lacks the section the command
needs) is pinned by its exit status alone.  The cocycle command is also
pinned at word length 5, on the corpus and on a G1 document whose tower has
one psi_0 entry negated, so that its report fails with validation lines;
and at word length 8 its counts are checked against their closed forms.
"""

import hashlib
import json
import os

import pytest

import ainfty
from ainfty.cli import main

CORPUS = os.path.join(os.path.dirname(ainfty.__file__), "corpus")

G1_CHECK = "6af75a0457e0c642f2a14d01d289cc4fdf5fa69aadf17a21b4c0f08dd556400b"
G1_COCYCLE = "1797769397a38c5152dd7c00c8609a2cc36ce5ff6b21c30aac71d49427421f19"
G1_MC = "95160228082376a4ecc9135b075833d1bcdd50df0733564fdf42f59610203108"
G1_POTENTIAL = "7a373fd9b77df64d2dd9799ddab23ecfe7f5bda724b3d1bec2b6d2fc7293cdad"
G1_WALLCROSS = "f7bfef9df04098a77caca8344fd90cbc08ac318d8381dd1741cebfd9bbcc3b11"

# (document, command) -> (exit status, sha256 of stdout or None)
GOLDEN = {
    ("e1", "check"): (0, "6f3c26c42253736d889b24663672d9b52d414f15371a754dcf8abfaba2b09425"),
    ("e1", "cocycle"): (0, "f06f634c29786dd93dbd70e4ede6ef844cd99967338a9b60c822b136fa4078ca"),
    ("e1", "mc"): (0, "0aeb36502bbd946b5a41ada5b2ec14f59a9d9e872b262d30f732d57d036decf2"),
    ("e1", "potential"): (0, "d517cb4f3ae6cf400589397d0ae02a4c11982876ae0a09aa1ce0e98ece92c00b"),
    ("e1", "gauge"): (2, None),
    ("e1", "wallcross"): (0, "e1135aa44f2f42ad8535a705083ca3bd4adaaa604de7ae06321a912b0bcb40c1"),
    ("e2", "check"): (0, "0dc3adbd927269a540d87ba8b0a1a2e7610ba4f52f0fb40961bedb9348fe8b86"),
    ("e2", "cocycle"): (0, "58583368e0c8c174145b9c5b76cbb9f63fd962a6a7082085bacf872f95c9ef5f"),
    ("e2", "mc"): (0, "962b4e60640c0b37b9f44602581d7e7a17c6762bbc2fa6a2f6a89371eef33e33"),
    ("e2", "potential"): (0, "2e873926f7db6e0f079f8dae9dfa29e961c163dbd711535d55255e154b3e3c86"),
    ("e2", "gauge"): (2, None),
    ("e2", "wallcross"): (0, "7f2331f5447d8d36ca3f04e2bf631c01645b87efbe2b5a95e16b4b997f178867"),
    # Both G1 documents carry the same algebra, towers and name, so every
    # report they share is the same text.
    ("g1_gauge", "check"): (0, G1_CHECK),
    ("g1_gauge", "cocycle"): (0, G1_COCYCLE),
    ("g1_gauge", "mc"): (0, G1_MC),
    ("g1_gauge", "potential"): (0, G1_POTENTIAL),
    ("g1_gauge", "gauge"): (0, "cbe9dfb30317cfbf025dd07d76aa092be93a51d547fc84b4d2f5bd4e91444525"),
    ("g1_gauge", "wallcross"): (0, G1_WALLCROSS),
    ("g1_wallcross", "check"): (0, G1_CHECK),
    ("g1_wallcross", "cocycle"): (0, G1_COCYCLE),
    ("g1_wallcross", "mc"): (0, G1_MC),
    ("g1_wallcross", "potential"): (0, G1_POTENTIAL),
    ("g1_wallcross", "gauge"): (2, None),
    ("g1_wallcross", "wallcross"): (0, G1_WALLCROSS),
    ("sv1", "check"): (0, "f421700580d3da01ed77ab9d5ea1b3d0ea3e81847300993be7b1131c758d3aee"),
    ("sv1", "cocycle"): (2, None),
    ("sv1", "mc"): (1, "ec7accaa617cb39563e20b22692e7f26f9f4ddcd3ca59d516c12f844702161be"),
    ("sv1", "potential"): (2, None),
    ("sv1", "gauge"): (2, None),
    ("sv1", "wallcross"): (2, None),
}


def _check_run(argv, capsys, status, digest):
    """Run one command line; check its exit status and report digest."""
    code = main(argv)
    out = capsys.readouterr().out
    assert code == status
    if digest is None:
        assert out == ""
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    return out


@pytest.mark.parametrize("doc,command", sorted(GOLDEN), ids="-".join)
def test_corpus_report_bytes(doc, command, capsys):
    _check_run([command, "--input", os.path.join(CORPUS, doc + ".json")], capsys,
               *GOLDEN[doc, command])


# (document, exit status, sha256 of stdout or None) for `cocycle --lmax 5`
COCYCLE_L5 = {
    "e1": (0, "19e8aaa4984d1d7a83f9d88fd84a57dfb6156f326c11563f59de3311df82f7a3"),
    "e2": (0, "0ab19f9dda28ffb0a6c7744e623da58e28440ed5bcd7253c48d3bff34be03e4e"),
    "g1_gauge": (0, "8b022336768d3453b3d33c303b91f4200bb7ce1935f566d1d1fa752e2c4d679a"),
    "g1_wallcross": (0, "8b022336768d3453b3d33c303b91f4200bb7ce1935f566d1d1fa752e2c4d679a"),
    "sv1": (2, None),
}
# g1_gauge with the psi_0 entry [y|x,x,z] negated: six validation failures
NEGATED_ENTRY = 2
NEGATED_L5 = (1, "ef92845b6415be77bc0e35dfc848fbf30a706bbf1a66513a6522932a5e1aa8e0")


@pytest.mark.parametrize("doc", sorted(COCYCLE_L5))
def test_cocycle_report_bytes_at_word_length_5(doc, capsys):
    _check_run(["cocycle", "--lmax", "5", "--input", os.path.join(CORPUS, doc + ".json")],
               capsys, *COCYCLE_L5[doc])


def test_failing_tower_report_bytes_at_word_length_5(tmp_path, capsys):
    with open(os.path.join(CORPUS, "g1_gauge.json")) as handle:
        raw = json.load(handle)
    value = raw["towers"][0]["levels"][0]["entries"][NEGATED_ENTRY]["value"][0]
    value["coeff"] = str(-int(value["coeff"]))
    path = tmp_path / "g1_negated.json"
    path.write_text(json.dumps(raw))
    out = _check_run(["cocycle", "--lmax", "5", "--input", str(path)], capsys, *NEGATED_L5)
    assert out.count("    level 0 at [") == 6


def test_cocycle_counts_at_word_length_8(capsys):
    # G1 has |B| = 4 basis letters, r = 3 of them reduced, and a depth-0 tower
    L, r, size, depth = 8, 3, 4, 0
    code = main(["cocycle", "--lmax", str(L), "--input", os.path.join(CORPUS, "g1_gauge.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    checked = {}
    for block in out.split("\n\n"):
        lines = block.splitlines()
        if lines and lines[0].startswith("["):
            name = lines[0][1:lines[0].index("]")]
            checked[name] = int(next(line for line in lines if "checked = " in line)
                                .split("= ")[1])
    assert checked["bimodule-hom:pair"] == sum((t + 1) * r ** t * size for t in range(L + 1))
    assert checked["negative-cocycle:pair"] == (depth + 1) * size * sum(
        r ** n for n in range(L + 1))


# Energies off the default grid of halves: a cutoff of 5/3 on E2 (grid 4),
# and an E2 copy whose candidate b2 sits at T^{1/3} (grid 6) run at a cutoff
# of 7/4, which lies off that grid and drops the T^2 of m_{-1}.
E2_EMAX_5_3 = (0, "5088d366dcd1a3c0a8ee6b660d24b6840b35041c665739d9f142a017418aa5cc")
THIRD_AT_7_4 = {
    "potential": (0, "257b052d4acd1820c941d8e9d3b68f746b0dda0aa47b0484b0d9320ba3b81ed9"),
    "wallcross": (1, "a8dbdbfefe21c53ffb53bb9f3f20b9b038955c6c6efaec306b3b194be9b0eadb"),
}


def test_check_report_bytes_at_an_off_grid_cutoff(capsys):
    _check_run(["check", "--emax", "5/3", "--input", os.path.join(CORPUS, "e2.json")],
               capsys, *E2_EMAX_5_3)


@pytest.mark.parametrize("command", sorted(THIRD_AT_7_4))
def test_report_bytes_with_an_energy_of_one_third(command, tmp_path, capsys):
    with open(os.path.join(CORPUS, "e2.json")) as handle:
        raw = json.load(handle)
    raw["candidates"][2]["element"][0]["T"] = "1/3"
    raw["wall_crossing_pair"] = {"minus": "b", "plus": "b2"}
    path = tmp_path / "e2_third.json"
    path.write_text(json.dumps(raw))
    out = _check_run([command, "--emax", "7/4", "--input", str(path)], capsys,
                     *THIRD_AT_7_4[command])
    assert "T^4/3" in out
