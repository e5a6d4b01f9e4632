"""Report bytes of every corpus command line, pinned by sha256.

Each of the six subcommands runs with default flags on each of the five
corpus documents.  A line that exits 0 or 1 prints a report; its sha256 is
pinned here, so a refactor that changes one byte of any report fails this
test.  A line that exits 2 (the document lacks the section the command
needs) is pinned by its exit status alone.  The cocycle command is also
pinned at word length 5, on the corpus and on a G1 document whose tower has
one psi_0 entry negated, so that its report fails with validation lines;
and at word length 8 its counts are checked against their closed forms.
The check command is also pinned with 800 chains at seeds 7 and 99 on G1
(seed 7 on E1 too), which runs the chain operators on four times the
default number of chains; on a G1 copy with the output of m2(z,1) negated,
whose chain suite fails on most chains; and at arity 8 on G1 at the
default seed, the command line of the benchmark's check-g1 workload, whose
digest the benchmark pins as well.
The three command lines of the benchmark's potential-g1 workload are pinned
by the digest of their concatenated reports, as the benchmark pins them, and
wallcross and potential at level 9 and arity 10 on G1 and E2, with the
arity error that wallcross at level 9 meets under an arity cutoff of 6.
Also pinned: `mc --solve` on SV1; `check` on an E1 copy whose stored arity-3
table is all zero, which still counts toward the arity cutoff; and the two
ways a wall-crossing pair fails: wallcross on a G1 copy whose pair is not
weak MC, and on an E2 copy whose GW leaves a residual.  `check` on E2 and G1 and
`cocycle` on G1 print their pinned bytes with `HochschildChain` refused, as
they run the chain operators on raw term maps only.
"""

import hashlib
import json
import os
import random

import pytest

import ainfty
from ainfty import hochschild
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


@pytest.mark.parametrize("doc,command", (("e2", "check"), ("g1_gauge", "check"),
                                         ("g1_gauge", "cocycle")))
def test_report_bytes_without_chain_objects(doc, command, capsys, monkeypatch):
    # check and cocycle run the chain operators on raw term maps only
    def refuse(*args, **kwargs):
        raise AssertionError("a HochschildChain was built")

    monkeypatch.setattr(hochschild.HochschildChain, "__init__", refuse)
    monkeypatch.setattr(hochschild.HochschildChain, "_clean", refuse)
    _check_run([command, "--input", os.path.join(CORPUS, doc + ".json")], capsys,
               *GOLDEN[doc, command])


# (document, sha256 of stdout) for `check --chains 800 --seed 7`, exit 0
CHECK_800_SEED_7 = {
    "g1_gauge": "08b7bc08c8a8ff29cc419a55743aeba696bc9a5856a8ea7956f99b12d96ba9b7",
    "e1": "b844d21c90517b8c2c281accd8e5deeaa1ebd922a5c8a0c7cd4be74dcd3dfa98",
}


@pytest.mark.parametrize("doc", sorted(CHECK_800_SEED_7))
def test_check_report_bytes_with_800_chains(doc, capsys):
    _check_run(["check", "--chains", "800", "--seed", "7",
                "--input", os.path.join(CORPUS, doc + ".json")],
               capsys, 0, CHECK_800_SEED_7[doc])


# sha256 of stdout for `check --input g1_gauge.json --chains 800 --seed 99`, exit 0
CHECK_G1_800_SEED_99 = "4bf65dde89335277c45e8d4d606272bdb88ae117c13397b942cd443705cdc69e"


def test_check_report_bytes_with_800_chains_at_seed_99(capsys):
    _check_run(["check", "--chains", "800", "--seed", "99",
                "--input", os.path.join(CORPUS, "g1_gauge.json")],
               capsys, 0, CHECK_G1_800_SEED_99)


# g1_gauge with the output of m2(z,1) negated, as the benchmark's self-test
# builds it: the relations, the strict unit and 197 chain identities fail,
# so the chain suite reports from its per-chain evaluation
FLIPPED_M2_Z1 = (1, "28970738588a76875feb2c380057f7c2dab5ef6f2dd31ac973894789755931b2")


def _flipped_m2_z1_document(path):
    with open(os.path.join(CORPUS, "g1_gauge.json")) as handle:
        raw = json.load(handle)
    (op,) = [op for op in raw["operations"] if op["inputs"] == ["z", "1"]]
    for term in op["output"]:
        term["coeff"] = str(-int(term["coeff"]))
    path.write_text(json.dumps(raw))


def test_check_report_bytes_with_m2_z1_negated(tmp_path, capsys):
    path = tmp_path / "g1_flipped.json"
    _flipped_m2_z1_document(path)
    out = _check_run(["check", "--input", str(path)], capsys, *FLIPPED_M2_Z1)
    assert out.count(" nonzero on chain #") == 197


# sha256 of stdout for `check --input g1_gauge.json --kmax 8` at the default
# seed, exit 0: the digest of the check-g1 workload in bench/workloads.py
CHECK_G1_KMAX_8 = "35a4f099e4428257913df29037dc00a72f9b9344e4161b02312eae88f817508d"


def test_check_report_bytes_at_arity_8(capsys):
    _check_run(["check", "--input", os.path.join(CORPUS, "g1_gauge.json"), "--kmax", "8"],
               capsys, 0, CHECK_G1_KMAX_8)


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


def _seeded_wallcross_document(path, seed=20240601):
    """g1_wallcross.json plus two candidates s0, s1 on x and y with
    coefficients drawn from {2, 3} at energy 1/2, in the order the
    benchmark's potential-g1 workload draws them."""
    with open(os.path.join(CORPUS, "g1_wallcross.json")) as handle:
        raw = json.load(handle)
    rng = random.Random(seed)
    for name in ("s0", "s1"):
        raw["candidates"].append({
            "name": name,
            "element": [{"basis": basis, "coeff": str(rng.choice((2, 3))), "T": "1/2"}
                        for basis in ("x", "y")],
        })
    with open(path, "w") as handle:
        json.dump(raw, handle, indent=1)


# sha256 of the concatenated stdout of the potential-g1 workload's three
# command lines at the default seed, each exit 0: the benchmark's digest
POTENTIAL_G1 = "8072f8cb5ddcc870edb6ef049fe504dae3ad78f3134fc8571e9f9820c5d3e1e3"


def test_potential_workload_report_bytes(tmp_path, capsys):
    doc = str(tmp_path / "g1_wallcross_seed20240601.json")
    _seeded_wallcross_document(doc)
    cutoffs = ["--nmax", "7", "--kmax", "8"]
    out = ""
    for argv in (["gauge", "--input", os.path.join(CORPUS, "g1_gauge.json")],
                 ["potential", "--input", doc] + cutoffs,
                 ["wallcross", "--input", doc] + cutoffs):
        assert main(argv) == 0
        out += capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == POTENTIAL_G1


# (document, command) -> (exit status, sha256 of stdout) at --nmax 9 --kmax 10
LEVEL_9 = {
    ("e2", "potential"): (0, "a94d2012a9e931ca19b7208bb29b5000744daa7a3ce57560c90d83c3f1fcc16b"),
    ("e2", "wallcross"): (0, "4a6a4098815a0ed805f3167eec0e1fb218b30d232fb1cde2cbf5ac380593bc4a"),
    ("g1_wallcross", "potential"):
        (0, "c78df15cdc5be796bab6183103bb29c7c47aa00540d758d84980af5505faf6f4"),
    ("g1_wallcross", "wallcross"):
        (0, "4dc72c0a69e401c17c727e89ed0aa0eb86327718cfc3f59d1c75b2096c25250a"),
}


@pytest.mark.parametrize("doc,command", sorted(LEVEL_9), ids="-".join)
def test_report_bytes_at_level_9(doc, command, capsys):
    _check_run([command, "--nmax", "9", "--kmax", "10",
                "--input", os.path.join(CORPUS, doc + ".json")], capsys, *LEVEL_9[doc, command])


def test_wallcross_arity_error_at_level_9(capsys):
    code = main(["wallcross", "--nmax", "9", "--kmax", "6",
                 "--input", os.path.join(CORPUS, "g1_wallcross.json")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("input document rejected:\n"
                            "  --kmax: arity 7 exceeds the arity cutoff 6\n")


# sha256 of stdout for `mc --solve --input sv1.json`, exit 0
SV1_MC_SOLVE = (0, "f3e93cf67a338c1726e7ac45319c1f39c339c7a9e9e9e1343b06f9b7238e2915")


def test_mc_solve_report_bytes(capsys):
    _check_run(["mc", "--solve", "--input", os.path.join(CORPUS, "sv1.json")],
               capsys, *SV1_MC_SOLVE)


def _stored_zero_table_document(path):
    """e1.json with higher arities not marked zero, an arity cutoff of 2, and
    one stored arity-3 entry m_3(x,x,x) whose output is empty: an all-zero
    table that still counts as stored, so tables reach arity 3."""
    with open(os.path.join(CORPUS, "e1.json")) as handle:
        raw = json.load(handle)
    raw["higher_arities_zero"] = False
    raw["cutoffs"]["arity"] = 2
    raw["operations"].append({"arity": 3, "monoid": 0, "inputs": ["x", "x", "x"],
                              "output": []})
    path.write_text(json.dumps(raw))


# sha256 of stdout for `check --kmax 2` on that document, exit 0
STORED_ZERO_TABLE_KMAX_2 = (0, "1432c79b8029b32fde9c545a2c13d179e9e8cd2175dc8f4efc322810d3f435c1")


def test_stored_zero_table_counts_toward_the_arity_cutoff(tmp_path, capsys):
    path = tmp_path / "e1_zero_m3.json"
    _stored_zero_table_document(path)
    _check_run(["check", "--kmax", "2", "--input", str(path)], capsys,
               *STORED_ZERO_TABLE_KMAX_2)
    assert main(["check", "--kmax", "3", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input document rejected:\n"
        "  --kmax: relation checking at arity 3 needs tables up to 4; "
        "either supply them or mark higher arities zero\n")


# g1_wallcross with both candidates set to T^{1/2} y, which is not weak MC:
# the wall-crossing pair report fails with one line per side.  Before the
# pair was gated on weak MC, this line printed the corpus G1_WALLCROSS
# report and exited 0.
NOT_WEAK_MC_WALLCROSS = (1, "42d572b90b8650b15b3eb43d92d49885cb09da08d21f95a57a01e3af015a6e5a")


def test_wallcross_report_bytes_without_weak_mc(tmp_path, capsys):
    with open(os.path.join(CORPUS, "g1_wallcross.json")) as handle:
        raw = json.load(handle)
    for candidate in raw["candidates"]:
        candidate["element"] = [{"basis": "y", "coeff": "1", "T": "1/2"}]
    path = tmp_path / "g1_not_weak_mc.json"
    path.write_text(json.dumps(raw))
    out = _check_run(["wallcross", "--input", str(path)], capsys, *NOT_WEAK_MC_WALLCROSS)
    assert "[wall-crossing] FAIL" in out
    assert "    minus candidate b0 is not weak MC: curvature residual (-1*T^1)*z\n" in out
    assert "    plus candidate b1 is not weak MC: curvature residual (-1*T^1)*z\n" in out


# e2 with gw_tilde = 3 T^2: its pair (b, b) has equal potentials, so the
# wall-crossing pair report fails with the residual -GW alone
E2_GW_RESIDUAL_WALLCROSS = (1, "caa6359e607e10f2d4a5271d7bbd3e22f73e8404081a9d965ffb6bb7e659463f")


def test_wallcross_report_bytes_with_a_residual(tmp_path, capsys):
    with open(os.path.join(CORPUS, "e2.json")) as handle:
        raw = json.load(handle)
    raw["gw_tilde"] = [{"coeff": "3", "T": "2"}]
    path = tmp_path / "e2_gw.json"
    path.write_text(json.dumps(raw))
    out = _check_run(["wallcross", "--input", str(path)], capsys, *E2_GW_RESIDUAL_WALLCROSS)
    assert out.endswith("[wall-crossing] FAIL\n  E_max = 3\n  tower = poincare\n"
                        "  minus = b\n  plus = b\n  Phi(minus) = 1*T^3/2*e^1 + 1*T^2\n"
                        "  Phi(plus) = 1*T^3/2*e^1 + 1*T^2\n  GW = 3*T^2\n  checked = 1\n"
                        "  failures = 1\n    residual -3*T^2\n\n")
