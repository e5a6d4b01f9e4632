"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; every
criterion is exact (zero residuals over the rationals at the stated
cutoffs), and the two timed suites assert their runtime budgets.
"""

import json
import os
import random
import time
from fractions import Fraction

import pytest

import ainfty
from ainfty.ainfty import (
    check_ainfty,
    check_bimodule_hom,
    check_strict_unit,
)
from ainfty.cli import chain_identity_suite, main
from ainfty.coeff import RingElement
from ainfty.document import load
from ainfty.graded import Element, maltese
from ainfty.hochschild import validate_negative_cocycle
from ainfty.pairing import (
    build_phi,
    check_closed,
    check_skew,
    trace_identity,
    weak_cyclic_check,
)
from ainfty.potential import (
    gauge_invariance_check,
    infty_cyclic_potential,
    wall_crossing_decomposition,
    wall_crossing_report,
)

from conftest import (
    make_e1, make_e2, make_g1, poincare_tower, random_bstar_tower,
    random_degree_one, ring,
)
from oracles import gauge_path_at, strict_cyclic_potential

CORPUS = os.path.join(os.path.dirname(ainfty.__file__), "corpus")


def corpus(name):
    return os.path.join(CORPUS, name)


def emit(num, name, ok, extra=""):
    line = "ACCEPTANCE %2d %-26s %s" % (num, name, "PASS" if ok else "FAIL")
    if extra:
        line += "  (%s)" % extra
    print("\n" + line)
    return ok


# -- criterion 1: relation suite + mutation kill ------------------------------


def _flip_structure(maker, key, word, comp):
    algebra = maker()
    table = algebra.ops[key][word]
    table[comp] = -table[comp]
    algebra._index = None
    return algebra


def _mutated_coderivation_detects(algebra, flip_position=None, unshifted=False,
                                  max_len=6):
    """Square of the coderivation with one Koszul sign family flipped."""
    basis = algebra.basis
    arities = sorted(algebra.stored_arities())

    def step(words):
        out = {}
        for word, coeff in words.items():
            degrees = [basis.degree(i) for i in word]
            for k in arities:
                for i in range(len(word) - k + 1):
                    inner = algebra.m_word(word[i:i + k])
                    if not inner:
                        continue
                    exponent = (sum(degrees[:i]) if unshifted
                                else maltese(degrees, i))
                    if flip_position is not None and i == flip_position:
                        exponent += 1
                    sign = -1 if exponent % 2 else 1
                    for comp, value in inner.items():
                        new = word[:i] + (comp,) + word[i + k:]
                        piece = coeff.scale(sign) * value
                        if piece:
                            acc = out.get(new)
                            out[new] = piece if acc is None else acc + piece
        return {w: v for w, v in out.items() if v}

    for length in range(max_len + 1):
        for word in _all_words(len(basis), length):
            if step(step({word: algebra.one_ring()})):
                return True
    return False


def _all_words(width, length):
    if length == 0:
        yield ()
        return
    for head in _all_words(width, length - 1):
        for i in range(width):
            yield head + (i,)


def _mutated_relation_detects(algebra, flip_at, k_max=4):
    """Relation expansion with the sign flipped at one (n, l, i) triple."""
    basis = algebra.basis
    arities = sorted(algebra.stored_arities())
    for n in range(k_max + 1):
        for word in _all_words(len(basis), n):
            degrees = [basis.degree(i) for i in word]
            residual = {}
            for l in arities:
                if l > n:
                    continue
                for i in range(n - l + 1):
                    inner = algebra.m_word(word[i:i + l])
                    if not inner:
                        continue
                    exponent = maltese(degrees, i)
                    if (n, l, i) == flip_at:
                        exponent += 1
                    sign = -1 if exponent % 2 else 1
                    for comp, value in inner.items():
                        outer = word[:i] + (comp,) + word[i + l:]
                        for ocomp, ovalue in algebra.m_word(outer).items():
                            piece = value * ovalue
                            if sign < 0:
                                piece = -piece
                            if piece:
                                acc = residual.get(ocomp)
                                residual[ocomp] = piece if acc is None else acc + piece
            if any(v for v in residual.values()):
                return True
    return False


def test_criterion_1_relation_suite_and_mutations():
    start = time.monotonic()
    failures = []

    for name, maker in (("E1", make_e1), ("E2", make_e2)):
        doc = load(corpus("%s.json" % name.lower()))
        algebra = doc.algebra
        assert algebra.k_max == 6 and str(algebra.spec.cutoff) == "3"
        for rep in (check_ainfty(algebra), check_strict_unit(algebra),
                    chain_identity_suite(algebra, 50, seed=1)):
            if not rep.passed:
                failures.append("%s %s" % (name, rep.name))

    killed = 0
    catalog = []
    # structure-constant sign flips: every stored scalar except the arity-0
    # constant (negating the curvature alone yields another valid algebra,
    # so that flip is not a defect and no checker can kill it)
    for maker, tag in ((make_e1, "E1"), (make_e2, "E2")):
        reference = maker()
        for key, table in sorted(reference.ops.items()):
            if key[0] == 0:
                continue
            for word in sorted(table):
                for comp in sorted(table[word]):
                    catalog.append(("%s struct %s %s %s" % (tag, key, word, comp),
                                    lambda m=maker, k=key, w=word, c=comp:
                                    not check_ainfty(_flip_structure(m, k, w, c)).passed
                                    or not check_strict_unit(_flip_structure(m, k, w, c)).passed))
    # coderivation sign flips by insertion position
    for maker, tag, positions in ((make_e2, "E2", (0, 1, 2, 3, 4)),
                                  (make_e1, "E1", (0, 1, 2))):
        for pos in positions:
            catalog.append(("%s coderivation flip at %d" % (tag, pos),
                            lambda m=maker, p=pos:
                            _mutated_coderivation_detects(m(), flip_position=p)))
    # relation-term sign flips at live (n, l, i) triples
    for maker, tag, triples in ((make_e2, "E2", ((1, 0, 0), (1, 0, 1), (3, 2, 0), (3, 2, 1))),
                                (make_e1, "E1", ((3, 2, 0), (3, 2, 1)))):
        for triple in triples:
            catalog.append(("%s relation flip at %s" % (tag, triple),
                            lambda m=maker, t=triple:
                            _mutated_relation_detects(m(), t)))
    # unshifted-degree mutation of the Koszul prefix
    for maker, tag in ((make_e2, "E2"), (make_e1, "E1")):
        catalog.append(("%s unshifted maltese" % tag,
                        lambda m=maker: _mutated_coderivation_detects(m(), unshifted=True)))

    assert len(catalog) >= 20
    for name, run in catalog:
        if run():
            killed += 1
        else:
            failures.append("mutation not detected: %s" % name)

    elapsed = time.monotonic() - start
    ok = not failures and elapsed <= 60
    emit(1, "relation suite + mutations", ok,
         "mutations %d/%d killed, %.1fs" % (killed, len(catalog), elapsed))
    assert not failures, failures
    assert elapsed <= 60


# -- criterion 2: chain-level identities --------------------------------------


def test_criterion_2_chain_identities():
    start = time.monotonic()
    algebra = make_e2()
    report = chain_identity_suite(algebra, 500, seed=2, max_len=5)
    elapsed = time.monotonic() - start
    ok = report.passed and elapsed <= 120
    emit(2, "chain identities", ok, "500 chains, %.1fs" % elapsed)
    assert report.passed, report.failures[:3]
    assert elapsed <= 120


# -- criterion 3: cocycle-to-inner-product pipeline ----------------------------


def test_criterion_3_cocycle_pipeline():
    e1 = make_e1(cutoff=2)
    failures = []

    def run_checks(tag, tower):
        phi = build_phi(e1, tower)
        # at E1's own word-length cutoff, 4
        for rep in (check_bimodule_hom(e1, phi), check_skew(e1, phi), check_closed(e1, phi)):
            if not rep.passed:
                failures.append("%s %s" % (tag, rep.name))

    run_checks("poincare", poincare_tower(e1))
    rng = random.Random(3)
    produced = 0
    attempts = 0
    while produced < 20 and attempts < 400:
        attempts += 1
        tower = random_bstar_tower(e1, rng)
        if tower.psi0.is_zero():
            continue
        produced += 1
        run_checks("bstar(%d)" % produced, tower)
    ok = produced >= 20 and not failures
    emit(3, "cocycle pipeline", ok, "towers %d" % (produced + 1))
    assert produced >= 20
    assert not failures, failures[:3]


# -- criterion 4: trace identity on the corpus ---------------------------------


def test_criterion_4_trace_identity():
    failures = []
    count = 0
    for name in ("e1.json", "e2.json", "g1_gauge.json", "g1_wallcross.json"):
        doc = load(corpus(name))
        for tower_name, tower in doc.towers.items():
            validation = validate_negative_cocycle(doc.algebra, tower)
            if not validation.passed:
                failures.append("%s %s invalid" % (name, tower_name))
                continue
            count += 1
            phi = build_phi(doc.algebra, tower)
            if not trace_identity(doc.algebra, phi).passed:
                failures.append("%s %s trace" % (name, tower_name))
    ok = not failures and count >= 3
    emit(4, "trace identity", ok, "%d corpus towers" % count)
    assert not failures, failures


# -- criterion 5: rotation identity --------------------------------------------


def test_criterion_5_weak_cyclic():
    algebra = make_e2()  # at its own level cutoff, 5
    phi = build_phi(algebra, poincare_tower(algebra))
    rng = random.Random(5)
    failures = []
    count = 0
    while count < 100:
        b = random_degree_one(algebra, rng)
        count += 1
        for y_idx in range(len(algebra.basis)):
            y = Element.generator(algebra.basis, y_idx, algebra.one_ring())
            rep = weak_cyclic_check(algebra, phi, b, y)
            if not rep.passed:
                failures.append("b #%d y=%s" % (count, algebra.basis.names[y_idx]))
    ok = not failures
    emit(5, "rotation identity", ok, "%d candidates, N_max=5" % count)
    assert not failures, failures[:3]


# -- criterion 6: gauge invariance ---------------------------------------------


def test_criterion_6_gauge_invariance():
    doc = load(corpus("g1_gauge.json"))
    phi = build_phi(doc.algebra, doc.towers["pair"])
    report = gauge_invariance_check(doc.algebra, phi, doc.gauge_path)
    v0 = infty_cyclic_potential(doc.algebra, phi, gauge_path_at(doc.gauge_path, 0))
    v1 = infty_cyclic_potential(doc.algebra, phi, gauge_path_at(doc.gauge_path, 1))
    ok = report.passed and v0 == v1
    emit(6, "gauge invariance", ok)
    assert report.passed, report.failures
    assert v0 == v1


# -- criterion 7: wall-crossing identities --------------------------------------


def test_criterion_7_wall_crossing():
    failures = []
    count = 0
    rng = random.Random(7)

    e2 = make_e2()
    phi_e2 = build_phi(e2, poincare_tower(e2))
    for _ in range(60):
        b = random_degree_one(e2, rng)
        count += 1
        dec = wall_crossing_decomposition(e2, phi_e2, b)
        if not dec.residual_i1.is_zero():
            failures.append("E2 telescoping #%d" % count)
        if not dec.residual_i2.is_zero():
            failures.append("E2 rotation #%d" % count)

    gdoc = load(corpus("g1_wallcross.json"))
    g1 = gdoc.algebra
    phi_g1 = build_phi(g1, gdoc.towers["pair"])
    for _ in range(40):
        b = random_degree_one(g1, rng)
        count += 1
        dec = wall_crossing_decomposition(g1, phi_g1, b)
        if not dec.residual_i1.is_zero():
            failures.append("G1 telescoping #%d" % count)
        if not dec.residual_i2.is_zero():
            failures.append("G1 rotation #%d" % count)

    pair = wall_crossing_report(g1, phi_g1, "pair", ("b0", gdoc.candidates["b0"]),
                                ("b1", gdoc.candidates["b1"]), gdoc.m_minus_one, gdoc.gw_tilde)
    if not pair.passed:
        failures.append("synthetic pair: %s" % "; ".join(pair.failures))
    ok = not failures and count >= 100
    emit(7, "wall-crossing identities", ok, "%d candidates + pair" % count)
    assert not failures, failures[:3]


# -- criterion 8: strict-cyclic equivalence -------------------------------------


def test_criterion_8_strict_equivalence():
    failures = []
    count = 0
    rng = random.Random(8)
    for maker in (make_e1, make_e2):
        algebra = maker()
        tower = poincare_tower(algebra)
        phi = build_phi(algebra, tower)
        for _ in range(25):
            b = random_degree_one(algebra, rng)
            count += 1
            if strict_cyclic_potential(algebra, tower, b) != infty_cyclic_potential(
                algebra, phi, b
            ):
                failures.append("%s #%d" % (algebra.name, count))
    ok = not failures and count >= 50
    emit(8, "strict-cyclic equivalence", ok, "%d candidates" % count)
    assert not failures, failures[:3]


# -- criterion 9: coefficient ring laws -----------------------------------------


def test_criterion_9_ring_laws():
    from ainfty.coeff import RingSpec

    spec = RingSpec(s_degree=2, t_degrees=(2,), cutoff=Fraction(4))
    rng = random.Random(9)

    def random_element():
        acc = RingElement.zero(spec)
        for _ in range(rng.randint(0, 3)):
            acc = acc + RingElement.monomial(
                spec,
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                lam=Fraction(rng.randint(0, 6), 2),
                e=rng.randint(-2, 2),
                s=rng.randint(0, 2),
                t=(rng.randint(0, 2),),
            )
        return acc

    failures = 0
    triples = 10_000
    for _ in range(triples):
        a, b, c = random_element(), random_element(), random_element()
        if (a * b) * c != a * (b * c):
            failures += 1
        if a * (b + c) != a * b + a * c:
            failures += 1
        if a * b != b * a:
            failures += 1
        if a and b and a.valuation() + b.valuation() <= spec.cutoff:
            if (a * b).valuation() != a.valuation() + b.valuation():
                failures += 1
        if a and b and (a + b):
            if (a + b).valuation() < min(a.valuation(), b.valuation()):
                failures += 1
    ok = failures == 0
    emit(9, "coefficient ring laws", ok, "%d triples" % triples)
    assert failures == 0


# -- criterion 10: determinism ---------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    suites = [
        (["check", "--input", corpus("e1.json"), "--chains", "60"], "c1"),
        (["check", "--input", corpus("e2.json"), "--chains", "60"], "c2"),
        (["cocycle", "--input", corpus("e1.json")], "c3"),
        (["cocycle", "--input", corpus("e2.json")], "c4"),
        (["mc", "--input", corpus("e2.json")], "c5"),
        (["mc", "--input", corpus("sv1.json"), "--solve"], "c6"),
        (["potential", "--input", corpus("e2.json")], "c7"),
        (["gauge", "--input", corpus("g1_gauge.json")], "c8"),
        (["wallcross", "--input", corpus("g1_wallcross.json")], "c9"),
    ]
    blobs = []
    for run in range(2):
        parts = []
        for argv, tag in suites:
            path = tmp_path / ("%s_run%d.txt" % (tag, run))
            status = main(argv + ["--seed", "11", "--report", str(path)])
            assert status == 0, (argv, status)
            parts.append(path.read_bytes())
        blobs.append(b"\n".join(parts))
    ok = blobs[0] == blobs[1]
    emit(10, "determinism", ok, "%d subcommand runs" % len(suites))
    assert ok
