"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All equality is exact (the fields are exact); the only tolerances are the
stated wall-clock budgets.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import pytest

from qhopf import (big_f, check_F_compat,
                   check_main_theorem, check_ribbon_lemma,
                   check_rtwist_relations, check_twist_elements,
                   check_u_tilde, coopposite,
                   delta, drinfeld_u, find_ribbon, gamma, is_ribbon,
                   modify_antipode, op_cop, opcop_twist_iso,
                   random_invertible, random_twist, rtwist_elements, u_tilde,
                   verify, verify_quasi_bialgebra, verify_quasi_hopf,
                   verify_quasitriangular)
from qhopf.dsl import (check_named, corpus_entries, parse, print_expr,
                       run_corpus)
from qhopf.rng import SplitMix64
from qhopf.tensor import apply_legs, concat, flip, invert, mul_all, mult

import oracle
from mutation import layers_of, mutate


def _stamp(num, label, ok, extra=""):
    line = "ACCEPTANCE %2d %s: %s%s" % (num, label, "PASS" if ok else "FAIL",
                                        " (%s)" % extra if extra else "")
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def axiom_examples(kz2, fz2w, fz3w, sw):
    return {"K[Z2]": kz2, "F(Z2)w": fz2w, "F(Z3)w": fz3w, "H4": sw}


@pytest.fixture(scope="module")
def qt_examples(kz2, sw, dz2, dz2w, dz3, dz3w):
    return {"K[Z2]": kz2, "H4": sw, "D(Z2)": dz2, "Dw(Z2)": dz2w,
            "D(Z3)": dz3, "Dw(Z3)": dz3w}


@pytest.fixture(scope="module")
def all_examples(axiom_examples, qt_examples):
    both = dict(axiom_examples)
    both.update(qt_examples)
    return both


def test_criterion_01_axiom_suite(axiom_examples):
    t0 = time.monotonic()
    ok = True
    for name, d in axiom_examples.items():
        rb = verify_quasi_bialgebra(d)
        rh = verify_quasi_hopf(d)
        ok = ok and rb.ok and rh.ok
        derived = [c for c in rb.checks if c.name == "counit_associator_property"]
        ok = ok and derived and derived[0].status == "pass"
    elapsed = time.monotonic() - t0
    _stamp(1, "axiom suite + derived counit property", ok and elapsed < 5.0,
           "%.2fs < 5s" % elapsed)


def test_criterion_02_quasitriangular_suite(sw, dz2, dz2w, dz3, dz3w):
    t0 = time.monotonic()
    ok = True
    for d in (sw, dz2, dz2w, dz3, dz3w):
        rep = verify_quasitriangular(d)
        ok = ok and rep.ok
        names = {c.name for c in rep.checks}
        ok = ok and {"hexagon_left", "hexagon_right", "r_antipode"} <= names
    elapsed = time.monotonic() - t0
    _stamp(2, "quasitriangular suite incl. hexagons and (SxS)(R)",
           ok and elapsed < 30.0, "%.2fs < 30s" % elapsed)


def test_criterion_03_f_compatibility(all_examples):
    ok = True
    for name, d in all_examples.items():
        rep = check_F_compat(d)
        ok = ok and rep.ok and len(rep.checks) == 5
    _stamp(3, "all five F-compatibility identities", ok)


def test_criterion_04_modification_laws(dz2w):
    alg = dz2w.algebra
    de = big_f(dz2w)
    u = drinfeld_u(dz2w)
    ok = True
    for seed in range(100):
        x = random_invertible(dz2w, seed)
        x_inv = invert(x, alg)
        dx = modify_antipode(dz2w, x)
        dex = big_f(dx)
        ok = ok and dex.gamma == mult(concat(x, x), de.gamma, alg)
        ok = ok and dex.delta == mult(de.delta, concat(x_inv, x_inv), alg)
        ok = ok and dex.F == mul_all(alg, concat(x, x), de.F,
                                     dz2w.coproduct(x_inv))
        ok = ok and drinfeld_u(dx) == mul_all(alg, x, dz2w.antipode(x_inv), u)
        if not ok:
            break
    _stamp(4, "100 antipode modifications transform gamma/delta/F/u", ok)


def test_criterion_05_coopposite_f(all_examples):
    ok = True
    for name, d in all_examples.items():
        base = d.with_changes(R=None, v=None)
        expect = apply_legs(big_f(base).F, [base.leg("Sinv"), base.leg("Sinv")])
        ok = ok and big_f(coopposite(base)).F == expect
    _stamp(5, "coopposite F equals doubled inverse antipode of F", ok)


def test_criterion_06_twist_laws(sw, dz3w):
    ok = True
    for d, count in ((sw, 100), (dz3w, 20)):
        for seed in range(count):
            tw = random_twist(d, seed)
            ok = ok and check_twist_elements(d, tw).ok
            if not ok:
                break
    _stamp(6, "twist transformation laws + u invariance (100 H4, 20 Dw(Z3))",
           ok)


def test_criterion_07_drinfeld_properties(qt_examples):
    ok = True
    for name, d in qt_examples.items():
        ok = ok and check_rtwist_relations(d).ok
        ok = ok and check_named(d, ("counit_of_u",
                                    "antipode_square_is_u_conjugation",
                                    "coproduct_of_u")).ok
    _stamp(7, "u = ucheck = S(uhat^-1), alpha_check = S(alpha)u, "
           "counit/conjugation/coproduct of u", ok)


def test_criterion_08_ribbon_search(dz2_f5, dz3w):
    t0 = time.monotonic()
    ok = True
    res = find_ribbon(dz2_f5, 10 ** 6)
    ok = ok and len(res.candidates) >= 1
    ok = ok and any(c.v == dz2_f5.v for c in res.candidates)
    for c in res.candidates:
        ok = ok and check_main_theorem(dz2_f5, c.v).ok
        ok = ok and check_ribbon_lemma(dz2_f5, c.v).ok
        ok = ok and is_ribbon(dz2_f5, c.v).ok
    res3 = find_ribbon(dz3w, 10 ** 6)
    ok = ok and len(res3.candidates) >= 1
    for c in res3.candidates:
        ok = ok and check_main_theorem(dz3w, c.v).ok
        ok = ok and check_ribbon_lemma(dz3w, c.v).ok
        ok = ok and is_ribbon(dz3w, c.v).ok
    elapsed = time.monotonic() - t0
    _stamp(8, "ribbon search: blockwise on D(Z2)/F5 and Dw(Z3)/F7",
           ok and elapsed < 60.0, "%.2fs < 60s" % elapsed)


def test_criterion_09_opcop_correspondence(qt_examples):
    ok = True
    for name, d in qt_examples.items():
        ut = u_tilde(d)
        ok = ok and d.antipode(ut) == drinfeld_u(d)
        ok = ok and check_u_tilde(d).ok
        a = rtwist_elements(d)
        b = rtwist_elements(op_cop(d))
        ok = ok and b.alpha_hat == a.beta_check
        ok = ok and b.beta_hat == a.alpha_check
        ok = ok and b.alpha_check == a.beta_hat
        ok = ok and b.beta_check == a.alpha_hat
        ok = ok and b.u_hat == a.u_check_inv
        ok = ok and b.u_check == a.u_hat_inv
        ok = ok and opcop_twist_iso(d).ok
    _stamp(9, "u = S(utilde), correspondence table, op-cop twist isomorphism",
           ok)


def test_criterion_10_oracle_equivalence(all_examples):
    ok = True
    for name, d in all_examples.items():
        assert d.dim <= 9
        got = mult(d.phi, d.phi_inv, d.algebra)
        ok = ok and oracle.dense_of(got) == oracle.dense_mult(d, d.phi, d.phi_inv)
        legs = [d.leg("id"), d.leg("eps"), d.leg("id")]
        ok = ok and (oracle.dense_of(apply_legs(d.phi, legs))
                     == oracle.dense_apply_legs(d, d.phi, ["id", "eps", "id"]))
        legs = [d.leg("S"), d.leg("S"), d.leg("D")]
        ok = ok and (oracle.dense_of(apply_legs(d.phi, legs))
                     == oracle.dense_apply_legs(d, d.phi, ["S", "S", "D"]))
        g = oracle.dense_gamma(d)
        ok = ok and oracle.dense_of(gamma(d)) == g
        ok = ok and oracle.dense_of(delta(d)) == oracle.dense_delta_elt(d)
        ok = ok and oracle.dense_of(big_f(d).F) == oracle.dense_big_f(d, g)
        if d.R is not None:
            rp = flip(d.R, 0, 1)
            ok = ok and (oracle.dense_of(mult(rp, d.R, d.algebra))
                         == oracle.dense_mult(d, rp, d.R))
            ok = ok and (oracle.dense_of(apply_legs(d.R, [d.leg("S"), d.leg("S")]))
                         == oracle.dense_apply_legs(d, d.R, ["S", "S"]))
            ok = ok and oracle.dense_of(drinfeld_u(d)) == oracle.dense_drinfeld(d)
        if not ok:
            break
    _stamp(10, "sparse engine agrees with the naive dense evaluator", ok)


def test_criterion_11_mutation_sensitivity(all_examples):
    ok = True
    detail = []
    for name, d in all_examples.items():
        layers = layers_of(d)
        caught = 0
        for seed in range(50):
            rng = SplitMix64(seed * 977 + 13)
            layer = layers[seed % len(layers)]
            bad = mutate(d, layer, rng)
            try:
                level = "qt" if bad.R is not None else "hopf"
                failed = not verify(bad, level=level).ok
            except Exception:
                failed = True
            caught += 1 if failed else 0
        detail.append("%s %d/50" % (name, caught))
        ok = ok and caught == 50
    _stamp(11, "mutation sensitivity 50 per example", ok, "; ".join(detail))


def test_criterion_12_identity_corpus(all_examples):
    ok = True
    for _, line in corpus_entries():
        ok = ok and parse(print_expr(parse(line))) == parse(line)
    for name, d in all_examples.items():
        rep = run_corpus(d)
        ok = ok and rep.ok
        ok = ok and not any(c.status == "fail" for c in rep.checks)
    _stamp(12, "identity corpus parses, round-trips, evaluates true", ok)
