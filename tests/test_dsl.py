import pytest

from qhopf.dsl import (Eq, Inv, MapLegs, Name, Prod, check_line,
                       corpus_lines, evaluate, infer_arity, parse,
                       print_expr, run_corpus)
from qhopf.errors import ArityError, ParseError, UndefinedName


def test_parse_counit_line():
    e = parse("map[eps,id](R) == one_1")
    assert isinstance(e, Eq)
    assert e.left == MapLegs(("eps", "id"), Name("R"))
    assert infer_arity(e) == 1


def test_parse_antipode_r_line():
    e = parse("map[S,S](R) == Fp * R * inv(F)")
    assert isinstance(e, Eq)
    assert e.right == Prod("*", Prod("*", Name("Fp"), Name("R")),
                           Inv(Name("F")))


def test_arity_mismatch_vs_concat():
    with pytest.raises(ArityError):
        parse("R * alpha")
    e = parse("R # R")
    assert infer_arity(e) == 4


def test_parse_errors_have_position():
    with pytest.raises(ParseError) as err:
        parse("map[eps,id](R")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse("flip(R, 0)")
    with pytest.raises(ParseError):
        parse("map[bogus](R)")
    with pytest.raises(UndefinedName):
        parse("nonsense * R")


def test_flip_arity_validation():
    with pytest.raises(ArityError):
        parse("flip(alpha, 0, 1)")
    with pytest.raises(ArityError):
        parse("map[eps](R)")


def test_printer_round_trip_corpus():
    lines = list(corpus_lines())
    assert len(lines) >= 40
    for line in lines:
        ast = parse(line)
        assert parse(print_expr(ast)) == ast


def test_print_basic_forms():
    assert print_expr(parse("u == ucheck")) == "u == ucheck"
    src = "(one_1 # R) * one_3"
    assert parse(print_expr(parse(src))) == parse(src)
    src = "flip(map[S,S](map[D](basis(i))),0,1)"
    assert parse(print_expr(parse(src))) == parse(src)


def test_evaluate_unit_product(kz2):
    t = evaluate(parse("one_2 * one_2"), kz2)
    assert t == kz2.unit_tensor(2)


def test_evaluate_scalar_coercion(kz2):
    ok, diff = evaluate(parse("map[eps](alpha) * map[eps](beta) == 1"), kz2)
    assert ok and diff is None


def test_evaluate_basis_binding(kz2):
    ok, _ = evaluate(parse("map[eps,id](map[D](basis(i))) == basis(i)"),
                     kz2, bindings={"i": 1})
    assert ok
    with pytest.raises(UndefinedName):
        evaluate(parse("basis(i)"), kz2)


def test_evaluate_undefined_r(fz2w):
    with pytest.raises(UndefinedName):
        evaluate(parse("map[eps,id](R)"), fz2w)


def test_u_equals_ucheck_everywhere(sw, dz2w, dz3w):
    for d in (sw, dz2w, dz3w):
        ok, diff = evaluate(parse("u == ucheck"), d)
        assert ok, diff


def test_antipode_r_identity_on_double(dz2w):
    ok, diff = evaluate(parse("map[S,S](R) == Fp * R * inv(F)"), dz2w)
    assert ok, diff


def test_check_line_skips_missing_constants(fz2w):
    status, witness = check_line(fz2w, "map[eps,id](R) == one_1")
    assert status == "skipped"


def test_check_line_expands_basis(dz2w):
    status, witness = check_line(
        dz2w, "map[S](map[S](basis(i))) == u * basis(i) * inv(u)")
    assert status == "pass"


def test_run_corpus_all_examples(kz2, fz2w, fz3w, sw, dz2_f5, dz2w, dz3, dz3w):
    for d in (kz2, fz2w, fz3w, sw, dz2_f5, dz2w, dz3, dz3w):
        rep = run_corpus(d)
        assert rep.ok, [(c.name, c.witness) for c in rep.failures()]


def test_corpus_detects_breakage(dz2w):
    from mutation import mutate
    from qhopf.rng import SplitMix64
    bad = mutate(dz2w, "R", SplitMix64(8))
    try:
        rep = run_corpus(bad)
        ok = rep.ok
    except Exception:
        ok = False
    assert not ok
