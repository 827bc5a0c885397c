import argparse
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qhopf.dsl
import qhopf.ribbon
from qhopf import load, random_twist, twist, verify
from qhopf.cli import build_parser
from qhopf.datum import LEGS
from qhopf.dsl import (CONSTANTS, MAX_TOKENS, Basis, Eq, Inv, MapLegs, Name,
                       Prod, check_line, check_named, corpus_entries,
                       evaluate, infer_arity, parse, print_expr, run_corpus)
from qhopf.errors import (ArityError, Exhausted, ParseError, QhopfError,
                          UndefinedName)
from qhopf.rng import SplitMix64
from qhopf.scalars import PrimeField, RationalField

from mutation import all_layers_of, mutate


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


@pytest.mark.parametrize("src, field, where", [
    ("map[eps,id](R\n\t", None, (2, 2)),
    ("one_1 ==\n\t1/2 * one_1", PrimeField(7), (2, 2)),
    ("R *\n\n\t\tR )", None, (3, 5)),
    ("map[eps,\n bogus](R)", None, (2, 2)),
    ("map[eps,id](R)\n  == one_1 $", None, (2, 12)),
    ("flip(R,\r\n0,\t\x0b1 x", None, (2, 7)),
], ids=["end-of-text", "bad-scalar", "trailing-input", "unknown-leg",
        "unexpected-character", "other-whitespace"])
def test_parse_errors_have_position_on_multi_line_input(src, field, where):
    # a newline starts a line; any other whitespace, a tab included, is one
    # column
    with pytest.raises(ParseError) as err:
        parse(src, field)
    assert (err.value.line, err.value.column) == where


def test_text_over_the_token_bound_is_a_parse_error():
    # the bound keeps every walk of the tree within the recursion limit
    src = "inv(R)" + " *\n R" * 126
    assert MAX_TOKENS == 256 and infer_arity(parse(src)) == 2
    with pytest.raises(ParseError) as err:
        parse(src + " *\n R")
    assert (err.value.line, err.value.column) == (127, 4)
    deep = "(" * 127 + "R" + ")" * 127
    assert parse(print_expr(parse(deep))) == Name("R")


GRAMMAR_TEXT = st.lists(st.sampled_from(
    list("==*#()[],/-_ \t\n0123456789Rux²α") + [
        "inv(", "flip(", "map[", "basis(", "eps", "id", "D", "S", "Phi",
        "one_1", "one_2", "alpha", "i"]), max_size=40).map("".join)


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(GRAMMAR_TEXT, st.sampled_from([None, PrimeField(7), RationalField()]))
def test_parse_raises_only_its_own_errors(src, field):
    try:
        parse(src, field)
    except (ParseError, ArityError, UndefinedName):
        pass


def test_flip_arity_validation():
    with pytest.raises(ArityError):
        parse("flip(alpha, 0, 1)")
    with pytest.raises(ArityError):
        parse("map[eps](R)")


def test_printer_round_trip_corpus():
    lines = [line for _, line in corpus_entries()]
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
    status, witness = check_line(kz2, "map[eps](alpha) * map[eps](beta) == 1")
    assert status == "pass" and witness is None


def test_evaluate_basis_binding(kz2):
    status, _ = check_line(kz2, "map[eps,id](map[D](basis(i))) == basis(i)")
    assert status == "pass"
    with pytest.raises(UndefinedName):
        evaluate(parse("basis(i)"), kz2)


def test_evaluate_undefined_r(fz2w):
    with pytest.raises(UndefinedName):
        evaluate(parse("map[eps,id](R)"), fz2w)


def test_u_equals_ucheck_everywhere(sw, dz2w, dz3w):
    for d in (sw, dz2w, dz3w):
        status, witness = check_line(d, "u == ucheck")
        assert status == "pass", witness


def test_antipode_r_identity_on_double(dz2w):
    status, witness = check_line(dz2w, "map[S,S](R) == Fp * R * inv(F)")
    assert status == "pass", witness


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


def test_the_shipped_corpus_is_parsed_once(dz2w, monkeypatch, tmp_path):
    # run_corpus and verify read the shipped lines from one table, parsed on
    # first use; a corpus file is parsed on every call
    run_corpus(dz2w)
    tokenized = []
    real = qhopf.dsl._tokenize

    def spy(src):
        tokenized.append(src)
        return real(src)
    monkeypatch.setattr(qhopf.dsl, "_tokenize", spy)
    assert run_corpus(dz2w).ok and verify(load(dz2w.to_json())).ok
    assert tokenized == []
    path = tmp_path / "corpus.txt"
    path.write_text("one_1 == one_1\n")
    for _ in range(2):
        run_corpus(dz2w, path=str(path))
    assert tokenized == ["one_1 == one_1"] * 2


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


def test_scalar_literal_the_field_cannot_read_is_a_parse_error():
    src = "one_1 == 1/2 * one_1"
    assert parse(src, RationalField()) == parse(src)
    with pytest.raises(ParseError) as err:
        parse(src, PrimeField(7))
    assert (err.value.line, err.value.column) == (1, 10)
    with pytest.raises(ParseError):
        parse("-3/0 * one_1", RationalField())


def test_corpus_tags_name_checks_not_report_lines(dz2w):
    entries = list(corpus_entries())
    assert ("pentagon", "map[id,id,D](Phi) * map[D,id,id](Phi) == "
            "(one_1 # Phi) * map[id,D,id](Phi) * (Phi # one_1)") in entries
    assert [n for n, _ in entries].count("counitality") == 2
    names = [c.name for c in run_corpus(dz2w).checks]
    assert names == [line for _, line in entries]


def test_check_named_unknown_name_raises(dz2w):
    with pytest.raises(KeyError):
        check_named(dz2w, ("pentagon", "no_such_check"))


def test_check_named_runs_every_line_of_a_name(dz2w):
    rep = check_named(dz2w, ("counitality", "counit_associator_property"))
    assert [(c.name, c.status) for c in rep.checks] == [
        ("counitality", "pass"), ("counit_associator_property", "pass")]


def test_every_requested_name_tags_a_corpus_line(dz2_f5, monkeypatch):
    # verify up to the ribbon layer requests every name that verify,
    # is_ribbon and the ribbon theorem run
    requested = []
    real = qhopf.dsl.check_named

    def spy(d, names, *args, **kw):
        requested.extend(names)
        return real(d, names, *args, **kw)

    monkeypatch.setattr(qhopf.dsl, "check_named", spy)
    monkeypatch.setattr(qhopf.ribbon, "check_named", spy)
    assert verify(dz2_f5, level="ribbon").ok
    tagged = {name for name, _ in corpus_entries() if name}
    assert {"pentagon", "hexagon_left", "ribbon_coproduct",
            "ribbon_square_is_uhat_ucheck_inv"} <= set(requested)
    assert set(requested) <= tagged


def test_constant_and_basis_variable_of_one_name(sw, dz2w):
    # u names a constant and, inside basis(u), the basis variable: the two
    # must stay distinct subterms
    assert Name("u") != Basis("u")
    for d in (sw, dz2w):
        assert check_line(
            d, "map[S](map[S](basis(u))) == u * basis(u) * inv(u)") == (
            "pass", None)
        assert check_line(d, "u * basis(u) == basis(u) * u") == check_line(
            d, "u * basis(i) == basis(i) * u")


def test_singular_inverse_in_a_named_line_fails_the_check(dz2_f5, kz2):
    # a basis idempotent other than 1 has no inverse
    rep = check_named(dz2_f5, ("ribbon_inverse_square_is_u_Su",),
                      consts={"v": dz2_f5.basis(0)})
    assert rep.to_dict() == [{"name": "ribbon_inverse_square_is_u_Su",
                              "status": "fail",
                              "witness": {"reason": rep.checks[0].witness[
                                  "reason"]}}]
    from mutation import mutate
    from qhopf import check_F_compat
    from qhopf.rng import SplitMix64
    bad = mutate(kz2, "S", SplitMix64(38))  # S(1) = 0, so F = 0
    checks = {c.name: c for c in check_F_compat(bad).checks}
    assert checks["delta_is_coproduct_beta_times_F_inv"].witness == {
        "reason": "the zero tensor has no inverse"}


def _data_of(d):
    """d, its seed-0 twist where one exists, and one mutant per layer."""
    out = [d]
    try:
        out.append(twist(d, random_twist(d, 0)))
    except Exhausted:
        pass
    return out + [mutate(d, layer, SplitMix64(0)) for layer in all_layers_of(d)]


def _named_of(d, tags, limit):
    """check_named of each tag on its own, or the error it raises."""
    out = []
    for tag in tags:
        try:
            out.append(check_named(d, (tag,)).to_dict(limit))
        except QhopfError as exc:
            out.append(repr(exc))
    return out


@pytest.mark.parametrize("name", ["kz2", "fz2w", "fz3w", "sw", "dz2_f5", "dz2",
                                  "dz2w", "dz3", "dz3w"])
def test_kept_verdicts_change_no_report(name, request):
    # a datum that has been through verify, and then through run_corpus,
    # reports what a freshly loaded one does, at both witness limits
    tags = list(dict.fromkeys(tag for tag, _ in corpus_entries() if tag))
    for d in _data_of(request.getfixturevalue(name)):
        doc = d.to_json()
        used = load(doc)
        verify(used)
        got = [run_corpus(used).to_dict()] + [
            _named_of(used, tags, limit) for limit in (1, None)]
        fresh = [run_corpus(load(doc)).to_dict()] + [
            _named_of(load(doc), tags, limit) for limit in (1, None)]
        assert got == fresh


def test_a_kept_verdict_renders_at_either_detail(dz3w, monkeypatch):
    # verify keeps one verdict per identity line, a failing one with its
    # case: its named checks then render at either witness detail without
    # evaluating a line again, and as on a freshly loaded datum
    doc = mutate(dz3w, "delta", SplitMix64(3)).to_json()
    used = load(doc)
    tags = {tag for tag, _ in corpus_entries() if tag}
    names = [c.name for c in verify(used).checks if c.name in tags]
    evaluated = []
    real = qhopf.dsl._cases

    def spy(p, d, consts):
        evaluated.append(p)
        return real(p, d, consts)
    monkeypatch.setattr(qhopf.dsl, "_cases", spy)
    got = check_named(used, names)
    full = got.to_dict(None)
    assert evaluated == []
    assert any("diffs" in c.get("witness", {}) for c in full)
    monkeypatch.undo()
    fresh = check_named(load(doc), names)
    assert full == fresh.to_dict(None)
    assert got.to_dict() == fresh.to_dict()


def test_a_verdict_under_a_bound_constant_is_not_kept(dz2_f5):
    # the candidate v of a ribbon check is bound, not read from the datum:
    # each candidate gets its own verdict, in either order
    d = load(dz2_f5.to_json())
    names = ("ribbon_inverse_square_is_u_Su",)
    for v, status in ((d.v, "pass"), (d.basis(0), "fail"), (d.v, "pass")):
        assert check_named(d, names, consts={"v": v}).checks[0].status == status


def test_the_corpus_does_not_rerun_its_gate(dz2w, monkeypatch):
    # after a passing gate, run_corpus evaluates no line whose tag names a
    # check that passed there, and a second verify evaluates no line at all
    d = load(dz2w.to_json())
    gate = verify(d, level="qt")
    assert gate.ok
    passed = {c.name for c in gate.checks}
    gated = {parse(line) for tag, line in corpus_entries() if tag in passed}
    evaluated = []
    real = qhopf.dsl._sides

    def spy(eq, run):
        evaluated.append(eq)
        return real(eq, run)
    monkeypatch.setattr(qhopf.dsl, "_sides", spy)
    run_corpus(d)
    assert evaluated
    assert [print_expr(e) for e in gated & set(evaluated)] == []
    evaluated.clear()
    assert verify(d).to_dict() == gate.to_dict()
    assert evaluated == []


def test_readme_lists_the_tables():
    # the README's constant list and `leg :=` line name the keys of the two
    # tables, and every `derive --element` choice is a named constant
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = readme.split("Named constants:", 1)[1].split(";", 1)[0]
    assert re.findall(r"`(\w+)`", listed) == list(CONSTANTS)
    leg_line = re.search(r"^leg\s*:=(.*)$", readme, re.M).group(1)
    assert [w.strip() for w in leg_line.split("|")] == list(LEGS)
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    element = next(a for a in commands["derive"]._actions
                   if a.dest == "element")
    assert set(element.choices) <= set(CONSTANTS)
