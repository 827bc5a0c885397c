import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qhopf.cli import main
from qhopf import (Cocycle3, FiniteAbelianGroup, dpr_double, loads, sweedler,
                   verify)
from qhopf.rng import SplitMix64
from qhopf.scalars import PrimeField

from basis import change_basis
from capped import run_capped
from mutation import all_layers_of, mutate


@pytest.fixture(scope="module")
def dz2w_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "dz2w.json"
    rc = main(["example", "--kind", "dpr", "--group", "Z2", "--q", "1",
               "--field", "p:7", "--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def dz2_f5_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "dz2.json"
    rc = main(["example", "--kind", "dpr", "--group", "Z2", "--q", "0",
               "--field", "p:5", "--out", str(path)])
    assert rc == 0
    return str(path)


SRC = str(Path(__file__).resolve().parent.parent / "src")
QHOPF = [sys.executable, "-c",
         "import sys; from qhopf.cli import main; sys.exit(main())"]


def _process(args, timeout=None):
    """`qhopf args` run in a fresh interpreter."""
    return subprocess.run(QHOPF + args, capture_output=True, text=True,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=SRC))


def test_example_to_stdout(capsys):
    rc = main(["example", "--kind", "sweedler"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 4 and doc["field"] == {"kind": "rational"}


def test_verify_pass_json(dz2w_file, capsys):
    rc = main(["verify", dz2w_file, "--level", "qt", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["level"] == "qt"
    assert all(c["status"] == "pass" for c in out["checks"])
    assert len(out["datum"]) == 64  # content hash


def test_verify_default_level_ribbon(dz2_f5_file, capsys):
    rc = main(["verify", dz2_f5_file, "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["level"] == "ribbon"


def test_verify_broken_exits_one(dz2w_file, tmp_path, capsys):
    doc = json.load(open(dz2w_file))
    # flip one associator coefficient
    doc["phi"]["entries"][0][1] = "3"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["verify", str(bad), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    failing = [c for c in out["checks"] if c["status"] == "fail"]
    assert failing and "witness" in failing[0]


def test_verify_verbose_full_diff(dz2w_file, tmp_path, capsys):
    doc = json.load(open(dz2w_file))
    doc["R"]["entries"] = [[k, "2"] for k, _ in doc["R"]["entries"]]
    bad = tmp_path / "bad_r.json"
    bad.write_text(json.dumps(doc))
    rc = main(["verify", str(bad), "--level", "qt", "--format", "json",
               "--verbose"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    diffs = [c["witness"].get("diffs") for c in out["checks"]
             if c["status"] == "fail" and "witness" in c
             and c["witness"].get("diffs")]
    assert diffs and len(diffs[0]) > 1  # all differing coordinates reported


def test_verify_verbose_lists_every_central_diff(tmp_path, capsys):
    # v = x + gx on H4 fails to commute with g at two coordinates
    path = tmp_path / "h4v.json"
    assert main(["example", "--kind", "sweedler", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["v"] = {"arity": 1, "entries": [[[2], "1"], [[3], "1"]]}
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["verify", str(path), "--verbose", "--format", "json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert rc == 1
    central = [c for c in checks if c["name"] == "ribbon_central"][0]
    assert [w["index"] for w in central["witness"]["diffs"]] == [[2], [3]]


@pytest.mark.parametrize("value", ["p:7", None, 1, 2.5, [], True],
                         ids=["string", "null", "int", "float", "list", "bool"])
def test_verify_non_object_field_exits_two(dz2_f5_file, tmp_path, value,
                                           capsys):
    with open(dz2_f5_file) as fh:
        doc = json.load(fh)
    doc["field"] = value
    bad = tmp_path / "field.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "$.field" in err and "Traceback" not in err


def test_verify_malformed_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["verify", str(bad)]) == 2
    missing = tmp_path / "nope.json"
    assert main(["verify", str(missing)]) == 2


@pytest.mark.parametrize("text", ["[" * 100000, '{"dim": %s}' % ("7" * 5000)],
                         ids=["deep-nesting", "5000-digit-integer"])
def test_verify_json_past_the_parser_limits_exits_two(tmp_path, text):
    # json.loads raises RecursionError and the ValueError of the
    # interpreter's digit limit here, not JSONDecodeError
    path = tmp_path / "bad.json"
    path.write_text(text)
    res = _process(["verify", str(path)], timeout=30)
    assert res.returncode == 2
    assert res.stderr.startswith("input error: invalid JSON")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr


def test_out_of_memory_exits_two(tmp_path):
    # each side applies the coproduct to every leg of the unit's 256-entry
    # fourth power, and '#' concatenates the two 65,536-entry results: far
    # past the address-space cap
    path = tmp_path / "z4.json"
    assert main(["example", "--kind", "dpr", "--group", "Z4", "--q", "1",
                 "--field", "p:13", "--out", str(path)]) == 0
    res = run_capped(["check", "expr", str(path), "--expr",
                      "map[D,D,D,D](one_4) # map[D,D,D,D](one_4)"])
    assert res.returncode == 2
    assert res.stderr.startswith("out of memory")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr


@pytest.mark.parametrize("key, value", [
    ("dim", True), ("metadata", []), ("metadata", 0), ("metadata", ""),
    ("metadata", False)])
def test_verify_bool_dim_or_falsy_metadata_exits_two(tmp_path, key, value,
                                                     capsys):
    # K[Z1]/F5 has dim 1, so "dim": true would otherwise load and pass
    path = tmp_path / "kz1.json"
    assert main(["example", "--kind", "group", "--group", "Z1", "--field",
                 "p:5", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    assert "$.%s" % key in capsys.readouterr().err


BIG_PRIME = 2 ** 61 - 1


@pytest.mark.parametrize("command", ["verify", "example"])
def test_modulus_above_the_limit_exits_two_at_once(dz2_f5_file, tmp_path,
                                                   command):
    # the size is checked before the primality test, whose trial division
    # would take about 10^9 steps on this prime
    if command == "verify":
        doc = json.loads(Path(dz2_f5_file).read_text())
        doc["field"]["p"] = BIG_PRIME
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        args = ["verify", str(path)]
    else:
        args = ["example", "--kind", "dpr", "--field", "p:%d" % BIG_PRIME]
    res = _process(args, timeout=10)
    assert res.returncode == 2
    assert "too large" in res.stderr and "Traceback" not in res.stderr


def _node_paths(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict)
                           else enumerate(doc)):
            yield from _node_paths(value, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def dz2_f3_doc():
    z2 = FiniteAbelianGroup((2,))
    return dpr_double(z2, Cocycle3.trivial(z2, PrimeField(3))).to_json()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
    | st.sampled_from([0, 1, 2, 3, 4, -1, 2 ** 31 - 1, 2 ** 61 - 1])
    | st.floats() | st.text(max_size=6)
    | st.sampled_from(["0", "1", "-1", "2/3", "1/0", "prime", "rational"]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


def _fuzzed_exit_code(doc, path, pos, value, command):
    """(exit code, stderr) of `qhopf command` with the file path in place of
    None, on doc with node number pos replaced by value; an exception
    escaping main fails the test."""
    paths = list(_node_paths(doc))
    path.write_text(json.dumps(_replaced(doc, paths[pos % len(paths)], value)))
    rc, out, err = _run([str(path) if a is None else a for a in command])
    return rc, err


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(pos=st.integers(min_value=0), value=JSON_VALUES)
def test_fuzzed_node_gives_an_exit_code(dz2_f3_doc, mutant_path, pos, value):
    # one node of a valid datum replaced by any JSON value: verify exits 0,
    # 1 or 2, and no exception escapes main
    rc, err = _fuzzed_exit_code(dz2_f3_doc, mutant_path, pos, value,
                                ["verify", None])
    assert rc in (0, 1, 2), err


@pytest.mark.parametrize("command", [["check", "corpus", None],
                                     ["ribbon", "find", None],
                                     ["twist", None, "--seed", "0"]],
                         ids=["check-corpus", "ribbon-find", "twist"])
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(pos=st.integers(min_value=0), value=JSON_VALUES)
def test_fuzzed_node_gives_an_exit_code_in(dz2_f3_doc, mutant_path, command,
                                           pos, value):
    # the same for the commands that build on a verified datum
    rc, err = _fuzzed_exit_code(dz2_f3_doc, mutant_path, pos, value, command)
    assert rc in (0, 1, 2), err


STARTUP_PROBE = """
import contextlib, io, json, sys
from qhopf.cli import main
sink = io.StringIO()
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m in ("dataclasses", "fractions")
                               or m.startswith("qhopf"))]))
"""

# modules every command loads: the CLI, and `datum` with what it imports
BASE_MODULES = {"qhopf", "qhopf.cli", "qhopf.datum", "qhopf.errors",
                "qhopf.linalg", "qhopf.report", "qhopf.scalars",
                "qhopf.tensor"}


def _startup_modules(args):
    """(exit code, loaded qhopf modules, dataclasses and fractions) of
    `main(args)` run in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", STARTUP_PROBE] + args,
                         check=True, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC)).stdout
    code, modules = json.loads(out)
    return code, set(modules)


@pytest.fixture(scope="module")
def h4_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "h4.json"
    assert main(["example", "--kind", "sweedler", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def dense_h4_file(tmp_path_factory):
    """H4/Q in a basis whose products have several terms."""
    path = tmp_path_factory.mktemp("data") / "dense_h4.json"
    path.write_text(change_basis(sweedler(), seed=3, extra=4).dumps())
    return str(path)


@pytest.mark.parametrize("case, extra", [
    ("malformed", set()),
    ("verify_qt", {"qhopf.derived", "qhopf.dsl", "qhopf.trees", "fractions"}),
    ("twist_props", {"qhopf.derived", "qhopf.drinfeld", "qhopf.dsl",
                     "qhopf.rng", "qhopf.trees", "qhopf.twisting",
                     "fractions"}),
    ("verify_qt_prime", {"qhopf.derived", "qhopf.dsl", "qhopf.trees"}),
    ("verify_qt_dense", {"qhopf.derived", "qhopf.dsl", "qhopf.trees",
                         "fractions"}),
])
def test_commands_import_only_what_they_run(case, extra, h4_file, dz2w_file,
                                            dense_h4_file, tmp_path):
    # a command imports only the modules it runs: no examples or ribbon for
    # these, no dataclasses on the verify and twist paths, fractions only
    # for rational data (H4 is over Q, D^w(Z2) over F_7), and trees only
    # where a product of arity 1 or more runs, an inverse solves a system or
    # a sum is evaluated: not on a malformed file, which stops before any
    if case == "malformed":
        bad = tmp_path / "bad.json"
        bad.write_text('{"field": ')
        args, want_code = ["verify", str(bad)], 2
    elif case == "verify_qt":
        args, want_code = ["verify", h4_file, "--level", "qt"], 0
    elif case == "verify_qt_prime":
        args, want_code = ["verify", dz2w_file, "--level", "qt"], 0
    elif case == "verify_qt_dense":
        args, want_code = ["verify", dense_h4_file, "--level", "qt"], 0
    else:
        args, want_code = ["check", "twist-props", h4_file, "--seeds", "0"], 0
    code, modules = _startup_modules(args)
    assert code == want_code
    assert modules == BASE_MODULES | extra


def test_report_determinism(dz2w_file, capsys):
    main(["verify", dz2w_file, "--format", "json"])
    a = json.loads(capsys.readouterr().out)
    main(["verify", dz2w_file, "--format", "json"])
    b = json.loads(capsys.readouterr().out)
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


@pytest.mark.parametrize("field", ["p:5", "q"])
def test_verify_number_scalar_exits_two(dz2_f5_file, tmp_path, field, capsys):
    with open(dz2_f5_file) as fh:
        doc = json.load(fh)
    if field == "q":
        doc["field"] = {"kind": "rational"}
    doc["epsilon"][0] = int(doc["epsilon"][0])
    bad = tmp_path / "number_scalar.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 2
    assert "must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["product", "delta", "antipode", "phi"])
def test_verify_repeated_index_exits_two(dz2_f5_file, tmp_path, key, capsys):
    with open(dz2_f5_file) as fh:
        doc = json.load(fh)
    rows = doc[key]["entries"] if key == "phi" else doc[key]
    rows.append(rows[0])
    bad = tmp_path / "repeated.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "repeated" in err and "Traceback" not in err


def test_derive_element(dz2w_file, capsys):
    rc = main(["derive", dz2w_file, "--element", "u"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["arity"] == 1 and doc["entries"]


@pytest.mark.parametrize("element", ["u", "utilde"])
def test_derive_without_r_exits_two(tmp_path, element, capsys):
    path = tmp_path / "fz2w.json"
    assert main(["example", "--kind", "function", "--group", "Z2", "--q", "1",
                 "--field", "p:7", "--out", str(path)]) == 0
    assert main(["derive", str(path), "--element", element]) == 2
    assert "no R-matrix" in capsys.readouterr().err


def test_twist_emit_and_verify(dz2w_file, tmp_path, capsys):
    out = tmp_path / "twisted.json"
    rc = main(["twist", dz2w_file, "--seed", "5", "--emit", str(out)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["verify", str(out), "--level", "qt"])
    assert rc == 0


def test_twist_exhausted_gives_no_retry_advice(tmp_path, capsys):
    # no seed in 0..19 finds a twist of D(Z3)/F7, so the next seed is no
    # better advice than this one
    path = tmp_path / "dz3.json"
    assert main(["example", "--kind", "dpr", "--group", "Z3", "--field",
                 "p:7", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["twist", str(path), "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert "no invertible normalized twist found for seed 0 among its 6" in err
    assert "retry" not in err and "next seed" not in err


def test_twist_seed_env_default(dz2w_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QHOPF_SEED", "5")
    rc = main(["twist", dz2w_file])
    assert rc == 0
    via_env = capsys.readouterr().out
    rc = main(["twist", dz2w_file, "--seed", "5"])
    via_flag = capsys.readouterr().out
    assert via_env == via_flag


def test_ribbon_find(dz2_f5_file, capsys):
    rc = main(["ribbon", "find", dz2_f5_file, "--budget", "1000000"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["candidates"]) >= 1
    assert doc["region"] == "blockwise over 2 blocks, 50 points"


def test_ribbon_find_has_no_method_option(dz2_f5_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ribbon", "find", dz2_f5_file, "--method", "enumerate"])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err


def _ribbon_find_doc(path, capsys):
    assert main(["ribbon", "find", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["datum"], doc["elapsed_ms"]
    return doc


@pytest.mark.parametrize("blocks", [[[0, 2], [1, 3]], [[0, 1], [2]],
                                    [[0, 1], [1, 2, 3]], [[0, 1], [2, True]],
                                    "0123", None])
def test_ribbon_find_ignores_metadata_blocks(dz2_f5_file, tmp_path, blocks,
                                             capsys):
    # the search uses the blocks derived from the structure constants, so
    # wrong or deleted metadata blocks change nothing
    with open(dz2_f5_file) as fh:
        doc = json.load(fh)
    assert doc["metadata"]["blocks"] == [[0, 1], [2, 3]]
    if blocks is None:
        del doc["metadata"]["blocks"]
    else:
        doc["metadata"]["blocks"] = blocks
    other = tmp_path / "other_blocks.json"
    other.write_text(json.dumps(doc))
    assert (_ribbon_find_doc(other, capsys)
            == _ribbon_find_doc(dz2_f5_file, capsys))


def test_ribbon_check(dz2_f5_file, capsys):
    assert main(["ribbon", "check", dz2_f5_file]) == 0


def test_ribbon_check_missing_v(dz2w_file):
    assert main(["ribbon", "check", dz2w_file]) == 2


def test_check_expr(dz2w_file, capsys):
    assert main(["check", "expr", dz2w_file, "--expr", "u == ucheck"]) == 0
    capsys.readouterr()
    assert main(["check", "expr", dz2w_file, "--expr", "u == inv(u)"]) == 1


def test_check_expr_parses_an_identity_once(dz2w_file, monkeypatch):
    from qhopf import dsl
    parses = []
    real = dsl._Parser.parse

    def parse(self):
        parses.append(self)
        return real(self)
    monkeypatch.setattr(dsl._Parser, "parse", parse)
    rc, out, _ = _run(["check", "expr", dz2w_file, "--expr", "u == ucheck"])
    assert rc == 0 and out == "PASS  u == ucheck\n"
    assert len(parses) == 1


def test_check_expr_twist_constant_is_unknown(dz2w_file):
    # no command binds a twist, so the language has no T or Tinv
    res = _process(["check", "expr", dz2w_file, "--expr", "T * Tinv == one_2"])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "unknown constant 'T'" in res.stderr


def test_check_expr_term_prints_tensor(dz2w_file, capsys):
    rc = main(["check", "expr", dz2w_file, "--expr", "map[eps,id](R)"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["arity"] == 1


@pytest.mark.parametrize("example, expr", [
    (["--kind", "dpr", "--group", "Z2", "--q", "1", "--field", "p:7"],
     "1/2 * one_1 == 4 * one_1"),
    (["--kind", "sweedler"], "1/0 * one_1 == one_1"),
], ids=["fraction-over-prime-field", "zero-denominator-over-Q"])
def test_check_expr_bad_scalar_literal_exits_two(example, expr, tmp_path):
    # a literal the datum's field cannot read is an input error at its
    # position, not an escaped ValueError or ZeroDivisionError
    path = tmp_path / "d.json"
    assert _run(["example"] + example + ["--out", str(path)])[0] == 0
    res = _process(["check", "expr", str(path), "--expr", expr])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("input error: bad scalar")
    assert "at line 1, column 1" in res.stderr


@pytest.mark.parametrize("expr", [
    "flip(R,0,²)", "basis(²)", "flip(R,0,%s)" % ("1" * 5000),
    "(" * 2000 + "R" + ")" * 2000, " * ".join(["R"] * 3000),
], ids=["superscript-index", "superscript-basis", "5000-digit-index",
        "2000-parentheses", "3000-factors"])
def test_check_expr_hostile_text_exits_two(dz2w_file, expr):
    rc, out, err = _run(["check", "expr", dz2w_file, "--expr", expr])
    assert rc == 2 and not out
    assert err.startswith(("input error:", "error:"))


@pytest.mark.parametrize("args", [
    ["verify", "DIR"],
    ["verify", "BYTES"],
    ["check", "corpus", "FILE", "--corpus", "DIR"],
    ["check", "corpus", "FILE", "--corpus", "BYTES"],
    ["check", "corpus", "FILE", "--corpus", "TERM"],
], ids=["verify-directory", "verify-not-utf8", "corpus-directory",
        "corpus-not-utf8", "corpus-line-not-an-identity"])
def test_unreadable_input_exits_two(dz2w_file, tmp_path, args):
    (tmp_path / "bytes").write_bytes(b"\xff")
    (tmp_path / "term").write_text("R\n")
    paths = {"DIR": str(tmp_path), "BYTES": str(tmp_path / "bytes"),
             "TERM": str(tmp_path / "term"), "FILE": dz2w_file}
    rc, out, err = _run([paths.get(a, a) for a in args])
    assert rc == 2 and not out
    assert err.startswith("input error: ") and err.count("\n") == 1
    if "BYTES" in args:
        # the message names the file that is not UTF-8
        assert err == ("input error: %s: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte\n" % paths["BYTES"])


def test_closed_stdout_exits_two_quietly(tmp_path):
    # the twist of D^w(Z4)/F13 prints about 230 KB, more than a pipe holds,
    # so the command is still writing when the reader closes its end
    path = tmp_path / "z4.json"
    assert _run(["example", "--kind", "dpr", "--group", "Z4", "--q", "1",
                 "--field", "p:13", "--out", str(path)])[0] == 0
    proc = subprocess.Popen(QHOPF + ["twist", str(path), "--seed", "0"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err == b""


def test_check_corpus(dz2w_file, capsys):
    assert main(["check", "corpus", dz2w_file]) == 0


def test_check_corpus_singular_inverse_fails_its_line(dz2w_file, tmp_path):
    # basis(1) of D^w(Z2) has no inverse: that line fails with the reason,
    # and the next line still runs
    corpus = tmp_path / "c.txt"
    corpus.write_text("inv(basis(1)) == one_1\n"
                      "map[eps](alpha) * map[eps](beta) == 1\n")
    res = _process(["check", "corpus", dz2w_file, "--corpus", str(corpus),
                    "--format", "json"])
    assert res.returncode == 1, res.stderr
    checks = json.loads(res.stdout)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [
        ("inv(basis(1)) == one_1", "fail"),
        ("map[eps](alpha) * map[eps](beta) == 1", "pass")]
    assert checks[0]["witness"] == {
        "reason": "left-multiplication system is singular"}


def test_check_expr_singular_scalar_inverse_fails_its_line(dz2w_file):
    # the scalar 0 has no inverse, like a singular tensor: the identity
    # fails with the reason instead of ending the command
    res = _process(["check", "expr", dz2w_file, "--expr", "inv(0) == 1"])
    assert res.returncode == 1, res.stderr
    assert res.stderr == ""
    assert res.stdout == ("FAIL  inv(0) == 1\n"
                          "  witness: {'reason': 'inverse of 0 in F_7'}\n")


@pytest.mark.parametrize("args, text", [
    (["derive", "{fz2w}", "--element", "u"], "error: datum has no R-matrix"),
    (["ribbon", "find", "{fz2w}"], "error: datum has no R-matrix"),
    (["check", "twist-props", "{fz2w}", "--seeds", "0"],
     "error: datum has no R-matrix"),
    (["check", "expr", "{fz2w}", "--expr", "Rinv"],
     "error: datum has no R-matrix"),
    (["verify", "{fz2w}", "--level", "qt"], "error: datum has no R-matrix"),
    (["verify", "{dz2w}", "--level", "ribbon"],
     "error: datum has no ribbon candidate"),
    (["ribbon", "check", "{dz2w}"],
     "input error: datum has no ribbon candidate"),
    (["check", "ribbon-theorem", "{dz2w}"],
     "input error: datum has no ribbon candidate"),
], ids=["derive", "ribbon-find", "twist-props", "expr", "verify-qt",
        "verify-ribbon", "ribbon-check", "ribbon-theorem"])
def test_missing_part_has_one_text(dz2w_file, tmp_path, args, text, capsys):
    # every command names a missing R-matrix or ribbon candidate with the
    # text that a skipped identity gives as its reason
    fz2w = tmp_path / "fz2w.json"
    assert main(["example", "--kind", "function", "--group", "Z2", "--q", "1",
                 "--field", "p:7", "--out", str(fz2w)]) == 0
    capsys.readouterr()
    args = [a.format(fz2w=fz2w, dz2w=dz2w_file) for a in args]
    assert main(args) == 2
    assert capsys.readouterr().err == text + "\n"


def test_ribbon_find_over_q_names_the_field_not_a_budget(h4_file):
    res = _process(["ribbon", "find", h4_file])
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: ribbon search needs a finite field\n"


def test_jobs_option_is_gone(dz2w_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "corpus", dz2w_file, "--jobs", "4"])
    assert exc.value.code == 2


def test_check_twist_props(dz2w_file, capsys):
    rc = main(["check", "twist-props", dz2w_file, "--seeds", "0..2",
               "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert any(c["name"].startswith("seed 2:") for c in doc["checks"])


def test_check_ribbon_theorem(dz2_f5_file):
    assert main(["check", "ribbon-theorem", dz2_f5_file]) == 0


def test_usage_error():
    assert main([]) == 2


def test_emitted_twist_round_trips(dz2w_file, tmp_path, capsys):
    out = tmp_path / "t.json"
    main(["twist", dz2w_file, "--seed", "1", "--emit", str(out)])
    capsys.readouterr()
    d = loads(out.read_text())
    assert d.R is not None


@pytest.mark.parametrize("example, reason", [
    (["--kind", "sweedler"], "the zero tensor has no inverse"),
    (["--kind", "dpr", "--group", "Z3", "--q", "1", "--field", "p:7"],
     "left-multiplication system is singular")])
def test_verify_singular_associator_exits_one(example, reason, tmp_path,
                                              capsys):
    path = tmp_path / "d.json"
    assert main(["example"] + example + ["--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["phi"]["entries"][0][1] = "0"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["verify", str(path), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["checks"][-1] == {"name": "phi_invertible", "status": "fail",
                                 "witness": {"reason": reason}}


def _run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(args)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "mutant.json"


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(base=st.sampled_from(["sw", "dz2_f5"]), layer_pos=st.integers(0, 7),
       seed=st.integers(0, 2 ** 32 - 1))
def test_single_coefficient_mutation_gives_a_verdict(sw, dz2_f5, mutant_path,
                                                     base, layer_pos, seed):
    # exit 1 with a failing check or 0 with all passing, whichever layer
    # the mutation hits; never exit 2 and never an escaped exception
    d = {"sw": sw, "dz2_f5": dz2_f5}[base]
    layers = all_layers_of(d)
    bad = mutate(d, layers[layer_pos % len(layers)], SplitMix64(seed))
    mutant_path.write_text(bad.dumps())
    rc, out, err = _run(["verify", str(mutant_path), "--format", "json"])
    assert rc in (0, 1), err
    checks = json.loads(out)["checks"]
    assert (rc == 1) == any(c["status"] == "fail" for c in checks)
    # a witness names a coordinate of the compared tensors with two field
    # values, or gives a reason
    for w in (c["witness"] for c in checks if c["status"] == "fail"):
        if "reason" in w:
            assert list(w) == ["reason"] and isinstance(w["reason"], str), w
        else:
            assert all(isinstance(i, int) and 0 <= i < bad.dim
                       for i in w["index"]), w
            bad.field.parse(w["lhs"])
            bad.field.parse(w["rhs"])


@pytest.mark.parametrize("args", [
    ["check", "twist-props", "FILE", "--seeds", "x"],
    ["check", "twist-props", "FILE", "--seeds", "3..1"],
    ["check", "twist-props", "FILE", "--seeds", "1.."],
    ["example", "--kind", "dpr", "--field", "p:abc"],
    ["example", "--kind", "dpr", "--field", "p:4"],
    ["example", "--kind", "dpr", "--group", "Z0"],
    ["QHOPF_SEED=abc", "twist", "FILE"]])
def test_bad_arguments_exit_two(dz2w_file, args, monkeypatch, capsys):
    # leading NAME=VALUE items set environment variables, as in a shell
    while "=" in args[0]:
        name, _, value = args[0].partition("=")
        monkeypatch.setenv(name, value)
        args = args[1:]
    args = [dz2w_file if a == "FILE" else a for a in args]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:") and not captured.out


def _failing(out):
    """Names of the failing checks in a JSON or text report."""
    try:
        return [c["name"] for c in json.loads(out)["checks"]
                if c["status"] == "fail"]
    except ValueError:
        return [line.split()[1] for line in out.splitlines()
                if line.startswith("FAIL ")]


# every command that runs builders, with FILE for the datum; the first two
# need a ribbon candidate in the file
GATED = [
    ["ribbon", "check", "FILE", "--format", "json"],
    ["check", "ribbon-theorem", "FILE", "--format", "json"],
    ["check", "corpus", "FILE", "--format", "json"],
    ["ribbon", "find", "FILE", "--format", "json"],
    ["derive", "FILE", "--element", "F"],
    ["derive", "FILE", "--element", "uhat"],
    ["derive", "FILE", "--element", "utilde"],
    ["twist", "FILE"],
    ["check", "twist-props", "FILE", "--seeds", "0..0", "--format", "json"],
]


@pytest.mark.parametrize("args", GATED, ids=[
    "ribbon-check", "ribbon-theorem", "corpus", "ribbon-find", "derive-F",
    "derive-uhat", "derive-utilde", "twist", "twist-props"])
def test_builder_commands_verify_first(dz2_f5, tmp_path, args):
    # the alpha mutant breaks the antipode layer: every builder command
    # stops at the failing checks of verify
    path = tmp_path / "alpha.json"
    path.write_text(mutate(dz2_f5, "alpha", SplitMix64(0)).dumps())
    rc, out, err = _run([str(path) if a == "FILE" else a for a in args])
    assert rc == 1, err
    assert _failing(out)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(base=st.sampled_from(["sw", "dz2_f5"]), layer_pos=st.integers(0, 7),
       seed=st.integers(0, 2 ** 32 - 1), command_pos=st.integers(0, 8))
def test_mutants_fail_builder_commands_like_verify(sw, dz2_f5, mutant_path,
                                                  base, layer_pos, seed,
                                                  command_pos):
    # whenever verify at the layer the builders rest on fails, the command
    # exits 1 with a failing check; an exception escaping main fails the test
    d = {"sw": sw, "dz2_f5": dz2_f5}[base]
    layers = all_layers_of(d)
    bad = loads(mutate(d, layers[layer_pos % len(layers)],
                       SplitMix64(seed)).dumps())
    mutant_path.write_text(bad.dumps())
    commands = GATED if bad.v is not None else GATED[2:]
    args = commands[command_pos % len(commands)]
    rc, out, err = _run([str(mutant_path) if a == "FILE" else a for a in args])
    if not verify(bad, level="qt" if bad.R is not None else "hopf").ok:
        assert rc == 1, err
        assert _failing(out)


def _kernel_calls(monkeypatch, args):
    """(calls of mult and of apply_legs, output) of `qhopf args`, counted
    through every module that binds the two kernels."""
    import qhopf.tensor as te
    from qhopf import datum, derived, drinfeld, dsl, ribbon, twisting
    counts = {"mult": 0, "apply_legs": 0}
    for name in counts:
        real = getattr(te, name)

        def counted(*a, _name=name, _real=real):
            counts[_name] += 1
            return _real(*a)
        for mod in (te, datum, derived, drinfeld, dsl, ribbon, twisting):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    rc, out, _ = _run(args)
    monkeypatch.undo()
    assert rc == 0
    return counts, out


def test_kernel_calls_are_pinned(monkeypatch, tmp_path, dz3w, sw):
    # a value that a line reads once is freed when its parent has used it,
    # and a value read again is kept: no product or leg map is computed
    # twice, so these counts are those of a run that kept every value
    from qhopf import random_twist, twist
    runs = [(["verify"], twist(dz3w, random_twist(dz3w, 0)), 297, 190),
            (["check", "corpus"], dz3w, 416, 314),
            (["check", "corpus"], sw, 161, 174)]
    for command, d, mults, legs in runs:
        path = tmp_path / "d.json"
        path.write_text(d.dumps())
        counts, out = _kernel_calls(monkeypatch, command + [str(path)])
        assert counts == {"mult": mults, "apply_legs": legs}, command
        assert "0 failing" in out
