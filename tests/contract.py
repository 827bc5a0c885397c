"""The report contract: one fingerprint per (datum, command).

A fingerprint is the exit code of `qhopf.cli.main` and a SHA-256 of its
stdout and of its stderr, with the run-dependent parts masked first: the
`elapsed_ms` values of JSON reports, the "(N ms)" of text summaries and the
directory the data files are written to.  Every datum is built in process
and written to that directory.

    PYTHONPATH=src python tests/contract.py

rewrites tests/contract.json; tests/test_contract.py reads it and reruns
each command.  A change that moves a fingerprint on purpose names each
changed pair and its reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

from qhopf import (FiniteAbelianGroup, cocycle_for, dpr_double,
                   function_algebra, group_algebra, random_twist, sweedler,
                   twist)
from qhopf.cli import main
from qhopf.errors import QhopfError
from qhopf.rng import SplitMix64
from qhopf.scalars import PrimeField

from basis import REBASED, SCALED, rebased, scaled
from mutation import all_layers_of, merge_blocks, mutate

PATH = Path(__file__).resolve().parent / "contract.json"

VERIFY = [["verify", None],
          ["verify", None, "--format", "json"],
          ["verify", None, "--verbose", "--format", "json"]]

TWIST = [["twist", None, "--seed", "0"]]


def commands(elements):
    """Every command of the contract, deriving only the named elements."""
    return (VERIFY
            + [["check", "corpus", None, "--format", "json"],
               ["check", "twist-props", None, "--seeds", "0..1", "--format",
                "json"],
               ["ribbon", "find", None, "--budget", "10000"]]
            + [["derive", None, "--element", e] for e in elements]
            + TWIST)


# Each command verifies the datum first, which is most of its time on the
# twisted and rebased data, so those derive two of the eight elements: u,
# the Drinfel'd element, and Finv, which solves a system.  A mutant fails
# the verify gate of every builder command, which then prints the gate's
# report (tests/test_cli.py checks that for each builder command), so
# mutants run `verify` and one builder command only.
COMMANDS = commands(["gamma", "delta", "F", "Finv", "u", "uhat", "ucheck",
                     "utilde"])
DERIVED_COMMANDS = commands(["u", "Finv"])
MUTANT_COMMANDS = VERIFY + TWIST


def examples():
    """The built-in examples, by name."""
    f5, f7 = PrimeField(5), PrimeField(7)
    z2, z3 = FiniteAbelianGroup((2,)), FiniteAbelianGroup((3,))
    return {
        "h4_q": sweedler(),
        "d_z2_f5": dpr_double(z2, cocycle_for(z2, 0, f5)),
        "dw_z2_f7": dpr_double(z2, cocycle_for(z2, 1, f7)),
        "dw_z3_f7": dpr_double(z3, cocycle_for(z3, 1, f7)),
        "fn_z2_q1_f7": function_algebra(z2, cocycle_for(z2, 1, f7)),
        "k_z2xz2_f5": group_algebra(FiniteAbelianGroup((2, 2)), f5),
    }


def data():
    """{name: (file text, commands)} of every datum of the contract."""
    base = examples()
    out = {name: (d.dumps(), COMMANDS) for name, d in base.items()}
    for name, text in malformed(base["d_z2_f5"].to_json()).items():
        out[name] = (text, COMMANDS)
    for name, d in base.items():
        try:
            out[name + "~twist0"] = (twist(d, random_twist(d, 0)).dumps(),
                                     DERIVED_COMMANDS)
        except QhopfError:
            pass  # no seed-0 twist: `twist --seed 0` records the exit code
    for name in REBASED:
        out["rebased:" + name] = (rebased(name).dumps(), DERIVED_COMMANDS)
    for name in SCALED:
        out["scaled:" + name] = (scaled(name)[0].dumps(), DERIVED_COMMANDS)
    for name, d in base.items():
        for layer in all_layers_of(d):
            for seed in (0, 1):
                m = mutate(d, layer, SplitMix64(seed))
                out["%s~%s%d" % (name, layer, seed)] = (m.dumps(),
                                                       MUTANT_COMMANDS)
        if len(d.algebra.blocks) > 1:
            out[name + "~merge0"] = (merge_blocks(d, SplitMix64(0)).dumps(),
                                     MUTANT_COMMANDS)
    return out


def _with(doc, key, value):
    doc = json.loads(json.dumps(doc))
    doc[key] = value
    return json.dumps(doc)


def malformed(doc):
    """{name: file text} of the malformed files of tests/test_cli.py, built
    from the document of D(Z2)/F5."""
    out = {"truncated": "{", "truncated-field": '{"field": ',
           "5000-digit-integer": '{"dim": %s}' % ("7" * 5000),
           "big-prime": _with(doc, "field", {"kind": "prime",
                                             "p": 2 ** 61 - 1}),
           "dim-true": _with(doc, "dim", True)}
    for i, value in enumerate(["p:7", None, 1, 2.5, [], True]):
        out["field-%d" % i] = _with(doc, "field", value)
    for i, value in enumerate([[], 0, "", False]):
        out["metadata-%d" % i] = _with(doc, "metadata", value)
    number = json.loads(json.dumps(doc))
    number["epsilon"][0] = int(number["epsilon"][0])
    out["number-scalar"] = json.dumps(number)
    for key in ("product", "delta", "antipode", "phi"):
        rep = json.loads(json.dumps(doc))
        rows = rep[key]["entries"] if key == "phi" else rep[key]
        rows.append(rows[0])
        out["repeated-" + key] = json.dumps(rep)
    return out


def write_files(directory):
    """[(datum name, file path, commands)], each datum written to
    directory; two names are paths with no readable datum behind them."""
    directory = Path(directory)
    files = []
    for i, (name, (text, commands)) in enumerate(sorted(data().items())):
        path = directory / ("%03d.json" % i)
        path.write_text(text + "\n", encoding="utf-8")
        files.append((name, str(path), commands))
    (directory / "bytes.json").write_bytes(b"\xff")
    files.append(("not-utf8", str(directory / "bytes.json"), COMMANDS))
    files.append(("missing", str(directory / "missing.json"), COMMANDS))
    return files


_ELAPSED = re.compile(r'("elapsed_ms": )\d+')
_SUMMARY_MS = re.compile(r"\(\d+ ms\)")


def _masked(text, directory):
    text = _ELAPSED.sub(r"\1N", text).replace(str(directory), "TMP")
    return _SUMMARY_MS.sub("(N ms)", text)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(argv, directory):
    """[exit code, sha256 of stdout, sha256 of stderr] of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, _sha(_masked(out.getvalue(), directory)),
            _sha(_masked(err.getvalue(), directory))]


def runs(directory):
    """Yield (datum name, command, argv) for every pair of the contract."""
    for name, path, commands in write_files(directory):
        for command in commands:
            argv = [path if a is None else a for a in command]
            yield name, " ".join(a for a in command if a), argv


def fingerprints():
    """{"datum | command": fingerprint} of the whole contract."""
    with tempfile.TemporaryDirectory() as directory:
        return {"%s | %s" % (name, command): fingerprint(argv, directory)
                for name, command, argv in runs(directory)}


if __name__ == "__main__":
    doc = fingerprints()
    PATH.write_text("{\n%s\n}\n" % ",\n".join(
        "%s: %s" % (json.dumps(k), json.dumps(doc[k])) for k in sorted(doc)))
    print("wrote %d fingerprints to %s" % (len(doc), PATH))
