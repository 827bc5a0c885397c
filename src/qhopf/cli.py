"""Command-line entry point.

Exit codes: 0 when everything requested passed, 1 when any check failed,
2 for usage or input errors, and when stdout closes before the output is
written.  Reports are plain text by default or JSON behind --format json;
JSON reports are byte-identical across runs for the same input and seeds
(apart from elapsed_ms).

Start-up is most of the wall time of a small command, so only `datum` and
`errors` are imported here; every other module is imported inside the
handler or branch that runs it.
"""

import argparse
import json
import os
import sys
import time

from .datum import LEVELS, MISSING, default_level, load_path, verify
from .errors import BudgetExceeded, ParseError, QhopfError, ShapeError
from .report import Check, CheckReport


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed early, as by `| head`: what is still buffered
        # goes to devnull, so that the flush at exit fails with no message
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (ParseError, ShapeError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("out of memory: the command needs more memory than is available",
              file=sys.stderr)
        return 2
    except QhopfError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def build_parser():
    p = argparse.ArgumentParser(prog="qhopf",
                                description="exact quasi-Hopf algebra toolkit")
    sub = p.add_subparsers(dest="command")

    q = sub.add_parser("verify", help="run the axiom verifiers on a datum")
    q.add_argument("file")
    q.add_argument("--level", choices=LEVELS)
    q.add_argument("--verbose", action="store_true",
                   help="full coordinate diffs instead of the first witness")
    _common(q)
    q.set_defaults(handler=cmd_verify)

    q = sub.add_parser("derive", help="print a derived element")
    q.add_argument("file")
    q.add_argument("--element", required=True,
                   choices=["gamma", "delta", "F", "Finv", "u",
                            "uhat", "ucheck", "utilde"])
    q.set_defaults(handler=cmd_derive)

    q = sub.add_parser("twist", help="twist a datum by a seeded random twist")
    q.add_argument("file")
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--emit", default=None, metavar="OUT.json")
    q.set_defaults(handler=cmd_twist)

    q = sub.add_parser("ribbon", help="ribbon element search and checks")
    q.add_argument("action", choices=["find", "check"])
    q.add_argument("file")
    q.add_argument("--budget", type=int, default=10 ** 6)
    _common(q)
    q.set_defaults(handler=cmd_ribbon)

    q = sub.add_parser("example", help="emit a built-in example datum")
    q.add_argument("--kind", required=True,
                   choices=["dpr", "function", "group", "sweedler"])
    q.add_argument("--group", default="Z2")
    q.add_argument("--q", type=int, default=0)
    q.add_argument("--field", default="p:7")
    q.add_argument("--out", default=None)
    q.set_defaults(handler=cmd_example)

    q = sub.add_parser("check", help="expression, corpus and property checks")
    q.add_argument("what", choices=["expr", "corpus", "twist-props",
                                    "ribbon-theorem"])
    q.add_argument("file")
    q.add_argument("--expr", default=None)
    q.add_argument("--corpus", default=None, metavar="PATH")
    q.add_argument("--seeds", default="0..9", metavar="A..B")
    _common(q)
    q.set_defaults(handler=cmd_check)
    return p


def _common(q):
    q.add_argument("--format", choices=["text", "json"], default="text")


def _elapsed_ms(t0):
    """Milliseconds since t0, a time.perf_counter() reading."""
    return int((time.perf_counter() - t0) * 1000)


def emit_report(args, d, level, rep, t0):
    elapsed = _elapsed_ms(t0)
    # the one witness detail: every differing coordinate under --verbose
    limit = None if getattr(args, "verbose", False) else 1
    if getattr(args, "format", "text") == "json":
        doc = {"datum": d.content_hash(), "level": level,
               "checks": rep.to_dict(limit), "elapsed_ms": elapsed}
        print(json.dumps(doc, sort_keys=True, indent=1))
    else:
        print(rep.pretty(limit))
        bad = len(rep.failures())
        print("%d checks, %d failing (%d ms)" % (len(rep.checks), bad, elapsed))
    return 0 if rep.ok else 1


def _verified(args, d, t0):
    """Run `verify` up to the layer the builders rest on: the quasitriangular
    one, or the quasi-Hopf one when there is no R-matrix.  The builders
    assume those axioms, so when a check fails its report is printed and
    the command stops there, with exit 1."""
    level = "qt" if d.R is not None else "hopf"
    rep = verify(d, level=level)
    if not rep.ok:
        emit_report(args, d, level, rep, t0)
    return rep.ok


def cmd_verify(args):
    t0 = time.perf_counter()
    d = load_path(args.file)
    level = args.level or default_level(d)
    rep = verify(d, level=level)
    return emit_report(args, d, level, rep, t0)


def cmd_derive(args):
    t0 = time.perf_counter()
    d = load_path(args.file)
    if not _verified(args, d, t0):
        return 1
    from .dsl import CONSTANTS
    t = CONSTANTS[args.element].value(d)
    print(json.dumps(t.to_json(), sort_keys=True, indent=1))
    return 0


def _default_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    text = os.environ.get("QHOPF_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ParseError("bad QHOPF_SEED %r (expected an integer)" % text)


def cmd_twist(args):
    t0 = time.perf_counter()
    d = load_path(args.file)
    if not _verified(args, d, t0):
        return 1
    from .twisting import random_twist, twist
    tw = random_twist(d, _default_seed(args))
    dt = twist(d, tw)
    text = dt.dumps()
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print("wrote %s (datum %s)" % (args.emit, dt.content_hash()))
    else:
        print(text)
    return 0


def cmd_ribbon(args):
    t0 = time.perf_counter()
    d = load_path(args.file)
    if args.action == "check" and d.v is None:
        print("input error: %s" % MISSING["v"], file=sys.stderr)
        return 2
    if not _verified(args, d, t0):
        return 1
    from .ribbon import find_ribbon, verify_ribbon
    if args.action == "find":
        res = find_ribbon(d, args.budget)
        doc = {"datum": d.content_hash(), "region": res.region,
               "candidates": [{"v": c.v.to_json(), "provenance": c.provenance}
                              for c in res.candidates],
               "elapsed_ms": _elapsed_ms(t0)}
        print(json.dumps(doc, sort_keys=True, indent=1))
        return 0
    return emit_report(args, d, "ribbon", verify_ribbon(d, d.v), t0)


def _parse_group(text):
    from .examples import FiniteAbelianGroup
    parts = text.upper().split("X")
    factors = []
    for part in parts:
        part = part.strip()
        if (not part.startswith("Z") or not part[1:].isdecimal()
                or int(part[1:]) == 0):
            raise ParseError("bad group %r (expected e.g. Z2, Z3, Z2xZ2)" % text)
        factors.append(int(part[1:]))
    return FiniteAbelianGroup(tuple(factors))


def _parse_field(text):
    from .scalars import PrimeField, RationalField
    if text.upper() in ("Q", "RATIONAL"):
        return RationalField()
    if text.startswith("p:"):
        try:
            return PrimeField(int(text[2:]))
        except ValueError as exc:
            raise ParseError("bad field %r: %s" % (text, exc))
    raise ParseError("bad field %r (expected p:<prime> or Q)" % text)


def cmd_example(args):
    from .examples import (Cocycle3, cocycle_for, dpr_double, function_algebra,
                           group_algebra, sweedler)
    if args.kind == "sweedler":
        d = sweedler()
    else:
        group = _parse_group(args.group)
        field = _parse_field(args.field)
        if args.kind == "group":
            d = group_algebra(group, field)
        else:
            omega = (cocycle_for(group, args.q, field) if args.q
                     else Cocycle3.trivial(group, field))
            d = (dpr_double(group, omega) if args.kind == "dpr"
                 else function_algebra(group, omega))
    text = d.dumps()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print("wrote %s (datum %s)" % (args.out, d.content_hash()))
    else:
        print(text)
    return 0


def cmd_check(args):
    t0 = time.perf_counter()
    d = load_path(args.file)
    if args.what == "expr":
        if not args.expr:
            print("usage error: check expr requires --expr", file=sys.stderr)
            return 2
        from . import dsl
        expr = dsl.parse(args.expr, d.field)
        if isinstance(expr, dsl.Eq):
            status, case = dsl.check_line(d, args.expr, expr)
            witness = Check(args.expr, status, case).witness
            rep_ok = status == "pass"
            if getattr(args, "format", "text") == "json":
                doc = {"datum": d.content_hash(), "expr": args.expr,
                       "status": status, "witness": witness,
                       "elapsed_ms": _elapsed_ms(t0)}
                print(json.dumps(doc, sort_keys=True, indent=1))
            else:
                print("%s  %s" % (status.upper(), args.expr))
                if witness:
                    print("  witness: %r" % (witness,))
            if status == "skipped":
                return 2
            return 0 if rep_ok else 1
        value = dsl.evaluate(expr, d)
        print(json.dumps(value.to_json(), sort_keys=True, indent=1))
        return 0
    if args.what == "twist-props":
        first, last = _parse_seed_range(args.seeds)
    if args.what == "ribbon-theorem" and d.v is None:
        print("input error: %s" % MISSING["v"], file=sys.stderr)
        return 2
    if not _verified(args, d, t0):
        return 1
    if args.what == "corpus":
        from . import dsl
        rep = dsl.run_corpus(d, path=args.corpus)
        return emit_report(args, d, "corpus", rep, t0)
    if args.what == "twist-props":
        from .twisting import check_twist_elements, random_twist
        rep = CheckReport()
        for seed in range(first, last + 1):
            sub = check_twist_elements(d, random_twist(d, seed))
            for c in sub.checks:
                rep.add("seed %d: %s" % (seed, c.name), c.status, c.case)
        return emit_report(args, d, "twist-props", rep, t0)
    # ribbon-theorem
    from .ribbon import check_main_theorem, check_ribbon_lemma
    rep = check_ribbon_lemma(d, d.v)
    rep.extend(check_main_theorem(d, d.v))
    return emit_report(args, d, "ribbon-theorem", rep, t0)


def _parse_seed_range(text):
    """(first, last) from "A..B" or "N"; an empty range is an error."""
    a, sep, b = text.partition("..")
    try:
        first, last = int(a), int(b if sep else a)
    except ValueError:
        raise ParseError("bad seed range %r (expected A..B or N)" % text)
    if first > last:
        raise ParseError("empty seed range %r" % text)
    return first, last


if __name__ == "__main__":
    raise SystemExit(main())
