"""A small expression language for stating tensor identities against a
loaded datum.

Grammar (whitespace-insensitive):

    expr   := term ('==' term)?
    term   := factor (('*' | '#') factor)*
    factor := name | scalar | 'inv(' expr ')' | 'flip(' expr ',' int ',' int ')'
            | 'map[' legs '](' expr ')' | 'basis(' (int | ident) ')'
            | '(' expr ')'
    legs   := leg (',' leg)*,  leg a key of datum.LEGS

'*' is the componentwise product (equal arities), '#' concatenates tensor
factors.  Scalar literals are arity-polymorphic and coerce against the other
operand.  A name is a key of CONSTANTS.  An int is a run of decimal digits;
a name begins with any other letter, digit or underscore, so `basis(²)`
names a variable.  Text of more than MAX_TOKENS tokens is a ParseError,
which keeps every walk of the tree within the recursion limit.

`evaluate` gives the value of a term.  An identity line has its verdict
from one function, `_verdict`, which hands the line's cases to
`report.verdict`; it is read by `check_line` (one line, where basis(i) with
an identifier runs over all basis indices) and by `check_named` (the tagged
lines of the shipped corpus).  A verdict with no constant bound is kept in
the datum's cache, one per line, so `run_corpus` does not re-run a line
that `verify` has run; a failing verdict keeps its case, and the witness is
built when the report is printed.
"""

import functools
import os
import re
from collections import namedtuple
from operator import attrgetter

from .datum import LEGS, MISSING, read_text
from .errors import ArityError, ParseError, UndefinedName
from .report import PASS, CheckReport, verdict
from .tensor import apply_legs, concat, flip, invert, mult, scale

Constant = namedtuple("Constant", "arity needs value")


def _element(path):
    """The value of the derived element at `path`, "module.builder" or
    "module.builder.field"; the module is imported on first use."""
    module, builder, *field = path.split(".")

    def value(d):
        from importlib import import_module
        out = getattr(import_module("." + module, __package__), builder)(d)
        return getattr(out, field[0]) if field else out
    return value


# The named constants: arity, the attribute the datum must carry (`needs`,
# reported by datum.MISSING when it is None), and the value on a datum.
CONSTANTS = {
    **{"one_%d" % k: Constant(k, None, lambda d, k=k: d.unit_tensor(k))
       for k in range(1, 5)},
    "Phi": Constant(3, None, attrgetter("phi")),
    "PhiInv": Constant(3, None, attrgetter("phi_inv")),
    "R": Constant(2, "R", attrgetter("R")),
    "Rinv": Constant(2, "R", attrgetter("r_inv")),
    "Rp": Constant(2, "R", lambda d: flip(d.R, 0, 1)),
    "F": Constant(2, None, _element("derived.big_f.F")),
    "Finv": Constant(2, None, _element("derived.big_f.F_inv")),
    "Fp": Constant(2, None, lambda d: flip(CONSTANTS["F"].value(d), 0, 1)),
    "gamma": Constant(2, None, _element("derived.gamma")),
    "delta": Constant(2, None, _element("derived.delta")),
    "alpha": Constant(1, None, attrgetter("alpha")),
    "beta": Constant(1, None, attrgetter("beta")),
    "u": Constant(1, "R", _element("drinfeld.drinfeld_u")),
    "uhat": Constant(1, "R", _element("ribbon.rtwist_elements.u_hat")),
    "ucheck": Constant(1, "R", _element("ribbon.rtwist_elements.u_check")),
    "utilde": Constant(1, "R", _element("drinfeld.u_tilde")),
    "alphahat": Constant(1, "R", _element("ribbon.rtwist_elements.alpha_hat")),
    "betahat": Constant(1, "R", _element("ribbon.rtwist_elements.beta_hat")),
    "alphacheck": Constant(1, "R",
                           _element("ribbon.rtwist_elements.alpha_check")),
    "betacheck": Constant(1, "R", _element("ribbon.rtwist_elements.beta_check")),
    "v": Constant(1, "v", attrgetter("v")),
}


def _constant(name):
    if name not in CONSTANTS:
        raise UndefinedName("unknown constant %r" % name)
    return CONSTANTS[name]


# ----- AST -------------------------------------------------------------------
# Named tuples with the node kind as a trailing field, so that nodes of
# different kinds never compare equal: Name("u") != Basis("u").  Evaluation
# gives equal subterms one value.


def _node(kind, fields):
    return namedtuple(kind, fields + " kind", defaults=(kind,))


Name = _node("Name", "name")
Basis = _node("Basis", "index")          # int or variable name
ScalarLit = _node("ScalarLit", "text")
Prod = _node("Prod", "op left right")    # op is '*' or '#'
Inv = _node("Inv", "expr")
Flip = _node("Flip", "expr i j")
MapLegs = _node("MapLegs", "legs expr")
Eq = _node("Eq", "left right")


# ----- tokenizer / parser ---------------------------------------------------

MAX_TOKENS = 256
# one group per token kind: symbol, int, name, and any other character
_TOKEN = re.compile(r"(==|[*#()\[\],/-])|(\d+)|([^\W\d]\w*)|(\S)")
_KINDS = (None, "sym", "int", "name")


def _tokenize(src):
    """(kind, text, line, column) for each token, then an "eof" token; no
    token spans a newline, so each line is matched on its own."""
    toks = []
    lines = src.split("\n")
    for line, text in enumerate(lines, 1):
        for m in _TOKEN.finditer(text):
            if m.lastindex == 4:
                raise ParseError("unexpected character %r" % m[0],
                                 line, m.start() + 1)
            if len(toks) == MAX_TOKENS:
                raise ParseError("more than %d tokens" % MAX_TOKENS,
                                 line, m.start() + 1)
            toks.append((_KINDS[m.lastindex], m[0], line, m.start() + 1))
    return toks + [("eof", "", len(lines), len(lines[-1]) + 1)]


class _Parser:
    def __init__(self, src, field):
        self.toks = _tokenize(src)
        self.pos = 0
        self.field = field

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        self.pos += 1
        return self.toks[self.pos - 1]

    def expect(self, want):
        """The next token, which must be of kind `want` ("int" or "name")
        or the symbol `want`."""
        t = self.next()
        if want != (t[1] if t[0] == "sym" else t[0]):
            raise ParseError("expected %s, found %r" % (want, t[1]), t[2], t[3])
        return t

    def parse(self):
        node = self.term()
        if self.peek()[1] == "==":
            self.next()
            node = Eq(node, self.term())
        t = self.peek()
        if t[0] != "eof":
            raise ParseError("trailing input %r" % t[1], t[2], t[3])
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "#"):
            node = Prod(self.next()[1], node, self.factor())
        return node

    def factor(self):
        t = self.next()
        if t[1] == "(":
            node = self.term()
            if self.peek()[1] == "==":
                raise ParseError("'==' may only appear at the top level",
                                 t[2], t[3])
            self.expect(")")
            return node
        if t[1] == "-":
            return self._scalar("-" + self.expect("int")[1], t)
        if t[0] == "int":
            return self._scalar(t[1], t)
        if t[0] != "name":
            raise ParseError("expected a factor, found %r" % t[1], t[2], t[3])
        if t[1] == "inv":
            self.expect("(")
            node = Inv(self.term())
        elif t[1] == "flip":
            self.expect("(")
            node = self.term()
            self.expect(",")
            i = self._int(self.expect("int"))
            self.expect(",")
            node = Flip(node, i, self._int(self.expect("int")))
        elif t[1] == "map":
            self.expect("[")
            legs = [self._leg()]
            while self.peek()[1] == ",":
                self.next()
                legs.append(self._leg())
            self.expect("]")
            self.expect("(")
            node = MapLegs(tuple(legs), self.term())
        elif t[1] == "basis":
            self.expect("(")
            t = self.next()
            if t[0] not in ("int", "name"):
                raise ParseError("basis() takes an index or a variable",
                                 t[2], t[3])
            node = Basis(self._int(t) if t[0] == "int" else t[1])
        else:
            return Name(t[1])
        self.expect(")")
        return node

    def _int(self, t):
        try:
            return int(t[1])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError("integer of %d digits" % len(t[1]), t[2], t[3])

    def _scalar(self, num, start):
        if self.peek()[1] == "/" and self.toks[self.pos + 1][0] == "int":
            num += "/" + self.toks[self.pos + 1][1]
            self.pos += 2
        if self.field is not None:
            try:
                self.field.parse(num)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError("bad scalar %r (%s)" % (num, exc),
                                 start[2], start[3])
        return ScalarLit(num)

    def _leg(self):
        t = self.expect("name")
        if t[1] not in LEGS:
            raise ParseError("unknown leg map %r" % t[1], t[2], t[3])
        return t[1]


def parse(source, field=None):
    """Parse one identity or term; raises ParseError with position info and
    ArityError if the arities cannot be made consistent.  With a field, a
    scalar literal it cannot read is a ParseError too."""
    return _plan(source, field).expr


# ----- arity and basis variables ---------------------------------------------

def infer_arity(node):
    """Arity of the expression; None for a bare scalar literal."""
    return _analyse(node, set())[0]


def _analyse(node, free):
    """(arity, basis variables) of node, the arity None for a bare scalar
    literal; adds node and each of its subterms without a basis variable
    to `free`."""
    found = set()
    if isinstance(node, Name):
        arity = _constant(node.name).arity
    elif isinstance(node, Basis):
        arity = 1
        if isinstance(node.index, str):
            found.add(node.index)
    elif isinstance(node, ScalarLit):
        arity = None
    elif isinstance(node, (Prod, Eq)):
        a, left = _analyse(node.left, free)
        b, right = _analyse(node.right, free)
        found = left | right
        if isinstance(node, Prod) and node.op == "#":
            if a is None or b is None:
                raise ArityError("'#' needs tensors on both sides")
            arity = a + b
        elif a is not None and b is not None and a != b:
            raise ArityError("%s arity %d with arity %d" % (
                "product of" if isinstance(node, Prod) else "cannot compare",
                a, b))
        else:
            arity = a if a is not None else b
    elif isinstance(node, (Inv, Flip, MapLegs)):
        arity, found = _analyse(node.expr, free)
        if isinstance(node, Flip) and (
                arity is None or node.i == node.j
                or not 0 <= node.i < arity or not 0 <= node.j < arity):
            raise ArityError("flip(%d,%d) on arity %r"
                             % (node.i, node.j, arity))
        if isinstance(node, MapLegs):
            if arity != len(node.legs):
                raise ArityError("map with %d legs applied to arity %r"
                                 % (len(node.legs), arity))
            arity = sum(LEGS[l].width for l in node.legs)
    else:
        raise TypeError(node)
    if not found:
        free.add(node)
    return arity, found


_Plan = namedtuple("_Plan", "expr free variables")


def _plan(expr, field=None):
    """What evaluating expr, an AST or text parsed with `field`, needs
    besides a datum: the subterms without a basis variable (`free`) and
    the sorted basis variables."""
    if isinstance(expr, str):
        expr = _Parser(expr, field).parse()
    free = set()
    variables = sorted(_analyse(expr, free)[1])
    return _Plan(expr, free, variables)


# ----- printer ---------------------------------------------------------------

def print_expr(node):
    if isinstance(node, Eq):
        return "%s == %s" % (print_expr(node.left), print_expr(node.right))
    if isinstance(node, Name):
        return node.name
    if isinstance(node, Basis):
        return "basis(%s)" % node.index
    if isinstance(node, ScalarLit):
        return node.text
    if isinstance(node, Prod):
        left = print_expr(node.left)
        right = print_expr(node.right)
        if isinstance(node.right, Prod):
            right = "(%s)" % right
        return "%s %s %s" % (left, node.op, right)
    if isinstance(node, Inv):
        return "inv(%s)" % print_expr(node.expr)
    if isinstance(node, Flip):
        return "flip(%s,%d,%d)" % (print_expr(node.expr), node.i, node.j)
    if isinstance(node, MapLegs):
        return "map[%s](%s)" % (",".join(node.legs), print_expr(node.expr))
    raise TypeError(node)


# ----- evaluation ------------------------------------------------------------

class _Scalar:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _resolve(d, name, consts):
    """The value of a named constant: from `consts` when bound there (the
    candidate v of a ribbon check), else from the datum."""
    if consts and name in consts:
        return consts[name]
    c = _constant(name)
    if c.needs and getattr(d, c.needs) is None:
        raise UndefinedName(MISSING[c.needs])
    return c.value(d)


class _Run:
    """The state of one evaluation of a plan: the datum, bound constants,
    the basis variable's value, and the value of every subterm evaluated so
    far, keyed by the subterm.  The values of the free subterms stay in
    `memo` while a line loops over the basis; the others (`local`) are
    dropped when the variable moves on."""

    __slots__ = ("d", "consts", "free", "bindings", "memo", "local")

    def __init__(self, d, consts, p):
        self.d = d
        self.consts = consts
        self.free = p.free
        self.bindings = {}
        self.memo = {}
        self.local = {}

    def bind(self, bindings):
        self.bindings = bindings
        self.local = {}


def _eval(node, run):
    cache = run.memo if node in run.free else run.local
    value = cache.get(node)
    if value is None:
        value = cache[node] = _eval_node(node, run)
    return value


def _eval_node(node, run):
    d = run.d
    f = d.field
    if isinstance(node, Name):
        return _resolve(d, node.name, run.consts)
    if isinstance(node, Basis):
        idx = node.index
        if isinstance(idx, str):
            if idx not in run.bindings:
                raise UndefinedName("unbound basis variable %r" % idx)
            idx = run.bindings[idx]
        if idx < 0 or idx >= d.dim:
            raise ArityError("basis index %d out of range" % idx)
        return d.basis(idx)
    if isinstance(node, ScalarLit):
        return _Scalar(f.parse(node.text))
    if isinstance(node, Prod):
        a = _eval(node.left, run)
        b = _eval(node.right, run)
        if node.op == "#":
            return concat(a, b)
        if isinstance(a, _Scalar) and isinstance(b, _Scalar):
            return _Scalar(f.canon(a.value * b.value))
        if isinstance(a, _Scalar):
            return scale(b, a.value)
        if isinstance(b, _Scalar):
            return scale(a, b.value)
        return mult(a, b, d.algebra)
    if isinstance(node, Inv):
        val = _eval(node.expr, run)
        if isinstance(val, _Scalar):
            return _Scalar(f.inv(val.value))
        return invert(val, d.algebra)
    if isinstance(node, Flip):
        return flip(_eval(node.expr, run), node.i, node.j)
    if isinstance(node, MapLegs):
        return apply_legs(_eval(node.expr, run), d.legs(*node.legs))
    raise TypeError(node)


def _tensor(value, d, arity):
    """value as a tensor; a scalar becomes that multiple of the unit of
    the given arity."""
    if isinstance(value, _Scalar):
        return scale(d.unit_tensor(arity), value.value)
    return value


def evaluate(expr, d):
    """The value on d of a term, as an AST or as text: a tensor, of arity 0
    for a bare scalar.  Identities are checked by `check_line`."""
    p = _plan(expr, d.field)
    return _tensor(_eval(p.expr, _Run(d, None, p)), d, 0)


def _sides(eq, run):
    """Both sides of an identity as tensors of one arity; a scalar side
    becomes that multiple of the unit."""
    sides = _eval(eq.left, run), _eval(eq.right, run)
    arity = next((s.arity for s in sides if not isinstance(s, _Scalar)), 0)
    return tuple(_tensor(s, run.d, arity) for s in sides)


def _cases(p, d, consts):
    """(lhs, rhs, extra) for the identity of plan p: one case, or with a
    basis variable one per basis index, which extra names as `basis`."""
    run = _Run(d, consts, p)
    var = p.variables[0] if p.variables else None
    for i in range(d.dim) if var else [None]:
        if var:
            run.bind({var: i})
        yield _sides(p.expr, run) + ({"basis": i} if var else {},)


# ----- corpus ----------------------------------------------------------------

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "corpus.txt")


def corpus_entries(path=None):
    """(name, identity) for each line of a corpus.  A line may begin with
    `name:`, the named check that it states; name is None otherwise."""
    # '#' doubles as the concatenation operator, so comments are whole lines
    for raw in read_text(path or CORPUS_PATH).split("\n"):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, rest = line.partition(":")
        if sep and head.strip().isidentifier():
            yield head.strip(), rest.strip()
        else:
            yield None, line


def _verdict(d, p, consts=None):
    """(status, case) of the identity of plan p on d, from `report.verdict`.
    With no constant bound it depends only on d and the identity, so it is
    kept in d's cache; an evaluation that raises is not."""
    def run():
        return verdict(_cases(p, d, consts))
    return run() if consts is not None else d.cache(("line", p.expr), run)


def check_line(d, line, expr=None):
    """(status, case) for one identity, the text `line`, parsed unless its
    AST `expr` is given; `case` is what a `report.Check` keeps.  A line with
    a basis variable holds when it holds at every basis index; the first
    index where it does not is the case's `basis`.  A line whose constants
    the datum does not carry is skipped, with the reason; one that inverts
    a singular element fails, as in `report.verdict`.  A term that is not
    an identity is a ParseError."""
    try:
        p = _plan(line if expr is None else expr, d.field)
    except (ArityError, UndefinedName) as exc:
        return "skipped", {"reason": str(exc)}
    if not isinstance(p.expr, Eq):
        raise ParseError("expected an identity, found the term %r" % line)
    if len(p.variables) > 1:
        return "skipped", {"reason": "multiple basis variables"}
    try:
        return _verdict(d, p)
    except UndefinedName as exc:
        return "skipped", {"reason": str(exc)}


def run_corpus(d, path=None):
    """Evaluate every corpus line against the datum; lines referring to
    constants the datum does not carry are reported as skipped.  A check is
    named by its identity, not by its tag.  The shipped corpus is parsed
    once per process; a file at path is read and parsed on each call."""
    lines = ([(text, p.expr) for _, text, p in _shipped()] if path is None
             else [(text, None) for _, text in corpus_entries(path)])
    rep = CheckReport()
    for text, expr in lines:
        rep.add(text, *check_line(d, text, expr))
    return rep


@functools.cache
def _shipped():
    """(tag, text, plan) of each line of the shipped corpus, parsed once per
    process with no field: its only scalar literal, 1, reads in every
    field."""
    return [(tag, text, _plan(text)) for tag, text in corpus_entries()]


def check_named(d, names, consts=None):
    """A report with one check per name, in the order given: the verdict of
    the first line of the shipped corpus tagged with that name, in corpus
    order, that does not pass, or a pass when none is left.  An inverse that
    does not exist fails the check.  A name that tags no line raises
    KeyError."""
    rep = CheckReport()
    for name in names:
        plans = [p for tag, _, p in _shipped() if tag == name]
        if not plans:
            raise KeyError(name)
        verdicts = (_verdict(d, p, consts) for p in plans)
        rep.add(name, *next((v for v in verdicts if v[0] != PASS), (PASS, None)))
    return rep
