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
operand.  basis(i) with an identifier expands over all basis indices when
run through the corpus runner.  A name is a key of CONSTANTS.
"""

import os
from collections import namedtuple
from operator import attrgetter

from .datum import LEGS, MISSING
from .errors import ArityError, ParseError, UndefinedName
from .report import CheckReport, diff_witness
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

_SYMBOLS = ("==", "*", "#", "(", ")", "[", "]", ",", "/", "-")


def _tokenize(src):
    toks = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if src.startswith("==", i):
            toks.append(("sym", "==", line, col))
            i += 2
            col += 2
            continue
        if ch in "*#()[],/-":
            toks.append(("sym", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("name", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, line=line, column=col)
    toks.append(("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, src, field):
        self.toks = _tokenize(src)
        self.pos = 0
        self.field = field

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, value=None):
        t = self.next()
        if t[0] != kind or (value is not None and t[1] != value):
            raise ParseError("expected %s, found %r" % (value or kind, t[1]),
                             line=t[2], column=t[3])
        return t

    def parse(self):
        left = self.term()
        if self.peek()[1] == "==":
            self.next()
            right = self.term()
            node = Eq(left, right)
        else:
            node = left
        t = self.peek()
        if t[0] != "eof":
            raise ParseError("trailing input %r" % t[1], line=t[2], column=t[3])
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "sym" and self.peek()[1] in ("*", "#"):
            op = self.next()[1]
            node = Prod(op, node, self.factor())
        return node

    def factor(self):
        t = self.peek()
        if t[0] == "sym" and t[1] == "(":
            self.next()
            node = self.term()
            if self.peek()[1] == "==":
                raise ParseError("'==' may only appear at the top level",
                                 line=t[2], column=t[3])
            self.expect("sym", ")")
            return node
        if t[0] == "sym" and t[1] == "-":
            self.next()
            num = self.expect("int")[1]
            return self._scalar_tail("-" + num, t)
        if t[0] == "int":
            self.next()
            return self._scalar_tail(t[1], t)
        if t[0] != "name":
            raise ParseError("expected a factor, found %r" % t[1],
                             line=t[2], column=t[3])
        self.next()
        word = t[1]
        if word == "inv":
            self.expect("sym", "(")
            node = self.term()
            self.expect("sym", ")")
            return Inv(node)
        if word == "flip":
            self.expect("sym", "(")
            node = self.term()
            self.expect("sym", ",")
            i = int(self.expect("int")[1])
            self.expect("sym", ",")
            j = int(self.expect("int")[1])
            self.expect("sym", ")")
            return Flip(node, i, j)
        if word == "map":
            self.expect("sym", "[")
            legs = [self._leg()]
            while self.peek()[1] == ",":
                self.next()
                legs.append(self._leg())
            self.expect("sym", "]")
            self.expect("sym", "(")
            node = self.term()
            self.expect("sym", ")")
            return MapLegs(tuple(legs), node)
        if word == "basis":
            self.expect("sym", "(")
            t2 = self.next()
            if t2[0] == "int":
                idx = int(t2[1])
            elif t2[0] == "name":
                idx = t2[1]
            else:
                raise ParseError("basis() takes an index or a variable",
                                 line=t2[2], column=t2[3])
            self.expect("sym", ")")
            return Basis(idx)
        return Name(word)

    def _scalar_tail(self, num, start):
        if self.peek()[0] == "sym" and self.peek()[1] == "/":
            save = self.pos
            self.next()
            t = self.peek()
            if t[0] == "int":
                self.next()
                num += "/" + t[1]
            else:
                self.pos = save
        if self.field is not None:
            try:
                self.field.parse(num)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError("bad scalar %r (%s)" % (num, exc),
                                 line=start[2], column=start[3])
        return ScalarLit(num)

    def _leg(self):
        t = self.expect("name")
        if t[1] not in LEGS:
            raise ParseError("unknown leg map %r" % t[1], line=t[2], column=t[3])
        return t[1]


def parse(source, field=None):
    """Parse one identity or term; raises ParseError with position info and
    ArityError if the arities cannot be made consistent.  With a field, a
    scalar literal it cannot read is a ParseError too."""
    node = _Parser(source, field).parse()
    infer_arity(node)
    return node


# ----- arity inference -------------------------------------------------------

def infer_arity(node):
    """Arity of the expression; None for a bare scalar literal."""
    if isinstance(node, Eq):
        a = infer_arity(node.left)
        b = infer_arity(node.right)
        if a is not None and b is not None and a != b:
            raise ArityError("cannot compare arity %d with arity %d" % (a, b))
        return a if a is not None else b
    if isinstance(node, Name):
        return _constant(node.name).arity
    if isinstance(node, Basis):
        return 1
    if isinstance(node, ScalarLit):
        return None
    if isinstance(node, Prod):
        a = infer_arity(node.left)
        b = infer_arity(node.right)
        if node.op == "*":
            if a is not None and b is not None and a != b:
                raise ArityError("product of arity %d with arity %d" % (a, b))
            return a if a is not None else b
        if a is None or b is None:
            raise ArityError("'#' needs tensors on both sides")
        return a + b
    if isinstance(node, Inv):
        return infer_arity(node.expr)
    if isinstance(node, Flip):
        a = infer_arity(node.expr)
        if a is None or node.i >= a or node.j >= a or node.i == node.j \
                or node.i < 0 or node.j < 0:
            raise ArityError("flip(%d,%d) on arity %r" % (node.i, node.j, a))
        return a
    if isinstance(node, MapLegs):
        a = infer_arity(node.expr)
        if a != len(node.legs):
            raise ArityError("map with %d legs applied to arity %r"
                             % (len(node.legs), a))
        return sum(LEGS[l].width for l in node.legs)
    raise TypeError(node)


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


_Plan = namedtuple("_Plan", "expr keys free variables")


def _plan(expr):
    """What evaluating expr needs besides a datum: a key per subterm, equal
    for equal subterms (`keys`, by node identity), the keys of the subterms
    without a basis variable (`free`), and the sorted basis variables."""
    keys, free = {}, set()
    variables = sorted(_scan(expr, keys, free, {}))
    return _Plan(expr, keys, free, variables)


class _Run:
    """The state of one evaluation of a plan: the datum, bound constants,
    the basis variable's value, and the value of every subterm evaluated so
    far.  The values of the free subterms stay in `memo` while a line loops
    over the basis; the others (`local`) are dropped when the variable
    moves on."""

    __slots__ = ("d", "consts", "keys", "free", "bindings", "memo", "local")

    def __init__(self, d, consts, p):
        self.d = d
        self.consts = consts
        self.keys = p.keys
        self.free = p.free
        self.bindings = None
        self.memo = {}
        self.local = {}

    def bind(self, bindings):
        self.bindings = bindings
        self.local = {}


def _scan(node, keys, free, first):
    """The basis variables of node.  Sets keys[id(n)] for node and each of
    its subterms n, equal for equal subterms (`first` maps each distinct
    subterm to its key), and adds the keys of those without a basis
    variable to `free`."""
    if isinstance(node, Basis):
        found = {node.index} if isinstance(node.index, str) else set()
    elif isinstance(node, (Name, ScalarLit)):
        found = set()
    elif isinstance(node, (Prod, Eq)):
        found = (_scan(node.left, keys, free, first)
                 | _scan(node.right, keys, free, first))
    else:
        found = _scan(node.expr, keys, free, first)
    key = keys[id(node)] = first.setdefault(node, id(node))
    if not found:
        free.add(key)
    return found


def _eval(node, run):
    key = run.keys[id(node)]
    cache = run.memo if key in run.free else run.local
    if key not in cache:
        cache[key] = _eval_node(node, run)
    return cache[key]


def _eval_node(node, run):
    d = run.d
    f = d.field
    if isinstance(node, Name):
        return _resolve(d, node.name, run.consts)
    if isinstance(node, Basis):
        idx = node.index
        if isinstance(idx, str):
            if not run.bindings or idx not in run.bindings:
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


def evaluate(expr, d, consts=None, bindings=None):
    """A term evaluates to a tensor; an identity evaluates to
    (bool, witness-or-None)."""
    if isinstance(expr, str):
        expr = parse(expr, d.field)
    run = _Run(d, consts, _plan(expr))
    run.bind(bindings)
    if isinstance(expr, Eq):
        witness = diff_witness(*_sides(expr, run))
        return witness is None, witness
    val = _eval(expr, run)
    if isinstance(val, _Scalar):
        return scale(d.unit_tensor(0), val.value)
    return val


def _sides(eq, run):
    """Both sides of an identity as tensors of one arity; a scalar side
    becomes that multiple of the unit."""
    d = run.d
    lhs = _eval(eq.left, run)
    rhs = _eval(eq.right, run)
    if isinstance(lhs, _Scalar) and isinstance(rhs, _Scalar):
        return (scale(d.unit_tensor(0), lhs.value),
                scale(d.unit_tensor(0), rhs.value))
    if isinstance(lhs, _Scalar):
        return scale(d.unit_tensor(rhs.arity), lhs.value), rhs
    if isinstance(rhs, _Scalar):
        return lhs, scale(d.unit_tensor(lhs.arity), rhs.value)
    return lhs, rhs


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
    with open(path or CORPUS_PATH, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, sep, rest = line.partition(":")
            if sep and head.strip().isidentifier():
                yield head.strip(), rest.strip()
            else:
                yield None, line


def corpus_lines(path=None):
    for _, line in corpus_entries(path):
        yield line


def check_line(d, line):
    """(status, witness) for one corpus line.  A line with a basis variable
    holds when it holds at every basis index; the first index where it does
    not is the witness's `basis`.  A line whose constants the datum does
    not carry is skipped; one that inverts a singular element fails, as in
    `CheckReport.compare_each`."""
    try:
        p = _plan(parse(line, d.field))
    except (ArityError, UndefinedName) as exc:
        return "skipped", {"reason": str(exc)}
    if len(p.variables) > 1:
        return "skipped", {"reason": "multiple basis variables"}
    try:
        check = CheckReport().compare_each(line, _cases(p, d, None)).checks[0]
    except UndefinedName as exc:
        return "skipped", {"reason": str(exc)}
    return check.status, check.witness


def run_corpus(d, path=None):
    """Evaluate every corpus line against the datum; lines referring to
    constants the datum does not carry are reported as skipped.  A check is
    named by its identity, not by its tag."""
    rep = CheckReport()
    for _, line in list(corpus_entries(path)):
        rep.add(line, *check_line(d, line))
    return rep


_NAMED = {}


def check_named(d, names, witness_limit=1, consts=None):
    """A report with one check per name, in the order given: the lines of
    the shipped corpus tagged with that name, in corpus order, up to the
    first that fails.  An inverse that does not exist fails the check.  A
    name that tags no line raises KeyError."""
    if not _NAMED:
        for name, line in corpus_entries():
            if name:
                _NAMED.setdefault(name, []).append(_plan(parse(line)))
    rep = CheckReport()
    for name in names:
        rep.compare_each(name, (case for p in _NAMED[name]
                                for case in _cases(p, d, consts)),
                         witness_limit)
    return rep
