"""A small expression language for stating tensor identities against a
loaded datum.

Grammar (whitespace-insensitive):

    expr   := term ('==' term)?
    term   := factor (('*' | '#') factor)*
    factor := name | scalar | 'inv(' expr ')' | 'flip(' expr ',' int ',' int ')'
            | 'map[' legs '](' expr ')' | 'basis(' (int | ident) ')'
            | '(' expr ')'
    legs   := leg (',' leg)*,  leg in {id, S, Sinv, eps, D, Dcop}

'*' is the componentwise product (equal arities), '#' concatenates tensor
factors.  Scalar literals are arity-polymorphic and coerce against the other
operand.  basis(i) with an identifier expands over all basis indices when
run through the corpus runner.
"""

import os
from dataclasses import dataclass

from .derived import big_f
from .drinfeld import drinfeld_u, u_tilde
from .errors import ArityError, ParseError, UndefinedName
from .report import CheckReport, witness_from
from .ribbon import rtwist_elements
from .tensor import apply_legs, eq_witness, flip, invert, mult, scale

LEG_NAMES = ("id", "S", "Sinv", "eps", "D", "Dcop")
LEG_WIDTH = {"id": 1, "S": 1, "Sinv": 1, "eps": 0, "D": 2, "Dcop": 2}

NAME_ARITY = {
    "one_1": 1, "one_2": 2, "one_3": 3, "one_4": 4,
    "Phi": 3, "PhiInv": 3, "R": 2, "Rinv": 2, "Rp": 2,
    "F": 2, "Finv": 2, "Fp": 2, "gamma": 2, "delta": 2,
    "alpha": 1, "beta": 1, "u": 1, "uhat": 1, "ucheck": 1, "utilde": 1,
    "alphahat": 1, "betahat": 1, "alphacheck": 1, "betacheck": 1,
    "v": 1, "T": 2, "Tinv": 2,
}


# ----- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Name:
    name: str


@dataclass(frozen=True)
class Basis:
    index: object  # int or variable name


@dataclass(frozen=True)
class ScalarLit:
    text: str


@dataclass(frozen=True)
class Prod:
    op: str  # '*' or '#'
    left: object
    right: object


@dataclass(frozen=True)
class Inv:
    expr: object


@dataclass(frozen=True)
class Flip:
    expr: object
    i: int
    j: int


@dataclass(frozen=True)
class MapLegs:
    legs: tuple
    expr: object


@dataclass(frozen=True)
class Eq:
    left: object
    right: object


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
    def __init__(self, src):
        self.toks = _tokenize(src)
        self.pos = 0

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
            return self._scalar_tail("-" + num)
        if t[0] == "int":
            self.next()
            return self._scalar_tail(t[1])
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

    def _scalar_tail(self, num):
        if self.peek()[0] == "sym" and self.peek()[1] == "/":
            save = self.pos
            self.next()
            t = self.peek()
            if t[0] == "int":
                self.next()
                return ScalarLit(num + "/" + t[1])
            self.pos = save
        return ScalarLit(num)

    def _leg(self):
        t = self.expect("name")
        if t[1] not in LEG_NAMES:
            raise ParseError("unknown leg map %r" % t[1], line=t[2], column=t[3])
        return t[1]


def parse(source):
    """Parse one identity or term; raises ParseError with position info and
    ArityError if the arities cannot be made consistent."""
    node = _Parser(source).parse()
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
        if node.name not in NAME_ARITY:
            raise UndefinedName("unknown constant %r" % node.name)
        return NAME_ARITY[node.name]
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
        return sum(LEG_WIDTH[l] for l in node.legs)
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


def _resolve(d, name, twist):
    if name.startswith("one_"):
        return d.unit_tensor(int(name[4:]))
    if name == "Phi":
        return d.phi
    if name == "PhiInv":
        return d.phi_inv
    if name == "alpha":
        return d.alpha
    if name == "beta":
        return d.beta
    if name in ("R", "Rinv", "Rp"):
        if d.R is None:
            raise UndefinedName("datum has no R-matrix")
        if name == "R":
            return d.R
        if name == "Rinv":
            return d.r_inv
        return flip(d.R, 0, 1)
    if name in ("F", "Finv", "Fp", "gamma", "delta"):
        de = big_f(d)
        return {"F": de.F, "Finv": de.F_inv, "Fp": flip(de.F, 0, 1),
                "gamma": de.gamma, "delta": de.delta}[name]
    if name in ("u", "utilde"):
        if d.R is None:
            raise UndefinedName("datum has no R-matrix")
        return drinfeld_u(d).u if name == "u" else u_tilde(d)
    if name in ("uhat", "ucheck", "alphahat", "betahat",
                "alphacheck", "betacheck"):
        if d.R is None:
            raise UndefinedName("datum has no R-matrix")
        el = rtwist_elements(d)
        return {"uhat": el.u_hat, "ucheck": el.u_check,
                "alphahat": el.alpha_hat, "betahat": el.beta_hat,
                "alphacheck": el.alpha_check, "betacheck": el.beta_check}[name]
    if name == "v":
        if d.v is None:
            raise UndefinedName("datum has no ribbon candidate")
        return d.v
    if name in ("T", "Tinv"):
        if twist is None:
            raise UndefinedName("no twist bound in this context")
        return twist.T if name == "T" else twist.T_inv
    raise UndefinedName("unknown constant %r" % name)


def _eval(node, d, twist, bindings, memo):
    """The value of node.  memo holds the values of subterms without a basis
    variable, which stay the same while a corpus line loops over the basis."""
    if node in memo:
        return memo[node]
    val = _eval_node(node, d, twist, bindings, memo)
    if not _basis_vars(node):
        memo[node] = val
    return val


def _eval_node(node, d, twist, bindings, memo):
    f = d.field
    if isinstance(node, Name):
        return _resolve(d, node.name, twist)
    if isinstance(node, Basis):
        idx = node.index
        if isinstance(idx, str):
            if not bindings or idx not in bindings:
                raise UndefinedName("unbound basis variable %r" % idx)
            idx = bindings[idx]
        if idx < 0 or idx >= d.dim:
            raise ArityError("basis index %d out of range" % idx)
        return d.basis(idx)
    if isinstance(node, ScalarLit):
        return _Scalar(f.parse(node.text))
    if isinstance(node, Prod):
        a = _eval(node.left, d, twist, bindings, memo)
        b = _eval(node.right, d, twist, bindings, memo)
        if node.op == "#":
            from .tensor import concat
            return concat(a, b)
        if isinstance(a, _Scalar) and isinstance(b, _Scalar):
            return _Scalar(f.mul(a.value, b.value))
        if isinstance(a, _Scalar):
            return scale(b, a.value)
        if isinstance(b, _Scalar):
            return scale(a, b.value)
        return mult(a, b, d.algebra)
    if isinstance(node, Inv):
        val = _eval(node.expr, d, twist, bindings, memo)
        if isinstance(val, _Scalar):
            return _Scalar(f.inv(val.value))
        return invert(val, d.algebra)
    if isinstance(node, Flip):
        return flip(_eval(node.expr, d, twist, bindings, memo), node.i, node.j)
    if isinstance(node, MapLegs):
        val = _eval(node.expr, d, twist, bindings, memo)
        return apply_legs(val, [d.leg(l) for l in node.legs])
    raise TypeError(node)


def evaluate(expr, d, twist=None, bindings=None):
    """A term evaluates to a tensor; an identity evaluates to
    (bool, witness-or-None)."""
    if isinstance(expr, str):
        expr = parse(expr)
    if isinstance(expr, Eq):
        return _compare(expr, d, twist, bindings, {})
    val = _eval(expr, d, twist, bindings, {})
    if isinstance(val, _Scalar):
        return scale(d.unit_tensor(0), val.value)
    return val


def _compare(eq, d, twist, bindings, memo):
    lhs = _eval(eq.left, d, twist, bindings, memo)
    rhs = _eval(eq.right, d, twist, bindings, memo)
    lhs, rhs = _coerce_pair(d, lhs, rhs)
    diff = eq_witness(lhs, rhs)
    return (diff is None), diff


def _coerce_pair(d, lhs, rhs):
    if isinstance(lhs, _Scalar) and isinstance(rhs, _Scalar):
        return (scale(d.unit_tensor(0), lhs.value),
                scale(d.unit_tensor(0), rhs.value))
    if isinstance(lhs, _Scalar):
        return scale(d.unit_tensor(rhs.arity), lhs.value), rhs
    if isinstance(rhs, _Scalar):
        return lhs, scale(d.unit_tensor(lhs.arity), rhs.value)
    return lhs, rhs


# ----- corpus ----------------------------------------------------------------

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "corpus.txt")


def corpus_lines(path=None):
    # '#' doubles as the concatenation operator, so comments are whole lines
    with open(path or CORPUS_PATH, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                yield line


def _basis_vars(node):
    if isinstance(node, Basis):
        return {node.index} if isinstance(node.index, str) else set()
    if isinstance(node, (Name, ScalarLit)):
        return set()
    if isinstance(node, Prod):
        return _basis_vars(node.left) | _basis_vars(node.right)
    if isinstance(node, Eq):
        return _basis_vars(node.left) | _basis_vars(node.right)
    if isinstance(node, (Inv, Flip, MapLegs)):
        return _basis_vars(node.expr)
    raise TypeError(node)


def check_line(d, line, twist=None):
    """(status, witness) for one corpus line, expanding basis variables."""
    try:
        expr = parse(line)
    except (ArityError, UndefinedName) as exc:
        return "skipped", {"reason": str(exc)}
    variables = sorted(_basis_vars(expr))
    memo = {}
    try:
        if not variables:
            ok, diff = _compare(expr, d, twist, None, memo)
            if ok:
                return "pass", None
            return "fail", witness_from(diff)
        var = variables[0]
        if len(variables) > 1:
            return "skipped", {"reason": "multiple basis variables"}
        for i in range(d.dim):
            ok, diff = _compare(expr, d, twist, {var: i}, memo)
            if not ok:
                return "fail", witness_from(diff, basis=i)
        return "pass", None
    except UndefinedName as exc:
        return "skipped", {"reason": str(exc)}


def run_corpus(d, path=None, twist=None):
    """Evaluate every corpus line against the datum; lines referring to
    constants the datum does not carry are reported as skipped."""
    rep = CheckReport()
    for line in list(corpus_lines(path)):
        rep.add(line, *check_line(d, line, twist))
    return rep
