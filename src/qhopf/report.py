"""Pass/fail reports with witnesses, shared by every verifier.

A check compares tensors through one path, `CheckReport.compare_each`: it
fails at the first case whose two tensors differ, and its witness names a
coordinate of that case (`index`, with both values as `lhs` and `rhs`).
The other witness shape is `{"reason": ...}`, for a check with no
coordinate to show, such as an inverse that does not exist."""

from .errors import NotInvertible
from .tensor import diff_entries

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class Check:
    __slots__ = ("name", "status", "witness")

    def __init__(self, name, status, witness=None):
        self.name = name
        self.status = status
        self.witness = witness

    def to_dict(self):
        d = {"name": self.name, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        return d

    def __repr__(self):
        return "Check(%r, %s)" % (self.name, self.status)


class CheckReport:
    def __init__(self, checks=None):
        self.checks = list(checks) if checks else []

    def add(self, name, status, witness=None):
        self.checks.append(Check(name, status, witness))

    def add_fail(self, name, witness=None):
        self.add(name, FAIL, witness)

    def compare(self, name, lhs, rhs, limit=1, **extra):
        """One check that the tensors lhs and rhs are equal; `extra` goes
        into the witness."""
        return self.compare_each(name, [(lhs, rhs, extra)], limit)

    def compare_each(self, name, cases, limit=1):
        """One check over `cases`, (lhs, rhs, extra) triples made on
        demand: it fails at the first case whose tensors differ.  An inverse
        that does not exist while the cases are made fails it with the
        reason."""
        try:
            witness = first_difference(cases, limit)
        except NotInvertible as exc:
            witness = {"reason": str(exc)}
        self.add(name, FAIL if witness else PASS, witness)
        return self

    def invertible(self, name, build):
        """One check that build() finds an inverse; True when it does."""
        try:
            build()
        except NotInvertible as exc:
            self.add_fail(name, {"reason": str(exc)})
            return False
        self.add(name, PASS)
        return True

    def extend(self, other):
        self.checks.extend(other.checks)
        return self

    @property
    def ok(self):
        return all(c.status != FAIL for c in self.checks)

    def failures(self):
        return [c for c in self.checks if c.status == FAIL]

    def to_dict(self):
        return [c.to_dict() for c in self.checks]

    def pretty(self):
        lines = []
        for c in self.checks:
            line = "%-4s %s" % (c.status.upper(), c.name)
            if c.status == FAIL and c.witness:
                line += "  %r" % (c.witness,)
            lines.append(line)
        return "\n".join(lines)

    def __repr__(self):
        n = len(self.checks)
        bad = len(self.failures())
        return "CheckReport(%d checks, %d failing)" % (n, bad)


def first_difference(cases, limit=1):
    """The witness of the first of `cases`, (lhs, rhs, extra) triples,
    whose tensors differ, or None.  Each case is tested with `==`; only the
    failing one is diffed."""
    for lhs, rhs, extra in cases:
        if lhs != rhs:
            return diff_witness(lhs, rhs, limit, **extra)
    return None


def diff_witness(lhs, rhs, limit=1, **extra):
    """Witness dict (or None) for two tensors: the first differing
    coordinate, and with a limit other than 1 up to `limit` of them under
    "diffs" (None means the full diff)."""
    diffs = diff_entries(lhs, rhs, limit)
    if not diffs:
        return None
    key, a, b = diffs[0]
    w = {"index": list(key), "lhs": a, "rhs": b}
    w.update(extra)
    if limit != 1 and len(diffs) > 1:
        w["diffs"] = [{"index": list(k), "lhs": a, "rhs": b}
                      for k, a, b in diffs]
    return w
