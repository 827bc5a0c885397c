"""Pass/fail reports with witnesses, shared by every verifier.

A comparison becomes a verdict in one place, `verdict`: a check over cases
fails at the first case whose two tensors differ, and keeps that case.  Its
witness is built when the report is printed (`CheckReport.to_dict` and
`pretty`, at a limit; `Check.witness` at limit 1): it names a coordinate of
that case (`index`, with both values as `lhs` and `rhs`).  The other witness
shape is `{"reason": ...}`, for a check with no coordinate to show, such as
an inverse that does not exist."""

from .errors import NotInvertible
from .tensor import diff_entries

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class Check:
    """A named verdict.  `case` is None, a witness dict, or the failing
    (lhs, rhs, extra) case of a comparison, diffed when it is printed."""

    __slots__ = ("name", "status", "case")

    def __init__(self, name, status, case=None):
        self.name = name
        self.status = status
        self.case = case

    @property
    def witness(self):
        return self.to_dict().get("witness")

    def to_dict(self, limit=1):
        d = {"name": self.name, "status": self.status}
        w = self.case
        if isinstance(w, tuple):
            lhs, rhs, extra = w
            w = diff_witness(lhs, rhs, limit, **extra)
        if w is not None:
            d["witness"] = w
        return d

    def __repr__(self):
        return "Check(%r, %s)" % (self.name, self.status)


class CheckReport:
    def __init__(self):
        self.checks = []

    def add(self, name, status, case=None):
        self.checks.append(Check(name, status, case))

    def add_fail(self, name, case=None):
        self.add(name, FAIL, case)

    def compare(self, name, lhs, rhs):
        """One check that the tensors lhs and rhs are equal."""
        return self.compare_each(name, [(lhs, rhs, {})])

    def compare_each(self, name, cases):
        """One check over `cases`, with the verdict of `verdict`."""
        self.add(name, *verdict(cases))
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

    def to_dict(self, limit=1):
        return [c.to_dict(limit) for c in self.checks]

    def pretty(self, limit=1):
        lines = []
        for c in self.checks:
            line = "%-4s %s" % (c.status.upper(), c.name)
            w = c.status == FAIL and c.to_dict(limit).get("witness")
            if w:
                line += "  %r" % (w,)
            lines.append(line)
        return "\n".join(lines)

    def __repr__(self):
        n = len(self.checks)
        bad = len(self.failures())
        return "CheckReport(%d checks, %d failing)" % (n, bad)


def verdict(cases):
    """(status, case) of one check over `cases`, (lhs, rhs, extra) triples
    made on demand and tested in order with `==`: a fail with the first
    case whose tensors differ, a fail with {"reason": ...} when an inverse
    does not exist while the cases are made, and otherwise a pass."""
    try:
        for case in cases:
            if case[0] != case[1]:
                return FAIL, case
    except NotInvertible as exc:
        return FAIL, {"reason": str(exc)}
    return PASS, None


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