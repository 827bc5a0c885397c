"""Pass/fail reports with witnesses, shared by every verifier."""

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

    def add_pass(self, name):
        self.add(name, PASS)

    def add_fail(self, name, witness=None):
        self.add(name, FAIL, witness)

    def add_diff(self, name, diff):
        """Pass when the eq_witness triple `diff` is None, else fail with
        the witness built from it."""
        if diff is None:
            self.add_pass(name)
        else:
            self.add_fail(name, witness_from(diff))

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


def witness_from(diff, **extra):
    """Build a witness dict from an eq_witness triple."""
    key, lhs, rhs = diff
    w = {"index": list(key), "lhs": lhs, "rhs": rhs}
    w.update(extra)
    return w


def diff_witness(lhs, rhs, limit=1, **extra):
    """Witness dict (or None) for two tensors: the first differing
    coordinate, and with a limit other than 1 up to `limit` of them under
    "diffs" (None means the full diff)."""
    diffs = diff_entries(lhs, rhs, limit)
    if not diffs:
        return None
    w = witness_from(diffs[0], **extra)
    if limit != 1 and len(diffs) > 1:
        w["diffs"] = [{"index": list(k), "lhs": a, "rhs": b}
                      for k, a, b in diffs]
    return w
