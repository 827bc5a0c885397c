"""Exact scalar arithmetic over a prime field F_p or over the rationals.

Scalars are plain Python values in canonical form: residues in [0, p) for a
prime field, `fractions.Fraction` (reduced, positive denominator) for the
rationals, so equality of scalars is plain equality of representations and a
scalar is zero exactly when it is falsy.  Arithmetic is Python's operators on
representatives, reduced by `canon` where a result is stored, as in
`f.canon(a * b - c)`; a Field holds only what differs between the fields.

The accumulation kernels of tensor.py run on integers.  A field turns a
dict of scalars into integer numerators over one common denominator
(`numerators`, `numerator_rows`), and an accumulated numerator back into one
canonical scalar (`over`).  Over Q the numerators are scaled to the lcm of
the denominators.  Over F_p a residue is its own numerator over 1, so the
kernels read the given dict without a copy, and `over`, at a call's end, is
the one reduction mod p.  Numerators are unbounded Python ints: they grow
with a kernel's sums and products and never wrap, so no overflow bound holds.
"""

from math import gcd, lcm

from .errors import DivisionByZero, FieldMismatch, NoSuchRoot

WORD_LIMIT = 1 << 31


def is_prime(p):
    """Trial division; fine for p < 2^31."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """Common interface of the two concrete fields."""

    kind = None

    def assert_same(self, other):
        if self != other:
            raise FieldMismatch("cannot mix %r and %r" % (self, other))

    # subclasses: canon, parse, inv, zero, one, size, spec, root_of_unity,
    # sample, and the integer views of the module docstring: numerators,
    # numerator_rows, over


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p):
        # the size first: trial division is fine only below the limit
        if isinstance(p, int) and p >= WORD_LIMIT:
            raise ValueError("modulus %d too large (must be < 2^31)" % p)
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError("modulus %r is not a prime" % (p,))
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def __repr__(self):
        return "F_%d" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def spec(self):
        return {"kind": "prime", "p": self.p}

    @property
    def size(self):
        return self.p

    def canon(self, x):
        return int(x) % self.p

    def parse(self, s):
        return int(s, 10) % self.p

    def numerators(self, values):
        return values, 1

    def numerator_rows(self, rows):
        return rows, 1

    def over(self, n, den):
        return n % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of 0 in %r" % self)
        return pow(a, self.p - 2, self.p)

    def root_of_unity(self, n):
        """Smallest residue that is a primitive n-th root of unity."""
        if n == 1:
            return self.one
        p = self.p
        if (p - 1) % n != 0:
            raise NoSuchRoot("%r has no primitive %d-th root of unity" % (self, n))
        proper = [n // q for q in range(2, n + 1) if n % q == 0]
        # x^((p-1)/n) is an n-th root of unity for every x, and a primitive
        # one z for some x; the primitive roots are then the z^k with k prime
        # to n.  Scanning residues instead takes up to p steps.
        for x in range(2, p):
            z = pow(x, (p - 1) // n, p)
            if all(pow(z, m, p) != 1 for m in proper):
                return min(pow(z, k, p) for k in range(1, n) if gcd(k, n) == 1)
        raise NoSuchRoot("no primitive %d-th root found in %r" % (n, self))

    def sample(self, rng):
        return rng.below(self.p)


class RationalField(Field):
    kind = "rational"

    def __init__(self):
        # `fractions` (which loads `decimal` and `numbers`) is imported only
        # when a rational field is made, so prime-field data never pays for it
        from fractions import Fraction
        self.frac = Fraction
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def spec(self):
        return {"kind": "rational"}

    @property
    def size(self):
        return None

    def canon(self, x):
        frac = self.frac
        return x if type(x) is frac else frac(x)

    def parse(self, s):
        return self.frac(s)

    def numerators(self, values):
        """({key: numerator}, den) with value = numerator / den and den the
        lcm of the denominators."""
        den = lcm(*[v.denominator for v in values.values()])
        return {k: v.numerator * (den // v.denominator)
                for k, v in values.items()}, den

    def numerator_rows(self, rows):
        """numerators() of rows {key: ((x, scalar), ...)}, one den for all."""
        den = lcm(*[c.denominator for row in rows.values() for _, c in row])
        return {k: tuple([(x, c.numerator * (den // c.denominator))
                          for x, c in row]) for k, row in rows.items()}, den

    def over(self, n, den):
        return self.frac(n, den)

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in Q")
        return 1 / self.frac(a)

    def root_of_unity(self, n):
        if n == 1:
            return self.frac(1)
        if n == 2:
            return self.frac(-1)
        raise NoSuchRoot("Q contains no primitive %d-th root of unity" % n)

    def sample(self, rng):
        # small integers keep numerators under control in long products
        return self.frac(rng.below(7)) - 3


def field_from_spec(spec):
    kind = spec.get("kind")
    if kind == "prime":
        return PrimeField(spec["p"])
    if kind == "rational":
        return RationalField()
    raise ValueError("unknown field kind %r" % (kind,))
