from fractions import Fraction
from math import gcd

import pytest

from qhopf.errors import (DivisionByZero, FieldMismatch, NoSuchRoot,
                          NotInvertible)
from qhopf.rng import SplitMix64
from qhopf.scalars import PrimeField, RationalField, field_from_spec, is_prime


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField((1 << 31) + 11)
    assert is_prime(2) and is_prime(7) and not is_prime(9)


def test_f7_inverse():
    f = PrimeField(7)
    inv2 = f.inv(2)
    # oracle: the defining equation, not a copied constant
    assert f.canon(2 * inv2) == 1
    assert inv2 == 4


def test_rational_add():
    q = RationalField()
    assert q.canon(Fraction(1, 2) + Fraction(1, 3)) == Fraction(5, 6)
    assert q.canon(-q.zero) == q.zero


def test_prime_field_operations():
    # the field operations are operators on representatives reduced by canon
    f = PrimeField(7)
    assert f.canon(3 + 5) == 1
    assert f.canon(3 - 5) == 5
    assert f.canon(3 * 5) == 1
    quotient = f.canon(3 * f.inv(5))
    assert f.canon(5 * quotient) == 3 and quotient == 2  # 5*2 = 10 = 3 mod 7
    assert f.canon(-3) == 4
    assert f.inv(3) == 5  # 3*5 = 15 = 1 mod 7


def test_canon_gives_canonical_form():
    # arithmetic is operators on representatives, so canon is the one place
    # where a value becomes the field's type in canonical form
    f = PrimeField(7)
    for x, want in ((3, 3), (7, 0), (3 * 5, 1), (3 - 5, 5), (-3, 4), (-14, 0),
                    (10 ** 20, 10 ** 20 % 7)):
        got = f.canon(x)
        assert type(got) is int and got == want and 0 <= got < 7
    q = RationalField()
    for x, want in ((2, Fraction(2)), (-3, Fraction(-3)), (0, Fraction(0)),
                    (Fraction(1, 2) + Fraction(1, 3), Fraction(5, 6)),
                    (Fraction(2, 4) - Fraction(1, 2), Fraction(0)),
                    (Fraction(3, 9) * Fraction(6, 4), Fraction(1, 2))):
        got = q.canon(x)
        assert type(got) is Fraction and got == want
        assert got.denominator > 0 and gcd(got.numerator, got.denominator) == 1
    # a value that already has the field's type is returned as it is
    half = Fraction(1, 2)
    assert q.canon(half) is half


def test_integer_views():
    q = RationalField()
    nums, den = q.numerators({0: Fraction(1, 2), 1: Fraction(-2, 3), 2: Fraction(5)})
    assert (nums, den) == ({0: 3, 1: -4, 2: 30}, 6)
    rows, den = q.numerator_rows({0: ((1, Fraction(1, 4)), (2, Fraction(3)))})
    assert (rows, den) == ({0: ((1, 1), (2, 12))}, 4)
    assert q.numerators({}) == ({}, 1)
    assert q.over(-4, 6) == Fraction(-2, 3) and type(q.over(6, 6)) is Fraction
    f = PrimeField(7)
    values = {0: 3, 1: 6}
    assert f.numerators(values) == (values, 1) and f.numerators(values)[0] is values
    assert f.numerator_rows(rows)[0] is rows
    assert f.over(-4, 1) == 3


def test_division_by_zero():
    f = PrimeField(7)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.inv(14)
    q = RationalField()
    with pytest.raises(DivisionByZero):
        q.inv(Fraction(0))
    # a zero scalar has no inverse, like a singular tensor
    assert issubclass(DivisionByZero, NotInvertible)


def test_field_mismatch():
    PrimeField(7).assert_same(PrimeField(7))
    with pytest.raises(FieldMismatch):
        PrimeField(7).assert_same(PrimeField(5))
    with pytest.raises(FieldMismatch):
        PrimeField(7).assert_same(RationalField())


def test_root_of_unity_f7():
    f = PrimeField(7)
    assert f.root_of_unity(2) == 6
    z = f.root_of_unity(3)
    assert z == 2  # smallest primitive choice is deterministic
    assert pow(z, 3, 7) == 1 and z != 1 and pow(z, 2, 7) != 1
    assert f.root_of_unity(6) == 3
    with pytest.raises(NoSuchRoot):
        f.root_of_unity(5)


def test_root_of_unity_is_the_smallest_primitive_root():
    # against a scan of every residue, for each prime below 200 and each
    # order dividing p - 1
    for p in range(3, 200):
        if not is_prime(p):
            continue
        f = PrimeField(p)
        for n in range(2, p):
            if (p - 1) % n:
                continue
            proper = [n // q for q in range(2, n + 1) if n % q == 0]
            want = next(r for r in range(2, p) if pow(r, n, p) == 1
                        and all(pow(r, m, p) != 1 for m in proper))
            assert f.root_of_unity(n) == want


def test_root_of_unity_largest_prime():
    # a scan of residues would take about 6e8 steps here
    f = PrimeField(2147483647)
    z = f.root_of_unity(3)
    assert z == 634005911
    assert pow(z, 3, f.p) == 1 and z != 1 and z < pow(z, 2, f.p)


def test_root_of_unity_rational():
    q = RationalField()
    assert q.root_of_unity(1) == 1
    assert q.root_of_unity(2) == -1
    with pytest.raises(NoSuchRoot):
        q.root_of_unity(3)


@pytest.mark.parametrize("field", [PrimeField(7), PrimeField(5), RationalField()])
def test_inverse_property_randomized(field):
    rng = SplitMix64(42)
    for _ in range(1000):
        a = field.sample(rng)
        if not a:
            continue
        assert field.canon(a * field.inv(a)) == field.one


def test_serialization_round_trip():
    f = PrimeField(7)
    assert f.parse(str(5)) == 5
    assert f.parse("-2") == 5
    q = RationalField()
    assert q.parse(str(Fraction(-2, 3))) == Fraction(-2, 3)
    assert str(Fraction(-2, 3)) == "-2/3"


def test_field_from_spec():
    assert field_from_spec({"kind": "prime", "p": 7}) == PrimeField(7)
    assert field_from_spec({"kind": "rational"}) == RationalField()
    with pytest.raises(ValueError):
        field_from_spec({"kind": "real"})
