import random
from fractions import Fraction

import pytest

from chernflat.scalars import (
    GaussianRational,
    I,
    ONE,
    ZERO,
    accumulate,
    format_rational,
    format_scalar,
    gaussian,
    parse_scalar,
)


def test_construction_and_equality():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert a.re == Fraction(1, 2)
    assert a.im == Fraction(-3, 4)
    assert GaussianRational(2) == 2
    assert GaussianRational(Fraction(5, 3)) == Fraction(5, 3)
    assert GaussianRational(1, 1) != 1
    assert gaussian(a) is a


def test_arithmetic_field_axioms_random():
    rng = random.Random(2024)
    for _ in range(200):
        a = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        b = GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
        c = GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == ZERO
        if b:
            assert (a / b) * b == a
            assert b * b.conjugate() == gaussian(b.re * b.re + b.im * b.im)
        assert a * ONE == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_powers_and_inverse():
    x = GaussianRational(2, -1)
    assert x ** 0 == ONE
    assert x ** 3 == x * x * x
    assert x ** -2 == ONE / (x * x)
    assert I * I == -ONE
    with pytest.raises(ZeroDivisionError):
        _ = ONE / ZERO


def test_mixed_type_coercion():
    x = GaussianRational(1, 2)
    assert x + 1 == GaussianRational(2, 2)
    assert 1 + x == GaussianRational(2, 2)
    assert x * Fraction(1, 2) == GaussianRational(Fraction(1, 2), 1)
    assert Fraction(3, 2) - x == GaussianRational(Fraction(1, 2), -2)
    with pytest.raises(TypeError):
        gaussian(1.5)


def test_hash_matches_rational_values():
    assert hash(GaussianRational(3)) == hash(Fraction(3))
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
    d = {GaussianRational(1, 1): "a"}
    assert d[GaussianRational(1, 1)] == "a"


def test_parse_format_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        v = GaussianRational(
            Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
        )
        assert parse_scalar(format_scalar(v)) == v


def test_parse_scalar_literals():
    assert parse_scalar("i") == I
    assert parse_scalar("-i") == -I
    assert parse_scalar("3*i") == GaussianRational(0, 3)
    assert parse_scalar("-5/2") == GaussianRational(Fraction(-5, 2))
    assert parse_scalar("1/2+3/4*i") == GaussianRational(Fraction(1, 2), Fraction(3, 4))
    assert parse_scalar("1-i") == GaussianRational(1, -1)
    for bad in ("", "x", "1.5", "i*i", "1//2"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_rational_helpers():
    assert format_rational(Fraction(4, 2)) == "2"


def test_accumulate_drops_cancelled_keys_and_shares_new_values():
    acc: dict = {}
    half = Fraction(1, 2)
    accumulate(acc, "a", half)
    accumulate(acc, "b", Fraction(1))
    assert acc["a"] is half
    accumulate(acc, "a", -half)
    assert acc == {"b": 1}
    accumulate(acc, "c", Fraction(0))
    assert acc == {"b": 1}
    # a cancelled key that comes back is inserted again at the end
    accumulate(acc, "a", Fraction(3))
    assert list(acc.items()) == [("b", 1), ("a", 3)]
    acc = {0: GaussianRational(2)}
    accumulate(acc, 0, I)
    assert type(acc[0]) is GaussianRational and acc[0] == GaussianRational(2, 1)
