import random
import time
from fractions import Fraction

import pytest

from invcat import Field, GF, RATIONALS, TooLarge, ValidationError
from invcat.fields import PRIME_BOUND


def test_rational_arithmetic_is_exact():
    f = RATIONALS
    a, b = Fraction(1, 3), Fraction(1, 6)
    assert f.add(a, b) == Fraction(1, 2)
    assert f.mul(a, b) == Fraction(1, 18)
    assert f.inv(a) == 3
    assert f.sub(f.one, f.one) == 0


def test_prime_field_tables():
    f = GF(5)
    rng = random.Random(0)
    for _ in range(100):
        a, b = rng.randrange(5), rng.randrange(1, 5)
        assert f.add(a, b) == (a + b) % 5
        assert f.mul(a, b) == (a * b) % 5
        assert f.mul(b, f.inv(b)) == 1
        assert f.sub(a, b) == (a - b) % 5
        assert f.neg(a) == (-a) % 5


def test_division_by_zero():
    for f in (RATIONALS, GF(3)):
        with pytest.raises(ZeroDivisionError):
            f.inv(f.zero)


def test_nonprime_modulus_rejected():
    for p in (0, 1, 4, 9, 15):
        with pytest.raises(ValidationError):
            Field(p)
    Field(2), Field(97)  # fine


def test_coercion_rules():
    assert RATIONALS.coerce(3) == Fraction(3)
    assert GF(7).coerce(-1) == 6
    assert GF(7).coerce(Fraction(10)) == 3
    with pytest.raises(ValidationError):
        GF(7).coerce(Fraction(1, 2))


def test_entry_parse_and_format_roundtrip():
    f = RATIONALS
    for raw in (3, -2, "5/4", "-7/2", "6/3"):
        s = f.parse_entry(raw)
        again = f.parse_entry(f.entry_to_json(s))
        assert again == s
    with pytest.raises(ValidationError):
        f.parse_entry("1/0")
    with pytest.raises(ValidationError):
        f.parse_entry(True)
    with pytest.raises(ValidationError):
        GF(3).parse_entry("1/2")


def test_field_descriptor_roundtrip():
    for f in (RATIONALS, GF(2), GF(11)):
        assert Field.from_json(f.describe()) == f
    with pytest.raises(ValidationError):
        Field.from_json({"kind": "galois"})


def test_large_prime_modulus_is_fast():
    start = time.perf_counter()
    Field(2**61 - 1)
    assert time.perf_counter() - start < 0.5


def test_strong_pseudoprimes_rejected():
    # 2047 fools base 2, 561 is a Carmichael number, 3215031751 fools bases 2..7
    for n in (2047, 561, 3215031751):
        with pytest.raises(ValidationError):
            Field(n)


def test_modulus_beyond_primality_bound_too_large():
    with pytest.raises(TooLarge):
        Field(PRIME_BOUND)
    with pytest.raises(TooLarge):
        Field.from_json({"kind": "prime", "p": 2**127 - 1})
