"""Exact scalar arithmetic over the rationals or a prime field GF(p).

Rational scalars are :class:`fractions.Fraction` values (arbitrary precision,
normalized sign and gcd).  Prime-field scalars are plain ints in ``[0, p)``.
A :class:`Field` parses, validates and formats scalars and offers per-scalar
arithmetic; the matrix kernel in :mod:`invcat.linalg` computes on plain ints
instead and picks its Q or GF(p) branch from ``Field.p``.  No floating point
anywhere.

Of the arithmetic the package calls only ``div`` (so ``mul`` and ``inv``);
``add`` and ``sub`` stay for the per-entry reference implementations in
``tests/test_linalg.py`` that check the integer kernel, and ``neg`` with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Union

from .errors import TooLarge, ValidationError

Scalar = Union[int, Fraction]

# The bit-length bound on the integers of a matrix entry: a raw int before it
# is reduced mod p, and the numerator and the denominator of a rational
# literal, whose text is refused unread where it is longer than that of
# -2^MAX_ENTRY_BITS.  The largest such integer in any bundled example, test
# or benchmark input or certificate has 14 bits (a residue mod 10007), 73x
# below this bound.
MAX_ENTRY_BITS = 1024
_MAX_ENTRY_CHARS = len(str(-(1 << MAX_ENTRY_BITS)))

# Miller-Rabin with the first 13 primes as bases decides primality exactly
# for every n below PRIME_BOUND (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality for ``n < PRIME_BOUND``."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _entry_int(x: Union[int, str], where: str) -> int:
    """The int ``x``, or the int that the text ``x`` writes; ``TooLarge``
    above ``MAX_ENTRY_BITS`` bits, or for a text too long to read."""
    if isinstance(x, str) and len(x) <= _MAX_ENTRY_CHARS:
        x = int(x)
    if isinstance(x, str) or x.bit_length() > MAX_ENTRY_BITS:
        raise TooLarge(f"{where}: an entry's integer exceeds {MAX_ENTRY_BITS} bits", path=where)
    return x


@dataclass(frozen=True)
class Field:
    """The rationals (``p is None``) or the prime field GF(p)."""

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is None:
            return
        if self.p >= PRIME_BOUND:
            raise TooLarge(
                f"field modulus {self.p} is not below {PRIME_BOUND}, "
                "the bound of the exact primality test",
                path="field.p",
            )
        if not _is_prime(self.p):
            raise ValidationError(f"field modulus {self.p} is not prime", path="field.p")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.p is None else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.p is None else 1

    def coerce(self, x: Any) -> Scalar:
        """Normalize ``x`` into this field's canonical scalar representation."""
        if self.p is None:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
            raise ValidationError(f"cannot coerce {x!r} into the rationals")
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValidationError(f"cannot coerce non-integer {x} into GF({self.p})")
            x = x.numerator
        if not isinstance(x, int):
            raise ValidationError(f"cannot coerce {x!r} into GF({self.p})")
        return x % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise ZeroDivisionError("division by zero field element")
        if self.p is None:
            return Fraction(1) / a
        return pow(a, -1, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    # --- serialization -----------------------------------------------------

    def parse_entry(self, v: Any, where: str = "entry") -> Scalar:
        """Parse a JSON matrix entry: an int, or ``"a/b"`` over the rationals.

        An integer of the entry above ``MAX_ENTRY_BITS`` bits is ``TooLarge``.
        """
        if isinstance(v, bool):
            raise ValidationError(f"{where}: boolean is not a scalar", path=where)
        if isinstance(v, int):
            return self.coerce(_entry_int(v, where))
        if self.p is None and isinstance(v, str):
            parts = v.split("/")
            try:
                if len(parts) <= 2:
                    return Fraction(*[_entry_int(x, where) for x in parts])
            except (ValueError, ZeroDivisionError):
                pass
            raise ValidationError(f"{where}: bad rational literal {v!r}", path=where)
        raise ValidationError(f"{where}: bad scalar {v!r}", path=where)

    def entry_to_json(self, a: Scalar) -> Any:
        if self.p is not None:
            return int(a)
        if a.denominator == 1:
            return int(a)
        return f"{a.numerator}/{a.denominator}"

    def describe(self) -> dict:
        if self.p is None:
            return {"kind": "rational"}
        return {"kind": "prime", "p": self.p}

    @classmethod
    def from_json(cls, obj: Any) -> "Field":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValidationError("field descriptor must be an object with 'kind'", path="field")
        kind = obj["kind"]
        if kind == "rational":
            return cls()
        if kind == "prime":
            p = obj.get("p")
            if not isinstance(p, int):
                raise ValidationError("prime field needs integer 'p'", path="field.p")
            return cls(p)
        raise ValidationError(f"unknown field kind {kind!r}", path="field.kind")


RATIONALS = Field()


def GF(p: int) -> Field:
    return Field(p)
