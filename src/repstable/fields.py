"""Exact scalar arithmetic: the rationals and prime fields.

Every rank, solvability and classification decision in this package is made
with exact arithmetic; there are no numerical tolerances anywhere.  Field
elements support ``+ - *``, ``==`` and ``bool`` (nonzero test), and division
is ``field.div(a, b)``, so the linear algebra in :mod:`repstable.linalg` is
written once and runs over both fields.  Rational elements are ``int``
values unless a quotient is not integral, and ``int / int`` gives a float,
so no other module divides scalars with ``/``.
"""

from __future__ import annotations

from fractions import Fraction


class Mod:
    """An element of the prime field with ``p`` elements."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def __add__(self, other: "Mod") -> "Mod":
        return Mod(self.v + other.v, self.p)

    def __sub__(self, other: "Mod") -> "Mod":
        return Mod(self.v - other.v, self.p)

    def __neg__(self) -> "Mod":
        return Mod(-self.v, self.p)

    def __mul__(self, other: "Mod") -> "Mod":
        return Mod(self.v * other.v, self.p)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mod) and self.p == other.p and self.v == other.v

    def __hash__(self) -> int:
        return hash((self.v, self.p))

    def __bool__(self) -> bool:
        return self.v != 0

    def __repr__(self) -> str:
        return "%d" % self.v


class RationalField:
    """The field of rational numbers.  Elements are ``int`` values; a
    ``fractions.Fraction`` appears only where :meth:`div` meets a quotient
    that is not integral (and in what is computed from it).  The two mix
    exactly, and ``n`` and ``Fraction(n)`` are equal, hash alike, sort
    alike and format alike, so which one a value is never shows in a
    result."""

    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def of_int(self, n: int):
        return n

    def div(self, a, b):
        """``a / b``: an ``int`` when the quotient is integral."""
        if type(a) is int and type(b) is int and not a % b:
            return a // b
        q = Fraction(a, b)
        return q.numerator if q.denominator == 1 else q

    def fmt(self, x) -> str:
        return "%d/%d" % (x.numerator, x.denominator)

    def order_key(self, x):
        """A sort key for elements: the rational number itself."""
        return x

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("QQ")


class PrimeField:
    """The field GF(p) for a prime p."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, min(p, 1000))
                        if d * d <= p):
            raise ValueError("characteristic must be prime, got %d" % p)
        self.characteristic = p
        self._zero, self._one = Mod(0, p), Mod(1, p)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def of_int(self, n: int):
        return Mod(n, self.characteristic)

    def div(self, a, b):
        """``a / b``, through the inverse ``b ** (p - 2)``."""
        p = self.characteristic
        if b.v == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % p)
        return Mod(a.v * pow(b.v, p - 2, p), p)

    def fmt(self, x) -> str:
        return "%d/1" % x.v

    def order_key(self, x):
        """A sort key for elements: the representative in 0..p-1."""
        return x.v

    def __repr__(self) -> str:
        return "GF(%d)" % self.characteristic

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PrimeField)
                and other.characteristic == self.characteristic)

    def __hash__(self) -> int:
        return hash(("GF", self.characteristic))


QQ = RationalField()


def get_field(characteristic: int):
    """Field of the given characteristic: 0 for the rationals, p for GF(p)."""
    if characteristic == 0:
        return QQ
    return PrimeField(characteristic)
