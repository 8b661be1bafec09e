"""Exact arithmetic in Z[(1+sqrt5)/2], the ring of integers of Q(sqrt5).

Elements are stored as (u + v*sqrt5)/2 with u, v integers of equal parity.
This representation makes sqrt5 itself a ring element (u=0, v=2) and keeps
division by sqrt5 a first-class, checked operation.

All values are immutable and all operations are pure functions.
"""
from __future__ import annotations

import decimal
from fractions import Fraction

_BITS_PER_LEAF = 128  # leaves of decimal_str's split, converted by Decimal(int)


def decimal_str(x: int) -> str:
    """str(x), also past CPython's int->str digit limit.

    `str` is used wherever the interpreter accepts x.  Above its limit, x is
    split on powers of two and recombined in `decimal`, whose strings are
    not limited, by the divide and conquer of CPython 3.12's
    `_pylong.int_to_decimal_string` (gh-90716): exact, since the context
    traps Inexact, and subquadratic, unlike str(Decimal(x)).  The
    interpreter's limit is neither read nor changed.
    """
    try:
        return str(x)
    except ValueError:
        pass
    D = decimal.Decimal
    powers: dict[int, decimal.Decimal] = {}

    def two_to(w: int) -> decimal.Decimal:
        if w not in powers:
            half = w >> 1
            powers[w] = D(2) ** w if w <= _BITS_PER_LEAF else two_to(half) * two_to(w - half)
        return powers[w]

    def convert(n: int, w: int) -> decimal.Decimal:  # 0 <= n < 2^w
        if w <= _BITS_PER_LEAF:
            return D(n)
        half = w >> 1
        hi = n >> half
        return convert(n - (hi << half), half) + convert(hi, w - half) * two_to(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        text = str(convert(abs(x), x.bit_length()))
    return "-" + text if x < 0 else text


class NotDivisible(ArithmeticError):
    """The element is not an exact sqrt5-multiple of a ring element."""


class NotRational(ArithmeticError):
    """Integer extraction attempted on an element with a sqrt5 part."""


class NotIntegral(ArithmeticError):
    """The element is rational but not a rational integer."""


class GoldenInt:
    """The value (u + v*sqrt5)/2 with u ≡ v (mod 2).

    Supports +, -, * and ** with other GoldenInts, ints, and integral
    Fractions.  Mixing with a non-integral rational is a TypeError: such
    a product leaves the ring, and silently widening the value domain
    would mask identity failures downstream.
    """

    __slots__ = ("u", "v")

    def __init__(self, u: int, v: int) -> None:
        if (u - v) % 2:
            raise ValueError(
                f"parity violation: u={decimal_str(u)}, v={decimal_str(v)} (need u ≡ v mod 2)"
            )
        self.u = u
        self.v = v

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, GoldenInt):
            return x
        if isinstance(x, int):
            return GoldenInt(2 * x, 0)
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return GoldenInt(2 * x.numerator, 0)
            raise TypeError(f"non-integral rational {x} cannot enter the ring exactly")
        return None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is GoldenInt else self._coerce(other)
        if o is None:
            return NotImplemented
        return GoldenInt(self.u + o.u, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GoldenInt else self._coerce(other)
        if o is None:
            return NotImplemented
        return GoldenInt(self.u - o.u, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GoldenInt(o.u - self.u, o.v - self.v)

    def __neg__(self):
        return GoldenInt(-self.u, -self.v)

    def __mul__(self, other):
        # A plain int scales both coordinates; bool, Fraction and other
        # operands take the checked coercion.
        if type(other) is int:
            return GoldenInt(self.u * other, self.v * other)
        o = other if type(other) is GoldenInt else self._coerce(other)
        if o is None:
            return NotImplemented
        # (u1+v1√5)(u2+v2√5)/4; the parity invariant makes both halves even.
        return GoldenInt(
            (self.u * o.u + 5 * self.v * o.v) // 2,
            (self.u * o.v + self.v * o.u) // 2,
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return ring_pow(self, k)

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, GoldenInt):
            return self.u == other.u and self.v == other.v
        if isinstance(other, (int, Fraction)):
            return self.v == 0 and Fraction(self.u, 2) == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.v == 0:
            return hash(Fraction(self.u, 2))
        return hash((self.u, self.v))

    def __repr__(self) -> str:
        return f"GoldenInt({decimal_str(self.u)}, {decimal_str(self.v)})"

    def __str__(self) -> str:
        v = decimal_str(self.v)
        return f"({decimal_str(self.u)}{v if self.v < 0 else '+' + v}*sqrt5)/2"

    def __bool__(self) -> bool:
        return self.u != 0 or self.v != 0


ZERO = GoldenInt(0, 0)
ONE = GoldenInt(2, 0)
PHI = GoldenInt(1, 1)     # (1+sqrt5)/2
PSI = GoldenInt(1, -1)    # (1-sqrt5)/2
SQRT5 = GoldenInt(0, 2)

#: The exact value domain used throughout: arbitrary-precision integer,
#: exact rational, or golden-ring element.  Arithmetic promotes upward
#: (int -> Fraction -> GoldenInt) and never loses exactness.
ExactScalar = int | Fraction | GoldenInt


def ring_pow(a: GoldenInt, k: int) -> GoldenInt:
    """Exact k-th power, k >= 0, by square-and-multiply."""
    if k < 0:
        raise ValueError(f"negative exponent {k}: the ring has no general inverses")
    result = ONE
    base = a
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def conjugate(a: GoldenInt) -> GoldenInt:
    """The field conjugate sqrt5 -> -sqrt5; an involutive ring homomorphism."""
    return GoldenInt(a.u, -a.v)


def norm(a: GoldenInt) -> int:
    """a * conjugate(a), always a rational integer."""
    return to_integer(a * conjugate(a))


def unit_inverse(a: GoldenInt) -> GoldenInt:
    """Exact inverse of a unit (norm +-1).

    Raises NotDivisible when a is not a unit of the ring.
    """
    n = norm(a)
    if n == 1:
        return conjugate(a)
    if n == -1:
        return -conjugate(a)
    raise NotDivisible(f"{a} has norm {decimal_str(n)}, not a unit")


def unit_pow(a: GoldenInt, k: int) -> GoldenInt:
    """a**k for any integer k; negative k requires a to be a unit."""
    if k >= 0:
        return ring_pow(a, k)
    return ring_pow(unit_inverse(a), -k)


def div_sqrt5(a: GoldenInt) -> GoldenInt:
    """Exact quotient a / sqrt5; raises NotDivisible if it leaves the ring."""
    # sqrt5 * (u' + v'√5)/2 = (5v' + u'√5)/2, so u' = v and v' = u/5.
    if a.u % 5:
        raise NotDivisible(f"{a} is not divisible by sqrt5")
    return GoldenInt(a.v, a.u // 5)


def to_integer(a: GoldenInt) -> int:
    """Extract a rational integer from an element with no sqrt5 part."""
    if a.v != 0:
        raise NotRational(f"{a} has a sqrt5 component")
    if a.u % 2:
        # unreachable while the parity invariant holds
        raise NotIntegral(f"{a} is a half-integer")
    return a.u // 2

