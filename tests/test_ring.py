import re
from decimal import Decimal

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from fibaudit.ring import (
    GoldenInt,
    NotDivisible,
    NotRational,
    ONE,
    PHI,
    PSI,
    SQRT5,
    ZERO,
    conjugate,
    decimal_str,
    div_sqrt5,
    ring_pow,
    to_integer,
    unit_inverse,
    unit_pow,
)

# u must match v's parity, so generate u as 2a + (v mod 2)
golden = st.builds(
    lambda a, v: GoldenInt(2 * a + (v & 1), v),
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
)

# Plain int operands: 0, +-1, values past 64 bits, and a general range.
ints = st.one_of(
    st.sampled_from([0, 1, -1, 2**64 + 1, -(2**70) - 3]),
    st.integers(-(2**80), 2**80),
)


def test_parity_invariant_enforced():
    with pytest.raises(ValueError):
        GoldenInt(1, 0)
    # The check runs on every result, the int and GoldenInt fast paths too:
    # an element built around __init__ with u, v of unequal parity leaks
    # into no product or sum.
    bad = object.__new__(GoldenInt)
    bad.u, bad.v = 1, 0
    for op in (lambda: bad * 3, lambda: 3 * bad, lambda: bad * SQRT5, lambda: bad + PHI,
               lambda: bad - PHI):
        with pytest.raises(ValueError):
            op()


@pytest.mark.parametrize("digits", [10, 4300, 4301, 5001])
def test_parity_message_is_exact_on_both_sides_of_the_limit(digits):
    u = 10 ** (digits - 1) + 1  # odd, against an even v
    with pytest.raises(ValueError) as raised:
        GoldenInt(u, 2)
    assert str(raised.value) == f"parity violation: u={decimal_str(u)}, v=2 (need u ≡ v mod 2)"


@pytest.mark.parametrize("digits", [1, 4300, 4301, 5001])
def test_repr_round_trips_on_both_sides_of_the_limit(digits):
    # int(str) has the same limit as str(int), so the digits are read back
    # through Decimal.
    for a in (GoldenInt(2 * 10 ** (digits - 1) + 2, 2), GoldenInt(-3, -(10 ** digits) + 1)):
        u, v = re.fullmatch(r"GoldenInt\((-?\d+), (-?\d+)\)", repr(a)).groups()
        assert GoldenInt(int(Decimal(u)), int(Decimal(v))) == a


def test_defining_relations():
    assert PHI == GoldenInt(1, 1)
    assert PSI == GoldenInt(1, -1)
    assert PHI * PSI == -1
    assert PHI + PSI == 1
    assert PHI - PSI == SQRT5


def test_ring_mul_examples():
    assert PHI * PHI == GoldenInt(3, 1)  # phi^2 = phi + 1
    assert PHI * PSI == GoldenInt(-2, 0)
    z = GoldenInt(7, 3)
    assert ONE * z == z


def test_ring_pow_examples():
    assert ring_pow(PHI, 0) == GoldenInt(2, 0)
    assert ring_pow(PHI, 4) == GoldenInt(7, 3)
    assert ring_pow(PSI, 2) == GoldenInt(3, -1)


def test_ring_pow_rejects_negative():
    with pytest.raises(ValueError):
        ring_pow(PHI, -1)


def test_conjugate_examples():
    assert conjugate(PHI) == PSI
    z = GoldenInt(3, 1)
    assert conjugate(conjugate(z)) == z
    assert conjugate(z) == GoldenInt(3, -1)


def test_div_sqrt5_examples():
    assert div_sqrt5(PHI - PSI) == 1
    assert div_sqrt5(ring_pow(PHI, 10) - ring_pow(PSI, 10)) == 55
    with pytest.raises(NotDivisible):
        div_sqrt5(ONE)


def test_to_integer_examples():
    assert to_integer(GoldenInt(6, 0)) == 3
    assert to_integer(PHI * PSI) == -1
    with pytest.raises(NotRational):
        to_integer(PHI)


def test_unit_inverse():
    assert unit_inverse(PHI) * PHI == 1
    assert unit_pow(PHI, -1) == -PSI
    assert unit_inverse(PHI * PHI) == PSI * PSI  # norm +1
    with pytest.raises(NotDivisible):
        unit_inverse(GoldenInt(4, 0))  # norm 4, not a unit
    # A norm past the int->str limit is still reported as NotDivisible.
    with pytest.raises(NotDivisible, match=r"has norm 1\d{10000}, not a unit"):
        unit_inverse(GoldenInt(2 * 10**5000, 0))


def test_fraction_interop():
    assert PHI + Fraction(1) == GoldenInt(3, 1)
    assert Fraction(2) * PHI == GoldenInt(2, 2)
    with pytest.raises(TypeError):
        PHI * Fraction(1, 2)
    assert hash(GoldenInt(6, 0)) == hash(3) == hash(Fraction(3))
    assert hash(PHI) == hash(GoldenInt(1, 1))
    assert [bool(z) for z in (ZERO, ONE, SQRT5, PHI)] == [False, True, True, True]


def test_str_operands_are_refused():
    for op in (lambda: PHI + "1", lambda: PHI - "1", lambda: "1" - PHI,
               lambda: PHI * "1", lambda: PHI ** "2"):
        with pytest.raises(TypeError):
            op()
    assert (PHI == "1") is False


@given(golden, golden)
def test_conjugate_is_homomorphism(a, b):
    assert conjugate(a * b) == conjugate(a) * conjugate(b)
    assert conjugate(a + b) == conjugate(a) + conjugate(b)


@given(golden)
def test_norm_is_rational_integer(a):
    n = a * conjugate(a)
    assert n.v == 0
    assert n.u % 2 == 0


@given(golden, golden, ints)
def test_parity_closure(a, b, k):
    for z in (a + b, a - b, a * b, -a, a * k, k * a, a + k, a - k, k - a, a * True):
        assert type(z) is GoldenInt
        assert (z.u - z.v) % 2 == 0


@given(golden, ints)
def test_int_operands_match_ring_product(a, k):
    assert a * k == k * a == a * GoldenInt(2 * k, 0)
    assert conjugate(a * k) == conjugate(a) * k
    assert a + k == k + a == a + GoldenInt(2 * k, 0)
    assert a - k == -(k - a) == a - GoldenInt(2 * k, 0)
    assert a * True == True * a == a
    assert a * False == False * a == ZERO
    assert a + True == a + 1
    assert a * Fraction(k) == a * k
    with pytest.raises(TypeError):
        a * Fraction(2 * k + 1, 2)
    with pytest.raises(TypeError):
        Fraction(2 * k + 1, 2) * a


@given(golden, st.integers(0, 40))
def test_pow_matches_repeated_mul(a, k):
    expected = ONE
    for _ in range(k):
        expected = expected * a
    assert ring_pow(a, k) == expected


@given(st.integers(-(10**80), 10**80))
def test_decimal_str_is_str_within_the_limit(x):
    assert decimal_str(x) == str(x)


@pytest.mark.parametrize("digits", [4301, 6000, 25000, 100001])
@pytest.mark.parametrize("sign", [1, -1])
def test_decimal_str_past_the_limit_joins_str_of_its_pieces(digits, sign):
    # Cut |x| into 4000-digit pieces, each short enough for str(): the
    # divide and conquer path must give the pieces' digits in order.
    x = sign * (3 ** int(digits / 0.47712125472) % 10**digits + 10 ** (digits - 1))
    pieces, rest = [], abs(x)
    while rest >= 10**4000:
        rest, piece = divmod(rest, 10**4000)
        pieces.append(str(piece).zfill(4000))
    want = str(rest) + "".join(reversed(pieces))
    assert len(want) == digits
    assert decimal_str(x) == ("-" if sign < 0 else "") + want
