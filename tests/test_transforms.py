import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from fibaudit.ring import PHI, PSI, GoldenInt
from fibaudit.sequences import binomial
from fibaudit.transforms import (
    DomainError,
    LengthMismatch,
    Seq,
    binomial_transform,
    corollary1_eval,
    corollary2_eval,
    inverse_transform,
    lemma2_lhs,
    lemma3_sum,
    nabla_direct,
    nabla_sum,
    theorem1_eval,
)

int_seqs = st.lists(st.integers(-100, 100), min_size=1, max_size=32).map(
    lambda v: Seq(tuple(v))
)

FIB4 = Seq((0, 1, 1, 2))


def binomial_transform_def(a):
    """Reference definition: b_n = sum_k C(n,k) a_k."""
    return Seq(tuple(
        sum(binomial(n, k) * a[k] for k in range(n + 1)) for n in range(len(a))
    ))


def inverse_transform_def(b):
    """Reference definition: a_n = sum_k (-1)^(n-k) C(n,k) b_k."""
    return Seq(tuple(
        sum((-1) ** (n - k) * binomial(n, k) * b[k] for k in range(n + 1))
        for n in range(len(b))
    ))


def _golden(rng):
    u, w = rng.randint(-20, 20), rng.randint(-20, 20)
    return GoldenInt(u, u + 2 * w)  # (u + v*sqrt5)/2 needs u = v (mod 2)


SCALAR_MAKERS = {
    "int": lambda rng: rng.randint(-50, 50),
    "Fraction": lambda rng: Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
    "GoldenInt": _golden,
}


def test_seq_non_empty():
    with pytest.raises(ValueError):
        Seq(())


def test_binomial_transform_examples():
    assert binomial_transform(FIB4)[3] == 8
    zeros = Seq((0, 0, 0, 0))
    assert binomial_transform(zeros) == zeros
    delta = Seq((1, 0, 0, 0))
    assert binomial_transform(delta) == Seq((1, 1, 1, 1))


def test_inverse_transform_examples():
    assert inverse_transform(binomial_transform(FIB4)) == FIB4
    assert inverse_transform(Seq((1, 1, 1, 1))) == Seq((1, 0, 0, 0))
    zeros = Seq((0, 0, 0))
    assert inverse_transform(zeros) == zeros


@pytest.mark.parametrize("kind", sorted(SCALAR_MAKERS))
def test_transforms_match_definition_all_scalars(kind):
    rng = random.Random(kind)
    for length in range(1, 41):  # from length 1, where both return the input
        a = Seq(tuple(SCALAR_MAKERS[kind](rng) for _ in range(length)))
        assert binomial_transform(a) == binomial_transform_def(a), (kind, length)
        assert inverse_transform(a) == inverse_transform_def(a), (kind, length)


def test_transforms_match_definition_length_513():
    rng = random.Random(513)
    a = Seq(tuple(rng.randint(-50, 50) for _ in range(513)))
    assert binomial_transform(a) == binomial_transform_def(a)
    assert inverse_transform(a) == inverse_transform_def(a)


@given(int_seqs)
def test_transforms_match_definition(a):
    assert binomial_transform(a) == binomial_transform_def(a)
    assert inverse_transform(a) == inverse_transform_def(a)


@given(int_seqs)
def test_round_trip(a):
    assert inverse_transform(binomial_transform(a)) == a
    assert binomial_transform(inverse_transform(a)) == a


def test_nabla_examples():
    b = Seq((1, 2, 4, 8))
    assert nabla_direct(b, 0, 2) == 4
    assert nabla_direct(Seq((0, 1, 2, 3)), 1, 3) == 1
    assert nabla_direct(b, 2, 3) == 2
    assert nabla_sum(b, 2, 3) == 2


def test_nabla_index_errors():
    b = Seq((1, 2, 3))
    with pytest.raises(IndexError):
        nabla_direct(b, 0, 3)
    with pytest.raises(IndexError):
        nabla_sum(b, 3, 2)


@given(int_seqs)
@settings(max_examples=50)
def test_nabla_routes_agree(b):
    for n in range(min(len(b), 17)):
        for m in range(n + 1):
            assert nabla_direct(b, m, n) == nabla_sum(b, m, n)


def test_lemma2_examples():
    b = binomial_transform(FIB4)
    assert lemma2_lhs(FIB4, 0, 3) == b[3]
    assert lemma2_lhs(FIB4, 3, 3) == FIB4[3]
    assert lemma2_lhs(FIB4, 1, 3) == 5
    assert lemma2_lhs(FIB4, 1, 3) == nabla_sum(b, 1, 3)


@given(int_seqs)
@settings(max_examples=50)
def test_lemma2_equals_nabla_of_transform(a):
    b = binomial_transform(a)
    for n in range(len(a)):
        for m in range(n + 1):
            assert lemma2_lhs(a, m, n) == nabla_sum(b, m, n)


def test_lemma3():
    assert lemma3_sum(2, 1) == Fraction(-1)
    assert lemma3_sum(3, 2) == Fraction(1, 2)
    for n in range(1, 31):
        for m in range(1, n + 1):
            assert lemma3_sum(n, m) == Fraction((-1) ** m, m)
    assert lemma3_sum(2, 3) == lemma3_sum(0, 1) == 0  # n < m: the empty sum
    with pytest.raises(DomainError):
        lemma3_sum(3, 0)


def test_theorem1_constant_weight_collapses():
    a = Seq((3, -1, 4, 1))
    c = Seq((1, 1, 1, 1))
    lhs, rhs8, rhs81 = theorem1_eval(a, c)
    assert lhs == rhs8 == rhs81 == binomial_transform(a)[3]


def test_theorem1_fib_squares():
    lhs, rhs8, rhs81 = theorem1_eval(FIB4, FIB4)
    assert lhs == rhs8 == rhs81 == 10


def test_theorem1_length_mismatch():
    with pytest.raises(LengthMismatch):
        theorem1_eval(Seq((1, 2)), Seq((1, 2, 3)))


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-30, 30), min_size=n, max_size=n),
            st.lists(st.integers(-30, 30), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=60)
def test_theorem1_three_way_equality(pair):
    a, c = (Seq(tuple(v)) for v in pair)
    lhs, rhs8, rhs81 = theorem1_eval(a, c)
    assert lhs == rhs8 == rhs81


SCALAR_XS = (0, 1, -1, Fraction(1, 2), 2, PHI, PSI)


def test_corollary1_examples():
    e = Seq((1, 2, 3))
    assert corollary1_eval(e, 0) == (e[0], e[0])
    lhs, rhs = corollary1_eval(e, 1)
    assert lhs == rhs == 1 + 2 * 2 + 3  # f_n at x = 1
    lhs, rhs = corollary1_eval(e, Fraction(1, 2))
    assert lhs == Fraction(15, 4)
    assert rhs == Fraction(15, 4)


def test_corollary2_examples():
    lhs, rhs = corollary2_eval(FIB4, 1)
    assert lhs == rhs == binomial_transform(FIB4)[3]
    lhs, rhs = corollary2_eval(FIB4, 2)
    assert lhs == rhs == 34
    lhs, rhs = corollary2_eval(FIB4, PHI)
    assert lhs == rhs


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=13).map(lambda v: Seq(tuple(v))))
@settings(max_examples=40)
def test_corollaries_all_scalars(a):
    for x in SCALAR_XS:
        lhs, rhs = corollary1_eval(a, x)
        assert lhs == rhs, ("corollary1", x)
        lhs, rhs = corollary2_eval(a, x)
        assert lhs == rhs, ("corollary2", x)
