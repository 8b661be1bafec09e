"""The binomial-transform calculus: transform, inversion, backward
differences (two routes), and the product / weighted-sum identities built
on them.

All functions are pure and operate on immutable Seq values whose entries
are ExactScalars; no floating point anywhere.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .ring import ExactScalar
from .sequences import binomial


class LengthMismatch(ValueError):
    """Two sequences that must share a length do not."""


class DomainError(ValueError):
    """A parameter is outside the identity's stated domain."""


@dataclass(frozen=True)
class Seq:
    """A finite sequence indexed 0..n (length n+1), always non-empty."""

    values: tuple[ExactScalar, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("Seq must be non-empty")
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> ExactScalar:
        return self.values[i]

    def __iter__(self):
        return iter(self.values)


def binomial_transform(a: Seq) -> Seq:
    """b_n = sum_k C(n,k) a_k, for each index of a.

    b_n is ((I+E)^n a)_0, E the shift, so it is read off the leading
    entries of a difference table built with neighbour sums: about n^2/2
    additions, no binomials and no multiplications.
    """
    return _leading_entries(a, operator.add)


def inverse_transform(b: Seq) -> Seq:
    """a_n = sum_k C(n,k) (-1)^(n-k) b_k; inverts binomial_transform.

    a_n is the n-th forward difference of b at index 0, the leading entry
    of row n of b's difference table.
    """
    return _leading_entries(b, operator.sub)


def _leading_entries(values: Seq, step) -> Seq:
    """(row_0[0], row_1[0], ...) where row_0 is values and row_(j+1)[i]
    is step(row_j[i+1], row_j[i])."""
    row = list(values)
    out = [row[0]]
    while len(row) > 1:
        row = list(map(step, row[1:], row))
        out.append(row[0])
    return Seq(tuple(out))


def _check_index(b: Seq, m: int, n: int) -> None:
    if n >= len(b) or n < 0:
        raise IndexError(f"index n={n} out of range for length {len(b)}")
    if m > n or m < 0:
        raise IndexError(f"difference order m={m} out of range for n={n}")


def nabla_direct(b: Seq, m: int, n: int) -> ExactScalar:
    """m-fold backward difference at index n, by repeated differencing."""
    _check_index(b, m, n)
    vals = list(b.values[: n + 1])
    for _ in range(m):
        vals = [vals[i] - vals[i - 1] for i in range(1, len(vals))]
    return vals[-1]


def nabla_sum(b: Seq, m: int, n: int) -> ExactScalar:
    """m-fold backward difference at index n, as the alternating sum
    sum_k C(m,k) (-1)^k b_{n-k}.  Agrees with nabla_direct everywhere."""
    _check_index(b, m, n)
    return sum(binomial(m, k) * (-1) ** k * b[n - k] for k in range(m + 1))


def lemma2_lhs(a: Seq, m: int, n: int) -> ExactScalar:
    """sum_k C(n-m, k-m) a_k; equals the m-fold difference of the
    transform of a at index n."""
    _check_index(a, m, n)
    return sum(binomial(n - m, k - m) * a[k] for k in range(n + 1))


def lemma3_sum(n: int, m: int) -> Fraction:
    """sum_{k=m..n} C(n,k) C(k,m) (-1)^k / k, exactly (-1)^m / m."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    total = Fraction(0)
    for k in range(m, n + 1):
        total += Fraction(binomial(n, k) * binomial(k, m) * (-1) ** k, k)
    return total


def theorem1_eval(a: Seq, c: Seq) -> tuple[ExactScalar, ExactScalar, ExactScalar]:
    """Evaluate the product-sum identity three ways.

    Returns (lhs, rhs8, rhs81) where
      lhs   = sum_k C(n,k) a_k c_k,
      rhs8  = sum_m C(n,m) d_m nabla^m b_n,
      rhs81 = sum_k (-1)^k C(n,k) b_{n-k} sum_l C(n-k,l) d_{l+k},
    with b the binomial transform of a and d the alternating transform of c.
    All three are equal.
    """
    if len(a) != len(c):
        raise LengthMismatch(f"lengths {len(a)} and {len(c)} differ")
    n = len(a) - 1
    b = binomial_transform(a)
    d = inverse_transform(c)

    lhs = sum(binomial(n, k) * a[k] * c[k] for k in range(n + 1))
    rhs8 = sum(binomial(n, m) * d[m] * nabla_sum(b, m, n) for m in range(n + 1))
    rhs81 = sum(
        (-1) ** k
        * binomial(n, k)
        * b[n - k]
        * sum(binomial(n - k, l) * d[l + k] for l in range(n - k + 1))
        for k in range(n + 1)
    )
    return lhs, rhs8, rhs81


def corollary1_eval(e: Seq, x: ExactScalar) -> tuple[ExactScalar, ExactScalar]:
    """Polynomial identity sum_k C(n,k) e_k x^k =
    sum_j C(n,j) f_j x^j (1-x)^(n-j), with f_j = sum_{k<=j} C(j,k) e_k.

    Evaluated in the product form, so x = 1 is a legitimate input.
    """
    n = len(e) - 1
    f = binomial_transform(e)
    lhs = sum(binomial(n, k) * e[k] * x**k for k in range(n + 1))
    one_minus_x = 1 - x
    rhs = sum(
        binomial(n, j) * f[j] * x**j * one_minus_x**(n - j)
        for j in range(n + 1)
    )
    return lhs, rhs


def corollary2_eval(a: Seq, x: ExactScalar) -> tuple[ExactScalar, ExactScalar]:
    """Weighted-transform identity sum_k C(n,k) a_k x^k =
    sum_m C(n,m) nabla^m b_n (x-1)^m, for any exact scalar x."""
    n = len(a) - 1
    b = binomial_transform(a)
    lhs = sum(binomial(n, k) * a[k] * x**k for k in range(n + 1))
    x_minus_1 = x - 1
    rhs = sum(
        binomial(n, m) * nabla_sum(b, m, n) * x_minus_1**m
        for m in range(n + 1)
    )
    return lhs, rhs
