"""Integer sequence generators: Fibonacci, Lucas, binomials, q/s coefficients.

Every generator here is computable two independent ways (fast doubling vs
naive recurrence; recurrence-filled tables vs direct summation), so each can
serve as an oracle for the other.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass


class RecurrenceMismatch(ValueError):
    """A recurrence-filled table entry disagrees with the direct definition."""


def _fib_pair(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) by fast doubling."""
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n >> 1)
    c = a * (2 * b - a)          # F_{2k}
    d = a * a + b * b            # F_{2k+1}
    if n & 1:
        return d, c + d
    return c, d


def fib(n: int) -> int:
    """F_n with F_0=0, F_1=1, in O(log n) big-integer multiplications."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _fib_pair(n)[0]


def lucas(n: int) -> int:
    """L_n with L_0=2, L_1=1, via L_n = 2*F_{n+1} - F_n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    a, b = _fib_pair(n)
    return 2 * b - a


def fib_naive(n: int) -> int:
    """Reference implementation: iterate the recurrence term by term."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas_naive(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 for k < 0 or k > n.

    The out-of-range-zero convention is relied on throughout: the identity
    sums here silently truncate via vanishing binomial tails.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def q_coeff(n: int, c: int) -> int:
    """q(n, c) = sum_{m=0..n} (-1)^m C(n+1, 2m+c+1).

    The reference definition.  Terms with m > (n-c)/2 have 2m+c+1 > n+1,
    so their binomials vanish and the loop stops there.
    """
    if n < 0 or c < 0:
        raise ValueError("n and c must be non-negative")
    return sum(
        (-1) ** m * binomial(n + 1, 2 * m + c + 1) for m in range((n - c) // 2 + 1)
    )


def s_coeff(n: int, c: int) -> int:
    """s(n, c) = (-1)^(n+c) * sum_{m=0..n} (-1)^m C(n+1, 2m+c+1)."""
    return (-1) ** (n + c) * q_coeff(n, c)


def coeff_row(kind: str, n: int) -> tuple[int, ...]:
    """Row n of the q ("Q") or s ("S") coefficients, (x(n,0), ..., x(n,n)),
    in O(n) big-integer additions and small-integer multiplications.

    The defining sums of q(n,c) and q(n,c+2) differ only in the first
    term, so q(n,c) = C(n+1,c+1) - q(n,c+2).  The row is filled from c = n
    down, with q(n,c) = 0 for c > n and C(n+1,c+1) updated exactly as c
    falls.  s(n,c) = (-1)^(n+c) q(n,c).
    """
    if kind not in ("Q", "S"):
        raise ValueError(f"kind must be 'Q' or 'S', got {kind!r}")
    if n < 0:
        raise ValueError("n must be non-negative")
    row = [0] * (n + 3)
    b = 1  # C(n+1, c+1), starting at c = n
    for c in range(n, -1, -1):
        row[c] = b - row[c + 2]
        b = b * (c + 1) // (n + 1 - c)
    del row[n + 1:]
    return _s_row(row) if kind == "S" else tuple(row)


def _s_row(q_row) -> tuple[int, ...]:
    """Row n of the s-table from row n of the q-table:
    s(n,c) = (-1)^(n+c) q(n,c)."""
    row = list(q_row)
    odd = len(row) % 2  # the first c with n + c odd, n = len(row) - 1
    row[odd::2] = [-x for x in row[odd::2]]
    return tuple(row)


@dataclass(frozen=True)
class CoeffTable:
    """Triangular table of q(n,c) or s(n,c), 0 <= c <= n <= n_max."""

    kind: str  # "Q" or "S"
    n_max: int
    rows: tuple[tuple[int, ...], ...]

    def __getitem__(self, nc: tuple[int, int]) -> int:
        n, c = nc
        return self.rows[n][c]


# Entries at or below this row index are re-derived from the direct sum
# before the first row is handed out; a disagreement raises
# RecurrenceMismatch.
_CROSS_CHECK_LIMIT = 20


def _check_row(n: int, row: tuple[int, ...], expected, source: str) -> None:
    """Raise RecurrenceMismatch at the first entry of q row n that differs
    from `expected`, the row as `source` gives it."""
    for c, (value, want) in enumerate(zip(row, expected)):
        if value != want:
            raise RecurrenceMismatch(f"Q({n},{c}): recurrence gave {value}, {source} gives {want}")


def _next_row(n: int, prev: tuple[int, ...]) -> tuple[int, ...]:
    """Row n+1 of the q-table from row n by the recurrences."""
    # q(n,1) lies outside row n only at n = 0; take it from the definition.
    at1 = prev[1] if n else q_coeff(0, 1)
    row = [1 - at1 + prev[0]]
    row += [x + y for x, y in zip(prev, prev[1:])]  # c = 1..n
    row.append(q_coeff(n + 1, n + 1))
    return tuple(row)


def coeff_rows(kind: str, n_max: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..n_max of the q- or s-table, one at a time, from the q
    recurrences (valid for row n -> n+1):
      c in 1..n:  q(n+1,c) = q(n,c-1) + q(n,c)
      c = 0:      q(n+1,0) = C(n+1,0) - q(n,1) + q(n,0)
    The diagonal entry of each new row comes from the definition.  An s row
    is its q row with s(n,c) = (-1)^(n+c) q(n,c) applied.

    Rows 0..min(n_max, _CROSS_CHECK_LIMIT) of q are filled and checked
    against the definition by this call, so a bad argument (ValueError) or
    a disagreement (RecurrenceMismatch) is raised here, before any row is
    handed out.  Each later row is made from the one before when it is
    asked for, so no table is held; rows n_max and n_max//2 past them are
    checked against `coeff_row` as they are made.
    """
    if kind not in ("Q", "S"):
        raise ValueError(f"kind must be 'Q' or 'S', got {kind!r}")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")

    head = [(q_coeff(0, 0),)]
    for n in range(min(n_max, _CROSS_CHECK_LIMIT)):
        head.append(_next_row(n, head[n]))
    for n, row in enumerate(head):
        _check_row(n, row, (q_coeff(n, c) for c in range(len(row))), "definition")
    rows = _rows_after(head, n_max)
    return map(_s_row, rows) if kind == "S" else rows


def _rows_after(head: list, n_max: int) -> Iterator[tuple[int, ...]]:
    """The checked rows `head`, then the rows after them up to n_max, of
    which rows n_max and n_max//2 are checked against `coeff_row`."""
    yield from head
    row = head[-1]
    for n in range(len(head), n_max + 1):
        row = _next_row(n - 1, row)
        if n in (n_max, n_max // 2):
            _check_row(n, row, coeff_row("Q", n), "coeff_row")
        yield row


def build_coeff_table(kind: str, n_max: int) -> CoeffTable:
    """The whole q- or s-table: every row of `coeff_rows`, kept."""
    return CoeffTable(kind=kind, n_max=n_max, rows=tuple(coeff_rows(kind, n_max)))
