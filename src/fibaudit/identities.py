"""Fibonacci-power binomial sums: two independent oracles, the twelve
golden-ring power relations, the four weighted-sum closed forms, and the
closed-form evaluators plus audit machinery for the power-4p..4p+3 sums.

The printed closed forms are evaluated exactly as stated (including
suspect subscripts, as sub-variant "readings") and compared against the
brute-force oracle; disagreements are reported as FAIL verdicts, never
silently corrected.

`FAMILY_FACTS` holds what each family is: the p and n of its cells, its
readings, its column kind and its --families group tag.  `audit`
evaluates its grid one (family, p) column at a time.  Each column gives
its sides two ways, each as (left side, {reading: right side, or the
NotIntegral/NotDivisible it raised}): `reference(n)` evaluates one cell
(`fib_power_sum_oracle`, `closed_form_rhs`, `_lucas_weighted_sum`, the
direct LEMMA and PROP1 sums), and `dense_sides()` iterates over the
column's n values.  What depends only on (family, p) is built once by the
column's first cell, and the q/s rows once per (kind, n) for the whole
call.  A column is dense when its n values are every n its family takes up
to N: 0..N in every CLI audit, or one parity for T4.  Its left sides,
sum_k C(n,k) sigma^k F_k^P for T2..T7 and sum_k C(n,k) w^k F_k for PROP1,
are then read off one binomial transform, and its right sides are carried
from one n to the next: the Fibonacci and Lucas factors of T2..T5 and
PROP1's numerator powers step, T6/T7 take dot products of the shared rows
with Lucas lists built once per column, and LEMMA5/7 sum both sides on
integer coordinates.  `_Column.sides(n)` takes the next dense value, or in
any other column (such as a single large n) calls `reference(n)`; at n = N
and at the column's middle n it takes both, and a disagreement in value,
type or exception message raises FastPathMismatch, which the CLI reports
on one stderr line with exit 1.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import count, groupby, islice
from json.encoder import encode_basestring_ascii
from operator import mul
from typing import Callable, NamedTuple

from .ring import (
    GoldenInt,
    NotDivisible,
    NotIntegral,
    ONE,
    PHI,
    PSI,
    SQRT5,
    div_sqrt5,
    ring_pow,
    to_integer,
    unit_inverse,
    unit_pow,
)
from .sequences import binomial, coeff_row, fib, lucas
from .transforms import Seq, binomial_transform


class PreconditionError(ValueError):
    """An evaluator precondition (e.g. a*b = -1) does not hold."""


class IdentityFamily(Enum):
    """One tag per audited identity; enum order fixes report ordering."""

    REMARK1_1 = "REMARK1_1"
    REMARK1_2 = "REMARK1_2"
    REMARK1_3 = "REMARK1_3"
    REMARK1_4 = "REMARK1_4"
    REMARK1_5 = "REMARK1_5"
    REMARK1_6 = "REMARK1_6"
    REMARK1_7 = "REMARK1_7"
    REMARK1_8 = "REMARK1_8"
    REMARK1_9 = "REMARK1_9"
    REMARK1_10 = "REMARK1_10"
    REMARK1_11 = "REMARK1_11"
    REMARK1_12 = "REMARK1_12"
    PROP1_811 = "PROP1_811"
    PROP1_812 = "PROP1_812"
    PROP1_813 = "PROP1_813"
    PROP1_814 = "PROP1_814"
    T2 = "T2"
    T3 = "T3"
    T4_EVEN = "T4_EVEN"
    T4_ODD = "T4_ODD"
    T5 = "T5"
    T6 = "T6"
    T7 = "T7"
    LEMMA5 = "LEMMA5"
    LEMMA7 = "LEMMA7"


_FAMILY_ORDER = {f: i for i, f in enumerate(IdentityFamily)}


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _sign_value(sign: str) -> int:
    if sign == "+":
        return 1
    if sign == "-":
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def fib_power_sum_oracle(n: int, p: int, sign: str = "+") -> int:
    """sum_{k=0..n} (+-1)^k C(n,k) F_k^p by direct big-integer summation."""
    sigma = _sign_value(sign)
    total = 0
    c = 1  # C(n, k), updated incrementally
    fk, fk1 = 0, 1
    s = 1
    for k in range(n + 1):
        total += s * c * fk**p
        c = c * (n - k) // (k + 1)
        fk, fk1 = fk1, fk + fk1
        s *= sigma
    return total


def fib_power_sum_binet(n: int, p: int, sign: str = "+") -> int:
    """The same sum via golden-ring arithmetic: F_k^p is expanded as
    (phi^k - psi^k)^p and the sqrt5^p divisor is removed by checked
    division.  Structurally independent of the integer recurrence."""
    sigma = _sign_value(sign)
    total = GoldenInt(0, 0)
    xk = ONE
    yk = ONE
    c = 1
    s = 1
    for k in range(n + 1):
        total = total + (s * c) * ring_pow(xk - yk, p)
        c = c * (n - k) // (k + 1)
        xk = xk * PHI
        yk = yk * PSI
        s *= sigma
    for _ in range(p):
        total = div_sqrt5(total)
    return to_integer(total)


# ---------------------------------------------------------------------------
# Golden-ring power relations (twelve) and the weighted-sum closed forms
# ---------------------------------------------------------------------------


def remark1_relation(p: int, index: int) -> tuple[GoldenInt, GoldenInt]:
    """Both sides of the indexed power relation (index 1..12), exactly."""
    if p < 1:
        raise ValueError("p must be >= 1")
    x, y = PHI, PSI
    relations = {
        1: lambda: (x ** (4 * p) + 1, x ** (2 * p) * lucas(2 * p)),
        2: lambda: (x ** (4 * p) - 1, x ** (2 * p) * SQRT5 * fib(2 * p)),
        3: lambda: (x ** (4 * p - 2) + 1, x ** (2 * p - 1) * SQRT5 * fib(2 * p - 1)),
        4: lambda: (x ** (4 * p + 2) + 1, x ** (2 * p + 1) * SQRT5 * fib(2 * p + 1)),
        5: lambda: (x ** (4 * p - 2) - 1, x ** (2 * p - 1) * lucas(2 * p - 1)),
        6: lambda: (x ** (4 * p + 2) - 1, x ** (2 * p + 1) * lucas(2 * p + 1)),
        7: lambda: (y ** (4 * p) + 1, y ** (2 * p) * lucas(2 * p)),
        8: lambda: (y ** (4 * p) - 1, -(y ** (2 * p)) * SQRT5 * fib(2 * p)),
        9: lambda: (y ** (4 * p - 2) + 1, -(y ** (2 * p - 1)) * SQRT5 * fib(2 * p - 1)),
        10: lambda: (y ** (4 * p + 2) + 1, -(y ** (2 * p + 1)) * SQRT5 * fib(2 * p + 1)),
        11: lambda: (y ** (4 * p - 2) - 1, y ** (2 * p - 1) * lucas(2 * p - 1)),
        12: lambda: (y ** (4 * p + 2) - 1, y ** (2 * p + 1) * lucas(2 * p + 1)),
    }
    if index not in relations:
        raise ValueError(f"relation index must be 1..12, got {index}")
    lhs, rhs = relations[index]()
    return GoldenInt._coerce(lhs), GoldenInt._coerce(rhs)


def _weighted_fib_sum(n: int, w: GoldenInt) -> GoldenInt:
    """sum_{k=0..n} C(n,k) w^k F_k by direct summation, carrying w^k, C(n,k)
    and F_k from term to term (one ring multiplication per term)."""
    u = v = 0
    wk = ONE
    c = 1  # C(n, k)
    fk, fk1 = 0, 1
    for k in range(n + 1):
        m = c * fk
        u += m * wk.u
        v += m * wk.v
        wk = wk * w
        c = c * (n - k) // (k + 1)
        fk, fk1 = fk1, fk + fk1
    return GoldenInt(u, v)


def _prop1_terms(p: int, variant: int):
    """w and the two numerator bases of a variant's closed form, each base
    with its sign pattern: the closed form at n is
    (eps_a a^n - eps_b b^n)/sqrt5, where eps is (-1)^n for a base marked
    alternating and 1 otherwise.  Returns (w, (a, a_alt), (b, b_alt))."""
    x, y = PHI, PSI
    if variant == 811:
        return unit_pow(x, p), (unit_pow(x, p + 1) + 1, False), (unit_pow(x, p - 1) - 1, True)
    if variant == 812:
        return -unit_pow(x, p), (unit_pow(x, p + 1) - 1, True), (unit_pow(x, p - 1) + 1, False)
    if variant == 813:
        return unit_pow(y, p), (unit_pow(y, p - 1) - 1, True), (unit_pow(y, p + 1) + 1, False)
    if variant == 814:
        return -unit_pow(y, p), (unit_pow(y, p - 1) + 1, False), (unit_pow(y, p + 1) - 1, True)
    raise ValueError(f"variant must be one of 811, 812, 813, 814, got {variant}")


def _prop1_rhs(n: int, a_pow: GoldenInt, a_alt: bool, b_pow: GoldenInt, b_alt: bool) -> GoldenInt:
    """(eps_a a^n - eps_b b^n)/sqrt5 from a^n and b^n; raises NotDivisible
    when the numerator is not a sqrt5 multiple."""
    odd = n % 2
    return div_sqrt5(
        (-a_pow if a_alt and odd else a_pow) - (-b_pow if b_alt and odd else b_pow)
    )


def prop1_eval(n: int, p: int, variant: int) -> tuple[GoldenInt, GoldenInt]:
    """Weighted binomial sums of F_k against golden-power weights and their
    closed forms (variants 811..814).  Both sides as exact ring elements."""
    w, (a, a_alt), (b, b_alt) = _prop1_terms(p, variant)
    return _weighted_fib_sum(n, w), _prop1_rhs(n, a**n, a_alt, b**n, b_alt)


# ---------------------------------------------------------------------------
# Closed-form evaluation over Q(sqrt5)
# ---------------------------------------------------------------------------


def _reduce(total: int, sqrt5_exp: int, five_exp: int):
    """sqrt5^sqrt5_exp * total / 5^five_exp as an ExactScalar.

    An even power of sqrt5 gives a rational: an int when integral, else a
    Fraction.  An odd one gives b*sqrt5: the int 0 when b = 0, the ring
    element GoldenInt(0, 2b) when b is an integer, and otherwise
    NotIntegral with the exact value, "0+b*sqrt5" with b as num/den.
    """
    half, odd = divmod(sqrt5_exp, 2)
    shift = half - five_exp
    if shift >= 0:
        b = total * 5**shift
    elif total % 5**-shift:
        b = Fraction(total, 5**-shift)
    else:
        b = total // 5**-shift
    if not odd or total == 0:
        return b
    if type(b) is int:
        return GoldenInt(0, 2 * b)
    raise NotIntegral(f"0{'+' if b > 0 else ''}{b}*sqrt5")


def _lucas_weighted_sum(row: tuple[int, ...], e: int, j_hi: int, le: int) -> int:
    """row[0] + sum_{j=1..j_hi} row[j] * L_{e*j}, where row[j] = 0 past the
    end of the row and le = L_e.

    L_{e*j} is generated by L_{e(j+1)} = L_e L_{ej} - (-1)^e L_{e(j-1)}.
    """
    if not row:
        return 0
    total = row[0]
    sign = -1 if e % 2 else 1  # (-1)^e
    prev, cur = 2, le  # L_0, L_e
    for j in range(1, min(j_hi, len(row) - 1) + 1):
        total += row[j] * cur
        prev, cur = cur, le * cur - sign * prev
    return total


class _Rows(dict):
    """coeff_row(kind, n) by (kind, n), each row built on first use.  Row -1
    is empty, since every binomial in the defining sum of q(-1, c)
    vanishes."""

    def __missing__(self, key: tuple[str, int]) -> tuple[int, ...]:
        kind, n = key
        row = self[key] = coeff_row(kind, n) if n >= 0 else ()
        return row


def _t6_t7_constants(family: IdentityFamily, p: int) -> dict[int, tuple[int, int]]:
    """(F_e, L_e) for every index e of a T6/T7 term at p: e = m-4t in the
    q-sums and m-4t-2 in the s-sums, which depend on p alone."""
    m = 4 * p + (1 if family is IdentityFamily.T6 else 3)
    indices = [m - 4 * t for t in range(p + 1)] + [m - 4 * t - 2 for t in range(p)]
    return {e: (fib(e), lucas(e)) for e in indices}


def _t6_t7_rhs(
    family: IdentityFamily, n: int, p: int, readings, rows: _Rows,
    constants: dict | None = None, weights: dict | None = None, f_tail: int | None = None,
) -> dict:
    """closed_form_rhs of T6 or T7 at (n, p) for each reading in `readings`.

    With m = 4p+1 (T6) or 4p+3 (T7) the printed form is
      sum_{t<=t_hi} C(m,2t) F_e q-sum(e=m-4t, j<=j_hi)
        - (-1)^n sum_{t<p} C(m,2t+1) F_e s-sum(e=m-4t-2, j<=n-1)
        + C(m,(m-1)/2) F_{2n (T6) or n (T7)},  over 5^((m-1)/2),
    the q- and s-sums running over rows n-1, taken from `rows`.  Each term
    with its Lucas-weighted sum is computed once per (row, e, effective j
    bound): the rows are zero past their end, so T7's 'printed' (j <= n)
    and 'j-to-n-1' share every sum.  `constants` is
    `_t6_t7_constants(family, p)`, which an audit column computes once.
    Each sum is `_lucas_weighted_sum`, or with `weights` (`_carried_t6_t7`)
    a dot product of the row with the weights of e; `f_tail`, when given,
    is the tail's Fibonacci number.
    """
    if constants is None:
        constants = _t6_t7_constants(family, p)
    if family is IdentityFamily.T6:
        m, tail_index = 4 * p + 1, 2 * n
        bounds = {"printed": (p - 1, n - 1), "t-to-p": (p, n - 1)}
    else:
        m, tail_index = 4 * p + 3, n
        bounds = {"printed": (p, n), "t-to-p-1": (p - 1, n), "j-to-n-1": (p, n - 1)}
    row_of = {"Q": rows["Q", n - 1], "S": rows["S", n - 1]}
    terms: dict = {}

    def term(kind: str, c: int, e: int, j_hi: int) -> int:
        # (kind, e) fixes c, so the key fixes the whole term.
        row = row_of[kind]
        k = min(j_hi, len(row) - 1)
        if (kind, e, k) not in terms:
            f_e, l_e = constants[e]
            if weights is None:
                total = _lucas_weighted_sum(row, e, j_hi, l_e)
            else:
                total = _dot(row[:k + 1], weights[e])
            terms[kind, e, k] = binomial(m, c) * f_e * total
        return terms[kind, e, k]

    part2 = sum(term("S", 2 * t + 1, m - 4 * t - 2, n - 1) for t in range(p))
    tail = binomial(m, m // 2) * (fib(tail_index) if f_tail is None else f_tail)
    out = {}
    for reading in readings:
        t_hi, j_hi = bounds[reading]
        part1 = sum(term("Q", 2 * t, m - 4 * t, j_hi) for t in range(t_hi + 1))
        out[reading] = _reduce(part1 - (-1) ** n * part2 + tail, 0, m // 2)
    return out


def closed_form_rhs(
    family: IdentityFamily, n: int, p: int, reading: str = "printed"
):
    """Exact value of the printed closed form for the given family.

    Returns an ExactScalar; raises NotIntegral when the printed formula
    evaluates to something outside both the rationals and the golden ring
    (the audit records that as a FAIL with the exact value in the note).
    """
    if reading not in FAMILY_READINGS.get(family, ()):
        raise ValueError(f"unknown reading {reading!r} for {family.value}")

    if family is IdentityFamily.T2:
        total = binomial(4 * p, 2 * p) * 2**n
        for i in range(2 * p):
            eps = (-1) ** i if n % 2 == 0 else 1
            j = 2 * p - i
            total += eps * binomial(4 * p, i) * lucas(j) ** n * lucas(j * n)
        return _reduce(total, 0, 2 * p)

    if family is IdentityFamily.T3:
        total = 0
        for i in range(2 * p + 2):
            eps = (-1) ** i if n % 2 == 0 else 1
            j = 2 * p + 1 - i
            total += eps * binomial(4 * p + 2, i) * fib(abs(j)) ** n * lucas(abs(j) * n)
        return _reduce(total, n, 2 * p + 1)

    if family in (IdentityFamily.T4_EVEN, IdentityFamily.T4_ODD):
        even = family is IdentityFamily.T4_EVEN
        total = 0
        for i in range(2 * p + 1):
            j = 2 * p - i
            f_base = fib(j * n) if reading == "printed" else fib(j)
            if even:
                total += (-1) ** i * binomial(4 * p, i) * lucas(j * n) * f_base**n
            else:
                total += (-1) ** i * binomial(4 * p, i) * fib(j * n) * f_base**n
        if even:
            return _reduce(total, n, 2 * p)
        # (1/sqrt5)^(4p-1) = sqrt5 / 5^(2p)
        return _reduce(total, n + 1, 2 * p)

    if family is IdentityFamily.T5:
        total = binomial(4 * p + 2, 2 * p + 1) * 2**n
        for i in range(2 * p + 1):
            eps = (-1) ** i if n % 2 == 0 else 1
            j = 2 * p + 1 - i
            total += eps * binomial(4 * p + 2, i) * lucas(j) ** n * lucas(j * n)
        return _reduce(-total if n % 2 else total, 0, 2 * p + 1)

    if family in (IdentityFamily.T6, IdentityFamily.T7):
        return _t6_t7_rhs(family, n, p, (reading,), _Rows())[reading]

    raise ValueError(f"{family.value} has no closed-form evaluator")


# ---------------------------------------------------------------------------
# Coefficient-expansion identities (the q/s machinery)
# ---------------------------------------------------------------------------


def cross_power_expansion(n: int, a, shift: int):
    """Both routes of the (a+shift)^(n-j)(b+shift)^j expansion, with
    b = -1/a (so a*b = -1 exactly).

    Returns (direct, expanded) where direct is the plain double-power sum
    and expanded uses the q (shift +1) or s (shift -1) coefficients against
    the power sums a^c + b^c.
    """
    a_shift, b_shift, power_sums = _cross_power_lists(a, shift, n)
    return (
        _cross_power_direct(n, a_shift, b_shift),
        _cross_power_expanded(coeff_row("Q" if shift == 1 else "S", n), power_sums),
    )


def _cross_power_lists(a, shift: int, n_max: int) -> tuple[list, list, list]:
    """(a+shift)^j, (b+shift)^j and a^c + b^c for j, c = 0..n_max, with
    b = -1/a; checks shift and the precondition a*b = -1."""
    if shift not in (1, -1):
        raise ValueError(f"shift must be +1 or -1, got {shift}")
    if isinstance(a, GoldenInt):
        try:
            b = -unit_inverse(a)
        except NotDivisible as exc:
            raise PreconditionError(f"{a} is not invertible in the ring") from exc
    else:
        a = Fraction(a)
        if a == 0:
            raise PreconditionError("a must be non-zero")
        b = Fraction(-1) / a
    if a * b != -1:
        raise PreconditionError(f"a*b = {a * b}, expected -1")
    power_sums = [x + y for x, y in zip(_powers(a, n_max), _powers(b, n_max))]
    return _powers(a + shift, n_max), _powers(b + shift, n_max), power_sums


def _cross_power_direct(n: int, a_shift: list, b_shift: list):
    """sum_{j=0..n} (a+shift)^(n-j) (b+shift)^j."""
    return sum(a_shift[n - j] * b_shift[j] for j in range(n + 1))


def _cross_power_expanded(row: tuple[int, ...], power_sums: list):
    """q(n,0) + sum_{c=1..n} q(n,c) (a^c + b^c) from row n of q, or the same
    with s."""
    return sum(row[c] * power_sums[c] for c in range(1, len(row))) + row[0]


def _powers(x, n: int) -> list:
    """[x^0, ..., x^n] by repeated multiplication; x^0 is the integer 1."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


# ---------------------------------------------------------------------------
# Audit driver
# ---------------------------------------------------------------------------


def render_exact(x) -> str:
    """Canonical exact string: ints in decimal, rationals as num/den,
    ring elements as (u+v*sqrt5)/2."""
    if isinstance(x, bool):
        raise TypeError("bool is not an exact scalar")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, GoldenInt):
        return str(x)
    raise TypeError(f"cannot render {type(x).__name__} exactly")


class AuditEntry(NamedTuple):
    family: str
    n: int | None
    p: int | None
    reading: str
    lhs: str
    rhs: str
    verdict: str  # "PASS" | "FAIL"
    note: str

    def as_dict(self) -> dict:
        return self._asdict()


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[AuditEntry, ...]
    notes: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return all(e.verdict == "PASS" for e in self.entries)

    def to_json(self) -> str:
        # The layout of json.dumps([e.as_dict() ...], indent=2), written
        # entry by entry; strings are escaped by the C function that
        # json.dumps itself calls for a str.
        if not self.entries:
            return "[]"
        dumps = encode_basestring_ascii
        return "[\n" + ",\n".join(
            f'  {{\n    "family": {dumps(e.family)},\n'
            f'    "n": {"null" if e.n is None else e.n},\n'
            f'    "p": {"null" if e.p is None else e.p},\n'
            f'    "reading": {dumps(e.reading)},\n'
            f'    "lhs": {dumps(e.lhs)},\n'
            f'    "rhs": {dumps(e.rhs)},\n'
            f'    "verdict": {dumps(e.verdict)},\n'
            f'    "note": {dumps(e.note)}\n  }}'
            for e in self.entries
        ) + "\n]"

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(AuditEntry._fields) + "\n")
        writer = csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator="\n")
        writer.writerows(["" if v is None else v for v in e] for e in self.entries)
        return buf.getvalue()

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            head = f"{e.verdict}  {e.family}"
            params = []
            if e.p is not None:
                params.append(f"p={e.p}")
            if e.n is not None:
                params.append(f"n={e.n}")
            if e.reading:
                params.append(f"reading={e.reading}")
            lines.append(f"{head} [{', '.join(params)}] lhs={e.lhs} rhs={e.rhs}")
            if e.note:
                lines.append(f"      note: {e.note}")
        for note in self.notes:
            lines.append(f"# {note}")
        return "\n".join(lines) + "\n"


_ADJUDICATION_NOTES = {
    IdentityFamily.T3: (
        "T3: the even-n branch drops a vanishing 0^n term and therefore fails "
        "at n=0; the odd-n branch evaluates to a sqrt5 multiple, not an "
        "integer, for every applicable (n,p)."
    ),
    IdentityFamily.T4_EVEN: (
        "T4: the printed term mixes L and F subscripts ambiguously; reading "
        "'printed' takes F_[(2p-i)n] literally, reading 'base-subscript' uses "
        "F_[2p-i] as the power base (which matches the even-n oracle for n>=2)."
    ),
    IdentityFamily.T4_ODD: (
        "T4 odd branch: neither reading matches the oracle; the printed "
        "(-1)^i sign pattern and missing overall sign disagree with direct "
        "summation."
    ),
    IdentityFamily.T5: (
        "T5: odd-n branch verified; in the even-n branch the C(4p+2,2p+1)*2^n "
        "term enters with the wrong sign."
    ),
    IdentityFamily.T6: (
        "T6: verified as printed (first t-sum to p-1 plus the explicit "
        "C(4p+1,2p)F_[2n] term); reading 't-to-p' double-counts that term."
    ),
    IdentityFamily.T7: (
        "T7: verified as printed (first t-sum to p, first j-sum to n); "
        "'j-to-n-1' is equivalent since q(n-1,n)=0, 't-to-p-1' drops a term."
    ),
    IdentityFamily.LEMMA5: (
        "LEMMA5/LEMMA7: the (a^j + b^j) factor is read as (a^c + b^c), c "
        "being the summation variable."
    ),
    IdentityFamily.LEMMA7: (
        "s-table c=0 recurrence implemented with the sign corrected on the "
        "s(n,1) term, s(n+1,0) = -s(n,1) - s(n,0) + (-1)^(n+1), verified "
        "against the direct definition."
    ),
}


class FastPathMismatch(RuntimeError):
    """A dense column's transformed or carried value disagrees with the
    per-cell evaluation at a sampled n: a fault of the program, not of a
    printed formula."""


def _caught(fn, *args):
    """fn(*args), or the NotIntegral or NotDivisible it raises, without its
    traceback: a column keeps it, and a traceback would tie the column into
    a cycle of frames."""
    try:
        return fn(*args)
    except (NotIntegral, NotDivisible) as exc:
        return exc.with_traceback(None)


def _outcome(value):
    """What a sampled check compares: type and value, an exception's type
    and message, or a dict of these by reading."""
    if isinstance(value, dict):
        return {key: _outcome(v) for key, v in value.items()}
    if isinstance(value, Exception):
        return type(value), str(value)
    return type(value), value


def _dot(xs, ys) -> int:
    """sum_i xs[i] ys[i] over the shorter of the two."""
    return sum(map(mul, xs, ys))


def _geometric(ratios: list, first: list):
    """Yield first, first*ratios, first*ratios^2, ... elementwise."""
    while True:
        yield first
        first = list(map(mul, first, ratios))


def _recurrent(first: list, second: list, mult: list, sign: list):
    """Yield first, second, ... elementwise by x_{k+2} = mult x_{k+1} -
    sign x_k.  With mult = L_d and sign = (-1)^d these are L_{dk} or F_{dk}
    for k = 0, 1, 2, ...: X_{a+d} = L_d X_a - (-1)^d X_{a-d} for X = F, L."""
    while True:
        yield first
        first, second = second, [m * y - s * x for m, s, x, y in zip(mult, sign, first, second)]


def _carried_t2_t5(family: IdentityFamily, p: int):
    """{"printed": closed form} of T2, T3 or T5 at n = 0, 1, 2, ..., one n
    per step: the terms of closed_form_rhs summed as printed, with L_j^n or
    F_j^n and L_{jn} carried from the previous n.  L_{jn} starts at L_0 = 2,
    which also gives T3's j = 0."""
    t3 = family is IdentityFamily.T3
    if family is IdentityFamily.T2:
        m, js = 4 * p, range(2 * p, 0, -1)
    else:  # j = 2p+1 down to 0 (T3) or 1 (T5)
        m, js = 4 * p + 2, range(2 * p + 1, -1 if t3 else 0, -1)
    head = 0 if t3 else binomial(m, m // 2)
    plain = [binomial(m, i) for i in range(len(js))]
    signed = [(-1) ** i * c for i, c in enumerate(plain)]
    l_j = [lucas(j) for j in js]
    pows = _geometric([fib(j) for j in js] if t3 else l_j, [1] * len(js))
    l_jn = _recurrent([2] * len(js), l_j, l_j, [(-1) ** j for j in js])
    for n in count():
        terms = map(mul, next(pows), next(l_jn))
        total = head * 2**n + _dot(plain if n % 2 else signed, terms)
        if family is IdentityFamily.T2:
            yield {"printed": _reduce(total, 0, 2 * p)}
        elif t3:
            yield {"printed": _caught(_reduce, total, n, 2 * p + 1)}
        else:
            yield {"printed": _reduce(-total if n % 2 else total, 0, 2 * p + 1)}


def _carried_t4(family: IdentityFamily, p: int, n0: int):
    """{reading: closed form} of T4_EVEN or T4_ODD at n = n0, n0+2, ...:
    L_{jn} and F_{jn} carried by X_{j(n+2)} = L_{2j} X_{jn} - X_{j(n-2)},
    and F_j^n by F_j^2 per step.  The printed reading's F_{jn}^n changes
    base with n, so it is taken per n."""
    even = family is IdentityFamily.T4_EVEN
    js = range(2 * p, -1, -1)
    coeffs = [(-1) ** i * binomial(4 * p, i) for i in range(2 * p + 1)]
    f_j = [fib(j) for j in js]
    l_2j = [lucas(2 * j) for j in js]

    def carried(x):  # x_{jn} for x = fib or lucas
        first, second = [x(j * n0) for j in js], [x(j * (n0 + 2)) for j in js]
        return _recurrent(first, second, l_2j, [1] * len(js))

    l_jn, f_jn = carried(lucas), carried(fib)
    pows = _geometric([f * f for f in f_j], [f**n0 for f in f_j])
    for n in count(n0, 2):
        l, f, f_j_n = next(l_jn), next(f_jn), next(pows)
        sums = {"base-subscript": f_j_n, "printed": [x**n for x in f]}
        yield {
            reading: _caught(
                _reduce, _dot(coeffs, map(mul, l if even else f, bases)),
                n if even else n + 1, 2 * p,
            )
            for reading, bases in sums.items()
        }


def _carried_t6_t7(
    family: IdentityFamily, p: int, readings, rows: _Rows, constants: dict, n_max: int
):
    """`_t6_t7_rhs` at n = 0, 1, 2, ..., each weighted sum a dot product of
    its row with (1, L_e, L_2e, ..., L_{n_max e}), built once per index e of
    `constants`: 1 stands in for L_0, since row[0] enters unweighted.  The
    tail's F_{dn}, d = 2 (T6) or 1 (T7), is carried from the previous n."""
    l_e = [l for _, l in constants.values()]
    l_ej = _recurrent([2] * len(l_e), l_e, l_e, [(-1) ** e for e in constants])
    table = zip(*islice(l_ej, n_max + 1))  # one tuple (L_0, L_e, ...) per e
    weights = {e: (1, *column[1:]) for e, column in zip(constants, table)}
    d = 2 if family is IdentityFamily.T6 else 1
    f_dn = _recurrent([0], [fib(d)], [lucas(d)], [(-1) ** d])
    for n in count():
        yield _t6_t7_rhs(family, n, p, readings, rows, constants, weights, next(f_dn)[0])


def _carried_lemma(a_shift: list, b_shift: list, weights: list, rows: _Rows, kind: str):
    """Both sides of LEMMA5 (kind Q) or LEMMA7 (kind S) at n = 0, 1, 2, ...,
    each summed on the integer coordinates of the lists and made one
    GoldenInt.  At n = 0 each side is the int 1, as in the per-cell sums."""
    (au, av), (bu, bv), (su, sv) = map(_coordinates, (a_shift, b_shift, weights))
    yield 1, {"printed": rows[kind, 0][0]}  # the one term 1*1; q(0,0) = s(0,0) = 1
    for n in count(1):
        row = rows[kind, n]
        ru, rv = au[n::-1], av[n::-1]
        left = GoldenInt(
            (_dot(ru, bu) + 5 * _dot(rv, bv)) // 2, (_dot(ru, bv) + _dot(rv, bu)) // 2
        )
        yield left, {"printed": GoldenInt(_dot(row, su), _dot(row, sv))}


def _coordinates(xs: list) -> tuple[list, list]:
    """The u and v lists of xs as ring elements (an int x is (2x, 0))."""
    ring = [GoldenInt._coerce(x) for x in xs]
    return [g.u for g in ring], [g.v for g in ring]


class _Column:
    """The cells of one (family, p) column of an audit, in ascending n.

    A subclass gives the sides at n, (left side, {reading: right side}),
    two ways: `reference(n)` per cell, and `dense_sides()` over the n
    values of a dense column (0..N, or for T4 every n of one parity up to
    N).  `build` sets what depends on (family, p) alone.  The dense
    iterator must not hold its column: a generator method would keep
    `self` in its frame, a cycle that only the cyclic GC frees.  `rows`
    holds the q/s rows of the whole audit.
    """

    def __init__(self, family: IdentityFamily, p: int | None, n_values: tuple, rows: _Rows):
        self.family = family
        self.p = p
        self.n_values = n_values
        self.rows = rows
        r, m = FAMILY_FACTS[family].n_mod
        self.dense = n_values == tuple(range(r, n_values[-1] + 1, m))
        self.sample = {n_values[-1], n_values[(len(n_values) - 1) // 2]} if self.dense else ()
        self.fast = None  # dense_sides() of a dense column
        self.memo = None  # (n, left side, its rendering, right sides)

    def sides(self, n: int) -> tuple:
        """(left side, its rendering, {reading: right side, or the
        NotIntegral/NotDivisible it raised}) at n, computed once per n.  The
        first call builds the column, so that work is part of its first
        cell.  A dense column takes `dense_sides` and checks it against
        `reference` at N and at its middle n; any other takes `reference`."""
        if self.memo is None:
            self.build()
            self.fast = self.dense_sides() if self.dense else None
        elif self.memo[0] == n:
            return self.memo[1:]
        if self.fast is None:
            lhs, forms = self.reference(n)
        else:
            lhs, forms = next(self.fast)
            if n in self.sample:
                sides = ("left side", lhs), ("closed form", forms)
                for (what, value), ref in zip(sides, self.reference(n)):
                    if _outcome(value) != _outcome(ref):
                        raise FastPathMismatch(
                            f"{self.family.value} p={self.p}: the column's {what} "
                            f"disagrees with the per-cell evaluation at n={n}"
                        )
        self.memo = n, lhs, render_exact(lhs), forms
        return self.memo[1:]


class _OracleColumn(_Column):
    """T2..T7: the left side sum_k sigma^k C(n,k) F_k^P.  A dense column reads
    it off one transform of length N+1 and takes its closed forms from
    `_carried_t2_t5`, `_carried_t4` or `_carried_t6_t7`; a cell takes the
    oracle and `closed_form_rhs`, or `_t6_t7_rhs` with the column's
    constants."""

    def build(self) -> None:
        facts = FAMILY_FACTS[self.family]
        self.power, self.sign, self.readings = facts.power(self.p), facts.sign, facts.readings
        if self.family in (IdentityFamily.T6, IdentityFamily.T7):
            self.constants = _t6_t7_constants(self.family, self.p)

    def reference(self, n: int) -> tuple:
        lhs = fib_power_sum_oracle(n, self.power, self.sign)
        if self.family in (IdentityFamily.T6, IdentityFamily.T7):
            return lhs, _t6_t7_rhs(self.family, n, self.p, self.readings, self.rows, self.constants)
        return lhs, {r: _caught(closed_form_rhs, self.family, n, self.p, r) for r in self.readings}

    def dense_sides(self):
        n0, n_max = self.n_values[0], self.n_values[-1]
        sigma = _sign_value(self.sign)
        terms = []
        s, fk, fk1 = 1, 0, 1
        for _ in range(n_max + 1):
            terms.append(s * fk**self.power)
            s, fk, fk1 = s * sigma, fk1, fk + fk1
        values = binomial_transform(Seq(tuple(terms))).values
        if self.family in (IdentityFamily.T6, IdentityFamily.T7):
            forms = _carried_t6_t7(
                self.family, self.p, self.readings, self.rows, self.constants, n_max
            )
        elif self.family in (IdentityFamily.T4_EVEN, IdentityFamily.T4_ODD):
            values, forms = values[n0::2], _carried_t4(self.family, self.p, n0)
        else:
            forms = _carried_t2_t5(self.family, self.p)
        return zip(values, forms)


class _Prop1Column(_Column):
    """PROP1: the left side sum_k C(n,k) w^k F_k and the closed form
    (eps_a a^n - eps_b b^n)/sqrt5.  A dense column reads the left side off
    one transform per coordinate and carries a^n and b^n; a cell takes
    `_weighted_fib_sum` and a**n, b**n."""

    def build(self) -> None:
        variant = int(self.family.value.split("_")[1])
        self.w, self.a, self.b = _prop1_terms(self.p, variant)

    def reference(self, n: int) -> tuple:
        (a, a_alt), (b, b_alt) = self.a, self.b
        rhs = _caught(_prop1_rhs, n, a**n, a_alt, b**n, b_alt)
        return _weighted_fib_sum(n, self.w), {"printed": rhs}

    def dense_sides(self):
        us, vs = [], []
        wk, fk, fk1 = ONE, 0, 1
        for _ in self.n_values:
            us.append(wk.u * fk)
            vs.append(wk.v * fk)
            wk, fk, fk1 = wk * self.w, fk1, fk + fk1
        u, v = binomial_transform(Seq(tuple(us))), binomial_transform(Seq(tuple(vs)))
        (a, a_alt), (b, b_alt) = self.a, self.b
        forms = (
            {"printed": _caught(_prop1_rhs, n, a_n, a_alt, b_n, b_alt)}
            for n, (a_n, b_n) in enumerate(_geometric([a, b], [ONE, ONE]))
        )
        return zip(map(GoldenInt, u, v), forms)


class _LemmaColumn(_Column):
    """LEMMA5/LEMMA7 at a = phi: the power lists to the largest n, built once.
    A dense column takes both sides from `_carried_lemma`; a cell takes
    `_cross_power_direct` and `_cross_power_expanded`."""

    def build(self) -> None:
        self.shift = 1 if self.family is IdentityFamily.LEMMA5 else -1
        self.kind = "Q" if self.shift == 1 else "S"
        self.a_shift, self.b_shift, self.power_sums = _cross_power_lists(
            PHI, self.shift, self.n_values[-1]
        )

    def reference(self, n: int) -> tuple:
        rhs = _cross_power_expanded(self.rows[self.kind, n], self.power_sums)
        return _cross_power_direct(n, self.a_shift, self.b_shift), {"printed": rhs}

    def dense_sides(self):
        # Every list starts at the int 1, which also weighs row[0].
        weights = [1, *self.power_sums[1:]]
        return _carried_lemma(self.a_shift, self.b_shift, weights, self.rows, self.kind)


class FamilyFacts(NamedTuple):
    """What one family is; `FAMILY_FACTS` holds one record per family."""

    readings: tuple[str, ...]  # the first is the literal reading
    p_min: int | None  # the least p, or None: the family takes no p
    n_mod: tuple[int, int] | None  # (r, m): every n with n % m == r, or None: no n
    column: type[_Column] | None  # None: REMARK1, whose cells share nothing
    power: Callable[[int], int] | None = None  # T2..T7: the Fibonacci power at p
    sign: str | None = None  # T2..T7: the oracle's sign
    group: str | None = None  # the --families tag that names it with its kin

    def ps(self, p_values: list) -> list:
        return [None] if self.p_min is None else [p for p in p_values if p >= self.p_min]

    def ns(self, n_values: list) -> list:
        if self.n_mod is None:
            return [None]
        return [n for n in n_values if n % self.n_mod[1] == self.n_mod[0]]


# The readings of most families, and of T4, T6 and T7.
_PRINTED, _T4 = ("printed",), ("printed", "base-subscript")
_T6, _T7 = ("printed", "t-to-p"), ("printed", "t-to-p-1", "j-to-n-1")
_REMARK1 = FamilyFacts(_PRINTED, 1, None, None, group="REMARK1")
_PROP1 = FamilyFacts(_PRINTED, 0, (0, 1), _Prop1Column, group="PROP1")

#: The facts of every family, in enum order.
FAMILY_FACTS: dict[IdentityFamily, FamilyFacts] = {
    **{IdentityFamily(f"REMARK1_{i}"): _REMARK1 for i in range(1, 13)},
    **{IdentityFamily(f"PROP1_{v}"): _PROP1 for v in (811, 812, 813, 814)},
    IdentityFamily.T2: FamilyFacts(_PRINTED, 1, (0, 1), _OracleColumn, lambda p: 4 * p, "+"),
    IdentityFamily.T3: FamilyFacts(_PRINTED, 0, (0, 1), _OracleColumn, lambda p: 4 * p + 2, "+"),
    IdentityFamily.T4_EVEN: FamilyFacts(_T4, 1, (0, 2), _OracleColumn, lambda p: 4 * p, "-", "T4"),
    IdentityFamily.T4_ODD: FamilyFacts(_T4, 1, (1, 2), _OracleColumn, lambda p: 4 * p, "-", "T4"),
    IdentityFamily.T5: FamilyFacts(_PRINTED, 0, (0, 1), _OracleColumn, lambda p: 4 * p + 2, "-"),
    IdentityFamily.T6: FamilyFacts(_T6, 0, (0, 1), _OracleColumn, lambda p: 4 * p + 1, "+"),
    IdentityFamily.T7: FamilyFacts(_T7, 0, (0, 1), _OracleColumn, lambda p: 4 * p + 3, "+"),
    IdentityFamily.LEMMA5: FamilyFacts(_PRINTED, None, (0, 1), _LemmaColumn),
    IdentityFamily.LEMMA7: FamilyFacts(_PRINTED, None, (0, 1), _LemmaColumn),
}

#: The readings, and (Fibonacci power as a function of p, oracle sign), per
#: closed-form family.
FAMILY_READINGS = {f: x.readings for f, x in FAMILY_FACTS.items() if x.power}
FAMILY_POWER_SIGN = {f: (x.power, x.sign) for f, x in FAMILY_FACTS.items() if x.power}


def _column(
    family: IdentityFamily, p: int | None, n_values: tuple, rows: _Rows
) -> _Column | None:
    """The unbuilt state of a (family, p) column, or None for REMARK1."""
    column = FAMILY_FACTS[family].column
    return None if column is None else column(family, p, n_values, rows)


#: The FAIL note of a closed form that raised, by exception type.
_RAISED_NOTES = {
    NotIntegral: "closed form is not a rational integer",
    NotDivisible: "closed form not divisible by sqrt5",
}


def _audit_cell(
    family: IdentityFamily, n: int | None, p: int | None, reading: str,
    column: _Column | None,
) -> AuditEntry:
    """Evaluate one grid cell; failures are data, not exceptions.

    `column` is the state shared by the cells of this (family, p); the
    column's first cell builds it.
    """
    if column is None:
        lhs, rhs = remark1_relation(p, int(family.value.split("_")[1]))
        lhs_text = render_exact(lhs)
    else:
        lhs, lhs_text, forms = column.sides(n)
        rhs = forms[reading]
    if isinstance(rhs, Exception):
        rhs_text, note = str(rhs), _RAISED_NOTES[type(rhs)]
    else:
        rhs_text = render_exact(rhs)
        note = "" if lhs == rhs else "printed form disagrees with the brute-force oracle"
    return AuditEntry(
        family.value, n, p, reading, lhs_text, rhs_text, "FAIL" if note else "PASS", note
    )


def audit_cells(families, n_range, p_range) -> list[tuple]:
    """Enumerate the (family, n, p, reading) grid in report order: by
    family, then p, then n, then reading name (a missing p or n sorts
    first).  Each family's p, n and readings are its `FAMILY_FACTS`."""
    n_values = sorted(set(n_range))
    p_values = sorted(set(p_range))
    return [
        (family, n, p, reading)
        for family in sorted(set(families), key=_FAMILY_ORDER.get)
        for facts in (FAMILY_FACTS[family],)
        for p in facts.ps(p_values)
        for n in facts.ns(n_values)
        for reading in sorted(facts.readings)
    ]


def audit(families, n_range, p_range) -> AuditReport:
    """Run every applicable (family, n, p, reading) cell and collect
    verdicts.  The report is deterministic: its entries are in the order
    of `audit_cells`."""
    cells = audit_cells(families, n_range, p_range)
    rows = _Rows()  # one coeff_row per (kind, n) for the whole call
    entries = []
    for (family, p), group in groupby(cells, key=lambda cell: (cell[0], cell[2])):
        group = list(group)
        n_values = tuple(dict.fromkeys(cell[1] for cell in group))
        column = _column(family, p, n_values, rows)
        entries.extend(_audit_cell(*cell, column) for cell in group)
    notes = tuple(
        _ADJUDICATION_NOTES[f]
        for f in sorted(set(families), key=_FAMILY_ORDER.get)
        if f in _ADJUDICATION_NOTES
    )
    return AuditReport(entries=tuple(entries), notes=notes)
