"""Fibonacci-power binomial sums: two independent oracles, the twelve
golden-ring power relations, the four weighted-sum closed forms, and the
closed-form evaluators plus audit machinery for the power-4p..4p+3 sums.

The printed closed forms are evaluated exactly as stated (including
suspect subscripts, as sub-variant "readings") and compared against the
brute-force oracle; disagreements are reported as FAIL verdicts, never
silently corrected.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

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


def prop1_eval(n: int, p: int, variant: int) -> tuple[GoldenInt, GoldenInt]:
    """Weighted binomial sums of F_k against golden-power weights and their
    closed forms (variants 811..814).  Both sides as exact ring elements."""
    x, y = PHI, PSI
    if variant == 811:
        w = unit_pow(x, p)
        num = (unit_pow(x, p + 1) + 1) ** n - (-1) ** n * (unit_pow(x, p - 1) - 1) ** n
    elif variant == 812:
        w = -unit_pow(x, p)
        num = (-1) ** n * (unit_pow(x, p + 1) - 1) ** n - (unit_pow(x, p - 1) + 1) ** n
    elif variant == 813:
        w = unit_pow(y, p)
        num = (-1) ** n * (unit_pow(y, p - 1) - 1) ** n - (unit_pow(y, p + 1) + 1) ** n
    elif variant == 814:
        w = -unit_pow(y, p)
        num = (unit_pow(y, p - 1) + 1) ** n - (-1) ** n * (unit_pow(y, p + 1) - 1) ** n
    else:
        raise ValueError(f"variant must be one of 811, 812, 813, 814, got {variant}")
    return _weighted_fib_sum(n, w), div_sqrt5(GoldenInt._coerce(num))


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


#: Sub-variant readings audited per family (first entry is the literal one).
FAMILY_READINGS: dict[IdentityFamily, tuple[str, ...]] = {
    IdentityFamily.T2: ("printed",),
    IdentityFamily.T3: ("printed",),
    IdentityFamily.T4_EVEN: ("printed", "base-subscript"),
    IdentityFamily.T4_ODD: ("printed", "base-subscript"),
    IdentityFamily.T5: ("printed",),
    IdentityFamily.T6: ("printed", "t-to-p"),
    IdentityFamily.T7: ("printed", "t-to-p-1", "j-to-n-1"),
}

#: (Fibonacci power as a function of p, oracle sign) per closed-form family.
FAMILY_POWER_SIGN = {
    IdentityFamily.T2: (lambda p: 4 * p, "+"),
    IdentityFamily.T3: (lambda p: 4 * p + 2, "+"),
    IdentityFamily.T4_EVEN: (lambda p: 4 * p, "-"),
    IdentityFamily.T4_ODD: (lambda p: 4 * p, "-"),
    IdentityFamily.T5: (lambda p: 4 * p + 2, "-"),
    IdentityFamily.T6: (lambda p: 4 * p + 1, "+"),
    IdentityFamily.T7: (lambda p: 4 * p + 3, "+"),
}


def _lucas_weighted_sum(row: tuple[int, ...], e: int, j_hi: int) -> int:
    """row[0] + sum_{j=1..j_hi} row[j] * L_{e*j}, where row[j] = 0 past the
    end of the row.

    L_{e*j} is generated by L_{e(j+1)} = L_e L_{ej} - (-1)^e L_{e(j-1)}.
    """
    if not row:
        return 0
    total = row[0]
    le = lucas(e)
    sign = -1 if e % 2 else 1  # (-1)^e
    prev, cur = 2, le  # L_0, L_e
    for j in range(1, min(j_hi, len(row) - 1) + 1):
        total += row[j] * cur
        prev, cur = cur, le * cur - sign * prev
    return total


def _row_before(kind: str, n: int) -> tuple[int, ...]:
    """Coefficient row n-1; for n = 0 the empty row, since q(-1, c) = 0:
    every binomial in the defining sum vanishes."""
    return coeff_row(kind, n - 1) if n else ()


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

    if family is IdentityFamily.T6:
        t_hi = p - 1 if reading == "printed" else p
        q_row, s_row = _row_before("Q", n), _row_before("S", n)
        part1 = 0
        for t in range(t_hi + 1):
            e = 4 * p - 4 * t + 1
            inner = _lucas_weighted_sum(q_row, e, n - 1)
            part1 += binomial(4 * p + 1, 2 * t) * fib(e) * inner
        part2 = 0
        for t in range(p):
            e = 4 * p - 4 * t - 1
            inner = _lucas_weighted_sum(s_row, e, n - 1)
            part2 += binomial(4 * p + 1, 2 * t + 1) * fib(e) * inner
        total = part1 - (-1) ** n * part2 + binomial(4 * p + 1, 2 * p) * fib(2 * n)
        return _reduce(total, 0, 2 * p)

    if family is IdentityFamily.T7:
        t_hi = p if reading != "t-to-p-1" else p - 1
        j_hi = n if reading != "j-to-n-1" else n - 1
        q_row, s_row = _row_before("Q", n), _row_before("S", n)
        part1 = 0
        for t in range(t_hi + 1):
            e = 4 * p - 4 * t + 3
            inner = _lucas_weighted_sum(q_row, e, j_hi)
            part1 += binomial(4 * p + 3, 2 * t) * fib(e) * inner
        part2 = 0
        for t in range(p):
            e = 4 * p - 4 * t + 1
            inner = _lucas_weighted_sum(s_row, e, n - 1)
            part2 += binomial(4 * p + 3, 2 * t + 1) * fib(e) * inner
        total = part1 - (-1) ** n * part2 + binomial(4 * p + 3, 2 * p + 1) * fib(n)
        return _reduce(total, 0, 2 * p + 1)

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

    a_shift, b_shift = _powers(a + shift, n), _powers(b + shift, n)
    direct = sum(a_shift[n - j] * b_shift[j] for j in range(n + 1))
    row = coeff_row("Q" if shift == 1 else "S", n)
    a_pow, b_pow = _powers(a, n), _powers(b, n)
    expanded = sum(row[c] * (a_pow[c] + b_pow[c]) for c in range(1, n + 1)) + row[0]
    return direct, expanded


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
    if isinstance(x, str):
        return x
    raise TypeError(f"cannot render {type(x).__name__} exactly")


@dataclass(frozen=True)
class AuditEntry:
    family: str
    n: int | None
    p: int | None
    reading: str
    lhs: str
    rhs: str
    verdict: str  # "PASS" | "FAIL"
    note: str

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "p": self.p,
            "reading": self.reading,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
            "note": self.note,
        }


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[AuditEntry, ...]
    notes: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return all(e.verdict == "PASS" for e in self.entries)

    def to_json(self) -> str:
        # The layout of json.dumps([e.as_dict() ...], indent=2), written
        # entry by entry; strings go through json.dumps, which escapes them
        # in C.
        if not self.entries:
            return "[]"
        dumps = json.dumps
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
        buf.write("family,n,p,reading,lhs,rhs,verdict,note\n")
        writer = csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator="\n")
        for e in self.entries:
            writer.writerow(
                [
                    e.family,
                    "" if e.n is None else e.n,
                    "" if e.p is None else e.p,
                    e.reading,
                    e.lhs,
                    e.rhs,
                    e.verdict,
                    e.note,
                ]
            )
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


def _audit_cell(
    family: IdentityFamily, n: int | None, p: int | None, reading: str,
    oracle_values: dict,
) -> AuditEntry:
    """Evaluate one grid cell; failures are data, not exceptions.

    `oracle_values` holds the oracle's left side of the last (family, n, p)
    evaluated, with its rendered text.  The readings of one (family, n, p)
    are adjacent cells, so they share a single oracle evaluation and
    rendering, and at most one value is kept.
    """
    note = ""
    lhs_text = None
    if family.value.startswith("REMARK1_"):
        index = int(family.value.split("_")[1])
        lhs, rhs = remark1_relation(p, index)
    elif family.value.startswith("PROP1_"):
        variant = int(family.value.split("_")[1])
        try:
            lhs, rhs = prop1_eval(n, p, variant)
        except NotDivisible as exc:
            return AuditEntry(
                family.value, n, p, reading, "", "", "FAIL",
                f"closed form not divisible by sqrt5: {exc}",
            )
    elif family in (IdentityFamily.LEMMA5, IdentityFamily.LEMMA7):
        shift = 1 if family is IdentityFamily.LEMMA5 else -1
        lhs, rhs = cross_power_expansion(n, PHI, shift)
    else:
        key = (family, n, p)
        if key not in oracle_values:
            power, sign = FAMILY_POWER_SIGN[family]
            oracle_values.clear()
            value = fib_power_sum_oracle(n, power(p), sign)
            oracle_values[key] = value, render_exact(value)
        lhs, lhs_text = oracle_values[key]
        try:
            rhs = closed_form_rhs(family, n, p, reading)
        except NotIntegral as exc:
            return AuditEntry(
                family.value, n, p, reading, lhs_text, str(exc), "FAIL",
                "closed form is not a rational integer",
            )
    if lhs_text is None:
        lhs_text = render_exact(lhs)
    verdict = "PASS" if lhs == rhs else "FAIL"
    if verdict == "FAIL":
        note = "printed form disagrees with the brute-force oracle"
    return AuditEntry(
        family.value, n, p, reading, lhs_text, render_exact(rhs), verdict, note
    )


def audit_cells(families, n_range, p_range) -> list[tuple]:
    """Enumerate the (family, n, p, reading) grid in canonical order."""
    n_values = sorted(set(n_range))
    p_values = sorted(set(p_range))
    cells = []
    for family in sorted(set(families), key=_FAMILY_ORDER.get):
        name = family.value
        if name.startswith("REMARK1_"):
            for p in p_values:
                if p >= 1:
                    cells.append((family, None, p, "printed"))
        elif name.startswith("PROP1_"):
            for p in p_values:
                for n in n_values:
                    cells.append((family, n, p, "printed"))
        elif family in (IdentityFamily.LEMMA5, IdentityFamily.LEMMA7):
            for n in n_values:
                cells.append((family, n, None, "printed"))
        else:
            p_lo = 1 if family in (
                IdentityFamily.T2, IdentityFamily.T4_EVEN, IdentityFamily.T4_ODD
            ) else 0
            for p in p_values:
                if p < p_lo:
                    continue
                for n in n_values:
                    if family is IdentityFamily.T4_EVEN and n % 2 != 0:
                        continue
                    if family is IdentityFamily.T4_ODD and n % 2 != 1:
                        continue
                    for reading in FAMILY_READINGS[family]:
                        cells.append((family, n, p, reading))
    return cells


def audit(families, n_range, p_range) -> AuditReport:
    """Run every applicable (family, n, p, reading) cell and collect
    verdicts.  The report is deterministic: cells are evaluated over the
    canonical (family, p, n, reading) ordering."""
    cells = audit_cells(families, n_range, p_range)
    oracle_values: dict = {}
    entries = [_audit_cell(*cell, oracle_values) for cell in cells]
    entries.sort(
        key=lambda e: (
            _FAMILY_ORDER[IdentityFamily(e.family)],
            -1 if e.p is None else e.p,
            -1 if e.n is None else e.n,
            e.reading,
        )
    )
    notes = tuple(
        _ADJUDICATION_NOTES[f]
        for f in sorted(set(families), key=_FAMILY_ORDER.get)
        if f in _ADJUDICATION_NOTES
    )
    return AuditReport(entries=tuple(entries), notes=notes)
