"""Fibonacci-power binomial sums: two independent oracles, the twelve
golden-ring power relations, the four weighted-sum closed forms, and the
closed-form evaluators plus audit machinery for the power-4p..4p+3 sums.

The printed closed forms are evaluated exactly as stated (including
suspect subscripts, as sub-variant "readings") and compared against the
brute-force oracle; disagreements are reported as FAIL verdicts, never
silently corrected.

`FAMILY_FACTS` holds what each family is: the p and n of its cells, its
readings, its column kind and its --families group tag.  `audit_columns`
evaluates the grid one (family, p) column at a time and yields each
column's entries; `audit` collects them, and `REPORT_FORMATS` writes them
one column per chunk.  Each column gives its sides two ways, each as (left
side, {reading: right side, or the NotIntegral/NotDivisible it raised}):
`reference(n)` evaluates one cell (`fib_power_sum_oracle`,
`closed_form_rhs` or T6/T7's `_t6_t7_cell`, the direct LEMMA and PROP1
sums, each building the q/s rows it reads), and `dense_sides()` iterates
over the column's n values.  What depends only on (family, p) is built
once by the column's first cell; for T6/T7 that is the `_t6_t7_form`
record, the one place that knows their (kind, e) sums, weights and
per-reading t bounds, which both routes evaluate by `_t6_t7_rhs`.  A
column is dense when its n values are every n its family takes up to N:
0..N in every CLI audit, or one parity for T4.  Its sides are then carried
from one n to the next, holding O(1) values per n: the left sides of T2..T7,
sum_k C(n,k) sigma^k F_k^P, are read off one binomial transform; PROP1's,
sum_k C(n,k) w^k F_k, follow an order-2 recurrence, and LEMMA5/7's direct
sums D_{n+1} = (a+shift) D_n + (b+shift)^(n+1).  On the right, the
Fibonacci and Lucas factors of T2..T5 and PROP1's numerator powers step,
and each Lucas-weighted q/s sum of T6/T7 and LEMMA5/7 is one coordinate of
P_n(x) = sum_c q(n,c) x^c at x = +-phi^e, with P_n stepped by the q
recurrences (`_row_sums`), so no row is formed.  `_Column.sides(n)` takes
the next dense value, or in any other column (such as a single large n)
calls `reference(n)`; at n = N and at the column's middle n it takes both,
and a disagreement in value, type or exception message raises
FastPathMismatch, which the CLI reports on one stderr line with exit 1.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, chain, count
from json.encoder import encode_basestring_ascii
from operator import mul
from typing import Callable, Iterator, NamedTuple

from .ring import (
    GoldenInt,
    NotDivisible,
    NotIntegral,
    ONE,
    PHI,
    PSI,
    SQRT5,
    ZERO,
    decimal_str,
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
    raise NotIntegral(f"0{'+' if b > 0 else ''}{render_exact(b)}*sqrt5")


def _lucas_weighted_sum(row: tuple[int, ...], e: int, le: int) -> int:
    """row[0] + sum_{j>=1} row[j] * L_{e*j} over the whole row, 0 for the
    empty row, where le = L_e and L_{e(j+1)} = L_e L_{ej} - (-1)^e L_{e(j-1)}.
    """
    if not row:
        return 0
    total = row[0]
    sign = -1 if e % 2 else 1  # (-1)^e
    prev, cur = 2, le  # L_0, L_e
    for x in row[1:]:
        total += x * cur
        prev, cur = cur, le * cur - sign * prev
    return total


class _T6T7Form(NamedTuple):
    """T6 (m = 4p+1) or T7 (m = 4p+3) at one p.  At n the printed form is
      sum_{t<=t_hi} C(m,2t) F_e Q_e - (-1)^n sum_{t<p} C(m,2t+1) F_e S_e
        + C(m,(m-1)/2) F_{dn},  over 5^((m-1)/2),
    Q_e (e = m-4t) and S_e (e = m-4t-2) being row[0] + sum_{j>=1} row[j]
    L_{ej} over rows n-1 of q and s.  Each printed j bound, n-1 or n,
    reaches the end of row n-1 (q(n-1,n) = 0), so the readings differ only
    in t_hi.
    """

    q: dict  # {("Q", e): C(m,2t) F_e} for t = 0..p
    s: dict  # {("S", e): C(m,2t+1) F_e} for t = 0..p-1
    t_hi: dict  # {reading: the last t of the q sum}; -1 leaves it empty
    tail: int  # C(m, (m-1)/2)
    d: int  # the tail's Fibonacci number is F_{dn}
    five_exp: int  # (m-1)/2


def _t6_t7_form(family: IdentityFamily, p: int) -> _T6T7Form:
    """The `_T6T7Form` of T6 or T7 at p: the one place that knows m, the
    (kind, e) sums, their weights and each reading's t bound."""
    if family is IdentityFamily.T6:
        m, d, t_hi = 4 * p + 1, 2, {"printed": p - 1, "t-to-p": p}
    else:
        m, d, t_hi = 4 * p + 3, 1, {"printed": p, "t-to-p-1": p - 1, "j-to-n-1": p}
    q = {("Q", m - 4 * t): binomial(m, 2 * t) * fib(m - 4 * t) for t in range(p + 1)}
    s = {("S", m - 4 * t - 2): binomial(m, 2 * t + 1) * fib(m - 4 * t - 2) for t in range(p)}
    return _T6T7Form(q, s, t_hi, binomial(m, m // 2), d, m // 2)


def _t6_t7_rhs(form: _T6T7Form, n: int, readings, sums: dict, f_tail: int) -> dict:
    """{reading: closed form} of `form` at n, from `sums`, the
    {(kind, e): row sum} of rows n-1, and f_tail = F_{dn}."""
    # part1[t + 1] is the q sum up to t, so part1[0] = 0 is the empty sum.
    part1 = list(accumulate((w * sums[key] for key, w in form.q.items()), initial=0))
    part2 = sum(w * sums[key] for key, w in form.s.items())
    rest = form.tail * f_tail - (-1) ** n * part2
    return {r: _reduce(part1[form.t_hi[r] + 1] + rest, 0, form.five_exp) for r in readings}


def _t6_t7_cell(form: _T6T7Form, n: int, readings) -> dict:
    """`_t6_t7_rhs` at one n: rows n-1 of q and s built by `coeff_row` and
    summed by `_lucas_weighted_sum`, and F_{dn} from `fib`.  Row -1 is
    empty, since every binomial in the defining sum of q(-1, c) vanishes."""
    rows = {kind: coeff_row(kind, n - 1) if n >= 1 else () for kind in "QS"}
    sums = {(k, e): _lucas_weighted_sum(rows[k], e, lucas(e)) for k, e in (*form.q, *form.s)}
    return _t6_t7_rhs(form, n, readings, sums, fib(form.d * n))


def closed_form_rhs(
    family: IdentityFamily, n: int, p: int, reading: str = "printed"
):
    """Exact value of the printed closed form for the given family.

    Returns an ExactScalar; raises NotIntegral when the printed formula
    evaluates to something outside both the rationals and the golden ring
    (the audit records that as a FAIL with the exact value in the note).
    """
    facts = FAMILY_FACTS[family]
    if facts.power is None or reading not in facts.readings:
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
        return _t6_t7_cell(_t6_t7_form(family, p), n, (reading,))[reading]

    raise ValueError(f"{family.value} has no closed-form evaluator")


# ---------------------------------------------------------------------------
# Coefficient-expansion identities (the q/s machinery)
# ---------------------------------------------------------------------------


def cross_power_expansion(n: int, a, shift: int):
    """Both routes of the (a+shift)^(n-j)(b+shift)^j expansion, with
    b = -1/a (so a*b = -1 exactly).

    Returns (direct, expanded) where direct is the plain double-power sum
    and expanded is q(n,0) + sum_{c=1..n} q(n,c) (a^c + b^c) from row n of
    the q (shift +1) or s (shift -1) coefficients.
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
    power_sums = [x + y for x, y in zip(_powers(a, n), _powers(b, n))]
    row = coeff_row("Q" if shift == 1 else "S", n)
    return (
        sum(a_shift[n - j] * b_shift[j] for j in range(n + 1)),
        sum(row[c] * power_sums[c] for c in range(1, n + 1)) + row[0],
    )


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
    ring elements as (u+v*sqrt5)/2; exact at any size (`decimal_str`)."""
    if isinstance(x, bool):
        raise TypeError("bool is not an exact scalar")
    if isinstance(x, int):
        return decimal_str(x)
    if isinstance(x, Fraction):
        return f"{decimal_str(x.numerator)}/{decimal_str(x.denominator)}"
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


def _json_chunks(columns, notes) -> Iterator[str]:
    # The layout of json.dumps([e.as_dict() ...], indent=2), written
    # entry by entry; strings are escaped by the C function that
    # json.dumps itself calls for a str.
    dumps = encode_basestring_ascii
    head = "[\n"
    for entries in columns:
        yield head + ",\n".join(
            f'  {{\n    "family": {dumps(e.family)},\n'
            f'    "n": {"null" if e.n is None else e.n},\n'
            f'    "p": {"null" if e.p is None else e.p},\n'
            f'    "reading": {dumps(e.reading)},\n'
            f'    "lhs": {dumps(e.lhs)},\n'
            f'    "rhs": {dumps(e.rhs)},\n'
            f'    "verdict": {dumps(e.verdict)},\n'
            f'    "note": {dumps(e.note)}\n  }}'
            for e in entries
        )
        head = ",\n"
    yield "[]" if head == "[\n" else "\n]"


def _csv_chunks(columns, notes) -> Iterator[str]:
    head = ",".join(AuditEntry._fields) + "\n"
    for entries in columns:
        buf = io.StringIO()
        buf.write(head)
        writer = csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator="\n")
        writer.writerows(["" if v is None else v for v in e] for e in entries)
        yield buf.getvalue()
        head = ""
    if head:
        yield head


def _text_entry(e: AuditEntry) -> str:
    params = []
    if e.p is not None:
        params.append(f"p={e.p}")
    if e.n is not None:
        params.append(f"n={e.n}")
    if e.reading:
        params.append(f"reading={e.reading}")
    line = f"{e.verdict}  {e.family} [{', '.join(params)}] lhs={e.lhs} rhs={e.rhs}\n"
    return line + f"      note: {e.note}\n" if e.note else line


def _text_chunks(columns, notes) -> Iterator[str]:
    written = False
    for entries in columns:
        yield "".join(map(_text_entry, entries))
        written = True
    closing = "".join(f"# {note}\n" for note in notes)
    yield closing if closing or written else "\n"


#: One report emitter per format: chunks(columns, notes) yields the report
#: of the entry lists `columns`, one chunk per list with the header joined
#: to the first, then the closing chunk; only text writes the notes.
#: Nothing is yielded before the first list is made, so a column that fails
#: leaves no header behind.
REPORT_FORMATS = {"json": _json_chunks, "csv": _csv_chunks, "text": _text_chunks}


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[AuditEntry, ...]
    notes: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return all(e.verdict == "PASS" for e in self.entries)

    def _report(self, output_format: str) -> str:
        columns = (self.entries,) if self.entries else ()
        return "".join(REPORT_FORMATS[output_format](columns, self.notes))

    def to_json(self) -> str:
        return self._report("json")

    def to_csv(self) -> str:
        return self._report("csv")

    def to_text(self) -> str:
        return self._report("text")


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


def _row_sums(keys):
    """{(kind, e): row[0] + sum_{j>=1} row[j] L_{ej}} for each key, over row
    n of q (kind "Q") or s ("S") at n = 0, 1, 2, ..., with no row formed.

    Take P_n(x) = sum_c q(n,c) x^c.  The q recurrences of
    `sequences.coeff_rows`, q(n+1,c) = q(n,c-1) + q(n,c) for c >= 1 (the
    new diagonal included, as q(n,n+1) = 0) and q(n+1,0) = 1 - q(n,1) +
    q(n,0), give P_{n+1}(x) = (1+x) P_n(x) + 1 - q(n,1); from row -1,
    which is all zeros, they give P_0 = 1.  As L_{ec} = phi^(ec) +
    psi^(ec) and P_n(psi^e) is the conjugate of P_n(phi^e),
    sum_c q(n,c) L_{ec} = P_n(phi^e) + P_n(psi^e) is the u coordinate of
    P_n(phi^e).  With s(n,c) = (-1)^(n+c) q(n,c), sum_c s(n,c) L_{ec} is
    (-1)^n u(P_n(-phi^e)).  row[0] enters these with L_0 = 2, so it is
    taken off once.  Each key costs one ring product per n.
    """
    steps = {(kind, e): 1 + (1 if kind == "Q" else -1) * unit_pow(PHI, e) for kind, e in keys}
    polys = dict.fromkeys(steps, ZERO)  # P_{-1}
    q0 = q1 = 0  # q(-1,0), q(-1,1)
    for n in count():
        polys = {key: step * polys[key] + (1 - q1) for key, step in steps.items()}
        q0, q1 = 1 - q1 + q0, q0 + q1
        sign = -1 if n % 2 else 1
        yield {
            (kind, e): (poly.u - q0) * (sign if kind == "S" else 1)
            for (kind, e), poly in polys.items()
        }


def _carried_t6_t7(form: _T6T7Form, readings):
    """`_t6_t7_rhs` of `form` at n = 0, 1, 2, ..., with the sums of rows
    n-1 read from `_row_sums` (row -1 is empty) and the tail's F_{dn}
    carried from the previous n."""
    keys = [*form.q, *form.s]
    f_dn = _recurrent([0], [fib(form.d)], [lucas(form.d)], [(-1) ** form.d])
    row_sums = chain([dict.fromkeys(keys, 0)], _row_sums(keys))
    for n, sums, (f_tail,) in zip(count(), row_sums, f_dn):
        yield _t6_t7_rhs(form, n, readings, sums, f_tail)


def _carried_lemma(shift: int):
    """Both sides of LEMMA5 (shift +1) or LEMMA7 (shift -1) at a = phi,
    b = -1/a = psi, for n = 0, 1, 2, ....  The left side
    D_n = sum_{j=0..n} (a+shift)^(n-j) (b+shift)^j steps by
    D_{n+1} = (a+shift) D_n + (b+shift)^(n+1).  The right side
    row[0] + sum_{c>=1} row[c] (a^c + b^c) has a^c + b^c = L_c, so it is the
    e = 1 sum of `_row_sums`, made the ring element that the per-cell sum
    gives.  At n = 0 each side is the int 1, as in the per-cell sums."""
    key = ("Q" if shift == 1 else "S", 1)
    sums = _row_sums([key])
    yield 1, {"printed": next(sums)[key]}  # the one term 1*1; q(0,0) = s(0,0) = 1
    a_shift, b_shift = PHI + shift, PSI + shift
    left, b_pow = 1, 1
    for row_sums in sums:
        b_pow = b_pow * b_shift
        left = a_shift * left + b_pow
        yield left, {"printed": GoldenInt(2 * row_sums[key], 0)}


class _Column:
    """The cells of one (family, p) column of an audit, in ascending n.

    A subclass gives the sides at n, (left side, {reading: right side}),
    two ways: `reference(n)` per cell, and `dense_sides()` over the n
    values of a dense column (0..N, or for T4 every n of one parity up to
    N).  `build` sets what depends on (family, p) alone.  The dense
    iterator must not hold its column: a generator method would keep
    `self` in its frame, a cycle that only the cyclic GC frees.
    """

    def __init__(self, family: IdentityFamily, p: int | None, n_values: tuple):
        self.family = family
        self.p = p
        self.n_values = n_values
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
    oracle and `closed_form_rhs`, or for T6/T7 `_t6_t7_cell` of the
    column's `_t6_t7_form`, which T6/T7 build once."""

    def build(self) -> None:
        facts = FAMILY_FACTS[self.family]
        self.power, self.sign, self.readings = facts.power(self.p), facts.sign, facts.readings
        t6_t7 = self.family in (IdentityFamily.T6, IdentityFamily.T7)
        self.form = _t6_t7_form(self.family, self.p) if t6_t7 else None

    def reference(self, n: int) -> tuple:
        lhs = fib_power_sum_oracle(n, self.power, self.sign)
        if self.form is not None:
            return lhs, _t6_t7_cell(self.form, n, self.readings)
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
        if self.form is not None:
            forms = _carried_t6_t7(self.form, self.readings)
        elif self.family in (IdentityFamily.T4_EVEN, IdentityFamily.T4_ODD):
            values, forms = values[n0::2], _carried_t4(self.family, self.p, n0)
        else:
            forms = _carried_t2_t5(self.family, self.p)
        return zip(values, forms)


class _Prop1Column(_Column):
    """PROP1: the left side sum_k C(n,k) w^k F_k and the closed form
    (eps_a a^n - eps_b b^n)/sqrt5.  A dense column steps the left side by
    its recurrence and carries a^n and b^n; a cell takes
    `_weighted_fib_sum` and a**n, b**n."""

    def build(self) -> None:
        variant = int(self.family.value.split("_")[1])
        self.w, self.a, self.b = _prop1_terms(self.p, variant)

    def reference(self, n: int) -> tuple:
        (a, a_alt), (b, b_alt) = self.a, self.b
        rhs = _caught(_prop1_rhs, n, a**n, a_alt, b**n, b_alt)
        return _weighted_fib_sum(n, self.w), {"printed": rhs}

    def dense_sides(self):
        # w^k F_k = ((w phi)^k - (w psi)^k)/sqrt5, so y_n = sum_k C(n,k) w^k F_k
        # is ((1 + w phi)^n - (1 + w psi)^n)/sqrt5: the roots sum to 2 + w and
        # multiply to 1 + w - w^2, and y_0 = 0, y_1 = w.
        w = self.w
        lefts = (y for y, in _recurrent([ZERO], [w], [2 + w], [1 + w - w * w]))
        (a, a_alt), (b, b_alt) = self.a, self.b
        forms = (
            {"printed": _caught(_prop1_rhs, n, a_n, a_alt, b_n, b_alt)}
            for n, (a_n, b_n) in enumerate(_geometric([a, b], [ONE, ONE]))
        )
        return zip(lefts, forms)


class _LemmaColumn(_Column):
    """LEMMA5/LEMMA7 at a = phi.  A dense column takes both sides from
    `_carried_lemma`; a cell takes `cross_power_expansion`, which builds
    its own power lists and row."""

    def build(self) -> None:
        self.shift = 1 if self.family is IdentityFamily.LEMMA5 else -1

    def reference(self, n: int) -> tuple:
        direct, expanded = cross_power_expansion(n, PHI, self.shift)
        return direct, {"printed": expanded}

    def dense_sides(self):
        return _carried_lemma(self.shift)


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


def _column(family: IdentityFamily, p: int | None, n_values: tuple) -> _Column | None:
    """The unbuilt state of a (family, p) column, or None for REMARK1."""
    column = FAMILY_FACTS[family].column
    return None if column is None else column(family, p, n_values)


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


def _grid_columns(families, n_range, p_range):
    """(family, p, n values, readings) of each (family, p) column that has
    cells, in report order: by family, then p (a missing p or n is None).
    Each family's p, n and readings are its `FAMILY_FACTS`."""
    n_values = sorted(set(n_range))
    p_values = sorted(set(p_range))
    for family in sorted(set(families), key=_FAMILY_ORDER.get):
        facts = FAMILY_FACTS[family]
        ns = facts.ns(n_values)
        if ns:
            for p in facts.ps(p_values):
                yield family, p, ns, sorted(facts.readings)


def audit_cells(families, n_range, p_range) -> list[tuple]:
    """Enumerate the (family, n, p, reading) grid in report order: by
    family, then p, then n, then reading name (a missing p or n sorts
    first)."""
    return [
        (family, n, p, reading)
        for family, p, ns, readings in _grid_columns(families, n_range, p_range)
        for n in ns
        for reading in readings
    ]


def audit_columns(families, n_range, p_range) -> Iterator[list[AuditEntry]]:
    """The entries of each (family, p) column, one list per column, in the
    order of `audit_cells`.  A column is built when its list is asked for
    and is freed once the list is made, so a caller that writes each list
    out holds one column, not the report."""
    for family, p, ns, readings in _grid_columns(families, n_range, p_range):
        column = _column(family, p, tuple(ns))
        yield [_audit_cell(family, n, p, reading, column) for n in ns for reading in readings]


def audit_notes(families) -> tuple[str, ...]:
    """The adjudication notes of the given families, in report order."""
    return tuple(
        _ADJUDICATION_NOTES[f]
        for f in sorted(set(families), key=_FAMILY_ORDER.get)
        if f in _ADJUDICATION_NOTES
    )


def audit(families, n_range, p_range) -> AuditReport:
    """Run every applicable (family, n, p, reading) cell and collect
    verdicts.  The report is deterministic: its entries are in the order
    of `audit_cells`."""
    entries = chain.from_iterable(audit_columns(families, n_range, p_range))
    return AuditReport(entries=tuple(entries), notes=audit_notes(families))
