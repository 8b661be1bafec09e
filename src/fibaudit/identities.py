"""Fibonacci-power binomial sums: two independent oracles, the twelve
golden-ring power relations, the four weighted-sum closed forms, and the
closed-form evaluators plus audit machinery for the power-4p..4p+3 sums.

The printed closed forms are evaluated exactly as stated (including
suspect subscripts, as sub-variant "readings") and compared against the
brute-force oracle; disagreements are reported as FAIL verdicts, never
silently corrected.

`FAMILY_FACTS` holds what each family is: the p and n of its cells, its
readings, its --families group tag, the builder of its sides record and,
for T2..T7, the builder of its closed-form record (`_T2T5Form`, built from
one `_T2T5_SHAPES` row for each of T2..T5, or `_T6T7Form`): the printed form
at one p, held as data, whose `rhs` is the weighted dot product, the signs
and one `_reduce`.  `audit_columns` evaluates the grid one (family, p)
column at a time, and `REPORT_FORMATS` writes it one column per chunk.
Every column is one generator, `_column_sides`, which each of its cells
advances once; the first builds the family's sides record at p
(`_Remark1Sides`, `_OracleSides`, `_Prop1Sides`, `_LemmaSides`).  A record
gives (left side, {reading: right side, or the NotIntegral/NotDivisible it
raised}) by `cell(n, readings)`, one cell (`remark1_relation`,
`fib_power_sum_oracle` and the closed-form record's `cell`,
`_weighted_fib_sum`, or one `cross_power_expansion`), and, but for
REMARK1's, by `dense(readings, N)` over a dense column: every n its family
takes up to N, 0..N in every CLI audit or one parity for T4.
Its sides are carried from one n to the next, holding O(1) values per n.
The left sides of T2..T7, sum_k C(n,k) sigma^k F_k^P, are read off one
binomial transform.  Every other carried value is a two-root sequence,
stepped by one helper, `_recurrent`: PROP1's sum_k C(n,k) w^k F_k (roots
1 + w phi, 1 + w psi) and its numerator r_a^n - r_b^n (a base printed with
(-1)^n enters negated, as (-1)^n a^n = (-a)^n), LEMMA5/7's direct sums
(roots phi + shift, psi + shift), and per j the products X_{jn} B_j^n of
T2..T5 and T4's F_{jn} and L_{jn} of `_multiples` (roots (c phi^j)^d,
(c psi^j)^d), and T6/T7's F_{dn}.  Each q/s sum of T6/T7 and LEMMA5/7 is
one coordinate of P_n(x) = sum_c q(n,c) x^c at x = +-phi^e, with P_n
stepped by the q recurrences (`_row_sums`), so no row is formed; a cell
sums its row by `_row_power_sum`, sharing no code with it.
The generator takes the next dense value, or in any other column the
record's `cell`; at n = N and at the column's middle n it takes both, and a
disagreement in value, type or exception message raises FastPathMismatch,
which the CLI reports on one stderr line with exit 1.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, chain, count, repeat
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
    """An evaluator precondition (e.g. a is invertible) does not hold."""


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


def _nonnegative(**values: int) -> None:
    """Raise ValueError naming the first of the arguments that is negative."""
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def fib_power_sum_oracle(n: int, p: int, sign: str = "+") -> int:
    """sum_{k=0..n} (+-1)^k C(n,k) F_k^p by direct big-integer summation."""
    sigma = _sign_value(sign)
    _nonnegative(n=n, p=p)
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
    _nonnegative(n=n, p=p)
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


# (d, c, L or F) of relation i at b = phi and of relation i + 6 at b = psi:
# b^(4p+2d) + c = b^(2p+d) L_(2p+d), or b^(2p+d) sqrt5 F_(2p+d) with sqrt5
# negated at psi.
_REMARK1_SHAPES = (
    (0, 1, "L"), (0, -1, "F"), (-1, 1, "F"), (1, 1, "F"), (-1, -1, "L"), (1, -1, "L")
)


def remark1_relation(p: int, index: int) -> tuple[GoldenInt, GoldenInt]:
    """Both sides of the indexed power relation (index 1..12), exactly."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if index not in range(1, 13):
        raise ValueError(f"relation index must be 1..12, got {index}")
    d, c, form = _REMARK1_SHAPES[(index - 1) % 6]
    b, root5 = (PHI, SQRT5) if index <= 6 else (PSI, -SQRT5)
    e = 2 * p + d
    return b ** (2 * e) + c, b**e * (lucas(e) if form == "L" else root5 * fib(e))


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


# variant -> (b, s): w = s b^p, and the numerator bases are 1 + s b^(p+1)
# and 1 - s b^(p-1), in that order at phi and swapped at psi.
_PROP1_VARIANTS = {811: (PHI, 1), 812: (PHI, -1), 813: (PSI, 1), 814: (PSI, -1)}


def _prop1_terms(p: int, variant: int):
    """w and the two signed numerator bases (r_a, r_b) of a variant's closed
    form (r_a^n - r_b^n)/sqrt5.  A base a printed with (-1)^n enters as
    r = -a, since (-1)^n a^n = (-a)^n.  Returns (w, r_a, r_b)."""
    if variant not in _PROP1_VARIANTS:
        raise ValueError(f"variant must be one of 811, 812, 813, 814, got {variant}")
    b, s = _PROP1_VARIANTS[variant]
    bases = 1 + s * unit_pow(b, p + 1), 1 - s * unit_pow(b, p - 1)
    r_a, r_b = bases if b is PHI else bases[::-1]
    return s * unit_pow(b, p), r_a, r_b


def prop1_eval(n: int, p: int, variant: int) -> tuple[GoldenInt, GoldenInt]:
    """Weighted binomial sums of F_k against golden-power weights and their
    closed forms (variants 811..814).  Both sides as exact ring elements;
    raises NotDivisible when the closed form's numerator is no sqrt5 multiple."""
    _nonnegative(n=n, p=p)
    lhs, rhs = _Prop1Sides(*_prop1_terms(p, variant)).cell(n, _PRINTED)
    if isinstance(rhs["printed"], Exception):
        raise rhs["printed"]
    return lhs, rhs["printed"]


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


def _row_power_sum(row, t, ab):
    """row[0] + sum_{c>=1} row[c] s_c, s_c = a^c + b^c for the roots of
    x^2 - t x + ab, summed backward (Clenshaw 1955): b_c = row[c] + t b_{c+1}
    - ab b_{c+2} gives row[0] + t b_1 - 2 ab b_2, each product by t or ab.
    A row of length <= 1 gives row[0] itself, and the empty row 0."""
    if len(row) <= 1:
        return row[0] if row else 0
    b1 = b2 = 0
    for x in row[:0:-1]:
        b1, b2 = x + t * b1 - ab * b2, b1
    return row[0] + t * b1 - 2 * ab * b2


def _multiples(x, js, n0: int, d: int, c):
    """Yield (c_j^n X_{jn} for j in js), c_j the matching entry of c, at n =
    n0, n0+d, n0+2d, ... for x = fib or lucas: per j, the `_recurrent` of
    roots (c_j phi^j)^d and (c_j psi^j)^d, one small-by-big product a term."""
    return zip(*(
        _recurrent(cj**n0 * x(j * n0), cj ** (n0 + d) * x(j * (n0 + d)),
                   cj**d * lucas(j * d), (-1) ** (j * d) * cj ** (2 * d))
        for j, cj in zip(js, c)
    ))


# family -> (B, the X of each list X_{jn} a cell takes, the power of sqrt5,
# (sign, e) at odd n with eps_i = e^i, the readings whose base is F_{jn}).  F
# and L go by letter and are looked up as a record is built, so a wrapped or
# patched `fib` or `lucas` of this module is the one called.
_T2T5_SHAPES = {
    IdentityFamily.T2: ("L", "L", (0, 0), (1, 1), ()),
    IdentityFamily.T3: ("F", "L", (1, 0), (1, 1), ()),
    IdentityFamily.T4_EVEN: ("F", "FL", (1, 0), (1, -1), ("printed",)),
    IdentityFamily.T4_ODD: ("F", "F", (1, 1), (1, -1), ("printed",)),
    IdentityFamily.T5: ("L", "L", (0, 0), (-1, 1), ()),
}


class _T2T5Form(NamedTuple):
    """T2, T4_EVEN, T4_ODD (m = 4p), T3 or T5 (m = 4p+2) at one p.  At n the
    printed form is
      sign (head 2^n + sum_i eps_i C(m,i) X_{jn} B_j^n) sqrt5^(a n + b) / 5^(m/2),
    j = m/2 - i, with eps_i = (-1)^i at even n, and at odd n too for T4 but
    1 for the others, and sign = odd_sign at odd n, 1 at even n.  X is L, or
    F for T4_ODD, whose (1/sqrt5)^(4p-1) is sqrt5/5^(2p).  B_j is L_j, or
    F_j with no head and j down to 0 (T3, T4), or F_{jn} in `jn_base`."""

    js: range  # m/2 down to 1, or to 0 for T3 and T4
    weights: tuple  # (eps_i C(m, i) at even n, at odd n)
    head: int  # C(m, m/2), or 0 for T3 and T4
    base: Callable[[int], int]  # B: lucas, or fib for T3 and T4
    xs: tuple  # (lucas,), or (fib, lucas) for T4_EVEN and (fib,) for T4_ODD: X last
    sqrt5: tuple  # (a, b): (0, 0) for T2 and T5, (1, 1) for T4_ODD, else (1, 0)
    odd_sign: int  # -1 for T5, else 1
    five_exp: int  # m/2
    n_mod: tuple  # the family's (r, d): a dense column starts at n = r, steps by d
    jn_base: tuple  # the readings whose base B^n is F_{jn}^n: T4's "printed"

    def rhs(self, n: int, readings, products, *jn) -> dict:
        """From the products and, for `jn_base`, F_{jn} and X_{jn}: jn[0], jn[-1]."""
        sign, weights = (self.odd_sign, self.weights[1]) if n % 2 else (1, self.weights[0])
        (a, b), head = self.sqrt5, self.head << n  # head 2^n
        out = {}
        for r in readings:
            terms = map(mul, jn[-1], [f**n for f in jn[0]]) if r in self.jn_base else products
            total = sign * (head + _dot(weights, terms))
            out[r] = _caught(_reduce, total, a * n + b, self.five_exp)
        return out

    def cell(self, n: int, readings) -> dict:
        jn = [[x(j * n) for j in self.js] for x in self.xs]
        products = [x_jn * self.base(j) ** n for x_jn, j in zip(jn[-1], self.js)]
        return self.rhs(n, readings, products, *jn)

    def dense(self, readings):
        """Carries the products, and the lists of `xs` only for `jn_base`."""
        (n0, d), js = self.n_mod, self.js
        products = _multiples(self.xs[-1], js, n0, d, map(self.base, js))
        jn = [_multiples(x, js, n0, d, repeat(1)) for x in self.xs] if self.jn_base else ()
        return map(self.rhs, count(n0, d), repeat(readings), products, *jn)


def _t2_t5_form(family: IdentityFamily, p: int) -> _T2T5Form:
    facts = FAMILY_FACTS[family]
    b, xs, sqrt5, (odd_sign, odd_eps), jn_base = _T2T5_SHAPES[family]
    m, seq = facts.power(p), {"F": fib, "L": lucas}
    js = range(m // 2, -1 if b == "F" else 0, -1)
    plain = [binomial(m, i) for i in range(len(js))]
    weights = tuple([e**i * c for i, c in enumerate(plain)] for e in (-1, odd_eps))
    head = 0 if b == "F" else binomial(m, m // 2)
    xs = tuple(map(seq.get, xs))
    return _T2T5Form(js, weights, head, seq[b], xs, sqrt5, odd_sign, m // 2, facts.n_mod, jn_base)


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

    def rhs(self, n: int, readings, sums: dict, f_tail: int) -> dict:
        """From `sums`, the {(kind, e): row sum} of rows n-1, and f_tail = F_{dn}."""
        # part1[t + 1] is the q sum up to t, so part1[0] = 0 is the empty sum.
        part1 = list(accumulate((w * sums[key] for key, w in self.q.items()), initial=0))
        part2 = sum(w * sums[key] for key, w in self.s.items())
        rest = self.tail * f_tail - (-1) ** n * part2
        return {r: _reduce(part1[self.t_hi[r] + 1] + rest, 0, self.five_exp) for r in readings}

    def cell(self, n: int, readings) -> dict:
        """Rows n-1 of q and s built by `coeff_row` and summed by
        `_row_power_sum` (t = L_e, ab = (-1)^e), and F_{dn} from `fib`.  Row
        -1 is empty, as every binomial in the defining sum of q(-1, c) is 0."""
        rows = {kind: coeff_row(kind, n - 1) if n >= 1 else () for kind in "QS"}
        sums = {(k, e): _row_power_sum(rows[k], lucas(e), (-1) ** e) for k, e in self.q | self.s}
        return self.rhs(n, readings, sums, fib(self.d * n))

    def dense(self, readings):
        """From n = 0: the sums of rows n-1 read from `_row_sums` (row -1 is
        empty) and F_{dn} carried."""
        keys = [*self.q, *self.s]
        sums = chain([dict.fromkeys(keys, 0)], _row_sums(keys))
        f_dn = _recurrent(0, fib(self.d), lucas(self.d), (-1) ** self.d)
        return map(self.rhs, count(), repeat(readings), sums, f_dn)


def _t6_t7_form(family: IdentityFamily, p: int) -> _T6T7Form:
    m = FAMILY_FACTS[family].power(p)
    if family is IdentityFamily.T6:
        d, t_hi = 2, {"printed": p - 1, "t-to-p": p}
    else:
        d, t_hi = 1, {"printed": p, "t-to-p-1": p - 1, "j-to-n-1": p}
    q = {("Q", m - 4 * t): binomial(m, 2 * t) * fib(m - 4 * t) for t in range(p + 1)}
    s = {("S", m - 4 * t - 2): binomial(m, 2 * t + 1) * fib(m - 4 * t - 2) for t in range(p)}
    return _T6T7Form(q, s, t_hi, binomial(m, m // 2), d, m // 2)


def closed_form_rhs(family: IdentityFamily, n: int, p: int, reading: str = "printed"):
    """Exact value of the printed closed form for the given family.

    Returns an ExactScalar; raises NotIntegral when the printed formula
    evaluates to something outside both the rationals and the golden ring
    (the audit records that as a FAIL with the exact value in the note).
    """
    facts = FAMILY_FACTS[family]
    if facts.form is None or reading not in facts.readings:
        raise ValueError(f"unknown reading {reading!r} for {family.value}")
    _nonnegative(n=n, p=p)
    value = facts.form(family, p).cell(n, (reading,))[reading]
    if isinstance(value, Exception):
        raise value
    return value


# ---------------------------------------------------------------------------
# Coefficient-expansion identities (the q/s machinery)
# ---------------------------------------------------------------------------


def cross_power_expansion(n: int, a, shift: int):
    """Both routes of the (a+shift)^(n-j)(b+shift)^j expansion, with
    b = -1/a (so a*b = -1 exactly).

    Returns (direct, expanded) where direct is the plain double-power sum
    and expanded is q(n,0) + sum_{c=1..n} q(n,c) (a^c + b^c) from row n of
    the q (shift +1) or s (shift -1) coefficients, by `_row_power_sum`.
    """
    _nonnegative(n=n)
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
    a_shift, b_shift = _powers(a + shift, n), _powers(b + shift, n)
    row = coeff_row("Q" if shift == 1 else "S", n)
    return (
        sum(a_shift[n - j] * b_shift[j] for j in range(n + 1)),
        _row_power_sum(row, a + b, -1),
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


def _recurrent(y0, y1, mult, sign):
    """Yield y_0, y_1, y_2, ... by y_{k+2} = mult y_{k+1} - sign y_k: the
    sequence whose two roots have sum `mult` and product `sign`, from its
    first two terms.  The terms and coefficients are ints or ring elements.
    With mult = L_d and sign = (-1)^d, from X_0 and X_d, these are X_{dk}
    for X = F, L: X_{a+d} = L_d X_a - (-1)^d X_{a-d}."""
    while True:
        yield y0
        y0, y1 = y1, mult * y1 - sign * y0


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


class _OracleSides(NamedTuple):
    """T2..T7 at one p: the left side sum_k sigma^k C(n,k) F_k^P and the
    right sides of the family's closed-form record.  A cell takes the
    oracle and the record's `cell`; a dense column reads its left sides off
    one transform of length N+1, at the family's n, and takes the record's
    `dense`."""

    power: int  # P
    sign: str  # sigma
    n_mod: tuple  # (r, m): the family's n are r, r+m, r+2m, ...
    form: NamedTuple  # the closed-form record

    def cell(self, n: int, readings) -> tuple:
        return fib_power_sum_oracle(n, self.power, self.sign), self.form.cell(n, readings)

    def dense(self, readings, n_max: int):
        sigma = _sign_value(self.sign)
        terms = []
        s, fk, fk1 = 1, 0, 1
        for _ in range(n_max + 1):
            terms.append(s * fk**self.power)
            s, fk, fk1 = s * sigma, fk1, fk + fk1
        r, m = self.n_mod
        return zip(binomial_transform(Seq(tuple(terms))).values[r::m], self.form.dense(readings))


def _oracle_sides(family: IdentityFamily, p: int) -> _OracleSides:
    facts = FAMILY_FACTS[family]
    return _OracleSides(facts.power(p), facts.sign, facts.n_mod, facts.form(family, p))


class _Prop1Sides(NamedTuple):
    """PROP1 at one p: the left side y_n = sum_k C(n,k) w^k F_k and the
    closed form (r_a^n - r_b^n)/sqrt5.  A cell takes `_weighted_fib_sum`
    and r_a**n, r_b**n.  As w^k F_k = ((w phi)^k - (w psi)^k)/sqrt5, y_n
    has the roots 1 + w phi and 1 + w psi, so a dense column steps it from
    y_0 = 0, y_1 = w, and the numerator from the roots r_a, r_b."""

    w: GoldenInt
    r_a: GoldenInt  # the first numerator base, negated if printed with (-1)^n
    r_b: GoldenInt  # the second, likewise

    def rhs(self, readings, numerator) -> dict:
        """NotDivisible when the numerator is no sqrt5 multiple."""
        return dict.fromkeys(readings, _caught(div_sqrt5, numerator))

    def cell(self, n: int, readings) -> tuple:
        return _weighted_fib_sum(n, self.w), self.rhs(readings, self.r_a**n - self.r_b**n)

    def dense(self, readings, n_max: int):
        w, r_a, r_b = self
        l_a, l_b = 1 + w * PHI, 1 + w * PSI
        lefts = _recurrent(ZERO, w, l_a + l_b, l_a * l_b)
        numerators = _recurrent(ZERO, r_a - r_b, r_a + r_b, r_a * r_b)
        return zip(lefts, map(self.rhs, repeat(readings), numerators))


def _prop1_sides(family: IdentityFamily, p: int) -> _Prop1Sides:
    return _Prop1Sides(*_prop1_terms(p, int(family.value.split("_")[1])))


class _LemmaSides(NamedTuple):
    """LEMMA5 (shift +1) or LEMMA7 (shift -1) at a = phi, b = -1/a = psi.
    A cell is one `cross_power_expansion` (row n by `_row_power_sum`).  A
    dense column steps D_n = sum_{j=0..n} (a+shift)^(n-j) (b+shift)^j from
    its roots a+shift, b+shift and D_0 = 1, D_1 = their sum; the right side,
    row[0] + sum_{c>=1} row[c] L_c as a^c + b^c = L_c, is the e = 1 sum of
    `_row_sums` made a ring element.  Both sides at n = 0 are the int 1."""

    shift: int

    def cell(self, n: int, readings) -> tuple:
        direct, expanded = cross_power_expansion(n, PHI, self.shift)
        return direct, dict.fromkeys(readings, expanded)

    def dense(self, readings, n_max: int):
        r1, r2 = PHI + self.shift, PSI + self.shift
        key = ("Q" if self.shift == 1 else "S", 1)
        sums = _row_sums([key])
        rights = chain([next(sums)[key]], (GoldenInt(2 * s[key], 0) for s in sums))
        lefts = _recurrent(1, r1 + r2, r1 + r2, r1 * r2)
        return zip(lefts, map(dict.fromkeys, repeat(readings), rights))


class _Remark1Sides(NamedTuple):
    """REMARK1 relation `index` at p: one cell, which takes no n."""

    p: int
    index: int

    def cell(self, n, readings) -> tuple:
        lhs, rhs = remark1_relation(self.p, self.index)
        return lhs, dict.fromkeys(readings, rhs)


def _remark1_sides(family: IdentityFamily, p: int) -> _Remark1Sides:
    return _Remark1Sides(p, int(family.value.split("_")[1]))


class FamilyFacts(NamedTuple):
    """What one family is; `FAMILY_FACTS` holds one record per family."""

    readings: tuple[str, ...]  # the first is the literal reading
    p_min: int | None  # the least p, or None: the family takes no p
    n_mod: tuple[int, int] | None  # (r, m): every n with n % m == r, or None: no n
    power: Callable[[int], int] | None = None  # T2..T7: the Fibonacci power at p
    sign: str | None = None  # T2..T7: the oracle's sign
    form: Callable | None = None  # T2..T7: (family, p) -> its closed-form record
    group: str | None = None  # the --families tag that names it with its kin
    sides: Callable = _oracle_sides  # (family, p) -> its sides record

    def ps(self, p_values: list) -> list:
        return [None] if self.p_min is None else [p for p in p_values if p >= self.p_min]

    def ns(self, n_values: list) -> list:
        if self.n_mod is None:
            return [None]
        return [n for n in n_values if n % self.n_mod[1] == self.n_mod[0]]


# The readings of most families, and of T4, T6 and T7.
_PRINTED, _T4 = ("printed",), ("printed", "base-subscript")
_T6, _T7 = ("printed", "t-to-p"), ("printed", "t-to-p-1", "j-to-n-1")
_REMARK1 = FamilyFacts(_PRINTED, 1, None, group="REMARK1", sides=_remark1_sides)
_PROP1 = FamilyFacts(_PRINTED, 0, (0, 1), group="PROP1", sides=_prop1_sides)

#: The facts of every family, in enum order.
FAMILY_FACTS: dict[IdentityFamily, FamilyFacts] = {
    **{IdentityFamily(f"REMARK1_{i}"): _REMARK1 for i in range(1, 13)},
    **{IdentityFamily(f"PROP1_{v}"): _PROP1 for v in (811, 812, 813, 814)},
    IdentityFamily.T2: FamilyFacts(_PRINTED, 1, (0, 1), lambda p: 4 * p, "+", _t2_t5_form),
    IdentityFamily.T3: FamilyFacts(_PRINTED, 0, (0, 1), lambda p: 4 * p + 2, "+", _t2_t5_form),
    IdentityFamily.T4_EVEN: FamilyFacts(_T4, 1, (0, 2), lambda p: 4 * p, "-", _t2_t5_form, "T4"),
    IdentityFamily.T4_ODD: FamilyFacts(_T4, 1, (1, 2), lambda p: 4 * p, "-", _t2_t5_form, "T4"),
    IdentityFamily.T5: FamilyFacts(_PRINTED, 0, (0, 1), lambda p: 4 * p + 2, "-", _t2_t5_form),
    IdentityFamily.T6: FamilyFacts(_T6, 0, (0, 1), lambda p: 4 * p + 1, "+", _t6_t7_form),
    IdentityFamily.T7: FamilyFacts(_T7, 0, (0, 1), lambda p: 4 * p + 3, "+", _t6_t7_form),
    IdentityFamily.LEMMA5: FamilyFacts(_PRINTED, None, (0, 1), sides=lambda f, p: _LemmaSides(1)),
    IdentityFamily.LEMMA7: FamilyFacts(_PRINTED, None, (0, 1), sides=lambda f, p: _LemmaSides(-1)),
}


def _dense_sides(record, readings, ns: list):
    """The record's (left side, right sides) at each n of the dense column ns."""
    return record.dense(readings, ns[-1])


def _column_sides(family: IdentityFamily, p: int | None, ns: list, readings):
    """Yield (left side, its rendering, {reading: right side, or the
    NotIntegral/NotDivisible it raised}) at each n of ns, once per reading.
    Nothing runs before the first value is asked for, so the record is built
    in the column's first cell.  A dense column, every n its family takes up
    to N, takes `_dense_sides`, checked against the record's `cell` at N and
    at its middle n; any other column takes `cell`."""
    facts = FAMILY_FACTS[family]
    record = facts.sides(family, p)
    dense = ns[-1] is not None and ns == facts.ns(range(ns[-1] + 1))
    fast = _dense_sides(record, readings, ns) if dense else None
    sample = {ns[-1], ns[(len(ns) - 1) // 2]} if dense else ()
    for n in ns:
        lhs, forms = next(fast) if dense else record.cell(n, readings)
        if n in sample:
            sides = ("left side", lhs), ("closed form", forms)
            for (what, value), ref in zip(sides, record.cell(n, readings)):
                if _outcome(value) != _outcome(ref):
                    raise FastPathMismatch(
                        f"{family.value} p={p}: the column's {what} "
                        f"disagrees with the per-cell evaluation at n={n}"
                    )
        yield from repeat((lhs, render_exact(lhs), forms), len(readings))


#: The FAIL note of a closed form that raised, by exception type.
_RAISED_NOTES = {
    NotIntegral: "closed form is not a rational integer",
    NotDivisible: "closed form not divisible by sqrt5",
}


def _audit_cell(
    family: IdentityFamily, n: int | None, p: int | None, reading: str, column: Iterator,
) -> AuditEntry:
    """Evaluate one grid cell; failures are data, not exceptions.

    `column` is the `_column_sides` of this (family, p), whose next value
    is this cell's sides: the column's first cell builds its record.
    """
    lhs, lhs_text, forms = next(column)
    rhs = forms[reading]
    if isinstance(rhs, Exception):
        rhs_text, note = str(rhs), _RAISED_NOTES[type(rhs)]
    elif type(rhs) is type(lhs) and rhs == lhs:
        rhs_text, note = lhs_text, ""
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


def audit_columns(families, n_range, p_range) -> Iterator[list[AuditEntry]]:
    """The entries of each (family, p) column, one list per column, in
    report order: by family, then p, then n, then reading name (a missing p
    or n sorts first).  A column is built when its list is asked for
    and is freed once the list is made, so a caller that writes each list
    out holds one column, not the report."""
    for family, p, ns, readings in _grid_columns(families, n_range, p_range):
        column = _column_sides(family, p, ns, readings)
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
    verdicts.  The report is deterministic: its entries are in the report
    order of `audit_columns`."""
    entries = chain.from_iterable(audit_columns(families, n_range, p_range))
    return AuditReport(entries=tuple(entries), notes=audit_notes(families))
