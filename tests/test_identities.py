import gc
import hashlib
import json
import random
import re
import sys
import weakref
from decimal import Decimal

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from fibaudit import identities

from fibaudit.identities import (
    FAMILY_FACTS,
    FastPathMismatch,
    _row_power_sum,
    _reduce,
    AuditEntry,
    AuditReport,
    IdentityFamily,
    PreconditionError,
    audit,
    closed_form_rhs,
    cross_power_expansion,
    fib_power_sum_binet,
    fib_power_sum_oracle,
    prop1_eval,
    remark1_relation,
    render_exact,
)
from fibaudit.ring import (
    GoldenInt, NotDivisible, NotIntegral, PHI, PSI, SQRT5, div_sqrt5, unit_pow
)
from fibaudit.sequences import binomial, coeff_row, fib, lucas
from fibaudit.transforms import Seq

F = IdentityFamily


def test_oracle_spot_values():
    assert fib_power_sum_oracle(3, 1, "+") == 8
    assert fib_power_sum_oracle(0, 5, "+") == 0
    assert fib_power_sum_oracle(0, 3, "-") == 0
    assert fib_power_sum_oracle(4, 2, "+") == 35


def test_binet_oracle_spot_values():
    assert fib_power_sum_binet(3, 1, "+") == 8
    assert fib_power_sum_binet(4, 2, "+") == 35


def test_oracles_agree():
    for n in range(25):
        for p in range(1, 9):
            for sign in "+-":
                assert fib_power_sum_oracle(n, p, sign) == fib_power_sum_binet(
                    n, p, sign
                ), (n, p, sign)


def test_bad_sign_rejected():
    with pytest.raises(ValueError):
        fib_power_sum_oracle(3, 1, "x")


def test_remark1_hand_checks():
    lhs, rhs = remark1_relation(1, 1)
    assert lhs == rhs == GoldenInt(9, 3)
    lhs, rhs = remark1_relation(1, 2)
    assert lhs == rhs == GoldenInt(5, 3)
    lhs, rhs = remark1_relation(1, 7)
    assert lhs == rhs


def test_remark1_all_relations():
    for p in range(1, 13):
        for index in range(1, 13):
            lhs, rhs = remark1_relation(p, index)
            assert lhs == rhs, (p, index)


def _remark1_printed(p, index):
    """Both sides of REMARK1 relation `index` at p as printed, one per index."""
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
    return relations[index]()


def test_remark1_table_gives_the_printed_relations():
    # lhs == rhs holds for every row of the table, so a swap of two rows
    # passes test_remark1_all_relations; each side must be the printed one.
    for p in range(1, 65):
        for index in range(1, 13):
            got, want = remark1_relation(p, index), _remark1_printed(p, index)
            assert [type(x) for x in got] == [type(x) for x in want] == [GoldenInt] * 2
            assert got == want, (p, index)


def _t2_t5_printed(family, n, p, reading):
    """The T2..T5 closed form at (n, p) in `reading` as printed, one branch
    per family: the integer total, then sqrt5^e / 5^(m/2) by `_reduce_reference`.
    eps_i is (-1)^i at even n and 1 at odd n, and j = m/2 - i."""
    eps = [(-1) ** i if n % 2 == 0 else 1 for i in range(2 * p + 2)]
    if family is F.T2:  # m = 4p: C(m,m/2) 2^n + sum_{i<m/2} eps_i C(m,i) L_j^n L_{jn}
        total = binomial(4 * p, 2 * p) * 2**n + sum(
            eps[i] * binomial(4 * p, i) * lucas(2 * p - i) ** n * lucas((2 * p - i) * n)
            for i in range(2 * p)
        )
        return _reduce_reference(total, 0, 2 * p)
    if family is F.T3:  # m = 4p+2: sum_{i<=m/2} eps_i C(m,i) F_j^n L_{jn} sqrt5^n
        total = sum(
            eps[i] * binomial(4 * p + 2, i) * fib(2 * p + 1 - i) ** n * lucas((2 * p + 1 - i) * n)
            for i in range(2 * p + 2)
        )
        return _reduce_reference(total, n, 2 * p + 1)
    if family is F.T5:  # m = 4p+2, as T2 with L_j, and the whole negated at odd n
        total = binomial(4 * p + 2, 2 * p + 1) * 2**n + sum(
            eps[i] * binomial(4 * p + 2, i)
            * lucas(2 * p + 1 - i) ** n * lucas((2 * p + 1 - i) * n)
            for i in range(2 * p + 1)
        )
        return _reduce_reference(-total if n % 2 else total, 0, 2 * p + 1)
    # T4, m = 4p: sum_{i<=m/2} (-1)^i C(m,i) X_{jn} B^n sqrt5^n, X = L for
    # T4_EVEN; X = F for T4_ODD, whose (1/sqrt5)^(4p-1) is sqrt5/5^(2p).  B is
    # F_{jn} as printed and F_j in reading base-subscript.
    x, odd = (lucas, 0) if family is F.T4_EVEN else (fib, 1)
    total = sum(
        (-1) ** i * binomial(4 * p, i) * x((2 * p - i) * n)
        * fib((2 * p - i) * (n if reading == "printed" else 1)) ** n
        for i in range(2 * p + 1)
    )
    return _reduce_reference(total, n + odd, 2 * p)


def test_t2_t5_closed_forms_are_the_printed_forms():
    # One table row per family builds every T2..T5 record, so a row that is
    # wrong in one place (say T4's weights at odd n) must show here, not only
    # in a digest.
    checked = 0
    for family in (F.T2, F.T3, F.T4_EVEN, F.T4_ODD, F.T5):
        facts = FAMILY_FACTS[family]
        for reading in facts.readings:
            for p in range(facts.p_min, 17):
                for n in facts.ns(range(25)):
                    got = _outcome(closed_form_rhs, family, n, p, reading)
                    want = _outcome(_t2_t5_printed, family, n, p, reading)
                    assert got == want, (family, reading, n, p)
                    checked += 1
    assert checked == 16 * 25 + 2 * 17 * 25 + 2 * 16 * (13 + 12)


def test_remark1_bad_args():
    with pytest.raises(ValueError):
        remark1_relation(0, 1)
    with pytest.raises(ValueError):
        remark1_relation(1, 13)


def test_prop1_examples():
    lhs, rhs = prop1_eval(0, 2, 811)
    assert lhs == rhs == GoldenInt(0, 0)
    lhs, rhs = prop1_eval(1, 2, 811)
    assert lhs == rhs == PHI * PHI
    lhs, rhs = prop1_eval(3, 0, 811)
    assert lhs == rhs == 8


def test_prop1_all_variants():
    for variant in (811, 812, 813, 814):
        for n in range(21):
            for p in range(9):
                lhs, rhs = prop1_eval(n, p, variant)
                assert lhs == rhs, (variant, n, p)


def test_prop1_p0_reduces_to_even_fib():
    for n in range(21):
        lhs, _ = prop1_eval(n, 0, 811)
        assert lhs == fib(2 * n)


def test_prop1_bad_variant():
    with pytest.raises(ValueError):
        prop1_eval(1, 1, 800)


def test_t2_hand_checks():
    assert closed_form_rhs(F.T2, 1, 1) == 1
    assert closed_form_rhs(F.T2, 2, 1) == 3
    assert closed_form_rhs(F.T2, 3, 1) == 22


def test_t2_matches_oracle():
    for p in (1, 2, 3):
        for n in range(21):
            assert closed_form_rhs(F.T2, n, p) == fib_power_sum_oracle(n, 4 * p, "+")


def test_t6_t7_match_oracle():
    for p in range(3):
        for n in range(15):
            assert closed_form_rhs(F.T6, n, p) == fib_power_sum_oracle(
                n, 4 * p + 1, "+"
            ), ("T6", n, p)
            assert closed_form_rhs(F.T7, n, p) == fib_power_sum_oracle(
                n, 4 * p + 3, "+"
            ), ("T7", n, p)


def test_t6_t7_large_cell_matches_oracle():
    n, p = 300, 3
    assert closed_form_rhs(F.T6, n, p) == fib_power_sum_oracle(n, 4 * p + 1, "+")
    assert closed_form_rhs(F.T7, n, p, "printed") == fib_power_sum_oracle(
        n, 4 * p + 3, "+"
    )


def test_lucas_weighted_sum_matches_lucas_calls():
    for kind in ("Q", "S"):
        for n in (0, 1, 2, 9, 40):
            row = coeff_row(kind, n)
            for e in (0, 1, 2, 3, 4, 7, 10, 13):
                want = row[0] + sum(row[j] * lucas(e * j) for j in range(1, n + 1))
                assert _row_power_sum(row, lucas(e), (-1) ** e) == want, (kind, n, e)
    assert _row_power_sum((), lucas(5), -1) == 0


def test_row_power_sum_is_the_forward_sum():
    """The backward sum equals row[0] + sum_{c>=1} row[c] (a^c + b^c) summed
    forward, in value and type: for int t = L_e, ab = (-1)^e (a = phi^e,
    a^c + b^c = L_{ec}), for ring t (a = phi) and for Fraction t, on rows
    of length 0, 1 and 2 and on random rows.  A one-entry row gives its
    entry itself, so LEMMA's n = 0 expanded side stays the int 1."""
    rng = random.Random(24)
    rows = [(), (7,), (-3, 5), *(
        tuple(rng.randint(-10**6, 10**6) for _ in range(rng.randint(3, 40)))
        for _ in range(20)
    )]
    cases = [(lucas(e), (-1) ** e, lambda c, e=e: lucas(e * c)) for e in range(9)]
    cases += [(a + b, a * b, lambda c, a=a, b=b: a**c + b**c)
              for a, b in ((PHI, PSI), (Fraction(3, 2), Fraction(-2, 3)))]
    for t, ab, power_sum in cases:
        for row in rows:
            want = row[0] + sum(x * power_sum(c) for c, x in enumerate(row) if c) if row else 0
            got = _row_power_sum(row, t, ab)
            assert (type(got), got) == (type(want), want), (t, ab, row)
        for entry in (1, -4, Fraction(2, 3), PHI):
            assert _row_power_sum((entry,), t, ab) is entry


def test_t6_p0_is_even_fib():
    for n in range(15):
        assert closed_form_rhs(F.T6, n, 0) == fib(2 * n)


def test_t3_even_branch_for_positive_n():
    for p in range(3):
        for n in range(2, 15, 2):
            assert closed_form_rhs(F.T3, n, p) == fib_power_sum_oracle(
                n, 4 * p + 2, "+"
            )


def test_t3_odd_branch_is_irrational():
    # the printed odd-n branch evaluates to a sqrt5 multiple
    with pytest.raises(NotIntegral):
        closed_form_rhs(F.T3, 1, 0)


def test_t5_odd_branch_matches_oracle():
    for p in range(3):
        for n in range(1, 15, 2):
            assert closed_form_rhs(F.T5, n, p) == fib_power_sum_oracle(
                n, 4 * p + 2, "-"
            )


def test_t5_even_branch_fails_as_printed():
    assert closed_form_rhs(F.T5, 2, 0) == Fraction(11, 5)
    assert fib_power_sum_oracle(2, 2, "-") == -1


def test_t4_even_base_subscript_reading_matches_oracle():
    for p in (1, 2):
        for n in range(2, 13, 2):
            assert closed_form_rhs(
                F.T4_EVEN, n, p, "base-subscript"
            ) == fib_power_sum_oracle(n, 4 * p, "-")


def test_t4_even_printed_reading_fails():
    assert closed_form_rhs(F.T4_EVEN, 2, 1, "printed") != fib_power_sum_oracle(
        2, 4, "-"
    )


def test_t7_equivalent_reading():
    # q(n-1, n) = 0, so truncating the first j-sum changes nothing
    for p in range(3):
        for n in range(1, 10):
            assert closed_form_rhs(F.T7, n, p, "printed") == closed_form_rhs(
                F.T7, n, p, "j-to-n-1"
            )


@pytest.mark.parametrize(
    "family, reading",
    [(F.T2, "bogus"), (F.PROP1_811, "printed"), (F.LEMMA5, "printed"), (F.REMARK1_1, "printed")],
)
def test_unknown_reading_rejected(family, reading):
    # PROP1, LEMMA and REMARK1 have no closed-form record.
    with pytest.raises(ValueError, match=f"unknown reading .* for {family.value}$"):
        closed_form_rhs(family, 1, 1, reading)


@pytest.mark.parametrize(
    "evaluator, args, name",
    [
        (closed_form_rhs, (F.T2, -1, 0), "n"),
        (closed_form_rhs, (F.T4_EVEN, -2, 0), "n"),
        (closed_form_rhs, (F.T7, 3, -1), "p"),
        (fib_power_sum_oracle, (-1, 2), "n"),
        (fib_power_sum_binet, (-1, 2), "n"),
        (fib_power_sum_oracle, (3, -1), "p"),
        (fib_power_sum_binet, (3, -1), "p"),
        (prop1_eval, (2, -1, 811), "p"),
        (prop1_eval, (-1, 1, 811), "n"),
        (cross_power_expansion, (-1, PHI, 1), "n"),
    ],
)
def test_negative_n_or_p_is_rejected(evaluator, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -"):
        evaluator(*args)


def test_cross_power_expansion_examples():
    direct, expanded = cross_power_expansion(0, PHI, 1)
    assert direct == expanded == 1
    direct, expanded = cross_power_expansion(1, PHI, 1)
    assert direct == expanded == 3
    direct, expanded = cross_power_expansion(1, PHI, -1)
    assert direct == expanded == -1


def test_cross_power_expansion_ranges():
    for n in range(21):
        for shift in (1, -1):
            direct, expanded = cross_power_expansion(n, PHI, shift)
            assert direct == expanded, ("phi", n, shift)
            for t in (1, 2, 3):
                direct, expanded = cross_power_expansion(n, Fraction(t), shift)
                assert direct == expanded, (t, n, shift)


def test_cross_power_expansion_preconditions():
    with pytest.raises(PreconditionError):
        cross_power_expansion(3, GoldenInt(4, 0), 1)  # 2 is not a unit
    with pytest.raises(PreconditionError):
        cross_power_expansion(3, Fraction(0), 1)
    with pytest.raises(ValueError):
        cross_power_expansion(3, PHI, 2)


def test_audit_t2_all_pass():
    report = audit([F.T2], range(4), range(2))
    assert len(report.entries) == 4
    assert report.all_pass


def test_audit_remark1_all_pass():
    families = [f for f in IdentityFamily if f.value.startswith("REMARK1_")]
    report = audit(families, range(1), range(1, 13))
    assert len(report.entries) == 144
    assert report.all_pass


def test_audit_empty_applicability():
    report = audit([F.T2], range(4), range(1))  # T2 needs p >= 1
    assert len(report.entries) == 0


def test_audit_deterministic():
    families = [F.T3, F.T4_EVEN, F.T4_ODD, F.T5, F.T6, F.T7]
    r1 = audit(families, range(9), range(3))
    r2 = audit(families, range(9), range(3))
    assert r1.to_json() == r2.to_json()
    assert r1.to_csv() == r2.to_csv()


def test_audit_fail_entries_carry_values():
    report = audit([F.T5], range(3), range(1))
    fails = [e for e in report.entries if e.verdict == "FAIL"]
    assert fails
    for e in fails:
        assert e.lhs != "" and e.rhs != ""
        assert e.note != ""


class OracleValue(int):
    """Marks left sides from the oracle or a transform, so that their
    renderings can be counted."""


def _count_oracle_and_renders(monkeypatch):
    """Count oracle calls and renderings of left sides under monkeypatch."""
    calls = []
    renders = []
    real_oracle = identities.fib_power_sum_oracle
    real_render = identities.render_exact
    real_transform = identities.binomial_transform

    def counting_oracle(n, p, sign="+"):
        calls.append((n, p, sign))
        return OracleValue(real_oracle(n, p, sign))

    def marking_transform(seq):
        return Seq(tuple(OracleValue(v) for v in real_transform(seq)))

    def counting_render(x):
        if type(x) is OracleValue:
            renders.append(int(x))
        return real_render(x)

    monkeypatch.setattr(identities, "fib_power_sum_oracle", counting_oracle)
    monkeypatch.setattr(identities, "binomial_transform", marking_transform)
    monkeypatch.setattr(identities, "render_exact", counting_render)
    return calls, renders


_ORACLE_FAMILIES = [F.T2, F.T3, F.T4_EVEN, F.T4_ODD, F.T5, F.T6, F.T7]


def _cells(report) -> list[tuple]:
    """The (family, n, p, reading) of each entry of an audit report."""
    return [(F(e.family), e.n, e.p, e.reading) for e in report.entries]


def test_audit_dense_grid_calls_the_oracle_at_sample_cells_only(monkeypatch):
    families, n_range, p_range = _ORACLE_FAMILIES, range(9), range(3)
    expected = audit(families, n_range, p_range)
    calls, renders = _count_oracle_and_renders(monkeypatch)
    report = audit(families, n_range, p_range)
    assert report == expected
    cells = _cells(report)
    want = []
    for family in families:
        power, sign = FAMILY_FACTS[family].power, FAMILY_FACTS[family].sign
        for p in p_range:
            ns = sorted({c[1] for c in cells if c[0] is family and c[2] == p})
            if not ns:
                continue
            if family in (F.T4_EVEN, F.T4_ODD):
                # Every n of one parity, 0..8 or 1..7: checked at the last
                # n and the middle one.
                assert ns == list(range(ns[0], 9, 2))
                want += [(ns[-1], power(p), sign), (ns[(len(ns) - 1) // 2], power(p), sign)]
            else:
                # Dense 0..8: checked at the sample cells n = 8 and 8//2.
                assert ns == list(n_range)
                want += [(8, power(p), sign), (4, power(p), sign)]
    assert sorted(calls) == sorted(want)
    assert len(set(calls)) == len(calls)
    # Each left side is rendered once, for PASS/FAIL and NotIntegral rows
    # alike (the grid has both).
    distinct = {(c[0], c[1], c[2]) for c in cells}
    assert len(renders) == len(distinct)
    assert any(e.note == "closed form is not a rational integer" for e in report.entries)


def test_audit_sparse_grid_calls_the_oracle_once_per_family_n_p(monkeypatch):
    families, n_range, p_range = _ORACLE_FAMILIES, [2, 5, 8], range(3)
    expected = audit(families, n_range, p_range)
    calls, renders = _count_oracle_and_renders(monkeypatch)
    report = audit(families, n_range, p_range)
    assert report == expected
    distinct = {(c[0], c[1], c[2]) for c in _cells(report)}
    assert len(calls) == len(distinct)
    # T4_EVEN and T4_ODD share (power, sign) but split n by parity, so the
    # oracle's own arguments are distinct too.
    assert len(set(calls)) == len(calls)
    assert len(renders) == len(distinct)
    assert any(e.note == "closed form is not a rational integer" for e in report.entries)


def test_dense_columns_match_single_cell_audits(monkeypatch):
    transforms = []
    real_transform = identities.binomial_transform

    def counting_transform(seq):
        transforms.append(len(seq))
        return real_transform(seq)

    monkeypatch.setattr(identities, "binomial_transform", counting_transform)
    report = audit(list(IdentityFamily), range(25), range(4))
    # One transform per dense T2..T7 column, in report order: T2 (p >= 1),
    # T3, T4_EVEN and T4_ODD (p >= 1; n up to 24 and 23), T5, T6 and T7.
    # PROP1 steps its left sides by a recurrence and takes none.
    assert transforms == [25] * (3 + 4 + 3) + [24] * 3 + [25] * (3 * 4)
    dense = {(e.family, e.n, e.p, e.reading): e for e in report.entries}
    seen = set()
    for n in range(25):
        for p in range(4):
            # A single cell at n > 0 is not dense, so it takes the per-cell route.
            for e in audit(list(IdentityFamily), [n], [p]).entries:
                key = (e.family, e.n, e.p, e.reading)
                assert e == dense[key], key
                seen.add(key)
    assert seen == set(dense)


def test_prop1_columns_with_gaps_match_prop1_eval():
    variants = [F.PROP1_811, F.PROP1_812, F.PROP1_813, F.PROP1_814]
    report = audit(variants, [3, 4, 9, 17], range(5))
    assert len(report.entries) == 4 * 4 * 5
    for e in report.entries:
        lhs, rhs = prop1_eval(e.n, e.p, int(e.family.split("_")[1]))
        assert (e.lhs, e.rhs, e.verdict) == (render_exact(lhs), render_exact(rhs), "PASS")


def test_t4_even_column_matches_per_cell_evaluation():
    report = audit([F.T4_EVEN], range(13), range(1, 3))
    assert {e.n for e in report.entries} == set(range(0, 13, 2))
    for e in report.entries:
        lhs = fib_power_sum_oracle(e.n, 4 * e.p, "-")
        try:
            rhs = render_exact(closed_form_rhs(F.T4_EVEN, e.n, e.p, e.reading))
        except NotIntegral as exc:
            rhs = str(exc)
        assert (e.lhs, e.rhs) == (render_exact(lhs), rhs), (e.n, e.p, e.reading)


def test_t4_odd_takes_each_f_jn_once(monkeypatch):
    """T4_ODD's factor X is F itself, so F_{jn} is evaluated once per cell;
    a dense column carries the products X_{jn} F_j^n beside F_{jn}, and
    T4_EVEN also L_{jn}.  T2, T3 and T5 share T4's record but take no F_{jn}:
    a cell evaluates none, and a column carries its products alone."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(identities, "fib", lambda k: calls.append(k) or fib(k))
        closed_form_rhs(F.T4_ODD, 9, 2)
    assert [calls.count(k) for k in (9, 18, 27, 36)] == [1, 1, 1, 1]
    for family in (F.T2, F.T3, F.T5):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(identities, "fib", lambda k: calls.append(k) or fib(k))
            closed_form_rhs(family, 9, 2)
        assert not {9 * j for j in range(1, 6)} & set(calls), family
    real = identities._multiples
    monkeypatch.setattr(identities, "_multiples", lambda x, *a: calls.append(x) or real(x, *a))
    for family, carried in ((F.T4_ODD, [fib, fib]), (F.T4_EVEN, [lucas, fib, lucas])):
        calls.clear()
        audit([family], range(10), [2])
        assert calls == carried, family
    for family in (F.T2, F.T3, F.T5):
        calls.clear()
        audit([family], range(10), [2])
        assert calls == [lucas], family


_FAST_PATHS = [
    (F.T2, 1), (F.T7, 1), (F.PROP1_812, 2),
    (F.T3, 1), (F.T4_EVEN, 1), (F.T4_ODD, 1), (F.T5, 1), (F.T6, 1), (F.LEMMA5, 1), (F.LEMMA7, 1),
]


def _patch_dense_sides(monkeypatch, change):
    """Pass each (n, left side, right sides) of a column's _dense_sides
    through change(n, lhs, forms), which returns the new (lhs, forms)."""
    real = identities._dense_sides

    def patched(record, readings, ns):
        return (change(n, *sides) for n, sides in zip(ns, real(record, readings, ns)))

    monkeypatch.setattr(identities, "_dense_sides", patched)


@pytest.mark.parametrize("family, bump", _FAST_PATHS)
@pytest.mark.parametrize("at", ["last", "middle"])
def test_fast_path_mismatch_is_raised(monkeypatch, family, bump, at):
    """A dense value off at a sampled n is caught, on either side.  The
    column is 0..8 (T4: 0,2,..,8 or 1,3,..,7), sampled at its last n and
    its middle one.  `_dense_sides` is bumped at that n, first in the left
    side (PROP1 by 2, which keeps a ring element), then in every closed
    form, PROP1's included.  A column that is not dense never takes it."""
    sparse = audit([family], [2, 5, 8], [1])
    ns = sorted({e.n for e in audit([family], range(9), [1]).entries})
    n = ns[-1] if at == "last" else ns[(len(ns) - 1) // 2]

    def bump_left(k, lhs, forms):
        return (lhs + bump if k == n else lhs), forms

    def bump_forms(k, lhs, forms):
        return lhs, ({r: v + bump for r, v in forms.items()} if k == n else forms)

    for side, change in (("left side", bump_left), ("closed form", bump_forms)):
        with monkeypatch.context() as m:
            _patch_dense_sides(m, change)
            with pytest.raises(FastPathMismatch, match=f"{side} disagrees .* at n={n}$"):
                audit([family], range(9), range(1, 2))
            assert audit([family], [2, 5, 8], [1]) == sparse


def test_fast_path_check_compares_notintegral_message_and_type(monkeypatch):
    # T3 at p = 1 is NotIntegral at n = 1, 3, 5; a column 0..5 is sampled at
    # n = 5 and 2.
    for make in (lambda v: NotIntegral(f"{v} "), lambda v: NotDivisible(str(v))):
        def reraised(n, lhs, forms):
            return lhs, {
                r: make(v) if isinstance(v, NotIntegral) else v for r, v in forms.items()
            }

        with monkeypatch.context() as m:
            _patch_dense_sides(m, reraised)
            with pytest.raises(FastPathMismatch, match="closed form .* n=5$"):
                audit([F.T3], range(6), [1])
    # The ring element 1 equals the int 1, but LEMMA's n = 0 is an int.
    _patch_dense_sides(monkeypatch, lambda n, lhs, forms: (GoldenInt(2, 0), forms))
    with pytest.raises(FastPathMismatch, match="left side .* n=0$"):
        audit([F.LEMMA5], range(1), [0])


@pytest.mark.parametrize("n_range", [range(9), [2, 5, 8]])
def test_no_column_outlives_its_audit(monkeypatch, n_range):
    """Every column generator is freed by reference counting alone when
    `audit` returns: nothing it keeps, dense iterator or kept exception,
    refers back to it."""
    refs = []
    real_column = identities._column_sides

    def recording_column(*args):
        column = real_column(*args)
        refs.append(weakref.ref(column))
        return column

    monkeypatch.setattr(identities, "_column_sides", recording_column)
    gc.collect()
    gc.disable()
    try:
        report = audit(list(IdentityFamily), n_range, range(3))
        alive = sum(ref() is not None for ref in refs)
    finally:
        gc.enable()
    assert any(e.note == "closed form is not a rational integer" for e in report.entries)
    # REMARK1, PROP1, LEMMA, T3/T5/T6/T7, T2/T4
    assert len(refs) == 12 * 2 + 4 * 3 + 2 + 4 * 3 + 3 * 2
    assert alive == 0


def test_column_work_runs_inside_its_cells(monkeypatch):
    """Every oracle, transform, REMARK1 relation, q/s expansion and
    rendering (left sides included) of an audit runs inside an
    `_audit_cell` call, so a traced run counts it as a cell's time."""
    depth = 0
    calls, outside = [], []
    real_cell = identities._audit_cell

    def counting_cell(*args):
        nonlocal depth
        depth += 1
        try:
            return real_cell(*args)
        finally:
            depth -= 1

    def watched(name, real):
        def call(*args):
            calls.append(name)
            if not depth:
                outside.append(name)
            return real(*args)

        return call

    names = (
        "fib_power_sum_oracle", "binomial_transform", "remark1_relation",
        "cross_power_expansion", "render_exact",
    )
    for name in names:
        monkeypatch.setattr(identities, name, watched(name, getattr(identities, name)))
    monkeypatch.setattr(identities, "_audit_cell", counting_cell)
    audit(list(IdentityFamily), range(9), range(3))
    assert set(calls) == set(names)
    assert outside == []


def test_each_pass_right_side_reuses_its_left_side_text(monkeypatch):
    """A PASS right side equals its left side in type and value, so its
    text is the left side's; only the 8 T7 't-to-p-1' FAILs at n >= 1 are
    rendered beside the 36 left sides."""
    expected = audit([F.T2, F.PROP1_811, F.LEMMA5, F.T7], range(9), [1])
    renders = []
    real = identities.render_exact
    monkeypatch.setattr(identities, "render_exact", lambda x: renders.append(x) or real(x))
    assert audit([F.T2, F.PROP1_811, F.LEMMA5, F.T7], range(9), [1]) == expected
    assert len(renders) == 44


@pytest.mark.parametrize("n_range", [range(6), [0, 2, 5]])
def test_notdivisible_closed_form_fails_with_both_values(monkeypatch, n_range):
    """A PROP1 numerator that is no sqrt5 multiple gives a FAIL row that
    carries the left side and the exception's message, in a dense column
    (0..5, sampled at 5 and 2) and in a sparse one.  Here the numerator is
    2^n - 0^n: zero at n = 0, and a power of 2 after."""
    real_terms = identities._prop1_terms
    w = real_terms(1, 811)[0]

    def terms(p, variant):
        return real_terms(p, variant)[0], GoldenInt(4, 0), GoldenInt(0, 0)

    monkeypatch.setattr(identities, "_prop1_terms", terms)
    entries = audit([F.PROP1_811], n_range, [1]).entries
    assert [e.n for e in entries] == list(n_range)
    for e in entries:
        lhs = render_exact(identities._weighted_fib_sum(e.n, w))
        if e.n == 0:
            assert (e.lhs, e.rhs, e.verdict, e.note) == (lhs, lhs, "PASS", "")
            continue
        with pytest.raises(NotDivisible) as raised:
            div_sqrt5(GoldenInt(4, 0) ** e.n)
        assert (e.lhs, e.rhs, e.verdict, e.note) == (
            lhs, str(raised.value), "FAIL", "closed form not divisible by sqrt5"
        )
        with pytest.raises(NotDivisible, match=re.escape(str(raised.value))):
            prop1_eval(e.n, 1, 811)


@pytest.mark.parametrize("family", [F.LEMMA5, F.LEMMA7])
def test_lemma_n0_renders_the_int_1(family):
    # n = 0 sampled (0..0) and carried (0..4, sampled at 4 and 2).
    for n_range in (range(1), range(5)):
        e = audit([family], n_range, [0]).entries[0]
        assert (e.n, e.lhs, e.rhs, e.verdict) == (0, "1", "1", "PASS")
    shift = 1 if family is F.LEMMA5 else -1
    entries = audit([family], range(101), [0]).entries
    assert [e.n for e in entries] == list(range(101))
    for e in entries:
        assert (e.lhs, e.rhs) == tuple(map(render_exact, cross_power_expansion(e.n, PHI, shift)))


@pytest.mark.parametrize(
    "n_range, ns", [(range(13), {12, 11, 6, 5}), ([3, 9], {3, 2, 9, 8})], ids=["dense", "sparse"]
)
def test_audit_reads_coeff_rows_only_at_sampled_n(monkeypatch, n_range, ns):
    # A dense column carries its row sums and builds rows only for the
    # per-cell check at n = N and N//2; a sparse one builds them at each n.
    # T6/T7 read rows n-1 of both kinds, LEMMA5 the q row n, LEMMA7 the s row n.
    calls = []
    real_row = identities.coeff_row

    def counting_row(kind, n):
        calls.append((kind, n))
        return real_row(kind, n)

    monkeypatch.setattr(identities, "coeff_row", counting_row)
    audit(list(IdentityFamily), n_range, range(3))
    assert set(calls) == {(kind, n) for kind in "QS" for n in ns}


def test_row_sums_match_lucas_weighted_sums_of_rows():
    es = (1, 2, 3, 5, 9, 27)
    keys = [(kind, e) for kind in "QS" for e in es]
    for n, sums in zip(range(81), identities._row_sums(keys)):
        assert set(sums) == set(keys)
        for kind, e in keys:
            want = _row_power_sum(coeff_row(kind, n), lucas(e), (-1) ** e)
            assert sums[kind, e] == want, (kind, e, n)


def test_prop1_numerator_bases_are_the_left_side_roots():
    """(r_a, r_b) = (1 + w phi, 1 + w psi) at every p <= 64: both sides of
    PROP1 are then the two-root sequence from y_0 = 0, y_1 = w, so PROP1
    holds at every n."""
    for variant in (811, 812, 813, 814):
        for p in range(65):
            w, r_a, r_b = identities._prop1_terms(p, variant)
            assert (r_a, r_b) == (1 + w * PHI, 1 + w * PSI), (variant, p)


def _prop1_printed_terms(p, variant):
    """(w, r_a, r_b) of a PROP1 variant as printed, one branch per variant."""
    x, y = PHI, PSI
    if variant == 811:
        return unit_pow(x, p), unit_pow(x, p + 1) + 1, 1 - unit_pow(x, p - 1)
    if variant == 812:
        return -unit_pow(x, p), 1 - unit_pow(x, p + 1), unit_pow(x, p - 1) + 1
    if variant == 813:
        return unit_pow(y, p), 1 - unit_pow(y, p - 1), unit_pow(y, p + 1) + 1
    return -unit_pow(y, p), unit_pow(y, p - 1) + 1, 1 - unit_pow(y, p + 1)


def test_prop1_table_gives_the_printed_terms():
    # Swapping the signs of 813 and 814 keeps every PROP1 column a PASS;
    # each term must be the printed one.
    for variant in (811, 812, 813, 814):
        for p in range(65):
            got, want = identities._prop1_terms(p, variant), _prop1_printed_terms(p, variant)
            assert [type(x) for x in got] == [type(x) for x in want] == [GoldenInt] * 3
            assert got == want, (variant, p)


def test_prop1_dense_columns_match_prop1_eval_at_every_n():
    variants = [F.PROP1_811, F.PROP1_812, F.PROP1_813, F.PROP1_814]
    entries = audit(variants, range(101), range(7)).entries
    assert len(entries) == 4 * 101 * 7
    for e in entries:
        lhs, rhs = prop1_eval(e.n, e.p, int(e.family.split("_")[1]))
        assert (e.lhs, e.rhs, e.verdict) == (render_exact(lhs), render_exact(rhs), "PASS")


def _dense_entries_matching_closed_form_rhs(families, n_range=range(101), p_range=range(7)):
    """The entries of a dense audit of `families`, by default at n <= 100,
    p <= 6, each checked against `closed_form_rhs` at its own n: the
    rendered value, or the NotIntegral message."""
    entries = audit(families, n_range, p_range).entries
    for e in entries:
        try:
            want = render_exact(closed_form_rhs(IdentityFamily(e.family), e.n, e.p, e.reading))
        except NotIntegral as exc:
            want = str(exc)
        assert e.rhs == want, e[:4]
    return entries


def test_t6_t7_dense_columns_match_closed_form_rhs_at_every_n():
    # p = 0 included: T6 'printed' and T7 't-to-p-1' then have an empty
    # first t-sum.
    assert identities._t6_t7_form(F.T6, 0).t_hi["printed"] == -1
    assert identities._t6_t7_form(F.T7, 0).t_hi["t-to-p-1"] == -1
    entries = _dense_entries_matching_closed_form_rhs([F.T6, F.T7])
    assert len(entries) == 101 * 7 * 5
    at_cap = _dense_entries_matching_closed_form_rhs([F.T6, F.T7], range(13), [16, 64])
    assert len(at_cap) == 13 * 2 * 5
    for e in entries + at_cap:
        if e.reading in ("printed", "j-to-n-1"):
            assert e.verdict == "PASS", e[:4]


def test_t2_t5_dense_columns_match_closed_form_rhs_at_every_n():
    # T2 and T4 start at p = 1; T4_EVEN takes 51 even n and T4_ODD 50 odd
    # ones, each in two readings.  T3's odd n raise NotIntegral.
    families = [F.T2, F.T3, F.T4_EVEN, F.T4_ODD, F.T5]
    entries = _dense_entries_matching_closed_form_rhs(families)
    assert len(entries) == 101 * (6 + 7 + 7) + (51 + 50) * 6 * 2
    assert any(e.note == "closed form is not a rational integer" for e in entries)
    at_cap = _dense_entries_matching_closed_form_rhs(families, range(13), [16, 64])
    assert len(at_cap) == 13 * 2 * 3 + (7 + 6) * 2 * 2


@pytest.mark.parametrize("family, p", [(F.T7, 1), (F.LEMMA5, 0)])
def test_faulty_row_sums_hit_the_sampled_check(monkeypatch, family, p):
    real = identities._row_sums

    def off_by_one_from_n1(keys):
        for n, sums in enumerate(real(keys)):
            yield {key: value + (n >= 1) for key, value in sums.items()}

    monkeypatch.setattr(identities, "_row_sums", off_by_one_from_n1)
    with pytest.raises(FastPathMismatch, match="closed form disagrees .* at n=6$"):
        audit([family], range(13), [p])


@pytest.mark.parametrize("family, p", [(F.PROP1_811, 1), (F.LEMMA5, 0), (F.LEMMA7, 0)])
@pytest.mark.parametrize("fault", ["step", "root"])
def test_faulty_prop1_step_hits_the_sampled_check(monkeypatch, family, p, fault):
    """PROP1's and LEMMA5/7's dense left sides are stepped from their roots
    by one helper: a faulty step (the roots' sum off by one), or a faulty
    root (their product off by one), is caught."""
    real = identities._recurrent

    def off_by_one(y0, y1, mult, sign):
        return real(y0, y1, mult + (fault == "step"), sign + (fault == "root"))

    monkeypatch.setattr(identities, "_recurrent", off_by_one)
    with pytest.raises(FastPathMismatch, match="left side disagrees .* at n=6$"):
        audit([family], range(13), [p])


def _reduce_reference(total, sqrt5_exp, five_exp):
    """The former evaluation: sqrt5^e * total / 5^k as a + b*sqrt5 with
    Fraction coordinates, sorted into int, Fraction or GoldenInt, or
    NotIntegral carrying the value as "a+b*sqrt5"."""
    coeff = Fraction(total * 5 ** (sqrt5_exp // 2), 5**five_exp)
    a, b = (Fraction(0), coeff) if sqrt5_exp % 2 else (coeff, Fraction(0))
    if b == 0:
        return a.numerator if a.denominator == 1 else a
    u, v = 2 * a, 2 * b
    if u.denominator == 1 and v.denominator == 1 and (u.numerator - v.numerator) % 2 == 0:
        return GoldenInt(u.numerator, v.numerator)
    raise NotIntegral(f"{a}{'+' if b >= 0 else ''}{b}*sqrt5")


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except NotIntegral as exc:
        return "NotIntegral", str(exc)
    return type(value), value


def test_reduce_matches_fraction_reference():
    totals = [0, 1, -1, 2, -3, 5, -10, 25, 125 * 7, -625 * 3, 3**50, -(5**30) * 7, 10**40 + 1]
    for total in totals:
        for sqrt5_exp in range(8):
            for five_exp in range(7):
                got = _outcome(_reduce, total, sqrt5_exp, five_exp)
                want = _outcome(_reduce_reference, total, sqrt5_exp, five_exp)
                assert got == want, (total, sqrt5_exp, five_exp)
    assert _reduce(0, 3, 2) == 0 and type(_reduce(0, 3, 2)) is int
    assert _outcome(_reduce, -3, 1, 2) == ("NotIntegral", "0-3/25*sqrt5")
    assert _outcome(_reduce, 3, 3, 2) == ("NotIntegral", "0+3/5*sqrt5")


def test_closed_form_grid_digest():
    """Every family and reading, n <= 40, p <= 4: value type, rendering and
    NotIntegral message, hashed.  The digest was taken from the Fraction
    evaluation that `_reduce` replaced."""
    lines = []
    for family, facts in FAMILY_FACTS.items():
        for reading in facts.readings if facts.power else ():
            for n in range(41):
                for p in range(5):
                    head = f"{family.value} {reading} {n} {p}"
                    try:
                        value = closed_form_rhs(family, n, p, reading)
                    except NotIntegral as exc:
                        lines.append(f"{head} NotIntegral {exc}")
                    else:
                        lines.append(f"{head} {type(value).__name__} {render_exact(value)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "aaf4574c8329e4233b1373adc0ae558b95774a3b0140223d58a9adfab85950e6"


def _json_reference(report):
    return json.dumps([e.as_dict() for e in report.entries], indent=2)


def test_audit_json_matches_json_dumps():
    assert AuditReport(entries=()).to_json() == "[]" == _json_reference(AuditReport(entries=()))
    report = audit(list(IdentityFamily), range(13), range(3))
    assert {e.n is None for e in report.entries} == {True, False}
    assert {e.p is None for e in report.entries} == {True, False}
    assert report.to_json() == _json_reference(report)
    odd = AuditEntry(
        'F"1', None, None, "back\\slash", "line\nbreak", "\u00e9\u221a5", "FAIL", 'q"\\\n\u00e9'
    )
    hand = AuditReport(entries=(odd, report.entries[0]))
    assert hand.to_json() == _json_reference(hand)
    assert json.loads(hand.to_json())[0] == odd.as_dict()


_SURROGATES = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=[])
_TEXT_WITH_LONE_SURROGATES = st.text(st.characters() | _SURROGATES)


@given(_TEXT_WITH_LONE_SURROGATES)
def test_audit_json_escapes_strings_as_json_dumps(text):
    report = AuditReport(entries=(AuditEntry(text, None, 1, text, text, text, text, text),))
    assert report.to_json() == _json_reference(report)


def test_audit_cells_cover_readings():
    readings = {e.reading for e in audit([F.T4_ODD], range(2), range(1, 2)).entries}
    assert readings == set(FAMILY_FACTS[F.T4_ODD].readings)


def _audit_cells_reference(families, n_range, p_range) -> list[tuple]:
    """The (family, n, p, reading) cells of an audit report in report order,
    as the grid was enumerated before `FAMILY_FACTS`: one branch per kind
    of family."""
    n_values = sorted(set(n_range))
    p_values = sorted(set(p_range))
    cells = []
    for family in sorted(set(families), key=identities._FAMILY_ORDER.get):
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
                    for reading in sorted(FAMILY_FACTS[family].readings):
                        cells.append((family, n, p, reading))
    return cells


def test_audit_cells_match_the_branching_reference():
    assert list(identities.FAMILY_FACTS) == list(IdentityFamily)
    assert len(audit(list(IdentityFamily), range(65), range(3)).entries) == 2689
    n_sets = [[], [0], [5, 5, 3, 0, 3], range(0, 65, 3), [1, 3, 64], range(65)]
    p_sets = [[], [0], [5, 2, 2, 0], range(6), [1, 3]]
    for n_range in n_sets:
        for p_range in p_sets:
            for families in (list(F), [F.T4_ODD, F.REMARK1_3, F.T4_ODD], [F.LEMMA7]):
                got = _cells(audit(families, n_range, p_range))
                assert got == _audit_cells_reference(families, n_range, p_range)


@settings(deadline=None)  # each example is a real audit of up to 71 n
@given(
    st.lists(st.sampled_from(list(F))),
    st.lists(st.integers(0, 70)),
    st.lists(st.integers(0, 5)),
)
def test_audit_cells_match_the_reference_on_random_grids(families, n_range, p_range):
    assert _cells(audit(families, n_range, p_range)) == _audit_cells_reference(
        families, n_range, p_range
    )


def test_audit_entries_come_out_in_report_order():
    # audit does not sort: the cells' own order must already be the report
    # order (family, p, n, reading), whatever order the inputs come in.
    remark1 = [f for f in F if f.value.startswith("REMARK1_")]
    families = [F.T7, F.LEMMA5, *remark1, F.T4_EVEN, F.T4_ODD, F.T6]
    entries = audit(families, [8, 3, 3, 0, 5], [2, 0, 1]).entries
    order = {f.value: i for i, f in enumerate(F)}
    key = lambda e: (
        order[e.family],
        -1 if e.p is None else e.p,
        -1 if e.n is None else e.n,
        e.reading,
    )
    assert list(entries) == sorted(entries, key=key)
    assert len({key(e) for e in entries}) == len(entries)
    t7 = [e.reading for e in entries if e.family == F.T7.value and (e.n, e.p) == (3, 1)]
    assert t7 == ["j-to-n-1", "printed", "t-to-p-1"]


def test_render_exact():
    assert render_exact(12) == "12"
    assert render_exact(Fraction(3, 4)) == "3/4"
    assert render_exact(PHI) == "(1+1*sqrt5)/2"
    with pytest.raises(TypeError):
        render_exact(1.5)
    with pytest.raises(TypeError):
        render_exact("12")
    with pytest.raises(TypeError):
        render_exact(True)


# Either side of CPython's default 4300-digit int->str limit, far past it,
# and a Fibonacci number; none is a multiple of 5.
_LIMIT_SIDES = [10**4299 + 7, 10**4300 - 1, 10**4300 + 3, 10**20000 + 1, fib(60001)]


def _golden_text(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"\((-?\d+)([+-]\d+)\*sqrt5\)/2", text)
    return int(Decimal(match[1])), int(Decimal(match[2]))


@pytest.mark.parametrize("x", _LIMIT_SIDES, ids=lambda x: f"{x.bit_length()}bits")
def test_render_exact_past_the_int_str_limit(x):
    limit = sys.get_int_max_str_digits()
    den = 10**4400 + 1
    for v in (x, -x):
        assert int(Decimal(render_exact(v))) == v
        num_text, den_text = render_exact(Fraction(v, den)).split("/")
        assert Fraction(int(Decimal(num_text)), int(Decimal(den_text))) == Fraction(v, den)
        assert _golden_text(render_exact(GoldenInt(v, -v - 2))) == (v, -v - 2)
        assert _golden_text(str(GoldenInt(3, v))) == (3, v)
        # b = v/5 is not an integer, so the sqrt5 multiple is NotIntegral.
        with pytest.raises(NotIntegral) as raised:
            _reduce(v, 1, 1)
        b = Fraction(*map(int, map(Decimal, str(raised.value)[1:-len("*sqrt5")].split("/"))))
        assert b == Fraction(v, 5)
    assert sys.get_int_max_str_digits() == limit


def test_render_exact_keeps_str_below_the_limit():
    for x in (0, 1, -1, 10**4299 + 7, -(10**4299 + 7), fib(20000)):
        assert render_exact(x) == str(x)
        f = Fraction(x, 10**9 + 7)
        assert render_exact(f) == f"{f.numerator}/{f.denominator}"
        assert str(GoldenInt(x, x)) == f"({x}{x:+}*sqrt5)/2"
