import pytest

import fibaudit.sequences as seq
from fibaudit.ring import GoldenInt, PHI, ring_pow
from fibaudit.sequences import (
    RecurrenceMismatch,
    binomial,
    build_coeff_table,
    coeff_row,
    coeff_rows,
    fib,
    fib_naive,
    lucas,
    lucas_naive,
    q_coeff,
    s_coeff,
)


def test_fib_spot_values():
    assert fib(0) == 0
    assert fib(10) == 55
    assert fib(20) == 6765
    with pytest.raises(ValueError):
        fib(-1)


def test_lucas_spot_values():
    assert lucas(0) == 2
    assert lucas(1) == 1
    assert lucas(10) == 123
    with pytest.raises(ValueError):
        lucas(-1)


def test_fast_doubling_matches_naive():
    for n in range(501):
        assert fib(n) == fib_naive(n)
        assert lucas(n) == lucas_naive(n)


def test_binet_cross_link():
    # phi^n = (L_n + F_n*sqrt5)/2
    for n in range(201):
        assert ring_pow(PHI, n) == GoldenInt(lucas(n), fib(n))


def test_binomial():
    assert binomial(5, 2) == 10
    assert all(binomial(n, 0) == 1 for n in range(10))
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_q_spot_values():
    assert q_coeff(1, 0) == 2
    assert q_coeff(1, 1) == 1
    assert q_coeff(2, 1) == 3
    assert q_coeff(2, 1) == q_coeff(1, 0) + q_coeff(1, 1)
    with pytest.raises(ValueError):
        q_coeff(-1, 0)


def test_s_spot_values():
    assert s_coeff(1, 0) == -2
    assert s_coeff(1, 1) == 1
    assert s_coeff(2, 1) == -3
    assert s_coeff(2, 1) == s_coeff(1, 0) - s_coeff(1, 1)


@pytest.mark.parametrize("n", range(20))
def test_q_recurrences_match_definition(n):
    # first recurrence needs c >= 1; second holds for c >= 0
    for c in range(1, n + 2):
        assert q_coeff(n + 1, c) == q_coeff(n, c - 1) + q_coeff(n, c)
    for c in range(n + 1):
        assert q_coeff(n + 1, c) == binomial(n + 1, c) - q_coeff(n, c + 1) + q_coeff(n, c)


@pytest.mark.parametrize("n", range(1, 20))
def test_s_recurrences_match_definition(n):
    for c in range(1, n):
        assert s_coeff(n + 1, c) == s_coeff(n, c - 1) - s_coeff(n, c)
        assert s_coeff(n + 1, c) == (
            (-1) ** (n - c + 1) * binomial(n + 1, c)
            - s_coeff(n, c + 1)
            - s_coeff(n, c)
        )
    # c = 0 rule, with the sign on the s(n,1) term corrected
    assert s_coeff(n + 1, 0) == -s_coeff(n, 1) - s_coeff(n, 0) + (-1) ** (n + 1)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 20, 63, 64, 129, 200])
def test_coeff_row_matches_definition(n):
    assert coeff_row("Q", n) == tuple(q_coeff(n, c) for c in range(n + 1))
    assert coeff_row("S", n) == tuple(s_coeff(n, c) for c in range(n + 1))


def test_coeff_row_bad_args():
    with pytest.raises(ValueError):
        coeff_row("X", 3)
    with pytest.raises(ValueError):
        coeff_row("Q", -1)


def test_bounded_q_coeff_matches_full_sum():
    # The defining sum runs over every m in 0..n; q_coeff stops at the
    # last non-zero binomial.
    for n in range(41):
        for c in range(n + 3):
            full = sum((-1) ** m * binomial(n + 1, 2 * m + c + 1) for m in range(n + 1))
            assert q_coeff(n, c) == full, (n, c)


def test_build_coeff_table_q():
    table = build_coeff_table("Q", 2)
    assert table.rows == ((1,), (2, 1), (2, 3, 1))
    assert build_coeff_table("Q", 0).rows == ((1,),)
    assert table[2, 1] == 3


def test_build_coeff_table_s():
    table = build_coeff_table("S", 1)
    assert table.rows == ((1,), (-2, 1))


def test_build_coeff_table_matches_definition():
    for kind, direct in (("Q", q_coeff), ("S", s_coeff)):
        table = build_coeff_table(kind, 30)
        for n in range(31):
            for c in range(n + 1):
                assert table[n, c] == direct(n, c), (kind, n, c)
        # Past the build-time cross-check, against the O(n) row function.
        table = build_coeff_table(kind, 200)
        for n in range(201):
            assert table.rows[n] == coeff_row(kind, n), (kind, n)


def test_coeff_rows_match_row_function():
    # The generator's recurrences against the independent O(n) row function.
    for kind in ("Q", "S"):
        rows = list(coeff_rows(kind, 200))
        assert len(rows) == 201
        for n, row in enumerate(rows):
            assert row == coeff_row(kind, n), (kind, n)


def test_build_coeff_table_bad_args():
    with pytest.raises(ValueError):
        build_coeff_table("X", 3)
    with pytest.raises(ValueError):
        build_coeff_table("Q", -1)
    with pytest.raises(ValueError):
        coeff_rows("S", -1)


def test_recurrence_mismatch_detected(monkeypatch):
    real = seq.q_coeff

    def broken(n, c):
        if (n, c) == (3, 1):
            return real(n, c) + 1
        return real(n, c)

    monkeypatch.setattr(seq, "q_coeff", broken)
    with pytest.raises(RecurrenceMismatch):
        build_coeff_table("Q", 5)
    # coeff_rows checks when called, before any row is taken.
    with pytest.raises(RecurrenceMismatch):
        coeff_rows("Q", 5)
