"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value below is either hand-derived or frozen from an
independent brute-force computation.
"""
import random
import time
from fractions import Fraction

from fibaudit.cli import _VERIFY_SUITES
from fibaudit.identities import (
    IdentityFamily,
    audit,
    closed_form_rhs,
    cross_power_expansion,
    fib_power_sum_binet,
    fib_power_sum_oracle,
    prop1_eval,
    remark1_relation,
)
from fibaudit.ring import GoldenInt, PHI, ring_pow
from fibaudit.sequences import (
    binomial,
    fib,
    fib_naive,
    lucas,
    lucas_naive,
    q_coeff,
    s_coeff,
)
from fibaudit.transforms import Seq, binomial_transform, inverse_transform

F = IdentityFamily


def _report(number: int, label: str, start: float, limit: float | None = None):
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {label} ({elapsed:.2f}s)")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_round_trip():
    start = time.perf_counter()
    rng = random.Random(1)
    for _ in range(200):
        a = Seq(tuple(rng.randint(-1000, 1000) for _ in range(rng.randint(1, 64))))
        assert inverse_transform(binomial_transform(a)) == a
    _report(1, "transform round trip, 200 random sequences", start, 5.0)


def _run_verify_suites(names, rng) -> dict:
    """Run the named suites of `fibaudit verify` at their caps, in order and
    on one rng; assert that every check holds and return the check counts."""
    suites = {name: (suite, cap) for name, suite, cap in _VERIFY_SUITES}
    counts = {}
    for name in names:
        suite, cap = suites[name]
        results = list(suite(rng, cap))
        assert results.count(False) == 0, name
        counts[name] = len(results)
    return counts


def test_criterion_2_transform_identity_suites():
    start = time.perf_counter()
    # The counts `verify --n-max 4096` prints for these suites.
    want = {
        "lemma1": 1122, "lemma2": 1122, "lemma3": 465,
        "theorem1": 25, "corollary1": 105, "corollary2": 105,
    }
    assert _run_verify_suites(list(want), random.Random(2)) == want
    _report(2, "lemma 1-3 / theorem 1 / corollary 1-2 suites", start, 30.0)


def test_criterion_3_gould_identities():
    start = time.perf_counter()
    assert _run_verify_suites(["gould"], random.Random(3)) == {"gould": 3521}
    _report(3, "Gould 3.49 and 1.41 exact", start, 5.0)


def test_criterion_4_ring_cross_link():
    start = time.perf_counter()
    for n in range(201):
        assert ring_pow(PHI, n) == GoldenInt(lucas(n), fib(n))
    for n in range(501):
        assert fib(n) == fib_naive(n)
        assert lucas(n) == lucas_naive(n)
    _report(4, "phi^n = (L_n + F_n sqrt5)/2 and fast-doubling cross-check", start, 5.0)


def test_criterion_5_remark1():
    start = time.perf_counter()
    checks = 0
    for p in range(1, 13):
        for index in range(1, 13):
            lhs, rhs = remark1_relation(p, index)
            assert lhs == rhs
            checks += 1
    assert checks == 144
    _report(5, "all 12 golden-power relations, 1 <= p <= 12 (144 checks)", start)


def test_criterion_6_weighted_sums():
    start = time.perf_counter()
    for variant in (811, 812, 813, 814):
        for n in range(21):
            for p in range(9):
                lhs, rhs = prop1_eval(n, p, variant)
                assert lhs == rhs
    for n in range(21):
        lhs, _ = prop1_eval(n, 0, 811)
        assert lhs == fib(2 * n)
    _report(6, "weighted-sum closed forms 811-814, 0<=n<=20, 0<=p<=8", start)


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    for n in range(25):
        for p in range(1, 9):
            for sign in "+-":
                assert fib_power_sum_oracle(n, p, sign) == fib_power_sum_binet(
                    n, p, sign
                )
    _report(7, "direct and ring oracles agree, n<=24, p<=8, both signs", start)


def test_criterion_8_theorem2():
    start = time.perf_counter()
    for p in (1, 2, 3):
        for n in range(21):
            assert closed_form_rhs(F.T2, n, p) == fib_power_sum_oracle(n, 4 * p, "+")
    assert closed_form_rhs(F.T2, 1, 1) == 1
    assert closed_form_rhs(F.T2, 2, 1) == 3
    assert closed_form_rhs(F.T2, 3, 1) == 22
    _report(8, "power-4p closed form equals oracle, p in {1,2,3}, n<=20", start)


def test_criterion_9_qs_machinery():
    start = time.perf_counter()
    for n in range(20):
        for c in range(1, n + 2):
            assert q_coeff(n + 1, c) == q_coeff(n, c - 1) + q_coeff(n, c)
        for c in range(n + 1):
            assert q_coeff(n + 1, c) == (
                binomial(n + 1, c) - q_coeff(n, c + 1) + q_coeff(n, c)
            )
        for c in range(1, n):
            assert s_coeff(n + 1, c) == s_coeff(n, c - 1) - s_coeff(n, c)
            assert s_coeff(n + 1, c) == (
                (-1) ** (n - c + 1) * binomial(n + 1, c)
                - s_coeff(n, c + 1)
                - s_coeff(n, c)
            )
        assert s_coeff(n + 1, 0) == -s_coeff(n, 1) - s_coeff(n, 0) + (-1) ** (n + 1)
    for n in range(21):
        for shift in (1, -1):
            direct, expanded = cross_power_expansion(n, PHI, shift)
            assert direct == expanded
            for t in (1, 2, 3):
                direct, expanded = cross_power_expansion(n, Fraction(t), shift)
                assert direct == expanded
    _report(9, "q/s recurrences vs definition and power-sum expansions, n<=20", start)


def test_criterion_10_theorems_3_to_7_audit():
    start = time.perf_counter()
    families = [F.T3, F.T4_EVEN, F.T4_ODD, F.T5, F.T6, F.T7]
    r1 = audit(families, range(17), range(3))
    r2 = audit(families, range(17), range(3))
    assert r1.to_json().encode() == r2.to_json().encode()
    assert r1.to_csv().encode() == r2.to_csv().encode()
    assert r1.entries
    readings = {(e.family, e.reading) for e in r1.entries}
    assert ("T4_EVEN", "printed") in readings
    assert ("T4_EVEN", "base-subscript") in readings
    assert ("T6", "t-to-p") in readings
    assert ("T7", "t-to-p-1") in readings
    for e in r1.entries:
        if e.verdict == "FAIL":
            assert e.lhs != "" and e.rhs != "" and e.note != ""
    n_fail = sum(1 for e in r1.entries if e.verdict == "FAIL")
    _report(
        10,
        f"deterministic audit of power 4p..4p+3 printed forms "
        f"({len(r1.entries)} cells, {n_fail} printed-form FAILs adjudicated)",
        start,
    )


def test_criterion_11_benchmark():
    start = time.perf_counter()
    n, p = 1024, 1
    oracle_value = fib_power_sum_oracle(n, 4 * p, "+")
    closed_value = closed_form_rhs(F.T2, n, p)
    assert oracle_value == closed_value

    t_oracle = min(
        _timed(lambda: fib_power_sum_oracle(n, 4 * p, "+")) for _ in range(3)
    )
    t_closed = min(_timed(lambda: closed_form_rhs(F.T2, n, p)) for _ in range(3))
    speedup = t_oracle / t_closed
    assert speedup >= 10.0, f"speedup only {speedup:.1f}x"
    _report(
        11,
        f"closed form {speedup:.0f}x faster than naive summation at n=1024",
        start,
        60.0,
    )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
