"""Acceptance gate: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one line per
criterion (add ``-s`` to see the explicit PASS prints).
"""

import math
import random
import time

import numpy as np
import pytest

from ramcorr.arith_core import (EXACT, TabulatedFunction, kappa,
                                mobius_int, sieve_primes, tabulate)
from ramcorr.correlations import correlate_direct, truncation_difference
from ramcorr.hlmodels import (artifact_identity_check, artifact_pair,
                              hl_correlation, model_chain, singular_series)
from ramcorr.ramanujan import (half_range_identity_check, lucht_invert,
                               ramanujan_expand, ramanujan_expand_range,
                               ramanujan_sum_table, support_closure_check,
                               universal_period, wintner_coefficients,
                               wintner_period)
from ramcorr.transforms import (eratosthenes_transform, evaluate_tds,
                                evaluate_tds_range, lambda_tds, tds_from_et,
                                truncate)
from ramcorr.twoseasons import (combinatorial_identity_check,
                                diophantine_count_even, diophantine_count_odd,
                                random_ts_instance)

SEED = 0x5EED


def report(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def random_exact_tds(rng, d_max=100):
    D = rng.randint(2, d_max)
    et = [0] * (D + 1)
    for d in rng.sample(range(1, D + 1), min(rng.randint(4, 12), D)):
        et[d] = rng.choice([v for v in range(-9, 10) if v])
    return tds_from_et(et, D, EXACT)


@pytest.fixture(scope="module")
def table_100k():
    return sieve_primes(100_100)


def test_c01_ramanujan_orthogonality():
    """sum over q | d of c_q(a) = d * [d | a], d <= 200, a <= 1000, exact."""
    start = time.perf_counter()
    tables = {q: ramanujan_sum_table(q) for q in range(1, 201)}
    divisors = {d: [q for q in range(1, d + 1) if d % q == 0]
                for d in range(1, 201)}
    for d in range(1, 201):
        divs = divisors[d]
        for a in range(1, 1001):
            total = sum(tables[q][a % q] for q in divs)
            assert total == (d if a % d == 0 else 0), (d, a)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    report(1, "ramanujan orthogonality")


def test_c02_fixed_length_expansion():
    """Expansion equals the divisor sum: 100 random exact tables plus
    truncated von Mangoldt, all a <= 10^4 and 20 big shifts each."""
    start = time.perf_counter()
    rng = random.Random(SEED)
    a_max = 10 ** 4
    for _ in range(100):
        g = random_exact_tds(rng)
        coeffs = wintner_coefficients(g)
        got = ramanujan_expand_range(coeffs, a_max)
        want = evaluate_tds_range(g, a_max)
        assert got[1:] == want[1:].tolist()
        for _ in range(20):
            a = rng.randint(10 ** 15, 10 ** 30)
            assert ramanujan_expand(coeffs, a) == evaluate_tds(g, a)
    for N in (10, 50, 100):
        g = lambda_tds(N)
        coeffs = wintner_coefficients(g)
        got = np.asarray(ramanujan_expand_range(coeffs, a_max))
        want = np.asarray(evaluate_tds_range(g, a_max))
        assert np.max(np.abs(got[1:] - want[1:])) <= 1e-9
        for _ in range(20):
            a = rng.randint(10 ** 15, 10 ** 30)
            assert abs(ramanujan_expand(coeffs, a)
                       - evaluate_tds(g, a)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    report(2, "fixed-length expansion")


def test_c03_lucht_round_trip():
    """g' recovered entrywise from the coefficient table."""
    rng = random.Random(SEED)
    for _ in range(100):
        g = random_exact_tds(rng)
        back = lucht_invert(wintner_coefficients(g))
        assert list(back.values) == list(g.values)
    for N in (10, 50, 100):
        g = lambda_tds(N)
        back = lucht_invert(wintner_coefficients(g))
        assert np.max(np.abs(back.values - g.values)) <= 1e-9
    report(3, "lucht round trip")


def test_c04_support_closure():
    """supp(g') and supp(ghat) enter divisor-closed sets together."""
    rng = random.Random(SEED)
    for i in range(100):
        g = random_exact_tds(rng)
        bound = max(1, g.limit // 2)
        for pred in (lambda d: d <= bound,
                     lambda d: mobius_int(d) != 0,
                     lambda d: d % 2 == 1):
            et_in, hat_in = support_closure_check(g, pred)
            assert et_in == hat_in, (i, g.limit)
    report(4, "support closure")


def test_c05_half_range_identity():
    """ghat(q) = g'(q)/q on the top half of the cutoff range."""
    rng = random.Random(SEED)
    lam_200 = tabulate("lambda", 200)
    for N in range(10, 201):
        assert half_range_identity_check(lam_200, N), N
    for N in range(10, 201, 10):
        vals = [0] + [rng.randint(-9, 9) for _ in range(N)]
        F = TabulatedFunction(N, EXACT, vals)
        assert half_range_identity_check(F, N), N
    report(5, "half-range coefficient identity")


def test_c06_exact_truncation_differences():
    """Tail formula equals the correlation gap; one- and two-shift
    closed forms; 200 random instances, exact."""
    rng = random.Random(SEED)
    for i in range(200):
        N = rng.randint(3, 200)
        a = rng.randint(1, N)
        reach = N + max(a, 2)  # the two-shift closed form reads N+2
        f = TabulatedFunction(
            N, EXACT, [0] + [rng.randint(-6, 6) for _ in range(N)])
        g = TabulatedFunction(
            reach, EXACT, [0] + [rng.randint(-6, 6) for _ in range(reach)])
        g_n = truncate(g, N)
        gap = (correlate_direct(f, g, N, a)
               - correlate_direct(f, g_n, N, a))
        tail = truncation_difference(f, g, N, a)
        assert tail == gap, i
        et = eratosthenes_transform(g)
        assert truncation_difference(f, g, N, 1) == et[N + 1] * f[N]
        if N > 1:
            assert (truncation_difference(f, g, N, 2)
                    == et[N + 1] * f[N - 1] + et[N + 2] * f[N])
    report(6, "exact truncation differences")


def test_c07_huge_shift_identities():
    """C(N,1) = C(N,U+1) and C(N,2) = C(N,U+2) for the artifact and for
    20 random five-axiom instances."""
    start = time.perf_counter()
    rng = random.Random(SEED)
    assert universal_period(9).value == 105
    lengths = (9, 10, 15, 16, 21, 22)
    for N in lengths:
        f, g = artifact_pair(N)
        eq1, eq2 = combinatorial_identity_check(f, g, N)
        assert eq1 and eq2, N
    for i in range(20):
        N = lengths[i % len(lengths)]
        f, g = random_ts_instance(N, rng)
        eq1, eq2 = combinatorial_identity_check(f, g, N)
        assert eq1 and eq2, (i, N)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    report(7, "huge-shift combinatorial identities")


def test_c08_diophantine_entanglement(table_100k):
    """Parity-split counts equal the direct correlation; closed parity
    forms of the artifact hold after exact tail correction."""
    rng = random.Random(SEED)
    for i in range(25):
        N = rng.randint(50, 1000)
        a = rng.randint(1, 50)
        universe = range(1, N + a + 1)
        F = {n for n in universe if rng.random() < 0.4}
        G = {n for n in universe if rng.random() < 0.4}
        fvals = [1 if (n % 2 and n in F) else 0 for n in range(N + 1)]
        f = TabulatedFunction(N, EXACT, fvals)
        gvals = [0] * (N + a + 1)
        for m in range(1, N + a + 1):
            mo = m
            while mo % 2 == 0:
                mo //= 2
            gvals[m] = 1 if mo in G else 0
        g = TabulatedFunction(N + a, EXACT, gvals)
        direct = correlate_direct(f, g, N, a)
        if a % 2 == 0:
            assert diophantine_count_even(F, G, N, a) == direct, i
        else:
            assert diophantine_count_odd(F, G, N, a) == direct, i
    for N in (9, 100, 1000):
        for a in range(1, 101):
            assert artifact_identity_check(N, a, table_100k), (N, a)
    report(8, "diophantine entanglement")


def test_c09_growth_envelope(table_100k):
    """|hl - artifact| within 3 normalized units over the grid."""
    start = time.perf_counter()
    shifts = list(range(2, 101, 2))
    worst = 0.0
    for N in (10 ** 3, 10 ** 4, 10 ** 5):
        rows = model_chain(N, shifts, table_100k)
        for a, art in zip(shifts, (r.artifact for r in rows)):
            hl = hl_correlation(N, a, table_100k)
            norm = abs(hl - art) / ((math.sqrt(N) + a)
                                    * math.log(N) * math.log(N + a))
            worst = max(worst, norm)
            assert norm <= 3.0, (N, a, norm)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"
    report(9, f"growth envelope (max normalized residual {worst:.3f})")


def test_c10_singular_series(table_100k):
    """Truncated sum vs Euler product within 0.01; prime powers ignored;
    odd shifts vanish."""
    for a in (2, 4, 6, 12, 30):
        s = singular_series([a], Q=100_000, table=table_100k)[0]
        assert abs(s.truncated_sum - s.euler_product) <= 0.01, a
    for a in range(1, 101):
        sa = singular_series([a], Q=100_000, table=table_100k)[0]
        sk = singular_series([kappa(a, table_100k)], Q=100_000,
                             table=table_100k)[0]
        assert abs(sa.truncated_sum - sk.truncated_sum) <= 1e-9, a
        if a % 2:
            assert abs(sa.truncated_sum) <= 0.01, a
    report(10, "singular series")


def test_c11_hardy_littlewood_ratio():
    """C(10^6, a) / (S(a) 10^6) inside [0.9, 1.1] for a in {2, 4, 6}."""
    start = time.perf_counter()
    table = sieve_primes(10 ** 6 + 6)
    for a in (2, 4, 6):
        s = singular_series([a], Q=100_000)[0]
        ratio = hl_correlation(10 ** 6, a, table) / (s.euler_product * 10 ** 6)
        assert 0.9 <= ratio <= 1.1, (a, ratio)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(11, "hardy-littlewood ratio")


def test_c12_periodicity():
    """Huge-period invariance of correlations and of the divisor sum
    itself, over 50 random odd-square-free instances."""
    rng = random.Random(SEED)
    for i in range(50):
        N = rng.randint(9, 60)
        pool = [d for d in range(1, N + 1, 2) if mobius_int(d)]
        et = {d: rng.randint(1, 6)
              for d in rng.sample(pool, min(6, len(pool)))}
        g = tds_from_et(et, N, EXACT)
        f = TabulatedFunction(
            N, EXACT, [0] + [rng.randint(-5, 5) for _ in range(N)])
        U = universal_period(N).value
        W = wintner_period(g, N).value
        assert U % W == 0, i
        for a in rng.sample(range(1, 30), 5):
            lhs = correlate_direct(f, g, N, a)
            assert lhs == correlate_direct(f, g, N, a + U), (i, a)
            assert lhs == correlate_direct(f, g, N, a + W), (i, a)
        for m in rng.sample(range(1, 1001), 10):
            assert evaluate_tds(g, m) == evaluate_tds(g, m + W), (i, m)
    report(12, "periodicity")
