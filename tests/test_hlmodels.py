import io
import math
from dataclasses import astuple

import numpy as np
import pytest

from ramcorr.arith_core import divisors_int, kappa, sieve_primes
from ramcorr.hlmodels import (MODEL_CSV_HEADER, artifact,
                              artifact_identity_check, artifact_pair,
                              chebyshev_theta, error_bound_check,
                              hl_correlation, model_chain, model_rows_to_csv,
                              pnt_sanity, singular_series, singular_to_csv)
from ramcorr.ramanujan import universal_period
from ramcorr.transforms import evaluate_tds, lambda_tds


def spf_von_mangoldt(n):
    if n < 2:
        return 0.0
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            return math.log(p) if m == 1 else 0.0
        p += 1
    return math.log(n)


class TestHlCorrelation:
    def test_small_brute_force(self, table_200):
        got = hl_correlation(10, 2, table_200)
        oracle = sum(spf_von_mangoldt(n) * spf_von_mangoldt(n + 2)
                     for n in range(1, 11))
        assert got == pytest.approx(oracle, abs=1e-12)
        # prime-power pairs (2,4) and (7,9) belong to the sum too
        by_hand = (math.log(2) ** 2
                   + math.log(3) * math.log(5)
                   + math.log(5) * math.log(7)
                   + math.log(7) * math.log(3)
                   + math.log(3) * math.log(11))
        assert got == pytest.approx(by_hand, abs=1e-12)

    def test_no_pairs_gives_zero(self, table_200):
        # N = 2: only n = 2 has Lambda > 0, and 2 + 49 = 51 = 3*17
        assert hl_correlation(2, 49, table_200) == 0.0

    def test_insufficient_sieve(self, table_200):
        with pytest.raises(ValueError):
            hl_correlation(150, 100, table_200)


class TestArtifact:
    def test_hand_expansion_at_nine(self, table_200):
        got = artifact(9, 2, table_200)
        lam9 = lambda_tds(9, table_200)
        oracle = (math.log(3) * evaluate_tds(lam9, 5)
                  + math.log(5) * evaluate_tds(lam9, 7)
                  + math.log(7) * evaluate_tds(lam9, 9))
        assert got == pytest.approx(oracle, abs=1e-12)
        by_hand = (math.log(3) * math.log(5) + math.log(5) * math.log(7)
                   + math.log(7) * math.log(3))
        assert got == pytest.approx(by_hand, abs=1e-12)

    def test_even_shift_equals_unlifted(self, table_2k):
        # even shift keeps p + a odd, so the odd-lift is inactive
        from ramcorr.correlations import correlate_direct
        N = 200
        f, g = artifact_pair(N, table_2k)
        plain = lambda_tds(N, table_2k)
        for a in (2, 4, 10, 36):
            assert artifact(N, a, table_2k) == pytest.approx(
                correlate_direct(f, plain, N, a), abs=1e-9)

    def test_huge_shift_identity(self, table_200):
        N = 9
        U = universal_period(N).value
        assert artifact(N, U + 1, table_200) == pytest.approx(
            artifact(N, 1, table_200), abs=1e-9)

    def test_batch_matches_scalar(self, table_2k):
        N = 150
        shifts = [1, 2, 3, 7, 10, 49]
        batch = [r.artifact for r in model_chain(N, shifts, table_2k)]
        for a, v in zip(shifts, batch):
            assert v == pytest.approx(artifact(N, a, table_2k), abs=1e-9)


class TestArtifactIdentity:
    @pytest.mark.parametrize("a", [2, 3, 4, 9, 40, 97, 100])
    def test_closed_forms(self, a, table_2k):
        assert artifact_identity_check(100, a, table_2k)

    def test_empty_sum_case(self, table_200):
        # N = 4: the only odd prime is 3
        assert artifact_identity_check(4, 2, table_200)


class TestModelChain:
    def test_even_shift_identity_asserted(self, table_2k):
        row = model_chain(500, [2], table_2k)[0]
        assert row.m63 == pytest.approx(row.m64, abs=1e-12)
        assert row.normalized is not None

    def test_odd_shift_has_no_normalized(self, table_2k):
        row = model_chain(500, [3], table_2k)[0]
        assert row.normalized is None

    def test_hand_scale_row(self, table_200):
        # N = 9, a = 2: enumerate every model from scratch
        N, a = 9, 2
        row = model_chain(N, [a], table_200)[0]
        lam = [spf_von_mangoldt(n) for n in range(N + a + 1)]
        lam_n = lambda_tds(N, table_200)
        lam_n_odd = [0.0] + [evaluate_tds(lam_n, m) if m % 2
                             else evaluate_tds(lam_n, m >> (m & -m).bit_length() - 1)
                             for m in range(1, N + a + 1)]
        hl = sum(lam[n] * lam[n + a] for n in range(1, N + 1))
        m61 = sum(lam[n] * evaluate_tds(lam_n, n + a) for n in range(1, N + 1))
        m63 = sum(lam[n] * lam_n_odd[n + a] for n in range(1, N + 1, 2))
        art = sum(math.log(p) * lam_n_odd[p + a] for p in (3, 5, 7))
        assert row.hl == pytest.approx(hl, abs=1e-9)
        assert row.m61 == pytest.approx(m61, abs=1e-9)
        assert row.m63 == pytest.approx(m63, abs=1e-9)
        assert row.artifact == pytest.approx(art, abs=1e-9)
        assert row.residual == pytest.approx(row.hl - row.artifact, abs=1e-12)

    def test_rows_follow_the_shift_list(self, table_2k):
        # order kept, repeats kept, each row bitwise its shift's own row
        for N, shifts in ((9, [2]), (500, [8, 3, 8, 1]),
                          (1000, [64, 1, 2, 7, 2, 41])):
            rows = model_chain(N, shifts, table_2k)
            assert [(r.n, r.a) for r in rows] == [(N, a) for a in shifts]
            for a, row in zip(shifts, rows):
                alone = model_chain(N, [a], table_2k)[0]
                assert list(map(repr, astuple(row))) == \
                    list(map(repr, astuple(alone))), (N, a)
        assert model_chain(500, [], table_2k) == []

    @pytest.mark.parametrize("N", [1, 0, -3])
    def test_length_below_two_is_refused(self, N, table_200):
        # the normalization divides by log N, which is 0 at N = 1
        with pytest.raises(ValueError, match="need a length N >= 2"):
            model_chain(N, [2], table_200)
        with pytest.raises(ValueError, match="need a length N >= 2"):
            error_bound_check([N], [2], table_200)

    def test_csv_export(self, table_200):
        rows = [model_chain(50, [a], table_200)[0] for a in (2, 3)]
        buf = io.StringIO()
        model_rows_to_csv(rows, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == MODEL_CSV_HEADER
        assert lines[1].startswith("50,2,")
        assert lines[2].endswith(",")  # odd shift: empty normalized column


class TestSingularSeries:
    def test_twin_constant(self):
        s = singular_series([2], Q=100_000)[0]
        assert s.truncated_sum == pytest.approx(1.3203236, abs=2e-3)
        assert s.euler_product == pytest.approx(1.3203236, abs=2e-3)
        assert abs(s.truncated_sum - s.euler_product) <= 0.01

    def test_odd_shift_vanishes(self):
        for a in (1, 3, 7, 99):
            s = singular_series([a], Q=50_000)[0]
            assert abs(s.truncated_sum) <= 0.01
            assert s.euler_product == 0.0  # factor at p = 2 is exactly zero

    def test_ignores_prime_powers(self, table_200):
        table = sieve_primes(50_000)
        for a in (4, 8, 9, 12, 27, 99):
            k = kappa(a, table_200)
            sa = singular_series([a], Q=50_000, table=table)[0]
            sk = singular_series([k], Q=50_000, table=table)[0]
            assert sa.truncated_sum == pytest.approx(sk.truncated_sum,
                                                     abs=1e-9)

    def test_csv_export(self):
        s = singular_series([2], Q=1000)[0]
        buf = io.StringIO()
        singular_to_csv([s], buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "a,truncated,euler_product,Q"
        assert lines[1].startswith("2,")


def per_shift_singular_series(a, Q, table):
    """The per-shift body the batch replaced: mu, mu^2 and phi^2 rebuilt
    for every shift."""
    mu = table.mobius_values[: Q + 1]
    phi = table.phi_values[: Q + 1].astype(np.float64)
    c = np.zeros(Q + 1, dtype=np.float64)
    for d in divisors_int(a):
        if d <= Q:
            c[d::d] += d * mu[1: Q // d + 1].astype(np.float64)
    sq = (mu[1:] * mu[1:]).astype(np.float64)
    truncated = float(np.sum(sq * c[1:] / phi[1:] ** 2))
    p = table.primes[table.primes <= Q].astype(np.float64)
    cp = np.where(np.mod(a, table.primes[table.primes <= Q]) == 0,
                  p - 1.0, -1.0)
    euler = float(np.prod(1.0 + cp / (p - 1.0) ** 2))
    return truncated, euler


# 2 * 100_003 has a prime divisor above every Q below
SERIES_SHIFTS = [1, 2, 3, 25, 58, 60, 64, 2 * 3 * 5 * 7 * 11 * 13,
                 2 * 100_003]


@pytest.fixture(scope="module")
def table_above():
    return sieve_primes(200_003)


class TestSingularSeriesBatch:
    @pytest.mark.parametrize("Q", [2, 97, 20_000, 100_000])
    def test_bitwise_the_per_shift_body(self, Q, table_above):
        for table in (sieve_primes(Q), table_above):
            got = singular_series(SERIES_SHIFTS, Q, table)
            assert [s.a for s in got] == SERIES_SHIFTS
            for s in got:
                truncated, euler = per_shift_singular_series(s.a, Q, table)
                assert s.truncation_q == Q
                assert s.truncated_sum == truncated, (s.a, Q, table.limit)
                assert s.euler_product == euler, (s.a, Q, table.limit)

    def test_single_shift_is_the_batch(self, table_2k):
        shifts = [2, 3, 30]
        batch = singular_series(shifts, 2000, table_2k)
        for a, s in zip(shifts, batch):
            assert singular_series([a], 2000, table_2k)[0] == s

    def test_rejects_bad_arguments(self, table_2k):
        assert singular_series([], 2000, table_2k) == []
        for a_list, Q in (([2, 0], 2000), ([2], 1)):
            with pytest.raises(ValueError, match="need a >= 1 and Q >= 2"):
                singular_series(a_list, Q, table_2k)
        with pytest.raises(ValueError, match="below required 2001"):
            singular_series([2], 2001, table_2k)


class TestErrorBound:
    def test_small_grid(self, table_2k):
        rows, worst = error_bound_check([200, 500], [2, 4, 6], table_2k)
        assert len(rows) == 6
        assert worst < 3.0
        for N, a, res, norm in rows:
            assert norm == res / ((math.sqrt(N) + a)
                                  * math.log(N) * math.log(N + a))

    def test_rejects_odd_shifts(self, table_2k):
        with pytest.raises(ValueError):
            error_bound_check([100], [3], table_2k)

    def test_rejects_empty(self, table_2k):
        with pytest.raises(ValueError):
            error_bound_check([], [2], table_2k)


class TestThetaAndPnt:
    def test_theta_nine(self, table_200):
        expect = sum(math.log(p) for p in (2, 3, 5, 7))
        assert chebyshev_theta(9, table_200) == pytest.approx(expect, abs=1e-12)
        assert 2 * universal_period(9).value == 210
        assert math.exp(chebyshev_theta(9, table_200)) == pytest.approx(210)

    def test_pnt_band(self):
        table = sieve_primes(100_000)
        theta = chebyshev_theta(100_000, table)
        assert 0.95 <= theta / 100_000 <= 1.05
        assert pnt_sanity(100_000, table)

    def test_edge_n_two(self, table_200):
        # empty odd-prime product: U = 1, and 2*1 = e^(log 2)
        assert pnt_sanity(2, table_200)

    def test_identity_range(self, table_200):
        for N in range(2, 101):
            assert pnt_sanity(N, table_200)
