import io
import itertools
import math
import random
import time
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcorr import transforms
from ramcorr.arith_core import (EXACT, divisors_int, mobius_int, odd_part,
                                sieve_primes, tabulate)
from ramcorr.hlmodels import (_PHI2_BLOCK, MODEL_CSV_HEADER, _divisors_upto,
                              _dot, _odd_parts, _pairwise_tree, artifact,
                              artifact_identity_check, artifact_pair,
                              chebyshev_theta, model_chain,
                              model_rows_to_csv, pnt_sanity, singular_series,
                              singular_to_csv)
from ramcorr.ramanujan import ramanujan_sum, universal_period
from ramcorr.transforms import (TruncatedDivisorSum, evaluate_tds,
                                evaluate_tds_range, lambda_tds, odd_lift)
from reference_oracles import full_buffer_singular_series
from trial_division import trial_kappa, trial_von_mangoldt


def hl_correlation(N, a, table):
    """The hl column of the model row at (N, a), which ``hl`` writes."""
    return model_chain(N, [a], table)[0].hl


class TestHlCorrelation:
    def test_small_brute_force(self, table_200):
        got = hl_correlation(10, 2, table_200)
        oracle = sum(trial_von_mangoldt(n) * trial_von_mangoldt(n + 2)
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
        U = universal_period(N)
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
        # odd n and even a keep n + a odd: m63 and m64 sum the same floats
        for row in model_chain(500, [2, 4, 30, 64], table_2k):
            assert row.m63 == row.m64, row.a
            assert row.normalized is not None

    def test_odd_shift_has_no_normalized(self, table_2k):
        row = model_chain(500, [3], table_2k)[0]
        assert row.normalized is None

    def test_normalized_is_the_growth_scale(self, table_2k):
        # |hl - artifact| / ((sqrt N + a) log N log(N + a)), within the
        # envelope of 3 on a small grid of even shifts
        for N in (200, 500):
            for row in model_chain(N, [2, 4, 6], table_2k):
                a = row.a
                assert row.normalized == abs(row.residual) / (
                    (math.sqrt(N) + a) * math.log(N) * math.log(N + a))
                assert row.residual == row.hl - row.artifact
                assert row.normalized < 3.0

    def test_hand_scale_row(self, table_200):
        # N = 9, a = 2: enumerate every model from scratch
        N, a = 9, 2
        row = model_chain(N, [a], table_200)[0]
        lam = [trial_von_mangoldt(n) for n in range(N + a + 1)]
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

    def test_csv_export(self, table_200):
        rows = [model_chain(50, [a], table_200)[0] for a in (2, 3)]
        buf = io.StringIO()
        model_rows_to_csv(rows, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == MODEL_CSV_HEADER
        assert lines[1].startswith("50,2,")
        assert lines[2].endswith(",")  # odd shift: empty normalized column


# Lambda_N^odd is Lambda_N's range sweep read at the odd parts; the
# sweep of the odd-lifted table, which it replaced, is the reference

GATHER_LIMITS = [1, 2, 3, 8, 9, 10, 99, 100, 110, 100_064]


@pytest.fixture(scope="module")
def table_gather():
    return sieve_primes(max(GATHER_LIMITS))


def gather_tables(M, table):
    """Real lambda tables and exact tables, held both as an int64 store
    and as an object array, at cutoffs N <= M."""
    rng = np.random.default_rng(M)
    for N in sorted({1, max(1, M // 3), M}):
        yield lambda_tds(N, table)
        vals = rng.integers(-9, 10, N + 1)
        vals[0] = 0
        yield TruncatedDivisorSum(N, EXACT, vals)
        yield TruncatedDivisorSum(N, EXACT, vals.tolist())


@pytest.mark.parametrize("M", GATHER_LIMITS)
def test_odd_parts_are_the_scalar_rule(M):
    got = _odd_parts(M)
    assert got.tolist() == [0] + [odd_part(m) for m in range(1, M + 1)]


@pytest.mark.parametrize("M", GATHER_LIMITS)
def test_gather_is_the_odd_lifted_sweep(M, table_gather):
    for g in gather_tables(M, table_gather):
        want = evaluate_tds_range(odd_lift(g), M)
        got = evaluate_tds_range(g, M)[_odd_parts(M)]
        assert got.dtype == want.dtype
        if g.is_exact:
            assert [(type(v), v) for v in got.tolist()] == \
                [(type(v), v) for v in want.tolist()]
        else:
            assert got.tobytes() == want.tobytes(), (M, g.limit)


def test_model_chain_sweeps_once(monkeypatch, table_2k):
    calls, convolve = [], transforms._convolve

    def counted(*args):
        calls.append(args[2])  # the sweep's length M
        return convolve(*args)
    monkeypatch.setattr(transforms, "_convolve", counted)
    for N, shifts in ((9, [2]), (500, [8, 3, 8, 1]), (1000, [64, 1, 97])):
        calls.clear()
        model_chain(N, shifts, table_2k)
        assert calls == [N + max(shifts)]


@pytest.mark.parametrize("N", [2, 9, 500, 1000, 1901])
def test_rows_are_the_dots_over_the_odd_lifted_sweep(N, table_2k):
    shifts = [1, 2, 3, 8, 64, 97, 99]
    M = N + max(shifts)
    lam = table_2k.von_mangoldt_values
    lam_odd = evaluate_tds_range(odd_lift(lambda_tds(N, table_2k)), M)
    f = tabulate("odd_primes_log", N, table_2k).values
    for a, row in zip(shifts, model_chain(N, shifts, table_2k)):
        shifted = lam_odd[1 + a: N + 1 + a]
        assert row.m62 == _dot(lam[1: N + 1], shifted), a
        assert row.m63 == _dot(lam[1: N + 1: 2], shifted[::2]), a
        assert row.artifact == _dot(f[1: N + 1], shifted), a


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

    def test_ignores_prime_powers(self):
        table = sieve_primes(50_000)
        for a in (4, 8, 9, 12, 27, 99):
            k = trial_kappa(a)
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


# 2 * 100_003 has a prime divisor above every Q below; the shifts with
# a square factor pin that the divisors the series leaves out (those the
# mask mu != 0 erases) move no bit of either value; 30030, 510510 and
# 2 * 65537 bring square-free divisors d past 127 and 2**15, where d mu
# leaves int8 and int16, and 65537 reaches past the first block of q
SERIES_SHIFTS = [1, 2, 3, 4, 8, 9, 25, 36, 58, 60, 64,
                 2 * 3 * 5 * 7 * 11 * 13, 2 * 100_003, 2 ** 40,
                 4 * 9 * 25 * 49 * 121, 510_510, 2 * 65_537]


@pytest.fixture(scope="module")
def table_above():
    return sieve_primes(200_003)


class TestSingularSeriesBatch:
    # 65536 and 65537 are one block and one q past it
    @pytest.mark.parametrize("Q", [2, 97, 20_000, 65_536, 65_537, 100_000,
                                   200_000])
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

    @pytest.mark.parametrize("Q", [2, 97, 20_000, 100_000])
    def test_the_buffer_is_cleared_between_shifts(self, Q, table_above):
        # 60 after 1, after the shift with a divisor above Q, and last
        shifts = [60, 1, 60, 2 * 100_003, 60]
        for table in (sieve_primes(Q), table_above):
            got = singular_series(shifts, Q, table)
            assert got[0] == got[2] == got[4]
            for s in got:
                want = per_shift_singular_series(s.a, Q, table)
                assert (s.truncated_sum, s.euler_product) == want, (s.a, Q)

    def test_working_set_is_one_q_length_buffer(self):
        # the terms, the d mu products, the mask mu phi != 0 and phi^2
        # are formed one leaf at a time; at this Q a leaf is a quarter of Q
        Q = 200_000
        table = sieve_primes(Q)
        table.mu_phi_values  # built beforehand
        tracemalloc.start()
        try:
            singular_series([1, 2, 60, 30030], Q, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * (Q + 1)

    def test_working_set_at_two_million(self):
        # every temporary is one leaf of q long (at most 2**16), and the
        # rest is the Euler product's two arrays over the 148,933 primes,
        # (p - 1)^2 and the factors, built in place: 0.17 buffers
        # (CPython 3.11, numpy 2.4).  Five such arrays per shift took
        # 0.31, a Q-length float64 buffer 1.32, and a Q-length d mu
        # product (8 MB at d = 2) would pass 0.45
        Q = 2_000_000
        table = sieve_primes(Q)
        table.mu_phi_values  # built beforehand
        tracemalloc.start()
        try:
            singular_series([1, 2, 60, 30030], Q, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * 8 * (Q + 1)

    @pytest.mark.parametrize("a", [2 ** 40, 2 ** 61 - 1, 2 ** 64 + 1])
    def test_working_set_at_a_large_shift(self, a):
        # a is reduced modulo one block of primes at a time (by a product
        # tree past 2**62): 0.16 to 0.18 buffers, as at a small shift; a
        # list of all 148,933 primes <= 2e6 took the peak 0.14 buffers
        # higher
        Q = 2_000_000
        table = sieve_primes(Q)
        table.mu_phi_values  # built beforehand
        tracemalloc.start()
        try:
            singular_series([a], Q, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * 8 * (Q + 1)

    def test_rejects_bad_arguments(self, table_2k):
        assert singular_series([], 2000, table_2k) == []
        for a_list, Q in (([2, 0], 2000), ([2], 1)):
            with pytest.raises(ValueError, match="need a >= 1 and Q >= 2"):
                singular_series(a_list, Q, table_2k)
        with pytest.raises(ValueError, match="below required 2001"):
            singular_series([2], 2001, table_2k)


# ----------------------------------------------------------------------
# the series streamed through numpy's pairwise tree
# ----------------------------------------------------------------------

# numpy's leaf edges (8 and 128 terms), one leaf of q and one q past it,
# and two to four leaves, split at multiples of 8
TREE_LENGTHS = [1, 2, 7, 8, 9, 127, 128, 129, 2 ** 16, 2 ** 16 + 1,
                2 ** 16 + 8, 2 ** 17, 2 ** 17 + 1, 2 ** 17 + 15,
                3 * 2 ** 16 + 5, 4 * 2 ** 16, 4 * 2 ** 16 + 1,
                4 * 2 ** 16 + 17]


@st.composite
def tree_terms(draw):
    """A float64 array of 1 to past 4 * 2**16 terms of mixed magnitudes,
    with runs of +-0.0 and of c/inf (the series' terms off the
    square-free q), or all of them signed zeros."""
    n = draw(st.one_of(st.sampled_from(TREE_LENGTHS),
                       st.integers(1, 4 * 2 ** 16 + 100)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
    zeros = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    x[zeros] = np.copysign(0.0, rng.standard_normal(int(zeros.sum())))
    off = rng.random(n) < draw(st.sampled_from([0.0, 0.3]))
    x[off] = np.round(x[off] * 1e3) / np.inf
    return x


@given(x=tree_terms())
@settings(max_examples=60, deadline=None)
def test_tree_leaf_sums_are_np_sum_to_the_bit(x):
    leaves = []

    def leaf(lo, hi):
        leaves.append((lo, hi))
        return np.add.reduce(x[lo: hi])
    got = _pairwise_tree(0, len(x), leaf)
    assert float(got).hex() == float(np.sum(x)).hex()
    assert leaves[0][0] == 0 and leaves[-1][1] == len(x)
    assert all(hi == lo for (_, hi), (lo, _) in zip(leaves, leaves[1:]))
    assert all(hi - lo <= _PHI2_BLOCK for lo, hi in leaves)


@pytest.fixture(scope="module")
def table_300k():
    return sieve_primes(300_000)


ORACLE_SHIFTS = [1, 2, 30030, 2 ** 61 - 1, 2 ** 64 + 1]


@pytest.mark.parametrize("Q", [2, 3, 2 ** 16, 2 ** 16 + 1, 2 ** 17 + 1,
                               3 * 2 ** 16 + 5,
                               *random.Random(33).sample(range(4, 300_001),
                                                         4)])
def test_series_is_the_full_buffer_sum_to_the_bit(Q, table_300k):
    for table in (sieve_primes(Q), table_300k):
        got = singular_series(ORACLE_SHIFTS, Q, table)
        want = full_buffer_singular_series(ORACLE_SHIFTS, Q, table)
        assert [s.a for s in got] == ORACLE_SHIFTS
        for s, (truncated, euler) in zip(got, want):
            assert s.truncated_sum.hex() == truncated.hex(), (s.a, Q)
            assert s.euler_product.hex() == euler.hex(), (s.a, Q)


@pytest.mark.parametrize("Q", [2, 3, 30, 97, 1000])
def test_divisors_upto_are_the_divisors_cut_at_q(Q, table_2k):
    # the square-free ones: no other divisor reaches a term of the series
    primes = table_2k.primes[table_2k.primes <= Q]
    for a in list(range(1, 2100)) + [2 ** 40, 3 ** 20 * 7, 2 * 100_003]:
        divisors, divides = _divisors_upto(a, Q, primes)
        assert divisors[0] == 1
        assert sorted(divisors) == [d for d in divisors_int(a)
                                    if d <= Q and mobius_int(d)]
        assert divides.tolist() == [a % p == 0 for p in primes.tolist()]


@pytest.mark.parametrize("Q", [2, 3, 30, 97, 1000])
def test_divisors_upto_past_2_to_the_62(Q, table_2k):
    # a is reduced down a product tree of the primes; these shifts are
    # slow to factor, so the divisors are the products <= Q of subsets
    # of the primes p <= Q with p | a
    primes = table_2k.primes[table_2k.primes <= Q]
    for a in (2 ** 62 - 1, 2 ** 62, 2 ** 62 + 1, 2 ** 64 + 1,
              3 ** 200 * 10, 510510 * (2 ** 70 + 1),
              universal_period(60) + 1):
        divisors, divides = _divisors_upto(a, Q, primes)
        mask = [a % p == 0 for p in primes.tolist()]
        assert divides.tolist() == mask
        ps = primes[mask].tolist()
        products = [math.prod(c) for k in range(len(ps) + 1)
                    for c in itertools.combinations(ps, k)]
        assert divisors[0] == 1
        assert sorted(divisors) == sorted(d for d in products if d <= Q)


# past int64 (2**63, U + 1 at N = 60), or slow to factor (2 (2**61 - 1))
LARGE_SHIFTS = [2 ** 63, 2 * (2 ** 61 - 1), universal_period(60) + 1]


@pytest.mark.parametrize("a", LARGE_SHIFTS)
def test_large_shift_is_read_modulo_the_primes(a, table_2k):
    Q = 1000
    start = time.perf_counter()
    s = singular_series([a], Q, table_2k)[0]
    assert time.perf_counter() - start < 1.0
    # the same exact c_q(a) from the divisor form of each q, in the same
    # term array and the same sum
    mu = table_2k.mobius_values[1: Q + 1]
    phi2 = table_2k.phi_values[1: Q + 1].astype(np.float64) ** 2
    c = np.array([float(ramanujan_sum(q, a)) for q in range(1, Q + 1)])
    assert s.truncated_sum == float(np.sum((mu * mu) * c / phi2))
    factors = [1.0 + (p - 1.0 if a % p == 0 else -1.0) / (p - 1.0) ** 2
               for p in table_2k.primes[table_2k.primes <= Q].tolist()]
    assert s.euler_product == float(np.prod(np.array(factors)))


class TestThetaAndPnt:
    def test_theta_nine(self, table_200):
        expect = sum(math.log(p) for p in (2, 3, 5, 7))
        assert chebyshev_theta(9, table_200) == pytest.approx(expect, abs=1e-12)
        assert 2 * universal_period(9) == 210
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
