import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcorr import arith_core
from ramcorr.arith_core import (COEFF_TOL, EXACT, REAL, REAL_TOL,
                                TabulatedFunction, agree, collapse,
                                divisors_int, euler_phi, factorize,
                                is_prime_int, kappa, mobius, mobius_int,
                                odd_part, sieve_primes, smooth_sifted_split,
                                tabulate, tolerance, v2, von_mangoldt)
from ramcorr.correlations import correlate_direct
from ramcorr.hlmodels import artifact_pair, singular_series
from ramcorr.transforms import dirichlet_convolve, lambda_tds


def trial_division_is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class TestSieve:
    def test_small_primes(self):
        t = sieve_primes(10)
        assert [int(p) for p in t.primes] == [2, 3, 5, 7]
        assert not t.is_prime[1]

    def test_minimum_limit(self):
        t = sieve_primes(2)
        assert [int(p) for p in t.primes] == [2]

    @pytest.mark.parametrize("bad", [0, 1, -5])
    def test_rejects_tiny_limits(self, bad):
        with pytest.raises(ValueError):
            sieve_primes(bad)

    def test_against_trial_division(self, table_2k):
        for n in range(2, 2001):
            assert bool(table_2k.is_prime[n]) == trial_division_is_prime(n)

    def test_spf_divides_and_is_prime(self, table_2k):
        spf = table_2k.smallest_prime_factor
        for n in range(2, 2001):
            p = int(spf[n])
            assert n % p == 0
            assert trial_division_is_prime(p)

    # library entry points that sieve for themselves when given no table
    SIEVING = {
        "tabulate": lambda M, table=None: tabulate("mobius", M, table),
        "lambda_tds": lambda M, table=None: lambda_tds(M, table),
        "artifact_pair": lambda M, table=None: artifact_pair(M, table),
        "singular_series": lambda M, table=None: singular_series([2], M,
                                                                 table),
    }

    @pytest.mark.parametrize("entry", sorted(SIEVING))
    def test_entry_points_refuse_a_sieve_above_the_cap(self, entry):
        # a 10**12 sieve would allocate terabytes; the refusal comes first
        with pytest.raises(ValueError, match="exceeds SIEVE_CAP"):
            self.SIEVING[entry](10 ** 12)

    @pytest.mark.parametrize("entry", sorted(SIEVING))
    def test_a_passed_table_may_exceed_the_cap(self, entry, monkeypatch,
                                               table_200):
        monkeypatch.setattr(arith_core, "SIEVE_CAP", 100)
        call = self.SIEVING[entry]
        call(100)
        call(150, table_200)
        with pytest.raises(ValueError, match="150 exceeds SIEVE_CAP = 100"):
            call(150)

    @pytest.mark.parametrize("name", ["unit", "identity", "odd", "squares"])
    def test_table_free_names_refuse_above_the_cap(self, name, monkeypatch,
                                                   table_200):
        # these need no sieve, but would still allocate M + 1 slots
        with pytest.raises(ValueError, match="exceeds SIEVE_CAP"):
            tabulate(name, 10 ** 12)
        monkeypatch.setattr(arith_core, "SIEVE_CAP", 100)
        assert tabulate(name, 150, table_200).limit == 150
        with pytest.raises(ValueError, match="150 exceeds SIEVE_CAP = 100"):
            tabulate(name, 150)

    def test_prime_count_at_one_million(self):
        # 78498 cross-checked once by an independent trial-division count
        t = sieve_primes(10 ** 6)
        assert len(t.primes) == 78498


class TestPointwiseFunctions:
    def test_mobius_values(self, table_200):
        assert mobius(1, table_200) == 1
        assert mobius(12, table_200) == 0
        assert mobius(6, table_200) == 1
        assert mobius(30, table_200) == -1

    def test_mobius_fundamental_identity(self, table_20k):
        # sum of mu(d) over d | n vanishes except at n = 1, exactly
        M = 10 ** 4
        mu = table_20k.mobius_values
        acc = [0] * (M + 1)
        for d in range(1, M + 1):
            v = int(mu[d])
            if v:
                for m in range(d, M + 1, d):
                    acc[m] += v
        assert acc[1] == 1
        assert all(acc[n] == 0 for n in range(2, M + 1))

    def test_mobius_rejects_out_of_range(self, table_200):
        with pytest.raises(ValueError):
            mobius(0, table_200)
        with pytest.raises(ValueError):
            mobius(201, table_200)

    def test_phi_small(self, table_200):
        assert euler_phi(1, table_200) == 1
        assert euler_phi(9, table_200) == 6

    def test_phi_against_gcd_count(self, table_200):
        count = sum(1 for j in range(1, 106) if gcd(j, 105) == 1)
        assert euler_phi(105, table_200) == count == 48

    def test_phi_table_matches_pointwise(self, table_2k):
        phi = table_2k.phi_values
        for n in range(1, 500):
            assert int(phi[n]) == euler_phi(n, table_2k)

    def test_von_mangoldt(self, table_200):
        assert von_mangoldt(8, table_200) == pytest.approx(math.log(2))
        assert von_mangoldt(1, table_200) == 0.0
        assert von_mangoldt(6, table_200) == 0.0

    def test_von_mangoldt_positive_iff_prime_power(self, table_2k):
        for n in range(1, 2001):
            fac = factorize(n, table_2k)
            expect_positive = len(fac) == 1
            assert (von_mangoldt(n, table_2k) > 0) == expect_positive
            assert table_2k.von_mangoldt_values[n] == pytest.approx(
                von_mangoldt(n, table_2k))

    def test_kappa(self, table_200):
        assert kappa(1, table_200) == 1
        assert kappa(12, table_200) == 6
        assert kappa(49, table_200) == 7

    def test_kappa_divides_and_squarefree(self, table_20k):
        for n in range(1, 10 ** 4 + 1):
            k = kappa(n, table_20k)
            assert n % k == 0
            assert mobius(k, table_20k) != 0


class TestTwoAdicSplit:
    def test_examples(self):
        assert (odd_part(40), v2(40)) == (5, 3)
        assert (odd_part(7), v2(7)) == (7, 0)
        assert (odd_part(2 ** 20), v2(2 ** 20)) == (1, 20)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            v2(0)
        with pytest.raises(ValueError):
            odd_part(0)

    @given(st.integers(min_value=1, max_value=10 ** 40))
    @settings(max_examples=200)
    def test_reconstruction(self, n):
        assert odd_part(n) * 2 ** v2(n) == n
        assert odd_part(n) % 2 == 1

    def test_huge_input(self):
        n = 3 ** 50 * 2 ** 137
        assert v2(n) == 137
        assert odd_part(n) == 3 ** 50


class TestSmoothSiftedSplit:
    def test_examples(self, table_200):
        assert smooth_sifted_split(40, 2, table_200) == (8, 5)
        assert smooth_sifted_split(1, 5, table_200) == (1, 1)
        assert smooth_sifted_split(90, 3, table_200) == (18, 5)

    def test_rejects_composite_p(self, table_200):
        with pytest.raises(ValueError):
            smooth_sifted_split(40, 4, table_200)

    def test_split_properties(self, table_2k):
        for n in range(1, 300):
            s, r = smooth_sifted_split(n, 5, table_2k)
            assert s * r == n
            assert all(p <= 5 for p, _ in factorize(s, table_2k))
            assert all(p > 5 for p, _ in factorize(r, table_2k))


class TestIntUtilities:
    def test_mobius_int_matches_sieved(self, table_2k):
        for n in range(1, 2001):
            assert mobius_int(n) == mobius(n, table_2k)

    def test_divisors_int(self):
        assert divisors_int(1) == (1,)
        assert divisors_int(12) == (1, 2, 3, 4, 6, 12)

    def test_is_prime_int(self):
        for n in range(2000):
            assert is_prime_int(n) == trial_division_is_prime(n)


class TestTabulatedFunction:
    def test_index_zero_rejected(self):
        f = tabulate("unit", 10)
        with pytest.raises(ValueError):
            f[0]
        with pytest.raises(ValueError):
            f[11]

    def test_kinds(self, table_200):
        assert tabulate("mobius", 50, table_200).kind == EXACT
        assert tabulate("lambda", 50, table_200).kind == REAL

    def test_support_iteration(self, table_200):
        f = tabulate("odd_primes", 20, table_200)
        assert [n for n, _ in f.support()] == [3, 5, 7, 11, 13, 17, 19]

    def test_int64_store_reads_as_python_ints(self):
        store = np.array([0, 5, 0, -7, 2 ** 63 - 1, 0, -2 ** 63, 1],
                         dtype=np.int64)
        f = TabulatedFunction(7, EXACT, store)
        before = (f.support(), [f[n] for n in range(1, 8)])
        vals = f.values
        assert vals.dtype == object and vals.tolist() == store.tolist()
        assert all(type(v) is int for v in vals)
        assert f.values is vals and f._data is vals  # the store is dropped
        late = TabulatedFunction(7, EXACT, store)
        late.values
        for g in (f, late):  # support cached before the read, built after
            assert (g.support(), [g[n] for n in range(1, 8)]) == before
        assert before[0] == [(1, 5), (3, -7), (4, 2 ** 63 - 1),
                             (6, -2 ** 63), (7, 1)]
        assert all(type(v) is int for _, v in before[0] + late.support())
        assert all(type(v) is int for v in before[1])

    def test_numpy_integer_entries_become_python_ints(self):
        # numpy scalars would compute in wrapping 64-bit arithmetic
        f = TabulatedFunction(4, EXACT, [0] + [np.int64(3_000_000_000)] * 4)
        assert all(type(v) is int for v in f.values)
        assert dirichlet_convolve(f, f).values[4] == 27 * 10 ** 18
        assert correlate_direct(f, f, 2, 1) == 18 * 10 ** 18
        g = TabulatedFunction.from_entries(
            {1: np.uint64(2 ** 64 - 1), 2: 2 ** 70, 3: Fraction(1, 3),
             4: np.True_}, 4, EXACT)
        assert g.values.tolist() == [0, 2 ** 64 - 1, 2 ** 70,
                                     Fraction(1, 3), 1]
        assert [type(v) for v in g.values] == [int, int, int, Fraction, int]

    def test_odd_prime_log_drops_prime_powers(self, table_200):
        f = tabulate("odd_primes_log", 100, table_200)
        assert f[9] == 0.0
        assert f[2] == 0.0
        assert f[97] == pytest.approx(math.log(97))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            tabulate("zeta", 10)

    @pytest.mark.parametrize("M", [0, -1])
    @pytest.mark.parametrize("name", ["unit", "identity", "odd", "squares"])
    def test_table_free_names_refuse_a_length_below_one(self, name, M,
                                                        table_200):
        for table in (None, table_200):
            with pytest.raises(ValueError,
                               match=f"^naturals start at 1, got {M}$"):
                tabulate(name, M, table)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            TabulatedFunction(3, "Complex", [0, 1, 2, 3])


class TestExactRealSplit:
    """agree / tolerance / collapse: the one comparison rule and the one
    result form for exact and real tables."""

    EXACT_T = TabulatedFunction(1, EXACT, [0, 1])
    REAL_T = TabulatedFunction(1, REAL, [0, 1.0])

    def test_tolerance_follows_the_tables(self):
        assert tolerance(self.EXACT_T) == 0
        assert tolerance(self.EXACT_T, self.EXACT_T, scale=5.0) == 0
        assert tolerance(self.REAL_T) == REAL_TOL == 1e-9
        assert tolerance(self.EXACT_T, self.REAL_T) == REAL_TOL
        assert tolerance(self.REAL_T, tol=COEFF_TOL, scale=3.0) == 3e-12

    def test_agree_is_equality_at_bound_zero(self):
        assert agree(Fraction(1, 3), Fraction(2, 6), 0)
        assert not agree(10 ** 30, 10 ** 30 + 1, 0)
        assert not agree(1.0, 1.0 + 2 ** -52, 0)

    def test_agree_window_is_closed(self):
        assert agree(1.0, 1.5, 0.5)
        assert agree(1.5, 1.0, 0.5)
        assert not agree(1.0, 1.5 + 2 ** -50, 0.5)

    @pytest.mark.parametrize("got, want", [
        (math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_agree_rejects_nan(self, got, want):
        assert not agree(got, want, REAL_TOL)
        assert not agree(got, want, 0)

    def test_agree_is_elementwise_on_arrays(self):
        got = np.array([1.0, 2.0, math.nan])
        assert agree(got, np.array([1.0, 2.5, math.nan]), 0.1).tolist() == [
            True, False, False]

    def test_collapse(self):
        two = collapse(Fraction(4, 2), self.EXACT_T)
        assert two == 2 and type(two) is int
        half = collapse(Fraction(1, 2), self.EXACT_T, self.EXACT_T)
        assert half == Fraction(1, 2) and type(half) is Fraction
        big = collapse(10 ** 40, self.EXACT_T)
        assert big == 10 ** 40 and type(big) is int
        x = collapse(Fraction(1, 2), self.EXACT_T, self.REAL_T)
        assert x == 0.5 and type(x) is float
        y = collapse(np.float64(0.25), self.REAL_T)
        assert y == 0.25 and type(y) is float
