import io
import math
from fractions import Fraction

import numpy as np
import pytest

from ramcorr.arith_core import (EXACT, REAL, TabulatedFunction, mobius_int,
                                odd_part, tabulate)
from ramcorr.transforms import (_convolve, eratosthenes_transform,
                                evaluate_tds, evaluate_tds_range, lambda_tds,
                                odd_lift, read_tds, retruncate, tds_from_et,
                                truncate, write_tds)


def brute_divisor_convolution(fvals, gvals, n):
    """Independent oracle: literal sum over d | n of F(d) G(n/d)."""
    return sum(fvals[d] * gvals[n // d] for d in range(1, n + 1) if n % d == 0)


def random_exact_table(rng, M, lo=-9, hi=9):
    vals = [0] + [rng.randint(lo, hi) for _ in range(M)]
    return TabulatedFunction(M, EXACT, vals)


class TestDirichletConvolve:
    """Dirichlet products through the one kernel: F * 1 is the divisor sum
    ``evaluate_tds_range``, mu * F the transform, and F * G ``_convolve``."""

    def test_unit_times_unit_is_divisor_count(self):
        tau = evaluate_tds_range(tabulate("unit", 30), 30)
        assert tau[6] == 4
        assert tau[12] == 6

    def test_mobius_inverts_unit(self, table_200):
        mu = tabulate("mobius", 100, table_200)
        delta = evaluate_tds_range(mu, 100)
        assert delta[1] == 1
        assert all(delta[n] == 0 for n in range(2, 101))

    def test_lambda_prime_from_transform(self, table_200):
        # -mu * log convolved with 1 recovers von Mangoldt at 12 (zero)
        M = 50
        lam_p = TabulatedFunction(
            M, REAL,
            [0.0] + [-mobius_int(d) * math.log(d) for d in range(1, M + 1)])
        lam = evaluate_tds_range(lam_p, M)
        assert lam[12] == pytest.approx(0.0, abs=1e-9)
        assert lam[8] == pytest.approx(math.log(2), abs=1e-9)

    def test_matches_brute_force(self, rng):
        F = random_exact_table(rng, 60)
        G = random_exact_table(rng, 60)
        H = _convolve(F._data, G._data, 60, EXACT)
        for n in range(1, 61):
            assert H[n] == brute_divisor_convolution(F.values, G.values, n)

    def test_promotion_to_real(self, table_200):
        # the exact mu meets a Real F
        lam = tabulate("lambda", 20, table_200)
        et = eratosthenes_transform(lam, table=table_200)
        assert et.kind == REAL and et.values.dtype == np.float64

    def test_insufficient_tabulation(self):
        with pytest.raises(ValueError):
            eratosthenes_transform(tabulate("unit", 5), 10)


class TestEratosthenesTransform:
    def test_lambda_transform_closed_form(self, table_200):
        lam = tabulate("lambda", 50, table_200)
        et = eratosthenes_transform(lam)
        assert et[6] == pytest.approx(-math.log(6), abs=1e-9)
        for d in range(1, 51):
            assert et[d] == pytest.approx(-mobius_int(d) * math.log(d),
                                          abs=1e-9)

    def test_unit_transforms_to_delta(self):
        et = eratosthenes_transform(tabulate("unit", 40))
        assert et[1] == 1
        assert all(et[d] == 0 for d in range(2, 41))

    def test_identity_transforms_to_phi_at_primes(self, table_200):
        et = eratosthenes_transform(tabulate("identity", 100))
        for p in (2, 3, 5, 7, 11, 97):
            # oracle: direct Mobius sum over t | p
            direct = sum(t * mobius_int(p // t) for t in (1, p))
            assert et[p] == direct == p - 1

    def test_round_trip_exact(self, rng):
        F = random_exact_table(rng, 120)
        back = evaluate_tds_range(eratosthenes_transform(F), F.limit)
        assert list(back) == list(F.values)

    def test_round_trip_real(self, table_2k):
        lam = tabulate("lambda", 1000, table_2k)
        back = evaluate_tds_range(eratosthenes_transform(lam), lam.limit)
        assert np.max(np.abs(back - lam.values)) < 1e-9


class TestTruncation:
    def test_lambda_truncation_values(self, table_200):
        g = truncate(tabulate("lambda", 10, table_200), 10)
        for d in range(1, 11):
            assert g.values[d] == pytest.approx(
                -mobius_int(d) * math.log(d), abs=1e-9)

    def test_inactive_truncation_reproduces_function(self, rng):
        F = random_exact_table(rng, 30)
        g = truncate(F, 30)
        for m in range(1, 31):
            assert evaluate_tds(g, m) == F[m]

    def test_support_cut(self):
        F = TabulatedFunction(20, EXACT, [0] * 12 + [7] + [0] * 8)  # F'(12)=7
        # F = h * 1 with h supported at 12 only
        h = TabulatedFunction(20, EXACT, evaluate_tds_range(F, 20))
        g = truncate(h, 10)
        assert g.is_zero()

    def test_truncation_idempotent(self, rng):
        g = tds_from_et({3: 4, 10: -2, 15: 1}, 20, EXACT)
        materialised = TabulatedFunction(
            20, EXACT, evaluate_tds_range(g, 20))
        again = truncate(materialised, 20)
        assert list(again.values) == list(g.values)

    def test_retruncate(self):
        g = tds_from_et({3: 4, 15: 1}, 20, EXACT)
        low = retruncate(g, 10)
        assert low.limit == 10 and low.values[3] == 4
        high = retruncate(g, 30)
        assert high.limit == 30 and high.values[15] == 1


class TestEvaluateTds:
    def test_delta_one(self):
        g = tds_from_et({1: 1}, 5, EXACT)
        assert evaluate_tds(g, 1) == 1
        assert evaluate_tds(g, 10 ** 30 + 7) == 1

    def test_lambda_at_108_cancels(self, table_200):
        # divisors of 108 up to 10: 1,2,3,4,6,9 -> log2+log3-log6 = 0
        g = lambda_tds(10, table_200)
        assert evaluate_tds(g, 108) == pytest.approx(0.0, abs=1e-9)

    def test_lambda_at_primes(self, table_200):
        g = lambda_tds(10, table_200)
        for p in (2, 3, 5, 7):
            assert evaluate_tds(g, p) == pytest.approx(math.log(p), abs=1e-9)

    def test_rejects_zero(self):
        g = tds_from_et({1: 1}, 5, EXACT)
        with pytest.raises(ValueError):
            evaluate_tds(g, 0)

    @pytest.mark.parametrize("entries, kind, m, want", [
        ({2: 3, 4: -1}, EXACT, 4, 2),
        ({2: 3, 4: -1}, EXACT, 3, 0),  # the empty sum
        ({2: Fraction(1, 2), 4: Fraction(3, 2)}, EXACT, 4, 2),
        ({2: Fraction(1, 2), 4: Fraction(3, 2)}, EXACT, 6, Fraction(1, 2)),
        ({2: Fraction(1, 2)}, EXACT, 3, 0),
        ({2: 0.5, 4: 1.5}, REAL, 4, 2.0),
        ({2: 0.5}, REAL, 3, 0.0),
    ])
    def test_collapse_types_the_value(self, entries, kind, m, want):
        # int when integral, else the Fraction, for an exact table; a
        # Python float for a Real one; the empty sum included
        got = evaluate_tds(tds_from_et(entries, 6, kind), m)
        assert type(got) is type(want) and got == want

    def test_range_matches_pointwise(self, rng):
        g = tds_from_et({2: 3, 5: -1, 9: 4}, 10, EXACT)
        batch = evaluate_tds_range(g, 200)
        for m in range(1, 201):
            assert batch[m] == evaluate_tds(g, m)

    def test_range_matches_pointwise_real(self, table_200):
        g = lambda_tds(30, table_200)
        batch = evaluate_tds_range(g, 500)
        for m in range(1, 501, 7):
            assert batch[m] == pytest.approx(evaluate_tds(g, m), abs=1e-9)


def lifted_values(F):
    """The lift of F's full truncation, evaluated on [1..F.limit]."""
    return evaluate_tds_range(odd_lift(truncate(F, F.limit)), F.limit)


class TestOddLift:
    def test_reads_odd_part(self, rng):
        F = random_exact_table(rng, 40)
        lifted = lifted_values(F)
        assert lifted[12] == F[3]
        assert lifted[40] == F[5]
        assert all(lifted[n] == F[odd_part(n)] for n in range(1, 41))

    def test_lambda_at_powers_of_two(self, table_200):
        lam = tabulate("lambda", 64, table_200)
        lifted = lifted_values(lam)
        for k in (2, 4, 8, 16, 32, 64):
            assert lifted[k] == pytest.approx(0.0, abs=1e-12)

    def test_tds_lift_evaluates_at_odd_part(self, table_200):
        g = odd_lift(lambda_tds(10, table_200))
        assert evaluate_tds(g, 24) == pytest.approx(math.log(3), abs=1e-9)

    def test_paths_agree_exact(self, rng):
        # the TDS lift, evaluated, against the plain read at odd_part(n)
        F = random_exact_table(rng, 96)
        n = np.arange(1, 97)
        assert list(lifted_values(F)[1:]) == list(F.values[n // (n & -n)])

    def test_paths_agree_real(self, table_2k):
        lam = tabulate("lambda", 512, table_2k)
        n = np.arange(1, 513)
        err = lifted_values(lam)[1:] - lam.values[n // (n & -n)]
        assert np.max(np.abs(err)) < 1e-9

    def test_odd_supported_tds_is_fixed_point(self):
        g = tds_from_et({1: 2, 3: -1, 15: 4}, 20, EXACT)
        lifted = odd_lift(g)
        assert list(lifted.values) == list(g.values)


class TestSerialization:
    def test_round_trip_exact(self):
        g = tds_from_et({1: 3, 7: -2}, 12, EXACT, name="demo")
        buf = io.StringIO()
        write_tds(g, buf)
        back = read_tds(io.StringIO(buf.getvalue()))
        assert back.limit == 12 and back.kind == EXACT
        assert list(back.values) == list(g.values)

    def test_round_trip_real(self, table_200):
        g = lambda_tds(20, table_200)
        buf = io.StringIO()
        write_tds(g, buf)
        back = read_tds(io.StringIO(buf.getvalue()))
        assert np.max(np.abs(back.values - g.values)) == 0.0

    @pytest.mark.parametrize("text", [
        "",                                  # no header
        "cutoff=x kind=Real\n",              # bad cutoff
        "cutoff=5 kind=Complex\n",           # bad kind
        "cutoff=5\n",                        # missing kind
        "cutoff=5 kind=ExactInt\n9\t1\n",    # d out of range
        "cutoff=5 kind=ExactInt\n2\t1\n2\t3\n",  # duplicate
        "cutoff=5 kind=ExactInt\n2 1\n",     # wrong separator
        "cutoff=5 kind=ExactInt\n2\tpi\n",   # bad value
        "cutoff=5 kind=Real\n2\t1_0\n",      # float() reads these three
        "cutoff=5 kind=Real\n2\t+5\n",
        "cutoff=5 kind=Real\n2\t 7\n",
    ])
    def test_malformed_inputs(self, text):
        with pytest.raises(ValueError):
            read_tds(io.StringIO(text))
