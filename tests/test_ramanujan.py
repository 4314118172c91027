import io
import math
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcorr.arith_core import (EXACT, SUPPORT_EPS, divisors_int, mobius_int,
                                sieve_primes,
                                tabulate)
from ramcorr.ramanujan import (RamanujanCoefficients,
                               UndefinedPeriodError, lucht_invert,
                               ramanujan_expand, ramanujan_expand_range,
                               ramanujan_sum, ramanujan_sum_table,
                               read_coefficients, support_closure_check,
                               universal_period, wintner_coefficients,
                               wintner_period)
from ramcorr.transforms import (evaluate_tds, lambda_tds, tds_from_et,
                                truncate, write_tds)
from reference_oracles import half_range_identity_check, support_pairs
from trial_division import trial_kappa


def cosine_oracle(q, a):
    """The defining trigonometric sum over reduced residues (test oracle)."""
    return sum(math.cos(2 * math.pi * j * a / q)
               for j in range(1, q + 1) if gcd(j, q) == 1)


def tiled_expand_real(coeffs, a_max):
    """The Real batch expansion tiling the full period c_q(0..q-1) of
    every modulus q, whatever a_max is."""
    acc = np.zeros(a_max + 1)
    for q, v in support_pairs(coeffs):
        block = np.asarray(ramanujan_sum_table(q), dtype=np.float64)
        acc += v * np.tile(block, a_max // q + 2)[: a_max + 1]
    acc[0] = 0.0
    return acc


def random_tds(rng, D, n_points=8):
    et = [0] * (D + 1)
    for d in rng.sample(range(1, D + 1), min(n_points, D)):
        et[d] = rng.choice([v for v in range(-9, 10) if v])
    return tds_from_et(et, D, EXACT)


class TestRamanujanSum:
    def test_modulus_one(self):
        for a in (1, 17, 10 ** 25):
            assert ramanujan_sum(1, a) == 1

    def test_divisible_gives_phi(self):
        assert ramanujan_sum(5, 5) == 4
        assert ramanujan_sum(12, 24) == 4

    def test_frozen_example(self):
        assert ramanujan_sum(4, 2) == -2

    def test_against_cosine_oracle(self):
        for q in range(1, 31):
            for a in range(1, 2 * q + 2):
                assert abs(ramanujan_sum(q, a) - cosine_oracle(q, a)) < 1e-6

    def test_rejects_zero_modulus(self):
        with pytest.raises(ValueError):
            ramanujan_sum(0, 3)

    @given(st.integers(min_value=1, max_value=150),
           st.integers(min_value=-10 ** 30, max_value=10 ** 30))
    @settings(max_examples=150)
    def test_periodicity_in_argument(self, q, a):
        assert ramanujan_sum(q, a) == ramanujan_sum(q, a % q)

    def test_squarefree_kernel_invariance(self):
        # holds for square-free moduli only
        for q in (1, 2, 3, 5, 6, 10, 15, 30, 42):
            for a in range(1, 1001, 37):
                k = trial_kappa(a)
                assert ramanujan_sum(q, a) == ramanujan_sum(q, k)

    def test_table_matches_pointwise(self):
        for q in (1, 2, 7, 12, 36, 100):
            tab = ramanujan_sum_table(q)
            for r in range(q):
                assert tab[r] == ramanujan_sum(q, r if r else q)


def orthogonality_sum(d, a):
    """Sum of c_q(a) over q | d; d when d | a and 0 otherwise."""
    return sum(ramanujan_sum(q, a) for q in divisors_int(d))


class TestOrthogonality:
    def test_frozen_examples(self):
        assert orthogonality_sum(2, 3) == 0
        assert orthogonality_sum(6, 12) == 6
        assert orthogonality_sum(1, 5) == 1

    def test_contract_on_grid(self):
        for d in range(1, 61):
            for a in range(1, 121):
                expected = d if a % d == 0 else 0
                assert orthogonality_sum(d, a) == expected


class TestWintnerCoefficients:
    def test_delta_one(self):
        c = wintner_coefficients(tds_from_et({1: 1}, 6, EXACT))
        assert c.values[1] == 1
        assert all(c.values[q] == 0 for q in range(2, 7))

    def test_two_point_example(self):
        c = wintner_coefficients(tds_from_et({3: 1, 6: 2}, 6, EXACT))
        assert c.values[3] == Fraction(2, 3)
        assert c.values[6] == Fraction(1, 3)
        assert c.values[1] == Fraction(1, 3) + Fraction(1, 3)

    def test_direct_sum_oracle(self, rng):
        g = random_tds(rng, 60)
        c = wintner_coefficients(g)
        for q in range(1, 61):
            direct = sum(Fraction(g.values[d], d)
                         for d in range(q, 61, q))
            assert c.values[q] == direct

    def test_zero_tds(self):
        c = wintner_coefficients(tds_from_et({}, 8, EXACT))
        assert all(v == 0 for v in c.values)
        assert c.support(SUPPORT_EPS).tolist() == []

    def test_lambda_half_range_values(self, table_200):
        g = lambda_tds(10, table_200)
        c = wintner_coefficients(g)
        for q in range(6, 11):
            assert c.values[q] == pytest.approx(
                -mobius_int(q) * math.log(q) / q, abs=1e-12)

    def test_max_support_equality(self, rng):
        for _ in range(25):
            g = random_tds(rng, rng.randint(4, 90))
            c = wintner_coefficients(g)
            assert c.support(SUPPORT_EPS)[-1] == g.support(SUPPORT_EPS)[-1]


class TestExpansion:
    def test_zero_coefficients(self):
        c = wintner_coefficients(tds_from_et({}, 5, EXACT))
        assert ramanujan_expand(c, 12) == 0

    def test_delta_one_everywhere(self):
        c = wintner_coefficients(tds_from_et({1: 1}, 5, EXACT))
        for a in (1, 2, 97, 10 ** 28 + 1):
            assert ramanujan_expand(c, a) == 1

    def test_lambda_at_prime(self, table_200):
        g = lambda_tds(10, table_200)
        c = wintner_coefficients(g)
        assert ramanujan_expand(c, 7) == pytest.approx(math.log(7), abs=1e-9)

    def test_exact_agreement_small_corpus(self, rng):
        for _ in range(10):
            g = random_tds(rng, rng.randint(3, 50))
            c = wintner_coefficients(g)
            for a in range(1, 120):
                assert ramanujan_expand(c, a) == evaluate_tds(g, a)

    def test_big_shift_agreement(self, rng):
        g = random_tds(rng, 40)
        c = wintner_coefficients(g)
        for _ in range(10):
            a = rng.randint(10 ** 25, 10 ** 30)
            assert ramanujan_expand(c, a) == evaluate_tds(g, a)

    def test_batch_matches_scalar_exact(self, rng):
        g = random_tds(rng, 30)
        c = wintner_coefficients(g)
        batch = ramanujan_expand_range(c, 300)
        for a in range(1, 301):
            assert batch[a] == ramanujan_expand(c, a)

    def test_batch_matches_scalar_real(self, table_200):
        c = wintner_coefficients(lambda_tds(20, table_200))
        batch = ramanujan_expand_range(c, 200)
        for a in range(1, 201):
            assert batch[a] == pytest.approx(ramanujan_expand(c, a), abs=1e-9)

    @pytest.mark.parametrize("a_max", [1, 2, 7, 120])
    def test_batch_equals_scalar_with_moduli_above_a_max(self, a_max):
        # value and Python type for every a, on coefficient tables that
        # reach far past a_max (only c_q(0..a_max) of those q is built)
        rng = random.Random(a_max)
        D = max(3 * a_max, 40)
        g = random_tds(rng, D, n_points=40)
        raw = [0] * (D + 1)
        for q in rng.sample(range(1, D + 1), 40):
            raw[q] = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 12))
        lam = lambda_tds(D, sieve_primes(D))
        for c in (wintner_coefficients(g),
                  RamanujanCoefficients(D, EXACT, raw),
                  wintner_coefficients(lam)):
            batch = ramanujan_expand_range(c, a_max)
            batch = batch if c.is_exact else batch.tolist()
            for a in range(1, a_max + 1):
                want = ramanujan_expand(c, a)
                assert batch[a] == want and type(batch[a]) is type(want), a

    @pytest.mark.parametrize("a_max", [1, 2, 7, 120, 500])
    def test_real_batch_is_bitwise_the_full_period_tiling(self, a_max,
                                                          table_2k):
        # moduli up to 2000, far past a_max: only c_q(0..a_max) is built
        c = wintner_coefficients(lambda_tds(2000, table_2k))
        got = ramanujan_expand_range(c, a_max)
        assert got.tobytes() == tiled_expand_real(c, a_max).tobytes()

    def test_rejects_zero_argument(self):
        c = wintner_coefficients(tds_from_et({1: 1}, 5, EXACT))
        with pytest.raises(ValueError):
            ramanujan_expand(c, 0)


class TestLuchtInversion:
    def test_delta_one(self):
        g = tds_from_et({1: 1}, 5, EXACT)
        back = lucht_invert(wintner_coefficients(g))
        assert list(back.values) == list(g.values)

    def test_lambda_round_trip(self, table_200):
        g = lambda_tds(10, table_200)
        back = lucht_invert(wintner_coefficients(g))
        for d in range(1, 11):
            assert back.values[d] == pytest.approx(
                -mobius_int(d) * math.log(d), abs=1e-9)

    def test_zero_round_trip(self):
        back = lucht_invert(wintner_coefficients(tds_from_et({}, 7, EXACT)))
        assert all(v == 0 for v in back.values)

    def test_random_round_trips(self, rng):
        for _ in range(30):
            g = random_tds(rng, rng.randint(3, 120))
            back = lucht_invert(wintner_coefficients(g))
            assert list(back.values) == list(g.values)

    def test_rejects_non_tds_coefficients(self):
        bad = RamanujanCoefficients(3, EXACT,
                                    [Fraction(0), Fraction(1, 7),
                                     Fraction(0), Fraction(0)])
        with pytest.raises(ValueError):
            lucht_invert(bad)


class TestSupportClosure:
    def test_odd_squarefree_support(self):
        g = tds_from_et({1: 1, 15: 2}, 20, EXACT)
        assert support_closure_check(g, lambda d: d % 2 == 1) == (True, True)

    def test_delta_in_singleton(self):
        g = tds_from_et({1: 1}, 5, EXACT)
        assert support_closure_check(g, lambda d: d == 1) == (True, True)

    def test_square_support_fails_squarefree_set(self):
        g = tds_from_et({4: 1}, 10, EXACT)
        pred = lambda d: mobius_int(d) != 0
        assert support_closure_check(g, pred) == (False, False)

    def test_rejects_non_divisor_closed(self):
        g = tds_from_et({1: 1}, 10, EXACT)
        with pytest.raises(ValueError):
            support_closure_check(g, lambda d: d in (1, 6))  # 2, 3 missing

    def test_set_predicate(self):
        g = tds_from_et({1: 1, 3: 2}, 9, EXACT)
        assert support_closure_check(g, {1, 3, 9}) == (True, True)
        assert support_closure_check(g, frozenset({1})) == (False, False)

    @pytest.mark.parametrize("bad", [[1, 3], (1,), 7, "13", None])
    def test_bad_predicate_is_the_counting_error(self, bad):
        # support_closure_check and the Diophantine counts share one
        # set-to-predicate step, so they reject a non-set, non-callable
        # predicate with the same ValueError
        from ramcorr.twoseasons import (diophantine_count_even,
                                        diophantine_count_odd)
        message = "set predicate must be a set or a callable"
        g = tds_from_et({1: 1}, 5, EXACT)
        with pytest.raises(ValueError, match=message):
            support_closure_check(g, bad)
        with pytest.raises(ValueError, match=message):
            diophantine_count_even(bad, {3}, 9, 2)
        with pytest.raises(ValueError, match=message):
            diophantine_count_odd({3}, bad, 9, 1)

    def test_booleans_agree_random(self, rng):
        preds = [lambda d: d % 2 == 1,
                 lambda d: mobius_int(d) != 0,
                 lambda d: d <= 25]
        for _ in range(30):
            g = random_tds(rng, rng.randint(4, 80))
            for pred in preds:
                et_in, hat_in = support_closure_check(g, pred)
                assert et_in == hat_in


class TestPeriods:
    def test_constant_tds_has_period_one(self):
        g = tds_from_et({1: 1}, 5, EXACT)
        assert wintner_period(g, 5) == 1

    def test_two_point_support(self):
        g = tds_from_et({3: 1, 5: 1}, 15, EXACT)
        assert wintner_period(g, 15) == 15
        assert type(wintner_period(g, 15)) is int

    def test_zero_tds_rejected(self):
        with pytest.raises(UndefinedPeriodError):
            wintner_period(tds_from_et({}, 5, EXACT), 5)

    def test_universal_period_values(self):
        assert universal_period(9) == 105
        assert universal_period(10) == 105
        assert universal_period(30) == 3234846615
        assert universal_period(2) == 1
        assert type(universal_period(30)) is int

    def test_w_divides_u_for_odd_squarefree_support(self, rng):
        for _ in range(20):
            N = rng.randint(9, 60)
            pool = [d for d in range(1, N + 1, 2) if mobius_int(d)]
            et = {d: rng.randint(1, 5) for d in
                  rng.sample(pool, min(6, len(pool)))}
            g = tds_from_et(et, N, EXACT)
            W = wintner_period(g, N)
            U = universal_period(N)
            assert U % W == 0
            assert W % 2 == 1 and mobius_int(W) != 0

    def test_prime_forcing_in_top_half(self, table_200):
        # primes in (N/2, N] with a surviving transform entry divide W
        N = 30
        g = lambda_tds(N, table_200)
        W = wintner_period(g, N)
        for p in (17, 19, 23, 29):
            assert W % p == 0


class TestHalfRangeIdentity:
    def test_lambda_examples(self, table_200):
        lam = tabulate("lambda", 20, table_200)
        assert half_range_identity_check(lam, 10)
        assert half_range_identity_check(lam, 20)

    def test_random_exact(self, rng):
        for _ in range(10):
            N = rng.randint(10, 80)
            vals = [0] + [rng.randint(-5, 5) for _ in range(N)]
            from ramcorr.arith_core import TabulatedFunction
            F = TabulatedFunction(N, EXACT, vals)
            assert half_range_identity_check(F, N)

    def test_zero_transform_entry_gives_zero_coefficient(self, table_200):
        g = truncate(tabulate("lambda", 16, table_200), 16)
        c = wintner_coefficients(g)
        assert g.values[16] == pytest.approx(0.0)  # 16 is not square-free
        assert c.values[16] == pytest.approx(0.0)


class TestCoefficientSerialization:
    def test_round_trip_exact(self):
        g = tds_from_et({2: 3, 6: -1}, 8, EXACT)
        c = wintner_coefficients(g)
        buf = io.StringIO()
        write_tds(c, buf)
        back = read_coefficients(io.StringIO(buf.getvalue()))
        assert list(back.values) == list(c.values)

    def test_round_trip_real(self, table_200):
        c = wintner_coefficients(lambda_tds(12, table_200))
        buf = io.StringIO()
        write_tds(c, buf)
        back = read_coefficients(io.StringIO(buf.getvalue()))
        for q in range(1, 13):
            assert back.values[q] == c.values[q]

    def test_malformed(self):
        with pytest.raises(ValueError):
            read_coefficients(io.StringIO("cutoff=5\n"))
