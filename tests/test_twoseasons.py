import math
from fractions import Fraction

import pytest

from ramcorr.arith_core import (EXACT, REAL, TabulatedFunction, is_prime_int,
                                odd_part, tabulate, v2)
from ramcorr.correlations import correlate_direct
from ramcorr.hlmodels import artifact_pair
from ramcorr.ramanujan import UndefinedPeriodError, universal_period
from ramcorr.transforms import (evaluate_tds, lambda_tds, odd_lift,
                                tds_from_et)
from ramcorr.twoseasons import (AxiomError, check_axioms,
                                combinatorial_identity_check,
                                diophantine_count_even, diophantine_count_odd,
                                entangled_correlation, random_ts_instance)
from reference_oracles import support_pairs

ODD_PRIMES = frozenset(p for p in range(3, 4000, 2) if is_prime_int(p))


class TestCheckAxioms:
    def test_artifact_pair_passes(self, table_200):
        f, g = artifact_pair(9, table_200)
        report = check_axioms(f, g, 9, 9)
        assert report.overall
        assert all(c.passed for c in report.checks)

    def test_prime_length_fails_parameter_axiom(self, table_200):
        f, g = artifact_pair(11, table_200)
        report = check_axioms(f, g, 11, 11)
        assert not report.axiom4.passed
        assert "prime" in report.axiom4.evidence
        assert report.overall is False

    def test_unit_factor_fails_prime_support(self, table_200):
        f = tabulate("unit", 9)
        _, g = artifact_pair(9, table_200)
        report = check_axioms(f, g, 9, 9)
        assert not report.axiom2.passed
        assert "composite" in report.axiom2.evidence

    def test_even_support_fails_parity(self, table_200):
        f, _ = artifact_pair(9, table_200)
        g = lambda_tds(9, table_200)  # keeps even divisors
        report = check_axioms(f, g, 9, 9)
        assert not report.axiom3.passed

    def test_square_support_fails_squarefree(self, table_200):
        f, _ = artifact_pair(9, table_200)
        g = tds_from_et({9: 1}, 9, EXACT)
        report = check_axioms(f, g, 9, 9)
        assert not report.axiom1.passed

    def test_range_leak_detected(self, table_200):
        f, _ = artifact_pair(10, table_200)
        g = tds_from_et({3: 1, 9: 0, 7: 2}, 10, EXACT)
        report = check_axioms(f, g, 10, 5)
        assert not report.axiom0.passed
        assert "d=7" in report.axiom0.evidence


class TestEntangledCorrelation:
    def test_even_branch_counts_with_constant_g(self, rng):
        N = 15
        f, _ = random_ts_instance(N, rng)
        g = tds_from_et({1: 1}, N, EXACT)
        value, branch = entangled_correlation(f, g, N, 2)
        assert branch == "even"
        assert value == sum(v for _, v in support_pairs(f, N))

    def test_artifact_even_shift_formula(self, table_200):
        N, a = 100, 2
        f, g = artifact_pair(N, table_200)
        value, branch = entangled_correlation(f, g, N, a)
        lam_n = lambda_tds(N, table_200)
        oracle = sum(math.log(p) * evaluate_tds(lam_n, p + a)
                     for p in range(3, N + 1, 2) if is_prime_int(p))
        assert branch == "even"
        assert value == pytest.approx(oracle, abs=1e-9)

    def test_artifact_odd_shift_j_sum(self, table_200):
        N, a = 100, 3
        f, g = artifact_pair(N, table_200)
        value, branch = entangled_correlation(f, g, N, a)
        # oracle: explicit power-of-two split, one j per prime
        lam_n = lambda_tds(N, table_200)
        oracle = 0.0
        for p in range(3, N + 1, 2):
            if is_prime_int(p):
                hits = 0
                for j in range(1, int(math.log2(N + a)) + 1):
                    step = 1 << j
                    if (p + a) % step == 0 and ((p + a) // step) % 2 == 1:
                        oracle += math.log(p) * evaluate_tds(lam_n,
                                                             (p + a) // step)
                        hits += 1
                assert hits == 1
        assert branch == "odd"
        assert value == pytest.approx(oracle, abs=1e-9)

    def test_matches_direct_with_lifted_g(self, rng):
        for i in range(6):
            N = rng.choice((9, 10, 15, 16, 21, 22, 25, 26))
            f, g = random_ts_instance(N, rng)
            lifted = odd_lift(g)
            a_top = 100 if i == 0 else 30
            for a in range(1, a_top + 1):
                value, _ = entangled_correlation(f, g, N, a)
                assert value == correlate_direct(f, lifted, N, a)

    @pytest.mark.parametrize("fkind, gkind, g1, want", [
        (EXACT, EXACT, 2, (7, 0)),
        (EXACT, EXACT, Fraction(1, 2), (Fraction(5, 2), 0)),
        (EXACT, EXACT, Fraction(2, 3), (3, 0)),
        (EXACT, REAL, 2.0, (7.0, 0.0)),
        (REAL, EXACT, 2, (7.0, 0.0)),
        (REAL, REAL, 0.5, (2.5, 0.0)),
    ])
    def test_collapse_types_the_value(self, fkind, gkind, g1, want):
        # f = 1 on the odd primes 3, 5, 7 and g' = g1 at 1, 1 at 3, so
        # both branches sum to 3 g1 + 1 (an int when integral, as for
        # g1 = 2/3); the zero f gives the empty sum, typed by the same
        # rule
        N = 9
        g = tds_from_et({1: g1, 3: 1}, N, gkind)
        one = [0, 0, 0, 1, 0, 1, 0, 1, 0, 0]
        for f_vals, w in zip((one, [0] * (N + 1)), want):
            f = TabulatedFunction(N, fkind, f_vals)
            for a in (2, 3):
                value, _ = entangled_correlation(f, g, N, a)
                assert type(value) is type(w) and value == w, (f_vals, a)

    def test_axiom_violation_raises(self, table_200):
        f = tabulate("unit", 9)
        _, g = artifact_pair(9, table_200)
        with pytest.raises(AxiomError):
            entangled_correlation(f, g, 9, 2)


class TestDiophantineCounts:
    def test_twin_odd_primes(self):
        assert diophantine_count_even(ODD_PRIMES, ODD_PRIMES, 10, 2) == 2

    def test_odd_shift_example(self):
        assert diophantine_count_odd(ODD_PRIMES, ODD_PRIMES, 10, 1) == 1

    def test_full_sets(self):
        full = lambda n: True
        for N in (10, 11, 99, 100):
            assert diophantine_count_even(full, full, N, 2) == (N + 1) // 2

    def test_empty_set(self):
        empty = frozenset()
        assert diophantine_count_even(empty, ODD_PRIMES, 50, 2) == 0
        assert diophantine_count_odd(empty, ODD_PRIMES, 50, 3) == 0

    def test_power_of_two_targets(self):
        # G = {1} counts n with n + a a power of two
        N, a = 50, 3
        got = diophantine_count_odd({1}, {1} | set(), N, a)
        oracle = sum(1 for n in range(1, N + 1, 2)
                     if n == 1 and odd_part(n + a) == 1)
        # F = {1}: only n = 1, and 1 + 3 = 4 = 2^2
        assert got == oracle == 1

    def test_wrong_parity_rejected(self):
        with pytest.raises(ValueError):
            diophantine_count_even(ODD_PRIMES, ODD_PRIMES, 10, 3)
        with pytest.raises(ValueError):
            diophantine_count_odd(ODD_PRIMES, ODD_PRIMES, 10, 2)

    def test_equals_direct_correlation(self, rng):
        for _ in range(10):
            N = rng.randint(40, 300)
            a = rng.randint(1, 50)
            universe = range(1, N + a + 1)
            F = {n for n in universe if rng.random() < 0.4}
            G = {n for n in universe if rng.random() < 0.4}
            f = TabulatedFunction(
                N, EXACT, [1 if (n % 2 and n in F) else 0
                           for n in range(N + 1)])
            g = TabulatedFunction(
                N + a, EXACT, [0] + [1 if odd_part(m) in G else 0
                                     for m in range(1, N + a + 1)])
            direct = correlate_direct(f, g, N, a)
            if a % 2 == 0:
                assert diophantine_count_even(F, G, N, a) == direct
            else:
                assert diophantine_count_odd(F, G, N, a) == direct

    def test_j_uniqueness(self, rng):
        # every counted n has exactly one admissible j, namely v2(n + a)
        N, a = 200, 5
        F = {n for n in range(1, N + 1) if rng.random() < 0.5}
        G = {m for m in range(1, N + a + 1) if rng.random() < 0.5}
        per_n = 0
        for n in range(1, N + 1, 2):
            if n in F:
                js = [j for j in range(1, int(math.log2(N + a)) + 1)
                      if (n + a) % (1 << j) == 0
                      and ((n + a) >> j) % 2 == 1
                      and ((n + a) >> j) in G]
                assert len(js) <= 1
                if js:
                    assert js[0] == v2(n + a)
                per_n += len(js)
        assert per_n == diophantine_count_odd(F, G, N, a)


class TestCombinatorialIdentities:
    @pytest.mark.parametrize("N", [9, 10])
    def test_artifact_identities(self, N, table_200):
        f, g = artifact_pair(N, table_200)
        assert universal_period(9) == 105
        assert combinatorial_identity_check(f, g, N) == (True, True)

    def test_constant_g_trivially_periodic(self, rng):
        N = 9
        f, _ = random_ts_instance(N, rng)
        g = tds_from_et({1: 1}, N, EXACT)
        assert combinatorial_identity_check(f, g, N) == (True, True)

    def test_random_instances(self, rng):
        for N in (9, 10, 15, 16, 21, 22):
            f, g = random_ts_instance(N, rng)
            assert combinatorial_identity_check(f, g, N) == (True, True)

    def test_zero_g_rejected(self, rng):
        N = 9
        f, _ = random_ts_instance(N, rng)
        with pytest.raises(UndefinedPeriodError):
            combinatorial_identity_check(f, tds_from_et({}, N, EXACT), N)

    def test_non_ts_pair_rejected(self, table_200):
        f = tabulate("unit", 9)
        _, g = artifact_pair(9, table_200)
        with pytest.raises(AxiomError):
            combinatorial_identity_check(f, g, 9)

    def test_random_instance_requires_good_length(self, rng):
        with pytest.raises(ValueError):
            random_ts_instance(12, rng)  # 11 prime
