import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ramcorr import correlations, ramanujan, transforms
from ramcorr.arith_core import (EXACT, REAL, TabulatedFunction, divisors_int,
                                tabulate)
from ramcorr.correlations import (CorrelationProfile, build_profile,
                                  correlate_direct, correlate_expansion,
                                  profile_to_csv, profile_to_json,
                                  truncation_difference, verify_periodicity)
from ramcorr.hlmodels import artifact_pair
from ramcorr.ramanujan import (UndefinedPeriodError, ramanujan_sum_table,
                               universal_period, wintner_coefficients,
                               wintner_period)
from ramcorr.transforms import (evaluate_tds, lambda_tds, odd_lift,
                                tds_from_et, truncate)
from reference_oracles import small_shift_difference
from trial_division import trial_von_mangoldt


def random_exact_table(rng, M, lo=-6, hi=6):
    return TabulatedFunction(M, EXACT,
                             [0] + [rng.randint(lo, hi) for _ in range(M)])


class TestCorrelateDirect:
    def test_unit_against_unit(self):
        one = tabulate("unit", 80)
        for N, a in ((10, 1), (50, 7), (60, 20)):
            assert correlate_direct(one, one, N, a) == N

    def test_odd_primes_against_delta(self, table_200):
        f = tabulate("odd_primes", 10, table_200)
        g = tds_from_et({1: 1}, 10, EXACT)
        assert correlate_direct(f, g, 10, 1) == 3  # 3, 5, 7

    def test_lambda_pair_brute_force(self, table_200):
        lam = tabulate("lambda", 120, table_200)
        got = correlate_direct(lam, lam, 100, 2)
        oracle = sum(trial_von_mangoldt(n) * trial_von_mangoldt(n + 2)
                     for n in range(1, 101))
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_tabulated_g_needs_reach(self, table_200):
        lam = tabulate("lambda", 50, table_200)
        with pytest.raises(ValueError):
            correlate_direct(lam, lam, 50, 1)

    def test_exact_fraction_values_stay_exact(self):
        # the tabulated route used to truncate the sum with int()
        f = TabulatedFunction(3, EXACT, [0, 1, 0, 0])
        g = TabulatedFunction(4, EXACT, [0, 0, Fraction(1, 2), 0, 0])
        got = correlate_direct(f, g, 3, 1)
        assert got == Fraction(1, 2) and type(got) is Fraction
        g2 = TabulatedFunction(4, EXACT, [0, 0, Fraction(4, 2), 0, 0])
        got2 = correlate_direct(f, g2, 3, 1)
        assert got2 == 2 and type(got2) is int

    def test_rejects_zero_shift(self):
        one = tabulate("unit", 10)
        with pytest.raises(ValueError):
            correlate_direct(one, one, 5, 0)

    def test_big_shift_through_tds(self, table_200):
        f = tabulate("odd_primes", 20, table_200)
        g = odd_lift(lambda_tds(20, table_200))
        value = correlate_direct(f, g, 20, 10 ** 27 + 5)
        assert math.isfinite(value)


def per_n_direct(f, g, N, a):
    """Oracle: the defining sum with g evaluated once per n in supp f,
    i.e. |supp g'| reductions of n + a for every n."""
    acc = 0 if f.is_exact and g.is_exact else 0.0
    for n, fv in f.support_upto(N):
        acc += fv * evaluate_tds(g, n + a)
    return acc


def per_nq_expansion(f, g, N, a):
    """Oracle: the expansion route with one c_q table per coefficient q
    and one term per (n, q) pair."""
    exact = f.is_exact and g.is_exact
    total = 0 if exact else 0.0
    for q, ghat in wintner_coefficients(g).support():
        ctab = ramanujan_sum_table(q)
        r = a % q
        inner = 0 if f.is_exact else 0.0
        for n, fv in f.support_upto(N):
            inner += fv * ctab[(n + r) % q]
        total += ghat * inner
    if exact:
        t = Fraction(total)
        return int(t) if t.denominator == 1 else t
    return float(total)


def _gamma(m):
    u = 2.0 ** -53
    return m * u / (1 - m * u)


def _max_f(f, N):
    return max((abs(v) for _, v in f.support_upto(N)), default=0.0)


def direct_error_bound(f, g, N):
    """The bound correlate_direct's docstring states for the Real domain:
    gamma(N + s) * N * max|f| * sum|g'|, s = |supp g'|.  The per-n oracle
    meets the same bound (each term passes through at most s - 1 + 1 +
    N - 1 roundings there too)."""
    return (_gamma(N + len(g.support())) * N * _max_f(f, N)
            * sum(abs(v) for _, v in g.support()))


def expansion_error_bound(f, g, N):
    """The bound correlate_expansion's docstring states for the Real
    domain: gamma(N + 3D + 3) * (N + D) * max|f| * sum tau(d)^2 |g'(d)|/d,
    D = g.limit."""
    D = g.limit
    return (_gamma(N + 3 * D + 3) * (N + D) * _max_f(f, N)
            * sum(len(divisors_int(d)) ** 2 * abs(v) / d
                  for d, v in g.support()))


def random_tds(rng, cutoff, size, kind=EXACT):
    draw = ((lambda: rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
            if kind == EXACT else (lambda: rng.uniform(-3.0, 3.0)))
    ds = rng.sample(range(1, cutoff + 1), min(size, cutoff))
    return tds_from_et({d: draw() for d in ds}, cutoff, kind)


def kernel_shifts(N):
    U = universal_period(N)
    return [*range(1, 65), *(10 ** 27 + k for k in range(4)),
            *(U + k for k in range(1, 5))]


class TestResidueClassKernel:
    """correlate_direct on a TDS sums f over residue classes mod each d;
    the per-n route and the expansion route are its oracles."""

    def test_matches_per_n_route_exact(self, rng):
        for _ in range(25):
            N = rng.randint(1, 60)
            # f reaches past N, the cutoff may exceed N, supports may be empty
            f = random_exact_table(rng, N + rng.randint(0, 20))
            g = random_tds(rng, rng.randint(1, 3 * N), rng.randint(0, 12))
            for a in kernel_shifts(N):
                got = correlate_direct(f, g, N, a)
                assert type(got) is int
                assert got == per_n_direct(f, g, N, a)

    def test_shift_divisible_by_modulus(self, rng):
        f = random_exact_table(rng, 20)
        g = tds_from_et({5: 3}, 20, EXACT)
        want = 3 * (f[5] + f[10] + f[15] + f[20])
        for a in (5, 10, 10 ** 27):  # -a % 5 == 0: the class starts at 5
            assert correlate_direct(f, g, 20, a) == want
            assert per_n_direct(f, g, 20, a) == want

    def test_class_starting_past_n_contributes_nothing(self, rng):
        f = random_exact_table(rng, 20)
        g = tds_from_et({1: 2, 50: 7}, 60, EXACT)
        # -7 % 50 = 43 > 20: d = 50 hits no n <= 20
        want = 2 * sum(f[n] for n in range(1, 21))
        assert correlate_direct(f, g, 20, 7) == want
        assert per_n_direct(f, g, 20, 7) == want

    def test_entries_of_f_past_n_are_ignored(self, rng):
        f = random_exact_table(rng, 40)
        f_n = TabulatedFunction(25, EXACT, f.values[:26])
        g = tds_from_et({1: 1, 2: -3, 7: 5}, 9, EXACT)
        for a in (1, 2, 6, 10 ** 27 + 1):
            assert correlate_direct(f, g, 25, a) == correlate_direct(
                f_n, g, 25, a) == per_n_direct(f, g, 25, a)

    def test_empty_support(self, rng):
        f = random_exact_table(rng, 10)
        assert correlate_direct(f, tds_from_et({}, 10, EXACT), 10, 3) == 0
        real = correlate_direct(f, tds_from_et({}, 10, REAL), 10, 3)
        assert type(real) is float and real == 0.0

    def test_matches_per_n_route_real_within_stated_bound(self, rng):
        for _ in range(10):
            N = rng.randint(5, 200)
            f = TabulatedFunction(N, REAL, [0.0] + [
                rng.uniform(-5.0, 5.0) if rng.random() < 0.6 else 0.0
                for _ in range(N)])
            g = random_tds(rng, rng.randint(1, 2 * N), rng.randint(0, 40),
                           REAL)
            # each route lies within its stated bound of the exact sum
            bound = 2 * direct_error_bound(f, g, N)
            dual = direct_error_bound(f, g, N) + expansion_error_bound(
                f, g, N)
            for a in kernel_shifts(N)[::3]:
                got = correlate_direct(f, g, N, a)
                assert type(got) is float
                assert abs(got - per_n_direct(f, g, N, a)) <= bound
                assert abs(got - correlate_expansion(f, g, N, a)) <= dual

    def test_artifact_pair_within_stated_bound(self, table_2k):
        N = 300
        f, g = artifact_pair(N, table_2k)
        bound = 2 * direct_error_bound(f, g, N)
        for a in kernel_shifts(N)[::5]:
            assert abs(correlate_direct(f, g, N, a)
                       - per_n_direct(f, g, N, a)) <= bound

    def test_tds_route_never_evaluates_g_per_n(self, monkeypatch, table_2k):
        def per_n_evaluation(*args):
            raise AssertionError("correlate_direct evaluated g per n")

        monkeypatch.setattr(transforms, "evaluate_tds", per_n_evaluation)
        monkeypatch.setattr(correlations, "evaluate_tds", per_n_evaluation,
                            raising=False)
        N = 500
        f, g = artifact_pair(N, table_2k)
        U = universal_period(N)
        assert correlate_direct(f, g, N, U + 2) == correlate_direct(f, g, N, 2)
        assert verify_periodicity(f, g, N, U, [1, 2])

    def test_huge_shift_identity_at_n_20000(self, table_20k):
        # U has 28573 bits; the per-n route would need ~18 million
        # reductions of it per shift
        N = 20_000
        f, g = artifact_pair(N, table_20k)
        U = universal_period(N)
        assert correlate_direct(f, g, N, U + 2) == correlate_direct(f, g, N, 2)


class TestCorrelateExpansion:
    def test_zero_tds(self):
        one = tabulate("unit", 30)
        g = tds_from_et({}, 30, EXACT)
        assert correlate_expansion(one, g, 30, 4) == 0

    def test_delta_one_is_shift_free(self, rng):
        f = random_exact_table(rng, 50)
        g = tds_from_et({1: 1}, 50, EXACT)
        base = sum(v for _, v in f.support_upto(40))
        for a in (1, 5, 11, 10 ** 22 + 3):
            assert correlate_expansion(f, g, 40, a) == base

    def test_matches_direct_exact(self, rng):
        for _ in range(15):
            N = rng.randint(10, 60)
            f = random_exact_table(rng, N)
            et = {d: rng.randint(-4, 4) for d in
                  rng.sample(range(1, N + 1), min(8, N))}
            g = tds_from_et(et, N, EXACT)
            for a in (1, 2, rng.randint(3, 500), 10 ** 20 + 11):
                assert (correlate_expansion(f, g, N, a)
                        == correlate_direct(f, g, N, a))

    def test_matches_direct_real(self, table_200):
        f = tabulate("odd_primes_log", 20, table_200)
        g = lambda_tds(20, table_200)
        # each route lies within its stated bound of the exact sum
        bound = direct_error_bound(f, g, 20) + expansion_error_bound(f, g, 20)
        assert bound < 1e-9
        for a in (1, 2, 3, 17, 105):
            assert abs(correlate_expansion(f, g, 20, a)
                       - correlate_direct(f, g, 20, a)) <= bound

    def test_matches_per_nq_route_exact(self, rng):
        for i in range(25):
            N = rng.randint(1, 60)
            # f reaches past N, the cutoff may exceed N, the first table
            # is the zero TDS
            f = random_exact_table(rng, N + rng.randint(0, 20))
            g = random_tds(rng, rng.randint(1, 3 * N),
                           rng.randint(0, 12) if i else 0)
            for a in kernel_shifts(N):
                got = correlate_expansion(f, g, N, a)
                assert type(got) is int
                assert got == per_nq_expansion(f, g, N, a)

    def test_no_c_q_tables_and_no_per_n_walk(self, monkeypatch, table_2k):
        def forbidden(*args, **kwargs):
            raise AssertionError("correlate_expansion walked a c_q table "
                                 "or the support of f")

        monkeypatch.setattr(ramanujan, "ramanujan_sum_table", forbidden)
        monkeypatch.setattr(correlations, "ramanujan_sum_table", forbidden,
                            raising=False)
        N = 500
        f, g = artifact_pair(N, table_2k)
        monkeypatch.setattr(f, "support", forbidden)
        monkeypatch.setattr(f, "support_upto", forbidden)
        U = universal_period(N)
        assert (correlate_expansion(f, g, N, U + 2)
                == correlate_expansion(f, g, N, 2))

    def test_artifact_pair_at_n_5000(self, table_20k):
        # U has 7086 bits; the expansion route reduces it once per modulus
        N = 5000
        f, g = artifact_pair(N, table_20k)
        U = universal_period(N)
        bound = direct_error_bound(f, g, N) + expansion_error_bound(f, g, N)
        for k in (1, 2):
            got = correlate_expansion(f, g, N, k)
            assert correlate_expansion(f, g, N, U + k) == got
            assert abs(got - correlate_direct(f, g, N, k)) <= bound


class TestTruncationDifference:
    def test_vanishing_tail(self, rng):
        # transform of the constant-1 function is supported at 1 only
        one = tabulate("unit", 60)
        f = random_exact_table(rng, 30)
        assert truncation_difference(f, one, 30, 10) == 0

    def test_shift_one_closed_form(self, rng, table_2k):
        for _ in range(10):
            N = rng.randint(5, 90)
            f = random_exact_table(rng, N)
            g = random_exact_table(rng, N + 2)
            from ramcorr.transforms import eratosthenes_transform
            et = eratosthenes_transform(g)
            assert (truncation_difference(f, g, N, 1)
                    == et[N + 1] * f[N])
            if N > 1:
                expect = et[N + 1] * f[N - 1] + et[N + 2] * f[N]
                assert truncation_difference(f, g, N, 2) == expect

    def test_equals_correlation_gap(self, rng):
        for _ in range(12):
            N = rng.randint(8, 70)
            a = rng.randint(1, N)
            f = random_exact_table(rng, N)
            g = random_exact_table(rng, N + a)
            g_n = truncate(g, N)
            gap = (correlate_direct(f, g, N, a)
                   - correlate_direct(f, g_n, N, a))
            assert truncation_difference(f, g, N, a) == gap

    def test_needs_tail_tabulation(self, rng):
        f = random_exact_table(rng, 10)
        g = random_exact_table(rng, 12)
        with pytest.raises(ValueError):
            truncation_difference(f, g, 10, 5)


class TestSmallShiftDifference:
    def test_matches_general_formula(self, rng):
        for _ in range(12):
            N = rng.randint(8, 60)
            a = rng.randint(1, N)
            f = random_exact_table(rng, N)
            g = random_exact_table(rng, N + a)
            assert (small_shift_difference(f, g, N, a)
                    == truncation_difference(f, g, N, a))

    def test_frozen_small_cases(self, rng):
        N, a = 9, 1
        f = random_exact_table(rng, N)
        g = random_exact_table(rng, N + 2)
        from ramcorr.transforms import eratosthenes_transform
        et = eratosthenes_transform(g)
        assert small_shift_difference(f, g, 9, 1) == et[10] * f[9]
        assert (small_shift_difference(f, g, 9, 2)
                == et[10] * f[8] + et[11] * f[9])

    def test_real_result_is_a_python_float(self, table_200):
        lam = tabulate("lambda", 60, table_200)
        got = small_shift_difference(lam, lam, 40, 3)
        assert type(got) is float
        assert got == pytest.approx(truncation_difference(lam, lam, 40, 3),
                                    abs=1e-9)

    def test_rejects_large_shift(self, rng):
        f = random_exact_table(rng, 10)
        g = random_exact_table(rng, 30)
        with pytest.raises(ValueError):
            small_shift_difference(f, g, 10, 11)


class TestVerifyPeriodicity:
    def test_constant_tds_period_one(self, rng):
        f = random_exact_table(rng, 20)
        g = tds_from_et({1: 1}, 20, EXACT)
        assert verify_periodicity(f, g, 20, 1, range(1, 10))

    def test_odd_squarefree_support_u_periodic(self, rng, table_200):
        N = 15
        g = tds_from_et({1: 2, 3: -1, 5: 4, 15: 1}, N, EXACT)
        f = random_exact_table(rng, N)
        U = universal_period(N)
        assert verify_periodicity(f, g, N, U, range(1, 21))

    def test_wintner_period_works(self, rng):
        N = 20
        g = tds_from_et({3: 1, 9: 2, 5: -3}, N, EXACT)
        f = random_exact_table(rng, N)
        W = wintner_period(g, N)
        assert verify_periodicity(f, g, N, W, range(1, 21))

    def test_even_support_breaks_u_periodicity(self, table_200):
        # the plain truncation keeps even divisors; the huge period is odd,
        # so shifting by it flips parity and the values genuinely move
        N = 9
        f = tabulate("odd_primes_log", N, table_200)
        g = lambda_tds(N, table_200)
        U = universal_period(N)
        assert not verify_periodicity(f, g, N, U, range(1, 6))

    def test_zero_tds_rejected(self, rng):
        f = random_exact_table(rng, 10)
        with pytest.raises(UndefinedPeriodError):
            verify_periodicity(f, tds_from_et({}, 10, EXACT), 10, 1, [1])

    @pytest.mark.parametrize("pair", ["odd-support", "even-support"])
    def test_one_setup_and_one_class_sum_per_modulus_and_shift(
            self, monkeypatch, table_200, pair):
        N = 15
        f = tabulate("odd_primes_log", N, table_200)
        g = (tds_from_et({1: 2, 3: -1, 5: 4, 15: 1}, N, EXACT)
             if pair == "odd-support" else lambda_tds(N, table_200))
        U = universal_period(N)
        shifts = [1, 2, 3, 17]
        want = all(correlate_direct(f, g, N, a) == correlate_direct(
            f, g, N, a + U) for a in shifts)
        assert want == (pair == "odd-support")
        class_sum, slices = correlations._class_sum, []

        def counted(fvals, a, d):
            slices.append(fvals)
            return class_sum(fvals, a, d)

        monkeypatch.setattr(correlations, "_class_sum", counted)
        assert verify_periodicity(f, g, N, U, shifts) == want
        assert len(slices) == len(g.support()) * 2 * len(shifts)
        assert all(fvals is slices[0] for fvals in slices)  # one slice


class TestProfiles:
    def test_entries_sorted_and_deduplicated(self, table_200):
        f = tabulate("odd_primes", 10, table_200)
        g = tds_from_et({1: 1}, 10, EXACT)
        prof = build_profile(f, g, 10, [7, 1, 7, 3])
        assert [a for a, _ in prof.entries] == [1, 3, 7]

    def test_increasing_invariant_enforced(self):
        with pytest.raises(ValueError):
            CorrelationProfile(5, "f", "g", [(2, 1), (2, 2)])

    def test_csv_format(self, table_200):
        f = tabulate("odd_primes", 10, table_200)
        g = tds_from_et({1: 1}, 10, EXACT)
        prof = build_profile(f, g, 10, [1, 2])
        buf = io.StringIO()
        profile_to_csv(prof, buf)
        assert buf.getvalue() == "a,value\n1,3\n2,3\n"

    def test_json_carries_big_shifts_as_strings(self, table_200):
        f = tabulate("odd_primes", 9, table_200)
        g = tds_from_et({1: 1}, 9, EXACT)
        big = universal_period(9) + 1
        prof = build_profile(f, g, 9, [1, big])
        data = json.loads(profile_to_json(prof))
        assert data["entries"][1]["a"] == "106"

    @pytest.mark.parametrize("method, single", [
        ("direct", correlate_direct), ("expansion", correlate_expansion)],
        ids=["direct", "expansion"])
    def test_expansion_mode(self, table_200, rng, method, single):
        f = tabulate("odd_primes", 12, table_200)
        g = tds_from_et({1: 2, 3: 1}, 12, EXACT)
        d = build_profile(f, g, 12, [1, 2, 3], method="direct")
        e = build_profile(f, g, 12, [1, 2, 3], method="expansion")
        assert [v for _, v in d.entries] == [v for _, v in e.entries]
        # the profile's one setup gives each shift the value of its own
        # single-shift call by the same route, in type and (Real) to the bit
        N = 60
        U = universal_period(N)
        pairs = [artifact_pair(N, table_200),
                 (random_exact_table(rng, N), random_tds(rng, 2 * N, 30))]
        for f, g in pairs:
            shifts = [1, 2, 3, 17, U + 1, U + 2, U + 3, U + 17]
            prof = build_profile(f, g, N, shifts, method=method)
            assert [a for a, _ in prof.entries] == shifts
            for a, got in prof.entries:
                want = single(f, g, N, a)
                assert type(got) is type(want), (a, got, want)
                if isinstance(want, float):
                    assert (np.float64(got).tobytes()
                            == np.float64(want).tobytes()), a
                else:
                    assert got == want, a

    def test_expansion_profile_builds_the_coefficients_once(
            self, monkeypatch, table_200):
        calls = []

        def counted(g):
            calls.append(g)
            return wintner_coefficients(g)

        monkeypatch.setattr(correlations, "wintner_coefficients", counted)
        N = 60
        f, g = artifact_pair(N, table_200)
        U = universal_period(N)
        prof = build_profile(f, g, N, [3, 17, U + 3, U + 17],
                             method="expansion")
        assert len(prof.entries) == 4 and calls == [g]
