"""One prime source: U, Lucht's mu, the two-seasons draws and the prime
logs are read from the sieve.  The trial-division helpers stay here as
the oracles of those reads."""

import io
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ramcorr import arith_core, verify
from ramcorr.arith_core import (EXACT, SIEVE_CAP, _prime_factors,
                                divisors_int, is_prime_int, mobius_int,
                                sieve_primes, tabulate, zeros)
from ramcorr.cli import main
from ramcorr.correlations import build_profile, profile_to_csv
from ramcorr.hlmodels import chebyshev_theta
from ramcorr.ramanujan import (RamanujanCoefficients, lucht_invert,
                               universal_period, wintner_coefficients)
from ramcorr.transforms import tds_from_et
from ramcorr.twoseasons import random_ts_instance


def trial_universal_periods(N_max):
    """U(N) for N = 1..N_max by the trial-division running product."""
    out, value = [None, 1], 1
    for N in range(2, N_max + 1):
        if N % 2 and is_prime_int(N):
            value *= N
        out.append(value)
    return out


def trial_ts_instance(N, rng):
    """The draws of random_ts_instance as the trial-division loops made
    them: f on the odd primes, then g' on the odd square-free d."""
    def draw():
        while True:
            v = rng.randint(-5, 5)
            if v:
                return v

    f = [0] * (N + 1)
    for p in range(3, N + 1, 2):
        if is_prime_int(p):
            f[p] = draw()
    g = [0] * (N + 1)
    for d in range(1, N + 1, 2):
        if mobius_int(d) != 0:
            g[d] = draw()
    return f, g


def old_odd_prime_logs(M, table):
    """The odd_primes_log values as np.log of the odd primes built them."""
    vals = np.zeros(M + 1, dtype=np.float64)
    pr = table.primes[(table.primes > 2) & (table.primes <= M)]
    vals[pr] = np.log(pr.astype(np.float64))
    return vals


def _rebind_everywhere(monkeypatch, orig, replacement):
    for name, mod in list(sys.modules.items()):
        if name == "ramcorr" or name.startswith("ramcorr."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, replacement)


@pytest.fixture()
def no_trial_division(monkeypatch):
    """Every binding of the trial-division loop and of the helpers read
    off it raises when called."""
    for helper in (_prime_factors, is_prime_int, mobius_int, divisors_int):
        def refuse(n, name=helper.__name__):
            raise AssertionError(f"{name}({n}) was called")
        _rebind_everywhere(monkeypatch, helper, refuse)


class TestUniversalPeriod:
    def test_equals_the_trial_loop_up_to_3000(self):
        want = trial_universal_periods(3000)
        for N in range(1, 3001):
            assert universal_period(N) == want[N], N

    def test_equals_the_trial_loop_at_2e5(self):
        assert universal_period(200_000) == trial_universal_periods(
            200_000)[-1]

    def test_a_passed_table_gives_the_same_value(self, table_2k):
        want = trial_universal_periods(2000)
        for N in (1, 2, 3, 9, 10, 1999, 2000):
            assert universal_period(N, table_2k) == want[N]

    def test_above_the_cap_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError,
                               match=f"{SIEVE_CAP + 1} exceeds SIEVE_CAP"):
                universal_period(SIEVE_CAP + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a sieve to the cap takes over 2 MB

    def test_a_passed_table_may_exceed_the_cap(self, monkeypatch, table_200):
        monkeypatch.setattr(arith_core, "SIEVE_CAP", 100)
        assert universal_period(150, table_200) == trial_universal_periods(
            150)[-1]
        with pytest.raises(ValueError, match="150 exceeds SIEVE_CAP = 100"):
            universal_period(150)
        with pytest.raises(ValueError,
                           match="sieve limit 200 below required 300"):
            universal_period(300, table_200)

    def test_needs_no_trial_division(self, no_trial_division):
        assert universal_period(30) == 3234846615


class TestCorrelateAboveTheCap:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sieve_limit_above_the_cap_writes_the_u_rows(self, capsys,
                                                         monkeypatch, fmt):
        # the U+k token reads U from the configured sieve, and the writer
        # reuses it, so a limit above SIEVE_CAP still writes the U+k token
        argv = ["--sieve-limit", "12000", "correlate", "--f", "mobius",
                "--g", "delta1", "--N", "12000", "--shifts", "1,U+1",
                "--format", fmt]
        assert main(argv) == 0
        want = capsys.readouterr()
        monkeypatch.setattr(arith_core, "SIEVE_CAP", 1000)
        assert main(argv) == 0
        got = capsys.readouterr()
        assert (got.out, got.err) == (want.out, want.err)
        if getattr(sys, "get_int_max_str_digits", lambda: 0)():
            assert "U+1" in got.out


class TestOneU:
    ARGV = ["correlate", "--f", "odd_primes_log", "--g", "lambdaN",
            "--N", "12000", "--shifts", "1,U+1"]

    @pytest.fixture()
    def period_calls(self, monkeypatch):
        """The lengths of every universal_period call, through any binding."""
        calls = []

        def counted(N, table=None):
            calls.append(N)
            return universal_period(N, table)
        _rebind_everywhere(monkeypatch, universal_period, counted)
        return calls

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_correlate_builds_u_once(self, capsys, period_calls, fmt):
        assert main([*self.ARGV, "--format", fmt]) == 0
        assert period_calls == [12000]
        if getattr(sys, "get_int_max_str_digits", lambda: 0)():
            assert "U+1" in capsys.readouterr().out

    def test_a_library_profile_builds_its_own_u(self, period_calls):
        # a profile built without the CLI carries no U; the writer builds it
        N = 12000
        big = universal_period(N) + 1  # this module's binding: not counted
        g = tds_from_et({1: 1}, N, EXACT)
        profile = build_profile(tabulate("mobius", N), g, N, [1, big])
        buf = io.StringIO()
        profile_to_csv(profile, buf)
        rows = [row.split(",") for row in buf.getvalue().splitlines()]
        if getattr(sys, "get_int_max_str_digits", lambda: 0)():
            assert period_calls == [N]
            assert rows[2][0] == "U+1"
        else:
            assert period_calls == [] and rows[2][0] == str(big)
        assert rows[1][1] == rows[2][1]


class TestPrimeLogs:
    @pytest.mark.parametrize("M", [9, 5000, 200_000])
    def test_odd_primes_log_is_the_old_np_log_table(self, M):
        for table in (sieve_primes(max(M, 2)), sieve_primes(200_003)):
            got = tabulate("odd_primes_log", M, table).values
            assert got.dtype == np.float64
            assert got.tobytes() == old_odd_prime_logs(M, table).tobytes()

    @pytest.mark.parametrize("N", [1, 2, 3, 10, 5000, 200_000])
    def test_chebyshev_theta_is_the_old_np_log_sum(self, N):
        table = sieve_primes(200_003)
        pr = table.primes[table.primes <= N]
        want = float(np.log(pr.astype(np.float64)).sum()) if len(pr) else 0.0
        got = chebyshev_theta(N, table)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestSieveReads:
    def test_lucht_invert_needs_no_trial_division(self, rng, request):
        D = 300
        et = {d: rng.randint(-9, 9) for d in rng.sample(range(1, D + 1), 60)}
        g = tds_from_et(et, D, EXACT)
        g_real = tds_from_et(et, D, "Real")
        coeffs, coeffs_real = wintner_coefficients(g), wintner_coefficients(
            g_real)
        request.getfixturevalue("no_trial_division")
        assert lucht_invert(coeffs).values.tolist() == g.values.tolist()
        back = lucht_invert(coeffs_real).values
        assert np.abs(back - g_real.values).max() <= 1e-9

    @pytest.mark.parametrize("kind", [EXACT, "Real"])
    def test_wintner_coefficients_need_no_trial_division(self, rng, kind,
                                                         request):
        D = 300
        et = {d: rng.randint(-9, 9) for d in rng.sample(range(1, D + 1), 60)}
        g = tds_from_et(et, D, kind)
        want = [sum(Fraction(et.get(d, 0), d) for d in range(q, D + 1, q))
                for q in range(1, D + 1)]
        request.getfixturevalue("no_trial_division")
        got = wintner_coefficients(g).values[1:].tolist()
        if kind == EXACT:
            assert got == want
        else:
            assert np.allclose(got, [float(v) for v in want], rtol=0,
                               atol=1e-12)

    def test_lucht_invert_of_a_tiny_table(self, no_trial_division):
        coeffs = RamanujanCoefficients(1, EXACT, zeros(2, EXACT))
        assert lucht_invert(coeffs).values.tolist() == [0, 0]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("N", [9, 10, 15, 16, 21, 22, 100, 400])
    def test_random_ts_instance_makes_the_trial_division_draws(
            self, seed, N, request):
        want_f, want_g = trial_ts_instance(N, random.Random(seed))
        request.getfixturevalue("no_trial_division")
        f, g = random_ts_instance(N, random.Random(seed))
        assert f.values.tolist() == want_f
        assert g.values.tolist() == want_g

    @pytest.mark.parametrize("N", [-1, 0, 8, 11, 12, 13, 14])
    def test_random_ts_instance_refuses_a_bad_length(self, N,
                                                     no_trial_division):
        with pytest.raises(ValueError, match=f"N={N} violates the parameter"):
            random_ts_instance(N, random.Random(0))


def test_verify_models_builds_one_sieve(monkeypatch):
    sieve, limits = arith_core.sieve_primes, []

    def counted(M):
        limits.append(M)
        return sieve(M)
    _rebind_everywhere(monkeypatch, sieve, counted)
    assert verify.sieve_primes is counted
    verdict = verify.run_suite("models")
    assert verdict["pass"] is True
    assert limits == [20_000]
