import math
import re
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcorr import arith_core
from ramcorr.arith_core import (DTYPES, EXACT, REAL, REAL_TOL, SUPPORT_EPS,
                                TabulatedFunction, agree, collapse,
                                divisors_int, is_prime_int, mobius_int,
                                odd_part, sieve_primes, tabulate, tolerance,
                                v2)
from ramcorr.correlations import correlate_direct
from ramcorr.hlmodels import artifact_pair, singular_series
from ramcorr.ramanujan import _divisor_form
from ramcorr.transforms import _convolve, lambda_tds
from reference_oracles import (division_sweep_mobius, division_sweep_phi,
                               support_pairs)
from trial_division import trial_factorize, trial_phi, trial_von_mangoldt


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


class TestSweepsAndPrefixes:
    """mu and phi by the one multiplicative sweep, against the division
    sweep; mu phi against their product; and ``upto``'s
    prefix tables, against fresh sieves."""

    @staticmethod
    def assert_division_sweep(M):
        t = sieve_primes(M)
        for got, want in ((t.mobius_values, division_sweep_mobius(t)),
                          (t.phi_values, division_sweep_phi(t))):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), M

    def test_mu_and_phi_are_the_division_sweep_to_400(self):
        # the limits where 2 and 3 are large primes, and every split
        # point r = isqrt(M) up to 20
        for M in range(2, 401):
            self.assert_division_sweep(M)

    @settings(max_examples=30, deadline=None)
    @given(M=st.integers(401, 300_000))
    def test_mu_and_phi_are_the_division_sweep(self, M):
        self.assert_division_sweep(M)

    @staticmethod
    def assert_mu_phi(t, parent=None):
        s = t.mu_phi_values
        assert s.dtype == t.phi_values.dtype == np.int32
        want = t.mobius_values.astype(np.int64) * t.phi_values
        assert np.array_equal(s, want), t.limit
        if parent is not None:
            assert np.array_equal(s, parent.mu_phi_values[: t.limit + 1])

    def test_mu_phi_is_mu_times_phi_to_3000(self):
        # every split point r = isqrt(M) up to 54, on fresh sieves and on
        # the prefix tables of one sieve
        parent = sieve_primes(3000)
        for M in range(2, 3001):
            self.assert_mu_phi(sieve_primes(M))
            self.assert_mu_phi(parent.upto(M), parent)

    @pytest.mark.parametrize("M", [65_536, 65_537, 199_999, 300_000])
    def test_mu_phi_is_mu_times_phi(self, M):
        parent = sieve_primes(300_000)
        self.assert_mu_phi(sieve_primes(M))
        self.assert_mu_phi(parent.upto(M), parent)

    @pytest.mark.parametrize("M", [2, 3, 4, 97, 1000, 65_537, 199_999,
                                   200_000])
    def test_prefix_is_a_fresh_sieve_sharing_memory(self, M):
        parent = sieve_primes(200_000)
        view = parent.upto(M)
        fresh = sieve_primes(M)
        assert view.limit == M
        assert np.array_equal(view.is_prime, fresh.is_prime)
        assert np.array_equal(view.primes, fresh.primes)
        assert np.shares_memory(view.is_prime, parent.is_prime)
        assert np.shares_memory(view.primes, parent.primes)
        for name in ("mobius_values", "phi_values"):
            got, want = getattr(view, name), getattr(fresh, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(got, getattr(parent, name)[: M + 1])
        lam = view.von_mangoldt_values
        assert lam.tobytes() == fresh.von_mangoldt_values.tobytes()
        assert lam.tobytes() == \
            parent.von_mangoldt_values[: M + 1].tobytes()

    def test_prefix_builds_only_its_own_arrays(self):
        parent = sieve_primes(5000)
        view = parent.upto(1000)
        view.mobius_values, view.phi_values, view.von_mangoldt_values
        assert set(vars(parent)) == {"limit", "is_prime", "primes"}
        assert len(view.phi_values) == 1001

    @pytest.mark.parametrize("M", [-1, 0, 1, 5001])
    def test_prefix_limits_outside_the_table_are_refused(self, M):
        with pytest.raises(ValueError,
                           match=rf"^prefix limit {M} outside \[2, 5000\]$"):
            sieve_primes(5000).upto(M)


class TestPointwiseFunctions:
    def test_mobius_values(self, table_200):
        mu = table_200.mobius_values
        for n, want in ((1, 1), (12, 0), (6, 1), (30, -1)):
            assert mu[n] == mobius_int(n) == want

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

    def test_mobius_rejects_out_of_range(self):
        # single integers take trial division, which starts at 1
        for n in (0, -1):
            with pytest.raises(ValueError,
                               match=f"^naturals start at 1, got {n}$"):
                mobius_int(n)

    def test_phi_small(self, table_200):
        assert table_200.phi_values[1] == 1
        assert table_200.phi_values[9] == 6

    def test_phi_against_gcd_count(self, table_200):
        count = sum(1 for j in range(1, 106) if gcd(j, 105) == 1)
        assert table_200.phi_values[105] == count == 48

    def test_phi_table_matches_pointwise(self, table_2k):
        phi = table_2k.phi_values
        for n in range(1, 2001):
            assert int(phi[n]) == trial_phi(n), n

    def test_von_mangoldt(self, table_200):
        lam = table_200.von_mangoldt_values
        assert lam[8] == pytest.approx(math.log(2))
        assert lam[1] == 0.0
        assert lam[6] == 0.0

    def test_von_mangoldt_positive_iff_prime_power(self, table_2k):
        lam = table_2k.von_mangoldt_values
        for n in range(1, 2001):
            want = trial_von_mangoldt(n)
            assert (lam[n] > 0) == (want > 0), n
            assert lam[n] == pytest.approx(want), n

    def test_von_mangoldt_prime_powers_copy_the_prime_bitwise(self):
        # one log source: Lambda(p^k) is the float of Lambda(p), bit for bit
        table = sieve_primes(200_000)
        lam = table.von_mangoldt_values
        small = table.primes[table.primes <= math.isqrt(table.limit)]
        for p in small.tolist():
            pk = p * p
            while pk <= table.limit:
                assert lam[pk].tobytes() == lam[p].tobytes(), (p, pk)
                pk *= p

    def test_kappa(self, table_200):
        kap = tabulate("kappa", 200, table_200)
        assert (kap[1], kap[12], kap[49]) == (1, 6, 7)

    def test_kappa_divides_and_squarefree(self, table_20k):
        kap = tabulate("kappa", 10 ** 4, table_20k)
        mu = table_20k.mobius_values
        for n, k in support_pairs(kap):
            assert n % k == 0
            assert mu[k] != 0
        assert len(kap.support()) == 10 ** 4


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


class TestIntUtilities:
    def test_mobius_int_matches_sieved(self, table_2k):
        mu = table_2k.mobius_values
        for n in range(1, 2001):
            assert mobius_int(n) == mu[n], n

    def test_divisors_int(self):
        assert divisors_int(1) == (1,)
        assert divisors_int(12) == (1, 2, 3, 4, 6, 12)

    def test_is_prime_int(self):
        for n in range(2000):
            assert is_prime_int(n) == trial_division_is_prime(n)


def divisors_from(fac):
    divs = [1]
    for p, e in fac:
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return tuple(sorted(divs))


def mobius_from(fac):
    return 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)


# 2**31 - 1 is prime, 10**12 = 2**12 5**12, the third is a product of two
# primes near 10**6
LARGE = [2 ** 31 - 1, 10 ** 12, 999_983 * 1_000_003]


class TestOneFactorizer:
    """The four single-integer helpers read one trial-division loop,
    ``_prime_factors``; each is checked against the factorisation of the
    test oracle ``trial_factorize``."""

    @staticmethod
    def check_helpers(n):
        fac = trial_factorize(n)
        assert list(arith_core._prime_factors(n)) == fac
        assert is_prime_int(n) is (fac == [(n, 1)])
        assert mobius_int(n) == mobius_from(fac)
        divs = divisors_int(n)
        assert divs == divisors_from(fac)
        mu = {e: mobius_from(trial_factorize(n // e)) for e in divs}
        assert _divisor_form(n) == tuple((e, e * mu[e]) for e in divs
                                         if mu[e])

    def test_helpers_up_to_3000(self):
        for n in range(1, 3001):
            self.check_helpers(n)

    @pytest.mark.parametrize("n", LARGE)
    def test_helpers_at_large_n(self, n):
        self.check_helpers(n)

    @pytest.mark.parametrize("n", [0, -3])
    def test_refusals(self, n):
        assert is_prime_int(n) is False
        for helper in (lambda m: list(arith_core._prime_factors(m)),
                       mobius_int, divisors_int, _divisor_form):
            with pytest.raises(ValueError,
                               match=f"naturals start at 1, got {n}"):
                helper(n)


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
        assert f.support().tolist() == [3, 5, 7, 11, 13, 17, 19]

    def test_int64_store_reads_as_python_ints(self):
        store = np.array([0, 5, 0, -7, 2 ** 63 - 1, 0, -2 ** 63, 1],
                         dtype=np.int64)
        f = TabulatedFunction(7, EXACT, store)
        before = (support_pairs(f), [f[n] for n in range(1, 8)])
        vals = f.values
        assert vals.dtype == object and vals.tolist() == store.tolist()
        assert all(type(v) is int for v in vals)
        assert f.values is vals and f._data is vals  # the store is dropped
        late = TabulatedFunction(7, EXACT, store)
        late.values
        for g in (f, late):  # read from the store before, the array after
            assert (support_pairs(g), [g[n] for n in range(1, 8)]) == before
        assert before[0] == [(1, 5), (3, -7), (4, 2 ** 63 - 1),
                             (6, -2 ** 63), (7, 1)]
        assert all(type(v) is int for _, v in before[0] + support_pairs(late))
        assert all(type(v) is int for v in before[1])

    def test_numpy_integer_entries_become_python_ints(self):
        # numpy scalars would compute in wrapping 64-bit arithmetic
        f = TabulatedFunction(4, EXACT, [0] + [np.int64(3_000_000_000)] * 4)
        assert all(type(v) is int for v in f.values)
        assert _convolve(f._data, f._data, 4, EXACT)[4] == 27 * 10 ** 18
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


# entries of the four table forms, zero half the time; the floats include
# SUPPORT_EPS, the float on either side of it, and their negatives
_EPS_EDGES = [s * e for s in (1.0, -1.0)
              for e in (np.nextafter(SUPPORT_EPS, 0.0), SUPPORT_EPS,
                        np.nextafter(SUPPORT_EPS, 1.0))]
_ENTRIES = {
    "int64 store": st.integers(-2 ** 63, 2 ** 63 - 1),
    "object ints": st.integers(),
    "fractions": st.fractions(),
    "float64": st.one_of(st.sampled_from(_EPS_EDGES + [-0.0]),
                         st.floats(allow_nan=False, width=64)),
}


@st.composite
def _forms_and_tables(draw):
    form = draw(st.sampled_from(sorted(_ENTRIES)))
    entries = draw(st.lists(st.one_of(st.just(0), _ENTRIES[form]),
                            min_size=1, max_size=40))
    values = [0] + entries
    if form == "int64 store":
        return form, TabulatedFunction(len(entries), EXACT,
                                       np.array(values, dtype=np.int64))
    kind = REAL if form == "float64" else EXACT
    return form, TabulatedFunction(len(entries), kind, values)


@settings(max_examples=300, deadline=None)
@given(drawn=_forms_and_tables(), data=st.data())
def test_support_arrays_are_a_scan_of_the_values(drawn, data):
    form, t = drawn
    scan = {n: t[n] for n in range(1, t.limit + 1)}
    nonzero = [n for n, v in scan.items() if v != 0]
    for eps in (0.0, SUPPORT_EPS):
        want = [n for n in nonzero
                if t.is_exact or not eps or abs(scan[n]) > eps]
        pts = t.support(eps)
        assert pts.dtype == np.int64 and pts.tolist() == want
    assert t.is_zero() == (not want)  # want is support(SUPPORT_EPS)
    N = data.draw(st.integers(-2, t.limit), label="N")
    assert t.support_upto(N).tolist() == [n for n in nonzero if n <= N]
    pts = t.support()
    vals = t[pts]
    assert isinstance(vals, np.ndarray) and vals.dtype == DTYPES[t.kind]
    assert vals.tolist() == [scan[n] for n in nonzero]
    if t.is_exact:  # Python scalars: NumPy integers wrap at 64 bits
        assert all(type(v) in (int, Fraction) for v in vals)
    bad = data.draw(st.sampled_from([0, -1, t.limit + 1, 2 ** 40]),
                    label="bad")
    where = data.draw(st.integers(0, len(pts)), label="where")
    with pytest.raises(ValueError, match=re.escape(
            f"argument {bad} outside [1, {t.limit}]")):
        t[np.insert(pts, where, bad)]
    # none of these reads builds the object array behind the caller
    assert (t._store is not None) == (form == "int64 store")


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
