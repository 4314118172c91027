"""The sqrt(M)-split sweeps (sieve, the one multiplicative sweep behind
mu, phi, mu phi and kappa, and the convolution kernel behind the
Eratosthenes transform and the divisor sums) against
trial-division oracles and the plain per-point loops they replace, and a
guard on the number of Python-level steps they take."""

import math
import random
import sys
import tracemalloc
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcorr import arith_core, transforms
from ramcorr.arith_core import (EXACT, REAL, SIEVE_CAP, PrimeTable,
                                TabulatedFunction, capped_sieve,
                                divisors_int, is_prime_int, mobius_int,
                                sieve_primes, tabulate, zeros)
from ramcorr.cli import main
from ramcorr.hlmodels import artifact_pair, model_chain, singular_series
from ramcorr.transforms import (TruncatedDivisorSum, eratosthenes_transform,
                                evaluate_tds_range, lambda_tds, odd_lift,
                                read_tds, truncate)

# just below, at and just above the squares of 2, 3, 5, 7, plus 1000, 1001
# and one larger limit; and prime powers p^k, where the sweeps' last pass
# over the multiples of p^k reaches the limit itself
SPLIT_LIMITS = [2, 3, 4, 8, 9, 10, 16, 24, 25, 26, 27, 32, 48, 49, 50, 81,
                97, 121, 125, 128, 243, 343, 1000, 1001, 1024, 20000]
ORACLE_TOP = max(SPLIT_LIMITS)


def phi_by_gcd_count(n):
    return sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)


@cache
def oracles():
    """Trial-division mu, phi and kappa on [0..ORACLE_TOP].

    phi is the gcd count up to 1001 and above that the Mobius divisor sum
    n * sum over d | n of mu(d)/d, both free of any sieve; the gcd count
    is also checked at a sample above 1001 (see the test)."""
    n_all = range(ORACLE_TOP + 1)
    mu = [0] + [mobius_int(n) for n in n_all[1:]]
    phi = [0] + [phi_by_gcd_count(n) if n <= 1001 else
                 sum(mobius_int(d) * (n // d) for d in divisors_int(n))
                 for n in n_all[1:]]
    kap = [0] + [prod(p for p in divisors_int(n) if is_prime_int(p))
                 for n in n_all[1:]]
    return mu, phi, kap


@pytest.mark.parametrize("M", SPLIT_LIMITS)
def test_sieve_arrays_match_trial_division(M, table_20k):
    mu, phi, kap = oracles()
    t = sieve_primes(M)
    assert t.is_prime.tolist() == [is_prime_int(n) for n in range(M + 1)]
    assert t.mobius_values.tolist() == mu[: M + 1]
    assert t.phi_values.tolist() == phi[: M + 1]
    assert t.mu_phi_values.tolist() == [m * f for m, f in
                                        zip(mu[: M + 1], phi[: M + 1])]
    # the API arrays are the narrow arrays the sweeps run on (phi and mu
    # phi are int64 only from limit 2**31 up); consumers widen what they
    # multiply
    assert t.mobius_values.dtype == np.int8
    assert t.phi_values.dtype == t.mu_phi_values.dtype == np.int32
    for table in (t, table_20k):  # kappa sweeps to M below the table limit
        got = tabulate("kappa", M, table).values
        assert got.tolist() == kap[: M + 1]
        assert all(type(v) is int for v in got)


def test_phi_gcd_count_at_the_top():
    phi = oracles()[1]
    rng = random.Random(5)
    sample = {*range(ORACLE_TOP - 40, ORACLE_TOP + 1),
              *range(141 ** 2 - 3, 141 ** 2 + 4),
              *rng.sample(range(1002, ORACLE_TOP), 60)}
    for n in sorted(sample):
        assert phi[n] == phi_by_gcd_count(n), n


def per_d_range(g, m_max):
    """The plain divisor sieve: one slice per support point, ascending d."""
    out = zeros(m_max + 1, g.kind)
    vals = g.values[: m_max + 1]
    for d in np.flatnonzero(vals[1:]) + 1:
        out[d::d] += vals[d]
    return out


# 1, 2, 3, and a perfect square with its neighbours, below and above the
# cutoff 2000 of the Real tables
RANGE_LIMITS = [1, 2, 3, 1935, 1936, 1937, 4095, 4096, 4097]


@pytest.mark.parametrize("m_max", RANGE_LIMITS)
def test_range_is_bitwise_the_per_d_sieve_real(m_max, table_20k):
    lam = lambda_tds(2000, table_20k)
    for g in (lam, odd_lift(lam)):
        got = evaluate_tds_range(g, m_max)
        assert got.dtype == np.float64
        assert got.tobytes() == per_d_range(g, m_max).tobytes()


def random_exact_tds(rng, cutoff, density, top=9):
    vals = [0] + [rng.randint(-top, top) if rng.random() < density else 0
                  for _ in range(cutoff)]
    vals[-1] = vals[-1] or 7  # keep the top of the table in the support
    return TruncatedDivisorSum(cutoff, EXACT, vals)


@pytest.mark.parametrize("m_max", RANGE_LIMITS + [400, 399, 401])
def test_range_equals_the_per_d_sieve_exact(m_max):
    rng = random.Random(m_max)
    for cutoff, density in ((m_max + rng.randint(1, 50), 0.5),
                            (m_max + 1, 1.0), (2 * m_max + 3, 0.05),
                            (max(1, m_max // 3), 0.7)):
        g = random_exact_tds(rng, cutoff, density)
        got = evaluate_tds_range(g, m_max)
        want = per_d_range(g, m_max)
        assert got.dtype == object
        assert got.tolist() == want.tolist()
        assert all(type(v) is int for v in got)


def test_divisor_sum_transform_is_the_range_kernel(rng, table_2k):
    for F in (TabulatedFunction(300, EXACT,
                                [0] + [rng.randint(-5, 5) for _ in range(300)]),
              tabulate("lambda", 2000, table_2k)):
        got = evaluate_tds_range(F, F.limit)
        want = per_d_range(F, F.limit)
        if F.kind == REAL:
            assert got.tobytes() == want.tobytes()
        else:
            assert got.tolist() == want.tolist()


@pytest.fixture(scope="module")
def table_200k():
    return sieve_primes(200_000)


@pytest.mark.parametrize("name", ["phi", "kappa", "mobius", "mu_squared"])
def test_transform_round_trip_at_two_hundred_thousand(name, table_200k):
    F = tabulate(name, 200_000, table_200k)
    back = evaluate_tds_range(eratosthenes_transform(F), F.limit)
    assert back.tolist() == F.values.tolist()


# ----------------------------------------------------------------------
# the convolution kernel against the per-d loops it replaced
# ----------------------------------------------------------------------

def in_place_et(F, M):
    """The in-place transform sweep: in ascending d, once every proper
    divisor of d has been subtracted the slot holds F'(d); it is then
    pushed off all higher multiples."""
    et = F.values[: M + 1].copy()
    for d in range(1, M // 2 + 1):
        v = et[d]
        if v:
            et[2 * d:: d] -= v
    return et


def convolve(F, G=None):
    """F * G on [1..F.limit] (G None: F * 1) by the kernel, as a table of
    F's kind, with the int64 result of the lane as its store."""
    M = F.limit
    return TabulatedFunction(M, F.kind, transforms._convolve(
        F._data, None if G is None else G._data, M, F.kind))


def per_d_convolve(F, G, M):
    """The plain Dirichlet product: one slice per d with F(d) != 0."""
    kind = EXACT if F.is_exact and G.is_exact else REAL
    fv = F.values[: M + 1].astype(object if kind == EXACT else np.float64)
    gv = G.values[: M + 1].astype(fv.dtype)
    out = zeros(M + 1, kind)
    for d in range(1, M + 1):
        if fv[d]:
            out[d::d] += fv[d] * gv[1: M // d + 1]
    return out


def assert_exact_equal(got, want):
    assert got.dtype == object
    assert got.tolist() == want.tolist()
    assert all(type(v) is int for v in got)


@pytest.mark.parametrize("M", SPLIT_LIMITS)
def test_convolution_kernel_equals_the_per_d_loops_exact(M):
    rng = random.Random(M)
    # 10**30 is past int64, so only object arithmetic gets it right
    for density, top in ((1.0, 9), (0.3, 10 ** 30), (0.02, 9)):
        F = random_exact_tds(rng, M, density, top)
        G = random_exact_tds(rng, M, 1.0 - density / 2, top)
        assert_exact_equal(eratosthenes_transform(F).values,
                           in_place_et(F, M))
        assert_exact_equal(convolve(F, G).values, per_d_convolve(F, G, M))


@pytest.mark.parametrize("M", SPLIT_LIMITS)
def test_dirichlet_convolve_is_bitwise_the_per_d_loop_real(M, table_20k):
    rng = random.Random(M)
    lam = tabulate("lambda", M, table_20k)
    noise = TabulatedFunction(M, REAL, [0.0] + [
        rng.uniform(-1, 1) if rng.random() < 0.5 else 0.0 for _ in range(M)])
    for F, G in ((lam, noise), (noise, lam), (noise, noise)):
        got = convolve(F, G).values
        assert got.dtype == np.float64
        assert got.tobytes() == per_d_convolve(F, G, M).tobytes()


def per_d_fixed_width(a, b, M):
    """The plain per-d loop on the fixed-width lanes: in ascending d, one
    slice per d <= min(M, a's limit) with a[d] != 0, into an int64 out
    for integer ``a`` and a float64 one for float ``a``; a[d] is read as
    a Python scalar, whose product with an int64 or float64 slice keeps
    the slice's dtype under either NumPy casting rule."""
    out = np.zeros(M + 1, dtype=np.int64 if a.dtype.kind == "i"
                   else np.float64)
    for d in range(1, min(M, a.size - 1) + 1):
        v = a[d].item()
        if v:
            out[d::d] += v if b is None else v * b[1: M // d + 1]
    return out


@st.composite
def kernel_operands(draw):
    """(a, b, M): ``a`` on [0..L] and ``b`` on [0..M] (or None), with
    L = M or L < M, as ``evaluate_tds_range`` passes past a table's
    cutoff.  Integer: an int8 ``a`` of mu-like and wide entries against
    int64 ``b`` values past int8, int16 and int32, whose products wrap
    if taken in a's narrow type; float: entries with zeros and -0.0,
    or ``lambda_tds``'s table, whose -0.0 entries sit at d = 1 and the
    non-squarefree d."""
    M = draw(st.integers(1, 400))
    L = draw(st.sampled_from([M, draw(st.integers(1, M))]))
    density = draw(st.sampled_from([1.0, 0.5, 0.05]))

    def entries(size, values):
        return [0] + [draw(values) if draw(st.floats(0, 1)) < density
                      else 0 for _ in range(size)]
    if draw(st.booleans()):
        a = np.array(entries(L, st.sampled_from([1, -1, 127, -128, 100])),
                     dtype=np.int8)
        b = np.array(entries(M, st.sampled_from(
            [1, -1, 128, -129, 300, -30_000, 2 ** 31, -(2 ** 40)])),
            dtype=np.int64)
    else:
        if draw(st.booleans()):
            a = lambda_tds(max(L, 2))._data[: L + 1]
        else:
            a = np.array(entries(L, st.sampled_from([-0.0, 0.5, -3.25])
                                 | st.floats(-1e6, 1e6)), dtype=np.float64)
        b = np.array(entries(M, st.floats(-1e6, 1e6)), dtype=np.float64)
    return a, None if draw(st.booleans()) else b, M


@settings(max_examples=200, deadline=None)
@given(kernel_operands())
def test_fixed_width_kernel_is_bitwise_the_per_d_loop(operands):
    # every term, in ascending d per slot: int64 sums equal, float64
    # sums equal to the bit, whatever the NumPy version's casting rule
    a, b, M = operands
    kind = EXACT if a.dtype.kind == "i" else REAL
    got = transforms._convolve(a, b, M, kind)
    want = per_d_fixed_width(a, b, M)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["phi", "kappa", "mobius", "mu_squared"])
def test_transform_equals_the_in_place_sweep_at_two_hundred_thousand(
        name, table_200k):
    F = tabulate(name, 200_000, table_200k)
    assert_exact_equal(eratosthenes_transform(F, table=table_200k).values,
                       in_place_et(F, F.limit))


# ----------------------------------------------------------------------
# the multiple-sum kernel (the transpose of the convolution kernel)
# against the per-q loop of the Wintner and Lucht coefficients
# ----------------------------------------------------------------------

# r**2 - 1, r**2 and r**2 + r for r = 3 and 10, plus the smallest M
MULTIPLE_LIMITS = [1, 2, 3, 8, 9, 10, 99, 100, 110]


def per_q_multiple_sum(w, h, M, zero):
    """out[q] = sum over k <= M/q of w[k] h[qk], one slot at a time: its
    nonzero terms in ascending k, on Python scalars from ``zero``."""
    hv = h.tolist()
    wv = None if w is None else w.tolist()
    out = [zero] * (M + 1)
    for q in range(1, M + 1):
        acc = zero
        for k in range(1, M // q + 1):
            t = hv[q * k] if wv is None else wv[k] * hv[q * k]
            if t:
                acc += t
        out[q] = acc
    return out


def multiple_sum_weights(M, table):
    """w None, w = mu, and random small ints with zeros."""
    rng = random.Random(M)
    return {"one": None, "mu": table.mobius_values[: M + 1],
            "zeros": np.array([0] + [rng.choice([0, 0, -2, 1, 3])
                                     for _ in range(M)], dtype=np.int64)}


@pytest.mark.parametrize("M", MULTIPLE_LIMITS)
def test_multiple_sum_is_bitwise_the_per_q_loop_real(M, table_200):
    rng = random.Random(M)
    # magnitudes over 16 decades, so that another summation order would
    # show in the last bits
    h = np.array([0.0] + [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8)
                          if rng.random() < 0.7 else 0.0 for _ in range(M)])
    for w in multiple_sum_weights(M, table_200).values():
        got = transforms._multiple_sum(w, h, M)
        assert got.dtype == np.float64
        want = np.array(per_q_multiple_sum(w, h, M, 0.0))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("M", MULTIPLE_LIMITS)
def test_multiple_sum_equals_the_per_q_loop_exact(M, table_200):
    rng = random.Random(M)
    # zero Fractions too: a skipped term leaves a slot's type alone, so
    # on the all-zero table every slot stays the int 0
    mixed = [0] + [rng.choice([0, rng.randint(-9, 9), 10 ** 30,
                               Fraction(rng.randint(-9, 9),
                                        rng.randint(1, 9))])
                   for _ in range(M)]
    for entries in (mixed, [0] + [Fraction(0)] * M):
        h = np.empty(M + 1, dtype=object)
        h[:] = entries
        for w in multiple_sum_weights(M, table_200).values():
            got = transforms._multiple_sum(w, h, M)
            assert got.dtype == object
            want = per_q_multiple_sum(w, h, M, 0)
            assert got.tolist() == want
            assert list(map(type, got)) == list(map(type, want))


# ----------------------------------------------------------------------
# the int64 lane of the exact kernel: taken only for int64 inputs whose
# product bound stays below 2**63
# ----------------------------------------------------------------------

@pytest.fixture
def lanes(monkeypatch):
    """Record, for every kernel call on exact inputs, whether it took the
    int64 lane."""
    taken = []
    admit = transforms._int64_lane

    def spy(a, b, M):
        got = admit(a, b, M)
        taken.append(got)
        return got
    monkeypatch.setattr(transforms, "_int64_lane", spy)
    return taken


def assert_exact_values(got, want):
    """Equal exact values, none of them a float or a NumPy scalar."""
    assert got.dtype == object
    assert got.tolist() == want.tolist()
    assert {type(v) for v in got} <= {int, Fraction}


@pytest.mark.parametrize("M", [24, 1001])
def test_fraction_tables_stay_exact(M, lanes):
    # odd halves: int64 conversion would truncate every one of them
    rng = random.Random(M)

    def table(halves):
        vals = [0] + [
            Fraction(2 * rng.randint(-5, 4) + 1, 2) if rng.random() < halves
            else rng.randint(-3, 3) for _ in range(M)]
        if halves:
            vals[M] = Fraction(-3, 2)  # at least one, at a scatter point
        return TruncatedDivisorSum(M, EXACT, vals)
    F, G, ints = table(0.3), table(0.02), table(0.0)
    for a, b in ((F, G), (F, ints), (ints, F)):
        assert_exact_values(convolve(a, b).values, per_d_convolve(a, b, M))
    for g in (F, G):
        assert_exact_values(evaluate_tds_range(g, M), per_d_range(g, M))
    assert_exact_equal(evaluate_tds_range(ints, M), per_d_range(ints, M))
    assert lanes == [False] * 6


@pytest.mark.parametrize("M", [24, 1001])
def test_python_int_tables_take_the_python_int_path(M, lanes, table_2k):
    # an object table of Python ints is not cast to int64: it runs on
    # Python ints and gives the values its int64 store gives on the lane
    rng = random.Random(M)
    F, G = (random_exact_tds(rng, M, 0.6) for _ in range(2))
    Fs, Gs = (TruncatedDivisorSum(M, EXACT, np.array(t.values.tolist(),
                                                     dtype=np.int64))
              for t in (F, G))
    for (a, b), lane in (((F, G), False), ((Fs, Gs), True),
                         ((F, Gs), False)):
        outs = [convolve(a, b), convolve(a),
                eratosthenes_transform(a, table=table_2k)]
        assert lanes == [lane] * 3
        lanes.clear()
        want = [per_d_convolve(F, G, M), per_d_range(F, M),
                in_place_et(F, M)]
        for got, w in zip(outs, want):
            assert got._data.dtype == (np.int64 if lane else object)
            assert_exact_equal(got.values, w)


# M where some n <= M has tau(n) = 2 isqrt(M) divisors (n = 2, 2, 12, 24),
# so the bound is reached: all-constant tables put tau(n) |a| |b| in slot n
@pytest.mark.parametrize("M", [2, 3, 12, 24])
def test_lane_bound_just_below_and_just_above_two_to_the_63(M, lanes):
    terms = 2 * isqrt(M)
    for b in (1, 3, None):
        for above in (False, True):
            top = (2 ** 63 - 1) // (terms * (b or 1)) + above
            for sign in (1, -1):
                F = TruncatedDivisorSum(M, EXACT, np.array(
                    [0] + [sign * top] * M, dtype=np.int64))
                if b is None:
                    got, want = evaluate_tds_range(F, M), per_d_range(F, M)
                else:
                    G = TabulatedFunction(M, EXACT, np.array(
                        [0] + [b] * M, dtype=np.int64))
                    got = convolve(F, G).values
                    want = per_d_convolve(F, G, M)
                assert max(map(abs, want.tolist())) == terms * top * (b or 1)
                assert_exact_equal(got, want)
                assert lanes.pop() is not above, (b, top, sign)


@pytest.mark.parametrize("big", [2 ** 63, 2 ** 64 + 5, -2 ** 63 - 1,
                                 -2 ** 63])
def test_one_entry_past_int64_takes_the_object_lane(big, lanes):
    M = 1000
    rng = random.Random(big)
    for d in (6, 997):  # one slice point, one point of the scatter
        vals = [0] + [rng.randint(-9, 9) for _ in range(M)]
        vals[d] = big
        F = TruncatedDivisorSum(M, EXACT, vals)
        G = TabulatedFunction(M, EXACT, [0] + [1] * M)
        assert_exact_equal(convolve(G, F).values, per_d_convolve(G, F, M))
        assert_exact_equal(evaluate_tds_range(F, M), per_d_range(F, M))
    assert lanes == [False] * 4


@pytest.mark.parametrize("name", ["phi", "kappa", "mobius", "mu_squared"])
def test_exact_transforms_at_two_hundred_thousand_take_the_int64_lane(
        name, table_200k, lanes):
    F = tabulate(name, 200_000, table_200k)
    back = evaluate_tds_range(eratosthenes_transform(F, table=table_200k),
                              F.limit)
    assert lanes == [True, True]
    assert_exact_equal(back, F.values)


@pytest.mark.parametrize("M", [1000, 1001, 20000])
def test_int8_operand_sums_into_int64_like_the_object_lane(M, lanes):
    # the sieve's mu is int8: its entries times int64 entries b[k] must be
    # multiplied and summed in int64, on the slices and on the block
    # branch a[ds] * b[k] alike, whatever the NumPy version's casting
    # rule.  Under NumPy 1.x's value-based casting an int8 gather times
    # b[k] = -128, -30000 or -2**30 computes in int8, int16 or int32 and
    # wraps at a = 127 or -128
    rng = random.Random(M)
    a = np.array([0] + [rng.choice([0, 1, -1, 127, -128, 100])
                        for _ in range(M)], dtype=np.int8)
    b = np.array([0] + [rng.choice([0, 1, 127, -128, 300, -30_000,
                                    -(2 ** 30), 2 ** 40]) for _ in range(M)],
                 dtype=np.int64)
    r = isqrt(M)
    assert np.abs(b[1: M // (r + 1) + 1]).max() > 2 ** 31  # block branch
    # with b, sums past int32; with b None (the divisor sum), past int8
    for bb, past in ((b, 2 ** 31), (None, 127)):
        got = transforms._convolve(a, bb, M, EXACT)
        want = transforms._convolve(a.astype(object), None if bb is None
                                    else bb.astype(object), M, EXACT)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()
        assert max(map(abs, want.tolist())) > past
    assert lanes == [True, False, True, False]


@pytest.mark.parametrize("name", ["mobius", "mu_squared", "phi"])
def test_sieve_functions_tabulate_to_an_int64_store(name, table_20k):
    # a table keeps only an int64 array as its store: the narrow sieve
    # arrays (mu**2 as well) must be widened, or the table holds an
    # object array and leaves the int64 lane
    M = ORACLE_TOP
    F = tabulate(name, M, table_20k)
    assert F._data.dtype == np.int64
    mu, phi, _ = oracles()
    want = {"mobius": mu, "mu_squared": [m * m for m in mu], "phi": phi}
    assert F.values.tolist() == want[name][: M + 1]


@pytest.mark.parametrize("M", [24, 1001])
def test_int64_store_against_python_ints_past_int64(M, lanes):
    # the lane refuses the pair, so both operands run on Python ints: an
    # int64 operand left uncast would overflow against the bigints
    rng = random.Random(M)
    F = TabulatedFunction(M, EXACT, np.array(
        [0] + [rng.randint(-9, 9) for _ in range(M)], dtype=np.int64))
    G = random_exact_tds(rng, M, 0.5, 10 ** 30)
    got = [convolve(a, b) for a, b in ((F, G), (G, F))]
    assert F._data.dtype == np.int64 and lanes == [False, False]
    assert_exact_equal(got[0].values, per_d_convolve(F, G, M))
    assert_exact_equal(got[1].values, per_d_convolve(G, F, M))


def test_stored_tables_go_through_the_kernels_on_their_store(table_2k,
                                                             lanes):
    # transform, truncate, divisor sum, retruncate and odd lift of an
    # int64-stored table keep int64 stores, never building the object
    # array, and give the values of the object path
    M = 2000
    F = tabulate("phi", M, table_2k)
    g = truncate(F, M, table_2k)
    outs = [g, eratosthenes_transform(F, table=table_2k), convolve(g),
            convolve(F, g), transforms.retruncate(g, 3000),
            transforms.retruncate(g, 500), odd_lift(g)]
    assert lanes == [True] * 4
    assert all(t._data.dtype == np.int64 for t in [F, *outs])
    assert_exact_equal(outs[0].values, in_place_et(F, M))
    assert_exact_equal(outs[1].values, outs[0].values)
    assert_exact_equal(outs[2].values, F.values)
    assert_exact_equal(outs[3].values, per_d_convolve(F, g, M))
    assert outs[4].values.tolist() == g.values.tolist() + [0] * 1000
    assert outs[5].values.tolist() == g.values.tolist()[:501]
    odd = [v if n % 2 else 0 for n, v in enumerate(g.values.tolist())]
    assert outs[6].values.tolist() == odd


def test_exact_truncate_stays_small_at_two_hundred_thousand(table_200k):
    # the int64 store from the sieve to g': the d > isqrt(M) half adds
    # strided views of mu, with no index array, gather or support of mu.
    # Traced peak 4.64 MiB (phi's int64 table, the output and one
    # product); 6.93 MiB with one index array and gather per cofactor
    table_200k.mobius_values, table_200k.phi_values  # built beforehand
    tracemalloc.start()
    try:
        truncate(tabulate("phi", 200_000, table_200k), 200_000, table_200k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 2 ** 20


def test_streamed_write_stays_small_at_two_hundred_thousand(table_200k,
                                                            tmp_path):
    # an int64 store is written a window of points at a time, each
    # formatted in numpy and written before the next: 1.07 MiB traced
    # above the live table (traced from the write's start); 6.66 MiB when
    # the whole text was built first
    g = truncate(tabulate("phi", 200_000, table_200k), 200_000, table_200k)
    with open(tmp_path / "phi.tds", "w", encoding="ascii") as fh:
        tracemalloc.start()
        try:
            transforms.write_tds(g, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2 << 20
    text = (tmp_path / "phi.tds").read_text()
    assert text.count("\n") == g.support().size + 1


def test_real_tables_never_ask_for_the_lane(table_2k, lanes):
    F = tabulate("lambda", 2000, table_2k)
    evaluate_tds_range(eratosthenes_transform(F, table=table_2k), F.limit)
    convolve(F, F)
    assert lanes == []


def test_real_transform_of_lambda_within_the_stated_bound(table_200k):
    M = 200_000
    F = tabulate("lambda", M, table_200k)
    got = eratosthenes_transform(F, table=table_200k).values
    mu = np.array(oracles()[0] + [mobius_int(n)
                                  for n in range(ORACLE_TOP + 1, M + 1)])
    want = np.zeros(M + 1)
    want[1:] = -mu[1:] * np.log(np.arange(1, M + 1, dtype=np.float64))
    ones = TabulatedFunction(M, REAL, np.ones(M + 1))
    tau = per_d_range(ones, M)
    mass = per_d_range(TabulatedFunction(M, REAL, np.abs(F.values)), M)
    # the docstring's gamma(tau(n)) * sum |F(n/d)| covers the sum; the
    # stored log p and the reference log n are each within one ulp
    # (2u relative) and sum over d | n of Lambda(n/d) = log n, which adds
    # at most 4u * mass: gamma(tau(n) + 4) * mass covers both
    u, m = 2.0 ** -53, tau + 4
    bound = m * u / (1 - m * u) * mass
    err = np.abs(got - want)
    assert (err[1:] <= bound[1:]).all(), int(np.argmax(err - bound))


def test_transform_without_a_table_refuses_above_the_cap():
    M = SIEVE_CAP + 1
    F = TabulatedFunction(M, REAL, np.zeros(M + 1))  # pages never touched
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{M} exceeds SIEVE_CAP"):
            eratosthenes_transform(F)
        with pytest.raises(ValueError, match=f"{M} exceeds SIEVE_CAP"):
            truncate(F, M)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_capped_sieve_is_the_one_sieve_size_check(monkeypatch, table_200):
    # a passed table is returned as is when it reaches M, refused below M;
    # without one, the cap holds
    assert capped_sieve(200, table_200) is table_200
    assert capped_sieve(7, table_200) is table_200
    with pytest.raises(ValueError,
                       match="^sieve limit 200 below required 201$"):
        capped_sieve(201, table_200)
    assert capped_sieve(1).limit == 2 and capped_sieve(50).limit == 50
    monkeypatch.setattr(arith_core, "SIEVE_CAP", 100)
    assert capped_sieve(300, sieve_primes(300)).limit == 300
    with pytest.raises(ValueError, match="301 exceeds SIEVE_CAP = 100"):
        capped_sieve(301)
    # every entry point that takes a table reports a short one this way
    short = sieve_primes(20)
    for call in (lambda: lambda_tds(30, short),
                 lambda: tabulate("phi", 30, short),
                 lambda: eratosthenes_transform(tabulate("unit", 30),
                                                table=short),
                 lambda: artifact_pair(30, short),
                 lambda: singular_series([2], 30, short),
                 lambda: model_chain(25, [6], short)):
        with pytest.raises(ValueError, match="sieve limit 20 below required"):
            call()


def test_transform_with_a_table_goes_past_the_cap(monkeypatch, table_2k,
                                                   tmp_path):
    monkeypatch.setattr(arith_core, "SIEVE_CAP", 100)
    F = tabulate("phi", 300, table_2k)
    with pytest.raises(ValueError, match="300 exceeds SIEVE_CAP = 100"):
        eratosthenes_transform(F)
    with pytest.raises(ValueError, match="sieve limit 200 below required 300"):
        eratosthenes_transform(F, table=sieve_primes(200))
    want = in_place_et(F, 300)
    assert_exact_equal(eratosthenes_transform(F, table=table_2k).values, want)
    assert_exact_equal(truncate(F, 300, table_2k).values, want)
    # the CLI passes the table it sieved to --sieve-limit
    out = tmp_path / "phi.tds"
    assert main(["transform", "--fn", "phi", "--N", "300", "--sieve-limit",
                 "300", "--out", str(out)]) == 0
    with open(out) as fh:
        assert read_tds(fh).values.tolist() == want.tolist()


def test_sieve_mu_phi_kappa_against_sympy_factorint(table_200k):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    sample = sorted({1, 2, 3 ** 11, 2 ** 17, 199_999, 200_000,
                     *rng.sample(range(3, 200_000), 600)})
    mu, phi = table_200k.mobius_values, table_200k.phi_values
    kap = tabulate("kappa", 200_000, table_200k).values
    for n in sample:
        fac = sympy.factorint(n)
        square_free = all(e == 1 for e in fac.values())
        assert mu[n] == ((-1) ** len(fac) if square_free else 0), n
        assert phi[n] == prod(p ** (e - 1) * (p - 1)
                              for p, e in fac.items()), n
        assert kap[n] == prod(fac), n


def test_factorization_helpers_against_sympy_factorint():
    # the single-integer route: trial division, checked on a sample to 2e5
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    sample = sorted({1, 2, 4, 3 ** 11, 2 ** 17, 443 * 449, 199_999, 200_000,
                     *rng.sample(range(3, 200_001), 400)})
    for n in sample:
        fac = sympy.factorint(n)
        square_free = all(e == 1 for e in fac.values())
        assert mobius_int(n) == ((-1) ** len(fac) if square_free else 0), n
        assert divisors_int(n) == tuple(sympy.divisors(n)), n
        assert is_prime_int(n) == (list(fac.values()) == [1]), n


def test_sieve_von_mangoldt_against_sympy_factorint(table_200k):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    sample = sorted({1, 2, 4, 3 ** 11, 2 ** 17, 443 ** 2, 199_999, 200_000,
                     *rng.sample(range(3, 200_001), 400)})
    lam = table_200k.von_mangoldt_values
    for n in sample:
        fac = sympy.factorint(n)
        want = math.log(next(iter(fac))) if len(fac) == 1 else 0.0
        assert lam[n] == pytest.approx(want, rel=1e-15, abs=0), n


def test_hl_builds_one_sieve_and_its_three_arrays(monkeypatch, tmp_path):
    # one sieve, to max(Q, max N + max a), which builds no array itself:
    # the series reads its prefix to Q (mu phi alone), and the ladder its
    # prefix to max N + max a (mu and Lambda), so no Lambda spans Q
    tables, prefixes = [], []
    upto = PrimeTable.upto

    def sieve(M):
        tables.append(sieve_primes(M))
        return tables[-1]

    def prefix(self, M):
        prefixes.append(upto(self, M))
        return prefixes[-1]
    monkeypatch.setattr(arith_core, "sieve_primes", sieve)
    monkeypatch.setattr(PrimeTable, "upto", prefix)
    assert main(["hl", "--N-list", "1000,3000", "--a-list", "2,3",
                 "--Q", "20000", "--out", str(tmp_path / "hl.csv")]) == 0
    [table] = tables
    assert table.limit == 20_000
    assert set(vars(table)) == {"limit", "is_prime", "primes"}
    built = [(t.limit, set(vars(t)) - {"limit", "is_prime", "primes"})
             for t in prefixes]
    assert built == [(20_000, {"mu_phi_values"}),
                     (3003, {"mobius_values", "von_mangoldt_values"})]


# ----------------------------------------------------------------------
# step-count guard: each sweep executes O(sqrt(M)) lines of Python, not
# one or more per prime or per support point
# ----------------------------------------------------------------------

SWEEPS = {
    arith_core.sieve_primes.__code__: "sieve_primes",
    arith_core._multiplicative.__code__: "_multiplicative",
    transforms._convolve.__code__: "_convolve",
}


def sweep_line_counts(run):
    """Run ``run()``; for every sweep call, (name, limit, lines executed
    in the sweep's own frame)."""
    records = []

    def tracer(frame, event, arg):
        name = SWEEPS.get(frame.f_code)
        if name is None:
            return None
        record = [name, frame.f_locals["M"], 0]
        records.append(record)

        def count(frame, event, arg):
            if event == "line":
                record[2] += 1
            return count
        return count

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(old)
    return records


def test_hl_ladder_sweeps_take_sqrt_steps(tmp_path):
    argv = ["hl", "--N-list", "10000,100000", "--a-list", "3,10,41",
            "--Q", "2000000", "--out", str(tmp_path / "hl.csv")]
    records = sweep_line_counts(lambda: main(argv))
    records += sweep_line_counts(lambda: tabulate("kappa", 200_000))
    records += sweep_line_counts(lambda: main(
        ["transform", "--fn", "phi", "--N", "200000",
         "--out", str(tmp_path / "phi.tds")]))
    # the transform at 2e5 (mu * phi) ran through the kernel, and the one
    # multiplicative sweep built mu phi for the series to Q, mu for the
    # ladder to max N + max a, kappa, and the transform's mu and phi
    assert {limit for name, limit, _ in records
            if name == "_convolve"} >= {200_000}
    assert sorted(limit for name, limit, _ in records
                  if name == "_multiplicative") == [
        100_041, 200_000, 200_000, 200_000, 2_000_000]
    assert {name for name, _, _ in records} == set(SWEEPS.values())
    for name, limit, lines in records:
        # the loops run over the points <= isqrt(limit) (at most isqrt of
        # them) and the cofactors j <= isqrt(limit), a few lines each
        # (3.3 * isqrt at most when written; the per-point loops took
        # over 100 * isqrt at this size)
        assert lines <= 6 * isqrt(limit) + 40, (name, limit, lines)
