"""Each expansion formula has one body: the divisor form of c_q
(``ramanujan._divisor_form``), one ``ramanujan_expand_range`` for both
domains, and the truncation tail through the direct route.  The earlier
per-site bodies are kept here as oracles, and must agree with the shared
ones in value and Python type (Real values to the bit); golden files pin
the CLI outputs that read these formulas."""

import math
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from ramcorr.arith_core import (EXACT, REAL, TabulatedFunction, divisors_int,
                                mobius_int, tabulate)
from ramcorr.cli import main
from ramcorr.correlations import (_class_sum, correlate_expansion,
                                  truncation_difference)
from ramcorr.ramanujan import (RamanujanCoefficients, _divisor_form,
                               _ramanujan_block, ramanujan_expand_range,
                               ramanujan_sum, ramanujan_sum_table,
                               universal_period, wintner_coefficients)
from ramcorr.transforms import (TruncatedDivisorSum, eratosthenes_transform,
                                lambda_tds)

DATA = Path(__file__).parent / "data"


# ----------------------------------------------------------------------
# the separate bodies each formula had before it was written once
# ----------------------------------------------------------------------

def gcd_divisor_ramanujan_sum(q, a):
    """c_q(a) as the sum of d mu(q/d) over d | gcd(q, a mod q)."""
    total = 0
    for d in divisors_int(gcd(q, a % q)):
        m = mobius_int(q // d)
        if m:
            total += d * m
    return total


def block_loop(q, n):
    """(c_q(0), ..., c_q(n-1)): d mu(q/d) added on the multiples of d."""
    tab = [0] * n
    for d in divisors_int(q):
        m = mobius_int(q // d)
        if m:
            for r in range(0, n, d):
                tab[r] += d * m
    return tuple(tab)


def list_tiling_expand_range(coeffs, a_max):
    """The batch expansion with a Python-list body for ExactInt and a
    numpy tiling body for Real."""
    support = coeffs.support()

    def period(q):
        return block_loop(q, min(q, a_max + 1))

    if coeffs.is_exact:
        L = math.lcm(*(v.denominator for _, v in support)) if support else 1
        acc = [0] * (a_max + 1)
        for q, v in support:
            w = int(v * L)
            block = [w * c for c in period(q)]
            ext = block * (a_max // q + 1)
            acc = [x + y for x, y in zip(acc, ext)]
        out = [0] * (a_max + 1)
        for a in range(1, a_max + 1):
            x = acc[a]
            out[a] = x // L if x % L == 0 else Fraction(x, L)
        return out
    acc_f = np.zeros(a_max + 1, dtype=np.float64)
    for q, v in support:
        block_f = np.asarray(period(q), dtype=np.float64)
        acc_f += v * np.tile(block_f, a_max // q + 2)[: a_max + 1]
    acc_f[0] = 0.0
    return acc_f


def divisor_loop_expansion(f, g, N, a):
    """The expansion route with its own divisor/Mobius loop per q and the
    exact total collapsed through Fraction."""
    fvals = f.values[: N + 1]
    sums = {}
    total = 0
    for q, ghat in wintner_coefficients(g).support():
        inner = 0
        for e in divisors_int(q):
            m = mobius_int(q // e)
            if m:
                if e not in sums:
                    sums[e] = _class_sum(fvals, a, e)
                inner += e * m * sums[e]
        total += ghat * inner
    if f.is_exact and g.is_exact:
        t = Fraction(total)
        return int(t) if t.denominator == 1 else t
    return float(total)


def loop_truncation_difference(f, g_source, N, a):
    """The tail sum over N < d <= N + a with its own class-sum loop."""
    et = eratosthenes_transform(g_source, N + a)
    fvals = f.values[: N + 1]
    acc = 0
    for d in range(N + 1, N + a + 1):
        gpd = et.values[d]
        if gpd:
            acc += gpd * _class_sum(fvals, a, d)
    return acc


# ----------------------------------------------------------------------
# seeded tables
# ----------------------------------------------------------------------

def seeded_table(rng, M, kind, cls=TabulatedFunction, density=0.6):
    vals = [0] * (M + 1)
    for n in range(1, M + 1):
        if rng.random() < density:
            vals[n] = (rng.choice([-7, -3, -1, 1, 2, 5]) if kind == EXACT
                       else rng.uniform(-3.0, 3.0))
    return cls(M, kind, vals)


def seeded_coefficients(rng, D):
    """Exact coefficient tables from a TDS, and raw rational ones whose
    values are not all integral at every a."""
    g = seeded_table(rng, D, EXACT, cls=TruncatedDivisorSum, density=0.3)
    raw = [0] * (D + 1)
    for q in rng.sample(range(1, D + 1), min(D, 25)):
        raw[q] = Fraction(rng.choice([-5, -2, 1, 3]), rng.randint(1, 30))
    return wintner_coefficients(g), RamanujanCoefficients(D, EXACT, raw)


def same_value_and_type(got, want):
    assert type(got) is type(want), (got, want)
    if isinstance(want, float):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    else:
        assert got == want


# ----------------------------------------------------------------------
# the divisor form
# ----------------------------------------------------------------------

@pytest.mark.parametrize("q", [1, 2, 4, 6, 12, 30, 97, 360, 2310, 9973])
def test_divisor_form_lists_the_nonzero_weights_in_ascending_e(q):
    want = tuple((e, e * mobius_int(q // e)) for e in divisors_int(q)
                 if mobius_int(q // e))
    assert _divisor_form(q) == want
    assert all(type(e) is int and type(w) is int for e, w in want)


def test_ramanujan_sum_matches_the_gcd_divisor_body():
    rng = random.Random(11)
    for q in range(1, 241):
        for a in [*range(0, 2 * q + 2), *(rng.randint(-10 ** 30, 10 ** 30)
                                         for _ in range(6))]:
            got = ramanujan_sum(q, a)
            assert got == gcd_divisor_ramanujan_sum(q, a), (q, a)
            assert type(got) is int


def test_blocks_match_the_block_loop():
    for q in range(1, 301):
        table = ramanujan_sum_table(q)
        assert table == block_loop(q, q)
        assert all(type(c) is int for c in table)
        for n in range(1, q + 1) if q <= 60 else (1, 2, q // 2 + 1, q):
            block = _ramanujan_block(q, n)
            assert block.dtype == np.int64
            assert tuple(block.tolist()) == block_loop(q, n), (q, n)


# ----------------------------------------------------------------------
# one expand-range body for both domains
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_exact_expand_range_matches_the_list_body(seed):
    rng = random.Random(seed)
    D = rng.randint(5, 160)
    for coeffs in seeded_coefficients(rng, D):
        for a_max in (1, 2, 7, D // 2 + 1, D, 2 * D + 3):
            got = ramanujan_expand_range(coeffs, a_max)
            want = list_tiling_expand_range(coeffs, a_max)
            assert type(got) is list and len(got) == a_max + 1
            for x, y in zip(got, want):
                same_value_and_type(x, y)


def test_exact_expand_range_of_the_zero_table():
    zero = RamanujanCoefficients(9, EXACT, [0] * 10)
    assert ramanujan_expand_range(zero, 5) == [0] * 6
    assert list_tiling_expand_range(zero, 5) == [0] * 6


@pytest.mark.parametrize("seed", range(4))
def test_real_expand_range_is_bitwise_the_tiling_body(seed, table_2k):
    rng = random.Random(100 + seed)
    D = rng.randint(20, 600)
    tables = [wintner_coefficients(lambda_tds(D, table_2k)),
              wintner_coefficients(
                  seeded_table(rng, D, REAL, cls=TruncatedDivisorSum))]
    for coeffs in tables:
        for a_max in (1, 3, D // 3 + 1, D, 2 * D):
            got = ramanujan_expand_range(coeffs, a_max)
            want = list_tiling_expand_range(coeffs, a_max)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed, fkind, gkind", [
    (0, EXACT, EXACT), (1, REAL, REAL), (2, EXACT, REAL), (3, REAL, EXACT)])
def test_correlate_expansion_matches_the_divisor_loop(seed, fkind, gkind):
    rng = random.Random(seed)
    for _ in range(8):
        N = rng.randint(1, 120)
        f = seeded_table(rng, N, fkind)
        g = seeded_table(rng, rng.randint(1, 90), gkind,
                         cls=TruncatedDivisorSum, density=0.4)
        U = universal_period(N)
        for a in (1, 2, rng.randint(3, 500), U + 1, 10 ** 40 + 7):
            same_value_and_type(correlate_expansion(f, g, N, a),
                                divisor_loop_expansion(f, g, N, a))


# ----------------------------------------------------------------------
# the truncation tail through the direct route
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed, fkind, gkind", [
    (0, EXACT, EXACT), (1, REAL, REAL), (2, EXACT, REAL), (3, REAL, EXACT)])
def test_truncation_difference_matches_the_loop(seed, fkind, gkind):
    rng = random.Random(seed)
    for _ in range(30):
        N = rng.randint(2, 150)
        a = rng.choice([rng.randint(1, N), rng.randint(N, 2 * N + 40)])
        f = seeded_table(rng, N, fkind)
        g = seeded_table(rng, N + a, gkind)
        got = truncation_difference(f, g, N, a)
        want = loop_truncation_difference(f, g, N, a)
        if f.is_exact and g.is_exact:
            same_value_and_type(got, want)
        else:
            # the loop returned numpy or Python floats; the direct route
            # returns a Python float with the same bits
            assert type(got) is float
            assert (np.float64(got).tobytes()
                    == np.float64(want).tobytes()), (N, a)


def test_truncation_difference_of_von_mangoldt(table_2k):
    lam = tabulate("lambda", 1100, table_2k)
    for N, a in ((1000, 2), (1000, 3), (1000, 10), (900, 97), (500, 600)):
        got = truncation_difference(lam, lam, N, a)
        want = loop_truncation_difference(lam, lam, N, a)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ----------------------------------------------------------------------
# CLI outputs that read these formulas, generated before the change
# ----------------------------------------------------------------------

GOLDEN_CALLS = [
    ("golden_correlate_direct.csv", 0,
     ["correlate", "--f", "odd_primes_log", "--g", "lambdaN", "--N", "200",
      "--shifts", "1,2,7,U+1,U+2,U+7"]),
    ("golden_correlate_expansion.csv", 0,
     ["correlate", "--f", "odd_primes_log", "--g", "lambdaN", "--N", "200",
      "--shifts", "1,2,7,U+1,U+2,U+7", "--mode", "expansion"]),
    ("golden_correlate_exact_expansion.json", 0,
     ["correlate", "--f", "mobius", "--g", "golden_seeded_exact.tds",
      "--N", "120", "--shifts", "1,2,3,U+1,U+2", "--mode", "expansion",
      "--format", "json"]),
    ("golden_verify_expansion.json", 0,
     ["verify", "expansion", "--tds", "golden_seeded_exact.tds"]),
    ("golden_verify_expansion_perturbed.json", 1,
     ["verify", "expansion", "--tds", "golden_seeded_exact.tds",
      "--coeffs", "golden_seeded_exact_perturbed.coeffs"]),
    ("golden_verify_lucht.json", 0,
     ["verify", "lucht", "--tds", "golden_seeded_exact.tds"]),
    ("golden_verify_lucht_perturbed.json", 1,
     ["verify", "lucht", "--coeffs",
      "golden_seeded_exact_perturbed.coeffs"]),
    ("golden_verify_models.json", 0, ["verify", "models", "--seed", "0"]),
] + [
    # every suite's passing verdict, written before verify's ledger
    (f"golden_verify_{suite}_seed{seed}.json", 0,
     ["verify", suite, "--seed", str(seed)])
    for suite in ("orthogonality", "expansion", "lucht", "closure", "periods",
                  "identities", "entanglement", "models")
    for seed in (0, 1) if (suite, seed) != ("models", 0)
]


@pytest.mark.parametrize("golden, code, argv", GOLDEN_CALLS,
                         ids=[c[0] for c in GOLDEN_CALLS])
def test_cli_output_bytes_match_the_golden_file(golden, code, argv,
                                                monkeypatch, tmp_path):
    # inputs are named relative to tests/data, as they were when the
    # golden files were written (the correlate JSON records --g as given)
    monkeypatch.chdir(DATA)
    out = tmp_path / golden
    assert main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == (DATA / golden).read_bytes()
