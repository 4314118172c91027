"""Reference implementations that no command or suite calls, kept as the
oracles the tests compare a package route against.

class_sum is the class sum S_d(a) one modulus at a time, against the
batched ``correlations._class_sums``; small_shift_difference is the
closed form of the truncation tail for a <= N, against
``correlations.truncation_difference``; half_range_identity_check
reads ``ramanujan.wintner_coefficients`` above half the cutoff, against
g'(q)/q.  support_pairs gives a table's support as the (n, value) pairs
that the loop oracles walk.  full_buffer_singular_series is the truncated
singular series summed as one Q-length array, against the leaf-streamed
``hlmodels.singular_series``; division_sweep_mobius and
division_sweep_phi are the sieve sweeps with a read-modify-write per
large prime and a division per small one, against ``PrimeTable``'s.
"""

from fractions import Fraction

import numpy as np

from ramcorr.arith_core import (PrimeTable, TabulatedFunction, _sqrt_split,
                                agree, collapse)
from ramcorr.hlmodels import _divisors_upto
from ramcorr.ramanujan import wintner_coefficients
from ramcorr.transforms import eratosthenes_transform, truncate

# the window for single coefficients of Real tables, relative (scaled by
# max(1, |x|)); coefficients of exact tables are compared with ==
COEFF_TOL = 1e-12


def support_pairs(t: TabulatedFunction, N: int | None = None) -> list:
    """The (n, value) pairs of t's support (n <= N when N is given), in
    ascending n, as Python scalars."""
    pts = t.support() if N is None else t.support_upto(N)
    return list(zip(pts.tolist(), t[pts].tolist()))


def class_sum(fvals, a: int, d: int):
    """S_d(a): the sum of fvals[n] over 1 <= n < len(fvals) with d | n + a,
    modulus by modulus: one reduction -a mod d (a may be huge) and one
    strided slice-sum; the int 0 when the class has no member in range.
    The per-modulus oracle of ``correlations._class_sums``.
    """
    start = -a % d or d  # least n >= 1 with d | n + a
    return fvals[start::d].sum() if start < len(fvals) else 0


def small_shift_difference(f: TabulatedFunction, g_source: TabulatedFunction,
                           N: int, a: int):
    """Same difference for a <= N, where each tail divisor hits once:

        sum over N < d <= N+a of g'(d) f(d - a).
    """
    if not 1 <= a <= N:
        raise ValueError(f"shift must satisfy 1 <= a <= N, got a={a}, N={N}")
    if f.limit < N:
        raise ValueError(f"f tabulated only to {f.limit}, need {N}")
    if g_source.limit < N + a:
        raise ValueError(
            f"g tabulated only to {g_source.limit}, need N+a={N + a}")
    et = eratosthenes_transform(g_source, N + a)
    acc = 0
    for d in range(N + 1, N + a + 1):
        gpd = et.values[d]
        if gpd:
            acc += gpd * f.values[d - a]
    return collapse(acc, f, g_source)


def half_range_identity_check(g_source: TabulatedFunction, N: int) -> bool:
    """Above half the cutoff a coefficient sees one term only:
    ghat(q) = g'(q)/q for all N/2 < q <= N (within COEFF_TOL relative for
    Real tables)."""
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    g = truncate(g_source, N)
    coeffs = wintner_coefficients(g)
    for q in range(N // 2 + 1, N + 1):
        expected = Fraction(g[q], q) if g.is_exact else g[q] / q
        bound = 0 if g.is_exact else COEFF_TOL * max(1, abs(expected))
        if not agree(coeffs[q], expected, bound):
            return False
    return True


def full_buffer_singular_series(a_list, Q: int, table: PrimeTable) -> list:
    """(truncated sum, Euler product) per shift: the terms
    (c mu^2) / phi^2 of q = 1..Q are filled into one Q-length float64
    buffer, one block of 2**16 q at a time, and the buffer is summed by
    ``np.sum``; phi^2 is rebuilt for every shift."""
    mu, phi = table.mobius_values, table.phi_values
    primes = table.primes[: np.searchsorted(table.primes, Q, side="right")]
    p = primes.astype(np.float64)
    c = np.zeros(Q + 1, dtype=np.float64)
    out = []
    for a in a_list:
        divisors, divides = _divisors_upto(a, Q, primes)
        for lo in range(1, Q + 1, 1 << 16):
            hi = min(lo + (1 << 16), Q + 1)
            blk = c[lo: hi]
            blk[:] = mu[lo: hi]
            for d in divisors[1:]:
                k0, k1 = -(-lo // d), (hi - 1) // d + 1
                if k0 < k1:
                    blk[d * k0 - lo:: d] += d * mu[k0: k1].astype(np.float64)
            blk *= mu[lo: hi] != 0
            phi2 = phi[lo: hi].astype(np.float64)
            phi2 *= phi2
            blk /= phi2
        cp = np.where(divides, p - 1.0, -1.0)
        out.append((float(np.sum(c[1:])),
                    float(np.prod(1.0 + cp / (p - 1.0) ** 2))))
    return out


def division_sweep_mobius(table: PrimeTable) -> np.ndarray:
    """mu on [0..limit] as int8: a sign flip and a square wipe per small
    prime, then a sign flip of every multiple j p of each large p."""
    mu = np.ones(table.limit + 1, dtype=np.int8)
    mu[0] = 0
    small, blocks = _sqrt_split(table.primes, table.limit)
    for p in small.tolist():
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    for j, ps in blocks:
        mu[j * ps] *= -1
    return mu


def division_sweep_phi(table: PrimeTable) -> np.ndarray:
    """phi on [0..limit] in the table's phi dtype: n // p * (p - 1) for
    each small prime p, then phi(j p) = phi(j) (p - 1) for each large
    p."""
    phi = np.arange(table.limit + 1,
                    dtype=np.int32 if table.limit < 2 ** 31 else np.int64)
    small, blocks = _sqrt_split(table.primes, table.limit)
    for p in small.tolist():
        v = phi[p::p]
        v //= p
        v *= p - 1
    for j, ps in blocks:
        phi[j * ps] = phi[j] * (ps - 1)
    return phi
