"""Reference implementations that no command or suite calls, kept as the
oracles the tests compare a package route against.

small_shift_difference is the closed form of the truncation tail for
a <= N, against ``correlations.truncation_difference``;
half_range_identity_check reads ``ramanujan.wintner_coefficients`` above
half the cutoff, against g'(q)/q.
"""

from fractions import Fraction

from ramcorr.arith_core import TabulatedFunction, agree, collapse
from ramcorr.ramanujan import wintner_coefficients
from ramcorr.transforms import eratosthenes_transform, truncate

# the window for single coefficients of Real tables, relative (scaled by
# max(1, |x|)); coefficients of exact tables are compared with ==
COEFF_TOL = 1e-12


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
