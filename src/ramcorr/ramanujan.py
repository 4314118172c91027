"""Ramanujan sums, Wintner coefficients of truncated divisor sums,
fixed-length Ramanujan expansion, Lucht inversion, and period machinery.

All integer identities are kept exact: c_q(a) is computed by the divisor
form

    c_q(a) = sum over d | gcd(q, a) of d * mu(q/d),

never by floating cosines, and ExactInt coefficient tables hold
``fractions.Fraction`` values so that

    g(a) = sum over q <= D of ghat(q) c_q(a)          (expansion)
    g'(d) = d * sum over K <= D/d of mu(K) ghat(dK)   (inversion)

round-trip with no error at all.  Real-valued tables use float64 and the
support threshold ``SUPPORT_EPS``.  Coefficient tables are the same table
type as the divisor-sum tables they come from, and are written and read
in the same text format.

Periods are arbitrary-precision from the start: the product of the odd
primes up to N grows like e^N and leaves 64 bits almost immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .arith_core import (SUPPORT_EPS, TabulatedFunction, divisors_int,
                         is_prime_int, mobius_int, zeros)
from .transforms import (TruncatedDivisorSum, read_table, truncate,
                         write_tds)


class UndefinedPeriodError(ValueError):
    """Raised when a period is requested for the zero divisor-sum table."""


@dataclass(frozen=True)
class Period:
    """A (not necessarily minimal) period, as an arbitrary-precision value."""

    value: int
    kind: str  # "wintner" | "universal"


class RamanujanCoefficients(TabulatedFunction):
    """Coefficient table ghat(q), q in [1..limit].

    ExactInt sources yield Fraction entries (exact rationals); Real
    sources yield floats.
    """


# ----------------------------------------------------------------------
# Ramanujan sums
# ----------------------------------------------------------------------

def ramanujan_sum(q: int, a: int) -> int:
    """c_q(a), exact; a may be any (big) integer and is reduced mod q first."""
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    r = a % q
    g0 = gcd(q, r)  # gcd(q, 0) = q covers the q | a case
    total = 0
    for d in divisors_int(g0):
        m = mobius_int(q // d)
        if m:
            total += d * m
    return total


@lru_cache(maxsize=4096)
def ramanujan_sum_table(q: int) -> tuple[int, ...]:
    """(c_q(0), c_q(1), ..., c_q(q-1)); one q-periodic block."""
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    tab = [0] * q
    for d in divisors_int(q):
        m = mobius_int(q // d)
        if m:
            dm = d * m
            for r in range(0, q, d):
                tab[r] += dm
    return tuple(tab)


def ramanujan_orthogonality(d: int, a: int) -> int:
    """Sum of c_q(a) over q | d; equals d when d | a and 0 otherwise."""
    if d < 1 or a < 1:
        raise ValueError("arguments must be naturals")
    return sum(ramanujan_sum(q, a) for q in divisors_int(d))


# ----------------------------------------------------------------------
# Wintner coefficients and the two fixed-length expansions
# ----------------------------------------------------------------------

def wintner_coefficients(g: TruncatedDivisorSum) -> RamanujanCoefficients:
    """ghat(q) = sum of g'(d)/d over d <= cutoff with q | d.

    The zero table maps to the all-zero coefficient table.  For nonzero
    tables the top of the coefficient support coincides with the top of
    supp(g').
    """
    coeffs = zeros(g.limit + 1, g.kind)
    for d, v in g.support():
        w = Fraction(v, d) if g.is_exact else v / d
        for q in divisors_int(d):
            coeffs[q] += w
    return RamanujanCoefficients(g.limit, g.kind, coeffs,
                                 name=f"{g.name}^hat" if g.name else "")


def ramanujan_expand(coeffs: RamanujanCoefficients, a: int):
    """Finite expansion sum over q <= cutoff of ghat(q) c_q(a).

    For coefficient tables produced from a TDS this reproduces the TDS
    value at a, for every natural a however large.
    """
    if a < 1:
        raise ValueError(f"naturals start at 1, got {a}")
    total = 0 if coeffs.is_exact else 0.0
    for q, v in coeffs.support():
        total += v * ramanujan_sum(q, a)
    return _normalize_exact(total) if coeffs.is_exact else total


def _normalize_exact(v):
    return int(v) if v.denominator == 1 else v


def ramanujan_expand_range(coeffs: RamanujanCoefficients, a_max: int):
    """Expansion values for every a in [1..a_max] (batch form of the above).

    ExactInt tables are cleared to a common denominator so the hot loop
    is pure integer adds; the result list holds exact values (ints when
    integral).  Real tables accumulate in float64.  Index 0 is unused.
    """
    if a_max < 1:
        raise ValueError(f"naturals start at 1, got {a_max}")
    support = coeffs.support()
    if coeffs.is_exact:
        L = math.lcm(*(v.denominator for _, v in support)) if support else 1
        acc = [0] * (a_max + 1)
        for q, v in support:
            w = int(v * L)
            block = [w * c for c in ramanujan_sum_table(q)]
            ext = block * (a_max // q + 2)
            acc = [x + y for x, y in zip(acc, ext[: a_max + 1])]
        out: list = [0] * (a_max + 1)
        for a in range(1, a_max + 1):
            x = acc[a]
            out[a] = x // L if x % L == 0 else Fraction(x, L)
        return out
    acc_f = np.zeros(a_max + 1, dtype=np.float64)
    for q, v in support:
        block_f = np.asarray(ramanujan_sum_table(q), dtype=np.float64)
        ext_f = np.tile(block_f, a_max // q + 2)[: a_max + 1]
        acc_f += v * ext_f
    acc_f[0] = 0.0
    return acc_f


def lucht_invert(coeffs: RamanujanCoefficients) -> TruncatedDivisorSum:
    """Recover g'(d) = d * sum over K <= D/d of mu(K) ghat(dK).

    Exact for ExactInt tables (the recovered values must come out
    integral); within float error for Real.
    """
    D = coeffs.limit
    c = coeffs.values.tolist()
    vals = zeros(D + 1, coeffs.kind)
    for d in range(1, D + 1):
        total = 0
        for K in range(1, D // d + 1):
            v = c[d * K]
            if v:
                m = mobius_int(K)
                if m:
                    total += m * v
        total *= d
        if coeffs.is_exact:
            if total.denominator != 1:
                raise ValueError(
                    f"inversion produced non-integer g'({d}) = {total}; "
                    "coefficient table does not come from an ExactInt TDS")
            total = int(total)
        vals[d] = total
    return TruncatedDivisorSum(D, coeffs.kind, vals)


# ----------------------------------------------------------------------
# support closure and periods
# ----------------------------------------------------------------------

def _check_divisor_closed(pred, D: int) -> None:
    for d in range(1, D + 1):
        if not pred(d):
            for m in range(2 * d, D + 1, d):
                if pred(m):
                    raise ValueError(
                        f"set is not divisor-closed on [1..{D}]: "
                        f"{m} belongs but its divisor {d} does not")


def support_closure_check(g: TruncatedDivisorSum, predicate) -> tuple[bool, bool]:
    """(supp(g') within S, supp(ghat) within S) for divisor-closed S.

    The two booleans agree for every TDS; the predicate is validated on
    [1..cutoff] first and rejected if not divisor-closed there.
    """
    pred = (predicate.__contains__ if isinstance(predicate, (set, frozenset))
            else predicate)
    _check_divisor_closed(pred, g.limit)
    et_in = all(pred(d) for d, _ in g.support(SUPPORT_EPS))
    coeffs = wintner_coefficients(g)
    hat_in = all(pred(q) for q, _ in coeffs.support(SUPPORT_EPS))
    return et_in, hat_in


def wintner_period(g: TruncatedDivisorSum, Q: int) -> Period:
    """lcm of the moduli q <= Q carrying a nonzero coefficient.

    Defined only for nonzero tables.  Value 1 exactly when the induced
    function is constant on the sampled modulus range.
    """
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    if g.is_zero():
        raise UndefinedPeriodError("period undefined for the zero TDS")
    coeffs = wintner_coefficients(g)
    qs = [q for q, _ in coeffs.support(SUPPORT_EPS) if q <= Q]
    return Period(math.lcm(*qs) if qs else 1, "wintner")


def universal_period(N: int) -> Period:
    """Product of the odd primes up to N (empty product = 1)."""
    if N < 1:
        raise ValueError(f"naturals start at 1, got {N}")
    value = 1
    for p in range(3, N + 1, 2):
        if is_prime_int(p):
            value *= p
    return Period(value, "universal")


def half_range_identity_check(g_source: TabulatedFunction, N: int,
                              rel_tol: float = 1e-12) -> bool:
    """Above half the cutoff a coefficient sees one term only:
    ghat(q) = g'(q)/q for all N/2 < q <= N."""
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    g = truncate(g_source, N)
    coeffs = wintner_coefficients(g)
    tol = 0 if g.is_exact else rel_tol
    for q in range(N // 2 + 1, N + 1):
        expected = Fraction(g[q], q) if g.is_exact else g[q] / q
        if abs(coeffs[q] - expected) > tol * max(1, abs(expected)):
            return False
    return True


# ----------------------------------------------------------------------
# coefficient serialization (the TDS text format; exact values are
# integers or p/q rationals)
# ----------------------------------------------------------------------

write_coefficients = write_tds


def read_coefficients(fh) -> RamanujanCoefficients:
    return read_table(fh, RamanujanCoefficients, Fraction)
