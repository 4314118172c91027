"""Ramanujan sums, Wintner coefficients of truncated divisor sums,
fixed-length Ramanujan expansion, Lucht inversion, and period machinery.

All integer identities are kept exact: c_q(a) is computed by the divisor
form

    c_q(a) = sum over d | gcd(q, a) of d * mu(q/d),

never by floating cosines.  The form is written once, in
``_divisor_form`` (the pairs (d, d mu(q/d)) over d | q with
mu(q/d) != 0, built from the distinct primes of q that
``arith_core._prime_factors`` yields), and ``ramanujan_sum``, the c_q
blocks and the expansion route in ``correlations`` all read it.  No form
is cached across calls: a caller that reads one form many times (the
expansion profile reads each for every shift) builds it once and keeps
it.  Every block (c_q(0), ..., c_q(n-1)) comes from one builder,
``_ramanujan_block``: one int64 slice per pair (|c_q| <= q).
ExactInt coefficient tables hold ``fractions.Fraction`` values so that

    g(a) = sum over q <= D of ghat(q) c_q(a)          (expansion)
    g'(d) = d * sum over K <= D/d of mu(K) ghat(dK)   (inversion)

round-trip with no error at all.  The coefficients and the inversion are
both sums over multiples, so both run on one kernel,
``transforms._multiple_sum``: ghat(q) sums g'(d)/d over the multiples d
of q, and g'(d)/d sums mu(K) ghat(dK) over the multiples dK of d.
Real-valued tables use float64 and the support threshold
``SUPPORT_EPS``.  Coefficient tables are the same table type as the
divisor-sum tables they come from, and are written by the same
``transforms.write_tds`` and read in the same text format.

Periods are plain Python ints, arbitrary-precision from the start: the
product of the odd primes up to N grows like e^N and leaves 64 bits
almost immediately.  ``universal_period`` reads those primes from the
sieve (``capped_sieve``, so without a table N is held to SIEVE_CAP) and
multiplies them in a balanced product tree; Lucht inversion reads mu
from a sieve too, so trial division serves single integers only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith_core import (SIEVE_CAP, SUPPORT_EPS, PrimeTable, TabulatedFunction,
                         _odd_primes, _prime_factors, _text, capped_sieve,
                         collapse, sieve_primes, zeros)
from .transforms import TruncatedDivisorSum, _multiple_sum, read_table


class UndefinedPeriodError(ValueError):
    """Raised when a period is requested for the zero divisor-sum table."""


class RamanujanCoefficients(TabulatedFunction):
    """Coefficient table ghat(q), q in [1..limit].

    ExactInt sources yield Fraction entries (exact rationals); Real
    sources yield floats.
    """


# ----------------------------------------------------------------------
# Ramanujan sums
# ----------------------------------------------------------------------

def _divisor_form(q: int) -> tuple[tuple[int, int], ...]:
    """The divisor form of c_q: the pairs (e, e mu(q/e)) over the divisors
    e of q with mu(q/e) != 0, ascending e, so that c_q(m) is the sum of
    the weights e mu(q/e) whose e divides m.

    Built from the distinct primes of q (``_prime_factors``): each
    square-free s | q gives e = q/s with weight e (-1)^omega(s), so each
    prime p of q adds the pair (e/p, -w/p) for every pair (e, w) so far.
    q >= 1: every caller passes a checked modulus or a support point.
    """
    form = [(q, q)]
    for p, _ in _prime_factors(q):
        form += [(e // p, -w // p) for e, w in form]
    return tuple(sorted(form))


def ramanujan_sum(q: int, a: int) -> int:
    """c_q(a), exact; a may be any (big) integer and is reduced mod q first."""
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    r = a % q
    return sum(w for e, w in _divisor_form(q) if r % e == 0)


# cached only because the benchmark's tracer (perfbench/tracer.py) reads
# its cache_info()
@lru_cache(maxsize=4096)
def ramanujan_sum_table(q: int) -> tuple[int, ...]:
    """(c_q(0), c_q(1), ..., c_q(q-1)); one q-periodic block, as ints."""
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    return tuple(_ramanujan_block(q, q).tolist())


def _ramanujan_block(q: int, n: int) -> np.ndarray:
    """(c_q(0), ..., c_q(n-1)) for 1 <= n <= q as int64: each pair (e, w)
    of the divisor form adds w on the multiples of e, and |c_q| <= q."""
    tab = np.zeros(n, dtype=np.int64)
    for e, w in _divisor_form(q):
        tab[::e] += w
    return tab


# ----------------------------------------------------------------------
# Wintner coefficients and the two fixed-length expansions
# ----------------------------------------------------------------------

def wintner_coefficients(g: TruncatedDivisorSum) -> RamanujanCoefficients:
    """ghat(q) = sum of g'(d)/d over d <= cutoff with q | d, that is the
    sum over k <= cutoff/q of g'(qk)/(qk) (``_multiple_sum``), added in
    ascending d.

    The zero table maps to the all-zero coefficient table.  For nonzero
    tables the top of the coefficient support coincides with the top of
    supp(g').
    """
    support = g.support()
    h = zeros(g.limit + 1, g.kind)
    h[[d for d, _ in support]] = [Fraction(v, d) if g.is_exact else v / d
                                  for d, v in support]
    return RamanujanCoefficients(g.limit, g.kind,
                                 _multiple_sum(None, h, g.limit),
                                 name=f"{g.name}^hat" if g.name else "")


def ramanujan_expand(coeffs: RamanujanCoefficients, a: int):
    """Finite expansion sum over q <= cutoff of ghat(q) c_q(a).

    For coefficient tables produced from a TDS this reproduces the TDS
    value at a, for every natural a however large.
    """
    if a < 1:
        raise ValueError(f"naturals start at 1, got {a}")
    total = 0
    for q, v in coeffs.support():
        total += v * ramanujan_sum(q, a)
    return collapse(total, coeffs)


def ramanujan_expand_range(coeffs: RamanujanCoefficients, a_max: int):
    """Expansion values for every a in [1..a_max] (batch form of the above).

    One body for both kinds: each modulus q adds its weight times the
    block c_q(0..) repeated to length a_max + 1.  ExactInt weights are the
    ints ghat(q) L, L the common denominator, so the adds are integer
    adds; the result list holds exact values (ints when integral).  Real
    tables accumulate in float64.  Index 0 is unused.  A modulus
    q > a_max needs only the block c_q(0..a_max), so only that much of
    it is built.
    """
    if a_max < 1:
        raise ValueError(f"naturals start at 1, got {a_max}")
    support = coeffs.support()
    exact = coeffs.is_exact
    L = math.lcm(*(v.denominator for _, v in support)) if exact else 1
    acc = zeros(a_max + 1, coeffs.kind)
    for q, v in support:
        block = _ramanujan_block(q, min(q, a_max + 1)).astype(acc.dtype)
        w = int(v * L) if exact else v
        acc += w * np.resize(block, a_max + 1)
    if not exact:
        acc[0] = 0.0
        return acc
    return [0] + [collapse(Fraction(x, L), coeffs) for x in acc[1:].tolist()]


def lucht_invert(coeffs: RamanujanCoefficients) -> TruncatedDivisorSum:
    """Recover g'(d) = d * sum over K <= D/d of mu(K) ghat(dK)
    (``_multiple_sum``, in ascending K).

    Exact for ExactInt tables (the recovered values must come out
    integral); within float error for Real.  mu comes from a sieve to D,
    which needs no cap: it is smaller than the table being inverted.
    """
    D = coeffs.limit
    mu = sieve_primes(max(D, 2)).mobius_values
    vals = np.arange(D + 1) * _multiple_sum(mu, coeffs.values, D)
    if coeffs.is_exact:
        vals = vals.tolist()
        for d, v in enumerate(vals):
            if v.denominator != 1:
                raise ValueError(
                    f"inversion produced non-integer g'({d}) = {_text(v)}; "
                    "coefficient table does not come from an ExactInt TDS")
        vals = [int(v) for v in vals]
    return TruncatedDivisorSum(D, coeffs.kind, vals)


# ----------------------------------------------------------------------
# support closure and periods
# ----------------------------------------------------------------------

def _as_predicate(members):
    """A set's membership test, or the callable itself."""
    if isinstance(members, (set, frozenset)):
        return members.__contains__
    if callable(members):
        return members
    raise ValueError("set predicate must be a set or a callable")


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
    pred = _as_predicate(predicate)
    _check_divisor_closed(pred, g.limit)
    et_in = all(pred(d) for d, _ in g.support(SUPPORT_EPS))
    coeffs = wintner_coefficients(g)
    hat_in = all(pred(q) for q, _ in coeffs.support(SUPPORT_EPS))
    return et_in, hat_in


def wintner_period(g: TruncatedDivisorSum, Q: int) -> int:
    """lcm of the moduli q <= Q carrying a nonzero coefficient.

    Defined only for nonzero tables.  Value 1 exactly when the induced
    function is constant on the sampled modulus range.
    """
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    if g.is_zero():
        raise UndefinedPeriodError("period undefined for the zero TDS")
    coeffs = wintner_coefficients(g)
    return math.lcm(*(q for q, _ in coeffs.support(SUPPORT_EPS) if q <= Q))


def universal_period(N: int, table: PrimeTable | None = None) -> int:
    """Product of the odd primes up to N (empty product = 1).

    The primes are read from ``capped_sieve(N, table)`` and multiplied in
    a balanced tree of pairwise products, so the big multiplications are
    few and of equal size (a running product would multiply a growing
    number by one small prime at a time).
    """
    factors = _odd_primes(N, capped_sieve(N, table)).tolist()
    while len(factors) > 1:
        factors = [math.prod(factors[i: i + 2])
                   for i in range(0, len(factors), 2)]
    return math.prod(factors)


# ----------------------------------------------------------------------
# coefficient serialization (the TDS text format; exact values are
# integers or p/q rationals)
# ----------------------------------------------------------------------

def read_coefficients(fh, max_cutoff: int = SIEVE_CAP) -> RamanujanCoefficients:
    return read_table(fh, RamanujanCoefficients, Fraction, max_cutoff)
