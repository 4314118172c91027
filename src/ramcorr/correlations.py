"""Shifted convolution sums, their coefficient-expansion form, exact
truncation-difference formulas, and periodicity verification.

The correlation of two arithmetic functions with length N and shift a is

    C(N, a) = sum over n <= N of f(n) g(n + a).

g is the shift-carrying factor; when g is a truncated divisor sum the
shift may be an arbitrarily large integer, since evaluation only tests
divisibility by small d.  The expansion form rewrites the same sum as

    C(N, a) = sum over q of ghat(q) * sum over n <= N of f(n) c_q(n + a),

a finite rearrangement, so the two routes agree identically (exactly in
the ExactInt domain).  Each inner sum reduces a mod q once, so a huge
shift costs a single big-integer reduction per modulus.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .arith_core import TabulatedFunction
from .ramanujan import (Period, UndefinedPeriodError, ramanujan_sum_table,
                        wintner_coefficients)
from .transforms import (TruncatedDivisorSum, eratosthenes_transform,
                         evaluate_tds)

REAL_TOL = 1e-9


def _is_exact_pair(f: TabulatedFunction, g) -> bool:
    return f.is_exact and g.is_exact


def correlate_direct(f: TabulatedFunction, g, N: int, a: int):
    """C(N, a) by the defining sum.

    g may be a TabulatedFunction (then it must reach N + a) or a
    TruncatedDivisorSum (then a may be huge).
    """
    if a < 1:
        raise ValueError(f"shifts are naturals >= 1, got {a}")
    if f.limit < N:
        raise ValueError(f"f tabulated only to {f.limit}, need {N}")
    exact = _is_exact_pair(f, g)
    acc = 0 if exact else 0.0
    if isinstance(g, TruncatedDivisorSum):
        for n, fv in f.support_upto(N):
            acc += fv * evaluate_tds(g, n + a)
        return acc
    if g.limit < N + a:
        raise ValueError(
            f"g tabulated only to {g.limit}, not evaluable at N+a={N + a}")
    gv = g.values
    for n, fv in f.support_upto(N):
        acc += fv * gv[n + a]
    return int(acc) if exact else float(acc)


def correlate_expansion(f: TabulatedFunction, g: TruncatedDivisorSum,
                        N: int, a: int):
    """C(N, a) through the coefficient table of g (dual route)."""
    if a < 1:
        raise ValueError(f"shifts are naturals >= 1, got {a}")
    if f.limit < N:
        raise ValueError(f"f tabulated only to {f.limit}, need {N}")
    coeffs = wintner_coefficients(g)
    f_support = f.support_upto(N)
    exact = _is_exact_pair(f, g)
    total = 0 if exact else 0.0
    for q, ghat in coeffs.support():
        ctab = ramanujan_sum_table(q)
        r = a % q
        inner = 0 if f.is_exact else 0.0
        for n, fv in f_support:
            inner += fv * ctab[(n + r) % q]
        total += ghat * inner
    if exact:
        # exact rational bookkeeping collapses back to an integer
        t = Fraction(total)
        return int(t) if t.denominator == 1 else t
    return float(total)


def truncation_difference(f: TabulatedFunction, g_source: TabulatedFunction,
                          N: int, a: int):
    """Exact difference C_{f,g}(N,a) - C_{f,g_N}(N,a) as a tail sum:

        sum over N < d <= N+a of g'(d) * sum over n <= N, d | n+a of f(n).
    """
    if a < 1:
        raise ValueError(f"shifts are naturals >= 1, got {a}")
    if g_source.limit < N + a:
        raise ValueError(
            f"g tabulated only to {g_source.limit}, need N+a={N + a}")
    if f.limit < N:
        raise ValueError(f"f tabulated only to {f.limit}, need {N}")
    et = eratosthenes_transform(g_source, N + a)
    exact = _is_exact_pair(f, g_source)
    acc = 0 if exact else 0.0
    for d in range(N + 1, N + a + 1):
        gpd = et.values[d]
        if not gpd:
            continue
        inner = 0 if f.is_exact else 0.0
        # n = K d - a with 1 <= n <= N
        K = (1 + a + d - 1) // d
        n = K * d - a
        while n <= N:
            inner += f.values[n]
            n += d
        if inner:
            acc += gpd * inner
    return acc


def small_shift_difference(f: TabulatedFunction, g_source: TabulatedFunction,
                           N: int, a: int):
    """Same difference for a <= N, where each tail divisor hits once:

        sum over N < d <= N+a of g'(d) f(d - a).
    """
    if not 1 <= a <= N:
        raise ValueError(f"shift must satisfy 1 <= a <= N, got a={a}, N={N}")
    if g_source.limit < N + a:
        raise ValueError(
            f"g tabulated only to {g_source.limit}, need N+a={N + a}")
    et = eratosthenes_transform(g_source, N + a)
    exact = _is_exact_pair(f, g_source)
    acc = 0 if exact else 0.0
    for d in range(N + 1, N + a + 1):
        gpd = et.values[d]
        if gpd:
            acc += gpd * f.values[d - a]
    return acc


def verify_periodicity(f: TabulatedFunction, g: TruncatedDivisorSum, N: int,
                       period, shifts, tol: float = REAL_TOL) -> bool:
    """True iff C(N, a) == C(N, a + P) for every listed shift."""
    P = period.value if isinstance(period, Period) else int(period)
    if P < 1:
        raise ValueError(f"period must be >= 1, got {P}")
    if g.is_zero():
        raise UndefinedPeriodError("periodicity undefined for the zero TDS")
    exact = _is_exact_pair(f, g)
    for a in shifts:
        lhs = correlate_direct(f, g, N, a)
        rhs = correlate_direct(f, g, N, a + P)
        if exact:
            if lhs != rhs:
                return False
        elif abs(lhs - rhs) > tol:
            return False
    return True


# ----------------------------------------------------------------------
# correlation profiles and export
# ----------------------------------------------------------------------

class CorrelationProfile:
    """Values of one correlation over a strictly increasing shift list."""

    def __init__(self, length: int, f_id: str, g_id: str, entries):
        self.length = length
        self.f_id = f_id
        self.g_id = g_id
        self.entries = list(entries)
        for (a1, _), (a2, _) in zip(self.entries, self.entries[1:]):
            if a1 >= a2:
                raise ValueError("shifts must be strictly increasing")
        for _, v in self.entries:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError("profile values must be finite")


def build_profile(f: TabulatedFunction, g, N: int, shifts,
                  f_id: str = "", g_id: str = "",
                  method: str = "direct") -> CorrelationProfile:
    """Evaluate the correlation at each shift (deduplicated, ascending)."""
    uniq = sorted(set(int(a) for a in shifts))
    if not uniq:
        raise ValueError("at least one shift is required")
    if method == "direct":
        ev = lambda a: correlate_direct(f, g, N, a)
    elif method == "expansion":
        ev = lambda a: correlate_expansion(f, g, N, a)
    else:
        raise ValueError(f"unknown method {method!r}")
    entries = [(a, ev(a)) for a in uniq]
    return CorrelationProfile(N, f_id or f.name, g_id or getattr(g, "name", ""),
                              entries)


def format_value(v) -> str:
    """12 significant digits for reals, full decimal for integers."""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def profile_to_csv(profile: CorrelationProfile, fh) -> None:
    fh.write("a,value\n")
    for a, v in profile.entries:
        fh.write(f"{a},{format_value(v)}\n")


def profile_to_json(profile: CorrelationProfile) -> str:
    records = {
        "length": profile.length,
        "f": profile.f_id,
        "g": profile.g_id,
        "entries": [{"a": str(a), "value": format_value(v)}
                    for a, v in profile.entries],
    }
    return json.dumps(records, indent=2)
