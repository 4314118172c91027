"""Shifted convolution sums, their coefficient-expansion form, exact
truncation-difference formulas, and periodicity verification.

The correlation of two arithmetic functions with length N and shift a is

    C(N, a) = sum over n <= N of f(n) g(n + a).

g is the shift-carrying factor; when g is a truncated divisor sum the
shift may be an arbitrarily large integer, since evaluation only tests
divisibility by small d.  The expansion form rewrites the same sum as

    C(N, a) = sum over q of ghat(q) * sum over n <= N of f(n) c_q(n + a),

a finite rearrangement, so the two routes agree identically (exactly in
the ExactInt domain).  Both routes run on one residue-class kernel: the
sum of f over the n <= N in the class n = -a (mod d),

    S_d(a) = sum over n <= N with d | n + a of f(n),

which costs one reduction (-a mod d) and one strided sum over f, never
one divisibility test per (n, d) pair.  The direct route for a truncated
divisor sum swaps the order of summation into these classes,

    C(N, a) = sum over d in supp g' of g'(d) S_d(a),

and the expansion route reads the divisor form
c_q(m) = sum over e | gcd(q, m) of e mu(q/e) (one helper,
``ramanujan._divisor_form``) the same way,

    sum over n <= N of f(n) c_q(n + a) = sum over e | q of e mu(q/e) S_e(a),

reducing a once per modulus e and building no c_q table.  Only those
residues depend on the shift: an expansion profile builds the
coefficient table ghat and the divisor forms once for all its shifts
(``_expansion_values``), and ``correlate_expansion`` is the same helper
on one shift.  The direct route has no setup that outlives a shift, so
a direct profile is one ``correlate_direct`` call per shift.  The
truncation tail is the direct route on the tail of g'.
"""

from __future__ import annotations

import json
import math
import sys

from .arith_core import (PrimeTable, TabulatedFunction, agree, collapse,
                         sieve_primes, tolerance)
from .ramanujan import (UndefinedPeriodError, _divisor_form,
                        universal_period, wintner_coefficients)
from .transforms import TruncatedDivisorSum, eratosthenes_transform


def _class_sum(fvals, a: int, d: int):
    """S_d(a): the sum of fvals[n] over 1 <= n < len(fvals) with d | n + a.

    One reduction -a mod d (a may be huge) and one strided slice-sum;
    0 when the class has no member in range.
    """
    start = -a % d or d  # least n >= 1 with d | n + a
    return fvals[start::d].sum() if start < len(fvals) else 0


def correlate_direct(f: TabulatedFunction, g, N: int, a: int):
    """C(N, a) by the defining sum.

    g may be a TabulatedFunction (then it must reach N + a) or a
    TruncatedDivisorSum (then a may be huge).  For a TDS the sum runs
    over residue classes (see the module docstring): one reduction
    -a mod d and one strided slice-sum of f per d in supp g', so the
    cost is |supp g'| reductions plus about N * sum(1/d) additions,
    whatever the size of a.  One body serves both domains; the value
    arrays' dtypes (``arith_core.DTYPES``) decide the arithmetic.

    The result is exact for an exact pair (see ``arith_core.collapse``)
    and a float otherwise.
    In the Real domain each term g'(d) f(n) passes through at most
    N + s - 1 roundings (s = |supp g'|), so the result differs from the
    exact sum by at most

        gamma(N + s) * N * max|f| * sum|g'|,   gamma(m) = m u / (1 - m u),

    with u = 2**-53 and max|f| taken over [1..N].
    """
    if a < 1:
        raise ValueError(f"shifts are naturals >= 1, got {a}")
    if f.limit < N:
        raise ValueError(f"f tabulated only to {f.limit}, need {N}")
    if isinstance(g, TruncatedDivisorSum):
        fvals = f.values[: N + 1]
        acc = 0
        for d, gd in g.support():
            acc += gd * _class_sum(fvals, a, d)
        return collapse(acc, f, g)
    if g.limit < N + a:
        raise ValueError(
            f"g tabulated only to {g.limit}, not evaluable at N+a={N + a}")
    gv = g.values
    acc = 0
    for n, fv in f.support_upto(N):
        acc += fv * gv[n + a]
    return collapse(acc, f, g)


def correlate_expansion(f: TabulatedFunction, g: TruncatedDivisorSum,
                        N: int, a: int):
    """C(N, a) through the coefficient table of g (dual route).

    Sums ghat(q) * inner_q over supp ghat, with each inner sum
    sum over n <= N of f(n) c_q(n + a) taken in divisor form as
    sum over e | q of e mu(q/e) S_e(a) (see the module docstring).  Each
    class sum S_e is computed once per shift, so a huge shift costs one
    reduction per modulus e.  The result is exact for an exact pair (see
    ``arith_core.collapse``) and a float otherwise.

    In the Real domain each elementary term g'(d)/d * e mu(q/e) * f(n)
    passes through at most N + 3D + 3 roundings (D = g.limit): one
    division and at most D additions in ghat(q), at most N additions in
    S_e, the product by e mu(q/e), at most D additions over e, the
    product by ghat(q) and at most D additions over q.  So the result
    differs from the exact sum by at most

        gamma(N + 3D + 3) * (N + D) * max|f| * sum over d in supp g' of
        tau(d)^2 |g'(d)| / d,

    with gamma, u and max|f| as in ``correlate_direct`` and tau the
    divisor count (e * #{n <= N : e | n + a} <= N + D, and the pairs
    e | q | d with mu(q/e) != 0 number at most tau(d)^2).
    """
    return _expansion_values(f, g, N, [a])[0]


def _expansion_values(f: TabulatedFunction, g: TruncatedDivisorSum, N: int,
                      shifts) -> list:
    """C(N, a) by the expansion route for each shift in order, from one
    setup: f's slice, the coefficient table of g, the divisor form of
    each q in its support and the set of moduli e are built once, and a
    shift costs one reduction per modulus e plus the sums over q and e
    in ``correlate_expansion``'s order (q ascending, then e ascending),
    so each value is the one a single-shift call returns, to the bit.
    """
    if min(shifts) < 1:
        raise ValueError(f"shifts are naturals >= 1, got {min(shifts)}")
    if f.limit < N:
        raise ValueError(f"f tabulated only to {f.limit}, need {N}")
    fvals = f.values[: N + 1]
    terms = [(ghat, _divisor_form(q))
             for q, ghat in wintner_coefficients(g).support()]
    moduli = {e for _, form in terms for e, _ in form}
    values = []
    for a in shifts:
        sums = {e: _class_sum(fvals, a, e) for e in moduli}  # e -> S_e(a)
        total = 0
        for ghat, form in terms:
            inner = 0
            for e, w in form:
                inner += w * sums[e]
            total += ghat * inner
        values.append(collapse(total, f, g))
    return values


def truncation_difference(f: TabulatedFunction, g_source: TabulatedFunction,
                          N: int, a: int, table: PrimeTable | None = None):
    """Exact difference C_{f,g}(N,a) - C_{f,g_N}(N,a) as a tail sum:

        sum over N < d <= N+a of g'(d) * sum over n <= N, d | n+a of f(n),

    which is the direct route on the tail table (g' on (N, N+a], zero on
    [1..N]); exact for an exact pair, a float otherwise.  ``table`` is
    the sieve of the transform to N + a, as in ``eratosthenes_transform``.
    """
    if a < 1:
        raise ValueError(f"shifts are naturals >= 1, got {a}")
    if g_source.limit < N + a:
        raise ValueError(
            f"g tabulated only to {g_source.limit}, need N+a={N + a}")
    tail = eratosthenes_transform(g_source, N + a, table).values
    tail[: N + 1] = 0
    return correlate_direct(
        f, TruncatedDivisorSum(N + a, g_source.kind, tail), N, a)


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


def verify_periodicity(f: TabulatedFunction, g: TruncatedDivisorSum, N: int,
                       period: int, shifts) -> bool:
    """True iff C(N, a) agrees with C(N, a + period) for every listed shift:
    equal for an exact pair, within ``arith_core.tolerance`` otherwise."""
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if g.is_zero():
        raise UndefinedPeriodError("periodicity undefined for the zero TDS")
    bound = tolerance(f, g)
    return all(agree(correlate_direct(f, g, N, a),
                     correlate_direct(f, g, N, a + period), bound)
               for a in shifts)


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
        # U of this length when the caller already built it (the CLI's
        # U+k tokens do); the writer builds it otherwise
        self._period = None
        for (a1, _), (a2, _) in zip(self.entries, self.entries[1:]):
            if a1 >= a2:
                raise ValueError("shifts must be strictly increasing")
        for _, v in self.entries:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError("profile values must be finite")


def build_profile(f: TabulatedFunction, g, N: int, shifts,
                  f_id: str = "", g_id: str = "",
                  method: str = "direct") -> CorrelationProfile:
    """Evaluate the correlation at each shift (deduplicated, ascending);
    the expansion route builds its coefficients and divisor forms once
    for the whole list."""
    uniq = sorted(set(int(a) for a in shifts))
    if not uniq:
        raise ValueError("at least one shift is required")
    if method == "direct":
        values = [correlate_direct(f, g, N, a) for a in uniq]
    elif method == "expansion":
        values = _expansion_values(f, g, N, uniq)
    else:
        raise ValueError(f"unknown method {method!r}")
    return CorrelationProfile(N, f_id or f.name, g_id or getattr(g, "name", ""),
                              zip(uniq, values))


def format_value(v) -> str:
    """12 significant digits for reals, full decimal for integers."""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _text_rows(profile: CorrelationProfile) -> list[tuple[str, str]]:
    """(shift, value) texts for both export formats.  A shift is written
    in full decimal unless that text exceeds Python's int-to-str digit
    limit; then it is written as its token U+k, U the product of the odd
    primes up to the profile's length (only a U+k token can produce such
    a shift).  U is the profile's own when it carries one, else it is
    read from a sieve to that length, which takes no cap: the profile was
    computed at that length already.  An exact value past that limit has
    no token: ValueError names the shift and the limit."""
    rows = []
    U = profile._period
    for a, v in profile.entries:
        try:
            shift = str(a)
        except ValueError:
            if U is None:
                U = universal_period(profile.length, sieve_primes(
                    max(profile.length, 2)))
            shift = f"U+{a - U}"
        try:
            value = format_value(v)
        except ValueError:
            raise ValueError(
                f"the exact value at shift {shift} has more decimal digits "
                f"than Python's int-to-str limit of "
                f"{sys.get_int_max_str_digits()}") from None
        rows.append((shift, value))
    return rows


def profile_to_csv(profile: CorrelationProfile, fh) -> None:
    fh.write("a,value\n")
    for a, v in _text_rows(profile):
        fh.write(f"{a},{v}\n")


def profile_to_json(profile: CorrelationProfile) -> str:
    records = {
        "length": profile.length,
        "f": profile.f_id,
        "g": profile.g_id,
        "entries": [{"a": a, "value": v} for a, v in _text_rows(profile)],
    }
    return json.dumps(records, indent=2)
