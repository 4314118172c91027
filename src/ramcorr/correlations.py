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

never one divisibility test per (n, d) pair.  A shift costs a few array
operations for all its classes at once: a mod d over every modulus d is
one int64 remainder below 2**62, and above it one walk down a product
tree of the moduli, built once per call (``arith_core._Residues``);
then one gather of f at the class members and one row sum per class
length.  The direct route for a truncated divisor sum swaps the order
of summation into these classes,

    C(N, a) = sum over d in supp g' of g'(d) S_d(a),

and the expansion route reads the divisor form
c_q(m) = sum over e | gcd(q, m) of e mu(q/e) (one helper,
``ramanujan._divisor_form``) the same way,

    sum over n <= N of f(n) c_q(n + a) = sum over e | q of e mu(q/e) S_e(a),

building no c_q table; the forms of all of supp ghat come from one
sweep of the sieve's mu (``ramanujan._divisor_forms``).  So each route
is a list of terms (coefficient, form), a form being the pairs
(modulus e, weight w): the direct route's terms are (g'(d), ((d, 1),))
over supp g', the expansion route's are (ghat(q), divisor form of q)
over supp ghat.  One helper, ``_class_values``, evaluates either list at
a list of shifts: the refusals, f's slice, the terms, the set of moduli
and its product tree are set up once, and only the residues a mod e
and the sums depend on the shift.  ``correlate_direct`` on a TDS and
``correlate_expansion`` are that helper on one shift, ``build_profile``
runs it on its shift list and ``verify_periodicity`` on the shifts a
and a + period.  The
truncation tail is the direct route on the tail of g'.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .arith_core import (DTYPES, PrimeTable, TabulatedFunction, _Residues,
                         _sum_from_zero, agree, collapse, sieve_primes,
                         tolerance)
from .ramanujan import (UndefinedPeriodError, _divisor_forms,
                        universal_period, wintner_coefficients)
from .transforms import TruncatedDivisorSum, eratosthenes_transform


def correlate_direct(f: TabulatedFunction, g, N: int, a: int):
    """C(N, a) by the defining sum.

    g may be a TabulatedFunction (then it must reach N + a) or a
    TruncatedDivisorSum (then a may be huge).  For a TDS the sum runs
    over residue classes (see the module docstring): the residues
    a mod d over supp g' (down a product tree once a passes 2**62) and
    about N * sum(1/d) additions of f, in a few array operations.  One
    body serves both domains; the value arrays' dtypes
    (``arith_core.DTYPES``) decide the arithmetic.

    The result is exact for an exact pair (see ``arith_core.collapse``)
    and a float otherwise.
    In the Real domain each term g'(d) f(n) passes through at most
    N + s - 1 roundings (s = |supp g'|), so the result differs from the
    exact sum by at most

        gamma(N + s) * N * max|f| * sum|g'|,   gamma(m) = m u / (1 - m u),

    with u = 2**-53 and max|f| taken over [1..N].
    """
    if isinstance(g, TruncatedDivisorSum):
        return _class_values(f, g, N, [a], "direct")[0]
    _refuse(f, N, [a])
    if g.limit < N + a:
        raise ValueError(
            f"g tabulated only to {g.limit}, not evaluable at N+a={N + a}")
    n = f.support_upto(N)
    return collapse(_sum_from_zero(f[n] * g[n + a]), f, g)


def correlate_expansion(f: TabulatedFunction, g: TruncatedDivisorSum,
                        N: int, a: int):
    """C(N, a) through the coefficient table of g (dual route).

    Sums ghat(q) * inner_q over supp ghat, with each inner sum
    sum over n <= N of f(n) c_q(n + a) taken in divisor form as
    sum over e | q of e mu(q/e) S_e(a) (see the module docstring).  Each
    class sum S_e is computed once per shift, and a huge shift is
    reduced once down a product tree of the moduli e.  The result is
    exact for an exact pair (see ``arith_core.collapse``) and a float
    otherwise.

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
    return _class_values(f, g, N, [a], "expansion")[0]


def _refuse(f: TabulatedFunction, N: int, shifts) -> None:
    """The refusals both routes share: the first shift below 1, and an f
    tabulated short of N."""
    bad = [a for a in shifts if a < 1]
    if bad:
        raise ValueError(f"shifts are naturals >= 1, got {bad[0]}")
    if f.limit < N:
        raise ValueError(f"f tabulated only to {f.limit}, need {N}")


def _class_values(f: TabulatedFunction, g: TruncatedDivisorSum, N: int,
                  shifts, method: str, table: PrimeTable | None = None
                  ) -> list:
    """C(N, a) for each shift in order by the route ``method`` ("direct"
    or "expansion"), from one setup: the refusals, f's slice, the route's
    terms and the set of moduli (see the module docstring) are built
    once.  The terms are arrays: each expansion term's form is a run of
    the pairs (e, w), e[i] and w[i], from ``_divisor_forms`` of
    supp ghat (``_form_sums``).  A direct term's form is the one pair
    (d, 1), d in supp g', so there the moduli are supp g' itself and
    each inner sum is the class sum S_d; no form arrays are built.

    A shift costs a few array operations: the class sums of every
    modulus at once (``_class_sums``); on the expansion route the
    products w S_e and each term's inner sum over its run in sequence
    from 0 (``np.add.accumulate``, one call per run length); and the sum
    of coeff * inner over the terms in sequence from 0.  These are the
    additions and products of the loop over the terms, ascending, then
    over each form's e, ascending, in the same order, so each value is
    the one that loop returns, to the bit.  (The loop's direct inner sum
    0 + 1 S_d differs from S_d only at S_d = -0.0, and a signed zero
    term cannot move a sum that starts from 0.)  Real pairs run on
    float64; a pair with an exact table runs the same code on object
    arrays, whose elements carry Python's arithmetic.

    The expansion route reads mu from ``table`` when it reaches g's
    cutoff, else from a sieve of its own to the cutoff.
    """
    _refuse(f, N, shifts)
    if not isinstance(g, TruncatedDivisorSum):
        raise ValueError(
            f"g must be a TruncatedDivisorSum, got {type(g).__name__}")
    dtype = object if f.is_exact or g.is_exact else np.float64
    if method == "direct":
        qs = g.support()
        coeffs = g[qs].astype(dtype)
        # every form is the one pair (d, 1), and the d are the moduli
        # already, ascending: each inner sum is the class sum S_d
        moduli, inner = qs, None
    else:
        ghat = wintner_coefficients(g)
        qs = ghat.support()
        coeffs = ghat[qs].astype(dtype)
        if table is None or table.limit < g.limit:
            table = sieve_primes(max(g.limit, 2))
        moduli, inner = _form_sums(*_divisor_forms(qs, table.mobius_values),
                                   g.limit, dtype)
    residues = _Residues(moduli)
    # f's first N + 1 entries only: an int64 store stays a store
    fvals = f._data[: N + 1].astype(DTYPES[f.kind], copy=False)
    values = []
    for a in shifts:
        # a + start is the least multiple of e above a
        sums = _class_sums(fvals, moduli, moduli - residues(a), dtype)
        if inner is not None:
            sums = inner(sums)
        values.append(collapse(_sum_from_zero(coeffs * sums), f, g))
    return values


def _form_sums(e: np.ndarray, w: np.ndarray, lengths: np.ndarray,
               D: int, dtype):
    """The moduli of the forms given as runs of pairs (e[i], w[i]), one
    run of ``lengths[i]`` pairs per term, all e <= D; and the function
    that takes the class sums of those moduli to each term's inner sum
    over its run, sum of w S_e in sequence from 0."""
    w = w.astype(dtype)
    # the products go to p[1:] after a leading 0, so the columns of a
    # term of length L are 0 and its run, and the last partial sum of
    # the row is the inner sum
    first = np.cumsum(lengths) - lengths + 1
    runs = []
    for L in sorted(set(lengths.tolist())):
        rows = np.flatnonzero(lengths == L)
        cols = np.zeros((len(rows), L + 1), dtype=np.int64)
        cols[:, 1:] = first[rows, None] + np.arange(L)
        runs.append((rows, cols))
    present = np.zeros(D + 1, dtype=bool)
    present[e] = True
    moduli = np.flatnonzero(present)
    at = np.searchsorted(moduli, e)  # each pair's modulus among the moduli

    def inner(sums: np.ndarray) -> np.ndarray:
        p = np.concatenate(([0], w * sums[at]))
        out = np.zeros(len(lengths), dtype=dtype)
        for rows, cols in runs:
            out[rows] = np.add.accumulate(p[cols], axis=1)[:, -1]
        return out
    return moduli, inner


def _class_sums(fvals, moduli: np.ndarray, start: np.ndarray, dtype):
    """S_e(a) for each of the ascending ``moduli``, given the least
    n >= 1 in each class (``start``): the sum of fvals[n] over the
    n = start, start + e, ... below len(fvals), as an array of ``dtype``,
    and the int 0 (0.0 in float64) for a class with no member in range.

    The classes are ordered by their number of members m, and the
    classes of each m are gathered as the rows of one m-column block and
    summed along the rows, so no temporary holds the members of every
    class at once.  A row goes through numpy's reduction of a strided
    slice ``fvals[start::e].sum()``: the first member, then numpy's
    pairwise sum of the rest (``np.add.reduceat`` adds in another order
    and moves the last bit).
    """
    out = np.zeros(len(moduli), dtype=dtype)
    if not len(moduli):
        return out
    N = len(fvals) - 1
    m = (N - start) // moduli + 1  # 0 when start > N
    # a class has N // e members or one more; the classes of each kind
    # are in order of descending m (e ascends), so merging the two lists
    # orders every class by descending m
    longer = m > N // moduli
    plus, base = np.flatnonzero(longer), np.flatnonzero(~longer)
    up_plus, up_base = -m[plus], -m[base]  # ascending
    order = np.empty_like(m)
    order[np.arange(len(plus)) + np.searchsorted(up_base, up_plus)] = plus
    order[np.arange(len(base))
          + np.searchsorted(up_plus, up_base, "right")] = base
    m = m[order]
    start, moduli = start[order, None], moduli[order, None]
    steps = np.arange(m[0])
    cuts = [0, *(np.flatnonzero(np.diff(m)) + 1).tolist(), len(m)]
    for lo, hi in zip(cuts, cuts[1:]):
        L = int(m[lo])
        if L:
            members = start[lo: hi] + moduli[lo: hi] * steps[:L]
            out[order[lo: hi]] = fvals[members].sum(axis=1)
    return out


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


def verify_periodicity(f: TabulatedFunction, g: TruncatedDivisorSum, N: int,
                       period: int, shifts) -> bool:
    """True iff C(N, a) agrees with C(N, a + period) for every listed shift:
    equal for an exact pair, within ``arith_core.tolerance`` otherwise."""
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if g.is_zero():
        raise UndefinedPeriodError("periodicity undefined for the zero TDS")
    bound = tolerance(f, g)
    shifts = list(shifts)
    values = _class_values(f, g, N, shifts + [a + period for a in shifts],
                           "direct")
    return all(agree(c, shifted, bound)
               for c, shifted in zip(values, values[len(shifts):]))


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


def build_profile(f: TabulatedFunction, g: TruncatedDivisorSum, N: int,
                  shifts, f_id: str = "", g_id: str = "",
                  method: str = "direct",
                  table: PrimeTable | None = None) -> CorrelationProfile:
    """Evaluate the correlation at each shift (deduplicated, ascending)
    by the route ``method``, set up once for the whole list (see
    ``_class_values``).  g must be a TDS.  The expansion route reads mu
    from the sieve ``table`` when it reaches g's cutoff, and sieves
    otherwise."""
    uniq = sorted(set(int(a) for a in shifts))
    if not uniq:
        raise ValueError("at least one shift is required")
    if method not in ("direct", "expansion"):
        raise ValueError(f"unknown method {method!r}")
    values = _class_values(f, g, N, uniq, method, table)
    return CorrelationProfile(N, f_id or f.name, g_id or g.name,
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
