"""The Eratosthenes transform and its inverse, the divisor sum, divisor
truncation, and the odd-lift operator.

The Eratosthenes transform of F is F' = mu * F, the unique table with
F = F' * 1 (Mobius inversion).  Both directions run on one
divisor-lattice sweep, ``_convolve``, of (a * b)(n) for n <= M,
split at r = isqrt(M) as in Dirichlet's hyperbola method: each support
point d <= r of a adds one slice out[d::d] += a(d) b(1..M/d), and the
points d > r enter by one strided add per cofactor k = n/d <= r, in
descending k (one scatter of a's support on the object lane).  For a
fixed slot n, descending k is ascending d, so each slot adds its terms
in the order of the plain per-d loop and Real products and divisor sums
are unchanged to the last bit.  The transform
runs the kernel on (mu, F), the divisor sum ``evaluate_tds_range`` on
(g', 1).  Its transpose, ``_multiple_sum``, sums over multiples instead
of divisors, out(q) = sum over k <= M/q of w(k) h(qk), with the same
split; the Wintner coefficients and their Lucht inversion in
``ramanujan`` run on it.

A ``TruncatedDivisorSum`` is the table g'(d) for d <= cutoff (the
table's limit); the function it induces,

    g(m) = sum of g'(d) over d | m with d <= cutoff,

is evaluable at arbitrarily large (big-integer) m because only
divisibility of m by small d is ever tested: ``evaluate_tds`` reads the
residues m mod d over supp g' as one array (``arith_core._Residues``).

Every table holds its values in one array whose dtype follows its kind
(see ``arith_core.DTYPES``), so the kernel has a single body for
ExactInt and Real tables.  ExactInt inputs run that body on int64 when
each is a signed-integer array (a table's int64 store,
``TabulatedFunction._data``, or the sieve's int8 mu) and
max|a| max|b| 2 isqrt(M) < 2**63 (no slot has more than
tau(n) <= 2 isqrt(M) terms, so no product or partial sum can overflow);
the sums go into an int64 array, which becomes the store of the table
returned, and a narrow ``a`` is widened inside each product, never as a
whole.  Every other exact input, object arrays of Python ints, big ints
and Fractions alike, runs on Python ints.  So an exact ``transform --fn``
stays on fixed-width integers from the sieve to the written text, whose
digits ``write_tds`` forms in numpy and streams out a block at a time.
The text format written and read here serves TDS and coefficient files
alike.
"""

from __future__ import annotations

import math
import re
import sys

import numpy as np

from .arith_core import (DTYPES, EXACT, REAL, SIEVE_CAP, PrimeTable,
                         TabulatedFunction, _Residues, _sqrt_split,
                         _sum_from_zero, capped_sieve, collapse)


class TruncatedDivisorSum(TabulatedFunction):
    """Divisor-sum table g'(d), d in [1..limit], of either domain kind.

    The limit is the truncation cutoff and may be loose: entries above
    max supp(g') are simply zero.  A table of its own type only so that
    callers can tell the g' table of a function from the function itself.
    """


tds_from_et = TruncatedDivisorSum.from_entries


# ----------------------------------------------------------------------
# convolution and inversion sweeps
# ----------------------------------------------------------------------

def _int64_lane(a: np.ndarray, b, M: int) -> bool:
    """Whether the exact kernel can run on (a, b) in int64: both are
    signed-integer arrays and max|a| max|b| 2 isqrt(M) < 2**63
    (max|b| = 1 for ``b`` None).  Slot n adds tau(n) <= 2 isqrt(M)
    terms, so no product or partial sum can overflow.  An object array
    is never cast: it runs on Python ints whatever it holds.
    """
    bound = 2 * math.isqrt(M)
    for v in (a,) if b is None else (a, b):
        if v.dtype.kind != "i":
            return False
        bound *= max(int(v.max()), -int(v.min()))
    return bound < 2 ** 63


def _convolve(a, b, M: int, kind: str) -> np.ndarray:
    """out[n] = sum over d | n of a[d] b[n/d] for n in [1..M], index 0
    unused; ``b`` None is the constant 1, added with no product.  ``a``
    may stop short of M (its own limit); ``b`` reaches M.

    Real inputs are float64.  ExactInt integer inputs that
    ``_int64_lane`` admits run in an int64 ``out``, for a table to keep
    as its store; other exact inputs run on Python ints and Fractions,
    both cast to object.

    Each d <= r = isqrt(M) with a[d] != 0 adds one slice
    out[d::d] += a[d] b(1..M/d).  On the fixed-width lanes (int64 and
    float64) the d > r enter by one strided add per cofactor k <= M/(r+1),
    in descending k: out[k d] += a[d] b[k] for every d in (r, M/k] at
    once, read as a view of ``a``, so no index array or gather is built.
    For a fixed slot, descending k is ascending d, so each slot adds its
    terms in the order of the plain per-d loop.  The zeros of ``a`` among
    them add nothing: an int64 slot is unchanged, and a float64 slot
    starts at +0.0 and so never holds -0.0, on which adding a zero (or
    -0.0, as ``lambda_tds`` holds) could flip the sign; a Real sum is
    that loop's to the last bit for finite ``b``, as every table is.
    On the object lane each term is a Python operation, so the d > r
    come from a's support, one scatter per cofactor (``_sqrt_split``).

    ``a`` may be narrower than int64 (the sieve's int8 mu) and is never
    widened as a whole; ``b`` is, which copies nothing for the int64
    store every caller passes.  A view of ``a`` is multiplied by
    b[k: k + 1], a one-element array, not by the scalar b[k]: NumPy 1.x
    keeps an int8 array times an int64 scalar in a narrow type, which
    wraps, while an array's dtype promotes under both casting rules, so
    the sums do not depend on the NumPy version.  A scalar a[d] times an
    int64 slice is int64 under both rules too.
    """
    a = a[: M + 1]
    if b is not None:
        b = b[: M + 1]
    if kind == EXACT and not _int64_lane(a, b, M):
        a = a.astype(object, copy=False)
        b = None if b is None else b.astype(object, copy=False)
    elif b is not None and b.dtype.kind == "i":
        b = b.astype(np.int64, copy=False)
    out = np.zeros(M + 1, dtype=np.int64 if a.dtype.kind == "i" else a.dtype)
    r = math.isqrt(M)
    for d in (np.flatnonzero(a[1: r + 1]) + 1).tolist():
        out[d::d] += a[d] if b is None else a[d] * b[1: M // d + 1]
    if out.dtype == object:
        for k, ds in reversed(_sqrt_split(np.flatnonzero(a[1:]) + 1, M)[1]):
            if b is None or b[k]:
                out[k * ds] += a[ds] if b is None else a[ds] * b[k]
        return out
    lo = r + 1
    ks = np.arange(M // lo, 0, -1)
    for k, top in zip(ks.tolist(), np.minimum(M // ks, a.size - 1).tolist()):
        if b is None:
            out[k * lo: k * top + 1: k] += a[lo: top + 1]
        elif b[k]:
            out[k * lo: k * top + 1: k] += a[lo: top + 1] * b[k: k + 1]
    return out


def _multiple_sum(w, h, M: int) -> np.ndarray:
    """out[q] = sum over k <= M/q of w[k] h[qk] for q in [1..M], index 0
    unused; ``w`` None is the constant 1, added with no product.

    The transpose of ``_convolve``, split the same way over the support
    of w: each k <= r = isqrt(M) adds one scatter
    out[q] += w(k) h(qk) for every q <= M/k at once, and the k > r,
    which reach only q <= M // (r + 1), enter by one gather per block
    (q, ks) and a running sum.  Only terms with h(qk) != 0 are added,
    so each slot adds its nonzero terms in ascending k, as the plain
    per-q loop does: Real sums are that loop's to the last bit, an exact
    slot with no such term stays the int 0, and an exact table adds no
    more Fractions than it has terms.  ``h`` is float64 (Real) or object
    (exact: Python ints and Fractions); ``w`` is cast to h's dtype.
    """
    h = h[: M + 1]
    live = h.astype(bool)
    if w is not None:
        w = w[: M + 1].astype(h.dtype)
    out = np.zeros(M + 1, dtype=h.dtype)
    points = np.arange(1, M + 1) if w is None else np.flatnonzero(w[1:]) + 1
    small, blocks = _sqrt_split(points, M)
    for k in small.tolist():
        qs = np.flatnonzero(live[k::k]) + 1
        out[qs] += h[k * qs] if w is None else w[k] * h[k * qs]
    for q, ks in blocks:
        ks = ks[live[q * ks]]
        terms = h[q * ks] if w is None else w[ks] * h[q * ks]
        out[q] = np.cumsum(np.concatenate((out[q: q + 1], terms)))[-1]
    return out


def eratosthenes_transform(F: TabulatedFunction, M: int | None = None,
                           table: PrimeTable | None = None
                           ) -> TabulatedFunction:
    """F' = mu * F on [1..M]; without a table, sieves to M (at most
    ``SIEVE_CAP``).

    Real: every term mu(d) F(n/d) is exact and slot n adds at most tau(n)
    of them, so F'(n) is within gamma(tau(n)) * sum over d | n of |F(n/d)|
    of the exact mu * F of the stored table (tau the divisor count, gamma
    as in ``correlations.correlate_direct``).
    """
    if M is None:
        M = F.limit
    if F.limit < M:
        raise ValueError(f"tabulated only to {F.limit}, need {M}")
    mu = capped_sieve(M, table).mobius_values[: M + 1]  # int8, not copied
    if not F.is_exact:
        mu = mu.astype(np.float64)
    return TabulatedFunction(M, F.kind, _convolve(mu, F._data, M, F.kind),
                             f"{F.name}'")


def truncate(F: TabulatedFunction, N: int,
             table: PrimeTable | None = None) -> TruncatedDivisorSum:
    """N-truncation of F: keep the transform values F'(d) for d <= N only."""
    et = eratosthenes_transform(F, N, table)
    return TruncatedDivisorSum(N, F.kind, et._data,
                               name=f"{F.name}_{N}" if F.name else "")


def retruncate(g: TruncatedDivisorSum, N: int) -> TruncatedDivisorSum:
    """Change the cutoff: drop entries above N, or pad with zeros up to N."""
    if N < 1:
        raise ValueError(f"naturals start at 1, got {N}")
    src = g._data
    vals = np.zeros(N + 1, dtype=src.dtype)
    top = min(N, g.limit) + 1
    vals[:top] = src[:top]
    return TruncatedDivisorSum(N, g.kind, vals, g.name)


def evaluate_tds(g: TruncatedDivisorSum, m: int):
    """g(m) = sum of g'(d) over d <= cutoff dividing m, added in
    ascending d; m may be huge.  The residues m mod d over supp g' are
    one array (``arith_core._Residues``: one int64 remainder below
    2**62, a product tree of the moduli above)."""
    if m < 1:
        raise ValueError(f"naturals start at 1, got {m}")
    ds = g.support()
    return collapse(_sum_from_zero(g[ds[_Residues(ds)(m) == 0]]), g)


def evaluate_tds_range(g: TabulatedFunction, m_max: int) -> np.ndarray:
    """g(m) for all m in [1..m_max] at once, as a value array of g's kind
    (index 0 unused; Python ints for an exact table): the sum of the
    table's entries g'(d) over d | m (any table serves as g'), that is
    the divisor sum g' * 1."""
    if m_max < 1:
        raise ValueError(f"naturals start at 1, got {m_max}")
    out = _convolve(g._data, None, m_max, g.kind)
    return out.astype(object) if out.dtype == np.int64 else out


def odd_lift(g: TruncatedDivisorSum) -> TruncatedDivisorSum:
    """Compose with the odd-part map: the lift evaluates at n to
    g(odd_part(n)).

    Odd naturals are divisor-closed, so the lift acts on the stored
    table g': it zeroes the entries at even d and keeps the cutoff.
    """
    if not isinstance(g, TruncatedDivisorSum):
        raise ValueError("odd_lift expects a TDS")
    vals = g._data.copy()
    vals[0::2] = 0
    return TruncatedDivisorSum(g.limit, g.kind, vals,
                               f"{g.name}^odd" if g.name else "")


def lambda_tds(N: int, table: PrimeTable | None = None) -> TruncatedDivisorSum:
    """N-truncation of von Mangoldt: g'(d) = -mu(d) log d for d <= N.

    Without a table, sieves to N (at most ``SIEVE_CAP``).
    """
    mu = capped_sieve(N, table).mobius_values[: N + 1].astype(np.float64)
    logs = np.zeros(N + 1, dtype=np.float64)
    logs[1:] = np.log(np.arange(1, N + 1, dtype=np.float64))
    return TruncatedDivisorSum(N, REAL, -mu * logs, name=f"lambda_{N}")


# ----------------------------------------------------------------------
# text serialization of any table (TDS and coefficient files alike): a
# header line "cutoff=D kind=K", then one "d <TAB> value" per nonzero d
# ----------------------------------------------------------------------

# index points per window of write_tds, so at most that many lines per
# block: few enough that one block's temporaries stay small, many enough
# that the per-block cost vanishes
_WRITE_BLOCK = 1 << 14


def _int64_lines(idx: np.ndarray, vals: np.ndarray) -> str:
    """The lines "d\tv\n" of the positive int64 points ``idx`` and the
    nonzero int64 values ``vals``, as str() writes them, built in numpy.

    One uint8 row per line holds the index's digits, a tab, the sign,
    the value's digits and a newline, each digit field right-aligned to
    the block's widest.  The places above a number's leading digit hold
    0, as does the sign of a positive value, and the rows read off in
    order without their 0 bytes are the lines.  A magnitude is read as
    uint64, so -2**63, whose abs wraps to itself, reads 2**63.
    """
    ten = np.uint64(10)
    fields = idx.view(np.uint64), np.abs(vals).view(np.uint64)
    widths = [len(str(int(x.max()))) for x in fields]
    wi, wv = widths
    rows = np.empty((idx.size, wi + wv + 3), dtype=np.uint8)
    rows[:, wi] = ord("\t")
    rows[:, wi + 1] = (vals < 0) * ord("-")
    rows[:, -1] = ord("\n")
    for x, width, stop in zip(fields, widths, (wi, wi + 2 + wv)):
        for j in range(stop - 1, stop - width - 1, -1):
            q = x // ten
            rows[:, j] = np.where(x > 0, x - q * ten + ord("0"), 0)
            x = q
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _str_lines(idx: np.ndarray, vals: np.ndarray) -> str:
    """The lines "d\tv\n" by str() of Python scalars (``tolist``): exact
    text for ints and Fractions, the shortest round-trip text for
    floats; one ``%`` over the block's index/value pairs."""
    pairs = [None] * (2 * idx.size)
    pairs[0::2] = idx.tolist()
    pairs[1::2] = vals.tolist()
    return "%s\t%s\n" * idx.size % tuple(pairs)


def write_tds(g: TabulatedFunction, fh) -> None:
    """Write a table in the text format.

    The lines are the points of ``support()``, found and formatted one
    window of ``_WRITE_BLOCK`` points at a time, with their values read
    straight from the table's int64 store, or else its value array.  An
    int64 store's lines are formatted in numpy (``_int64_lines``), a
    value array's by str() (``_str_lines``), to the same text.
    A fixed-width table (an int64 store or float64 values) is written to
    ``fh`` block by block, since no value of it can be refused.  An
    object table is formatted whole before anything is written, so a
    value str() refuses (an int past Python's int-to-str digit limit)
    leaves ``fh`` untouched, not holding a bare header that would read
    back as the zero table.
    """
    data = g._data
    lines = _int64_lines if data.dtype == np.int64 else _str_lines
    windows = (np.flatnonzero(data[lo: lo + _WRITE_BLOCK]) + lo
               for lo in range(1, g.limit + 1, _WRITE_BLOCK))
    blocks = (lines(idx, data[idx]) for idx in windows if idx.size)
    header = f"cutoff={g.limit} kind={g.kind}\n"
    if data.dtype == object:
        fh.write(header + "".join(blocks))
    else:
        fh.write(header)
        for block in blocks:
            fh.write(block)


# the only exact value texts write_tds emits: an int, and in a table read
# by Fraction also a Fraction's p/q (q > 0), so that int() or Fraction()
# refuses a text these take only for a digit run past the int-to-str limit
_INT_TEXT = re.compile(r"-?[0-9]+")
_FRACTION_TEXT = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")
# the only Real value text it emits: str() of a float (float() would also
# take +5, 1_0 and " 7"); read_table then refuses inf and nan by name
_REAL_TEXT = re.compile(r"-?([0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?|inf|nan)")
# the only index and cutoff text it emits (int() would also take +3, 1_0)
_INDEX_TEXT = re.compile(r"[0-9]+")


def _ascii(lineno: int, line: str, where: str = "line ") -> str:
    """The line itself, or ValueError naming its first non-ASCII byte at
    ``where`` + lineno.

    Files are opened by ``open_table``, which passes a raw byte b through
    as the lone surrogate U+DC00 + b.
    """
    if line.isascii():
        return line
    c = ord(next(ch for ch in line if not ch.isascii()))
    what = (f"byte {c - 0xDC00:#04x}" if 0xDC80 <= c <= 0xDCFF
            else f"character U+{c:04X}")
    raise ValueError(f"{where}{lineno}: non-ASCII {what}")


def read_table(fh, cls, parse_exact, max_cutoff: int = SIEVE_CAP):
    """Read the text format into a ``cls`` table.

    The cutoff and every index must read ``digits``.  ExactInt values
    must read ``[-]digits``, or also ``[-]digits/digits`` with a nonzero
    denominator when ``parse_exact`` is not int, and are then parsed by
    ``parse_exact``; Real values must read as str() writes a float,
    ``[-]digits[.digits][e[+-]digits]``, ``inf`` or ``nan``, and are then
    parsed by float.
    Every fault raises ValueError("line N: ...") locating it: a non-ASCII
    byte, a malformed header, a cutoff above ``max_cutoff`` (checked
    before the table is allocated), an entry that does not parse (or a
    number past Python's int-to-str digit limit, named as such), an
    index outside [1, cutoff], a second entry for the same index, or a
    NaN or infinite value.
    """
    header = _ascii(1, fh.readline())
    parts = header.split()
    fields = dict(part.partition("=")[::2] for part in parts)
    if len(parts) != 2 or set(fields) != {"cutoff", "kind"}:
        raise ValueError(
            f"line 1: header must be 'cutoff=D kind=K', got {header!r}")
    try:
        if not _INDEX_TEXT.fullmatch(fields["cutoff"]):
            raise ValueError(fields["cutoff"])
        cutoff = int(fields["cutoff"])
    except ValueError:
        raise ValueError(f"line 1: bad cutoff {fields['cutoff']!r}") from None
    kind = fields["kind"]
    if kind not in DTYPES or cutoff < 1:
        raise ValueError(f"line 1: malformed header {header!r}")
    if cutoff > max_cutoff:
        raise ValueError(
            f"line 1: cutoff {cutoff} exceeds the cap {max_cutoff} "
            "(sieve_limit)")
    if kind == EXACT:
        parse = parse_exact
        grammar = _INT_TEXT if parse_exact is int else _FRACTION_TEXT
    else:
        parse, grammar = float, _REAL_TEXT
    entries = {}
    for lineno, line in enumerate(fh, start=2):
        line = _ascii(lineno, line).strip()
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise ValueError(f"line {lineno}: expected 'd<TAB>value'")
        if not (_INDEX_TEXT.fullmatch(cols[0]) and grammar.fullmatch(cols[1])):
            raise ValueError(f"line {lineno}: bad entry {line!r}")
        try:
            d, v = int(cols[0]), parse(cols[1])
        except ValueError:
            # text the grammar takes fails only on a digit run past the
            # limit, which float() has not: a Real line's index is at fault
            longest = max(map(len, _INDEX_TEXT.findall(
                line if kind == EXACT else cols[0])))
            raise ValueError(
                f"line {lineno}: a {longest}-digit number exceeds Python's "
                f"int-to-str limit of {sys.get_int_max_str_digits()} digits"
            ) from None
        if not 1 <= d <= cutoff:
            raise ValueError(f"line {lineno}: d={d} outside [1, {cutoff}]")
        if d in entries:
            raise ValueError(f"line {lineno}: duplicate entry for d={d}")
        if not abs(v) < math.inf:  # false for NaN too; exact for big ints
            raise ValueError(f"line {lineno}: non-finite value {cols[1]!r}")
        entries[d] = v
    return cls.from_entries(entries, cutoff, kind)


def read_tds(fh, max_cutoff: int = SIEVE_CAP) -> TruncatedDivisorSum:
    return read_table(fh, TruncatedDivisorSum, int, max_cutoff)


def open_table(path):
    """Open a text file for ``read_table`` or the CLI's config reader,
    which name the line of any non-ASCII byte (see ``_ascii``)."""
    return open(path, "r", encoding="ascii", errors="surrogateescape")
