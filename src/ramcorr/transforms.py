"""The Eratosthenes transform and its inverse, the divisor sum, divisor
truncation, and the odd-lift operator.

The Eratosthenes transform of F is F' = mu * F, the unique table with
F = F' * 1 (Mobius inversion).  Both directions run on one
divisor-lattice sweep, ``_convolve``, of (a * b)(n) for n <= M,
split at r = isqrt(M) as in Dirichlet's hyperbola method: each support
point d <= r of a adds one slice out[d::d] += a(d) b(1..M/d), and the
points d > r enter by one scatter per cofactor k = n/d <= r, in
descending k.  For a fixed slot n, descending k is ascending d, so each
slot adds its terms in the order of the plain per-d loop and Real
products and divisor sums are unchanged to the last bit.  The transform
runs the kernel on (mu, F), the divisor sum ``evaluate_tds_range`` on
(g', 1).  Its transpose, ``_multiple_sum``, sums over multiples instead
of divisors, out(q) = sum over k <= M/q of w(k) h(qk), with the same
split; the Wintner coefficients and their Lucht inversion in
``ramanujan`` run on it.

A ``TruncatedDivisorSum`` is the table g'(d) for d <= cutoff (the
table's limit); the function it induces,

    g(m) = sum of g'(d) over d | m with d <= cutoff,

is evaluable at arbitrarily large (big-integer) m because only
divisibility of m by small d is ever tested.

Every table holds its values in one array whose dtype follows its kind
(see ``arith_core.DTYPES``), so the kernel has a single body for
ExactInt and Real tables.  ExactInt inputs run that body on int64 when
each is a signed-integer array (a table's int64 store,
``TabulatedFunction._data``, or the sieve's int8 mu) and
max|a| max|b| 2 isqrt(M) < 2**63 (no slot has more than
tau(n) <= 2 isqrt(M) terms, so no product or partial sum can overflow);
the sums go into an int64 array, which becomes the store of the table
returned, and a narrow ``a`` is widened one gather at a time, never as a
whole.  Every other exact input, object arrays of Python ints, big ints
and Fractions alike, runs on Python ints.  So an exact ``transform --fn``
stays on fixed-width integers from the sieve to the written text.
The text format written and read here serves TDS and coefficient files
alike.
"""

from __future__ import annotations

import math
import re
import sys

import numpy as np

from .arith_core import (DTYPES, EXACT, REAL, SIEVE_CAP, PrimeTable,
                         TabulatedFunction, _sqrt_split, capped_sieve,
                         collapse)


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
    unused; ``b`` None is the constant 1, added with no product.  Zero
    terms are skipped: a Real slot never holds -0.0, so no bit changes.

    Real inputs are float64.  ExactInt integer inputs that
    ``_int64_lane`` admits run the same loops into an int64 ``out``,
    for a table to keep as its store; other exact inputs run on Python
    ints and Fractions, both cast to object.

    ``a`` may be narrower than int64 (the sieve's int8 mu); ``b`` is
    widened as a whole, which copies nothing for the int64 store every
    caller passes.  Each gather ``a[ds]`` is widened to out's dtype
    before its product: NumPy 1.x keeps an int8 gather times an int64
    scalar in a narrow type, which wraps, and the sums must not depend
    on the NumPy version.  A scalar a[d] times an int64 slice is int64
    under both casting rules.
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
    small, blocks = _sqrt_split(np.flatnonzero(a[1:]) + 1, M)
    for d in small.tolist():
        out[d::d] += a[d] if b is None else a[d] * b[1: M // d + 1]
    for k, ds in reversed(blocks):
        if b is None:
            out[k * ds] += a[ds]
        elif b[k]:
            out[k * ds] += a[ds].astype(out.dtype, copy=False) * b[k]
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
    """g(m) = sum of g'(d) over d <= cutoff dividing m; m may be huge."""
    if m < 1:
        raise ValueError(f"naturals start at 1, got {m}")
    acc = 0
    for d, v in g.support():
        if m % d == 0:
            acc += v
    return collapse(acc, g)


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

# lines per ``%`` in write_tds: few enough that one block's temporary
# lists stay small, many enough that the per-block cost vanishes
_WRITE_BLOCK = 1 << 14


def write_tds(g: TabulatedFunction, fh) -> None:
    """Write a table in the text format.

    The lines come straight from the table's int64 store, or else its
    value array, never from the cached ``support()`` list of tuples.
    They are formatted a block at a time, with one ``%`` of
    ``"%s\t%s\n"`` repeated over a flat tuple of the block's index/value
    pairs.  The values are Python scalars (``tolist``), so ``%s`` is
    str(): exact text for ints and Fractions, the shortest round-trip
    text for floats.  The whole text is formatted before anything is
    written, so a value str() refuses (an int past Python's int-to-str
    digit limit) leaves ``fh`` untouched, not holding a bare header that
    would read back as the zero table.
    """
    data = g._data
    idx = np.flatnonzero(data[1:]) + 1
    blocks = [f"cutoff={g.limit} kind={g.kind}\n"]
    for start in range(0, idx.size, _WRITE_BLOCK):
        block = idx[start: start + _WRITE_BLOCK]
        pairs = [None] * (2 * block.size)
        pairs[0::2] = block.tolist()
        pairs[1::2] = data[block].tolist()
        blocks.append("%s\t%s\n" * block.size % tuple(pairs))
    fh.write("".join(blocks))


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
