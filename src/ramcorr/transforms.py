"""Dirichlet convolution, the Eratosthenes transform, divisor truncation,
and the odd-lift operator.

The Eratosthenes transform of F is F' = mu * F, the unique table with
F = F' * 1 (Mobius inversion).  Both directions run as O(M log M)
divisor-lattice sweeps, never per-element Mobius sums.

A ``TruncatedDivisorSum`` is the table g'(d) for d <= cutoff (the
table's limit); the function it induces,

    g(m) = sum of g'(d) over d | m with d <= cutoff,

is evaluable at arbitrarily large (big-integer) m because only
divisibility of m by small d is ever tested.

Every table holds its values in one array whose dtype follows its kind
(see ``arith_core.DTYPES``), so each sweep below has a single body for
ExactInt and Real tables.  The text format written and read here serves
TDS and coefficient files alike.
"""

from __future__ import annotations

import math

import numpy as np

from .arith_core import (DTYPES, EXACT, REAL, PrimeTable, TabulatedFunction,
                         sieve_primes, zeros)


class TruncatedDivisorSum(TabulatedFunction):
    """Divisor-sum table g'(d), d in [1..limit], of either domain kind.

    The limit is the truncation cutoff and may be loose: entries above
    max supp(g') are simply zero.  A table of its own type only so that
    callers can tell the g' table of a function from the function itself.
    """


tds_from_et = TruncatedDivisorSum.from_entries
tds_is_zero = TruncatedDivisorSum.is_zero


# ----------------------------------------------------------------------
# convolution and inversion sweeps
# ----------------------------------------------------------------------

def dirichlet_convolve(F: TabulatedFunction, G: TabulatedFunction,
                       M: int | None = None) -> TabulatedFunction:
    """(F * G)(n) = sum over d | n of F(d) G(n/d), for n <= M.

    Real absorbs ExactInt by promotion.
    """
    if M is None:
        M = min(F.limit, G.limit)
    if F.limit < M or G.limit < M:
        raise ValueError(f"inputs must be tabulated to at least {M}")
    kind = EXACT if F.is_exact and G.is_exact else REAL
    fv = F.values[: M + 1].astype(DTYPES[kind])
    gv = G.values[: M + 1].astype(DTYPES[kind])
    out = zeros(M + 1, kind)
    for d in range(1, M + 1):
        v = fv[d]
        if v:
            out[d::d] += v * gv[1: M // d + 1]
    return TabulatedFunction(M, kind, out, f"({F.name}*{G.name})")


def eratosthenes_transform(F: TabulatedFunction,
                           M: int | None = None) -> TabulatedFunction:
    """F' = mu * F on [1..M], by the in-place divisor-lattice sweep.

    Processing d in increasing order, once every proper divisor of d has
    been subtracted the slot holds F'(d); it is then pushed off all
    higher multiples.
    """
    if M is None:
        M = F.limit
    if F.limit < M:
        raise ValueError(f"tabulated only to {F.limit}, need {M}")
    et = F.values[: M + 1].copy()
    for d in range(1, M // 2 + 1):
        v = et[d]
        if v:
            et[2 * d:: d] -= v
    return TabulatedFunction(M, F.kind, et, f"{F.name}'")


def divisor_sum_transform(F: TabulatedFunction,
                          M: int | None = None) -> TabulatedFunction:
    """(F * 1)(n) = sum of F(d) over d | n; inverse of the transform above."""
    if M is None:
        M = F.limit
    if F.limit < M:
        raise ValueError(f"tabulated only to {F.limit}, need {M}")
    out = zeros(M + 1, F.kind)
    for d in range(1, M + 1):
        v = F.values[d]
        if v:
            out[d::d] += v
    return TabulatedFunction(M, F.kind, out, f"({F.name}*1)")


def truncate(F: TabulatedFunction, N: int) -> TruncatedDivisorSum:
    """N-truncation of F: keep the transform values F'(d) for d <= N only."""
    et = eratosthenes_transform(F, N)
    return TruncatedDivisorSum(N, F.kind, et.values,
                               name=f"{F.name}_{N}" if F.name else "")


def retruncate(g: TruncatedDivisorSum, N: int) -> TruncatedDivisorSum:
    """Change the cutoff: drop entries above N, or pad with zeros up to N."""
    vals = zeros(N + 1, g.kind)
    top = min(N, g.limit) + 1
    vals[:top] = g.values[:top]
    return TruncatedDivisorSum(N, g.kind, vals, g.name)


def evaluate_tds(g: TruncatedDivisorSum, m: int):
    """g(m) = sum of g'(d) over d <= cutoff dividing m; m may be huge."""
    if m < 1:
        raise ValueError(f"naturals start at 1, got {m}")
    acc = 0 if g.is_exact else 0.0
    for d, v in g.support():
        if m % d == 0:
            acc += v
    return acc


def evaluate_tds_range(g: TruncatedDivisorSum, m_max: int) -> np.ndarray:
    """g(m) for all m in [1..m_max] at once, by a divisor sieve.

    Returns a value array of g's kind, index 0 unused.
    """
    if m_max < 1:
        raise ValueError(f"naturals start at 1, got {m_max}")
    out = zeros(m_max + 1, g.kind)
    vals = g.values[: m_max + 1]
    for d in np.flatnonzero(vals[1:]) + 1:
        out[d::d] += vals[d]
    return out


def odd_lift(x, method: str = "direct"):
    """Compose with the odd-part map: result(n) = x(odd_part(n)).

    For a TabulatedFunction two evaluation paths exist and must agree:
    ``direct`` reads x at odd_part(n); ``et`` zeroes the even entries of
    the Eratosthenes transform and re-convolves with 1 (odd naturals are
    divisor-closed, so both describe the same function).  For a
    TruncatedDivisorSum the lift acts on the stored transform, zeroing
    even d and preserving the cutoff.
    """
    if not isinstance(x, TabulatedFunction):
        raise ValueError("odd_lift expects a TabulatedFunction or a TDS")
    name = f"{x.name}^odd" if x.name else ""
    if isinstance(x, TruncatedDivisorSum):
        vals = x.values.copy()
        vals[0::2] = 0
        return TruncatedDivisorSum(x.limit, x.kind, vals, name)
    if method == "direct":
        n = np.arange(1, x.limit + 1)
        vals = zeros(x.limit + 1, x.kind)
        vals[1:] = x.values[n // (n & -n)]  # n & -n = 2^v2(n)
        return TabulatedFunction(x.limit, x.kind, vals, name)
    if method == "et":
        out = divisor_sum_transform(odd_lift(truncate(x, x.limit)))
        out.name = name
        return out
    raise ValueError(f"unknown odd_lift method {method!r}")


def lambda_tds(N: int, table: PrimeTable | None = None) -> TruncatedDivisorSum:
    """N-truncation of von Mangoldt: g'(d) = -mu(d) log d for d <= N."""
    if table is None:
        table = sieve_primes(max(N, 2))
    if table.limit < N:
        raise ValueError(f"sieve limit {table.limit} below {N}")
    mu = table.mobius_values[: N + 1].astype(np.float64)
    logs = np.zeros(N + 1, dtype=np.float64)
    if N >= 1:
        logs[1:] = np.log(np.arange(1, N + 1, dtype=np.float64))
    return TruncatedDivisorSum(N, REAL, -mu * logs, name=f"lambda_{N}")


# ----------------------------------------------------------------------
# text serialization of any table (TDS and coefficient files alike): a
# header line "cutoff=D kind=K", then one "d <TAB> value" per nonzero d
# ----------------------------------------------------------------------

def write_tds(g: TabulatedFunction, fh) -> None:
    """Write a table in the text format.

    Values are Python scalars, so str() gives exact text for ints and
    Fractions and the shortest round-trip text for floats.
    """
    fh.write(f"cutoff={g.limit} kind={g.kind}\n")
    for d, v in g.support():
        fh.write(f"{d}\t{v}\n")


def read_table(fh, cls, parse_exact):
    """Read the text format into a ``cls`` table.

    ExactInt values are parsed by ``parse_exact``, Real values by float.
    Every fault raises ValueError("line N: ...") locating it: a malformed
    header, an entry that does not parse, an index outside [1, cutoff], a
    second entry for the same index, or a NaN or infinite value.
    """
    header = fh.readline()
    parts = header.split()
    fields = dict(part.partition("=")[::2] for part in parts)
    if len(parts) != 2 or set(fields) != {"cutoff", "kind"}:
        raise ValueError(
            f"line 1: header must be 'cutoff=D kind=K', got {header!r}")
    try:
        cutoff = int(fields["cutoff"])
    except ValueError:
        raise ValueError(f"line 1: bad cutoff {fields['cutoff']!r}") from None
    kind = fields["kind"]
    if kind not in DTYPES or cutoff < 1:
        raise ValueError(f"line 1: malformed header {header!r}")
    parse = parse_exact if kind == EXACT else float
    entries = {}
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise ValueError(f"line {lineno}: expected 'd<TAB>value'")
        try:
            d, v = int(cols[0]), parse(cols[1])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: bad entry {line!r}") from None
        if not 1 <= d <= cutoff:
            raise ValueError(f"line {lineno}: d={d} outside [1, {cutoff}]")
        if d in entries:
            raise ValueError(f"line {lineno}: duplicate entry for d={d}")
        if not abs(v) < math.inf:  # false for NaN too; exact for big ints
            raise ValueError(f"line {lineno}: non-finite value {cols[1]!r}")
        entries[d] = v
    return cls.from_entries(entries, cutoff, kind)


def read_tds(fh) -> TruncatedDivisorSum:
    return read_table(fh, TruncatedDivisorSum, int)


def write_tds_path(g: TruncatedDivisorSum, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        write_tds(g, fh)


def read_tds_path(path) -> TruncatedDivisorSum:
    with open(path, "r", encoding="ascii") as fh:
        return read_tds(fh)
