"""Hardy-Littlewood correlation, the model ladder approximating it, the
artifact correlation, the singular series, and the normalized residual
that measures the ladder's growth envelope.

The ladder starts from the full double von Mangoldt sum

    hl(N, a) = sum over n <= N of Lambda(n) Lambda(n + a)

and walks to the artifact

    artifact(N, a) = sum over odd primes p <= N of (log p) L(odd_part(p + a)),

where L is the N-truncation of von Mangoldt: one formula for both
seasons, since the odd lift of L reads L at the odd part.  Each rung
differs from the previous by an explicitly enumerable correction
(truncation tail, even-index terms, higher prime powers), so the ladder
is testable exactly, not just asymptotically.  The artifact is itself a
two-seasons pair, hence evaluable at huge (big-integer) shifts.

The singular series

    S(a) = sum over q >= 1 of mu^2(q) c_q(a) / phi(q)^2

is computed both as a truncated sum and as the equivalent Euler product
prod over p of (1 + c_p(a)/(p-1)^2); the two act as mutual oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith_core import (REAL_TOL, PrimeTable, TabulatedFunction, _odd_primes,
                         _Residues, agree, capped_sieve, divisors_int,
                         mobius_int, odd_part, tabulate)
from .correlations import correlate_direct, format_value
from .ramanujan import universal_period
from .transforms import (TruncatedDivisorSum, evaluate_tds_range, lambda_tds,
                         odd_lift)


@dataclass(frozen=True)
class SingularSeriesValue:
    a: int
    truncated_sum: float
    euler_product: float
    truncation_q: int


@dataclass(frozen=True)
class ModelRow:
    """One (N, a) comparison row: the full correlation, the four ladder
    models, the artifact, and the (normalized) residual."""

    n: int
    a: int
    hl: float
    m61: float        # Lambda against truncated Lambda
    m62: float        # Lambda against odd-lifted truncation
    m63: float        # odd n only
    m64: float        # odd n against plain truncation (matches m63 for even a)
    artifact: float
    residual: float
    normalized: float | None  # residual scale factor; None on odd shifts


def _dot(x, y) -> float:
    """Sum of x * y by numpy's pairwise summation, which makes no BLAS
    call: the value does not depend on the host's BLAS thread count.

    The products form one contiguous float64 array, which ``add.reduce``
    sums in leaves of at most 128 terms (eight running sums) joined
    pairwise.  Each product is rounded once and passes through at most
    ceil(log2 n) + 26 additions: at most 25 inside its leaf, one per
    pairwise level, and on some numpy versions one for the first term.
    So with k = ceil(log2 n) + 27 and gamma_k = k u / (1 - k u),
    u = 2**-53, the computed value is within gamma_k * sum |x_i y_i| of
    the exact one (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 4.2).
    """
    return float(np.add.reduce(x * y))


def _odd_parts(M: int) -> np.ndarray:
    """odd_part(m) for m in [1..M] as an index array, with 0 at index 0."""
    m = np.arange(M + 1)
    m[1:] //= m[1:] & -m[1:]
    return m


def artifact_pair(N: int, table: PrimeTable | None = None
                  ) -> tuple[TabulatedFunction, TruncatedDivisorSum]:
    """The flagship two-seasons pair: f = log p on odd primes <= N,
    g = odd-lifted N-truncation of von Mangoldt."""
    table = capped_sieve(N, table)
    f = tabulate("odd_primes_log", N, table)
    g = odd_lift(lambda_tds(N, table))
    return f, g


def artifact(N: int, a: int, table: PrimeTable | None = None) -> float:
    """The artifact correlation at shift a (a may be a huge integer)."""
    f, g = artifact_pair(N, table)
    return correlate_direct(f, g, N, a)


def artifact_identity_check(N: int, a: int, table: PrimeTable) -> bool:
    """Check the closed form of the artifact against full Lambda:

        sum over odd primes p <= N of (log p) Lambda(odd_part(p + a)),

    one formula for both seasons: p + a is odd for even a, and for odd a
    the only power-of-two split (p + a) / 2^j with an odd quotient is
    j = v2(p + a).

    The closed form reads the untruncated Lambda, so it exceeds the
    artifact by the exact tail sum over divisors above N; the check adds
    that correction and then requires equality within
    REAL_TOL * max(1, |closed form|).
    """
    if a < 1:
        raise ValueError(f"shifts are naturals >= 1, got {a}")
    table = capped_sieve(N + a, table)
    lam = table.von_mangoldt_values
    art = artifact(N, a, table)
    closed = 0.0
    correction = 0.0
    for p in _odd_primes(N, table).tolist():
        lp = math.log(p)
        m_odd = odd_part(p + a)
        closed += lp * lam[m_odd]
        for d in divisors_int(m_odd):
            if d > N:
                mu_d = mobius_int(d)
                if mu_d:
                    correction += lp * (-mu_d * math.log(d))
    return agree(closed, art + correction, REAL_TOL * max(1.0, abs(closed)))


def model_chain(N: int, a_list, table: PrimeTable) -> list[ModelRow]:
    """One row per shift of a_list, in its order and with repeats kept:
    all ladder values plus the full correlation and artifact at (N, a).

    Lambda_N on [1..N + max a] comes from one range sweep, and
    Lambda_N^odd(m) = Lambda_N(odd_part(m)) is read from it at the odd
    parts: the sweep adds the terms of each slot in ascending d, so slot
    odd_part(m) holds, to the bit, the sweep of the odd-lifted table at
    m.  The sweep's terms do not depend on the range's top, so each row
    is bitwise the row of its shift alone.

    For even shifts an odd n keeps n + a odd, so the odd-index rung m63
    and its plain-truncation twin m64 sum the same products.
    """
    a_list = [int(a) for a in a_list]
    if N < 2 or min(a_list, default=1) < 1:
        raise ValueError(f"need a length N >= 2 and shifts a >= 1, "
                         f"got N = {N}, a = {a_list}")
    M = N + max(a_list, default=0)
    table = capped_sieve(M, table)
    lam = table.von_mangoldt_values
    lam_n = evaluate_tds_range(lambda_tds(N, table), M)
    lam_n_odd = lam_n[_odd_parts(M)]
    f = tabulate("odd_primes_log", N, table).values
    rows = []
    for a in a_list:
        hl = _dot(lam[1: N + 1], lam[1 + a: N + 1 + a])
        m61 = _dot(lam[1: N + 1], lam_n[1 + a: N + 1 + a])
        m62 = _dot(lam[1: N + 1], lam_n_odd[1 + a: N + 1 + a])
        # odd n slices: n = 1, 3, 5, ...
        m63 = _dot(lam[1: N + 1: 2], lam_n_odd[1 + a: N + 1 + a: 2])
        m64 = _dot(lam[1: N + 1: 2], lam_n[1 + a: N + 1 + a: 2])
        art = _dot(f[1: N + 1], lam_n_odd[1 + a: N + 1 + a])
        residual = hl - art
        normalized = None
        if a % 2 == 0:
            normalized = abs(residual) / (
                (math.sqrt(N) + a) * math.log(N) * math.log(N + a))
        rows.append(ModelRow(N, a, hl, m61, m62, m63, m64, art, residual,
                             normalized))
    return rows


# ----------------------------------------------------------------------
# singular series
# ----------------------------------------------------------------------

# the series buffer is filled this many q at a time, so that every
# temporary is one block long
_PHI2_BLOCK = 1 << 16
# a shift is reduced modulo this many of the primes <= Q at a time
_PRIME_BLOCK = 1 << 12


def singular_series(a_list, Q: int = 100_000,
                    table: PrimeTable | None = None
                    ) -> list[SingularSeriesValue]:
    """Truncated sum over q <= Q of mu^2(q) c_q(a) / phi(q)^2, next to the
    Euler-product oracle over primes p <= Q, one value per shift of a_list
    in its order.

    The working set is one Q-length float64 buffer, reused by every
    shift and filled one block of ``_PHI2_BLOCK`` q at a time: the block
    takes c_q(a) = sum over d | (a, q) of d mu(q/d), from the sieve's
    int8 mu widened to float64 one gather at a time (d mu overflows
    int8 once d > 127), is multiplied by the block's bool mask
    mu != 0, and is divided by the block's phi^2.  So no other array is
    Q long.  Each entry of c is an integer below 2**53, so it is exact
    in any order; phi^2 is float(phi) * float(phi) as a full-length one
    would be; so each term gets the two roundings (c mu^2) / phi^2 of
    the full-array formula, and ``np.sum`` over the contiguous terms
    builds the same pairwise tree.  Only the square-free d are added:
    another d writes c only where the mask makes the term +-0.0, and a
    signed zero moves no sum that holds the q = 1 term 1.0.

    a is read only modulo the primes p <= min(Q, a), with Python ints:
    that loop gives both the square-free divisors d <= Q of a and the
    Euler factors, so a of any size is never factored.

    Odd a: the p = 2 factor is 1 + c_2(a) = 0, so the product vanishes
    and the truncated sum tends to 0.
    """
    a_list = [int(a) for a in a_list]
    if min(a_list, default=1) < 1 or Q < 2:
        raise ValueError("need a >= 1 and Q >= 2")
    table = capped_sieve(Q, table)
    mu = table.mobius_values
    phi = table.phi_values
    primes = table.primes[: np.searchsorted(table.primes, Q, side="right")]
    p = primes.astype(np.float64)
    c = np.zeros(Q + 1, dtype=np.float64)
    out = []
    for a in a_list:
        divisors, divides = _divisors_upto(a, Q, primes)
        for lo in range(1, Q + 1, _PHI2_BLOCK):
            hi = min(lo + _PHI2_BLOCK, Q + 1)
            blk = c[lo: hi]
            blk[:] = mu[lo: hi]  # d = 1, which also clears the last shift
            for d in divisors[1:]:
                # the k with lo <= d k < hi
                k0, k1 = -(-lo // d), (hi - 1) // d + 1
                if k0 < k1:
                    blk[d * k0 - lo:: d] += d * mu[k0: k1].astype(np.float64)
            blk *= mu[lo: hi] != 0
            phi2 = phi[lo: hi].astype(np.float64)
            phi2 *= phi2
            blk /= phi2
        truncated = float(np.sum(c[1:]))
        cp = np.where(divides, p - 1.0, -1.0)
        euler = float(np.prod(1.0 + cp / (p - 1.0) ** 2))
        out.append(SingularSeriesValue(a, truncated, euler, Q))
    return out


def _divisors_upto(a: int, Q: int, primes: np.ndarray
                   ) -> tuple[list[int], np.ndarray]:
    """The square-free divisors d <= Q of a (1 first), and the mask of the
    ascending ``primes`` (all <= Q) that divide a, from a mod p over the
    primes p <= min(Q, a) (``arith_core._Residues``), one block of
    ``_PRIME_BLOCK`` primes at a time, so that no temporary, and no
    product tree of a shift past 2**62, spans all the primes.  Only
    these d reach a term of the series: a divisor with a square factor
    writes c only at q with the same square factor, which the mask
    mu != 0 sets to 0."""
    divides = np.zeros(len(primes), dtype=bool)
    top = int(np.searchsorted(primes, min(Q, a), side="right"))
    for lo in range(0, top, _PRIME_BLOCK):
        block = primes[lo: min(lo + _PRIME_BLOCK, top)]
        divides[lo: lo + len(block)] = _Residues(block)(a) == 0
    divisors = [1]
    for p in primes[divides].tolist():
        divisors += [d * p for d in divisors if d * p <= Q]
    return divisors, divides


# ----------------------------------------------------------------------
# prime-counting sanity
# ----------------------------------------------------------------------

def chebyshev_theta(N: int, table: PrimeTable) -> float:
    """theta(N) = sum of log p over primes p <= N."""
    table = capped_sieve(max(N, 2), table)
    pr = table.primes[table.primes <= N]
    return float(table.von_mangoldt_values[pr].sum())


def pnt_sanity(N: int, table: PrimeTable) -> bool:
    """Exact identity up to float rounding: log(2 * U_N) == theta(N),
    U_N the product of odd primes up to N."""
    U = universal_period(N, table)
    return agree(math.log(2 * U), chebyshev_theta(N, table), 1e-6)


# ----------------------------------------------------------------------
# CSV export (gnuplot-ready)
# ----------------------------------------------------------------------

MODEL_CSV_HEADER = "N,a,hl,m61,m62,m63,m64,artifact,residual,normalized"


def model_rows_to_csv(rows, fh) -> None:
    fh.write(MODEL_CSV_HEADER + "\n")
    for r in rows:
        norm = format_value(r.normalized) if r.normalized is not None else ""
        cells = [str(r.n), str(r.a)] + [
            format_value(x) for x in
            (r.hl, r.m61, r.m62, r.m63, r.m64, r.artifact, r.residual)
        ] + [norm]
        fh.write(",".join(cells) + "\n")


def singular_to_csv(values, fh) -> None:
    fh.write("a,truncated,euler_product,Q\n")
    for s in values:
        fh.write(f"{s.a},{format_value(s.truncated_sum)},"
                 f"{format_value(s.euler_product)},{s.truncation_q}\n")
