"""Hardy-Littlewood correlation, the model ladder approximating it, the
artifact correlation, the singular series, and empirical growth checks.

The ladder starts from the full double von Mangoldt sum

    hl(N, a) = sum over n <= N of Lambda(n) Lambda(n + a)

and walks to the artifact

    artifact(N, a) = sum over odd primes p <= N of (log p) L(p + a),

where L is the odd-lifted N-truncation of von Mangoldt.  Each rung
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

from .arith_core import (REAL_TOL, PrimeTable, TabulatedFunction, agree,
                         capped_sieve, divisors_int, mobius_int, odd_part,
                         tabulate)
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


def hl_correlation(N: int, a: int, table: PrimeTable) -> float:
    """Exact double-log sum over n <= N of Lambda(n) Lambda(n+a)."""
    if a < 1 or N < 1:
        raise ValueError("length and shift must be naturals")
    table = capped_sieve(N + a, table)
    lam = table.von_mangoldt_values
    return _dot(lam[1: N + 1], lam[1 + a: N + 1 + a])


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
    """Check the closed parity form of the artifact against full Lambda.

    Even a:  sum over odd p <= N of (log p) Lambda(p + a).
    Odd a:   the power-of-two split sum over j >= 1 of (log p)
             Lambda((p + a) / 2^j), restricted to odd quotients.

    The closed forms read the untruncated Lambda, so they exceed the
    artifact by the exact tail sum over divisors above N; the check adds
    that correction and then requires equality within
    REAL_TOL * max(1, |closed form|).
    """
    if a < 1:
        raise ValueError(f"shifts are naturals >= 1, got {a}")
    table = capped_sieve(N + a, table)
    lam = table.von_mangoldt_values
    primes = [int(p) for p in table.primes if 2 < p <= N]
    art = artifact(N, a, table)
    closed = 0.0
    correction = 0.0
    for p in primes:
        lp = math.log(p)
        m = p + a
        if a % 2 == 0:
            closed += lp * lam[m]
            m_odd = m
        else:
            j_max = int(math.log2(N + a))
            for j in range(1, j_max + 1):
                step = 1 << j
                if m % step == 0:
                    q = m // step
                    if q % 2:
                        closed += lp * lam[q]
            m_odd = odd_part(m)
        for d in divisors_int(m_odd):
            if d > N:
                mu_d = mobius_int(d)
                if mu_d:
                    correction += lp * (-mu_d * math.log(d))
    return agree(closed, art + correction, REAL_TOL * max(1.0, abs(closed)))


def model_chain(N: int, a_list, table: PrimeTable) -> list[ModelRow]:
    """One row per shift of a_list, in its order and with repeats kept:
    all ladder values plus the full correlation and artifact at (N, a).

    Lambda_N and Lambda_N^odd on [1..N + max a], and the odd-prime logs on
    [1..N], are built once for all the shifts.  The range sweep adds the
    terms of each slot in ascending d whatever the range's top, so each
    row is bitwise the row of its shift alone.

    For even shifts the odd-index rung equals, identically, the same sum
    read through the plain truncation; that equality is asserted here.
    """
    a_list = [int(a) for a in a_list]
    if N < 2 or min(a_list, default=1) < 1:
        raise ValueError(f"need a length N >= 2 and shifts a >= 1, "
                         f"got N = {N}, a = {a_list}")
    M = N + max(a_list, default=0)
    table = capped_sieve(M, table)
    lam = table.von_mangoldt_values
    g = lambda_tds(N, table)
    lam_n = evaluate_tds_range(g, M)
    lam_n_odd = evaluate_tds_range(odd_lift(g), M)
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

        if a % 2 == 0 and not agree(m63, m64, REAL_TOL * max(1.0, abs(m63))):
            raise RuntimeError(
                f"even-shift entanglement identity violated at N={N}, "
                f"a={a}: {m63} != {m64}")

        residual = hl - art
        normalized = None
        if a % 2 == 0:
            normalized = abs(residual) / (
                (math.sqrt(N) + a) * math.log(N) * math.log(N + a))
        rows.append(ModelRow(N, a, hl, m61, m62, m63, m64, art, residual,
                             normalized))
    return rows


def error_bound_check(N_list, a_list, table: PrimeTable
                      ) -> tuple[list[tuple[int, int, float, float]], float]:
    """Normalized residuals |hl - artifact| / ((sqrt N + a) log N log(N+a))
    over a grid of lengths and even shifts, read from the model_chain rows;
    returns (rows, max normalized).
    """
    N_list = [int(N) for N in N_list]
    a_list = [int(a) for a in a_list]
    if not N_list or not a_list:
        raise ValueError("need at least one length and one shift")
    if any(a < 2 or a % 2 for a in a_list):
        raise ValueError("growth check is stated for even shifts only")
    table = capped_sieve(max(N_list) + max(a_list), table)
    rows = [(N, r.a, abs(r.residual), r.normalized)
            for N in N_list for r in model_chain(N, a_list, table)]
    return rows, max(row[3] for row in rows)


# ----------------------------------------------------------------------
# singular series
# ----------------------------------------------------------------------

def singular_series(a_list, Q: int = 100_000,
                    table: PrimeTable | None = None
                    ) -> list[SingularSeriesValue]:
    """Truncated sum over q <= Q of mu^2(q) c_q(a) / phi(q)^2, next to the
    Euler-product oracle over primes p <= Q, one value per shift of a_list
    in its order.

    The float mu, mu^2 and phi^2 arrays are built once per Q; each shift
    adds only its c_q(a) table and the two sums.

    Odd a: the p = 2 factor is 1 + c_2(a) = 0, so the product vanishes
    and the truncated sum tends to 0.
    """
    a_list = [int(a) for a in a_list]
    if min(a_list, default=1) < 1 or Q < 2:
        raise ValueError("need a >= 1 and Q >= 2")
    table = capped_sieve(Q, table)
    mu = table.mobius_values[: Q + 1].astype(np.float64)
    phi2 = table.phi_values[1: Q + 1].astype(np.float64) ** 2
    sq = mu[1:] * mu[1:]
    primes = table.primes[table.primes <= Q]
    p = primes.astype(np.float64)
    out = []
    for a in a_list:
        c = np.zeros(Q + 1, dtype=np.float64)
        for d in divisors_int(a):
            if d <= Q:
                c[d::d] += d * mu[1: Q // d + 1]
        truncated = float(np.sum(sq * c[1:] / phi2))
        cp = np.where(np.mod(a, primes) == 0, p - 1.0, -1.0)
        euler = float(np.prod(1.0 + cp / (p - 1.0) ** 2))
        out.append(SingularSeriesValue(a, truncated, euler, Q))
    return out


# ----------------------------------------------------------------------
# prime-counting sanity
# ----------------------------------------------------------------------

def chebyshev_theta(N: int, table: PrimeTable) -> float:
    """theta(N) = sum of log p over primes p <= N."""
    table = capped_sieve(max(N, 2), table)
    pr = table.primes[table.primes <= N]
    return float(np.log(pr.astype(np.float64)).sum()) if len(pr) else 0.0


def pnt_sanity(N: int, table: PrimeTable) -> bool:
    """Exact identity up to float rounding: log(2 * U_N) == theta(N),
    U_N the product of odd primes up to N."""
    U = universal_period(N).value
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
