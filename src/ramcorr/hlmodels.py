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

from .arith_core import (PrimeTable, TabulatedFunction, divisors_int,
                         mobius_int, odd_part, sieve_primes,
                         tabulate_odd_prime_log)
from .correlations import correlate_direct, format_value
from .ramanujan import universal_period
from .transforms import (TruncatedDivisorSum, evaluate_tds_range, lambda_tds,
                         odd_lift)

IDENTITY_TOL = 1e-9


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


def _require_limit(table: PrimeTable, need: int) -> None:
    if table.limit < need:
        raise ValueError(f"sieve limit {table.limit} below required {need}")


def hl_correlation(N: int, a: int, table: PrimeTable) -> float:
    """Exact double-log sum over n <= N of Lambda(n) Lambda(n+a)."""
    if a < 1 or N < 1:
        raise ValueError("length and shift must be naturals")
    _require_limit(table, N + a)
    lam = table.von_mangoldt_values
    return float(np.dot(lam[1: N + 1], lam[1 + a: N + 1 + a]))


def artifact_pair(N: int, table: PrimeTable | None = None
                  ) -> tuple[TabulatedFunction, TruncatedDivisorSum]:
    """The flagship two-seasons pair: f = log p on odd primes <= N,
    g = odd-lifted N-truncation of von Mangoldt."""
    if table is None:
        table = sieve_primes(max(N, 2))
    _require_limit(table, N)
    f = tabulate_odd_prime_log(N, table)
    g = odd_lift(lambda_tds(N, table))
    return f, g


def artifact(N: int, a: int, table: PrimeTable | None = None) -> float:
    """The artifact correlation at shift a (a may be a huge integer)."""
    f, g = artifact_pair(N, table)
    return correlate_direct(f, g, N, a)


def artifact_batch(N: int, a_list, table: PrimeTable) -> list[float]:
    """artifact(N, a) for many small shifts at once (shared value table)."""
    a_list = [int(a) for a in a_list]
    if not a_list:
        return []
    if min(a_list) < 1:
        raise ValueError("shifts are naturals >= 1")
    M = N + max(a_list)
    _require_limit(table, M)
    tab = evaluate_tds_range(odd_lift(lambda_tds(N, table)), M)
    f = tabulate_odd_prime_log(N, table).values
    return [float(np.dot(f[1: N + 1], tab[1 + a: N + 1 + a])) for a in a_list]


def artifact_identity_check(N: int, a: int, table: PrimeTable,
                            tol: float = IDENTITY_TOL) -> bool:
    """Check the closed parity form of the artifact against full Lambda.

    Even a:  sum over odd p <= N of (log p) Lambda(p + a).
    Odd a:   the power-of-two split sum over j >= 1 of (log p)
             Lambda((p + a) / 2^j), restricted to odd quotients.

    The closed forms read the untruncated Lambda, so they exceed the
    artifact by the exact tail sum over divisors above N; the check adds
    that correction and then requires equality within tol.
    """
    if a < 1:
        raise ValueError(f"shifts are naturals >= 1, got {a}")
    _require_limit(table, N + a)
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
    return abs(closed - (art + correction)) <= tol * max(1.0, abs(closed))


def model_chain(N: int, a: int, table: PrimeTable) -> ModelRow:
    """All ladder values plus the full correlation and artifact at (N, a).

    For even shifts the odd-index rung equals, identically, the same sum
    read through the plain truncation; that equality is asserted here.
    """
    if a < 1:
        raise ValueError(f"shifts are naturals >= 1, got {a}")
    _require_limit(table, N + a)
    M = N + a
    lam = table.von_mangoldt_values
    g = lambda_tds(N, table)
    lam_n = evaluate_tds_range(g, M)
    lam_n_odd = evaluate_tds_range(odd_lift(g), M)

    hl = float(np.dot(lam[1: N + 1], lam[1 + a: N + 1 + a]))
    m61 = float(np.dot(lam[1: N + 1], lam_n[1 + a: N + 1 + a]))
    m62 = float(np.dot(lam[1: N + 1], lam_n_odd[1 + a: N + 1 + a]))
    # odd n slices: n = 1, 3, 5, ...
    m63 = float(np.dot(lam[1: N + 1: 2], lam_n_odd[1 + a: N + 1 + a: 2]))
    m64 = float(np.dot(lam[1: N + 1: 2], lam_n[1 + a: N + 1 + a: 2]))

    f = tabulate_odd_prime_log(N, table).values
    art = float(np.dot(f[1: N + 1], lam_n_odd[1 + a: N + 1 + a]))

    if a % 2 == 0 and abs(m63 - m64) > IDENTITY_TOL * max(1.0, abs(m63)):
        raise RuntimeError(
            f"even-shift entanglement identity violated at N={N}, a={a}: "
            f"{m63} != {m64}")

    residual = hl - art
    normalized = None
    if a % 2 == 0:
        normalized = abs(residual) / (
            (math.sqrt(N) + a) * math.log(N) * math.log(N + a))
    return ModelRow(N, a, hl, m61, m62, m63, m64, art, residual, normalized)


def error_bound_check(N_list, a_list, table: PrimeTable
                      ) -> tuple[list[tuple[int, int, float, float]], float]:
    """Normalized residuals |hl - artifact| / ((sqrt N + a) log N log(N+a))
    over a grid of lengths and even shifts; returns (rows, max normalized).
    """
    N_list = [int(N) for N in N_list]
    a_list = [int(a) for a in a_list]
    if not N_list or not a_list:
        raise ValueError("need at least one length and one shift")
    if any(a < 2 or a % 2 for a in a_list):
        raise ValueError("growth check is stated for even shifts only")
    _require_limit(table, max(N_list) + max(a_list))
    rows = []
    worst = 0.0
    for N in N_list:
        arts = artifact_batch(N, a_list, table)
        for a, art in zip(a_list, arts):
            hl = hl_correlation(N, a, table)
            res = abs(hl - art)
            norm = res / ((math.sqrt(N) + a) * math.log(N) * math.log(N + a))
            worst = max(worst, norm)
            rows.append((N, a, res, norm))
    return rows, worst


# ----------------------------------------------------------------------
# singular series
# ----------------------------------------------------------------------

def singular_series(a: int, Q: int = 100_000,
                    table: PrimeTable | None = None) -> SingularSeriesValue:
    """Truncated sum over q <= Q of mu^2(q) c_q(a) / phi(q)^2, next to the
    Euler-product oracle over primes p <= Q.

    Odd a: the p = 2 factor is 1 + c_2(a) = 0, so the product vanishes
    and the truncated sum tends to 0.
    """
    if a < 1 or Q < 2:
        raise ValueError("need a >= 1 and Q >= 2")
    if table is None:
        table = sieve_primes(Q)
    _require_limit(table, Q)
    mu = table.mobius_values[: Q + 1]
    phi = table.phi_values[: Q + 1].astype(np.float64)
    c = np.zeros(Q + 1, dtype=np.float64)
    for d in divisors_int(a):
        if d <= Q:
            c[d::d] += d * mu[1: Q // d + 1].astype(np.float64)
    sq = (mu[1:] * mu[1:]).astype(np.float64)
    truncated = float(np.sum(sq * c[1:] / phi[1:] ** 2))

    p = table.primes[table.primes <= Q].astype(np.float64)
    cp = np.where(np.mod(a, table.primes[table.primes <= Q]) == 0,
                  p - 1.0, -1.0)
    euler = float(np.prod(1.0 + cp / (p - 1.0) ** 2))
    return SingularSeriesValue(a, truncated, euler, Q)


# ----------------------------------------------------------------------
# prime-counting sanity
# ----------------------------------------------------------------------

def chebyshev_theta(N: int, table: PrimeTable) -> float:
    """theta(N) = sum of log p over primes p <= N."""
    _require_limit(table, max(N, 2))
    pr = table.primes[table.primes <= N]
    return float(np.log(pr.astype(np.float64)).sum()) if len(pr) else 0.0


def pnt_sanity(N: int, table: PrimeTable) -> bool:
    """Exact identity up to float rounding: log(2 * U_N) == theta(N),
    U_N the product of odd primes up to N."""
    U = universal_period(N).value
    return abs(math.log(2 * U) - chebyshev_theta(N, table)) <= 1e-6


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
