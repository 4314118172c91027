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
The truncated sum is streamed through the leaves of numpy's pairwise
tree (at most 2**16 q each) from one sieve array, mu phi, so it holds
no Q-length float array and is still bitwise the ``np.sum`` of the Q
terms (see ``singular_series``).
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

# the terms are summed in leaves of at most this many q (the nodes of
# numpy's pairwise tree), so that every temporary is one leaf long
_PHI2_BLOCK = 1 << 16
# a shift is reduced modulo this many of the primes <= Q at a time
_PRIME_BLOCK = 1 << 12


def _pairwise_tree(lo: int, hi: int, leaf):
    """The sum over [lo, hi) as numpy's ``pairwise_sum`` adds a
    contiguous array of hi - lo terms, from ``leaf(lo', hi')``, the sum
    of the terms of one node of at most ``_PHI2_BLOCK`` (a float64 or an
    array of them, added elementwise).

    numpy splits a node of n > 128 terms into its first n2 and last
    n - n2, n2 = n // 2 rounded down to a multiple of 8, and adds the
    two halves' sums; the split depends on n alone.  So a node's sum is
    ``np.add.reduce`` of its terms as an array of their own, and this
    recursion joins the leaves as the whole array's sum does.  Each
    reduce, the whole array's too, starts from the initial 0.0, and
    (0.0 + x) + (0.0 + y) is 0.0 + (x + y) in every bit, signed zeros
    included; so, node by node up the tree, the total is ``np.sum`` of
    the terms, to the bit.
    """
    n = hi - lo
    if n <= _PHI2_BLOCK:
        return leaf(lo, hi)
    half = n // 2
    half -= half % 8
    return (_pairwise_tree(lo, lo + half, leaf)
            + _pairwise_tree(lo + half, hi, leaf))


def singular_series(a_list, Q: int = 100_000,
                    table: PrimeTable | None = None
                    ) -> list[SingularSeriesValue]:
    """Truncated sum over q <= Q of mu^2(q) c_q(a) / phi(q)^2, next to the
    Euler-product oracle over primes p <= Q, one value per shift of a_list
    in its order.

    The Euler product comes first: one array of (p - 1)^2 over the
    primes p <= Q for every shift, and one of the factors
    1 + c_p(a)/(p - 1)^2, refilled and multiplied in place per shift.
    Both are freed before the series reads the table's one signed sweep
    s = mu phi (``PrimeTable.mu_phi_values``), so the call's peak is the
    larger of the two phases, not their sum.

    The terms are streamed, leaves outside and shifts inside: the q are
    split into the leaves of numpy's pairwise tree (``_pairwise_tree``),
    each at most ``_PHI2_BLOCK`` long.  A leaf builds its denominators
    once for every shift, phi^2 = float(s) * float(s), the same float as
    float(phi) * float(phi), and +inf where s = 0 (mu = 0); then each
    shift fills one leaf-long float64 block with c = mu(q) = sign(s) and
    multiplies it in place by 1 - p at the multiples of each prime p | a,
    which makes it the Ramanujan sum
    c_q(a) = mu(q) * prod over p | (a, q) of (1 - p) at every square-free
    q; it divides the block by the denominators and reduces it.  The
    working set is these few leaf-long arrays and the per-shift prime
    lists and leaf sums; no array is Q long.

    The sum is bitwise the ``np.sum`` of the contiguous Q terms
    (c_q(a) mu^2) / phi^2: each entry of c is an integer of magnitude at
    most q < 2**53, so it is exact in any order; a square-free q gets the
    one rounding of c / phi^2 either way; the leaves are joined as
    numpy's tree joins them.  Off the square-free q a term is
    +-0.0 / inf = +-0.0 instead of (c 0)/phi^2 = +-0.0.  A signed zero
    moves no sum that holds the q = 1 term 1.0.

    a is read only modulo the primes p <= min(Q, a), with Python ints:
    that loop gives both the primes p | a that c needs and the Euler
    factors, so a of any size is never factored.

    Odd a: the p = 2 factor is 1 + c_2(a) = 0, so the product vanishes
    and the truncated sum tends to 0.
    """
    a_list = [int(a) for a in a_list]
    if min(a_list, default=1) < 1 or Q < 2:
        raise ValueError("need a >= 1 and Q >= 2")
    table = capped_sieve(Q, table)
    primes = table.primes[: np.searchsorted(table.primes, Q, side="right")]
    # the Euler factors 1 + c_p(a)/(p - 1)^2 first, in one array that
    # every shift reuses; both arrays are freed before the sweep is built
    p1sq = np.square(primes - 1.0)
    cp = np.empty_like(p1sq)
    prime_lists, euler = [], []
    for a in a_list:
        divides = _prime_divisors(a, Q, primes)
        ps = primes[divides]
        prime_lists.append(ps.tolist())
        cp.fill(-1.0)
        cp[divides] = ps - 1.0
        cp /= p1sq
        cp += 1.0
        euler.append(float(np.prod(cp)))
    del p1sq, cp
    s = table.mu_phi_values  # mu phi: mu is its sign, phi^2 its square

    def leaf(lo: int, hi: int) -> np.ndarray:
        den = np.square(s[lo: hi], dtype=np.float64)
        den[s[lo: hi] == 0] = np.inf
        c = np.empty(hi - lo)
        sums = np.empty(len(a_list))
        for i, ps in enumerate(prime_lists):
            np.sign(s[lo: hi], out=c, dtype=np.float64)
            for p in ps:
                c[-lo % p:: p] *= 1 - p  # the multiples of p in [lo, hi)
            c /= den
            sums[i] = np.add.reduce(c)
        return sums

    truncated = _pairwise_tree(1, Q + 1, leaf) if a_list else []
    return [SingularSeriesValue(a, float(t), e, Q)
            for a, t, e in zip(a_list, truncated, euler)]


def _prime_divisors(a: int, Q: int, primes: np.ndarray) -> np.ndarray:
    """The mask of the ascending ``primes`` (all <= Q) that divide a, from
    a mod p over the primes p <= min(Q, a) (``arith_core._Residues``),
    one block of ``_PRIME_BLOCK`` primes at a time, so that no temporary,
    and no product tree of a shift past 2**62, spans all the primes."""
    divides = np.zeros(len(primes), dtype=bool)
    top = int(np.searchsorted(primes, min(Q, a), side="right"))
    for lo in range(0, top, _PRIME_BLOCK):
        block = primes[lo: min(lo + _PRIME_BLOCK, top)]
        divides[lo: lo + len(block)] = _Residues(block)(a) == 0
    return divides


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
