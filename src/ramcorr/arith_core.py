"""Sieved elementary arithmetic functions and the one table type.

Two building blocks everything else consumes:

* ``PrimeTable`` -- an Eratosthenes sieve carrying a smallest-prime-factor
  table plus lazily built batch arrays (Mobius, Euler phi, von Mangoldt).
* ``TabulatedFunction`` -- a table of values on [1..limit].  Arithmetic
  functions, truncated divisor-sum tables and Ramanujan coefficient
  tables all use it.  Its ``values`` is a NumPy array whose dtype follows
  the table's kind (``DTYPES``, the one place the split is made): an
  object array of Python ints (or Fractions) for ExactInt, float64 for
  Real.  Sweeps therefore run one body for both kinds.

Naturals start at 1 throughout; slot 0 of every value table is unused and
kept at zero.  Empty products are 1, so kappa(1) = 1 and odd_part(1) = 1.
The 2-adic splitting (``v2``/``odd_part``) accepts arbitrary-precision
input because huge shifts (products of many primes) exceed 64 bits.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt
from operator import itemgetter

import numpy as np

EXACT = "ExactInt"
REAL = "Real"

# |value| <= SUPPORT_EPS counts as zero when deciding supports of
# real-valued tables (log-magnitude entries; true zeros arise only from
# exact cancellation at desk scale).
SUPPORT_EPS = 1e-12


# ----------------------------------------------------------------------
# prime sieve
# ----------------------------------------------------------------------

@dataclass(eq=False)
class PrimeTable:
    """Primality and smallest-prime-factor tables up to ``limit``.

    Immutable after construction; concurrent reads are safe.  The derived
    value arrays are built lazily, once, on first access.
    """

    limit: int
    is_prime: np.ndarray               # bool, len limit+1
    smallest_prime_factor: np.ndarray  # int64, len limit+1, spf[1] = 1
    primes: np.ndarray                 # int64, ascending

    @cached_property
    def mobius_values(self) -> np.ndarray:
        """mu(n) for n = 0..limit as int64 (mu[0] = 0)."""
        mu = np.ones(self.limit + 1, dtype=np.int64)
        mu[0] = 0
        for p in self.primes:
            mu[p::p] *= -1
            sq = int(p) * int(p)
            if sq <= self.limit:
                mu[sq::sq] = 0
        return mu

    @cached_property
    def phi_values(self) -> np.ndarray:
        """Euler phi(n) for n = 0..limit as int64 (phi[0] = 0)."""
        phi = np.arange(self.limit + 1, dtype=np.int64)
        for p in self.primes:
            phi[p::p] -= phi[p::p] // p
        return phi

    @cached_property
    def von_mangoldt_values(self) -> np.ndarray:
        """Lambda(n) for n = 0..limit: log p at prime powers p^k, else 0."""
        lam = np.zeros(self.limit + 1, dtype=np.float64)
        lam[self.primes] = np.log(self.primes.astype(np.float64))
        for p in self.primes[self.primes <= isqrt(self.limit)]:
            p = int(p)
            pk = p * p
            logp = math.log(p)
            while pk <= self.limit:
                lam[pk] = logp
                pk *= p
        return lam


def sieve_primes(M: int) -> PrimeTable:
    """Eratosthenes sieve with smallest-prime-factor table up to M >= 2."""
    if M < 2:
        raise ValueError(f"sieve limit must be >= 2, got {M}")
    is_prime = np.ones(M + 1, dtype=bool)
    is_prime[0:2] = False
    for i in range(2, isqrt(M) + 1):
        if is_prime[i]:
            is_prime[i * i:: i] = False
    primes = np.flatnonzero(is_prime).astype(np.int64)
    spf = np.zeros(M + 1, dtype=np.int64)
    spf[1] = 1
    # descending order: the last write at each index is the smallest prime
    for p in primes[::-1]:
        spf[p::p] = p
    return PrimeTable(limit=M, is_prime=is_prime,
                      smallest_prime_factor=spf, primes=primes)


def _check_range(n: int, table: PrimeTable) -> None:
    if n < 1:
        raise ValueError(f"naturals start at 1, got {n}")
    if n > table.limit:
        raise ValueError(f"{n} exceeds sieve limit {table.limit}")


def factorize(n: int, table: PrimeTable) -> list[tuple[int, int]]:
    """Prime factorisation of n <= sieve limit as [(p, e), ...], ascending."""
    _check_range(n, table)
    spf = table.smallest_prime_factor
    out: list[tuple[int, int]] = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def mobius(n: int, table: PrimeTable) -> int:
    """mu(n): 0 if a square divides n, else (-1)^(number of prime factors)."""
    fac = factorize(n, table)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int, table: PrimeTable) -> int:
    """phi(n) = #{1 <= j <= n : gcd(j, n) = 1}, computed from the factorisation."""
    _check_range(n, table)
    res = n
    for p, _ in factorize(n, table):
        res = res // p * (p - 1)
    return res


def von_mangoldt(n: int, table: PrimeTable) -> float:
    """Lambda(n) = log p if n = p^k (k >= 1), else 0."""
    fac = factorize(n, table)
    if len(fac) == 1:
        return math.log(fac[0][0])
    return 0.0


def kappa(n: int, table: PrimeTable) -> int:
    """Square-free kernel: product of the distinct primes dividing n; kappa(1) = 1."""
    res = 1
    for p, _ in factorize(n, table):
        res *= p
    return res


def v2(n: int) -> int:
    """2-adic valuation; arbitrary-precision input."""
    if n < 1:
        raise ValueError(f"naturals start at 1, got {n}")
    return (n & -n).bit_length() - 1


def odd_part(n: int) -> int:
    """n / 2^v2(n); arbitrary-precision input."""
    if n < 1:
        raise ValueError(f"naturals start at 1, got {n}")
    return n >> v2(n)


def smooth_sifted_split(n: int, P: int, table: PrimeTable) -> tuple[int, int]:
    """Split n = s * r with all prime factors of s <= P and of r > P.

    For P = 2 the sifted part r is odd_part(n).
    """
    if P > table.limit:
        raise ValueError(f"{P} exceeds sieve limit {table.limit}")
    if P < 2 or not bool(table.is_prime[P]):
        raise ValueError(f"P must be prime, got {P}")
    _check_range(n, table)
    smooth = 1
    for p, e in factorize(n, table):
        if p <= P:
            smooth *= p ** e
    return smooth, n // smooth


# ----------------------------------------------------------------------
# table-free integer utilities (small arguments, trial division)
# ----------------------------------------------------------------------

def is_prime_int(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    for p in (2, 3):
        if n % p == 0:
            return n == p
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


@lru_cache(maxsize=1 << 16)
def mobius_int(n: int) -> int:
    """mu(n) by trial division (no sieve needed)."""
    if n < 1:
        raise ValueError(f"naturals start at 1, got {n}")
    if n == 1:
        return 1
    val = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            val = -val
            if n % p == 0:
                return 0
        p += 1 if p == 2 else 2
    if n > 1:
        val = -val
    return val


@lru_cache(maxsize=1 << 16)
def divisors_int(n: int) -> tuple[int, ...]:
    """Sorted divisors of n by trial division."""
    if n < 1:
        raise ValueError(f"naturals start at 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


# ----------------------------------------------------------------------
# the table type
# ----------------------------------------------------------------------

# The one place where the exact/real split is expressed: the dtype of a
# table's value array.  Exact tables hold Python ints (Fractions in exact
# coefficient tables) in an object array, never floats.
DTYPES = {EXACT: object, REAL: np.float64}


def zeros(n: int, kind: str) -> np.ndarray:
    """An all-zero value array of length n for tables of the given kind."""
    return np.zeros(n, dtype=DTYPES[kind])


@dataclass(eq=False)
class TabulatedFunction:
    """A table of values on [1..limit]; slot 0 of ``values`` is unused.

    The one table type: a tabulated arithmetic function F, a truncated
    divisor-sum table g' (``TruncatedDivisorSum``) and a Ramanujan
    coefficient table (``RamanujanCoefficients``) all have this shape.
    ``values`` is an ndarray whose dtype follows ``kind`` (see DTYPES).
    Immutable after construction.
    """

    limit: int
    kind: str
    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        if self.kind not in DTYPES:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        self.values = np.asarray(self.values, dtype=DTYPES[self.kind])
        if self.values.shape != (self.limit + 1,):
            raise ValueError("value table must have limit+1 entries")
        self._support: list | None = None

    @classmethod
    def from_entries(cls, entries, limit: int, kind: str, name: str = ""):
        """Build a table from a {n: value} mapping or a 0-indexed sequence."""
        if not isinstance(entries, dict):
            return cls(limit, kind, entries, name)
        values = zeros(limit + 1, kind)
        for n, v in entries.items():
            if not 1 <= n <= limit:
                raise ValueError(f"support point {n} outside [1, {limit}]")
            values[n] = v
        return cls(limit, kind, values, name)

    @property
    def is_exact(self) -> bool:
        return self.kind == EXACT

    def __getitem__(self, n: int):
        if not 1 <= n <= self.limit:
            raise ValueError(f"argument {n} outside [1, {self.limit}]")
        return self.values.item(n)

    def support(self, eps: float = 0.0) -> list:
        """Nonzero (n, value) pairs, ascending n, as Python scalars.

        The full support is computed once and cached.  With eps > 0, real
        entries with |value| <= eps are left out as well.
        """
        if self._support is None:
            item = self.values.item  # a Python scalar for either dtype
            idx = np.flatnonzero(self.values[1:]) + 1
            self._support = [(n, item(n)) for n in idx.tolist()]
        if eps and not self.is_exact:
            return [(n, v) for n, v in self._support if abs(v) > eps]
        return self._support

    def support_upto(self, N: int) -> list:
        """The support pairs with n <= N."""
        if N > self.limit:
            raise ValueError(f"tabulated only to {self.limit}, need {N}")
        sup = self.support()
        return sup[: bisect_right(sup, N, key=itemgetter(0))]

    def max_support(self, eps: float = SUPPORT_EPS) -> int:
        """Largest n in support(eps) (0 for the zero table)."""
        sup = self.support(eps)
        return sup[-1][0] if sup else 0

    def is_zero(self, eps: float = SUPPORT_EPS) -> bool:
        """True when support(eps) is empty."""
        return not self.support(eps)


# ----------------------------------------------------------------------
# tabulated arithmetic functions
# ----------------------------------------------------------------------

def tabulate_unit(M: int) -> TabulatedFunction:
    vals = np.ones(M + 1, dtype=np.int64)
    vals[0] = 0
    return TabulatedFunction(M, EXACT, vals, "unit")


def tabulate_identity(M: int) -> TabulatedFunction:
    return TabulatedFunction(M, EXACT, np.arange(M + 1), "identity")


def tabulate_mobius(M: int, table: PrimeTable) -> TabulatedFunction:
    _check_range(M, table)
    return TabulatedFunction(M, EXACT, table.mobius_values[: M + 1], "mobius")


def tabulate_mu_squared(M: int, table: PrimeTable) -> TabulatedFunction:
    _check_range(M, table)
    return TabulatedFunction(M, EXACT, table.mobius_values[: M + 1] ** 2,
                             "mu_squared")


def tabulate_phi(M: int, table: PrimeTable) -> TabulatedFunction:
    _check_range(M, table)
    return TabulatedFunction(M, EXACT, table.phi_values[: M + 1], "phi")


def tabulate_kappa(M: int, table: PrimeTable) -> TabulatedFunction:
    vals = [0] + [kappa(n, table) for n in range(1, M + 1)]
    return TabulatedFunction(M, EXACT, vals, "kappa")


def tabulate_von_mangoldt(M: int, table: PrimeTable) -> TabulatedFunction:
    _check_range(M, table)
    return TabulatedFunction(M, REAL, table.von_mangoldt_values[: M + 1].copy(),
                             "lambda")


def tabulate_odd_indicator(M: int) -> TabulatedFunction:
    return TabulatedFunction(M, EXACT, np.arange(M + 1) % 2, "odd")


def tabulate_prime_indicator(M: int, table: PrimeTable) -> TabulatedFunction:
    _check_range(M, table)
    vals = table.is_prime[: M + 1].astype(np.int64)
    return TabulatedFunction(M, EXACT, vals, "primes")


def tabulate_odd_prime_indicator(M: int, table: PrimeTable) -> TabulatedFunction:
    _check_range(M, table)
    vals = table.is_prime[: M + 1].astype(np.int64)
    vals[2:3] = 0
    return TabulatedFunction(M, EXACT, vals, "odd_primes")


def tabulate_square_indicator(M: int) -> TabulatedFunction:
    vals = np.zeros(M + 1, dtype=np.int64)
    vals[np.arange(1, isqrt(M) + 1) ** 2] = 1
    return TabulatedFunction(M, EXACT, vals, "squares")


def tabulate_odd_prime_log(M: int, table: PrimeTable) -> TabulatedFunction:
    """mu^2 * 1_odd * Lambda: log p at odd primes p <= M, zero elsewhere.

    Prime powers p^k (k >= 2) drop out through the square-free factor.
    """
    _check_range(M, table)
    vals = np.zeros(M + 1, dtype=np.float64)
    pr = table.primes[(table.primes > 2) & (table.primes <= M)]
    vals[pr] = np.log(pr.astype(np.float64))
    return TabulatedFunction(M, REAL, vals, "odd_primes_log")


_NEEDS_TABLE = {"mobius", "mu_squared", "phi", "kappa", "lambda",
                "primes", "odd_primes", "odd_primes_log"}

_TABULATORS = {
    "unit": lambda M, t: tabulate_unit(M),
    "identity": lambda M, t: tabulate_identity(M),
    "mobius": tabulate_mobius,
    "mu_squared": tabulate_mu_squared,
    "phi": tabulate_phi,
    "kappa": tabulate_kappa,
    "lambda": tabulate_von_mangoldt,
    "odd": lambda M, t: tabulate_odd_indicator(M),
    "primes": tabulate_prime_indicator,
    "odd_primes": tabulate_odd_prime_indicator,
    "squares": lambda M, t: tabulate_square_indicator(M),
    "odd_primes_log": tabulate_odd_prime_log,
}


def tabulated_function_names() -> list[str]:
    return sorted(_TABULATORS)


def tabulate(name: str, M: int, table: PrimeTable | None = None) -> TabulatedFunction:
    """Build a named arithmetic function on [1..M]; sieves if required."""
    if name not in _TABULATORS:
        raise ValueError(f"unknown function name {name!r}; "
                         f"known: {', '.join(tabulated_function_names())}")
    if table is None and name in _NEEDS_TABLE:
        table = sieve_primes(max(M, 2))
    builder = _TABULATORS[name]
    return builder(M, table) if name in _NEEDS_TABLE else builder(M, None)
