"""Sieved elementary arithmetic functions and the one table type.

Two building blocks everything else consumes:

* ``PrimeTable`` -- an Eratosthenes sieve plus three lazily built arrays
  over its range: Mobius, Euler phi and von Mangoldt.  mu and phi are
  swept on narrow working arrays (int8; int32 below 2**31) and handed out
  as int64.
* ``TabulatedFunction`` -- a table of values on [1..limit].  Arithmetic
  functions, truncated divisor-sum tables and Ramanujan coefficient
  tables all use it.  Its ``values`` is a NumPy array whose dtype follows
  the table's kind (``DTYPES``, the one place the split is made): an
  object array of Python ints (or Fractions) for ExactInt, float64 for
  Real.  Sweeps therefore run one body for both kinds.  An exact table
  built from an int64 array (every tabulated arithmetic function is)
  keeps that array as a private store, which the kernels and the writer
  in ``transforms`` read; the object array is built only when someone
  reads ``values``.

Each value reaches the program by one route.  Ranges come from the
sieve: ``PrimeTable``'s three arrays, and ``tabulate`` for the named
functions built on them (kappa among them).  Single integers come from
trial division (``is_prime_int``, ``mobius_int``, ``divisors_int``),
and the 2-adic split n = 2^v2(n) * odd_part(n) from bit operations.

The prime- and divisor-indexed sweeps (mu, phi, kappa, and the divisor
sums in ``transforms``) are split at r = isqrt(M) by ``_sqrt_split``:
one slice per point p <= r, then one vectorised scatter per cofactor
j <= M // (r + 1) for all points above r at once.  A number n <= M has
at most one prime factor above r, so the large primes enter mu, phi and
kappa through n = j * p alone.  Each sweep takes O(sqrt(M)) Python steps
instead of one per prime or support point.

Naturals start at 1 throughout; slot 0 of every value table is unused and
kept at zero.  Empty products are 1, so kappa(1) = 1 and odd_part(1) = 1.
The 2-adic splitting (``v2``/``odd_part``) accepts arbitrary-precision
input because huge shifts (products of many primes) exceed 64 bits.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from numbers import Rational
from operator import itemgetter

import numpy as np

EXACT = "ExactInt"
REAL = "Real"

# |value| <= SUPPORT_EPS counts as zero when deciding supports of
# real-valued tables (log-magnitude entries; true zeros arise only from
# exact cancellation at desk scale).
SUPPORT_EPS = 1e-12

# Default cap on sieve limits and on the cutoff of a table read from a
# file (the CLI's ``sieve_limit``), so that no request allocates more.
# Library calls that sieve for themselves refuse limits above it; a
# caller that needs more builds the PrimeTable and passes it.
SIEVE_CAP = 2_000_000


# ----------------------------------------------------------------------
# prime sieve
# ----------------------------------------------------------------------

def _sqrt_split(points: np.ndarray, M: int) -> tuple[np.ndarray, list]:
    """Split the ascending positive int64 ``points`` at r = isqrt(M).

    Returns (small, blocks): ``small`` holds the points <= r, and
    ``blocks`` lists (j, ps) for j = 1 .. M // (r + 1) in ascending j,
    where ``ps`` is the prefix (a view) of the points above r that are
    <= M // j; empty blocks are left out.  The products j * p over all
    blocks are the multiples <= M of the points above r, each once, and
    within one block they are distinct, so ``arr[j * ps]`` is a safe
    scatter.  Both loops are O(sqrt(M)) long.
    """
    r = isqrt(M)
    cut = int(np.searchsorted(points, r, side="right"))
    large = points[cut:]
    tops = M // np.arange(1, M // (r + 1) + 1)
    ends = np.searchsorted(large, tops, side="right").tolist()
    return points[:cut], [(j, large[:k]) for j, k in enumerate(ends, 1) if k]


@dataclass(eq=False)
class PrimeTable:
    """Primality up to ``limit`` plus the mu, phi and Lambda arrays on
    [0..limit], each built once, on first access.

    Immutable after construction; concurrent reads are safe.  mu and phi
    are swept on narrow working arrays (int8, and int32 while
    limit < 2**31) and returned as int64.
    """

    limit: int
    is_prime: np.ndarray               # bool, len limit+1
    primes: np.ndarray                 # int64, ascending

    @cached_property
    def mobius_values(self) -> np.ndarray:
        """mu(n) for n = 0..limit as int64 (mu[0] = 0)."""
        mu = np.ones(self.limit + 1, dtype=np.int8)
        mu[0] = 0
        small, blocks = _sqrt_split(self.primes, self.limit)
        for p in small.tolist():
            mu[p::p] *= -1
            mu[p * p::p * p] = 0
        for j, ps in blocks:
            mu[j * ps] *= -1
        return mu.astype(np.int64)

    @cached_property
    def phi_values(self) -> np.ndarray:
        """Euler phi(n) for n = 0..limit as int64 (phi[0] = 0).

        phi(n) <= n, so the slices run on int32 below 2**31.  A prime
        p > r = isqrt(limit) divides n = j * p only with j <= r < p, so
        phi(j) is final by then and phi(j * p) = phi(j) * (p - 1).
        """
        work = np.int32 if self.limit < 2 ** 31 else np.int64
        phi = np.arange(self.limit + 1, dtype=work)
        small, blocks = _sqrt_split(self.primes, self.limit)
        for p in small.tolist():
            v = phi[p::p]
            v //= p
            v *= p - 1
        phi = phi.astype(np.int64)
        for j, ps in blocks:
            phi[j * ps] = phi[j] * (ps - 1)
        return phi

    @cached_property
    def von_mangoldt_values(self) -> np.ndarray:
        """Lambda(n) for n = 0..limit: log p at prime powers p^k, else 0.

        One log source: each p^k, k >= 2, copies the entry of p, so
        Lambda(p^k) and Lambda(p) are the same float bit for bit."""
        lam = np.zeros(self.limit + 1, dtype=np.float64)
        lam[self.primes] = np.log(self.primes.astype(np.float64))
        for p in self.primes[self.primes <= isqrt(self.limit)].tolist():
            pk = p * p
            while pk <= self.limit:
                lam[pk] = lam[p]
                pk *= p
        return lam


def sieve_primes(M: int) -> PrimeTable:
    """Eratosthenes sieve up to M >= 2 (its value arrays are built lazily)."""
    if M < 2:
        raise ValueError(f"sieve limit must be >= 2, got {M}")
    is_prime = np.ones(M + 1, dtype=bool)
    is_prime[0:2] = False
    for i in range(2, isqrt(M) + 1):
        if is_prime[i]:
            is_prime[i * i:: i] = False
    primes = np.flatnonzero(is_prime).astype(np.int64)
    return PrimeTable(limit=M, is_prime=is_prime, primes=primes)


def _check_cap(M: int) -> None:
    if M > SIEVE_CAP:
        raise ValueError(
            f"sieve limit {M} exceeds SIEVE_CAP = {SIEVE_CAP}; "
            "pass a PrimeTable to go higher")


def capped_sieve(M: int, table: PrimeTable | None = None) -> PrimeTable:
    """A sieve reaching the cutoff M >= 1: ``table`` itself when its limit
    is at least M (ValueError otherwise), else sieve_primes(max(M, 2)) for
    a call given no table, where a limit above SIEVE_CAP raises
    ValueError before anything is allocated.  M below 1 raises first."""
    if M < 1:
        raise ValueError(f"naturals start at 1, got {M}")
    if table is not None:
        if table.limit < M:
            raise ValueError(
                f"sieve limit {table.limit} below required {M}")
        return table
    _check_cap(M)
    return sieve_primes(max(M, 2))


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


# The real-domain windows: REAL_TOL for correlation and model values
# (absolute, or scaled by max(1, |x|)), COEFF_TOL relative for single
# coefficients.  Values computed from exact tables are compared with ==.
REAL_TOL = 1e-9
COEFF_TOL = 1e-12


def tolerance(*tables, tol: float = REAL_TOL, scale: float = 1.0):
    """The comparison bound for values computed from ``tables``: 0 if all
    are exact, else tol * scale."""
    return 0 if all(t.is_exact for t in tables) else tol * scale


def agree(got, want, bound) -> bool:
    """The one comparison rule: got == want when bound is 0, else
    |got - want| <= bound, so a NaN never agrees.  Elementwise on arrays."""
    return got == want if bound == 0 else abs(got - want) <= bound


def collapse(v, *tables):
    """The one form of a result computed from ``tables``: if all are exact,
    an int when v is integral and the Fraction otherwise; else float(v).
    Sums start at int 0 and return through here, so the empty sum is 0
    or 0.0 by the same rule."""
    if not all(t.is_exact for t in tables):
        return float(v)
    return int(v) if v.denominator == 1 else v


def _python_scalars(values: np.ndarray) -> np.ndarray:
    """An exact object array with every NumPy integer or bool entry
    replaced by the Python int: a NumPy scalar would compute in wrapping
    64-bit arithmetic.  ``values`` itself when it holds none.

    Raises ValueError naming the first index whose entry is neither
    rational (an int, a Fraction, a NumPy integer) nor a NumPy bool: no
    exact sum could take it.
    """
    entries = values.tolist()
    numpy_types = (np.integer, np.bool_)
    exact_types = (Rational, np.bool_)
    types = set(map(type, entries))
    if not all(issubclass(t, exact_types) for t in types):
        n = next(n for n, v in enumerate(entries)
                 if not isinstance(v, exact_types))
        raise ValueError(
            f"exact entry {n} is {entries[n]!r}, not an int or a Fraction")
    if not any(issubclass(t, numpy_types) for t in types):
        return values
    out = np.empty(len(entries), dtype=object)
    out[:] = [int(v) if isinstance(v, numpy_types) else v for v in entries]
    return out


class TabulatedFunction:
    """A table of values on [1..limit]; slot 0 of ``values`` is unused.

    The one table type: a tabulated arithmetic function F, a truncated
    divisor-sum table g' (``TruncatedDivisorSum``) and a Ramanujan
    coefficient table (``RamanujanCoefficients``) all have this shape.
    ``values`` is an ndarray whose dtype follows ``kind`` (see DTYPES).
    Immutable after construction.

    An ExactInt table built from an int64 array keeps that array as a
    private store, which is never written: ``[]``, ``support()`` and the
    kernels and writer in ``transforms`` read it (``_data``), and
    ``values`` builds the object array of Python ints on its first read
    and then drops the store, so only one copy exists to trust.  Exact
    entries given as NumPy integers become Python ints.  A table keeps
    the array it is given and does not copy it, for either kind.
    """

    def __init__(self, limit: int, kind: str, values, name: str = ""):
        if kind not in DTYPES:
            raise ValueError(f"unknown domain kind {kind!r}")
        self.limit, self.kind, self.name = limit, kind, name
        self._store = self._values = None
        if (kind == EXACT and isinstance(values, np.ndarray)
                and values.dtype == np.int64):
            self._store = values
        else:
            self._values = np.asarray(values, dtype=DTYPES[kind])
        if self._data.shape != (limit + 1,):
            raise ValueError("value table must have limit+1 entries")
        if kind == EXACT and self._store is None:
            self._values = _python_scalars(self._values)
        self._support: list | None = None

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(limit={self.limit}, "
                f"kind={self.kind!r}, name={self.name!r})")

    @property
    def values(self) -> np.ndarray:
        """The public value array; built from the store on first read."""
        if self._values is None:
            self._values = self._store.astype(object)
            self._store = None
        return self._values

    @property
    def _data(self) -> np.ndarray:
        """The int64 store when there is one, else ``values``; read only."""
        return self._values if self._store is None else self._store

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
        return self._data.item(n)  # a Python scalar for every dtype

    def support(self, eps: float = 0.0) -> list:
        """Nonzero (n, value) pairs, ascending n, as Python scalars.

        The full support is computed once and cached.  With eps > 0, real
        entries with |value| <= eps are left out as well.
        """
        if self._support is None:
            data = self._data
            idx = np.flatnonzero(data[1:]) + 1
            self._support = list(zip(idx.tolist(), data[idx].tolist()))
        if eps and not self.is_exact:
            return [(n, v) for n, v in self._support if abs(v) > eps]
        return self._support

    def support_upto(self, N: int) -> list:
        """The support pairs with n <= N."""
        if N > self.limit:
            raise ValueError(f"tabulated only to {self.limit}, need {N}")
        sup = self.support()
        return sup[: bisect_right(sup, N, key=itemgetter(0))]

    def is_zero(self) -> bool:
        """True when support(SUPPORT_EPS) is empty."""
        return not self.support(SUPPORT_EPS)


# ----------------------------------------------------------------------
# tabulated arithmetic functions
# ----------------------------------------------------------------------

def _indicator(M: int, points) -> np.ndarray:
    """1 at ``points`` (indices or a slice) of [0..M], else 0, as int64."""
    vals = np.zeros(M + 1, dtype=np.int64)
    vals[points] = 1
    return vals


def _odd_primes(M: int, table: PrimeTable) -> np.ndarray:
    """The odd primes <= M of ``table``, ascending, as int64."""
    return table.primes[(table.primes > 2) & (table.primes <= M)]


def _kappa_values(M: int, table: PrimeTable) -> np.ndarray:
    """The kappa sweep on [0..M]: each prime multiplies into its multiples."""
    kap = np.ones(M + 1, dtype=np.int64)
    kap[0] = 0
    small, blocks = _sqrt_split(table.primes, M)
    for p in small.tolist():
        kap[p::p] *= p
    for j, ps in blocks:
        kap[j * ps] *= ps
    return kap


# name -> (kind, whether it needs a sieve, builder of its value array on
# [0..M]); a builder is called as builder(M, table), with table None when
# no sieve is needed
_TABULATORS = {
    "unit": (EXACT, False, lambda M, t: _indicator(M, slice(1, None))),
    "identity": (EXACT, False, lambda M, t: np.arange(M + 1)),
    "mobius": (EXACT, True, lambda M, t: t.mobius_values[: M + 1]),
    "mu_squared": (EXACT, True, lambda M, t: t.mobius_values[: M + 1] ** 2),
    "phi": (EXACT, True, lambda M, t: t.phi_values[: M + 1]),
    "kappa": (EXACT, True, _kappa_values),
    "lambda": (REAL, True,
               lambda M, t: t.von_mangoldt_values[: M + 1].copy()),
    "odd": (EXACT, False, lambda M, t: np.arange(M + 1) % 2),
    "primes": (EXACT, True,
               lambda M, t: t.is_prime[: M + 1].astype(np.int64)),
    "odd_primes": (EXACT, True, lambda M, t: _indicator(M, _odd_primes(M, t))),
    "squares": (EXACT, False,
                lambda M, t: _indicator(M, np.arange(1, isqrt(M) + 1) ** 2)),
    # Lambda on the odd primes: the sieve's Lambda is the one table of logs
    "odd_primes_log": (REAL, True, lambda M, t: t.von_mangoldt_values[: M + 1]
                       * _indicator(M, _odd_primes(M, t))),
}


def tabulated_function_names() -> list[str]:
    return sorted(_TABULATORS)


def tabulate(name: str, M: int, table: PrimeTable | None = None) -> TabulatedFunction:
    """Build a named arithmetic function on [1..M] from ``_TABULATORS``;
    a name that needs a sieve uses ``capped_sieve(M, table)``, so it
    sieves when no table is passed and refuses a table short of M.
    Every name refuses M below 1.

    Without a table, M above SIEVE_CAP raises ValueError before anything
    is allocated, for the names that need no sieve too.
    """
    if name not in _TABULATORS:
        raise ValueError(f"unknown function name {name!r}; "
                         f"known: {', '.join(tabulated_function_names())}")
    if M < 1:
        raise ValueError(f"naturals start at 1, got {M}")
    kind, sieved, values = _TABULATORS[name]
    if sieved:
        table = capped_sieve(M, table)
    elif table is None:
        _check_cap(M)
    return TabulatedFunction(M, kind, values(M, table), name)
