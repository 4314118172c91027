"""Sieved elementary arithmetic functions and the one table type.

Two building blocks everything else consumes:

* ``PrimeTable`` -- an Eratosthenes sieve plus three lazily built arrays
  over its range: Mobius, Euler phi and von Mangoldt.  mu is int8 and
  phi int32 (int64 from limit 2**31 up), the arrays their sweeps run on;
  a consumer that multiplies them by more than +-1 widens what it reads
  (``tabulate``, ``transforms._convolve``, the singular series).
* ``TabulatedFunction`` -- a table of values on [1..limit].  Arithmetic
  functions, truncated divisor-sum tables and Ramanujan coefficient
  tables all use it.  Its ``values`` is a NumPy array whose dtype follows
  the table's kind (``DTYPES``, the one place the split is made): an
  object array of Python ints (or Fractions) for ExactInt, float64 for
  Real.  Sweeps therefore run one body for both kinds.  An exact table
  built from an int64 array (every tabulated arithmetic function is)
  keeps that array as a private store, which the kernels and the writer
  in ``transforms`` read; the object array is built only when someone
  reads ``values``.  A support is an int64 array of points, ascending
  (``support()``), and ``t[points]`` reads the values there as one
  array, so no consumer walks (n, value) pairs.

Each value reaches the program by one route.  Ranges come from the
sieve: ``PrimeTable``'s three arrays, and ``tabulate`` for the named
functions built on them (kappa among them).  Single integers come from
one trial-division loop, ``_prime_factors``, which yields the (p, e)
pairs of n; ``is_prime_int``, ``mobius_int``, ``divisors_int`` and
``ramanujan._divisor_form`` are read off those pairs.  The 2-adic split
n = 2^v2(n) * odd_part(n) comes from bit operations.

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

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import isqrt
from numbers import Rational
from operator import mod, mul

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
    are the narrow arrays their sweeps run on: int8, and int32 while
    limit < 2**31.
    """

    limit: int
    is_prime: np.ndarray               # bool, len limit+1
    primes: np.ndarray                 # int64, ascending

    @cached_property
    def mobius_values(self) -> np.ndarray:
        """mu(n) for n = 0..limit as int8 (mu[0] = 0)."""
        mu = np.ones(self.limit + 1, dtype=np.int8)
        mu[0] = 0
        small, blocks = _sqrt_split(self.primes, self.limit)
        for p in small.tolist():
            mu[p::p] *= -1
            mu[p * p::p * p] = 0
        for j, ps in blocks:
            mu[j * ps] *= -1
        return mu

    @cached_property
    def phi_values(self) -> np.ndarray:
        """Euler phi(n) for n = 0..limit (phi[0] = 0), as int32 below
        limit 2**31 and int64 from there: phi(n) <= n.

        A prime p > r = isqrt(limit) divides n = j * p only with
        j <= r < p, so phi(j) is final by then and
        phi(j * p) = phi(j) * (p - 1), which is below n as well.
        """
        work = np.int32 if self.limit < 2 ** 31 else np.int64
        phi = np.arange(self.limit + 1, dtype=work)
        small, blocks = _sqrt_split(self.primes, self.limit)
        for p in small.tolist():
            v = phi[p::p]
            v //= p
            v *= p - 1
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
# table-free integer utilities (single integers, trial division)
# ----------------------------------------------------------------------

def _prime_factors(n: int):
    """Yield the pairs (p, e) with p^e exactly dividing n, ascending p
    (none at n = 1): the one trial-division loop, which every
    single-integer helper reads.  A caller may stop at the first pair,
    whose p is the smallest prime factor.  n below 1 raises ValueError."""
    if n < 1:
        raise ValueError(f"naturals start at 1, got {n}")
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
        p += 1 if p == 2 else 2
    if n > 1:
        yield n, 1  # the cofactor left is prime


def is_prime_int(n: int) -> bool:
    """Whether n is prime: n >= 2 is its own smallest prime factor."""
    return n >= 2 and next(_prime_factors(n))[0] == n


def mobius_int(n: int) -> int:
    """mu(n) from the factorisation of n."""
    mu = 1
    for _, e in _prime_factors(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def divisors_int(n: int) -> tuple[int, ...]:
    """Sorted divisors of n from its factorisation."""
    divs = [1]
    for p, e in _prime_factors(n):
        divs += [d * p ** i for i in range(1, e + 1) for d in divs]
    return tuple(sorted(divs))


# ----------------------------------------------------------------------
# one shift modulo many small moduli
# ----------------------------------------------------------------------

# shifts below this bound are reduced by one int64 remainder, and each
# leaf of a product tree is a product below it
_INT64_SAFE = 2 ** 62


class _Residues:
    """a mod d for every d of a fixed ascending int64 array of moduli
    (each >= 1), for shifts a >= 0 of any size, as an int64 array.

    A shift below 2**62 costs one numpy remainder.  A larger one is
    reduced down a product tree of the moduli, kept for the next shift
    (D. J. Bernstein, *Fast multiplication and its applications*, 2008,
    section 18): a node's remainder is its parent's reduced by the
    node's product, so a is divided by a few big products instead of by
    each modulus.  The leaves are runs of k consecutive moduli, k the
    most whose product stays below 2**62, and their remainders are
    reduced by each modulus in int64.  +a is reduced, not -a: a node
    larger than a keeps a as its remainder, so the tree is grown only
    as high as the largest shift needs, and the big divisions are the
    ones below the size of a.
    """

    def __init__(self, moduli: np.ndarray):
        self.moduli = moduli
        self._k = 1  # moduli per leaf
        self._tree: list[list[int]] = []  # the leaves, then each level up

    def __call__(self, a: int) -> np.ndarray:
        if a < _INT64_SAFE:
            return a % self.moduli
        if not len(self.moduli):
            return self.moduli.copy()
        tree = self._tree
        if not tree:
            n = len(self.moduli)
            k = self._k = max(1, 62 // int(self.moduli[-1]).bit_length())
            runs = np.ones(-(-n // k) * k, dtype=np.int64)
            runs[:n] = self.moduli
            tree.append(runs.reshape(-1, k).prod(axis=1).tolist())
        # up to a level whose every node exceeds a (an odd last node
        # moves up unpaired)
        while len(tree[-1]) > 1 and min(tree[-1]) <= a:
            low = tree[-1]
            tree.append([*map(mul, low[::2], low[1::2]),
                         *low[len(low) & ~1:]])
        rs = [a % p for p in tree[-1]]
        for level in reversed(tree[:-1]):  # node i's parent is i // 2
            rs = [*map(mod, chain.from_iterable(zip(rs, rs)), level)]
        leaves = np.repeat(np.array(rs, dtype=np.int64), self._k)
        return leaves[: len(self.moduli)] % self.moduli


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


# The real-domain window for correlation, coefficient and model values
# (absolute, or scaled by max(1, |x|)).  Values computed from exact
# tables are compared with ==.
REAL_TOL = 1e-9


def tolerance(*tables, scale: float = 1.0):
    """The comparison bound for values computed from ``tables``: 0 if all
    are exact, else REAL_TOL * scale."""
    return 0 if all(t.is_exact for t in tables) else REAL_TOL * scale


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


def _sum_from_zero(terms: np.ndarray):
    """0 + terms[0] + terms[1] + ..., added in that order, as the loop
    ``acc = 0; for t in terms: acc += t`` adds them (a numpy scalar or,
    for an object array, a Python number); ``collapse`` gives it its
    form."""
    return np.add.accumulate(np.concatenate(([0], terms)))[-1]


def _text(v) -> str:
    """str(v), or, for a number past Python's int-to-str digit limit,
    the digit counts of its numerator and denominator (a Decimal is
    built from an int exactly, with no decimal text).  The one text of
    exact values in verdict records and refusal messages.

    ``decimal`` is imported only past the limit: every table module
    imports this one, and a call that stays below the limit should not
    pay for it."""
    try:
        return str(v)
    except ValueError:
        from decimal import Decimal
        return "<{}-digit numerator, {}-digit denominator>".format(
            *(Decimal(n).adjusted() + 1 for n in (v.numerator, v.denominator)))


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

    ``support()`` is the int64 array of the nonzero points, ascending,
    found anew on each call (one ``np.flatnonzero``; nothing is cached),
    and ``t[points]`` gives the values at such an array in one read.
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

    def __getitem__(self, n):
        """The value at n as a Python scalar; or, for an int64 array of
        points, the values there as an array of ``DTYPES[kind]`` (Python
        ints or Fractions for an exact table, read from the store when it
        has one).  A point outside [1, limit] raises ValueError naming it.
        """
        pts = np.asarray(n)
        bad = pts[(pts < 1) | (pts > self.limit)]
        if bad.size:
            raise ValueError(f"argument {bad[0]} outside [1, {self.limit}]")
        return (self._data[pts].astype(DTYPES[self.kind], copy=False)
                if pts.ndim else self._data.item(n))  # a Python scalar

    def support(self, eps: float = 0.0) -> np.ndarray:
        """The points n with a nonzero value, ascending, as int64; with
        eps > 0, a real table leaves out |value| <= eps as well."""
        pts = self.support_upto(self.limit)
        if eps and not self.is_exact:
            pts = pts[np.abs(self._data[pts]) > eps]
        return pts

    def support_upto(self, N: int) -> np.ndarray:
        """The support points n <= N (the nonzero points of the table's
        first N slots)."""
        if N > self.limit:
            raise ValueError(f"tabulated only to {self.limit}, need {N}")
        return np.flatnonzero(self._data[1: max(N, 0) + 1]) + 1

    def is_zero(self) -> bool:
        """True when support(SUPPORT_EPS) is empty."""
        return not len(self.support(SUPPORT_EPS))


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
# no sieve is needed.  Exact builders return int64, the one dtype a table
# keeps as its store: the sieve's int8 mu and int32 phi are widened here
# (any other array would become an object array of Python ints).
_TABULATORS = {
    "unit": (EXACT, False, lambda M, t: _indicator(M, slice(1, None))),
    "identity": (EXACT, False, lambda M, t: np.arange(M + 1)),
    "mobius": (EXACT, True,
               lambda M, t: t.mobius_values[: M + 1].astype(np.int64)),
    "mu_squared": (EXACT, True,
                   lambda M, t: (t.mobius_values[: M + 1] != 0)
                   .astype(np.int64)),
    "phi": (EXACT, True, lambda M, t: t.phi_values[: M + 1].astype(np.int64)),
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
