"""Two-seasons correlations: the five-axiom checker and the
parity-entangled Diophantine counting it certifies.

A correlation pair (f, g) with length N and declared range Q is
two-seasons when

  (0) supp(g') lies in [1, Q] with Q <= N, and the correlation is fair
      (no shift-dependence outside the c_q argument; structural here,
      since factors are fixed tables),
  (1) g' is supported on square-free numbers,
  (2) f is supported on primes,
  (3) g' and f are both supported on odd numbers,
  (4) Q = N >= 9 and neither N nor N-1 is prime.

Such a correlation counts, depending on the parity of the shift a,
solutions of two different equations in odd numbers n from supp(f):
n + a = m (a even) or n + a = 2^j m with m odd (a odd).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .arith_core import (EXACT, SUPPORT_EPS, TabulatedFunction, _odd_primes,
                         capped_sieve, collapse, is_prime_int, mobius_int,
                         odd_part, zeros)
from .correlations import verify_periodicity
from .ramanujan import (UndefinedPeriodError, _as_predicate,
                        universal_period)
from .transforms import TruncatedDivisorSum, evaluate_tds


class AxiomError(ValueError):
    """A two-seasons precondition is not satisfied."""


@dataclass(frozen=True)
class AxiomCheck:
    axiom_id: str
    passed: bool
    evidence: str


@dataclass
class AxiomReport:
    axiom0: AxiomCheck
    axiom1: AxiomCheck
    axiom2: AxiomCheck
    axiom3: AxiomCheck
    axiom4: AxiomCheck

    @property
    def checks(self) -> list[AxiomCheck]:
        return [self.axiom0, self.axiom1, self.axiom2, self.axiom3, self.axiom4]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]


def check_axioms(f: TabulatedFunction, g: TruncatedDivisorSum, N: int,
                 Q: int) -> AxiomReport:
    """Evaluate the five axioms for the pair (f, g) at parameters (N, Q);
    the stored table of the TDS g is g'."""
    g_supp = [d for d, _ in g.support(SUPPORT_EPS)]
    f_supp = [n for n, _ in f.support(SUPPORT_EPS) if n <= N]

    bad_range = [d for d in g_supp if d > Q]
    ok0 = not bad_range and Q <= N
    if not Q <= N:
        ev0 = f"range bound Q={Q} exceeds length N={N}"
    elif bad_range:
        ev0 = f"supp(g') leaks past Q={Q}: first offender d={bad_range[0]}"
    else:
        ev0 = (f"supp(g') within [1,{Q}], Q <= N={N}; fairness holds "
               "structurally: both factors are fixed tables, no "
               "shift-dependence is representable")

    not_sf = [d for d in g_supp if mobius_int(d) == 0]
    ok1 = not not_sf
    ev1 = ("supp(g') is square-free" if ok1 else
           f"g' supported at non-square-free d={not_sf[0]}")

    not_prime = [n for n in f_supp if not is_prime_int(n)]
    ok2 = not not_prime
    ev2 = ("supp(f) contains primes only" if ok2 else
           f"f supported at composite n={not_prime[0]}")

    even_g = [d for d in g_supp if d % 2 == 0]
    even_f = [n for n in f_supp if n % 2 == 0]
    ok3 = not even_g and not even_f
    if ok3:
        ev3 = "supp(g') and supp(f) are odd"
    elif even_g:
        ev3 = f"g' supported at even d={even_g[0]}"
    else:
        ev3 = f"f supported at even n={even_f[0]}"

    ok4 = Q == N and N >= 9 and not is_prime_int(N) and not is_prime_int(N - 1)
    if ok4:
        ev4 = f"Q = N = {N} >= 9 with N and N-1 both composite"
    else:
        reasons = []
        if Q != N:
            reasons.append(f"Q={Q} != N={N}")
        if N < 9:
            reasons.append(f"N={N} < 9")
        if is_prime_int(N):
            reasons.append(f"N={N} is prime")
        if is_prime_int(N - 1):
            reasons.append(f"N-1={N - 1} is prime")
        ev4 = "; ".join(reasons)

    return AxiomReport(
        AxiomCheck("0", ok0, ev0),
        AxiomCheck("1", ok1, ev1),
        AxiomCheck("2", ok2, ev2),
        AxiomCheck("3", ok3, ev3),
        AxiomCheck("4", ok4, ev4),
    )


def _require_axioms(f: TabulatedFunction, g, N: int, Q: int) -> None:
    """AxiomError naming every failed axiom and its evidence, if any."""
    report = check_axioms(f, g, N, Q)
    if not report.overall:
        raise AxiomError("; ".join(f"axiom {c.axiom_id}: {c.evidence}"
                                   for c in report.failures()))


class EntangledValue(NamedTuple):
    value: int | float
    branch: str  # "even" | "odd"


def entangled_correlation(f: TabulatedFunction, g: TruncatedDivisorSum,
                          N: int, a: int) -> EntangledValue:
    """C(N, a) evaluated through the parity branch it entangles:

        sum over odd primes p <= N of f(p) g(odd_part(p + a)),

    one formula for both seasons.  Even shifts keep p + a odd, so g is
    read at p + a; odd shifts make p + a even, and its power of two
    2^v2(p + a) is split off per term.  Requires the five axioms; equal
    to the direct correlation with the odd-lifted g in both branches.
    """
    if a < 1:
        raise ValueError(f"shifts are naturals >= 1, got {a}")
    _require_axioms(f, g, N, g.limit)
    acc = 0
    for p, fv in f.support_upto(N):
        acc += fv * evaluate_tds(g, odd_part(p + a))
    return EntangledValue(collapse(acc, f, g), "odd" if a % 2 else "even")


def diophantine_count_even(F, G, N: int, a: int) -> int:
    """#{n <= N : n odd, n in F, n + a in G} for even shifts a."""
    if a < 1 or a % 2:
        raise ValueError(f"even-branch count requires even a >= 2, got {a}")
    in_f, in_g = _as_predicate(F), _as_predicate(G)
    return sum(1 for n in range(1, N + 1, 2) if in_f(n) and in_g(n + a))


def diophantine_count_odd(F, G, N: int, a: int) -> int:
    """Solutions of n + a = 2^j m with n <= N odd in F and m odd in G,
    summed over j >= 1, for odd shifts a.

    Each admissible n is counted once: j is forced to the 2-adic
    valuation of n + a by the oddness requirement on m.
    """
    if a < 1 or a % 2 == 0:
        raise ValueError(f"odd-branch count requires odd a, got {a}")
    in_f, in_g = _as_predicate(F), _as_predicate(G)
    count = 0
    j_max = int(math.log2(N + a))
    for j in range(1, j_max + 1):
        step = 1 << j
        for n in range(1, N + 1, 2):
            if in_f(n) and (n + a) % step == 0:
                m = (n + a) // step
                if m % 2 and in_g(m):
                    count += 1
    return count


def combinatorial_identity_check(f: TabulatedFunction, g: TruncatedDivisorSum,
                                 N: int) -> tuple[bool, bool]:
    """Huge-shift identities for a two-seasons pair with g nonzero:

        C(N, 1) == C(N, U + 1)  and  C(N, 2) == C(N, U + 2),

    U being the product of odd primes up to N.  Evaluates all four
    correlations (big-integer shifts on the right) and returns the two
    ``verify_periodicity`` verdicts.
    """
    if g.is_zero():
        raise UndefinedPeriodError("identities undefined for the zero TDS")
    _require_axioms(f, g, N, N)
    U = universal_period(N)
    return (verify_periodicity(f, g, N, U, [1]),
            verify_periodicity(f, g, N, U, [2]))


def random_ts_instance(N: int, rng):
    """A random exact pair (f, g) satisfying the five axioms at Q = N.

    f carries random nonzero values in [-5, 5] on the odd primes up to N;
    g is a TDS with random nonzero values in [-5, 5] on the odd
    square-free d <= N, drawn after f's values, each in ascending order.
    The primes and mu come from a sieve to N, so N is held to SIEVE_CAP.
    """
    table = capped_sieve(max(N, 9))
    if N < 9 or table.is_prime[N] or table.is_prime[N - 1]:
        raise ValueError(f"N={N} violates the parameter axiom "
                         "(need N >= 9 with N and N-1 composite)")

    def draw():
        while True:
            v = rng.randint(-5, 5)
            if v:
                return v

    fvals = zeros(N + 1, EXACT)
    for p in _odd_primes(N, table).tolist():
        fvals[p] = draw()
    et = zeros(N + 1, EXACT)
    for d in range(1, N + 1, 2):
        if table.mobius_values[d]:
            et[d] = draw()
    return (TabulatedFunction(N, EXACT, fvals, "random_f"),
            TruncatedDivisorSum(N, EXACT, et, "random_g"))
