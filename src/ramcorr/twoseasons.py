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

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

from .arith_core import (EXACT, REAL, SUPPORT_EPS, TabulatedFunction,
                         is_prime_int, mobius_int, odd_part, zeros)
from .correlations import REAL_TOL, correlate_direct
from .ramanujan import UndefinedPeriodError, universal_period
from .transforms import (TruncatedDivisorSum, eratosthenes_transform,
                         evaluate_tds, truncate)


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

    def as_json(self) -> str:
        return json.dumps([{"id": c.axiom_id, "pass": c.passed,
                            "evidence": c.evidence} for c in self.checks],
                          indent=2)


def _et_support(g_source, eps: float = SUPPORT_EPS) -> list[int]:
    """Support of g' for a TabulatedFunction (transformed on its whole
    tabulated range) or a TDS (stored table)."""
    if not isinstance(g_source, TruncatedDivisorSum):
        g_source = eratosthenes_transform(g_source)
    return [d for d, _ in g_source.support(eps)]


def _f_support(f: TabulatedFunction, N: int, eps: float = SUPPORT_EPS) -> list[int]:
    return [n for n, _ in f.support(eps) if n <= N]


def check_axioms(f: TabulatedFunction, g_source, N: int, Q: int) -> AxiomReport:
    """Evaluate the five axioms for the pair (f, g) at parameters (N, Q).

    g_source may be a TabulatedFunction (its transform is computed) or a
    TruncatedDivisorSum (its stored table is the transform).
    """
    g_supp = _et_support(g_source)
    f_supp = _f_support(f, min(f.limit, N))

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


class EntangledValue(NamedTuple):
    value: int | float
    branch: str  # "even" | "odd"


def entangled_correlation(f: TabulatedFunction, g: TruncatedDivisorSum,
                          N: int, a: int) -> EntangledValue:
    """C(N, a) evaluated through the parity branch it entangles.

    Even shifts: sum over odd primes p <= N of f(p) g(p + a).
    Odd shifts: the same sum with g read at the odd part of p + a
    (p + a is even there; one power of two is split off per term).
    Requires the five axioms; equal to the direct correlation with the
    odd-lifted g in both branches.
    """
    if a < 1:
        raise ValueError(f"shifts are naturals >= 1, got {a}")
    report = check_axioms(f, g, N, g.limit)
    if not report.overall:
        failing = "; ".join(f"axiom {c.axiom_id}: {c.evidence}"
                            for c in report.failures())
        raise AxiomError(failing)
    exact = f.is_exact and g.is_exact
    acc = 0 if exact else 0.0
    if a % 2 == 0:
        for p, fv in f.support_upto(N):
            acc += fv * evaluate_tds(g, p + a)
        return EntangledValue(acc, "even")
    for p, fv in f.support_upto(N):
        acc += fv * evaluate_tds(g, odd_part(p + a))
    return EntangledValue(acc, "odd")


def _as_predicate(members):
    if isinstance(members, (set, frozenset)):
        return members.__contains__
    if callable(members):
        return members
    raise ValueError("set predicate must be a set or a callable")


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


def combinatorial_identity_check(f: TabulatedFunction, g_source, N: int,
                                 tol: float = REAL_TOL) -> tuple[bool, bool]:
    """Huge-shift identities for a two-seasons pair with g nonzero:

        C(N, 1) == C(N, U + 1)  and  C(N, 2) == C(N, U + 2),

    U being the product of odd primes up to N.  Evaluates all four
    correlations (big-integer shifts on the right) and returns the two
    equality booleans.
    """
    if isinstance(g_source, TruncatedDivisorSum):
        g = g_source
    else:
        g = truncate(g_source, N)
    if g.is_zero():
        raise UndefinedPeriodError("identities undefined for the zero TDS")
    report = check_axioms(f, g, N, N)
    if not report.overall:
        failing = "; ".join(f"axiom {c.axiom_id}: {c.evidence}"
                            for c in report.failures())
        raise AxiomError(failing)
    U = universal_period(N).value
    exact = f.is_exact and g.is_exact

    def close(x, y):
        return x == y if exact else abs(x - y) <= tol

    eq1 = close(correlate_direct(f, g, N, 1),
                correlate_direct(f, g, N, U + 1))
    eq2 = close(correlate_direct(f, g, N, 2),
                correlate_direct(f, g, N, U + 2))
    return eq1, eq2


def random_ts_instance(N: int, rng, value_range: tuple[int, int] = (-5, 5),
                       exact: bool = True):
    """A random pair (f, g) satisfying the five axioms at Q = N.

    f carries random nonzero values on the odd primes up to N; g is a
    TDS with random values on the odd square-free d <= N.  With
    exact=False the same supports carry random floats.
    """
    if N < 9 or is_prime_int(N) or is_prime_int(N - 1):
        raise ValueError(f"N={N} violates the parameter axiom "
                         "(need N >= 9 with N and N-1 composite)")
    lo, hi = value_range

    def draw():
        while True:
            v = rng.randint(lo, hi)
            if v:
                return v

    if exact:
        draw_f = draw_g = draw
    else:
        def draw_f():
            return rng.uniform(0.5, 3.0)

        def draw_g():
            return rng.uniform(0.5, 3.0) * rng.choice((-1, 1))

    kind = EXACT if exact else REAL
    fvals = zeros(N + 1, kind)
    for p in range(3, N + 1, 2):
        if is_prime_int(p):
            fvals[p] = draw_f()
    et = zeros(N + 1, kind)
    for d in range(1, N + 1, 2):
        if mobius_int(d) != 0:
            et[d] = draw_g()
    return (TabulatedFunction(N, kind, fvals, "random_f"),
            TruncatedDivisorSum(N, kind, et, "random_g"))
