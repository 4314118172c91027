"""Self-contained verification suites behind the ``verify`` CLI command.

Every suite re-derives one family of identities through two independent
routes and reports a machine-readable verdict; on failure the verdict
carries the located counterexample.  All randomness is seeded so runs
are reproducible.  ``run_suite`` hands each suite one ledger
(``_Ledger``), which counts its checks, keeps the failure records and
builds the verdict.  Every check of one table against another goes
through ``_compare``, which tests the whole arrays at once and ends the
suite at CAP records; the seeded ``expansion`` and ``lucht`` runs are
the stored-pair checks run over a seeded corpus of tables.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .arith_core import (EXACT, TabulatedFunction, _text, agree,
                         divisors_int, is_prime_int, mobius_int, odd_part,
                         sieve_primes, tabulate, tolerance)
from .correlations import (correlate_direct, truncation_difference,
                           verify_periodicity)
from .hlmodels import (artifact_identity_check, artifact_pair, model_chain,
                       pnt_sanity, singular_series)
from .ramanujan import (RamanujanCoefficients, lucht_invert, ramanujan_expand,
                        ramanujan_expand_range, ramanujan_sum_table,
                        support_closure_check, universal_period,
                        wintner_coefficients, wintner_period)
from .transforms import (TruncatedDivisorSum, evaluate_tds,
                         evaluate_tds_range, lambda_tds, odd_lift, retruncate)
from .twoseasons import (combinatorial_identity_check, diophantine_count_even,
                         diophantine_count_odd, random_ts_instance)

# A capped check (``_compare``, and ``suite_expansion``'s huge shifts)
# ends its suite once the verdict holds CAP located records.
CAP = 5


class _Capped(Exception):
    """A capped check brought the failure records to CAP."""


class _Ledger:
    """One suite's tally: the number of checks run and a located record for
    each failure; ``verdict`` is the suite's JSON verdict."""

    def __init__(self, suite: str):
        self.suite, self.checks, self.failures = suite, 0, []

    def check(self, ok, record, n: int = 1) -> bool:
        """Count n checks, which pass when ``ok``.  On failure keep
        ``record()``, built only then."""
        self.checks += n
        if not ok:
            self.failures.append(record())
        return bool(ok)

    def verdict(self) -> dict:
        return {"suite": self.suite, "pass": not self.failures,
                "checks": self.checks, "failures": self.failures}


def _compare(led: _Ledger, check: str, key: str, gots, wants, bound,
             n: int = 1, **where) -> None:
    """The capped check ``agree(gots[i], wants[i], bound)`` for i >= 1
    (slot 0 is unused), tested on the whole arrays at once.  Each
    disagreeing i, ascending, gets a record with ``where``'s keys, the
    entry as ``key`` and its two values as text (``_text``); the record
    that brings the verdict to CAP ends the suite.  It counts n checks
    per entry up to that one, else n per entry.  A list is read as an
    object array, so its Python ints and Fractions compare exactly
    (NumPy would store a list holding 2**63 as float64)."""
    gots, wants = (x if isinstance(x, np.ndarray) else np.array(x, object)
                   for x in (gots, wants))
    bad = np.flatnonzero(~agree(gots[1:], wants[1:], bound)) + 1
    for i in bad.tolist():
        led.failures.append({"check": check, **where, key: i,
                             "got": _text(gots.item(i)),
                             "expected": _text(wants.item(i))})
        if len(led.failures) >= CAP:
            led.checks += n * i
            raise _Capped
    led.checks += n * (len(wants) - 1)


def _random_tds(rng: random.Random, D: int,
                points=None) -> TruncatedDivisorSum:
    """Ten random nonzero entries in [-9, 9] at points of ``points``
    (default 1..D)."""
    et = [0] * (D + 1)
    pool = list(points) if points is not None else list(range(1, D + 1))
    for d in rng.sample(pool, min(10, len(pool))):
        v = 0
        while not v:
            v = rng.randint(-9, 9)
        et[d] = v
    return TruncatedDivisorSum(D, EXACT, et)


def _entries(t, top: int) -> np.ndarray:
    """The value array of table t on [0..top], zero past its limit."""
    return retruncate(t, top).values


def suite_orthogonality(led: _Ledger, seed: int) -> None:
    """sum over q | d of c_q(a) equals d exactly when d | a, else 0, for
    d <= 200 and a <= 1000 (the int64 sums are exact: |c_q| <= q)."""
    a = np.arange(1001)
    tables = {q: np.array(ramanujan_sum_table(q)) for q in range(1, 201)}
    for d in range(1, 201):
        totals = sum(tables[q][a % q] for q in divisors_int(d))
        _compare(led, "orthogonality", "a", totals, np.where(a % d, 0, d), 0,
                 d=d)


def _pair_expansion(led: _Ledger, g: TruncatedDivisorSum,
                    coeffs: RamanujanCoefficients | None, a_max: int = 500,
                    n: int = 0, **where) -> RamanujanCoefficients:
    """The stored pair: coeffs, when given, against g's Wintner
    coefficients; then the expansion of coeffs (of g's own coefficients
    when none are given) against the divisor sum for a <= a_max, by two
    independent batch routes (periodic c_q blocks, the divisor sieve),
    counting n checks per entry.  Returns the coefficients expanded."""
    bound = tolerance(g)
    derived = wintner_coefficients(g)
    if coeffs is None:
        coeffs = derived
    else:
        top = max(coeffs.limit, derived.limit)
        _compare(led, "coefficient", "q", _entries(coeffs, top),
                 _entries(derived, top), bound, n, **where)
    _compare(led, "expansion", "a", ramanujan_expand_range(coeffs, a_max),
             evaluate_tds_range(g, a_max), bound, n, **where)
    return coeffs


def suite_expansion(led: _Ledger, seed: int,
                    tds: TruncatedDivisorSum | None = None,
                    coeffs: RamanujanCoefficients | None = None) -> None:
    """Fixed-length expansion reproduces the divisor sum everywhere: the
    pair check of each seeded table (15 random exact ones, then
    ``lambda_tds(50)``) to a = 2000, plus five huge shifts per exact
    table, each a capped check whose record gives the shift and both
    values as text."""
    if tds is not None:
        led.checks = 1  # the stored pair counts as one check
        _pair_expansion(led, tds, coeffs)
        return
    rng = random.Random(seed)
    corpus = [_random_tds(rng, rng.randint(5, 80)) for _ in range(15)]
    for i, g in enumerate(corpus):
        c = _pair_expansion(led, g, None, a_max=2000, n=1, tds=i)
        for _ in range(5):
            a = rng.randint(10 ** 20, 10 ** 30)
            got, want = ramanujan_expand(c, a), evaluate_tds(g, a)
            led.check(got == want, lambda: {
                "check": "expansion-big", "tds": i, "a": a,
                "got": _text(got), "expected": _text(want)})
            if len(led.failures) >= CAP:
                raise _Capped
    _pair_expansion(led, lambda_tds(50), None, a_max=2000, n=1, tds=15)


def _pair_lucht(led: _Ledger, g: TruncatedDivisorSum | None,
                coeffs: RamanujanCoefficients | None, **where) -> None:
    """The stored pair: coeffs (g's own coefficients when none are given)
    inverted back to g entrywise, or, with no g, through their round
    trip, inversion then coefficients."""
    if coeffs is None:
        coeffs = wintner_coefficients(g)
    try:
        back = lucht_invert(coeffs)
    except ValueError as exc:
        error = str(exc)
        led.check(False, lambda: {"check": "lucht-invert", **where,
                                  "error": error})
        return
    if g is not None:
        top = max(back.limit, g.limit)
        _compare(led, "lucht", "d", _entries(back, top), _entries(g, top),
                 tolerance(g), **where)
    else:
        top = coeffs.limit
        _compare(led, "lucht-roundtrip", "q",
                 _entries(wintner_coefficients(back), top),
                 _entries(coeffs, top), tolerance(coeffs), **where)


def suite_lucht(led: _Ledger, seed: int,
                tds: TruncatedDivisorSum | None = None,
                coeffs: RamanujanCoefficients | None = None) -> None:
    """Coefficient tables invert back to the divisor-sum table entrywise:
    the pair check of each seeded table (25 random exact ones, then
    ``lambda_tds(60)``)."""
    if coeffs is not None or tds is not None:
        _pair_lucht(led, tds, coeffs)
        return
    rng = random.Random(seed)
    for i in range(25):
        _pair_lucht(led, _random_tds(rng, rng.randint(5, 120)), None, tds=i)
    _pair_lucht(led, lambda_tds(60), None, tds=25)


def suite_closure(led: _Ledger, seed: int) -> None:
    """Support of the table and of its coefficients enter divisor-closed
    sets together or not at all."""
    rng = random.Random(seed)
    sets = {
        "below-40": lambda d: d <= 40,
        "square-free": lambda d: mobius_int(d) != 0,
        "odd": lambda d: d % 2 == 1,
    }
    for i in range(40):
        D = rng.randint(5, 100)
        pick = rng.random()
        if pick < 0.4:
            pool = [d for d in range(1, D + 1, 2) if mobius_int(d)]
            g = _random_tds(rng, D, points=pool)
        else:
            g = _random_tds(rng, D)
        for name, pred in sets.items():
            et_in, hat_in = support_closure_check(g, pred)
            led.check(et_in == hat_in,
                      lambda: {"check": "closure", "tds": i, "set": name,
                               "supp_et": et_in, "supp_hat": hat_in})


def suite_periods(led: _Ledger, seed: int) -> None:
    """Huge-shift periodicity of two-seasons instances and the divisor
    of the universal period."""
    rng = random.Random(seed)
    good_N = [N for N in range(9, 46)
              if not is_prime_int(N) and not is_prime_int(N - 1)]
    for i in range(12):
        N = rng.choice(good_N)
        f, g = random_ts_instance(N, rng)
        W = wintner_period(g, N)
        U = universal_period(N)
        where = {"instance": i, "N": N}
        if not led.check(U % W == 0,
                         lambda: {"check": "w-divides-u", **where}):
            continue
        shifts = sorted(rng.sample(range(1, 40), 6))
        led.check(verify_periodicity(f, g, N, U, shifts),
                  lambda: {"check": "u-periodicity", **where})
        led.check(verify_periodicity(f, g, N, W, shifts),
                  lambda: {"check": "w-periodicity", **where})
        for m in rng.sample(range(1, 1000), 8):
            if not led.check(evaluate_tds(g, m) == evaluate_tds(g, m + W),
                             lambda: {"check": "g-periodicity", **where,
                                      "m": m}):
                break


def suite_identities(led: _Ledger, seed: int) -> None:
    """C(N,1) = C(N,U+1) and C(N,2) = C(N,U+2) for the artifact and for
    random two-seasons instances."""
    rng = random.Random(seed)
    for N in (9, 10, 15, 16):
        f, g = artifact_pair(N)
        eq1, eq2 = combinatorial_identity_check(f, g, N)
        led.check(eq1 and eq2,
                  lambda: {"check": "identities-artifact", "N": N,
                           "shift1": eq1, "shift2": eq2}, 2)
    for i in range(8):
        N = rng.choice((9, 10, 15, 16, 21, 22))
        f, g = random_ts_instance(N, rng)
        eq1, eq2 = combinatorial_identity_check(f, g, N)
        led.check(eq1 and eq2,
                  lambda: {"check": "identities-random", "instance": i,
                           "N": N, "shift1": eq1, "shift2": eq2}, 2)


def suite_entanglement(led: _Ledger, seed: int) -> None:
    """Parity-split counting equals the direct correlation with the
    indicator factors, and the artifact matches its closed parity forms."""
    rng = random.Random(seed)
    for i in range(12):
        N = rng.randint(50, 400)
        a = rng.randint(1, 50)
        universe = range(1, N + a + 1)
        F = {n for n in universe if rng.random() < 0.35}
        G = {n for n in universe if rng.random() < 0.35}
        fvals = [0] * (N + 1)
        for n in range(1, N + 1, 2):
            if n in F:
                fvals[n] = 1
        f = TabulatedFunction(N, EXACT, fvals)
        gvals = [0] * (N + a + 1)
        for m in range(1, N + a + 1):
            if odd_part(m) in G:
                gvals[m] = 1
        g = TabulatedFunction(N + a, EXACT, gvals)
        direct = correlate_direct(f, g, N, a)
        counted = (diophantine_count_even(F, G, N, a) if a % 2 == 0
                   else diophantine_count_odd(F, G, N, a))
        led.check(direct == counted,
                  lambda: {"check": "count", "instance": i, "N": N, "a": a,
                           "parity": "even" if a % 2 == 0 else "odd",
                           "count": counted, "direct": direct})
    table = sieve_primes(700)
    for a in (1, 2, 3, 4, 9, 10, 97, 100):
        led.check(artifact_identity_check(500, a, table),
                  lambda: {"check": "artifact-closed-form", "N": 500, "a": a})


def suite_models(led: _Ledger, seed: int) -> None:
    """Ladder consistency: every gap between neighbouring models equals
    its independently enumerated correction to within REAL_TOL * max(1,
    |hl|), hl the full correlation (``tolerance`` of the Lambda table).
    One sieve, to the series' Q, serves every call."""
    N, Q = 2000, 20000
    table = sieve_primes(Q)
    lam_tab = tabulate("lambda", N + 20, table)
    lam = table.von_mangoldt_values
    g_plain = lambda_tds(N, table)
    g_odd = odd_lift(g_plain)
    for row in model_chain(N, (2, 3, 4, 10), table):
        a = row.a
        bound = tolerance(lam_tab, scale=max(1.0, abs(row.hl)))
        # full sum vs truncation: the explicit tail formula
        tail = truncation_difference(lam_tab, lam_tab, N, a, table)
        led.check(agree(row.hl - row.m61, tail, bound),
                  lambda: {"check": "tail", "a": a,
                           "gap": row.hl - row.m61, "tail": tail})
        # plain vs odd-lifted truncation: even square-free divisors
        even_part = 0.0
        for n in range(1, N + 1):
            if lam[n]:
                m = n + a
                even_part += lam[n] * (evaluate_tds(g_plain, m)
                                       - evaluate_tds(g_odd, m))
        led.check(agree(row.m61 - row.m62, even_part, bound),
                  lambda: {"check": "even-divisors", "a": a})
        # all n vs odd n: the even n are powers of two
        pow2 = 0.0
        k = 2
        while k <= N:
            pow2 += math.log(2) * evaluate_tds(g_odd, k + a)
            k *= 2
        led.check(agree(row.m62 - row.m63, pow2, bound),
                  lambda: {"check": "power-of-two", "a": a})
        # odd prime powers p^k, k >= 2, drop between m63 and the artifact
        pp = 0.0
        for p in table.primes[(table.primes > 2)]:
            p = int(p)
            if p * p > N:
                break
            pk = p * p
            while pk <= N:
                pp += math.log(p) * evaluate_tds(g_odd, pk + a)
                pk *= p
        led.check(agree(row.m63 - row.artifact, pp, bound),
                  lambda: {"check": "prime-powers", "a": a})
    s2, s6, s3 = singular_series((2, 6, 3), Q=Q, table=table)
    for s in (s2, s6):
        led.check(agree(s.truncated_sum, s.euler_product, 0.01),
                  lambda: {"check": "singular-series", "a": s.a,
                           "truncated": s.truncated_sum,
                           "euler": s.euler_product})
    led.check(agree(s3.truncated_sum, 0.0, 0.01),
              lambda: {"check": "singular-series-odd", "a": 3})
    led.check(pnt_sanity(N, table),
              lambda: {"check": "theta-identity", "N": N})


SUITES = {
    "orthogonality": suite_orthogonality,
    "expansion": suite_expansion,
    "lucht": suite_lucht,
    "closure": suite_closure,
    "periods": suite_periods,
    "identities": suite_identities,
    "entanglement": suite_entanglement,
    "models": suite_models,
}


def run_suite(name: str, seed: int = 0, tds=None, coeffs=None) -> dict:
    """The JSON verdict of suite ``name``: its seeded run or, for
    ``expansion`` and ``lucht``, the check of the given tables
    (``expansion`` checks coeffs only against a tds; ``lucht`` given coeffs
    alone checks their round trip)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"known: {', '.join(sorted(SUITES))}")
    tables = ({"tds": tds, "coeffs": coeffs}
              if name in ("expansion", "lucht") else {})
    if not tables and (tds is not None or coeffs is not None):
        raise ValueError(f"suite {name!r} does not accept --tds/--coeffs")
    if name == "expansion" and tds is None and coeffs is not None:
        raise ValueError("--coeffs needs --tds for suite 'expansion'")
    led = _Ledger(name)
    try:
        SUITES[name](led, seed, **tables)
    except _Capped:
        pass
    return led.verdict()
