"""Self-contained verification suites behind the ``verify`` CLI command.

Every suite re-derives one family of identities through two independent
routes and reports a machine-readable verdict; on failure the verdict
carries the located counterexample.  All randomness is seeded so runs
are reproducible.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .arith_core import (EXACT, TabulatedFunction, divisors_int,
                         is_prime_int, mobius_int, odd_part, sieve_primes,
                         tabulate_von_mangoldt)
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

TOL = 1e-9


def _random_tds(rng: random.Random, D: int, n_points: int = 10,
                points=None) -> TruncatedDivisorSum:
    et = [0] * (D + 1)
    pool = list(points) if points is not None else list(range(1, D + 1))
    for d in rng.sample(pool, min(n_points, len(pool))):
        v = 0
        while not v:
            v = rng.randint(-9, 9)
        et[d] = v
    return TruncatedDivisorSum(D, EXACT, et)


def _mismatch(got, want, exact: bool) -> bool:
    return got != want if exact else abs(got - want) > TOL


def _entries(t, top: int) -> list:
    """The values of table t on [0..top] as Python scalars, zero past its
    limit."""
    return retruncate(t, top).values.tolist()


def _verdict(name: str, checks: int, failures: list) -> dict:
    return {"suite": name, "pass": not failures, "checks": checks,
            "failures": failures}


def suite_orthogonality(seed: int = 0, d_max: int = 200,
                        a_max: int = 1000) -> dict:
    """sum over q | d of c_q(a) equals d exactly when d | a, else 0."""
    failures = []
    checks = 0
    tables = {q: ramanujan_sum_table(q) for q in range(1, d_max + 1)}
    for d in range(1, d_max + 1):
        divs = divisors_int(d)
        for a in range(1, a_max + 1):
            total = sum(tables[q][a % q] for q in divs)
            expected = d if a % d == 0 else 0
            checks += 1
            if total != expected:
                failures.append({"check": "orthogonality", "d": d, "a": a,
                                 "got": total, "expected": expected})
                if len(failures) >= 5:
                    return _verdict("orthogonality", checks, failures)
    return _verdict("orthogonality", checks, failures)


def _pair_expansion_failures(g: TruncatedDivisorSum,
                             coeffs: RamanujanCoefficients,
                             a_max: int = 500) -> list:
    failures = []
    derived = wintner_coefficients(g)
    top = max(coeffs.limit, derived.limit)
    wants, gots = _entries(derived, top), _entries(coeffs, top)
    for q in range(1, top + 1):
        want, got = wants[q], gots[q]
        if _mismatch(got, want, g.is_exact):
            failures.append({"check": "coefficient", "q": q,
                             "got": str(got), "expected": str(want)})
            if len(failures) >= 5:
                return failures
    for a in range(1, a_max + 1):
        lhs = ramanujan_expand(coeffs, a)
        rhs = evaluate_tds(g, a)
        if _mismatch(lhs, rhs, g.is_exact):
            failures.append({"check": "expansion", "a": a,
                             "got": str(lhs), "expected": str(rhs)})
            if len(failures) >= 5:
                return failures
    return failures


def suite_expansion(seed: int = 0, tds: TruncatedDivisorSum | None = None,
                    coeffs: RamanujanCoefficients | None = None) -> dict:
    """Fixed-length expansion reproduces the divisor sum everywhere."""
    if tds is not None:
        pair_coeffs = coeffs if coeffs is not None else wintner_coefficients(tds)
        failures = _pair_expansion_failures(tds, pair_coeffs)
        return _verdict("expansion", 1, failures)
    rng = random.Random(seed)
    failures = []
    checks = 0
    a_max = 2000
    corpus = [_random_tds(rng, rng.randint(5, 80)) for _ in range(15)]
    for i, g in enumerate(corpus):
        c = wintner_coefficients(g)
        got = ramanujan_expand_range(c, a_max)
        want = evaluate_tds_range(g, a_max)
        for a in range(1, a_max + 1):
            checks += 1
            if got[a] != want[a]:
                failures.append({"check": "expansion", "tds": i, "a": a,
                                 "got": str(got[a]), "expected": str(want[a])})
                break
        for _ in range(5):
            a = rng.randint(10 ** 20, 10 ** 30)
            checks += 1
            if ramanujan_expand(c, a) != evaluate_tds(g, a):
                failures.append({"check": "expansion-big", "tds": i, "a": a})
    g_lam = lambda_tds(50)
    c_lam = wintner_coefficients(g_lam)
    got_f = ramanujan_expand_range(c_lam, a_max)
    want_f = evaluate_tds_range(g_lam, a_max)
    checks += a_max
    bad = np.flatnonzero(np.abs(np.asarray(got_f)[1:] - want_f[1:]) > TOL)
    if bad.size:
        a = int(bad[0]) + 1
        failures.append({"check": "expansion-real", "a": a,
                         "got": float(got_f[a]), "expected": float(want_f[a])})
    return _verdict("expansion", checks, failures)


def suite_lucht(seed: int = 0, tds: TruncatedDivisorSum | None = None,
                coeffs: RamanujanCoefficients | None = None) -> dict:
    """Coefficient tables invert back to the divisor-sum table entrywise."""
    failures = []
    checks = 0
    if coeffs is not None or tds is not None:
        if coeffs is None:
            coeffs = wintner_coefficients(tds)
        try:
            back = lucht_invert(coeffs)
        except ValueError as exc:
            return _verdict("lucht", 1, [{"check": "lucht-invert",
                                          "error": str(exc)}])
        if tds is not None:
            reference = tds
            top = max(back.limit, reference.limit)
            gots, wants = _entries(back, top), _entries(reference, top)
            for d in range(1, top + 1):
                got, want = gots[d], wants[d]
                checks += 1
                if _mismatch(got, want, reference.is_exact):
                    failures.append({"check": "lucht", "d": d,
                                     "got": str(got), "expected": str(want)})
                    if len(failures) >= 5:
                        break
        else:
            rederived = wintner_coefficients(back)
            for q in range(1, coeffs.limit + 1):
                checks += 1
                got, want = rederived[q], coeffs[q]
                if _mismatch(got, want, coeffs.is_exact):
                    failures.append({"check": "lucht-roundtrip", "q": q,
                                     "got": str(got), "expected": str(want)})
                    if len(failures) >= 5:
                        break
        return _verdict("lucht", checks, failures)
    rng = random.Random(seed)
    for i in range(25):
        g = _random_tds(rng, rng.randint(5, 120))
        back = lucht_invert(wintner_coefficients(g))
        checks += g.limit
        if list(back.values) != list(g.values):
            d = next(d for d in range(1, g.limit + 1)
                     if back.values[d] != g.values[d])
            failures.append({"check": "lucht", "tds": i, "d": d})
    g_lam = lambda_tds(60)
    back = lucht_invert(wintner_coefficients(g_lam))
    checks += 60
    diffs = np.abs(back.values - g_lam.values)
    if diffs.max() > TOL:
        failures.append({"check": "lucht-real", "d": int(diffs.argmax())})
    return _verdict("lucht", checks, failures)


def suite_closure(seed: int = 0) -> dict:
    """Support of the table and of its coefficients enter divisor-closed
    sets together or not at all."""
    rng = random.Random(seed)
    failures = []
    checks = 0
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
            checks += 1
            if et_in != hat_in:
                failures.append({"check": "closure", "tds": i, "set": name,
                                 "supp_et": et_in, "supp_hat": hat_in})
    return _verdict("closure", checks, failures)


def suite_periods(seed: int = 0) -> dict:
    """Huge-shift periodicity of two-seasons instances and the divisor
    of the universal period."""
    rng = random.Random(seed)
    failures = []
    checks = 0
    good_N = [N for N in range(9, 46)
              if not is_prime_int(N) and not is_prime_int(N - 1)]
    for i in range(12):
        N = rng.choice(good_N)
        f, g = random_ts_instance(N, rng)
        W = wintner_period(g, N)
        U = universal_period(N)
        checks += 1
        if U.value % W.value != 0:
            failures.append({"check": "w-divides-u", "instance": i, "N": N})
            continue
        shifts = sorted(rng.sample(range(1, 40), 6))
        checks += 2
        if not verify_periodicity(f, g, N, U, shifts):
            failures.append({"check": "u-periodicity", "instance": i, "N": N})
        if not verify_periodicity(f, g, N, W, shifts):
            failures.append({"check": "w-periodicity", "instance": i, "N": N})
        for m in rng.sample(range(1, 1000), 8):
            checks += 1
            if evaluate_tds(g, m) != evaluate_tds(g, m + W.value):
                failures.append({"check": "g-periodicity", "instance": i,
                                 "N": N, "m": m})
                break
    return _verdict("periods", checks, failures)


def suite_identities(seed: int = 0) -> dict:
    """C(N,1) = C(N,U+1) and C(N,2) = C(N,U+2) for the artifact and for
    random two-seasons instances."""
    rng = random.Random(seed)
    failures = []
    checks = 0
    for N in (9, 10, 15, 16):
        f, g = artifact_pair(N)
        eq1, eq2 = combinatorial_identity_check(f, g, N)
        checks += 2
        if not (eq1 and eq2):
            failures.append({"check": "identities-artifact", "N": N,
                             "shift1": eq1, "shift2": eq2})
    for i in range(8):
        N = rng.choice((9, 10, 15, 16, 21, 22))
        f, g = random_ts_instance(N, rng)
        eq1, eq2 = combinatorial_identity_check(f, g, N)
        checks += 2
        if not (eq1 and eq2):
            failures.append({"check": "identities-random", "instance": i,
                             "N": N, "shift1": eq1, "shift2": eq2})
    return _verdict("identities", checks, failures)


def suite_entanglement(seed: int = 0) -> dict:
    """Parity-split counting equals the direct correlation with the
    indicator factors, and the artifact matches its closed parity forms."""
    rng = random.Random(seed)
    failures = []
    checks = 0
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
        checks += 1
        if direct != counted:
            failures.append({"check": "count", "instance": i, "N": N, "a": a,
                             "parity": "even" if a % 2 == 0 else "odd",
                             "count": counted, "direct": direct})
    table = sieve_primes(700)
    for a in (1, 2, 3, 4, 9, 10, 97, 100):
        checks += 1
        if not artifact_identity_check(500, a, table):
            failures.append({"check": "artifact-closed-form", "N": 500, "a": a})
    return _verdict("entanglement", checks, failures)


def suite_models(seed: int = 0) -> dict:
    """Ladder consistency: every gap between neighbouring models equals
    its independently enumerated correction, exactly."""
    failures = []
    checks = 0
    N = 2000
    table = sieve_primes(N + 20)
    lam_tab = tabulate_von_mangoldt(N + 20, table)
    lam = table.von_mangoldt_values
    for a in (2, 3, 4, 10):
        row = model_chain(N, a, table)
        scale = max(1.0, abs(row.hl))
        # full sum vs truncation: the explicit tail formula
        tail = truncation_difference(lam_tab, lam_tab, N, a)
        checks += 1
        if abs((row.hl - row.m61) - tail) > TOL * scale:
            failures.append({"check": "tail", "a": a,
                             "gap": row.hl - row.m61, "tail": tail})
        # plain vs odd-lifted truncation: even square-free divisors
        g_plain = lambda_tds(N, table)
        g_odd = odd_lift(g_plain)
        even_part = 0.0
        for n in range(1, N + 1):
            if lam[n]:
                m = n + a
                even_part += lam[n] * (evaluate_tds(g_plain, m)
                                       - evaluate_tds(g_odd, m))
        checks += 1
        if abs((row.m61 - row.m62) - even_part) > TOL * scale:
            failures.append({"check": "even-divisors", "a": a})
        # all n vs odd n: the even n are powers of two
        pow2 = 0.0
        k = 2
        while k <= N:
            pow2 += math.log(2) * evaluate_tds(g_odd, k + a)
            k *= 2
        checks += 1
        if abs((row.m62 - row.m63) - pow2) > TOL * scale:
            failures.append({"check": "power-of-two", "a": a})
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
        checks += 1
        if abs((row.m63 - row.artifact) - pp) > TOL * scale:
            failures.append({"check": "prime-powers", "a": a})
    for a in (2, 6):
        s = singular_series(a, Q=20000)
        checks += 1
        if abs(s.truncated_sum - s.euler_product) > 0.01:
            failures.append({"check": "singular-series", "a": a,
                             "truncated": s.truncated_sum,
                             "euler": s.euler_product})
    s3 = singular_series(3, Q=20000)
    checks += 1
    if abs(s3.truncated_sum) > 0.01:
        failures.append({"check": "singular-series-odd", "a": 3})
    checks += 1
    if not pnt_sanity(N, table):
        failures.append({"check": "theta-identity", "N": N})
    return _verdict("models", checks, failures)


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
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"known: {', '.join(sorted(SUITES))}")
    fn = SUITES[name]
    if name in ("expansion", "lucht"):
        return fn(seed=seed, tds=tds, coeffs=coeffs)
    if tds is not None or coeffs is not None:
        raise ValueError(f"suite {name!r} does not accept --tds/--coeffs")
    return fn(seed=seed)
