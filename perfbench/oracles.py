"""Independent arithmetic and the per-call output checks of the benchmark.

Nothing here imports ramcorr: every expected value comes from trial
division or from the benchmark's own exact sums, so a defect in the
program's sieve, transforms or correlation routes cannot hide in its own
oracle.  Each ``check_*`` function reads the files one CLI call wrote and
returns a list of failure messages; an empty list means the call passed.

Real numbers are compared at the precision the CLI prints (12 significant
digits), allowing one unit in the last printed digit, because two
summation orders may round the 13th digit differently.  Exact values are
compared with no tolerance.  The singular-series window (0.01) is the
repository's own.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from pathlib import Path

SINGULAR_WINDOW = 0.01
PRINTED_DIGITS = 12


# ----------------------------------------------------------------------
# trial-division arithmetic
# ----------------------------------------------------------------------

def factor(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 by trial division, as {p: e}."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(n: int) -> int:
    fac = factor(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def phi(n: int) -> int:
    for p in factor(n):
        n = n // p * (p - 1)
    return n


def kappa(n: int) -> int:
    return math.prod(factor(n))


def mu_squared(n: int) -> int:
    return mobius(n) ** 2


FUNCTIONS = {"phi": phi, "kappa": kappa, "mobius": mobius,
             "mu_squared": mu_squared}


def von_mangoldt_table(M: int) -> list[float]:
    """Lambda(n) for n = 0..M (slot 0 unused), by trial division."""
    lam = [0.0] * (M + 1)
    for n in range(2, M + 1):
        fac = factor(n)
        if len(fac) == 1:
            lam[n] = math.log(next(iter(fac)))
    return lam


def odd_primorial(N: int) -> int:
    """U: the product of the odd primes up to N."""
    return math.prod(p for p in range(3, N + 1, 2) if factor(p) == {p: 1})


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def tds_value(entries: dict[int, int], m: int) -> int:
    """g(m) = sum of g'(d) over the stored d dividing m."""
    return sum(v for d, v in entries.items() if m % d == 0)


def exact_correlation(entries: dict[int, int], N: int, k: int) -> int:
    """sum over n <= N of mu(n) g(n + k), all in exact integers."""
    return sum(mu * tds_value(entries, n + k)
               for n in range(1, N + 1) if (mu := mobius(n)))


# ----------------------------------------------------------------------
# reading the CLI's files
# ----------------------------------------------------------------------

def read_csv(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines:
        raise ValueError(f"{path.name}: empty file")
    return lines[0], [line.split(",") for line in lines[1:] if line]


def read_tds(path: Path) -> tuple[str, dict[int, int]]:
    """Header line and the {d: g'(d)} entries of an ExactInt TDS file."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
        entries = {}
        for line in fh:
            d, v = line.split("\t")
            entries[int(d)] = int(v)
    return header, entries


def write_tds(path: Path, cutoff: int, entries: dict[int, int]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"cutoff={cutoff} kind=ExactInt\n")
        for d in sorted(entries):
            fh.write(f"{d}\t{entries[d]}\n")


def last_digit_unit(text: str) -> Decimal:
    """One unit in the last digit of a value printed to 12 significant
    digits (zero for an exact zero)."""
    d = Decimal(text)
    return Decimal(0) if d == 0 else Decimal(1).scaleb(d.adjusted()
                                                      - PRINTED_DIGITS + 1)


def agrees(printed: str, other: str | float) -> bool:
    """True iff ``other`` (a printed string or a float) lies within one
    unit of the last printed digit of ``printed``."""
    unit = last_digit_unit(printed)
    if isinstance(other, str):
        unit = max(unit, last_digit_unit(other))
    return abs(Decimal(printed) - Decimal(other)) <= unit


def _profile(path: Path, shifts: list[int]) -> dict[int, str]:
    """{a: printed value} of an a,value profile with exactly these shifts."""
    header, rows = read_csv(path)
    got = {int(a): v for a, v in rows}
    if header != "a,value" or sorted(got) != sorted(shifts) \
            or len(rows) != len(shifts):
        raise ValueError(f"{path.name}: not an a,value profile at shifts "
                         f"{sorted(shifts)}")
    return got


# ----------------------------------------------------------------------
# per-call checks (an unreadable or malformed file raises; the runner
# counts that as a failure too)
# ----------------------------------------------------------------------

def check_real_profile(path: Path, ks: tuple[int, ...], U: int,
                       reference: Path | None = None) -> list[str]:
    """Real correlation profile at shifts k and U+k: C(N, U+k) agrees with
    C(N, k), and every row agrees with the same row of ``reference``."""
    got = _profile(path, [*ks, *(U + k for k in ks)])
    fails = [f"{path.name}: C(N,U+{k})={got[U + k]} != C(N,{k})={got[k]}"
             for k in ks if not agrees(got[k], got[U + k])]
    if reference is not None:
        ref = _profile(reference, list(got))
        fails += [f"{path.name}: row a={a} is {got[a]}, "
                  f"{reference.name} has {v}"
                  for a, v in ref.items() if not agrees(got[a], v)]
    return fails


def check_exact_profile(path: Path, expected: dict[int, int],
                        U: int) -> list[str]:
    """Exact profile: C(N, k) and C(N, U+k) both equal the benchmark's own
    exact sum, with no tolerance."""
    got = _profile(path, [*expected, *(U + k for k in expected)])
    return [f"{path.name}: row a={a} is {got[a]}, exact sum is {want}"
            for k, want in expected.items() for a in (k, U + k)
            if got[a] != str(want)]


def check_transform_fn(path: Path, fn: str, N: int,
                       sample: list[int]) -> list[str]:
    """The written g' = mu * F, divisor-summed at each sampled n, gives
    F(n) by trial division."""
    header, entries = read_tds(path)
    if header != f"cutoff={N} kind=ExactInt":
        return [f"{path.name}: header {header!r}"]
    F = FUNCTIONS[fn]
    sums = {n: sum(entries.get(d, 0) for d in divisors(n)) for n in sample}
    return [f"{path.name}: sum of g'(d) over d | {n} is {got}, "
            f"{fn}({n}) = {F(n)}" for n, got in sums.items() if got != F(n)]


def check_retruncated(path: Path, N: int,
                      entries: dict[int, int]) -> list[str]:
    """``transform --in`` at a cutoff above every entry keeps them all."""
    header, got = read_tds(path)
    if header != f"cutoff={N} kind=ExactInt":
        return [f"{path.name}: header {header!r}"]
    if got != entries:
        bad = sorted(set(got.items()) ^ set(entries.items()))[:3]
        return [f"{path.name}: entries differ from the input at {bad}"]
    return []


def check_verdict(path: Path, suite: str) -> list[str]:
    verdict = json.loads(path.read_text(encoding="ascii"))
    if verdict.get("suite") != suite or verdict.get("pass") is not True:
        return [f"{path.name}: verdict {verdict}"]
    return []


def check_hl(path: Path, N_list: list[int], a_list: list[int], Q: int,
             lam: list[float]) -> list[str]:
    """Model rows: the hl column is the trial-division double von Mangoldt
    sum.  Singular rows: even a, truncated sum within the window of the
    Euler product; odd a, product 0 and |truncated sum| within the window."""
    singular = path.with_name(path.name + ".singular.csv")
    models_header, models = read_csv(path)
    singular_header, sing = read_csv(singular)
    fails = []
    keys = [[str(N), str(a)] for N in N_list for a in a_list]
    if (not models_header.startswith("N,a,hl,")
            or [r[:2] for r in models] != keys):
        return [f"{path.name}: rows are not {keys}"]
    for row in models:
        N, a = int(row[0]), int(row[1])
        want = math.fsum(lam[n] * lam[n + a] for n in range(1, N + 1)
                         if lam[n] and lam[n + a])
        if not agrees(row[2], want):
            fails.append(f"{path.name}: hl({N},{a}) is {row[2]}, "
                         f"trial division gives {want!r}")
    if (singular_header != "a,truncated,euler_product,Q"
            or [r[0] for r in sing] != [str(a) for a in sorted(set(a_list))]):
        return fails + [f"{singular.name}: rows are not a = {a_list}"]
    for a, trunc, euler, q in sing:
        trunc, euler = float(trunc), float(euler)
        ok = int(q) == Q and (
            abs(trunc - euler) <= SINGULAR_WINDOW if int(a) % 2 == 0
            else euler == 0 and abs(trunc) <= SINGULAR_WINDOW)
        if not ok:
            fails.append(f"{singular.name}: a={a} truncated={trunc} "
                         f"euler={euler} Q={q}")
    return fails
