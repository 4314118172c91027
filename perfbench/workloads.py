"""The benchmark's workloads: seeded inputs and the fixed call sequence of
one pass.

A pass is the sequence of ramcorr CLI calls a user would type for one
batch; each call writes its output through ``--out`` into the run's work
directory, and its oracle reads that file back once the pass is over.
The seed enters only through the generated arguments and input files:

* ``huge_shift`` -- the seed picks k1 < k2 in [1, 64] for the shift list
  k1,k2,U+k1,U+k2 (U = product of the odd primes up to N = 5000).
* ``hl_ladder`` -- the seed picks three distinct shifts in [1, 64], at
  least one even and one odd.
* ``exact_tds`` -- the seed draws the ExactInt TDS file (300 entries on
  odd square-free d <= 3000, values in [-9, 9] without 0), k1 < k2 in
  [1, 64], and the order of the four ``transform --fn`` calls.

Expected values that do not depend on the program's output (trial
division sums, the exact correlation) are computed once per run, when the
workload is built, never inside a timed pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import oracles

SHIFT_RANGE = range(1, 65)

HUGE_N = 5000

HL_N_LIST = [10_000, 100_000]
HL_Q = 2_000_000

TDS_CUTOFF = 3000
TDS_ENTRIES = 300
TRANSFORM_FNS = ("phi", "kappa", "mobius", "mu_squared")
TRANSFORM_N = 200_000
TRANSFORM_SAMPLE = 64
RETRUNCATE_N = 6000
EXACT_N = 3000


@dataclass
class Call:
    """One CLI call of a pass and the oracle for the file(s) it writes."""

    args: list[str]
    check: Callable[[], list[str]]
    tds_in: list[Path] = field(default_factory=list)
    tds_out: list[Path] = field(default_factory=list)


def _two_shifts(rng: random.Random) -> tuple[int, int]:
    k1, k2 = sorted(rng.sample(SHIFT_RANGE, 2))
    return k1, k2


def _shift_list(ks) -> str:
    return ",".join([*map(str, ks), *(f"U+{k}" for k in ks)])


def correlate_pair(work: Path, N: int, ks: tuple[int, ...]) -> list[Call]:
    """The flagship pair by the direct route, then by the expansion route;
    each profile must satisfy C(N, U+k) = C(N, k), and the two must agree
    row by row."""
    U = oracles.odd_primorial(N)
    direct, expansion = work / "direct.csv", work / "expansion.csv"
    base = ["correlate", "--f", "odd_primes_log", "--g", "lambdaN",
            "--N", str(N), "--shifts", _shift_list(ks)]
    return [
        Call(base + ["--out", str(direct)],
             partial(oracles.check_real_profile, direct, ks, U)),
        Call(base + ["--mode", "expansion", "--out", str(expansion)],
             partial(oracles.check_real_profile, expansion, ks, U, direct)),
    ]


def hl_call(work: Path, N_list: list[int], a_list: list[int], Q: int) -> Call:
    out = work / "hl.csv"
    lam = oracles.von_mangoldt_table(max(N_list) + max(a_list))
    return Call(["hl", "--N-list", ",".join(map(str, N_list)),
                 "--a-list", ",".join(map(str, a_list)), "--Q", str(Q),
                 "--out", str(out)],
                partial(oracles.check_hl, out, N_list, a_list, Q, lam))


def transform_fn_call(work: Path, fn: str, N: int,
                      sample: list[int]) -> Call:
    out = work / f"{fn}.tds"
    return Call(["transform", "--fn", fn, "--N", str(N), "--out", str(out)],
                partial(oracles.check_transform_fn, out, fn, N, sample),
                tds_out=[out])


def exact_calls(work: Path, entries: dict[int, int], ks: tuple[int, ...],
                fns, sample: list[int]) -> list[Call]:
    """The exact-integer pass over a generated TDS file ``g.tds``."""
    g = work / "g.tds"
    oracles.write_tds(g, TDS_CUTOFF, entries)
    retruncated = work / "g_retruncated.tds"
    lucht, expansion = work / "lucht.json", work / "expansion.json"
    corr = work / "exact.csv"
    expected = {k: oracles.exact_correlation(entries, EXACT_N, k) for k in ks}
    return [
        *(transform_fn_call(work, fn, TRANSFORM_N, sample) for fn in fns),
        Call(["transform", "--in", str(g), "--N", str(RETRUNCATE_N),
              "--out", str(retruncated)],
             partial(oracles.check_retruncated, retruncated, RETRUNCATE_N,
                     entries),
             tds_in=[g], tds_out=[retruncated]),
        Call(["verify", "lucht", "--tds", str(g), "--out", str(lucht)],
             partial(oracles.check_verdict, lucht, "lucht"), tds_in=[g]),
        Call(["verify", "expansion", "--tds", str(g), "--out", str(expansion)],
             partial(oracles.check_verdict, expansion, "expansion"),
             tds_in=[g]),
        Call(["correlate", "--f", "mobius", "--g", str(g), "--N", str(EXACT_N),
              "--shifts", _shift_list(ks), "--out", str(corr)],
             partial(oracles.check_exact_profile, corr, expected,
                     oracles.odd_primorial(EXACT_N)),
             tds_in=[g]),
    ]


def huge_shift(seed: int, work: Path) -> list[Call]:
    return correlate_pair(work, HUGE_N, _two_shifts(random.Random(seed)))


def hl_ladder(seed: int, work: Path) -> list[Call]:
    rng = random.Random(seed)
    while True:
        a_list = sorted(rng.sample(SHIFT_RANGE, 3))
        if len({a % 2 for a in a_list}) == 2:
            return [hl_call(work, HL_N_LIST, a_list, HL_Q)]


def exact_tds(seed: int, work: Path) -> list[Call]:
    rng = random.Random(seed)
    pool = [d for d in range(1, TDS_CUTOFF + 1, 2) if oracles.mobius(d)]
    entries = {d: rng.choice([v for v in range(-9, 10) if v])
               for d in rng.sample(pool, TDS_ENTRIES)}
    ks = _two_shifts(rng)
    fns = rng.sample(TRANSFORM_FNS, len(TRANSFORM_FNS))
    sample = sorted({1, TRANSFORM_N,
                     *rng.sample(range(2, TRANSFORM_N), TRANSFORM_SAMPLE)})
    return exact_calls(work, entries, ks, fns, sample)


WORKLOADS = {"huge_shift": huge_shift, "hl_ladder": hl_ladder,
             "exact_tds": exact_tds}
