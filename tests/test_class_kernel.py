"""The batched residue-class kernel against its per-modulus oracles.

``correlations._class_values`` sums the classes of a shift one block per
class length (``_class_sums``), reduces a huge shift down one product tree per call
(``arith_core._Residues``) and reads the expansion route's divisor forms
from one sieve sweep (``ramanujan._divisor_forms``).  Each part is
compared here with the loop it replaced: one reduction and one strided
slice-sum per modulus (``reference_oracles.class_sum``), ``a % d`` per
modulus, and ``_divisor_form`` per q.  Values must agree in Python type
and, for floats, in every bit (``float.hex``).
"""

import io
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcorr.arith_core import (EXACT, REAL, TabulatedFunction, _Residues,
                                collapse, sieve_primes, tabulate)
from ramcorr.correlations import _class_values, build_profile, profile_to_csv
from ramcorr.hlmodels import artifact_pair
from ramcorr.ramanujan import (_divisor_form, _divisor_forms,
                               universal_period, wintner_coefficients)
from ramcorr.transforms import TruncatedDivisorSum, lambda_tds, truncate
from reference_oracles import class_sum, support_pairs


def loop_class_values(f, g, N, shifts, method):
    """The kernel as a loop: per shift, one class sum per modulus, then
    the terms in ascending order and each form's pairs in ascending e,
    every sum started from the int 0."""
    fvals = f.values[: N + 1]
    if method == "direct":
        terms = [(gd, ((d, 1),)) for d, gd in support_pairs(g)]
    else:
        terms = [(ghat, _divisor_form(q))
                 for q, ghat in support_pairs(wintner_coefficients(g))]
    values = []
    for a in shifts:
        total = 0
        for coeff, form in terms:
            inner = 0
            for e, w in form:
                inner += w * class_sum(fvals, a, e)
            total += coeff * inner
        values.append(collapse(total, f, g))
    return values


def same_bits(got, want):
    assert type(got) is type(want), (got, want)
    if isinstance(want, float):
        assert got.hex() == want.hex(), (got, want)
    else:
        assert got == want


# ----------------------------------------------------------------------
# the kernel, bit for bit
# ----------------------------------------------------------------------

# numpy sums a slice of up to 8 terms in one running sum and of up to
# 128 in eight, so the class lengths 7-9 and 128-130 sit on its edges
EDGE_LENGTHS = [1, 2, 7, 8, 9, 128, 129, 130, 257]
EDGE_SHIFTS = [2 ** 62 - 1, 2 ** 62, 2 ** 62 + 1, 2 ** 64 + 1]

REAL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.5, 1e-300, 3.0e17]),
    st.floats(-50.0, 50.0, allow_nan=False, width=64))
EXACT_VALUES = st.one_of(
    st.integers(-9, 9), st.integers(-10 ** 30, 10 ** 30),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)))


@st.composite
def pairs(draw):
    """(f, g, N, shifts): f on [1..N], a sparse g' on [1..D] with D up
    to N + 40 (so some classes are empty), the shifts drawn small, near
    2**62, past it, and as U + k."""
    N = draw(st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(1, 300)))
    fkind, gkind = draw(st.sampled_from(
        [(REAL, REAL), (EXACT, EXACT), (REAL, EXACT), (EXACT, REAL)]))
    f_values = EXACT_VALUES if fkind == EXACT else REAL_VALUES
    g_values = EXACT_VALUES if gkind == EXACT else REAL_VALUES
    f = [0] + draw(st.lists(f_values, min_size=N, max_size=N))
    D = draw(st.integers(1, N + 40))
    support = draw(st.lists(st.integers(1, D), max_size=12, unique=True))
    if draw(st.booleans()):
        support.append(1)  # modulus 1: one class holding all of f
    g = [0] * (D + 1)
    for d in support:
        g[d] = draw(g_values)
    if gkind == EXACT:
        g = [int(v) for v in g]  # g' of an exact TDS holds ints
    U = universal_period(N)
    shifts = draw(st.lists(st.one_of(
        st.integers(1, 3 * N + 5), st.sampled_from(EDGE_SHIFTS),
        st.integers(1, 64).map(lambda k: U + k),
        st.integers(2 ** 62, 2 ** 400)), min_size=1, max_size=5))
    return (TabulatedFunction(N, fkind, f),
            TruncatedDivisorSum(D, gkind, g), N, shifts)


@pytest.mark.parametrize("method", ["direct", "expansion"])
@given(pair=pairs())
@settings(max_examples=120, deadline=None)
def test_kernel_is_the_per_modulus_loop_to_the_bit(method, pair):
    f, g, N, shifts = pair
    got = _class_values(f, g, N, shifts, method)
    want = loop_class_values(f, g, N, shifts, method)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        same_bits(x, y)


@pytest.mark.parametrize("method", ["direct", "expansion"])
@pytest.mark.parametrize("N", EDGE_LENGTHS)
def test_class_lengths_on_the_pairwise_edges(method, N):
    # modulus 1 holds all N members, modulus 2 about N/2, and moduli
    # past N hold one member or none; f's magnitudes differ, so a change
    # in the order of the additions moves the last bit
    rng = random.Random(N)
    f = TabulatedFunction(N, REAL, [0.0] + [
        rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(N)])
    D = N + 5
    g = [0.0] * (D + 1)
    for d in (1, 2, 3, N // 2 + 1, N, N + 1, N + 5):
        g[d] = rng.uniform(-2, 2)
    g = TruncatedDivisorSum(D, REAL, g)
    U = universal_period(N)
    shifts = [1, 2, N, *EDGE_SHIFTS, U + 1, U + 2]
    for got, want in zip(_class_values(f, g, N, shifts, method),
                         loop_class_values(f, g, N, shifts, method)):
        same_bits(got, want)


@pytest.mark.parametrize("method", ["direct", "expansion"])
def test_a_zero_value_prints_as_0_not_minus_0(method):
    # f sums to 0.0 on every class mod 1 and mod 2, so with negative
    # coefficients each term is -0.0: the total starts from 0 and stays
    # +0.0, as the loop's does
    N = 6
    f = TabulatedFunction(N, REAL, [0.0, 1.5, 2.5, -1.5, -2.5, -0.0, 0.0])
    g = TruncatedDivisorSum(2, REAL, [0.0, -2.0, -3.0])
    U = universal_period(N)
    shifts = [2, 4, U + 2]
    prof = build_profile(f, g, N, shifts, method=method)
    for (_, v), want in zip(prof.entries,
                            loop_class_values(f, g, N, shifts, method)):
        same_bits(v, want)
        assert v == 0.0 and math.copysign(1.0, v) == 1.0
    buf = io.StringIO()
    profile_to_csv(prof, buf)
    assert buf.getvalue() == f"a,value\n2,0\n4,0\n{U + 2},0\n"


@pytest.mark.parametrize("method", ["direct", "expansion"])
def test_exact_pair_with_fraction_values_keeps_its_types(method):
    rng = random.Random(7)
    N = 40
    f = TabulatedFunction(N, EXACT, [0] + [
        Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(N)])
    g = TruncatedDivisorSum(30, EXACT, [0] + [
        rng.choice([0, 0, 1, -2, 5]) for _ in range(30)])
    shifts = [1, 3, 2 ** 62 + 1, universal_period(N) + 5]
    got = _class_values(f, g, N, shifts, method)
    for x, y in zip(got, loop_class_values(f, g, N, shifts, method)):
        same_bits(x, y)
    assert {type(v) for v in got} <= {int, Fraction}


def test_zero_table_gives_zero_of_its_kind():
    f = TabulatedFunction(5, REAL, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    for kind, zero in ((REAL, 0.0), (EXACT, 0)):
        g = TruncatedDivisorSum(4, kind, [0] * 5)
        for method in ("direct", "expansion"):
            got = _class_values(f, g, 5, [1, 2 ** 70], method)
            assert got == [0.0, 0.0]  # a Real f makes the values floats
            ef = TabulatedFunction(5, EXACT, [0, 1, 2, 3, 4, 5])
            got = _class_values(ef, g, 5, [1, 2 ** 70], method)
            for v in got:
                same_bits(v, zero)


@pytest.mark.parametrize("method", ["direct", "expansion"])
@pytest.mark.parametrize("g_kind", [EXACT, REAL])
def test_an_int64_stored_f_keeps_its_store(method, g_kind):
    # the kernel reads f's first N + 1 entries only: f's int64 store is
    # not turned into the object array of all its limit + 1 entries, and
    # the values are those of the twin whose object array was read
    N, D = 2000, 2500
    f, twin = tabulate("mobius", 3 * N), tabulate("mobius", 3 * N)
    twin.values
    g = (truncate(tabulate("odd_primes", D), D) if g_kind == EXACT
         else lambda_tds(D))
    shifts = [1, 2, 7, universal_period(N) + 1]
    got = build_profile(f, g, N, shifts, method=method)
    assert f._store is not None and f._values is None
    want = build_profile(twin, g, N, shifts, method=method)
    assert [a for a, _ in got.entries] == [a for a, _ in want.entries]
    for (_, x), (_, y) in zip(got.entries, want.entries):
        same_bits(x, y)


@pytest.fixture(scope="module")
def table_100k():
    return sieve_primes(100_000)


@pytest.mark.parametrize("method, bound_mb", [("direct", 12),
                                              ("expansion", 23)])
def test_traced_peak_of_the_artifact_profile(table_100k, method, bound_mb):
    # the pair is built beforehand.  Held as a list of (n, value) tuples,
    # one support of these tables took 4.6 MB (about 0.65 MB as int64
    # points and their values), and the peaks were 14.8 MB direct and
    # 28.4 MB expansion (two supports: g' and ghat); with the arrays they
    # are 9.6 and 19.4 MB (CPython 3.11, numpy 2.4)
    N = 100_000
    f, g = artifact_pair(N, table_100k)
    U = universal_period(N, table_100k)
    tracemalloc.start()
    try:
        build_profile(f, g, N, [1, U + 1], method=method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 10 ** 6


def test_traced_peak_of_the_direct_route_on_an_exact_pair():
    # 141,484 points in supp g'.  The direct route's forms are the pairs
    # (d, 1), so it builds none of the expansion route's form arrays (an
    # object array of ones, the lengths, the run columns, the identity
    # map into the moduli); with them the call peaked at 27.0 MB, without
    # them at 15.4 MB (CPython 3.11, numpy 2.4)
    N = 200_000
    table = sieve_primes(N)
    f = tabulate("mobius", N, table)
    g = truncate(tabulate("odd_primes", N, table), N, table)
    assert len(g.support()) == 141_484
    tracemalloc.start()
    try:
        profile = build_profile(f, g, N, [1, 2], table=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile.entries == [(1, -42), (2, 42)]
    assert peak <= 20 * 10 ** 6


# ----------------------------------------------------------------------
# residues down the product tree
# ----------------------------------------------------------------------

def ascending_moduli(rng, n, top_bits):
    """n distinct ascending moduli below 2**top_bits, the largest of
    top_bits bits, so that it sets the leaf size."""
    top = 2 ** top_bits - 1
    picks = {top, *(rng.randint(1, top) for _ in range(4 * n))}
    return np.array(sorted(picks)[-n:], dtype=np.int64)


# leaves of 31, 4, 2, 2 and 1 moduli; counts around the leaf boundaries
@pytest.mark.parametrize("top_bits", [2, 13, 21, 31, 61])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 33, 100])
def test_tree_residues_are_the_remainders(top_bits, n):
    rng = random.Random(top_bits * 1000 + n)
    moduli = ascending_moduli(rng, min(n, 2 ** top_bits - 1), top_bits)
    residues = _Residues(moduli)
    # one instance for every shift: the tree grows with the largest
    # shift so far and serves the smaller ones after it
    for bits in (1, 40, 62, 63, 64, 65, 100, 7086, 300_000, 62, 1000):
        for a in (2 ** bits - 1, 2 ** bits, 2 ** bits + 1,
                  rng.getrandbits(bits)):
            got = residues(a)
            assert got.dtype == np.int64
            assert got.tolist() == [a % d for d in moduli.tolist()], (
                bits, a % 1000)


def test_tree_residues_of_the_odd_primorial_shifts(table_2k):
    N = 2000
    moduli = table_2k.primes[1:]
    residues = _Residues(moduli)
    U = universal_period(N, table_2k)
    for a in (U + 1, U + 2, 2 * U + 3, U * U + 7):
        assert residues(a).tolist() == [a % p for p in moduli.tolist()]


def test_no_moduli_give_no_residues():
    empty = np.zeros(0, dtype=np.int64)
    for a in (1, 2 ** 62, 2 ** 300):
        assert _Residues(empty)(a).tolist() == []


# ----------------------------------------------------------------------
# divisor forms from the sieve
# ----------------------------------------------------------------------

def forms_by_q(qs, mu):
    e, w, lengths = _divisor_forms(np.array(qs, dtype=np.int64), mu)
    assert e.dtype == w.dtype == lengths.dtype == np.int64
    assert lengths.sum() == len(e) == len(w)
    ends = np.cumsum(lengths).tolist()
    starts = [0, *ends[:-1]]
    return {q: tuple(zip(e[s:t].tolist(), w[s:t].tolist()))
            for q, s, t in zip(qs, starts, ends)}


def test_sieve_forms_are_the_divisor_forms_up_to_3000():
    mu = sieve_primes(3000).mobius_values
    forms = forms_by_q(list(range(1, 3001)), mu)
    for q, form in forms.items():
        assert form == _divisor_form(q), q


@pytest.mark.parametrize("seed", range(6))
def test_sieve_forms_of_sparse_q_lists(seed):
    rng = random.Random(seed)
    D = rng.choice([1, 2, 97, 510, 2310, 30030])
    mu = sieve_primes(max(2 * D, 2)).mobius_values  # a sieve past max q
    qs = sorted(rng.sample(range(1, D + 1), min(D, rng.randint(1, 40))))
    if D > 1:
        qs = sorted({*qs, D})
    forms = forms_by_q(qs, mu)
    assert list(forms) == qs
    for q in qs:
        assert forms[q] == _divisor_form(q), q


def test_sieve_forms_of_no_q():
    mu = sieve_primes(10).mobius_values
    assert [a.tolist() for a in _divisor_forms(
        np.zeros(0, dtype=np.int64), mu)] == [[], [], []]
