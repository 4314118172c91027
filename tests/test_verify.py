import json
import sys
from fractions import Fraction

import numpy as np
import pytest

from ramcorr import verify
from ramcorr.cli import main
from ramcorr.arith_core import _text, agree, tolerance
from ramcorr.ramanujan import (RamanujanCoefficients, lucht_invert,
                               ramanujan_expand, wintner_coefficients)
from ramcorr.transforms import (TruncatedDivisorSum, evaluate_tds,
                                lambda_tds, tds_from_et, write_tds)
from ramcorr.verify import SUITES, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    verdict = run_suite(name, seed=0)
    assert verdict["suite"] == name
    assert verdict["pass"] is True, verdict["failures"][:3]
    assert verdict["checks"] > 0


def test_suites_are_seed_stable():
    a = run_suite("periods", seed=7)
    b = run_suite("periods", seed=7)
    assert a == b


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_pair_flags_only_for_expansion_and_lucht():
    g = tds_from_et({2: 1}, 4, "ExactInt")
    with pytest.raises(ValueError):
        run_suite("periods", tds=g)


def test_expansion_coefficients_without_a_tds_rejected():
    g = tds_from_et({2: 3, 6: -2}, 8, "ExactInt")
    with pytest.raises(ValueError, match="--coeffs needs --tds"):
        run_suite("expansion", coeffs=wintner_coefficients(g))


def test_corrupted_pair_fails_with_location():
    g = tds_from_et({2: 3, 7: 1}, 8, "ExactInt")
    wrong = tds_from_et({2: 3, 7: 4}, 8, "ExactInt")
    verdict = run_suite("expansion", tds=g,
                        coeffs=wintner_coefficients(wrong))
    assert verdict["pass"] is False
    assert verdict["failures"][0]["check"] == "coefficient"


@pytest.mark.parametrize("with_coeffs", [False, True])
def test_stored_expansion_derives_the_coefficients_once(monkeypatch,
                                                        with_coeffs):
    g = tds_from_et({2: 3, 7: 1}, 8, "ExactInt")
    coeffs = wintner_coefficients(g) if with_coeffs else None
    calls = []

    def counted(t):
        calls.append(t)
        return wintner_coefficients(t)

    monkeypatch.setattr(verify, "wintner_coefficients", counted)
    verdict = run_suite("expansion", tds=g, coeffs=coeffs)
    assert verdict == {"suite": "expansion", "pass": True, "checks": 1,
                       "failures": []}
    assert calls == [g]


def test_lucht_roundtrip_mode_with_coefficients_only():
    g = tds_from_et({2: 3, 6: -2}, 8, "ExactInt")
    verdict = run_suite("lucht", coeffs=wintner_coefficients(g))
    assert verdict["pass"] is True


def per_a_pair_failures(g, coeffs, a_max=500):
    """The pair check with the expansion compared one shift at a time
    (scalar expansion against scalar divisor sum), as a test oracle."""
    failures = []
    derived = wintner_coefficients(g)
    top = max(coeffs.limit, derived.limit)
    wants, gots = verify._entries(derived, top), verify._entries(coeffs, top)
    for q in range(1, top + 1):
        if not agree(gots[q], wants[q], tolerance(g)):
            failures.append({"check": "coefficient", "q": q,
                             "got": str(gots[q]), "expected": str(wants[q])})
            if len(failures) >= 5:
                return failures
    for a in range(1, a_max + 1):
        lhs, rhs = ramanujan_expand(coeffs, a), evaluate_tds(g, a)
        if not agree(lhs, rhs, tolerance(g)):
            failures.append({"check": "expansion", "a": a,
                             "got": str(lhs), "expected": str(rhs)})
            if len(failures) >= 5:
                return failures
    return failures


def _with_entry(coeffs, q, delta):
    values = coeffs.values.copy()
    values[q] += delta
    return RamanujanCoefficients(coeffs.limit, coeffs.kind, values)


def pair_cases():
    g = tds_from_et({3: 2, 15: -1, 35: 4, 105: 1, 400: 7}, 700, "ExactInt")
    c = wintner_coefficients(g)
    lam = lambda_tds(60)
    c_lam = wintner_coefficients(lam)
    many_wrong = c
    for q in (2, 3, 5, 7, 11, 13):
        many_wrong = _with_entry(many_wrong, q, Fraction(1, q))
    return {
        "clean exact": (g, c),
        "clean real": (lam, c_lam),
        # one coefficient off: one coefficient record, then four shifts
        "one exact coefficient": (g, _with_entry(c, 600, Fraction(1, 3))),
        "six exact coefficients": (g, many_wrong),
        # below the coefficient tolerance, above it once multiplied by c_60(a)
        "real coefficient drift": (lam, _with_entry(c_lam, 60, 2e-10)),
    }


@pytest.mark.parametrize("case", sorted(pair_cases()))
def test_pair_failure_records_match_the_per_shift_route(case):
    g, coeffs = pair_cases()[case]
    got = run_suite("expansion", tds=g, coeffs=coeffs)["failures"]
    assert got == per_a_pair_failures(g, coeffs)
    assert (got == []) == case.startswith("clean")


# g'(d) = 1 for d <= 1600: ghat(1) is the harmonic number H_1600, whose
# numerator and denominator pass 640 digits; every other ghat(q) has
# fewer than 400
DENSE = tds_from_et(dict.fromkeys(range(1, 1601), 1), 1600, "ExactInt")


def _digit_text(v):
    return (f"<{len(str(abs(v.numerator)))}-digit numerator, "
            f"{len(str(v.denominator))}-digit denominator>")


@pytest.fixture()
def digit_limit_640():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


class TestRecordsPastTheDigitLimit:
    """A failure record names a value past Python's int-to-str limit by
    its digit counts, so the suite still returns its verdict."""

    def test_expansion_pair_exits_1_with_the_located_record(
            self, tmp_path, capsys, request):
        c = wintner_coefficients(DENSE)
        want = _digit_text(c[1])
        bad = c.values.copy()
        bad[1] = 1
        tds, coeffs = tmp_path / "dense.tds", tmp_path / "bad.coeffs"
        with open(tds, "w") as fh:
            write_tds(DENSE, fh)
        with open(coeffs, "w") as fh:
            write_tds(RamanujanCoefficients(1600, "ExactInt", bad), fh)
        request.getfixturevalue("digit_limit_640")
        code = main(["verify", "expansion", "--tds", str(tds),
                     "--coeffs", str(coeffs)])
        assert code == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["failures"][0] == {
            "check": "coefficient", "q": 1, "got": "1", "expected": want}
        assert [r["check"] for r in verdict["failures"]] == (
            ["coefficient"] + ["expansion"] * 4)
        assert all(r["got"].endswith("-digit denominator>")
                   for r in verdict["failures"][1:])

    def test_lucht_roundtrip_record(self, monkeypatch, request):
        c = wintner_coefficients(DENSE)
        want = _digit_text(c[1])
        got = _digit_text(c[1] + 1)

        def off_at_1(t):
            values = wintner_coefficients(t).values.copy()
            values[1] += 1
            return RamanujanCoefficients(t.limit, t.kind, values)

        monkeypatch.setattr(verify, "wintner_coefficients", off_at_1)
        request.getfixturevalue("digit_limit_640")
        verdict = run_suite("lucht", coeffs=c)
        assert verdict["failures"] == [{"check": "lucht-roundtrip", "q": 1,
                                        "got": got, "expected": want}]

    def test_lucht_refusal_names_d(self, request):
        # with ghat(1) = 0, g'(1) = -sum over K >= 2 of mu(K) ghat(K) is
        # not integral, and its denominator passes 640 digits
        values = wintner_coefficients(DENSE).values.copy()
        values[1] = 0
        c = RamanujanCoefficients(1600, "ExactInt", values)
        request.getfixturevalue("digit_limit_640")
        with pytest.raises(ValueError) as refusal:
            lucht_invert(c)
        [record] = run_suite("lucht", coeffs=c)["failures"]
        assert record == {"check": "lucht-invert", "error": str(refusal.value)}
        assert record["error"].startswith(
            "inversion produced non-integer g'(1) = <")
        assert "-digit numerator" in record["error"]

    @pytest.mark.parametrize("v", [
        10 ** 640 - 1, 10 ** 640, -(10 ** 700) - 3, Fraction(1, 10 ** 640),
        Fraction(10 ** 639, 10 ** 641 + 1), Fraction(-(10 ** 900), 99)],
        ids=["10**640-1", "10**640", "-(10**700)-3", "1/10**640",
             "10**639/(10**641+1)", "-(10**900)/99"])
    def test_value_text(self, v, request):
        want = str(v)
        if len(str(abs(v.numerator))) > 640 or len(str(v.denominator)) > 640:
            want = _digit_text(v)
        request.getfixturevalue("digit_limit_640")
        assert _text(v) == want


def per_entry_compare(led, check, key, gots, wants, bound, n=1, **where):
    """``verify._compare`` one entry at a time, as a test oracle: n checks
    counted per entry, a record per disagreeing entry, and the record
    that brings the verdict to CAP ends the suite."""
    for i in range(1, len(wants)):
        led.checks += n
        if not agree(gots[i], wants[i], bound):
            led.failures.append({"check": check, **where, key: i,
                                 "got": _text(gots[i]),
                                 "expected": _text(wants[i])})
            if len(led.failures) >= verify.CAP:
                raise verify._Capped


def _outcome(compare, gots, wants, bound, n, earlier):
    led = verify._Ledger("t")
    led.failures = [{"check": "earlier"}] * earlier
    try:
        compare(led, "c", "i", gots, wants, bound, n, tds=3)
        capped = False
    except verify._Capped:
        capped = True
    return led.checks, led.failures, capped


NAN = float("nan")
COMPARE_CASES = {
    "fractions": ([0, Fraction(1, 2), Fraction(-7, 3), 4, Fraction(5, 9)],
                  [0, Fraction(1, 2), Fraction(-7, 4), 4, 5], 0),
    "ints past int64": ([0, 2 ** 70, -(2 ** 65), 2 ** 63, 5, 10 ** 30],
                        [0, 2 ** 70, -(2 ** 65) + 1, 2 ** 63 - 1, 5,
                         10 ** 30 + 1], 0),
    "uint64 against int64": ([0, 2 ** 63, 1], [0, 2 ** 63 - 1, 1], 0),
    "floats, bound 0": ([0.0, NAN, 1.0, 2.0, 0.1 + 0.2],
                        [0.0, NAN, 1.0, 2.5, 0.3], 0),
    "floats, bound > 0": ([0.0, NAN, 1.0, 2.0, 0.1 + 0.2, 7.0, NAN],
                          [0.0, NAN, 1.0 + 1e-12, 2.5, 0.3, NAN, 7.0], 1e-9),
    "all disagree": ([0] + list(range(1, 12)), [0] + list(range(2, 13)), 0),
    "all agree": ([0] + list(range(1, 12)), [0] + list(range(1, 12)), 0),
}


# NumPy warns when it orders a NaN held in an object array (a float list)
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("as_array", [False, True], ids=["lists", "arrays"])
@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("earlier", [0, 3, 5])
@pytest.mark.parametrize("case", sorted(COMPARE_CASES))
def test_compare_matches_the_per_entry_loop(case, earlier, n, as_array):
    gots, wants, bound = COMPARE_CASES[case]
    want = _outcome(per_entry_compare, gots, wants, bound, n, earlier)
    if as_array:  # the exact values as Python objects, as tables hold them
        kind = float if isinstance(wants[-1], float) else object
        gots, wants = np.array(gots, kind), np.array(wants, kind)
    got = _outcome(verify._compare, gots, wants, bound, n, earlier)
    assert got == want
    assert all(isinstance(r[k], str) for r in got[1][earlier:]
               for k in ("got", "expected"))


class TestSeededRecords:
    """A fault in one route of a seeded suite gives stored-pair records:
    the table (or d), the entry and both values as text; CAP records end
    the suite with the checks counted up to the entry that brought it."""

    def test_expansion_records_stop_at_cap(self, monkeypatch):
        real, seen = verify.ramanujan_expand_range, []

        def off_at_7(coeffs, a_max):
            values = list(real(coeffs, a_max))
            seen.append(values[7])
            values[7] += 1
            return values

        monkeypatch.setattr(verify, "ramanujan_expand_range", off_at_7)
        verdict = run_suite("expansion", seed=0)
        assert verdict["pass"] is False
        assert verdict["failures"] == [
            {"check": "expansion", "tds": i, "a": 7, "got": str(v + 1),
             "expected": str(v)} for i, v in enumerate(seen)]
        assert len(seen) == verify.CAP
        # four tables of 2000 shifts and 5 huge ones, then 7 shifts
        assert verdict["checks"] == 4 * 2005 + 7

    def test_expansion_big_records_stop_at_cap(self, monkeypatch):
        # the huge shifts: each record gives the shift and both values
        real, seen = verify.ramanujan_expand, []

        def off_by_one(coeffs, a):
            v = real(coeffs, a)
            seen.append((a, v))
            return v + 1

        monkeypatch.setattr(verify, "ramanujan_expand", off_by_one)
        verdict = run_suite("expansion", seed=0)
        assert verdict["failures"] == [
            {"check": "expansion-big", "tds": 0, "a": a, "got": str(v + 1),
             "expected": str(v)} for a, v in seen]
        assert len(seen) == verify.CAP
        # the first table's 2000 shifts, then its five huge ones
        assert verdict["checks"] == 2000 + verify.CAP

    def test_expansion_real_record(self, monkeypatch):
        real = verify.ramanujan_expand_range

        def real_off_at_11(coeffs, a_max):
            values = real(coeffs, a_max)
            if not coeffs.is_exact:
                values[11] += 1e-6
            return values

        monkeypatch.setattr(verify, "ramanujan_expand_range", real_off_at_11)
        verdict = run_suite("expansion", seed=0)
        g = lambda_tds(50)
        got = real(wintner_coefficients(g), 2000)[11] + 1e-6
        [record] = verdict["failures"]
        assert record == {"check": "expansion", "tds": 15, "a": 11,
                          "got": str(float(got)),
                          "expected": str(evaluate_tds(g, 11))}
        assert verdict["checks"] == 32075

    def test_lucht_records_stop_at_cap(self, monkeypatch):
        real, seen = verify.lucht_invert, []

        def off_at_3(coeffs):
            back = real(coeffs)
            values = back.values.copy()
            seen.append((coeffs.limit, values[3]))
            values[3] += 1
            return TruncatedDivisorSum(back.limit, back.kind, values)

        monkeypatch.setattr(verify, "lucht_invert", off_at_3)
        verdict = run_suite("lucht", seed=0)
        assert verdict["failures"] == [
            {"check": "lucht", "tds": i, "d": 3, "got": str(v + 1),
             "expected": str(v)} for i, (_, v) in enumerate(seen)]
        assert len(seen) == verify.CAP
        assert verdict["checks"] == sum(D for D, _ in seen[:-1]) + 3

    def test_lucht_real_record(self, monkeypatch):
        real = verify.lucht_invert

        def real_off_at_7(coeffs):
            back = real(coeffs)
            if not coeffs.is_exact:
                back.values[7] += 1e-6
            return back

        monkeypatch.setattr(verify, "lucht_invert", real_off_at_7)
        verdict = run_suite("lucht", seed=0)
        g = lambda_tds(60)
        got = real(wintner_coefficients(g)).values[7] + 1e-6
        assert verdict["failures"] == [
            {"check": "lucht", "tds": 25, "d": 7, "got": str(float(got)),
             "expected": str(float(g.values[7]))}]
        assert verdict["checks"] == 1896

    def test_lucht_refusal_names_its_table(self, monkeypatch):
        def refuse(coeffs):
            raise ValueError("inversion produced non-integer g'(1) = 1/2")

        monkeypatch.setattr(verify, "lucht_invert", refuse)
        verdict = run_suite("lucht", seed=0)
        assert verdict["failures"] == [
            {"check": "lucht-invert", "tds": i,
             "error": "inversion produced non-integer g'(1) = 1/2"}
            for i in range(26)]
        assert verdict["checks"] == 26

    def test_orthogonality_records_stop_at_cap(self, monkeypatch):
        real = verify.ramanujan_sum_table

        def c6_off_at_1(q):
            values = list(real(q))
            if q == 6:
                values[1] += 1
            return values

        monkeypatch.setattr(verify, "ramanujan_sum_table", c6_off_at_1)
        verdict = run_suite("orthogonality", seed=0)
        # d = 6 is the first d with 6 | d; sum over q | 6 of c_q(a) is
        # 0 at a = 1 mod 6, and the fault makes it 1
        assert verdict["failures"] == [
            {"check": "orthogonality", "d": 6, "a": a, "got": "1",
             "expected": "0"} for a in (1, 7, 13, 19, 25)]
        assert verdict["checks"] == 5 * 1000 + 25
