import json
import sys
from fractions import Fraction

import pytest

from ramcorr import verify
from ramcorr.cli import main
from ramcorr.arith_core import _text, agree, tolerance
from ramcorr.ramanujan import (RamanujanCoefficients, lucht_invert,
                               ramanujan_expand, wintner_coefficients)
from ramcorr.transforms import (evaluate_tds, lambda_tds, tds_from_et,
                                write_tds)
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
