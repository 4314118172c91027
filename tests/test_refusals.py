"""Refusals: each malformed request exits 2 (CLI) or raises ValueError
(library) with a message that locates the fault."""

import re
import tracemalloc

import pytest

from ramcorr import ramanujan
from ramcorr.arith_core import (EXACT, TabulatedFunction, divisors_int,
                                mobius_int, sieve_primes, tabulate)
from ramcorr.cli import main
from ramcorr.correlations import (CorrelationProfile, build_profile,
                                  correlate_direct, correlate_expansion,
                                  truncation_difference, verify_periodicity)
from ramcorr.hlmodels import artifact_identity_check
from ramcorr.ramanujan import (ramanujan_expand_range, ramanujan_sum_table,
                               universal_period, wintner_coefficients,
                               wintner_period)
from ramcorr.transforms import (eratosthenes_transform, evaluate_tds_range,
                                lambda_tds, odd_lift, retruncate, tds_from_et,
                                truncate)
from ramcorr.twoseasons import entangled_correlation
from reference_oracles import (half_range_identity_check,
                               small_shift_difference)

CORRELATE = ["correlate", "--f", "unit", "--g", "delta1"]
HL = ["hl", "--N-list", "100", "--a-list", "2", "--Q", "100"]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def no_config_env(monkeypatch):
    monkeypatch.delenv("RAMCORR_OUTPUT_FORMAT", raising=False)
    monkeypatch.delenv("RAMCORR_CONFIG", raising=False)


@pytest.mark.parametrize("argv, message", [
    pytest.param(["transform", "--fn", "unit", "--N", "0"],
                 "--N must be >= 1", id="transform-N-0"),
    pytest.param([*CORRELATE, "--N", "0", "--shifts", "1"],
                 "--N must be >= 1", id="correlate-N-0"),
    pytest.param([*CORRELATE, "--N", "9", "--shifts", "U+x"],
                 "bad shift token 'U+x'", id="shift-U+x"),
    pytest.param([*CORRELATE, "--N", "9", "--shifts", "1:x"],
                 "bad shift range '1:x'", id="shift-1:x"),
    pytest.param([*CORRELATE, "--N", "9", "--shifts", "2:1"],
                 "empty shift range '2:1'", id="shift-2:1"),
    pytest.param([*CORRELATE, "--N", "9", "--shifts", ","],
                 "no shifts given", id="shift-comma"),
    pytest.param(["correlate", "--f", "zeta", "--g", "delta1", "--N", "9",
                  "--shifts", "1"],
                 "unknown factor 'zeta'; known: identity, kappa,",
                 id="unknown-f"),
    pytest.param(["hl", "--N-list", "1,x", "--a-list", "2"],
                 "bad integer list for --N-list: '1,x'", id="N-list-1,x"),
    pytest.param(["hl", "--N-list", "2", "--a-list", "2"],
                 "need N >= 3 and a >= 1", id="N-list-2"),
    pytest.param(["hl", "--N-list", "100", "--a-list", ","],
                 "--a-list must be a non-empty integer list",
                 id="a-list-empty"),
])
def test_cli_refuses_with_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"ramcorr: error: {message}")


@pytest.mark.parametrize("argv", [
    pytest.param(["--format", "json", *HL], id="before-hl"),
    pytest.param([*HL, "--format", "csv"], id="after-hl"),
    pytest.param(["verify", "orthogonality", "--format", "json"],
                 id="verify"),
    pytest.param(["transform", "--fn", "unit", "--N", "3", "--format", "csv"],
                 id="transform"),
])
def test_format_flag_applies_only_to_correlate(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "ramcorr: error: --format applies only to correlate\n"


def test_output_format_config_stays_a_global_default(capsys, tmp_path,
                                                     monkeypatch,
                                                     no_config_env):
    code, plain, _ = run_cli(capsys, HL)
    assert code == 0 and plain.startswith("N,a,hl,")
    cfg = tmp_path / "json.cfg"
    cfg.write_text("output_format=json\n")
    assert run_cli(capsys, ["--config", str(cfg), *HL]) == (0, plain, "")
    monkeypatch.setenv("RAMCORR_OUTPUT_FORMAT", "json")
    assert run_cli(capsys, HL) == (0, plain, "")
    code, out, _ = run_cli(capsys, [*CORRELATE, "--N", "9", "--shifts", "1"])
    assert code == 0 and out.startswith("{")


# a bad config value exits 2 also when a flag or a later line overrides it
CSV_CORRELATE = [*CORRELATE, "--N", "5", "--shifts", "1", "--format", "csv"]


@pytest.mark.parametrize("text, argv, message", [
    pytest.param("output_format=xml\n", HL,
                 "{path}:1: unknown output format 'xml'",
                 id="output_format-xml"),
    pytest.param("# comment\nsieve_limit\n", HL,
                 "{path}:2: expected key=value", id="line-without-equals"),
    pytest.param("# comment\nsieve_limit = 12x\n", HL,
                 "{path}:2: bad config value: invalid literal for int() "
                 "with base 10: '12x'", id="sieve_limit-12x"),
    pytest.param("output_format=xml\n", CSV_CORRELATE,
                 "{path}:1: unknown output format 'xml'",
                 id="output_format-xml-under-format-flag"),
    pytest.param("sieve_limit=12x\n", ["--sieve-limit", "100", *HL],
                 "{path}:1: bad config value: invalid literal for int() "
                 "with base 10: '12x'", id="sieve_limit-12x-under-flag"),
    pytest.param("output_format=xml\noutput_format=csv\n", HL,
                 "{path}:1: unknown output format 'xml'",
                 id="output_format-xml-under-a-later-line"),
])
def test_bad_config_file_exits_2(capsys, tmp_path, no_config_env, text,
                                 argv, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    code, out, err = run_cli(capsys, ["--config", str(path), *argv])
    assert (code, out) == (2, "")
    assert message.format(path=path) in err


@pytest.mark.parametrize("var, value, argv, message", [
    pytest.param("RAMCORR_SIEVE_LIMIT", "abc", HL,
                 "bad config value: invalid literal for int() with base "
                 "10: 'abc'", id="sieve_limit-abc"),
    pytest.param("RAMCORR_OUTPUT_FORMAT", "xml", HL,
                 "unknown output format 'xml'", id="output_format-xml"),
    pytest.param("RAMCORR_OUTPUT_FORMAT", "xml", CSV_CORRELATE,
                 "unknown output format 'xml'",
                 id="output_format-xml-under-format-flag"),
    pytest.param("RAMCORR_SIEVE_LIMIT", "abc", ["--sieve-limit", "100", *HL],
                 "bad config value: invalid literal for int() with base "
                 "10: 'abc'", id="sieve_limit-abc-under-flag"),
])
def test_bad_config_variable_exits_2_naming_it(capsys, monkeypatch,
                                               no_config_env, var, value,
                                               argv, message):
    monkeypatch.setenv(var, value)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"ramcorr: error: {var}: {message}\n"


def test_correlate_checks_the_sieve_limit_before_it_builds_u(capsys,
                                                             monkeypatch):
    # a U+k token builds U by trial division up to N: a call past the cap
    # is refused before that
    def refuse(N):
        raise AssertionError(f"universal_period({N}) was called")
    monkeypatch.setattr(ramanujan, "universal_period", refuse)
    code, out, err = run_cli(capsys, [
        "correlate", "--f", "mobius", "--g", "delta1", "--N", "3000000",
        "--shifts", "U+1"])
    assert (code, out) == (2, "")
    assert err == ("ramcorr: error: request needs sieve limit 3000000, "
                   "configured cap is 2000000; raise sieve_limit\n")


@pytest.mark.parametrize("flags, shifts, token, cap", [
    pytest.param([], "1:1000000000000", "1:1000000000000", 2000000,
                 id="range-of-10**12"),
    pytest.param(["--sieve-limit", "6"], "1,2,3:7", "3:7", 6,
                 id="range-past-the-cap"),
    pytest.param(["--sieve-limit", "6"], "1:6,7", "7", 6,
                 id="token-past-the-cap"),
])
def test_shift_list_longer_than_the_cap_is_refused_unexpanded(
        capsys, flags, shifts, token, cap):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, [*flags, *CORRELATE, "--N", "5",
                                          "--shifts", shifts])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == (f"ramcorr: error: shift token {token!r} takes the list "
                   f"past {cap} shifts, the configured cap; raise "
                   "sieve_limit\n")
    assert peak < 16 << 20  # a list of 2e6 shift ints alone takes 80 MB


def test_shift_list_at_the_cap_runs(capsys):
    code, out, err = run_cli(capsys, ["--sieve-limit", "6", *CORRELATE,
                                      "--N", "5", "--shifts", "1,2:6"])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 7


F9 = tabulate("unit", 9)
F5 = tabulate("unit", 5)
G9 = tds_from_et({1: 1}, 9, EXACT)
TABLE = sieve_primes(200)
F10 = tabulate("unit", 10)
ID20 = tabulate("identity", 20)
SHIFT_0 = "shifts are naturals >= 1, got 0"
NOT_A_TDS = "g must be a TruncatedDivisorSum, got TabulatedFunction"
NATURAL_0 = "naturals start at 1, got 0"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: build_profile(F9, G9, 9, []),
                 "at least one shift is required", id="profile-no-shifts"),
    pytest.param(lambda: build_profile(F9, G9, 9, [1], method="fft"),
                 "unknown method 'fft'", id="profile-unknown-method"),
    pytest.param(lambda: CorrelationProfile(9, "f", "g",
                                            [(1, float("inf"))]),
                 "profile values must be finite", id="profile-infinite"),
    pytest.param(lambda: verify_periodicity(F9, G9, 9, 0, [1]),
                 "period must be >= 1, got 0", id="periodicity-period-0"),
    pytest.param(lambda: correlate_direct(F5, G9, 9, 1),
                 "f tabulated only to 5, need 9", id="direct-short-f"),
    pytest.param(lambda: correlate_expansion(F5, G9, 9, 1),
                 "f tabulated only to 5, need 9", id="expansion-short-f"),
    pytest.param(lambda: correlate_expansion(F9, G9, 9, 0), SHIFT_0,
                 id="expansion-a-0"),
    # a plain table is not a g' table: both routes refuse it by type
    pytest.param(lambda: correlate_expansion(F10, ID20, 10, 1), NOT_A_TDS,
                 id="expansion-plain-g"),
    pytest.param(lambda: build_profile(F10, ID20, 10, [1], method="expansion"),
                 NOT_A_TDS, id="profile-expansion-plain-g"),
    pytest.param(lambda: build_profile(F10, ID20, 10, [1], method="direct"),
                 NOT_A_TDS, id="profile-direct-plain-g"),
    pytest.param(lambda: truncation_difference(F9, tabulate("unit", 20),
                                               9, 0),
                 SHIFT_0, id="truncation-difference-a-0"),
    pytest.param(lambda: small_shift_difference(F9, tabulate("unit", 10),
                                                9, 2),
                 "g tabulated only to 10, need N+a=11",
                 id="small-shift-short-g"),
    pytest.param(lambda: small_shift_difference(F5, tabulate("lambda", 20,
                                                             TABLE), 10, 3),
                 "f tabulated only to 5, need 10", id="small-shift-short-f"),
    pytest.param(lambda: universal_period(0), NATURAL_0,
                 id="universal-period-0"),
    pytest.param(lambda: wintner_period(G9, 0), "Q must be >= 1, got 0",
                 id="wintner-period-Q-0"),
    pytest.param(lambda: half_range_identity_check(G9, 1),
                 "need N >= 2, got 1", id="half-range-N-1"),
    pytest.param(lambda: ramanujan_sum_table(0),
                 "modulus must be >= 1, got 0", id="sum-table-0"),
    pytest.param(lambda: ramanujan_expand_range(wintner_coefficients(G9), 0),
                 NATURAL_0, id="expand-range-0"),
    pytest.param(lambda: evaluate_tds_range(G9, 0), NATURAL_0,
                 id="evaluate-range-0"),
    pytest.param(lambda: odd_lift(3), "odd_lift expects a TDS",
                 id="odd-lift-int"),
    pytest.param(lambda: odd_lift(F9), "odd_lift expects a TDS",
                 id="odd-lift-plain-table"),
    pytest.param(lambda: eratosthenes_transform(F9, 10),
                 "tabulated only to 9, need 10", id="eratosthenes-past-limit"),
    pytest.param(lambda: lambda_tds(0), NATURAL_0, id="lambda-tds-0"),
    pytest.param(lambda: lambda_tds(-5), "naturals start at 1, got -5",
                 id="lambda-tds-negative"),
    pytest.param(lambda: eratosthenes_transform(F9, 0), NATURAL_0,
                 id="eratosthenes-0"),
    pytest.param(lambda: truncate(F9, 0), NATURAL_0, id="truncate-0"),
    pytest.param(lambda: truncate(F9, -3), "naturals start at 1, got -3",
                 id="truncate-negative"),
    pytest.param(lambda: retruncate(G9, -1), "naturals start at 1, got -1",
                 id="retruncate-negative"),
    pytest.param(lambda: retruncate(G9, 0), NATURAL_0, id="retruncate-0"),
    pytest.param(lambda: TabulatedFunction(3, EXACT, [0, 1, 2]),
                 "value table must have limit+1 entries", id="wrong-length"),
    pytest.param(lambda: TabulatedFunction(3, EXACT, [0, 0.5, 1, 2]),
                 "exact entry 1 is 0.5, not an int or a Fraction",
                 id="exact-float-entry"),
    pytest.param(lambda: TabulatedFunction.from_entries({4: 1}, 3, EXACT),
                 "support point 4 outside [1, 3]", id="from-entries-range"),
    pytest.param(lambda: F9.support_upto(10),
                 "tabulated only to 9, need 10", id="support-upto-past-limit"),
    pytest.param(lambda: mobius_int(0), NATURAL_0, id="mobius-int-0"),
    pytest.param(lambda: divisors_int(0), NATURAL_0, id="divisors-int-0"),
    pytest.param(lambda: artifact_identity_check(9, 0, TABLE), SHIFT_0,
                 id="artifact-identity-a-0"),
    pytest.param(lambda: entangled_correlation(F9, G9, 9, 0), SHIFT_0,
                 id="entangled-a-0"),
])
def test_library_refuses_with_a_located_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()
