import hashlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from ramcorr.cli import main
from ramcorr.ramanujan import universal_period

DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTransform:
    def test_unit(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--fn", "unit", "--N", "5")
        assert code == 0
        assert out == "cutoff=5 kind=ExactInt\n1\t1\n"

    def test_lambda_values(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--fn", "lambda",
                               "--N", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "cutoff=10 kind=Real"
        entries = dict(line.split("\t") for line in lines[1:])
        assert float(entries["2"]) == pytest.approx(0.6931471805599453)
        assert float(entries["6"]) == pytest.approx(-1.791759469228055)
        assert "4" not in entries  # mu(4) = 0

    def test_unknown_function(self, capsys):
        code, _, err = run_cli(capsys, "transform", "--fn", "zeta", "--N", "5")
        assert code == 2
        assert "unknown function" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.tds"
        path.write_text("cutoff=banana kind=Real\n")
        code, _, err = run_cli(capsys, "transform", "--in", str(path),
                               "--N", "5")
        assert code == 2
        assert "cannot load" in err

    def test_retruncate_file(self, capsys, tmp_path):
        path = tmp_path / "g.tds"
        path.write_text("cutoff=20 kind=ExactInt\n3\t4\n15\t1\n")
        code, out, _ = run_cli(capsys, "transform", "--in", str(path),
                               "--N", "10")
        assert code == 0
        assert out == "cutoff=10 kind=ExactInt\n3\t4\n"

    @pytest.mark.parametrize("N", ["3000000", "1000000000000"])
    def test_retruncate_refuses_a_cutoff_above_the_cap(self, capsys,
                                                       tmp_path, N):
        # a cutoff above sieve_limit would write a file read_tds refuses
        path, out = tmp_path / "g.tds", tmp_path / "out.tds"
        path.write_text("cutoff=20 kind=ExactInt\n3\t4\n")
        code, _, err = run_cli(capsys, "transform", "--in", str(path),
                               "--N", N, "--out", str(out))
        assert code == 2
        assert f"needs sieve limit {N}" in err and "cap is 2000000" in err
        assert not out.exists()

    # sha256 of the text each name gave before the int64 store and the
    # block writer: the exact transform path is pinned byte for byte
    TRANSFORM_SHA256 = {
        "phi": "18b53754c7b82fe30b5fa91ce5d31890"
               "5150284622487c14d877c30557a39c3a",
        "kappa": "75a6bf12e3edc1ca3e5f37d0cfd21c1b"
                 "8abcb47dd40aa111e102a1d2bbcf88fe",
        "mobius": "028e0ce562acf8abb982ec896be2a7c5"
                  "a3e73b4f5a2afb9a98f70007ef57475b",
        "mu_squared": "1f46a838df3eef42ef80fc7220c9f530"
                      "7ecf556a43ff1068f17f783824258819",
        "unit": "10ba54944d4641eb096103109b85f589"
                "36886988add592f590acaaddc82012b2",
        "identity": "04cce70338bb318f3d33c85f4dc88782"
                    "d0be78d6b841dd3f4fab1fb19c92710e",
        "odd": "ce2bbace838d70f6b88953d2ca8323d0"
               "e865ec6958b0aa713631a8926ce115c3",
        "primes": "f95a2a35b9da369fa72832cb45fb23a1"
                  "982e3e4143831a3a9a2c276f601c707c",
        "odd_primes": "bcdee9ef6e8f01c5f7bc9530678b37c8"
                      "47a84b89944771df00a9df1d28a7ae47",
        "squares": "92f0956ace9aa0d2bf64249fe931a8e9"
                   "42de90e669acc1c1f7282830f49958e4",
        "lambda": "4db6766384a343441d1efc70503ce457"
                  "b9bf19a4271a5f71ecc9aa0dc8830ea2",
        "odd_primes_log": "42dfc1a5a336b128076f1efa5057ae31"
                          "c2c935597bbf07e6f59955fd7f9304b5",
    }
    # The Real files carry np.log's bytes, and numpy's AVX-512 log and
    # libm's differ in the last bit at a few of these points; their
    # digests hold where np.log(1..200000) hashes to LOG_SHA256.
    LOG_SHA256 = ("8d6194cdaa48ca42e1d86ecb1b5d110a"
                  "5c8f4ff5a3c634f4961a34ec41d1b060")

    @pytest.mark.parametrize("name", sorted(TRANSFORM_SHA256))
    def test_exact_transform_bytes_at_two_hundred_thousand(self, tmp_path,
                                                           name):
        if name in ("lambda", "odd_primes_log"):
            import numpy as np
            logs = np.log(np.arange(1, 200_001, dtype=np.float64))
            if hashlib.sha256(logs.tobytes()).hexdigest() != self.LOG_SHA256:
                pytest.skip("np.log rounds differently on this host")
        out = tmp_path / f"{name}.tds"
        assert main(["transform", "--fn", name, "--N", "200000",
                     "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.TRANSFORM_SHA256[name]

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "transform", "--N", "5")
        assert code == 2


class TestCorrelate:
    def test_huge_shift_identity_rows(self, capsys):
        code, out, _ = run_cli(capsys, "correlate", "--f", "odd_primes_log",
                               "--g", "lambdaN", "--N", "9",
                               "--shifts", "1,2,U+1,U+2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "a,value"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2", "106", "107"]
        assert rows[0][1] == rows[2][1]
        assert rows[1][1] == rows[3][1]

    @pytest.mark.parametrize("mode", ["direct", "expansion"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_shift_past_the_digit_limit(self, capsys, mode, fmt):
        # U has about 5200 decimal digits at N = 12000; a shift whose text
        # exceeds Python's int-to-str limit is written as its U+k token
        N = 12000
        code, out, err = run_cli(capsys, "correlate", "--f", "odd_primes_log",
                                 "--g", "lambdaN", "--N", str(N),
                                 "--shifts", "1,U+1", "--mode", mode,
                                 "--format", fmt)
        assert code == 0 and err == ""
        if fmt == "json":
            rows = [(e["a"], e["value"]) for e in json.loads(out)["entries"]]
        else:
            lines = out.strip().split("\n")
            assert lines[0] == "a,value"
            rows = [tuple(line.split(",")) for line in lines[1:]]
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        big = universal_period(N) + 1
        want = "U+1" if limit and big >= 10 ** limit else str(big)
        assert [a for a, _ in rows] == ["1", want]
        assert rows[0][1] == rows[1][1]

    @pytest.mark.parametrize("mode", ["direct", "expansion"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_value_past_the_digit_limit(self, capsys, tmp_path, mode, fmt):
        # the reader accepts a value of exactly `limit` digits; the
        # correlation of identity against it has more, and no token
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python has no int-to-str digit limit")
        big = tmp_path / "big.tds"
        big.write_text(f"cutoff=3 kind=ExactInt\n1\t{'9' * limit}\n")
        out = tmp_path / "out.txt"
        code, stdout, err = run_cli(capsys, "correlate", "--f", "identity",
                                    "--g", str(big), "--N", "100",
                                    "--shifts", "1", "--mode", mode,
                                    "--format", fmt, "--out", str(out))
        assert code == 2 and stdout == "" and not out.exists()
        assert err == ("ramcorr: error: the exact value at shift 1 has more "
                       "decimal digits than Python's int-to-str limit of "
                       f"{limit}\n")

    def test_range_spec(self, capsys):
        code, out, _ = run_cli(capsys, "correlate", "--f", "unit",
                               "--g", "delta1", "--N", "10",
                               "--shifts", "1:10")
        assert code == 0
        assert len(out.strip().split("\n")) == 11

    def test_zero_shift_rejected(self, capsys):
        code, _, err = run_cli(capsys, "correlate", "--f", "unit",
                               "--g", "delta1", "--N", "10", "--shifts", "0")
        assert code == 2
        assert "naturals" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "correlate", "--f", "odd_primes",
                               "--g", "delta1", "--N", "10",
                               "--shifts", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["entries"] == [{"a": "2", "value": "3"}]

    def test_expansion_mode_agrees(self, capsys):
        code, direct, _ = run_cli(capsys, "correlate", "--f", "odd_primes_log",
                                  "--g", "lambdaN", "--N", "20",
                                  "--shifts", "1:6", "--mode", "direct")
        code2, expansion, _ = run_cli(capsys, "correlate", "--f",
                                      "odd_primes_log", "--g", "lambdaN",
                                      "--N", "20", "--shifts", "1:6",
                                      "--mode", "expansion")
        assert code == code2 == 0
        assert direct == expansion

    def test_tds_file_as_g(self, capsys, tmp_path):
        path = tmp_path / "g.tds"
        path.write_text("cutoff=10 kind=ExactInt\n1\t1\n")
        code, out, _ = run_cli(capsys, "correlate", "--f", "unit",
                               "--g", str(path), "--N", "10", "--shifts", "3")
        assert code == 0
        assert out.strip().split("\n")[1] == "3,10"

    def test_unknown_g_name(self, capsys):
        code, _, err = run_cli(capsys, "correlate", "--f", "unit",
                               "--g", "nosuchthing", "--N", "10",
                               "--shifts", "1")
        assert code == 2
        assert "'nosuchthing' is neither a readable file nor one of" in err

    @staticmethod
    def _count_sieves(monkeypatch):
        """The limits of every sieve_primes call, through each module
        that imports the name (all imported first, so that none binds the
        counter and keeps it past the test)."""
        import importlib

        from ramcorr import arith_core
        sieve, limits = arith_core.sieve_primes, []

        def counted(M):
            limits.append(M)
            return sieve(M)
        modules = [importlib.import_module("ramcorr" + name) for name in (
            "", ".arith_core", ".cli", ".correlations", ".hlmodels",
            ".ramanujan", ".transforms", ".twoseasons", ".verify")]
        for module in modules:
            if hasattr(module, "sieve_primes"):
                monkeypatch.setattr(module, "sieve_primes", counted)
        return limits

    @pytest.mark.parametrize("g", ["lambdaN", "lambdaN_raw"])
    def test_named_g_reuses_the_command_sieve(self, capsys, monkeypatch, g):
        limits = self._count_sieves(monkeypatch)
        code, _, _ = run_cli(capsys, "correlate", "--f", "mobius", "--g", g,
                             "--N", "300", "--shifts", "1,2")
        assert code == 0
        assert limits == [300]

    def test_expansion_reads_mu_from_the_command_sieve(self, monkeypatch,
                                                       tmp_path):
        limits = self._count_sieves(monkeypatch)
        out = tmp_path / "exp.csv"
        assert main(["correlate", "--f", "odd_primes_log", "--g", "lambdaN",
                     "--N", "200", "--shifts", "1,2,7,U+1,U+2,U+7",
                     "--mode", "expansion", "--out", str(out)]) == 0
        assert limits == [200]
        assert out.read_bytes() == \
            (DATA / "golden_correlate_expansion.csv").read_bytes()

    @pytest.mark.parametrize("N, sieves", [(120, [120]), (100, [100, 120])])
    def test_expansion_sieves_for_mu_only_past_the_command_sieve(
            self, monkeypatch, tmp_path, N, sieves):
        # the file's cutoff is 120: past a command sieve to 100, the
        # route sieves to 120 for mu; both routes write the same bytes
        limits = self._count_sieves(monkeypatch)
        got = {}
        for mode in ("expansion", "direct"):
            out = tmp_path / f"{mode}.csv"
            limits.clear()
            assert main(["correlate", "--f", "mobius", "--g",
                         str(DATA / "golden_seeded_exact.tds"), "--N", str(N),
                         "--shifts", "1:8,U+1,U+2", "--mode", mode,
                         "--out", str(out)]) == 0
            got[mode] = out.read_bytes(), list(limits)
        assert got["expansion"] == (got["direct"][0], sieves)
        assert got["direct"][1] == [N]


class TestVerify:
    def test_passing_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "closure", "--seed", "3")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["pass"] is True
        assert verdict["failures"] == []

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nosuchsuite")
        assert code == 2

    def test_help_lists_the_suites(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert ("one of: closure, entanglement, expansion, identities, "
                "lucht, models, orthogonality, periods"
                in " ".join(capsys.readouterr().out.split()))

    def test_consistent_pair_passes(self, capsys, tmp_path):
        import io

        from ramcorr.ramanujan import wintner_coefficients
        from ramcorr.transforms import tds_from_et, write_tds
        g = tds_from_et({2: 3, 6: -1, 7: 2}, 8, "ExactInt")
        with open(tmp_path / "g.tds", "w") as fh:
            write_tds(g, fh)
        buf = io.StringIO()
        write_tds(wintner_coefficients(g), buf)
        (tmp_path / "g.coeffs").write_text(buf.getvalue())
        code, out, _ = run_cli(capsys, "verify", "expansion",
                               "--tds", str(tmp_path / "g.tds"),
                               "--coeffs", str(tmp_path / "g.coeffs"))
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_corrupted_pair_locates_counterexample(self, capsys, tmp_path):
        import io

        from ramcorr.ramanujan import wintner_coefficients
        from ramcorr.transforms import tds_from_et, write_tds
        g = tds_from_et({2: 3, 6: -1, 7: 2}, 8, "ExactInt")
        with open(tmp_path / "g.tds", "w") as fh:
            write_tds(g, fh)
        corrupted = tds_from_et({2: 3, 6: -1, 7: 5}, 8, "ExactInt")
        buf = io.StringIO()
        write_tds(wintner_coefficients(corrupted), buf)
        (tmp_path / "g.coeffs").write_text(buf.getvalue())
        code, out, _ = run_cli(capsys, "verify", "expansion",
                               "--tds", str(tmp_path / "g.tds"),
                               "--coeffs", str(tmp_path / "g.coeffs"))
        assert code == 1
        verdict = json.loads(out)
        assert verdict["pass"] is False
        located = verdict["failures"][0]
        assert located["check"] == "coefficient"
        assert located["q"] in (1, 7)

    def test_pair_flags_rejected_elsewhere(self, capsys, tmp_path):
        path = tmp_path / "g.tds"
        path.write_text("cutoff=5 kind=ExactInt\n1\t1\n")
        code, _, err = run_cli(capsys, "verify", "closure",
                               "--tds", str(path))
        assert code == 2

    def test_expansion_coefficients_need_a_tds(self, capsys):
        # without --tds the file would be ignored and the seeded suite run
        coeffs = str(DATA / "golden_seeded_exact_perturbed.coeffs")
        code, out, err = run_cli(capsys, "verify", "expansion",
                                 "--coeffs", coeffs)
        assert (code, out) == (2, "")
        assert "--coeffs needs --tds for suite 'expansion'" in err
        # lucht alone checks the coefficients' round trip
        code, out, _ = run_cli(capsys, "verify", "lucht", "--coeffs", coeffs)
        assert code == 1 and json.loads(out)["suite"] == "lucht"


class TestHl:
    def test_rows_and_singular_table(self, capsys):
        code, out, _ = run_cli(capsys, "hl", "--N-list", "200,400",
                               "--a-list", "2,3,4", "--Q", "2000")
        assert code == 0
        models, singular = out.split("\n\n")
        lines = models.strip().split("\n")
        assert lines[0].startswith("N,a,hl")
        assert len(lines) == 7  # 2 lengths x 3 shifts
        odd_row = [l for l in lines if l.startswith("200,3,")][0]
        assert odd_row.endswith(",")  # no normalized residual on odd shifts
        sing_lines = singular.strip().split("\n")
        assert sing_lines[0] == "a,truncated,euler_product,Q"
        assert len(sing_lines) == 4

    def test_empty_list_rejected(self, capsys):
        code, _, err = run_cli(capsys, "hl", "--N-list", "", "--a-list", "2")
        assert code == 2

    @pytest.mark.parametrize("Q", ["1", "0", "-5"])
    def test_q_below_two_is_a_usage_error(self, capsys, monkeypatch, Q):
        from ramcorr import arith_core

        def no_sieve(M):
            raise AssertionError("sieved before the --Q check")
        monkeypatch.setattr(arith_core, "sieve_primes", no_sieve)
        code, out, err = run_cli(capsys, "hl", "--N-list", "100",
                                 "--a-list", "2,3", "--Q", Q)
        assert (code, out) == (2, "")
        assert err == "ramcorr: error: --Q must be >= 2\n"

    def test_sieve_overflow_reports_requirement(self, capsys):
        code, _, err = run_cli(capsys, "--sieve-limit", "100", "hl",
                               "--N-list", "5000", "--a-list", "2",
                               "--Q", "50")
        assert code == 2
        assert "5002" in err

    def test_csv_bytes_match_the_golden_files(self, capsys, tmp_path):
        # written by the plain per-point sweeps: any change to a sweep
        # behind the ladder or the singular series must keep these bytes
        # (values print to 12 digits; tests/test_sweeps.py pins the bits)
        out_path = tmp_path / "hl.csv"
        code, _, _ = run_cli(capsys, "hl", "--N-list", "1000,10000",
                             "--a-list", "1,2,3,8", "--Q", "20000",
                             "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == (DATA / "hl_golden.csv").read_bytes()
        assert (tmp_path / "hl.csv.singular.csv").read_bytes() == \
            (DATA / "hl_golden.singular.csv").read_bytes()

    def test_repeated_shifts_keep_their_order_and_rows(self, capsys,
                                                       tmp_path):
        # golden files written by the per-shift ladder: one row per listed
        # shift, in the given order, a repeat included; the singular table
        # holds each distinct shift once, ascending
        out_path = tmp_path / "hl.csv"
        code, _, _ = run_cli(capsys, "hl", "--N-list", "1000,3000",
                             "--a-list", "8,3,8,1", "--Q", "5000",
                             "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == \
            (DATA / "hl_golden_repeats.csv").read_bytes()
        assert (tmp_path / "hl.csv.singular.csv").read_bytes() == \
            (DATA / "hl_golden_repeats.singular.csv").read_bytes()

    def test_traced_peak_at_two_million_is_under_twenty_bytes_per_q(
            self, tmp_path):
        # the bench's hl call: the sieve keeps 1 + 1 + 4 bytes per slot
        # (is_prime, int8 mu, int32 phi) and Lambda 8; the series adds
        # its float64 buffer before Lambda is built.  An int64 mu or phi,
        # or a second Q-length array in the series, passes 20
        import ramcorr.hlmodels  # noqa: F401  (imported before tracing)
        Q = 2_000_000
        tracemalloc.start()
        try:
            assert main(["hl", "--N-list", "10000,100000", "--a-list",
                         "4,9,36", "--Q", str(Q),
                         "--out", str(tmp_path / "hl.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * (Q + 1)

    def test_singular_out_needs_out(self, capsys, monkeypatch, tmp_path):
        from ramcorr import arith_core

        def no_sieve(M):
            raise AssertionError("sieved before the --singular-out check")
        monkeypatch.setattr(arith_core, "sieve_primes", no_sieve)
        path = tmp_path / "s.csv"
        code, out, err = run_cli(capsys, "hl", "--N-list", "100",
                                 "--a-list", "2", "--Q", "500",
                                 "--singular-out", str(path))
        assert (code, out) == (2, "")
        assert err == "ramcorr: error: --singular-out needs --out\n"
        assert not path.exists()

    def test_output_files(self, capsys, tmp_path):
        out_path = tmp_path / "models.csv"
        code, _, _ = run_cli(capsys, "hl", "--N-list", "100",
                             "--a-list", "2", "--Q", "500",
                             "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().startswith("N,a,hl")
        sing = tmp_path / "models.csv.singular.csv"
        assert sing.read_text().startswith("a,truncated")


class TestConfigResolution:
    def test_deterministic_output(self, capsys):
        args = ("hl", "--N-list", "300", "--a-list", "2,6", "--Q", "1000")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "ramcorr.conf"
        cfg.write_text("# cap\nsieve_limit=50\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "hl",
                               "--N-list", "1000", "--a-list", "2",
                               "--Q", "50")
        assert code == 2
        assert "cap is 50" in err

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("RAMCORR_SIEVE_LIMIT", "60")
        code, _, err = run_cli(capsys, "hl", "--N-list", "1000",
                               "--a-list", "2", "--Q", "50")
        assert code == 2
        assert "cap is 60" in err

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RAMCORR_SIEVE_LIMIT", "60")
        code, out, _ = run_cli(capsys, "--sieve-limit", "2000", "hl",
                               "--N-list", "100", "--a-list", "2",
                               "--Q", "100")
        assert code == 0

    def test_bad_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "ramcorr.conf"
        cfg.write_text("sieve_limit=house\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "transform",
                               "--fn", "unit", "--N", "3")
        assert code == 2

    # a sieve limit below 1 is refused where it is read, naming its source,
    # even on a command that sieves nothing
    ORTHOGONALITY = ("verify", "orthogonality")

    def test_flag_sieve_limit_below_one(self, capsys):
        code, out, err = run_cli(capsys, "--sieve-limit", "0",
                                 *self.ORTHOGONALITY)
        assert code == 2 and out == ""
        assert "--sieve-limit: sieve_limit must be >= 1, got 0" in err

    def test_env_sieve_limit_below_one(self, capsys, monkeypatch):
        monkeypatch.setenv("RAMCORR_SIEVE_LIMIT", "-3")
        code, out, err = run_cli(capsys, "--sieve-limit", "2000",
                                 *self.ORTHOGONALITY)
        assert code == 2 and out == ""
        assert "RAMCORR_SIEVE_LIMIT: sieve_limit must be >= 1, got -3" in err

    def test_config_sieve_limit_below_one(self, capsys, tmp_path):
        cfg = tmp_path / "ramcorr.conf"
        cfg.write_text("# cap\nsieve_limit=0\n")
        code, out, err = run_cli(capsys, "--config", str(cfg),
                                 *self.ORTHOGONALITY)
        assert code == 2 and out == ""
        assert f"{cfg}:2: sieve_limit must be >= 1, got 0" in err

    @pytest.mark.parametrize("key", ["sieve_limt", "tolerance_real"])
    def test_unknown_config_key(self, capsys, tmp_path, key):
        cfg = tmp_path / "ramcorr.conf"
        cfg.write_text(f"# cap\nsieve_limit=50\n{key}=60\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "transform",
                                 "--fn", "unit", "--N", "3")
        assert code == 2 and out == ""
        assert f"{cfg}:3: unknown key '{key}'" in err

    def test_non_ascii_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "ramcorr.conf"
        cfg.write_bytes(b"# cap\nsieve_limit=5\xe9\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "transform",
                               "--fn", "unit", "--N", "3")
        assert code == 2
        assert "cannot read config file" in err and "0xe9" in err
        assert f"cannot read config file: {cfg}:2: non-ASCII byte 0xe9" in err

    @pytest.mark.parametrize("before", [True, False])
    def test_tolerance_flag_removed(self, capsys, before):
        flag = ["--tolerance-real", "1e-6"]
        cmd = ["transform", "--fn", "unit", "--N", "3"]
        with pytest.raises(SystemExit) as exc:
            main(flag + cmd if before else cmd + flag)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "ramcorr: error:" in out.err


class TestIntegerGrammar:
    """Every integer the CLI reads is ASCII ``-?[0-9]+``: ``int()`` would
    also take ``1_000``, non-ASCII digits and surrounding whitespace."""

    ORTHOGONALITY = ("verify", "orthogonality")
    BAD_INT = "bad config value: invalid literal for int() with base 10: "

    @pytest.mark.parametrize("value", ["1_000", "١٠٠", " 100"])
    def test_sieve_limit_variable(self, capsys, monkeypatch, value):
        monkeypatch.setenv("RAMCORR_SIEVE_LIMIT", value)
        code, out, err = run_cli(capsys, *self.ORTHOGONALITY)
        assert (code, out) == (2, "")
        assert err == (f"ramcorr: error: RAMCORR_SIEVE_LIMIT: {self.BAD_INT}"
                       f"{value!r}\n")

    def test_sieve_limit_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "ramcorr.conf"
        cfg.write_text("# cap\nsieve_limit=1_000\n")
        code, out, err = run_cli(capsys, "--config", str(cfg),
                                 *self.ORTHOGONALITY)
        assert (code, out) == (2, "")
        assert err == f"ramcorr: error: {cfg}:2: {self.BAD_INT}'1_000'\n"

    @pytest.mark.parametrize("value", ["1_000", "١٠٠"])
    def test_sieve_limit_flag(self, capsys, value):
        code, out, err = run_cli(capsys, "--sieve-limit", value,
                                 *self.ORTHOGONALITY)
        assert (code, out) == (2, "")
        assert err == (f"ramcorr: error: --sieve-limit: {self.BAD_INT}"
                       f"{value!r}\n")

    @pytest.mark.parametrize("shifts, message", [
        ("1_0", "bad shift token '1_0'"),
        ("1:1_0", "bad shift range '1:1_0'"),
        ("٣:5", "bad shift range '٣:5'"),
        ("U+1_0", "bad shift token 'U+1_0'"),
    ])
    def test_shift_tokens(self, capsys, shifts, message):
        code, out, err = run_cli(capsys, "correlate", "--f", "unit", "--g",
                                 "delta1", "--N", "9", "--shifts", shifts)
        assert (code, out) == (2, "")
        assert err == f"ramcorr: error: {message}\n"

    @pytest.mark.parametrize("flag, N_list, a_list, text", [
        ("--N-list", "1_00", "2", "1_00"),
        ("--a-list", "100", "٢", "٢"),
        ("--a-list", "100", "2, 1_0", "2, 1_0"),
    ])
    def test_integer_lists(self, capsys, flag, N_list, a_list, text):
        code, out, err = run_cli(capsys, "hl", "--N-list", N_list,
                                 "--a-list", a_list, "--Q", "100")
        assert (code, out) == (2, "")
        assert err == f"ramcorr: error: bad integer list for {flag}: {text!r}\n"

    @pytest.mark.parametrize("argv, flag, value", [
        (["correlate", "--f", "unit", "--g", "delta1", "--N", "٩",
          "--shifts", "1"], "--N", "٩"),
        (["transform", "--fn", "unit", "--N", "1_0"], "--N", "1_0"),
        (["verify", "closure", "--seed", "1_0"], "--seed", "1_0"),
        (["hl", "--N-list", "100", "--a-list", "2", "--Q", "1_000"],
         "--Q", "1_000"),
    ])
    def test_typed_flags(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith(
            f"error: argument {flag}: invalid int value: {value!r}\n")

    def test_spaces_around_list_items_and_shift_tokens(self, capsys):
        code, out, _ = run_cli(capsys, "correlate", "--f", "unit", "--g",
                               "delta1", "--N", "9", "--shifts", " 1, 2 ")
        assert code == 0 and out.splitlines()[1:] == ["1,9", "2,9"]
        code, spaced, _ = run_cli(capsys, "hl", "--N-list", " 100",
                                  "--a-list", "2 ,4", "--Q", "100")
        assert code == 0
        assert spaced == run_cli(capsys, "hl", "--N-list", "100",
                                 "--a-list", "2,4", "--Q", "100")[1]


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "ramcorr.cli", "transform", "--fn", "unit",
         "--N", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "cutoff=3 kind=ExactInt\n1\t1\n"
