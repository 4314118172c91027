"""The one text format shared by TDS and coefficient files: round trips,
and rejection of every malformed line with its line number."""

import io
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcorr import transforms
from ramcorr.arith_core import EXACT, REAL
from ramcorr.cli import _text, _write_out, main
from ramcorr.ramanujan import RamanujanCoefficients, read_coefficients
from ramcorr.transforms import (TruncatedDivisorSum, open_table, read_tds,
                                write_tds)

READERS = {"tds": read_tds, "coefficients": read_coefficients}

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def _round_trip(table, read):
    buf = io.StringIO()
    write_tds(table, buf)
    return read(io.StringIO(buf.getvalue()))


def _read_path(path):
    with open_table(path) as fh:
        return read_tds(fh)


def _tables(cls, kind, values):
    return st.integers(1, 40).flatmap(lambda limit: st.dictionaries(
        st.integers(1, limit), values, max_size=limit).map(
            lambda entries: cls.from_entries(entries, limit, kind)))


@pytest.mark.parametrize("cls, kind, values, read", [
    (TruncatedDivisorSum, EXACT, st.integers(), read_tds),
    (TruncatedDivisorSum, REAL, finite_floats, read_tds),
    (RamanujanCoefficients, EXACT, st.fractions(), read_coefficients),
    (RamanujanCoefficients, REAL, finite_floats, read_coefficients),
])
@settings(max_examples=100)
@given(data=st.data())
def test_write_then_read_gives_an_equal_table(data, cls, kind, values, read):
    table = data.draw(_tables(cls, kind, values))
    back = _round_trip(table, read)
    assert type(back) is cls
    assert (back.limit, back.kind) == (table.limit, kind)
    assert back.values.tolist() == table.values.tolist()


def support_writer(g, fh):
    """The text format written line by line from the cached support."""
    fh.write(f"cutoff={g.limit} kind={g.kind}\n")
    for d, v in g.support():
        fh.write(f"{d}\t{v}\n")


@pytest.mark.parametrize("kind, values", [
    (EXACT, st.integers()), (EXACT, st.fractions()), (REAL, finite_floats)])
@settings(max_examples=100)
@given(data=st.data())
def test_writer_bytes_equal_the_support_line_writer(data, kind, values):
    table = data.draw(_tables(RamanujanCoefficients, kind, values))
    got, want = io.StringIO(), io.StringIO()
    write_tds(table, got)
    support_writer(table, want)
    assert got.getvalue() == want.getvalue()


def per_line_writer(g, fh):
    """The writer as it was before the int64 store and the blocks: one
    ``%`` per line, over the public value array."""
    idx = np.flatnonzero(g.values[1:]) + 1
    body = "".join(map("%s\t%s\n".__mod__,
                       zip(idx.tolist(), g.values[idx].tolist())))
    fh.write(f"cutoff={g.limit} kind={g.kind}\n")
    fh.write(body)


BLOCK = transforms._WRITE_BLOCK


def _block_table(form, lines):
    """A table of ``form`` with ``lines`` nonzero entries in 2 blocks' room."""
    rng = random.Random(lines)
    limit = 2 * BLOCK + 5
    idx = rng.sample(range(1, limit + 1), lines)
    draw = {
        "int64 store": lambda: rng.randint(-2 ** 63, 2 ** 63 - 1) or 1,
        "Python ints": lambda: rng.randint(-99, 99) or 1,
        "past int64": lambda: rng.choice([-1, 1]) * rng.randint(
            2 ** 63, 2 ** 200),
        "Fractions": lambda: Fraction(rng.randint(1, 10 ** 20),
                                      rng.randint(1, 10 ** 20)),
        "Real": lambda: rng.uniform(-1e3, 1e3) or 1.0,
    }[form]
    kind = REAL if form == "Real" else EXACT
    if form == "int64 store":
        vals = np.zeros(limit + 1, dtype=np.int64)
    else:
        vals = np.zeros(limit + 1, dtype=object if kind == EXACT else float)
    for n in idx:
        vals[n] = draw()
    return TruncatedDivisorSum(limit, kind, vals)


@pytest.mark.parametrize("lines", [0, 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("form", ["int64 store", "Python ints", "past int64",
                                  "Fractions", "Real"])
def test_block_writer_bytes_equal_the_per_line_writer(form, lines):
    table = _block_table(form, lines)
    stored = table._data.dtype == np.int64
    assert stored == (form == "int64 store")
    got, want = io.StringIO(), io.StringIO()
    write_tds(table, got)
    assert (table._data.dtype == np.int64) == stored  # values left unbuilt
    per_line_writer(table, want)
    assert got.getvalue() == want.getvalue()
    assert got.getvalue().count("\n") == lines + 1


def _read_with_line(reader, kind, line):
    """Read a file whose line 3 is ``line``, after a valid entry for d=3."""
    text = f"cutoff=20 kind={kind}\n3\t1\n{line}\n"
    return READERS[reader](io.StringIO(text))


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("kind", [EXACT, REAL])
@settings(max_examples=100)
@given(line=st.text(st.characters(blacklist_characters="\n\r")))
def test_any_entry_line_is_read_or_rejected_with_its_line_number(
        reader, kind, line):
    try:
        _read_with_line(reader, kind, line)
    except ValueError as exc:
        assert str(exc).startswith("line 3: "), str(exc)


MALFORMED = st.one_of(
    st.builds("{}\t{}\t{}".format, st.integers(1, 20), st.integers(),
              st.integers()),                                # three columns
    st.builds("{} {}".format, st.integers(1, 20), st.integers()),  # no tab
    st.builds("{}\t1".format, st.integers(max_value=0)),     # index below 1
    st.builds("{}\t1".format, st.integers(min_value=21)),    # index past 20
    st.builds("3\t{}".format, st.integers(-9, 9)),           # duplicate of 3
    st.builds("{}\t{}".format, st.integers(1, 20),
              st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"])),
    st.builds("{}\t{}".format, st.text("abcxyz", min_size=1),
              st.integers()),                                # index not int
    st.builds("{}\t{}".format, st.integers(1, 20),
              st.text("xyz?", min_size=1)),                  # value not number
)


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("kind", [EXACT, REAL])
@settings(max_examples=100)
@given(line=MALFORMED)
def test_every_malformed_entry_line_is_rejected_with_its_line_number(
        reader, kind, line):
    with pytest.raises(ValueError, match=r"^line 3: "):
        _read_with_line(reader, kind, line)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_duplicate_entry_rejected(reader):
    with pytest.raises(ValueError, match="line 3: duplicate"):
        _read_with_line(reader, EXACT, "3\t2")


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_real_value_rejected(reader, value):
    with pytest.raises(ValueError, match="line 3: non-finite"):
        _read_with_line(reader, REAL, f"5\t{value}")


@pytest.mark.parametrize("header", [
    "", "cutoff=5", "cutoff=x kind=Real", "cutoff=0 kind=Real",
    "cutoff=5 kind=Complex", "cutoff=5 kind=Real extra=1", "5 Real",
])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_malformed_header_rejected_at_line_1(reader, header):
    with pytest.raises(ValueError, match=r"^line 1: "):
        READERS[reader](io.StringIO(header + "\n"))


def test_exact_tds_values_must_be_integers():
    with pytest.raises(ValueError, match="line 2: bad entry"):
        read_tds(io.StringIO("cutoff=5 kind=ExactInt\n2\t1/2\n"))


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("kind", [EXACT, REAL])
def test_cutoff_above_the_cap_rejected_before_allocation(reader, kind):
    # a reader that allocates first would ask for 10**12 slots here
    with pytest.raises(ValueError,
                       match=r"^line 1: cutoff 1000000000000 exceeds"):
        READERS[reader](io.StringIO(f"cutoff={10 ** 12} kind={kind}\n"))


@pytest.mark.parametrize("reader", sorted(READERS))
def test_cap_is_a_parameter(reader):
    text = "cutoff=6 kind=ExactInt\n6\t1\n"
    assert READERS[reader](io.StringIO(text), 6).limit == 6
    with pytest.raises(ValueError, match=r"^line 1: cutoff 6 exceeds"):
        READERS[reader](io.StringIO(text), 5)


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("value", [
    "1e999999999", "1E5", "1.5", "2.0", ".5", "+3", " 4", "1_000", "0x10",
    "1/2/3", "-1/-2", "1 /2", "1/+2", "--1",
])
def test_exact_values_outside_the_written_grammar_rejected(reader, value):
    with pytest.raises(ValueError, match=r"^line 3: bad entry"):
        _read_with_line(reader, EXACT, f"5\t{value}")


EXACT_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("kind", [EXACT, REAL])
@pytest.mark.parametrize("index", ["+3", "3 ", "1_0", "0_3", "+0_3"])
def test_index_outside_the_written_grammar_rejected(reader, kind, index):
    # int() reads each of these as an index in [1, 20]
    text = f"cutoff=20 kind={kind}\n{index}\t1\n"
    with pytest.raises(ValueError, match=r"^line 2: bad entry"):
        READERS[reader](io.StringIO(text))


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("cutoff", ["1_0", "+10", "0_10"])
def test_cutoff_outside_the_written_grammar_rejected(reader, cutoff):
    with pytest.raises(ValueError, match=r"^line 1: bad cutoff"):
        READERS[reader](io.StringIO(f"cutoff={cutoff} kind=ExactInt\n"))


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=200)
@given(index=st.text("0123456789+-_ ", min_size=1, max_size=5))
def test_index_is_read_only_in_the_written_grammar(reader, index):
    try:
        table = READERS[reader](io.StringIO(
            f"cutoff=9999 kind=ExactInt\n{index}\t1\n"))
    except ValueError as exc:
        assert str(exc).startswith("line 2: "), str(exc)
    else:
        assert re.fullmatch("[0-9]+", index.lstrip())
        assert table.support() == [(int(index), 1)]


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=200)
@given(value=st.text("0123456789-+/.eE_x ", min_size=1, max_size=8))
def test_exact_value_is_read_only_in_the_written_grammar(reader, value):
    try:
        _read_with_line(reader, EXACT, f"5\t{value}")
    except ValueError as exc:
        assert str(exc).startswith("line 3: "), str(exc)
    else:
        assert EXACT_TEXT.fullmatch(value.strip())


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("text, lineno, what", [
    ("cutoff=10 kind=ExactInt\n3\t1\n5\t\u06632\n", 3, "character U+0663"),
    ("cutoff=10 kind=ExactInt\n3\t1\n5\t\udcc3\n", 3, "byte 0xc3"),
    ("cutoff=10\u00a0kind=ExactInt\n", 1, "character U+00A0"),
])
def test_non_ascii_text_rejected_with_its_line(reader, text, lineno, what):
    # an Arabic-Indic digit used to be read as 3 by int()
    with pytest.raises(ValueError,
                       match=rf"^line {lineno}: non-ASCII {re.escape(what)}"):
        READERS[reader](io.StringIO(text))


def test_non_ascii_byte_in_a_file_names_its_line(tmp_path):
    path = tmp_path / "g.tds"
    path.write_bytes(b"cutoff=10 kind=ExactInt\n3\t1\n\n7\t\xe9\n")
    with pytest.raises(ValueError, match=r"^line 4: non-ASCII byte 0xe9"):
        _read_path(path)


# a rational whose denominator str() refuses: past Python's int-to-str
# digit limit (4300 digits by default), not representable in the format
HUGE_FRACTION = Fraction(1, 10 ** 5000 + 1)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit in this Python")
class TestDigitLimit:
    """Values past the int-to-str digit limit: a table holding one is
    not written at all (the CLI formats the whole text before it opens
    the file), and text holding one is rejected by name."""

    def test_unwritable_table_writes_nothing(self):
        c = RamanujanCoefficients.from_entries(
            {1: Fraction(1, 2), 2: HUGE_FRACTION}, 3, EXACT)
        buf = io.StringIO()
        with pytest.raises(ValueError):
            write_tds(c, buf)
        assert buf.getvalue() == ""

    def test_unwritable_table_leaves_no_zero_table(self, tmp_path):
        path = tmp_path / "c.coeffs"
        c = RamanujanCoefficients.from_entries({1: HUGE_FRACTION}, 3, EXACT)
        with pytest.raises(ValueError):
            _write_out(_text(write_tds, c), str(path))
        assert not path.exists()

    def test_unwritable_table_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "g.tds"
        g = TruncatedDivisorSum.from_entries({2: 3, 5: -1}, 6, EXACT)
        _write_out(_text(write_tds, g), str(path))
        before = path.read_bytes()
        c = RamanujanCoefficients.from_entries({1: HUGE_FRACTION}, 3, EXACT)
        with pytest.raises(ValueError):
            _write_out(_text(write_tds, c), str(path))
        assert path.read_bytes() == before
        assert _read_path(path).values.tolist() == g.values.tolist()

    @pytest.mark.parametrize("reader, value", [
        (read_tds, "7" * 5000),
        (read_coefficients, "1/" + "3" * 5000),
        (read_coefficients, "-" + "9" * 4301 + "/2"),
    ])
    def test_reader_names_the_digit_limit(self, reader, value):
        limit = sys.get_int_max_str_digits()
        digits = max(len(part) for part in value.lstrip("-").split("/"))
        text = f"cutoff=3 kind=ExactInt\n1\t1\n2\t{value}\n"
        with pytest.raises(ValueError) as exc:
            reader(io.StringIO(text))
        assert str(exc.value) == (
            f"line 3: a {digits}-digit number exceeds Python's int-to-str "
            f"limit of {limit} digits")

    @pytest.mark.parametrize("reader, entry, at_fault", [
        # the grammar refuses the sign, and a TDS value's grammar (int()
        # reads it) the slash: the length is not the fault
        pytest.param(read_tds, "2\t+" + "1" * 5000, "bad entry",
                     id="exact-plus-5000-digits"),
        pytest.param(read_tds, "2\t1/" + "1" * 5000, "bad entry",
                     id="tds-slash-5000-digits"),
        # Fraction() reads the slash, and int() the index: both refuse
        # only the length
        pytest.param(read_coefficients, "2\t1/" + "1" * 5000, "limit",
                     id="coefficients-slash-5000-digits"),
        pytest.param(read_tds, "1" * 5000 + "\t2", "limit",
                     id="exact-index-5000-digits"),
    ])
    def test_only_a_number_the_grammar_takes_can_pass_the_limit(
            self, reader, entry, at_fault):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValueError) as exc:
            reader(io.StringIO(f"cutoff=5 kind=ExactInt\n{entry}\n"))
        assert str(exc.value) == (
            f"line 2: bad entry {entry!r}" if at_fault == "bad entry" else
            f"line 2: a 5000-digit number exceeds Python's int-to-str "
            f"limit of {limit} digits")

    def test_real_values_are_read_by_float_which_has_no_limit(self):
        # a Real value that does not parse is quoted whatever its length;
        # a Real index is read by int(), so it can still pass the limit
        limit = sys.get_int_max_str_digits()
        text = "cutoff=5 kind=Real\n2\t+" + "1" * 5000 + "\n"
        with pytest.raises(ValueError) as exc:
            read_tds(io.StringIO(text))
        assert str(exc.value).startswith("line 2: bad entry '2\\t+111")
        text = "cutoff=5 kind=Real\n" + "1" * 5000 + "\t1.5\n"
        with pytest.raises(ValueError) as exc:
            read_tds(io.StringIO(text))
        assert str(exc.value) == (
            f"line 2: a 5000-digit number exceeds Python's int-to-str "
            f"limit of {limit} digits")

    def test_numbers_at_the_limit_still_read(self):
        limit = sys.get_int_max_str_digits()
        text = f"cutoff=3 kind=ExactInt\n2\t{'5' * limit}\n"
        assert read_tds(io.StringIO(text))[2] == int("5" * limit)

    def test_cli_exits_2_naming_the_limit(self, capsys, tmp_path):
        path = tmp_path / "g.tds"
        path.write_text("cutoff=4 kind=ExactInt\n3\t" + "1" * 5000 + "\n")
        assert main(["verify", "lucht", "--tds", str(path)]) == 2
        err = capsys.readouterr().err
        assert ("cannot load TDS file: line 2: a 5000-digit number exceeds "
                "Python's int-to-str limit") in err


class TestCli:
    """Faulty input files exit 2 with the located message."""

    NAN_TDS = "cutoff=10 kind=Real\n3\tnan\n"

    def _run(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().err

    def test_verify_rejects_nan_tds(self, capsys, tmp_path):
        path = tmp_path / "g.tds"
        path.write_text(self.NAN_TDS)
        code, err = self._run(capsys, "verify", "expansion", "--tds",
                              str(path))
        assert code == 2
        assert "line 2: non-finite value 'nan'" in err

    def test_transform_rejects_nan_tds(self, capsys, tmp_path):
        path = tmp_path / "g.tds"
        path.write_text(self.NAN_TDS)
        code, err = self._run(capsys, "transform", "--in", str(path),
                              "--N", "10")
        assert code == 2
        assert "line 2: non-finite" in err

    def test_correlate_rejects_nan_tds(self, capsys, tmp_path):
        path = tmp_path / "g.tds"
        path.write_text(self.NAN_TDS)
        code, err = self._run(capsys, "correlate", "--f", "unit", "--g",
                              str(path), "--N", "10", "--shifts", "1")
        assert code == 2
        assert "line 2: non-finite" in err

    def test_verify_rejects_duplicate_coefficient(self, capsys, tmp_path):
        tds = tmp_path / "g.tds"
        tds.write_text("cutoff=4 kind=ExactInt\n2\t1\n")
        coeffs = tmp_path / "g.coeffs"
        coeffs.write_text("cutoff=4 kind=ExactInt\n1\t1/2\n2\t1/2\n2\t1/2\n")
        code, err = self._run(capsys, "verify", "expansion", "--tds",
                              str(tds), "--coeffs", str(coeffs))
        assert code == 2
        assert "line 4: duplicate entry" in err

    def test_oversized_cutoff_rejected(self, capsys, tmp_path):
        path = tmp_path / "g.tds"
        path.write_text(f"cutoff={10 ** 12} kind=ExactInt\n")
        code, err = self._run(capsys, "correlate", "--f", "unit", "--g",
                              str(path), "--N", "10", "--shifts", "1")
        assert code == 2
        assert "line 1: cutoff 1000000000000 exceeds the cap 2000000" in err

    def test_cap_follows_the_sieve_limit(self, capsys, tmp_path):
        path = tmp_path / "g.tds"
        path.write_text("cutoff=30 kind=ExactInt\n1\t1\n")
        argv = ["correlate", "--f", "unit", "--g", str(path), "--N", "10",
                "--shifts", "1"]
        code, err = self._run(capsys, "--sieve-limit", "20", *argv)
        assert code == 2
        assert "line 1: cutoff 30 exceeds the cap 20" in err
        assert self._run(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("text, message", [
        ("cutoff=10 kind=ExactInt\n1_0\t1\n", "line 2: bad entry"),
        ("cutoff=1_0 kind=ExactInt\n3\t1\n", "line 1: bad cutoff '1_0'"),
    ])
    def test_index_grammar_fault_exits_2(self, capsys, tmp_path, text,
                                         message):
        path = tmp_path / "g.tds"
        path.write_text(text)
        code, err = self._run(capsys, "transform", "--in", str(path),
                              "--N", "10")
        assert code == 2
        assert message in err

    NON_ASCII_TDS = b"cutoff=10 kind=ExactInt\n3\t1\n5\t\xc3\xa92\n"

    @pytest.mark.parametrize("argv", [
        ("correlate", "--f", "unit", "--N", "10", "--shifts", "1", "--g"),
        ("verify", "lucht", "--tds"),
    ])
    def test_non_ascii_tds_names_its_line(self, capsys, tmp_path, argv):
        path = tmp_path / "g.tds"
        path.write_bytes(self.NON_ASCII_TDS)
        code, err = self._run(capsys, *argv, str(path))
        assert code == 2
        assert "line 3: non-ASCII byte 0xc3" in err

    def test_non_ascii_coefficients_name_their_line(self, capsys, tmp_path):
        tds = tmp_path / "g.tds"
        tds.write_text("cutoff=4 kind=ExactInt\n2\t1\n")
        coeffs = tmp_path / "g.coeffs"
        coeffs.write_bytes(b"cutoff=4 kind=ExactInt\n1\t1/2\xff\n")
        code, err = self._run(capsys, "verify", "expansion", "--tds",
                              str(tds), "--coeffs", str(coeffs))
        assert code == 2
        assert "line 2: non-ASCII byte 0xff" in err
