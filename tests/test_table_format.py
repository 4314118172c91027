"""The one text format shared by TDS and coefficient files: round trips,
and rejection of every malformed line with its line number."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcorr.arith_core import EXACT, REAL
from ramcorr.cli import main
from ramcorr.ramanujan import (RamanujanCoefficients, read_coefficients,
                               write_coefficients)
from ramcorr.transforms import TruncatedDivisorSum, read_tds, write_tds

READERS = {"tds": read_tds, "coefficients": read_coefficients}

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def _round_trip(table, write, read):
    buf = io.StringIO()
    write(table, buf)
    return read(io.StringIO(buf.getvalue()))


def _tables(cls, kind, values):
    return st.integers(1, 40).flatmap(lambda limit: st.dictionaries(
        st.integers(1, limit), values, max_size=limit).map(
            lambda entries: cls.from_entries(entries, limit, kind)))


@pytest.mark.parametrize("cls, kind, values, write, read", [
    (TruncatedDivisorSum, EXACT, st.integers(), write_tds, read_tds),
    (TruncatedDivisorSum, REAL, finite_floats, write_tds, read_tds),
    (RamanujanCoefficients, EXACT, st.fractions(), write_coefficients,
     read_coefficients),
    (RamanujanCoefficients, REAL, finite_floats, write_coefficients,
     read_coefficients),
])
@settings(max_examples=100)
@given(data=st.data())
def test_write_then_read_gives_an_equal_table(data, cls, kind, values,
                                              write, read):
    table = data.draw(_tables(cls, kind, values))
    back = _round_trip(table, write, read)
    assert type(back) is cls
    assert (back.limit, back.kind) == (table.limit, kind)
    assert back.values.tolist() == table.values.tolist()


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
