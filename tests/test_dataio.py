"""The loader against a pure line-by-line reading of the same format.

`load_sample` parses with one `np.loadtxt` pass over the file and hands every
file that pass cannot read exactly as the scanner would to `_scan_sample`,
which parses chunks of stripped lines with `np.loadtxt` and reads a chunk
numpy refuses line by line through `float`. The reference is `_scan_sample`
with numpy refusing every chunk: every line through `float`. On any text the
loader, the scanner and the reference must agree: bit-identical coordinates,
or the same exception type and message.
"""

import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xiboost
from xiboost import ParseError, SizeError, dataio
from xiboost.dataio import _load_vectorized, _pre_scan, _scan_sample, load_sample

# str.splitlines breaks at these; the line rule of load_sample does not
SPLITLINES_ONLY = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SEPARATORS = [",", "\t", ", "]
ODD_TOKENS = ["nan", "inf", "-inf", "1_0", "\u0661", "1e400", "+.5", "#", '"1"', "", " 7 "]
NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**6, 10**6).map(str))


def outcome(read, path):
    """Coordinates as bytes, or the exception as (type, message)."""
    try:
        s = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return s.x.tobytes(), s.y.tobytes()


def line_by_line(path):
    """`_scan_sample` with `np.loadtxt` refusing every chunk, so that each
    line goes through `float`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_loadtxt", lambda source, delimiter, skiprows: None)
        return _scan_sample(path)


def assert_same(path):
    reference = outcome(line_by_line, path)
    assert outcome(load_sample, path) == reference
    assert outcome(_scan_sample, path) == reference


def chunk_tables(monkeypatch):
    """Record, for each chunk `_scan_sample` hands to `np.loadtxt`, whether
    numpy read it whole: a table of one row per line and two columns."""
    read, loadtxt = [], dataio._loadtxt

    def recording(source, delimiter, skiprows):
        table = loadtxt(source, delimiter, skiprows)
        if isinstance(source, list):
            read.append(table is not None and table.shape == (len(source), 2))
        return table

    monkeypatch.setattr(dataio, "_loadtxt", recording)
    return read


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_bytes(text.encode("utf-8"))
    return p


def rows_text(count):
    """`count` clean comma rows: about 11 characters each for a count near 1e5."""
    return "".join(f"{i},{i}.5\n" for i in range(count))


@st.composite
def data_files(draw):
    """File text: repr floats and odd tokens, comma/tab/", " separators, optional
    headers, rows of 1-3 fields, blank and whitespace-only lines, every line
    break and the characters only str.splitlines breaks at. A per-file rate
    sets how often a choice is odd, so clean files that the vectorized pass
    reads are drawn as often as broken ones."""
    rate = draw(st.sampled_from([0, 1, 4]))

    def odd():
        return draw(st.integers(0, 9)) < rate

    sep = draw(st.sampled_from(SEPARATORS))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = []
    if odd():
        lines.append(draw(st.sampled_from(["x,y,z", "1,x", "x\ty", "x,y"])))
    elif draw(st.booleans()):
        lines.append(f"x{sep}y")
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["  ", "\t", " \t "])) if odd() else "")
            continue
        width = draw(st.sampled_from([1, 3])) if odd() else 2
        row_sep = draw(st.sampled_from(SEPARATORS)) if odd() else sep
        tokens = [draw(st.sampled_from(ODD_TOKENS)) if odd() else draw(NUMBERS)
                  for _ in range(width)]
        lines.append(row_sep.join(tokens))
    breaks = st.sampled_from(["\n", "\r\n", "\r"] + SPLITLINES_ONLY)
    return "".join(line + (draw(breaks) if odd() else end) for line in lines)


class TestLoaderMatchesScanner:
    @settings(max_examples=900, deadline=None)
    @given(text=data_files(), chunk=st.sampled_from([1, 2, 3, dataio._CHUNK_LINES]))
    def test_differential(self, tmp_path_factory, text, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_CHUNK_LINES", chunk)
            assert_same(write(tmp_path_factory.mktemp("fuzz"), text))

    def test_fast_path_taken_on_clean_files(self, tmp_path):
        for text in ["x,y\n1,2\n3,4\n", "\n\n 1 ,2\r\n3,4\r\n\n", "a\tb\n1\t2\n3\t4"]:
            p = write(tmp_path, text)
            assert _load_vectorized(p) is not None
            assert_same(p)

    @pytest.mark.parametrize("brk", SPLITLINES_ONLY)
    def test_splitlines_only_breaks(self, tmp_path, brk):
        # no line ends at them: between two numbers they make a third column
        p = write(tmp_path, f"x,y\n5,6\n1,2{brk}3,4\n")
        assert_same(p)
        with pytest.raises(ParseError, match="^line 3, column 3: expected 2 columns, found 3$"):
            load_sample(p)
        # and at the edge of a field they are whitespace
        q = write(tmp_path, f"1{brk},2\n{brk}3,4{brk}\n")
        assert _load_vectorized(q) is not None
        assert_same(q)
        assert load_sample(q).x.tolist() == [1.0, 3.0]

    @pytest.mark.parametrize("text", [
        "x,y\n1,2\n   \n3,4\n",            # whitespace-only line
        "1\t2\t\n3\t4\n",                 # a trailing tab the scanner strips
        "1_0,2\n3,4\n",                   # underscores float() accepts
        "\u0661,2\n3,4\n",                # a non-ASCII digit float() accepts
        "x,y\n1,2\n",                     # one row
        "1,2",                            # one line
        "x,y\n\n\n",                      # header and blank lines
        "",                               # empty
        "x,y\n1,2\n3,4,5\n",              # wrong width
        "1,2\n3,\n",                      # missing value
        "1,2\n#,4\n",                     # no comment character
        '1,2\n"3",4\n',                   # no quote character
        "x,y\n1,2\rnan,4\r",              # old Mac line ends, non-finite value
        "x,y\n1,2\n3,1e400\n",            # overflow to inf
    ])
    def test_divergence_classes(self, tmp_path, text):
        assert_same(write(tmp_path, text))

    def test_values_underscore_and_unicode_digits(self, tmp_path):
        s = load_sample(write(tmp_path, "1_0,2\n\u0661,4\n"))
        assert s.x.tolist() == [10.0, 1.0] and s.y.tolist() == [2.0, 4.0]

    def test_header_only_raises_size_error_without_warning(self, tmp_path):
        p = write(tmp_path, "x,y\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SizeError, match="found 0"):
                load_sample(p)

    def test_bad_value_on_last_of_many_rows(self, tmp_path):
        rows = "".join(f"{i},{i + 0.5}\n" for i in range(9_999))
        p = write(tmp_path, "x,y\n" + rows + "1,oops\n")
        with pytest.raises(ParseError) as exc:
            load_sample(p)
        assert (exc.value.line, exc.value.column) == (10_001, 2)

    def test_compressed_suffix_is_read_as_text(self, tmp_path):
        # np.loadtxt would gunzip a name ending in .gz; the loader reads it as text
        p = write(tmp_path, "x,y\n1,2\n3,4\n", name="d.csv.gz")
        assert load_sample(p).x.tolist() == [1.0, 3.0]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_once(self):
        # the vectorized pass reads a file twice, so a pipe goes to the scanner
        r, w = os.pipe()
        try:
            os.write(w, b"x,y\n1,2\n3,4\n")
            os.close(w)
            assert load_sample(f"/dev/fd/{r}").y.tolist() == [2.0, 4.0]
        finally:
            os.close(r)

    @pytest.mark.parametrize("data, line, column", [
        (b"x,y\n1,2\n3,\xff4\n", 3, 3),
        (b"\xff", 1, 1),
        (b"1,2\r\n3,4\r\n\xe9,6\r\n", 3, 1),
        (b"1,2\r3,4\r5,\x80\r", 3, 3),
        (b"\xc3\xa9,2\n3,4\n5,6\xc3", 3, 4),  # a valid two-byte character, then a cut one
        (b"\xef\xbb\xbf1,\xff\n3,4\n", 1, 3),  # columns count from after a byte order mark
        (b"\xef\xbb\xff", 1, 1),  # a cut byte order mark
    ], ids=["lf", "only-byte", "crlf", "cr", "cut-sequence", "bom", "cut-bom"])
    def test_not_utf8_names_line_of_first_bad_byte(self, tmp_path, data, line, column):
        p = tmp_path / "d.csv"
        p.write_bytes(data)
        assert_same(p)
        with pytest.raises(ParseError, match="is not UTF-8$") as exc:
            load_sample(p)
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_break_between_numbers_deep_in_the_file(self, tmp_path):
        p = write(tmp_path, "x,y\n" + rows_text(100_000) + "7,8\u20289,10\n")
        assert _pre_scan(p) == (",", 1)
        assert_same(p)
        with pytest.raises(ParseError) as exc:
            load_sample(p)
        assert str(exc.value) == "line 100002, column 3: expected 2 columns, found 3"

    def test_bad_byte_deep_in_the_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(("x,y\n" + rows_text(100_000)).encode("utf-8") + b"3,\xff4\n")
        assert _pre_scan(p) == (",", 1)  # np.loadtxt meets the byte and fails
        assert_same(p)
        with pytest.raises(ParseError) as exc:
            load_sample(p)
        assert str(exc.value) == "line 100002, column 3: byte 0xff is not UTF-8"
        assert (exc.value.line, exc.value.column) == (100_002, 3)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        p = write(tmp_path, "\ufeffx,y\n1,2\n3,4\n")
        assert _pre_scan(p) == (",", 1)
        assert_same(p)
        assert load_sample(p).x.tolist() == [1.0, 3.0]
        q = write(tmp_path, "\ufeff1,2\r\n3,4\r\n")
        assert _pre_scan(q) == (",", 0)
        assert_same(q)
        assert load_sample(q).x.tolist() == [1.0, 3.0]
        r = write(tmp_path, "1,2\n\ufeff3,4\n")  # only a leading mark is dropped
        assert_same(r)
        with pytest.raises(ParseError, match="^line 2, column 1: not a number"):
            load_sample(r)

    def test_blank_lines_longer_than_a_mebibyte(self, tmp_path):
        blank = " \n\t\r\n\n\r" * (2 ** 20 // 5)
        assert len(blank) > 2 ** 20
        p = write(tmp_path, blank + "x\ty\n1\t2\n3\t4\n")
        assert _pre_scan(p) == ("\t", 4 * (2 ** 20 // 5) + 1)
        assert_same(p)
        assert load_sample(p).y.tolist() == [2.0, 4.0]

    def test_pre_scan_reads_through_the_first_nonblank_line(self, tmp_path, monkeypatch):
        head = "\n \t\nx,y\n"
        stops = []

        class Text(io.StringIO):
            def close(self):
                stops.append(self.tell())
                super().close()

        monkeypatch.setattr(dataio, "open", lambda *args, **kwargs: Text(head + rows_text(1000)),
                            raising=False)
        assert _pre_scan(tmp_path / "unread.csv") == (",", 3)
        assert stops == [len(head)]

    @pytest.mark.parametrize("text", ["x,y\n1,2\n   \n3,4\n", "1\t2\t\n3\t4\n"])
    def test_stripped_lines_stay_on_numpy(self, tmp_path, monkeypatch, text):
        # np.loadtxt(path) refuses these; the scanner's chunk of stripped lines
        # is read by numpy, with no line through float
        p = write(tmp_path, text)
        reference = outcome(line_by_line, p)
        read = chunk_tables(monkeypatch)
        assert outcome(load_sample, p) == reference
        assert read == [True]

    def test_format_error_then_bad_byte_names_the_byte(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"x,y\n1,oops\n3,4\n5,\xff6\n")
        assert_same(p)
        with pytest.raises(ParseError) as exc:
            load_sample(p)
        assert str(exc.value) == "line 4, column 3: byte 0xff is not UTF-8"

    def test_no_file_is_read_whole(self, tmp_path, monkeypatch):
        def whole(*args, **kwargs):
            raise AssertionError("whole file read")

        monkeypatch.setattr(Path, "read_bytes", whole)
        monkeypatch.setattr(Path, "read_text", whole)
        p = write(tmp_path, "x,y\n1,2\n3,oops\n")
        with pytest.raises(ParseError, match="^line 3, column 2: not a number: 'oops'$"):
            load_sample(p)
        q = write(tmp_path, "x,y\n1,2\n   \n3,4\n")
        assert load_sample(q).y.tolist() == [2.0, 4.0]

    def test_columns_are_contiguous(self, tmp_path):
        s = load_sample(write(tmp_path, "1,2\n3,4\n5,6\n"))
        assert s.x.flags.c_contiguous and s.y.flags.c_contiguous
        assert np.array_equal(s.y, [2.0, 4.0, 6.0])


class TestChunks:
    """`_scan_sample` across chunk boundaries, with chunks of a few lines."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(dataio, "_CHUNK_LINES", 3)

    def test_header_fills_the_first_chunk_alone(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "_CHUNK_LINES", 1)
        p = write(tmp_path, "\nx,y\n1,2\n\n3,4\n5,6\n")
        read = chunk_tables(monkeypatch)
        assert _scan_sample(p).y.tolist() == [2.0, 4.0, 6.0]
        assert read[-3:] == [True, True, True]  # one chunk per row, after the header's
        assert_same(p)

    @pytest.mark.parametrize("bad, line, column", [
        ("oops,2", 5, 1),   # the first line of the second chunk
        ("1,oops", 7, 2),   # its last line
        ("1,2,3", 7, 3),
    ])
    def test_bad_cell_at_a_chunk_edge(self, tmp_path, bad, line, column):
        # lines 1-3 are the first chunk, header included; line 4 is blank
        lines = ["x,y", "1,2", "3,4", "", "5,6", "7,8", "9,10", "11,12"]
        lines[line - 1] = bad
        p = write(tmp_path, "\n".join(lines) + "\n")
        assert_same(p)
        with pytest.raises(ParseError) as exc:
            _scan_sample(p)
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_refused_chunk_between_clean_chunks(self, tmp_path, monkeypatch):
        p = write(tmp_path, "1,2\n3,4\n5,6\n1_0,8\n9,\u0661\n11,12\n13,14\n")
        assert_same(p)
        read = chunk_tables(monkeypatch)
        s = load_sample(p)
        assert s.x.tolist() == [1.0, 3.0, 5.0, 10.0, 9.0, 11.0, 13.0]
        assert s.y.tolist() == [2.0, 4.0, 6.0, 8.0, 1.0, 12.0, 14.0]
        assert read == [True, False, True]

    def test_format_error_then_bad_byte_in_a_later_chunk(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"1,2\n3,oops\n5,6\n7,8\n9,10\n11,\xff\n")
        assert_same(p)
        with pytest.raises(ParseError) as exc:
            load_sample(p)
        assert str(exc.value) == "line 6, column 4: byte 0xff is not UTF-8"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_of_several_chunks(self, monkeypatch):
        r, w = os.pipe()
        try:
            os.write(w, b"x,y\n" + rows_text(8).encode())
            os.close(w)
            read = chunk_tables(monkeypatch)
            s = load_sample(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert s.x.tolist() == list(range(8)) and s.y.tolist() == [i + 0.5 for i in range(8)]
        assert read == [True, True, True]


@pytest.mark.parametrize("text", [
    "x,y\n" + rows_text(20) + "1,oops\n",   # a bad last cell
    "x,y\n" + rows_text(20) + "   \n",      # a whitespace-only last line
    "1_0,2\n" + rows_text(20),              # a value only float reads
    "x,y\n1,oops\n" + rows_text(20) + "5,\udcff\n",  # a format error, then a bad byte
    "x,y\n1,2,3\n" + rows_text(20),        # a wrong width
])
def test_a_declined_file_is_read_twice_at_most(tmp_path, monkeypatch, text):
    """`np.loadtxt` parses the path at most once, and `_lines` opens the file
    at most twice: the pre-scan, then the scanner's one pass."""
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode("utf-8", "surrogateescape"))
    monkeypatch.setattr(dataio, "_CHUNK_LINES", 4)
    reference = outcome(line_by_line, p)
    paths, opens = [], []
    loadtxt, lines = np.loadtxt, dataio._lines

    def counted_loadtxt(source, *args, **kwargs):
        if not isinstance(source, list):
            paths.append(source)
        return loadtxt(source, *args, **kwargs)

    def counted_lines(path):
        opens.append(path)
        return lines(path)

    monkeypatch.setattr(np, "loadtxt", counted_loadtxt)
    monkeypatch.setattr(dataio, "_lines", counted_lines)
    assert outcome(load_sample, p) == reference
    assert len(paths) <= 1 and len(opens) <= 2


def test_no_scipy_import_on_cli_path(tmp_path):
    """`import xiboost.cli` loads neither scipy nor the process-pool machinery."""
    data = write(tmp_path, "x,y\n1,2\n2,1\n3,4\n4,3\n")
    code = (
        "import sys\n"
        "def scipy_loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import xiboost.cli\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
        "pool = {'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)\n"
        "assert not pool, pool\n"
        "import xiboost\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
        "from xiboost.cli import cli_dispatch\n"
        f"assert cli_dispatch(['coef', '--method', 'xi-nm', '-M', '2', {str(data)!r}]) == 0\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(xiboost.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("xi-nm = ")
