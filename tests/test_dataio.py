"""The loader against a pure line-by-line reading of the same format.

`load_sample` opens a file once and reads it through its first nonblank line
for the delimiter and the header. It parses the rows after it with one
`np.loadtxt` pass over the path, or, where that pass cannot read them exactly
as a line-by-line reading would, reads the rest of the open file in chunks of
raw lines, one `np.loadtxt` parse each. A chunk numpy refuses is stripped line
by line and parsed by numpy once more, and read through `float` only where
numpy refuses that too. The reference is `load_sample` with numpy refusing
every parse: every line through `float`. On any text the loader, the loader
with the path pass refused (the chunks alone) and the reference must agree:
bit-identical coordinates, or the same exception type and message, which
names the line and column.
"""

import builtins
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xiboost
from xiboost import ParseError, SizeError, dataio
from xiboost.dataio import load_sample

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
    """`load_sample` with `np.loadtxt` refusing the path and every chunk, so
    that each line goes through `float`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_loadtxt", lambda source, delimiter, skiprows: None)
        return load_sample(path)


def chunked(path):
    """`load_sample` with `np.loadtxt` refusing the path, so that the chunks
    of raw lines read every row."""
    loadtxt = dataio._loadtxt
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_loadtxt", lambda source, delimiter, skiprows:
                   loadtxt(source, delimiter, skiprows) if isinstance(source, list) else None)
        return load_sample(path)


def assert_same(path):
    reference = outcome(line_by_line, path)
    assert outcome(load_sample, path) == reference
    assert outcome(chunked, path) == reference


def chunk_tables(monkeypatch):
    """Record what `load_sample` parses: `paths`, the (delimiter, skiprows) of
    each `np.loadtxt` parse of the path; `chunks`, for each chunk of raw
    lines, whether numpy read it at width 2; `stripped`, for each refused
    chunk's stripped nonblank lines, whether numpy read one row of 2 from
    each; `floated`, the number of each line read through `float` by
    `_float_rows`."""
    reads = SimpleNamespace(paths=[], chunks=[], stripped=[], floated=[])
    loadtxt, float_rows = dataio._loadtxt, dataio._float_rows

    def recording_loadtxt(source, delimiter, skiprows):
        table = loadtxt(source, delimiter, skiprows)
        if not isinstance(source, list):
            reads.paths.append((delimiter, skiprows))
        elif reads.chunks.count(False) > len(reads.stripped):  # a refused chunk, stripped
            reads.stripped.append(table is not None and table.shape == (len(source), 2))
        else:
            reads.chunks.append(table is not None and table.shape[1] == 2)
        return table

    def recording_float_rows(lines, delimiter):
        reads.floated += [lineno for lineno, _ in lines]
        return float_rows(lines, delimiter)

    monkeypatch.setattr(dataio, "_loadtxt", recording_loadtxt)
    monkeypatch.setattr(dataio, "_float_rows", recording_float_rows)
    return reads


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

    @pytest.mark.parametrize("text, head", [
        ("x,y\n1,2\n3,4\n", (",", 1)),
        ("\n\n 1 ,2\r\n3,4\r\n\n", (",", 2)),
        ("a\tb\n1\t2\n3\t4", ("\t", 1)),
    ])
    def test_fast_path_taken_on_clean_files(self, tmp_path, monkeypatch, text, head):
        p = write(tmp_path, text)
        assert_same(p)
        reads = chunk_tables(monkeypatch)
        load_sample(p)
        assert (reads.paths, reads.chunks, reads.floated) == ([head], [], [])

    @pytest.mark.parametrize("brk", SPLITLINES_ONLY)
    def test_splitlines_only_breaks(self, tmp_path, monkeypatch, brk):
        # no line ends at them: between two numbers they make a third column
        p = write(tmp_path, f"x,y\n5,6\n1,2{brk}3,4\n")
        assert_same(p)
        with pytest.raises(ParseError, match="^line 3, column 3: expected 2 columns, found 3$"):
            load_sample(p)
        # and at the edge of a field they are whitespace
        q = write(tmp_path, f"1{brk},2\n{brk}3,4{brk}\n")
        assert_same(q)
        reads = chunk_tables(monkeypatch)
        assert load_sample(q).x.tolist() == [1.0, 3.0]
        assert (reads.paths, reads.chunks) == ([(",", 0)], [])

    @pytest.mark.parametrize("text", [
        "x,y\n1,2\n   \n3,4\n",            # whitespace-only line
        "1\t2\t\n3\t4\n",                 # a trailing tab, stripped from the first line
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
    @pytest.mark.parametrize("data", [
        b"x,y\n1,2\n3,4\n",
        b"1,2\n   \n3,4\n",  # a chunk numpy refuses
        b"x,y\n1,2\n3,oops\n",
    ], ids=["clean", "refused", "bad-cell"])
    def test_pipe_is_read_once(self, tmp_path, monkeypatch, data):
        # numpy would open the path a second time, so a pipe is read in chunks
        p = tmp_path / "d.csv"
        p.write_bytes(data)
        reference = outcome(line_by_line, p)
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            reads = chunk_tables(monkeypatch)
            assert outcome(load_sample, f"/dev/fd/{r}") == reference
        finally:
            os.close(r)
        assert reads.paths == [] and len(reads.chunks) == 1

    @pytest.mark.parametrize("data, line, column", [
        (b"x,y\n1,2\n3,\xff4\n", 3, 3),
        (b"\xff", 1, 1),
        (b"1,2\r\n3,4\r\n\xe9,6\r\n", 3, 1),
        (b"1,2\r3,4\r5,\x80\r", 3, 3),
        (b"\xc3\xa9,2\n3,4\n5,6\xc3", 3, 4),  # a valid two-byte character, then a cut one
        (b"\xef\xbb\xbf1,\xff\n3,4\n", 1, 3),  # columns count from after a byte order mark
        (b"\xef\xbb\xff", 1, 1),  # a cut byte order mark
        (b"1,2\n3,\xff\n5,\xfe\n", 2, 3),  # a later bad byte is not named
    ], ids=["lf", "only-byte", "crlf", "cr", "cut-sequence", "bom", "cut-bom", "two-bytes"])
    def test_not_utf8_names_line_of_first_bad_byte(self, tmp_path, data, line, column):
        p = tmp_path / "d.csv"
        p.write_bytes(data)
        assert_same(p)
        with pytest.raises(ParseError, match="is not UTF-8$") as exc:
            load_sample(p)
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_break_between_numbers_deep_in_the_file(self, tmp_path, monkeypatch):
        p = write(tmp_path, "x,y\n" + rows_text(100_000) + "7,8\u20289,10\n")
        assert_same(p)
        reads = chunk_tables(monkeypatch)
        with pytest.raises(ParseError) as exc:
            load_sample(p)
        assert str(exc.value) == "line 100002, column 3: expected 2 columns, found 3"
        assert reads.paths == [(",", 1)]
        assert reads.chunks[:6] == [True] * 6 and reads.chunks[6:] == [False]
        assert reads.stripped == [False]
        assert reads.floated == list(range(6 * 2 ** 14 + 2, 100_003))

    def test_bad_byte_deep_in_the_file(self, tmp_path, monkeypatch):
        p = tmp_path / "d.csv"
        p.write_bytes(("x,y\n" + rows_text(100_000)).encode("utf-8") + b"3,\xff4\n")
        assert_same(p)
        reads = chunk_tables(monkeypatch)
        with pytest.raises(ParseError) as exc:
            load_sample(p)
        assert str(exc.value) == "line 100002, column 3: byte 0xff is not UTF-8"
        assert (exc.value.line, exc.value.column) == (100_002, 3)
        # np.loadtxt meets the byte and fails, and so does the chunk holding it
        assert reads.paths == [(",", 1)] and reads.chunks == [True] * 6 + [False]
        assert reads.stripped == reads.floated == []

    def test_byte_order_mark_is_dropped(self, tmp_path, monkeypatch):
        p = write(tmp_path, "\ufeffx,y\n1,2\n3,4\n")
        q = write(tmp_path, "\ufeff1,2\r\n3,4\r\n", name="e.csv")
        assert_same(p)
        assert_same(q)
        reads = chunk_tables(monkeypatch)
        assert load_sample(p).x.tolist() == [1.0, 3.0]
        assert load_sample(q).x.tolist() == [1.0, 3.0]
        assert reads.paths == [(",", 1), (",", 0)] and reads.chunks == []
        r = write(tmp_path, "1,2\n\ufeff3,4\n")  # only a leading mark is dropped
        assert_same(r)
        with pytest.raises(ParseError, match="^line 2, column 1: not a number"):
            load_sample(r)

    def test_blank_lines_longer_than_a_mebibyte(self, tmp_path, monkeypatch):
        blank = " \n\t\r\n\n\r" * (2 ** 20 // 5)
        assert len(blank) > 2 ** 20
        p = write(tmp_path, blank + "x\ty\n1\t2\n3\t4\n")
        assert_same(p)
        reads = chunk_tables(monkeypatch)
        assert load_sample(p).y.tolist() == [2.0, 4.0]
        assert reads.paths == [("\t", 4 * (2 ** 20 // 5) + 1)] and reads.chunks == []

    @pytest.mark.parametrize("text, chunks, stripped", [
        ("x,y\n1,2\n   \n3,4\n", [False], [True]),
        ("1\t2\t\n3\t4\t\n", [False], [True]),
        ("1\t2\t\n3\t4\n", [True], []),  # the first line is read stripped
    ], ids=["blank", "tabs", "first-tab"])
    def test_stripped_lines_stay_on_numpy(self, tmp_path, monkeypatch, text, chunks, stripped):
        # np.loadtxt(path) refuses each file; numpy reads the chunk, raw or
        # stripped, with no line through float
        p = write(tmp_path, text)
        reference = outcome(line_by_line, p)
        reads = chunk_tables(monkeypatch)
        assert outcome(load_sample, p) == reference
        assert len(reads.paths) == 1
        assert (reads.chunks, reads.stripped, reads.floated) == (chunks, stripped, [])

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
    """`load_sample` across chunk boundaries, with chunks of a few raw lines."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(dataio, "_CHUNK_LINES", 3)

    def test_header_then_one_chunk_per_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "_CHUNK_LINES", 1)
        p = write(tmp_path, "\nx,y\n1,2\n\n3,4\n5,6\n")
        assert_same(p)
        reads = chunk_tables(monkeypatch)
        assert chunked(p).y.tolist() == [2.0, 4.0, 6.0]
        # the header is read before the chunks; numpy reads a blank chunk at
        # width 1, and its stripped lines, none, at width 1 too
        assert reads.chunks == [True, False, True, True] and reads.stripped == [False]
        assert reads.floated == []

    @pytest.mark.parametrize("bad, line, column", [
        ("oops,2", 5, 1),   # the first line of the second chunk
        ("1,oops", 7, 2),   # its last line
        ("1,2,3", 7, 3),
    ])
    def test_bad_cell_at_a_chunk_edge(self, tmp_path, monkeypatch, bad, line, column):
        # line 1 is the header; lines 2-4 are the first chunk, line 4 blank
        lines = ["x,y", "1,2", "3,4", "", "5,6", "7,8", "9,10", "11,12"]
        lines[line - 1] = bad
        p = write(tmp_path, "\n".join(lines) + "\n")
        assert_same(p)
        reads = chunk_tables(monkeypatch)
        with pytest.raises(ParseError) as exc:
            load_sample(p)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert reads.chunks == [True, False] and reads.stripped == [False]
        assert reads.floated == [5, 6, 7]

    @pytest.mark.parametrize("first, line, column", [
        ("1,oops", 1, 2),
        ("1_0,2,3", 1, 3),
        ("\n \n7,", 3, 2),
    ])
    def test_bad_first_line_without_a_header(self, tmp_path, monkeypatch, first, line, column):
        # a first nonblank line with a field that parses is a data row, read
        # stripped as the first line of the first chunk
        p = write(tmp_path, first + "\n" + rows_text(5))
        assert_same(p)
        reads = chunk_tables(monkeypatch)
        with pytest.raises(ParseError) as exc:
            load_sample(p)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert reads.chunks == reads.stripped == [False] and reads.floated[0] == line

    def test_refused_chunk_between_clean_chunks(self, tmp_path, monkeypatch):
        p = write(tmp_path, "1,2\n3,4\n5,6\n1_0,8\n9,\u0661\n11,12\n13,14\n")
        assert_same(p)
        reads = chunk_tables(monkeypatch)
        s = load_sample(p)
        assert s.x.tolist() == [1.0, 3.0, 5.0, 10.0, 9.0, 11.0, 13.0]
        assert s.y.tolist() == [2.0, 4.0, 6.0, 8.0, 1.0, 12.0, 14.0]
        # the clean chunks are numpy's alone
        assert reads.chunks == [True, False, True] and reads.stripped == [False]
        assert reads.floated == [4, 5, 6]

    def test_a_blank_line_in_every_chunk_stays_on_numpy(self, tmp_path, monkeypatch):
        # numpy refuses each raw chunk and reads each one stripped
        p = write(tmp_path, "x,y\n" + "".join(f"{i},{i}.5\n \t\n" for i in range(6)))
        assert_same(p)
        reads = chunk_tables(monkeypatch)
        assert load_sample(p).x.tolist() == list(range(6))
        assert reads.chunks == [False] * 4 and reads.stripped == [True] * 4
        assert reads.floated == []

    def test_bad_byte_in_an_otherwise_clean_chunk(self, tmp_path, monkeypatch):
        p = tmp_path / "d.csv"
        p.write_bytes(b"x,y\n1,2\n3,4\n5,6\n7,8\n9,1\xff0\n11,12\n13,14\n")
        assert_same(p)
        reads = chunk_tables(monkeypatch)
        with pytest.raises(ParseError) as exc:
            load_sample(p)
        assert str(exc.value) == "line 6, column 4: byte 0xff is not UTF-8"
        # the byte is named before its chunk is stripped or any line goes through float
        assert reads.chunks == [True, False] and reads.stripped == reads.floated == []

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
            os.write(w, b"x,y\n" + rows_text(7).encode() + b"   \n7,7.5\n")
            os.close(w)
            reads = chunk_tables(monkeypatch)
            s = load_sample(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert s.x.tolist() == list(range(8)) and s.y.tolist() == [i + 0.5 for i in range(8)]
        assert reads.paths == [] and reads.chunks == [True, True, False]
        assert reads.stripped == [True] and reads.floated == []


@pytest.mark.parametrize("text", [
    "x,y\n" + rows_text(20),                 # clean
    "\n\n" + rows_text(20),                  # clean, no header
    "x,y\n" + rows_text(20) + "1,oops\n",   # a bad last cell
    "x,y\n" + rows_text(20) + "   \n",      # a whitespace-only last line
    "1_0,2\n" + rows_text(20),              # a value only float reads
    "x,y\n1,oops\n" + rows_text(20) + "5,\udcff\n",  # a format error, then a bad byte
    "x,y\n1,2,3\n" + rows_text(20),        # a wrong width
    "x,y\n1,2\n",                          # one row
], ids=["clean", "clean-no-header", "bad-last-cell", "blank-last-line", "underscore",
        "format-then-byte", "wrong-width", "one-row"])
def test_a_file_is_opened_once_and_its_head_read_once(tmp_path, monkeypatch, text):
    """dataio opens the file once, `np.loadtxt` parses its path at most once,
    and `_head` reads the first nonblank line once, on a clean file and on a
    file the path parse refuses alike."""
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode("utf-8", "surrogateescape"))
    monkeypatch.setattr(dataio, "_CHUNK_LINES", 4)
    reference = outcome(line_by_line, p)
    opens, paths, heads = [], [], []
    loadtxt, head = np.loadtxt, dataio._head

    def counted_open(*args, **kwargs):
        opens.append(args[0])
        return builtins.open(*args, **kwargs)

    def counted_loadtxt(source, *args, **kwargs):
        if not isinstance(source, list):
            paths.append(source)
        return loadtxt(source, *args, **kwargs)

    def counted_head(line):
        heads.append(line)
        return head(line)

    monkeypatch.setattr(dataio, "open", counted_open, raising=False)
    monkeypatch.setattr(np, "loadtxt", counted_loadtxt)
    monkeypatch.setattr(dataio, "_head", counted_head)
    assert outcome(load_sample, p) == reference
    assert opens == [p] and len(paths) <= 1 and len(heads) == 1


def test_a_clean_file_is_read_by_hand_through_its_head_only(tmp_path, monkeypatch):
    # the open handle stops after the header; np.loadtxt reads the rows by path
    head = "\n \t\nx,y\n"
    p = write(tmp_path, head + rows_text(1000))
    stops = []

    class Text(io.StringIO):
        def close(self):
            stops.append(self.tell())
            super().close()

    monkeypatch.setattr(dataio, "open", lambda *args, **kwargs: Text(head + rows_text(1000)),
                        raising=False)
    reads = chunk_tables(monkeypatch)
    assert load_sample(p).x.tolist() == list(range(1000))
    assert stops == [len(head)] and reads.paths == [(",", 3)] and reads.chunks == []


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
