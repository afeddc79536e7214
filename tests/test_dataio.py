"""The vectorized loader against the line scanner it falls back to.

`load_sample` parses with one `np.loadtxt` pass and hands every file that pass
cannot read exactly as the scanner would to `_scan_sample`. On any text the
two must agree: bit-identical coordinates, or the same exception type and
message.
"""

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
from xiboost import ParseError, SizeError
from xiboost.dataio import _load_vectorized, _scan_sample, load_sample

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


def assert_same(path):
    assert outcome(load_sample, path) == outcome(_scan_sample, path)


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_bytes(text.encode("utf-8"))
    return p


@st.composite
def data_files(draw):
    """File text: repr floats and odd tokens, comma/tab/", " separators, optional
    headers, rows of 1-3 fields, blank and whitespace-only lines, and every line
    break. A per-file rate sets how often a choice is odd, so clean files that
    the vectorized pass reads are drawn as often as broken ones."""
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
    @settings(max_examples=300, deadline=None)
    @given(text=data_files())
    def test_differential(self, tmp_path_factory, text):
        assert_same(write(tmp_path_factory.mktemp("fuzz"), text))

    def test_fast_path_taken_on_clean_files(self, tmp_path):
        for text in ["x,y\n1,2\n3,4\n", "\n\n 1 ,2\r\n3,4\r\n\n", "a\tb\n1\t2\n3\t4"]:
            p = write(tmp_path, text)
            assert _load_vectorized(p) is not None
            assert_same(p)

    @pytest.mark.parametrize("brk", SPLITLINES_ONLY)
    def test_splitlines_only_breaks(self, tmp_path, brk):
        # loadtxt strips these as whitespace inside a field; the scanner ends the line
        p = write(tmp_path, f"x,y\n1,2{brk}\n3,4\n5,6\n")
        assert _load_vectorized(p) is None
        assert_same(p)
        q = write(tmp_path, f"1,2\n3,4{brk}5,6\n")
        assert load_sample(q).y.tolist() == [2.0, 4.0, 6.0]

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

    def test_columns_are_contiguous(self, tmp_path):
        s = load_sample(write(tmp_path, "1,2\n3,4\n5,6\n"))
        assert s.x.flags.c_contiguous and s.y.flags.c_contiguous
        assert np.array_equal(s.y, [2.0, 4.0, 6.0])


def test_no_scipy_import_on_cli_path(tmp_path):
    data = write(tmp_path, "x,y\n1,2\n2,1\n3,4\n4,3\n")
    code = (
        "import sys\n"
        "def scipy_loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import xiboost.cli\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
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
