"""File ingestion and report serialization.

Datasets are two-column CSV (comma or tab, optional header). This module
opens each data or config file once and reads it line by line, or a data
file in chunks of lines; none is held whole. ``np.loadtxt`` opens a regular
data file's path once more. Reports round trip losslessly: JSON keeps
native types, CSV writes floats with 17 significant digits and a decimal
marker so numeric values re-parse exactly, and quotes a text cell only where
the csv module must. CSV cells are untyped, so text that reads as a number
comes back as that number, and empty text as None.
"""

from __future__ import annotations

import io
import json
import warnings
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .errors import ConfigError, ParseError, SizeError
from .ranks import Sample
from .simulation import StudyReport

import numpy as np

# np.loadtxt decompresses a file whose name ends in one of these; load_sample
# reads every file as text.
_LOADTXT_DECOMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
# Lines per np.loadtxt parse of a file the path parse does not read. On a
# 1e6-row file with a whitespace-only last line, or one every 1000 rows, the
# coef CLI peaked at 76.6 or 69.0 MB with 2^12, 70.4 or 70.1 MB with 2^14 and
# 71.0 or 70.0 MB with 2^16, in times alike.
_CHUNK_LINES = 2 ** 14


def _parses(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _head(line: str) -> tuple[str, bool]:
    """The delimiter of the first nonblank line, tab if it holds one and comma
    otherwise, and whether that line is a header: none of its fields parses."""
    delimiter = "\t" if "\t" in line else ","
    return delimiter, not any(_parses(f) for f in line.split(delimiter))


def _lines(lines: Iterable[str], first: int) -> Iterator[tuple[int, str]]:
    """The number, counted from `first`, and the stripped text of each
    nonblank line of `lines`, which come from a file opened in the text mode
    ``np.loadtxt(path)`` reads in (UTF-8 less a leading byte order mark, a
    line ending at "\\n", "\\r\\n" or "\\r"), with "surrogateescape" errors.
    A byte that is not UTF-8 raises :class:`ParseError` naming its line and,
    counted in characters after any byte order mark, its column."""
    for lineno, line in enumerate(lines, start=first):
        if not line.isascii():  # surrogateescape maps byte b to U+DC00 + b
            bad = next((i for i, ch in enumerate(line) if "\udc80" <= ch <= "\udcff"), None)
            if bad is not None:
                raise ParseError(lineno, bad + 1,
                                 f"byte 0x{ord(line[bad]) - 0xdc00:02x} is not UTF-8")
        line = line.strip()
        if line:
            yield lineno, line


def load_sample(path: Union[str, Path]) -> Sample:
    """Read a two-column numeric file into a Sample.

    The file is UTF-8, less any leading byte order mark. A line ends at
    "\\n", "\\r\\n" or "\\r", as text-mode ``open`` and ``np.loadtxt``
    read lines. Other breaks of ``str.splitlines``, such as "\\f" or U+2028,
    are ordinary characters: whitespace at a field's edge.

    The delimiter (comma or tab) is taken from the first nonblank line; that
    line is treated as a header when none of its fields parse as numbers.
    Rows keep file order, and tied rows are kept: a rank statistic rejects a
    tie, naming the coordinate and the two lowest 0-based data rows, while
    Pearson's r accepts it.

    The file is opened once and read through its first nonblank line, which
    gives the delimiter and the header. The rows after it are then one
    ``np.loadtxt`` parse of the path, unless numpy refuses them (a
    whitespace-only line, say) or could read the text differently (a wrong
    width, fewer than 2 rows, a name it would decompress, or a pipe, which
    can be read only once). Then the rest of the open file is read in chunks
    of `_CHUNK_LINES` lines, and numpy parses each chunk once, its lines
    stripped: it skips the empty strings that blank lines become and reads
    one row from each other line. Only a chunk numpy refuses, or reads at a
    width other than 2, is read line by line through ``float``, with the
    same values. That reading is the one source of the :class:`ParseError`
    line and column. A byte that is not UTF-8 makes numpy refuse its chunk,
    and a file that holds one raises :class:`ParseError` at the line of its
    first bad byte, wherever a format error lies.
    """
    tables = []
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as f:
        # a bad byte up to the first nonblank line is the file's first
        head = next(_lines(f, 1), None)
        if head is not None:
            lineno, line = head
            delimiter, header = _head(line)
            path = Path(path)
            if path.is_file() and path.suffix not in _LOADTXT_DECOMPRESSED:
                table = _loadtxt(path, delimiter, lineno - 1 + header)
                if table is not None and table.shape[1] == 2 and table.shape[0] >= 2:
                    return Sample(*table.T.copy())
            rest = f if header else chain([line], f)
            lineno += header
            while chunk := list(islice(rest, _CHUNK_LINES)):
                table = _loadtxt(map(str.strip, chunk), delimiter, 0)
                if table is None or table.shape[1] != 2:
                    lines = list(_lines(chunk, lineno))  # a bad byte here is the file's first
                    try:
                        table = _float_rows(lines, delimiter)
                    except ParseError:
                        for _ in _lines(f, lineno + len(chunk)):
                            pass  # a bad byte later in the file is the error named
                        raise
                tables.append(table)
                lineno += len(chunk)
    rows = sum(map(len, tables))
    if rows < 2:
        raise SizeError(f"need at least 2 data rows, found {rows}")
    return Sample(*(np.concatenate([table[:, i] for table in tables]) for i in (0, 1)))


def _loadtxt(source, delimiter: str, skiprows: int) -> Optional[np.ndarray]:
    """The rows of `source`, a path or an iterable of lines, from one
    ``np.loadtxt`` parse, or None where it refuses them."""
    with warnings.catch_warnings():
        # a header followed by blank lines only, or a chunk of blank lines
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(source, dtype=np.float64, comments=None, delimiter=delimiter,
                              skiprows=skiprows, ndmin=2, encoding="utf-8-sig")
        except ValueError:
            return None


def _float_rows(chunk: list, delimiter: str) -> np.ndarray:
    """The rows of `chunk`'s (line number, stripped line) pairs through
    ``float``, which accepts ``1_0`` as numpy does not, naming a bad cell."""
    values = []
    for lineno, line in chunk:
        fields = [f.strip() for f in line.split(delimiter)]
        if len(fields) != 2:
            raise ParseError(lineno, min(len(fields), 3),
                             f"expected 2 columns, found {len(fields)}")
        for col, f in enumerate(fields, start=1):
            if f == "":
                raise ParseError(lineno, col, "missing value")
            try:
                values.append(float(f))
            except ValueError:
                raise ParseError(lineno, col, f"not a number: {f!r}") from None
    return np.array(values, dtype=np.float64).reshape(-1, 2)


# ---------------------------------------------------------------------------
# report serialization


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        s = format(value, ".17g")
        if not any(ch in s for ch in ".eE") and s not in ("inf", "-inf", "nan"):
            s += ".0"
        return s
    return str(value)


def _parse_cell(token: str):
    if token == "":
        return None
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def report_to_json(report: StudyReport) -> str:
    payload = {"schema_version": report.schema_version, "kind": report.kind,
               "meta": report.meta, "rows": report.rows}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def report_from_json(text: str) -> StudyReport:
    payload = json.loads(text)
    return StudyReport(kind=payload["kind"], meta=payload["meta"], rows=payload["rows"],
                       schema_version=payload["schema_version"])


def _csv_record(cells: list) -> str:
    """One CSV record, minimally quoted and ended by "\n". The writer quotes
    a cell that holds a character of its line terminator, so it is given
    "\r\n" to quote a cell holding "\r" as well as "\n"."""
    import csv

    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(cells)
    return out.getvalue()[:-2] + "\n"


def report_to_csv(report: StudyReport) -> str:
    records = [[f"# schema_version={report.schema_version}"], [f"# kind={report.kind}"]]
    records += [[f"# meta.{key}={_format_cell(value)}"] for key, value in report.meta.items()]
    if report.rows:
        columns = list(report.rows[0].keys())
        records.append(columns)
        records += [[_format_cell(row[c]) for c in columns] for row in report.rows]
    return "".join(map(_csv_record, records))


def report_from_csv(text: str) -> StudyReport:
    import csv

    meta: dict = {}
    kind = ""
    schema_version = 1
    columns: list[str] = []
    rows: list[dict] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    for cells in reader:
        if not cells:
            continue
        if not columns and cells[0].startswith("#"):
            # a comment before the header; one that is not quoted may hold commas
            key, _, value = ",".join(cells)[1:].partition("=")
            key = key.strip()
            if key == "schema_version":
                try:
                    schema_version = int(value)
                except ValueError:
                    raise ParseError(reader.line_num, 1,
                                     f"schema_version is not an integer: {value!r}") from None
            elif key == "kind":
                kind = value
            elif key.startswith("meta."):
                meta[key[5:]] = _parse_cell(value)
            continue
        if not columns:
            columns = cells
            continue
        if len(cells) != len(columns):
            raise ParseError(reader.line_num, len(cells), "row width does not match header")
        rows.append({c: _parse_cell(v) for c, v in zip(columns, cells)})
    return StudyReport(kind=kind, meta=meta, rows=rows, schema_version=schema_version)


def format_report(report: StudyReport, path=None, fmt: str = None) -> str:
    """Serialize as `fmt` ("csv" or "json"), else as csv for a .csv `path`, else json."""
    if fmt is None:
        fmt = "csv" if path is not None and Path(path).suffix.lower() == ".csv" else "json"
    if fmt not in ("csv", "json"):
        raise ConfigError(f"report format must be 'csv' or 'json', got {fmt!r}")
    return report_to_csv(report) if fmt == "csv" else report_to_json(report)


def write_report(report: StudyReport, path: Union[str, Path], fmt: str = None) -> None:
    """Write to `path` in the format :func:`format_report` picks."""
    Path(path).write_text(format_report(report, path, fmt))


# ---------------------------------------------------------------------------
# key=value config files


def parse_config_file(path: Union[str, Path]) -> dict:
    """Read a key=value file mirroring CLI flags, with :func:`load_sample`'s
    encoding and line rule; '#' starts a comment."""
    out: dict = {}
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as f:
        lines = _lines(f, 1)
        try:
            for lineno, line in lines:
                if line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ParseError(lineno, 1, f"expected key=value, got {line!r}")
                out[key.strip().replace("-", "_")] = value.strip()
        except ParseError:
            for _ in lines:  # a bad byte later in the file is the error named
                pass
            raise
    return out
