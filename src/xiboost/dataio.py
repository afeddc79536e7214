"""File ingestion and report serialization.

Datasets are two-column CSV (comma or tab, optional header). Reports round
trip losslessly: JSON keeps native types, CSV writes floats with 17
significant digits and a decimal marker so numeric values re-parse exactly.
"""

from __future__ import annotations

import json
import re
import warnings
from pathlib import Path
from typing import Optional, Union

from .errors import ParseError, SizeError
from .ranks import Sample
from .simulation import StudyReport

import numpy as np

# Line breaks that str.splitlines honours and np.loadtxt does not: text holding
# one of them is left to the line scanner.
_SPLITLINES_ONLY_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# np.loadtxt decompresses a file whose name ends in one of these; the line
# scanner reads every file as text.
_LOADTXT_DECOMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _parse_float(token: str) -> float:
    return float(token.strip())


def _parses(token: str) -> bool:
    try:
        _parse_float(token)
    except ValueError:
        return False
    return True


def load_sample(path: Union[str, Path]) -> Sample:
    """Read a two-column numeric file into a Sample.

    The delimiter (comma or tab) is taken from the first nonblank line; that
    line is treated as a header when none of its fields parse as numbers.
    Rows keep file order, and tied rows are kept: a rank statistic rejects a
    tie, naming the coordinate and the two lowest 0-based data rows, while
    Pearson's r accepts it.

    The rows after the header are parsed in one vectorized ``np.loadtxt``
    pass. A line scanner reads the file instead whenever that pass fails or
    could read the text differently: a wrong shape, fewer than 2 rows, a
    whitespace-only line, a line break only ``str.splitlines`` knows, a name
    ``np.loadtxt`` would decompress, or a path that is not a regular file (a
    pipe can be read only once). The scanner gives the same values and is
    the one source of the :class:`ParseError` line and column and of the
    :class:`SizeError`, so a malformed file is read twice.
    """
    sample = _load_vectorized(path)
    return sample if sample is not None else _scan_sample(path)


def _load_vectorized(path: Union[str, Path]) -> Optional[Sample]:
    """The sample from one ``np.loadtxt`` pass, or None where the scanner must decide."""
    path = Path(path)
    if not path.is_file() or path.suffix in _LOADTXT_DECOMPRESSED:
        return None  # a pipe cannot be read twice
    text = path.read_text()
    first = re.search(r"\S", text)
    if first is None or any(brk in text for brk in _SPLITLINES_ONLY_BREAKS):
        return None
    start = first.start()
    end = text.find("\n", start)
    if end < 0:
        return None  # one nonblank line holds at most one row
    line = text[start:end].strip()
    delimiter = "\t" if "\t" in line else ","
    header = not any(_parses(f) for f in line.split(delimiter))
    skiprows = text.count("\n", 0, end + 1 if header else start)
    del text  # np.loadtxt reads the file itself; hold no copy meanwhile
    with warnings.catch_warnings():
        # a header followed by blank lines only; the scanner raises SizeError
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            table = np.loadtxt(path, dtype=np.float64, comments=None,
                               delimiter=delimiter, skiprows=skiprows, ndmin=2)
        except ValueError:
            return None
    if table.shape[1] != 2 or table.shape[0] < 2:
        return None
    x, y = table.T.copy()
    return Sample(x, y)


def _scan_sample(path: Union[str, Path]) -> Sample:
    """Line-by-line reading of :func:`load_sample`'s format, naming the first bad cell."""
    text = Path(path).read_text()
    xs: list[float] = []
    ys: list[float] = []
    delimiter = None
    saw_data_or_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if delimiter is None:
            delimiter = "\t" if "\t" in line else ","
        fields = [f.strip() for f in line.split(delimiter)]
        if not saw_data_or_header:
            saw_data_or_header = True
            parses = []
            for f in fields:
                try:
                    _parse_float(f)
                    parses.append(True)
                except ValueError:
                    parses.append(False)
            if not any(parses):
                continue  # header row
        if len(fields) != 2:
            raise ParseError(lineno, len(fields) if len(fields) < 2 else 3,
                             f"expected 2 columns, found {len(fields)}")
        row = []
        for col, f in enumerate(fields, start=1):
            if f == "":
                raise ParseError(lineno, col, "missing value")
            try:
                row.append(_parse_float(f))
            except ValueError:
                raise ParseError(lineno, col, f"not a number: {f!r}") from None
        xs.append(row[0])
        ys.append(row[1])
    if len(xs) < 2:
        raise SizeError(f"need at least 2 data rows, found {len(xs)}")
    return Sample(np.asarray(xs), np.asarray(ys))


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
    payload = {
        "schema_version": report.schema_version,
        "kind": report.kind,
        "meta": report.meta,
        "rows": report.rows,
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def report_from_json(text: str) -> StudyReport:
    payload = json.loads(text)
    return StudyReport(
        kind=payload["kind"],
        meta=payload["meta"],
        rows=payload["rows"],
        schema_version=payload["schema_version"],
    )


def report_to_csv(report: StudyReport) -> str:
    lines = [f"# schema_version={report.schema_version}", f"# kind={report.kind}"]
    for key, value in report.meta.items():
        lines.append(f"# meta.{key}={_format_cell(value)}")
    if report.rows:
        columns = list(report.rows[0].keys())
        lines.append(",".join(columns))
        for row in report.rows:
            lines.append(",".join(_format_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def report_from_csv(text: str) -> StudyReport:
    meta: dict = {}
    kind = ""
    schema_version = 1
    columns: list[str] = []
    rows: list[dict] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, _, value = body.partition("=")
            key = key.strip()
            if key == "schema_version":
                schema_version = int(value)
            elif key == "kind":
                kind = value
            elif key.startswith("meta."):
                meta[key[5:]] = _parse_cell(value)
            continue
        cells = line.split(",")
        if not columns:
            columns = cells
            continue
        if len(cells) != len(columns):
            raise ParseError(lineno, len(cells), "row width does not match header")
        rows.append({c: _parse_cell(v) for c, v in zip(columns, cells)})
    return StudyReport(kind=kind, meta=meta, rows=rows, schema_version=schema_version)


def format_report(report: StudyReport, path=None, fmt: str = None) -> str:
    """Serialize as `fmt` ("csv" or "json"), else as csv for a .csv `path`, else json."""
    if fmt is None:
        fmt = "csv" if path is not None and Path(path).suffix.lower() == ".csv" else "json"
    return report_to_csv(report) if fmt == "csv" else report_to_json(report)


def write_report(report: StudyReport, path: Union[str, Path], fmt: str = None) -> None:
    """Write to `path` in the format :func:`format_report` picks."""
    Path(path).write_text(format_report(report, path, fmt))


# ---------------------------------------------------------------------------
# key=value config files


def parse_config_file(path: Union[str, Path]) -> dict:
    """Read a key=value file mirroring CLI flags; '#' starts a comment."""
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(lineno, 1, f"expected key=value, got {line!r}")
        out[key.strip().replace("-", "_")] = value.strip()
    return out
