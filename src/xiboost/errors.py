"""Exception types shared across the library."""


class XiBoostError(Exception):
    """Base class for every domain error raised by this package."""


class NonFiniteError(XiBoostError):
    """Input contains NaN or infinite values."""


class TieError(XiBoostError):
    """Tied values found where a strict ordering is required.

    Carries the smallest tied value, its two lowest 0-based positions and its coordinate.
    """

    def __init__(self, index_a: int, index_b: int, value: float, coordinate: str = ""):
        self.index_a = index_a
        self.index_b = index_b
        self.value = value
        self.coordinate = coordinate
        where = f" in {coordinate}" if coordinate else ""
        super().__init__(
            f"tied value {value!r}{where} at positions {index_a} and {index_b}; "
            "clean the data or enable jitter"
        )


class SizeError(XiBoostError):
    """Sample size outside the supported range."""


class MRangeError(XiBoostError):
    """Neighbor count outside 1..n-1."""


class RhoRangeError(XiBoostError):
    """Correlation parameter outside (-1, 1)."""


class GammaRangeError(XiBoostError):
    """Neighbor-growth exponent outside (0, 1)."""


class RegimeError(XiBoostError):
    """Normal-approximation guard violated (M**4 > n) without override."""


class DegenerateError(XiBoostError):
    """Degenerate input (e.g. a constant coordinate) for the requested statistic."""


class ConfigError(XiBoostError):
    """Invalid test or study configuration."""


class StudyError(XiBoostError):
    """A Monte Carlo study cell failed; the message identifies the cell."""


class ParseError(XiBoostError):
    """Malformed input file; carries 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")
