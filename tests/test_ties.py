"""The tie contract: every entry point that needs a strict order rejects a tie
the same way, naming the smallest tied value at its two lowest 0-based
indices and the coordinate it sits in."""

import re

import pytest

from xiboost import (
    Method,
    PermutationTestConfig,
    Sample,
    TieError,
    compute_ranks,
    permutation_test,
    sorted_y_ranks,
    x_order,
)
from xiboost.cli import cli_dispatch
from xiboost.coefficients import METHODS

TIED = [2.0, 1.0, 1.0, 1.0, 0.0]
UNTIED = [0.3, 0.1, 0.4, 0.5, 0.9]


def _m(method):
    return 1 if METHODS[method].needs_m else None


def _coefficient(method):
    return lambda s: METHODS[method].coefficient(s, _m(method))


def _permutation_test(method):
    cfg = PermutationTestConfig(B=9, alpha=0.05, seed=1, method=method, M=_m(method))
    return lambda s: permutation_test(s, cfg)


SAMPLE_ENTRY_POINTS = {
    "sorted_y_ranks": sorted_y_ranks,
    **{f"coefficient[{m.value}]": _coefficient(m) for m in Method if m is not Method.PEARSON},
    **{f"permutation_test[{m.value}]": _permutation_test(m)
       for m in Method if METHODS[m].score is not None},
}

# (entry point on a Sample, tied coordinate, coordinate the error names)
TIE_CASES = [
    pytest.param(lambda s: x_order(s.x), "x", "x", id="x_order"),
    pytest.param(lambda s: compute_ranks(s.x), "x", "values", id="compute_ranks"),
    *(pytest.param(fn, c, c, id=f"{name}-{c}")
      for name, fn in SAMPLE_ENTRY_POINTS.items() for c in "xy"),
]


def tied_sample(coordinate):
    return Sample(TIED, UNTIED) if coordinate == "x" else Sample(UNTIED, TIED)


@pytest.mark.parametrize("entry, tied, coordinate", TIE_CASES)
def test_tie_contract(entry, tied, coordinate):
    with pytest.raises(TieError) as exc:
        entry(tied_sample(tied))
    e = exc.value
    assert (e.index_a, e.index_b, e.value, e.coordinate) == (1, 2, 1.0, coordinate)


@pytest.mark.parametrize("coordinate", ["x", "y"])
def test_tie_contract_cli_coef(coordinate, tmp_path, capsys):
    s = tied_sample(coordinate)
    path = tmp_path / "tied.csv"
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(s.x.tolist(), s.y.tolist())))
    assert cli_dispatch(["coef", "--method", "xi-nm", "-M", "1", str(path)]) == 1
    m = re.search(r"tied value (\S+) in (\w+) at positions (\d+) and (\d+)",
                  capsys.readouterr().err)
    assert (int(m[3]), int(m[4]), float(m[1]), m[2]) == (1, 2, 1.0, coordinate)
