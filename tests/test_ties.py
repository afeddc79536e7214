"""The tie contract: every entry point that needs a strict order rejects a tie
the same way, naming the smallest tied value at its two lowest 0-based
indices and the coordinate it sits in."""

import re

import pytest

from xiboost import (
    Method,
    MRangeError,
    PermutationTestConfig,
    Sample,
    SizeError,
    TieError,
    compute_ranks,
    permutation_test,
    sorted_y_ranks,
    x_order,
)
from xiboost.cli import cli_dispatch
from xiboost.coefficients import METHODS, score_sample
from xiboost.inference import permutation_reject

TIED = [2.0, 1.0, 1.0, 1.0, 0.0]
UNTIED = [0.3, 0.1, 0.4, 0.5, 0.9]


def _m(method):
    return 1 if METHODS[method].needs_m else None


def _coefficient(method):
    return lambda s: score_sample(s, method, _m(method))


def _permutation_test(method, test=permutation_test):
    cfg = PermutationTestConfig(B=9, alpha=0.05, seed=1, method=method, M=_m(method))
    return lambda s: test(s, cfg)


SAMPLE_ENTRY_POINTS = {
    "sorted_y_ranks": sorted_y_ranks,
    **{f"coefficient[{m.value}]": _coefficient(m) for m in Method if m is not Method.PEARSON},
    **{f"permutation_test[{m.value}]": _permutation_test(m)
       for m in Method if METHODS[m].tested},
    **{f"permutation_reject[{m.value}]": _permutation_test(m, permutation_reject)
       for m in Method if METHODS[m].tested},
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


def _test_entry(test):
    return lambda s, method, M: test(
        s, PermutationTestConfig(B=9, alpha=0.05, seed=1, method=method, M=M))


# (method, M, n, error of the second fault): M past n-1, or n < 5 for Hoeffding's D
SECOND_FAULTS = [(Method.XI_NM, 5, 5, MRangeError), (Method.XI_PM, 5, 5, MRangeError),
                 (Method.HOEFFDING_D, None, 4, SizeError)]
TWO_FAULT_ENTRIES = {
    "coefficient": score_sample,
    "permutation_test": _test_entry(permutation_test),
    "permutation_reject": _test_entry(permutation_reject),
}


@pytest.mark.parametrize("method, M, n, second, entry", [
    pytest.param(method, M, n, second, entry, id=f"{name}[{method.value}]")
    for method, M, n, second in SECOND_FAULTS
    for name, entry in TWO_FAULT_ENTRIES.items()
    if name == "coefficient" or METHODS[method].tested])
def test_tie_is_reported_before_a_second_fault(method, M, n, second, entry):
    """A tied sample that also has M out of range, or too few points for
    Hoeffding's D, reports the tie; without the tie the other fault shows."""
    with pytest.raises(TieError):
        entry(Sample(TIED[:n], UNTIED[:n]), method, M)
    with pytest.raises(second):
        entry(Sample(UNTIED[:n], UNTIED[:n]), method, M)


@pytest.mark.parametrize("method, M, n", [fault[:3] for fault in SECOND_FAULTS],
                         ids=[fault[0].value for fault in SECOND_FAULTS])
def test_tie_is_reported_before_a_second_fault_cli_coef(method, M, n, tmp_path, capsys):
    path = tmp_path / "tied.csv"
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(TIED[:n], UNTIED[:n])))
    argv = ["coef", "--method", method.value, str(path)] + (["-M", str(M)] if M else [])
    assert cli_dispatch(argv) == 1
    assert capsys.readouterr().err.startswith("xiboost: error: tied value 1.0 in x")
