"""The README's CLI examples stay in step with the CLI: every command of its
"CLI usage" block parses, and its boundary examples run."""

import shlex
from pathlib import Path

import pytest

from xiboost.cli import build_parser, cli_dispatch

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_usage_commands() -> list:
    """The argv of each `xiboost ...` command in the README's "CLI usage" block,
    with continuation lines joined and a `> file` redirect dropped."""
    section = README.read_text().split("## CLI usage", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = []
    for line in block.splitlines():
        if line.startswith("xiboost "):
            argv = shlex.split(line)[1:]
            commands.append(argv[:argv.index(">")] if ">" in argv else argv)
    return commands


COMMANDS = cli_usage_commands()


def test_every_subcommand_has_an_example():
    assert {argv[0] for argv in COMMANDS} == {
        "coef", "test", "power-study", "null-calibration", "consistency", "timing", "boundary"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_example_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


@pytest.mark.parametrize("argv", [a for a in COMMANDS if a[0] == "boundary"], ids=" ".join)
def test_boundary_example_runs(argv, tmp_path):
    out = tmp_path / "curve.csv"
    assert cli_dispatch([*argv, "-o", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header in ("gamma,beta", "n,M,zeta")
    assert rows and all(len(row.split(",")) == len(header.split(",")) for row in rows)
