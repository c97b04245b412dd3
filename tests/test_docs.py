import argparse
import re
from pathlib import Path

from clustertubes import config
from clustertubes.cli import build_parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_states_every_limit_with_its_value():
    limits = {name: value for name, value in vars(config).items()
              if re.fullmatch(r"[A-Z][A-Z_]*", name) and isinstance(value, int)}
    assert "STRUCTURED_RANK" in limits
    for name, value in limits.items():
        assert f"`{name} = {value:_}`" in README, name


def test_readme_states_how_many_checks_verify_prints(capsys):
    assert main(["verify", "--n", "1"]) == 0
    rows = capsys.readouterr().out.split("\n\n")[0].splitlines()
    words = ["zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten"]
    stated = re.findall(r"(?:verify --n 5 +# |prints the same\s+)(\w+) checks", README)
    assert stated == [words[len(rows)]] * 2  # the usage comment and the paragraph


def test_readme_shows_every_subcommand():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert len(subparsers.choices) >= 10
    for command in subparsers.choices:
        assert re.search(rf"\bclustertubes {command}\b", README), command
