import argparse
import re
from pathlib import Path

from clustertubes import config
from clustertubes.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_states_every_limit_with_its_value():
    limits = {name: value for name, value in vars(config).items()
              if re.fullmatch(r"[A-Z][A-Z_]*", name) and isinstance(value, int)}
    assert "STRUCTURED_RANK" in limits
    for name, value in limits.items():
        assert f"`{name} = {value:_}`" in README, name



def test_readme_shows_every_subcommand():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert len(subparsers.choices) >= 10
    for command in subparsers.choices:
        assert re.search(rf"\bclustertubes {command}\b", README), command
