import re
from pathlib import Path

from clustertubes import config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_states_every_limit_with_its_value():
    limits = {name: value for name, value in vars(config).items()
              if re.fullmatch(r"[A-Z][A-Z_]*", name) and isinstance(value, int)}
    assert "STRUCTURED_RANK" in limits
    for name, value in limits.items():
        assert f"`{name} = {value:_}`" in README, name

