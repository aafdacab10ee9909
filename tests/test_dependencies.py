"""The floors pyproject.toml declares admit no release the code cannot run on."""

import re
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The oldest release that has every call netreg makes, and the call that sets it.
NEEDED = {
    "numpy": ((2, 0), "np.vecdot in the cohesion fits"),
    "scipy": ((1, 17), "eigsh(rng=) in community detection"),
}


def declared_floor(package: str) -> tuple:
    # A regex, not tomllib: Python 3.10 has no tomllib.
    text = PYPROJECT.read_text(encoding="utf-8")
    dependencies = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S).group(1)
    match = re.search(rf'"{package}\s*>=\s*([0-9][0-9.]*)"', dependencies)
    assert match, f"pyproject.toml declares no {package}>= floor"
    return tuple(int(part) for part in match.group(1).split("."))


@pytest.mark.parametrize("package", sorted(NEEDED))
def test_declared_floor_admits_no_release_without_a_needed_call(package):
    needed, reason = NEEDED[package]
    floor = declared_floor(package)
    assert floor >= needed, f"{package}>={'.'.join(map(str, floor))} admits releases without {reason}"
