"""What README shows and what ``netreg`` exports must stay true of the code."""

import ast
import re
import shlex
from pathlib import Path

import netreg
from netreg.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def _readme_commands() -> list:
    """Every ``netreg ...`` command of README's sh blocks, ``\\`` continuations joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("netreg "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse():
    # A renamed or removed flag fails here instead of in a reader's shell.
    commands = _readme_commands()
    assert commands
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_all_resolves_and_lists_every_import():
    assert len(set(netreg.__all__)) == len(netreg.__all__)
    for name in netreg.__all__:
        assert hasattr(netreg, name), name
    tree = ast.parse(Path(netreg.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert sorted(netreg.__all__) == sorted(n for n in imported if not n.startswith("_"))
