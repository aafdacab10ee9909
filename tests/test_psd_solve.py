"""Every linear solve in netreg goes through ``regression.pinv_psd``.

No module under ``src/netreg/`` may call numpy's or scipy's ``inv``, ``solve``,
``pinv`` or ``lstsq``, under whatever name it imports them. ``pinv_psd``'s
``eigh`` and the theory checks' ``eigvalsh`` stay allowed.
"""

import ast
from pathlib import Path

import pytest

import netreg

_BANNED = {"inv", "solve", "pinv", "lstsq"}


def _linalg_solves(source: str) -> list:
    """``line: callee`` of each call of a banned numpy/scipy linalg function in ``source``."""
    tree = ast.parse(source)
    modules, functions = set(), set()  # local names of a linalg module, of a banned function
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.asname and "linalg" in a.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                if a.name == "linalg":
                    modules.add(a.asname or a.name)
                elif "linalg" in node.module and a.name in _BANNED:
                    functions.add(a.asname or a.name)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        *prefix, name = ast.unparse(node.func).split(".")
        if (not prefix and name in functions) or (
            name in _BANNED and prefix and ("linalg" in prefix or ".".join(prefix) in modules)
        ):
            found.append(f"{node.lineno}: {ast.unparse(node.func)}")
    return found


@pytest.mark.parametrize(
    "source, hits",
    [
        ("import numpy as np\nnp.linalg.inv(H)", ["2: np.linalg.inv"]),
        ("import scipy\nscipy.linalg.solve(A, b)", ["2: scipy.linalg.solve"]),
        ("from scipy.linalg import solve as s\ns(A, b)", ["2: s"]),
        ("import numpy.linalg as la\nla.lstsq(A, b)", ["2: la.lstsq"]),
        ("from numpy import linalg\nlinalg.pinv(H)", ["2: linalg.pinv"]),
        ("import numpy as np\nnp.linalg.eigh(H)\nnp.linalg.eigvalsh(H)", []),
        ("def fit(solve):\n    return solve(N, y)", []),  # a parameter, not numpy's solve
    ],
)
def test_detector_finds_solves_under_any_import(source, hits):
    assert _linalg_solves(source) == hits


def test_no_module_solves_outside_pinv_psd():
    paths = sorted(Path(netreg.__file__).resolve().parent.glob("*.py"))
    assert len(paths) > 5
    found = {
        path.name: hits
        for path in paths
        if (hits := _linalg_solves(path.read_text(encoding="utf-8")))
    }
    assert not found, f"use regression.pinv_psd instead of {found}"
