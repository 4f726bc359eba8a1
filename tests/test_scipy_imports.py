"""``heat`` is the package's one way into scipy.

``heat`` loads scipy's compiled pocketfft module from its file and
offers the package's FFTs (``heat.rfft2``, ``heat.irfft2``); importing
any scipy subpackage would cost every process its import (see
``test_import_cost``).  So no other package module imports from scipy.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "srcortex"


def _scipy_imports(source: str) -> list[str]:
    """The scipy modules a source imports from, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name == "scipy" or name.startswith("scipy.")]
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.rglob("*.py") if p.stem != "heat"),
                         ids=lambda p: p.name)
def test_only_heat_imports_scipy(path):
    assert _scipy_imports(path.read_text()) == []


def test_the_check_sees_every_form_of_scipy_import():
    source = (
        "import scipy\n"
        "from scipy.fft import rfft2\n"
        "import numpy, scipy.linalg as la\n"
        "from scipy import special\n"
        "from . import scipyish\n"
        "from .heat import rfft2\n"
        "import scipyish\n"
    )
    assert _scipy_imports(source) == [
        "scipy (line 1)",
        "scipy.fft (line 2)",
        "scipy.linalg (line 3)",
        "scipy (line 4)",
    ]
