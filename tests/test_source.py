"""Static checks on the package source; no linter is installed, so these use ast."""

import ast
from pathlib import Path

import pytest

import laurent_eulerian

PACKAGE = Path(laurent_eulerian.__file__).parent
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_detector_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Iterator, Optional\n"
        "from .a import b as c, d\n"
        "def f(x: Optional[int]) -> None:\n"
        "    return np.zeros(d(x))\n"
    )
    assert unused_imports(source) == ["os", "Iterator", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_one_clock():
    # every budget is a Deadline; no other module keeps its own clock
    readers = [p.name for p in MODULES if "time.monotonic" in p.read_text()]
    assert readers == ["deadline.py"]
