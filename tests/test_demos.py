"""Every name a demo imports from stancemoe exists.

Running the demos takes seconds to a minute each; parsing them is
instant, and catches an API removal that would break a demo.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def stancemoe_imports(path):
    """(module, name or None) for each import of stancemoe in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "stancemoe":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "stancemoe":
                    yield alias.name, None


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(stancemoe_imports(path))
    assert imports, f"{path.name} imports nothing from stancemoe"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        assert name is None or hasattr(module, name), \
            f"{path.name}: {module_name} has no {name!r}"
