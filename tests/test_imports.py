"""Every name a module of the package imports is used in the scope that imports it.

An import left behind by a removal (a dataclass import after the last
dataclass goes, say) still loads and runs, so only a check of the source
finds it. An import's scope is the function it sits in, or else its module,
and a name counts as used when that scope refers to it by bare name.
`from __future__` imports bind nothing and are skipped.
"""
import ast
from pathlib import Path

import pytest

import disentlab

PACKAGE = Path(disentlab.__file__).parent
SCOPES = (ast.Module, ast.FunctionDef)


def _unused_imports(tree: ast.Module) -> list[str]:
    """'line N: name' for each name an import binds that its scope never uses."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        scope = parents[node]
        while not isinstance(scope, SCOPES):
            scope = parents[scope]
        used = {sub.id for sub in ast.walk(scope) if isinstance(sub, ast.Name)}
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"line {node.lineno}: {bound}")
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    unused = _unused_imports(ast.parse(path.read_text()))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "from dataclasses import dataclass\n"
        "import numpy as np\n"
        "import os.path\n"
        "\n"
        "def f():\n"
        "    import math\n"
        "    return np.zeros(1), os.sep\n"
        "\n"
        "def g():\n"
        "    from json import dumps as to_json\n"
        "    return to_json\n"
    )
    assert _unused_imports(ast.parse(source)) == ["line 2: dataclass", "line 7: math"]
