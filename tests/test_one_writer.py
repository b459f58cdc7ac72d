"""The subcommands of cli.py compute; main alone makes --out and writes into it.

Each cmd_* function returns its files as bytes. A cmd_* that opened, made
or wrote a path itself would bypass main's check of --out and its clean-up
after a failed write, so this AST check keeps the one writer the only one.
"""
import ast
from pathlib import Path

import disentlab

CLI = Path(disentlab.__file__).parent / "cli.py"
WRITES = {"open", "mkdir", "write", "write_bytes", "write_text", "save"}


def _functions() -> dict[str, ast.FunctionDef]:
    tree = ast.parse(CLI.read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _calls(node: ast.AST) -> set[str]:
    """Names of the functions and methods a definition calls."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            if isinstance(sub.func, ast.Name):
                out.add(sub.func.id)
            elif isinstance(sub.func, ast.Attribute):
                out.add(sub.func.attr)
    return out


def _writes(names: set[str]) -> set[str]:
    return {name for name in names if name in WRITES or name.startswith("write_")}


def test_subcommands_write_nothing_themselves():
    commands = {name: fn for name, fn in _functions().items() if name.startswith("cmd_")}
    assert len(commands) == 6
    found = {name: sorted(_writes(_calls(fn))) for name, fn in commands.items()}
    assert not any(found.values()), f"cmd_* functions that write: {found}"


def test_main_holds_the_only_mkdir_and_write():
    found = {name: _calls(fn) & {"mkdir", "write"} for name, fn in _functions().items()}
    assert {name for name, calls in found.items() if calls} == {"main"}
