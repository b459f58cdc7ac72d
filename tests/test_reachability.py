"""Every public function or class of the package is reachable from the CLI.

A public module-level definition is live when cli.py names it, or when the
source of a live definition names it (a fixed point over the AST). Names the
tests substitute in or that outside tooling looks up are kept on purpose and
listed in KEPT with the reason.

The traced benchmark run wraps the functions and methods that
perfbench/tracer.py lists in TARGETS; each of them must exist in the package.
"""
import ast
import importlib
from pathlib import Path

import pytest

import disentlab

PACKAGE = Path(disentlab.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

KEPT = {
    "FunctionEncoder": "the Encoder adapter for an arbitrary batch map, used to plug fixtures in",
    "PseudoNoiseEncoder": "acceptance criterion 05's chance-level encoder",
    "TransformedEncoder": "acceptance criterion 05 checks permutation and scale invariance with it",
    "SyntheticFactorSampler": "acceptance criterion 05 draws its uniform factors with it",
    "noisy_linear_pool": "acceptance criterion 07 builds its encoder-noise pool with it",
    "read_pgm": "the CLI tests read the written PGMs back with it",
    "udr_relevance": "the traced benchmark run wraps it by name",
    "spearman_rho": "the traced benchmark run wraps it by name",
    "paired_covariance": "checks _cr_values by evaluating the definition directly",
    "cr_frobenius_divergence": "checks _cr_values by evaluating the definition directly",
    "optimize_generator": (
        "the one-run case of optimize_generators, called by name by the README quick start, "
        "the tests and the traced benchmark run"
    ),
}


def _names(node: ast.AST) -> set[str]:
    """Identifiers a piece of source refers to, by bare name or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _definitions() -> dict[str, set[str]]:
    """Module-level functions and classes outside cli.py, each with the names it uses.

    Private helpers are part of the graph, so a public function reached only
    through one still counts as live.
    """
    defs: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, set()).update(_names(node))
    return defs


def _live(defs: dict[str, set[str]]) -> set[str]:
    live = set()
    frontier = _names(ast.parse((PACKAGE / "cli.py").read_text())) & set(defs)
    while frontier:
        live |= frontier
        reached = set().union(*(defs[name] for name in frontier))
        frontier = (reached & set(defs)) - live
    return live


def test_every_public_definition_is_reachable_or_kept():
    defs = _definitions()
    public = {name for name in defs if not name.startswith("_")}
    dead = sorted(public - _live(defs) - set(KEPT))
    assert not dead, f"unreachable from the CLI and not in KEPT: {dead}"


def test_kept_names_exist_and_are_not_live():
    defs = _definitions()
    live = _live(defs)
    assert set(KEPT) <= set(defs), sorted(set(KEPT) - set(defs))
    stale = sorted(set(KEPT) & live)
    assert not stale, f"reachable from the CLI, drop from KEPT: {stale}"


def _tracer_targets() -> list[tuple[str, str]]:
    """(module, attribute) of each TARGETS entry, read from the source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"{TRACER} defines no TARGETS")


def test_benchmark_trace_targets_resolve():
    if not TRACER.is_file():
        pytest.skip("perfbench/tracer.py is absent")
    missing = []
    for module, attribute in _tracer_targets():
        mod = importlib.import_module(f"disentlab.{module}")
        if "." in attribute:
            # the tracer wraps methods found in the class __dict__, not inherited ones
            cls_name, meth = attribute.split(".")
            cls = getattr(mod, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = hasattr(mod, attribute)
        if not found:
            missing.append(f"{module}.{attribute}")
    assert not missing, f"benchmark trace targets missing from disentlab: {missing}"
