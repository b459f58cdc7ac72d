"""Every public function, class, method or module-level value of the package is reachable from the CLI.

A definition is a module-level function, class or assignment outside cli.py,
or a public method or property of such a class; an assignment is keyed by
its target names and uses the names its value does, so a table such as
verify.SUITES is live only when a live definition names it, and then so is
every function it holds. A method is keyed Class.method and is named by its
bare name; its class uses what its other statements and private methods use.
A public definition is live when cli.py names it, or when the source of a
live definition names it (a fixed point over the AST). Names the tests
substitute in or that outside tooling looks up are kept on purpose and listed
in KEPT with the reason; what a kept definition names is kept with it.

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

TRACED = "the tracer wraps it; ROADMAP item 1 retargets the tracer"
KEPT = {
    "udr_relevance": TRACED,
    "spearman_rho": TRACED,
    "write_circular_dataset": TRACED,
    "write_svg": TRACED,
    "optimize_generator": TRACED,
    "bias_decomposition": TRACED,
    "GeneratorSampler": (
        "the tracer wraps sample_group and sample_reference; ROADMAP item 1 retargets the "
        "tracer. sample_groups is the stream oracle of "
        "test_buffer_draws_follow_sample_groups_stream"
    ),
    "GeneratorSampler.sample_group": TRACED,
    "GeneratorSampler.sample_reference": TRACED,
    "FactorDataset.save": TRACED,
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


def _definitions() -> dict[str, tuple[str, set[str]]]:
    """Each definition outside cli.py: its key, the name code calls it by, and the names it uses.

    Private helpers and tables are part of the graph, so a public function
    reached only through one still counts as live.
    """
    defs: dict[str, tuple[str, set[str]]] = {}

    def add(key: str, name: str, nodes) -> None:
        uses = defs.setdefault(key, (name, set()))[1]
        for node in nodes:
            uses.update(_names(node))

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                add(node.name, node.name, [node])
            elif isinstance(node, ast.ClassDef):
                methods = [
                    sub for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                ]
                for method in methods:
                    add(f"{node.name}.{method.name}", method.name, [method])
                rest = [sub for sub in node.body if sub not in methods]
                add(node.name, node.name, [*node.bases, *node.decorator_list, *rest])
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in _names(target):
                        add(name, name, [node.value])
    return defs


def _reached(defs: dict[str, tuple[str, set[str]]], names: set[str]) -> set[str]:
    """Keys of the definitions that names name, directly or through a reached definition."""
    reached: set[str] = set()
    frontier = {key for key, (name, _) in defs.items() if name in names}
    while frontier:
        reached |= frontier
        names = set().union(*(defs[key][1] for key in frontier))
        frontier = {key for key, (name, _) in defs.items() if name in names} - reached
    return reached


def _cli_names() -> set[str]:
    return _names(ast.parse((PACKAGE / "cli.py").read_text()))


def test_every_public_definition_is_reachable_or_kept():
    defs = _definitions()
    public = {key for key in defs if not key.startswith("_")}
    kept = _reached(defs, _cli_names().union(*(defs[key][1] for key in KEPT)))
    dead = sorted(public - kept - set(KEPT))
    assert not dead, f"unreachable from the CLI and not in KEPT: {dead}"


def test_kept_names_exist_and_are_not_live():
    defs = _definitions()
    live = _reached(defs, _cli_names())
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
