"""Every function the benchmark tracer wraps still exists under its name,
and every public function `src/champagne` defines has a caller."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "champagne"

# the public names that nothing in src/ or perfbench/ calls, each kept on
# purpose; an entry leaves once a caller appears
KEPT = {
    "switch": "the apex step (ROADMAP item 5)",
    "cone": "the apex step (ROADMAP item 5)",
    "induced_subgraph": "the apex step (ROADMAP item 5)",
    "is_isomorphic": "the apex step (ROADMAP item 5)",
    "LineConfig.reverse_line": "the apex step (ROADMAP item 5)",
    "permute": "it defines CanonicalForm.witness",
    "Graph.from_graph6": "CI's cross-check decodes the witnesses with it",
    "timing_free": "CI's cross-check compares reports at 1 and 2 jobs with it",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, module, attr",
    [(name, module, attr) for name, module, attr, _ in load_tracer().TRACED],
)
def test_traced_name_resolves(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), name


def public_definitions(tree):
    """Public top-level functions and public methods, as `f` or `Class.f`."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def named(tree):
    """Identifiers a module refers to: names, attributes, imported names and
    identifier-like string constants (the tracer's module attributes)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def test_every_public_function_has_a_caller():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    used = {name for tree in trees.values() for name in named(tree)}
    defined = [
        name
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name in public_definitions(tree)
    ]
    uncalled = {name for name in defined if name.rpartition(".")[2] not in used}
    assert sorted(uncalled - KEPT.keys()) == [], "public names without a caller"
    assert sorted(KEPT.keys() - uncalled) == [], "KEPT names that are gone or have a caller"
