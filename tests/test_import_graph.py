"""The package's import graph, read from its source: every relative import,
at module level or inside a function, is an edge from the importing
module to the module it names.  No module imports one that imports it
back, the numeric primitives sit below everything that computes, and the
command line loads nothing at start but the exceptions and the version.
"""

import ast
from pathlib import Path

import thermopower

PACKAGE = Path(thermopower.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


class _Imports(ast.NodeVisitor):
    """The package modules a module imports: all of them, and those it
    imports as it loads, outside any function."""

    def __init__(self):
        self.all, self.at_load, self.depth = set(), set(), 0

    def visit_FunctionDef(self, node):
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ImportFrom(self, node):
        if node.level == 0:
            return
        assert node.level == 1, ast.unparse(node)
        if node.module:
            names = [node.module.split(".")[0]]
        else:  # from . import x: the submodule x, or a name of the package's own
            names = [a.name if a.name in MODULES else "__init__" for a in node.names]
        self.all.update(names)
        if not self.depth:
            self.at_load.update(names)


def _graph() -> dict[str, _Imports]:
    graph = {}
    for name in MODULES:
        imports = _Imports()
        imports.visit(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")))
        graph[name] = imports
    return graph


GRAPH = _graph()


def test_every_module_is_read():
    assert {"__init__", "_numeric", "cli", "errors", "fitting", "trace"} <= set(GRAPH)
    assert all(set(imports.all) <= set(MODULES) for imports in GRAPH.values())


def test_no_module_imports_one_that_imports_it_back():
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> None:
        assert name not in path, " -> ".join([*path, name])
        if name not in done:
            for other in sorted(GRAPH[name].all):
                visit(other, [*path, name])
            done.add(name)

    for name in MODULES:
        visit(name, [])


def test_errors_and_the_numeric_primitives_sit_at_the_bottom():
    assert GRAPH["errors"].all == set()
    assert GRAPH["_numeric"].all == {"errors"}


def test_the_power_model_and_the_sensor_need_no_fit_and_no_trace():
    for name in ("powermodel", "sensor"):
        assert not GRAPH[name].all & {"fitting", "trace"}, name


def test_cli_loads_only_the_exceptions_and_the_version_at_start():
    assert GRAPH["cli"].at_load == {"errors", "__init__"}
