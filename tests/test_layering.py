"""Import layering of the package: the engine's lower modules never import its upper ones.

evaluation, env, replay, qnet, rewards and market_data are what agent, config
and cli build on; an import the other way, even one inside a function, makes
a cycle.  Every function, class and method the package defines has a caller
in the package: what only the tests call belongs in the tests.  The checks read
the syntax trees, so they also see code that the tests never execute.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = "moqtrader"
SRC = Path(__file__).resolve().parent.parent / "src" / PACKAGE
LOWER = ("evaluation", "env", "replay", "qnet", "rewards", "market_data")
UPPER = {"agent", "config", "cli"}


def package_imports(source: str) -> set[str]:
    """The package modules a source imports, at any depth of its syntax tree, as `moqtrader.<name>`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative imports resolve within the package
                module = f"{PACKAGE}.{module}" if module else PACKAGE
            if module == PACKAGE:
                found.update(f"{PACKAGE}.{alias.name}" for alias in node.names)
            else:
                found.add(module)
    return {name for name in found if name.startswith(PACKAGE + ".")}


def upper_imports(source: str) -> set[str]:
    return {name for name in package_imports(source) if name.split(".")[1] in UPPER}


@pytest.mark.parametrize("module", LOWER)
def test_lower_module_never_imports_upper(module):
    assert upper_imports((SRC / f"{module}.py").read_text()) == set()


def test_every_module_is_placed():
    assert {path.stem for path in SRC.glob("*.py")} == {*LOWER, *UPPER, "errors", "synthetic", "__init__"}


@pytest.mark.parametrize("source", [
    "def f():\n    from . import agent\n",
    "class C:\n    def m(self):\n        from .config import parse_config\n",
    "import moqtrader.cli\n",
    "from moqtrader import agent as a\n",
    "from moqtrader.agent import train\n",
])
def test_the_check_sees_every_import_form(source):
    assert len(upper_imports(source)) == 1


def uncalled(sources: dict[str, str]) -> set[str]:
    """`module.name` of every function or class that no name or attribute in the sources refers to, and
    `module.Class.method` of every method other than a dunder that no attribute in the sources names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names = attributes | {node.id for node in nodes if isinstance(node, ast.Name)}
    found = set()
    for module, tree in trees.items():
        methods = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        methods.add(item)
                        if item.name not in attributes:
                            found.add(f"{module}.{node.name}.{item.name}")
        for node in ast.walk(tree):
            defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if defines and not node.name.startswith("__") and node not in methods and node.name not in names:
                found.add(f"{module}.{node.name}")
    return found


def test_everything_defined_is_called():
    assert uncalled({path.stem: path.read_text() for path in SRC.glob("*.py")}) == set()


@pytest.mark.parametrize("source,expected", [
    ("def f():\n    pass\n", {"m.f"}),
    ("def f():\n    def g():\n        pass\n    return 1\nf()\n", {"m.g"}),
    ("class C:\n    def m(self):\n        pass\nC()\n", {"m.C.m"}),
    ("class C:\n    def __init__(self):\n        self.m()\n    def m(self):\n        pass\nC()\n", set()),
    ("def f():\n    pass\ng = f\n", set()),
    ("import m\ndef f():\n    pass\nm.f()\n", set()),
])
def test_the_check_sees_every_uncalled_definition(source, expected):
    assert uncalled({"m": source}) == expected
