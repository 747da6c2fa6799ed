"""Import layering of the package: the engine's lower modules never import its upper ones.

evaluation, env, replay, qnet, rewards and market_data are what agent, config
and cli build on; an import the other way, even one inside a function, makes
a cycle.  The check reads the syntax trees, so it also sees imports that are
never executed by the tests.
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
