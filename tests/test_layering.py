"""Import layering of the package: the engine's lower modules never import its upper ones.

evaluation, env, replay, qnet, rewards and market_data are what agent, config
and cli build on; an import the other way, even one inside a function, makes
a cycle.  Every function, class and method the package defines has a caller
in the package: what only the tests call belongs in the tests, and every
attribute the package stores through self is read in it.  A frozen
network's greedy choices have one route, `evaluation.greedy_chooser`: only it
and the fitting step, whose network changes every step, argmax a forward.  The
checks read the syntax trees, so they also see code that the tests never
execute.
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


def unread_attributes(sources: dict[str, str]) -> set[str]:
    """`module.name` of every `self.<name>` that the sources store but never load as `.<name>` anywhere.

    Dataclass fields are declared, not stored through self, so they are not counted; neither is a setattr."""
    attributes = {module: [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)]
                  for module, source in sources.items()}
    loaded = {node.attr for nodes in attributes.values() for node in nodes if isinstance(node.ctx, ast.Load)}
    return {f"{module}.{node.attr}" for module, nodes in attributes.items() for node in nodes
            if isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == "self"
            and node.attr not in loaded}


def test_every_attribute_stored_is_read():
    assert unread_attributes({path.stem: path.read_text() for path in SRC.glob("*.py")}) == set()


@pytest.mark.parametrize("source,expected", [
    ("class C:\n    def __init__(self, x):\n        self.x = x\n", {"m.x"}),
    ("class C:\n    def __init__(self, x):\n        self.x = x\n    def f(self):\n        return self.x\n", set()),
    ("class C:\n    def __init__(self):\n        self.a, (self.b, c) = 1, (2, 3)\n", {"m.a", "m.b"}),
    ("class C:\n    def __init__(self):\n        self.a = self.b = 0\n    def f(self):\n        return self.a\n",
     {"m.b"}),
    ("class C:\n    def __init__(self):\n        self.n = 0\n        self.n += 1\n", {"m.n"}),
    ("def f(c):\n    c.x = 1\n", set()),
    ("class C:\n    def f(self):\n        setattr(self, 'x', 1)\n", set()),
])
def test_the_check_sees_every_unread_attribute(source, expected):
    assert unread_attributes({"m": source}) == expected


# The functions that may argmax a forward: the greedy chooser, and the fitting step's one forward of a step's rows.
ARGMAX_ROUTES = {"evaluation.greedy_chooser", "agent._fit_episode"}


def called(node: ast.Call) -> str | None:
    """The name a call calls: `f` of `f(...)` and of `x.f(...)`."""
    return getattr(node.func, "attr", None) or getattr(node.func, "id", None)


def is_forward(node: ast.AST, results: set[str]) -> bool:
    """Whether an expression is a `forward(...)` call, a subscript of one, or a name bound to one of those."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in results
    return isinstance(node, ast.Call) and called(node) == "forward"


def forward_argmaxes(sources: dict[str, str]) -> set[str]:
    """`module.function` or `module.Class.method` of every top-level function or method, nested functions included,
    that calls `.argmax` or `argmax(...)` on a forward's result (see is_forward), with names bound by assignment."""
    found = set()
    for module, source in sources.items():
        body = ast.parse(source).body
        scopes = [(f"{module}.{node.name}", node) for node in body if isinstance(node, ast.FunctionDef)]
        scopes += [(f"{module}.{node.name}.{item.name}", item) for node in body if isinstance(node, ast.ClassDef)
                   for item in node.body if isinstance(item, ast.FunctionDef)]
        for name, scope in scopes:
            nodes, results, size = list(ast.walk(scope)), set(), -1
            while size != len(results):  # names bound to a forward's result, through chains of assignments
                size = len(results)
                results.update(target.id for node in nodes
                               if isinstance(node, ast.Assign) and is_forward(node.value, results)
                               for tree in node.targets for target in ast.walk(tree) if isinstance(target, ast.Name))
            for node in nodes:
                if isinstance(node, ast.Call) and called(node) == "argmax":
                    operands = [*node.args[:1], *([node.func.value] if isinstance(node.func, ast.Attribute) else [])]
                    if any(is_forward(operand, results) for operand in operands):
                        found.add(name)
    return found


def test_one_greedy_route_argmaxes_a_forward():
    assert forward_argmaxes({path.stem: path.read_text() for path in SRC.glob("*.py")}) == ARGMAX_ROUTES


@pytest.mark.parametrize("source,expected", [
    ("def f(net, x):\n    return net.forward(x).argmax(axis=1)\n", {"m.f"}),
    ("def f(net, x):\n    q = net.forward(x)\n    return q.argmax()\n", {"m.f"}),
    ("def f(net, x):\n    q = net.forward(x)[:3]\n    r = q[1:]\n    return r.argmax()\n", {"m.f"}),
    ("def f(net, x):\n    def g():\n        return np.argmax(net.forward(x))\n    return g\n", {"m.f"}),
    ("class C:\n    def m(self, x):\n        return self.net.forward(x).argmax()\n", {"m.C.m"}),
    ("def f(x):\n    return x.argmax()\n", set()),
    ("def f(net, x):\n    q = net.forward(x)\n    return q.max(), x.argmax()\n", set()),
])
def test_the_check_sees_every_forward_argmax(source, expected):
    assert forward_argmaxes({"m": source}) == expected
