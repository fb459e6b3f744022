"""Package-level guards that hold for the source tree as a whole."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flowsparse"

# Functions that may have no caller in src/, bench/ or scripts/.
TEST_ONLY_ALLOWED = {
    "sparsest_terminal_cut": "the public exact sparsest cut that flow-equals-cut work builds on",
}


class _Defs(ast.NodeVisitor):
    """Every function and method: (qualified name, name, is a method)."""

    def __init__(self):
        self.scope: list[ast.AST] = []
        self.found: list[tuple[str, str, bool]] = []

    def _enter(self, node):
        self.scope.append(node)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ClassDef(self, node):
        self._enter(node)

    def visit_FunctionDef(self, node):
        qual = ".".join([n.name for n in self.scope] + [node.name])
        in_class = bool(self.scope) and isinstance(self.scope[-1], ast.ClassDef)
        self.found.append((qual, node.name, in_class))
        self._enter(node)

    visit_AsyncFunctionDef = visit_FunctionDef


class _Refs(ast.NodeVisitor):
    """The names a module uses, apart from a function's uses of its own name
    inside its body: `bare` holds variables and imported names, `attrs`
    attributes and, with `strings` set, the last part of dotted-name strings
    (`"flow.max_flow"`); a plain word such as the unit `"ratio"` names no
    function.  A method counts as used only through `attrs`, so
    that a local variable named like it does not hide it."""

    def __init__(self):
        self.inside: list[str] = []
        self.bare: set[str] = set()
        self.attrs: set[str] = set()
        self.strings = False

    def _use(self, into, name):
        if name not in self.inside:
            into.add(name)

    def visit_FunctionDef(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        self._use(self.bare, node.id)

    def visit_alias(self, node):
        self._use(self.bare, node.name.rsplit(".", 1)[-1])

    def visit_Attribute(self, node):
        self._use(self.attrs, node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        value = node.value
        if (self.strings and isinstance(value, str) and "." in value
                and all(part.isidentifier() for part in value.split("."))):
            self._use(self.attrs, value.rsplit(".", 1)[-1])


def test_no_src_function_is_test_only():
    defs = _Defs()
    for path in sorted(SRC.glob("*.py")):
        defs.visit(ast.parse(path.read_text(), filename=str(path)))
    refs = _Refs()
    for folder in ("src", "bench", "scripts"):
        # only the bench tracer binds functions by name; elsewhere a string
        # such as a CLI choice says nothing about a function of that name
        refs.strings = folder == "bench"
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name != "__init__.py":
                refs.visit(ast.parse(path.read_text(), filename=str(path)))
    unused = {qual for qual, name, method in defs.found
              if name not in refs.attrs | (set() if method else refs.bare)
              and not (name.startswith("__") and name.endswith("__"))}
    assert not unused - TEST_ONLY_ALLOWED.keys(), "only tests reach these"
    assert not TEST_ONLY_ALLOWED.keys() - unused, "these now have a caller"


def test_src_imports_only_what_it_uses():
    """Every name a src module imports is read there; the package's
    `__init__` imports to re-export, so it is not checked."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                found += [f"{path.name}:{node.lineno} {name}" for name in
                          (alias.asname or alias.name.split(".")[0] for alias in node.names)
                          if name not in used]
    assert not found, "these imports are never used"


def test_src_reads_no_environment():
    """The package has no environment knobs: what a caller can set is an
    argument, and everything else is a module constant."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in ("environ", "getenv"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "these read the environment"


class _Builds(ast.NodeVisitor):
    """Where a module calls the `TerminalNetwork` constructor: the qualified
    name of each enclosing function."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[str] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "TerminalNetwork":
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_src_builds_networks_through_make():
    """Every network src builds goes through `TerminalNetwork.make`, the
    layer the benchmark traces as `network.make`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        builds = _Builds()
        builds.visit(ast.parse(path.read_text(), filename=str(path)))
        found += [f"{path.name}:{where}" for where in builds.found]
    assert found == ["network.py:TerminalNetwork.make"]


def test_first_reads_have_one_mechanism():
    """Every per-object value src builds on first read is a `_first_read`:
    no module imports `functools.cached_property`, whose lock on Python 3.10
    and 3.11 runs first reads of two objects one at a time, and
    `_first_read` is defined once, in `network.py`."""
    imports, defined = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom)) else
                     [node.attr] if isinstance(node, ast.Attribute) else [])
            imports += [f"{path.name}:{node.lineno}" for name in names
                        if name.rsplit(".", 1)[-1] == "cached_property"]
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == "_first_read":
                defined.append(path.name)
    assert not imports, "these use functools.cached_property"
    assert defined == ["network.py"]
