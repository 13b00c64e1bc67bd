"""Import hygiene of the package: every module uses what it imports and
imports no underscore name, every function reads every parameter it
takes, every top-level function, class and method is used, no module
touches another's underscore attributes, and the public names are a
pinned list that resolves."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import almbtrack

SOURCES = sorted(Path(almbtrack.__file__).parent.glob("*.py"))


def unused_imports(source):
    """``(line, name)`` of every imported name the module never reads.

    Names listed in the module's ``__all__`` count as read, so package
    re-exports are not reported.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = ("import os\nimport numpy as np\nfrom math import pi, tau\n"
              "__all__ = ['tau']\nprint(np.pi)\n")
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def private_imports(source):
    """``(line, name)`` of every underscore name the module imports from
    another module: a private name belongs to its own module, so a rule
    that two modules need lives in one of them under a public name."""
    return sorted((node.lineno, alias.name)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def test_private_import_is_reported():
    source = ("import os._private\nfrom .a import _hidden, shown\n"
              "from . import _module\nfrom .b import (public,\n"
              "    _LIMIT as limit)\n_local = shown\n")
    assert private_imports(source) == [
        (2, "_hidden"), (3, "_module"), (4, "_LIMIT")]


def unread_parameters(source):
    """``(line, function, parameter)`` of every parameter of a function or
    lambda that its body never reads.

    ``self``, ``cls`` and ``_``-prefixed names are not reported.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out.extend((a.lineno, name, a.arg) for a in params
                   if a.arg not in read and a.arg not in ("self", "cls")
                   and not a.arg.startswith("_"))
    return sorted(out)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameter_is_reported():
    source = ("def f(a, b, *args, c=1, _d=2, **kw):\n"
              "    def g(self, e):\n"
              "        return a + e\n"
              "    b = 3\n"
              "    return g, kw, lambda x, y: x\n")
    assert unread_parameters(source) == [
        (1, "f", "args"), (1, "f", "b"), (1, "f", "c"),
        (5, "<lambda>", "y")]


def unreferenced_definitions(sources):
    """``(module, name)`` of every top-level function or class that no
    module reads outside its own definition.

    ``sources`` maps module file names to their text.  A read is a name,
    an attribute, an entry of ``__all__`` or an import in
    ``__init__.py``.
    """
    defined, read = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                own = top.name
                defined.append((module, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom) \
                        and module == "__init__.py":
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets):
                    names = ast.literal_eval(node.value)
                else:
                    continue
                read.update(name for name in names if name != own)
    return sorted((module, name) for module, name in defined
                  if name not in read)


def test_every_definition_is_used():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unreferenced_definitions(sources) == []


def test_unused_definition_is_reported():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("def exported():\n    return helper()\n"
                 "def helper():\n    return 1\n"
                 "def recursive(n):\n    return recursive(n - 1)\n"
                 "class Unused:\n    def make(self):\n"
                 "        return Unused()\n"),
        "b.py": ("from .a import helper\n__all__ = ['listed']\n"
                 "def listed():\n    pass\n"
                 "def dead():\n    pass\n"),
    }
    assert unreferenced_definitions(sources) == [
        ("a.py", "Unused"), ("a.py", "recursive"), ("b.py", "dead")]


def _attribute_loads(tree):
    # How often each name is read as an attribute.
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load))


def unreferenced_methods(sources):
    """``(module, class, method)`` of every non-dunder method of a
    top-level class whose name no module reads outside the method's own
    definition.

    ``sources`` maps module file names to their text.  A read is an
    attribute in load context, whatever object it is read from; a bare
    name of the same spelling, such as a parameter, is not.
    """
    methods, read = [], Counter()
    for module, source in sources.items():
        tree = ast.parse(source)
        read += _attribute_loads(tree)
        methods += [(module, top.name, node) for top in tree.body
                    if isinstance(top, ast.ClassDef) for node in top.body
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))]
    return sorted((module, cls, node.name) for module, cls, node in methods
                  if read[node.name] <= _attribute_loads(node)[node.name])


def test_every_method_is_used():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unreferenced_methods(sources) == []


def test_unused_method_is_reported():
    sources = {
        "a.py": ("class A:\n"
                 "    def __init__(self):\n        self.used()\n"
                 "    def used(self):\n        return self.dim\n"
                 "    @property\n    def dim(self):\n        return 1\n"
                 "    def recursive(self, n):\n"
                 "        return self.recursive(n - 1)\n"
                 "    def stored(self):\n        pass\n"
                 "    def elsewhere(self):\n        pass\n"
                 "    def _private(self):\n        pass\n"
                 "    def named(self):\n        pass\n"),
        "b.py": ("from .a import A\n"
                 "def f(a):\n    a.stored = A._private\n"
                 "    return a.elsewhere()\n"
                 "def g(named):\n    return named\n"),
    }
    assert unreferenced_methods(sources) == [
        ("a.py", "A", "named"), ("a.py", "A", "recursive"),
        ("a.py", "A", "stored")]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def foreign_private_attributes(sources):
    """``(module, line, name)`` of every underscore attribute a module
    reads or writes that another module owns.

    ``sources`` maps module file names to their text.  A module owns the
    underscore attributes its code sets on ``self`` and the underscore
    members its classes define; dunder names are not reported.
    """
    owner, touched = {}, []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    names = [member.name] if isinstance(member, (
                        ast.FunctionDef, ast.AsyncFunctionDef)) else [
                        t.id for t in getattr(member, "targets", [
                            getattr(member, "target", None)])
                        if isinstance(t, ast.Name)]
                    for name in filter(_private, names):
                        owner.setdefault(name, module)
            elif isinstance(node, ast.Attribute) and _private(node.attr):
                touched.append((module, node.lineno, node.attr))
                if isinstance(node.ctx, ast.Store) and isinstance(
                        node.value, ast.Name) and node.value.id == "self":
                    owner.setdefault(node.attr, module)
    return sorted((module, line, name) for module, line, name in touched
                  if owner.get(name) != module)


def test_no_foreign_private_attributes():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert foreign_private_attributes(sources) == []


def test_foreign_private_attribute_is_reported():
    sources = {
        "a.py": ("class A:\n"
                 "    _LIMIT = 3\n    _size: int = 0\n"
                 "    def __init__(self):\n        self._cache = None\n"
                 "    def _fill(self):\n        self._cache = 1\n"
                 "def reset(a):\n    a._cache = a._fill() + a._size\n"
                 "    return a.__dict__\n"),
        "b.py": ("from .a import A\n"
                 "def peek(a):\n    return a._cache, A._LIMIT, a._size\n"
                 "def poke(a):\n    a._fill()\n    a._spare = 2\n"),
    }
    assert foreign_private_attributes(sources) == [
        ("b.py", 3, "_LIMIT"), ("b.py", 3, "_cache"), ("b.py", 3, "_size"),
        ("b.py", 5, "_fill"), ("b.py", 6, "_spare")]


EXPORTS = (
    "BUILTIN_SCENARIOS", "ConfigurationError", "DensityGroup",
    "DglmbDensity", "GaussianMixture", "Label",
    "LmbDensity", "Mode", "MotionModel", "MultiObjectTracker",
    "NumericalError", "OspaParams", "PipelineConfig", "ScenarioConfig",
    "SensorModel", "Trigger", "UsageError",
    "association_entropy", "builtin_scenario", "decide_switch",
    "dglmb_cardinality", "dglmb_predict", "dglmb_prune", "dglmb_to_lmb",
    "dglmb_update", "extract_tracks", "generate_measurements",
    "generate_truth", "gm_predict", "gm_reduce", "kl_criterion",
    "kl_divergence", "lmb_cardinality", "lmb_predict", "lmb_to_dglmb",
    "lmb_update", "load_scenario", "ospa", "ospat", "pipeline_step",
    "scenario_from_dict", "truth_cardinality", "truth_positions",
)


def test_exports_are_pinned():
    # Adding or removing a public name shows up as an edit of EXPORTS.
    assert tuple(sorted(almbtrack.__all__)) == EXPORTS


def test_public_names_resolve():
    assert len(set(almbtrack.__all__)) == len(almbtrack.__all__)
    missing = [name for name in almbtrack.__all__
               if not hasattr(almbtrack, name)]
    assert missing == []
