"""Every module-level import in the package is used by its module, and every
definition in the package is referenced from the package or its tests, and
a solve loads no extension module beyond a pinned set."""

import ast
import subprocess
import sys
from pathlib import Path

import womctl

PACKAGE = Path(womctl.__file__).parent
TESTS = Path(__file__).parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_import_detector_flags_a_leftover():
    assert _unused_imports("import itertools\nimport math\nmath.pi\n") == [
        "line 1: itertools"]


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found = _unused_imports(path.read_text(encoding="utf-8"))
        if found:
            unused[path.name] = found
    assert unused == {}


def _registered(node: ast.AST, local: set[str]) -> bool:
    """Whether a decorator factory of the function's own module (verify's
    ``@_check(...)``) takes ``node``: that factory is what reads it."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
        and dec.func.id in local for dec in node.decorator_list)


def _definitions(source: str) -> list[str]:
    """Module-level functions, classes and constants, and methods, as
    "name" or "Class.method"; dunders and functions registered by their own
    module's decorator are left out."""
    out = []
    body = ast.parse(source).body
    local = {node.name for node in body if isinstance(node, ast.FunctionDef)}
    for node in body:
        if _registered(node, local):
            continue
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{m.name}" for m in node.body
                    if isinstance(m, ast.FunctionDef)]
    return [d for d in out if not d.split(".")[-1].startswith("__")]


def _references(source: str) -> set[str]:
    """Names read, attributes read and names imported in ``source``."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _unreferenced(modules: dict[str, str], readers: list[str]) -> list[str]:
    used = set().union(*map(_references, readers))
    return [f"{name}: {d}" for name, source in sorted(modules.items())
            for d in _definitions(source) if d.split(".")[-1] not in used]


def test_unreferenced_definition_detector_flags_a_dead_helper():
    module = ("LIMIT = 3\n__version__ = '1'\n"
              "class Box:\n    def size(self): return LIMIT\n"
              "    def spare(self): pass\n    def __len__(self): return 0\n"
              "def unused(): pass\n")
    assert _unreferenced({"m.py": module}, [module, "Box().size()"]) == [
        "m.py: Box.spare", "m.py: unused"]


def test_unreferenced_definition_detector_reads_only_local_registration():
    module = ("from functools import lru_cache\n"
              "REGISTRY = []\n"
              "def register(name):\n"
              "    def add(fn):\n"
              "        REGISTRY.append(fn)\n"
              "        return fn\n"
              "    return add\n"
              "@register('kept')\ndef kept(): pass\n"
              "@lru_cache(maxsize=None)\ndef cached(): pass\n")
    assert _unreferenced({"m.py": module}, [module]) == ["m.py: cached"]


def test_every_definition_in_the_package_is_referenced():
    modules = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    tests = [p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))]
    assert _unreferenced(modules, list(modules.values()) + tests) == []


def _label_constructions(source: str) -> list[str]:
    """The module-level definitions of ``source`` that call ``VarLabel(...)``,
    once per call; a call outside any definition is reported by line."""
    out = []
    for node in ast.parse(source).body:
        for n in ast.walk(node):
            if isinstance(n, ast.Call) and (
                    getattr(n.func, "id", None) == "VarLabel"
                    or getattr(n.func, "attr", None) == "VarLabel"):
                out.append(getattr(node, "name", f"line {n.lineno}"))
    return out


def test_label_construction_detector_flags_a_second_factory():
    module = ("def obs(a, t): return VarLabel(a, t, 0)\n"
              "def parse(text) -> VarLabel:\n    return VarLabel(int(text), 0, 0)\n"
              "def realize(raw):\n"
              "    return {VarLabel(a, t, k): v for (a, t, k), v in raw}\n"
              "def via_module(): return infostruct.VarLabel(1, 0, 0)\n"
              "def annotated(l: VarLabel) -> VarLabel: return l\n"
              "ONE = VarLabel(1, 0, 0)\n")
    assert _label_constructions(module) == [
        "obs", "parse", "realize", "via_module", "line 8"]


def test_labels_are_constructed_only_by_obs_and_act():
    found = [f"{p.stem}.{where}" for p in sorted(PACKAGE.glob("*.py"))
             for where in _label_constructions(p.read_text(encoding="utf-8"))]
    assert found == ["infostruct.obs", "infostruct.act"]


def _numpy_imports(source: str) -> list[int]:
    """Lines that import numpy or a submodule of it, at any depth."""
    out = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Import):
            names = [alias.name for alias in n.names]
        elif isinstance(n, ast.ImportFrom) and not n.level:
            names = [n.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            out.append(n.lineno)
    return out


def test_numpy_import_detector_flags_every_form():
    module = ("import numbers, os\nimport numpy as np\n"
              "if TYPE_CHECKING:\n    from numpy.random import Generator\n"
              "def draw():\n    import os, numpy.random\n"
              "from .numpy_like import x\n")
    assert _numpy_imports(module) == [2, 4, 6]


def test_no_module_imports_numpy():
    found = {p.name: lines for p in sorted(PACKAGE.glob("*.py"))
             if (lines := _numpy_imports(p.read_text(encoding="utf-8")))}
    assert found == {}


def _self_referring_closures(source: str) -> list[str]:
    """Nested functions that load their own name, as "outer.inner" below each
    module-level function or method ("Class.method.inner")."""
    tops = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            tops.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            tops += [(f"{node.name}.{m.name}", m) for m in node.body
                     if isinstance(m, ast.FunctionDef)]
    return [f"{where}.{fn.name}" for where, top in tops
            for fn in ast.walk(top)
            if isinstance(fn, ast.FunctionDef) and fn is not top
            and any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                    and n.id == fn.name for n in ast.walk(fn))]


def test_self_referring_closure_detector_flags_a_recursive_walk():
    module = ("def outer(n):\n"
              "    def walk(i):\n        return walk(i - 1) if i else 0\n"
              "    def leaf(i):\n        return i\n"
              "    return walk(n) + leaf(n)\n"
              "def top(i):\n    return top(i - 1) if i else 0\n"
              "class C:\n    def m(self):\n"
              "        def again():\n            return again\n"
              "        return again\n")
    assert _self_referring_closures(module) == ["outer.walk", "C.m.again"]


def test_no_nested_function_refers_to_itself():
    # such a closure holds itself through its own cell: a reference cycle
    # that keeps all it closes over alive until the cycle collector runs
    found = [f"{p.stem}.{name}" for p in sorted(PACKAGE.glob("*.py"))
             for name in _self_referring_closures(p.read_text(encoding="utf-8"))]
    assert found == []


# the compiled modules a solve loads without the site packages (``-S``);
# each one more costs every run about 0.3 MB of peak RSS
EXTENSIONS = {"_bisect", "_bz2", "_json", "_lzma", "_opcode", "_typing",
              "math", "zlib"}

_LOADED = """
import contextlib, io, sys
import womctl.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = womctl.cli.main(["solve", "--scenario", sys.argv[1],
                            "--method", "common-info"])
print(code, *sorted(n for n, m in list(sys.modules.items())
                    if (getattr(m, "__file__", None) or "").endswith(".so")))
"""


def test_a_solve_loads_only_the_pinned_extension_modules():
    env = {"PYTHONPATH": str(PACKAGE.parent), "PATH": ""}
    out = subprocess.run(
        [sys.executable, "-S", "-c", _LOADED,
         str(PACKAGE / "data" / "instance_a.wom")],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    code, *loaded = out.stdout.split()
    assert code == "0"
    assert set(loaded) <= EXTENSIONS
