"""Source hygiene with the standard library alone: every name a module
exports resolves, every module but cli and __init__ has an __all__ whose
names cli.py or another package module uses, no package module imports a
name it never uses, at module level or in a function, numpy is imported
only inside the functions that use it, every dotted name README.md quotes
exists in the package, every function the benchmark's span table traces
by name exists, no CLI command catches, times or builds its own report,
and no module-level container keeps what a command put in it once the
caches are cleared."""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "genusforge"
MODULES = sorted(PACKAGE.glob("*.py"))
# the front end and the package marker export nothing
SURFACE = [p for p in MODULES if p.stem not in ("cli", "__init__")]
README = PACKAGE.parent.parent / "README.md"
SPANS = PACKAGE.parent.parent / "bench" / "spans.py"
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exports(tree: ast.Module) -> list[str] | None:
    """The module's __all__, or None when it defines none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return None


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import, with its line."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _defined(tree: ast.Module) -> set[str]:
    """Names bound at module level by a def, class, assignment or import."""
    out = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                out.update(n.id for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, quoted annotations included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.annotation if isinstance(node, ast.arg) else node.returns
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                out |= _used(ast.parse(ann.value, mode="eval"))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exports_resolve(path):
    tree = _tree(path)
    missing = sorted(set(_exports(tree) or ()) - _defined(tree))
    assert not missing, f"{path.name}: __all__ names undefined {missing}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used(tree) | set(_exports(tree) or ())
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name}: imported but never used {unused}"


def _references(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for each name a module takes from a sibling package
    module: `from .m import name`, or `m.name` after `from . import m`."""
    out, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.update((node.module, a.name) for a in node.names)
            else:
                modules.update((a.asname or a.name, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            out.add((modules[node.value.id], node.attr))
    return out


def _uncalled_exports(stem: str, trees: dict[str, ast.Module]) -> list[str]:
    """Names in the __all__ of module stem that no other module references."""
    used = {name for other, tree in trees.items() if other != stem
            for module, name in _references(tree) if module == stem}
    return sorted(set(_exports(trees[stem]) or ()) - used)


@pytest.mark.parametrize("path", SURFACE, ids=lambda p: p.name)
def test_exports_have_package_callers(path):
    trees = {p.stem: _tree(p) for p in MODULES}
    assert _exports(trees[path.stem]) is not None, f"{path.name}: no __all__"
    uncalled = _uncalled_exports(path.stem, trees)
    assert not uncalled, f"{path.name}: exported, used by no other module {uncalled}"


FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope(node: ast.AST) -> list[ast.AST]:
    """Nodes of a module's or a function's own scope: nested functions are
    listed but not entered, and annotations, which are never evaluated
    under `from __future__ import annotations`, are skipped."""
    out, stack = [], list(node.body)
    while stack:
        child = stack.pop()
        out.append(child)
        if isinstance(child, FUNCS):
            continue
        for field, value in ast.iter_fields(child):
            if field != "annotation":
                items = value if isinstance(value, list) else [value]
                stack.extend(v for v in items if isinstance(v, ast.AST))
    return out


def _unused_local_imports(tree: ast.Module) -> list[str]:
    """Each name imported in a function's own scope that neither that
    function nor a function nested in it reads, by line."""
    out = []
    for func in ast.walk(tree):
        if isinstance(func, FUNCS):
            used = _used(func)
            out.extend((n.lineno, f"{func.name} imports {name} unused")
                       for n in _scope(func) if isinstance(n, (ast.Import, ast.ImportFrom))
                       for name in (a.asname or a.name.split(".")[0] for a in n.names)
                       if name not in used)
    return [f"line {line}: {text}" for line, text in sorted(out)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_function_imports(path):
    unused = _unused_local_imports(_tree(path))
    assert not unused, f"{path.name}: imported in a function but never used {unused}"


def _numpy_misuse(tree: ast.Module) -> list[str]:
    """Module-level numpy imports, and the functions that read np with no
    `import numpy as np` of their own or in an enclosing function, by line."""
    out = []

    def visit(node, name: str, bound: bool) -> None:
        nodes = _scope(node)
        bound = bound or any(isinstance(n, ast.Import) and any(
            a.name == "numpy" and a.asname == "np" for a in n.names) for n in nodes)
        if not bound and any(isinstance(n, ast.Name) and n.id == "np"
                             and isinstance(n.ctx, ast.Load) for n in nodes):
            out.append((getattr(node, "lineno", 0), f"{name} reads np unbound"))
        for n in nodes:
            if isinstance(n, FUNCS):
                visit(n, n.name, bound)

    for n in _scope(tree):
        if isinstance(n, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in n.names) \
                or isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "numpy":
            out.append((n.lineno, "module-level numpy import"))
    visit(tree, "<module>", False)
    return [f"line {line}: {text}" for line, text in sorted(out)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_imported_only_where_used(path):
    misuse = _numpy_misuse(_tree(path))
    assert not misuse, f"{path.name}: {misuse}"


def _report_misuse(tree: ast.Module) -> list[str]:
    """Each try, perf_counter and RunReport in a module-level cmd_*
    function, by line: main alone catches refusals, times the command
    and builds its report."""
    out = []
    for node in tree.body:
        if isinstance(node, FUNCS) and node.name.startswith("cmd_"):
            for n in ast.walk(node):
                name = getattr(n, "id", getattr(n, "attr", None))
                if isinstance(n, (ast.Try, getattr(ast, "TryStar", ast.Try))):
                    out.append((n.lineno, f"{node.name} has a try"))
                elif name in ("perf_counter", "RunReport"):
                    out.append((n.lineno, f"{node.name} names {name}"))
    return [f"line {line}: {text}" for line, text in sorted(out)]


def test_commands_leave_the_report_to_main():
    tree = _tree(PACKAGE / "cli.py")
    commands = [n.name for n in tree.body
                if isinstance(n, FUNCS) and n.name.startswith("cmd_")]
    assert len(commands) == 5, commands
    misuse = _report_misuse(tree)
    assert not misuse, misuse


def _unresolved(text: str) -> list[str]:
    """Dotted names in backticks whose head is no package module or
    top-level name, or whose tail fails attribute lookup."""
    modules = {"genusforge": importlib.import_module("genusforge")}
    for path in MODULES:
        if path.stem != "__init__":
            modules[path.stem] = importlib.import_module(f"genusforge.{path.stem}")
    out = []
    for name in DOTTED.findall(text):
        head, *tail = name.split(".")
        obj = modules.get(head)
        if obj is None:
            obj = next((getattr(m, head) for m in modules.values()
                        if hasattr(m, head)), None)
        for part in tail:
            obj = getattr(obj, part, None)
        if obj is None:
            out.append(name)
    return out


def test_readme_names_resolve():
    assert not _unresolved(README.read_text())


def _traced(tree: ast.Module) -> dict[str, list[tuple[str, str]]]:
    """(module, name) of every entry of the WRAPPED and COUNTED tables,
    read from the source without running it."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name) and t.id in ("WRAPPED", "COUNTED"):
                    out[t.id] = [tuple(ast.literal_eval(e) for e in entry.elts[:2])
                                 for entry in node.value.elts]
    return out


def _untraceable(names) -> list[str]:
    """The module.name entries that the package does not define."""
    return [f"{module}.{name}" for module, name in names
            if not hasattr(importlib.import_module(f"genusforge.{module}"), name)]


def test_traced_names_resolve():
    # bench/spans.py installs its wrappers by getattr, so a name deleted
    # from the package breaks the traced benchmark run
    tables = _traced(_tree(SPANS))
    assert sorted(tables) == ["COUNTED", "WRAPPED"] and all(tables.values())
    assert not _untraceable(tables["WRAPPED"] + tables["COUNTED"])


def test_checks_can_fail():
    tree = ast.parse("from os import path, sep\n__all__ = ['gone']\nprint(sep)\n")
    assert set(_exports(tree)) - _defined(tree) == {"gone"}
    assert [n for n in _imported(tree) if n not in _used(tree)] == ["path"]
    trees = {"cli": ast.parse("from . import f2\nfrom .lie import bracket\nf2.rank\n"),
             "f2": ast.parse("__all__ = ['rank', 'planted']\n"),
             "lie": ast.parse("from .f2 import planted\n__all__ = ['bracket']\n"),
             "bare": ast.parse("x = 1\n")}
    assert _uncalled_exports("f2", {k: trees[k] for k in ("cli", "f2")}) == ["planted"]
    assert _uncalled_exports("f2", trees) == []
    assert _uncalled_exports("lie", trees) == []
    assert _exports(trees["bare"]) is None
    text = "reads `ExpansionGroup.mul_table()` and `ExpansionGroup.cayley_tree()`"
    assert _unresolved(text) == ["ExpansionGroup.cayley_tree"]
    tree = ast.parse(
        "def f():\n    from .f2 import rank, spans_equal\n    return rank([])\n"
        "def g():\n    import numpy as np\n    def inner():\n        return np.ones(1)\n"
        "    return inner\n"
        "def h():\n    def inner():\n        from .lie import bracket\n    return bracket\n")
    assert _unused_local_imports(tree) == ["line 2: f imports spans_equal unused",
                                           "line 11: inner imports bracket unused"]
    tree = ast.parse("import os\nif os.sep:\n    from numpy import zeros\nZ = np.uint64(0)\n")
    assert _numpy_misuse(tree) == ["line 0: <module> reads np unbound",
                                   "line 3: module-level numpy import"]
    tree = ast.parse(
        "def bare(a: np.ndarray) -> np.ndarray:\n    return np.zeros(1)\n"
        "def annotated(a: np.ndarray) -> np.ndarray:\n    x: np.ndarray = a\n    return x\n"
        "class C:\n"
        "    def own(self):\n        import numpy as np\n        return np.ones(1)\n"
        "    def outer(self):\n        import numpy as np\n"
        "        def inner():\n            return np.ones(1)\n        return inner\n"
        "    def lost(self):\n        def inner():\n            import numpy as np\n"
        "        return np.ones(1)\n")
    assert _numpy_misuse(tree) == ["line 1: bare reads np unbound",
                                   "line 15: lost reads np unbound"]
    tree = ast.parse(
        "import time\n"
        "def cmd_x(args) -> RunReport:\n    t0 = time.perf_counter()\n"
        "    try:\n        return {}, True\n    except ValueError:\n        pass\n"
        "def helper():\n    try:\n        pass\n    finally:\n        pass\n")
    assert _report_misuse(tree) == ["line 2: cmd_x names RunReport",
                                    "line 3: cmd_x names perf_counter",
                                    "line 4: cmd_x has a try"]
    tree = ast.parse("WRAPPED = (('f2', 'rank', 'f2.eliminate', None, hook),)\n"
                     "COUNTED = (('arith', 'gone', 'arith.gone_calls'),)\n")
    tables = _traced(tree)
    assert tables == {"WRAPPED": [("f2", "rank")], "COUNTED": [("arith", "gone")]}
    assert _untraceable(tables["WRAPPED"] + tables["COUNTED"]) == ["arith.gone"]


def _package_modules():
    for path in MODULES:
        name = "genusforge" if path.stem == "__init__" else f"genusforge.{path.stem}"
        yield path.stem, importlib.import_module(name)


def _clear_package_state() -> None:
    """Empty every functools cache of the package and expmaps._CONTEXTS."""
    for stem, mod in _package_modules():
        if stem == "expmaps":
            mod._CONTEXTS.clear()
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _container_sizes() -> dict[str, int]:
    """Length of every module-level dict, list and set of the package."""
    return {f"{stem}.{attr}": len(value) for stem, mod in _package_modules()
            for attr, value in vars(mod).items()
            if isinstance(value, (dict, list, set))}


def _grown(before: dict[str, int], after: dict[str, int]) -> list[str]:
    return sorted(name for name, size in after.items() if size > before.get(name, 0))


def _commands() -> None:
    cli = importlib.import_module("genusforge.cli")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--json", "dims", "--shape", "2,1,1,1"])
        cli.main(["--json", "reconstruct", "--shape", "2,1", "--j", "2"])


def test_no_state_outlives_the_caches():
    # the benchmark starts every job from cleared caches; a memo kept in a
    # plain module-level container would survive that
    _clear_package_state()
    before = _container_sizes()
    _commands()
    _clear_package_state()
    assert not _grown(before, _container_sizes())


def test_leftover_state_check_can_fail(monkeypatch):
    tensors = importlib.import_module("genusforge.tensors")
    seen: dict = {}
    monkeypatch.setattr(tensors, "_SEEN", seen, raising=False)
    check = tensors._pair_check
    monkeypatch.setattr(tensors, "_pair_check",
                        lambda k: seen.setdefault(k, check(k)))
    _clear_package_state()
    before = _container_sizes()
    _commands()
    _clear_package_state()
    assert _grown(before, _container_sizes()) == ["tensors._SEEN"]
