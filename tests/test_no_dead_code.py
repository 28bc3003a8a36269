"""The package uses every function, class and defaulted parameter it defines.

The checks parse `src/braidties/*.py` with `ast` and count only uses inside
`src/`: a definition that only tests name, or a default that only tests
override, is code that no command runs.  A definition counts as used when
its name appears, outside its own body, as a variable, an attribute or an
imported name; a defaulted parameter counts as set when a call passes it.
Dunder methods are called by the language and are exempt.  Matching is by
name only, so one use covers every definition that shares the name.

`ALLOWLIST` exempts a definition, named `module.qualname`, from both
checks.  Each entry carries its reason, and each must be one that a check
would otherwise report.  Reference oracles belong in the tests that use
them, not here.

A third check reads each module under `tests/` on its own: every name it
imports must be read somewhere in that module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "braidties").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

ALLOWLIST = {
    "coxeter.d_subset":
        "the paper's D_I of a subset I; commands compute D per class",
    "coxeter.howlett_order":
        "the paper's N_I of a subset I; commands compute N per class",
    "coxeter.partitions_P":
        "the paper's P(n) with the number of subsets realizing each class",
    "cli.main":
        "the console-script entry point; argv serves in-process callers",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


class _Names(ast.NodeVisitor):
    """Collects (name, qualified name, line) of every definition and the
    names referenced outside the body of the definition that carries
    them."""

    def __init__(self):
        self.defined: list[tuple[str, str, int]] = []
        self.used: set[str] = set()
        self._enclosing: list[str] = []

    def _definition(self, node):
        self._enclosing.append(node.name)
        self.defined.append((node.name, ".".join(self._enclosing),
                             node.lineno))
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name: str):
        if name not in self._enclosing:
            self.used.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._use(node.name.rsplit(".", 1)[-1])


def uncalled(sources: list[Path]) -> list[tuple[str, str]]:
    """(module.qualname, where) of every definition in sources that no
    source names."""
    scans = {}
    for path in sources:
        scans[path] = _Names()
        scans[path].visit(_parse(path))
    used = set().union(*(scan.used for scan in scans.values()))
    return [(f"{path.stem}.{qual}", f"{path.name}:{line} {qual}")
            for path in sources
            for name, qual, line in scans[path].defined
            if name not in used and not _dunder(name)]


def _defaulted_parameters(path: Path):
    """(qualified name, callee names, parameter, call position, line) for
    every parameter with a default of every function in path.  A method's
    position skips self or cls; `__init__` is called by its class's
    name."""
    out = []

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, prefix + (child.name,))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                qual = ".".join(prefix + (name,))
                visit(child, None, prefix + (name,))
                if name == "__init__" and owner:
                    names = {owner, name}
                elif _dunder(name):
                    continue
                else:
                    names = {name}
                args = child.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if owner and not static else 0
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    out.append((qual, names, arg.arg, i - skip, arg.lineno))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((qual, names, arg.arg, None, arg.lineno))
            else:
                visit(child, owner, prefix)

    visit(_parse(path), None, ())
    return out


def _calls(trees) -> dict[str, list[tuple[float, set | None]]]:
    """Per callee name: (positional argument count, keyword names) of every
    call, the count infinite after a `*` and the names None after a `**`.
    A name bound by `import ... as` is read as the imported name."""
    aliases = {a.asname: a.name.rsplit(".", 1)[-1] for tree in trees
               for a in ast.walk(tree) if isinstance(a, ast.alias) and a.asname}
    out: dict[str, list] = {}
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                name = aliases.get(func.id, func.id)
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            count = (float("inf") if any(isinstance(a, ast.Starred)
                                         for a in call.args)
                     else len(call.args))
            keywords = {k.arg for k in call.keywords}
            out.setdefault(name, []).append(
                (count, None if None in keywords else keywords))
    return out


def unset_parameters(sources: list[Path]) -> list[tuple[str, str]]:
    """(module.qualname, where) of every defaulted parameter that no call
    in sources sets."""
    calls = _calls([_parse(path) for path in sources])
    return [(f"{path.stem}.{qual}", f"{path.name}:{line} {qual}({param})")
            for path in sources
            for qual, names, param, position, line
            in _defaulted_parameters(path)
            if not any(keywords is None or param in keywords
                       or (position is not None and position < count)
                       for name in names
                       for count, keywords in calls.get(name, ()))]


def unused_imports(path: Path) -> list[str]:
    """`file:line name` of every name that path imports and never reads
    as a variable or as the base of an attribute; `__future__` imports
    bind nothing."""
    tree = _parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in imported.items() if name not in read]


def outside(found: list[tuple[str, str]], allowlist: dict[str, str]
            ) -> list[str]:
    return [where for key, where in found if key not in allowlist]


def allowlist_faults(sources: list[Path],
                     allowlist: dict[str, str]) -> list[str]:
    """Allowlist entries without a reason, or that neither check would
    report."""
    reported = {key for key, _ in uncalled(sources) + unset_parameters(sources)}
    return ([f"{entry}: no reason" for entry, reason in allowlist.items()
             if not reason.strip()]
            + [f"{entry}: reported by neither check" for entry in allowlist
               if entry not in reported])


def test_no_definition_is_uncalled():
    unused = outside(uncalled(SOURCES), ALLOWLIST)
    assert not unused, ("defined but named nowhere else in src:\n"
                        + "\n".join(unused))


def test_every_defaulted_parameter_is_set():
    unset = outside(unset_parameters(SOURCES), ALLOWLIST)
    assert not unset, ("defaulted parameters no call in src sets:\n"
                       + "\n".join(unset))


def test_allowlist_is_reasoned_and_needed():
    faults = allowlist_faults(SOURCES, ALLOWLIST)
    assert not faults, "\n".join(faults)


def test_no_test_module_imports_an_unused_name():
    unused = [where for path in TESTS for where in unused_imports(path)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_unused_import_check_on_a_synthetic_module(tmp_path):
    path = tmp_path / "test_mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from pkg.mod import helper, run as go, unused\n"
        "import json as js\n"
        "\n"
        "def test_mod(tmp: os.PathLike):\n"
        "    assert go(math.pi) == helper(tmp)\n", encoding="utf-8")
    assert unused_imports(path) == ["test_mod.py:4 unused", "test_mod.py:5 js"]


def test_checks_ignore_uses_in_tests(tmp_path):
    src, tests = tmp_path / "src" / "pkg", tmp_path / "tests"
    src.mkdir(parents=True)
    tests.mkdir()
    (src / "mod.py").write_text(
        "def helper():\n"
        "    return 1\n"
        "\n"
        "def run(x, flag=False):\n"
        "    return -x if flag else x\n"
        "\n"
        "def main():\n"
        "    return run(1)\n", encoding="utf-8")
    (tests / "test_mod.py").write_text(
        "from pkg.mod import helper, main, run\n"
        "\n"
        "def test_mod():\n"
        "    assert helper() == main() == run(1) == -run(1, flag=True)\n",
        encoding="utf-8")
    sources = [src / "mod.py"]
    entry = {"mod.main": "entry point"}
    assert outside(uncalled(sources), entry) == ["mod.py:1 helper"]
    assert outside(uncalled(sources), {}) == ["mod.py:1 helper",
                                              "mod.py:7 main"]
    assert outside(unset_parameters(sources), entry) == ["mod.py:4 run(flag)"]
    assert outside(unset_parameters(sources), {"mod.run": "kept"}) == []
    # read as a source, the test would hide both
    both = sources + [tests / "test_mod.py"]
    assert "mod.py:1 helper" not in outside(uncalled(both), entry)
    assert outside(unset_parameters(both), entry) == []
    assert allowlist_faults(sources, entry) == []
    assert allowlist_faults(sources, {"mod.main": " "}) == [
        "mod.main: no reason"]
    assert allowlist_faults(sources, {"mod.gone": "deleted"}) == [
        "mod.gone: reported by neither check"]
