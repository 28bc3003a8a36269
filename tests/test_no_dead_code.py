"""Every function and class defined in the package is named somewhere else.

The check parses `src/braidties/*.py` and `tests/*.py` with `ast`.  A
definition counts as used when its name appears, outside its own body, as
a variable, an attribute or an imported name.  Dunder methods are called
by the language and are exempt.  Matching is by name only, so one use
covers every definition that shares the name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "braidties").glob("*.py"))
FILES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


class _Names(ast.NodeVisitor):
    """Collects defined names and the names referenced outside the body
    of the definition that carries them."""

    def __init__(self):
        self.defined: list[tuple[str, int]] = []
        self.used: set[str] = set()
        self._enclosing: list[str] = []

    def _definition(self, node):
        self.defined.append((node.name, node.lineno))
        self._enclosing.append(node.name)
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


def _scan(path: Path) -> _Names:
    names = _Names()
    names.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return names


def test_no_definition_is_uncalled():
    scans = {path: _scan(path) for path in FILES}
    used = set().union(*(scan.used for scan in scans.values()))
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in SOURCES
              for name, line in scans[path].defined
              if name not in used
              and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, "defined but named nowhere else:\n" + "\n".join(unused)


def _defaulted_parameters(path: Path):
    """(callee names, parameter, call position, line) for every parameter
    with a default of every function in path.  A method's position skips
    self or cls; `__init__` is called by its class's name."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, None)
                name = child.name
                if name == "__init__" and owner:
                    names = {owner, name}
                elif name.startswith("__") and name.endswith("__"):
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
                    out.append((names, arg.arg, i - skip, arg.lineno))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((names, arg.arg, None, arg.lineno))
            else:
                visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), None)
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


def test_every_defaulted_parameter_is_set():
    calls = _calls([ast.parse(path.read_text(encoding="utf-8"), str(path))
                    for path in FILES])
    unset = [f"{path.relative_to(ROOT)}:{line} {param}"
             for path in SOURCES
             for names, param, position, line in _defaulted_parameters(path)
             if not any(keywords is None or param in keywords
                        or (position is not None and position < count)
                        for name in names
                        for count, keywords in calls.get(name, ()))]
    assert not unset, ("defaulted parameters no call sets:\n"
                       + "\n".join(unset))
