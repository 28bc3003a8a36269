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
