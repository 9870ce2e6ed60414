"""Which definitions of ``src/nodehilb`` a set of roots reaches, read off the source.

The one reachability walk of the tests: the route table of
``test_routes.py`` asks it which code two routes share, and which
definitions no command reaches.  It over-approximates what can run and
never under-approximates it:

* a bare name reaches the definition of that name in its own module, or
  the one that a ``from .m import name`` brings in;
* ``m.name``, with ``m`` a relatively imported module, reaches ``name``
  in m;
* any other ``.attr`` reaches every method named ``attr``;
* a string constant naming a definition of its own module reaches it,
  since ``cli.SUITES`` names its reports and ``run_verify`` looks them up
  through ``globals()``;
* a class reaches its dunder methods and its bases.

Everything inside a definition counts, annotations too.  A definition is a
function or class at the top of a module, or a method, named
``module.name`` or ``module.Class.method``.  A module-level variable is
not one: a name bound to it reaches what its value reaches.  A module's
body, named by the module, reaches what its other statements name, and an
import in it reaches the imported module's body and the package's
(``__init__``), which Python runs first.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nodehilb"


class CallGraph:
    """The call graph of every module of the package.

    ``sources`` maps a module name to a text that replaces its file, so a
    test can walk a changed module without editing it.
    """

    def __init__(self, **sources: str):
        texts = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
        texts.update(sources)
        self.definitions: set[str] = set()
        self.imports: dict[str, set[str]] = {}  # module -> the modules it imports relatively
        self._runs: dict[str, list[ast.AST]] = {}  # node -> the syntax it runs
        self._links: dict[str, set[str]] = {}  # node -> nodes it reaches whatever it runs
        self._scopes: dict[str, dict[str, str]] = {}  # module -> bare name -> node
        self._aliases: dict[str, dict[str, str]] = {}  # module -> name -> module it names
        self._methods: dict[str, set[str]] = {}  # method name -> every method so named
        for module, text in texts.items():
            self._declare(module, ast.parse(text))
        self._edges = {
            node: self._links.get(node, set()).union(*(self._named(node.split(".")[0], s) for s in run))
            for node, run in self._runs.items()
        }

    def _declare(self, module: str, tree: ast.Module) -> None:
        """Record the nodes of one module, its bare names and its imports."""
        scope, aliases, imported = {}, {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if node.module:  # from .m import name
                        imported.add(node.module)
                        scope[name] = f"{node.module}.{alias.name}"
                    else:  # from . import m
                        imported.add(alias.name)
                        aliases[name] = alias.name
        body = []
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                qual = scope[stmt.name] = f"{module}.{stmt.name}"
                self.definitions.add(qual)
                self._runs[qual] = [stmt]
                if isinstance(stmt, ast.ClassDef):
                    self._declare_class(qual, stmt)
                continue
            body.append(stmt)
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            else:
                targets = [stmt.target] if isinstance(stmt, ast.AnnAssign) and stmt.value else []
            for target in targets:
                if isinstance(target, ast.Name):
                    scope[target.id] = f"{module}.{target.id}"
                    self._runs[scope[target.id]] = [stmt.value]
        self._scopes[module], self._aliases[module], self.imports[module] = scope, aliases, imported
        self._runs[module] = body
        self._links[module] = (imported | {"__init__"}) - {module}

    def _declare_class(self, qual: str, cls: ast.ClassDef) -> None:
        """A class runs its bases, decorators and body, and reaches its dunder methods."""
        runs, dunders = [*cls.bases, *cls.keywords, *cls.decorator_list], set()
        for item in cls.body:
            if not isinstance(item, ast.FunctionDef):
                runs.append(item)
                continue
            method = f"{qual}.{item.name}"
            self.definitions.add(method)
            self._runs[method] = [item]
            self._methods.setdefault(item.name, set()).add(method)
            if item.name.startswith("__") and item.name.endswith("__"):
                dunders.add(method)
        self._runs[qual], self._links[qual] = runs, dunders

    def _named(self, module: str, syntax: ast.AST) -> set[str]:
        """The nodes that ``syntax``, standing in ``module``, names."""
        scope, aliases = self._scopes[module], self._aliases[module]
        out = set()
        for node in ast.walk(syntax):
            if isinstance(node, ast.Name) and node.id in scope:
                out.add(scope[node.id])
            elif isinstance(node, ast.Attribute):
                base = node.value
                if isinstance(base, ast.Name) and base.id in aliases:
                    out.add(f"{aliases[base.id]}.{node.attr}")
                else:
                    out |= self._methods.get(node.attr, set())
            elif isinstance(node, ast.Constant) and f"{module}.{node.value}" in self.definitions:
                out.add(f"{module}.{node.value}")
        return out & self._runs.keys()

    def reach(self, roots) -> set[str]:
        """Every definition that ``roots`` reach, roots included.

        A root is a definition or a module; an unknown root raises KeyError.
        """
        seen, todo = set(), list(roots)
        while todo:
            node = todo.pop()
            if node not in seen:
                todo.extend(self._edges[node])
                seen.add(node)
        return seen & self.definitions
