import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dompack"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# What a user, the acceptance criteria or the benchmark may call by name.
DOCUMENTS = [
    ROOT / "README.md",
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def unused_imports(source: str) -> list[str]:
    """Names a module imports (at any depth) and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_guard_sees_a_dead_import():
    assert unused_imports("import os\nfrom .graph import Graph, VertexSet\nVertexSet\n") == [
        "Graph",
        "os",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    # A name kept alive only as an import would also keep a traced name in
    # perfbench/spans.py resolving after its last call is gone.
    assert unused_imports(path.read_text()) == []


def bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [leaf.id for t in targets for leaf in ast.walk(t) if isinstance(leaf, ast.Name)]


def unread_definitions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(label, name) of each definition that no source in `sources` reads:
    module-level functions, classes and constants (read as a bare name) and
    the methods of module-level classes (read as an attribute).  An import
    alone is no read, and dunder names are left out."""
    defined, names, attributes = [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            defined += [(f"{module}.{name}", name, names) for name in bound_names(node)]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{module}.{node.name}.{item.name}", item.name, attributes)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return sorted(
        (label, name)
        for label, name, reads in defined
        if not name.startswith("__") and name not in reads
    )


def dead_private_definitions(sources: dict[str, str]) -> list[str]:
    """Private `_name` definitions that no source in `sources` reads."""
    return [label for label, name in unread_definitions(sources) if name.startswith("_")]


def test_guard_sees_a_dead_private_definition():
    sources = {
        "a": "_LIMIT = 3\n_unused: int = 0\ndef _helper(): return _LIMIT\n"
        "class C:\n    def _old(self): pass\n    def _kept(self): pass\n",
        "b": "from a import _helper\n_helper()\nC()._kept()\n",
    }
    assert dead_private_definitions(sources) == ["a.C._old", "a._unused"]


def test_no_private_definition_goes_unread():
    # A kernel replaced by a shared one must leave no uncalled copy behind.
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert dead_private_definitions(sources) == []


def unreached_public_definitions(sources: dict[str, str], documents: str) -> list[str]:
    """Public definitions that no source in `sources` reads and `documents`
    never names: a module-level name as a word, a method (labelled
    module.Class.name) only as an attribute, `.name`."""
    words = set(re.findall(r"\w+", documents))
    attributes = set(re.findall(r"\.(\w+)", documents))
    return [
        label
        for label, name in unread_definitions(sources)
        if not name.startswith("_")
        and name not in (attributes if label.count(".") == 2 else words)
    ]


def test_guard_sees_an_unreached_public_definition():
    sources = {
        "a": "def helper(): pass\ndef gone(): pass\ndef documented(): pass\n"
        "class C:\n    def old(self): pass\n    def kept(self): pass\n    def full(self): pass\n"
        "    def shown(self): pass\n",
        "b": "from a import C, gone, helper\nhelper()\nC().kept()\n",
    }
    documents = "Call `documented()` or `c.shown()` for the full set."
    assert unreached_public_definitions(sources, documents) == ["a.C.full", "a.C.old", "a.gone"]


def test_every_public_definition_is_reached():
    # A public name that only the tests call is code nothing needs: the
    # package, the README, the acceptance criteria or the benchmark must.
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    documents = "\n".join(p.read_text() for p in DOCUMENTS)
    assert unreached_public_definitions(sources, documents) == []


def shared_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level names that more than one of `sources` defines."""
    modules: dict[str, set[str]] = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            for name in bound_names(node):
                modules.setdefault(name, set()).add(module)
    return sorted(name for name, where in modules.items() if len(where) > 1)


def test_guard_sees_a_shared_definition():
    sources = {
        "a": "def _adjacency(mask, n): pass\n_LIMIT = 3\n_LIMIT = 4\n",
        "b": "def _adjacency(mask, n): pass\nx = _adjacency(0, 1)\n",
    }
    assert shared_definitions(sources) == ["_adjacency"]


def test_no_name_is_defined_in_two_modules():
    # One copy of each kernel: a copy left behind and still called in its old
    # module escapes the unread-definition guard above, but not this one.
    assert shared_definitions({p.stem: p.read_text() for p in MODULES}) == []


def pair_checkers(sources: dict[str, str]) -> list[str]:
    """module.function for each function (at any depth) that calls both
    `is_dominating` and `is_packing`."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef):
                called = {
                    call.func.id
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                }
                if {"is_dominating", "is_packing"} <= called:
                    found.append(f"{module}.{node.name}")
    return sorted(found)


def test_guard_sees_a_second_pair_check():
    sources = {
        "a": "def _pair_fault(g, d, p):\n    return is_dominating(g, d), is_packing(g, p)\n",
        "b": "def check(g, d, p):\n    if is_packing(g, p) and is_dominating(g, d):\n"
        "        return 1\ndef half(g, d):\n    return is_dominating(g, d)\n",
    }
    assert pair_checkers(sources) == ["a._pair_fault", "b.check"]


def test_one_place_checks_a_domination_packing_pair():
    # Every (D, P) bound rests on one check; a second pairing of the two
    # predicates could drift from it (for example by short-circuiting past a
    # set of the wrong capacity).
    assert pair_checkers({p.stem: p.read_text() for p in MODULES}) == ["graph._pair_fault"]



# The names through which the CLI reaches a search or the gamma = rho pass.
SOLVES = {"exact_domination", "exact_packing", "_pass_pair"}


def solve_readers(source: str) -> list[str]:
    """The module-level definitions of `source` that read a name in SOLVES,
    as a bare name or as an attribute ("<module>" for any other statement).
    An import is no read."""
    found = set()
    for node in ast.parse(source).body:
        for leaf in ast.walk(node):
            name = leaf.id if isinstance(leaf, ast.Name) else getattr(leaf, "attr", None)
            if name in SOLVES:
                found.add(getattr(node, "name", "<module>"))
    return sorted(found)


def test_guard_sees_a_second_way_to_solve():
    source = (
        "from .solvers import exact_domination, exact_packing\n"
        "def _gamma_rho(g):\n    return exact_domination(g), exact_packing(g)\n"
        "def cmd_compute(args):\n    return [exact_packing(g) for g in args]\n"
        "class Runner:\n    def run(self, g):\n        return solvers.exact_domination(g)\n"
        "def cmd_verify(args):\n    return _gamma_rho(args)\n"
        "PASS = _pass_pair\n"
    )
    assert solve_readers(source) == ["<module>", "Runner", "_gamma_rho", "cmd_compute"]


def test_only_gamma_rho_solves_in_the_cli():
    # Every gamma, rho and witness the CLI prints comes from one path, which
    # tries the checked pass pair before any search.
    assert solve_readers((PACKAGE / "cli.py").read_text()) == ["_gamma_rho"]
