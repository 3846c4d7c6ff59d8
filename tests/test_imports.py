"""Source hygiene for every module of ``src/wseries`` and of ``tests``:
each name it imports is used in it, and it parses as Python 3.10, the
oldest version ``pyproject.toml`` admits.  Every private name of
``src/wseries`` (a module-level function, class or constant, or a method
or class attribute of a module-level class, whose name starts with one
underscore) is named by some module of ``src/wseries`` outside its own
definition, so no dead private code is left behind.  Every public name
of the package (a name of ``wseries.__all__`` or a public member of
``Series``) is named by ``src/wseries`` or by the benchmark's modules
outside its own definition and the re-export in ``__init__.py``, so the
library keeps only what its callers use (:func:`unused_public_names`);
the one exception is :data:`TEST_ONLY`.  No module other
than ``series.py`` names the unchecked constructor ``Series._make`` or a
packed-table helper (:data:`SERIES_ONLY`), so every other module builds a
series through a checked constructor or a ``series.py`` operation.  No
module of ``src/wseries`` tests an argument with ``isinstance(..., int)``
(:func:`int_type_checks`): an integer argument goes through one rule of
``series.py``, ``_size`` or ``_integral`` for a count, an order or a power,
``_index`` for a variable position, ``_exponent`` for an exponent and
``_axis`` for the exponent of ``x_k^j``, so a numpy integer or an integral
float is taken or refused the same way everywhere.  No module of
``src/wseries`` adds to, subtracts from or floor-divides a
``guaranteed_degree`` outside ``series._certified``
(:func:`certificate_arithmetic`): every certificate is that rule of a read
map, or a minimum over inputs.

No linter runs on this repository, so this is its unused-import check.  It
skips ``from __future__`` imports, names that the module exports through
``__all__``, and imports on a line marked ``# noqa: F401`` (kept for a
caller outside the module)."""

import ast
from pathlib import Path

import pytest

import wseries

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wseries"
MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
#: modules of the benchmark that call the package; its self-tests are not
#: a caller
BENCH = [p for p in sorted((TESTS.parent / "perfbench").glob("*.py"))
         if p.name != "test_perfbench.py"]
#: public names that only the tests use: the comparator of stored tables
TEST_ONLY = {"Series.same_data"}
#: names that only ``series.py`` may use within ``src/wseries``
SERIES_ONLY = {"_make", "_Keys", "_solve", "_products", "_flatten"}


def unused_imports(text: str) -> set:
    """The names imported by the module ``text`` and never used in it."""
    tree, lines = ast.parse(text), text.splitlines()
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = any("# noqa: F401" in lines[i]
                         for i in range(node.lineno - 1, node.end_lineno))
            if marked or getattr(node, "module", None) == "__future__":
                continue
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
        for note in _annotations(node):
            # a string annotation such as "Series" names what it uses
            for c in ast.walk(note):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(
                        c.value, mode="eval")) if isinstance(n, ast.Name))
    return imported - used - exported


def _annotations(node) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return [node.annotation] if node.annotation else []
    return []


def named(tree) -> set:
    """Every name the syntax tree ``tree`` uses: as a name, an attribute
    or an imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def mentioned(tree) -> set:
    """:func:`named` of the syntax tree ``tree``, and every string constant
    in it: a name looked up by its string."""
    return named(tree) | {node.value for node in ast.walk(tree)
                          if isinstance(node, ast.Constant)
                          and isinstance(node.value, str)}


def _defines(node) -> list:
    """The names the statement ``node`` defines: a function or class, or
    the plain targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def unnamed(texts: dict, checked, names=named) -> set:
    """``(module, name)`` for each name defined by the modules ``texts``
    (module name to source) that ``checked(name, cls)`` picks and that
    nothing outside its own definition names (by ``names`` of a syntax
    tree).  A module-level function, class or constant is picked with
    ``cls`` ``None`` and reported as ``name``, and a use anywhere in its
    own top-level statement does not count.  A method or class attribute of
    a module-level class is picked with ``cls`` the class's name and
    reported as ``Class.name``, and a use in its own statement of the class
    body does not count, but one in another member of the class does."""
    defined, users = [], []
    for module, text in texts.items():
        for top in ast.parse(text).body:
            members = top.body if isinstance(top, ast.ClassDef) else []
            users += [(top, part, names(part)) for part in [top] + members]
            defined += [(module, n, top, None) for n in _defines(top)
                        if checked(n, None)]
            defined += [(module, f"{top.name}.{n}", top, part)
                        for part in members for n in _defines(part)
                        if checked(n, top.name)]
    return {(module, name) for module, name, top, part in defined
            if not any(name.split(".")[-1] in names
                       for t, p, names in users
                       if (t is not top if part is None
                           else p is not part and p is not top))}


def dead_private_names(texts: dict) -> set:
    """:func:`unnamed` for the private names (one leading underscore) of
    the modules ``texts``, named as a name, an attribute or an imported
    name."""
    return unnamed(texts, lambda name, cls: name.startswith("_")
                   and not name.startswith("__"))


def unused_public_names(texts: dict, exported: set) -> set:
    """:func:`unnamed` for the names of ``exported`` and the public members
    of ``Series`` defined by the modules ``texts``, named as a name, an
    attribute, an imported name or a string constant.  ``__init__`` is
    left out: it only re-exports."""
    return unnamed({m: t for m, t in texts.items() if m != "__init__"},
                   lambda name, cls: (name in exported if cls is None else
                                      cls == "Series"
                                      and not name.startswith("_")),
                   mentioned)


def int_type_checks(text: str) -> list:
    """The line numbers of the calls ``isinstance(value, int)`` in the
    module ``text``, and of those whose literal tuple of types holds
    ``int``."""
    lines = []
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(k, ast.Name) and k.id == "int" for k in kinds):
                lines.append(node.lineno)
    return lines


#: operators that turn a certificate into another one
_CERTIFICATE_OPS = (ast.Add, ast.Sub, ast.FloorDiv)


def certificate_arithmetic(text: str) -> list:
    """The line numbers of the ``+``, ``-`` and ``//`` (plain or augmented)
    in the module ``text`` with a ``.guaranteed_degree`` anywhere in an
    operand, outside the function ``_certified``."""
    lines = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "_certified":
            return
        sides = ((node.left, node.right) if isinstance(node, ast.BinOp)
                 else (node.target, node.value)
                 if isinstance(node, ast.AugAssign) else ())
        if sides and isinstance(node.op, _CERTIFICATE_OPS) and any(
                isinstance(n, ast.Attribute) and n.attr == "guaranteed_degree"
                for side in sides for n in ast.walk(side)):
            lines.add(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(text))
    return sorted(lines)


def test_the_check_finds_certificate_arithmetic():
    text = ("def _certified(s, read):\n"
            "    return (s.guaranteed_degree - read[1]) // read[0]\n"
            "def rules(self, f, g, h, d, loss):\n"
            "    gd = min(max(self.guaranteed_degree - loss, 0), self.trunc)\n"
            "    cert = min(g.guaranteed_degree, f.guaranteed_degree) - d\n"
            "    half = (f.guaranteed_degree + 1) // 2\n"
            "    least = min(g.guaranteed_degree, f.guaranteed_degree)\n"
            "    least += h.guaranteed_degree\n"
            "    return least * h.guaranteed_degree, _certified(h, (1, d))\n")
    assert certificate_arithmetic(text) == [4, 5, 6, 8]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_certificate_comes_from_the_one_rule(path):
    lines = certificate_arithmetic(path.read_text())
    assert not lines, (f"{path.name} forms a certificate by hand on {lines}; "
                       "call series._certified with its read map")


def test_the_check_finds_an_int_type_check():
    text = ("def f(k, p, c):\n"
            "    if isinstance(k, int):\n"
            "        return all(isinstance(q, (float, int)) for q in p)\n"
            "    return isinstance(c, (Fraction, str)) or isinstance(c, _T)\n")
    assert int_type_checks(text) == [2, 3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_checks_an_argument_by_int_type(path):
    lines = int_type_checks(path.read_text())
    assert not lines, f"{path.name} calls isinstance(..., int) on {lines}"


def test_the_check_finds_an_unused_import():
    text = ("from __future__ import annotations\n"
            "from typing import Iterable, Mapping\n"
            "import os.path\n"
            "from json import dumps  # noqa: F401\n"
            "from math import gcd as g\n"
            "from re import (compile,\n"
            "                escape)\n"
            "__all__ = ['escape']\n"
            "def f(x: 'Mapping[str, int]') -> 'g':\n"
            "    return compile(x)\n")
    assert unused_imports(text) == {"Iterable", "os"}


def test_the_check_finds_a_dead_private_name():
    texts = {"a": ("_LIMIT = 3\n"
                   "_SPARE: int = 4\n"
                   "def _used(x):\n"
                   "    return x + _LIMIT\n"
                   "def _recursive(n):\n"
                   "    return _recursive(n - 1) if n else 0\n"
                   "class _Lonely:\n"
                   "    def _method(self):\n"
                   "        return _Lonely()\n"
                   "def public(x):\n"
                   "    return _used(x).__class__\n"),
             "b": ("from .a import _Helper\n"
                   "def run(mod):\n"
                   "    return mod._by_attribute, mod.Shape()._bump()\n"),
             "c": ("class _Helper:\n"
                   "    pass\n"
                   "def _by_attribute():\n"
                   "    pass\n"
                   "class Shape:\n"
                   "    _count = 0\n"
                   "    _spare: int = 1\n"
                   "    def _bump(self):\n"
                   "        return self._count + 1\n"
                   "    def _loop(self):\n"
                   "        return self._loop()\n")}
    assert dead_private_names(texts) == {
        ("a", "_SPARE"), ("a", "_recursive"), ("a", "_Lonely"),
        ("a", "_Lonely._method"), ("c", "Shape._spare"), ("c", "Shape._loop")}


def test_every_private_name_of_the_package_is_used():
    texts = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert not dead_private_names(texts)


def test_the_check_finds_an_unused_public_name():
    texts = {"__init__": ("from .a import Series, helper, spare\n"
                          "__all__ = ['Series', 'helper', 'spare']\n"),
             "a": ("class Series:\n"
                   "    def used(self):\n"
                   "        return self.looked_up\n"
                   "    def looked_up(self):\n"
                   "        return self._private()\n"
                   "    def unused(self):\n"
                   "        return self.unused()\n"
                   "    def _private(self):\n"
                   "        return 0\n"
                   "    limit = 3\n"
                   "class Other:\n"
                   "    def spare(self):\n"
                   "        return 0\n"
                   "def helper(s):\n"
                   "    return s.used()\n"
                   "def spare():\n"
                   "    return spare()\n"),
             "run": ("from a import helper as h\n"
                     "def main(s):\n"
                     "    return h(Series.__dict__['limit'])\n")}
    assert unused_public_names(texts, {"Series", "helper", "spare"}) == {
        ("a", "Series.unused"), ("a", "spare")}


def test_every_public_name_of_the_package_is_used():
    texts = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py")) + BENCH}
    exported = set(wseries.__all__)
    assert exported <= {n for text in texts.values()
                        for top in ast.parse(text).body
                        for n in _defines(top)}
    unused = {name for _, name in unused_public_names(texts, exported)}
    assert unused == TEST_ONLY, (
        f"no library or benchmark code names {sorted(unused)}; only "
        f"{sorted(TEST_ONLY)} may be left to the tests")


def test_the_check_finds_a_series_only_name():
    text = ("from .series import Series, _Keys as K\n"
            "def leaf(n, t):\n"
            "    return Series._make(n, t, {}, t)\n")
    assert named(ast.parse(text)) & SERIES_ONLY == {"_Keys", "_make"}


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "series.py"],
    ids=lambda p: p.name)
def test_only_series_py_builds_unchecked_or_reads_packed_tables(path):
    used = named(ast.parse(path.read_text())) & SERIES_ONLY
    assert not used, f"{path.name} names {sorted(used)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} never uses {sorted(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
