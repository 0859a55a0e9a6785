"""Every import in the package is used where it is made, and every
module-level function or class, and every public class member, has a
caller.

There is no linter in the toolchain, so this walks each module's syntax
tree: a name bound by a top-level `import` or `from ... import` must
appear somewhere else in the module as a name or as the base of an
attribute, and a name bound by an import inside a function body must
appear so in that function.  `__init__.py` is exempt, because its
imports are the package's re-exports.  Only `action` itself may reach
the cached per-monomial image `monomial_image`; every other module acts
through `word_images`, `element_image` or `apply_element`, so that there
is one path from words to polynomials.  Only `opalg` may refer to the
canonical word order `word_key`: `opalg.compositions` yields every word
set in that order, so no other module sorts words.  A top-level
`def _name` or `class _Name` must be referenced, as a name or an
attribute, outside its own body in some module of the package; one that
only tests reach is dead code.  The same holds for a public top-level
`def` or `class`, except that an import in `__init__` or a use in a demo
also counts, and a short keep-list names the ones waiting for a command.
A public method, classmethod or property of a top-level class must be
used as an attribute of that name, outside its own body, in the package
or a demo; there is no keep-list for members.  No package module imports
a private `_name` from another; a helper two modules share is public.
The modules sit in layers, and a module imports only from the layers
below its own, lazy imports inside functions included.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jqforge"
DEMOS = PACKAGE.parent.parent / "demos"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused(imports, scope):
    """(line, name) of each name the import statements bind that scope never reads."""
    bound = {}
    for node in imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
    return {(line, name) for name, line in bound.items() if name not in used}


def unused_imports(source):
    """(line, name) of each unused import, in the module body or in any function body."""
    tree = ast.parse(source)
    out = _unused(tree.body, tree)
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out |= _unused(ast.walk(func), func)
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom math import gcd, lcm\nfrom . import relations\n"
    source += "print(gcd, relations.x)\n"
    assert unused_imports(source) == [(1, "os"), (2, "lcm")]


def test_the_check_sees_an_unused_import_in_a_function():
    # chi is never read; format_op is read in the nested g, which counts for f;
    # g's own sys is read only at module level, which does not count for g
    source = "import sys\ndef f():\n    from .opalg import chi, format_op\n"
    source += "    def g():\n        import sys\n        return format_op\n    return g\n"
    source += "print(sys, f)\n"
    assert unused_imports(source) == [(3, "chi"), (5, "sys")]


def importers(sources, name):
    """Sorted modules that import name, at module level or inside a function."""
    return sorted(
        mod
        for mod, src in sources.items()
        if any(
            isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names)
            for node in ast.walk(ast.parse(src))
        )
    )


def test_only_action_imports_the_monomial_image():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert importers(sources, "monomial_image") == []


def test_the_check_sees_an_import_of_the_monomial_image():
    sources = {
        "hit": "def f():\n    from .action import word_images, monomial_image as mi\n",
        "series": "from .action import apply_jq\n",
        "norms": "from jqforge.action import monomial_image\n",
    }
    assert importers(sources, "monomial_image") == ["hit", "norms"]


def referrers(sources, name):
    """Sorted modules that refer to name: by import, as a name or as an attribute."""
    return sorted(
        mod
        for mod, src in sources.items()
        if any(
            isinstance(node, ast.alias) and node.name == name
            or isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            for node in ast.walk(ast.parse(src))
        )
    )


def test_only_opalg_refers_to_the_word_order():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert referrers(sources, "word_key") == ["opalg"]


def test_the_check_sees_a_reference_to_the_word_order():
    sources = {
        "opalg": "def word_key(w):\n    return w\nprint(sorted([], key=word_key))\n",
        "relations": "from .opalg import compositions, word_key as wk\n",
        "norms": "from . import opalg\nprint(sorted([], key=opalg.word_key))\n",
        "hit": "from .opalg import compositions\nprint(list(compositions(3)))\n",
    }
    assert referrers(sources, "word_key") == ["norms", "opalg", "relations"]


def private_imports(sources):
    """(module, name) of each private `_name` a module imports from a package module.

    sources maps module names to source text.  Relative imports and
    absolute ones from `jqforge` count, at module level or inside a
    function; dunder names such as `__version__` do not.
    """
    return sorted(
        (mod, alias.name)
        for mod, src in sources.items()
        for node in ast.walk(ast.parse(src))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "jqforge")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )


def test_no_module_imports_a_private_name():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert private_imports(sources) == []


def test_the_check_sees_a_private_import():
    sources = {
        "norms": "from .relations import _grid_vectors, grid_vectors\n",
        "golden": "def f():\n    from jqforge.series import _coefficient_equations as ce\n",
        "__init__": "from .poly import Polynomial\n__all__ = ['__version__']\n",
        "cli": "from __future__ import annotations\nfrom functools import _lru_cache_wrapper\n",
    }
    assert private_imports(sources) == [
        ("golden", "_coefficient_equations"), ("norms", "_grid_vectors")
    ]


def unreferenced_private_definitions(sources):
    """(module, name) of each private top-level def or class no module refers to.

    sources maps module names to source text.  A reference is a Name or an
    Attribute with the definition's name, outside the definition itself.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    defined = [
        (mod, node)
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    out = []
    for mod, node in defined:
        inside = {id(n) for n in ast.walk(node)}
        used = any(
            id(n) not in inside
            and (isinstance(n, ast.Name) and n.id == node.name
                 or isinstance(n, ast.Attribute) and n.attr == node.name)
            for tree in trees.values()
            for n in ast.walk(tree)
        )
        if not used:
            out.append((mod, node.name))
    return sorted(out)


def test_no_unreferenced_private_definitions():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_definitions(sources) == []


def test_the_check_sees_an_unreferenced_private_definition():
    relations = (
        "def _pair_monomials(deg):\n    return _pair_monomials(deg - 1)\n"
        "def _used():\n    return 1\n"
        "class _Helper:\n    pass\n"
    )
    cli = "from .relations import _Helper\nprint(_Helper, relations._used)\n"
    assert unreferenced_private_definitions({"relations": relations, "cli": cli}) == [
        ("relations", "_pair_monomials")
    ]


def unreferenced_public_definitions(sources, demos):
    """(module, name) of each public top-level def or class nothing else refers to.

    sources maps package module names to source text, demos maps demo
    names to theirs.  A reference is a Name, an Attribute or an imported
    name equal to the definition's name, outside the definition itself.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    others = [ast.parse(src) for src in demos.values()]
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            used = any(
                id(n) not in inside
                and (isinstance(n, ast.Name) and n.id == node.name
                     or isinstance(n, ast.Attribute) and n.attr == node.name
                     or isinstance(n, ast.alias) and n.name == node.name)
                for t in [*trees.values(), *others]
                for n in ast.walk(t)
            )
            if not used:
                out.append((mod, node.name))
    return sorted(out)


# public definitions that only tests reach today, each with the caller it waits for
KEEP_PUBLIC = {
    ("hit", "classical_hit"): "the F_2 hit test, to check an n-variable `cohit` against",
}


def test_no_public_definition_without_a_caller():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    demos = {p.stem: p.read_text(encoding="utf-8") for p in DEMOS.glob("*.py")}
    assert unreferenced_public_definitions(sources, demos) == sorted(KEEP_PUBLIC)


def test_the_check_sees_a_public_definition_without_a_caller():
    opalg = (
        "def counit(e):\n    return counit(e)\n"
        "def chi(k):\n    return k\n"
        "class Sode:\n    pass\n"
        "def word_key(w):\n    return w\n"
        "print(word_key)\n"
    )
    init = "from .opalg import chi\n"
    demo = "from jqforge import opalg\nprint(opalg.Sode)\n"
    assert unreferenced_public_definitions(
        {"opalg": opalg, "__init__": init}, {"03_series": demo}
    ) == [("opalg", "counit")]


def unreferenced_public_members(sources, demos):
    """(module, "Class.name") of each public member of a top-level class nothing uses.

    A member is a method, classmethod or property defined in the class
    body.  sources maps package module names to source text, demos maps
    demo names to theirs.  A use is an Attribute with the member's name,
    outside the member itself, anywhere in the package or the demos.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    others = [ast.parse(src) for src in demos.values()]
    out = []
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                inside = {id(n) for n in ast.walk(node)}
                used = any(
                    id(n) not in inside and isinstance(n, ast.Attribute) and n.attr == node.name
                    for t in [*trees.values(), *others]
                    for n in ast.walk(t)
                )
                if not used:
                    out.append((mod, f"{cls.name}.{node.name}"))
    return sorted(out)


def test_no_public_member_without_a_caller():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    demos = {p.stem: p.read_text(encoding="utf-8") for p in DEMOS.glob("*.py")}
    assert unreferenced_public_members(sources, demos) == []


def test_the_check_sees_a_public_member_without_a_caller():
    # graded_parts calls itself only; degree is read in the demo, norm in
    # another method, zero from another module; __neg__ and _helper are not public
    poly = (
        "class Polynomial:\n"
        "    def graded_parts(self):\n        return self.graded_parts()\n"
        "    def degree(self):\n        return 1\n"
        "    @property\n    def norm(self):\n        return 0\n"
        "    @classmethod\n    def zero(cls):\n        return cls()\n"
        "    @classmethod\n    def variable(cls, i):\n        return cls()\n"
        "    def __neg__(self):\n        return self\n"
        "    def _helper(self):\n        return self.norm\n"
        "def variable(i):\n    return i\n"
        "print(variable(1))\n"
    )
    series = "from .poly import Polynomial\nprint(Polynomial.zero())\n"
    demo = "from jqforge.poly import Polynomial\nprint(Polynomial().degree())\n"
    assert unreferenced_public_members(
        {"poly": poly, "series": series}, {"01_action": demo}
    ) == [("poly", "Polynomial.graded_parts"), ("poly", "Polynomial.variable")]


# lowest first; a module may import only from the layers before its own
LAYERS = [
    {"errors"},
    {"scalar2"},
    {"poly"},
    {"action"},
    {"opalg", "linalg", "witt"},
    {"relations", "hit"},
    {"norms", "series"},
    {"golden"},
    {"cli"},
]


def package_imports(source):
    """Package modules a source imports, at module level or inside a function."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module)
            else:
                out.update(alias.name for alias in node.names)
    return out


def layering_violations(sources):
    """(module, imported module) for each import of the module's own layer or one above."""
    level = {mod: i for i, layer in enumerate(LAYERS) for mod in layer}
    return sorted(
        (mod, dep)
        for mod, src in sources.items()
        for dep in package_imports(src)
        if level[dep] >= level[mod]
    )


def test_every_module_has_a_layer():
    assert {p.stem for p in MODULES} == set().union(*LAYERS)


def test_modules_import_only_lower_layers():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert layering_violations(sources) == []


def test_the_check_sees_an_upward_import():
    sources = {
        "action": "from .poly import Polynomial\ndef f():\n    from .series import g\n",
        "witt": "from . import linalg, scalar2\n",
        "hit": "from . import linalg\ndef f():\n    from .relations import q12_decompose\n",
    }
    assert layering_violations(sources) == [
        ("action", "series"), ("hit", "relations"), ("witt", "linalg")
    ]
