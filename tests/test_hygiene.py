"""Static hygiene of the package: every import sits at module level and
is used, `dataclasses` is not imported, no module-level function, class
or method goes unreferenced, only `spaces._leg_id` knows how a
pushout prefixes the cells of its legs, and only three functions call
the dense Smith loop."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "skernel"
TESTS = Path(__file__).resolve().parent


def _imported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree: ast.Module) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        # re-exports listed in __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts)
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = ["%s (line %d)" % (name, line) for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, "unused imports in %s: %s" % (path.name, ", ".join(unused))


def test_no_module_imports_dataclasses():
    """`dataclasses` imports `inspect`, which costs a fresh interpreter
    more than a tenth of the package's own import time; the records are
    written by hand."""
    importing = [path.name for path in sorted(SRC.glob("*.py"))
                 if re.search(r"^(from|import) dataclasses\b", path.read_text(encoding="utf-8"),
                              re.MULTILINE)]
    assert not importing, "dataclasses imported by %s" % ", ".join(importing)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_no_unreferenced_module_definitions():
    """Every function and class defined at module level in the package,
    and every method of such a class other than a dunder, is referenced by
    name (or as an attribute) somewhere in the package or its tests, or
    re-exported through an __all__."""
    defined = []
    used = set()
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _used_names(tree)
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        if path.parent == SRC:
            defined += [(node.name, path.name, node.lineno) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
            defined += [(method.name, path.name, method.lineno)
                        for node in tree.body if isinstance(node, ast.ClassDef)
                        for method in node.body
                        if isinstance(method, ast.FunctionDef) and not _is_dunder(method.name)]
    unreferenced = ["%s (%s line %d)" % d for d in defined if d[0] not in used]
    assert not unreferenced, "never referenced: %s" % ", ".join(unreferenced)


def test_no_function_local_imports():
    """Imports sit at module level, where the hygiene checks above see
    them; the package has no import cycle that would need a deferred one."""
    local = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += ["%s:%d in %s" % (path.name, node.lineno, fn.name)
                          for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not local, "function-local imports: %s" % ", ".join(local)


def test_pushout_leg_prefixes_stay_in_pushout_inj():
    """The "x:" and "y:" prefixes that tell the two legs of a pushout
    apart appear only in `spaces._leg_id`, which `pushout_inj` and the
    smash (a quotient) mint their ids with; maps out of a pushout come
    from `spaces.pushout_map` and never read a cell id apart."""
    strays = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "spaces.py":
            allowed = {id(n) for fn in tree.body
                       if isinstance(fn, ast.FunctionDef) and fn.name == "_leg_id"
                       for n in ast.walk(fn)}
        strays += ["%s line %d" % (path.name, n.lineno) for n in ast.walk(tree)
                   if isinstance(n, ast.Constant) and n.value in ("x:", "y:")
                   and id(n) not in allowed]
    assert not strays, "leg prefixes outside spaces._leg_id: %s" % ", ".join(strays)


def _named_by(name: str) -> list:
    """The top-level definitions in `src/` whose code names name."""
    return sorted("%s.%s" % (path.stem, getattr(top, "name", "line %d" % top.lineno))
                  for path in sorted(SRC.glob("*.py"))
                  for top in ast.parse(path.read_text(encoding="utf-8")).body
                  for n in ast.walk(top)
                  if isinstance(n, ast.Name) and n.id == name
                  or isinstance(n, ast.Attribute) and n.attr == name)


def test_only_three_places_call_the_dense_smith_loop():
    """The dense Smith loop `matrices._smith`, whose entries are not
    bounded, is named in the package only by `matrices._solve`, for the
    residue of a kernel or a solve, and by `smith_normal_form`; that is
    named only by the suite's check of the decomposition and by the fixed
    recipe of `generators.random_complex`.  A second residue solver would
    have to be bounded a second time."""
    assert _named_by("_smith") == ["matrices._solve", "matrices.smith_normal_form"]
    assert _named_by("smith_normal_form") == ["generators.random_complex",
                                              "suite.check_smith_normal_form"]
