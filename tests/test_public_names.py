"""Every public name of the package has a caller outside the tests.

A name in a module's __all__, or a public method or property of a class
defined in src/filterlab, must be referenced by code that ships: the
package itself, scripts/ or perfbench/ (their test files excluded).  Its
own definition does not count, nor does an import that re-exports it, nor
a string in __all__.  A (module, attribute) string in perfbench/spans.py's
POINTS counts, since the span tracer looks the name up there.

References are matched by name alone, so one use of `n_steps` serves
every class that defines it.  That is loose, but a name that nothing
outside the tests mentions at all is caught.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "filterlab"

sys.path.insert(0, str(ROOT / "perfbench"))
from spans import POINTS  # noqa: E402

# public names that only tests reach, each with its reason
EXCEPTIONS = {
    # the only caller of skf's normal_polar, which the span tracer wraps;
    # it leaves with the benchmark change that drops that POINTS row
    "skf_error_moments",
}


def _shipped_files():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    files += [p for p in sorted((ROOT / "perfbench").glob("*.py"))
              if not p.name.startswith("test_")]
    return files


def _public_names(path):
    # (qualified name, name, line) of the __all__ entries and of the public
    # methods and properties of the module's classes
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names += [(elt.value, elt.value, node.lineno) for elt in node.value.elts]
        elif isinstance(node, ast.ClassDef):
            names += [("%s.%s" % (node.name, item.name), item.name, item.lineno)
                      for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return names


def _referenced():
    # every identifier read (not assigned) as a name or an attribute in
    # shipped code
    seen = set()
    for path in _shipped_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                seen.add(node.attr)
    for _, attr, *_ in POINTS:
        seen.update(attr.split("."))
    return seen


REFERENCED = _referenced()
PUBLIC = [(path.stem, qualname, name, line) for path in sorted(PACKAGE.glob("*.py"))
          for qualname, name, line in _public_names(path)]


@pytest.mark.parametrize("module,qualname,name,line", PUBLIC,
                         ids=["%s.%s" % (m, q) for m, q, _, _ in PUBLIC])
def test_public_name_has_a_caller_outside_the_tests(module, qualname, name, line):
    if name in EXCEPTIONS:
        assert name not in REFERENCED, "%s now has a caller: drop its exception" % name
        return
    if name not in REFERENCED:
        pytest.fail("filterlab/%s.py:%d: %s is reached only from tests/"
                    % (module, line, qualname))


def test_every_exception_is_still_public():
    assert EXCEPTIONS <= {name for _, _, name, _ in PUBLIC}
