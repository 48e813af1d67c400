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
import os
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
# the package's own __all__ (computed, not a literal) only re-exports what
# its modules define, and each of those is checked in its own module
PUBLIC = [(path.stem, qualname, name, line) for path in sorted(PACKAGE.glob("*.py"))
          if path.name != "__init__.py"
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


# every name the package exported when it imported each of these modules
# eagerly, by module; the gamma_ratio and discrepancy names are now lazy
EXPORTS = {
    "expint": ("DomainError", "expint_scaled", "expint_scaled_inverse"),
    "rng": ("RngSpec", "normal_polar"),
    "propagators": ("InputError", "ModelSequence", "ModelTrajectory", "TrajectoryRangeError",
                    "build_trajectory"),
    "skf": ("SkfState", "skf_closed_form", "skf_error_moments", "skf_run", "skf_start",
            "skf_step"),
    "spenkf": ("EnsembleState", "InflationSchedule", "inflation_schedule",
               "sample_initial_ensemble", "spenkf_run", "spenkf_start", "spenkf_step",
               "theta_star", "theta_step"),
    "gamma_ratio": ("GammaRatioSpec", "ratio_fourth_moment", "ratio_mean",
                    "ratio_second_moment"),
    "discrepancy": ("PerturbedInputs", "expected_dp", "expected_dx", "mc_discrepancy_moments",
                    "po_mean_identity_check", "po_variance_penalty", "second_moment_dp",
                    "second_moment_dx"),
    "mvspenkf": ("DiagonalizableModel", "mv_inflation_schedule", "mv_spenkf_run"),
    "config": ("ExperimentConfig",),
}

# run in a fresh interpreter, where no lazy name has been looked up yet:
# prints each problem on a line of its own, then the package version
RESOLVE = """
import importlib, sys
import filterlab
exports = %r
problems = ["loaded: " + m for m in ("filterlab.gamma_ratio", "filterlab.discrepancy")
            if m in sys.modules]
for module, names in exports.items():
    for name in names:
        ns = {}
        exec("from filterlab import %%s" %% name, ns)  # before its module is imported here
        mod = importlib.import_module("filterlab." + module)
        if ns[name] is not getattr(mod, name) or getattr(filterlab, name) is not ns[name]:
            problems.append("wrong: " + name)
try:
    filterlab.no_such_name
    problems.append("no AttributeError")
except AttributeError as exc:
    if "no_such_name" not in str(exc):
        problems.append("message: %%s" %% exc)
print(*problems, filterlab.__version__, sep="\\n")
"""


def test_every_name_the_package_exported_still_resolves_to_its_modules_object():
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", RESOLVE % (EXPORTS,)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "0.1.0\n"


# run in a fresh interpreter: dir(filterlab) before any lazy lookup, then a
# star import; prints each problem on a line of its own, then "ok"
STAR = """
import importlib
import filterlab
exports = %r
want = set(exports).union(*exports.values())
problems = ["dir lacks " + n for n in sorted(want - set(dir(filterlab)))]
ns = {}
exec("from filterlab import *", ns)
del ns["__builtins__"]
problems += ["star: " + n for n in sorted(set(ns) ^ want)]
for module, names in exports.items():
    mod = importlib.import_module("filterlab." + module)
    if ns.get(module) is not mod:
        problems.append("star module: " + module)
    problems += ["star object: " + n for n in names if ns.get(n) is not getattr(mod, n)]
print(*problems, "ok", sep="\\n")
"""


def test_star_import_and_dir_list_every_name_the_package_exported():
    # the eager package bound every name in EXPORTS and its nine submodules
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", STAR % (EXPORTS,)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "ok\n"
