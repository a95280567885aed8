"""The package has no runtime dependencies: every module of src/deszeta
imports only the standard library and the package itself."""

import ast
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "deszeta"


def _imported_modules(path):
    """Top-level names of the absolute imports of one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_package(path):
    outside = {name for name in _imported_modules(path)
               if name != "deszeta" and name not in sys.stdlib_module_names}
    assert not outside, "%s imports %s" % (path.name, ", ".join(sorted(outside)))


def test_check_sees_a_third_party_import(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import math\nfrom . import numeric\nif True:\n    import mpmath\n")
    assert list(_imported_modules(source)) == ["math", "mpmath"]


def test_import_loads_no_dataclasses():
    # dataclasses imports inspect, dis, ast and tokenize, and typing is
    # large too: a cost on every start-up of the command line, so records
    # are collections.namedtuple, which functools already loads; json is
    # imported only by the commands that print it (-S: the site hooks are
    # not the package's)
    probe = ("import sys; sys.path.insert(0, %r); import deszeta.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing', 'json'} & set(sys.modules)))"
             % str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_import_builds_no_tables():
    # the digit-group texts of the coefficient JSON, the twisted Bernoulli
    # rows, the weight rows, the Euler-Maclaurin constants per order, the
    # Hurwitz values and the combinations with their quotients are built on
    # first use, not at import, so the start-up of every command stays free
    # of them
    probe = ("import sys; sys.path.insert(0, %r); import deszeta, deszeta.cli; "
             "from deszeta import coeffs, cyclotomic, numeric, values; "
             "print(coeffs._group_text.cache_info().currsize, len(cyclotomic._TB_CACHE), "
             "values._weight_row.cache_info().currsize, len(numeric._EM_TABLE), "
             "numeric.hurwitz_zeta.cache_info().currsize, "
             "coeffs.combination.cache_info().currsize)" % str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.split() == ["0"] * 6


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "cyclotomic.py"}),
                         ids=lambda p: p.name)
def test_only_cyclotomic_reduces_mod_phi(path):
    # one reduction mod Phi_c, owned by cyclotomic: CycloElement._make
    # reduces any integer list it is given, so no other module folds
    # x^c = 1 or divides by Phi_c on its own
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    names = {getattr(node, attr, None) for node in ast.walk(tree)
             for attr in ("id", "attr", "name")}
    assert "_reduce" not in names, "%s uses cyclotomic._reduce" % path.name
