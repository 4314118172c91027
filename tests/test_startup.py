"""Process start and host independence: the package imports lazily, the
console entry runs numpy's BLAS on one thread unless the user says
otherwise, and no value goes through a BLAS call, so outputs do not
depend on the BLAS thread count.  Also the guard that every public name
has a caller in the package."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramcorr
from ramcorr.cli import main

SRC = Path(ramcorr.__file__).resolve().parents[1]
PACKAGE = SRC / "ramcorr"
BLAS_VAR = "OPENBLAS_NUM_THREADS"


def run_python(args, **env):
    """A fresh interpreter on this source tree, in the caller's
    environment minus the BLAS thread setting, plus ``env``."""
    base = {k: v for k, v in os.environ.items() if k != BLAS_VAR}
    base["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**base, **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_hl_bytes_do_not_depend_on_the_blas_thread_count():
    argv = ["-m", "ramcorr.cli", "hl", "--N-list", "100000", "--a-list", "8",
            "--Q", "2000"]
    one = run_python(argv, **{BLAS_VAR: "1"})
    two = run_python(argv, **{BLAS_VAR: "2"})
    assert one.startswith("N,a,hl,") and one == two


def test_import_loads_no_numpy_and_sets_nothing():
    # nor dataclasses (with the inspect it pulls in) or json, which only
    # ``verify`` uses
    out = run_python(["-c", (
        "import os, sys\n"
        "import ramcorr\n"
        "import ramcorr.cli\n"
        "print(*(m in sys.modules for m in ('numpy', 'dataclasses', 'json')),"
        f" {BLAS_VAR!r} in os.environ)\n")])
    assert out == "False False False False\n"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="thread count read from /proc")
def test_console_entry_starts_no_blas_worker():
    # numpy's OpenBLAS starts its worker threads on import unless told
    # otherwise; main sets the default before that import
    out = run_python(["-c", (
        "import os\n"
        "from ramcorr.cli import main\n"
        "main(['transform', '--fn', 'unit', '--N', '3'])\n"
        f"print(os.environ[{BLAS_VAR!r}], len(os.listdir('/proc/self/task')))\n"
    )])
    assert out.splitlines()[-1] == "1 1"


def test_main_keeps_a_value_the_user_set(monkeypatch, capsys):
    monkeypatch.setenv(BLAS_VAR, "3")
    assert main(["transform", "--fn", "unit", "--N", "3"]) == 0
    assert os.environ[BLAS_VAR] == "3"
    monkeypatch.delenv(BLAS_VAR)
    assert main(["transform", "--fn", "unit", "--N", "3"]) == 0
    assert os.environ[BLAS_VAR] == "1"
    capsys.readouterr()


def test_every_public_name_resolves_to_its_module():
    assert len(ramcorr.__all__) == len(set(ramcorr.__all__)) == 55
    for name in ramcorr.__all__:
        module = importlib.import_module(
            f"ramcorr.{ramcorr._MODULE_OF[name]}")
        assert getattr(ramcorr, name) is getattr(module, name), name
    assert set(ramcorr.__all__) <= set(dir(ramcorr))
    namespace = {}
    exec("from ramcorr import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ramcorr.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such'"):
        ramcorr.no_such
    assert not hasattr(ramcorr, "np")
    with pytest.raises(ImportError):
        exec("from ramcorr import no_such", {})


# ----------------------------------------------------------------------
# guard: every public name has a caller in the package
# ----------------------------------------------------------------------

# public names that no module calls, kept as the reference
# implementations the tests compare a route against
ORACLES = {
    "small_shift_difference":
        "the small-shift tail closed form, against "
        "correlations.truncation_difference",
    "entangled_correlation":
        "the parity-branch evaluation of a two-seasons pair, against "
        "correlations.correlate_direct on the odd-lifted g",
    "half_range_identity_check":
        "ramanujan.wintner_coefficients above half the cutoff, against "
        "g'(q)/q",
    "correlate_expansion":
        "the expansion route on one shift (build_profile runs the same "
        "helper on a shift list), against correlations.correlate_direct",
}


def names_read(source: str) -> set[str]:
    """The names a module reads, as a name or an attribute; a top-level
    definition's reads of its own name do not count."""
    found = set()
    for top in ast.parse(source).body:
        own = {getattr(top, "name", None)} | {
            t.id for t in getattr(top, "targets", ())
            if isinstance(t, ast.Name)}
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                name = node.attr
            else:
                continue
            if name not in own:
                found.add(name)
    return found


def test_names_read_leaves_out_a_definition_reading_itself():
    source = ("def f(n):\n    return f(n - 1) + g.h\n"
              "def k():\n    return 0\n"
              "y = k\n")
    assert names_read(source) == {"n", "g", "h", "k"}


def test_every_public_name_has_a_caller_or_is_a_named_oracle():
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            read |= names_read(path.read_text())
    assert set(ORACLES) <= set(ramcorr.__all__)
    assert set(ORACLES) & read == set()  # a called oracle leaves the list
    uncalled = sorted(set(ramcorr.__all__) - read - set(ORACLES))
    assert uncalled == []


# ----------------------------------------------------------------------
# guard: no BLAS call anywhere in the package
# ----------------------------------------------------------------------

BLAS_FUNCTIONS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def blas_calls(source: str) -> list[str]:
    """Every call the BLAS thread default would make unsafe: numpy's
    dot-product family (as an attribute, a method or an imported name),
    the ``@`` operator and any use of ``linalg``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
                node.attr in BLAS_FUNCTIONS or node.attr == "linalg"):
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [
                a.name for a in node.names]
            if any("linalg" in n or n in BLAS_FUNCTIONS for n in names):
                found.append((node.lineno, "import"))
    return [f"line {lineno}: {what}" for lineno, what in sorted(found)]


def test_blas_guard_finds_each_form():
    source = ("import numpy as np\n"
              "from numpy.linalg import norm\n"
              "x = np.dot(a, b)\n"
              "y = a.dot(b)\n"
              "z = a @ b\n"
              "a @= b\n"
              "w = np.linalg.norm(a)\n"
              "v = np.einsum('i,i', a, b) + np.vdot(a, b) + np.inner(a, b)\n"
              "u = np.matmul(a, b)\n"
              "from numpy import dot as d\n"
              "s = np.add.reduce(a * b)\n"
              "inner = dot = 0\n")
    assert [hit.split(":")[0] for hit in blas_calls(source)] == [
        "line 2", "line 3", "line 4", "line 5", "line 6", "line 7",
        "line 8", "line 8", "line 8", "line 9", "line 10"]


def test_no_module_calls_blas():
    files = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in files} >= {"cli.py", "hlmodels.py"}
    for path in files:
        assert blas_calls(path.read_text()) == [], path.name
