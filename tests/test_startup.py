"""Process start, exit and host independence: the package imports
lazily, the console entry runs numpy's BLAS on one thread unless the user
says otherwise and freezes the collector's objects before the interpreter
exits, and no value goes through a BLAS call, so outputs do not depend on
the BLAS thread count.  Also the guard that every public name has a
caller in the package."""

import ast
import gc
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramcorr
from ramcorr.cli import main

SRC = Path(ramcorr.__file__).resolve().parents[1]
ROOT = SRC.parent
DATA = Path(__file__).resolve().parent / "data"
PACKAGE = SRC / "ramcorr"
BLAS_VAR = "OPENBLAS_NUM_THREADS"


def spawn_python(args, **env):
    """A fresh interpreter on this source tree, in the caller's
    environment minus the BLAS thread setting, plus ``env``; the
    completed process, its output as bytes."""
    base = {k: v for k, v in os.environ.items() if k != BLAS_VAR}
    base["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env={**base, **env})


def run_python(args, **env):
    """``spawn_python``'s standard output as text; it must exit 0."""
    proc = spawn_python(args, **env)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


def test_hl_bytes_do_not_depend_on_the_blas_thread_count():
    argv = ["-m", "ramcorr.cli", "hl", "--N-list", "100000", "--a-list", "8",
            "--Q", "2000"]
    one = run_python(argv, **{BLAS_VAR: "1"})
    two = run_python(argv, **{BLAS_VAR: "2"})
    assert one.startswith("N,a,hl,") and one == two


def test_import_loads_no_numpy_and_sets_nothing():
    # nor dataclasses (with the inspect it pulls in) or json, which only
    # ``verify`` uses; the collector stays on and nothing is frozen
    out = run_python(["-c", (
        "import gc, os, sys\n"
        "before = gc.isenabled(), gc.get_freeze_count()\n"
        "import ramcorr\n"
        "import ramcorr.cli\n"
        "print(*(m in sys.modules for m in ('numpy', 'dataclasses', 'json')),"
        f" {BLAS_VAR!r} in os.environ,"
        " before, (gc.isenabled(), gc.get_freeze_count()))\n")])
    assert out == "False False False False (True, 0) (True, 0)\n"


@pytest.mark.parametrize("argv", [
    "correlate --f odd_primes_log --g lambdaN --N 60 --shifts 1,U+1",
    "correlate --f odd_primes_log --g lambdaN --N 60 --shifts 1,U+1 "
    "--mode expansion",
    "hl --N-list 100 --a-list 2,3 --Q 200",
], ids=["correlate direct", "correlate expansion", "hl"])
def test_real_commands_load_no_fractions_or_json(argv):
    # only an exact table needs Fraction, and only the JSON writer json
    out = run_python(["-c", (
        "import sys\n"
        "from ramcorr.cli import main\n"
        f"assert main({argv.split()!r}) == 0\n"
        "print(*(m in sys.modules for m in ('fractions', 'json')))\n")])
    assert out.splitlines()[-1] == "False False"


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
    # and leaves the collector as it found it: only the process entry
    # freezes, at exit
    collector = gc.isenabled(), gc.get_freeze_count()
    monkeypatch.setenv(BLAS_VAR, "3")
    assert main(["transform", "--fn", "unit", "--N", "3"]) == 0
    assert os.environ[BLAS_VAR] == "3"
    monkeypatch.delenv(BLAS_VAR)
    assert main(["transform", "--fn", "unit", "--N", "3"]) == 0
    assert os.environ[BLAS_VAR] == "1"
    assert (gc.isenabled(), gc.get_freeze_count()) == collector
    capsys.readouterr()


# ----------------------------------------------------------------------
# the process entry: the same bytes as main, and a normal exit
# ----------------------------------------------------------------------

# (exit code, argv); OUT stands for a file in the test's own directory
ENTRY_CALLS = {
    "exit 0, --out": (0, ["transform", "--fn", "phi", "--N", "1000",
                          "--out", "OUT"]),
    "exit 1": (1, ["verify", "lucht", "--coeffs",
                   str(DATA / "golden_seeded_exact_perturbed.coeffs")]),
    "exit 2, refused": (2, ["hl", "--N-list", "100", "--a-list", "2",
                            "--Q", "1"]),
    "exit 2, argparse": (2, ["transform", "--N", "1_0"]),
    "version": (0, ["--version"]),
}


def main_in_process(argv, capfd) -> tuple[int, bytes, bytes]:
    """main's exit code (argparse's SystemExit included), standard output
    and standard error, as the process would exit and write them."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    sys.stderr.flush()
    out, err = capfd.readouterr()
    return code, out, err


@pytest.mark.parametrize("code, argv", ENTRY_CALLS.values(), ids=ENTRY_CALLS)
def test_entry_writes_the_bytes_of_main(code, argv, tmp_path, capfdbinary,
                                        monkeypatch):
    argv = [str(tmp_path / "F") if a == "OUT" else a for a in argv]
    proc = spawn_python(["-m", "ramcorr.cli", *argv])
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for p in tmp_path.iterdir():
        p.unlink()
    monkeypatch.delenv(BLAS_VAR, raising=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == main_in_process(
        argv, capfdbinary)
    assert files == {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert proc.returncode == code
    assert bool(files) == ("--out" in argv)


def test_entry_exits_through_atexit_with_the_frozen_objects():
    # a handler registered before the module runs as __main__ still runs
    # (shutdown is the interpreter's own, not os._exit), after the
    # entry froze the collector's objects, and the exit code is main's
    proc = spawn_python(["-c", (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('atexit', gc.get_freeze_count() > 0,"
        " gc.isenabled()))\n"
        "sys.argv = ['ramcorr', 'hl', '--N-list', '100', '--a-list', '2',"
        " '--Q', '1']\n"
        "runpy.run_module('ramcorr.cli', run_name='__main__')\n")])
    assert proc.returncode == 2
    assert proc.stdout == b"atexit True True\n"
    assert proc.stderr == b"ramcorr: error: --Q must be >= 2\n"


def test_console_script_is_the_entry():
    # the installed ``ramcorr`` exits as ``python -m ramcorr.cli`` does
    scripts = (ROOT / "pyproject.toml").read_text().split(
        "[project.scripts]\n")[1].split("\n\n")[0]
    assert scripts.strip() == 'ramcorr = "ramcorr.cli:entry"'


def test_every_public_name_resolves_to_its_module():
    assert len(ramcorr.__all__) == len(set(ramcorr.__all__)) == 53
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
    "entangled_correlation":
        "the parity-branch evaluation of a two-seasons pair, against "
        "correlations.correlate_direct on the odd-lifted g",
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
