"""Guard for the benchmark's bindings: every ramcorr name the traced
benchmark run (perfbench/tracer.py) wraps must still exist, so that a
rename fails here instead of making ``--trace 1`` runs exit 3."""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import ramcorr
from ramcorr.arith_core import PrimeTable, tabulate
from ramcorr.transforms import lambda_tds, tds_from_et, truncate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # compiled from its text, so nothing is written next to it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_function_resolves():
    tracer = _load_tracer()
    names = [(layer, fn) for layer, fns in tracer.SPANS.items() for fn in fns]
    names += [("transforms", "evaluate_tds"),
              ("ramanujan", "ramanujan_sum_table")]
    for layer, fn in names:
        module = importlib.import_module(f"ramcorr.{layer}")
        assert callable(getattr(module, fn, None)), f"ramcorr.{layer}.{fn}"
    for prop in tracer.PRIME_TABLE_PROPERTIES:
        assert hasattr(PrimeTable.__dict__.get(prop), "func"), prop


def test_support_is_a_sized_list():
    # the evaluate_tds counter takes len(g.support()), which must be the
    # size of the support (the property tests in test_arith_core pin the
    # array's form)
    for g in (tds_from_et({1: 2, 6: -1}, 10, "ExactInt"),
              truncate(tabulate("mobius", 30), 30), lambda_tds(30)):
        assert len(g.support()) == sum(1 for v in g.values[1:] if v)


def _traced_spans(tmp_path, *argv):
    spans = tmp_path / "spans.json"
    env = dict(os.environ,
               PYTHONPATH=str(Path(ramcorr.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), *argv],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(spans.read_text())
    assert data["unwrapped"] == []
    return [s["name"] for s in data["spans"]]


def test_traced_call_leaves_no_binding_unwrapped(tmp_path):
    names = _traced_spans(tmp_path, "transform", "--fn", "lambda", "--N", "20")
    assert set(names) >= {
        "cli.main", "transforms.lambda_tds", "transforms.write_tds"}


def test_traced_hl_times_the_ladder_and_the_series(tmp_path):
    # one model_chain span per length and one singular_series span
    names = _traced_spans(tmp_path, "hl", "--N-list", "100", "--a-list",
                          "2,3", "--Q", "200")
    assert names.count("hlmodels.model_chain") == 1
    assert names.count("hlmodels.singular_series") == 1
