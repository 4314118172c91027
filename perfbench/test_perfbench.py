"""Self-tests of the benchmark: its oracles reject corrupted output, the
runner counts such a call as failed, and the tracer wraps every binding.

    python3 -m pytest perfbench

The workload tests run one real pass of each workload (about 20 s).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import oracles
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def out_path(call: workloads.Call) -> Path:
    return Path(call.args[call.args.index("--out") + 1])


def bump_digit(text: str) -> str:
    """Change the last digit of a number by 5 units."""
    return text[:-1] + str((int(text[-1]) + 5) % 10)


def corrupt(path: Path, row: int = 1, col: int = -1) -> None:
    """Corrupt one row of an output file in place."""
    text = path.read_text()
    if path.suffix == ".json":
        path.write_text(text.replace('"pass": true', '"pass": false'))
        return
    lines = text.splitlines()
    sep = "\t" if path.suffix == ".tds" else ","
    cells = lines[row].split(sep)
    cells[col] = bump_digit(cells[col])
    lines[row] = sep.join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_agrees_allows_one_unit_in_the_last_printed_digit():
    assert oracles.agrees("13200.1582768", "13200.1582769")
    assert not oracles.agrees("13200.1582768", "13200.1582770")
    assert oracles.agrees("5.20838350585e-11", 5.208383505854e-11)
    assert not oracles.agrees("0", 1e-300)


def test_trial_division_arithmetic():
    assert [oracles.mobius(n) for n in range(1, 11)] == \
        [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert [oracles.phi(n) for n in (1, 9, 12)] == [1, 6, 4]
    assert oracles.kappa(72) == 6
    assert oracles.odd_primorial(9) == 105
    assert oracles.divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


def test_corrupted_row_counts_as_a_failed_call(tmp_path):
    calls = workloads.correlate_pair(tmp_path, 9, (1, 2))
    env = run.child_env(tmp_path)
    clean = run.run_pass(calls, env, tmp_path)
    assert clean.failed == 0, [c.failures for c in clean.calls]

    check = calls[1].check

    def corrupt_then_check():
        corrupt(out_path(calls[1]), row=3)
        return check()

    calls[1].check = corrupt_then_check
    dirty = run.run_pass(calls, env, tmp_path)
    assert dirty.failed == 1
    assert dirty.calls[1].failures[0].startswith("expansion.csv: ")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_oracle_rejects_a_corrupted_row(name, tmp_path):
    calls = workloads.WORKLOADS[name](7, tmp_path)
    res = run.run_pass(calls, run.child_env(tmp_path), tmp_path)
    assert res.failed == 0, [c.failures for c in res.calls]
    for call in calls:
        path = out_path(call)
        original = path.read_bytes()
        # the hl column of the models file, otherwise the last cell
        corrupt(path, col=2 if path.name == "hl.csv" else -1)
        assert call.check(), f"{' '.join(call.args)} accepted {path.name}"
        path.write_bytes(original)
        assert not call.check()


def test_singular_series_oracle(tmp_path):
    call = workloads.hl_call(tmp_path, [100, 200], [2, 3], 100_000)
    res = run.run_pass([call], run.child_env(tmp_path), tmp_path)
    assert res.failed == 0
    singular = tmp_path / "hl.csv.singular.csv"
    text = singular.read_text()
    # odd a: an Euler product other than 0 is rejected
    singular.write_text(re.sub(r"^3,([^,]*),0,", r"3,\1,0.5,", text,
                               flags=re.M))
    assert call.check()
    # even a: a truncated sum outside the window is rejected
    singular.write_text(re.sub(r"^2,[^,]*,", "2,9.9,", text, flags=re.M))
    assert call.check()


def test_tracer_counts_bigint_reductions(tmp_path):
    spans = tmp_path / "spans.json"
    out = tmp_path / "c.csv"
    # U(60) + 1 > 2^63, so the second shift is a huge one
    subprocess.run([sys.executable, tracer.__file__, str(spans),
                    "correlate", "--f", "odd_primes_log", "--g", "lambdaN",
                    "--N", "60", "--shifts", "1,U+1", "--out", str(out)],
                   env=run.child_env(tmp_path), check=True)
    data = json.loads(spans.read_text())
    assert data["unwrapped"] == []
    layers = tracer.pass_layers([spans], 0)
    assert layers["correlations.supp_f"] == 16  # odd primes up to 60
    assert layers["transforms.evaluate_tds.calls"] == 2 * 16
    assert layers["correlations.bigint_reductions"] == \
        16 * layers["correlations.supp_g"]
    assert layers["correlations.correlate_direct.self_s"] > 0
    assert layers["hlmodels.model_chain.self_s"] == 0


def test_tracer_reports_a_missed_binding():
    def f():
        pass
    ns = types.SimpleNamespace(__name__="ramcorr.fake", g=f, table={"k": f})
    assert tracer._unwrapped([ns], {"fake.f": f}) == [
        "ramcorr.fake.g -> fake.f", "ramcorr.fake.table -> fake.f"]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracer.metric_units()
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
