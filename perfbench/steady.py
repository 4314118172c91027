"""Steadiness proof and results file for the ramcorr benchmark.

    python3 perfbench/steady.py [--out perfbench/results/NAME.json]

Runs ``run.py`` on every workload of BENCHMARK.json once per seed,
seed-major so that drift in the machine's load touches every workload
alike, for two sets of ten seeds (set k uses seeds k*100+1 ... k*100+10,
so no two sets share a seed), then one traced run per workload.  For every
end-to-end metric it prints, per workload and set, the median, quartiles
and spread (the distance between the quartiles over the median), and how
far the second set's median lies from the first set's, either way, against
the bound in BENCHMARK.json.  Exits 1 if any run failed its oracles, and 3
if a spread or a drift between sets exceeds the metric's bound.  With
``--out`` it writes every run's result, these summaries, the traced
metrics and the environment (commit, Python, numpy, nproc, CPU model, load
average at the start of each set) to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = 10
SETS = 2
NOTE = ("Baseline of the ramcorr sources at the recorded commit, measured "
        "with this benchmark: two sets of ten seeds per workload, then one "
        "traced run per workload. It supersedes the single-shot scratch "
        "figures listed under ROADMAP open item 1.")


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable if c == "python3" else c
                           for c in cmd], cwd=ROOT, capture_output=True,
                          text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stdout + proc.stderr)
    result["exit"] = proc.returncode
    result["elapsed_s"] = time.perf_counter() - start
    return result


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpu_model": cpu, "platform": platform.platform()}


def summary(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "n": len(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}

    record = {"note": NOTE, "environment": environment(),
              "run_seconds": SPEC["run_seconds"], "sets": [], "traced": {}}
    failed = False
    for k in range(1, SETS + 1):
        seeds = [k * 100 + i for i in range(1, SEEDS + 1)]
        one = {"seeds": seeds, "loadavg_start": os.getloadavg(),
               "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
               "workloads": {w: [] for w in names}}
        for seed in seeds:
            for w in names:
                res = run(w, seed, 0)
                failed |= res["exit"] != 0 or not res.get("correct")
                one["workloads"][w].append(res)
                print(f"set {k} {w} seed {seed}: " + ", ".join(
                    f"{n} {v['value']:.4g}"
                    for n, v in res.get("metrics", {}).items()), flush=True)
        record["sets"].append(one)
    for w in names:
        res = run(w, record["sets"][0]["seeds"][0], 1)
        failed |= res["exit"] != 0 or not res.get("correct")
        record["traced"][w] = {n: v["value"]
                               for n, v in res.get("metrics", {}).items()}

    unsteady = False
    print(f"\n{'workload':11} {'metric':12} set {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'drift':>7} bound")
    for w in names:
        for name, spec in metrics.items():
            first = None
            for k, one in enumerate(record["sets"], start=1):
                s = summary([r["metrics"][name]["value"]
                             for r in one["workloads"][w] if "metrics" in r])
                first = first or s["median"]
                s["drift"] = drift = (s["median"] - first) / first
                one.setdefault("summary", {}).setdefault(w, {})[name] = s
                bad = max(abs(drift), s["spread"]) > spec["bound"]
                unsteady |= bad
                print(f"{w:11} {name:12} {k:3} {s['median']:10.4f} "
                      f"{s['q1']:10.4f} {s['q3']:10.4f} {s['spread']:7.4f} "
                      f"{drift:7.4f} {spec['bound']}{'  OVER' if bad else ''}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if failed else 3 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
