"""ramcorr benchmark: run the CLI the way a user does and time it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree of the repository.  Every call is a
fresh ``python -m ramcorr.cli ...`` with the tree's ``src`` first on
PYTHONPATH (nothing needs installing), started only after the previous
call exited (closed loop, one caller).  A pass is the workload's fixed
call sequence (see ``workloads.py``); passes repeat until the next one
would end after S seconds.  Before timing, one import of ``ramcorr.cli``
compiles the bytecode every call then reuses, and one whole pass is run
and discarded, because users pay neither on every call.  Children run in
the caller's environment (numpy's BLAS threading included), except that
ramcorr's own ``RAMCORR_*`` settings are dropped and bytecode is cached.

End-to-end metrics (``--trace 0``):

* ``setup_s``     -- median wall time of a fresh interpreter importing
                     ``ramcorr.cli`` and exiting (every call pays it).
                     The samples are taken between passes, after each
                     for about a fifth of its time, so that they span the
                     whole run rather than one moment of the machine.
* ``pass_s``      -- median wall time of a pass, from the spawn of its
                     first call to the exit of its last.
* ``cpu_s``       -- median user+sys CPU of a pass's calls (``os.wait4``).
* ``peak_rss_mb`` -- median over passes of the largest ``ru_maxrss`` of
                     the pass's calls.
* ``ok_frac``     -- CLI calls whose exit code and output passed the
                     oracle, over CLI calls attempted, the warm-up pass
                     included and the set-up imports left out (the
                     complement of the failure fraction, so that it is
                     never 0).  It must be 1: any failed call, or failed
                     set-up import, also makes the run exit 1.

``--trace 1`` alternates untraced passes with passes in which every call
runs under ``tracer.py``, and reports the per-layer metrics of the traced
passes (medians over passes) plus ``trace.overhead_s``, the median over
traced passes of the traced pass time minus that of the untraced pass
just before it.

Every output is checked by the oracles in ``oracles.py``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 if any call
failed, and 2 (with no result line) if the tree holds no ramcorr sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_SHARE = 0.2
SETUP_MIN = 2
IMPORT_ARGV = [sys.executable, "-c", "import ramcorr.cli"]
CALL_TIMEOUT_S = 60.0
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}


@dataclass
class CallResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    failures: list[str]


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    calls: list[CallResult]

    @property
    def failed(self) -> int:
        return sum(1 for c in self.calls if c.failures)


def child_env(work: Path) -> dict[str, str]:
    """The caller's environment minus ramcorr's own settings, with the
    tree's sources first on the import path.

    Bytecode is always cached, as in a normal install, but under ``work``:
    whether the caller sets PYTHONDONTWRITEBYTECODE no longer changes the
    timings, and no cache is written outside the tree.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RAMCORR_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    return env


def spawn(argv: list[str], env: dict[str, str], err_path: Path) -> CallResult:
    """Run one child to completion; wall time, rusage, and a failure if it
    exits nonzero or outlives the timeout (then it is killed)."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    failures = []
    if code != 0:
        tail = err_path.read_text(errors="replace").strip()[-400:]
        failures.append(f"exit {code}: {tail}")
    return CallResult(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, failures)


def run_pass(calls: list[workloads.Call], env: dict[str, str], work: Path,
             traced: bool = False) -> PassResult:
    """Run the calls back to back, then check every output."""
    results = []
    start = time.perf_counter()
    for i, call in enumerate(calls):
        prefix = ([sys.executable, str(Path(tracer.__file__)),
                   str(work / f"spans{i}.json")] if traced
                  else [sys.executable, "-m", "ramcorr.cli"])
        results.append(spawn(prefix + call.args, env, work / f"stderr{i}"))
    wall = time.perf_counter() - start
    for call, res in zip(calls, results):
        if not res.failures:
            try:
                res.failures = call.check()
            except Exception as exc:  # a malformed output is a failure
                res.failures = [f"oracle raised {exc!r}"]
    return PassResult(wall, sum(r.cpu_s for r in results),
                      max(r.rss_mb for r in results), results)


def measure_setup(env: dict[str, str], work: Path,
                  budget_s: float) -> list[CallResult]:
    """Fresh-interpreter imports of ``ramcorr.cli``, back to back: at
    least ``SETUP_MIN`` of them, and more until ``budget_s`` is spent."""
    results = []
    start = time.perf_counter()
    while (len(results) < SETUP_MIN
           or time.perf_counter() - start < budget_s):
        results.append(spawn(IMPORT_ARGV, env, work / "stderr_setup"))
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    p = int(100 * (n - 10) / n)
    return p, sorted(values)[int(p * n / 100) - 1]


def describe(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = quartiles(values)
    line = (f"{name} = {med:.6g} {unit} (median; q1 {q1:.6g}, q3 {q3:.6g}, "
            f"n {len(values)}")
    tail = tail_percentile(values)
    if tail:
        line += f", p{tail[0]} {tail[1]:.6g}"
    return line + ")"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ramcorr" / "cli.py").is_file():
        print(f"perfbench: no ramcorr sources under {SRC}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def bench(args, work: Path) -> int:
    env = child_env(work)
    calls = workloads.WORKLOADS[args.workload](args.seed, work)
    compile_import = spawn(IMPORT_ARGV, env, work / "stderr_setup")
    warm = run_pass(calls, env, work)
    setup: list[CallResult] = []
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    layers: list[dict] = []
    overhead: list[float] = []
    start = time.perf_counter()
    while True:
        if not args.trace:
            last = (plain or [warm])[-1]
            setup += measure_setup(env, work, SETUP_SHARE * last.wall_s)
        trace_next = bool(args.trace) and len(traced) < len(plain)
        res = run_pass(calls, env, work, traced=trace_next)
        if not trace_next:
            plain.append(res)
        else:
            traced.append(res)
            overhead.append(res.wall_s - plain[-1].wall_s)
            if not res.failed:
                size = sum(p.stat().st_size for c in calls
                           for p in c.tds_in + c.tds_out)
                layers.append(tracer.pass_layers(
                    [work / f"spans{i}.json" for i in range(len(calls))],
                    size))
        elapsed = time.perf_counter() - start
        per_pass = elapsed / (len(plain) + len(traced))
        if elapsed + per_pass > args.seconds and (traced or not args.trace):
            break

    results = [c for p in (warm, *plain, *traced) for c in p.calls]
    attempted = len(results)
    failed = sum(1 for r in results if r.failures)
    setup_failed = sum(1 for r in (compile_import, *setup) if r.failures)
    for r in (compile_import, *setup, *results):
        for msg in r.failures:
            print(f"FAIL {args.workload}: {msg}")
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced passes of {len(calls)} calls; "
          f"{attempted} CLI calls attempted (with the warm-up pass), "
          f"{failed} failed; {len(setup) + 1} set-up imports, "
          f"{setup_failed} failed")

    untraced = [p.wall_s for p in plain]
    if args.trace:
        print(describe("untraced pass_s", untraced, "s"))
        print(describe("traced pass_s", [p.wall_s for p in traced], "s"))
        print(describe("trace.overhead_s (paired)", overhead, "s"))
        q1, _, q3 = quartiles(untraced)
        if abs(statistics.median(overhead)) < q3 - q1:
            print("trace.overhead_s is within the quartile spread of the "
                  "untraced pass_s: not resolved")
        units = tracer.metric_units()
        metrics = {name: statistics.median(m[name] for m in layers)
                   if layers else 0 for name in units
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(overhead)
        for name, unit in units.items():
            print(f"{name} = {metrics[name]:.6g} {unit} "
                  f"(median of {len(layers)} traced passes)")
    else:
        units = END_TO_END_UNITS
        series = {"setup_s": [r.wall_s for r in setup],
                  "pass_s": untraced,
                  "cpu_s": [p.cpu_s for p in plain],
                  "peak_rss_mb": [p.rss_mb for p in plain]}
        for name, values in series.items():
            print(describe(name, values, units[name]))
        metrics = {name: statistics.median(v) for name, v in series.items()}
        metrics["ok_frac"] = (attempted - failed) / attempted
        print(f"ok_frac = {metrics['ok_frac']:.6g} ratio "
              f"(must be 1; {failed} of {attempted} CLI calls failed)")
    correct = failed == 0 and setup_failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
