"""Outside-in tracer: run one ramcorr CLI call with the public functions of
each module wrapped in spans, from the benchmark's own code.

Usage (the benchmark runs this, one fresh process per call):

    python perfbench/tracer.py SPANS.json ARG...

runs ``ramcorr.cli.main([ARG...])`` and writes SPANS.json once at exit.
Modules import each other's functions by name (``correlations`` holds its
own ``evaluate_tds``, ``hlmodels`` its own ``correlate_direct``), so every
binding of a listed function in every ``ramcorr.*`` namespace is replaced,
and the call exits 3 without running if any binding was missed.
``PrimeTable``'s cached properties are wrapped on the class.  The
per-element functions (``evaluate_tds``, ``ramanujan_sum_table``) get
count-only wrappers, whose cost stays in the caller's self time.

The parent side, ``pass_layers``, turns the span files of one pass into
the per-layer metrics: self time (span duration minus the time its child
spans cover) and exits by exception per span, plus the counters below.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from pathlib import Path

# layer (module) -> functions timed as spans
SPANS = {
    "arith_core": ("sieve_primes", "tabulate"),
    "transforms": ("eratosthenes_transform", "lambda_tds", "odd_lift",
                   "read_tds", "write_tds"),
    "ramanujan": ("wintner_coefficients", "ramanujan_expand", "lucht_invert",
                  "universal_period"),
    "correlations": ("correlate_direct", "correlate_expansion",
                     "profile_to_csv"),
    "hlmodels": ("model_chain", "singular_series", "model_rows_to_csv"),
    "verify": ("run_suite",),
    "cli": ("main",),
}
PRIME_TABLE_PROPERTIES = ("mobius_values", "phi_values", "von_mangoldt_values")
SPAN_NAMES = sorted(
    [f"{layer}.{fn}" for layer, fns in SPANS.items() for fn in fns]
    + [f"arith_core.{p}" for p in PRIME_TABLE_PROPERTIES])

COUNTERS = ("transforms.evaluate_tds.calls", "correlations.bigint_reductions",
            "ramanujan.ramanujan_sum_table.calls")
SIZES = ("arith_core.sieve_limit", "correlations.supp_f",
         "correlations.supp_g", "correlations.shift_bits")
BIGINT = 1 << 63


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.self_s"] = "s"
        units[f"{span}.errors"] = "count"
    units.update({name: "count" for name in COUNTERS})
    units.update({"arith_core.sieve_limit": "int",
                  "correlations.supp_f": "count",
                  "correlations.supp_g": "count",
                  "correlations.shift_bits": "bits",
                  "ramanujan.ramanujan_sum_table.hit_ratio": "ratio",
                  "transforms.tds_bytes": "B",
                  "cli.import_s": "s",
                  "trace.overhead_s": "s"})
    return units


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------

class Recorder:
    """Spans and counters of one process, kept in memory until exit."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    def span(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"name": name,
                   "parent": self.stack[-1] if self.stack else None}
            if attrs is not None:
                rec.update(attrs(*args, **kwargs))
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec["error"] = True
                raise
            finally:
                rec["end"] = time.perf_counter()
                self.stack.pop()
        return wrapper

    def evaluate_tds(self, fn):
        @functools.wraps(fn)
        def wrapper(g, m):
            self.counts["transforms.evaluate_tds.calls"] += 1
            if m >= BIGINT:
                # computed: one big-integer reduction per support point
                self.counts["correlations.bigint_reductions"] += len(
                    g.support())
            return fn(g, m)
        return wrapper

    def ramanujan_sum_table(self, fn):
        @functools.wraps(fn)
        def wrapper(q):
            self.counts["ramanujan.ramanujan_sum_table.calls"] += 1
            return fn(q)
        return wrapper


def _nonzero(values) -> int:
    return sum(1 for v in values[1:] if v)


def _correlation_attrs(f, g, N, a):
    # sizes from the call's own inputs; counted without touching the
    # caches the program fills, so the span's self time is unchanged
    values = getattr(g, "et_values", None)
    if values is None:
        values = g.values
    return {"supp_f": _nonzero(f.values[: N + 1]), "supp_g": _nonzero(values),
            "shift_bits": int(a).bit_length()}


def _sieve_attrs(M):
    return {"sieve_limit": M}


def _namespaces():
    import ramcorr
    for info in pkgutil.walk_packages(ramcorr.__path__, "ramcorr."):
        importlib.import_module(info.name)
    return [m for name, m in sys.modules.items()
            if name == "ramcorr" or name.startswith("ramcorr.")]


def _rebind(namespaces, orig, wrapper) -> None:
    for mod in namespaces:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is orig:
                        val[k] = wrapper


def _unwrapped(namespaces, originals) -> list[str]:
    """Every remaining binding of an original function, also one level
    inside module-level containers."""
    ids = {id(o): name for name, o in originals.items()}
    found = []
    for mod in namespaces:
        for key, val in vars(mod).items():
            items = [val]
            if isinstance(val, dict):
                items += list(val.values())
            elif isinstance(val, (list, tuple, set, frozenset)):
                items += list(val)
            found += [f"{mod.__name__}.{key} -> {ids[id(v)]}"
                      for v in items if id(v) in ids]
    return found


def install(rec: Recorder) -> tuple[list[str], dict]:
    """Wrap every listed function; returns the bindings left unwrapped and
    the original functions by span or counter name."""
    from ramcorr.arith_core import PrimeTable
    namespaces = _namespaces()
    originals = {}
    attrs = {"arith_core.sieve_primes": _sieve_attrs,
             "correlations.correlate_direct": _correlation_attrs,
             "correlations.correlate_expansion": _correlation_attrs}
    for layer, fns in SPANS.items():
        mod = sys.modules[f"ramcorr.{layer}"]
        for fn in fns:
            name = f"{layer}.{fn}"
            orig = getattr(mod, fn)
            originals[name] = orig
            _rebind(namespaces, orig, rec.span(name, orig, attrs.get(name)))
    for name, make in (("transforms.evaluate_tds", rec.evaluate_tds),
                       ("ramanujan.ramanujan_sum_table",
                        rec.ramanujan_sum_table)):
        layer, fn = name.split(".")
        orig = getattr(sys.modules[f"ramcorr.{layer}"], fn)
        originals[name] = orig
        _rebind(namespaces, orig, make(orig))
    for prop in PRIME_TABLE_PROPERTIES:
        orig = PrimeTable.__dict__[prop]
        originals[f"arith_core.{prop}"] = orig.func
        new = functools.cached_property(
            rec.span(f"arith_core.{prop}", orig.func))
        new.__set_name__(PrimeTable, prop)
        setattr(PrimeTable, prop, new)
    missed = _unwrapped(namespaces, originals)
    missed += [f"PrimeTable.{p}" for p in PRIME_TABLE_PROPERTIES
               if PrimeTable.__dict__[p].func is originals[f"arith_core.{p}"]]
    return missed, originals


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    start = time.perf_counter()
    import ramcorr.cli  # noqa: F401  (timed: every CLI call pays it)
    import_s = time.perf_counter() - start
    rec = Recorder()
    missed, originals = install(rec)
    code = 3
    try:
        if missed:
            print("tracer: unwrapped bindings: " + ", ".join(missed),
                  file=sys.stderr)
        else:
            code = sys.modules["ramcorr.cli"].main(cli_args)
    finally:
        info = originals["ramanujan.ramanujan_sum_table"].cache_info()
        spans_path.write_text(json.dumps({
            "import_s": import_s, "spans": rec.spans, "counts": rec.counts,
            "cache_hits": info.hits, "cache_misses": info.misses,
            "unwrapped": missed}))
    return code


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

def pass_layers(span_files: list[Path], tds_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all its calls together)."""
    out = dict.fromkeys(metric_units(), 0)
    out.pop("trace.overhead_s")
    hits = misses = 0
    for path in span_files:
        data = json.loads(path.read_text())
        out["cli.import_s"] += data["import_s"]
        for name, n in data["counts"].items():
            out[name] += n
        hits += data["cache_hits"]
        misses += data["cache_misses"]
        spans = data["spans"]
        self_s = [s["end"] - s["start"] for s in spans]
        for s in spans:
            if s["parent"] is not None:
                self_s[s["parent"]] -= s["end"] - s["start"]
        for s, t in zip(spans, self_s):
            out[f"{s['name']}.self_s"] += t
            out[f"{s['name']}.errors"] += int(s.get("error", False))
            for size in SIZES:
                key = size.split(".")[1]
                if key in s:
                    out[size] = max(out[size], s[key])
    out["ramanujan.ramanujan_sum_table.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0)
    out["transforms.tds_bytes"] = tds_bytes
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
