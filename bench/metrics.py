"""Reduction of op results to the benchmark's metrics.

End-to-end metrics come from untraced ops; per-layer metrics from traced
ops.  The metrics the JSON result line carries, with units, directions
and bounds, are those declared in BENCHMARK.json.  ``EXTRA`` lists the
end-to-end metrics that exist on only some workloads or read 0 at a
healthy commit; they are printed and saved, and diffed without a verdict.

Times are in the reference seconds of ``workloads.execute``.
"""

import json
import math
import statistics
from pathlib import Path

from tracer import merge
from workloads import CAL_REF_S, IO_SPANS

DECLARED = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m for m in DECLARED["per_layer"]}
EXTRA = {
    m["name"]: m
    for m in (
        {"name": "steps_per_s", "unit": "1/s", "better": "higher"},
        {"name": "step_tail_ms", "unit": "ms", "better": "lower"},
        {"name": "ref_err", "unit": "1", "better": "lower"},
        {"name": "failed_frac", "unit": "1", "better": "lower"},
        {"name": "cal_s", "unit": "s", "better": "lower"},
    )
}
#: percentiles step_tail_ms may report, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
LOOKUP = "sht.SphereGrid.legendre_table"
TABLE_BUILD_EDGE = f"{LOOKUP}>specfun.assoc_legendre_table"


def _median(values):
    return statistics.median(values) if values else 0.0


def tail(samples):
    """(value, percentile, count beyond it) at the highest percentile of
    TAIL_PERCENTILES with at least ten samples beyond it (nearest rank)."""
    if not samples:
        return 0.0, 0.0, 0
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10 or p == TAIL_PERCENTILES[-1]:
            return ordered[rank - 1], p, n - rank
    raise AssertionError("unreachable")


def end_to_end(results):
    """Declared and extra end-to-end metrics, with a note per metric
    stating its sample count."""
    ok = [r for r in results if not r.failed]
    value, pct, beyond = tail([s for r in ok for s in r.step_latencies])
    stepped = [r for r in ok if r.steps]
    steps = sum(len(r.step_latencies) for r in ok)
    n = len(ok)
    cal = [c for r in results for c in r.cal_s]
    rows = {
        "setup_s": (_median([r.setup_s for r in ok]), f"median of {n} ops"),
        "solve_s": (_median([r.solve_s for r in ok]), f"median of {n} ops"),
        "peak_rss_mb": (max((r.peak_rss_mb for r in ok), default=0.0), f"max of {n} ops"),
        "steps_per_s": (_median([r.steps / r.stepping_s for r in stepped]),
                        f"median of {len(stepped)} ops"),
        "step_tail_ms": (1e3 * value, f"p{pct:g} of {steps} steps, {beyond} beyond it"),
        "ref_err": (max((r.ref_err for r in results), default=0.0), f"max over {len(results)} ops"),
        "failed_frac": (sum(r.failed for r in results) / max(len(results), 1),
                        f"{sum(r.failed for r in results)} of {len(results)} ops"),
        "cal_s": (_median(cal), f"median of {len(cal)} calibrations; times are scaled "
                                f"by {CAL_REF_S} s / the mean of the two around each command"),
    }
    return rows


def _hits(traces, degree=None):
    lookups = misses = 0
    for deg, summary in traces:
        if degree is None or deg == degree:
            lookups += summary["layers"].get(LOOKUP, {}).get("calls", 0)
            misses += summary["edges"].get(TABLE_BUILD_EDGE, 0)
    return lookups, misses


def per_layer(traced, pairs):
    """Per-layer metrics of the traced ops.  ``pairs`` holds (untraced,
    traced) results of the same op, for the tracing overhead.

    Returns (declared metrics, full layer table, notes)."""
    per_op = [merge([s for _, s in r.traces]) for r in traced]
    names = sorted({name for m in per_op for name in m["layers"]})
    table = {}
    for name in names:
        rows = [m["layers"].get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}) for m in per_op]
        table[name] = {
            "calls": _per_op_count([row["calls"] for row in rows]),
            "self_s": _median([row["self_s"] for row in rows]),
            "total_s": _median([row["total_s"] for row in rows]),
        }

    def op_median(fn):
        return _median([fn(m) for m in per_op])

    def total(m, name):
        return m["layers"].get(name, {}).get("total_s", 0.0)

    all_traces = [t for r in traced for t in r.traces]
    lookups, misses = _hits(all_traces)
    values = {
        "sht.table_lookups": _per_op_count([_hits(r.traces)[0] for r in traced]),
        "sht.table_hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
        "cli.io_s": op_median(lambda m: sum(total(m, n) for n in IO_SPANS)),
        "cli.files_written": _per_op_count([r.files_written for r in traced]),
        "cli.bytes_written": _per_op_count([r.bytes_written for r in traced]),
        "models.ginzburg_landau_energy.evolve_share": op_median(
            lambda m: total(m, "models.ginzburg_landau_energy") / total(m, "timestep.evolve")
            if total(m, "timestep.evolve") else 0.0),
        "trace.overhead_frac": _median([t.solve_s / u.solve_s - 1.0 for u, t in pairs]),
    }
    declared = {}
    for name in PER_LAYER:
        if name in values:
            declared[name] = values[name]
        else:
            layer_name, key = name.rsplit(".", 1)
            declared[name] = table.get(layer_name, {}).get(key, 0)
    notes = {"traced ops": len(traced)}
    for degree in sorted({d for d, _ in all_traces}):
        lk, ms = _hits(all_traces, degree)
        if lk:
            notes[f"sht.table_hit_ratio of --degree {degree} commands"] = (
                f"{(lk - ms) / lk:.3f} of {lk} lookups in {len(traced)} ops")
    return declared, table, notes


def _per_op_count(counts):
    """Counts per op: exact when every op agrees, else their mean."""
    if not counts:
        return 0
    if len(set(counts)) == 1:
        return counts[0]
    return sum(counts) / len(counts)
