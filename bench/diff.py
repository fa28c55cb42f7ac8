"""Compare two sets of benchmark results, per workload and metric.

    python3 bench/diff.py BEFORE AFTER

BEFORE and AFTER are directories (searched recursively) or files of
records saved by ``bench/run.py --out``.  For every workload and
end-to-end metric the tool prints each side's median and quartiles, the
share of pairs AFTER won (pairs match by seed, else by order; ties count
for neither side) and, for the metrics BENCHMARK.json declares, a
verdict under the metric's bound:

- regression: AFTER's median is worse than BEFORE's by more than the bound
- unresolved: BEFORE's own quartile spread is wider than the bound, and
  not every AFTER run beats every BEFORE run
- gain: AFTER won at least 9 in 10 pairs and the medians differ by more
  than BEFORE's quartile distance
- unchanged: otherwise

The other metrics the records carry (``metrics.EXTRA``) get no verdict.
Traced records give per-layer medians and their change.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _specs():
    """Declared metrics, then the extra ones with no bound."""
    sys.path.insert(0, str(HERE))
    from metrics import EXTRA

    specs = {m["name"]: m for m in DECLARED["end_to_end"]}
    specs.update({name: {**m, "bound": None} for name, m in EXTRA.items()})
    return specs


def load(paths):
    records = []
    for p in map(Path, paths):
        files = sorted(p.rglob("*.json")) if p.is_dir() else [p]
        for f in files:
            record = json.loads(f.read_text())
            if "workload" in record and "end_to_end" in record:
                records.append(record)
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _pairs(before, after):
    """(before value, after value) pairs, by seed when the seeds match."""
    b_by_seed = {r["seed"]: r for r in before}
    a_by_seed = {r["seed"]: r for r in after}
    if set(b_by_seed) == set(a_by_seed) and len(b_by_seed) == len(before) == len(after):
        return [(b_by_seed[s], a_by_seed[s]) for s in sorted(b_by_seed)]
    return list(zip(before, after))


def verdict(spec, before, after, pairs):
    better = (lambda x, y: y < x) if spec["better"] == "lower" else (lambda x, y: y > x)
    q1, med_b, q3 = quartiles(before)
    _, med_a, _ = quartiles(after)
    wins = sum(better(b, a) for b, a in pairs)
    won = wins / len(pairs) if pairs else 0.0
    if spec["bound"] is None or med_b == 0:
        return won, "-"
    change = (med_a - med_b) / abs(med_b)
    worse = change if spec["better"] == "lower" else -change
    spread = (q3 - q1) / abs(med_b)
    if worse > spec["bound"]:
        return won, "regression"
    every_run_better = all(better(b, a) for b in before for a in after)
    if spread > spec["bound"] and not every_run_better:
        return won, "unresolved"
    if won >= 0.9 and abs(med_a - med_b) > (q3 - q1) and worse < 0:
        return won, "gain"
    return won, "unchanged"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    specs = _specs()
    sides = {}
    for label, path in (("before", args.before), ("after", args.after)):
        grouped = defaultdict(lambda: defaultdict(list))
        for r in load([path]):
            grouped[r["workload"]][r["trace"]].append(r)
        sides[label] = grouped
    workloads = sorted(set(sides["before"]) & set(sides["after"]))
    if not workloads:
        print("no workload present on both sides", file=sys.stderr)
        return 1
    for w in workloads:
        before, after = sides["before"][w][0], sides["after"][w][0]
        print(f"## {w}: {len(before)} untraced runs before, {len(after)} after")
        if before and after:
            print(f"{'metric':<15} {'unit':<5} {'before q1/med/q3':>32} {'after q1/med/q3':>32} "
                  f"{'change':>8} {'won':>5}  verdict")
        for name, spec in specs.items() if before and after else ():
            b = [r["end_to_end"][name]["value"] for r in before if name in r["end_to_end"]]
            a = [r["end_to_end"][name]["value"] for r in after if name in r["end_to_end"]]
            if not b or not a or (not any(b) and not any(a)):
                continue
            pairs = [(x["end_to_end"][name]["value"], y["end_to_end"][name]["value"])
                     for x, y in _pairs(before, after)]
            won, word = verdict(spec, b, a, pairs)
            qb, qa = quartiles(b), quartiles(a)
            change = (qa[1] - qb[1]) / abs(qb[1]) if qb[1] else 0.0
            print(f"{name:<15} {spec['unit']:<5} {'/'.join(f'{v:.4g}' for v in qb):>32} "
                  f"{'/'.join(f'{v:.4g}' for v in qa):>32} {change:>+8.1%} {won:>5.0%}  {word}")
        tb, ta = sides["before"][w][1], sides["after"][w][1]
        if tb and ta:
            print(f"-- per layer ({len(tb)} traced runs before, {len(ta)} after; medians)")
            names = sorted(set().union(*(r["layers"] for r in tb + ta)))
            for name in names:
                for key in ("calls", "self_s"):
                    vb = statistics.median([r["layers"].get(name, {}).get(key, 0) for r in tb])
                    va = statistics.median([r["layers"].get(name, {}).get(key, 0) for r in ta])
                    if vb == va == 0:
                        continue
                    rel = f"{(va - vb) / vb:+.1%}" if vb else "new"
                    print(f"   {name + '.' + key:<55} {vb:>12.6g} -> {va:<12.6g} {rel}")
            for key in ("sht.table_hit_ratio", "trace.overhead_frac",
                        "models.ginzburg_landau_energy.evolve_share"):
                vb = statistics.median([r["per_layer"][key] for r in tb])
                va = statistics.median([r["per_layer"][key] for r in ta])
                print(f"   {key:<55} {vb:>12.6g} -> {va:<12.6g}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
