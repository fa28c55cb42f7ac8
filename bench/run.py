"""nlsphere benchmark: time to solution on three CLI workloads.

    python3 bench/run.py --workload poisson-sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1 --out results/
    python3 bench/run.py --record-golden

Run from the root of a source checkout; the package is imported from its
``src/``.  The benchmark pins BLAS to one thread, runs ops of the chosen
workload until ``--seconds`` of op time have passed, checks every op's
outputs, and prints a summary
with one ``#`` line per metric, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` each
op runs once untraced and once traced and the metrics are the per-layer
ones.  ``--out`` saves the full record (metadata, all metrics, the layer
table) for ``bench/diff.py``.
"""

import os
import sys

THREAD_VARS = (
    "NLSPHERE_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads():
    """One BLAS thread; with two, timings were bimodal (0.3 ms vs 16 ms).
    The pools read these variables once, when numpy is first imported."""
    if "numpy" in sys.modules:
        raise SystemExit("bench: numpy was imported before the thread pin; refusing to run")
    for name in THREAD_VARS:
        os.environ[name] = "1"


import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def metadata(seed):
    import numpy

    config = numpy.show_config(mode="dicts")
    deps = config.get("Build Dependencies", {})
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = done.stdout.strip() or None
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "loadavg_start": os.getloadavg(),
    }


def run_workload(name, seed, seconds, trace, workdir):
    import numpy as np

    import metrics
    from workloads import WORKLOADS, execute, self_check

    workload = WORKLOADS[name]
    ops = workload.ops(np.random.default_rng(seed), workdir / name)
    results, traced, pairs, trace_problems = [], [], [], []
    measured = 0.0
    for index, op in enumerate(ops):
        if trace:
            # each op untraced and traced, alternating which goes first
            order = (False, True) if index % 2 == 0 else (True, False)
            runs = {flag: execute(op, traced=flag) for flag in order}
            results += runs.values()
            traced.append(runs[True])
            pairs.append((runs[False], runs[True]))
            trace_problems += [f"op {index}: {p}" for p in self_check(workload, op, runs[True].traces)
                               if not runs[True].failed]
        else:
            runs = {False: execute(op)}
            results.append(runs[False])
        measured += sum(r.wall_s for r in runs.values())
        shutil.rmtree(op.root, ignore_errors=True)
        if measured >= seconds:
            break
    e2e = metrics.end_to_end([r for r, _ in pairs] if trace else results)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "problems": [p for r in results for p in r.problems],
        "end_to_end": {k: {"value": v, "note": note} for k, (v, note) in e2e.items()},
        "ops": [{"setup_s": r.setup_s, "solve_s": r.solve_s, "raw_solve_s": r.raw_solve_s,
                 "stepping_s": r.stepping_s, "peak_rss_mb": r.peak_rss_mb, "cal_s": r.cal_s,
                 "failed": r.failed}
                for r in ([u for u, _ in pairs] if trace else results)],
    }
    if trace:
        declared, table, notes = metrics.per_layer(traced, pairs)
        record.update(per_layer=declared, layers=table, layer_notes=notes,
                      self_check=trace_problems)
        shown = {k: {"value": v, "unit": metrics.PER_LAYER[k]["unit"]} for k, v in declared.items()}
    else:
        shown = {k: {"value": e2e[k][0], "unit": metrics.E2E[k]["unit"]} for k in metrics.E2E}
    record["result"] = {
        "correct": record["failed"] == 0 and not trace_problems,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": shown,
    }
    return record


def print_summary(record):
    import metrics

    print(f"# {record['workload']}: {record['attempted']} ops attempted, {record['failed']} failed, "
          f"seed {record['seed']}, trace {record['trace']}")
    for problem in record["problems"] + record.get("self_check", []):
        print(f"#   FAIL {problem}")
    units = {**{k: m["unit"] for k, m in metrics.E2E.items()},
             **{k: m["unit"] for k, m in metrics.EXTRA.items()}}
    for name, row in record["end_to_end"].items():
        print(f"#   {name:<14} {row['value']:>14.6g} {units[name]:<5} {row['note']}")
    if record["trace"]:
        print(f"#   layer{'':<40} {'calls/op':>10} {'self_s/op':>11} {'total_s/op':>11}")
        for name, row in record["layers"].items():
            print(f"#   {name:<45} {row['calls']:>10g} {row['self_s']:>11.5f} {row['total_s']:>11.5f}")
        for key in ("sht.table_hit_ratio", "models.ginzburg_landau_energy.evolve_share",
                    "trace.overhead_frac", "cli.io_s"):
            print(f"#   {key} = {record['per_layer'][key]:.4g}")
        for key, note in record["layer_notes"].items():
            print(f"#   {key}: {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="file (or, with --workload all, directory) for the full record")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite bench/golden.json from the checked-out program")
    args = parser.parse_args(argv)
    pin_threads()
    if not (SRC / "nlsphere" / "__init__.py").is_file():
        print(f"bench: no nlsphere sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nlsphere

    if Path(nlsphere.__file__).resolve().parent != SRC / "nlsphere":
        print(f"bench: imported nlsphere from {nlsphere.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, record_golden

    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.record_golden:
            record_golden(workdir)
            return 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if any(n not in WORKLOADS for n in names):
            parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
        meta = metadata(args.seed)
        records = [run_workload(n, args.seed, args.seconds, args.trace, workdir) for n in names]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another benchmark process still uses it
    meta["loadavg_end"] = os.getloadavg()
    for record in records:
        record["meta"] = meta
        print_summary(record)
    print("# meta " + json.dumps(meta))
    if args.out:
        out = Path(args.out)
        if args.workload == "all":
            out.mkdir(parents=True, exist_ok=True)
            for r in records:
                (out / f"{r['workload']}-s{r['seed']}-t{r['trace']}.json").write_text(
                    json.dumps(r, indent=1) + "\n")
        else:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(records[0], indent=1) + "\n")
    if args.workload == "all":
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    else:
        print(json.dumps(records[0]["result"]))
    return 0 if all(r["result"]["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
