"""Workloads, operations and correctness checks of the nlsphere benchmark.

An op is one or more ``nlsphere`` command lines, run through
``nlsphere.cli.main``, the path the installed command takes.  Every
command line runs in its own forked child of the benchmark process: it
starts with the cold caches of a fresh ``nlsphere`` invocation while the
interpreter and numpy are already loaded, and its peak memory is its
own.  Checks run in a further child after the op, outside the timed
region.

Inputs come only from the workload seed: the order of the initial
conditions and the right-hand-side files.  The program sees command-line
arguments and files.
"""

import json
import math
import os
import shutil
import signal
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer, merge, scaled

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: A child still running after this many seconds is killed; its op fails.
CHILD_TIMEOUT_S = 150

#: Span names the untraced runs hook to find phase boundaries (one
#: perf_counter pair per call; none of them is called more than once a step).
PHASE_SPANS = (
    "models.solve_poisson",
    "timestep.etdrk4_step",
    "timestep.evolve",
)
IO_SPANS = (
    "sht.write_coeffs",
    "sht.write_grid_values",
    "sht.read_coeffs",
    "models.EnergyRecorder.write",
)

# ----------------------------------------------------------------------
# workload parameters
# ----------------------------------------------------------------------

EVOLVE_STEPS = 50
AC_ARGS = (
    "evolve", "--model", "allen-cahn", "--alpha", "-0.5", "--delta", "1",
    "--epsilon", "0.1", "--degree", "127", "--dt", "0.01", "--t-final", "0.5",
    "--cesaro-kappa", "2", "--snapshot-stride", "20",
)
#: (seed, scale) of the random:63:<scale> initial conditions; golden final
#: states exist for exactly these.
AC_POOL = tuple((s, round(0.01 + 0.002 * s, 4)) for s in range(1, 17))
BR_ARGS = (
    "evolve", "--model", "brusselator", "--alpha", "0", "--delta", "1",
    "--epsilon", "0.075", "--E", "4", "--tau", "7.8125", "--f", "0.8",
    "--degree", "127", "--dt", "0.1", "--t-final", "5", "--ic", "random:63:0.01",
)
BR_POOL = tuple(range(1, 17))

POISSON_KERNEL = (0.0, 1.5)
#: (degree, right-hand side) of the four cold solves of one op.  The
#: death-star solves at 127 and 383 run analysis then synthesis on one grid,
#: so their table hit ratio shows whether tables are cached at that degree.
POISSON_SOLVES = ((63, "file"), (127, "death-star"), (255, "file"), (383, "death-star"))

# tolerances of the checks, set from the errors measured at the commit that
# introduced the benchmark with room for a reordering of the arithmetic
TOL_ROUND_TRIP = 1e-11
TOL_POISSON_RESIDUAL = 1e-10
TOL_GOLDEN = 1e-8

#: Size of the calibration kernel (about 40 ms on the reference host).
CAL_FORMAT = 16_000
CAL_ROUNDS = 16
CAL_ARRAY = 100_000
#: Median calibrate() time on the reference host (2-vCPU VM, Python 3.11,
#: numpy 2.4 with OpenBLAS 0.3.31), so that reference seconds stay close
#: to the seconds measured there.
CAL_REF_S = 0.040
TOL_ENERGY_RISE = 1e-12


@dataclass
class Op:
    """One measured operation: command lines run in turn."""

    root: Path  # holds every file of the op; removed after it
    commands: list  # argv lists
    outdirs: list
    check: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# op generators
# ----------------------------------------------------------------------

def _num(x):
    return repr(float(x))


def _pool_ops(rng, pool, make):
    index = 0
    while True:
        for k in rng.permutation(len(pool)):
            yield make(index, pool[k])
            index += 1


def allen_cahn_ops(rng, workdir):
    def make(index, entry):
        seed, scale = entry
        root = workdir / f"op{index}"
        argv = [*AC_ARGS, "--ic", f"random:63:{scale}", "--seed", str(seed), "--output-dir", str(root)]
        return Op(root, [argv], [str(root)], check={"kind": "allen-cahn", "golden": f"{seed}:{scale}"})
    return _pool_ops(rng, AC_POOL, make)


def brusselator_ops(rng, workdir):
    def make(index, seed):
        root = workdir / f"op{index}"
        argv = [*BR_ARGS, "--seed", str(seed), "--output-dir", str(root)]
        return Op(root, [argv], [str(root)], check={"kind": "brusselator", "golden": str(seed)})
    return _pool_ops(rng, BR_POOL, make)


def poisson_ops(rng, workdir):
    alpha, delta = POISSON_KERNEL
    index = 0
    while True:
        base = workdir / f"op{index}"
        base.mkdir(parents=True)
        commands, outdirs, rhs_data = [], [], {}
        for degree, rhs in POISSON_SOLVES:
            out = str(base / f"n{degree}")
            if rhs == "file":
                data = random_rhs(rng, degree)
                rhs = str(base / f"rhs_{degree}.csv")
                write_coeffs_file(rhs, data)
                rhs_data[degree] = data
            commands.append(["poisson", "--alpha", _num(alpha), "--delta", _num(delta),
                             "--degree", str(degree), "--rhs", rhs, "--output-dir", out])
            outdirs.append(out)
        yield Op(base, commands, outdirs,
                 check={"kind": "poisson", "solves": POISSON_SOLVES, "rhs": rhs_data})
        index += 1


# ----------------------------------------------------------------------
# coefficient layout and file formats (independent of the package)
# ----------------------------------------------------------------------

def layout(degree):
    """Harmonic degree of each slot of the (n+1) x (2n+1) layout; -1 if unused."""
    n = degree
    deg = np.full((n + 1, 2 * n + 1), -1)
    deg[:, 0] = np.arange(n + 1)
    for m in range(1, n + 1):
        deg[: n - m + 1, 2 * m - 1] = np.arange(m, n + 1)
        deg[: n - m + 1, 2 * m] = np.arange(m, n + 1)
    return deg


def random_rhs(rng, degree):
    """Gaussian coefficients decaying like 1/(1+l), zero outside the layout."""
    deg = layout(degree)
    data = rng.standard_normal(deg.shape) / (1.0 + np.maximum(deg, 0))
    data[deg < 0] = 0.0
    return data


def write_coeffs_file(path, data):
    lines = [f"# sht-coeffs v1 degree={data.shape[0] - 1}"]
    lines += [",".join(f"{v:.17g}" for v in row) for row in data]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_table(path, header=None):
    """Numeric CSV body of an output file as a 2-d float array.  The formats
    put their ``#`` lines and the optional column header first."""
    text = Path(path).read_text(encoding="utf-8")
    pos = 0
    while text.startswith("#", pos) or (header and text.startswith(header + "\n", pos)):
        pos = text.index("\n", pos) + 1
    body = text[pos:]
    width = body[: body.index("\n")].count(",") + 1
    return np.array(body.replace(",", " ").split(), dtype=float).reshape(-1, width)


def fingerprint(data):
    """Compact record of a coefficient matrix: its norm and low-degree block."""
    return {"norm": float(np.linalg.norm(data)), "block": data[:5, :9].ravel().tolist()}


def fingerprint_error(data, golden):
    fp = fingerprint(data)
    block, ref = np.array(fp["block"]), np.array(golden["block"])
    return max(abs(fp["norm"] - golden["norm"]) / golden["norm"],
               float(np.linalg.norm(block - ref) / np.linalg.norm(ref)))


# ----------------------------------------------------------------------
# reference eigenvalues
# ----------------------------------------------------------------------

def reference_eigenvalue(ell, alpha, delta):
    """lambda(l) by exact integration of the polynomial integrand, in mpmath.

    With q = delta^2 (1-x)/8 and P_l(1-2q) = sum_k c_k q^k,
    c_k = (-1)^k C(l,k) C(l+k,k), each term integrates in closed form:
    lambda = (1+a) 2^(2-a) / delta^2 * sum_{k>=1} c_k (delta^2/8)^k 2^(a+k)/(a+k).
    The alternating sum cancels ~0.77 l decimal digits, so the working
    precision grows with l.  This shares no code with the package.
    """
    import mpmath as mp

    if ell == 0:
        return 0.0
    with mp.workdps(int(0.77 * ell) + 40):
        a = mp.mpf(alpha)
        d2 = mp.mpf(delta) ** 2
        ratio = d2 / 4  # (delta^2 / 8) * 2 per power of k
        c, power, total = 1, mp.mpf(1), mp.mpf(0)
        for k in range(1, ell + 1):
            c = c * -(ell - k + 1) * (ell + k) // (k * k)
            power *= ratio
            total += c * power / (a + k)
        return float((1 + a) * mp.power(2, 2 - a) / d2 * mp.power(2, a) * total)


# ----------------------------------------------------------------------
# running one op
# ----------------------------------------------------------------------

def fork_call(fn, *args):
    """Run fn(*args) in a forked child; returns its JSON-able result as
    {"ok": True, "value": ...} or {"ok": False, "error": ...}, plus the
    child's peak resident memory in KiB."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never return into the caller's code
        try:
            signal.alarm(CHILD_TIMEOUT_S)
            os.close(read_fd)
            try:
                payload = {"ok": True, "value": fn(*args)}
            except Exception:
                payload = {"ok": False, "error": traceback.format_exc()}
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(json.dumps(payload).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if data:
        payload = json.loads(data)
    else:
        payload = {"ok": False, "error": f"child ended with wait status {status} and no result"}
    payload["maxrss_kib"] = usage.ru_maxrss
    return payload


def _invocation(argv, traced):
    """Child side of one command line: run it and return exit code, phase
    boundaries and (when traced) the layer summary."""
    from nlsphere import cli

    tracer = Tracer().install(only=None if traced else PHASE_SPANS)
    start = perf_counter()
    code = cli.main(list(argv))
    end = perf_counter()
    phases = _phases(tracer.spans, start, end)
    return {
        "code": code,
        "wall_s": end - start,
        **phases,
        "trace": tracer.summary() if traced else None,
    }


def _phases(spans, start, end):
    solves = [s[2] for s in spans if s[0] == "models.solve_poisson"]
    steps = [s[2] for s in spans if s[0] == "timestep.etdrk4_step"]
    evolve_end = [s[3] for s in spans if s[0] == "timestep.evolve"]
    setup_end = min(solves[:1] + steps[:1], default=end)
    latencies = []
    if steps and evolve_end:
        marks = steps + [evolve_end[-1]]
        latencies = [b - a for a, b in zip(marks, marks[1:])]
    return {
        "setup_s": setup_end - start,
        "steps": len(steps),
        "stepping_s": (evolve_end[-1] - steps[0]) if steps and evolve_end else 0.0,
        "step_latencies": latencies,
    }


def _degree(argv):
    return int(argv[argv.index("--degree") + 1])


@dataclass
class OpResult:
    """One op's outcome.  Times other than wall_s and raw_solve_s are in
    reference seconds (see execute)."""

    failed: bool
    problems: list
    wall_s: float  # whole op as the benchmark ran it, forks and calibrations included
    setup_s: float = 0.0
    solve_s: float = 0.0
    raw_solve_s: float = 0.0
    steps: int = 0
    stepping_s: float = 0.0
    step_latencies: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    ref_err: float = 0.0
    files_written: int = 0
    bytes_written: int = 0
    traces: list = field(default_factory=list)  # (degree, summary) per command
    cal_s: list = field(default_factory=list)  # calibrate() around each command


#: Inputs of the calibration kernel, made on first use.
_CAL = {}


def calibrate():
    """Seconds that one fixed reference kernel takes now.

    The kernel mixes what the ops spend their time on: float formatting
    (the CSV writers), matrix products and FFTs at the transforms' sizes,
    and elementwise array work.  It runs no nlsphere code, so a change to
    the program does not move it, while a slower or busier host moves it
    much as it moves the ops."""
    if not _CAL:
        rng = np.random.default_rng(0)
        _CAL.update(values=rng.standard_normal(CAL_FORMAT),
                    table=rng.standard_normal((128, 256)),
                    grid=rng.standard_normal((256, 256)),
                    array=rng.standard_normal(CAL_ARRAY))
    t0 = perf_counter()
    ",".join(f"{v:.17g}" for v in _CAL["values"])
    for _ in range(CAL_ROUNDS):
        _CAL["table"] @ _CAL["grid"]
        np.fft.irfft(np.fft.rfft(_CAL["grid"], axis=1), axis=1)
        np.sqrt(np.abs(_CAL["array"] * 1.5 - 0.5)).sum()
    return perf_counter() - t0


def execute(op, traced=False):
    """Run one op, then check its outputs.

    The calibration kernel is timed before each command line and after the
    last.  Each command's times are scaled to reference seconds by
    CAL_REF_S / the mean of the two calibrations around it: the shared
    host switches between a fast and a slow state (the kernel takes 28 or
    47 ms) from second to second and drifts by 20-35 % over minutes, and
    the kernel moves with it much as the program does."""
    cal, payloads = [], []
    t0 = perf_counter()
    for argv in op.commands:
        cal.append(calibrate())
        payloads.append(fork_call(_invocation, argv, traced))
    cal.append(calibrate())
    wall = perf_counter() - t0
    result = OpResult(failed=False, problems=[], wall_s=wall, cal_s=cal)
    for i, (argv, p) in enumerate(zip(op.commands, payloads)):
        result.peak_rss_mb = max(result.peak_rss_mb, p["maxrss_kib"] / 1024.0)
        if not p["ok"]:
            result.problems.append(f"{argv[0]}: {p['error'].strip().splitlines()[-1]}")
            continue
        v = p["value"]
        if v["code"] != 0:
            result.problems.append(f"{argv[0]} exited with status {v['code']}")
        k = CAL_REF_S / ((cal[i] + cal[i + 1]) / 2)
        result.setup_s += k * v["setup_s"]
        result.solve_s += k * v["wall_s"]
        result.raw_solve_s += v["wall_s"]
        result.steps += v["steps"]
        result.stepping_s += k * v["stepping_s"]
        result.step_latencies += [k * s for s in v["step_latencies"]]
        if v["trace"] is not None:
            result.traces.append((_degree(argv), scaled(v["trace"], k)))
    for out in op.outdirs:
        for path in Path(out).glob("*"):
            result.files_written += 1
            result.bytes_written += path.stat().st_size
    if not result.problems:
        verdict = fork_call(check_op, op)
        if not verdict["ok"]:
            result.problems.append("check crashed: " + verdict["error"].strip().splitlines()[-1])
        else:
            result.ref_err = verdict["value"]["ref_err"]
            result.problems += verdict["value"]["problems"]
    result.failed = bool(result.problems)
    return result


# ----------------------------------------------------------------------
# correctness checks (run in a child, outside the timed region)
# ----------------------------------------------------------------------

class _Verdict:
    def __init__(self):
        self.ref_err = 0.0
        self.problems = []

    def error(self, what, err, tol):
        if not err <= tol:  # also catches NaN
            self.problems.append(f"{what}: error {err:.3g} exceeds {tol:.0e}")
        if math.isfinite(err):
            self.ref_err = max(self.ref_err, err)
        else:
            self.ref_err = math.inf

    def require(self, what, ok):
        if not ok:
            self.problems.append(what)

    def finite(self, what, array):
        self.require(f"{what}: non-finite values", bool(np.all(np.isfinite(array))))


def check_op(op):
    verdict = _Verdict()
    {"poisson": _check_poisson, "allen-cahn": _check_allen_cahn,
     "brusselator": _check_brusselator}[op.check["kind"]](op, verdict)
    return {"ref_err": verdict.ref_err, "problems": verdict.problems}


def _golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _check_poisson(op, verdict):
    from nlsphere.sht import SphereGrid, analysis

    alpha, delta = POISSON_KERNEL
    golden = _golden()["poisson-sweep"]
    for (degree, rhs), out in zip(op.check["solves"], op.outdirs):
        coeffs = read_table(Path(out) / "solution_coeffs.csv")
        grid_rows = read_table(Path(out) / "solution_grid.csv", header="theta,phi,value")
        verdict.finite(f"n={degree} coefficients", coeffs)
        verdict.finite(f"n={degree} grid", grid_rows)
        if verdict.problems:
            return
        # analysis is the exact inverse of synthesis for band-limited data, so
        # analysing the written grid must give back the written coefficients:
        # one transform checks both the round trip and that the two files agree
        grid = SphereGrid(degree)
        values = grid_rows[:, 2].reshape(degree + 1, 2 * degree + 1)
        verdict.require(f"n={degree} grid nodes differ", np.array_equal(
            grid_rows[:, 0].reshape(values.shape)[:, 0], grid.colat_nodes))
        back = analysis(values, grid).data
        verdict.error(f"n={degree} analysis of grid file vs coefficient file",
                      float(np.max(np.abs(back - coeffs)) / np.max(np.abs(coeffs))), TOL_ROUND_TRIP)
        if rhs == "file":
            f = op.check["rhs"][degree]
            deg = layout(degree)
            verdict.require(f"n={degree} mean not inherited", coeffs[0, 0] == f[0, 0])
            for ell in sorted({1, 2, 7, degree // 2, degree}):
                mask = deg == ell
                lam = reference_eigenvalue(ell, alpha, delta)
                err = np.max(np.abs(coeffs[mask] * lam - f[mask])) / np.max(np.abs(f[mask]))
                verdict.error(f"n={degree} residual at l={ell}", float(err), TOL_POISSON_RESIDUAL)
        else:
            verdict.error(f"n={degree} death-star solution vs golden",
                          fingerprint_error(coeffs, golden[str(degree)]), TOL_GOLDEN)


def _check_evolve_files(op, verdict):
    out = Path(op.outdirs[0])
    for path in sorted(out.glob("*.csv")):
        verdict.finite(path.name, read_table(path, header="theta,phi,value"))
    return out


def _check_allen_cahn(op, verdict):
    out = _check_evolve_files(op, verdict)
    energy = read_table(out / "energy.csv")[:, 1]
    verdict.require(f"energy has {energy.size} entries, expected {EVOLVE_STEPS + 1}",
                    energy.size == EVOLVE_STEPS + 1)
    rise = np.max(np.diff(energy)) / np.max(np.abs(energy))
    verdict.require(f"energy increased (relative rise {rise:.3g})", rise <= TOL_ENERGY_RISE)
    final = read_table(out / "final_u_coeffs.csv")
    verdict.error("final u vs golden",
                  fingerprint_error(final, _golden()["allen-cahn-127"][op.check["golden"]]),
                  TOL_GOLDEN)


def _check_brusselator(op, verdict):
    out = _check_evolve_files(op, verdict)
    golden = _golden()["brusselator-127"][op.check["golden"]]
    for tag in ("u", "v"):
        final = read_table(out / f"final_{tag}_coeffs.csv")
        verdict.error(f"final {tag} vs golden", fingerprint_error(final, golden[tag]), TOL_GOLDEN)


# ----------------------------------------------------------------------
# golden outputs
# ----------------------------------------------------------------------

def record_golden(workdir):
    """Run every pooled evolve op and the death-star solves once and store
    fingerprints of their final states in golden.json."""
    golden = {"allen-cahn-127": {}, "brusselator-127": {}, "poisson-sweep": {}}

    def run(argv):
        out = workdir / "golden"
        payload = fork_call(_invocation, [*argv, "--output-dir", str(out)], False)
        if not payload["ok"] or payload["value"]["code"] != 0:
            raise RuntimeError(f"golden run failed: {argv}")
        return out

    for seed, scale in AC_POOL:
        out = run([*AC_ARGS, "--ic", f"random:63:{scale}", "--seed", str(seed)])
        golden["allen-cahn-127"][f"{seed}:{scale}"] = fingerprint(read_table(out / "final_u_coeffs.csv"))
        shutil.rmtree(out)
    for seed in BR_POOL:
        out = run([*BR_ARGS, "--seed", str(seed)])
        golden["brusselator-127"][str(seed)] = {
            tag: fingerprint(read_table(out / f"final_{tag}_coeffs.csv")) for tag in ("u", "v")}
        shutil.rmtree(out)
    alpha, delta = POISSON_KERNEL
    for degree, rhs in POISSON_SOLVES:
        if rhs == "death-star":
            out = run(["poisson", "--alpha", _num(alpha), "--delta", _num(delta),
                       "--degree", str(degree)])
            golden["poisson-sweep"][str(degree)] = fingerprint(read_table(out / "solution_coeffs.csv"))
            shutil.rmtree(out)
    lines = [f" {json.dumps(w)}: {{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
             + "\n }" for w, entries in golden.items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


# ----------------------------------------------------------------------
# workload table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """Op generator and trace predictions of one workload; BENCHMARK.json
    and README.md say why each workload exists."""

    name: str
    ops: object  # (rng, workdir) -> iterator of Op
    #: layers the workload must exercise in a traced run
    exercised: tuple
    #: (layer-name prefix) that must record no calls
    untouched: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "allen-cahn-127",
            allen_cahn_ops,
            ("sht.synthesis", "sht.analysis", "timestep.etdrk4_step", "timestep.nonlinearity",
             "timestep.etdrk4_tables", "models.ginzburg_landau_energy", "models.cesaro_apply",
             "models.random_coeffs", "sht.write_coeffs", "sht.write_grid_values",
             "specfun.assoc_legendre_table", "spectrum.spectrum"),
            ("models.solve_poisson", "sht.read_coeffs"),
        ),
        Workload(
            "brusselator-127",
            brusselator_ops,
            ("sht.synthesis", "sht.analysis", "timestep.etdrk4_step", "timestep.nonlinearity",
             "timestep.etdrk4_tables", "models.random_coeffs", "sht.write_coeffs",
             "specfun.assoc_legendre_table", "spectrum.spectrum"),
            ("models.ginzburg_landau_energy", "models.solve_poisson", "sht.read_coeffs"),
        ),
        Workload(
            "poisson-sweep",
            poisson_ops,
            ("models.solve_poisson", "quadrature.gauss_legendre", "sht.SphereGrid",
             "specfun.assoc_legendre_table", "sht.synthesis", "sht.analysis",
             "sht.read_coeffs", "sht.write_coeffs", "sht.write_grid_values",
             "spectrum.spectrum", "quadrature.cc_weights"),
            ("timestep.etdrk4_step", "models.ginzburg_landau_energy"),
        ),
    )
}


def self_check(workload, op, traces):
    """Problems with one traced op's counts: an exercised layer with no
    calls, or a count the op's definition makes impossible."""
    merged = merge([s for _, s in traces])
    calls = {name: row["calls"] for name, row in merged["layers"].items()}
    count = lambda name: calls.get(name, 0)  # noqa: E731
    problems = [f"{name} recorded no calls" for name in workload.exercised if not count(name)]
    for prefix in workload.untouched:
        touched = sorted(n for n, c in calls.items() if n.startswith(prefix) and c)
        if touched:
            problems.append(f"predicted unused but called: {', '.join(touched)}")
    commands = len(op.commands)
    expect = {"cli.main": commands, "cli.run": commands, "spectrum.spectrum": commands}
    if workload.name == "poisson-sweep":
        expect.update({"models.solve_poisson": commands, "sht.SphereGrid": commands,
                       "sht.read_coeffs": sum(r == "file" for _, r in POISSON_SOLVES)})
    else:
        fields = 1 if workload.name == "allen-cahn-127" else 2
        expect.update({"timestep.etdrk4_step": EVOLVE_STEPS,
                       "timestep.nonlinearity": 4 * EVOLVE_STEPS,
                       "models.random_coeffs": fields})
        if fields == 1:
            expect["models.ginzburg_landau_energy"] = EVOLVE_STEPS + 1
        for transform in ("sht.synthesis", "sht.analysis"):
            if count(transform) < count("timestep.nonlinearity"):
                problems.append(f"{transform}.calls below timestep.nonlinearity.calls")
    problems += [f"{name}.calls = {count(name)}, expected {n}"
                 for name, n in expect.items() if count(name) != n]
    return problems
