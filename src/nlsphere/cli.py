"""Command-line interface: spectrum tables, Poisson solves, evolutions.

Heavy numerical imports happen inside `run`, after the optional
NLSPHERE_THREADS cap has been exported to the BLAS thread-count
environment variables; importing this module alone stays cheap.

On glibc, `run` then makes the allocator keep freed heap pages: blocks up
to 32 MiB come from the heap and up to 64 MiB of free heap top is kept, so
a time step reuses the pages that the step before freed instead of
faulting in fresh zeroed ones.  Both thresholds are set together: setting
either alone switches off glibc's dynamic mmap threshold, and every block
of a few hundred KiB is then mapped anew.

`run` takes the parsed command line.  It first builds every input (the
kernel, a `--rhs` file, the model config, the initial condition), each
checked by the object that owns it, and only then creates the output
directory, the spectrum and the grid: a refused command line exits 1 and
writes nothing.  An evolution that blows up exits 2 and removes every
level of the output path that it created and left empty.

All outputs are UTF-8 CSV files with `#`-prefixed header lines, written
deterministically: re-running a command with identical flags (including
the seed) produces byte-identical files.
"""

import argparse
import math
import os
import sys

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_MODELS = ("allen-cahn", "brusselator")

# mallopt parameter numbers, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _apply_thread_cap():
    """Export NLSPHERE_THREADS to the BLAS pools, without overriding
    explicit per-library settings."""
    cap = os.environ.get("NLSPHERE_THREADS")
    if cap is None or cap == "":
        return
    try:
        value = int(cap)
    except ValueError:
        raise ValueError(f"NLSPHERE_THREADS must be an integer, got {cap!r}")
    if value < 1:
        raise ValueError(f"NLSPHERE_THREADS must be positive, got {value}")
    for name in _THREAD_ENV_VARS:
        os.environ.setdefault(name, str(value))


def _keep_heap_pages():
    """On glibc, keep freed heap pages for the next allocation (see the
    module docstring); a no-op elsewhere."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, OSError, ValueError):
        return
    if not (libc or "").startswith("glibc"):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _parse_ic(spec_string):
    """Split an --ic value into ('cos10xy' | 'equilibrium' | 'random', cap, scale)."""
    if spec_string in ("cos10xy", "equilibrium"):
        return spec_string, None, None
    if spec_string.startswith("random:"):
        parts = spec_string.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"--ic random takes the form random:<cap>:<scale>, got {spec_string!r}")
        try:
            cap = int(parts[1])
            scale = float(parts[2])
        except ValueError:
            raise ValueError(f"could not parse --ic value {spec_string!r}")
        return "random", cap, scale
    raise ValueError(
        f"unknown --ic value {spec_string!r}; expected cos10xy, equilibrium, "
        "or random:<cap>:<scale>"
    )


def run(args):
    """Execute one parsed command line (see `build_parser`).  Inputs are
    all checked before any output."""
    _apply_thread_cap()
    # deferred so the thread cap above precedes the first numpy import
    import numpy as np

    _keep_heap_pages()

    from . import models as M
    from .spectrum import KernelParams, write_spectrum
    from .specfun import _check_count, _check_real
    from .sht import (
        SphereGrid,
        _keep_tables,
        analysis,
        read_coeffs,
        synthesis,
        write_coeffs,
        write_grid_values,
    )
    from .timestep import BlowUpError, evolve, pseudospectral

    kernel = KernelParams(args.alpha, args.delta)  # checked with --local too
    n = _check_count(args.degree, "degree")
    if args.command == "poisson" and args.rhs != "death-star":
        rhs = read_coeffs(args.rhs)
        if len(rhs) != n + 1:
            raise ValueError(f"RHS file degree {len(rhs) - 1} does not match --degree {n}")
    elif args.command == "evolve":
        _check_count(args.cesaro_kappa, "--cesaro-kappa")
        _check_count(args.snapshot_stride, "--snapshot-stride")
        h = _check_real(args.dt, "--dt", 0, math.inf)
        ratio = _check_real(args.t_final, "--t-final", 0, math.inf) / h
        # above 2**53 the step index k and the time k h are no longer exact
        if not ratio <= 2.0**53:
            raise ValueError(
                f"--t-final {args.t_final!r} / --dt {h!r} is more than 2**53 steps"
            )
        steps = max(round(ratio), 1)
        kind, cap, scale = _parse_ic(args.ic)
        if args.model == "allen-cahn":
            cfg = M.AllenCahnConfig(epsilon=args.epsilon)
            if kind == "equilibrium":
                raise ValueError("--ic equilibrium applies only to the brusselator model")
            tags = ("u",)
            state = None  # cos10xy is sampled on the grid the compute phase builds
            if kind == "random":
                state = [M.random_coeffs(cap, n, scale, args.seed)]
        else:
            cfg = M.BrusselatorConfig(E=args.E, epsilon=args.epsilon, tau=args.tau, f=args.f)
            if kind == "cos10xy":
                raise ValueError(
                    "--ic for the brusselator model must be equilibrium or random:<cap>:<scale>"
                )
            tags = ("u", "v")
            state = []
            for offset, mean in enumerate(cfg.equilibrium()):
                # successive seeds keep the two species' streams independent
                c = (M.random_coeffs(cap, n, scale, args.seed + offset) if kind == "random"
                     else np.zeros((n + 1, 2 * n + 1)))
                c[0, 0] += mean * math.sqrt(4.0 * math.pi)
                state.append(c)
    spec = M.build_spectrum(n, None if args.local else kernel)

    # the levels of the output path this run creates, innermost first
    created = []
    level = os.path.abspath(args.output_dir)
    while not os.path.exists(level):
        created.append(level)
        level = os.path.dirname(level)
    os.makedirs(args.output_dir, exist_ok=True)
    out = lambda name: os.path.join(args.output_dir, name)

    if args.command == "spectrum":
        kernel_desc = (
            "local" if args.local
            else f"alpha={args.alpha:.17g} delta={args.delta:.17g}"
        )
        write_spectrum(spec, out("spectrum.csv"), comment=f"{kernel_desc} degree={n}")
        return

    grid = SphereGrid(n)

    if args.command == "poisson":
        if args.rhs == "death-star":
            # analysis, then synthesis, on one grid
            _keep_tables(grid, n)
            rhs = analysis(M.death_star_rhs(grid), grid)
        solution = M.solve_poisson(rhs, spec)
        del rhs  # not held through the synthesis
        write_coeffs(solution, out("solution_coeffs.csv"))
        write_grid_values(synthesis(solution, grid), grid, out("solution_grid.csv"))
        return

    # evolve
    observers = []
    if args.model == "allen-cahn":
        # first, so that the grid keeps its tables for the cos10xy analysis
        nonlinearity = pseudospectral(M.allen_cahn_nonlinearity, grid)
        if state is None:
            state = [analysis(M.cos10xy(grid), grid)]
        operators = [M.allen_cahn_operator(cfg, spec)]
        recorder = M.EnergyRecorder(spec, cfg.epsilon)
        observers.append(recorder)
    else:
        operators = M.brusselator_operators(cfg, spec)
        nonlinearity = M.brusselator_nonlinearity(cfg, grid)

    def snapshot_observer(step, t, state):
        if step % args.snapshot_stride:
            return
        for tag, coeffs in zip(tags, state):
            if args.cesaro_kappa >= 1:
                coeffs = M.cesaro_apply(coeffs, args.cesaro_kappa)
            write_coeffs(coeffs, out(f"snapshot_{tag}_{step:06d}.csv"), comment=f"t={t:.17g}")

    if args.snapshot_stride >= 1:
        observers.append(snapshot_observer)
    # a blow-up overflows before evolve sees it; BlowUpError reports it alone
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            final = evolve(state, operators, nonlinearity, h, steps, observers=observers)
    except BlowUpError:
        # a directory this run created and left empty is not an output
        for level in created:
            if os.listdir(level):
                break
            os.rmdir(level)
        raise
    if args.model == "allen-cahn":
        recorder.write(out("energy.csv"))

    for tag, coeffs in zip(tags, final):
        write_coeffs(coeffs, out(f"final_{tag}_coeffs.csv"), comment=f"t={steps * h:.17g}")
        write_grid_values(synthesis(coeffs, grid), grid, out(f"final_{tag}_grid.csv"))


class _Parser(argparse.ArgumentParser):
    # validation failures exit with status 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="nlsphere", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--alpha", type=float, default=-0.5,
                       help="kernel singularity strength in (-1, 1)")
        p.add_argument("--delta", type=float, default=1.0,
                       help="interaction horizon in (0, 2]")
        p.add_argument("--local", action="store_true",
                       help="use the classical operator instead of a kernel")
        p.add_argument("--degree", type=int, required=True,
                       help="maximum retained harmonic degree n")
        p.add_argument("--output-dir", default=".")

    p_spec = sub.add_parser("spectrum", help="write the eigenvalue table")
    add_common(p_spec)

    p_poi = sub.add_parser("poisson", help="solve the Poisson problem")
    add_common(p_poi)
    p_poi.add_argument("--rhs", default="death-star",
                       help="'death-star' or a path to a coefficients CSV")

    p_evo = sub.add_parser("evolve", help="integrate a reaction-diffusion model")
    add_common(p_evo)
    p_evo.add_argument("--model", choices=_MODELS, required=True)
    p_evo.add_argument("--epsilon", type=float, default=0.1)
    p_evo.add_argument("--E", type=float, default=4.0)
    p_evo.add_argument("--tau", type=float, default=7.8125)
    p_evo.add_argument("--f", type=float, default=0.8)
    p_evo.add_argument("--dt", type=float, required=True)
    p_evo.add_argument("--t-final", type=float, required=True,
                       help="integrated over round(t_final/dt) steps")
    p_evo.add_argument("--ic", default="cos10xy",
                       help="cos10xy, equilibrium, or random:<cap>:<scale>")
    p_evo.add_argument("--seed", type=int, default=0)
    p_evo.add_argument("--cesaro-kappa", type=int, default=0,
                       help="Cesaro order applied to snapshots (0 = off)")
    p_evo.add_argument("--snapshot-stride", type=int, default=0,
                       help="steps between snapshot files (0 = none)")
    return parser


def main(argv=None):
    try:
        run(build_parser().parse_args(argv))
    except (ValueError, OSError) as err:
        print(f"nlsphere: error: {err}", file=sys.stderr)
        return 1
    except RuntimeError as err:  # numerical blow-up gets its own exit code
        from .timestep import BlowUpError

        if isinstance(err, BlowUpError):
            print(f"nlsphere: {err}", file=sys.stderr)
            return 2
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
