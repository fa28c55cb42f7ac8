"""Command-line interface: spectrum tables, Poisson solves, evolutions.

Heavy numerical imports happen inside `run`, after the optional
NLSPHERE_THREADS cap has been exported to the BLAS thread-count
environment variables; importing this module alone stays cheap.

`run` takes the parsed command line.  It first builds every input (the
kernel, a `--rhs` file, the model config, the initial condition), each
checked by the object that owns it, and only then creates the output
directory, the spectrum and the grid: a refused command line exits 1 and
writes nothing.

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


class CliError(ValueError):
    """Configuration rejected before any computation started."""


def _apply_thread_cap():
    """Export NLSPHERE_THREADS to the BLAS pools, without overriding
    explicit per-library settings."""
    cap = os.environ.get("NLSPHERE_THREADS")
    if cap is None or cap == "":
        return
    try:
        value = int(cap)
    except ValueError:
        raise CliError(f"NLSPHERE_THREADS must be an integer, got {cap!r}")
    if value < 1:
        raise CliError(f"NLSPHERE_THREADS must be positive, got {value}")
    for name in _THREAD_ENV_VARS:
        os.environ.setdefault(name, str(value))


def _parse_ic(spec_string):
    """Split an --ic value into ('cos10xy' | 'equilibrium' | 'random', cap, scale)."""
    if spec_string in ("cos10xy", "equilibrium"):
        return spec_string, None, None
    if spec_string.startswith("random:"):
        parts = spec_string.split(":")
        if len(parts) != 3:
            raise CliError(f"--ic random takes the form random:<cap>:<scale>, got {spec_string!r}")
        try:
            cap = int(parts[1])
            scale = float(parts[2])
        except ValueError:
            raise CliError(f"could not parse --ic value {spec_string!r}")
        if cap < 0:
            raise CliError(f"random cap must be non-negative, got {cap}")
        return "random", cap, scale
    raise CliError(
        f"unknown --ic value {spec_string!r}; expected cos10xy, equilibrium, "
        "or random:<cap>:<scale>"
    )


def run(args):
    """Execute one parsed command line (see `build_parser`); returns the
    list of files written.  Inputs are all checked before any output."""
    _apply_thread_cap()
    # deferred so the thread cap above precedes the first numpy import
    import numpy as np

    from . import models as M
    from .spectrum import KernelParams, write_spectrum
    from .sht import (
        SphereGrid,
        analysis,
        read_coeffs,
        synthesis,
        write_coeffs,
        write_grid_values,
    )
    from .timestep import evolve, pseudospectral

    n = args.degree
    kernel = None if args.local else KernelParams(args.alpha, args.delta)
    if args.command == "poisson" and args.rhs != "death-star":
        rhs = read_coeffs(args.rhs)
        if len(rhs) != n + 1:
            raise CliError(f"RHS file degree {len(rhs) - 1} does not match --degree {n}")
    elif args.command == "evolve":
        for flag, value in (("cesaro-kappa", args.cesaro_kappa),
                            ("snapshot-stride", args.snapshot_stride)):
            if value < 0:
                raise CliError(f"{flag} must be non-negative, got {value}")
        h = args.dt
        for flag, value in (("--dt", h), ("--t-final", args.t_final)):
            if not (math.isfinite(value) and value > 0):
                raise CliError(f"evolve requires a positive {flag}, got {value!r}")
        if not math.isfinite(args.t_final / h):
            raise CliError(
                f"--t-final {args.t_final!r} / --dt {h!r} overflows the step count"
            )
        steps = max(round(args.t_final / h), 1)
        kind, cap, scale = _parse_ic(args.ic)
        if args.model == "allen-cahn":
            cfg = M.AllenCahnConfig(
                epsilon=args.epsilon, kernel=kernel, degree=n, h=h, steps=steps
            )
            if kind == "equilibrium":
                raise CliError("--ic equilibrium applies only to the brusselator model")
            tags = ("u",)
            state = None  # cos10xy is sampled on the grid the compute phase builds
            if kind == "random":
                state = [M.random_coeffs(cap, n, scale, args.seed)]
        else:
            cfg = M.BrusselatorConfig(
                E=args.E, epsilon=args.epsilon, tau=args.tau, f=args.f,
                kernel=kernel, degree=n, h=h, steps=steps,
            )
            if kind == "cos10xy":
                raise CliError(
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
    spec = M.build_spectrum(n, kernel)

    os.makedirs(args.output_dir, exist_ok=True)
    out = lambda name: os.path.join(args.output_dir, name)
    written = []

    if args.command == "spectrum":
        kernel_desc = (
            "local" if args.local
            else f"alpha={args.alpha:.17g} delta={args.delta:.17g}"
        )
        write_spectrum(spec, out("spectrum.csv"), comment=f"{kernel_desc} degree={n}")
        written.append(out("spectrum.csv"))
        return written

    grid = SphereGrid(n)

    if args.command == "poisson":
        if args.rhs == "death-star":
            rhs = analysis(M.death_star_rhs(grid), grid)
        solution = M.solve_poisson(rhs, spec)
        write_coeffs(solution, out("solution_coeffs.csv"))
        write_grid_values(synthesis(solution, grid), grid, out("solution_grid.csv"))
        written += [out("solution_coeffs.csv"), out("solution_grid.csv")]
        return written

    # evolve
    observers = []
    if args.model == "allen-cahn":
        if state is None:
            state = [analysis(M.cos10xy(grid), grid)]
        operators = [M.allen_cahn_operator(cfg, spec)]
        nonlinearity = pseudospectral(M.allen_cahn_nonlinearity, grid)
        recorder = M.EnergyRecorder(spec, cfg.epsilon)
        observers.append(recorder)
    else:
        operators = M.brusselator_operators(cfg, spec)
        nonlinearity = pseudospectral(
            lambda u, v: M.brusselator_nonlinearities(u, v, cfg), grid
        )

    def snapshot_observer(step, t, state):
        if step % args.snapshot_stride:
            return
        for tag, coeffs in zip(tags, state):
            if args.cesaro_kappa >= 1:
                coeffs = M.cesaro_apply(coeffs, args.cesaro_kappa)
            path = out(f"snapshot_{tag}_{step:06d}.csv")
            write_coeffs(coeffs, path, comment=f"t={t:.17g}")
            written.append(path)

    if args.snapshot_stride >= 1:
        observers.append(snapshot_observer)
    final = evolve(state, operators, nonlinearity, h, steps, observers=observers)
    if args.model == "allen-cahn":
        recorder.write(out("energy.csv"))
        written.append(out("energy.csv"))

    for tag, coeffs in zip(tags, final):
        cpath, gpath = out(f"final_{tag}_coeffs.csv"), out(f"final_{tag}_grid.csv")
        write_coeffs(coeffs, cpath, comment=f"t={steps * h:.17g}")
        write_grid_values(synthesis(coeffs, grid), grid, gpath)
        written += [cpath, gpath]
    return written


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
        _apply_thread_cap()
        run(build_parser().parse_args(argv))
    except (CliError, ValueError, OSError) as err:
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
