"""Command-line interface: spectrum tables, Poisson solves, evolutions.

Heavy numerical imports happen inside `run`, after the optional
NLSPHERE_THREADS cap has been exported to the BLAS thread-count
environment variables; importing this module alone stays cheap.

All outputs are UTF-8 CSV files with `#`-prefixed header lines, written
deterministically: re-running a command with identical flags (including
the seed) produces byte-identical files.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_COMMANDS = ("spectrum", "poisson", "evolve")
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


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, re-validated independently of the parser."""

    command: str
    model: str | None = None
    alpha: float = -0.5
    delta: float = 1.0
    epsilon: float = 0.1
    E: float = 4.0
    tau: float = 7.8125
    f: float = 0.8
    degree: int = 0
    dt: float | None = None
    t_final: float | None = None
    cesaro_kappa: int = 0
    seed: int = 0
    output_dir: str = "."
    snapshot_stride: int = 0
    rhs: str = "death-star"
    ic: str = "cos10xy"
    local: bool = False

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise CliError(f"unknown command {self.command!r}")
        if not self.local:
            if not (-1.0 < self.alpha < 1.0):
                raise CliError(f"alpha must lie in (-1, 1), got {self.alpha}")
            if not (0.0 < self.delta <= 2.0):
                raise CliError(f"delta must lie in (0, 2], got {self.delta}")
        if not (isinstance(self.degree, int) and self.degree >= 0):
            raise CliError(f"degree must be a non-negative integer, got {self.degree!r}")
        if self.cesaro_kappa < 0:
            raise CliError(f"cesaro-kappa must be non-negative, got {self.cesaro_kappa}")
        if self.snapshot_stride < 0:
            raise CliError(f"snapshot-stride must be non-negative, got {self.snapshot_stride}")
        if self.command == "evolve":
            if self.model not in _MODELS:
                raise CliError(f"evolve requires --model from {_MODELS}, got {self.model!r}")
            if self.dt is None or not (math.isfinite(self.dt) and self.dt > 0):
                raise CliError(f"evolve requires a positive --dt, got {self.dt!r}")
            if self.t_final is None or not (
                math.isfinite(self.t_final) and self.t_final > 0
            ):
                raise CliError(f"evolve requires a positive --t-final, got {self.t_final!r}")
            if not math.isfinite(self.t_final / self.dt):
                raise CliError(
                    f"--t-final {self.t_final!r} / --dt {self.dt!r} overflows the step count"
                )
            if not (math.isfinite(self.epsilon) and self.epsilon > 0):
                raise CliError(f"epsilon must be positive, got {self.epsilon}")
            if self.model == "brusselator":
                if not (0.0 < self.f < 1.0):
                    raise CliError(f"f must lie in (0, 1), got {self.f}")
                for name in ("E", "tau"):
                    v = getattr(self, name)
                    if not (math.isfinite(v) and v > 0):
                        raise CliError(f"{name} must be positive, got {v}")

    def steps(self):
        count = round(self.t_final / self.dt)
        return max(count, 1)


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


def run(config):
    """Execute one command; returns the list of files written."""
    _apply_thread_cap()
    # deferred so the thread cap above precedes the first numpy import
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

    kernel = None if config.local else KernelParams(config.alpha, config.delta)

    os.makedirs(config.output_dir, exist_ok=True)
    out = lambda name: os.path.join(config.output_dir, name)
    written = []

    spec = M.build_spectrum(config.degree, kernel)

    if config.command == "spectrum":
        kernel_desc = (
            "local" if config.local
            else f"alpha={config.alpha:.17g} delta={config.delta:.17g}"
        )
        write_spectrum(
            spec, out("spectrum.csv"),
            comment=f"{kernel_desc} degree={config.degree}",
        )
        written.append(out("spectrum.csv"))
        return written

    grid = SphereGrid(config.degree)

    if config.command == "poisson":
        if config.rhs == "death-star":
            rhs = analysis(M.death_star_rhs(grid), grid)
        else:
            rhs = read_coeffs(config.rhs)
            if rhs.degree != config.degree:
                raise CliError(
                    f"RHS file degree {rhs.degree} does not match --degree {config.degree}"
                )
        solution = M.solve_poisson(M.PoissonProblem(rhs, spec))
        write_coeffs(solution, out("solution_coeffs.csv"))
        write_grid_values(synthesis(solution, grid), grid, out("solution_grid.csv"))
        written += [out("solution_coeffs.csv"), out("solution_grid.csv")]
        return written

    # evolve
    n = config.degree
    h = config.dt
    steps = config.steps()
    kind, cap, scale = _parse_ic(config.ic)
    observers = []

    if config.model == "allen-cahn":
        cfg = M.AllenCahnConfig(
            epsilon=config.epsilon, kernel=kernel, degree=n, h=h, steps=steps
        )
        if kind == "cos10xy":
            u0 = analysis(M.cos10xy(grid), grid)
        elif kind == "random":
            u0 = M.random_coeffs(cap, n, scale, config.seed)
        else:
            raise CliError("--ic equilibrium applies only to the brusselator model")
        tags = ("u",)
        state = [u0.data]
        operators = [M.allen_cahn_operator(cfg, spec)]
        nonlinearity = pseudospectral(M.allen_cahn_nonlinearity, grid)
        recorder = M.EnergyRecorder(spec, cfg.epsilon)
        observers.append(recorder)
    else:
        cfg = M.BrusselatorConfig(
            E=config.E, epsilon=config.epsilon, tau=config.tau, f=config.f,
            kernel=kernel, degree=n, h=h, steps=steps,
        )
        u_e, v_e = cfg.equilibrium()
        u0 = M.SphHarmCoeffs(n)
        v0 = M.SphHarmCoeffs(n)
        u0.set(0, 0, u_e * math.sqrt(4.0 * math.pi))
        v0.set(0, 0, v_e * math.sqrt(4.0 * math.pi))
        if kind == "random":
            # perturb both species; successive seeds keep the streams independent
            du = M.random_coeffs(cap, n, scale, config.seed)
            dv = M.random_coeffs(cap, n, scale, config.seed + 1)
            u0 = M.SphHarmCoeffs(n, u0.data + du.data)
            v0 = M.SphHarmCoeffs(n, v0.data + dv.data)
        elif kind != "equilibrium":
            raise CliError(
                "--ic for the brusselator model must be equilibrium or random:<cap>:<scale>"
            )
        tags = ("u", "v")
        state = [u0.data, v0.data]
        operators = M.brusselator_operators(cfg, spec)
        nonlinearity = pseudospectral(
            lambda u, v: M.brusselator_nonlinearities(u, v, cfg), grid
        )

    def snapshot_observer(step, t, state):
        if step % config.snapshot_stride:
            return
        for tag, data in zip(tags, state):
            c = M.SphHarmCoeffs(n, data)
            if config.cesaro_kappa >= 1:
                c = M.cesaro_apply(c, config.cesaro_kappa)
            path = out(f"snapshot_{tag}_{step:06d}.csv")
            write_coeffs(c, path, comment=f"t={t:.17g}")
            written.append(path)

    if config.snapshot_stride >= 1:
        observers.append(snapshot_observer)
    final = evolve(state, operators, nonlinearity, h, steps, observers=observers)
    if config.model == "allen-cahn":
        recorder.write(out("energy.csv"))
        written.append(out("energy.csv"))

    for tag, data in zip(tags, final):
        cpath, gpath = out(f"final_{tag}_coeffs.csv"), out(f"final_{tag}_grid.csv")
        write_coeffs(M.SphHarmCoeffs(n, data), cpath, comment=f"t={steps * h:.17g}")
        write_grid_values(synthesis(data, grid), grid, gpath)
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
        namespace = build_parser().parse_args(argv)
        config = RunConfig(**vars(namespace))
        run(config)
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
