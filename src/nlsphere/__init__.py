"""Spectral solver for nonlocal diffusion equations on the unit sphere.

The package computes eigenvalues of a nonlocal Laplace--Beltrami operator
whose kernel is a truncated power of the chordal distance, and uses them to
solve Poisson problems and to integrate stiff reaction--diffusion systems
(Allen--Cahn, Brusselator) with a fourth-order exponential integrator.

Submodules
----------
specfun    Legendre recurrences shared by everything else.
quadrature Modified Clenshaw--Curtis and Gauss--Legendre rules.
spectrum   Operator eigenvalues: one spectrum pass through degree n.
sht        Spherical harmonic analysis/synthesis on Gauss--Legendre grids.
timestep   ETDRK4 exponential time stepping for diagonal stiff systems.
models     Poisson, Allen--Cahn, Brusselator, energy, Cesaro smoothing.
cli        ``nlsphere`` command line front end.

Every public name and parameter is on a path that the command line or the
README's library usage runs; the tests keep their own reference oracles.

Imports here are lazy (PEP 562) so that the command line front end can cap
BLAS/OpenMP thread counts via the ``NLSPHERE_THREADS`` environment variable
before numpy is first loaded.
"""

from __future__ import annotations

__version__ = "0.1.0"

_EXPORTS = {
    # spectrum (the batch constructor shares the submodule's name; reach it
    # as nlsphere.spectrum.spectrum to avoid shadowing the module attribute)
    "KernelParams": "spectrum",
    "eigenvalue": "spectrum",
    "local_spectrum": "spectrum",
    # quadrature
    "GLRule": "quadrature",
    "cc_weights": "quadrature",
    "gauss_legendre": "quadrature",
    "jacobi_moments": "quadrature",
    # sht
    "SphereGrid": "sht",
    "analysis": "sht",
    "synthesis": "sht",
    "slot": "sht",
    # timestep
    "ETDRK4Tables": "timestep",
    "BlowUpError": "timestep",
    "StabilityWarning": "timestep",
    "etdrk4_tables": "timestep",
    "etdrk4_step": "timestep",
    "evolve": "timestep",
    "pseudospectral": "timestep",
    # models
    "AllenCahnConfig": "models",
    "BrusselatorConfig": "models",
    "EnergyRecorder": "models",
    "build_spectrum": "models",
    "solve_poisson": "models",
    "ginzburg_landau_energy": "models",
    "allen_cahn_nonlinearity": "models",
    "allen_cahn_operator": "models",
    "brusselator_nonlinearity": "models",
    "brusselator_operators": "models",
    "cesaro_apply": "models",
    "cesaro_weights": "models",
    "random_coeffs": "models",
    "death_star_rhs": "models",
    "cos10xy": "models",
    "embed": "models",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    try:
        modname = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{modname}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
