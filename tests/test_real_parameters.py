"""Every real parameter the package takes, through its one rule.

Each row names a parameter as its refusal message does, its open interval
(delta's upper end is the one closed end) and how a value reaches it.  A
bool, a string, NaN, +-inf, an int past the float range and the open ends
are refused with
``<name> must be a finite number in (<low>, <high>), got <value!r>``; numpy
scalars inside the interval give what their Python float gives, so a
stored value is a Python float.
"""

import math
import re

import numpy as np
import pytest

from nlsphere import models as M
from nlsphere.cli import build_parser, run
from nlsphere.quadrature import jacobi_moments
from nlsphere.spectrum import KernelParams, local_spectrum
from nlsphere.timestep import etdrk4_tables, evolve

INF = math.inf


class Reached(Exception):
    """The command line passed its input phase."""


def brusselator(**over):
    return M.BrusselatorConfig(**(dict(E=4.0, epsilon=0.1, tau=7.8125, f=0.8) | over))


def evolve_times(h):
    times = []
    evolve(np.zeros((1, 2, 3)), [np.array([0.0, -1.0])], lambda s: np.zeros_like(s), h, 2,
           observers=[lambda k, t, s: times.append(t)])
    return times


def command_line(flag, value):
    """``run`` with one flag's parsed value replaced, up to its spectrum."""
    args = build_parser().parse_args(["evolve", "--model", "allen-cahn", "--degree", "2",
                                      "--dt", "0.5", "--t-final", "1"])
    setattr(args, flag, value)
    try:
        run(args)
    except Reached:
        return "reached"
    raise AssertionError("run went past its input phase")


#: (name, low, high, closed, use, two values inside the interval)
REAL_PARAMETERS = {
    "KernelParams.alpha": ("alpha", -1, 1, False, lambda v: KernelParams(v, 1.0).alpha,
                           (np.float64(0.5), np.int64(0))),
    "KernelParams.delta": ("delta", 0, 2, True, lambda v: KernelParams(0.0, v).delta,
                           (np.float64(0.5), np.int64(2))),
    "AllenCahnConfig.epsilon": ("epsilon", 0, INF, False,
                                lambda v: M.AllenCahnConfig(v).epsilon,
                                (np.float64(0.5), np.int64(1))),
    "BrusselatorConfig.E": ("E", 0, INF, False, lambda v: brusselator(E=v).E,
                            (np.float64(0.5), np.int64(4))),
    "BrusselatorConfig.epsilon": ("epsilon", 0, INF, False,
                                  lambda v: brusselator(epsilon=v).epsilon,
                                  (np.float64(0.5), np.int64(1))),
    "BrusselatorConfig.tau": ("tau", 0, INF, False, lambda v: brusselator(tau=v).tau,
                              (np.float64(0.5), np.int64(8))),
    # no integer lies in (0, 1); np.float32 was stored unconverted
    "BrusselatorConfig.f": ("f", 0, 1, False, lambda v: brusselator(f=v).f,
                            (np.float64(0.5), np.float32(0.25))),
    "ginzburg_landau_energy.epsilon": (
        "epsilon", 0, INF, False,
        lambda v: M.ginzburg_landau_energy(M.random_coeffs(2, 2, 0.5, 1), local_spectrum(2), v),
        (np.float64(0.5), np.int64(1))),
    "EnergyRecorder.epsilon": ("epsilon", 0, INF, False,
                               lambda v: M.EnergyRecorder(local_spectrum(2), v).epsilon,
                               (np.float64(0.5), np.int64(1))),
    "random_coeffs.scale": ("scale", -INF, INF, False, lambda v: M.random_coeffs(1, 2, v, 0),
                            (np.float64(-0.5), np.int64(2))),
    "jacobi_moments.alpha": ("alpha", -1, INF, False, lambda v: jacobi_moments(v, 4),
                             (np.float64(-0.5), np.int64(2))),
    "etdrk4_tables.h": ("step size", 0, INF, False,
                        lambda v: etdrk4_tables([np.array([0.0, -1.0])], v).f1,
                        (np.float64(0.5), np.int64(1))),
    "evolve.h": ("step size", 0, INF, False, evolve_times, (np.float64(0.5), np.int64(1))),
    "--dt": ("--dt", 0, INF, False, lambda v: command_line("dt", v),
             (np.float64(0.5), np.int64(1))),
    "--t-final": ("--t-final", 0, INF, False, lambda v: command_line("t_final", v),
                  (np.float64(0.5), np.int64(1))),
}


@pytest.fixture
def spectrum_stops(monkeypatch):
    def build_spectrum(*_):
        raise Reached

    monkeypatch.setattr(M, "build_spectrum", build_spectrum)


@pytest.mark.parametrize("where", REAL_PARAMETERS)
def test_real_parameter_refuses_what_is_not_in_its_interval(where, spectrum_stops):
    name, low, high, closed, use, _ = REAL_PARAMETERS[where]
    # 10**400 is an int past the float range: float() cannot convert it
    bad = [True, "0.5", math.nan, INF, -INF, 10**400, low] + ([] if closed else [high])
    for value in bad:
        message = (f"{name} must be a finite number in ({low}, {high}{']' if closed else ')'}, "
                   f"got {value!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            use(value)


@pytest.mark.parametrize("where", REAL_PARAMETERS)
def test_real_parameter_takes_numpy_scalars_as_python_floats(where, spectrum_stops):
    name, low, high, closed, use, inside = REAL_PARAMETERS[where]
    if closed:
        assert use(high) == high  # the closed end is inside
    for value in inside:
        got, want = use(value), use(float(value))
        assert type(got) is type(want)
        np.testing.assert_array_equal(got, want, strict=True)
        if isinstance(want, list):  # evolve's observer times
            assert [type(t) for t in got] == [type(t) for t in want] == [float] * 3
