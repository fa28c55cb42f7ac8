"""Every array argument the package takes, through its one rule.

Each row names an argument as its refusal message does, the shape it must
have (None is a free length, and "or" joins the shapes a transform takes
for one field and for a stack), the shape asked of what does not convert
at all (a coefficient array's degree comes from its row count, so before
conversion it is (None, None)), a call, a valid value and one of a wrong
shape.  A wrong shape, a ragged list, a string and None are refused with
``<name> must be a real array of shape <shape>, got <what was given>``; a
float64 ndarray is used as it is, never copied; and a list, float32 and
int64 give what float64 gives, bit for bit.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from nlsphere import models as M
from nlsphere import sht, specfun, spectrum, timestep
from nlsphere.sht import SphereGrid, analysis, synthesis, write_coeffs, write_grid_values
from nlsphere.specfun import assoc_legendre_table
from nlsphere.spectrum import write_spectrum
from nlsphere.timestep import etdrk4_step, etdrk4_tables, evolve, pseudospectral

GRID = SphereGrid(2)

#: integer values, so that float32 and int64 hold them exactly
COEFFS = np.array([[1.0, 0, 0, 0, 0], [-1, 2, 1, 0, 0], [1, -1, 0, 1, -2]])
VALUES = np.array([[1.0, 0, -1, 2, 0], [0, 1, 1, -1, 3], [2, 0, 0, 1, -1]])
SPEC = np.array([0.0, -2.0, -6.0])  # local_spectrum(2)
STATE = COEFFS[None]
TABLES = etdrk4_tables([SPEC], 0.1)
CFG = M.AllenCahnConfig(0.5)


def halve(state):
    return 0.5 * state


def written(write):
    """A call that writes ``value`` to a file and returns its bytes."""
    def call(value):
        write(value, "out.csv")
        return Path("out.csv").read_bytes()
    return call


#: (name, shape, shape before conversion, call, valid value, wrong shape)
ARRAY_PARAMETERS = {
    "synthesis": ("coeffs", "(3, 5) or (None, 3, 5)", None,
                  lambda c: synthesis(c, GRID), COEFFS, np.zeros((3, 4))),
    "synthesis.stack": ("coeffs", "(3, 5) or (None, 3, 5)", None,
                        lambda c: synthesis(c, GRID), np.stack([COEFFS, -COEFFS]),
                        np.zeros((2, 3, 4))),
    "analysis": ("values", "(3, 5) or (None, 3, 5)", None,
                 lambda v: analysis(v, GRID), VALUES, np.zeros((4, 5))),
    "write_coeffs": ("coeffs", "(3, 5)", "(None, None)", written(write_coeffs), COEFFS,
                     np.zeros((3, 4))),
    "write_grid_values": ("values", "(3, 5)", None,
                          written(lambda v, path: write_grid_values(v, GRID, path)), VALUES,
                          np.zeros((3, 4))),
    "write_spectrum": ("values", "(None,)", None, written(write_spectrum), SPEC,
                       np.zeros((3, 1))),
    "embed": ("coeffs", "(3, 5)", "(None, None)", lambda c: M.embed(c, 4), COEFFS,
              np.zeros((3, 3))),
    "cesaro_apply": ("coeffs", "(3, 5)", "(None, None)", lambda c: M.cesaro_apply(c, 2),
                     COEFFS, np.zeros((3, 6))),
    "solve_poisson.rhs": ("rhs", "(3, 5)", "(None, None)",
                          lambda c: M.solve_poisson(c, SPEC), COEFFS, np.zeros((3, 4))),
    "solve_poisson.spectrum": ("spectrum", "(3,)", None,
                               lambda s: M.solve_poisson(COEFFS, s), SPEC, np.zeros(4)),
    "ginzburg_landau_energy.u": ("u", "(3, 5)", "(None, None)",
                                 lambda u: M.ginzburg_landau_energy(u, SPEC, 0.5), COEFFS,
                                 np.zeros((3, 4))),
    "ginzburg_landau_energy.spec": ("spec", "(3,)", None,
                                    lambda s: M.ginzburg_landau_energy(COEFFS, s, 0.5), SPEC,
                                    np.zeros(2)),
    "allen_cahn_operator": ("spec", "(None,)", None, lambda s: M.allen_cahn_operator(CFG, s),
                            SPEC, np.zeros((1, 3))),
    "brusselator_operators": ("spec", "(None,)", None,
                              lambda s: M.brusselator_operators(
                                  M.BrusselatorConfig(4.0, 0.5, 2.0, 0.5), s),
                              SPEC, np.float64(0.0)),
    "etdrk4_tables": ("operators", "(None, None)", None,
                      lambda ops: etdrk4_tables(ops, 0.1).f1,
                      SPEC[None], SPEC),
    "evolve.initial": ("initial", "(1, 3, 5)", None,
                       lambda s: evolve(s, [SPEC], halve, 0.1, 2), STATE, COEFFS),
    "evolve.operators": ("operators", "(None, None)", None,
                         lambda ops: evolve(STATE, ops, halve, 0.1, 2), SPEC[None],
                         np.zeros((1, 1, 3))),
    "etdrk4_step.state": ("state", "(1, 3, 5)", None, lambda s: etdrk4_step(s, TABLES, halve),
                          STATE, np.zeros((2, 3, 5))),
    "etdrk4_step.scratch": ("scratch", "(1, 3, 5)", None,
                            lambda x: etdrk4_step(STATE, TABLES, halve, scratch=x),
                            np.zeros((1, 3, 5)), np.zeros((3, 5))),
    "etdrk4_step.nonlinearity": ("nonlinearity output", "(1, 3, 5)", None,
                                 lambda out: etdrk4_step(STATE, TABLES, lambda s: out),
                                 STATE, np.zeros((2, 3, 5))),
    "pseudospectral.output": ("pointwise output 1", "(3, 5)", None,
                              lambda v: pseudospectral(lambda u: v, GRID)(STATE), VALUES,
                              np.zeros((3, 4))),
    "assoc_legendre_table.t": ("t", "() or (None,)", None,
                               lambda t: assoc_legendre_table(np.arange(3), 2, t),
                               np.array([-1.0, 0.0, 1.0]), np.zeros((2, 2))),
}

#: what does not convert, and how the refusal shows it
UNCONVERTIBLE = [([[0.0], [0.0, 0.0]], "[[0.0], [0.0, 0.0]]"), ("abc", "'abc'"), (None, "None")]

#: arguments whose default None asks the function to allocate the array
NONE_IS_DEFAULT = {"etdrk4_step.scratch"}


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("where", ARRAY_PARAMETERS)
def test_array_parameter_refuses_a_wrong_shape_and_what_does_not_convert(where, in_tmp):
    name, shape, before, use, _, wrong = ARRAY_PARAMETERS[where]
    cases = [(wrong, shape, f"shape {np.shape(wrong)}")]
    cases += [(value, before or shape, given) for value, given in UNCONVERTIBLE
              if not (value is None and where in NONE_IS_DEFAULT)]
    for value, want, given in cases:
        message = f"{name} must be a real array of shape {want}, got {given}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            use(value)


@pytest.mark.parametrize("where", ARRAY_PARAMETERS)
def test_array_parameter_reaches_the_one_check_uncopied(where, in_tmp, monkeypatch):
    name, _, _, use, good, _ = ARRAY_PARAMETERS[where]
    good = np.array(good)  # etdrk4_step writes into its scratch
    check = getattr(specfun, "_check_array", None)
    seen = []

    def spy(value, shape, name):
        array = check(value, shape, name)
        seen.append((name, value is good, array is value))
        return array

    for module in (sht, specfun, spectrum, M, timestep):
        monkeypatch.setattr(module, "_check_array", spy, raising=False)
    use(good)
    assert (name, True, True) in seen


@pytest.mark.parametrize("convert", [np.ndarray.tolist, lambda a: a.astype(np.float32),
                                     lambda a: a.astype(np.int64)],
                         ids=["list", "float32", "int64"])
@pytest.mark.parametrize("where", ARRAY_PARAMETERS)
def test_array_parameter_gives_what_float64_gives(where, convert, in_tmp):
    _, _, _, use, good, _ = ARRAY_PARAMETERS[where]
    good = np.array(good)  # etdrk4_step writes into its scratch
    value = convert(good)
    assert np.array_equal(value, good)  # the data converts exactly
    got, want = use(value), use(good)
    assert type(got) is type(want)
    for g, w in zip(got, want) if isinstance(want, tuple) else [(got, want)]:
        if isinstance(w, bytes):
            assert g == w
        else:
            np.testing.assert_array_equal(g, w, strict=True)


def test_one_rule_refuses_bools_complex_and_objects_and_keeps_views():
    from nlsphere.specfun import _check_array

    for value, given in [(np.array([True, False]), "array([ True, False])"),
                         (np.array([1j, 2.0]), "array([0.+1.j, 2.+0.j])"),
                         ([1.0, None], "[1.0, None]"),
                         ([2**70], "[1180591620717411303424]")]:
        with pytest.raises(ValueError, match=re.escape(
                f"a must be a real array of shape (2,), got {given}")):
            _check_array(value, (2,), "a")
    # strided and read-only float64 views are used as they are
    base = np.zeros((4, 6))
    for view in (base[::2, 1::2], np.broadcast_to(base, base.shape), base.T):
        assert _check_array(view, (None, None), "a") is view
