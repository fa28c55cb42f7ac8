"""Tests for the ETDRK4 integrator.

The scalar nonlinear test equation u' = -2u + u^2 is of Bernoulli type:
w = 1/u satisfies w' = 2w - 1, so u(t) = 1 / ((1/u0 - 1/2) e^{2t} + 1/2)
provides an exact reference for both the one-step and the convergence
tests.  The one-step example is additionally checked against a classical
RK4 integration at h = 1e-5, an oracle independent of both the scheme
being tested and the closed form.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from nlsphere.sht import SphereGrid, _per_degree, analysis, slot, synthesis
from nlsphere.spectrum import KernelParams, local_spectrum, spectrum
from nlsphere.timestep import (
    BlowUpError,
    ETDRK4Tables,
    StabilityWarning,
    _phi_direct,
    _phi_taylor,
    _Z_STAR,
    etdrk4_step,
    etdrk4_tables,
    evolve,
    pseudospectral,
)


def scalar_state(value):
    """(1, 1) coefficients of the degree-0 field with u_0^0 = value."""
    return np.full((1, 1), float(value))


def zeros(n):
    return np.zeros((n + 1, 2 * n + 1))


def stacked(*fields):
    """(k, n+1, 2n+1) integrator state of k coefficient arrays."""
    return np.stack(fields)


def zero(state):
    return np.zeros_like(state)


def exact_bernoulli(u0, t):
    return 1.0 / ((1.0 / u0 - 0.5) * math.exp(2.0 * t) + 0.5)


# ----------------------------------------------------------------------
# coefficient tables
# ----------------------------------------------------------------------

def test_tables_zero_entry_limits():
    op = np.array([0.0])
    for h in (1.0, 0.1, 0.00390625):
        t = etdrk4_tables([op], h)
        assert t.exp_full[0, 0] == 1.0
        assert t.exp_half[0, 0] == 1.0
        assert t.stage[0, 0] == 0.5 * h
        for f in (t.f1, t.f2, t.f3):
            assert f[0, 0] == pytest.approx(h / 6.0, rel=2e-16)
        assert t.f1[0, 0] + 4.0 * t.f2[0, 0] + t.f3[0, 0] == pytest.approx(
            h, rel=1e-15
        )


def test_f1_at_minus_one_closed_form():
    # f1(z=-1, h=1) = -(-4 + 1 + 8/e) / (-1) ... = 3 - 8/e
    op = np.array([-1.0])
    t = etdrk4_tables([op], 1.0)
    assert t.f1[0, 0] == pytest.approx(3.0 - 8.0 / math.e, rel=1e-14)


def test_taylor_direct_seam_agreement():
    # both evaluation paths must agree in a band around the switch point
    z = np.concatenate([
        np.linspace(-2.0 * _Z_STAR, -0.5 * _Z_STAR, 400),
        np.linspace(0.5 * _Z_STAR, 2.0 * _Z_STAR, 400),
    ])
    for tay, dir_ in zip(_phi_taylor(z), _phi_direct(z)):
        assert np.max(np.abs(tay - dir_) / np.abs(dir_)) < 1e-12


def test_tables_positive_eigenvalue_warns():
    with pytest.warns(StabilityWarning):
        etdrk4_tables([np.array([0.0, 2.0])], 0.1)
    # a negative factor times negative eigenvalues is also growth
    with pytest.warns(StabilityWarning):
        etdrk4_tables([-1.0 * np.array([0.0, -2.0])], 0.1)


def test_tables_validation():
    op = np.array([0.0, -2.0])
    with pytest.raises(ValueError):
        etdrk4_tables([op], 0.0)
    with pytest.raises(ValueError):
        etdrk4_tables([op], -1.0)
    # operators must stack to a (k, n+1) real array
    for bad, given in (
        (np.array([1.0]), "shape (1,)"),        # one bare array, not a sequence of them
        ([np.zeros((2, 2))], "shape (1, 2, 2)"),  # a 2-d operator
        ([], "shape (0,)"),                     # no operator
        ([op, np.zeros(3)], "[array([ 0., -2.]), array([0., 0., 0.])]"),  # two degrees
        ([op, "ab"], "[array([ 0., -2.]), 'ab']"),  # not numbers
        (None, "None"),
    ):
        with pytest.raises(ValueError, match=re.escape(
                f"operators must be a real array of shape (None, None), got {given}")):
            etdrk4_tables(bad, 0.1)
    # a (k, n+1) array with no field or no degree
    for bad in ([np.zeros(0)], np.zeros((0, 2))):
        with pytest.raises(ValueError, match=re.escape(
                f"operators must not be empty, got shape {np.shape(bad)}")):
            etdrk4_tables(bad, 0.1)
    # a (k, n+1) array is k operators
    tables = etdrk4_tables(np.array([op, 0.5 * op]), 0.1)
    assert tables.exp_full.shape == (2, 2, 3)


@pytest.mark.parametrize("values,h", [
    ([0.0, np.nan], 0.1),
    ([0.0, -np.inf], 0.1),
    ([0.0, -1e308], 10.0),   # finite lambda, but h * lambda overflows
])
def test_tables_refuse_non_finite_h_lambda(values, h):
    # these used to build NaN tables, or warn from h * lambda, and evolve
    # then blamed the time step after step 1
    ops = [np.array([0.0, -2.0]), np.array(values)]
    with pytest.raises(ValueError, match="operator 1 at degree 1: h \\* lambda is not finite"):
        etdrk4_tables(ops, h)
    with pytest.raises(ValueError, match="operator 1 at degree 1"):
        evolve(np.zeros((2, 2, 3)), ops, zero, h, 1)


def test_operator_dense_layout():
    op = 0.5 * np.array([0.0, -2.0, -6.0])
    dense = _per_degree(op, 0.0)
    assert dense.shape == (3, 5)
    assert dense[0, 0] == 0.0
    assert dense[1, 0] == -1.0      # ell=1 scaled by 0.5
    assert dense[2, 0] == -3.0
    assert dense[0, 1] == -1.0      # (ell=1, m=-1) slot
    assert dense[0, 3] == -3.0      # (ell=2, m=-2) slot
    assert dense[1, 3] == 0.0       # structural zero (needs ell=3)
    assert etdrk4_tables([op], 1.0).exp_full.shape == (1, 3, 5)
    np.testing.assert_array_equal(etdrk4_tables([op], 1.0).exp_full[0], np.exp(dense))


def _tables_per_slot(operators, h):
    """(exp_full, exp_half, stage, f1, f2, f3) with every (k, n+1, 2n+1)
    slot evaluated on its own, structural zeros at z = 0."""
    z = _per_degree(h * np.asarray(operators, dtype=float), 0.0)
    small = np.abs(z) < _Z_STAR
    parts = [np.empty_like(z) for _ in range(4)]
    for mask, phi in ((small, _phi_taylor), (~small, _phi_direct)):
        if mask.any():
            for dst, src in zip(parts, phi(z[mask])):
                dst[mask] = src
    return (np.exp(z), np.exp(0.5 * z), *(h * p for p in parts))


@pytest.mark.parametrize("n", [31, 127, 255])
def test_tables_match_per_slot_evaluation(n):
    # the tables come from one evaluation per degree, broadcast over the
    # layout; they equal the per-slot evaluation bit for bit on the
    # benchmark's Allen-Cahn and Brusselator operators and the local one.
    # The decay moved into the linear part makes z nonzero at degree 0, so
    # the structural zeros must not borrow degree 0's values
    ac = KernelParams(-0.5, 1.0)
    br = spectrum(n, KernelParams(0.0, 1.0))
    cases = [
        ([0.1**2 * spectrum(n, ac)], 0.01),
        ([0.075**2 * br, (1.0 / 7.8125) * br], 0.1),
        ([0.075**2 * br - 1.0, (1.0 / 7.8125) * br], 0.1),
        ([local_spectrum(n)], 0.37),
    ]
    rng = np.random.default_rng(n)
    for operators, h in cases:
        tables = etdrk4_tables(operators, h)
        got = (tables.exp_full, tables.exp_half, tables.stage, tables.f1, tables.f2, tables.f3)
        for mine, ref in zip(got, _tables_per_slot(operators, h)):
            assert mine.shape == ref.shape
            assert np.array_equal(mine, ref)
            assert not mine.flags.writeable
        # the tables are self-overlapping views: a step through them equals
        # a step through contiguous copies bit for bit, with or without a
        # scratch array that holds garbage
        copies = ETDRK4Tables(*(np.array(table) for table in got))
        state = rng.standard_normal(got[0].shape)
        react = lambda s: s * s - 0.5 * s
        want = etdrk4_step(state, copies, react).view(np.uint64)
        np.testing.assert_array_equal(etdrk4_step(state, tables, react).view(np.uint64), want)
        scratch = np.full(state.shape, np.nan)
        np.testing.assert_array_equal(
            etdrk4_step(state, tables, react, scratch=scratch).view(np.uint64), want)


def test_tables_retain_per_degree_memory_only():
    # two fields at degree 383: six dense (2, 384, 767) tables hold 27 MiB,
    # views of the per-degree values about 0.15 MiB
    br = spectrum(383, KernelParams(0.0, 1.0))
    operators = [0.075**2 * br - 1.0, (1.0 / 7.8125) * br]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tables = etdrk4_tables(operators, 0.1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tables.f3.shape == (2, 384, 767)
    assert retained <= 0.5 * 2**20


# ----------------------------------------------------------------------
# single steps
# ----------------------------------------------------------------------

def test_step_linear_exactness():
    # N = 0: the step is exactly the per-mode exponential
    n = 6
    rng = np.random.default_rng(5)
    c = zeros(n)
    for ell in range(n + 1):
        for m in range(-ell, ell + 1):
            c[slot(n, ell, m)] = rng.standard_normal()
    op = local_spectrum(n)
    tables = etdrk4_tables([op], 0.37)
    (out,) = etdrk4_step(stacked(c), tables, zero)
    expected = np.exp(0.37 * _per_degree(op, 0.0)) * c
    np.testing.assert_allclose(out, expected, rtol=1e-14, atol=0)


def test_step_constant_nonlinearity_quadrature_identity():
    # L = 0 and N = const c: one step advances by exactly h*c
    h = 0.25
    op = np.array([0.0, 0.0, 0.0])
    tables = etdrk4_tables([op], h)
    const = zeros(2)
    const[slot(2, 1, 1)] = 3.0
    state = zeros(2)
    state[slot(2, 1, 1)] = 1.0
    (out,) = etdrk4_step(stacked(state), tables, lambda s: stacked(const))
    assert out[slot(2, 1, 1)] == pytest.approx(1.0 + h * 3.0, rel=1e-13)


def test_step_scalar_ode_against_fine_rk4():
    lam, h, u0 = -2.0, 1e-2, 0.1
    op = np.array([lam])
    tables = etdrk4_tables([op], h)
    square = lambda s: s * s
    (out,) = etdrk4_step(stacked(scalar_state(u0)), tables, square)
    # classical RK4 at h = 1e-5 over the same interval
    f = lambda u: lam * u + u * u
    u = u0
    hh = 1e-5
    for _ in range(1000):
        k1 = f(u)
        k2 = f(u + 0.5 * hh * k1)
        k3 = f(u + 0.5 * hh * k2)
        k4 = f(u + hh * k3)
        u += hh / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert out[0, 0] == pytest.approx(u, abs=1e-9)
    # and against the closed form
    assert out[0, 0] == pytest.approx(exact_bernoulli(u0, h), abs=1e-9)


def test_scalar_ode_fourth_order_convergence():
    lam, u0, T = -2.0, 0.1, 1.0
    op = np.array([lam])
    square = lambda s: s * s
    exact = exact_bernoulli(u0, T)
    errs = []
    hs = [0.1 * 2.0**-i for i in range(5)]
    for h in hs:
        state = scalar_state(u0)
        (state,) = evolve(stacked(state), [op], square, h, round(T / h))
        errs.append(abs(state[0, 0] - exact))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 3.8 <= slope <= 4.2


def test_step_blow_up_detection():
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", StabilityWarning)
        warnings.simplefilter("ignore", RuntimeWarning)
        tables = etdrk4_tables([np.array([1e3])], 1.0)
        square = lambda s: s * s
        with pytest.raises(BlowUpError) as err:
            etdrk4_step(stacked(scalar_state(1e200)), tables, square, step_index=17)
    assert err.value.step_index == 17
    assert "17" in str(err.value)


# ----------------------------------------------------------------------
# evolve
# ----------------------------------------------------------------------

def test_evolve_mean_mode_constant_under_diffusion():
    n = 8
    rng = np.random.default_rng(2)
    c = zeros(n)
    for ell in range(n + 1):
        c[slot(n, ell, 0)] = rng.standard_normal()
    c[slot(n, 0, 0)] = 1.2345
    op = 0.01 * local_spectrum(n)
    (out,) = evolve(stacked(c), [op], zero, h=0.1, steps=25)
    assert out[slot(n, 0, 0)] == 1.2345


def test_evolve_heat_decay_single_mode():
    n = 8
    eps = 0.3
    c = zeros(n)
    c[slot(n, 5, 2)] = 0.75
    op = eps * eps * local_spectrum(n)
    T, h = 2.0, 0.125
    (out,) = evolve(stacked(c), [op], zero, h, round(T / h))
    expected = 0.75 * math.exp(-30.0 * eps * eps * T)
    assert out[slot(n, 5, 2)] == pytest.approx(expected, rel=1e-12)
    # every other mode stays exactly zero
    out[slot(n, 5, 2)] = 0.0
    assert np.all(out == 0.0)


def test_evolve_observers_stride_and_times():
    # evolve calls every observer at every step; a stride is the observer's own
    every, strided = [], []

    def every_third(k, t, s):
        if k % 3 == 0:
            strided.append((k, t))

    op = np.array([0.0])
    evolve(stacked(scalar_state(1.0)), [op], zero, h=0.5, steps=7,
           observers=[lambda k, t, s: every.append((k, t)), every_third])
    assert every == [(k, 0.5 * k) for k in range(8)]
    assert strided == [(0, 0.0), (3, 1.5), (6, 3.0)]


def test_evolve_converts_h_once():
    # the tables check h and evolve converts it once they accept it: a string
    # or a bool fails before any observer runs, and a numpy float gives
    # observers Python-float times k * h
    seen = []
    op = np.array([0.0])
    for h in ("0.5", True):
        with pytest.raises(ValueError, match="step size"):
            evolve(stacked(scalar_state(1.0)), [op], zero, h, 3,
                   observers=[lambda k, t, s: seen.append(t)])
        assert seen == []
    evolve(stacked(scalar_state(1.0)), [op], zero, np.float64(0.5), 3,
           observers=[lambda k, t, s: seen.append(t)])
    assert seen == [0.0, 0.5, 1.0, 1.5]
    assert all(type(t) is float for t in seen)


def test_evolve_observers_see_read_only_state():
    # an observer that zeroed the state it was handed used to zero the run,
    # and at step 0 the caller's own initial array
    op = np.array([0.0, -2.0])
    initial = stacked(zeros(1))
    initial[0][slot(1, 0, 0)], initial[0][slot(1, 1, 0)] = 1.0, 0.5
    before = initial.copy()
    for at in (0, 2):
        def zeroing(k, t, s, at=at):
            if k == at:
                s[...] = 0.0

        with pytest.raises(ValueError, match="read-only"):
            evolve(initial, [op], zero, h=0.1, steps=3, observers=[zeroing])
        np.testing.assert_array_equal(initial, before)
    # the final state stays the caller's to change
    final = evolve(initial, [op], zero, h=0.1, steps=3, observers=[lambda k, t, s: None])
    final[...] = 0.0


def test_evolve_coupled_fields_tuple_path():
    n = 3
    u, v = zeros(n), zeros(n)
    u[slot(n, 2, 1)] = 1.0
    v[slot(n, 1, 0)] = 2.0
    op_u = 1.0 * local_spectrum(n)
    op_v = 0.5 * local_spectrum(n)
    T, h = 1.0, 0.1
    fu, fv = evolve(stacked(u, v), [op_u, op_v], zero, h, round(T / h))
    assert fu[slot(n, 2, 1)] == pytest.approx(math.exp(-6.0 * T), rel=1e-12)
    assert fv[slot(n, 1, 0)] == pytest.approx(2.0 * math.exp(-1.0 * T), rel=1e-12)


def test_evolve_stacked_fields_do_not_mix():
    # two operators and a decoupled nonlinearity: the k = 2 run must
    # reproduce the two k = 1 runs bit for bit
    n = 6
    grid = SphereGrid(n)
    rng = np.random.default_rng(11)
    u, v = zeros(n), zeros(n)
    for c in (u, v):
        for ell in range(n + 1):
            for m in range(-ell, ell + 1):
                c[slot(n, ell, m)] = 0.1 * rng.standard_normal()
    op_u = 0.01 * local_spectrum(n)
    op_v = 0.5 * np.linspace(0.0, -3.0, n + 1)
    react_u = lambda a: a - a * a * a
    react_v = lambda b: 0.5 * b * b
    h, steps = 0.1, 5
    both = evolve(stacked(u, v), [op_u, op_v],
                  pseudospectral(lambda a, b: (react_u(a), react_v(b)), grid), h, steps)
    alone_u = evolve(stacked(u), [op_u], pseudospectral(react_u, grid), h, steps)
    alone_v = evolve(stacked(v), [op_v], pseudospectral(react_v, grid), h, steps)
    np.testing.assert_array_equal(both[0], alone_u[0])
    np.testing.assert_array_equal(both[1], alone_v[0])
    assert not np.array_equal(both[0], both[1])
    # and a step is the literal Cox--Matthews formula, bit for bit
    react = pseudospectral(lambda a, b: (react_u(a), react_v(b)), grid)
    t, state = etdrk4_tables([op_u, op_v], h), stacked(u, v)
    np.testing.assert_array_equal(etdrk4_step(state, t, react), cox_matthews(state, t, react))


def cox_matthews(state, t, react):
    """One ETDRK4 step by the literal formulas, every stage a new array."""
    n_u = react(state)
    a = t.exp_half * state + t.stage * n_u
    n_a = react(a)
    b = t.exp_half * state + t.stage * n_a
    n_b = react(b)
    c = t.exp_half * a + t.stage * (2.0 * n_b - n_u)
    n_c = react(c)
    return t.exp_full * state + t.f1 * n_u + 2.0 * t.f2 * (n_a + n_b) + t.f3 * n_c


def test_step_with_a_nonlinearity_that_returns_its_input_or_a_kept_array():
    # the stages are formed in place: a nonlinearity that returns its
    # argument, a view of it or one array of its own on every call must
    # see the same step as the literal formula, and its array unchanged
    n = 6
    rng = np.random.default_rng(3)
    state = rng.standard_normal((2, n + 1, 2 * n + 1))
    t = etdrk4_tables([0.5 * local_spectrum(n), np.linspace(0.0, -3.0, n + 1)], 0.1)
    kept = rng.standard_normal(state.shape)
    before = kept.copy()
    for react in (
        lambda s: s,            # its argument
        lambda s: s[::-1],      # a view of it, the two fields swapped
        lambda s: kept,         # one array of its own
    ):
        np.testing.assert_array_equal(etdrk4_step(state, t, react), cox_matthews(state, t, react))
    np.testing.assert_array_equal(kept, before)


def test_evolve_validation():
    op = np.array([0.0])
    with pytest.raises(ValueError):
        evolve(stacked(scalar_state(1.0)), [op], zero, h=0.1, steps=0)
    for h in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"step size must be a finite number in \(0, inf\)"):
            etdrk4_tables([op], h)
        with pytest.raises(ValueError, match=r"step size must be a finite number in \(0, inf\)"):
            evolve(stacked(scalar_state(1.0)), [op], zero, h=h, steps=1)
    # the tables take a real step size, not a bool or a string
    for h in (True, "0.1"):
        with pytest.raises(ValueError, match=re.escape(
                f"step size must be a finite number in (0, inf), got {h!r}")):
            etdrk4_tables([op], h)
    for steps in (-1, 1.5, True):
        with pytest.raises(ValueError, match="steps must be a positive integer"):
            evolve(stacked(scalar_state(1.0)), [op], zero, h=0.1, steps=steps)
    with pytest.raises(ValueError):
        evolve(stacked(scalar_state(1.0)), [op, op], zero, h=0.1, steps=1)
    with pytest.raises(ValueError):
        evolve(stacked(zeros(2)), [op], zero, h=0.1, steps=1)


# ----------------------------------------------------------------------
# pseudospectral wrapper
# ----------------------------------------------------------------------

def test_pseudospectral_identity_roundtrip():
    n = 10
    grid = SphereGrid(n)
    rng = np.random.default_rng(9)
    c = zeros(n)
    for ell in range(n + 1):
        for m in range(-ell, ell + 1):
            c[slot(n, ell, m)] = rng.standard_normal()
    nl = pseudospectral(lambda v: v, grid)
    (out,) = nl(stacked(c))
    np.testing.assert_allclose(out, c, atol=1e-13)


def test_pseudospectral_coupled_contract():
    n = 4
    grid = SphereGrid(n)
    u, v = zeros(n), zeros(n)
    u[slot(n, 0, 0)] = 1.0
    v[slot(n, 0, 0)] = 2.0
    nl = pseudospectral(lambda a, b: (b, a), grid)
    ou, ov = nl(stacked(u, v))
    assert ou[slot(n, 0, 0)] == pytest.approx(2.0, rel=1e-13)
    assert ov[slot(n, 0, 0)] == pytest.approx(1.0, rel=1e-13)


def test_pseudospectral_maps_two_fields_to_one_product():
    n = 6
    grid = SphereGrid(n)
    rng = np.random.default_rng(4)
    u, v = (analysis(rng.standard_normal((n + 1, 2 * n + 1)), grid) for _ in range(2))
    out = pseudospectral(lambda a, b: a * b, grid)(stacked(u, v))
    assert out.shape == (1, n + 1, 2 * n + 1)
    np.testing.assert_array_equal(out[0], analysis(synthesis(u, grid) * synthesis(v, grid), grid))


def test_pseudospectral_names_a_pointwise_output_of_another_shape():
    # numpy's stacking error, "all input arrays must have the same shape",
    # was the refusal here
    nl = pseudospectral(lambda u: (u, u[:2]), SphereGrid(2))
    with pytest.raises(ValueError, match=re.escape(
            "pointwise output 2 must be a real array of shape (3, 5), got shape (2, 5)")):
        nl(stacked(zeros(2)))


@pytest.mark.parametrize("make", [
    lambda grid: (lambda state: state[:1]),
    lambda grid: pseudospectral(lambda a, b: a * b, grid),
], ids=["hand-written", "pseudospectral"])
def test_evolve_refuses_a_nonlinearity_of_another_shape(make):
    # a (1, n+1, 2n+1) stack for two fields would broadcast against the tables
    n = 4
    grid = SphereGrid(n)
    op = np.asarray(local_spectrum(n))
    with pytest.raises(ValueError, match=re.escape(
            "nonlinearity output must be a real array of shape (2, 5, 9), got shape (1, 5, 9)")):
        evolve(stacked(zeros(n), zeros(n)), [op, op], make(grid), h=0.1, steps=1)
