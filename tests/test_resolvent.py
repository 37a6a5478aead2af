import cmath
import math
import os
import time
import warnings

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from waveheat import checks, resolvent
from waveheat.characteristic import BoundaryVariant, principal_sqrt
from waveheat.discretization import GridSpec, ShiftedSolve, assemble
from waveheat.errors import (
    DegenerateInputError,
    NoConvergenceError,
    OverflowEvaluationError,
    ResolutionError,
    SolveFailureError,
    VariantError,
)
from waveheat.resolvent import (
    _GL_NODES,
    _GL_WEIGHTS,
    _STACK_ENTRIES,
    ClosedFormResolvent,
    _KernelIntegrals,
    _norm_operator,
    apply_resolvent,
    required_grid,
    resolvent_norm_discrete,
    resolvent_norm_sampled,
    snap_to_resonance,
    sweep,
)
from waveheat.state import StateVector, heat_nodes, wave_nodes

from conftest import (
    U_CONST_S10,
    UP_CONST_S10,
    W_CONST_S25,
    WP_CONST_S25,
    defining_residual,
    generator_matrix,
    gram_matrix,
    smooth_triple,
)

NEU = BoundaryVariant.NEUMANN
DIR = BoundaryVariant.DIRICHLET


def wave_data(f, g):
    return StateVector(u=f, v=g, w=np.zeros(17))


def heat_data(h):
    return StateVector(u=np.zeros(17), v=np.zeros(17), w=h)


def resolvent_on(s, y):
    """The closed-form resolvent at frequency s on the grids of data y."""
    return ClosedFormResolvent(s, y.n_wave, y.n_heat)


def _pack_data(gen, f, g, h) -> np.ndarray:
    """Right-hand-side data in generator coordinates; the interface row mass-averages g(0), h(0)."""
    hw, hh = gen.grid.h_wave, gen.grid.h_heat
    g_iface = (0.5 * hw * g[-1] + 0.5 * hh * h[0]) / (0.5 * hw + 0.5 * hh)
    if gen.variant is BoundaryVariant.NEUMANN:
        gg = np.concatenate([g[:-1], [g_iface]])
        return np.concatenate([f, gg, h[1:-1]])
    gg = np.concatenate([g[1:-1], [g_iface]])
    return np.concatenate([f[1:], gg, h[1:-1]])


def _w_norm(disc, z) -> float:
    """sqrt(z^H W z), the generator's energy norm of a complex vector."""
    return math.sqrt(max(float(np.real(np.conj(z) @ (gram_matrix(disc) @ z))), 0.0))


def _dense_norm(disc, s) -> float:
    """||(is - A_h)^-1|| in the W-norm: 1/sigma_min(L^T B L^-T), W = L L^T, B = is - A_h."""
    B = 1j * s * np.eye(disc.dim) - generator_matrix(disc).toarray()
    L = np.linalg.cholesky(gram_matrix(disc).toarray())
    scaled = L.T @ np.linalg.solve(L, B.T).T
    return 1.0 / np.linalg.svd(scaled, compute_uv=False)[-1]


class TestParticularIntegrals:
    def test_wave_zero_data(self):
        zeros = np.zeros(33)
        y = wave_data(zeros, zeros)
        u_val, u_der = resolvent_on(5.0, y).particular_wave(y)
        assert not u_val.any() and not u_der.any()

    def test_wave_empty_range(self):
        # the first wave node is xi = -1, where the integration range is empty
        ones = np.ones(33)
        y = wave_data(ones, ones)
        u_val, u_der = resolvent_on(5.0, y).particular_wave(y)
        assert u_val[0] == 0 and u_der[0] == 0

    def test_wave_constant_data_oracle(self):
        ones, zeros = np.ones(65), np.zeros(65)
        y = wave_data(ones, zeros)
        u_val, u_der = resolvent_on(10.0, y).particular_wave(y)
        assert u_val[-1] == pytest.approx(U_CONST_S10, rel=1e-8)
        assert u_der[-1] == pytest.approx(UP_CONST_S10, rel=1e-8)

    def test_wave_adaptive_quadrature_oracle(self, rng):
        # independent oracle: scipy adaptive quadrature, cell by cell so the
        # interpolant kinks never sit inside an adaptive panel
        n, s, node = 48, 7.3, 38  # xi = -10/48
        f, g = rng.standard_normal(n + 1), rng.standard_normal(n + 1)
        grid = wave_nodes(n)
        xi = grid[node]

        def integrand(r, part):
            phi = 1j * s * np.interp(r, grid, f) + np.interp(r, grid, g)
            val = np.sin(s * (xi - r)) * phi / s
            return val.real if part == 0 else val.imag

        cuts = np.concatenate([[-1.0], grid[(grid > -1.0) & (grid < xi)], [xi]])
        expected = sum(
            quad(integrand, a, b, args=(part,), limit=60)[0] * (1j if part else 1)
            for a, b in zip(cuts[:-1], cuts[1:])
            for part in (0, 1)
        )
        y = wave_data(f, g)
        got = resolvent_on(s, y).particular_wave(y)[0][node]
        assert got == pytest.approx(expected, rel=1e-8)

    def test_heat_zero_data(self):
        y = heat_data(np.zeros(17))
        w_val, w_der = resolvent_on(9.0, y).particular_heat(y)
        assert not w_val.any() and not w_der.any()

    def test_heat_empty_range(self):
        # the last heat node is xi = 1, where the integration range is empty
        y = heat_data(np.ones(17))
        w_val, w_der = resolvent_on(9.0, y).particular_heat(y)
        assert w_val[-1] == 0 and w_der[-1] == 0

    def test_heat_constant_data_oracle(self):
        y = heat_data(np.ones(65))
        w_val, w_der = resolvent_on(25.0, y).particular_heat(y)
        assert w_val[0] == pytest.approx(W_CONST_S25, rel=1e-8)
        assert w_der[0] == pytest.approx(WP_CONST_S25, rel=1e-8)

    def test_heat_adaptive_quadrature_oracle(self, rng):
        n, s, node = 40, 31.0, 6  # xi = 0.15
        h = rng.standard_normal(n + 1)
        grid = heat_nodes(n)
        xi = grid[node]
        z = principal_sqrt(1j * s)

        def integrand(r, part):
            val = -cmath.sinh(z * (r - xi)) * np.interp(r, grid, h) / z
            return val.real if part == 0 else val.imag

        cuts = np.concatenate([[xi], grid[(grid > xi) & (grid < 1.0)], [1.0]])
        expected = sum(
            quad(integrand, a, b, args=(part,), limit=60)[0] * (1j if part else 1)
            for a, b in zip(cuts[:-1], cuts[1:])
            for part in (0, 1)
        )
        y = heat_data(h)
        got = resolvent_on(s, y).particular_heat(y)[0][node]
        assert got == pytest.approx(expected, rel=1e-8)

    # n = None takes the sweep grid; 16 cells at high |s| need subdivided cells
    @pytest.mark.parametrize("s, n", [(2.0, None), (10.0, None), (-50.0, None),
                                      (1000.0, None), (1000.0, 16)])
    def test_wave_constant_data_every_node(self, s, n):
        # U = phi (1 - cos(s(xi+1)))/s^2, U' = phi sin(s(xi+1))/s for constant
        # i s f + g = phi; errors relative to the modulus bounds 2|phi|/s^2, |phi|/|s|
        f, g = 0.3, 1.7
        phi = 1j * s * f + g
        n = n or required_grid(s, factor=2.5).n_wave
        grid = wave_nodes(n)
        y = wave_data(np.full(n + 1, f), np.full(n + 1, g))
        u_val, u_der = resolvent_on(s, y).particular_wave(y)
        theta = s * (grid + 1.0)
        u_err = np.abs(u_val - phi * (1.0 - np.cos(theta)) / s**2) / (2 * abs(phi) / s**2)
        d_err = np.abs(u_der - phi * np.sin(theta) / s) / (abs(phi) / abs(s))
        assert u_err.max() <= 1e-11 and d_err.max() <= 1e-11

    @pytest.mark.parametrize("s, n", [(2.0, None), (10.0, None), (-50.0, None),
                                      (1000.0, None), (5e5, None), (5e5, 16)])
    def test_heat_constant_data_every_node(self, s, n):
        # W = h (1 - cosh(z(1-xi)))/z^2, W' = h sinh(z(1-xi))/z, z = sqrt(is);
        # at s = 5e5, Re z = 500 and cosh(z) ~ 1e217, so this exercises the
        # split exponentials.  Errors relative to the modulus bounds
        # |h| (1 + cosh(Re z t))/|z|^2 and |h| cosh(Re z t)/|z|, t = 1 - xi.
        h = 0.8
        z = principal_sqrt(1j * s)
        n = n or required_grid(s, factor=2.5).n_heat
        t = 1.0 - heat_nodes(n)
        y = heat_data(np.full(n + 1, h))
        w_val, w_der = resolvent_on(s, y).particular_heat(y)
        bound = h * np.cosh(z.real * t)
        w_err = np.abs(w_val - h * (1.0 - np.cosh(z * t)) / z**2) / ((h + bound) / abs(z) ** 2)
        d_err = np.abs(w_der - h * np.sinh(z * t) / z) / (bound / abs(z))
        assert w_err.max() <= 1e-11 and d_err.max() <= 1e-11

    def test_zero_frequency_rejected(self):
        with pytest.raises(DegenerateInputError):
            ClosedFormResolvent(0.0, 8, 16)

    @pytest.mark.parametrize("n_wave, n_heat", [(32, 16), (16, 32)])
    def test_data_on_another_grid_rejected(self, n_wave, n_heat, rng):
        # as DiscreteGenerator.pack_state: a ValueError, not numpy broadcasting
        y = smooth_triple(rng)(16, 16)
        with pytest.raises(ValueError, match="given to a resolvent on 32"):
            ClosedFormResolvent(10.0, n_wave, n_heat).solve(y)


def _per_point_kernel_integrals(kappa, x, d):
    """The kernel integrals as one Gauss sum per quadrature point, the oracle of the fold.

    The same panels, nodes and split exponentials as ``_KernelIntegrals``, but
    with an exponential at every quadrature point of every cell.  Returns
    (S, C, T, m): T_j = 1/2 the sum over both exponentials of the moduli of the
    point terms of node j, each taken with |d_c| + |d_(c+1) - d_c| t for the
    data, and m the panels per cell.
    """
    dx = np.diff(x)
    width = min(2.0 * math.pi / (5.0 * max(abs(kappa), 1.0)), 0.25)
    m = max(1, math.ceil(dx.max() / width))
    frac = ((np.arange(m)[:, None] + 0.5 * (1.0 + _GL_NODES)) / m).ravel()
    pts = x[:-1, None] + dx[:, None] * frac
    weights = dx[:, None] * np.tile(_GL_WEIGHTS / (2 * m), m)
    wd = weights * (d[:-1, None] + (d[1:] - d[:-1])[:, None] * frac)
    wd_abs = weights * (np.abs(d[:-1, None]) + np.abs(d[1:] - d[:-1])[:, None] * frac)

    def prefix(moments):
        return np.concatenate([[0.0], np.cumsum(moments.sum(axis=1))])

    grow_x, grow_pts = np.exp(kappa * (x - x[0])), np.exp(-kappa * (pts - x[0]))
    decay_x, decay_pts = np.exp(kappa * (x[-1] - x)), np.exp(kappa * (pts - x[-1]))
    grow, decay = grow_x * prefix(grow_pts * wd), decay_x * prefix(decay_pts * wd)
    total = 0.5 * (np.abs(grow_x) * prefix(np.abs(grow_pts) * wd_abs)
                   + np.abs(decay_x) * prefix(np.abs(decay_pts) * wd_abs))
    return 0.5 * (grow - decay), 0.5 * (grow + decay), total, m


class TestKernelFold:
    # (s, kernel); Re sqrt(is) = 200 at s = 80000
    CASES = [(s, k) for s in (2.0, 100.0, 1000.0) for k in ("wave", "heat")] + [(8e4, "heat")]

    # required_grid(100) has one panel per cell on both segments at s = 100;
    # on 16 cells the string kernel needs 5 panels per cell
    @pytest.mark.parametrize("grid", [required_grid(100.0), GridSpec(16, 16)])
    @pytest.mark.parametrize("s, kernel", CASES)
    def test_fold_changes_only_rounding(self, s, kernel, grid, rng):
        # The kernels and grids of ClosedFormResolvent.  To first order, each
        # path's error at node j is at most k eps T_j, with k = |kappa| times
        # the rounding of its exponentials' arguments in units of eps (the
        # fold's panel factor takes the mean width, within 4 eps X of each
        # cell's), plus (6m + n)/2 for the depth of its sums, plus a few
        # for its products and exponentials; K adds both paths' k and the
        # final sum's rounding.  CHANGES.md derives it term by term.
        if kernel == "wave":
            kappa, x = 1j * s, wave_nodes(grid.n_wave)
        else:
            kappa, x = principal_sqrt(1j * s), 1.0 - heat_nodes(grid.n_heat)[::-1]
        d = rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
        sinh_oracle, cosh_oracle, total, m = _per_point_kernel_integrals(kappa, x, d)
        sinh_int, cosh_int = _KernelIntegrals(kappa, x)(d)
        big_x, span, n = max(abs(x[0]), abs(x[-1])), x[-1] - x[0], len(x) - 1
        k = abs(kappa) * (4.5 * big_x + 2.0 * span + 2.5 * span / n) + 6 * m + n + 20
        bound = k * np.finfo(float).eps * total
        assert np.all(np.abs(sinh_int - sinh_oracle) <= bound)
        assert np.all(np.abs(cosh_int - cosh_oracle) <= bound)

    @pytest.mark.parametrize("x", [
        np.array([0.0, 0.25, 0.5, 1.0]),
        np.linspace(0.0, 1.0, 17) + np.r_[0.0, 1e-13, np.zeros(15)],
    ], ids=["unequal", "perturbed"])
    def test_unequal_cells_rejected(self, x):
        with pytest.raises(ValueError, match="cells of one width"):
            _KernelIntegrals(10j, x)


class TestCoefficients:
    def test_zero_data_gives_zero_constants(self):
        zero = StateVector(u=np.zeros(33), v=np.zeros(33), w=np.zeros(33))
        sol = resolvent_on(100.0, zero).solve(zero)
        assert sol.a == 0 and sol.b == 0

    def test_interface_system_satisfied(self, rng):
        make = smooth_triple(rng)
        y = make(64, 64)
        cf = resolvent_on(100.0, y)
        sol = cf.solve(y)
        resid = cf.M @ np.array([sol.a, sol.b]) - sol.rhs
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(sol.rhs)

    @pytest.mark.parametrize("s", [2.0, 17.0, 313.0])
    def test_determinant_two_evaluation_orders(self, s, rng):
        assert checks.det_two_path(smooth_triple(rng)(48, 48), (s,)).passed

    @pytest.mark.parametrize("entry", [
        lambda s, y: resolvent_on(s, y).particular_wave(y),
        lambda s, y: resolvent_on(s, y).particular_heat(y),
        lambda s, y: resolvent_on(s, y).solve(y),
        lambda s, y: resolvent_on(s, y).random_triple(np.random.default_rng(0)),
        apply_resolvent,
        lambda s, y: resolvent_norm_sampled(s, 2, GridSpec(16, 16), np.random.default_rng(0)),
        lambda s, y: checks.det_two_path(y, (s,)),
        lambda s, y: checks.resolvent_coupling(s, y),
    ], ids=["particular_wave", "particular_heat", "solve", "random_triple", "apply_resolvent",
            "resolvent_norm_sampled", "det_two_path", "resolvent_coupling"])
    def test_every_entry_point_warns_below_two(self, entry, rng):
        y = smooth_triple(rng)(16, 16)
        with pytest.warns(UserWarning, match="outside the calibrated frequency range"):
            entry(0.5, y)

    def test_zero_frequency_rejected(self):
        y = StateVector(u=np.zeros(17), v=np.zeros(17), w=np.zeros(17))
        with pytest.raises(DegenerateInputError):
            resolvent_on(0.0, y).solve(y)


class TestData:
    def test_dirichlet_data_rejected(self):
        # the closed form solves the Neumann problem only
        y = smooth_triple(np.random.default_rng(0))(16, 16)
        y.variant = BoundaryVariant.DIRICHLET
        with pytest.raises(VariantError):
            resolvent_on(10.0, y).solve(y)
        with pytest.raises(VariantError):
            apply_resolvent(10.0, y)

    def test_two_dimensional_array_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            StateVector(u=np.zeros((2, 17)), v=np.zeros((2, 17)), w=np.zeros(17))
        with pytest.raises(ValueError, match="1-D"):
            StateVector(u=np.zeros(17), v=np.zeros(17), w=np.zeros((17, 1)))


class TestApplyResolvent:
    @pytest.mark.parametrize("s", [2.0, 10.0, 100.0])
    def test_defining_equations_second_order(self, s, rng):
        make = smooth_triple(rng)
        base = max(64, int(math.ceil(10 * s / (2 * math.pi))))
        errs = []
        for factor in (1, 2, 4):
            n = base * factor
            y = make(n, n)
            x = apply_resolvent(s, y)
            errs.append(defining_residual(s, y, x))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert abs(order - 2.0) <= 0.3

    def test_boundary_and_coupling_conditions(self, rng):
        for s in (2.0, 10.0, 100.0):
            n = max(64, int(math.ceil(10 * s / (2 * math.pi))))
            assert checks.resolvent_coupling(s, smooth_triple(rng)(n, n)).passed

    def test_velocity_identity(self, rng):
        y = smooth_triple(rng)(96, 96)
        x = apply_resolvent(10.0, y)
        assert np.allclose(x.v, 1j * 10.0 * x.u - y.u)

    def test_round_trip_against_discrete_operator(self, rng):
        # the closed form must converge to the discrete solve at O(h^2);
        # the strong residual itself carries an O(h) truncation on the O(h)
        # interface mass, so it contracts at O(h^1.5)
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        s = 10.0
        make = smooth_triple(rng)
        res_errs, sol_errs = [], []
        for n in (64, 128, 256):
            y = make(n, n)
            x = apply_resolvent(s, y)
            gen = assemble(GridSpec(n, n), NEU)
            zx = gen.pack_state(x)
            rhs = _pack_data(gen, y.u, y.v, y.w)
            B = (1j * s * sp.identity(gen.dim, format="csc") - generator_matrix(gen)).tocsc()
            res_errs.append(_w_norm(gen, B @ zx - rhs))
            sol_errs.append(_w_norm(gen, spla.spsolve(B, rhs.astype(complex)) - zx))
        for i in range(2):
            assert abs(math.log2(sol_errs[i] / sol_errs[i + 1]) - 2.0) <= 0.3
            assert math.log2(res_errs[i] / res_errs[i + 1]) >= 1.4


class TestNorms:
    def test_resolution_rule_enforced(self):
        disc = assemble(GridSpec(32, 32), NEU)
        with pytest.raises(ResolutionError):
            resolvent_norm_discrete(100.0, disc)

    @pytest.mark.parametrize("variant", list(BoundaryVariant))
    @pytest.mark.parametrize("target", [20.0, 45.0])
    def test_matches_dense_svd_reference(self, variant, target):
        disc = assemble(required_grid(target, factor=2.5), variant)
        s_eff, _ = snap_to_resonance(disc, target)
        assert resolvent_norm_discrete(s_eff, disc) == pytest.approx(
            _dense_norm(disc, s_eff), rel=1e-9)

    @pytest.mark.parametrize("variant", list(BoundaryVariant))
    @pytest.mark.parametrize("target", [20.0, 45.0])
    def test_matches_dense_svd_between_resonances(self, variant, target):
        # halfway between two adjacent resonances the two largest singular
        # values of the resolvent are closest: the slowest case for Lanczos
        disc = assemble(required_grid(target, factor=2.5), variant)
        s_eff, _ = snap_to_resonance(disc, target)
        heights = np.linalg.eigvals(generator_matrix(disc).toarray()).imag
        s_mid = 0.5 * (s_eff + heights[heights > s_eff + 1e-6].min())
        assert resolvent_norm_discrete(s_mid, disc) == pytest.approx(
            _dense_norm(disc, s_mid), rel=1e-9)

    @pytest.mark.parametrize("variant", list(BoundaryVariant))
    @pytest.mark.parametrize("target", [20.0, 45.0])
    def test_norm_solves_at_resonance(self, variant, target, monkeypatch):
        # a 4-vector Krylov basis converges in 5-7 applications of
        # F^T B^-1 W^-1 B^-H F at a resonance; ARPACK's default basis takes 21
        disc = assemble(required_grid(target, factor=2.5), variant)
        s_eff, _ = snap_to_resonance(disc, target)
        calls = []
        solve = ShiftedSolve.solve

        def counted(self, y):
            calls.append(1)
            return solve(self, y)

        monkeypatch.setattr(ShiftedSolve, "solve", counted)
        resolvent_norm_discrete(s_eff, disc)
        assert len(calls) <= 8

    @settings(max_examples=20, deadline=None)
    @given(variant=st.sampled_from(list(BoundaryVariant)), n_wave=st.integers(8, 40),
           n_heat=st.integers(8, 40), s=st.floats(2.0, 60.0))
    def test_norm_operator_is_hermitian(self, variant, n_wave, n_heat, s):
        disc = assemble(GridSpec(n_wave, n_heat), variant)
        op = _norm_operator(s, disc)
        H = np.column_stack([op.matvec(col) for col in np.eye(disc.dim, dtype=complex)])
        assert np.abs(H - H.conj().T).max() <= 2e-13 * np.abs(H).max()

    def test_arpack_failure_is_typed(self, monkeypatch):
        import scipy.sparse.linalg as spla

        def fail(*args, **kwargs):
            raise spla.ArpackNoConvergence("injected", np.array([]), np.array([]))

        monkeypatch.setattr(spla, "eigsh", fail)
        disc = assemble(required_grid(20.0), NEU)
        with pytest.raises(NoConvergenceError):
            resolvent_norm_discrete(20.0, disc)

    def test_arpack_results_repeat_exactly(self):
        # the fixed start vector makes repeated ARPACK calls bit-equal; a
        # secant root depends on its seed alone
        disc = assemble(GridSpec(600, 300), NEU)
        first = disc.eigenvalues_near([150j]), resolvent_norm_discrete(150.0, disc)
        second = disc.eigenvalues_near([150j]), resolvent_norm_discrete(150.0, disc)
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]

    @settings(max_examples=20, deadline=None)
    @given(variant=st.sampled_from(list(BoundaryVariant)), factor=st.floats(1.0, 4.0),
           s=st.floats(3.0, 60.0))
    # below s = 2.3 the Dirichlet resonance is the branch-0 root near 0.97 i
    @example(variant=BoundaryVariant.DIRICHLET, factor=2.5, s=2.0)
    # on grid 48x71 the branch-0 secant reaches its root in two steps and then
    # wanders at the determinant's round-off floor with steps above the tolerance
    @example(variant=BoundaryVariant.DIRICHLET, factor=3.6875, s=3.625)
    @example(variant=BoundaryVariant.DIRICHLET, factor=3.6875, s=3.65)
    @example(variant=BoundaryVariant.DIRICHLET, factor=3.6875, s=3.7)
    @example(variant=BoundaryVariant.DIRICHLET, factor=4.0, s=3.1)
    @example(variant=BoundaryVariant.DIRICHLET, factor=4.0, s=3.15)
    def test_snap_matches_dense_rule(self, variant, factor, s):
        # the rule snapping used with ARPACK, applied to all eigenvalues of A_h
        disc = assemble(required_grid(s, factor), variant)
        assume(disc.dim <= 700)
        ev = np.linalg.eigvals(generator_matrix(disc).toarray())
        near = ev[np.argsort(np.abs(ev - 1j * s))][:6]
        lam = min(near[near.imag > 0.5], key=lambda e: abs(e.imag - s))
        gap = np.abs(1j * lam.imag - near).min()
        s_eff, snap_gap = snap_to_resonance(disc, s)
        assert s_eff == pytest.approx(lam.imag, rel=1e-10)
        assert snap_gap == pytest.approx(gap, rel=1e-9)
        assert disc.count_eigenvalues(1j * s_eff, 2 * snap_gap) == 1

    @pytest.mark.parametrize("roots", [[1j, 2j, 3j], [18j, 18j, 23j], [23j, 18j, 30j]])
    def test_snap_rejects_roots_not_bracketing(self, roots, monkeypatch):
        disc = assemble(required_grid(20.0), NEU)
        monkeypatch.setattr(type(disc), "eigenvalues_near", lambda self, seeds: np.array(roots))
        with pytest.raises(NoConvergenceError):
            snap_to_resonance(disc, 20.0)

    def test_negative_frequency_symmetry(self):
        grid = required_grid(25.0, factor=2.0)
        disc = assemble(grid, NEU)
        s_eff, _ = snap_to_resonance(disc, 25.0)
        assert resolvent_norm_discrete(-s_eff, disc) == pytest.approx(
            resolvent_norm_discrete(s_eff, disc), rel=1e-8
        )

    def test_norm_against_spectral_gap(self):
        assert checks.norm_times_gap(sweep(NEU, [10.0, 50.0], resolution_factor=2.5)).passed

    def test_sampled_bounds_discrete(self, rng):
        grid = required_grid(100.0, factor=2.0)
        disc = assemble(grid, NEU)
        s_eff, _ = snap_to_resonance(disc, 100.0)
        discrete = resolvent_norm_discrete(s_eff, disc)
        row = {"norm_discrete": discrete,
               "norm_sampled": resolvent_norm_sampled(s_eff, 60, grid, rng)}
        assert checks.sampled_below_discrete([row]).passed

    def test_sampled_recovers_half_at_100(self):
        grid = required_grid(100.0, factor=2.0)
        disc = assemble(grid, NEU)
        discrete = resolvent_norm_discrete(100.0, disc)
        sampled = resolvent_norm_sampled(100.0, 200, grid, np.random.default_rng(7))
        assert sampled >= 0.5 * discrete
        assert sampled <= 1.05 * discrete

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            resolvent_norm_sampled(10.0, 0, GridSpec(32, 32), np.random.default_rng(0))

    # required_grid(100) has one panel per cell on both segments; on 16 cells
    # the string kernel needs 5 panels per cell
    @pytest.mark.parametrize("grid", [required_grid(100.0), GridSpec(16, 16)])
    def test_sampled_is_apply_resolvent_on_the_same_draws(self, grid):
        s, trials, seed = 100.0, 7, 11
        rng = np.random.default_rng(seed)
        cf, ratios = ClosedFormResolvent(s, grid.n_wave, grid.n_heat), []
        for _ in range(trials):
            y = cf.random_triple(rng)
            ratios.append(apply_resolvent(s, y).norm_X / y.norm_X)
        sampled = resolvent_norm_sampled(s, trials, grid, np.random.default_rng(seed))
        assert sampled == max(ratios)

    @pytest.mark.parametrize("grid", [required_grid(100.0), GridSpec(16, 16)])
    def test_random_triple_keeps_the_draw_order(self, grid):
        # random_triple takes one draw of 60 normals; its triples are the
        # ones drawn with 18 calls, one per real or imaginary coefficient vector
        s, xw, xh = 100.0, wave_nodes(grid.n_wave), heat_nodes(grid.n_heat)
        osc, layer = np.exp(1j * s * xw), np.exp(-principal_sqrt(1j * s) * xh)

        def triple_by_18_calls(rng):
            def rpoly(n, x):
                return polyval(x, rng.standard_normal(n) + 1j * rng.standard_normal(n))

            f = rpoly(4, xw) + rpoly(3, xw) * osc.real + rpoly(3, xw) * osc.imag
            g = rpoly(4, xw) + rpoly(3, xw) * osc.real + rpoly(3, xw) * osc.imag
            h = rpoly(4, xh) + rpoly(3, xh) * layer.real + rpoly(3, xh) * layer.imag
            return f, g, h

        cf = ClosedFormResolvent(s, grid.n_wave, grid.n_heat)
        for seed in (0, 1, 11):
            rng, rng_18 = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                y = cf.random_triple(rng)
                for got, expected in zip((y.u, y.v, y.w), triple_by_18_calls(rng_18)):
                    assert got.tobytes() == expected.tobytes()

    # one chunk holds 120 rows on 16 cells (whose string kernel needs up to
    # 50 panels per cell), 10 on the verify grid, 3 on (600, 40) and 1 on
    # (2048, 24)
    @settings(max_examples=25, deadline=None)
    @given(
        trials=st.integers(1, 50),
        s=st.floats(2.5, 1000.0),
        grid=st.sampled_from([GridSpec(16, 16), GridSpec(199, 177), GridSpec(600, 40),
                              GridSpec(2048, 24)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_trials_are_the_trials_one_at_a_time(self, trials, s, grid, seed):
        rng, rng_1 = np.random.default_rng(seed), np.random.default_rng(seed)
        sampled = resolvent_norm_sampled(s, trials, grid, rng)
        cf, ratios = ClosedFormResolvent(s, grid.n_wave, grid.n_heat), []
        for _ in range(trials):
            y = cf.random_triple(rng_1)
            ratios.append(cf.solve(y).state.norm_X / y.norm_X)
        assert sampled == max(ratios)
        # the draws of 60 trials normals leave the generator where later draws expect it
        after = np.random.default_rng(seed)
        after.standard_normal(60 * trials)
        assert rng.bit_generator.state == after.bit_generator.state == rng_1.bit_generator.state

    @pytest.mark.parametrize("s, rows", [(10.0, 25), (50.0, 10), (1000.0, 1)])
    def test_stacked_calls_stay_within_the_budget(self, s, rows, monkeypatch):
        # a kernel call holds rows of at most _STACK_ENTRIES node values in
        # all, or one row longer than that
        grid, shapes, kernel = required_grid(s, 2.5), [], _KernelIntegrals.__call__

        def recording(self, d):
            shapes.append(d.shape)
            return kernel(self, d)

        monkeypatch.setattr(_KernelIntegrals, "__call__", recording)
        resolvent_norm_sampled(s, 40, grid, np.random.default_rng(0))
        assert all(n * nodes <= _STACK_ENTRIES or n == 1 for n, nodes in shapes)
        assert max(n for n, _ in shapes) == rows
        assert sum(n for n, _ in shapes) == 2 * 40  # the string and the rod kernel

    def test_interface_constants_stay_scalar(self):
        # At s = 3000 the numerator of a cancels about 10 digits, and array
        # arithmetic rounds complex products differently from scalar
        # arithmetic: it would move a in its seventh digit.
        s = 3000.0
        grid = required_grid(s, 2.5)
        cf = ClosedFormResolvent(s, grid.n_wave, grid.n_heat)
        f, g, h = cf.random_rows(np.random.default_rng(18), 4)
        _, a, b, rhs, _, _ = cf.solve_rows(f, g, h)
        z, det = cf.z, cf.det
        for row, (p, q) in enumerate(rhs):
            sol = cf.solve(StateVector(u=f[row], v=g[row], w=h[row]))
            assert a[row].tobytes() == sol.a.tobytes() and b[row].tobytes() == sol.b.tobytes()
            scalar_a = ((z * cf._cosh_hat * p - cf._sinh_hat * q) / det.mantissa) * math.exp(
                z.real - det.log_scale)
            assert a[row].tobytes() == scalar_a.tobytes()

    @pytest.mark.parametrize("trial, value", [(0, np.nan), (1, np.inf), (2, np.nan)])
    def test_non_finite_trial_raises(self, trial, value, monkeypatch):
        # the maximum over the other trials used to hide it
        draw = ClosedFormResolvent.random_rows

        def poisoned(self, rng, rows):
            f, g, h = draw(self, rng, rows)
            f[trial, 5] = value
            return f, g, h

        monkeypatch.setattr(ClosedFormResolvent, "random_rows", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowEvaluationError, match=f"trial {trial} of 3 gave the ratio"):
                resolvent_norm_sampled(20.0, 3, GridSpec(32, 32), np.random.default_rng(0))

    @pytest.mark.parametrize("s, error", [
        (0.0, DegenerateInputError),
        (1e6, OverflowEvaluationError),  # Re sqrt(is) = 707
    ])
    def test_sampled_rejects_frequency(self, s, error):
        with pytest.raises(error):
            resolvent_norm_sampled(s, 3, GridSpec(32, 32), np.random.default_rng(0))

    def test_grid_refinement_stability(self):
        grid = required_grid(30.0, factor=2.5)
        disc = assemble(grid, NEU)
        s_eff, _ = snap_to_resonance(disc, 30.0)
        n1 = resolvent_norm_discrete(s_eff, disc)
        disc2 = assemble(grid.doubled(), NEU)
        s_eff2, _ = snap_to_resonance(disc2, s_eff)
        n2 = resolvent_norm_discrete(s_eff2, disc2)
        assert abs(n2 - n1) / n1 < 0.05


class TestComponentDiagnostics:
    def test_heat_component_bounded_in_frequency(self, rng):
        # diagnostic: the temperature component of the solution stays O(1)
        # while the full norm grows like sqrt(s)
        make = smooth_triple(rng)
        w_norms = []
        for s in (10.0, 100.0, 1000.0):
            n = max(64, int(math.ceil(10 * s / (2 * math.pi))))
            y = make(n, n)
            x = apply_resolvent(s, y)
            hh = 1.0 / y.n_heat
            w_norms.append(
                math.sqrt(hh * float(np.sum(np.abs(x.w) ** 2))) / y.norm_X
            )
        assert max(w_norms) <= 5.0 * min(1.0, min(w_norms) + 1.0)


class TestSweep:
    def test_envelope_slope_small_sweep(self):
        rows = sweep(NEU, np.logspace(1, 2.2, 6), resolution_factor=2.0)
        svals = np.array([r["s"] for r in rows])
        norms = np.array([r["norm_discrete"] for r in rows])
        slope = np.polyfit(np.log(svals), np.log(norms), 1)[0]
        assert 0.35 <= slope <= 0.65
        assert checks.norm_times_gap(rows).passed

    # three targets on grids of 48 to 398 wave cells (doubled: 96 to 796), a short sweep
    SMALL = np.logspace(1, 2, 3)

    @staticmethod
    def _assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _count_forks(monkeypatch) -> list:
        fork, forks = os.fork, []

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return forks

    @pytest.mark.parametrize("trials", [0, 3])
    @pytest.mark.parametrize("variant", [NEU, DIR], ids=["neumann", "dirichlet"])
    def test_worker_rows_are_the_inline_rows(self, variant, trials, monkeypatch):
        forks = self._count_forks(monkeypatch)
        kwargs = dict(trials=trials, seed=4, doubling_check=True)
        worker = sweep(variant, self.SMALL, **kwargs)
        assert len(forks) == 1
        self._assert_no_child()
        monkeypatch.delattr(os, "fork")
        inline = sweep(variant, self.SMALL, **kwargs)
        # repr round-trips every float, NaN included, so equal reprs are equal bits
        assert repr(worker) == repr(inline)
        assert all(math.isfinite(r["doubling_change"]) for r in worker)

    def test_no_worker_without_doubling(self, monkeypatch):
        forks = self._count_forks(monkeypatch)
        rows = sweep(NEU, self.SMALL, trials=2)
        assert not forks
        assert all(math.isnan(r["doubling_change"]) for r in rows)

    def test_worker_error_keeps_type_and_message(self, monkeypatch):
        def fail(grid):
            raise NoConvergenceError(f"injected at {grid.n_wave} wave cells")

        monkeypatch.setattr(GridSpec, "doubled", fail)  # only the worker doubles a grid
        with pytest.raises(NoConvergenceError, match=r"^injected at 48 wave cells$"):
            sweep(NEU, self.SMALL, doubling_check=True)
        self._assert_no_child()

    def test_worker_without_result_raises_solve_failure(self, monkeypatch):
        monkeypatch.setattr(GridSpec, "doubled", lambda grid: os._exit(3))
        with pytest.raises(SolveFailureError, match="without a result"):
            sweep(NEU, self.SMALL, doubling_check=True)
        self._assert_no_child()

    def test_failure_here_kills_the_worker(self, monkeypatch):
        def fail(*args):
            raise OverflowEvaluationError("injected sampled-norm fault")

        monkeypatch.setattr(GridSpec, "doubled", lambda grid: time.sleep(60))
        monkeypatch.setattr(resolvent, "resolvent_norm_sampled", fail)
        start = time.monotonic()
        with pytest.raises(OverflowEvaluationError, match="injected sampled-norm fault"):
            sweep(NEU, self.SMALL, trials=2, doubling_check=True)
        assert time.monotonic() - start < 30  # the worker was killed, not waited for
        self._assert_no_child()
