import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
import scipy.linalg
from scipy.linalg.blas import daxpy, dcopy, dgbmv, dscal
from scipy.linalg.lapack import dpttrs
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from waveheat import checks
from waveheat.characteristic import BoundaryVariant
from waveheat.discretization import GridSpec, assemble, make_domain_data
from waveheat.errors import SolveFailureError, VariantError, WindowError
from waveheat.simulator import (
    CrankNicolsonStepper,
    _HeatDissipation,
    _local_slope_column,
    EnergySeries,
    SimulationConfig,
    decade_slopes,
    fit_decay,
    kernel_functional,
    last_clean_decade,
    phi_weights,
    project_kernel,
    run,
    write_energy_csv,
)
from waveheat.state import StateVector, wave_nodes

from conftest import dissipation_matrix, energy_matrix, generator_matrix

NEU = BoundaryVariant.NEUMANN
DIR = BoundaryVariant.DIRICHLET

GRID = GridSpec(64, 64)


def config(variant=NEU, t_max=10.0, stride=8, grid=GRID):
    return SimulationConfig(
        dt=grid.h_wave / 4.0, t_max=t_max, grid=grid,
        variant=variant, output_stride=stride,
    )


def constant_state(grid=GRID):
    return StateVector(
        u=np.ones(grid.n_wave + 1),
        v=np.zeros(grid.n_wave + 1),
        w=np.zeros(grid.n_heat + 1),
        variant=NEU,
    )


class TestConfig:
    def test_dt_guard(self):
        with pytest.raises(ValueError):
            SimulationConfig(dt=0.1, t_max=20.0, grid=GRID, variant=NEU)

    def test_t_max_floor(self):
        with pytest.raises(ValueError):
            SimulationConfig(dt=1e-3, t_max=5.0, grid=GRID, variant=NEU)

    @pytest.mark.parametrize("dt, t_max", [
        (math.nan, 20.0), (1e-3, math.nan), (1e-3, math.inf), (-math.inf, 20.0)])
    def test_non_finite_rejected(self, dt, t_max):
        with pytest.raises(ValueError):
            SimulationConfig(dt=dt, t_max=t_max, grid=GRID, variant=NEU)


class TestStep:
    def test_kernel_vector_fixed_point(self):
        cfg = config()
        state = constant_state()
        out = step(state, cfg)
        assert np.max(np.abs(out.u - 1.0)) <= 1e-12
        assert np.max(np.abs(out.v)) <= 1e-12
        assert np.max(np.abs(out.w)) <= 1e-12

    def test_zero_state_fixed_point(self):
        cfg = config()
        zero = StateVector(
            u=np.zeros(65), v=np.zeros(65), w=np.zeros(65), variant=NEU
        )
        out = step(zero, cfg)
        assert np.max(np.abs(out.u)) == 0.0

    def test_single_step_energy_non_increasing(self):
        cfg = config()
        datum = make_domain_data("smooth_bump", GRID, NEU)
        before = datum.state
        after = step(before, cfg)
        assert after.energy <= before.energy + 1e-12 * before.energy


class TestStepper:
    @pytest.mark.parametrize("variant", [NEU, DIR])
    @pytest.mark.parametrize("n", [16, 64])
    def test_matches_textbook_step(self, variant, n):
        # (I - dt A/2) z+ = (I + dt A/2) z, solved directly on the full system
        disc = assemble(GridSpec(n, n), variant)
        dt = 0.5 / n
        rng = np.random.default_rng(n)
        z = rng.standard_normal(disc.dim)
        eye, A = sp.identity(disc.dim, format="csc"), generator_matrix(disc)
        ref = spla.spsolve((eye - 0.5 * dt * A).tocsc(), (eye + 0.5 * dt * A) @ z)
        z_new, mid = z.copy(), np.empty_like(z)
        CrankNicolsonStepper(disc, dt).advance(z_new, mid)
        assert np.linalg.norm(z_new - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.max(np.abs(mid - 0.5 * (z + z_new))) <= 1e-14 * np.max(np.abs(z))

    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_bitwise_equal_to_keyword_calls(self, variant):
        # the step as first written, every wrapper argument by keyword; the
        # positional calls of advance must leave the same bits after each step
        disc = assemble(GRID, variant)
        stepper = CrankNicolsonStepper(disc, GRID.h_wave / 4.0)
        nu, _, a, mass, coupling, d, e = stepper._factors

        def keyword_step(z, mid):
            m_q = mid[nu:]
            np.multiply(mass, z[nu:], out=m_q)
            dgbmv(nu, nu, 1, 1, 1.0, coupling, z, beta=1.0, y=m_q, overwrite_y=1)
            dpttrs(d, e, m_q, overwrite_b=1)
            dcopy(z, mid, n=nu)
            daxpy(m_q, mid, n=nu, a=a)
            dscal(-1.0, z)
            daxpy(mid, z, a=2.0)

        z = np.random.default_rng(7).standard_normal(disc.dim)
        mid = np.empty_like(z)
        z_ref, mid_ref = z.copy(), np.empty_like(z)
        for _ in range(100):
            stepper.advance(z, mid)
            keyword_step(z_ref, mid_ref)
            assert z.tobytes() == z_ref.tobytes()
            assert mid.tobytes() == mid_ref.tobytes()

    @pytest.mark.parametrize("breakage", ["asymmetric", "indefinite"])
    def test_rejects_generator_without_structure(self, breakage):
        disc = assemble(GRID, NEU)
        dt = GRID.h_wave / 4.0
        nu = disc.n_u
        if breakage == "asymmetric":  # one heat-conduction coefficient changed on one side only
            q_sup = disc.q_sup.copy()
            q_sup[nu] *= 1.01
            broken = dataclasses.replace(disc, q_sup=q_sup)
        else:  # a symmetric change that makes 1 - (dt/2) A_qq negative in one w row
            q_main = disc.q_main.copy()
            q_main[nu] = 8.0 / dt
            broken = dataclasses.replace(disc, q_main=q_main)
        with pytest.raises(SolveFailureError, match="Schur complement"):
            CrankNicolsonStepper(broken, dt)


class TestHeatDissipation:
    @pytest.mark.parametrize("variant", [NEU, DIR])
    @pytest.mark.parametrize("rows", [1, 23, 64])
    def test_matches_form_on_full_block(self, variant, rows):
        disc = assemble(GridSpec(48, 40), variant)
        rng = np.random.default_rng(rows)
        mids = rng.standard_normal((rows, disc.dim))
        dt = 0.01
        [got] = _HeatDissipation(disc)(mids, [0], dt)
        block = mids.T.copy()
        ref = dt * float(np.vdot(block, dissipation_matrix(disc) @ block))
        # the same products, summed in another order
        assert abs(got - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_non_finite_u_rows_raise(self, monkeypatch, variant):
        # a NaN outside the heat slice and off phi's u(0) slot, after step 3
        advance = CrankNicolsonStepper.advance
        calls = []

        def poisoned(self, z, mid):
            advance(self, z, mid)
            calls.append(1)
            if len(calls) == 3:
                z[self.disc.n_u // 2] = np.nan

        monkeypatch.setattr(CrankNicolsonStepper, "advance", poisoned)
        datum = make_domain_data("smooth_bump", GRID, variant)
        with pytest.raises(SolveFailureError):
            run(datum.state, config(variant=variant, t_max=10.0, stride=8))
        assert len(calls) == 8

    @pytest.mark.parametrize("variant", [NEU, DIR])
    @pytest.mark.parametrize("breakage", [
        "main_scaled", "one_main_entry", "one_sided_coupling", "natural_end"])
    def test_rejects_form_other_than_heat_jumps(self, variant, breakage):
        # the sum of squared jumps holds only for c D^T D on the heat slice
        disc = assemble(GRID, variant)
        K_h = disc.K_h.copy()
        if breakage == "main_scaled":
            K_h[:, 1] *= 1.5
        elif breakage == "one_main_entry":
            K_h[5, 1] *= 1.0 + 2.0**-52
        elif breakage == "one_sided_coupling":  # row 5 to row 6 only
            K_h[5, 2] *= 2.0
        else:  # the end node kept with a natural condition instead of eliminated
            K_h[-1, 1] *= 0.5
        with pytest.raises(SolveFailureError, match="heat jumps"):
            _HeatDissipation(dataclasses.replace(disc, K_h=K_h))

    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_matches_form_along_a_run(self, monkeypatch, variant):
        advance = CrankNicolsonStepper.advance
        mids = []

        def recording(self, z, mid):
            advance(self, z, mid)
            mids.append(mid.copy())

        monkeypatch.setattr(CrankNicolsonStepper, "advance", recording)
        cfg = config(variant=variant, t_max=10.0, stride=8)
        series = run(make_domain_data("smooth_bump", GRID, variant).state, cfg)
        block = np.array(mids).T
        # the full form on each midpoint, summed per output interval of 8 steps
        quad = np.einsum("ij,ij->j", block, dissipation_matrix(assemble(GRID, variant)) @ block)
        expected = cfg.dt * quad.reshape(-1, 8).sum(axis=1)
        assert len(mids) == 8 * (len(series.times) - 1)
        assert series.dissipation[0] == 0.0
        np.testing.assert_allclose(series.dissipation[1:], expected, rtol=1e-14, atol=0.0)


class TestFaultInjection:
    @pytest.mark.parametrize("poison", ["state_and_midpoint", "state_only"])
    def test_non_finite_state_raises_at_output(self, monkeypatch, poison):
        # stride 8: the finiteness check sits at each output (phi), and the
        # first output is after step 8, whatever goes non-finite
        advance = CrankNicolsonStepper.advance
        calls = []

        def poisoned(self, z, mid):
            advance(self, z, mid)
            calls.append(1)
            if poison == "state_and_midpoint" and len(calls) >= 5:
                z[:] = mid[:] = np.nan
            if poison == "state_only" and len(calls) == 8:
                z[:] = np.inf

        monkeypatch.setattr(CrankNicolsonStepper, "advance", poisoned)
        datum = make_domain_data("smooth_bump", GRID, NEU)
        with pytest.raises(SolveFailureError):
            run(datum.state, config(t_max=10.0, stride=8))
        assert len(calls) == 8


class TestFaultWithoutWarnings:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("stride, poisoned_at, raised_at",
                             [(8, 8, 8), (8, 5, 8), (100, 10, 100)])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_raises_solve_failure(self, monkeypatch, stride, poisoned_at, raised_at, value):
        # stride 100: the poisoned block of 64 steps ends without an output
        advance = CrankNicolsonStepper.advance
        calls = []

        def poisoned(self, z, mid):
            advance(self, z, mid)
            calls.append(1)
            if len(calls) == poisoned_at:
                z[:] = value

        monkeypatch.setattr(CrankNicolsonStepper, "advance", poisoned)
        datum = make_domain_data("smooth_bump", GRID, NEU)
        with pytest.raises(SolveFailureError):
            run(datum.state, config(t_max=10.0, stride=stride))
        assert len(calls) == raised_at


class TestAgainstStepLoop:
    @settings(max_examples=30, deadline=None)
    @given(variant=st.sampled_from([NEU, DIR]), stride=st.integers(1, 200),
           extra=st.integers(0, 250))
    @example(variant=NEU, stride=64, extra=7)
    @example(variant=DIR, stride=65, extra=1)
    @example(variant=NEU, stride=200, extra=13)
    @example(variant=DIR, stride=7, extra=250)
    def test_outputs_match_per_step_reference(self, variant, stride, extra):
        # 640 + extra steps; every output recorded when its step is taken, with
        # the CSR forms of energy and dissipation
        grid = GridSpec(16, 16)
        dt = grid.h_wave / 4.0
        cfg = SimulationConfig(dt=dt, t_max=10.0 + extra * dt, grid=grid, variant=variant,
                               output_stride=stride)
        x0 = make_domain_data("smooth_bump", grid, variant).state
        series = run(x0, cfg)

        disc = assemble(grid, variant)
        W_E, W_diss, weights = energy_matrix(disc), dissipation_matrix(disc), phi_weights(disc)
        stepper = CrankNicolsonStepper(disc, dt)
        z = disc.pack_state(x0).astype(float)
        mid = np.empty_like(z)
        times, phis, dissipation = [0.0], [weights @ z], [0.0]
        energies = [0.5 * float(z @ (W_E @ z))]
        n_steps, acc = 640 + extra, 0.0
        for i in range(1, n_steps + 1):
            stepper.advance(z, mid)
            acc += dt * float(mid @ (W_diss @ mid))
            if i % stride == 0 or i == n_steps:
                times.append(i * dt)
                energies.append(0.5 * float(z @ (W_E @ z)))
                phis.append(weights @ z)
                dissipation.append(acc)
                acc = 0.0
        assert series.times.tobytes() == np.array(times).tobytes()
        assert series.energies.tobytes() == np.array(energies).tobytes()
        assert series.phi.tobytes() == np.array(phis).tobytes()
        np.testing.assert_allclose(series.dissipation, dissipation, rtol=1e-14, atol=0.0)


class TestOutputStride:
    @pytest.fixture(scope="class")
    def runs(self):
        datum = make_domain_data("smooth_bump", GRID, NEU)
        return {stride: run(datum.state, config(t_max=10.0, stride=stride))
                for stride in (1, 16, 64, 100)}

    @pytest.mark.parametrize("stride", [1, 16, 64, 100])
    def test_block_boundaries(self, runs, stride):
        # 2560 steps; stride 100 flushes a full block inside each output
        # interval and ends on a 60-step interval
        ref, series = runs[1], runs[stride]
        steps = np.rint(series.times / ref.times[1]).astype(int)
        assert np.array_equal(series.times, ref.times[steps])
        assert np.array_equal(series.energies, ref.energies[steps])
        expected = [ref.dissipation[a + 1 : b + 1].sum() for a, b in zip(steps[:-1], steps[1:])]
        np.testing.assert_allclose(series.dissipation[1:], expected, rtol=1e-12, atol=0.0)
        assert checks.energy_balance(series).passed


@pytest.fixture(scope="module")
def neumann_series():
    datum = make_domain_data("smooth_bump", GRID, NEU)
    return run(datum.state, config(t_max=12.0))


class TestRun:
    def test_energy_monotone(self, neumann_series):
        assert checks.energy_monotone(neumann_series).passed
        assert np.all(neumann_series.energies >= 0)

    def test_energy_balance_exact(self, neumann_series):
        assert checks.energy_balance(neumann_series).passed

    def test_energy_balance_spec_tolerance(self, neumann_series):
        # coarser contract: balance to 1e-6 E(0) per unit time
        e = neumann_series.energies
        t = neumann_series.times
        drift = np.abs(np.diff(e) + neumann_series.dissipation[1:])
        per_unit = drift / np.diff(t)
        assert np.max(per_unit) <= 1e-6 * e[0]

    def test_phi_conserved(self, neumann_series):
        assert checks.phi_constant_along_flow(neumann_series).passed

    def test_dirichlet_balance(self):
        datum = make_domain_data("smooth_bump", GRID, DIR)
        series = run(datum.state, config(variant=DIR, t_max=12.0))
        assert checks.energy_monotone(series).passed and checks.energy_balance(series).passed

    def test_state_of_other_variant_rejected(self):
        # a Dirichlet state must not be packed in the Neumann layout and run
        datum = make_domain_data("smooth_bump", GRID, DIR)
        with pytest.raises(ValueError, match="generator"):
            run(datum.state, config(variant=NEU))

    def test_complex_data_rejected(self):
        # the generator is real: only real states are stepped
        x0 = make_domain_data("smooth_bump", GRID, NEU).state
        x0.v = x0.v + 1j * x0.u
        with pytest.raises(ValueError, match="real states only"):
            run(x0, config())

    def test_kernel_invariance_long_run(self):
        series = run(constant_state(), config(t_max=20.0))
        # the stationary direction carries no energy and must stay put
        assert np.max(series.energies) <= 1e-20 and series.phi[0] == 1.0
        assert checks.phi_constant_along_flow(series).passed

    def test_wave_only_data_still_decays(self):
        # u-only initial state: the interface drains wave energy into the rod
        x0 = StateVector(
            u=np.cos(math.pi * (wave_nodes(64) + 1.0)),
            v=np.zeros(65),
            w=np.zeros(65),
            variant=NEU,
        )
        series = run(x0, config(t_max=30.0))
        assert series.energies[-1] < 0.05 * series.energies[0]

    def test_linearity_of_the_flow(self):
        cfg = config(t_max=10.0, stride=64)
        d1 = make_domain_data("smooth_bump", GRID, NEU).state
        d2 = make_domain_data("polynomial", GRID, NEU).state
        combo = StateVector(
            u=2.0 * d1.u - 0.5 * d2.u,
            v=2.0 * d1.v - 0.5 * d2.v,
            w=2.0 * d1.w - 0.5 * d2.w,
            variant=NEU,
        )
        f1 = step_n(d1, cfg, 16)
        f2 = step_n(d2, cfg, 16)
        fc = step_n(combo, cfg, 16)
        for field in ("u", "v", "w"):
            err = np.max(np.abs(
                getattr(fc, field)
                - (2.0 * getattr(f1, field) - 0.5 * getattr(f2, field))
            ))
            assert err <= 1e-10


def _constraint_matrix(variant, k, degree):
    """Rows of the linear domain conditions on (u, v, w) coefficient vectors.

    u and v are polynomials in (xi + 1) and w in (1 - xi), ``degree + 1``
    coefficients each, as ``make_domain_data``'s ``custom`` profile reads them.
    Each row is one condition ``functional(field) - functional(other) = 0``.
    """
    P = np.polynomial.Polynomial
    tau = [P([1.0, 1.0]) ** j for j in range(degree + 1)]
    sigma = [P([1.0, -1.0]) ** j for j in range(degree + 1)]
    basis = {"u": tau, "v": tau, "w": sigma}
    offset = {"u": 0, "v": degree + 1, "w": 2 * (degree + 1)}

    def row(*terms):  # terms: (sign, field, derivative order, point)
        out = np.zeros(3 * (degree + 1))
        for sign, name, m, x in terms:
            for j, b in enumerate(basis[name]):
                out[offset[name] + j] += sign * b.deriv(m)(x)
        return out

    def equal(a, b):
        return row((1.0, *a), (-1.0, *b))

    rows = [row((1.0, "w", 0, 1.0)), equal(("v", 0, 0.0), ("w", 0, 0.0)),
            equal(("u", 1, 0.0), ("w", 1, 0.0))]
    if variant is NEU:
        # u(-1) = 0 too: it leaves out only the kernel direction, which
        # project_kernel removes anyway
        rows += [row((1.0, "u", 1, -1.0)), row((1.0, "u", 0, -1.0))]
    else:
        rows += [row((1.0, "u", 0, -1.0)), row((1.0, "v", 0, -1.0))]
    if k == 2:  # the image (v, u'', w'') satisfies the same conditions
        rows += [row((1.0, "w", 2, 1.0)), equal(("u", 2, 0.0), ("w", 2, 0.0)),
                 equal(("v", 1, 0.0), ("w", 3, 0.0))]
        rows.append(row((1.0, "v", 1, -1.0)) if variant is NEU
                    else row((1.0, "u", 2, -1.0)))
    return np.array(rows)


class TestCustomData:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), variant=st.sampled_from([NEU, DIR]), k=st.sampled_from([1, 2]),
           degree=st.integers(3, 6))
    def test_energy_monotone_and_balanced(self, data, variant, k, degree):
        null = scipy.linalg.null_space(_constraint_matrix(variant, k, degree))
        drawn = data.draw(arrays(float, 3 * (degree + 1), elements=st.floats(-1.0, 1.0)))
        coeffs = null @ (null.T @ drawn)
        norm = np.linalg.norm(coeffs)
        assume(norm > 1e-3)
        u, v, w = np.split(coeffs / norm, 3)
        grid = GridSpec(32, 32)
        x0 = make_domain_data("custom", grid, variant, k=k,
                              custom={"u": u, "v": v, "w": w}).state
        if variant is NEU:
            x0, _ = project_kernel(x0)
        series = run(x0, config(variant=variant, t_max=10.0, grid=grid))
        assert checks.energy_monotone(series).passed
        assert checks.energy_balance(series).passed
        if variant is NEU:
            assert checks.phi_constant_along_flow(series).passed


def step_n(state, cfg, n):
    """n Crank-Nicolson steps of a real state by ``CrankNicolsonStepper.advance``."""
    disc = assemble(cfg.grid, cfg.variant)
    stepper = CrankNicolsonStepper(disc, cfg.dt)
    z = disc.pack_state(state).astype(float)
    mid = np.empty_like(z)
    for _ in range(n):
        stepper.advance(z, mid)
    return disc.unpack(z)


def step(state, cfg):
    return step_n(state, cfg, 1)


class TestKernelProjection:
    def test_canonical_values(self):
        assert checks.kernel_functional_values(64).passed

    def test_split_reconstructs(self):
        datum = make_domain_data("polynomial", GRID, NEU)
        x0, x1 = project_kernel(datum.state)
        assert np.allclose(x0.u + x1.u, datum.state.u)
        assert kernel_functional(x0) == pytest.approx(0.0, abs=1e-12)
        assert np.all(x1.v == 0) and np.all(x1.w == 0)

    def test_idempotent(self):
        datum = make_domain_data("smooth_bump", GRID, NEU)
        x0, x1 = project_kernel(datum.state)
        again, rest = project_kernel(x1)
        assert np.max(np.abs(again.u)) <= 1e-13
        assert np.allclose(rest.u, x1.u)

    def test_dirichlet_rejected(self):
        datum = make_domain_data("smooth_bump", GRID, DIR)
        with pytest.raises(VariantError):
            project_kernel(datum.state)


class TestPhiWeights:
    @pytest.mark.parametrize("variant", [NEU, DIR])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n_wave=st.integers(8, 40), n_heat=st.integers(8, 40))
    def test_dot_matches_kernel_functional(self, variant, data, n_wave, n_heat):
        disc = assemble(GridSpec(n_wave, n_heat), variant)
        z = data.draw(arrays(float, disc.dim, elements=st.floats(-1e6, 1e6)))
        phi = kernel_functional(disc.unpack(z))
        # subnormal products round to multiples of 2**-1074: an absolute
        # term of one such unit per entry, on top of the relative one
        assert abs(phi_weights(disc) @ z - phi) <= (1e-14 * np.abs(z).sum()
                                                     + disc.dim * 2.0**-1074)


class TestDecayFit:
    def synthetic(self, power=-4.0):
        t = np.linspace(0.0, 100.0, 2001)
        e = np.empty_like(t)
        e[0] = 2.0
        e[1:] = 2.0 * np.maximum(t[1:], 1.0) ** power
        return EnergySeries(times=t, energies=e, dissipation=np.zeros_like(t))

    def test_recovers_power_law(self):
        fit = fit_decay(self.synthetic(), (2.0, 40.0), k=1)
        assert fit.slope == pytest.approx(-4.0, abs=1e-9)
        assert fit.stderr < 1e-9

    def test_window_aspect_guard(self):
        with pytest.raises(WindowError):
            fit_decay(self.synthetic(), (10.0, 30.0))

    def test_sample_count_guard(self):
        series = self.synthetic()
        sparse = EnergySeries(
            times=series.times[::500],
            energies=series.energies[::500],
            dissipation=series.dissipation[::500],
        )
        with pytest.raises(WindowError):
            fit_decay(sparse, (2.0, 40.0))

    def test_floor_guard(self):
        series = self.synthetic(power=-8.0)
        series.energies[-500:] = 1e-13 * series.energies[0]
        with pytest.raises(WindowError):
            fit_decay(series, (20.0, 100.0))

    def test_last_clean_decade(self):
        win = last_clean_decade(self.synthetic())
        assert win[1] == pytest.approx(100.0)
        assert win[0] == pytest.approx(10.0)

    def test_decade_slopes_monotone_for_steepening_series(self):
        t = np.linspace(0.0, 100.0, 4001)
        e = 2.0 * np.exp(-0.02 * t) / (1.0 + t) ** 3
        series = EnergySeries(times=t, energies=e, dissipation=np.zeros_like(t))
        slopes = [s for _, s in decade_slopes(series)]
        assert all(b <= a + 1e-9 for a, b in zip(slopes[:-1], slopes[1:]))

    @pytest.mark.parametrize("fit", [decade_slopes, last_clean_decade])
    def test_history_at_the_floor_raises_window_error(self, fit):
        t = np.linspace(0.0, 100.0, 401)
        series = EnergySeries(times=t, energies=np.zeros_like(t),
                              dissipation=np.zeros_like(t))
        with pytest.raises(WindowError, match="round-off floor"):
            fit(series)


class TestCsv:
    def test_columns_and_monotone_energy(self, tmp_path):
        datum = make_domain_data("smooth_bump", GRID, NEU)
        series = run(datum.state, config(t_max=10.0))
        path = tmp_path / "energy.csv"
        write_energy_csv(series, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,E,dissipation_rate,phi,local_slope"
        energies = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(energies[:-1], energies[1:]))

    def test_values_round_trip(self, tmp_path):
        datum = make_domain_data("smooth_bump", GRID, NEU)
        series = run(datum.state, config())
        path = tmp_path / "energy.csv"
        write_energy_csv(series, path)
        cols = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 3), unpack=True)
        energy, rate, phi = cols
        assert np.array_equal(energy, series.energies)
        assert np.array_equal(rate[1:], series.dissipation[1:] / np.diff(series.times))
        assert np.array_equal(phi, np.real(series.phi))

    def test_local_slope_column_matches_polyfit(self):
        t = np.linspace(0.0, 5.0, 41)
        e = 3.0 / (1.0 + t) ** 4 * (1.0 + 0.1 * np.sin(7.0 * t))
        e[20] = 0.0  # windows touching E <= 0 have no slope
        got = _local_slope_column(t, e)
        for i in range(len(t)):
            window = slice(i - 2, i + 3)
            if 2 <= i < len(t) - 2 and t[i - 2] > 0 and np.all(e[window] > 0):
                expected = np.polyfit(np.log(t[window]), np.log(e[window]), 1)[0]
                assert got[i] == pytest.approx(expected, rel=1e-12)
            else:
                assert math.isnan(got[i])
