import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st

from scipy.linalg.lapack import dpttrf, dpttrs

from waveheat import checks, discretization
from waveheat.characteristic import BoundaryVariant
from waveheat.discretization import (
    GridSpec,
    ShiftedSolve,
    assemble,
    make_domain_data,
)
from waveheat.errors import InfeasibleProfileError, SolveFailureError
from waveheat.resolvent import required_grid, resolvent_norm_discrete, snap_to_resonance
from waveheat.simulator import CrankNicolsonStepper
from waveheat.state import StateVector, heat_nodes, wave_nodes

from conftest import (
    NEUMANN_ROOTS,
    dissipation_matrix,
    energy_matrix,
    generator_matrix,
    gram_matrix,
)

NEU = BoundaryVariant.NEUMANN
DIR = BoundaryVariant.DIRICHLET

# the bands of A_qq and of A_qu in the v rows, as DiscreteGenerator holds them
_A_BANDS = ("q_sub", "q_main", "q_sup", "p_sub", "p_main", "p_sup")


class TestGridSpec:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            GridSpec(4, 64)

    def test_spacings(self):
        g = GridSpec(50, 80)
        assert g.h_wave == pytest.approx(0.02)
        assert g.h_heat == pytest.approx(0.0125)


class TestAssembly:
    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_kernel_vector_exact(self, variant):
        # the check's band sums against the CSR product; the clamped Dirichlet
        # string has no constant stationary state
        gen = assemble(GridSpec(64, 48), variant)
        ones = (np.arange(gen.dim) < gen.n_u).astype(float)
        check = checks.kernel_vector(gen)
        assert check.value == np.abs(generator_matrix(gen) @ ones).max()
        assert check.passed is (variant is NEU)

    def test_kernel_is_one_dimensional(self):
        gen = assemble(GridSpec(32, 32), NEU)
        sv = np.linalg.svd(generator_matrix(gen).toarray(), compute_uv=False)
        assert sv[-1] < 1e-12 * sv[0]
        assert sv[-2] > 1e-4 * sv[0]

    def test_eigenvalue_second_order_convergence(self):
        target = NEUMANN_ROOTS[0]
        errs = []
        for n in (48, 96, 192):
            gen = assemble(GridSpec(n, n), NEU)
            errs.append(abs(gen.eigenvalues_near([target])[0] - target))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert 1.7 <= order <= 2.3

    def test_first_five_modes_second_order(self):
        # log-log slope of |lam_h - lam| vs h over three refinements
        targets = [NEUMANN_ROOTS[n] for n in (0, 1, 2, 5, 10)]
        grids = (64, 128, 256)
        errs = np.zeros((len(targets), len(grids)))
        for j, n in enumerate(grids):
            gen = assemble(GridSpec(n, n), NEU)
            for i, tgt in enumerate(targets):
                errs[i, j] = abs(gen.eigenvalues_near([tgt])[0] - tgt)
        hs = np.log([1.0 / n for n in grids])
        for i in range(len(targets)):
            slope = np.polyfit(hs, np.log(errs[i]), 1)[0]
            assert abs(slope - 2.0) <= 0.3

    def test_dirichlet_spectrum_bounded_away_from_zero(self):
        # no eigenvalue within 0.5 of 0, and the nearest pair (|lam| = 1.2127
        # for the continuous root) in the same 2.5 % annulus on both grids
        for n in (64, 128):
            gen = assemble(GridSpec(n, n), DIR)
            counts = [gen.count_eigenvalues(0.0, r) for r in (0.5, 1.2, 1.23)]
            assert counts == [0, 0, 2]

    def test_eigenvalues_near_match_dense(self):
        import scipy.linalg

        for variant in (NEU, DIR):
            gen = assemble(GridSpec(24, 16), variant)
            dense = scipy.linalg.eigvals(generator_matrix(gen).toarray())
            for target in (0.5 + 3j, -2.0 + 10j, NEUMANN_ROOTS[2]):
                order = np.argsort(np.abs(dense - target))
                expected = dense[order][:4]
                # a seed at an eigenvalue to working precision is a singular shift
                near = gen.eigenvalues_near(expected + 1e-3 * (1 + 1j))
                assert np.abs(near - expected).max() <= 1e-10 * abs(target)
                # the disk about the target out to between its 4th and 5th
                # nearest eigenvalue holds those 4
                dist = np.abs(dense[order[3:5]] - target)
                assert gen.count_eigenvalues(target, dist.mean()) == 4

    def test_neumann_kernel_target_is_singular(self):
        # at (100, 37) gttrf leaves a pivot of about 1e-12 instead of an exact zero
        for grid in (GridSpec(64, 64), GridSpec(100, 37)):
            with pytest.raises(SolveFailureError):
                assemble(grid, NEU).eigenvalues_near([0.0])

    def test_exact_discrete_dissipativity(self, rng):
        for variant in (NEU, DIR):
            gen = assemble(GridSpec(48, 72), variant)
            A, W_E, W_diss = generator_matrix(gen), energy_matrix(gen), dissipation_matrix(gen)
            for _ in range(10):
                x = rng.standard_normal(gen.dim) + 1j * rng.standard_normal(gen.dim)
                form = float(np.real(np.conj(x) @ (W_E @ (A @ x))))
                diss = float(np.real(np.conj(x) @ (W_diss @ x)))
                assert diss >= 0
                assert abs(form + diss) <= 1e-10 * max(abs(form), 1.0)

    def test_pack_unpack_roundtrip(self, rng):
        for variant in (NEU, DIR):
            gen = assemble(GridSpec(16, 24), variant)
            xw, xh = wave_nodes(16), heat_nodes(24)
            u = np.cos(xw)
            v = np.sin(xw)
            w = np.concatenate([[v[-1]], rng.standard_normal(23), [0.0]])
            if variant is DIR:
                u[0] = v[0] = 0.0
            x = StateVector(u=u, v=v, w=w, variant=variant)
            back = gen.unpack(gen.pack_state(x))
            assert np.allclose(back.u, u) and np.allclose(back.v, v)
            assert np.allclose(back.w, w)

    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_pack_state_rejects_other_variant(self, variant):
        other = DIR if variant is NEU else NEU
        state = make_domain_data("smooth_bump", GridSpec(64, 64), other).state
        with pytest.raises(ValueError, match="generator"):
            assemble(GridSpec(64, 64), variant).pack_state(state)


def _block_assembly(grid, variant) -> dict:
    """A, W, W_E and W_diss by scipy.sparse block algebra, an independent reference.

    K_h is embedded into q by a selector matrix, and A's q rows are -M^-1
    times the stiffness blocks, as sparse products.
    """
    def stiffness(main, h):
        off = np.full(len(main) - 1, -1.0 / h)
        return sp.diags([off, main, off], [-1, 0, 1], format="csr")

    def lumped(n, h):
        w = np.full(n + 1, h)
        w[0] = w[-1] = h / 2.0
        return w

    n_w, n_h, hw, hh = grid.n_wave, grid.n_heat, grid.h_wave, grid.h_heat
    kw_main = np.full(n_w + 1, 2.0 / hw)
    kw_main[0] = kw_main[-1] = 1.0 / hw
    K_w, mass_w = stiffness(kw_main, hw), lumped(n_w, hw)
    if variant is DIR:
        K_w, mass_w = K_w[1:, 1:], mass_w[1:]
    nu = K_w.shape[0]
    kh_main = np.full(n_h, 2.0 / hh)
    kh_main[0] = 1.0 / hh
    K_h = stiffness(kh_main, hh)
    n_q = nu + n_h - 1
    mass_q = np.concatenate([mass_w, np.full(n_h - 1, hh)])
    mass_q[nu - 1] += lumped(n_h, hh)[0]
    heat_idx = np.concatenate([[nu - 1], np.arange(nu, n_q)])
    S_h = sp.csr_matrix((np.ones(n_h), (np.arange(n_h), heat_idx)), shape=(n_h, n_q))
    inv_mass = sp.diags(1.0 / mass_q)
    K_h_q = (S_h.T @ K_h @ S_h).tocsr()
    sel_v = sp.hstack([sp.identity(nu), sp.csr_matrix((nu, n_q - nu))]).tocsr()
    return {
        "A": sp.bmat([[None, sel_v], [-inv_mass @ sel_v.T @ K_w, -inv_mass @ K_h_q]],
                     format="csr"),
        "W": sp.block_diag([K_w + sp.diags(mass_w), sp.diags(mass_q)], format="csr"),
        "W_E": sp.block_diag([K_w, sp.diags(mass_q)], format="csr"),
        "W_diss": sp.bmat([[sp.csr_matrix((nu, nu)), None], [None, K_h_q]], format="csr"),
    }


class TestBandAssembly:
    @settings(max_examples=40, deadline=None)
    @given(variant=st.sampled_from([NEU, DIR]), n_wave=st.integers(8, 300),
           n_heat=st.integers(8, 300))
    @example(variant=NEU, n_wave=8, n_heat=8)
    @example(variant=DIR, n_wave=300, n_heat=8)
    def test_matches_block_algebra_bitwise(self, variant, n_wave, n_heat):
        gen = assemble(GridSpec(n_wave, n_heat), variant)
        builders = {"A": generator_matrix, "W": gram_matrix, "W_E": energy_matrix,
                    "W_diss": dissipation_matrix}
        for name, ref in _block_assembly(gen.grid, variant).items():
            got = builders[name](gen)
            assert got.shape == ref.shape == (gen.dim, gen.dim)
            assert got.has_sorted_indices and np.all(got.data != 0), name
            assert np.array_equal(got.indptr, ref.indptr), name
            assert np.array_equal(got.indices, ref.indices), name
            assert got.data.tobytes() == ref.data.tobytes(), name

    @settings(max_examples=40, deadline=None)
    @given(variant=st.sampled_from([NEU, DIR]), n_wave=st.integers(8, 300),
           n_heat=st.integers(8, 300))
    @example(variant=NEU, n_wave=8, n_heat=8)
    def test_bands_equal_diagonals_of_derived_matrices(self, variant, n_wave, n_heat):
        # the CSR read-back the generator's bands replace, kept as a reference;
        # bytes, so that a -0.0 band value differs from an unstored entry
        gen = assemble(GridSpec(n_wave, n_heat), variant)
        nu, iface = gen.n_u, 2 * gen.n_u - 1
        A, W = generator_matrix(gen), gram_matrix(gen)
        W_E, W_diss = energy_matrix(gen), dissipation_matrix(gen)
        pairs = {
            "q_sub": A.diagonal(-1)[nu:], "q_main": A.diagonal()[nu:],
            "q_sup": A.diagonal(1)[nu:], "p_sub": A.diagonal(-nu - 1)[: nu - 1],
            "p_main": A.diagonal(-nu)[:nu], "p_sup": A.diagonal(1 - nu)[1:nu],
        }
        for name, diagonal in pairs.items():
            assert getattr(gen, name).tobytes() == diagonal.tobytes(), name
        assert np.all(A.diagonal(nu)[:nu] == 1.0)  # u' = v
        assert A.nnz == nu + sum(np.count_nonzero(getattr(gen, name)) for name in _A_BANDS)
        for form, main in ((W_E, gen.K_w[:, 1]), (W, gen.K_w[:, 1] + gen.mass_w)):
            assert form.diagonal()[:nu].tobytes() == main.tobytes()
            assert form.diagonal()[nu:].tobytes() == gen.mass_q.tobytes()
            assert form.diagonal(-1)[: nu - 1].tobytes() == gen.K_w[1:, 0].tobytes()
            assert form.diagonal(1)[: nu - 1].tobytes() == gen.K_w[:-1, 2].tobytes()
            assert form.nnz == 3 * nu - 2 + len(gen.mass_q)
        for k, band in ((-1, gen.K_h[1:, 0]), (0, gen.K_h[:, 1]), (1, gen.K_h[:-1, 2])):
            assert W_diss.diagonal(k)[iface:].tobytes() == band.tobytes()
        assert W_diss.nnz == 3 * len(gen.K_h) - 2

    @settings(max_examples=20, deadline=None)
    @given(variant=st.sampled_from([NEU, DIR]), n_wave=st.integers(8, 300),
           n_heat=st.integers(8, 300))
    def test_solvers_form_no_matrix(self, variant, n_wave, n_heat):
        gen = assemble(GridSpec(n_wave, n_heat), variant)
        CrankNicolsonStepper(gen, gen.grid.h_wave / 4.0)
        ShiftedSolve(gen, 3.0 + 20j).solve(np.ones(gen.dim))
        gen.char_det(3.0 + 20j)
        gen.char_det(np.array([1j, 2.0 - 5j]))
        gen.gram_solver()(np.ones(gen.dim))
        times_f, times_f_t = gen.gram_root()
        times_f_t(times_f(np.ones(gen.dim)))
        gen.energy(np.ones((2, gen.dim)))
        assert not any(sp.issparse(value) for value in vars(gen).values())

    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_norm_forms_no_matrix(self, variant):
        gen = assemble(required_grid(45.0, factor=2.5), variant)
        s_eff, _ = snap_to_resonance(gen, 45.0)
        resolvent_norm_discrete(s_eff, gen)
        assert not any(sp.issparse(value) for value in vars(gen).values())


def _backward_error(B, x, y) -> float:
    """|B x - y| relative to |B| |x| + |y|, in the max norm."""
    scale = abs(B).sum(axis=1).max() * np.abs(x).max() + np.abs(y).max()
    return float(np.abs(B @ x - y).max() / scale)


def _band_noise(gen, rng, noise):
    """``gen`` with random values added to every band of A_qq, and of A_qu in the v rows.

    The assembled generator leaves most of these zero (A_qq has no v-v
    coupling away from the interface), so only a perturbed one exercises
    every term of the elimination.
    """
    return dataclasses.replace(gen, **{
        name: getattr(gen, name) + noise * rng.standard_normal(len(getattr(gen, name)))
        for name in _A_BANDS})


class TestShiftedSolve:
    @settings(max_examples=60, deadline=None)
    @given(
        variant=st.sampled_from([NEU, DIR]),
        n_wave=st.integers(8, 64),
        n_heat=st.integers(8, 64),
        sigma=st.one_of(
            st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_subnormal=False),
            st.just(0j)),
        noise=st.sampled_from([0.0, 10.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_solve_and_adjoint_against_formed_matrix(self, variant, n_wave, n_heat,
                                                     sigma, noise, seed):
        assume(variant is DIR or sigma != 0 or noise)  # 0 is the Neumann kernel
        gen = assemble(GridSpec(n_wave, n_heat), variant)
        rng = np.random.default_rng(seed)
        if noise:
            gen = _band_noise(gen, rng, noise)
        y = rng.standard_normal(gen.dim) + 1j * rng.standard_normal(gen.dim)
        B = (sigma * sp.identity(gen.dim) - generator_matrix(gen)).tocsr()
        shifted = ShiftedSolve(gen, sigma)
        assert _backward_error(B, shifted.solve(y), y) <= 1e-10
        assert _backward_error(B.conj().T.tocsr(), shifted.solve_adjoint(y), y) <= 1e-10

    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_gram_solver_inverts_w(self, variant, rng):
        gen = assemble(GridSpec(40, 24), variant)
        x = rng.standard_normal(gen.dim) + 1j * rng.standard_normal(gen.dim)
        assert _backward_error(gram_matrix(gen), gen.gram_solver()(x), x) <= 1e-13


def _scale_bands(gen, sigma):
    """T(sigma)'s (sub, main, sup) by a complex diagonal of D = diag(sigma I_u, I_w)."""
    nu = gen.n_u
    scale = np.ones(len(gen.q_main), dtype=complex)
    scale[:nu] = sigma
    main = (sigma - gen.q_main) * scale
    main[:nu] -= gen.p_main
    sub, sup = -gen.q_sub * scale[:-1], -gen.q_sup * scale[1:]
    sub[: nu - 1] -= gen.p_sub
    sup[: nu - 1] -= gen.p_sup
    return sub, main, sup


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


class TestBandForms:
    @settings(max_examples=60, deadline=None)
    @given(
        variant=st.sampled_from([NEU, DIR]),
        n_wave=st.integers(8, 64),
        n_heat=st.integers(8, 64),
        sigma=st.one_of(
            st.just(0j),
            _finite.map(lambda x: complex(x, 0.0)),
            st.builds(complex, _finite,
                      st.floats(-1e3, -1e-3, allow_subnormal=False)),
            st.complex_numbers(max_magnitude=1e3, allow_subnormal=False).filter(
                lambda z: not (z.imag == 0 and math.copysign(1.0, z.imag) < 0)),
        ),
        noise=st.sampled_from([0.0, 10.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_t_bands_match_scale_formula(self, variant, n_wave, n_heat, sigma, noise, seed):
        # for Im sigma = -0.0 the scale formula's (1 + 0j) factors turn the w rows'
        # -0.0 imaginary parts into +0.0; every other bit agrees
        gen = assemble(GridSpec(n_wave, n_heat), variant)
        if noise:
            gen = _band_noise(gen, np.random.default_rng(seed), noise)
        with mock.patch.object(discretization, "zgttrf", wraps=discretization.zgttrf) as lu:
            gen._factor_t(sigma, guard=False)
        for got, want in zip(lu.call_args.args, _scale_bands(gen, sigma)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(variant=st.sampled_from([NEU, DIR]), n_wave=st.integers(8, 300),
           n_heat=st.integers(8, 64), seed=st.integers(0, 2**32 - 1))
    def test_gram_solve_matches_two_column_pttrs(self, variant, n_wave, n_heat, seed):
        gen = assemble(GridSpec(n_wave, n_heat), variant)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(gen.dim) + 1j * rng.standard_normal(gen.dim)
        nu = gen.n_u
        d, e, _ = dpttrf(gen.K_w[:, 1] + gen.mass_w, gen.K_w[:-1, 2])
        parts = np.ascontiguousarray(x[:nu]).view(float).reshape(nu, 2)
        want = np.empty(gen.dim, dtype=complex)
        want[:nu].view(float).reshape(nu, 2)[:] = dpttrs(d, e, parts)[0]
        want[nu:] = x[nu:] / gen.mass_q
        assert gen.gram_solver()(x).tobytes() == want.tobytes()


class TestCharDet:
    @settings(max_examples=80, deadline=None)
    @given(
        variant=st.sampled_from([NEU, DIR]),
        n_wave=st.integers(8, 48),
        n_heat=st.integers(8, 48),
        sigma=st.complex_numbers(max_magnitude=1e3, allow_subnormal=False),
    )
    def test_matches_dense_slogdet_and_reflects(self, variant, n_wave, n_heat, sigma):
        gen = assemble(GridSpec(n_wave, n_heat), variant)
        det, mirror = gen.char_det(sigma), gen.char_det(sigma.conjugate())
        # A_h is real: det(conj(sigma) I - A_h) = conj det(sigma I - A_h)
        assert mirror.log_scale == pytest.approx(det.log_scale, rel=1e-14, abs=1e-14)
        assert abs(mirror.mantissa - det.mantissa.conjugate()) <= 1e-14 * abs(det.mantissa)
        B = sigma * np.eye(gen.dim) - generator_matrix(gen).toarray()
        # char_det is det(B + dB) with |dB| about eps |B|, so its log det errs by
        # tr(B^-1 dB), about eps cond(B) at most; it is below the tighter bound
        # asserted, 1e-10, where eps cond(B) is.  Next to an eigenvalue cond(B)
        # is about |B| / dist(sigma, spectrum), the small pivot's relative error
        assume(np.finfo(float).eps * np.linalg.cond(B) <= 1e-10)
        sign, logabs = np.linalg.slogdet(B)
        assert abs(det.log_scale + math.log(abs(det.mantissa)) - logabs) <= 1e-10 * max(
            abs(logabs), 1.0)
        assert abs(np.angle(det.mantissa / sign)) <= 1e-9

    def test_array_matches_points(self):
        gen = assemble(GridSpec(20, 12), DIR)
        points = np.array([[3 + 4j, -1.5 + 0.2j], [0.0, 250j]])
        values = gen.char_det(points)
        assert values.mantissa.shape == values.log_scale.shape == points.shape
        for m, ls, p in zip(values.mantissa.ravel(), values.log_scale.ravel(), points.ravel()):
            assert (m, ls) == gen.char_det(p)


class TestCountEigenvalues:
    @pytest.mark.parametrize("variant,n,center,radius,count", [
        (DIR, 64, 0.0, 1.23, 2),
        (NEU, 64, 0.0, 0.3, 1),
        (NEU, 64, 3j, 6.0, 6),
    ])
    def test_every_node_factored_once(self, variant, n, center, radius, count, monkeypatch):
        # each level keeps the level before's mantissas and factors only its
        # odd nodes; interleaved, the nodes are those of the full level's
        # expression, and the count is a recount of every level in full
        gen = assemble(GridSpec(n, n), variant)
        evaluated = []
        det_t = gen._det_t

        def recording(sigma, guard=False):
            evaluated.extend(np.atleast_1d(sigma))
            return det_t(sigma, guard)

        monkeypatch.setattr(gen, "_det_t", recording)
        assert gen.count_eigenvalues(center, radius) == count
        nodes, start, size = np.array(evaluated[:16]), 16, 16
        while start < len(evaluated):
            merged = np.empty(2 * size, complex)
            merged[0::2], merged[1::2] = nodes, evaluated[start:start + size]
            nodes, start, size = merged, start + size, 2 * size
        assert start == len(evaluated) == len(nodes)
        full = center + radius * np.exp(2j * math.pi * np.arange(len(nodes)) / len(nodes))
        assert nodes.tobytes() == full.tobytes()
        monkeypatch.undo()
        assert _recount(gen, center, radius) == (count, len(nodes))


def _recount(gen, center, radius) -> tuple[int, int]:
    """The discrete count with every level's nodes factored in full, and its final node count."""
    prev, n = None, 16
    while True:
        mantissa = gen.char_det(center + radius * np.exp(2j * math.pi * np.arange(n) / n)).mantissa
        cur = round(np.angle(np.roll(mantissa, -1) / mantissa).sum() / (2 * math.pi))
        if cur == prev:
            return cur, n
        prev, n = cur, 2 * n


class TestGramMatrices:
    def test_constant_state_norms(self):
        gen = assemble(GridSpec(64, 64), NEU)
        z = (np.arange(gen.dim) < gen.n_u).astype(float)  # (1, 0, 0)
        assert z @ (energy_matrix(gen) @ z) == pytest.approx(0.0, abs=1e-14)
        assert z @ (gram_matrix(gen) @ z) == pytest.approx(1.0, rel=1e-12)

    def test_w_minus_we_positive_semidefinite(self):
        gen = assemble(GridSpec(32, 32), NEU)
        diff = (gram_matrix(gen) - energy_matrix(gen)).toarray()
        assert np.min(np.linalg.eigvalsh(diff)) >= -1e-14

    def test_sine_state_norm_second_order(self):
        # || (sin(pi xi), 0, 0) ||_W^2 -> (1 + pi^2)/2 at O(h^2)
        exact = 0.5 * (1.0 + math.pi**2)
        errs = []
        for n in (32, 64, 128):
            gen = assemble(GridSpec(n, n), NEU)
            z = np.zeros(gen.dim)
            z[: gen.n_u] = np.sin(math.pi * wave_nodes(n))
            errs.append(abs(z @ (gram_matrix(gen) @ z) - exact))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.7 <= o <= 2.3 for o in orders)

    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_gram_root_factors_w(self, variant):
        gen = assemble(GridSpec(40, 24), variant)
        times_f, times_f_t = gen.gram_root()
        eye = np.eye(gen.dim)
        F = np.column_stack([times_f(col) for col in eye])
        F_t = np.column_stack([times_f_t(col) for col in eye])
        assert np.array_equal(F_t, F.T)
        W = gram_matrix(gen).toarray()
        assert np.abs(F @ F.T - W).max() <= 1e-14 * np.abs(W).max()

    @pytest.mark.parametrize("variant", [NEU, DIR])
    @pytest.mark.parametrize("n", [16, 128, 400, 800])
    def test_energy_equals_csr_form_bitwise(self, variant, n):
        # 300 random states per grid, each at a scale e^s with |s| <= 20, one
        # at a time and as one block
        gen = assemble(GridSpec(n, n), variant)
        W_E = energy_matrix(gen)
        rng = np.random.default_rng(n)
        states = rng.standard_normal((300, gen.dim)) * np.exp(rng.uniform(-20.0, 20.0, (300, 1)))
        want = np.array([0.5 * float(z @ (W_E @ z)) for z in states])
        assert np.array([gen.energy(z) for z in states]).tobytes() == want.tobytes()
        assert gen.energy(states).tobytes() == want.tobytes()

    def test_we_kernel_is_constant_direction(self):
        gen = assemble(GridSpec(32, 32), NEU)
        vals = np.linalg.eigvalsh(energy_matrix(gen).toarray())
        assert vals[0] < 1e-12 and vals[1] > 1e-6


class TestDomainData:
    @pytest.mark.parametrize("variant", [NEU, DIR])
    @pytest.mark.parametrize("profile", ["smooth_bump", "polynomial"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_certificates(self, variant, profile, k):
        datum = make_domain_data(profile, GridSpec(32, 32), variant, k=k)
        assert max(datum.certificate.values()) <= 1e-12
        if k == 2:
            assert any(key.startswith("image_") for key in datum.certificate)

    def test_constant_is_valid_neumann_data(self):
        datum = make_domain_data(
            "custom", GridSpec(16, 16), NEU,
            custom={"u": [1.0], "v": [0.0], "w": [0.0]},
        )
        assert max(datum.certificate.values()) == 0.0
        assert np.all(datum.state.u == 1.0)

    def test_infeasible_custom_profile(self):
        with pytest.raises(InfeasibleProfileError):
            make_domain_data(
                "custom", GridSpec(16, 16), NEU,
                custom={"u": [0.0, 1.0], "v": [0.0], "w": [0.0]},
            )

    def test_unknown_profile(self):
        with pytest.raises(InfeasibleProfileError):
            make_domain_data("mystery", GridSpec(16, 16), NEU)

    def test_k1_data_not_in_higher_domain(self):
        # the k=1 bump must violate at least one image constraint
        from waveheat.discretization import _constraint_residuals, _PROFILES

        u, v, w = _PROFILES[("neumann", "smooth_bump", 1)]
        cert = _constraint_residuals(u, v, w, NEU, k=2)
        assert max(v for k_, v in cert.items() if k_.startswith("image_")) > 1.0
