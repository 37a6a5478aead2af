"""Finite-difference approximation of the coupled wave-heat generator.

The state is stacked as (u-nodes, v-nodes, interior w-nodes) with the
interface value shared: v(0) and w(0) are one unknown, which encodes the
temperature-velocity matching condition, and w(1) = 0 is eliminated.  The
second-derivative blocks are the lumped piecewise-linear stiffness/mass
pairs, coupled at the interface through their boundary fluxes.  With this
closure the discrete generator is exactly dissipative in the discrete
energy form: the energy rate equals minus the heat stiffness quadratic
form, with no O(h) interface remainder, so trapezoidal time stepping is
provably monotone.  Eigenvalues converge at second order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpttrf, zgttrf, zgttrs, zpttrs

from .characteristic import BoundaryVariant, ScaledValue
from .errors import (
    ContourTooCloseError,
    InfeasibleProfileError,
    NoConvergenceError,
    SolveFailureError,
)
from .spectrum import CONTOUR_NODE_CAP, NEWTON_MAX_ITERS, NEWTON_STEP_TOL
from .state import StateVector, heat_nodes, wave_nodes

__all__ = [
    "GridSpec",
    "DiscreteGenerator",
    "DomainDatum",
    "ShiftedSolve",
    "assemble",
    "make_domain_data",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell counts for the wave segment [-1,0] and heat segment [0,1]."""

    n_wave: int
    n_heat: int

    def __post_init__(self):
        if self.n_wave < 8 or self.n_heat < 8:
            raise ValueError("grids need at least 8 cells per segment")

    @property
    def h_wave(self) -> float:
        return 1.0 / self.n_wave

    @property
    def h_heat(self) -> float:
        return 1.0 / self.n_heat

    def doubled(self) -> "GridSpec":
        return GridSpec(2 * self.n_wave, 2 * self.n_heat)


def _trapz_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n + 1, h)
    w[0] = w[-1] = h / 2.0
    return w


@dataclass
class DiscreteGenerator:
    """The generator held as its bands, with the Gram matrices of its natural geometry.

    The rows of u read u' = v and are not stored.  The rows of q = (v, w)
    are the bands (sub, main, sup) of A_qq, ``q_*``, and of A_qu in the v
    rows, ``p_*``; A_qu is zero in the w rows.  ``K_w`` and ``K_h`` hold
    the (sub, main, sup) rows of the wave and heat stiffness, ``mass_w``
    the wave trapezoid weights and ``mass_q`` the lumped mass of q.

    Every matrix is applied from these bands, and none is formed: the
    energy seminorm W_E = diag(K_w, M) (twice the energy) in ``energy``,
    and the Gram matrix W = diag(K_w + diag(mass_w), diag(mass_q)) of the
    full state norm, which is positive definite, through its factor
    (``gram_solver``, ``gram_root``).
    """

    q_sub: np.ndarray
    q_main: np.ndarray
    q_sup: np.ndarray
    p_sub: np.ndarray
    p_main: np.ndarray
    p_sup: np.ndarray
    K_w: np.ndarray
    mass_w: np.ndarray
    K_h: np.ndarray
    mass_q: np.ndarray
    grid: GridSpec
    variant: BoundaryVariant

    @property
    def dim(self) -> int:
        return self.n_u + len(self.mass_q)

    @property
    def n_u(self) -> int:
        return self.grid.n_wave + (1 if self.variant is BoundaryVariant.NEUMANN else 0)

    def pack_state(self, x: StateVector) -> np.ndarray:
        """Stack (u, v, w) into generator coordinates, dropping tied values."""
        if x.n_wave != self.grid.n_wave or x.n_heat != self.grid.n_heat:
            raise ValueError("state grids do not match the generator grid")
        if x.variant is not self.variant:
            raise ValueError(
                f"{x.variant.name.lower()} state given to a "
                f"{self.variant.name.lower()} generator"
            )
        if self.variant is BoundaryVariant.NEUMANN:
            parts = [x.u, x.v, x.w[1:-1]]
        else:
            parts = [x.u[1:], x.v[1:], x.w[1:-1]]
        return np.concatenate(parts)

    def unpack(self, z: np.ndarray) -> StateVector:
        nu = self.n_u
        n_w, n_h = self.grid.n_wave, self.grid.n_heat
        u_part, v_part, w_inner = z[:nu], z[nu : 2 * nu], z[2 * nu :]
        if self.variant is BoundaryVariant.NEUMANN:
            u, v = u_part, v_part
        else:
            u = np.concatenate([[0.0 * z[0]], u_part])
            v = np.concatenate([[0.0 * z[0]], v_part])
        w = np.concatenate([[v[-1]], w_inner, [0.0 * z[0]]])
        assert len(u) == n_w + 1 and len(w) == n_h + 1
        return StateVector(u=u, v=v, w=w, variant=self.variant)

    def energy(self, z: np.ndarray):
        """Half the energy seminorm z^T W_E z of a real state (a float) or of each row of a block.

        W_E z adds the sub, main and super terms of W_E = diag(K_w, M) to
        zeros in CSR row order, and each row's dot is one BLAS dot (``np.vecdot``
        calls the one ``@`` does): the value is bitwise that of the CSR form.
        """
        nu, K_w = self.n_u, self.K_w
        w_z = np.zeros_like(z)
        w_z[..., 1:nu] += K_w[1:, 0] * z[..., : nu - 1]
        w_z[..., :nu] += K_w[:, 1] * z[..., :nu]
        w_z[..., : nu - 1] += K_w[:-1, 2] * z[..., 1:nu]
        w_z[..., nu:] += self.mass_q * z[..., nu:]
        energy = 0.5 * np.vecdot(z, w_z)
        return float(energy) if z.ndim == 1 else energy

    @cached_property
    def _gram_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """pttrf's (d, e) of W's u block: K_w + diag(mass_w) = L diag(d) L^T.

        L is unit lower bidiagonal with subdiagonal e.
        """
        d, e, info = dpttrf(self.K_w[:, 1] + self.mass_w, self.K_w[:-1, 2])
        if info != 0:
            raise SolveFailureError(f"Gram matrix is not positive definite (pttrf info {info})")
        return d, e

    def gram_solver(self):
        """W^-1 as a function of a complex vector.

        The u block by pttrs on the pttrf factor of W's tridiagonal u block,
        the q block by its diagonal mass.
        """
        nu, mass_q = self.n_u, self.mass_q
        d, e = self._gram_factor
        e = e.astype(complex)

        def solve(x: np.ndarray) -> np.ndarray:
            out = np.empty(len(x), dtype=complex)
            out[:nu] = x[:nu]
            _, info = zpttrs(d, e, out[:nu], overwrite_b=1)
            if info != 0:
                raise SolveFailureError(f"pttrs info {info}")
            np.divide(x[nu:], mass_q, out=out[nu:])
            return out

        return solve

    def gram_root(self):
        """Products with F and F^T, where W = F F^T, as functions of a complex vector.

        F = diag(L diag(d)^(1/2), M^(1/2)) from the pttrf factor
        L diag(d) L^T of W's u block and the diagonal q-block mass M:
        each product is one bidiagonal product and two scalings.
        """
        nu = self.n_u
        d, e = self._gram_factor
        root_d, root_m = np.sqrt(d), np.sqrt(self.mass_q)

        def times_f(y: np.ndarray) -> np.ndarray:
            out = np.empty(len(y), dtype=complex)
            out_u = out[:nu]
            np.multiply(root_d, y[:nu], out=out_u)
            out_u[1:] += e * out_u[:-1]
            np.multiply(root_m, y[nu:], out=out[nu:])
            return out

        def times_f_t(x: np.ndarray) -> np.ndarray:
            out = np.empty(len(x), dtype=complex)
            out_u = out[:nu]
            out_u[:] = x[:nu]
            out_u[:-1] += e * x[1:nu]
            out_u *= root_d
            np.multiply(root_m, x[nu:], out=out[nu:])
            return out

        return times_f, times_f_t

    def _factor_t(self, sigma, guard: bool) -> list:
        """gttrf's factors (dl, d, du, du2, ipiv) and info of T at one shift, or per shift.

        The bands of a 1-D complex array of shifts are one broadcast array, a
        row per shift.  With ``guard`` a shift that is singular to working
        precision raises SolveFailureError: gttrf meets an exactly zero pivot,
        or the smallest pivot is at most dim(T) eps times T's largest entry.
        """
        nu, many = self.n_u, isinstance(sigma, np.ndarray)
        shifts = sigma[:, None] if many else sigma
        # (sigma I - A_qq) D with D = diag(sigma I_u, I_w): sigma scales the first nu columns
        main = shifts - self.q_main
        main[..., :nu] *= shifts
        main[..., :nu] -= self.p_main
        sub = np.empty(main.shape[:-1] + self.q_sub.shape, complex)
        sup = np.empty_like(sub)
        sub[...], sup[...] = -self.q_sub, -self.q_sup
        sub[..., :nu] *= shifts
        sup[..., : nu - 1] *= shifts
        sub[..., : nu - 1] -= self.p_sub
        sup[..., : nu - 1] -= self.p_sup
        factors = []
        for shift, *bands in zip(sigma, sub, main, sup) if many else [(sigma, sub, main, sup)]:
            dl, d, du, du2, ipiv, info = zgttrf(*bands)
            if guard and (info > 0 or np.abs(d).min() <= len(d) * np.finfo(float).eps
                          * max(np.abs(band).max() for band in bands)):
                raise SolveFailureError(f"sigma I - A_h is singular at sigma = {shift}")
            factors.append(((dl, d, du, du2, ipiv), info))
        return factors

    def _det_t(self, sigma, guard: bool = False) -> ScaledValue:
        """det T(sigma) = det(sigma I - A_h) from gttrf's pivots, reduced along the last axis.

        At a root, where gttrf meets an exactly zero pivot, mantissa and log scale are 0.
        """
        factors = self._factor_t(sigma, guard)
        if many := isinstance(sigma, np.ndarray):
            d, ipiv = (np.array([lu[k] for lu, _ in factors]).reshape(len(factors), -1)
                       for k in (1, 4))
            root = np.array([info > 0 for _, info in factors], dtype=bool)
            d[root] = 1.0
        else:
            [((_, d, _, _, ipiv), info)] = factors
            if info > 0:
                return ScaledValue(0j, 0.0)
        mag = np.abs(d)
        # gttrf's ipiv[i] (1-based) is i + 1, or i + 2 after an interchange
        n = d.shape[-1]
        mantissa = (d / mag).prod(-1) * (-1.0) ** (ipiv.sum(-1) - n * (n + 1) // 2)
        log_scale = np.log(mag).sum(-1)
        if not many:
            return ScaledValue(complex(mantissa), float(log_scale))
        mantissa[root], log_scale[root] = 0.0, 0.0
        return ScaledValue(mantissa, log_scale)

    def char_det(self, sigma) -> ScaledValue:
        """The discrete characteristic determinant det(sigma I - A_h), scaled.

        ``ShiftedSolve`` eliminates x_v, which leaves T(sigma) = S D with
        S the Schur complement and D = diag(sigma I_u, I_w), so
        det(sigma I - A_h) = sigma^n_u det S = det T(sigma), a polynomial in
        sigma for every complex sigma, 0 included.  ``log_scale`` is the sum
        of log |pivot| of T's gttrf factors; ``mantissa`` is the product of
        the pivot phases, with a factor -1 for each row interchange.  An
        array of points gives arrays of both fields.
        """
        if np.ndim(sigma) == 0:
            return self._det_t(complex(sigma))
        points = np.asarray(sigma, dtype=complex)
        return ScaledValue(*(v.reshape(points.shape) for v in self._det_t(points.ravel())))

    def eigenvalues_near(self, seeds) -> np.ndarray:
        """One discrete eigenvalue per seed: a secant root of ``char_det``.

        The secant step uses the ratio of successive determinants, whose
        log scales are subtracted before exponentiating, so nothing
        overflows.  It stops when the step is at most NEWTON_STEP_TOL
        max(|sigma|, 1), or at an iterate where gttrf meets a zero pivot.
        When a step below sqrt(eps) max(|sigma|, 1) is followed by one no
        smaller, the values are round-off at the determinant's floor and
        the iterate of least |det| is returned.  A seed that is singular by
        ``ShiftedSolve``'s pivot rule (0 for the Neumann kernel) raises
        SolveFailureError; NEWTON_MAX_ITERS steps without convergence raise
        NoConvergenceError.
        """
        return np.array([self._secant_root(complex(seed)) for seed in seeds], dtype=complex)

    def _secant_root(self, seed: complex) -> complex:
        sqrt_eps = math.sqrt(np.finfo(float).eps)
        prev, f_prev = seed, self._det_t(seed, guard=True)
        # a relative sqrt(eps) offset: the first step is a forward-difference Newton step
        cur = seed + sqrt_eps * max(abs(seed), 1.0)
        best, best_log, last_step = seed, f_prev.log_scale, math.inf
        for _ in range(NEWTON_MAX_ITERS):
            f_cur = self._det_t(cur)
            if f_cur.mantissa == 0:
                return cur
            if f_cur.log_scale < best_log:  # the mantissa has modulus 1
                best, best_log = cur, f_cur.log_scale
            # f_prev / f_cur, its exponent clipped: beyond it the step is below any tolerance
            ratio = (f_prev.mantissa / f_cur.mantissa) * math.exp(
                min(f_prev.log_scale - f_cur.log_scale, 700.0))
            if ratio == 1:  # equal values: the secant has no slope
                break
            step = (cur - prev) / (1.0 - ratio)
            prev, f_prev, cur = cur, f_cur, cur - step
            scale = max(abs(cur), 1.0)
            if abs(step) <= NEWTON_STEP_TOL * scale:
                return cur
            # past sqrt(eps) a secant step shrinks superlinearly unless the values
            # are round-off in det: the iterates wander at its floor, a stall
            if abs(step) >= last_step and last_step <= sqrt_eps * scale:
                return best
            last_step = abs(step)
        raise NoConvergenceError(f"secant iteration on det(sigma I - A_h) from {seed} "
                                 f"did not converge within {NEWTON_MAX_ITERS} steps")

    def count_eigenvalues(self, center: complex, radius: float) -> int:
        """Discrete eigenvalues inside the circle |sigma - center| = radius.

        The winding number of ``char_det``'s mantissa phase around the
        circle.  The node count starts at 16 and is doubled until two
        successive levels give the same count, up to CONTOUR_NODE_CAP nodes.
        Each level keeps the mantissas of the level before, its even nodes,
        and evaluates only its odd nodes, as one array: every node is one
        gttrf factorization, made once.  det(sigma I - A_h) is a polynomial: there
        is no branch cut.  A node where gttrf meets a zero pivot raises
        ContourTooCloseError.
        """
        prev = None
        n, k = 16, np.arange(16)
        while n <= CONTOUR_NODE_CAP:
            nodes = center + radius * np.exp(2j * math.pi * k / n)
            added = self.char_det(nodes).mantissa
            if not added.all():
                raise ContourTooCloseError(f"eigenvalue on the contour at "
                                           f"{nodes[added == 0][0]}")
            # k/n and 2k/2n are the same node bitwise: the level before holds the even ones
            mantissa = added if prev is None else np.stack([mantissa, added], axis=1).ravel()
            turns = np.angle(np.roll(mantissa, -1) / mantissa).sum() / (2 * math.pi)
            cur = round(turns)
            if cur == prev:
                return cur
            prev, n = cur, 2 * n
            k = np.arange(1, n, 2)
        raise NoConvergenceError(
            f"winding number failed to stabilize below {CONTOUR_NODE_CAP} contour nodes")


class ShiftedSolve:
    """(sigma I - A_h) x = y for one complex shift sigma, factored once.

    The displacement rows of A_h read u' = v, so x_v = sigma x_u - y_u.
    Substituting it into the velocity and temperature rows q = (v, w)
    leaves, for t = (x_u, x_w),

        T t = y_q + (sigma I - A_qq) (y_u, 0),
        T = (sigma I - A_qq) D - (A_qu, 0),   D = diag(sigma I_u, I_w),

    tridiagonal because A_qq is, and A_qu is tridiagonal in the v rows and
    zero in the w rows.  The diagonals of T are built from the generator's
    bands for every complex sigma, 0 included; T is factored by LAPACK
    gttrf (LU with partial pivoting) and ``solve`` and ``solve_adjoint``
    apply (sigma I - A_h)^-1 and its conjugate transpose with gttrs.

    The shift is singular, and SolveFailureError is raised, when gttrf
    meets an exactly zero pivot or when the smallest pivot is at most
    n eps times the largest entry of T (n = dim T): T is then singular to
    working precision, as it is at sigma = 0 for the Neumann kernel.
    """

    def __init__(self, disc: DiscreteGenerator, sigma: complex):
        self._n_u, self.sigma = disc.n_u, complex(sigma)
        [(self._lu, _)] = disc._factor_t(self.sigma, guard=True)
        nu = self._n_u
        # (sigma I - A_qq) (y_u, 0) reads these bands and reaches row n_u
        self._lift = self.sigma - disc.q_main[:nu]
        self._q_sub, self._q_sup = disc.q_sub[:nu], disc.q_sup[: nu - 1]

    def solve(self, y: np.ndarray) -> np.ndarray:
        """x = (sigma I - A_h)^-1 y."""
        nu = self._n_u
        y_u = y[:nu]
        rhs = y[nu:].astype(complex)
        rhs[:nu] += self._lift * y_u
        rhs[: nu - 1] -= self._q_sup * y_u[1:]
        rhs[1 : nu + 1] -= self._q_sub * y_u
        t = self._gttrs(rhs, "N")
        x = np.empty(len(y), dtype=complex)
        x[:nu] = t[:nu]
        np.multiply(self.sigma, t[:nu], out=x[nu : 2 * nu])
        x[nu : 2 * nu] -= y_u
        x[2 * nu :] = t[nu:]
        return x

    def solve_adjoint(self, y: np.ndarray) -> np.ndarray:
        """x = (sigma I - A_h)^-H y.

        ``solve`` lifts y to the right-hand side of T, solves, and rebuilds
        x_v; this applies the conjugate transpose of each step in reverse.
        """
        nu = self._n_u
        y_v = y[nu : 2 * nu]
        rhs = y[nu:].astype(complex)
        rhs[:nu] *= self.sigma.conjugate()
        rhs[:nu] += y[:nu]
        s = self._gttrs(rhs, "C")
        x = np.empty(len(y), dtype=complex)
        x[nu:] = s
        x_u = x[:nu]
        np.multiply(self._lift.conj(), s[:nu], out=x_u)
        x_u -= self._q_sub * s[1 : nu + 1]
        x_u[1:] -= self._q_sup * s[: nu - 1]
        x_u -= y_v
        return x

    def _gttrs(self, rhs: np.ndarray, trans: str) -> np.ndarray:
        out, info = zgttrs(*self._lu, rhs, trans=trans, overwrite_b=1)
        if info != 0:
            raise SolveFailureError(f"gttrs info {info}")
        return out.ravel()


def _stiffness_rows(main: np.ndarray, h: float) -> np.ndarray:
    """(sub, main, sup) per row of a lumped stiffness with off-diagonals -1/h."""
    rows = np.zeros((len(main), 3))
    rows[1:, 0] = rows[:-1, 2] = -1.0 / h
    rows[:, 1] = main
    return rows


def assemble(grid: GridSpec, variant: BoundaryVariant) -> DiscreteGenerator:
    """Assemble the discrete generator as its bands.

    K_w is the lumped piecewise-linear wave stiffness, natural at both ends
    (Dirichlet drops the node at xi = -1), K_h the heat stiffness on dofs
    0..n_h-1 (dof 0 is the interface, node n_h is eliminated), and
    M = diag(mass_q) the lumped mass of q = (v, w), whose interface slot
    n_u - 1 holds both half cells.  K_h sits in q as one tridiagonal block
    from that slot on:

        A = [[0, (I, 0)], [-M^-1 (K_w; 0), -M^-1 K_h]],   W_diss = diag(0, K_h),
        W = diag(K_w + diag(mass_w), M),   W_E = diag(K_w, M),

    with W_diss the heat-gradient dissipation form.

    Every band value of A_qu and A_qq is one product of a stiffness value
    with -1/mass_q.
    """
    n_w, n_h = grid.n_wave, grid.n_heat
    hw, hh = grid.h_wave, grid.h_heat
    kw_main = np.full(n_w + 1, 2.0 / hw)
    kw_main[0] = kw_main[-1] = 1.0 / hw
    mass_w = _trapz_weights(n_w, hw)
    if variant is not BoundaryVariant.NEUMANN:
        kw_main, mass_w = kw_main[1:], mass_w[1:]
    nu = len(kw_main)
    kh_main = np.full(n_h, 2.0 / hh)
    kh_main[0] = 1.0 / hh
    K_w, K_h = _stiffness_rows(kw_main, hw), _stiffness_rows(kh_main, hh)

    mass_q = np.concatenate([mass_w, np.full(n_h - 1, hh)])
    mass_q[nu - 1] += hh / 2.0
    neg_inv = -(1.0 / mass_q)
    p = neg_inv[:nu, None] * K_w  # A_qu in the v rows
    q = np.zeros((len(mass_q), 3))  # A_qq, -M^-1 K_h from the interface slot on
    q[nu - 1 :] = neg_inv[nu - 1 :, None] * K_h
    # the product with K_h's zero sub corner is -0.0; + 0.0 gives the +0.0
    # that a CSR form of A, which stores no zeros, reads back at that slot
    q += 0.0
    return DiscreteGenerator(q[1:, 0], q[:, 1], q[:-1, 2], p[1:, 0], p[:, 1], p[:-1, 2],
                             K_w, mass_w, K_h, mass_q, grid, variant)


# ---------------------------------------------------------------------------
# domain-data profiles


class _CosSum:
    """Finite sum of amp*cos(freq*x + phase) atoms, closed under d/dx."""

    def __init__(self, atoms):
        self.atoms = [tuple(map(float, a)) for a in atoms]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for amp, freq, phase in self.atoms:
            out = out + amp * np.cos(freq * x + phase)
        return out

    def deriv(self) -> "_CosSum":
        return _CosSum(
            [(amp * freq, freq, phase + math.pi / 2) for amp, freq, phase in self.atoms]
        )


class _ShiftedPoly:
    """Polynomial in (sign*x + shift); derivatives pick up the sign."""

    def __init__(self, coeffs, sign: float = 1.0, shift: float = 0.0):
        self.poly = np.polynomial.Polynomial(coeffs)
        self.sign = float(sign)
        self.shift = float(shift)

    def __call__(self, x):
        return self.poly(self.sign * np.asarray(x, dtype=float) + self.shift)

    def deriv(self) -> "_ShiftedPoly":
        d = _ShiftedPoly([0.0], self.sign, self.shift)
        d.poly = self.poly.deriv() * self.sign
        return d


def _in_tau(coeffs):  # polynomial in (xi + 1)
    return _ShiftedPoly(coeffs, sign=1.0, shift=1.0)


def _in_sigma(coeffs):  # polynomial in (1 - xi)
    return _ShiftedPoly(coeffs, sign=-1.0, shift=1.0)


_PI = math.pi

_PROFILES: dict[tuple[str, str, int], tuple] = {
    # Neumann: u'(-1)=0, w(1)=0, v(0)=w(0), u'(0)=w'(0)
    ("neumann", "smooth_bump", 1): (
        _CosSum([(1.0, _PI, _PI)]),          # cos(pi (xi + 1))
        _CosSum([(0.5, _PI, 0.0)]),          # 0.5 cos(pi xi)
        _CosSum([(0.5, _PI / 2, 0.0)]),      # 0.5 cos(pi xi / 2)
    ),
    ("neumann", "smooth_bump", 2): (
        _CosSum([(1.0, _PI, _PI)]),
        _CosSum([(-4.0, _PI, 0.0)]),
        _CosSum([(-4.0, _PI / 2, 0.0)]),
    ),
    ("neumann", "polynomial", 1): (
        _in_tau([0.0, 0.0, 3.0, -1.0]),
        _ShiftedPoly([-4.0, 1.0, 1.0]),
        _ShiftedPoly([-4.0, 3.0, 1.0]),
    ),
    ("neumann", "polynomial", 2): (
        _in_tau([0.0, 0.0, 1.0, 1.0]),
        _in_tau([-4.5, 0.0, 1.0, -4.0]),
        _in_sigma([0.0, -26.0 / 3.0, 0.0, 1.0, 1.0 / 6.0]),
    ),
    # Dirichlet: u(-1)=v(-1)=0, w(1)=0, v(0)=w(0), u'(0)=w'(0)
    ("dirichlet", "smooth_bump", 1): (
        _CosSum([(1.0, _PI, _PI / 2)]),      # sin(pi (xi + 1))
        _CosSum([(1.0, _PI, -_PI / 2)]),     # sin(pi xi)
        _CosSum([(1.0, _PI, _PI / 2)]),      # -sin(pi (1 - xi))
    ),
    ("dirichlet", "smooth_bump", 2): (
        _in_tau([0.0, 1.0, 0.0, 1.0]),
        _in_tau([0.0, 1.0, -14.0, 7.0]),
        _in_sigma([0.0, -7.0, 0.0, 1.0]),
    ),
    ("dirichlet", "polynomial", 1): (
        _in_tau([0.0, 0.0, 1.0]),
        _in_tau([0.0, -3.0]),
        _in_sigma([0.0, -4.0, 1.0]),
    ),
    ("dirichlet", "polynomial", 2): (
        _in_tau([0.0, 1.0, 0.0, 1.0]),
        _in_tau([0.0, 1.0, -14.0, 7.0]),
        _in_sigma([0.0, -7.0, 0.0, 1.0]),
    ),
}


class DomainDatum(NamedTuple):
    state: StateVector
    certificate: dict[str, float]
    profile: str
    k: int


def _constraint_residuals(u, v, w, variant: BoundaryVariant, k: int) -> dict[str, float]:
    up, vp, wp = u.deriv(), v.deriv(), w.deriv()
    upp, wpp = up.deriv(), wp.deriv()
    wppp = wpp.deriv()
    cert: dict[str, float] = {}
    if variant is BoundaryVariant.NEUMANN:
        cert["u_end"] = float(abs(up(-1.0)))
    else:
        cert["u_end"] = float(abs(u(-1.0)))
        cert["v_end"] = float(abs(v(-1.0)))
    cert["w_end"] = float(abs(w(1.0)))
    cert["interface_value"] = float(abs(v(0.0) - w(0.0)))
    cert["interface_flux"] = float(abs(up(0.0) - wp(0.0)))
    if k >= 2:
        # the image (v, u'', w'') must satisfy the same conditions
        if variant is BoundaryVariant.NEUMANN:
            cert["image_u_end"] = float(abs(vp(-1.0)))
        else:
            cert["image_u_end"] = float(abs(v(-1.0)))
            cert["image_v_end"] = float(abs(upp(-1.0)))
        cert["image_w_end"] = float(abs(wpp(1.0)))
        cert["image_interface_value"] = float(abs(upp(0.0) - wpp(0.0)))
        cert["image_interface_flux"] = float(abs(vp(0.0) - wppp(0.0)))
    return cert


def make_domain_data(
    profile: str,
    grid: GridSpec,
    variant: BoundaryVariant,
    k: int = 1,
    custom: dict | None = None,
) -> DomainDatum:
    """Construct initial data satisfying the generator-domain constraints.

    Profiles ``smooth_bump`` and ``polynomial`` are built-in closed forms;
    ``custom`` takes polynomial coefficients {"u": [...], "v": [...],
    "w": [...]} in powers of (xi+1), (xi+1) and (1-xi) respectively and is
    rejected if the constraints are violated.  ``k=2`` data additionally
    keeps its image under the generator inside the domain.
    """
    if k not in (1, 2):
        raise ValueError("smoothness order k must be 1 or 2")
    if profile == "custom":
        if custom is None:
            raise InfeasibleProfileError("custom profile needs coefficient arrays")
        u = _in_tau(custom["u"])
        v = _in_tau(custom["v"])
        w = _in_sigma(custom["w"])
    else:
        try:
            u, v, w = _PROFILES[(variant.value, profile, k)]
        except KeyError:
            raise InfeasibleProfileError(
                f"no profile {profile!r} for {variant.value}, k={k}"
            ) from None
    cert = _constraint_residuals(u, v, w, variant, k)
    worst = max(cert.values())
    if worst > 1e-10:
        raise InfeasibleProfileError(
            f"profile violates domain constraints (worst residual {worst:.2e})"
        )
    xw, xh = wave_nodes(grid.n_wave), heat_nodes(grid.n_heat)
    state = StateVector(
        u=u(xw), v=v(xw), w=w(xh), variant=variant, u_prime=u.deriv()(xw)
    )
    return DomainDatum(state=state, certificate=cert, profile=profile, k=k)
