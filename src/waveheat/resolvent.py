"""Closed-form resolvent of the wave-heat generator along the imaginary axis.

For a real frequency s the resolvent equation (is - A)x = y with data
y = (f, g, h) reduces to two boundary-value problems joined at the
interface.  Variation of constants gives

    u(xi) = a(s) cos(s (xi+1)) - U(xi),
    w(xi) = -b(s) sinh(sqrt(is) (1-xi)) + W(xi),      v = is u - f,

where U, W are particular integrals of the data against oscillatory and
exponentially growing kernels, and (a, b) solve a 2x2 system whose
determinant is  (is)^(3/2) cos(s) cosh(sqrt(is)) - s sin(s) sinh(sqrt(is)),
an imaginary-axis evaluation of the Neumann characteristic determinant.
The quotients of exponentially large terms in (a, b) are computed as
mantissa ratios with log-scale subtraction.  Everything the data do not
enter (kernel quadrature, exponentials, the determinant and the
homogeneous profiles) is set up once per frequency and grid, by the
constructor of ``ClosedFormResolvent``.  The data grids have cells of one
width, so the kernel quadrature folds into two weights per cell: each
exponential splits into a node, a cell and a panel factor, each of modulus
at most exp(|Re kappa| (x_n - x_0)) on the grid x_0 < ... < x_n, and a
particular integral costs a few operations and one prefix sum per cell.

The data y and the solution x are both ``StateVector``s, y = (f, g, h)
held as (u, v, w).  These formulas hold for the Neumann variant, and
``ClosedFormResolvent.solve`` raises VariantError for data of another
variant.  The discrete norm estimator works for either variant through the
assembled generator.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import warnings
from typing import Callable, NamedTuple

import numpy as np

from .characteristic import (
    BoundaryVariant,
    _cosh_sinh_hat,
    char_fn_scaled,
    principal_sqrt,
)
from .discretization import DiscreteGenerator, GridSpec, ShiftedSolve, assemble
from .errors import (
    DegenerateInputError,
    NoConvergenceError,
    OverflowEvaluationError,
    ResolutionError,
    SingularSystemError,
    SolveFailureError,
    VariantError,
)
from .state import StateVector, _norm_X, heat_nodes, wave_nodes

__all__ = [
    "ClosedFormResolvent",
    "ResolventSolution",
    "apply_resolvent",
    "resolvent_norm_discrete",
    "resolvent_norm_sampled",
    "required_grid",
    "snap_to_resonance",
    "sweep",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)
_MAX_SQRT_REAL = 600.0  # exp(Re sqrt(is)) guard for the unscaled heat kernels
_DIRICHLET_BRANCH_0 = -0.7256 + 0.9716j  # continuous root of Dirichlet branch 0, to 4 digits
# Node values per stacked (rows, nodes) array of resolvent_norm_sampled: its
# trials go in chunks of this many entries, one row when a row is longer.
# Stacking every trial at once raised the benchmark's peak RSS by 1.5 MB on
# `verify` and 2.3 MB on the `envelope` sweep; 2048 entries (32 KiB) kept
# both within 0.1 MB, and 4096 cost `verify` 0.8 MB.
_STACK_ENTRIES = 2048


class _KernelIntegrals:
    """Causal sinh and cosh kernel integrals of piecewise-linear data.

    Called with node data d, returns (S, C) at every node x_j of the
    increasing grid x, with
        S(x_j) = int_{x_0}^{x_j} sinh(kappa (x_j - r)) d(r) dr
        C(x_j) = int_{x_0}^{x_j} cosh(kappa (x_j - r)) d(r) dr
    and d linear on each cell.  Every cell is split into the same number
    of equal panels, none wider than a fifth of 2 pi/|kappa| or 1/4, with
    6-point Gauss-Legendre on each.  The cells must have one width h, up to
    rounding (ValueError otherwise), so the exponential at a point x_c + h t
    of cell c is a cell factor exp(-/+kappa (x_c - x_ref)) times a panel
    factor exp(-/+kappa h t) that all cells share, with x_ref = x_0 for the
    growing and x_n for the decaying exponential.  The Gauss sums thereby
    fold into per-cell weights (A_c, B_c) of d_c and d_{c+1} - d_c, built
    once from one exponential per cell and factor and the 6m panel
    exponentials; a call forms the moments d_c A_c + (d_{c+1} - d_c) B_c
    and their prefix sums.  Each exponential is split into a node, a cell
    and a panel factor, each of modulus at most exp(|Re kappa| (x_n - x_0)).
    """

    def __init__(self, kappa: complex, x: np.ndarray):
        dx = np.diff(x)
        h = (x[-1] - x[0]) / len(dx)
        # linspace widths stay within eps max|x| of their mean
        if np.abs(dx - h).max() > 4.0 * np.finfo(float).eps * max(abs(x[0]), abs(x[-1])):
            raise ValueError("kernel integrals need cells of one width")
        width = min(2.0 * math.pi / (5.0 * max(abs(kappa), 1.0)), 0.25)
        m = max(1, math.ceil(dx.max() / width))
        # quadrature points of a cell as fractions of its width, panel by panel
        frac = ((np.arange(m)[:, None] + 0.5 * (1.0 + _GL_NODES)) / m).ravel()
        weights = np.tile(_GL_WEIGHTS / (2 * m), m)

        def fold(cell, panel):
            # the weights (A_c, B_c) of d_c and d_{c+1} - d_c in cell c's moment
            wp = weights * panel
            scale = dx * cell
            return scale * wp.sum(), scale * (wp * frac).sum()

        # (node factor, cell weights) of the growing and the decaying exponential
        self._grow = np.exp(kappa * (x - x[0])), fold(
            np.exp(-kappa * (x[:-1] - x[0])), np.exp(-kappa * h * frac))
        self._decay = np.exp(kappa * (x[-1] - x)), fold(
            np.exp(kappa * (x[:-1] - x[-1])), np.exp(kappa * h * frac))

    def __call__(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(S, C) of node data d along its last axis; rows of stacked data are independent."""
        start, jump = d[..., :-1], d[..., 1:] - d[..., :-1]

        def prefix(cell_weights):
            a, b = cell_weights
            sums = np.zeros(d.shape, dtype=complex)
            np.cumsum(start * a + jump * b, axis=-1, out=sums[..., 1:])
            return sums

        (grow_x, grow_w), (decay_x, decay_w) = self._grow, self._decay
        grow = grow_x * prefix(grow_w)
        decay = decay_x * prefix(decay_w)
        return 0.5 * (grow - decay), 0.5 * (grow + decay)


def _check_segment(segment: str, data: np.ndarray, nodes: np.ndarray) -> None:
    if len(data) != len(nodes):
        raise ValueError(f"{segment} data on {len(data) - 1} cells given to a resolvent "
                         f"on {len(nodes) - 1}")


class ResolventSolution(NamedTuple):
    """``ClosedFormResolvent.solve``'s result for data y."""

    state: StateVector
    a: complex
    b: complex
    rhs: np.ndarray  # (p, q), the right-hand side of the interface system
    wave: tuple[np.ndarray, np.ndarray]  # (U, U') at the wave nodes
    heat: tuple[np.ndarray, np.ndarray]  # (W, W') at the heat nodes


class ClosedFormResolvent:
    """The closed-form resolvent (is - A)^(-1) at frequency s on one grid (Neumann variant).

    The constructor holds every part that no data enter: the node grids,
    the string kernel (kappa = is) and the reflected rod kernel
    (kappa = sqrt(is)), the scaled interface determinant ``det`` and the
    interface matrix ``M`` with det M = det, the homogeneous profiles
    cos/sin(s (xi+1)) and sinh(sqrt(is) (1-xi)), and the carriers of
    ``random_triple``.  It rejects s = 0, Re sqrt(is) > 600 (the unscaled
    heat kernels) and an underflowing determinant, and warns for |s| < 2,
    outside the calibrated frequency range.  The methods do the per-data work.

    The per-data work runs on stacked data: ``random_rows`` draws and
    ``solve_rows`` solves (rows, nodes) arrays, and ``random_triple`` and
    ``solve`` are their one-row case.  The draws, kernel moments, prefix
    sums, particular integrals and solution profiles are elementwise or
    run along the last axis, so each row keeps the bits it has alone.  The
    interface constants (a, b) stay numpy scalars, computed row by row:
    their numerator cancels about 10 digits at s = 3000, and numpy's array
    loops round complex products differently from its scalar arithmetic.
    Array arithmetic moved a by 3.1e-7 there, and it changed 80 of 276
    sampled norms on ``required_grid(s, 2.5)`` for 2.5 <= s <= 3000, by up
    to 9e-13 relative at s = 1000 and 2.4e-6 at s = 3000.
    ``resolvent_norm_sampled`` stacks at most ``_STACK_ENTRIES`` = 2048 node
    values per array, which kept peak RSS within 0.1 MB of the one-trial
    loop on the ``verify`` and ``envelope`` benchmark workloads.
    """

    def __init__(self, s: float, n_wave: int, n_heat: int):
        if s == 0:
            raise DegenerateInputError("frequency s must be nonzero")
        if abs(s) < 2.0:
            warnings.warn(
                f"|s| = {abs(s):g} < 2 is outside the calibrated frequency range",
                stacklevel=2,
            )
        self.s = s
        # the guard precedes the kernels, whose panel count grows with |s|
        self.z = z = principal_sqrt(complex(0.0, s))
        if z.real > _MAX_SQRT_REAL:
            raise OverflowEvaluationError(
                f"|s| = {abs(s):g} too large for the unscaled quadrature path"
            )
        self._xw, self._xh = xw, xh = wave_nodes(n_wave), heat_nodes(n_heat)
        self._wave = _KernelIntegrals(1j * s, xw)
        self._heat = _KernelIntegrals(z, 1.0 - xh[::-1])
        self._cosh_hat, self._sinh_hat = cosh_hat, sinh_hat = _cosh_sinh_hat(z)
        det = char_fn_scaled(complex(0.0, s), BoundaryVariant.NEUMANN).times(1j * s)
        if det.abs_log() < math.log(1e-300):
            raise SingularSystemError(f"scaled determinant underflow at s = {s}")
        self.det = det
        r_real = z.real  # = |Re z|, the scale the hat functions divide out
        self.M = np.array(
            [
                [1j * s * math.cos(s), sinh_hat * math.exp(r_real)],
                [s * math.sin(s), z * cosh_hat * math.exp(r_real)],
            ],
            dtype=complex,
        )
        phase = s * (xw + 1.0)
        # Real profiles are held as complex (x, 0), which is what a complex
        # product casts a real operand to: the products keep their bits and
        # skip the cast.
        self._cos, self._sin = np.cos(phase).astype(complex), np.sin(phase).astype(complex)
        self._sinh = np.sinh(z * (1.0 - xh))
        osc, layer = np.exp(1j * s * xw), np.exp(-z * xh)
        self._carriers = (
            (xw.astype(complex), osc.real.astype(complex), osc.imag.astype(complex)),
            (xh.astype(complex), layer.real.astype(complex), layer.imag.astype(complex)),
        )

    def particular_wave(self, y: StateVector) -> tuple[np.ndarray, np.ndarray]:
        """Particular integral of the forced oscillator at every wave node.

        Returns (U, U') with
            U(xi)  = (1/s) int_{-1}^{xi} sin(s (xi - r)) (i s f(r) + g(r)) dr
            U'(xi) = int_{-1}^{xi} cos(s (xi - r)) (i s f(r) + g(r)) dr
        for the piecewise-linear data (f, g) = (y.u, y.v): the kernel
        integrals with kappa = is.
        """
        _check_segment("wave", y.u, self._xw)
        return self._wave_rows(y.u, y.v)

    def particular_heat(self, y: StateVector) -> tuple[np.ndarray, np.ndarray]:
        """Particular integral of the forced diffusion operator at every heat node.

        Returns (W, W') with
            W(xi)  = -(1/sqrt(is)) int_xi^1 sinh(sqrt(is) (r - xi)) h(r) dr
            W'(xi) = int_xi^1 cosh(sqrt(is) (r - xi)) h(r) dr
        for h = y.w: the kernel integrals with kappa = sqrt(is) in the
        reflected variable 1 - xi.
        """
        _check_segment("heat", y.w, self._xh)
        return self._heat_rows(y.w)

    def _wave_rows(self, f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (U, U') along the last axis of the wave data
        s = self.s
        sinh_int, cosh_int = self._wave(1j * s * f + g)
        return sinh_int / (1j * s), cosh_int

    def _heat_rows(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (W, W') along the last axis of the heat data
        sinh_int, cosh_int = self._heat(h[..., ::-1])
        return (-sinh_int / self.z)[..., ::-1], cosh_int[..., ::-1]

    def random_rows(
        self, rng: np.random.Generator, rows: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``rows`` data triples (f, g, h), stacked as (rows, nodes) arrays.

        Row k holds the triple the (k+1)-th of ``rows`` ``random_triple``
        calls would draw, bit for bit: one draw of 60 rows normals is the
        60-normal draws of those calls in turn, and every step of the
        construction is elementwise.
        """
        normals = rng.standard_normal(60 * rows).reshape(rows, 60)
        draw = iter(np.split(normals, np.cumsum([4, 4, 3, 3, 3, 3] * 3)[:-1], axis=1))

        def rpoly(x):
            # polyval(x, c) of each row's coefficients c, in polyval's order of operations
            coef = next(draw) + 1j * next(draw)
            value = coef[:, -1:] * x
            for k in range(coef.shape[1] - 2, -1, -1):
                value += coef[:, k : k + 1]
                if k:
                    value *= x
            return value

        (xw, osc_re, osc_im), (xh, layer_re, layer_im) = self._carriers
        f = rpoly(xw) + rpoly(xw) * osc_re + rpoly(xw) * osc_im
        g = rpoly(xw) + rpoly(xw) * osc_re + rpoly(xw) * osc_im
        h = rpoly(xh) + rpoly(xh) * layer_re + rpoly(xh) * layer_im
        return f, g, h

    def random_triple(self, rng: np.random.Generator) -> StateVector:
        """Random smooth data with content at the frequency scales of the problem.

        Low-order polynomials plus oscillation at rate s on the wave segment
        and an interface boundary layer on the heat segment, so that
        randomized norm sampling can excite the resonant response.  One
        draw of 60 normals holds the nine complex coefficient vectors, three
        of lengths 4, 3, 3 for each of f, g and h in turn, each vector as its
        real parts followed by its imaginary parts.  The one-row case of
        ``random_rows``.
        """
        f, g, h = self.random_rows(rng, 1)
        return StateVector(u=f[0], v=g[0], w=h[0])

    def solve_rows(self, f: np.ndarray, g: np.ndarray, h: np.ndarray) -> tuple:
        """``solve`` for stacked Neumann data rows (f, g, h), each (rows, nodes).

        Returns the fields of ``ResolventSolution``, each with a leading
        row axis, and the state as its node arrays (u, v, w, u').  Row k is
        bitwise the solution of row k alone.  The interface constants are
        computed row by row in numpy scalar arithmetic, for the reason the
        class docstring gives.
        """
        s, z, det = self.s, self.z, self.det
        wave, heat = self._wave_rows(f, g), self._heat_rows(h)
        (u_vals, u_ders), (w_vals, w_ders) = wave, heat
        rhs = np.empty((len(f), 2), dtype=complex)
        a, b = np.empty(len(f), dtype=complex), np.empty(len(f), dtype=complex)
        # Cramer's rule for M (a, b) = (p, q): the factors that no data enter
        a_p, a_q, a_scale = z * self._cosh_hat, self._sinh_hat, math.exp(z.real - det.log_scale)
        b_p, b_q, b_scale = -s * math.sin(s), 1j * s * math.cos(s), math.exp(-det.log_scale)
        for row in range(len(f)):
            p = complex(f[row, -1]) + 1j * s * u_vals[row, -1] + w_vals[row, 0]
            q = -u_ders[row, -1] - w_ders[row, 0]
            a[row] = ((a_p * p - a_q * q) / det.mantissa) * a_scale
            b[row] = ((b_p * p + b_q * q) / det.mantissa) * b_scale
            rhs[row] = p, q
        a_col, b_col = a[:, None], b[:, None]
        u = a_col * self._cos - u_vals
        u_prime = -s * a_col * self._sin - u_ders
        w = -b_col * self._sinh + w_vals
        return (u, 1j * s * u - f, w, u_prime), a, b, rhs, wave, heat

    def solve(self, y: StateVector) -> ResolventSolution:
        """x = (is - A)^(-1) y on the data grids, with its interface constants.

        Raises VariantError for Dirichlet data.  The interface system
        M (a, b) = (p, q) is solved by Cramer's rule, its exponentially
        large terms as mantissa ratios with log-scale subtraction.  The wave
        derivative is returned analytically (u_prime), not by differencing,
        so the state norm uses the exact H^1 seminorm of the closed form.
        The one-row case of ``solve_rows``.
        """
        if y.variant is not BoundaryVariant.NEUMANN:
            raise VariantError("the closed-form resolvent applies to the Neumann variant only")
        _check_segment("wave", y.u, self._xw)
        _check_segment("heat", y.w, self._xh)
        (u, v, w, u_prime), a, b, rhs, wave, heat = self.solve_rows(y.u[None], y.v[None], y.w[None])
        x = StateVector(
            u=u[0], v=v[0], w=w[0], variant=BoundaryVariant.NEUMANN, u_prime=u_prime[0]
        )
        return ResolventSolution(
            x, a[0], b[0], rhs[0], (wave[0][0], wave[1][0]), (heat[0][0], heat[1][0])
        )


def apply_resolvent(s: float, y: StateVector) -> StateVector:
    """Evaluate x = (is - A)^(-1) y on the data grids (Neumann data only)."""
    return ClosedFormResolvent(s, y.n_wave, y.n_heat).solve(y).state


# ---------------------------------------------------------------------------
# norm estimation


def required_grid(s: float, factor: float = 1.0, floor: int = 48) -> GridSpec:
    """Grid satisfying the frequency resolution rule, optionally oversampled.

    The rule asks for >= 10 wave points per wavelength 2 pi/|s| and >= 10
    heat points per boundary-layer width |s|^(-1/2).  ``factor`` must be
    positive.
    """
    if not factor > 0:
        raise ValueError(f"resolution factor must be positive, got {factor}")
    n_w = max(floor, int(math.ceil(factor * 10.0 * abs(s) / (2.0 * math.pi))))
    n_h = max(floor, int(math.ceil(factor * 10.0 * math.sqrt(abs(s)))))
    return GridSpec(n_w, n_h)


def _check_resolution(s: float, grid: GridSpec) -> None:
    need = required_grid(s, factor=1.0, floor=8)
    if grid.n_wave < need.n_wave or grid.n_heat < need.n_heat:
        raise ResolutionError(
            f"grid ({grid.n_wave}, {grid.n_heat}) below the rule "
            f"({need.n_wave}, {need.n_heat}) for s = {s:g}"
        )


def arpack_start(dim: int) -> np.ndarray:
    """Fixed ARPACK start vector, a function of the dimension only.

    ARPACK otherwise starts from a random vector, which moves converged
    eigenvalues in the last digits from one call to the next.
    """
    rng = np.random.default_rng(dim)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def _norm_operator(s: float, disc: DiscreteGenerator):
    """F^T B^(-1) W^(-1) B^(-H) F, B = is I - A_h, W = F F^T: a Hermitian PSD LinearOperator."""
    import scipy.sparse.linalg as spla  # on use: ``import waveheat`` loads no scipy.sparse

    shifted = ShiftedSolve(disc, 1j * s)
    w_solve = disc.gram_solver()
    times_f, times_f_t = disc.gram_root()
    return spla.LinearOperator(
        (disc.dim, disc.dim),
        matvec=lambda y: times_f_t(shifted.solve(w_solve(shifted.solve_adjoint(times_f(y))))),
        dtype=complex,
    )


def resolvent_norm_discrete(s: float, disc: DiscreteGenerator) -> float:
    """Operator norm of (is - A_h)^(-1) in the discrete state geometry.

    With W = F F^T, ||B^(-1)||_W = ||F^T B^(-1) F^(-T)||_2 for B = is I - A_h,
    so its square is the largest eigenvalue of the Hermitian operator
    F^T B^(-1) W^(-1) B^(-H) F, found by ARPACK in standard mode: no mass
    matrix, no shift.  F = diag(L D^(1/2), M^(1/2)) comes from the pttrf
    factor L D L^T of W's tridiagonal u block and its diagonal q block,
    and the same factor applies W^(-1); B^(-1) and B^(-H) are the
    tridiagonal elimination of ``ShiftedSolve``.  B and W enter only
    through their factors: factoring the formed product B^H W B would
    square B's condition number.

    The Krylov basis holds 4 vectors, not ARPACK's default of 20: at a
    resonance the wanted eigenvalue exceeds the next by about (pi/gap)^2,
    and halfway between two resonances the basis still converges within
    about 15 applications of the operator.
    """
    import scipy.sparse.linalg as spla

    if s == 0:
        raise DegenerateInputError("frequency s must be nonzero")
    _check_resolution(s, disc.grid)
    try:
        # ncv=4: the default 20 builds a 20-vector basis before its first test
        mu = spla.eigsh(_norm_operator(s, disc), k=1, which="LM", return_eigenvectors=False,
                        v0=arpack_start(disc.dim), ncv=4)[0]
    except spla.ArpackError as exc:
        raise NoConvergenceError(f"resolvent norm at s = {s}: {exc}") from exc
    return math.sqrt(mu)


def resolvent_norm_sampled(
    s: float, trials: int, grid: GridSpec, rng: np.random.Generator
) -> float:
    """Randomized lower bound on the resolvent norm via the closed form.

    Maximizes ||x||_X / ||y||_X over ``trials`` draws of
    ``ClosedFormResolvent.random_triple``; an independent code path from
    the matrix-based estimate.  One resolvent serves every trial.  The
    trials are drawn, solved and normed as stacked rows, in chunks of at
    most ``_STACK_ENTRIES`` node values per array, and each keeps the draw
    and the ratio it has alone.  A non-finite ratio raises
    OverflowEvaluationError naming its trial.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    resolvent = ClosedFormResolvent(s, grid.n_wave, grid.n_heat)
    chunk = max(1, _STACK_ENTRIES // (max(grid.n_wave, grid.n_heat) + 1))
    ratios = []
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite ratios raise below
        for done in range(0, trials, chunk):
            f, g, h = resolvent.random_rows(rng, min(chunk, trials - done))
            (u, v, w, u_prime), *_ = resolvent.solve_rows(f, g, h)
            ratios.append(_norm_X(u, v, w, u_prime) / _norm_X(f, g, h))
    ratios = np.concatenate(ratios)
    bad = np.flatnonzero(~np.isfinite(ratios))
    if bad.size:
        raise OverflowEvaluationError(
            f"sampled resolvent norm at s = {s:g}: trial {bad[0]} of {trials} "
            f"gave the ratio {ratios[bad[0]]}"
        )
    return float(ratios.max())


def snap_to_resonance(disc: DiscreteGenerator, s_target: float) -> tuple[float, float]:
    """Nearest discrete resonance frequency above the real axis.

    Returns (s_eff, gap) where s_eff is the imaginary part of the discrete
    eigenvalue closest to i*s_target and gap = dist(i*s_eff, spectrum of
    A_h).  Evaluating the norm at its own resonances makes the growth
    envelope grid-stable, which pointwise frequencies are not: between
    resonances the norm is O(1), and the peak positions move with the
    grid's dispersion error.

    The lumped-mass string has the dispersion relation
    y = (2/h) sin(h c/2) between a continuous frequency c and its grid
    frequency y.  Inverting it at s_target gives the nearest branch index
    n0, with c_n = (n + 1/2) pi for Neumann and n pi for Dirichlet.  The
    branches n0 - 1, n0 and n0 + 1 are seeded at their grid frequency y_n
    with the asymptotic real part -1/sqrt(2 |y_n|), and Dirichlet branch 0,
    which has no asymptotic seed, at its continuous root; ``eigenvalues_near``
    polishes them.  The three roots must be distinct and bracket s_target in
    the imaginary part, so that no root between them is left unseeded; gap
    is the distance from i*s_eff to the nearest of them.
    """
    s = abs(s_target)
    h = disc.grid.h_wave
    off = 0.5 if disc.variant is BoundaryVariant.NEUMANN else 0.0
    c = (2.0 / h) * math.asin(min(h * s / 2.0, 1.0))
    n0 = round(c / math.pi - off)
    seeds = []
    for n in (n0 - 1, n0, n0 + 1):
        y = (2.0 / h) * math.sin(h * (n + off) * math.pi / 2.0)  # 0 on Dirichlet branch 0
        seeds.append(complex(-1.0 / math.sqrt(2.0 * abs(y)), y) if y else _DIRICHLET_BRANCH_0)
    roots = disc.eigenvalues_near(seeds)
    im = roots.imag
    if not (im[0] < im[1] < im[2] and im[0] <= s <= im[2]):
        raise NoConvergenceError(
            f"roots {roots} from branches {n0 - 1}..{n0 + 1} do not bracket i*{s}")
    lam = min(roots, key=lambda e: abs(e.imag - s))
    s_eff = lam.imag
    gap = min(abs(complex(0.0, s_eff) - e) for e in roots)
    return s_eff, gap


def _with_worker(work: Callable[[], object], local: Callable[[], object]) -> tuple:
    """(local(), work()), with ``work`` run in a forked worker process while ``local`` runs here.

    The worker sends its result, or the exception it raised, back as one
    pickle over a pipe and always ends with ``os._exit``; its exception is
    raised here with the same type and message.  A worker that ends without
    a result raises SolveFailureError.  If ``local`` raises, the worker is
    killed before the exception propagates.  Every path reaps the worker,
    so no process outlives the call.  Where the platform has no ``os.fork``
    both run here, ``local`` first.

    A fork rather than a spawned interpreter: the worker starts from this
    process's imports and state, where a fresh interpreter would import
    numpy and scipy again, several times the doubled grids' 35 ms.  The
    package starts no threads of its own.
    """
    if not hasattr(os, "fork"):
        return local(), work()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the worker
        code = 1
        try:
            os.close(read_end)
            try:
                outcome = (True, work())
            except Exception as exc:
                outcome = (False, exc)
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(outcome, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with os.fdopen(read_end, "rb") as pipe:
            mine = local()
            sent = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SolveFailureError(f"worker process ended without a result (exit {code})")
    ok, value = pickle.loads(sent)
    if not ok:
        raise value
    return mine, value


def sweep(
    variant: BoundaryVariant,
    s_targets: np.ndarray,
    resolution_factor: float = 2.5,
    trials: int = 0,
    seed: int = 0,
    doubling_check: bool = False,
) -> list[dict]:
    """Resolvent-norm sweep at the discrete resonances nearest each target.

    Each row reports the effective frequency, the discrete norm, the
    randomized lower bound (if trials > 0), the spectral lower bound
    1/gap, the wave-grid size and (optionally) the relative change under
    grid doubling.

    Every target is first assembled and snapped on its resolution grid.
    With ``doubling_check``, one forked worker process (``_with_worker``)
    then assembles, snaps and norms the doubled grids, which need only each
    row's grid and s_eff, while this process computes the rows' norms in row
    order with the same rng.  Each number comes from the same code on the
    same inputs as in one process, so the rows keep their bits; a platform
    without ``os.fork`` computes the doubled norms here, after the rows.
    CPU time and peak memory read through ``RUSAGE_SELF`` leave the worker
    out; they are under ``RUSAGE_CHILDREN``.
    """
    rng = np.random.default_rng(seed)
    snapped = []
    for s_t in np.asarray(s_targets, dtype=float):
        grid = required_grid(s_t, factor=resolution_factor)
        disc = assemble(grid, variant)
        snapped.append((grid, disc, *snap_to_resonance(disc, s_t)))

    def rows() -> list[dict]:
        out = []
        for grid, disc, s_eff, gap in snapped:
            row = {
                "s": s_eff,
                "norm_discrete": resolvent_norm_discrete(s_eff, disc),
                "norm_sampled": math.nan,
                "spectral_lower_bound": 1.0 / gap,
                "grid_N": grid.n_wave,
                "doubling_change": math.nan,
            }
            if trials > 0 and variant is BoundaryVariant.NEUMANN:
                row["norm_sampled"] = resolvent_norm_sampled(s_eff, trials, grid, rng)
            out.append(row)
        return out

    def doubled() -> list[float]:
        norms = []
        for grid, _, s_eff, _ in snapped:
            disc = assemble(grid.doubled(), variant)
            s_eff2, _ = snap_to_resonance(disc, s_eff)
            norms.append(resolvent_norm_discrete(s_eff2, disc))
        return norms

    if not doubling_check:
        return rows()
    out, norms2 = _with_worker(doubled, rows)
    for row, norm2 in zip(out, norms2):
        norm = row["norm_discrete"]
        row["doubling_change"] = abs(norm2 - norm) / norm
    return out
