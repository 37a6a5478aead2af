"""Closed-form resolvent of the wave-heat generator along the imaginary axis.

For a real frequency s the resolvent equation (is - A)x = y with data
y = (f, g, h) reduces to two boundary-value problems joined at the
interface.  Variation of constants gives, with z = sqrt(is),

    u(xi) = a(s) phi(xi) - U(xi),                      v = is u - f,
    w(xi) = -b(s) sigma(xi) + W(xi),   sigma(xi) = e^(-z xi) - e^(-z (2-xi)),

with phi = cos(s (xi+1)) for the Neumann and sin(s (xi+1)) for the
Dirichlet variant.  U and W are the particular integrals of the string
and the rod (``_wave_rows``, ``_heat_rows``), W built from the decaying
halves of the rod kernel.  Every term is bounded by the data, so the 2x2
interface system for (a, b) has O(s) entries and nothing exponentially
large cancels.  Its determinant is 2 e^(-z) is D(is) for Neumann and
2 e^(-z) s D(is) for Dirichlet, with D the characteristic determinant of
the variant.  Everything the data do not enter (kernel quadrature,
exponentials, the determinant and the homogeneous profiles) is set up
once per frequency and grid, by the constructor of
``ClosedFormResolvent``.  The data grids have cells of one width, so the
kernel quadrature folds into two weights per cell: each exponential
splits into a node, a cell and a panel factor, each of modulus at most
exp(|Re kappa| (x_n - x_0)) on the grid x_0 < ... < x_n, and a
particular integral costs a few operations and one prefix sum per cell.
That split is why |s| stays below the guard Re sqrt(is) <= 600: beyond
it the rod's node factor exp(Re z) would overflow.

The data y and the solution x are both ``StateVector``s, y = (f, g, h)
held as (u, v, w), of the resolvent's variant.  The discrete norm
estimator works for either variant through the assembled generator.
"""

from __future__ import annotations

import cmath
import math
import warnings
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .characteristic import BoundaryVariant, char_fn_scaled, principal_sqrt
from .discretization import DiscreteGenerator, GridSpec, ShiftedSolve, assemble
from .errors import (
    DegenerateInputError,
    NoConvergenceError,
    OverflowEvaluationError,
    ResolutionError,
    SingularSystemError,
)
from .state import StateVector, _norm_X, heat_nodes, wave_nodes
from .worker import _with_worker

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
_MAX_SQRT_REAL = 600.0  # exp(Re sqrt(is)) guard for the split kernel exponentials
_DIRICHLET_BRANCH_0 = -0.7256 + 0.9716j  # continuous root of Dirichlet branch 0, to 4 digits
# Node values per stacked (rows, nodes) array of resolvent_norm_sampled: its
# trials go in chunks of this many entries, one row when a row is longer.
# Stacking every trial at once raised the benchmark's peak RSS by 1.5 MB on
# `verify` and 2.3 MB on the `envelope` sweep; 2048 entries (32 KiB) kept
# both within 0.1 MB, and 4096 cost `verify` 0.8 MB.
_STACK_ENTRIES = 2048


class _KernelIntegrals:
    """Causal exponential kernel integrals of piecewise-linear data.

    Built with (kappa, ref) pairs on the increasing grid x; called with node
    data d, returns for each pair
        E(x_j) = int_{x_0}^{x_j} exp(kappa (x_j - r)) d(r) dr
    at every node x_j, with d linear on each cell.  Every cell is split
    into the same number of equal panels, none wider than a fifth of
    2 pi/max|kappa| or 1/4, with 6-point Gauss-Legendre on each.  The cells
    must have one width h, up to rounding (ValueError otherwise), so the
    exponential at a point x_c + h t of cell c is a node factor
    exp(kappa (x_j - x_ref)) times a cell factor exp(-kappa (x_c - x_ref))
    times a panel factor exp(-kappa h t) that all cells share, with
    x_ref = x[ref].  The Gauss sums thereby fold into per-cell weights
    (A_c, B_c) of d_c and d_{c+1} - d_c, built once from one exponential
    per cell and the 6m panel exponentials; a call forms the moments
    d_c A_c + (d_{c+1} - d_c) B_c and their prefix sums.  Each factor has
    modulus at most exp(|Re kappa| (x_n - x_0)); the reference is x_0 for
    a growing and x_n for a decaying exponential.
    """

    def __init__(self, x: np.ndarray, *halves: tuple[complex, int]):
        dx = np.diff(x)
        h = (x[-1] - x[0]) / len(dx)
        # linspace widths stay within eps max|x| of their mean
        if np.abs(dx - h).max() > 4.0 * np.finfo(float).eps * max(abs(x[0]), abs(x[-1])):
            raise ValueError("kernel integrals need cells of one width")
        k_max = max(abs(kappa) for kappa, _ in halves)
        width = min(2.0 * math.pi / (5.0 * max(k_max, 1.0)), 0.25)
        m = max(1, math.ceil(dx.max() / width))
        # quadrature points of a cell as fractions of its width, panel by panel
        frac = ((np.arange(m)[:, None] + 0.5 * (1.0 + _GL_NODES)) / m).ravel()
        weights = np.tile(_GL_WEIGHTS / (2 * m), m)

        def fold(cell, panel):
            # the weights (A_c, B_c) of d_c and d_{c+1} - d_c in cell c's moment
            wp = weights * panel
            scale = dx * cell
            return scale * wp.sum(), scale * (wp * frac).sum()

        # (node factor, cell weights) of each exponential
        self._halves = tuple(
            (np.exp(kappa * (x - x[ref])),
             fold(np.exp(-kappa * (x[:-1] - x[ref])), np.exp(-kappa * h * frac)))
            for kappa, ref in halves)

    def __call__(self, d: np.ndarray) -> tuple[np.ndarray, ...]:
        """E of node data d along its last axis, per pair; rows of stacked data are independent."""
        start, jump = d[..., :-1], d[..., 1:] - d[..., :-1]

        def prefix(cell_weights):
            a, b = cell_weights
            sums = np.zeros(d.shape, dtype=complex)
            np.cumsum(start * a + jump * b, axis=-1, out=sums[..., 1:])
            return sums

        return tuple(node * prefix(cell_weights) for node, cell_weights in self._halves)


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
    wave: tuple[np.ndarray, np.ndarray]  # (U, U') at the wave nodes, as in ``_wave_rows``
    heat: tuple[np.ndarray, np.ndarray]  # (W, W') at the heat nodes, as in ``_heat_rows``


class ClosedFormResolvent:
    """The closed-form resolvent (is - A)^(-1) at frequency s on one grid, for one variant.

    The constructor holds every part that no data enter: the node grids,
    the string kernel (kappa = +-is) and the rod kernel (kappa = -sqrt(is)),
    the interface determinant ``det`` and the interface matrix ``M``,
    whose determinant is ``det`` (the ``det_two_path`` check), the
    homogeneous profiles phi, phi' and sigma, and the carriers of
    ``random_rows``.  It rejects s = 0, Re sqrt(is) > 600 (the split
    kernel exponentials) and an underflowing determinant, and warns for
    |s| < 2, outside the calibrated frequency range.  The methods do the
    per-data work on stacked data: ``random_rows`` draws and ``solve_rows``
    solves (rows, nodes) arrays, and ``solve`` is the one-row case.  Every
    step is elementwise or runs along the last axis.
    ``resolvent_norm_sampled`` stacks at most ``_STACK_ENTRIES`` = 2048
    node values per array, which kept peak RSS within 0.1 MB of the
    one-trial loop on the ``verify`` and ``envelope`` benchmark workloads.
    """

    def __init__(self, s: float, n_wave: int, n_heat: int, variant: BoundaryVariant):
        if s == 0:
            raise DegenerateInputError("frequency s must be nonzero")
        if abs(s) < 2.0:
            warnings.warn(
                f"|s| = {abs(s):g} < 2 is outside the calibrated frequency range",
                stacklevel=2,
            )
        self.s, self.variant = s, variant
        # the guard precedes the kernels, whose panel count grows with |s|
        self.z = z = principal_sqrt(complex(0.0, s))
        if z.real > _MAX_SQRT_REAL:
            raise OverflowEvaluationError(
                f"|s| = {abs(s):g} too large for the split kernel exponentials"
            )
        self._xw, self._xh = xw, xh = wave_nodes(n_wave), heat_nodes(n_heat)
        self._wave = _KernelIntegrals(xw, (1j * s, 0), (-1j * s, -1))
        self._heat = _KernelIntegrals(xh, (-z, -1))
        neumann = variant is BoundaryVariant.NEUMANN
        char = char_fn_scaled(complex(0.0, s), variant)
        self.det = (2j * s if neumann else 2.0 * s) * char.mantissa * cmath.exp(
            char.log_scale - z)
        if not abs(self.det) >= 1e-300:
            raise SingularSystemError(f"interface determinant underflow at s = {s}")
        phase = s * (xw + 1.0)
        # phi and phi' = scale * dphi.  Real profiles are held as complex (x, 0),
        # which is what a complex product casts a real operand to: the products
        # keep their bits and skip the cast.
        cos, sin = np.cos(phase).astype(complex), np.sin(phase).astype(complex)
        self._phi, self._dphi = (cos, (-s, sin)) if neumann else (sin, (s, cos))
        layer = np.exp(-z * xh)
        self._tail = np.exp(-z * (1.0 - xh))  # e^(-z (1-xi)), 1 at xi = 1
        self._sigma = layer - cmath.exp(-z) * self._tail
        e2 = cmath.exp(-2.0 * z)
        phi0, dphi0 = (math.cos(s), -s * math.sin(s)) if neumann else (math.sin(s),
                                                                      s * math.cos(s))
        self.M = np.array([[1j * s * phi0, 1.0 - e2], [-dphi0, z * (1.0 + e2)]])
        osc = np.exp(1j * s * xw)
        self._carriers = (
            (xw.astype(complex), osc.real.astype(complex), osc.imag.astype(complex)),
            (xh.astype(complex), layer.real.astype(complex), layer.imag.astype(complex)),
        )

    def _wave_rows(self, f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The string's (U, U') along the last axis of piecewise-linear wave data (f, g):

            U(xi)  = (1/s) int_{-1}^{xi} sin(s (xi - r)) (i s f(r) + g(r)) dr
            U'(xi) = int_{-1}^{xi} cos(s (xi - r)) (i s f(r) + g(r)) dr,

        half the difference and the sum of the kernel integrals with kappa = +-is.
        """
        s = self.s
        grow, decay = self._wave(1j * s * f + g)
        return 0.5 * (grow - decay) / (1j * s), 0.5 * (grow + decay)

    def _heat_rows(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rod's (W, W') along the last axis of the heat data h, with z = sqrt(is):

            W = [L + R - e^(-z (1-xi)) L(1)] / (2z),   W' = [R - L - e^(-z (1-xi)) L(1)] / 2,

        from L(xi) = int_0^xi e^(-z (xi-r)) h dr and R(xi) = int_xi^1 e^(-z (r-xi)) h dr,
        one kernel call with kappa = -z on h and on h reflected.  W solves
        is W - W'' = h with W(1) = 0 and W'(0) = z W(0).
        """
        (both,) = self._heat(np.stack([h, h[..., ::-1]]))
        left, right = both[0], both[1, ..., ::-1]
        far = self._tail * left[..., -1:]
        return (left + right - far) / (2.0 * self.z), 0.5 * (right - left - far)

    def random_rows(
        self, rng: np.random.Generator, rows: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``rows`` random smooth data triples (f, g, h), stacked as (rows, nodes) arrays.

        Low-order polynomials plus oscillation at rate s on the wave segment
        and an interface boundary layer on the heat segment, so that norm
        sampling can excite the resonant response.  A row's 60 normals hold
        nine complex coefficient vectors, of lengths 4, 3, 3 for each of f,
        g and h in turn, each as its real then its imaginary parts.  Row k
        is, bit for bit, the (k+1)-th of ``rows`` one-row calls: the steps
        are elementwise.  Dirichlet rows have f(-1) subtracted, so that the
        data lie in the state space.
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
        if self.variant is BoundaryVariant.DIRICHLET:
            f = f - f[:, :1]
        return f, g, h

    def solve_rows(self, f: np.ndarray, g: np.ndarray, h: np.ndarray) -> tuple:
        """``solve`` for stacked data rows (f, g, h), each (rows, nodes).

        Returns the fields of ``ResolventSolution``, each with a leading
        row axis, and the state as its node arrays (u, v, w, u'); the wave
        and heat fields are ``_wave_rows`` and ``_heat_rows`` of the data.
        """
        s = self.s
        wave, heat = self._wave_rows(f, g), self._heat_rows(h)
        (u_vals, u_ders), (w_vals, w_ders) = wave, heat
        p = f[:, -1] + 1j * s * u_vals[:, -1] + w_vals[:, 0]
        q = -u_ders[:, -1] - w_ders[:, 0]
        # Cramer's rule for M (a, b) = (p, q)
        (m00, m01), (m10, m11) = self.M
        a = (m11 * p - m01 * q) / self.det
        b = (m00 * q - m10 * p) / self.det
        a_col, b_col = a[:, None], b[:, None]
        scale, dphi = self._dphi
        u = a_col * self._phi - u_vals
        u_prime = scale * a_col * dphi - u_ders
        w = -b_col * self._sigma + w_vals
        return (u, 1j * s * u - f, w, u_prime), a, b, np.stack([p, q], axis=1), wave, heat

    def solve(self, y: StateVector) -> ResolventSolution:
        """x = (is - A)^(-1) y on the data grids, with its interface constants.

        The data must be of the resolvent's variant (ValueError otherwise).
        The interface system M (a, b) = (p, q) is solved by Cramer's rule.
        The wave derivative is returned analytically (u_prime), not by
        differencing, so the state norm uses the exact H^1 seminorm of the
        closed form.  The one-row case of ``solve_rows``.
        """
        if y.variant is not self.variant:
            raise ValueError(f"{y.variant.value} data given to a "
                             f"{self.variant.value} resolvent")
        _check_segment("wave", y.u, self._xw)
        _check_segment("heat", y.w, self._xh)
        (u, v, w, u_prime), a, b, rhs, wave, heat = self.solve_rows(y.u[None], y.v[None], y.w[None])
        x = StateVector(u=u[0], v=v[0], w=w[0], variant=self.variant, u_prime=u_prime[0])
        return ResolventSolution(
            x, a[0], b[0], rhs[0], (wave[0][0], wave[1][0]), (heat[0][0], heat[1][0])
        )


def apply_resolvent(s: float, y: StateVector) -> StateVector:
    """Evaluate x = (is - A)^(-1) y on the data grids, for the variant of y."""
    return ClosedFormResolvent(s, y.n_wave, y.n_heat, y.variant).solve(y).state


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
    import scipy.sparse.linalg as spla  # on use: importing this module loads no scipy.sparse

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
    s: float, trials: int, grid: GridSpec, rng: np.random.Generator, variant: BoundaryVariant
) -> float:
    """Randomized lower bound on the resolvent norm via the closed form.

    Maximizes ||x||_X / ||y||_X over ``trials`` draws of
    ``ClosedFormResolvent.random_rows``; an independent code path from
    the matrix-based estimate.  One resolvent serves every trial, and the
    grid must meet the resolution rule (ResolutionError), checked after
    the resolvent's own frequency checks.  The trials are drawn, solved
    and normed as stacked rows, in chunks of at most ``_STACK_ENTRIES``
    node values per array, and each keeps the draw and the ratio it has
    alone.  A non-finite ratio raises OverflowEvaluationError naming its
    trial.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    resolvent = ClosedFormResolvent(s, grid.n_wave, grid.n_heat, variant)
    _check_resolution(s, grid)
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

    Every target is first assembled and snapped on its resolution grid,
    ``required_grid(s_t, resolution_factor)``; then the rows' norms are
    computed in row order with one rng.  With ``doubling_check`` a worker
    process (``_with_worker``) starts before the first snap and computes
    the doubled grids' norms, which need only each row's grid, known up
    front, and its s_eff: it is sent each s_eff as soon as it is snapped,
    and assembles doubled grid i before s_eff i arrives, so it snaps and
    norms grid i while this process snaps target i+1 and then computes the
    rows.  The worker moves off this process's CPU when it starts on it.
    Each number comes from the same code on the same inputs as in one
    process, so the rows keep their bits; a platform without ``os.fork``
    computes the doubled norms here, after the rows.  CPU time and peak
    memory read through ``RUSAGE_SELF`` leave the worker out; they are
    under ``RUSAGE_CHILDREN``.
    """
    rng = np.random.default_rng(seed)
    targets = [(s_t, required_grid(s_t, factor=resolution_factor))
               for s_t in np.asarray(s_targets, dtype=float)]

    def rows(send: Callable[[object], None]) -> list[dict]:
        snapped = []
        for s_t, grid in targets:
            disc = assemble(grid, variant)
            s_eff, gap = snap_to_resonance(disc, s_t)
            send(s_eff)
            snapped.append((grid, disc, s_eff, gap))
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
            if trials > 0:
                row["norm_sampled"] = resolvent_norm_sampled(s_eff, trials, grid, rng, variant)
            out.append(row)
        return out

    def doubled(s_effs: Iterator[object]) -> list[float]:
        norms = []
        for _, grid in targets:
            disc = assemble(grid.doubled(), variant)  # while s_eff is snapped
            s_eff2, _ = snap_to_resonance(disc, next(s_effs))
            norms.append(resolvent_norm_discrete(s_eff2, disc))
        return norms

    if not doubling_check:
        return rows(lambda s_eff: None)
    out, norms2 = _with_worker(doubled, rows)
    for row, norm2 in zip(out, norms2):
        norm = row["norm_discrete"]
        row["doubling_change"] = abs(norm2 - norm) / norm
    return out
