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
homogeneous profiles) is set up once per frequency and grid.

These formulas hold for the Neumann variant.  The discrete norm estimator
works for either variant through the assembled generator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from numpy.polynomial.polynomial import polyval

from .characteristic import (
    BoundaryVariant,
    ScaledValue,
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
)
from .state import DataTriple, StateVector, heat_nodes, wave_nodes

__all__ = [
    "ResolventCoefficients",
    "particular_wave",
    "particular_heat",
    "solve_coefficients",
    "apply_resolvent",
    "resolvent_norm_discrete",
    "resolvent_norm_sampled",
    "required_grid",
    "snap_to_resonance",
    "random_smooth_triple",
    "sweep",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)
_MAX_SQRT_REAL = 600.0  # exp(Re sqrt(is)) guard for the unscaled heat kernels
_DIRICHLET_BRANCH_0 = -0.7256 + 0.9716j  # continuous root of Dirichlet branch 0, to 4 digits


def _sqrt_is(s: float) -> complex:
    z = principal_sqrt(complex(0.0, s))
    if z.real > _MAX_SQRT_REAL:
        raise OverflowEvaluationError(
            f"|s| = {abs(s):g} too large for the unscaled quadrature path"
        )
    return z


class _KernelIntegrals:
    """Causal sinh and cosh kernel integrals of piecewise-linear data.

    Called with node data d, returns (S, C) at every node x_j of the
    increasing grid x, with
        S(x_j) = int_{x_0}^{x_j} sinh(kappa (x_j - r)) d(r) dr
        C(x_j) = int_{x_0}^{x_j} cosh(kappa (x_j - r)) d(r) dr
    and d linear on each cell.  Every cell is split into the same number
    of equal panels, none wider than a fifth of 2 pi/|kappa| or 1/4, with
    6-point Gauss-Legendre on each; the node values are prefix sums of the
    per-cell moments.  Each exponential is split into two factors of
    modulus at most exp(|Re kappa| (x_n - x_0)).  The quadrature and the
    exponentials depend on (kappa, x) only and are built once.
    """

    def __init__(self, kappa: complex, x: np.ndarray):
        dx = np.diff(x)
        width = min(2.0 * math.pi / (5.0 * max(abs(kappa), 1.0)), 0.25)
        m = max(1, math.ceil(dx.max() / width))
        # quadrature points of a cell as fractions of its width, panel by panel
        self._frac = frac = ((np.arange(m)[:, None] + 0.5 * (1.0 + _GL_NODES)) / m).ravel()
        pts = x[:-1, None] + dx[:, None] * frac
        self._weights = dx[:, None] * np.tile(_GL_WEIGHTS / (2 * m), m)
        # (node factor, point factor) of the growing and the decaying exponential
        self._grow = np.exp(kappa * (x - x[0])), np.exp(-kappa * (pts - x[0]))
        self._decay = np.exp(kappa * (x[-1] - x)), np.exp(kappa * (pts - x[-1]))

    def __call__(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        wd = self._weights * (d[:-1, None] + (d[1:] - d[:-1])[:, None] * self._frac)

        def prefix(moments):
            return np.concatenate([[0.0], np.cumsum(moments.sum(axis=1))])

        (grow_x, grow_pts), (decay_x, decay_pts) = self._grow, self._decay
        grow = grow_x * prefix(grow_pts * wd)
        decay = decay_x * prefix(decay_pts * wd)
        return 0.5 * (grow - decay), 0.5 * (grow + decay)


class _FrequencySetup:
    """The part of the closed-form resolvent at frequency s that no data enter.

    Built from (s, n_wave, n_heat): the node grids, the string kernel
    (kappa = is) and the reflected rod kernel (kappa = sqrt(is)), the
    scaled interface determinant with its hat functions, the homogeneous
    profiles cos/sin(s (xi+1)) and sinh(sqrt(is) (1-xi)), and the carriers
    of ``random_smooth_triple``.  Every entry point builds one per call;
    ``resolvent_norm_sampled`` builds one per frequency for all its trials.
    """

    def __init__(self, s: float, n_wave: int, n_heat: int):
        if s == 0:
            raise DegenerateInputError("frequency s must be nonzero")
        self.s = s
        # the guard precedes the kernels, whose panel count grows with |s|
        self.z = z = _sqrt_is(s)
        self.xw, self.xh = xw, xh = wave_nodes(n_wave), heat_nodes(n_heat)
        self.wave = _KernelIntegrals(1j * s, xw)
        self.heat = _KernelIntegrals(z, 1.0 - xh[::-1])
        self.cosh_hat, self.sinh_hat = cosh_hat, sinh_hat = _cosh_sinh_hat(z)
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
        self.cos, self.sin = np.cos(phase), np.sin(phase)
        self.sinh = np.sinh(z * (1.0 - xh))
        osc, layer = np.exp(1j * s * xw), np.exp(-z * xh)
        self.osc, self.layer = (osc.real, osc.imag), (layer.real, layer.imag)

    def particular_wave(self, y: DataTriple) -> tuple[np.ndarray, np.ndarray]:
        s = self.s
        sinh_int, cosh_int = self.wave(1j * s * y.f + y.g)
        return sinh_int / (1j * s), cosh_int

    def particular_heat(self, y: DataTriple) -> tuple[np.ndarray, np.ndarray]:
        sinh_int, cosh_int = self.heat(y.h[::-1])
        return (-sinh_int / self.z)[::-1], cosh_int[::-1]

    def random_triple(self, rng: np.random.Generator) -> DataTriple:
        """``random_smooth_triple`` on this frequency and grid."""

        def rpoly(n, x):
            return polyval(x, rng.standard_normal(n) + 1j * rng.standard_normal(n))

        xw, (osc_re, osc_im) = self.xw, self.osc
        xh, (layer_re, layer_im) = self.xh, self.layer
        f = rpoly(4, xw) + rpoly(3, xw) * osc_re + rpoly(3, xw) * osc_im
        g = rpoly(4, xw) + rpoly(3, xw) * osc_re + rpoly(3, xw) * osc_im
        h = rpoly(4, xh) + rpoly(3, xh) * layer_re + rpoly(3, xh) * layer_im
        return DataTriple(f=f, g=g, h=h)


def particular_wave(s: float, y: DataTriple) -> tuple[np.ndarray, np.ndarray]:
    """Particular integral of the forced oscillator at every wave node.

    Returns (U, U') with
        U(xi)  = (1/s) int_{-1}^{xi} sin(s (xi - r)) (i s f(r) + g(r)) dr
        U'(xi) = int_{-1}^{xi} cos(s (xi - r)) (i s f(r) + g(r)) dr
    for the piecewise-linear data: the kernel integrals with kappa = is.
    The frequency must be one that ``apply_resolvent`` accepts.
    """
    return _FrequencySetup(s, y.n_wave, y.n_heat).particular_wave(y)


def particular_heat(s: float, y: DataTriple) -> tuple[np.ndarray, np.ndarray]:
    """Particular integral of the forced diffusion operator at every heat node.

    Returns (W, W') with
        W(xi)  = -(1/sqrt(is)) int_xi^1 sinh(sqrt(is) (r - xi)) h(r) dr
        W'(xi) = int_xi^1 cosh(sqrt(is) (r - xi)) h(r) dr
    the kernel integrals with kappa = sqrt(is) in the reflected variable
    1 - xi.  The kernels are representable up to Re sqrt(is) ~ 600; beyond
    that the call is rejected.
    """
    return _FrequencySetup(s, y.n_wave, y.n_heat).particular_heat(y)


@dataclass
class ResolventCoefficients:
    """Interface system for the closed-form resolvent at frequency s."""

    s: float
    M: np.ndarray
    detM: ScaledValue
    a: complex
    b: complex
    rhs: np.ndarray


def _check_frequency(s: float) -> None:
    if s == 0:
        raise DegenerateInputError("frequency s must be nonzero")
    if abs(s) < 2.0:
        warnings.warn(
            f"|s| = {abs(s):g} < 2 is outside the calibrated frequency range",
            stacklevel=3,
        )


def _interface_solve(fs: _FrequencySetup, y: DataTriple):
    """Node particular integrals and the interface system for data y.

    Returns (coefficients, (U, U'), (W, W')); the profiles are computed
    once and shared by ``solve_coefficients`` and ``apply_resolvent``.
    """
    s, z, det = fs.s, fs.z, fs.det
    wave, heat = fs.particular_wave(y), fs.particular_heat(y)
    (u_vals, u_ders), (w_vals, w_ders) = wave, heat
    p = complex(y.f[-1]) + 1j * s * u_vals[-1] + w_vals[0]
    q = -u_ders[-1] - w_ders[0]
    a = ((z * fs.cosh_hat * p - fs.sinh_hat * q) / det.mantissa) * math.exp(
        z.real - det.log_scale
    )
    b = ((-s * math.sin(s) * p + 1j * s * math.cos(s) * q) / det.mantissa) * math.exp(
        -det.log_scale
    )
    co = ResolventCoefficients(
        s=s, M=fs.M, detM=det, a=a, b=b, rhs=np.array([p, q], dtype=complex)
    )
    return co, wave, heat


def solve_coefficients(s: float, y: DataTriple) -> ResolventCoefficients:
    """Boundary data, interface matrix and the constants (a, b) at frequency s."""
    _check_frequency(s)
    return _interface_solve(_FrequencySetup(s, y.n_wave, y.n_heat), y)[0]


def apply_resolvent(s: float, y: DataTriple) -> StateVector:
    """Evaluate x = (is - A)^(-1) y on the data grids (Neumann variant).

    The wave derivative is returned analytically (u_prime), not by
    differencing, so the state norm uses the exact H^1 seminorm of the
    closed form.
    """
    _check_frequency(s)
    fs = _FrequencySetup(s, y.n_wave, y.n_heat)
    return _resolvent_state(fs, y, *_interface_solve(fs, y))


def _resolvent_state(fs: _FrequencySetup, y: DataTriple, co: ResolventCoefficients,
                     wave, heat) -> StateVector:
    """The resolvent state from ``_interface_solve``'s constants and profiles."""
    (u_part, u_der_part), (w_part, _) = wave, heat
    s = fs.s
    u = co.a * fs.cos - u_part
    u_prime = -s * co.a * fs.sin - u_der_part
    v = 1j * s * u - y.f
    w = -co.b * fs.sinh + w_part
    return StateVector(
        u=u, v=v, w=w, variant=BoundaryVariant.NEUMANN, u_prime=u_prime
    )


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


def resolvent_norm_discrete(s: float, disc: DiscreteGenerator) -> float:
    """Operator norm of (is - A_h)^(-1) in the discrete state geometry.

    Computed as 1/sqrt(mu_min) where mu_min is the smallest eigenvalue of
    the Hermitian pencil B^H W B x = mu W x with B = is I - A_h, i.e. the
    smallest singular value of W^(1/2) B W^(-1/2).  Shift-invert applies
    (B^H W B)^(-1) = B^(-1) W^(-1) B^(-H): B^(-1) and B^(-H) by the
    tridiagonal elimination of ``ShiftedSolve``, W^(-1) by the pttrf
    factor of W's u block and its diagonal q block.  Factoring the formed
    product would square B's condition number.

    The Lanczos basis holds 4 vectors, not ARPACK's default of 20: at a
    resonance the wanted eigenvalue exceeds the next by about (pi/gap)^2,
    and halfway between two resonances the basis still converges within
    about 15 applications of the shift-invert operator.
    """
    if s == 0:
        raise DegenerateInputError("frequency s must be nonzero")
    _check_resolution(s, disc.grid)
    shifted = ShiftedSolve(disc, 1j * s)
    w_solve = disc.gram_solver()
    gram_inv = spla.LinearOperator(
        disc.A.shape,
        matvec=lambda x: shifted.solve(w_solve(shifted.solve_adjoint(x))),
        dtype=complex,
    )
    try:
        # shift-invert at sigma = 0 applies only OPinv and M; ARPACK reads
        # the shape and dtype of its first argument and never multiplies by it.
        # ncv=4: the default 20 builds a 20-vector basis before its first test
        mu = spla.eigsh(
            gram_inv, k=1, M=disc.W, sigma=0, which="LM", return_eigenvectors=False,
            OPinv=gram_inv, v0=arpack_start(disc.dim), ncv=4,
        )[0]
    except spla.ArpackError as exc:
        raise NoConvergenceError(f"resolvent norm at s = {s}: {exc}") from exc
    return 1.0 / math.sqrt(float(np.real(mu)))


def random_smooth_triple(
    s: float, grid: GridSpec, rng: np.random.Generator
) -> DataTriple:
    """Random smooth data with content at the frequency scales of the problem.

    Low-order polynomials plus oscillation at rate s on the wave segment and
    an interface boundary layer on the heat segment, so that randomized
    norm sampling can excite the resonant response.  The frequency must be
    one that ``apply_resolvent`` accepts.
    """
    return _FrequencySetup(s, grid.n_wave, grid.n_heat).random_triple(rng)


def resolvent_norm_sampled(
    s: float,
    trials: int,
    grid: GridSpec,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Randomized lower bound on the resolvent norm via the closed form.

    Maximizes ||x||_X / ||y||_X over random smooth data; an independent
    code path from the matrix-based estimate.  The frequency set-up is
    built once and applied to every trial, which is ``apply_resolvent``
    on each ``random_smooth_triple`` draw.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    _check_frequency(s)
    fs = _FrequencySetup(s, grid.n_wave, grid.n_heat)
    best = 0.0
    for _ in range(trials):
        y = fs.random_triple(rng)
        x = _resolvent_state(fs, y, *_interface_solve(fs, y))
        best = max(best, x.norm_X / y.norm_X)
    return best


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
    """
    rows = []
    rng = np.random.default_rng(seed)
    for s_t in np.asarray(s_targets, dtype=float):
        grid = required_grid(s_t, factor=resolution_factor)
        disc = assemble(grid, variant)
        s_eff, gap = snap_to_resonance(disc, s_t)
        norm = resolvent_norm_discrete(s_eff, disc)
        row = {
            "s": s_eff,
            "norm_discrete": norm,
            "norm_sampled": math.nan,
            "spectral_lower_bound": 1.0 / gap,
            "grid_N": grid.n_wave,
            "doubling_change": math.nan,
        }
        if trials > 0 and variant is BoundaryVariant.NEUMANN:
            row["norm_sampled"] = resolvent_norm_sampled(s_eff, trials, grid, rng)
        if doubling_check:
            disc2 = assemble(grid.doubled(), variant)
            s_eff2, _ = snap_to_resonance(disc2, s_eff)
            norm2 = resolvent_norm_discrete(s_eff2, disc2)
            row["doubling_change"] = abs(norm2 - norm) / norm
        rows.append(row)
    return rows
