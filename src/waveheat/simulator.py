"""Time integration of the semigroup and energy-decay measurement.

The trajectory z' = A_h z is advanced by the implicit trapezoidal rule
(Crank-Nicolson).  Because the discrete generator is exactly dissipative
in the energy form, each step satisfies

    E(z+) - E(z) = -dt * D(m),      m = (z + z+)/2,

where D is the heat-gradient dissipation form, so the discrete energy is
non-increasing to round-off and the dissipation identity can be checked
per step rather than asymptotically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import daxpy, dcopy, dgbmv, dscal
from scipy.linalg.lapack import dpttrf, dpttrs

from .characteristic import BoundaryVariant
from .discretization import DiscreteGenerator, GridSpec, _trapz_weights, assemble
from .errors import SolveFailureError, VariantError, WindowError
from .state import StateVector, heat_nodes

__all__ = [
    "SimulationConfig",
    "EnergySeries",
    "DecayFit",
    "CrankNicolsonStepper",
    "run",
    "project_kernel",
    "kernel_functional",
    "phi_weights",
    "fit_decay",
    "last_clean_decade",
    "decade_slopes",
    "write_energy_csv",
]

ENERGY_FLOOR_RATIO = 1e-12
# most midpoints buffered per dissipation evaluation
BLOCK_STEPS = 64


@dataclass(frozen=True)
class SimulationConfig:
    dt: float
    t_max: float
    grid: GridSpec
    variant: BoundaryVariant
    output_stride: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and math.isfinite(self.t_max)):
            raise ValueError("dt and t_max must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.dt > 0.5 * self.grid.h_wave + 1e-15:
            raise ValueError(
                f"dt = {self.dt:g} violates the accuracy guard "
                f"dt <= h_wave/2 = {0.5 * self.grid.h_wave:g}"
            )
        if self.t_max < 10.0:
            raise ValueError("t_max must be at least 10")
        if self.output_stride < 1:
            raise ValueError("output_stride must be >= 1")


@dataclass
class EnergySeries:
    """Energy history with per-interval dissipation integrals.

    ``dissipation[k]`` is the integral of the heat-gradient dissipation
    over (times[k-1], times[k]] (first entry 0), so the balance
    E(t_k) - E(t_{k-1}) + dissipation[k] = 0 holds step-exactly.
    """

    times: np.ndarray
    energies: np.ndarray
    dissipation: np.ndarray
    phi: np.ndarray | None = field(default=None)


class CrankNicolsonStepper:
    """Factorized implicit-trapezoidal step for a fixed (grid, dt).

    The midpoint m = (z + z+)/2 of a step solves (I - a A) m = z with
    a = dt/2, and z+ = 2m - z.  The displacement rows of A read u' = v, so
    m_u = z_u + a m_v, and eliminating m_u leaves the symmetric positive
    definite tridiagonal system

        M (I - a A_qq - a^2 A_qu A_uq) m_q = M z_q + a M A_qu z_u

    in the velocity/temperature block q, with M = diag(mass_q) the lumped
    mass.  The bracket is a T(1/a) D^-1 in ``ShiftedSolve``'s notation and
    is built from the generator's bands, as T is.  The system is factored
    once (LAPACK pttrf); the coupling a M A_qu is zero in the w rows and
    tridiagonal in the v rows, and is kept in LAPACK band storage for one
    gbmv product per step.
    A is real, and only real states are stepped: ``run`` refuses complex data.
    """

    def __init__(self, disc: DiscreteGenerator, dt: float):
        self.disc = disc
        self.dt = dt
        a = 0.5 * dt
        nu = disc.n_u
        p_sub, p_main, p_sup = disc.p_sub, disc.p_main, disc.p_sup
        main, sub, sup = 1.0 - a * disc.q_main, -(a * disc.q_sub), -(a * disc.q_sup)
        main[:nu] -= (a * a) * p_main
        sub[: nu - 1] -= (a * a) * p_sub
        sup[: nu - 1] -= (a * a) * p_sup
        mass = disc.mass_q
        upper, lower = mass[:-1] * sup, mass[1:] * sub
        if not np.allclose(upper, lower, rtol=1e-12, atol=0.0):
            raise SolveFailureError("Schur complement is not symmetric")
        d, e, info = dpttrf(mass * main, 0.5 * (upper + lower))
        if info != 0:
            raise SolveFailureError(
                f"Schur complement is not positive definite (pttrf info {info})")
        # LAPACK band storage with kl = ku = 1: entry (i, j) sits at [1 + i - j, j]
        coupling = np.zeros((3, nu), order="F")  # gbmv reads it uncopied
        coupling[0, 1:] = a * mass[: nu - 1] * p_sup
        coupling[1] = a * mass[:nu] * p_main
        coupling[2, :-1] = a * mass[1:nu] * p_sub
        # everything advance reads, fetched there as one tuple
        self._factors = (nu, disc.dim, a, mass, coupling, d, e)

    def advance(self, z: np.ndarray, mid: np.ndarray) -> None:
        """One step in place: z becomes z+ and mid the midpoint (z + z+)/2.

        ``z`` and ``mid`` are contiguous float64 vectors of length dim;
        BLAS and LAPACK write into them directly.  Every wrapper argument is
        passed by position, which spares f2py its keyword parsing.
        """
        nu, dim, a, mass, coupling, d, e = self._factors
        m_q = mid[nu:]
        np.multiply(mass, z[nu:], out=m_q)  # M z_q
        # + a M A_qu z_u, which touches only the v rows.  Slots: m, n, kl, ku,
        # alpha, a, x, incx, offx, beta, y, incy, offy, trans, overwrite_y
        dgbmv(nu, nu, 1, 1, 1.0, coupling, z, 1, 0, 1.0, m_q, 1, 0, 0, 1)
        dpttrs(d, e, m_q, 1)  # m_q; slots d, e, b, overwrite_b
        dcopy(z, mid, nu)  # slots x, y, n
        daxpy(m_q, mid, nu, a)  # m_u = z_u + a m_v; slots x, y, n, a
        dscal(-1.0, z)  # slots a, x
        daxpy(mid, z, dim, 2.0)  # z+ = 2 m - z


class _HeatDissipation:
    """dt times the dissipation form of each midpoint of a block, summed per output interval.

    W_diss is the heat stiffness K_h from the interface slot 2 n_u - 1 on
    and zero elsewhere, so the form is applied to that heat slice m of each
    midpoint alone.  On the slice the form is c D^T D, with
    (D m)[i] = m[i+1] - m[i], the eliminated end node taken as 0, and
    c > 0, which is checked exactly on K_h's bands at construction
    (SolveFailureError otherwise).  So the dissipation of one step is
    dt c (|D m|^2 + m_end^2), all nonnegative terms: one einsum row per
    midpoint, and ``np.add.reduceat`` sums the rows of each interval.
    Both are numpy reductions, whose result does not depend on the BLAS
    thread count.
    """

    def __init__(self, disc: DiscreteGenerator):
        self._lo = 2 * disc.n_u - 1
        K_h = disc.K_h
        self._c = c = float(-K_h[0, 2])
        # c D^T D holds c (1, 2, ..., 2) on the diagonal and -c beside it
        main = np.full(len(K_h), 2.0 * c)
        main[0] = c
        if not (c > 0 and np.array_equal(K_h[:, 1], main)
                and np.all(K_h[1:, 0] == -c) and np.all(K_h[:-1, 2] == -c)):
            raise SolveFailureError(
                "dissipation form on its heat slice is not c D^T D of the heat jumps, c > 0")

    def __call__(self, mids: np.ndarray, starts, dt: float) -> np.ndarray:
        """The sums over the rows starts[j] up to starts[j + 1] (the last: to the end)."""
        heat = mids[:, self._lo :]
        jumps = heat[:, 1:] - heat[:, :-1]
        end = heat[:, -1]  # the jump to the eliminated end node
        squares = np.einsum("ij,ij->i", jumps, jumps) + end * end
        return dt * self._c * np.add.reduceat(squares, starts)


def run(x0: StateVector, config: SimulationConfig) -> EnergySeries:
    """Propagate x0 to t_max, recording energy, dissipation and phi.

    Steps go a block of midpoints at a time: whole output intervals,
    BLOCK_STEPS - BLOCK_STEPS % stride steps, or for a longer stride up to
    BLOCK_STEPS steps and the next output.  Per block the per-step
    dissipation, exact for the trapezoidal rule, is summed per interval,
    and the output energies come from one pass over the bands.  phi is one
    dot product with ``phi_weights`` per output; a non-finite state makes
    it non-finite and raises SolveFailureError before that output is
    recorded.  Complex data raise ValueError: only real states are stepped.
    """
    disc = assemble(config.grid, config.variant)
    stepper = CrankNicolsonStepper(disc, config.dt)
    z = disc.pack_state(x0)
    if np.iscomplexobj(z):
        raise ValueError("run steps real states only; the initial data are complex")
    z = z.astype(float)
    weights = phi_weights(disc)
    n_steps = int(round(config.t_max / config.dt))
    stride = config.output_stride
    mids = np.empty((BLOCK_STEPS, disc.dim))
    states = np.empty((max(BLOCK_STEPS // stride, 1), disc.dim))
    dissipation_of = _HeatDissipation(disc)

    times, energies, dissipation, phis = [0.0], [disc.energy(z)], [0.0], [weights @ z]
    acc, done = 0.0, 0  # acc: the dissipation since the last output
    with np.errstate(invalid="ignore"):  # phi of a non-finite state meets inf * 0
        while done < n_steps:
            stop = (done + BLOCK_STEPS) // stride * stride  # the last output in reach
            stop = min(stop if stop > done else done + BLOCK_STEPS, n_steps)
            cuts = []  # block rows that end an output interval; the last ends the block
            for i in range(done + 1, stop + 1):
                stepper.advance(z, mids[i - done - 1])
                if i % stride == 0 or i == n_steps:
                    phi = weights @ z
                    if not math.isfinite(phi):
                        raise SolveFailureError("non-finite state after implicit solve")
                    states[len(cuts)] = z
                    cuts.append(i - done)
                    times.append(i * config.dt)
                    phis.append(phi)
            sums = dissipation_of(mids[: stop - done], [0, *cuts[:-1]], config.dt)
            sums[0] += acc
            acc = 0.0 if cuts else sums[0]
            dissipation.extend(sums[: len(cuts)])
            energies.extend(disc.energy(states[: len(cuts)]))
            done = stop
    return EnergySeries(
        times=np.asarray(times),
        energies=np.asarray(energies),
        dissipation=np.asarray(dissipation),
        phi=np.asarray(phis),
    )


def phi_weights(disc: DiscreteGenerator) -> np.ndarray:
    """Weights in generator coordinates with phi(x) = phi_weights @ z.

    The packed form of ``kernel_functional``: 1 on the u(0) slot, the
    trapezoid weights on the v slots, and the trapezoid weights times
    (1 - xi) on the w slots, where w(0) is the v(0) slot.
    """
    nu, grid = disc.n_u, disc.grid
    heat = _trapz_weights(grid.n_heat, grid.h_heat) * (1.0 - heat_nodes(grid.n_heat))
    weights = np.zeros(disc.dim)
    weights[nu - 1] = 1.0
    weights[nu : 2 * nu] = _trapz_weights(grid.n_wave, grid.h_wave)[-nu:]
    weights[2 * nu - 1] += heat[0]
    weights[2 * nu :] = heat[1:-1]
    return weights


def kernel_functional(x: StateVector) -> float:
    """The bounded functional u(0) + int v + int (1-xi) w.

    Its level sets split the state space: the projection onto the
    stationary direction (1, 0, 0) is x -> (phi(x), 0, 0).
    """
    val = x.u[-1]
    val = val + np.trapezoid(x.v, x.xi_wave)
    val = val + np.trapezoid((1.0 - x.xi_heat) * x.w, x.xi_heat)
    return complex(val).real if not np.iscomplexobj(x.u) else complex(val)


def project_kernel(x: StateVector) -> tuple[StateVector, StateVector]:
    """Split x = x0 + x1 with x1 = (phi(x), 0, 0) stationary and x0 decaying.

    Only meaningful for the Neumann variant; the Dirichlet generator has a
    trivial kernel.
    """
    if x.variant is not BoundaryVariant.NEUMANN:
        raise VariantError("kernel projection applies to the Neumann variant only")
    phi = kernel_functional(x)
    x1 = StateVector(
        u=np.full_like(x.u, phi),
        v=np.zeros_like(x.v),
        w=np.zeros_like(x.w),
        variant=x.variant,
        u_prime=None if x.u_prime is None else np.zeros_like(x.u_prime),
    )
    x0 = x.minus(x1)
    return x0, x1


@dataclass(frozen=True)
class DecayFit:
    window: tuple[float, float]
    slope: float
    stderr: float
    k: int


def _window_slope(ts: np.ndarray, es: np.ndarray) -> tuple[float, float]:
    lt, le = np.log(ts), np.log(es)
    slope, intercept = np.polyfit(lt, le, 1)
    resid = le - (slope * lt + intercept)
    dof = max(len(ts) - 2, 1)
    denom = np.sum((lt - lt.mean()) ** 2)
    stderr = math.sqrt(float(np.sum(resid**2) / dof / denom))
    return float(slope), stderr


def fit_decay(
    series: EnergySeries, window: tuple[float, float], k: int = 1
) -> DecayFit:
    """Least-squares log-log slope of the energy over a time window.

    The window must span at least a factor 4 in time and contain at least
    10 samples with energy above the round-off floor.  ``decade_slopes``
    shows the drift of the exponent.
    """
    t_lo, t_hi = window
    if t_hi < 4.0 * t_lo or t_lo <= 0.0:
        raise WindowError(f"window ({t_lo:g}, {t_hi:g}) must satisfy t_hi >= 4 t_lo > 0")
    floor = ENERGY_FLOOR_RATIO * series.energies[0]
    mask = (series.times >= t_lo) & (series.times <= t_hi)
    if np.count_nonzero(mask) < 10:
        raise WindowError("fewer than 10 samples in the fit window")
    ts, es = series.times[mask], series.energies[mask]
    if np.any(es <= floor):
        raise WindowError("window reaches the round-off energy floor")
    slope, stderr = _window_slope(ts, es)
    return DecayFit(window=(t_lo, t_hi), slope=slope, stderr=stderr, k=k)


def last_clean_decade(series: EnergySeries) -> tuple[float, float]:
    """The last factor-10 window before the energy reaches its floor."""
    floor = ENERGY_FLOOR_RATIO * series.energies[0]
    above = series.times[series.energies > floor]
    if len(above) < 10:
        raise WindowError("energy history entirely at the round-off floor")
    t_hi = float(above[-1])
    t_lo = t_hi / 10.0
    if t_lo < series.times[1]:
        t_lo = float(series.times[1])
        if t_hi < 4.0 * t_lo:
            raise WindowError("history too short for a decade fit")
    return t_lo, t_hi


def decade_slopes(series: EnergySeries) -> list[tuple[float, float]]:
    """Slopes over successive factor-10 windows ending where ``last_clean_decade``'s does."""
    t_hi = last_clean_decade(series)[1]
    out = []
    while t_hi / 10.0 >= max(series.times[1], series.times[-1] * 1e-4):
        t_lo = t_hi / 10.0
        mask = (series.times >= t_lo) & (series.times <= t_hi)
        if np.count_nonzero(mask) < 5:
            break
        sl, _ = _window_slope(series.times[mask], series.energies[mask])
        out.append((math.sqrt(t_lo * t_hi), sl))
        t_hi = t_lo
    out.reverse()
    return out


def _local_slope_column(ts: np.ndarray, es: np.ndarray) -> np.ndarray:
    """Least-squares slope of log E against log t over each centred 5-row window.

    NaN for the two rows at each end and for any window that touches
    E <= 0 or t <= 0.
    """
    out = np.full(len(ts), math.nan)
    if len(ts) >= 5:
        # the logs are NaN where t <= 0 or E <= 0, and so is every window slope
        # that touches one
        lt = sliding_window_view(np.log(np.where(ts > 0, ts, math.nan)), 5)
        le = sliding_window_view(np.log(np.where(es > 0, es, math.nan)), 5)
        lt = lt - lt.mean(axis=1, keepdims=True)
        le = le - le.mean(axis=1, keepdims=True)
        out[2:-2] = (lt * le).sum(axis=1) / (lt**2).sum(axis=1)
    return out


def write_energy_csv(series: EnergySeries, path) -> None:
    import csv

    ts, es = series.times, series.energies
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "E", "dissipation_rate", "phi", "local_slope"])
        logs = _local_slope_column(ts, es)
        for i in range(len(ts)):
            dt_int = ts[i] - ts[i - 1] if i > 0 else math.nan
            rate = series.dissipation[i] / dt_int if i > 0 else 0.0
            phi = series.phi[i] if series.phi is not None else math.nan
            writer.writerow(
                [
                    f"{ts[i]:.9e}",
                    f"{es[i]:.16e}",
                    f"{rate:.16e}",
                    f"{phi:.16e}",
                    f"{logs[i]:.6e}" if math.isfinite(logs[i]) else "nan",
                ]
            )
