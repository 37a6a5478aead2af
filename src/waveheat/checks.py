"""Named structural checks, shared by ``waveheat verify`` and the acceptance suite.

Each check takes its subject (sample points, root records, an energy series,
resolvent sweep rows, a generator) and returns a ``Check``.  Package calls go
through module attributes, so a patched binding (a tracer, a fault) is the one run.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterator, NamedTuple

import numpy as np

from . import characteristic, discretization, resolvent, simulator, spectrum, state

NEU = characteristic.BoundaryVariant.NEUMANN
DIR = characteristic.BoundaryVariant.DIRICHLET


class Check(NamedTuple):
    name: str
    value: float
    bound: float
    passed: bool
    detail: str


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _relative(name: str, bound: float, errors) -> Check:
    """The worst of ``errors`` (NaN if any is NaN) strictly below ``bound``."""
    worst = float(np.max(np.fromiter(errors, float)))
    return Check(name, worst, bound, worst < bound, f"max rel {worst:.2e}")


def schwarz_reflection(points) -> Check:
    """D(conj lam) = conj D(lam), both variants."""
    char_fn = characteristic.char_fn
    return _relative("schwarz_reflection", 1e-12, (
        _rel(char_fn(lam.conjugate(), v), char_fn(lam, v).conjugate())
        for lam in points for v in (NEU, DIR)))


def scaled_unscaled_agreement(points) -> Check:
    """The scaled determinant materializes to the direct value, both variants."""
    return _relative("scaled_unscaled_agreement", 1e-12, (
        _rel(characteristic.char_fn_scaled(lam, v).value(), characteristic.char_fn(lam, v))
        for lam in points for v in (NEU, DIR)))


def _fg_product(lam: complex) -> complex:
    f, g = characteristic.fg_split(lam)
    r = characteristic.principal_sqrt(lam)
    return (f + g) * cmath.sinh(lam) * r * cmath.cosh(r)


def fg_product_identity(points) -> Check:
    """(f + g) sinh(lam) r cosh(r) = D(lam) for the Neumann splitting."""
    return _relative("fg_product_identity", 1e-10, (
        _rel(_fg_product(lam), characteristic.char_fn(lam, NEU)) for lam in points))


def derivative_vs_fd(points) -> Check:
    """The analytic derivative against central differences of step 1e-6, both variants."""
    char_fn, h = characteristic.char_fn, 1e-6
    return _relative("derivative_vs_fd", 1e-6, (
        _rel((char_fn(lam + h, v) - char_fn(lam - h, v)) / (2 * h),
             characteristic.char_fn_deriv(lam, v))
        for lam in points for v in (NEU, DIR)))


def axis_growth_ratio_positive(s: np.ndarray) -> Check:
    """|D(is)| exp(-sqrt(|s|/2)) is positive at every axis sample ``s``."""
    cmin = float(characteristic.det_growth_ratio(s).min())
    return Check("axis_growth_ratio_positive", cmin, 0.0, cmin > 0.0, f"min {cmin:.6f}")


def polish(records) -> Check:
    """Polished roots of one variant: in their disks, residual <= 1e-10, Re < 0."""
    resid = max(r.residual for r in records)
    ok = all(r.contained and r.residual <= 1e-10 and r.lam.real < 0 for r in records)
    return Check(f"polish_{records[0].variant.value}", resid, 1e-10, ok,
                 f"n={records[0].n}..{records[-1].n}, max resid {resid:.1e}")


def _mirror(variant, n: int) -> int:
    """The branch whose root is the conjugate of branch n's."""
    return -n - 1 if variant is NEU else -n


def conjugate_pairs(records, mirrored) -> Check:
    """Each root of ``records`` is conjugate to the root of its mirror branch in ``mirrored``.

    Fails if no pair is compared.
    """
    variant = records[0].variant
    down = {r.n: r.lam for r in mirrored}
    errs = [abs(down[_mirror(variant, r.n)] - r.lam.conjugate())
            for r in records if _mirror(variant, r.n) in down]
    err = max(errs, default=0.0)
    return Check(f"conjugate_pairs_{variant.value}", err, 1e-10, bool(errs) and err < 1e-10,
                 f"compared {len(errs)} of {len(records)}, max {err:.1e}")


def contour_counts(variant, counts: list[int]) -> Check:
    """The argument principle finds exactly one root in each seed disk."""
    off = sum(c != 1 for c in counts)
    return Check(f"contour_counts_{variant.value}", off, 0, bool(counts) and off == 0,
                 f"counts {counts}")


def det_two_path(y: state.StateVector, frequencies) -> Check:
    """det M of the 2x2 interface matrix equals the scaled determinant."""
    systems = (resolvent.ClosedFormResolvent(s, y.n_wave, y.n_heat) for s in frequencies)
    return _relative("det_two_path", 1e-10, (
        _rel(cf.det.value(), cf.M[0, 0] * cf.M[1, 1] - cf.M[0, 1] * cf.M[1, 0])
        for cf in systems))


def resolvent_coupling(s: float, y: state.StateVector) -> Check:
    """Boundary and interface residuals of the closed-form resolvent, relative to |y|."""
    sol = resolvent.ClosedFormResolvent(s, y.n_wave, y.n_heat).solve(y)
    x = sol.state
    z = characteristic.principal_sqrt(1j * s)
    w_prime0 = z * sol.b * np.cosh(z) + sol.heat[1][0]
    bc = float(max(abs(x.u_prime[0]), abs(x.w[-1]), abs(x.v[-1] - x.w[0]),
                   abs(x.u_prime[-1] - w_prime0)) / y.norm_X)
    return Check("resolvent_coupling", bc, 1e-8, bc < 1e-8, f"max residual {bc:.2e}")


def kernel_vector(gen) -> Check:
    """The generator maps (1, 0, 0) to exactly zero: only A_qu meets it, by its row sums."""
    sums = np.r_[0.0, gen.p_sub] + gen.p_main + np.r_[gen.p_sup, 0.0]  # in column order
    res = float(np.abs(sums).max())
    return Check("kernel_vector", res, 0.0, res == 0.0, f"|A(1,0,0)| = {res:.1e}")


def kernel_functional_values(n: int) -> Check:
    """phi of the unit u, v and w states on an n-cell grid is 1, 1 and 1/2."""
    one, zero = np.ones(n + 1), np.zeros(n + 1)
    phis = [simulator.kernel_functional(state.StateVector(*parts))
            for parts in ((one, zero, zero), (zero, one, zero), (zero, zero, one))]
    dev = max(abs(p - e) for p, e in zip(phis, (1.0, 1.0, 0.5)))
    return Check("kernel_functional_values", dev, 1e-13, dev < 1e-13,
                 "phi = " + ", ".join(f"{p:.6f}" for p in phis))


def energy_monotone(series) -> Check:
    """No output interval gains more than 1e-12 E(0)."""
    incr, bound = float(np.max(np.diff(series.energies))), float(1e-12 * series.energies[0])
    return Check("energy_monotone", incr, bound, incr <= bound, f"max increment {incr:.1e}")


def energy_balance(series) -> Check:
    """E(t_k) - E(t_{k-1}) + dissipation[k] = 0 to 1e-10 E(0)."""
    e = series.energies
    defect = float(np.max(np.abs(np.diff(e) + series.dissipation[1:])) / e[0])
    return Check("energy_balance", defect, 1e-10, defect < 1e-10, f"rel defect {defect:.1e}")


def phi_constant_along_flow(series) -> Check:
    """The kernel functional phi does not drift along the trajectory."""
    drift = float(np.max(np.abs(series.phi - series.phi[0])))
    return Check("phi_constant_along_flow", drift, 1e-10, drift < 1e-10, f"drift {drift:.1e}")


def norm_times_gap(rows) -> Check:
    """The discrete norm is at least the spectral lower bound 1/gap in every sweep row."""
    product = float(min(r["norm_discrete"] / r["spectral_lower_bound"] for r in rows))
    return Check("norm_times_gap", product, 1.0, product >= 1.0, f"product {product:.3f}")


def sampled_below_discrete(rows) -> Check:
    """The sampled lower bound is at most 1.05 times the discrete norm in every row."""
    ratio = float(np.max([r["norm_sampled"] / r["norm_discrete"] for r in rows]))
    return Check("sampled_below_discrete", ratio, 1.05, ratio <= 1.05, f"ratio {ratio:.3f}")


def dirichlet_no_kernel(gen) -> Check:
    """The generator has no eigenvalue in the disk |sigma| < 0.3."""
    count = gen.count_eigenvalues(0.0, 0.3)
    return Check("dirichlet_no_kernel", count, 0, count == 0,
                 f"{count} eigenvalues in |sigma| < 0.3")


def battery(nmax: int, rng: np.random.Generator) -> Iterator[Check]:
    """The checks of ``waveheat verify`` in order, each computed when reached.

    ``rng`` draws the determinant samples and the sampled-norm data; roots are
    polished for the branches 5 <= n <= nmax and for their mirrors.
    """
    points = [complex(rng.uniform(-20, 20), rng.uniform(0.1, 40)) for _ in range(40)]
    yield schwarz_reflection(points)
    yield scaled_unscaled_agreement(points)
    yield fg_product_identity([complex(rng.uniform(-3, 6), rng.uniform(0.3, 20))
                               for _ in range(40)])
    yield derivative_vs_fd([complex(rng.uniform(-5, 5), rng.uniform(0.5, 30))
                            for _ in range(25)])
    mags = np.logspace(math.log10(2.0), 4.0, 2000)
    yield axis_growth_ratio_positive(np.concatenate([mags, -mags[::40]]))
    for variant in (NEU, DIR):
        records = [spectrum.polish(d, variant) for d in spectrum.seeds(variant, nmax) if d.n >= 5]
        yield polish(records)
        mirrors = {_mirror(variant, r.n) for r in records}
        yield conjugate_pairs(records, [spectrum.polish(d, variant)
                                        for d in spectrum.seeds(variant, nmax + 1)
                                        if d.n in mirrors])
        yield contour_counts(variant, [spectrum.count_zeros_contour(d.center, d.radius, variant)
                                       for d in spectrum.seeds(variant, 25) if d.n in (5, 12, 25)])
    xw, xh = state.wave_nodes(64), state.heat_nodes(64)
    y = state.StateVector(u=np.cos(xw), v=np.sin(2 * xw), w=xh * (1 - xh))
    yield det_two_path(y, (2.0, 17.0, 313.0))
    yield resolvent_coupling(10.0, y)
    grid = discretization.GridSpec(128, 128)
    yield kernel_vector(discretization.assemble(grid, NEU))
    yield kernel_functional_values(128)
    series = simulator.run(
        discretization.make_domain_data("smooth_bump", grid, NEU, k=1).state,
        simulator.SimulationConfig(dt=grid.h_wave / 4, t_max=10.0, grid=grid, variant=NEU,
                                   output_stride=8))
    yield energy_monotone(series)
    yield energy_balance(series)
    yield phi_constant_along_flow(series)
    grid_r = resolvent.required_grid(50.0, factor=2.5)
    disc = discretization.assemble(grid_r, NEU)
    s_eff, gap = resolvent.snap_to_resonance(disc, 50.0)
    row = {"norm_discrete": resolvent.resolvent_norm_discrete(s_eff, disc),
           "spectral_lower_bound": 1.0 / gap}
    yield norm_times_gap([row])
    row["norm_sampled"] = resolvent.resolvent_norm_sampled(s_eff, 40, grid_r, rng)
    yield sampled_below_discrete([row])
    yield dirichlet_no_kernel(discretization.assemble(grid, DIR))
