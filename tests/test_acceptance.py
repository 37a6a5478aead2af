"""Acceptance suite: one test per criterion, printing a PASS line each.

Expensive artifacts (root enumerations, norm sweeps, long trajectories)
are shared through module-scoped fixtures.  The structural checks and
their bounds come from ``waveheat.checks``, the battery ``waveheat verify``
prints; the rate tolerances are pinned here.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
values per criterion.
"""

import math

import numpy as np
import pytest

from waveheat import checks
from waveheat.characteristic import BoundaryVariant, det_growth_ratio
from waveheat.discretization import GridSpec, make_domain_data
from waveheat.resolvent import _with_worker, apply_resolvent, sweep
from waveheat.simulator import (
    SimulationConfig,
    decade_slopes,
    fit_decay,
    last_clean_decade,
    project_kernel,
    run,
)
from waveheat.spectrum import count_zeros_contour, decay_envelope, polish, seeds
from waveheat.state import StateVector, heat_nodes, wave_nodes

from conftest import defining_residual, smooth_triple

NEU = BoundaryVariant.NEUMANN
DIR = BoundaryVariant.DIRICHLET

DECAY_GRID_N = 800
DECAY_SLOPE_BOUND = -3.7
SLOPE_JITTER = 0.1  # decade-slope monotonicity allowance for fit noise
# t^2 L(t) over t in [10, 300] measured 1.0827-1.2431 (Neumann) and
# 1.0827-1.2485 (Dirichlet); its limit is 8 exp(-2) = 1.08268
ENVELOPE_BAND = (1.08, 1.26)
ENVELOPE_SLOPE_TOL = 0.05  # measured log-log slopes -2.0214, -2.0216


def _passed(*results):
    failed = [c for c in results if not c.passed]
    assert not failed, failed


def _enumerate(variant, lo=5, hi=200):
    by_n = {s.n: s for s in seeds(variant, hi)}
    return [polish(by_n[n], variant) for n in range(lo, hi + 1)]


@pytest.fixture(scope="module")
def neumann_records():
    return _enumerate(NEU)


@pytest.fixture(scope="module")
def dirichlet_records():
    return _enumerate(DIR)


@pytest.fixture(scope="module")
def neumann_sweep():
    return sweep(NEU, np.logspace(1, 3, 25), resolution_factor=2.5,
                 doubling_check=True)


@pytest.fixture(scope="module")
def dirichlet_sweep():
    return sweep(DIR, np.logspace(1, 3, 25), resolution_factor=2.5,
                 doubling_check=True)


def _decay_series(variant, k, t_max):
    grid = GridSpec(DECAY_GRID_N, DECAY_GRID_N)
    datum = make_domain_data("smooth_bump", grid, variant, k=k)
    x0 = datum.state
    if variant is NEU:
        x0, _ = project_kernel(x0)
    config = SimulationConfig(
        dt=grid.h_wave / 4.0, t_max=t_max, grid=grid, variant=variant,
        output_stride=max(1, int(round(t_max / (grid.h_wave / 4.0))) // 2000),
    )
    return run(x0, config)


@pytest.fixture(scope="module")
def decay_series():
    # the three trajectories at once: Neumann k=1 here, the other two in a
    # forked worker, on a second core where there is one
    neumann_k1, (neumann_k2, dirichlet_k1) = _with_worker(
        lambda: (_decay_series(NEU, 2, 80.0), _decay_series(DIR, 1, 120.0)),
        lambda: _decay_series(NEU, 1, 120.0),
    )
    return neumann_k1, neumann_k2, dirichlet_k1


@pytest.fixture(scope="module")
def neumann_k1_series(decay_series):
    return decay_series[0]


@pytest.fixture(scope="module")
def neumann_k2_series(decay_series):
    return decay_series[1]


@pytest.fixture(scope="module")
def dirichlet_k1_series(decay_series):
    return decay_series[2]


def _check_localization(records, variant, label):
    by_n = {s.n: s for s in seeds(variant, 200)}
    counts = [
        count_zeros_contour(by_n[r.n].center, by_n[r.n].radius, variant)
        for r in records
    ]
    _passed(checks.polish(records), checks.contour_counts(variant, counts))
    print(f"PASS criterion[{label}]: n=5..200 localized, Re<0, "
          f"max residual {max(r.residual for r in records):.1e}, all counts 1")


def _check_band(records, label):
    top = [r for r in records if 50 <= r.n <= 200]
    products = [abs(r.lam.real) * abs(r.lam.imag) ** 0.5 for r in top]
    c_lo, c_hi = min(products), max(products)
    assert c_lo > 0
    assert c_hi / c_lo <= 3.0
    print(f"PASS criterion[{label}]: |Re|*sqrt|Im| in [{c_lo:.4f}, {c_hi:.4f}] "
          f"(ratio {c_hi / c_lo:.3f} <= 3)")


def _check_growth(rows, label):
    svals = np.array([r["s"] for r in rows])
    norms = np.array([r["norm_discrete"] for r in rows])
    slope = float(np.polyfit(np.log(svals), np.log(norms), 1)[0])
    worst_doubling = max(r["doubling_change"] for r in rows)
    assert 0.4 <= slope <= 0.6
    assert worst_doubling < 0.05
    print(f"PASS criterion[{label}]: slope {slope:.4f} in [0.4, 0.6], "
          f"worst doubling change {100 * worst_doubling:.2f}% < 5%")


def _check_decay(series, label):
    window = last_clean_decade(series)
    fit = fit_decay(series, window, k=1)
    slopes = [s for _, s in decade_slopes(series)]
    assert fit.slope <= DECAY_SLOPE_BOUND
    assert all(b <= a + SLOPE_JITTER for a, b in zip(slopes[:-1], slopes[1:]))
    print(f"PASS criterion[{label}]: slope {fit.slope:.2f} <= {DECAY_SLOPE_BOUND} "
          f"on [{window[0]:.1f}, {window[1]:.1f}], decade slopes "
          + " -> ".join(f"{s:.2f}" for s in slopes))


def test_criterion_1_eigenvalue_localization(neumann_records):
    _check_localization(neumann_records, NEU, "1 neumann localization")


def test_criterion_2_eigenvalue_asymptotics(neumann_records):
    _check_band(neumann_records, "2 neumann band")


def test_criterion_3_resolvent_growth(neumann_sweep):
    _check_growth(neumann_sweep, "3 neumann resolvent growth")


def test_criterion_4_closed_form_resolvent(rng):
    worst_order = (math.inf, -math.inf)
    worst_bc = 0.0
    for s in (2.0, 10.0, 100.0):
        base = max(64, int(math.ceil(10 * s / (2 * math.pi))))
        for _ in range(20):
            make = smooth_triple(rng)
            errs = []
            for factor in (1, 2, 4):
                y = make(base * factor, base * factor)
                errs.append(defining_residual(s, y, apply_resolvent(s, y)))
                if factor == 1:
                    coupling = checks.resolvent_coupling(s, y)
                    worst_bc = max(worst_bc, coupling.value)
                    _passed(coupling)
            for i in range(2):
                order = math.log2(errs[i] / errs[i + 1])
                worst_order = (min(worst_order[0], order), max(worst_order[1], order))
                assert abs(order - 2.0) <= 0.3
    print(f"PASS criterion[4 closed form]: orders in [{worst_order[0]:.2f}, "
          f"{worst_order[1]:.2f}] (2.0 +- 0.3), worst coupling residual "
          f"{worst_bc:.1e} <= 1e-8")


def test_criterion_5_axis_lower_bound():
    mags = np.logspace(math.log10(2.0), 4.0, 5000)
    samples = np.concatenate([mags, -mags])
    vals = det_growth_ratio(samples)
    c_coarse = float(vals.min())
    # refine around the 20 smallest coarse samples at 10x local density
    spacing = np.maximum(np.abs(samples) * (math.log(1e4 / 2.0) / 5000), 1e-3)
    idx = np.argsort(vals)[:20]
    local = np.linspace(samples[idx] - spacing[idx], samples[idx] + spacing[idx], 21)
    local = local[np.abs(local) >= 2.0]
    fine = checks.axis_growth_ratio_positive(np.concatenate([samples, local]))
    c_fine = fine.value
    _passed(fine)
    assert abs(c_fine - c_coarse) <= 0.01 * c_coarse
    print(f"PASS criterion[5 axis lower bound]: c_min = {c_fine:.6f} > 0, "
          f"refinement shift {100 * abs(c_fine - c_coarse) / c_coarse:.3f}% <= 1%")


def test_criterion_6_energy_decay_neumann(neumann_k1_series):
    _check_decay(neumann_k1_series, "6 neumann decay")


def test_criterion_7_smoothness_hierarchy(neumann_k1_series, neumann_k2_series):
    window = last_clean_decade(neumann_k2_series)
    fit_k1 = fit_decay(neumann_k1_series, window, k=1)
    fit_k2 = fit_decay(neumann_k2_series, window, k=2)
    assert fit_k2.slope <= fit_k1.slope - 2.0
    print(f"PASS criterion[7 hierarchy]: k=1 slope {fit_k1.slope:.2f}, "
          f"k=2 slope {fit_k2.slope:.2f} on [{window[0]:.1f}, {window[1]:.1f}], "
          f"gap {fit_k1.slope - fit_k2.slope:.2f} >= 2")


def test_criterion_8_structural_suite(rng, neumann_records, neumann_k1_series,
                                      neumann_sweep):
    # kernel invariance of the constant state
    grid = GridSpec(128, 128)
    ones = StateVector(u=np.ones(129), v=np.zeros(129), w=np.zeros(129), variant=NEU)
    cfg = SimulationConfig(dt=grid.h_wave / 2, t_max=20.0, grid=grid,
                           variant=NEU, output_stride=64)
    series = run(ones, cfg)
    assert np.max(series.energies) <= 1e-20 and series.phi[0] == 1.0

    by_n = {s.n: s for s in seeds(NEU, 40)}
    up = [r for r in neumann_records if r.n in (5, 11, 23, 39)]
    xw, xh = wave_nodes(64), heat_nodes(64)
    y = StateVector(u=np.cos(xw), v=np.sin(2 * xw), w=xh * (1 - xh))
    _passed(
        checks.phi_constant_along_flow(series),
        checks.kernel_functional_values(64),
        # monotone energy and exact dissipation balance on the long run
        checks.energy_monotone(neumann_k1_series),
        checks.energy_balance(neumann_k1_series),
        checks.schwarz_reflection(
            [complex(rng.uniform(-20, 20), rng.uniform(0.05, 50)) for _ in range(50)]),
        checks.conjugate_pairs(up, [polish(by_n[-(r.n + 1)], NEU) for r in up]),
        checks.det_two_path(y, (2.0, 17.0, 313.0)),
        checks.norm_times_gap(neumann_sweep),
    )

    print("PASS criterion[8 structural suite]: kernel invariance, functional "
          "values, monotone balance, reflection, conjugate pairs, two-path "
          "determinant, norm >= 1/gap")


def test_criterion_9a_dirichlet_localization(dirichlet_records):
    _check_localization(dirichlet_records, DIR, "9 dirichlet localization")


def test_criterion_9b_dirichlet_band(dirichlet_records):
    _check_band(dirichlet_records, "9 dirichlet band")


def test_criterion_9c_dirichlet_resolvent_growth(dirichlet_sweep):
    _check_growth(dirichlet_sweep, "9 dirichlet resolvent growth")


def test_criterion_9d_dirichlet_energy_decay(dirichlet_k1_series):
    _check_decay(dirichlet_k1_series, "9 dirichlet decay")


@pytest.mark.parametrize("variant", [NEU, DIR], ids=["neumann", "dirichlet"])
def test_criterion_10_sharp_rate_envelope(variant):
    # every eigenpair bounds ||T(t) A^-1|| below by exp(t Re lam)/|lam|; the
    # maximizing branch grows like t^2/(8 pi), about 3,600 at t = 300
    records = [polish(d, variant) for d in seeds(variant, 4000) if d.n >= 0]
    ts = np.logspace(1, math.log10(300.0), 41)
    envelope = decay_envelope(records, ts)
    scaled = ts**2 * envelope
    slope = float(np.polyfit(np.log(ts), np.log(envelope), 1)[0])
    lo, hi = ENVELOPE_BAND
    assert lo <= scaled.min() and scaled.max() <= hi
    assert abs(slope + 2.0) <= ENVELOPE_SLOPE_TOL
    print(f"PASS criterion[10 {variant.value} sharp-rate envelope]: t^2 L(t) in "
          f"[{scaled.min():.4f}, {scaled.max():.4f}] within [{lo}, {hi}], "
          f"log-log slope {slope:.4f} (-2 +- {ENVELOPE_SLOPE_TOL})")
