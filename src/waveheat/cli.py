"""Command-line entry point: sweeps, CSV emission and SVG plots.

Exit codes: 0 success, 1 usage or I/O failure, 2 numerical failure.
A key=value config file can seed any long flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import characteristic as ch
from . import discretization as dz
from . import resolvent as rv
from . import simulator as sim
from . import spectrum as spx
from .errors import WaveHeatError
from .state import DataTriple, heat_nodes, wave_nodes
from .svgplot import Series, svg_plot

USAGE_EXIT, NUMERICAL_EXIT = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _variant(name: str) -> ch.BoundaryVariant:
    return ch.BoundaryVariant(name)


def build_parser() -> _Parser:
    p = _Parser(prog="waveheat", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(q):
        q.add_argument("--variant", choices=["neumann", "dirichlet"], default="neumann")
        q.add_argument("--out", default="out", help="output directory")
        q.add_argument("--seed", type=int, default=0, help="RNG seed for sampling")
        q.add_argument("--config", default=None, help="key=value config file")

    q = sub.add_parser(
        "spectrum", help="enumerate eigenvalues, write eigenvalues.csv",
        epilog="eigenvalues.csv columns: n, re, im, residual, iters, contained, variant",
    )
    common(q)
    q.add_argument("--nmax", type=int, default=100, help="largest branch index")

    q = sub.add_parser(
        "resolvent", help="resolvent-norm sweep, write resolvent.csv",
        epilog="resolvent.csv columns: s, norm_discrete, norm_sampled, "
               "spectral_lower_bound, grid_N, slope_window_estimate",
    )
    common(q)
    q.add_argument("--s-min", type=float, default=10.0)
    q.add_argument("--s-max", type=float, default=1000.0)
    q.add_argument("--s-points", type=int, default=25)
    q.add_argument("--trials", type=int, default=0,
                   help="randomized lower-bound samples per frequency (0 = skip)")
    q.add_argument("--resolution-factor", type=float, default=2.5)
    q.add_argument("--double-check", action="store_true",
                   help="also compute each norm on a doubled grid")

    q = sub.add_parser(
        "simulate", help="time integration, write energy.csv",
        epilog="energy.csv columns: t, E, dissipation_rate, phi, local_slope",
    )
    common(q)
    q.add_argument("--grid", type=int, default=400, help="cells per segment")
    q.add_argument("--dt", type=float, default=None, help="time step (default h/4)")
    q.add_argument("--tmax", type=float, default=120.0)
    q.add_argument("--profile", default="smooth_bump",
                   choices=["smooth_bump", "polynomial", "k2"])
    q.add_argument("--stride", type=int, default=None, help="output stride in steps")

    q = sub.add_parser("verify", help="run the structural check battery")
    common(q)
    q.add_argument("--nmax", type=int, default=40)
    return p


def _apply_config_file(argv: list[str]) -> list[str]:
    """Prepend file-sourced flags so explicit command-line flags win."""
    if "--config" in argv:
        idx = argv.index("--config")
        if idx + 1 >= len(argv):
            return argv
        path = argv[idx + 1]
    else:
        pref = [a.split("=", 1)[1] for a in argv if a.startswith("--config=")]
        if not pref:
            return argv
        path = pref[0]
    extra: list[str] = []
    try:
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            extra.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    except OSError as exc:
        print(f"waveheat: cannot read config file: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT) from exc
    # insert after the subcommand token so explicit flags still override
    return argv[:2] + extra + argv[2:]


def _ensure_outdir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"waveheat: output directory not writable: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT) from exc
    return out


def cmd_spectrum(args) -> int:
    if args.nmax < 0:
        print("waveheat spectrum: --nmax must be >= 0", file=sys.stderr)
        return USAGE_EXIT
    out = _ensure_outdir(args.out)
    variant = _variant(args.variant)
    records = []
    failures = 0
    for seed in spx.seeds(variant, args.nmax):
        try:
            records.append(spx.polish(seed, variant))
        except WaveHeatError as exc:
            failures += 1
            print(f"polish failed for n={seed.n}: {exc}", file=sys.stderr)
    spx.write_eigenvalues_csv(records, out / "eigenvalues.csv")
    svg_plot(
        out / "eigenvalues.svg",
        [Series(x=[r.lam.real for r in records], y=[r.lam.imag for r in records],
                label=f"{variant.value} roots", marker=True)],
        title="eigenvalue cloud", xlabel="Re", ylabel="Im",
    )
    print(f"wrote {len(records)} records to {out/'eigenvalues.csv'}")
    if len(records) >= 20:
        rep = spx.asymptotics_report(records)
        print(
            f"|Re|*sqrt|Im| band over upper half: "
            f"[{rep.product_min:.4f}, {rep.product_max:.4f}]"
        )
    return NUMERICAL_EXIT if failures else 0


def cmd_resolvent(args) -> int:
    if args.s_points < 2 or args.s_min < 2.0 or args.s_max <= args.s_min:
        print("waveheat resolvent: need s-points >= 2 and 2 <= s-min < s-max",
              file=sys.stderr)
        return USAGE_EXIT
    out = _ensure_outdir(args.out)
    variant = _variant(args.variant)
    targets = np.logspace(math.log10(args.s_min), math.log10(args.s_max), args.s_points)
    try:
        rows = rv.sweep(
            variant, targets, resolution_factor=args.resolution_factor,
            trials=args.trials, seed=args.seed, doubling_check=args.double_check,
        )
    except WaveHeatError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    svals = np.array([r["s"] for r in rows])
    norms = np.array([r["norm_discrete"] for r in rows])
    with open(out / "resolvent.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "norm_discrete", "norm_sampled",
                         "spectral_lower_bound", "grid_N", "slope_window_estimate"])
        for i, row in enumerate(rows):
            lo = max(0, i - 6)
            slope = (
                np.polyfit(np.log(svals[lo : i + 1]), np.log(norms[lo : i + 1]), 1)[0]
                if i - lo >= 2 else math.nan
            )
            writer.writerow([
                f"{row['s']:.9e}", f"{row['norm_discrete']:.9e}",
                f"{row['norm_sampled']:.9e}", f"{row['spectral_lower_bound']:.9e}",
                row["grid_N"], f"{slope:.6f}" if math.isfinite(slope) else "nan",
            ])
    slope = float(np.polyfit(np.log(svals), np.log(norms), 1)[0])
    ref = [norms[0] * math.sqrt(s / svals[0]) for s in svals]
    series = [
        Series(x=list(svals), y=list(norms), label="discrete norm"),
        Series(x=list(svals), y=ref, label="slope 1/2 reference", dashed=True),
    ]
    if args.trials > 0 and variant is ch.BoundaryVariant.NEUMANN:
        series.append(Series(x=list(svals), y=[r["norm_sampled"] for r in rows],
                             label="sampled lower bound", marker=True))
    svg_plot(out / "resolvent.svg", series, title="resolvent growth along the axis",
             xlabel="s", ylabel="norm", logx=True, logy=True)
    print(f"wrote {len(rows)} rows to {out/'resolvent.csv'}")
    print(f"fitted log-log slope: {slope:.4f}")
    if args.double_check:
        worst = max(r["doubling_change"] for r in rows)
        print(f"worst grid-doubling change: {100 * worst:.2f}%")
    return 0


def _simulate_one(variant, grid, dt, tmax, profile, k, stride):
    datum = dz.make_domain_data(profile, grid, variant, k=k)
    x0 = datum.state
    if variant is ch.BoundaryVariant.NEUMANN:
        x0, _ = sim.project_kernel(x0)
    config = sim.SimulationConfig(
        dt=dt, t_max=tmax, grid=grid, variant=variant, output_stride=stride
    )
    series = sim.run(x0, config)
    window = sim.last_clean_decade(series)
    fit = sim.fit_decay(series, window, k=k)
    return series, fit


def cmd_simulate(args) -> int:
    out = _ensure_outdir(args.out)
    variant = _variant(args.variant)
    try:
        grid = dz.GridSpec(args.grid, args.grid)
        dt = args.dt if args.dt is not None else grid.h_wave / 4.0
        stride = args.stride if args.stride is not None else max(
            1, int(round(args.tmax / dt)) // 2000
        )
        profiles = [("smooth_bump", 1)]
        if args.profile == "k2":
            profiles = [("smooth_bump", 1), ("smooth_bump", 2)]
        elif args.profile == "polynomial":
            profiles = [("polynomial", 1)]
        results = []
        for prof, k in profiles:
            series, fit = _simulate_one(variant, grid, dt, args.tmax, prof, k, stride)
            results.append((prof, k, series, fit))
    except (ValueError, WaveHeatError) as exc:
        print(f"waveheat simulate: {exc}", file=sys.stderr)
        return USAGE_EXIT if isinstance(exc, ValueError) else NUMERICAL_EXIT
    series = results[0][2]
    sim.write_energy_csv(series, out / "energy.csv")
    plot_series = []
    for prof, k, srs, fit in results:
        mask = srs.energies > 0
        plot_series.append(Series(
            x=list(srs.times[mask][1:]), y=list(srs.energies[mask][1:]),
            label=f"{prof} k={k} (slope {fit.slope:.2f})",
        ))
        print(
            f"{prof} k={k}: slope {fit.slope:.3f} +- {fit.stderr:.3f} "
            f"on window [{fit.window[0]:.2f}, {fit.window[1]:.2f}]"
        )
    svg_plot(out / "energy.svg", plot_series, title="energy decay",
             xlabel="t", ylabel="E", logx=True, logy=True)
    print(f"wrote {out/'energy.csv'}")
    if len(results) == 2:
        gap = results[0][3].slope - results[1][3].slope
        print(f"slope separation (k=1 minus k=2): {gap:.3f}")
    return 0


def _check(name: str, ok: bool, detail: str, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name:32s} {detail}")
    if not ok:
        failures.append(name)


def cmd_verify(args) -> int:
    if args.nmax < 5:
        print("waveheat verify: --nmax must be >= 5", file=sys.stderr)
        return USAGE_EXIT
    _ensure_outdir(args.out)
    rng = np.random.default_rng(args.seed)
    failures: list[str] = []
    neu, dir_ = ch.BoundaryVariant.NEUMANN, ch.BoundaryVariant.DIRICHLET

    # reflection symmetry and scaled/unscaled agreement
    worst_refl, worst_scaled = 0.0, 0.0
    for _ in range(40):
        lam = complex(rng.uniform(-20, 20), rng.uniform(0.1, 40))
        for variant in (neu, dir_):
            val = ch.char_fn(lam, variant)
            refl = abs(ch.char_fn(lam.conjugate(), variant) - val.conjugate())
            worst_refl = max(worst_refl, refl / max(abs(val), 1e-300))
            sv = ch.char_fn_scaled(lam, variant)
            worst_scaled = max(
                worst_scaled, abs(sv.value() - val) / max(abs(val), 1e-300)
            )
    _check("schwarz_reflection", worst_refl < 1e-12, f"max rel {worst_refl:.2e}", failures)
    _check("scaled_unscaled_agreement", worst_scaled < 1e-12,
           f"max rel {worst_scaled:.2e}", failures)

    # product identity of the meromorphic splitting
    worst = 0.0
    for _ in range(40):
        lam = complex(rng.uniform(-3, 6), rng.uniform(0.3, 20))
        f_val, g_val = ch.fg_split(lam)
        r = ch.principal_sqrt(lam)
        import cmath as _cm

        lhs = (f_val + g_val) * _cm.sinh(lam) * r * _cm.cosh(r)
        rhs = ch.char_fn(lam, neu)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    _check("fg_product_identity", worst < 1e-10, f"max rel {worst:.2e}", failures)

    # derivative against central differences
    worst = 0.0
    for _ in range(25):
        lam = complex(rng.uniform(-5, 5), rng.uniform(0.5, 30))
        step = 1e-6
        for variant in (neu, dir_):
            fd = (ch.char_fn(lam + step, variant) - ch.char_fn(lam - step, variant)) / (2 * step)
            an = ch.char_fn_deriv(lam, variant)
            worst = max(worst, abs(fd - an) / abs(an))
    _check("derivative_vs_fd", worst < 1e-6, f"max rel {worst:.2e}", failures)

    # determinant growth ratio positive on a log grid
    samples = np.logspace(math.log10(2.0), 4.0, 2000)
    cmin = float(ch.det_growth_ratio(np.concatenate([samples, -samples[::40]])).min())
    _check("axis_growth_ratio_positive", cmin > 0.0, f"min {cmin:.6f}", failures)

    # polishing, containment, conjugate pairing, contour counts
    for variant in (neu, dir_):
        records = [spx.polish(s, variant)
                   for s in spx.seeds(variant, args.nmax) if s.n >= 5]
        ok = all(r.contained and r.residual <= 1e-10 and r.lam.real < 0 for r in records)
        _check(f"polish_{variant.value}", ok,
               f"n=5..{args.nmax}, max resid "
               f"{max(r.residual for r in records):.1e}", failures)
        mirrored = {r.n: r for s in spx.seeds(variant, args.nmax) if s.n <= -5
                    for r in [spx.polish(s, variant)]}
        pair_err = 0.0
        for r in records:
            mirror_n = -(r.n + 1) if variant is neu else -r.n
            if mirror_n in mirrored:
                pair_err = max(pair_err, abs(mirrored[mirror_n].lam - r.lam.conjugate()))
        _check(f"conjugate_pairs_{variant.value}", pair_err < 1e-10,
               f"max {pair_err:.1e}", failures)
        counts = []
        for s_obj in spx.seeds(variant, 25):
            if s_obj.n in (5, 12, 25):
                counts.append(spx.count_zeros_contour(s_obj.center, s_obj.radius, variant))
        _check(f"contour_counts_{variant.value}", counts == [1, 1, 1],
               f"counts {counts}", failures)

    # determinant two-path agreement through the interface system
    xw, xh = wave_nodes(64), heat_nodes(64)
    y = DataTriple(f=np.cos(xw), g=np.sin(2 * xw), h=xh * (1 - xh))
    worst = 0.0
    for s in (2.0, 17.0, 313.0):
        co = rv.solve_coefficients(s, y)
        direct = co.M[0, 0] * co.M[1, 1] - co.M[0, 1] * co.M[1, 0]
        worst = max(worst, abs(direct - co.detM.value()) / abs(direct))
    _check("det_two_path", worst < 1e-10, f"max rel {worst:.2e}", failures)

    # closed-form resolvent boundary and coupling residuals
    x = rv.apply_resolvent(10.0, y)
    z = ch.principal_sqrt(10j)
    co = rv.solve_coefficients(10.0, y)
    w_prime0 = z * co.b * np.cosh(z) + rv.particular_heat(10.0, y)[1][0]
    bc = max(
        abs(x.u_prime[0]), abs(x.w[-1]),
        abs(x.v[-1] - x.w[0]), abs(x.u_prime[-1] - w_prime0),
    ) / y.norm_X
    _check("resolvent_coupling", bc < 1e-8, f"max residual {bc:.2e}", failures)

    # discrete generator: kernel, functional values, dissipativity
    grid = dz.GridSpec(128, 128)
    gen = dz.assemble(grid, neu)
    ones = np.concatenate([np.ones(129), np.zeros(129), np.zeros(127)])
    kernel_res = float(np.abs(gen.A @ ones).max())
    _check("kernel_vector", kernel_res == 0.0, f"|A(1,0,0)| = {kernel_res:.1e}", failures)
    from .state import StateVector

    xw, xh = wave_nodes(128), heat_nodes(128)
    phis = [
        sim.kernel_functional(StateVector(np.ones_like(xw), np.zeros_like(xw), np.zeros_like(xh))),
        sim.kernel_functional(StateVector(np.zeros_like(xw), np.ones_like(xw), np.zeros_like(xh))),
        sim.kernel_functional(StateVector(np.zeros_like(xw), np.zeros_like(xw), np.ones_like(xh))),
    ]
    ok = (abs(phis[0] - 1) < 1e-12 and abs(phis[1] - 1) < 1e-12
          and abs(phis[2] - 0.5) < 1e-12)
    _check("kernel_functional_values", ok,
           "phi = " + ", ".join(f"{p:.6f}" for p in phis), failures)

    # short trajectory: monotone energy, exact balance, kernel invariance
    datum = dz.make_domain_data("smooth_bump", grid, neu, k=1)
    config = sim.SimulationConfig(dt=grid.h_wave / 4, t_max=10.0, grid=grid,
                                  variant=neu, output_stride=8)
    series = sim.run(datum.state, config)
    incr = float(np.max(np.diff(series.energies)))
    balance = float(np.max(np.abs(
        np.diff(series.energies) + series.dissipation[1:]
    ))) / series.energies[0]
    _check("energy_monotone", incr <= 1e-12 * series.energies[0],
           f"max increment {incr:.1e}", failures)
    _check("energy_balance", balance < 1e-10, f"rel defect {balance:.1e}", failures)
    phi_drift = float(np.max(np.abs(series.phi - series.phi[0])))
    _check("phi_constant_along_flow", phi_drift < 1e-8, f"drift {phi_drift:.1e}", failures)

    # resolvent norm against the spectral distance bound
    grid_r = rv.required_grid(50.0, factor=2.5)
    disc = dz.assemble(grid_r, neu)
    s_eff, gap = rv.snap_to_resonance(disc, 50.0)
    nrm = rv.resolvent_norm_discrete(s_eff, disc)
    _check("norm_times_gap", nrm * gap >= 1.0, f"product {nrm * gap:.3f}", failures)
    sampled = rv.resolvent_norm_sampled(s_eff, 40, grid_r, rng)
    _check("sampled_below_discrete", sampled <= 1.05 * nrm,
           f"ratio {sampled / nrm:.3f}", failures)

    # Dirichlet spectrum bounded away from zero
    gen_d = dz.assemble(grid, dir_)
    evd = gen_d.eigenvalues_near(0.0, k=3)
    _check("dirichlet_no_kernel", float(np.min(np.abs(evd))) > 0.3,
           f"min |eig| {float(np.min(np.abs(evd))):.3f}", failures)

    print(f"\n{len(failures)} failing check(s)" if failures else "\nall checks passed")
    return NUMERICAL_EXIT if failures else 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv if argv is None else ["waveheat"] + list(argv))
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "spectrum":
            return cmd_spectrum(args)
        if args.command == "resolvent":
            return cmd_resolvent(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_verify(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except WaveHeatError as exc:
        print(f"waveheat: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except OSError as exc:
        print(f"waveheat: {exc}", file=sys.stderr)
        return USAGE_EXIT


def _entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    _entry()
