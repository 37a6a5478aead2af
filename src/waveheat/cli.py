"""Command-line entry point: sweeps, CSV emission and SVG plots.

Exit codes: 0 success, 1 usage or I/O failure, 2 numerical failure or out of memory.
A key=value config file can seed any long flag, a boolean one with true
or false; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import characteristic as ch
from . import checks
from . import discretization as dz
from . import resolvent as rv
from . import simulator as sim
from . import spectrum as spx
from .errors import WaveHeatError
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

    def common(q, *flags):
        if "variant" in flags:
            q.add_argument("--variant", choices=["neumann", "dirichlet"], default="neumann")
        q.add_argument("--out", default="out", help="output directory")
        if "seed" in flags:
            q.add_argument("--seed", type=int, default=0, help="RNG seed for sampling")
        q.add_argument("--config", default=None, help="key=value config file")

    q = sub.add_parser(
        "spectrum", help="enumerate eigenvalues, write eigenvalues.csv",
        epilog="eigenvalues.csv columns: n, re, im, residual, iters, contained, variant",
    )
    common(q, "variant")
    q.add_argument("--nmax", type=int, default=100, help="largest branch index")

    q = sub.add_parser(
        "resolvent", help="resolvent-norm sweep, write resolvent.csv",
        epilog="resolvent.csv columns: s, norm_discrete, norm_sampled, "
               "spectral_lower_bound, grid_N, slope_window_estimate",
    )
    common(q, "variant", "seed")
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
    common(q, "variant")
    q.add_argument("--grid", type=int, default=400, help="cells per segment")
    q.add_argument("--dt", type=float, default=None, help="time step (default h/4)")
    q.add_argument("--tmax", type=float, default=120.0)
    q.add_argument("--profile", default="smooth_bump",
                   choices=["smooth_bump", "polynomial", "k2"])
    q.add_argument("--stride", type=int, default=None, help="output stride in steps")

    q = sub.add_parser("verify", help="run the structural check battery")
    common(q, "seed")
    q.add_argument("--nmax", type=int, default=40)
    return p


def _boolean_flags(command: str) -> set[str]:
    """The store_true flags of subcommand ``command``, as spelled on the command line."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions if command in sub.choices else []
    return {flag for action in actions if isinstance(action, argparse._StoreTrueAction)
            for flag in action.option_strings}


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
    booleans = _boolean_flags(argv[1])
    extra: list[str] = []
    try:
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            flag, value = f"--{key.strip().replace('_', '-')}", value.strip()
            if flag not in booleans or value.lower() not in ("true", "false"):
                extra.append(f"{flag}={value}")
            elif value.lower() == "true":
                extra.append(flag)
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
    variant = _variant(args.variant)
    least = 1 if variant is ch.BoundaryVariant.DIRICHLET else 0  # Dirichlet has no branch 0
    if args.nmax < least:
        print(f"waveheat spectrum: --nmax must be >= {least} for {variant.value}",
              file=sys.stderr)
        return USAGE_EXIT
    out = _ensure_outdir(args.out)
    records = []
    failures = 0
    for seed in spx.seeds(variant, args.nmax):
        try:
            records.append(spx.polish(seed, variant))
        except WaveHeatError as exc:
            failures += 1
            print(f"polish failed for n={seed.n}: {exc}", file=sys.stderr)
    spx.write_eigenvalues_csv(records, out / "eigenvalues.csv")
    if records:  # else every polish failed: nothing to plot, and the exit is 2
        svg_plot(out / "eigenvalues.svg",
                 [Series(x=[r.lam.real for r in records], y=[r.lam.imag for r in records],
                         label=f"{variant.value} roots", marker=True)],
                 title="eigenvalue cloud", xlabel="Re", ylabel="Im")
    print(f"wrote {len(records)} records to {out/'eigenvalues.csv'}")
    if len(records) >= 20:
        rep = spx.asymptotics_report(records)
        print(
            f"|Re|*sqrt|Im| band over upper half: "
            f"[{rep.product_min:.4f}, {rep.product_max:.4f}]"
        )
    return NUMERICAL_EXIT if failures else 0


def _non_finite(command: str, **flags) -> bool:
    """Report on stderr the given float flags that are NaN or infinite."""
    bad = [f"--{name.replace('_', '-')}" for name, value in flags.items()
           if value is not None and not math.isfinite(value)]
    if bad:
        print(f"waveheat {command}: {', '.join(bad)} must be finite", file=sys.stderr)
    return bool(bad)


def cmd_resolvent(args) -> int:
    if _non_finite("resolvent", s_min=args.s_min, s_max=args.s_max,
                   resolution_factor=args.resolution_factor):
        return USAGE_EXIT
    if args.trials < 0:
        print("waveheat resolvent: --trials must be >= 0", file=sys.stderr)
        return USAGE_EXIT
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
    except ValueError as exc:
        print(f"waveheat resolvent: {exc}", file=sys.stderr)
        return USAGE_EXIT
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
    if args.trials > 0:
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
    if _non_finite("simulate", dt=args.dt, tmax=args.tmax):
        return USAGE_EXIT
    if args.dt is not None and args.dt <= 0:  # before the default stride divides by it
        print("waveheat simulate: --dt must be positive", file=sys.stderr)
        return USAGE_EXIT
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


def cmd_verify(args) -> int:
    if args.nmax < 5:
        print("waveheat verify: --nmax must be >= 5", file=sys.stderr)
        return USAGE_EXIT
    failures = 0
    for check in checks.battery(args.nmax, np.random.default_rng(args.seed)):
        print(f"{'PASS' if check.passed else 'FAIL'}  {check.name:32s} {check.detail}")
        failures += not check.passed
    print(f"\n{failures} failing check(s)" if failures else "\nall checks passed")
    return NUMERICAL_EXIT if failures else 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv if argv is None else ["waveheat"] + list(argv))
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "seed", 0) < 0:  # numpy seeds must be non-negative
        print(f"waveheat {args.command}: --seed must be >= 0", file=sys.stderr)
        return USAGE_EXIT
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
    except MemoryError as exc:  # such as a grid too large to allocate
        print(f"waveheat: out of memory: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except OSError as exc:
        print(f"waveheat: {exc}", file=sys.stderr)
        return USAGE_EXIT


def _entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    _entry()
