"""The four workloads: inputs made before the timed region, the timed call, the checks.

``census`` and ``decay`` have no random inputs; they record the seed and
do not use it.  ``envelope`` and ``verify`` pass it to the CLI's ``--seed``.
Every call goes through a module or class attribute, so the wrappers in
``tracing`` see it.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path

from . import checks

NAMES = ("census", "envelope", "decay", "verify")

# every second index of n = 5..200: 196 disks, about 2.5 s, so that a run
# holds enough repetitions for a steady median
CENSUS_N = range(5, 201, 2)
ENVELOPE_POINTS = 7
DECAY_TMAX, DECAY_DT, DECAY_TRAJECTORIES = 40.0, 0.00125, 2


def cli_args(name: str, seed: int, out: Path) -> list[str] | None:
    """The ``waveheat`` argv of a CLI workload; None for ``census``."""
    if name == "envelope":
        return ["resolvent", "--variant", "neumann", "--s-min", "10", "--s-max", "1000",
                "--s-points", str(ENVELOPE_POINTS), "--double-check", "--trials", "10",
                "--seed", str(seed), "--out", str(out)]
    if name == "decay":
        return ["simulate", "--variant", "neumann", "--grid", "400", "--profile", "k2",
                "--tmax", f"{DECAY_TMAX:g}", "--dt", f"{DECAY_DT:g}", "--out", str(out)]
    if name == "verify":
        return ["verify", "--seed", str(seed), "--out", str(out)]
    return None


def work_units(name: str) -> tuple[str, float] | None:
    """Throughput numerator of a workload: what one repetition completes."""
    if name == "census":
        return "disks_per_s", 2.0 * len(CENSUS_N)
    if name == "envelope":
        return "resonances_per_s", float(ENVELOPE_POINTS)
    if name == "decay":
        return "steps_per_s", DECAY_TRAJECTORIES * round(DECAY_TMAX / DECAY_DT)
    return None


@dataclass
class Outcome:
    """What the timed call left behind for the checks."""

    exit_code: int = 0
    stdout: str = ""
    census: dict = field(default_factory=dict)
    sweeps: list = field(default_factory=list)
    series: list = field(default_factory=list)


class Workload:
    """One repetition: ``prepare`` before the clock starts, ``run`` timed, ``check`` after."""

    def __init__(self, name: str, seed: int, out: Path):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.seed, self.out = name, seed, out
        self.argv = cli_args(name, seed, out)
        # census calls the package directly; these are its arguments
        self.arguments = self.argv or {
            "variants": ["neumann", "dirichlet"],
            "n": [CENSUS_N.start, CENSUS_N[-1], CENSUS_N.step], "seed": "unused"}
        self.outcome = Outcome()
        self._disks: dict = {}

    def prepare(self) -> None:
        # every module the workload touches is imported here, as set-up
        from waveheat import cli, spectrum, svgplot  # noqa: F401
        from waveheat.characteristic import BoundaryVariant

        self.out.mkdir(parents=True, exist_ok=True)
        if self.name == "census":
            for variant in BoundaryVariant:
                by_n = {s.n: s for s in spectrum.seeds(variant, CENSUS_N[-1])}
                self._disks[variant] = [by_n[n] for n in CENSUS_N]

    def run(self) -> None:
        if self.name == "census":
            self._run_census()
            return
        from waveheat import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.outcome.exit_code = cli.main(self.argv)
        self.outcome.stdout = buf.getvalue()

    def _run_census(self) -> None:
        from waveheat import spectrum, svgplot

        series = []
        for variant, disks in self._disks.items():
            pairs = [
                (spectrum.polish(d, variant),
                 spectrum.count_zeros_contour(d.center, d.radius, variant))
                for d in disks
            ]
            records = [rec for rec, _ in pairs]
            spectrum.asymptotics_report(records)
            spectrum.write_eigenvalues_csv(records, self.out / f"eigenvalues_{variant.value}.csv")
            series.append(svgplot.Series(
                x=[r.lam.real for r in records], y=[r.lam.imag for r in records],
                label=f"{variant.value} roots", marker=True,
            ))
            self.outcome.census[variant.value] = pairs
        svgplot.svg_plot(self.out / "eigenvalues.svg", series, title="eigenvalue cloud",
                         xlabel="Re", ylabel="Im")

    @contextlib.contextmanager
    def capturing(self):
        """Keep the return values of ``simulator.run`` and ``resolvent.sweep``.

        The CLI writes energies and norms rounded to 10-13 digits; the
        balance and bound checks need them at full precision.
        """
        from waveheat import resolvent, simulator

        from .tracing import Patches

        def keep(store):
            def make(fn):
                def kept(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    store.append(result)
                    return result
                return kept
            return make

        patches = Patches()
        try:
            patches.install(simulator, "run", keep(self.outcome.series))
            patches.install(resolvent, "sweep", keep(self.outcome.sweeps))
            yield
        finally:
            patches.restore()

    def check(self) -> list[checks.Check]:
        o = self.outcome
        if self.name == "census":
            return checks.census(o.census)
        if self.name == "envelope":
            return checks.envelope(o.sweeps[-1] if o.sweeps else [], o.exit_code)
        if self.name == "decay":
            return checks.decay(o.series, o.exit_code)
        return checks.verify(o.stdout, o.exit_code)
