"""A check that fails is counted in failed_frac and turns the result incorrect."""

import dataclasses
import json

import numpy as np
import pytest

from perfbench import checks, run
from waveheat import spectrum
from waveheat.characteristic import BoundaryVariant
from waveheat.simulator import EnergySeries

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def census_rows():
    variant = BoundaryVariant.NEUMANN
    by_n = {s.n: s for s in spectrum.seeds(variant, 60)}
    pairs = [(spectrum.polish(by_n[n], variant),
              spectrum.count_zeros_contour(by_n[n].center, by_n[n].radius, variant))
             for n in range(50, 54)]
    return {"neumann": pairs}


def _failed(found):
    return [c.name for c in found if not c.ok]


def test_census_passes_then_fails_on_a_bad_residual(census_rows):
    assert _failed(checks.census(census_rows)) == []
    rec, count = census_rows["neumann"][2]
    bad = dict(census_rows, neumann=list(census_rows["neumann"]))
    bad["neumann"][2] = (dataclasses.replace(rec, residual=1e-8), count)
    assert _failed(checks.census(bad)) == [f"census.neumann.n{rec.n}.residual"]


def _row(s, norm, sampled, bound, change=0.01):
    return {"s": s, "norm_discrete": norm, "norm_sampled": sampled,
            "spectral_lower_bound": bound, "doubling_change": change}


def test_envelope_flags_a_sampled_norm_above_the_discrete_one():
    rows = [_row(s, 2 * s**0.5, s**0.5, 1.9 * s**0.5) for s in (10.0, 100.0, 1000.0)]
    assert _failed(checks.envelope(rows, 0)) == []
    rows[1]["norm_sampled"] = 1.2 * rows[1]["norm_discrete"]
    assert _failed(checks.envelope(rows, 0)) == ["envelope.row1.sampled_below_discrete"]
    assert "envelope.slope" in _failed(checks.envelope(rows[:1], 0))


def _series(power):
    t = np.linspace(0.0, 40.0, 2001)
    e = (1.0 + t) ** -power
    return EnergySeries(times=t, energies=e, dissipation=np.r_[0.0, -np.diff(e)],
                        phi=np.zeros_like(t))


def test_decay_flags_an_energy_increase():
    k1, k2 = _series(5.0), _series(8.0)
    assert _failed(checks.decay([k1, k2], 0)) == []
    k1.energies[500] = 1.01 * k1.energies[499]
    assert _failed(checks.decay([k1, k2], 0)) == ["decay.k1.monotone", "decay.k1.balance"]


def test_verify_counts_each_printed_line():
    text = "PASS  schwarz_reflection   max rel 1e-16\nFAIL  energy_balance   rel defect 1e-3\n"
    found = checks.verify(text, 2)
    assert _failed(found) == ["verify.exit_code", "verify.energy_balance"]
    assert _failed(checks.verify("", 0)) == ["verify.printed_checks"]


def test_a_failed_check_reaches_failed_frac_and_the_result_line():
    rep = {"traced": False, "wall_s": 1.0, "setup_s": 0.5, "cpu_s": 1.0,
           "peak_rss_mb": 50.0, "ref_s": 0.03, "attempted": 8, "arguments": None,
           "failed": [{"name": "decay.k1.balance", "detail": ""}]}
    summary = run.summarize("decay", [rep, {**rep, "failed": []}])
    assert summary["extra"]["failed_frac"] == pytest.approx(1 / 16)
    line = run.result_line({**summary, "trace": 0}, SPEC)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 16, 1)
