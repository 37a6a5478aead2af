"""Correctness gates of each workload, with the acceptance-suite tolerances.

Every function returns a list of ``Check``; a run's ``failed_frac`` is the
failed share of the checks its repetitions attempted.  The checks run after the
timed region and do not stop a run: a run that fails one still reports its
timings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RESIDUAL_TOL = 1e-10
BAND_RATIO_MAX = 3.0
BAND_N_MIN, BAND_N_MAX = 50, 200
SPECTRAL_BOUND_SLACK = 1e-9
SAMPLED_OVER_DISCRETE_MAX = 1.05
DOUBLING_CHANGE_MAX = 0.05
SLOPE_RANGE = (0.4, 0.6)
MONOTONE_TOL = 1e-12
BALANCE_TOL = 1e-10
DECAY_SLOPE_BOUND = -3.7
HIERARCHY_GAP = 2.0


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def completed(error: str | None) -> list[Check]:
    return [Check("workload_completed", error is None, error or "")]


def census(rows: dict[str, list[tuple[object, int]]]) -> list[Check]:
    """Per disk: contained, residual, Re < 0, one zero inside; per variant: the band."""
    out = []
    for variant, pairs in rows.items():
        for rec, count in pairs:
            tag = f"census.{variant}.n{rec.n}"
            out += [
                Check(f"{tag}.contained", bool(rec.contained)),
                Check(f"{tag}.residual", rec.residual <= RESIDUAL_TOL, f"{rec.residual:.2e}"),
                Check(f"{tag}.re_negative", rec.lam.real < 0.0, f"{rec.lam.real:.3e}"),
                Check(f"{tag}.count_one", count == 1, f"count {count}"),
            ]
        products = [abs(r.lam.real) * abs(r.lam.imag) ** 0.5
                    for r, _ in pairs if BAND_N_MIN <= r.n <= BAND_N_MAX]
        c_lo, c_hi = (min(products), max(products)) if products else (0.0, math.inf)
        out += [
            Check(f"census.{variant}.band_positive", c_lo > 0.0, f"c_lo {c_lo:.4f}"),
            Check(f"census.{variant}.band_ratio", c_lo > 0.0 and c_hi / c_lo <= BAND_RATIO_MAX,
                  f"[{c_lo:.4f}, {c_hi:.4f}]"),
        ]
    return out


def envelope(rows: list[dict], exit_code: int) -> list[Check]:
    """Per row: norm above the spectral bound, sampled norm below the discrete one;
    per sweep: grid-doubling stability and the log-log slope."""
    out = [Check("envelope.exit_code", exit_code == 0, f"exit {exit_code}")]
    for i, row in enumerate(rows):
        nd, lb, ns = row["norm_discrete"], row["spectral_lower_bound"], row["norm_sampled"]
        out += [
            Check(f"envelope.row{i}.above_spectral_bound",
                  nd >= lb * (1.0 - SPECTRAL_BOUND_SLACK), f"{nd:.6e} vs {lb:.6e}"),
            Check(f"envelope.row{i}.sampled_below_discrete",
                  ns <= SAMPLED_OVER_DISCRETE_MAX * nd, f"ratio {ns / nd:.3f}"),
        ]
    if len(rows) >= 2:
        worst = max(r["doubling_change"] for r in rows)
        s = np.array([r["s"] for r in rows])
        norms = np.array([r["norm_discrete"] for r in rows])
        slope = float(np.polyfit(np.log(s), np.log(norms), 1)[0])
    else:
        worst, slope = math.nan, math.nan
    out += [
        Check("envelope.doubling_change", worst < DOUBLING_CHANGE_MAX, f"{100 * worst:.2f}%"),
        Check("envelope.slope", SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1], f"{slope:.4f}"),
    ]
    return out


def balance_defect(series) -> float:
    """Worst per-interval energy-balance defect relative to the initial energy."""
    e = series.energies
    return float(np.max(np.abs(np.diff(e) + series.dissipation[1:]))) / float(e[0])


def decay(series: list, exit_code: int) -> list[Check]:
    """Monotone energy and exact balance per trajectory; the k=1 rate and the
    k=1 minus k=2 slope gap on the k=2 window (acceptance criteria 6 and 7)."""
    from waveheat.simulator import fit_decay, last_clean_decade

    out = [Check("decay.exit_code", exit_code == 0, f"exit {exit_code}"),
           Check("decay.trajectories", len(series) == 2, f"{len(series)} runs")]
    for k, srs in enumerate(series, start=1):
        e = srs.energies
        incr = float(np.max(np.diff(e)))
        defect = balance_defect(srs)
        out += [
            Check(f"decay.k{k}.monotone", incr <= MONOTONE_TOL * e[0], f"max step {incr:.1e}"),
            Check(f"decay.k{k}.balance", defect <= BALANCE_TOL, f"defect {defect:.1e}"),
        ]
    if len(series) == 2:
        k1, k2 = series
        slope_k1 = fit_decay(k1, last_clean_decade(k1), k=1).slope
        window = last_clean_decade(k2)
        gap = fit_decay(k1, window, k=1).slope - fit_decay(k2, window, k=2).slope
        out += [
            Check("decay.k1_slope", slope_k1 <= DECAY_SLOPE_BOUND, f"{slope_k1:.3f}"),
            Check("decay.hierarchy_gap", gap >= HIERARCHY_GAP, f"{gap:.3f}"),
        ]
    return out


def verify(stdout: str, exit_code: int) -> list[Check]:
    """Exit code 0 and a PASS on every check line the battery prints."""
    out = [Check("verify.exit_code", exit_code == 0, f"exit {exit_code}")]
    lines = [ln.split() for ln in stdout.splitlines()
             if ln.startswith("PASS") or ln.startswith("FAIL")]
    out.append(Check("verify.printed_checks", bool(lines), f"{len(lines)} lines"))
    out += [Check(f"verify.{words[1]}", words[0] == "PASS", " ".join(words[2:]))
            for words in lines if len(words) >= 2]
    return out
