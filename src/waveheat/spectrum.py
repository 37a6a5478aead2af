"""Eigenvalue enumeration for the wave-heat generator.

Eigenvalues come in conjugate pairs accumulating along the imaginary axis:
near (n + 1/2)*pi*i for the Neumann variant and near n*pi*i for the
Dirichlet variant, each localized in a disk of radius 2 |n + 1/2|^(-1/2)
(resp. 2 |n|^(-1/2)).  Seeds at the disk centers are polished by Newton
iteration on the scaled determinant; an argument-principle winding count
over the same disks provides an independent check that each disk holds
exactly one root.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# char_fn_scaled and char_fn_deriv_scaled are not called here; they stay
# importable from this module for code that looks them up through it
from .characteristic import (  # noqa: F401
    BoundaryVariant,
    char_fn_deriv_scaled,
    char_fn_scaled,
    newton_ratio,
    relative_residual,
)
from .errors import (
    ContourTooCloseError,
    CutIntersectionError,
    DegenerateInputError,
    InsufficientDataError,
    NoConvergenceError,
)

__all__ = [
    "EigenvalueSeed",
    "EigenvalueRecord",
    "AsymptoticsReport",
    "seeds",
    "polish",
    "count_zeros_contour",
    "asymptotics_report",
    "decay_envelope",
    "enumerate_eigenvalues",
    "write_eigenvalues_csv",
]

NEWTON_RESIDUAL_TOL = 1e-12
NEWTON_STEP_TOL = 1e-13
NEWTON_MAX_ITERS = 50
CONTOUR_NODE_START = 256  # first refinement level of the winding count
CONTOUR_NODE_CAP = 262144  # largest refinement level of the winding count


@dataclass(frozen=True)
class EigenvalueSeed:
    """Localization disk for one eigenvalue branch index."""

    n: int
    center: complex
    radius: float


@dataclass(frozen=True)
class EigenvalueRecord:
    n: int
    lam: complex
    residual: float
    iters: int
    contained: bool
    variant: BoundaryVariant


def _disk(n: int, variant: BoundaryVariant) -> tuple[float, float]:
    """Centre height and radius of the seed disk of branch index n."""
    half = n + 0.5 if variant is BoundaryVariant.NEUMANN else n
    return half * math.pi, 2.0 * abs(half) ** -0.5


def seeds(variant: BoundaryVariant, n_max: int) -> list[EigenvalueSeed]:
    """Seed disks for indices -n_max..n_max (negative indices mirror by conjugation).

    The Dirichlet variant has no eigenvalue at the origin, so index 0 is
    omitted there.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    out: list[EigenvalueSeed] = []
    for n in range(-n_max, n_max + 1):
        if n == 0 and variant is BoundaryVariant.DIRICHLET:
            continue
        center_im, radius = _disk(n, variant)
        out.append(EigenvalueSeed(n=n, center=complex(0.0, center_im), radius=radius))
    return out


def _newton(start: complex, variant: BoundaryVariant) -> tuple[complex, int, float] | None:
    """Newton iteration from ``start``: (root, iterations, relative residual), or None."""
    lam = start
    for it in range(1, NEWTON_MAX_ITERS + 1):
        try:
            step = newton_ratio(lam, variant)
        except DegenerateInputError:
            return None
        lam = lam - step
        residual = relative_residual(lam, variant)
        if residual <= NEWTON_RESIDUAL_TOL:
            return lam, it, residual
        if abs(step) <= NEWTON_STEP_TOL * max(abs(lam), 1.0):
            return (lam, it, residual) if residual <= 1e-10 else None
    return None


def polish(seed: EigenvalueSeed, variant: BoundaryVariant) -> EigenvalueRecord:
    """Newton-polish a seed into an eigenvalue record.

    Escaping the seed disk is not an error (localization is only guaranteed
    for large |n|); it is recorded in ``contained``.
    """
    result = _newton(seed.center, variant)
    if result is None:
        raise NoConvergenceError(
            f"Newton did not converge from seed n={seed.n} ({variant.value})"
        )
    lam, iters, residual = result
    return EigenvalueRecord(
        n=seed.n,
        lam=lam,
        residual=residual,
        iters=iters,
        contained=abs(lam - seed.center) < seed.radius,
        variant=variant,
    )


def _cut_intersects_circle(center: complex, radius: float) -> bool:
    # the cut is (-inf, 0]; include the origin (branch point) in the exclusion
    if abs(center) <= radius:
        return True
    if abs(center.imag) > radius:
        return False
    reach = math.sqrt(radius**2 - center.imag**2)
    return center.real - reach < 0.0


def count_zeros_contour(
    center: complex, radius: float, variant: BoundaryVariant, n_start: int = CONTOUR_NODE_START
) -> int:
    """Argument-principle zero count of the determinant inside a circle.

    Trapezoidal quadrature of D'/D, the reciprocal of the Newton ratio,
    around the contour, with the node count doubled from ``n_start`` until
    the rounded winding number is stable across two successive refinement
    levels.  Each level keeps the nodes of the one before and adds the odd
    indices of its own node set; the quadrature sum carries over.

    A count needs two levels, so levels 0 and 1 are one ``newton_ratio``
    call over 2 ``n_start`` nodes, level 0's indices k written as 2k over
    2 ``n_start`` (a power-of-two rescaling, so bitwise the same nodes) and
    then level 1's odd indices: a call of a few hundred nodes costs little
    more than its fixed overhead.  From level 2 on a call holds one level.
    One consequence: when D' vanishes exactly at a level-1 node,
    ``newton_ratio``'s DegenerateInputError comes before level 0's checks.

    The ratios are ``newton_ratio``'s array branch, the quotient of the
    unscaled sums, whose common exponential scale cancels.  The minima of
    |D/D'| and the quadrature sums of all the levels in a call come from
    one pass over its (levels, n) view; each level is then checked and
    summed in order, as if evaluated alone, and an exact zero raises
    ContourTooCloseError naming its node, without a floating-point warning.
    An ``n_start`` above CONTOUR_NODE_CAP / 2 leaves no room for level 1
    and raises NoConvergenceError before any evaluation.
    """
    if n_start < 1:
        raise ValueError(f"n_start must be >= 1, got {n_start}")
    if _cut_intersects_circle(center, radius):
        raise CutIntersectionError(
            f"circle |lam - {center}| = {radius} touches the branch cut"
        )
    prev_int: int | None = None
    total = 0j
    # a call evaluates ``levels`` levels, the last of ``span`` nodes, which k indexes
    n, span, levels = n_start, 2 * n_start, 2
    k = np.concatenate([np.arange(0, span, 2), np.arange(1, span, 2)])
    while span <= CONTOUR_NODE_CAP:
        lam_all = center + radius * np.exp(2j * math.pi * k / span)
        lam_lv = lam_all.reshape(levels, -1)
        step_lv = newton_ratio(lam_all, variant).reshape(levels, -1)
        # |D/D'| approximates the distance to the nearest zero; an exact
        # zero is reported below, so its quotient may be inf or nan here
        min_dists = np.abs(step_lv).min(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            sums = ((lam_lv - center) / step_lv).sum(axis=1)
        for lam, step, min_dist, part in zip(lam_lv, step_lv, min_dists, sums):
            if min_dist == 0:
                raise ContourTooCloseError(f"zero on the contour at {lam[step == 0][0]}")
            if min_dist < 1e-6:
                raise ContourTooCloseError(
                    f"zero within {min_dist:.2e} of the contour (tolerance 1e-6)"
                )
            total += complex(part)
            winding = total / n
            if abs(winding.imag) < 0.25 and abs(winding.real - round(winding.real)) < 0.25:
                cur = round(winding.real)
                if prev_int is not None and cur == prev_int:
                    return cur
                prev_int = cur
            else:
                prev_int = None
            n *= 2
        span, levels = n, 1
        k = np.arange(1, n, 2)
    raise NoConvergenceError(
        f"winding number failed to stabilize below {CONTOUR_NODE_CAP} contour nodes"
    )


@dataclass(frozen=True)
class AsymptoticsReport:
    """The band of |Re lam| |Im lam|^(1/2) over the upper half of a set of records."""

    product_min: float
    product_max: float


def asymptotics_report(records: list[EigenvalueRecord]) -> AsymptoticsReport:
    """The least and largest |Re lam| |Im lam|^(1/2) over the upper half of the records.

    The product measures the two-sided real-part scaling; its spread over
    the half of the records with the larger |Im lam| is the empirical
    constant band.  Requires at least 20 records.
    """
    if len(records) < 20:
        raise InsufficientDataError(f"need >= 20 records, got {len(records)}")
    top = sorted(records, key=lambda r: abs(r.lam.imag))[len(records) // 2 :]
    products = [abs(r.lam.real) * abs(r.lam.imag) ** 0.5 for r in top]
    return AsymptoticsReport(product_min=min(products), product_max=max(products))


def decay_envelope(records: list[EigenvalueRecord], ts) -> np.ndarray:
    """The spectral lower bound L(t) = max_n exp(t Re lam_n)/|lam_n| at each t.

    Each eigenpair gives T(t) A^-1 e = (exp(lam t)/lam) e, so L(t) bounds
    ||T(t) A^-1|| from below in any norm.  With Re lam ~ -c/sqrt|Im lam|
    its maximum is 4 exp(-2)/(c^2 t^2): the t^-2 rate the |s|^(1/2)
    resolvent bound gives from above.  The maximizing index grows like t^2,
    so the records must reach it.
    """
    lam = np.array([r.lam for r in records])
    return np.max(np.exp(np.outer(np.asarray(ts, dtype=float), lam.real)) / np.abs(lam),
                  axis=1)


def enumerate_eigenvalues(
    variant: BoundaryVariant, n_max: int
) -> list[EigenvalueRecord]:
    """Polish every seed for indices -n_max..n_max, in index order."""
    return [polish(s, variant) for s in seeds(variant, n_max)]


def write_eigenvalues_csv(records: list[EigenvalueRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "re", "im", "residual", "iters", "contained", "variant"])
        for rec in sorted(records, key=lambda r: r.n):
            writer.writerow(
                [
                    rec.n,
                    f"{rec.lam.real:.15e}",
                    f"{rec.lam.imag:.15e}",
                    f"{rec.residual:.3e}",
                    rec.iters,
                    int(rec.contained),
                    rec.variant.value,
                ]
            )
