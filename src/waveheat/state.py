"""Grid container for elements of the state space.

The state space is H^1(-1,0) x L^2(-1,0) x L^2(0,1): a wave displacement u
and velocity v on [-1,0] and a temperature w on [0,1].  Both intervals are
discretized by uniform node grids; L^2 quantities use trapezoidal
quadrature and the H^1 seminorm uses cell-wise difference quotients (the
exact Dirichlet energy of the piecewise-linear interpolant), so that the
norms here agree with the Gram matrices assembled for the discrete
generator.  One ``StateVector`` holds a state or, since the resolvent
equation (is - A)x = y has y in the same space, its data y = (f, g, h) as
(u, v, w).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .characteristic import BoundaryVariant

__all__ = ["wave_nodes", "heat_nodes", "StateVector"]


def wave_nodes(n_wave: int) -> np.ndarray:
    return np.linspace(-1.0, 0.0, n_wave + 1)


def heat_nodes(n_heat: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n_heat + 1)


def _trapz_sq(values: np.ndarray, h: float) -> np.ndarray:
    """h times the trapezoidal sum of |values|^2, along the last axis."""
    sq = np.abs(values) ** 2
    return h * (sq.sum(axis=-1) - 0.5 * sq[..., 0] - 0.5 * sq[..., -1])


def _diff_sq(values: np.ndarray, h: float) -> np.ndarray:
    d = np.diff(values, axis=-1) / h
    return h * np.sum(np.abs(d) ** 2, axis=-1)


def _energy(u, v, w, u_prime=None) -> np.ndarray:
    """(1/2)(||u'||^2 + ||v||^2 + ||w||^2) of node arrays, along the last axis.

    ``u_prime`` (exact u' at the wave nodes) gives the H^1 seminorm by
    trapezoidal quadrature; without it, difference quotients of u do.
    """
    hw, hh = 1.0 / (u.shape[-1] - 1), 1.0 / (w.shape[-1] - 1)
    seminorm_sq = _diff_sq(u, hw) if u_prime is None else _trapz_sq(u_prime, hw)
    return 0.5 * (seminorm_sq + _trapz_sq(v, hw) + _trapz_sq(w, hh))


def _norm_X(u, v, w, u_prime=None) -> np.ndarray:
    """(||u||_{H^1}^2 + ||v||^2 + ||w||^2)^(1/2) of node arrays, along the last axis.

    Rows of stacked arrays get the bits of their one-row norms.
    """
    hw = 1.0 / (u.shape[-1] - 1)
    return np.sqrt(2.0 * _energy(u, v, w, u_prime) + _trapz_sq(u, hw))


@dataclass
class StateVector:
    """State or resolvent data (u, v, w) on the node grids, optionally with an exact u'.

    When ``u_prime`` is supplied (closed-form solutions carry it) the H^1
    seminorm uses it via trapezoidal quadrature; otherwise difference
    quotients are used.
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    variant: BoundaryVariant = BoundaryVariant.NEUMANN
    u_prime: np.ndarray | None = field(default=None)

    def __post_init__(self):
        self.u = np.asarray(self.u)
        self.v = np.asarray(self.v)
        self.w = np.asarray(self.w)
        if self.u.shape != self.v.shape:
            raise ValueError("u and v must share the wave grid")
        if self.u.ndim != 1 or self.w.ndim != 1:
            raise ValueError("states must be 1-D node arrays")
        if self.u_prime is not None:
            self.u_prime = np.asarray(self.u_prime)

    @property
    def n_wave(self) -> int:
        return len(self.u) - 1

    @property
    def n_heat(self) -> int:
        return len(self.w) - 1

    @property
    def xi_wave(self) -> np.ndarray:
        return wave_nodes(self.n_wave)

    @property
    def xi_heat(self) -> np.ndarray:
        return heat_nodes(self.n_heat)

    @property
    def energy(self) -> float:
        """(1/2)(||u'||^2 + ||v||^2 + ||w||^2)."""
        return float(_energy(self.u, self.v, self.w, self.u_prime))

    @property
    def norm_X(self) -> float:
        """Full state norm: (||u||_{H^1}^2 + ||v||^2 + ||w||^2)^(1/2)."""
        return float(_norm_X(self.u, self.v, self.w, self.u_prime))

    def minus(self, other: "StateVector") -> "StateVector":
        up = None
        if self.u_prime is not None and other.u_prime is not None:
            up = self.u_prime - other.u_prime
        return StateVector(
            u=self.u - other.u,
            v=self.v - other.v,
            w=self.w - other.w,
            variant=self.variant,
            u_prime=up,
        )
