"""Characteristic (determinant) functions of the coupled wave-heat generator.

The generator of the 1-D wave-heat interface system has pure point spectrum
given by the zeros of a transcendental determinant,

    Neumann:    D(lam) = sqrt(lam) cosh(lam) cosh(sqrt(lam)) + sinh(lam) sinh(sqrt(lam))
    Dirichlet:  D(lam) = sqrt(lam) sinh(lam) cosh(sqrt(lam)) + cosh(lam) sinh(sqrt(lam))

with the square root taken with a branch cut along the negative real axis
(and the root on the cut itself chosen with positive imaginary part).  The
hyperbolic factors overflow double precision long before the interesting
frequency range is exhausted, so every product is evaluated internally as a
``(mantissa, log_scale)`` pair with the dominant exponential
``exp(|Re lam| + Re sqrt(lam))`` factored out.

The scaled evaluators take either one point or a numpy array of points.
A point keeps Python ``complex`` arithmetic (``cmath``), an array uses the
same formulas in numpy; the two agree to rounding, not bit for bit.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateInputError,
    DomainError,
    OverflowEvaluationError,
    PoleError,
)

__all__ = [
    "BoundaryVariant",
    "ScaledValue",
    "char_fn",
    "char_fn_scaled",
    "char_fn_deriv",
    "char_fn_deriv_scaled",
    "fg_split",
    "det_growth_ratio",
    "principal_sqrt",
]

# exp(x) overflows IEEE doubles just above x = 709.78; keep a safety margin
_LOG_OVERFLOW = 700.0
_DIRECT_EVAL_RADIUS = 30.0
_MANTISSA_LO = 1e-2
_MANTISSA_HI = 1e2


class BoundaryVariant(Enum):
    """Boundary condition imposed on the wave displacement at the far end."""

    NEUMANN = "neumann"
    DIRICHLET = "dirichlet"


def _upper_side(value):
    """``value`` as a complex point or array, with -0.0 imaginary parts made +0.0.

    This puts a point on the negative real axis on the upper side of the cut.
    """
    if isinstance(value, np.ndarray):
        z = value.astype(complex)
        return np.where(z.imag == 0.0, z.real + 0j, z)
    z = complex(value)
    return complex(z.real, 0.0) if z.imag == 0.0 else z


def principal_sqrt(value: complex | np.ndarray):
    """Principal square root, cut on (-inf, 0), with Im >= 0 on the cut.

    All modules share this single implementation so that sqrt(lam) and
    sqrt(i*s) are always taken on the same branch.  Takes a point or an
    array of points.
    """
    return _sqrt_upper(_upper_side(value))


def _sqrt_upper(z):
    """Principal square root of a point or array already put on the upper side."""
    return np.sqrt(z) if isinstance(z, np.ndarray) else cmath.sqrt(z)


def _root(lam):
    """(z, sqrt z): ``lam`` put on the upper side of the cut, and its principal root."""
    z = _upper_side(lam)
    return z, _sqrt_upper(z)


class ScaledValue(NamedTuple):
    """A complex number represented as mantissa * exp(log_scale).

    For an array of points both fields are arrays of that shape; ``value``,
    ``abs_log`` and ``times`` take one point only.
    """

    mantissa: complex
    log_scale: float

    def value(self) -> complex:
        """Materialize the unscaled number, or raise if it overflows."""
        if self.mantissa == 0:
            return 0j
        log_mag = math.log(abs(self.mantissa)) + self.log_scale
        if log_mag > _LOG_OVERFLOW:
            raise OverflowEvaluationError(
                f"value has magnitude exp({log_mag:.1f}), not representable"
            )
        if self.log_scale > _LOG_OVERFLOW:
            # exp(log_scale) alone overflows; fold the mantissa in first
            return cmath.exp(cmath.log(self.mantissa) + self.log_scale)
        return self.mantissa * math.exp(self.log_scale)

    def abs_log(self) -> float:
        """log |value|, or -inf for an exact zero."""
        if self.mantissa == 0:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.log_scale

    def times(self, factor: complex) -> "ScaledValue":
        """Scaled product with an ordinary complex number."""
        return _normalize(self.mantissa * factor, self.log_scale)


def _normalize(mantissa, log_scale) -> ScaledValue:
    if isinstance(mantissa, np.ndarray):
        # hypot, not np.abs: numpy's complex modulus can differ from Python's
        # abs() in the last bit, and the point branch below uses abs()
        mag = np.hypot(mantissa.real, mantissa.imag)
        keep = (mag == 0) | ((_MANTISSA_LO <= mag) & (mag <= _MANTISSA_HI))
        div = np.where(keep, 1.0, mag)
        return ScaledValue(
            mantissa / div, np.where(mag == 0, 0.0, log_scale + np.log(div))
        )
    if mantissa == 0:
        return ScaledValue(0j, 0.0)
    mag = abs(mantissa)
    if _MANTISSA_LO <= mag <= _MANTISSA_HI:
        return ScaledValue(mantissa, log_scale)
    return ScaledValue(mantissa / mag, log_scale + math.log(mag))


def _cosh_sinh_hat(z):
    """(cosh(z), sinh(z)) / exp(|Re z|); both exponentials have modulus <= 1.

    A point stays a Python complex (``cmath.exp``), so the arithmetic that
    follows is Python's: numpy's complex ``*``, ``/`` and ``abs`` differ from
    it in the last bit, and Newton roots are printed to the last bit.
    """
    a = abs(z.real)
    exp = np.exp if isinstance(z, np.ndarray) else cmath.exp
    grow, decay = exp(z - a), exp(-z - a)
    return 0.5 * (grow + decay), 0.5 * (grow - decay)


def _any(mask) -> bool:
    return mask.any() if isinstance(mask, np.ndarray) else mask


def _hat_terms(lam: complex | np.ndarray, variant: BoundaryVariant):
    """The factors of the scaled determinant and its derivative.

    Returns (r, p, q, cosh_hat(r), sinh_hat(r), scale) with r = sqrt(lam),
    (p, q) = (cosh_hat(lam), sinh_hat(lam)) for Neumann and swapped for
    Dirichlet, and the common scale |Re lam| + |Re r|.
    """
    return _upper_terms(_upper_side(lam), variant)


def _upper_terms(z: complex | np.ndarray, variant: BoundaryVariant):
    """``_hat_terms`` at a point or array already put on the upper side of the cut."""
    r = _sqrt_upper(z)
    cl, sl = _cosh_sinh_hat(z)
    p, q = (cl, sl) if variant is BoundaryVariant.NEUMANN else (sl, cl)
    return r, p, q, *_cosh_sinh_hat(r), abs(z.real) + abs(r.real)


def _det(terms) -> ScaledValue:
    """D = r p cosh(r) + q sinh(r) from the factors of ``_hat_terms``."""
    r, p, q, cr, sr, scale = terms
    return _normalize(r * p * cr + q * sr, scale)


def _deriv(terms) -> ScaledValue:
    """D' = (p + q) cosh(r)/(2r) + r q cosh(r) + (3/2) p sinh(r) from ``_hat_terms``."""
    r, p, q, cr, sr, scale = terms
    return _normalize((p + q) * cr / (2.0 * r) + r * q * cr + 1.5 * p * sr, scale)


def _deriv_domain(lam: complex | np.ndarray) -> complex | np.ndarray:
    """``lam`` on the upper side of the cut, or DegenerateInputError where D' is undefined."""
    z = _upper_side(lam)
    if _any(z == 0):
        raise DegenerateInputError("derivative undefined at lam = 0")
    if _any((z.imag == 0.0) & (z.real < 0.0)):
        raise DegenerateInputError("derivative undefined on the branch cut")
    return z


def _char_fn_pair(
    lam: complex | np.ndarray, variant: BoundaryVariant
) -> tuple[ScaledValue, ScaledValue]:
    """The scaled determinant and its derivative from one set of factors.

    Bitwise equal to ``char_fn_scaled`` and ``char_fn_deriv_scaled`` at the
    same points, at the cost of one evaluation; rejects the same points as
    ``char_fn_deriv_scaled``.
    """
    terms = _upper_terms(_deriv_domain(lam), variant)
    return _det(terms), _deriv(terms)


def char_fn_scaled(lam: complex | np.ndarray, variant: BoundaryVariant) -> ScaledValue:
    """Overflow-safe determinant evaluation as mantissa * exp(log_scale).

    D = r p cosh(r) + q sinh(r) in the notation of ``_hat_terms``.  Total
    on the finite plane; |mantissa| lies in [1e-2, 1e2] unless the value is
    exactly zero.  ``lam`` is a point or an array of points.
    """
    return _det(_hat_terms(lam, variant))


def char_fn(lam: complex, variant: BoundaryVariant) -> complex:
    """Unscaled determinant value.

    Evaluated directly through ``cmath`` for |lam| <= 30 and materialized
    from the scaled form beyond that; raises OverflowEvaluationError when
    the analytic value exceeds double range.
    """
    z, r = _root(lam)
    if abs(z) <= _DIRECT_EVAL_RADIUS:
        if variant is BoundaryVariant.NEUMANN:
            return r * cmath.cosh(z) * cmath.cosh(r) + cmath.sinh(z) * cmath.sinh(r)
        return r * cmath.sinh(z) * cmath.cosh(r) + cmath.cosh(z) * cmath.sinh(r)
    return char_fn_scaled(z, variant).value()


def char_fn_deriv_scaled(lam: complex | np.ndarray, variant: BoundaryVariant) -> ScaledValue:
    """Scaled analytic derivative of the determinant.

    Neumann:   D'(lam) = (cosh lam + sinh lam) cosh(r)/(2r)
                         + r sinh(lam) cosh(r) + (3/2) cosh(lam) sinh(r)
    Dirichlet: D'(lam) = (sinh lam + cosh lam) cosh(r)/(2r)
                         + r cosh(lam) cosh(r) + (3/2) sinh(lam) sinh(r)

    with r = sqrt(lam), i.e. (p + q) cosh(r)/(2r) + r q cosh(r) + (3/2) p sinh(r)
    in the notation of ``_hat_terms``.  Undefined at lam = 0 and on the
    branch cut; an array containing such a point is rejected as a whole.
    """
    return _deriv(_upper_terms(_deriv_domain(lam), variant))


def char_fn_deriv(lam: complex, variant: BoundaryVariant) -> complex:
    """Unscaled analytic derivative of the determinant."""
    return char_fn_deriv_scaled(lam, variant).value()


def newton_ratio(lam: complex | np.ndarray, variant: BoundaryVariant) -> complex | np.ndarray:
    """D(lam)/D'(lam) with the common exponential scale cancelled.

    ``lam`` is a point or an array of points; D and D' share one evaluation.
    Rejects the points ``char_fn_deriv_scaled`` rejects, and a point, or an
    array holding a point, where D' vanishes.
    """
    num, den = _char_fn_pair(lam, variant)
    if _any(den.mantissa == 0):
        raise DegenerateInputError("derivative vanished; Newton step undefined")
    if isinstance(num.mantissa, np.ndarray):
        return (num.mantissa / den.mantissa) * np.exp(num.log_scale - den.log_scale)
    if num.mantissa == 0:
        return 0j
    return (num.mantissa / den.mantissa) * math.exp(num.log_scale - den.log_scale)


def relative_residual(lam: complex, variant: BoundaryVariant) -> float:
    """|D(lam)| measured against its natural exponential scale |Re lam| + Re sqrt(lam).

    Zero exactly at eigenvalues; O(machine epsilon) at numerically
    converged roots regardless of |lam|.  It calls ``char_fn_scaled`` by
    its module name, not ``_det`` directly, so that a wrapped binding of
    ``char_fn_scaled`` sees every residual evaluation.
    """
    lam = complex(lam)
    sv = char_fn_scaled(lam, variant)  # puts lam on the upper side of the cut
    if sv.mantissa == 0:
        return 0.0
    # the real part of the principal root is the same on both sides of the cut
    return math.exp(sv.abs_log() - (abs(lam.real) + cmath.sqrt(lam).real))


_F_POLE_PERIOD = math.pi  # poles of coth at n*pi*i
_POLE_TOL = 1e-8


def fg_split(lam: complex) -> tuple[complex, complex]:
    """The meromorphic splitting D = (F + G) * sinh(lam) * sqrt(lam) * cosh(sqrt(lam)).

    Returns (F, G) = (coth(lam), tanh(sqrt(lam))/sqrt(lam)) for the Neumann
    determinant.  F has poles at n*pi*i, G has poles where cosh(sqrt(lam))
    vanishes, i.e. at lam = -(k+1/2)^2 pi^2 on the negative real axis.
    """
    z, r = _root(lam)
    n_near = round(z.imag / _F_POLE_PERIOD)
    if abs(z - complex(0.0, n_near * _F_POLE_PERIOD)) < _POLE_TOL:
        raise PoleError(f"lam within {_POLE_TOL} of coth pole at {n_near}*pi*i")
    if z.real < 0.0 and abs(z.imag) < 1.0:
        k_near = round(math.sqrt(abs(z.real)) / math.pi - 0.5)
        if k_near >= 0:
            pole = -((k_near + 0.5) * math.pi) ** 2
            if abs(z - pole) < _POLE_TOL:
                raise PoleError(f"lam within {_POLE_TOL} of tanh-branch pole at {pole:g}")
    cz, sz = _cosh_sinh_hat(z)
    cr, sr = _cosh_sinh_hat(r)
    f_val = cz / sz
    g_val = sr / (cr * r) if r != 0 else 1.0 + 0j
    return f_val, g_val


def det_growth_ratio(s: float | np.ndarray) -> float | np.ndarray:
    """Normalized size of the determinant along the imaginary axis.

    Returns |D(i s)| * exp(-|s|^(1/2)/sqrt(2)) for the Neumann determinant,
    i.e. the modulus of

        sqrt(is) cos(s) cosh(sqrt(is)) + i sin(s) sinh(sqrt(is))

    relative to its leading exponential growth.  Bounded away from zero for
    |s| >= 2, which is what keeps the closed-form resolvent coefficients
    under control at high frequency.  ``s`` is a point or an array of
    points; an array with any |s| < 2 or NaN is rejected as a whole.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    low = s_arr[~(np.abs(s_arr) >= 2.0)]  # NaN fails the guard too
    if low.size:
        raise DomainError(f"growth ratio requires |s| >= 2, got {low[0]}")
    sv = char_fn_scaled(1j * s_arr, BoundaryVariant.NEUMANN)
    ratio = np.exp(
        np.log(np.abs(sv.mantissa)) + sv.log_scale - np.sqrt(np.abs(s_arr)) / math.sqrt(2.0)
    )
    return float(ratio[0]) if np.ndim(s) == 0 else ratio
