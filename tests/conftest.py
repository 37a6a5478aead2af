"""Shared fixtures and frozen oracle values.

High-precision reference roots and function values were computed with
mpmath (50 significant digits) from the defining formulas and frozen here;
the ``mp_charfn`` helper re-derives characteristic values on demand for
cross-checks so the extended-precision path stays independent of the
production scaled arithmetic.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp

from waveheat.characteristic import BoundaryVariant
from waveheat.state import StateVector, heat_nodes, wave_nodes

# polished determinant roots (branch index -> root), mpmath findroot, dps=40
NEUMANN_ROOTS = {
    0: -0.50321147613682114907 + 2.2052996976448137949j,
    1: -0.29586769237902242797 + 5.0874275315510632786j,
    2: -0.22919809387807315879 + 8.1267908687944567783j,
    5: -0.16391647442010413163 + 17.451246134059159762j,
    10: -0.1214859523075931445 + 33.110994556394967942j,
    100: -0.039747756768158264125 + 315.76989846230868406j,
    200: -0.02815809934320528148 + 629.91751622075189438j,
}
DIRICHLET_ROOTS = {
    1: -0.36779995364999181609 + 3.6117893298580890519j,
    2: -0.25492023565037463186 + 6.5973128794376711478j,
    5: -0.17074083727630705747 + 15.889375361989192698j,
    10: -0.12439234354944120612 + 31.543294679010886186j,
    100: -0.039846753119692324017 + 314.19920181278458377j,
}

# assorted frozen determinant values (mpmath, dps=30)
DN_AT_5_7J = -1443.0117832370663611 + 1288.0569479205727523j
DD_AT_5_7J = -1443.035348142410379 + 1287.9651184608778174j
DN_AT_3_4J = 66.306722886955609482 - 96.888508654744674888j
DN_AT_1 = 3.7621956910836314596  # = cosh(2)
COTH_1 = 1.3130352854993313036
TANH_1 = 0.76159415595576488812

# particular integrals for constant data (mpmath quadrature / closed forms)
U_CONST_S10 = 0.18390715290764524523j
UP_CONST_S10 = -0.5440211108893698134j
W_CONST_S25 = 0.26318650401662008877 - 0.67423917105349633459j
WP_CONST_S25 = -3.1706550695892494749 + 1.3064815587345915539j


def mp_charfn(lam: complex, variant: BoundaryVariant, dps: int = 40) -> complex:
    """Extended-precision determinant evaluation (test oracle only)."""
    import mpmath as mp

    with mp.workdps(dps):
        z = mp.mpc(lam)
        r = mp.sqrt(z)
        if variant is BoundaryVariant.NEUMANN:
            val = r * mp.cosh(z) * mp.cosh(r) + mp.sinh(z) * mp.sinh(r)
        else:
            val = r * mp.sinh(z) * mp.cosh(r) + mp.cosh(z) * mp.sinh(r)
        return complex(val)


def gram_matrix(gen) -> sp.csr_matrix:
    """The state Gram matrix W = diag(K_w + diag(mass_w), diag(mass_q)) of a generator.

    The generator uses W only through its factor; tests form it from the
    bands ``K_w``, ``mass_w`` and ``mass_q``.
    """
    k_w = sp.diags([gen.K_w[1:, 0], gen.K_w[:, 1] + gen.mass_w, gen.K_w[:-1, 2]],
                   [-1, 0, 1])
    return sp.block_diag([k_w, sp.diags(gen.mass_q)], format="csr")


def _csr_from_diagonals(rows: np.ndarray, offsets) -> sp.csr_matrix:
    """Canonical CSR of the square matrix with rows[i, k] at (i, i + offsets[k]).

    The offsets increase, so the nonzero values in row-major order are each
    row's entries in column order, and no sort is needed; zeros are not stored.
    """
    dim, width = rows.shape
    flat = np.flatnonzero(rows != 0)
    row = flat // width
    cols = row + np.asarray(offsets)[flat - row * width]
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=dim), out=indptr[1:])
    return sp.csr_matrix((rows.ravel()[flat], cols.astype(np.int32), indptr),
                         shape=(dim, dim))


def generator_matrix(gen) -> sp.csr_matrix:
    """The generator A_h in CSR form, from its bands: u' = v, then A_qu and A_qq in the q rows."""
    nu = gen.n_u
    rows = np.zeros((gen.dim, 7))
    rows[:nu, 6] = 1.0  # u' = v
    rows[nu + 1 : 2 * nu, 0], rows[nu : 2 * nu, 1] = gen.p_sub, gen.p_main
    rows[nu : 2 * nu - 1, 2] = gen.p_sup
    rows[nu + 1 :, 3], rows[nu:, 4], rows[nu:-1, 5] = gen.q_sub, gen.q_main, gen.q_sup
    return _csr_from_diagonals(rows, (-nu - 1, -nu, 1 - nu, -1, 0, 1, nu))


def energy_matrix(gen) -> sp.csr_matrix:
    """W_E = diag(K_w, diag(mass_q)), the energy seminorm (twice the energy), in CSR form."""
    rows = np.zeros((gen.dim, 3))
    rows[: gen.n_u] = gen.K_w
    rows[gen.n_u :, 1] = gen.mass_q
    return _csr_from_diagonals(rows, (-1, 0, 1))


def dissipation_matrix(gen) -> sp.csr_matrix:
    """W_diss, the heat stiffness K_h from the interface slot 2 n_u - 1 on, in CSR form."""
    rows = np.zeros((gen.dim, 3))
    rows[2 * gen.n_u - 1 :] = gen.K_h
    return _csr_from_diagonals(rows, (-1, 0, 1))


def smooth_triple(rng):
    """Random quartic data; the returned function samples it on (n_w, n_h) node grids."""
    pf, pg, ph = (np.polynomial.Polynomial(rng.standard_normal(5)) for _ in range(3))
    return lambda n_w, n_h: StateVector(
        u=pf(wave_nodes(n_w)), v=pg(wave_nodes(n_w)), w=ph(heat_nodes(n_h)))


def defining_residual(s, y, x):
    """Summed L2 norms of the interior residuals of (is - A) x = y by central differences.

    The data y = (f, g, h) are held as (y.u, y.v, y.w).
    """
    hw, hh = 1.0 / y.n_wave, 1.0 / y.n_heat
    d2u = (x.u[:-2] - 2 * x.u[1:-1] + x.u[2:]) / hw**2
    res_u = d2u + s**2 * x.u[1:-1] + 1j * s * y.u[1:-1] + y.v[1:-1]
    d2w = (x.w[:-2] - 2 * x.w[1:-1] + x.w[2:]) / hh**2
    res_w = d2w - 1j * s * x.w[1:-1] + y.w[1:-1]
    return (math.sqrt(hw * float(np.sum(np.abs(res_u) ** 2)))
            + math.sqrt(hh * float(np.sum(np.abs(res_w) ** 2))))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
