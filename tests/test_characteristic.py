import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from waveheat import checks
from waveheat.characteristic import (
    BoundaryVariant,
    _char_fn_pair,
    _hat_terms,
    _root,
    char_fn,
    char_fn_deriv,
    char_fn_deriv_scaled,
    char_fn_scaled,
    det_growth_ratio,
    fg_split,
    newton_ratio,
    principal_sqrt,
    relative_residual,
)
from waveheat.errors import (
    DegenerateInputError,
    DomainError,
    OverflowEvaluationError,
    PoleError,
)
from waveheat.spectrum import CONTOUR_NODE_START, _disk, polish, seeds

from conftest import DN_AT_1, DN_AT_5_7J, COTH_1, TANH_1, mp_charfn

NEU = BoundaryVariant.NEUMANN
DIR = BoundaryVariant.DIRICHLET


def _bits(*values) -> bytes:
    """The IEEE bytes of points or arrays, so that -0.0 and 0.0 differ."""
    return b"".join(np.asarray(v).tobytes() for v in values)


def _mp_newton_ratio(lam: complex, variant: BoundaryVariant) -> complex:
    """D(lam)/D'(lam) at 60 digits from the defining formulas (test oracle only)."""
    import mpmath as mp

    with mp.workdps(60):
        z = mp.mpc(lam)
        r = mp.sqrt(z)
        p, q = mp.cosh(z), mp.sinh(z)
        if variant is BoundaryVariant.DIRICHLET:
            p, q = q, p
        det = r * p * mp.cosh(r) + q * mp.sinh(r)
        deriv = (p + q) * mp.cosh(r) / (2 * r) + r * q * mp.cosh(r) + 1.5 * p * mp.sinh(r)
        return complex(det / deriv)


class TestBranch:
    def test_sqrt_squares_back(self, rng):
        for _ in range(200):
            z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            r = principal_sqrt(z)
            assert abs(r**2 - z) <= 1e-13 * abs(z)
            assert r.real >= 0

    def test_cut_side(self):
        # on the negative real axis the root must sit on the upper branch
        for x in (-1.0, -4.0, -100.0):
            assert principal_sqrt(x).imag > 0
            assert principal_sqrt(complex(x, -0.0)).imag > 0

    @given(points=st.lists(
        st.one_of(st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                  st.builds(complex, st.floats(-1e3, 0.0), st.sampled_from([0.0, -0.0]))),
        min_size=1, max_size=8))
    def test_frequency_root_is_principal_sqrt(self, points):
        # the determinant's root r = sqrt(lam), for points and arrays, -0.0 included
        arr = np.array(points)
        for variant in (NEU, DIR):
            assert all(_bits(_hat_terms(p, variant)[0]) == _bits(principal_sqrt(p))
                       for p in points)
            assert _bits(_hat_terms(arr, variant)[0]) == _bits(principal_sqrt(arr))

    def test_conj_symmetry_off_cut(self, rng):
        for _ in range(100):
            z = complex(rng.uniform(-50, 50), rng.uniform(0.01, 50))
            assert principal_sqrt(z.conjugate()) == principal_sqrt(z).conjugate()


class TestCharFn:
    def test_zero_is_root_neumann(self):
        assert char_fn(0.0, NEU) == 0

    def test_real_positive_at_one(self):
        val = char_fn(1.0, NEU)
        assert val.imag == 0 and val.real > 0
        assert val.real == pytest.approx(DN_AT_1, rel=1e-14)

    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_schwarz_reflection_spot(self, variant):
        lam = 1 + 2j
        assert char_fn(lam.conjugate(), variant) == char_fn(lam, variant).conjugate()

    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_schwarz_reflection_random(self, variant, rng):
        for _ in range(60):
            lam = complex(rng.uniform(-20, 20), rng.uniform(0.05, 60))
            a = char_fn(lam.conjugate(), variant)
            b = char_fn(lam, variant).conjugate()
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_overflow_raises(self):
        with pytest.raises(OverflowEvaluationError):
            char_fn(2000.0 + 1j, NEU)

    def test_against_extended_precision(self):
        assert char_fn(5 + 7j, NEU) == pytest.approx(DN_AT_5_7J, rel=1e-13)
        for variant in (NEU, DIR):
            for lam in (2.5 - 11j, -3 + 9j, 17 + 0.3j):
                assert char_fn(lam, variant) == pytest.approx(
                    mp_charfn(lam, variant), rel=1e-12
                )


class TestCharFnScaled:
    @pytest.mark.parametrize("variant", [NEU, DIR])
    @given(points=st.lists(st.builds(complex, st.floats(-1000.0, 1000.0),
                                     st.floats(-1000.0, 1000.0)), min_size=1, max_size=8))
    def test_schwarz_reflection(self, variant, points):
        # D(conj lam) = conj D(lam) off the cut, for a point and for an array
        points = [p for p in points if not (p.imag == 0 and p.real <= 0)]
        lam = np.array(points, dtype=complex)
        pairs = [(*char_fn_scaled(p, variant), *char_fn_scaled(p.conjugate(), variant))
                 for p in points]
        pairs += zip(*char_fn_scaled(lam, variant), *char_fn_scaled(lam.conj(), variant))
        for m, ls, m_conj, ls_conj in pairs:
            aligned = m_conj * math.exp(ls_conj - ls)
            assert abs(aligned - m.conjugate()) <= 1e-12 * abs(m)

    def test_huge_frequency_no_overflow(self):
        m, ls = char_fn_scaled(1e6j, NEU)
        assert cmath.isfinite(m) and math.isfinite(ls)
        assert 1e-2 <= abs(m) <= 1e2
        # dominant scale is Re sqrt(lam) = sqrt(5e5)
        assert ls == pytest.approx(math.sqrt(5e5), rel=0.05)

    def test_zero(self):
        assert char_fn_scaled(0.0, NEU) == (0j, 0.0)

    def test_matches_direct_evaluation(self):
        m, ls = char_fn_scaled(5 + 7j, NEU)
        assert m * math.exp(ls) == pytest.approx(DN_AT_5_7J, rel=1e-12)

    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_agreement_random(self, variant, rng):
        for _ in range(80):
            lam = complex(rng.uniform(-25, 25), rng.uniform(0.05, 25))
            direct = char_fn(lam, variant)
            sv = char_fn_scaled(lam, variant)
            assert sv.value() == pytest.approx(direct, rel=1e-12)
            assert sv.mantissa == 0 or 1e-2 <= abs(sv.mantissa) <= 1e2


_coord = st.floats(-1000.0, 1000.0)
# general points, points on the cut (both signs of zero) and the origin
_points = st.lists(
    st.one_of(
        st.builds(complex, _coord, _coord),
        st.builds(complex, st.floats(-1000.0, 0.0), st.sampled_from([0.0, -0.0])),
        st.just(0j),
    ),
    min_size=1, max_size=16,
)


def _terms(point, variant, deriv):
    """The terms the point path sums for D (deriv False) or D'."""
    r, p, q, cr, sr, _ = _hat_terms(point, variant)
    if deriv:
        return (p + q) * cr / (2.0 * r), r * q * cr, 1.5 * p * sr
    return r * p * cr, q * sr


def _assert_pointwise(fn, variant, points):
    # A log scale L is a double, so one ulp of L is a relative factor
    # exp(ulp(L)) ~ 1 + ulp(L) on the value.  Each path rounds its L once when
    # it adds log|mantissa| and its log may sit one ulp off: hence 2 ulp(L).
    # The factors of each term are bitwise equal on both paths, but numpy and
    # Python round the complex products and quotients that form a term
    # differently, by about one ulp per term on each path.  Summing the terms
    # amplifies that by cond = sum|terms| / |sum|: hence 2 eps cond.
    array_value = fn(np.array(points), variant)
    for m, ls, lam in zip(array_value.mantissa, array_value.log_scale, points):
        point = fn(lam, variant)
        if point.mantissa == 0:
            assert m == 0
            continue
        terms = _terms(lam, variant, fn is char_fn_deriv_scaled)
        cond = sum(map(abs, terms)) / abs(sum(terms))
        aligned = m * math.exp(ls - point.log_scale)
        bound = (1e-14 + 2 * math.ulp(point.log_scale)
                 + 2 * sys.float_info.epsilon * cond)
        assert abs(aligned - point.mantissa) <= bound * abs(point.mantissa)


class TestArrayEvaluation:
    @pytest.mark.parametrize("variant", [NEU, DIR])
    @given(points=_points)
    @example(points=[1.8825631826248584e-202 + 1.8825631826248584e-202j])
    @example(points=[-0.41139399695638773 - 0.2927781509613599j])
    def test_matches_point_evaluation(self, variant, points):
        _assert_pointwise(char_fn_scaled, variant, points)
        regular = [p for p in points if p != 0 and not (p.imag == 0 and p.real < 0)]
        if len(regular) < len(points):
            with pytest.raises(DegenerateInputError):
                char_fn_deriv_scaled(np.array(points), variant)
        if regular:
            _assert_pointwise(char_fn_deriv_scaled, variant, regular)


class TestJointEvaluation:
    @pytest.mark.parametrize("variant", [NEU, DIR])
    @given(points=_points)
    def test_bitwise_equal_to_separate_evaluators(self, variant, points):
        regular = [p for p in points if p != 0 and not (p.imag == 0 and p.real < 0)]
        for lam in [*regular, np.array(regular)] if regular else []:
            det, deriv = _char_fn_pair(lam, variant)
            assert _bits(*det) == _bits(*char_fn_scaled(lam, variant))
            assert _bits(*deriv) == _bits(*char_fn_deriv_scaled(lam, variant))
        if len(regular) < len(points):
            with pytest.raises(DegenerateInputError):
                _char_fn_pair(np.array(points), variant)

    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_newton_ratio_on_arrays(self, variant):
        # contour nodes of seed disks, where D and D' are far from zero
        for s in seeds(variant, 200):
            if abs(s.n) < 5 or s.n % 13:
                continue
            lam = s.center + s.radius * np.exp(2j * math.pi * np.arange(64) / 64)
            ratio = newton_ratio(lam, variant)
            det, deriv = _char_fn_pair(lam, variant)
            expected = (det.mantissa / deriv.mantissa) * np.exp(det.log_scale
                                                                 - deriv.log_scale)
            assert _bits(ratio) == _bits(expected)
            points = np.array([newton_ratio(complex(p), variant) for p in lam])
            assert np.all(np.abs(ratio - points) <= 1e-14 * np.abs(points))
        for bad in (0j, -2.0 + 0j):
            with pytest.raises(DegenerateInputError):
                newton_ratio(np.array([1 + 5j, bad]), variant)

    def test_newton_ratio_on_empty_array(self):
        ratio = newton_ratio(np.array([], complex), NEU)
        assert isinstance(ratio, np.ndarray) and ratio.shape == (0,)

    @pytest.mark.parametrize("variant", [NEU, DIR])
    @pytest.mark.parametrize("n, bound", [(10**5, 3e-14), (10**6, 1e-13)])
    def test_newton_ratio_on_arrays_at_large_index(self, variant, n, bound):
        # a count's first call at the disk of index n, against D/D' at 60
        # digits; the worst errors measured were 1.0e-14 at n = 1e5 and
        # 3.5e-14 at n = 1e6, and the bounds are three times those.  The
        # scaled quotient (m_n/m_d) exp(ls_n - ls_d) measured 3.5e-14 and 1.2e-13.
        height, radius = _disk(n, variant)
        m = 2 * CONTOUR_NODE_START
        lam = 1j * height + radius * np.exp(2j * math.pi * np.arange(m) / m)
        exact = np.array([_mp_newton_ratio(complex(p), variant) for p in lam])
        assert np.max(np.abs(newton_ratio(lam, variant) - exact) / np.abs(exact)) <= bound


class TestRelativeResidual:
    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_bitwise_equal_to_form_with_two_upper_side_calls(self, variant):
        def two_calls(lam):  # _root and char_fn_scaled each put lam on the upper side
            z, r = _root(lam)
            sv = char_fn_scaled(z, variant)
            if sv.mantissa == 0:
                return 0.0
            return math.exp(sv.abs_log() - (abs(z.real) + r.real))

        # the roots of the benchmark census, every second n from 5 to 199
        roots = [polish(s, variant).lam for s in seeds(variant, 199) if s.n in range(5, 200, 2)]
        cut = [complex(x, y) for x in (-0.0, -0.5, -1.0, -7.25, -1e3) for y in (0.0, -0.0)]
        points = [*roots, *cut, 0j, complex(0.0, -0.0), 2.5 - 0.0j]
        assert len(roots) == 98
        for lam in points:
            assert _bits(relative_residual(lam, variant)) == _bits(two_calls(lam)), lam


class TestDerivative:
    def test_vs_finite_difference_spot(self):
        assert checks.derivative_vs_fd([2j]).passed

    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_vs_finite_difference_random(self, variant, rng):
        for _ in range(40):
            lam = complex(rng.uniform(-6, 6), rng.uniform(0.3, 45))
            if abs(lam) < 0.1:
                continue
            h = 1e-6
            fd = (char_fn(lam + h, variant) - char_fn(lam - h, variant)) / (2 * h)
            an = char_fn_deriv(lam, variant)
            assert abs(an - fd) / abs(an) < 1e-6

    def test_degenerate_at_zero_and_cut(self):
        with pytest.raises(DegenerateInputError):
            char_fn_deriv(0.0, NEU)
        with pytest.raises(DegenerateInputError):
            char_fn_deriv(-1.0, NEU)

    def test_conj_symmetry(self):
        lam = 1 + 2j
        assert char_fn_deriv(lam.conjugate(), NEU) == char_fn_deriv(lam, NEU).conjugate()


class TestFGSplit:
    def test_zero_of_coth_at_half_lattice(self):
        f, _ = fg_split(0.5j * math.pi)
        assert abs(f) < 1e-15

    def test_values_at_one(self):
        f, g = fg_split(1.0)
        assert f == pytest.approx(COTH_1, rel=1e-14)
        assert g == pytest.approx(TANH_1, rel=1e-14)

    def test_product_identity_spot(self):
        assert checks.fg_product_identity([3 + 4j]).passed

    def test_product_identity_random(self, rng):
        points = [complex(rng.uniform(-4, 8), rng.uniform(0.3, 25)) for _ in range(60)]
        assert checks.fg_product_identity(points).passed

    def test_pole_guards(self):
        with pytest.raises(PoleError):
            fg_split(math.pi * 1j + 1e-9)
        with pytest.raises(PoleError):
            fg_split(0.0)
        with pytest.raises(PoleError):
            fg_split(-((0.5 * math.pi) ** 2) + 1e-9j)


class TestGrowthRatio:
    def test_domain_guard(self):
        with pytest.raises(DomainError):
            det_growth_ratio(1.5)
        with pytest.raises(DomainError):
            det_growth_ratio(np.array([100.0, -1.5, 2.0]))
        with pytest.raises(DomainError):
            det_growth_ratio(math.nan)

    def test_positive_both_signs(self):
        assert det_growth_ratio(100.0) > 0
        assert det_growth_ratio(-100.0) > 0

    def test_hypothesis_boundary(self):
        val = det_growth_ratio(2.0)
        assert math.isfinite(val) and val > 0

    def test_sampled_lower_bound_recorded(self):
        # desk-scale scan; the global minimum sits near |s| ~ 8.12
        samples = np.logspace(math.log10(2.0), 4.0, 2500)
        c_min = float(det_growth_ratio(samples).min())
        assert 0.3 < c_min < 0.4

    def test_no_overflow_high_frequency(self):
        assert det_growth_ratio(1e4) > 0

    @given(st.lists(
        st.tuples(st.floats(2.0, 1e4), st.booleans()), min_size=1, max_size=20,
    ))
    def test_array_matches_extended_precision(self, points):
        s = np.array([-m if neg else m for m, neg in points])
        expected = [
            abs(mp_charfn(1j * v, NEU)) * math.exp(-math.sqrt(abs(v) / 2.0)) for v in s
        ]
        assert det_growth_ratio(s) == pytest.approx(expected, rel=1e-12)
