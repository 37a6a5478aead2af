import math
import warnings

import numpy as np
import pytest

from waveheat import checks, spectrum
from waveheat.characteristic import BoundaryVariant
from waveheat.errors import (
    ContourTooCloseError,
    CutIntersectionError,
    InsufficientDataError,
    NoConvergenceError,
)
from waveheat.spectrum import (
    asymptotics_report,
    count_zeros_contour,
    enumerate_eigenvalues,
    polish,
    seeds,
    write_eigenvalues_csv,
)

from conftest import DIRICHLET_ROOTS, NEUMANN_ROOTS

NEU = BoundaryVariant.NEUMANN
DIR = BoundaryVariant.DIRICHLET


class TestSeeds:
    def test_neumann_first_disk(self):
        s = {x.n: x for x in seeds(NEU, 0)}[0]
        assert s.center == pytest.approx(1.5707963267948966j)
        assert s.radius == pytest.approx(2.0 * math.sqrt(2.0))

    def test_neumann_tenth_disk(self):
        s = {x.n: x for x in seeds(NEU, 10)}[10]
        assert s.center == pytest.approx(10.5 * math.pi * 1j)
        assert s.radius == pytest.approx(2.0 / math.sqrt(10.5))

    def test_dirichlet_excludes_origin(self):
        idx = [s.n for s in seeds(DIR, 3)]
        assert idx == [-3, -2, -1, 1, 2, 3]

    def test_counts(self):
        assert len(seeds(NEU, 100)) == 201
        assert len(seeds(DIR, 50)) == 100

    def test_mirror_centers_are_conjugate(self):
        by_n = {s.n: s for s in seeds(NEU, 5)}
        for n in range(5):
            assert by_n[-(n + 1)].center == by_n[n].center.conjugate()

    def test_negative_nmax_rejected(self):
        with pytest.raises(ValueError):
            seeds(NEU, -1)


class TestPolish:
    @pytest.mark.parametrize("n,root", sorted(NEUMANN_ROOTS.items()))
    def test_neumann_roots_vs_oracle(self, n, root):
        rec = polish({s.n: s for s in seeds(NEU, n)}[n], NEU)
        assert rec.lam == pytest.approx(root, abs=1e-10 * max(1.0, abs(root)))
        assert rec.residual <= 1e-12
        assert rec.lam.real < 0

    @pytest.mark.parametrize("n,root", sorted(DIRICHLET_ROOTS.items()))
    def test_dirichlet_roots_vs_oracle(self, n, root):
        rec = polish({s.n: s for s in seeds(DIR, n)}[n], DIR)
        assert rec.lam == pytest.approx(root, abs=1e-10 * max(1.0, abs(root)))
        assert rec.residual <= 1e-12

    def test_large_index_contained(self):
        rec = polish({s.n: s for s in seeds(NEU, 100)}[100], NEU)
        assert abs(rec.lam - 100.5j * math.pi) < 2.0 / math.sqrt(100.5)
        assert rec.contained

    def test_conjugate_seed_gives_conjugate_root(self):
        by_n = {s.n: s for s in seeds(NEU, 8)}
        assert checks.conjugate_pairs([polish(by_n[7], NEU)], [polish(by_n[-8], NEU)]).passed

    def test_records_carry_metadata(self):
        rec = polish(seeds(DIR, 1)[-1], DIR)
        assert rec.variant is DIR and rec.iters >= 1

    @pytest.mark.parametrize("variant,n,re,im,iters,residual", [
        (NEU, -3, "-0x1.d565cf6c184c1p-3", "-0x1.040eabb95cea7p+3", 4, "0x1.560a7a9985b82p-51"),
        (NEU, 0, "-0x1.01a4ef41f5851p-1", "0x1.1a4742afa1af5p+1", 7, "0x1.7ffffffffffe8p-53"),
        (NEU, 1, "-0x1.2ef7f0bad7f37p-2", "0x1.459869a532097p+2", 5, "0x1.6f26b4b7673a5p-52"),
        (NEU, 12, "-0x1.c90ed6b68b362p-4", "0x1.3b11cba4f7cd9p+5", 3, "0x1.7b79e9b61de18p-42"),
        (NEU, 57, "-0x1.ae10c4cb739b7p-5", "0x1.69637958869f6p+7", 3, "0x1.8579642cccd0dp-46"),
        (NEU, 200, "-0x1.cd57a0f2fb436p-6", "0x1.3af5712be8d6ep+9", 3, "0x1.32fced8fa94afp-41"),
        (DIR, -3, "-0x1.b0faa6fa12e5fp-3", "-0x1.35625ee13d08fp+3", 4, "0x1.1e3779b97f4a9p-53"),
        (DIR, 1, "-0x1.78a08d11968f4p-2", "0x1.ce4f1cdde420bp+1", 5, "0x1.04760c95db316p-52"),
        (DIR, 2, "-0x1.0509cf6cd40b6p-2", "0x1.a63a5fccaa867p+2", 4, "0x1.04ac46ec9cc08p-45"),
        (DIR, 12, "-0x1.d244e6a60ecc8p-4", "0x1.2e85ac57bfea9p+5", 3, "0x1.fe0efbd3b2fa0p-42"),
        (DIR, 57, "-0x1.aff05d27d6507p-5", "0x1.663f58465facdp+7", 3, "0x1.960ddef9912a2p-50"),
        (DIR, 200, "-0x1.cdeafd496ee66p-6", "0x1.3a2c6278fd2c4p+9", 3, "0x1.b852635755612p-43"),
    ])
    def test_frozen_records(self, variant, n, re, im, iters, residual):
        # records of the Newton iteration that evaluated D and D' separately
        # and D once more for each residual: one evaluation per iterate must
        # reproduce them bit for bit
        rec = polish({s.n: s for s in seeds(variant, abs(n))}[n], variant)
        assert (rec.lam.real.hex(), rec.lam.imag.hex()) == (re, im)
        assert rec.iters == iters and rec.residual.hex() == residual


class TestContourCounts:
    @pytest.mark.parametrize("n", [5, 8, 13, 21, 50])
    def test_one_root_per_disk_neumann(self, n):
        s = {x.n: x for x in seeds(NEU, n)}[n]
        assert count_zeros_contour(s.center, s.radius, NEU) == 1

    @pytest.mark.parametrize("n", [5, 13, 50])
    def test_one_root_per_disk_dirichlet(self, n):
        s = {x.n: x for x in seeds(DIR, n)}[n]
        assert count_zeros_contour(s.center, s.radius, DIR) == 1

    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_right_half_plane_empty(self, variant):
        # disks inside the open right half-plane covering most of
        # [0.05, 9.95] x [-16, 16]; the origin itself is a branch point of
        # the determinant (D ~ sqrt(lam) there) and is excluded, see
        # test_branch_point_factor_at_origin
        for im in (0.0, 6.0, -6.0, 11.0, -11.0):
            assert count_zeros_contour(5.0 + 1j * im, 4.95, variant) == 0

    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_branch_point_factor_at_origin(self, variant):
        # both determinants vanish at 0 exactly like sqrt(lam): the entire
        # cofactor tends to 1, so no further zero hides near the origin
        # (for the Dirichlet variant the origin zero is spurious: it does
        # not correspond to an eigenvalue)
        from waveheat.characteristic import char_fn, principal_sqrt

        assert char_fn(0.0, variant) == 0
        for eps in (1e-10, 1e-16 + 1e-16j, -1e-12 + 1e-13j):
            ratio = char_fn(eps, variant) / principal_sqrt(eps)
            assert ratio == pytest.approx(1.0, rel=1e-5)

    def test_large_disk_matches_enumeration(self):
        center, radius = 3j * math.pi, 4.0
        inside = [
            rec for rec in enumerate_eigenvalues(NEU, 5)
            if abs(rec.lam - center) < radius
        ]
        assert count_zeros_contour(center, radius, NEU) == len(inside) == 2

    def test_cut_intersection_guard(self):
        s0 = {x.n: x for x in seeds(NEU, 0)}[0]
        with pytest.raises(CutIntersectionError):
            count_zeros_contour(s0.center, s0.radius, NEU)
        with pytest.raises(CutIntersectionError):
            count_zeros_contour(0.5 + 0j, 1.0, NEU)  # origin inside
        for center in (-5 + 1j, -5 - 1j):  # tangent to the cut
            with pytest.raises(CutIntersectionError):
                count_zeros_contour(center, 1.0, NEU)

    def test_zero_near_contour_guard(self):
        root = NEUMANN_ROOTS[1]
        with pytest.raises(ContourTooCloseError):
            count_zeros_contour(root + 0.25, 0.25 - 1e-9, NEU)

    @pytest.mark.parametrize("n_start", [0, -4])
    def test_node_start_below_one_rejected(self, n_start, monkeypatch):
        def no_evaluation(lam, variant):
            raise AssertionError("evaluated before the argument check")

        monkeypatch.setattr(spectrum, "newton_ratio", no_evaluation)
        with pytest.raises(ValueError, match="n_start must be >= 1"):
            count_zeros_contour(5j, 1.0, NEU, n_start=n_start)

    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_every_disk_once_with_nested_nodes(self, variant, monkeypatch):
        # each node of the final level is evaluated exactly once over all
        # levels, and the nodes are those of the full level's expression;
        # the first call holds levels 0 and 1, level 0's nodes first
        evaluated = []

        def recording(lam, variant):
            evaluated.append(lam)
            return ratio(lam, variant)

        ratio = spectrum.newton_ratio
        monkeypatch.setattr(spectrum, "newton_ratio", recording)
        for s in seeds(variant, 200):
            if abs(s.n) < 5:
                continue
            evaluated.clear()
            assert count_zeros_contour(s.center, s.radius, variant) == 1
            sizes = [len(lam) for lam in evaluated]
            assert sizes == [512] + [512 * 2**j for j in range(len(sizes) - 1)]
            nodes, *added_levels = [*np.split(evaluated[0], 2), *evaluated[1:]]
            for added in added_levels:
                merged = np.empty(2 * len(nodes), complex)
                merged[0::2], merged[1::2] = nodes, added
                nodes = merged
            n = len(nodes)
            assert n == sum(sizes)
            full = s.center + s.radius * np.exp(2j * math.pi * np.arange(n) / n)
            assert nodes.tobytes() == full.tobytes()

    @pytest.mark.parametrize("variant", [NEU, DIR])
    def test_first_call_is_both_levels_bitwise(self, variant, monkeypatch):
        # the halves of the merged call, nodes and ratios, are bitwise the
        # arrays of one call per level
        calls = []

        def recording(lam, variant):
            calls.append((lam, ratio(lam, variant)))
            return calls[-1][1]

        ratio = spectrum.newton_ratio
        monkeypatch.setattr(spectrum, "newton_ratio", recording)
        n = spectrum.CONTOUR_NODE_START
        for s in seeds(variant, 200):
            if abs(s.n) < 5:
                continue
            calls.clear()
            count_zeros_contour(s.center, s.radius, variant)
            lam, step = calls[0]
            for half, (k, m) in enumerate([(np.arange(n), n), (np.arange(1, 2 * n, 2), 2 * n)]):
                level = s.center + s.radius * np.exp(2j * math.pi * k / m)
                part = slice(half * n, (half + 1) * n)
                assert lam[part].tobytes() == level.tobytes()
                assert step[part].tobytes() == ratio(level, variant).tobytes()

    @pytest.mark.parametrize("level_0, level_1, message", [
        (0.0, 0.0, "zero on the contour at {node}"),
        (1e-9, 0.0, "zero within 1.00e-09"),
    ])
    def test_level_0_checks_come_first(self, level_0, level_1, message, monkeypatch):
        # with faults at both levels of the merged call, level 0's zero check
        # and distance guard raise before level 1 is looked at
        n = spectrum.CONTOUR_NODE_START

        def faulty(lam, variant):
            step = ratio(lam, variant)
            step[3], step[n + 5] = level_0, level_1
            return step

        ratio = spectrum.newton_ratio
        monkeypatch.setattr(spectrum, "newton_ratio", faulty)
        s = {x.n: x for x in seeds(NEU, 12)}[12]
        node = (s.center + s.radius * np.exp(2j * math.pi * np.arange(n) / n))[3]
        with pytest.raises(ContourTooCloseError) as err:
            count_zeros_contour(s.center, s.radius, NEU)
        assert str(err.value).startswith(message.format(node=node))

    @pytest.mark.parametrize("level, index", [(0, 3), (1, 5)])
    def test_exact_zero_raises_without_warning(self, level, index, monkeypatch):
        # a ratio of exactly zero names its node; the quadrature sums are
        # taken before the checks, so its quotient must not warn
        n = spectrum.CONTOUR_NODE_START

        def faulty(lam, variant):
            step = ratio(lam, variant)
            step[level * n + index] = 0.0
            return step

        ratio = spectrum.newton_ratio
        monkeypatch.setattr(spectrum, "newton_ratio", faulty)
        s = {x.n: x for x in seeds(NEU, 12)}[12]
        k, m = (index, n) if level == 0 else (2 * index + 1, 2 * n)
        node = s.center + s.radius * np.exp(2j * math.pi * np.array([k]) / m)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContourTooCloseError) as err:
                count_zeros_contour(s.center, s.radius, NEU)
        assert str(err.value) == f"zero on the contour at {node}"

    @pytest.mark.parametrize("variant,center,radius,n_start", [
        (NEU, 300j, 250.0, 256),
        (DIR, 300j, 250.0, 256),
        (NEU, 100j, 30.0, 16),
        (DIR, 20j, 5.0, 4),
    ])
    def test_later_levels_match_level_by_level(self, variant, center, radius, n_start,
                                               monkeypatch):
        # disks that need a third level and more: the same count, from the
        # same final level, as one newton_ratio call per level
        sizes = []

        def recording(lam, variant):
            sizes.append(len(lam))
            return ratio(lam, variant)

        ratio = spectrum.newton_ratio
        want, n_final = _count_level_by_level(center, radius, variant, n_start)
        monkeypatch.setattr(spectrum, "newton_ratio", recording)
        assert count_zeros_contour(center, radius, variant, n_start=n_start) == want
        assert len(sizes) >= 2 and sum(sizes) == n_final

    def test_small_node_start_counts_one(self):
        # perfbench's tracer test counts this disk from 64 nodes
        s = {x.n: x for x in seeds(NEU, 12)}[12]
        assert count_zeros_contour(s.center, s.radius, NEU, n_start=64) == 1

    def test_node_start_past_half_the_cap_rejected(self, monkeypatch):
        def no_evaluation(lam, variant):
            raise AssertionError("evaluated with no room for a second level")

        monkeypatch.setattr(spectrum, "newton_ratio", no_evaluation)
        with pytest.raises(NoConvergenceError):
            count_zeros_contour(5j, 1.0, NEU, n_start=spectrum.CONTOUR_NODE_CAP // 2 + 1)


def _count_level_by_level(center, radius, variant, n_start):
    """The winding count with one newton_ratio call per level, and its final node count."""
    prev, total, n, k = None, 0j, n_start, np.arange(n_start)
    while n <= spectrum.CONTOUR_NODE_CAP:
        lam = center + radius * np.exp(2j * math.pi * k / n)
        total += complex(np.sum((lam - center) / spectrum.newton_ratio(lam, variant)))
        winding = total / n
        if abs(winding.imag) < 0.25 and abs(winding.real - round(winding.real)) < 0.25:
            if round(winding.real) == prev:
                return prev, n
            prev = round(winding.real)
        else:
            prev = None
        n *= 2
        k = np.arange(1, n, 2)
    raise AssertionError("no stable count below the cap")


@pytest.fixture(scope="module")
def records():
    return [r for r in enumerate_eigenvalues(NEU, 60) if r.n >= 0]


class TestAsymptotics:
    def test_product_band(self, records):
        rep = asymptotics_report(records)
        assert rep.all_re_negative
        assert 0.0 < rep.product_min <= rep.product_max
        assert rep.product_max / rep.product_min < 1.5

    def test_deviation_inside_disks(self, records):
        rep = asymptotics_report(records)
        assert rep.max_center_deviation_ratio < 1.0
        assert rep.containment_threshold in (None, 0, 1)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            asymptotics_report([])


class TestCsv:
    def test_roundtrip(self, tmp_path):
        records = enumerate_eigenvalues(DIR, 3)
        path = tmp_path / "eig.csv"
        write_eigenvalues_csv(records, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,re,im,residual,iters,contained,variant"
        assert len(lines) == len(records) + 1
        first = lines[1].split(",")
        assert int(first[0]) == -3 and first[6] == "dirichlet"
