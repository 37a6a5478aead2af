import math

import pytest

from waveheat import checks
from waveheat.characteristic import BoundaryVariant
from waveheat.errors import (
    ContourTooCloseError,
    CutIntersectionError,
    InsufficientDataError,
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
