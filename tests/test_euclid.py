"""Great flats, the forced intersection of great spheres, and the
polychromatic scan over great hyperspheres."""

from fractions import Fraction
from itertools import combinations

import pytest

from inversive.chromatic import PolychromaticWitness
from inversive.colorings import ColoredConfig, FlagEuclidean, rational_sphere_points, sample_class
from inversive.euclid import (
    GreatFlat,
    great_flat_through,
    great_intersection,
    max_colors_great,
    verify_flag_euclidean,
)
from inversive.exactnum import BackendMismatch, THETA
from inversive.geom import GeometryError, Point, span_key, vec_dot

F = Fraction


def sp(*coords):
    return Point.finite(tuple(F(c) for c in coords))


E1, E2, E3 = sp(1, 0, 0), sp(0, 1, 0), sp(0, 0, 1)
XY_PLANE = GreatFlat.span([[1, 0, 0], [0, 1, 0]])
XZ_PLANE = GreatFlat.span([[1, 0, 0], [0, 0, 1]])


class TestGreatFlat:
    def test_reduced_basis_is_canonical(self):
        a = GreatFlat.span([[1, 1, 0], [1, -1, 0]])
        assert a == XY_PLANE
        assert a.basis == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))

    def test_membership(self):
        assert XY_PLANE.contains(sp(F(3, 5), F(4, 5), 0))
        assert not XY_PLANE.contains(E3)
        assert XY_PLANE.contains_direction((7, -2, 0))
        assert not XY_PLANE.contains_direction((0, 0, 1))

    def test_subsphere_section(self):
        s = XY_PLANE.subsphere()
        assert s.dim == 1
        assert s.contains(sp(F(3, 5), F(4, 5), 0))
        assert not s.contains(sp(F(1, 2), F(1, 2), 0))  # in the plane, off the sphere
        assert not s.contains(E3)

    def test_bases_stay_fractions(self):
        for vectors in ([[1, 1, 0], [1, -1, 0]], [[F(1, 2), 1, 0], [0, F(2, 3), 0]], [[2, 0, 0]]):
            flat = GreatFlat.span(vectors)
            assert all(type(x) is F for r in flat.basis for x in r)
        assert GreatFlat.span([[F(1, 2), 1, 0], [0, F(2, 3), 0]]) == XY_PLANE

    def test_section_key_is_the_key_of_its_points(self):
        assert XY_PLANE.subsphere().key() == span_key([E1, E2, sp(-1, 0, 0)])
        assert XZ_PLANE.subsphere().key() == span_key([E3, E1, sp(F(3, 5), 0, F(-4, 5))])
        assert XY_PLANE.subsphere().key() != XZ_PLANE.subsphere().key()

    def test_exactness_required(self):
        with pytest.raises(BackendMismatch):
            GreatFlat.span([[1.0, 0.0, 0.0]])
        with pytest.raises(GeometryError):
            GreatFlat.span([[0, 0, 0]])


class TestGreatFlatThrough:
    def test_equator_through_axis_points(self):
        flat = great_flat_through([E1, E2], 2)
        assert flat == XY_PLANE

    def test_single_point_completion(self):
        flat = great_flat_through([E1], 2)
        assert flat == XY_PLANE
        assert flat.contains(E1)

    def test_antipodal_pair_has_rank_one(self):
        flat = great_flat_through([E1, sp(-1, 0, 0)], 1)
        assert flat.dim == 1
        padded = great_flat_through([E1, sp(-1, 0, 0)], 2)
        assert padded.dim == 2

    def test_rank_overflow_rejected(self):
        with pytest.raises(GeometryError):
            great_flat_through([E1, E2, E3], 2)

    def test_points_must_be_on_sphere(self):
        with pytest.raises(GeometryError):
            great_flat_through([sp(1, 1, 0)], 2)


class TestGreatIntersection:
    def test_coordinate_planes(self):
        got = great_intersection(XY_PLANE, XZ_PLANE)
        assert got.exact
        assert got.direction == (F(1), F(0), F(0))
        assert set(got.points) == {E1, sp(-1, 0, 0)}

    def test_containment_returns_first_basis_vector(self):
        got = great_intersection(XY_PLANE, GreatFlat.span([[0, 1, 0], [1, 0, 0]]))
        assert got.exact
        assert got.direction == (F(1), F(0), F(0))

    def test_irrational_scale_falls_back_to_float(self):
        c = GreatFlat.span([[1, 1, 0], [0, 0, 1]])
        got = great_intersection(XY_PLANE, c)
        assert not got.exact
        assert got.direction == (F(1), F(1), F(0))
        for p in got.points:
            assert abs(vec_dot(p.coords, p.coords) - 1.0) < 1e-12

    def test_quartic_scale_stays_exact(self):
        c = GreatFlat.span([[THETA ** 0, THETA ** 0, 0 * THETA], [0 * THETA, 0 * THETA, THETA]])
        got = great_intersection(XY_PLANE, c)
        assert got.exact
        plus = got.points[0]
        assert vec_dot(plus.coords, plus.coords) == 1
        assert plus.coords[0] == THETA ** 2 / 2

    def test_dimension_validation(self):
        with pytest.raises(GeometryError):
            great_intersection(XZ_PLANE, XZ_PLANE.span([[1, 0, 0]]))
        with pytest.raises(GeometryError):
            great_intersection(GreatFlat.span([[1, 0, 0]]), XY_PLANE)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_pairs_always_meet(self, seed):
        pts = rational_sphere_points(2, 4, seed=seed)
        s = great_flat_through(pts[:2], 2)
        c = great_flat_through(pts[2:], 2)
        got = great_intersection(s, c)
        assert any(x != 0 for x in got.direction)
        assert s.contains_direction(got.direction)
        assert c.contains_direction(got.direction)
        if got.exact:
            for p in got.points:
                assert vec_dot(p.coords, p.coords) == 1


GREAT_CONFIGS = [
    ColoredConfig.sample(FlagEuclidean(2), per_class=2, seed=2),
    ColoredConfig.sample(FlagEuclidean(2), per_class=3, seed=1),
    ColoredConfig.sample(FlagEuclidean(3), per_class=2, seed=4),
    # antipodal pairs and coordinate-plane points: rank-deficient subsets
    # go through the padding
    ColoredConfig(3, 4, (
        (E1, 1), (sp(-1, 0, 0), 2), (E2, 3), (sp(0, -1, 0), 4),
        (sp(F(3, 5), F(4, 5), 0), 1), (sp(0, F(3, 5), F(4, 5)), 2),
        (E3, 3), (sp(F(-3, 5), 0, F(-4, 5)), 4),
    )),
    ColoredConfig(4, 5, (
        (sp(1, 0, 0, 0), 1), (sp(-1, 0, 0, 0), 2), (sp(0, 0, 0, 1), 3),
        (sp(0, 0, 0, -1), 4), (sp(0, F(3, 5), F(4, 5), 0), 5),
        (sp(F(4, 5), 0, F(3, 5), 0), 1), (sp(0, 1, 0, 0), 2),
        (sp(0, 0, F(-4, 5), F(3, 5)), 3),
    )),
    ColoredConfig(4, 3, ((sp(1, 0, 0, 0), 1), (sp(-1, 0, 0, 0), 2),
                         (sp(0, 0, 1, 0), 3))),
]


class TestMaxColorsGreat:
    def test_flag_sample_caps_at_two(self):
        config = ColoredConfig.sample(FlagEuclidean(2), per_class=4, seed=0)
        w = max_colors_great(config)
        assert len(w.color_set) == 2

    def test_constructed_coplanar_triple(self):
        config = ColoredConfig(3, 4, (
            (E1, 1), (sp(F(3, 5), F(4, 5), 0), 2), (E2, 3), (E3, 4),
        ))
        w = max_colors_great(config)
        assert w.color_set == {1, 2, 3}

    def test_single_point(self):
        config = ColoredConfig(3, 2, ((sp(0, 1, 0), 2),))
        w = max_colors_great(config)
        assert w.color_set == {2}

    def test_agrees_with_direct_scan(self):
        for config in GREAT_CONFIGS:
            assert max_colors_great(config) == reference_max_colors_great(config)


def reference_max_colors_great(config):
    """The per-subset scan the sphere index replaced: pad the span of every
    n-subset and re-test every configuration point for incidence."""
    pts = config.points()
    n = pts[0].dim - 1
    best = None
    for subset in combinations(range(len(pts)), min(n, len(pts))):
        flat = great_flat_through([pts[i] for i in subset], n)
        ncolors = len({c for p, c in config.items if flat.contains(p)})
        if best is None or (-ncolors, subset) < best:
            best = (-ncolors, subset)
    flat = great_flat_through([pts[i] for i in best[1]], n)
    on = tuple((p, c) for p, c in config.items if flat.contains(p))
    return PolychromaticWitness(flat.subsphere(), on, frozenset(c for _, c in on))


def reference_verify_flag_euclidean(n, per_class, seed):
    """The deduplicating per-subset loop the sphere index replaced."""
    coloring = FlagEuclidean(n)
    samples = [(p, i) for i in range(1, coloring.k + 1)
               for p in sample_class(coloring, i, per_class, seed + i)]
    pts = [p for p, _ in samples]
    seen, max_colors, violations = set(), 0, []
    for subset in combinations(range(len(pts)), n):
        flat = great_flat_through([pts[i] for i in subset], n)
        if flat.key() in seen:
            continue
        seen.add(flat.key())
        colors = {c for p, c in samples if flat.contains(p)}
        max_colors = max(max_colors, len(colors))
        if len(colors) >= n + 1:
            violations.append({"subset": subset, "colors": sorted(colors)})
    return {"n": n, "samples": len(samples), "circles_checked": len(seen),
            "max_colors": max_colors, "violations": violations}


class TestVerifyFlagEuclidean:
    def test_no_great_circle_gets_three_colors(self):
        report = verify_flag_euclidean(2, per_class=6, seed=0)
        assert report["violations"] == []
        assert report["max_colors"] == 2
        assert report["circles_checked"] > 50

    @pytest.mark.parametrize("n, per_class, seed", [(2, 5, 3), (2, 8, 109), (3, 3, 7)])
    def test_matches_per_subset_loop(self, n, per_class, seed):
        assert (verify_flag_euclidean(n, per_class=per_class, seed=seed)
                == reference_verify_flag_euclidean(n, per_class, seed))
