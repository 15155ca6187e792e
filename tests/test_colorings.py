"""Tests for the procedural colorings and generic-position sampling."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inversive._linalg import rank
from inversive.colorings import (
    ColoredConfig,
    ColoringError,
    FlagEuclidean,
    FlagInversive,
    GenericPoints,
    PointListBackground,
    TwoLine,
    _rational_stream,
    _stereographic,
    color_of,
    generic_position_points,
    num_colors,
    rational_sphere_points,
    sample_class,
)
from inversive.exactnum import BackendMismatch, THETA
from inversive.geom import Point, concyclic, on_common_sphere

nonzero_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=9).filter(
    lambda q: q != 0
)


class TestFlagInversive:
    def test_documented_colors(self):
        flag = FlagInversive(2)
        assert flag.color_of(Point.finite((0, 0))) == 1
        assert flag.color_of(Point.infinity(2)) == 2
        assert flag.color_of(Point.finite((F(7, 2), 0))) == 3
        assert flag.color_of(Point.finite((1, -5))) == 4
        assert num_colors(flag) == 4

    def test_higher_dimension(self):
        flag = FlagInversive(3)
        assert flag.k == 5
        assert flag.color_of(Point.finite((0, 0, 3))) == 5
        assert flag.color_of(Point.finite((2, 0, 0))) == 3

    def test_singleton_classes(self):
        flag = FlagInversive(2)
        assert sample_class(flag, 1, 1) == [Point.finite((F(0), F(0)))]
        assert sample_class(flag, 2, 1) == [Point.infinity(2)]
        # finite classes clamp oversized requests
        assert len(sample_class(flag, 1, 5)) == 1

    def test_sampled_points_verify(self):
        flag = FlagInversive(3)
        for i in range(1, flag.k + 1):
            pts = sample_class(flag, i, 4 if i > 2 else 1, seed=13)
            assert all(flag.color_of(p) == i for p in pts)
            assert len(set(pts)) == len(pts)

    def test_classes_partition_sampled_grid(self):
        flag = FlagInversive(2)
        seen = []
        for i in range(1, 5):
            seen += sample_class(flag, i, 3 if i > 2 else 1, seed=5)
        # no point appears under two classes
        assert len(set(seen)) == len(seen)

    def test_wrong_dimension(self):
        with pytest.raises(ColoringError):
            FlagInversive(2).color_of(Point.finite((1, 2, 3)))


class TestTwoLine:
    def test_documented_colors(self):
        tl = TwoLine()
        assert tl.color_of(Point.finite((F(0), 3 * THETA))) == 2
        assert tl.color_of(Point.finite((THETA ** 2, F(0)))) == 4
        assert tl.color_of(Point.finite((F(0), F(5)))) == 1
        assert tl.color_of(Point.finite((F(0), THETA ** 3 / 2))) == 3
        assert tl.color_of(Point.finite((F(-7), F(0)))) == 5
        assert tl.color_of(Point.finite((F(0), F(0)))) == 1
        assert tl.color_of(Point.infinity(2)) == 1

    def test_mixed_norms_fall_through(self):
        tl = TwoLine()
        # 1 + theta is in no single coset of Q*
        assert tl.color_of(Point.finite((THETA + 1, THETA - THETA))) == 1
        # theta norms on the x-axis belong to no x-axis class
        assert tl.color_of(Point.finite((THETA, THETA - THETA))) == 1

    def test_off_line_handling(self):
        p = Point.finite((1, 1))
        with pytest.raises(ColoringError):
            TwoLine().color_of(p)
        assert TwoLine(extended=True).color_of(p) == 1

    def test_float_rejected(self):
        with pytest.raises(BackendMismatch):
            TwoLine().color_of(Point.finite((0.5, 0.0)))

    def test_sampling_self_check(self):
        tl = TwoLine()
        for i in range(1, 6):
            pts = sample_class(tl, i, 3, seed=7)
            assert len(pts) == 3
            assert all(tl.color_of(p) == i for p in pts)

    @given(nonzero_rationals, nonzero_rationals)
    @settings(deadline=None)
    def test_rational_scaling_invariance(self, q, v):
        tl = TwoLine()
        zero = F(0)
        for pt in (Point.finite((zero, v * THETA)), Point.finite((v * THETA ** 3, zero)),
                   Point.finite((v, zero)), Point.finite((zero, v))):
            scaled = Point.finite(tuple(q * c for c in pt.coords))
            assert tl.color_of(scaled) == tl.color_of(pt)


class TestFlagEuclidean:
    def test_axis_pair(self):
        fe = FlagEuclidean(2)
        assert fe.sample_class(1, 2) == [Point.finite((1, 0, 0)), Point.finite((-1, 0, 0))]
        assert fe.k == 3

    def test_colors(self):
        fe = FlagEuclidean(2)
        assert fe.color_of(Point.finite((1, 0, 0))) == 1
        assert fe.color_of(Point.finite((F(3, 5), F(4, 5), 0))) == 2
        assert fe.color_of(Point.finite((F(3, 5), 0, F(4, 5)))) == 3

    def test_rejects_off_sphere(self):
        fe = FlagEuclidean(2)
        with pytest.raises(ColoringError):
            fe.color_of(Point.finite((1, 1, 0)))
        with pytest.raises(ColoringError):
            fe.color_of(Point.infinity(3))

    def test_sampling_self_check(self):
        fe = FlagEuclidean(3)
        for i in range(1, 5):
            pts = fe.sample_class(i, 2, seed=3)
            assert all(fe.color_of(p) == i for p in pts)


class TestGenericPoints:
    def test_marked_singletons(self):
        g = GenericPoints.random(2, 5, seed=2)
        assert [g.color_of(p) for p in g.points] == [1, 2, 3, 4]
        assert g.color_of(Point.finite((99, 99))) == 5
        assert g.color_of(Point.infinity(2)) == 5

    def test_marked_points_generic(self):
        g = GenericPoints.random(2, 6, seed=4)
        for quad in combinations(g.points, 4):
            assert not concyclic(*quad)

    def test_background_sampling_avoids_marks(self):
        g = GenericPoints.random(2, 4, seed=1)
        pts = g.sample_class(4, 6, seed=9)
        assert len(pts) == 6
        assert all(g.color_of(p) == 4 for p in pts)

    def test_validation(self):
        p = Point.finite((1, 2))
        with pytest.raises(ColoringError):
            GenericPoints(2, 3, (p, p))
        with pytest.raises(ColoringError):
            GenericPoints(2, 3, (p,))


class TestPointListBackground:
    def test_lookup(self):
        pts = (Point.finite((0, 0)), Point.infinity(2))
        c = PointListBackground(2, pts, (2, 3), background=1)
        assert c.k == 3
        assert c.color_of(pts[0]) == 2
        assert c.color_of(pts[1]) == 3
        assert c.color_of(Point.finite((5, 5))) == 1

    def test_fullness_enforced(self):
        with pytest.raises(ColoringError):
            PointListBackground(2, (Point.finite((0, 0)),), (3,), background=1)

    def test_background_sampling(self):
        pts = (Point.finite((0, 0)), Point.finite((1, 0)))
        c = PointListBackground(2, pts, (2, 2), background=1)
        sampled = c.sample_class(1, 5, seed=4)
        assert len(sampled) == 5
        assert all(c.color_of(p) == 1 for p in sampled)
        assert sample_class(c, 2, 9) == list(pts)


class TestGenericPosition:
    def test_no_four_concyclic(self):
        for count in (4, 10):
            pts = generic_position_points(2, count, seed=5)
            assert len(pts) == count
            for quad in combinations(pts, 4):
                assert not concyclic(*quad)

    def test_euclidean_independence(self):
        pts = generic_position_points(2, 5, seed=3, euclidean=True)
        assert all(sum(x * x for x in p.coords) == 1 for p in pts)
        for triple in combinations(pts, 3):
            assert rank([list(p.coords) for p in triple], 3) == 3

    def test_three_dim(self):
        pts = generic_position_points(3, 7, seed=8)
        from inversive.geom import lift_row
        for five in combinations(pts, 5):
            rows = [lift_row(p) for p in five]
            assert rank(rows, 5) == 5

    def test_deterministic(self):
        assert generic_position_points(2, 6, seed=11) == generic_position_points(2, 6, seed=11)


def reference_generic_position_points(n, count, seed):
    """The inversive sampling with the per-subset rule the shared bases
    replaced: a candidate is rejected when it and some n+1 chosen points
    lie on a common sphere."""
    rats = _rational_stream(random.Random(seed))
    chosen = []
    while len(chosen) < count:
        cand = Point.finite(tuple(next(rats) for _ in range(n)))
        if cand in chosen:
            continue
        if len(chosen) >= n + 1 and any(
                on_common_sphere(list(subset) + [cand])
                for subset in combinations(chosen, n + 1)):
            continue
        chosen.append(cand)
    return chosen


class TestGenericPositionReference:
    @pytest.mark.parametrize("n,count,seeds", [
        (1, 9, range(5)), (2, 14, (0, 1, 2, 48)), (3, 9, range(5)), (4, 8, range(3))])
    def test_same_points_as_the_per_subset_rule(self, n, count, seeds):
        for seed in seeds:
            assert (generic_position_points(n, count, seed)
                    == reference_generic_position_points(n, count, seed))

    def test_a_concyclic_candidate_is_rejected(self):
        # seed 48 draws a candidate concyclic with three chosen points, so
        # the sample is not the first 14 distinct candidates
        rats = _rational_stream(random.Random(48))
        first = []
        while len(first) < 14:
            cand = Point.finite((next(rats), next(rats)))
            if cand not in first:
                first.append(cand)
        assert generic_position_points(2, 14, 48) != first


class TestRationalSpherePoints:
    def test_stereographic_landmarks(self):
        assert _stereographic((F(0), F(0))) == (F(0), F(0), F(-1))
        assert _stereographic((F(1), F(0))) == (F(1), F(0), F(0))

    def test_on_sphere_exactly(self):
        for n in (1, 2, 3):
            pts = rational_sphere_points(n, 6, seed=2)
            assert len(set(pts)) == 6
            assert all(sum(x * x for x in p.coords) == 1 for p in pts)

    @given(st.tuples(nonzero_rationals, nonzero_rationals))
    def test_parameterization_identity(self, t):
        x = _stereographic(t)
        assert sum(v * v for v in x) == 1


class TestColoredConfig:
    def test_sampling_covers_all_colors(self):
        cfg = ColoredConfig.sample(TwoLine(extended=True), 2, seed=11)
        assert cfg.colors_present() == {1, 2, 3, 4, 5}
        tl = TwoLine(extended=True)
        assert all(color_of(tl, p) == c for p, c in cfg.items)

    def test_validation(self):
        p = Point.finite((1, 1))
        with pytest.raises(ColoringError):
            ColoredConfig(2, 2, ((p, 1), (p, 2)))
        with pytest.raises(ColoringError):
            ColoredConfig(2, 2, ((p, 3),))

    def test_helpers(self):
        cfg = ColoredConfig(2, 2, ((Point.finite((1, 1)), 1), (Point.finite((2, 2)), 2)))
        assert cfg.points_of_color(2) == [Point.finite((2, 2))]
        assert len(cfg.points()) == 2
