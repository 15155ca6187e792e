"""Tests for the procedural colorings and generic-position sampling."""

import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inversive import colorings
from inversive._linalg import rank
from inversive.chromatic import verify_generic
from inversive.colorings import (
    FlagEuclidean,
    FlagInversive,
    PointListBackground,
    TwoLine,
    _check_class,
    _distinct,
    _random_points,
    _rational_stream,
    _stereographic,
    generic_position_points,
    num_colors,
    rational_sphere_points,
    sample_class,
)
from inversive.exactnum import BackendMismatch, THETA
from inversive.geom import Point, concyclic, on_common_sphere
from inversive.jsonio import FormatError, decode_coloring, encode_point
from inversive.witness import ColoredConfig, ColoringError

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


def reference_two_line_sample_class(i, count, seed):
    """`TwoLine.sample_class` as it was: every candidate is built as a Point
    and the Points are deduplicated."""
    _check_class(i, 5, count)
    rats = _rational_stream(random.Random(seed))
    zero = F(0)
    if i == 1:
        def gen():
            yield Point.finite((zero, zero))
            yield Point.infinity(2)
            while True:
                yield Point.finite((zero, next(rats)))
                yield Point.finite((next(rats) * THETA, zero))
        return _distinct(gen(), count)
    scale = {2: THETA, 3: THETA ** 3, 4: THETA ** 2, 5: F(1)}[i]

    def gen():
        while True:
            v = next(rats) * scale
            yield Point.finite((zero, v) if i in (2, 3) else (v, zero))

    return _distinct(gen(), count)


class TestTwoLineSamplingReference:
    # seed 10 repeats a rational on one axis; 54, 64 and 74 repeat one across the axes
    SEEDS = (*range(16), 54, 64, 74)

    def test_matches_point_deduplicating_reference(self):
        # the same points in the same order, each on the same backend with
        # the same JSON form
        tl = TwoLine()
        for i in range(1, 6):
            for seed in self.SEEDS:
                for count in range(1, 13):
                    got = tl.sample_class(i, count, seed)
                    want = reference_two_line_sample_class(i, count, seed)
                    assert got == want
                    assert [p.backend() for p in got] == [p.backend() for p in want]
                    assert [encode_point(p) for p in got] == [encode_point(p) for p in want]

    def test_seeds_repeat_rationals(self):
        # the seeds above draw a rational twice among the first 10, all that
        # class 1 takes at count 12: on one axis (one point), and on both
        # axes (two points)
        same_axis = cross_axis = False
        for seed in self.SEEDS:
            xs = [x for x, _ in zip(_rational_stream(random.Random(seed)), range(10))]
            for a, b in combinations(range(10), 2):
                if xs[a] == xs[b]:
                    same_axis |= (b - a) % 2 == 0
                    cross_axis |= (b - a) % 2 == 1
        assert same_axis and cross_axis

    def test_backends(self):
        # the origin, the class-1 points of the y-axis and class 5 are
        # rational points; the class-1 points of the x-axis and classes 2..4
        # are Q(2^(1/4)) points
        tl = TwoLine()
        for seed in self.SEEDS:
            origin, infinity, *rest = tl.sample_class(1, 12, seed)
            assert origin.backend() == "rational" and infinity.is_infinity
            assert [p.backend() for p in rest] == [
                "rational" if p.coords[0] == 0 else "quartic" for p in rest]
            for i in range(2, 6):
                expected = "rational" if i == 5 else "quartic"
                assert {p.backend() for p in tl.sample_class(i, 12, seed)} == {expected}


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


def generic(n, k, seed=0):
    """The generic-points coloring, as its seeded descriptor decodes it."""
    return decode_coloring({"kind": "generic", "n": n, "k": k, "seed": seed})


class TestGenericPoints:
    def test_marked_singletons(self):
        g = generic(2, 5, seed=2)
        assert [g.color_of(p) for p in g.points] == [1, 2, 3, 4]
        assert g.color_of(Point.finite((99, 99))) == 5
        assert g.color_of(Point.infinity(2)) == 5

    def test_marked_points_generic(self):
        g = generic(2, 6, seed=4)
        for quad in combinations(g.points, 4):
            assert not concyclic(*quad)

    def test_background_sampling_avoids_marks(self):
        g = generic(2, 4, seed=1)
        pts = g.sample_class(4, 6, seed=9)
        assert len(pts) == 6
        assert all(g.color_of(p) == 4 for p in pts)

    def test_validation(self):
        p = {"coords": ["1", "2"]}
        with pytest.raises(ColoringError, match="listed points must be distinct"):
            decode_coloring({"kind": "generic", "n": 2, "k": 3, "points": [p, p]})
        with pytest.raises(FormatError, match="marks exactly k - 1 points"):
            decode_coloring({"kind": "generic", "n": 2, "k": 3, "points": [p]})
        for k in (1, 0, -2):
            with pytest.raises(FormatError, match="needs k at least 2"):
                decode_coloring({"kind": "generic", "n": 2, "k": k, "seed": 1})
            with pytest.raises(FormatError, match="needs k at least 2"):
                decode_coloring({"kind": "generic", "n": 2, "k": k, "points": []})


@dataclass(frozen=True)
class ReferenceGenericPoints:
    """The generic-points coloring as its own class, kept as the oracle of
    the `generic` descriptor: k-1 marked points in singleton classes and
    everything else in class k."""

    n: int
    k: int
    points: Tuple[Point, ...]

    def __post_init__(self):
        if self.k < 2:
            raise ColoringError("need at least two colors")
        if len(self.points) != self.k - 1:
            raise ColoringError("expected exactly k-1 marked points")
        if len(set(self.points)) != len(self.points):
            raise ColoringError("marked points must be distinct")
        for p in self.points:
            if p.dim != self.n:
                raise ColoringError("marked point has the wrong dimension")

    @classmethod
    def random(cls, n, k, seed=0):
        return cls(n, k, tuple(generic_position_points(n, k - 1, seed)))

    def color_of(self, p):
        if p.dim != self.n:
            raise ColoringError("point has the wrong ambient dimension")
        for j, x in enumerate(self.points, start=1):
            if p == x:
                return j
        return self.k

    def sample_class(self, i, count, seed=0):
        _check_class(i, self.k, count)
        if i < self.k:
            return [self.points[i - 1]]
        return _distinct(_random_points(self.n, seed), count, seen=set(self.points))


def reference_verify_generic(n, k, seed):
    subsets = list(combinations(ReferenceGenericPoints.random(n, k, seed).points, n + 2))
    return {"n": n, "k": k, "subsets_checked": len(subsets),
            "violations": [s for s in subsets if on_common_sphere(s)]}


class TestGenericDescriptorAgainstReference:
    """Both forms of the `generic` descriptor, seeded and with its points
    listed, decode to the point-list coloring that the reference class
    describes."""

    SEEDS = range(6)

    @staticmethod
    def forms(ref, seed):
        seeded = {"kind": "generic", "n": ref.n, "k": ref.k, "seed": seed}
        listed = {"kind": "generic", "n": ref.n, "k": ref.k,
                  "points": [encode_point(p) for p in ref.points]}
        return decode_coloring(seeded), decode_coloring(listed)

    @pytest.mark.parametrize("n,k", [(2, 2), (2, 5), (3, 4), (3, 6)])
    def test_colors(self, n, k):
        for seed in self.SEEDS:
            ref = ReferenceGenericPoints.random(n, k, seed)
            fresh = _distinct(_random_points(n, seed + 100), 8)
            probes = list(ref.points) + fresh + [Point.infinity(n)]
            for col in self.forms(ref, seed):
                assert isinstance(col, PointListBackground)
                assert (col.n, col.k, col.background) == (n, k, k)
                assert [col.color_of(p) for p in probes] == [ref.color_of(p) for p in probes]
                with pytest.raises(ColoringError):
                    col.color_of(Point.infinity(n + 1))

    @pytest.mark.parametrize("n,k", [(2, 2), (2, 5), (3, 4), (3, 6)])
    def test_sample_every_class(self, n, k):
        for seed in self.SEEDS:
            ref = ReferenceGenericPoints.random(n, k, seed)
            for col in self.forms(ref, seed):
                for i in range(1, k + 1):
                    # drawing with the descriptor's own seed replays the
                    # stream the marked points came from
                    for count, s in ((1, seed), (3, seed), (7, seed), (5, seed + i)):
                        assert col.sample_class(i, count, s) == ref.sample_class(i, count, s)
                for bad in (0, k + 1):
                    with pytest.raises(ColoringError):
                        col.sample_class(bad, 1)

    @pytest.mark.parametrize("n,k", [(2, 5), (2, 8), (3, 6), (3, 7)])
    def test_verify_generic(self, n, k):
        for seed in self.SEEDS:
            assert verify_generic(n, k, seed) == reference_verify_generic(n, k, seed)


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

    def test_three_dim(self):
        pts = generic_position_points(3, 7, seed=8)
        from inversive.geom import lift_row
        for five in combinations(pts, 5):
            rows = [lift_row(p) for p in five]
            assert rank(rows, 5) == 5

    def test_deterministic(self):
        assert generic_position_points(2, 6, seed=11) == generic_position_points(2, 6, seed=11)

    def test_four_concyclic_points_block_every_candidate(self, monkeypatch):
        # four points of R^3 on one circle have dependent lifted rows, so no
        # sphere passes through just them: their normal is None. As the last
        # point of the sample the fourth is taken; before more points it is
        # refused, since once all four were chosen every later candidate
        # would lie on a sphere through three of them and the fourth
        circle = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]

        def stream(n, seed):
            yield from (Point.finite(x) for x in circle)
            k = 2
            while True:
                yield Point.finite((k, k * k, 1))
                k += 1

        monkeypatch.setattr(colorings, "_random_points", stream)
        assert generic_position_points(3, 4) == [Point.finite(x) for x in circle]
        assert generic_position_points(3, 5) == [Point.finite(x) for x in circle[:3]
                                                 + [(2, 4, 1), (3, 9, 1)]]

    @pytest.mark.parametrize("n,count,calls", [(2, 7, 20), (3, 7, 15)])
    def test_the_last_point_builds_no_normals(self, monkeypatch, n, count, calls):
        # a point's normals are read only by later candidates, so the i-th
        # point (from 0) builds C(i, n) of them unless it is the last: the
        # sum over i < count - 1 is C(count - 1, n + 1), not the C(count, n + 1)
        # normals of every chosen point
        made = []

        def counted(rows, ncols):
            made.append(len(rows))
            return real(rows, ncols)

        real = colorings.null_vector
        monkeypatch.setattr(colorings, "null_vector", counted)
        pts = generic_position_points(n, count, 1000)
        assert len(made) == calls and set(made) == {n + 1}
        monkeypatch.undo()
        assert pts == reference_generic_position_points(n, count, 1000)


def reference_generic_position_points(n, count, seed):
    """The inversive sampling with one rank test per subset instead of the
    sampler's normals: a candidate is rejected when it and some n+1 chosen
    points lie on a common sphere, or, when more than n+1 points are asked
    for, when it and the n chosen points lie on a sphere of lower dimension."""
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
        if count > n + 1 and len(chosen) == n >= 2 and on_common_sphere(chosen + [cand]):
            continue
        chosen.append(cand)
    return chosen


class TestGenericPositionReference:
    @pytest.mark.parametrize("n,count,seeds", [
        (1, 9, range(5)), (2, 14, (0, 1, 2, 48)), (3, 9, range(5)), (4, 8, range(3)),
        (2, 7, range(12)), (3, 7, range(12)),
        # the last point builds no normals: at count n+1 it is the (n+1)-th,
        # the one point whose normal can be None; at n+2 the (n+1)-th builds them
        *[(n, count, range(6)) for n in range(1, 5) for count in (n + 1, n + 2)]])
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
        assert {c for _, c in cfg.items} == {1, 2, 3, 4, 5}
        tl = TwoLine(extended=True)
        assert all(tl.color_of(p) == c for p, c in cfg.items)

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
