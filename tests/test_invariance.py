"""Moebius invariance of the sphere layer, the search stack and the
circle-preservation checks.

A Moebius word maps lifted rows linearly, up to a nonzero factor per point,
so it keeps every incidence and the rank of every family of lifted rows. The
images come from `moebius` (reflections of lifted rows in mirror rows); the
answers come from `geom` on the images' own rows, so neither side checks
itself. Samples are flag configurations with the origin and infinity in
them, extended two-line configurations with Q(2^(1/4)) points, and grid and
unit-circle points of the plane with infinity among them; the words are
rational, so each word moves points to and from infinity.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import pytest

from inversive.chromatic import max_polychromatic, most_colored, sphere_index
from inversive.colorings import ColoredConfig, FlagInversive, PointListBackground, TwoLine
from inversive.geom import (DegenerateConfigError, GeometryError, Point, concyclic, separated,
                            smallest_sphere, span_key, span_walk, sphere_through)
from inversive.moebius import HyperplaneReflection, MoebiusMap, SphereInversion
from inversive.wcp import FiniteImageMap, circular_general_position, sample_circles, wcp_check

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
radius_sq = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)


def words(n):
    """Rational words of 1-4 inversions and reflections of R^n_inf."""
    vector = st.tuples(*[small] * n)
    factor = st.one_of(
        st.builds(SphereInversion, vector, radius_sq),
        st.builds(HyperplaneReflection, vector.filter(any), small))
    return st.lists(factor, min_size=1, max_size=4).map(lambda fs: MoebiusMap(tuple(fs), n))


def samples(n):
    """(points, their images, subsets of 2..n+2 indices) for a flag sample of
    R^n_inf and a word."""
    def draw(seed, m, data):
        pts = ColoredConfig.sample(FlagInversive(n), 2, seed).points()
        subsets = data.draw(st.lists(
            st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=n + 2, unique=True),
            min_size=1, max_size=5))
        return pts, [m.apply(p) for p in pts], subsets
    return st.builds(draw, st.integers(0, 200), words(n), st.data())


def groups(points, size):
    """The `size`-subsets that span a sphere, grouped by the sphere."""
    by_key = {}
    for subset, key in span_walk(points, size):
        by_key.setdefault(key, []).append(subset)
    return sorted(by_key.values())


class TestSphereLayerInvariance:
    def check(self, pts, images, subsets):
        n = pts[0].dim
        for subset in subsets:
            s = smallest_sphere([pts[i] for i in subset])
            t = smallest_sphere([images[i] for i in subset])
            assert s.dim == t.dim
            assert [t.contains(q) for q in images] == [s.contains(p) for p in pts]
            assert ((span_key([images[i] for i in subset]) is None)
                    == (span_key([pts[i] for i in subset]) is None))
        for size in range(3, n + 3):
            assert groups(images, size) == groups(pts, size)

    @settings(max_examples=40, deadline=None)
    @given(samples(2))
    def test_plane(self, sample):
        self.check(*sample)

    @settings(max_examples=25, deadline=None)
    @given(samples(3))
    def test_space(self, sample):
        self.check(*sample)


def mapped_configs(coloring, per_class):
    """A sampled configuration of a coloring and its image under a word, with
    each point keeping its color."""
    def draw(seed, m):
        config = ColoredConfig.sample(coloring, per_class, seed)
        return config, ColoredConfig(config.n, config.k,
                                     tuple((m.apply(p), c) for p, c in config.items))
    return st.builds(draw, st.integers(0, 200), words(coloring.n))


class TestSearchInvariance:
    """`sphere_index` and `max_polychromatic` answer the same, by index, on a
    configuration and on its image."""

    def check(self, config, image):
        pts, images = config.points(), image.points()
        for d in range(config.n):
            size = config.n + 1 if d == config.n - 1 else d + 2
            index = sphere_index(span_walk(pts, size))
            assert list(sphere_index(span_walk(images, size)).values()) == list(index.values())
            if not index:
                for c in (config, image):
                    with pytest.raises(DegenerateConfigError):
                        max_polychromatic(c, d)
                continue
            assert (most_colored(image, sphere_index(span_walk(images, size)))[0]
                    == most_colored(config, index)[0])
            w, v = max_polychromatic(config, d), max_polychromatic(image, d)
            assert ([images.index(p) for p, _ in v.on_points]
                    == [pts.index(p) for p, _ in w.on_points])
            assert [c for _, c in v.on_points] == [c for _, c in w.on_points]
            assert v.color_set == w.color_set

    @settings(max_examples=25, deadline=None)
    @given(mapped_configs(FlagInversive(2), 2))
    def test_plane(self, case):
        self.check(*case)

    @settings(max_examples=10, deadline=None)
    @given(mapped_configs(FlagInversive(3), 2))
    def test_space(self, case):
        self.check(*case)

    @settings(max_examples=5, deadline=None)
    @given(mapped_configs(TwoLine(extended=True), 1))
    def test_two_line_quartic(self, case):
        self.check(*case)


@st.composite
def grid_points(draw, n, count):
    """`count` distinct points of R^n_inf: some on the unit circle or on the
    extended first axis, the rest on a small integer grid or at infinity, in
    any order, so that concyclic quadruples and points on a sphere are
    common."""
    pad = (F(0),) * (n - 2)
    circle = small.map(lambda t: Point.finite(((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
                                              + pad))
    axis = st.one_of(st.just(Point.infinity(n)), small.map(lambda t: Point.finite((t, F(0)) + pad)))
    grid = st.tuples(*[st.integers(-2, 2)] * n).map(lambda c: Point.finite(tuple(map(F, c))))
    on = draw(st.integers(0, count))
    pts = draw(st.lists(draw(st.sampled_from([circle, axis])), min_size=on, max_size=on,
                        unique=True))
    pts += draw(st.lists(st.one_of(st.just(Point.infinity(n)), grid), min_size=count - on,
                         max_size=count - on, unique=True).filter(lambda ps: not set(ps) & set(pts)))
    return draw(st.permutations(pts))


def verdict(predicate, *args):
    """A predicate's answer, or the type of the error it raises."""
    try:
        return predicate(*args)
    except GeometryError as e:
        return type(e)


class TestPredicateInvariance:
    """`separated` and `concyclic` give the same verdict on points, spheres
    and their images; a point on the sphere stays on it, so the refusal to
    separate it is kept too."""

    def check(self, pts, m):
        n = pts[0].dim
        images = [m.apply(p) for p in pts]
        assert verdict(concyclic, *images[:4]) == verdict(concyclic, *pts[:4])
        try:
            s = sphere_through(pts[:n + 1])
        except GeometryError:
            return
        x, y = pts[n + 1:n + 3]
        assert (verdict(separated, images[n + 1], images[n + 2], m.image_sphere(s))
                == verdict(separated, x, y, s))

    @settings(max_examples=80, deadline=None)
    @given(grid_points(2, 5), words(2))
    def test_plane(self, pts, m):
        self.check(pts, m)

    @settings(max_examples=40, deadline=None)
    @given(grid_points(3, 6), words(3))
    def test_space(self, pts, m):
        self.check(pts, m)


def on_indices(points, report):
    return None if report.circle is None else [points.index(p) for p in report.on_circle]


# five points on the unit circle: four listed colors and one background point
UNIT_CIRCLE = (Point.finite((1, 0)), Point.finite((0, 1)), Point.finite((-1, 0)),
               Point.finite((0, -1)), Point.finite((F(3, 5), F(4, 5))))
LISTED_ON_CIRCLE = PointListBackground(2, UNIT_CIRCLE[:4], (2, 3, 4, 5), background=1)


class TestWcpInvariance:
    """`circular_general_position` and `wcp_check` answer the same on image
    points and on their images under a word: both rest on concyclicity
    only."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 7).flatmap(lambda m: grid_points(2, m)), words(2))
    def test_circular_general_position(self, pts, m):
        images = [m.apply(p) for p in pts]
        r, s = circular_general_position(pts), circular_general_position(images)
        assert s.verdict == r.verdict
        assert on_indices(images, s) == on_indices(pts, r)

    @settings(max_examples=40, deadline=None)
    @given(grid_points(2, 5), words(2),
           st.lists(st.integers(0, 4), min_size=5, max_size=5), st.integers(0, 3),
           st.integers(0, 50))
    def test_wcp_check(self, image, m, table, at, seed):
        # random circles carry background points only; the unit circle carries
        # four listed colors, so its images decide the verdict
        samples = sample_circles(3, seed)
        samples.insert(at, (sphere_through(UNIT_CIRCLE[:3]), UNIT_CIRCLE))
        t = FiniteImageMap(LISTED_ON_CIRCLE, tuple(image), dict(enumerate(table, start=1)))
        mt = FiniteImageMap(LISTED_ON_CIRCLE, tuple(m.apply(p) for p in image), t.table)
        v, w = wcp_check(t, samples), wcp_check(mt, samples)
        assert (w is None) == (v is None)
        if v is not None:
            assert w.sample_index == v.sample_index == at
            assert w.domain_points == v.domain_points
