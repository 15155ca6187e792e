"""Incidence predicates, sphere constructions, and the planar invariants."""

import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from inversive import _linalg, geom, jsonio
from inversive.colorings import FlagInversive, TwoLine
from inversive.exactnum import (Quartic2, THETA, SQRT2, BackendMismatch, is_zero, promote,
                               sign_of, zt_element, zt_mul)
from inversive.geom import (
    _check_distinct,
    _extended_flat_subsphere,
    _lifted,
    _uniform,
    lift_row,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
    CR_INFINITY,
    DegenerateConfigError,
    DegenerateSphereError,
    Flat,
    GeometryError,
    Hypersphere,
    Point,
    SideLabel,
    SubSphere,
    concyclic,
    cross_ratio,
    on_common_sphere,
    on_sphere,
    second_intersection,
    power_condition,
    separated,
    separation_signs,
    side,
    smallest_sphere,
    span_key,
    span_walk,
    sphere_through,
)
from inversive.witness import ColoredConfig, PolychromaticWitness
from test_zt_path import reference_canonical, reference_nullspace

P = Point.finite
INF2 = Point.infinity(2)
UNIT_CIRCLE = Hypersphere.make(1, (0, 0), -1)
X_AXIS = Hypersphere.make(0, (0, 1), 0)

coords = st.fractions(min_value=-10, max_value=10, max_denominator=8)
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def rand_rat(rng, lo=-8, hi=8, den=6):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _answer(f, *args):
    """f's answer, or the class and message of what it raised."""
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


class TestOnSphereAndSide:
    def test_membership_examples(self):
        assert on_sphere(P([Fraction(3, 5), Fraction(4, 5)]), UNIT_CIRCLE)
        assert not on_sphere(P([1, 1]), UNIT_CIRCLE)
        assert not on_sphere(INF2, UNIT_CIRCLE)
        assert on_sphere(INF2, X_AXIS)
        assert on_sphere(P([7, 0]), X_AXIS)

    def test_side_examples(self):
        assert side(P([0, 0]), UNIT_CIRCLE) is SideLabel.INSIDE
        assert side(P([2, 0]), UNIT_CIRCLE) is SideLabel.OUTSIDE
        assert side(P([1, 0]), UNIT_CIRCLE) is SideLabel.ON
        assert side(INF2, UNIT_CIRCLE) is SideLabel.OUTSIDE
        assert side(P([1, 2]), X_AXIS) is SideLabel.POSITIVE
        assert side(P([1, -2]), X_AXIS) is SideLabel.NEGATIVE
        assert side(INF2, X_AXIS) is SideLabel.ON

    def test_canonical_form_fixes_orientation(self):
        flipped = Hypersphere.make(0, (0, -3), 0)
        assert flipped == X_AXIS
        scaled = Hypersphere.make(-2, (0, 0), 2)
        assert scaled == UNIT_CIRCLE

    def test_separated(self):
        assert separated(P([0, 0]), INF2, UNIT_CIRCLE)
        assert separated(P([0, 0]), P([3, 3]), UNIT_CIRCLE)
        assert not separated(P([2, 0]), P([0, 2]), UNIT_CIRCLE)
        assert separated(P([1, 1]), P([1, -1]), X_AXIS)
        with pytest.raises(GeometryError):
            separated(P([1, 0]), P([0, 0]), UNIT_CIRCLE)
        with pytest.raises(GeometryError):
            separated(INF2, P([1, 1]), X_AXIS)

    def test_degenerate_coefficients_rejected(self):
        with pytest.raises(DegenerateSphereError):
            Hypersphere.make(1, (0, 0), 0)  # point sphere
        with pytest.raises(DegenerateSphereError):
            Hypersphere.make(1, (0, 0), 1)  # empty
        with pytest.raises(DegenerateSphereError):
            Hypersphere.make(0, (0, 0), 0)

    def test_float_degeneracy_is_relative_to_scale(self):
        # radius 2 around (1000, 0): the discriminant of the unit-scaled
        # coefficients is about 1.6e-11, below EPSILON
        far = Hypersphere.make(1.0, (-2000.0, 0.0), 999996.0)
        assert far.radius_sq() == pytest.approx(4.0)
        s = sphere_through([P([1002.0, 0.0]), P([998.0, 0.0]), P([1000.0, 2.0])])
        assert on_sphere(P([1000.0, -2.0]), s)
        assert not on_sphere(P([1000.0, -2.001]), s)
        assert Hypersphere.make(0.0, (1.0, 0.0), -1e6).is_flat
        # zero radius stays degenerate wherever the centre is
        for c, b, a in ((1.0, (0.0, 0.0), 0.0), (1.0, (-2000.0, 0.0), 1e6),
                        (2.0, (-4.0, -8.0), 10.0), (1.0, (-2e-3, 0.0), 1e-6)):
            with pytest.raises(DegenerateSphereError):
                Hypersphere.make(c, b, a)

    def test_directly_built_sphere_answers_as_make(self):
        for c, b, a in ((Fraction(1), (Fraction(0), Fraction(0)), Fraction(-1)),
                        (Fraction(-2), (Fraction(0), Fraction(0)), Fraction(2)),
                        (Fraction(0), (Fraction(0), Fraction(-3)), Fraction(0)),
                        (Quartic2(1), (Quartic2(0), Quartic2(0)), -SQRT2),
                        (1.0, (0.0, 0.0), -1.0)):
            direct, made = Hypersphere(c, b, a), Hypersphere.make(c, b, a)
            probes = [INF2, P([0, 0]), P([1, 0]), P([2, 3]), P([THETA, 0]), P([0.5, 1.0])]
            for q in probes:
                assert _answer(direct.contains, q) == _answer(made.contains, q)
                assert _answer(side, q, direct) == _answer(side, q, made)
            assert direct.row == made.row
            if not isinstance(c, float):
                assert direct.key() == made.key()
        circle = Hypersphere(Fraction(1), (Fraction(0), Fraction(0)), Fraction(-1))
        assert circle.contains(P([Fraction(1), Fraction(0)]))
        on = ((P([1, 0]), 1), (P([0, 1]), 2), (P([-1, 0]), 3))
        assert PolychromaticWitness(circle, on, frozenset({1, 2, 3})).sphere is circle
        with pytest.raises(DegenerateSphereError):
            Hypersphere(Fraction(1), (Fraction(0), Fraction(0)), Fraction(1)).contains(P([1, 0]))

    def test_float_side_in_rows_orientation(self):
        # stored coefficients that are a negative multiple of `row` give a
        # float point the side that `make`'s sphere gives it
        p = P([0.5, 1.0])
        for c, b, a in ((Fraction(-2), (Fraction(0), Fraction(0)), Fraction(2)),
                        (-2.0, (0.0, 0.0), 2.0), (0, (0, -3), 0), (0.0, (-1e-12, -3.0), 1.0)):
            direct, made = Hypersphere(c, b, a), Hypersphere.make(c, b, a)
            assert side(p, direct) is side(p, made)
            assert side(P([0.5, -1.0]), direct) is side(P([0.5, -1.0]), made)
        assert side(p, Hypersphere(Fraction(-2), (Fraction(0), Fraction(0)), Fraction(2))) \
            is SideLabel.OUTSIDE
        # EPSILON stays on the stored scale: the point 5e-14 off the unit
        # circle has the value -1e-10 on these coefficients, so it is on it
        big = Hypersphere(-1e3, (0.0, 0.0), 1e3)
        assert side(P([1.0 + 5e-14, 0.0]), big) is SideLabel.ON
        assert side(P([2.0, 0.0]), big) is SideLabel.OUTSIDE

    def test_center_and_radius(self):
        s = sphere_through([P([0, 0]), P([1, 0]), P([0, 1])])
        assert s.center() == P([Fraction(1, 2), Fraction(1, 2)])
        assert s.radius_sq() == Fraction(1, 2)

    def test_float_backend_uses_epsilon(self):
        s = Hypersphere.make(1.0, (0.0, 0.0), -1.0)
        assert on_sphere(P([1.0 + 1e-12, 0.0]), s)
        assert not on_sphere(P([1.0 + 1e-6, 0.0]), s)
        with pytest.raises(BackendMismatch):
            sphere_through([P([0.5, 0.5]), P([1, 0]), P([0, 1])])

    def test_float_and_quartic_do_not_mix_either_way(self):
        # a float point on a Q(2^(1/4)) sphere and a Q(2^(1/4)) point on a
        # float sphere both refuse with BackendMismatch, never a TypeError
        quartic = Hypersphere.make(Quartic2(1), (Quartic2(0), Quartic2(0)), -SQRT2)
        floats = Hypersphere.make(1.0, (0.0, 0.0), -1.0)
        for p, s in ((P([0.5, 1.0]), quartic), (P([THETA, 0]), floats)):
            for ask in (side, lambda p, s: s.contains(p), on_sphere):
                with pytest.raises(BackendMismatch):
                    ask(p, s)
        sub = SubSphere(Flat.through([P([0, 0]), P([1, 0])]), quartic)
        with pytest.raises(BackendMismatch):
            sub.contains(P([0.5, 0.0]))
        # a rational sphere still answers a float point, as documented
        assert side(P([0.5, 0.0]), Hypersphere.make(1, (0, 0), -1)) is SideLabel.INSIDE


class TestSphereThrough:
    def test_float_circle(self):
        s = sphere_through([P([1.0, 0.0]), P([0.0, 1.0]), P([-1.0, 0.0])])
        assert on_sphere(P([0.6, 0.8]), s)
        assert not on_sphere(P([0.6, 0.81]), s)

    def test_float_nullspace_stays_float(self):
        for vec in _linalg.nullspace([[1.0, 2.0, 0.0, 0.0]], 4):
            assert all(type(x) is float for x in vec)
        # with no pivot every column is free, and its vector is float too
        basis = _linalg.nullspace([[0.0, 0.0, 0.0]], 3)
        assert basis == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        assert all(type(x) is float for vec in basis for x in vec)

    def test_circle_through_three_points(self):
        s = sphere_through([P([0, 0]), P([1, 0]), P([0, 1])])
        assert s == Hypersphere.make(1, (-1, -1), 0)

    def test_line_when_infinity_included(self):
        s = sphere_through([P([0, 0]), P([1, 0]), INF2])
        assert s == X_AXIS
        assert s.is_flat

    def test_line_when_collinear(self):
        s = sphere_through([P([0, 0]), P([1, 0]), P([2, 0])])
        assert s == X_AXIS

    def test_three_dimensional_sphere(self):
        pts = [P([1, 0, 0]), P([-1, 0, 0]), P([0, 1, 0]), P([0, 0, 1])]
        s = sphere_through(pts)
        assert s == Hypersphere.make(1, (0, 0, 0), -1)
        # four coplanar, non-cocircular points force c = 0
        flat = sphere_through([P([0, 0, 0]), P([1, 0, 0]), P([0, 1, 0]), P([2, 2, 0])])
        assert flat.is_flat

    def test_duplicates_rejected(self):
        with pytest.raises(DegenerateConfigError):
            sphere_through([P([0, 0]), P([0, 0]), P([1, 1])])
        with pytest.raises(DegenerateConfigError):
            sphere_through([INF2, INF2, P([1, 1])])

    def test_quartic_backend(self):
        pts = [P([THETA, Quartic2(0)]), P([-THETA, Quartic2(0)]), P([Quartic2(0), THETA])]
        s = sphere_through(pts)
        assert s == Hypersphere.make(1, (0, 0), -SQRT2)

    def test_random_points_lie_on_their_sphere(self):
        rng = random.Random(7)
        for _ in range(25):
            pts = [P([rand_rat(rng), rand_rat(rng)]) for _ in range(3)]
            try:
                s = sphere_through(pts)
            except (DegenerateSphereError, DegenerateConfigError):
                continue
            assert all(on_sphere(p, s) for p in pts)


def _nullspace_sphere_through(points):
    """`sphere_through` by the `nullspace` fold: the sphere of the one
    `nullspace` vector of the lifted rows."""
    rows, n = _lifted(points)
    _check_distinct(rows, "sphere_through")
    ns = _linalg.nullspace(rows, n + 2)
    if len(ns) != 1:
        raise DegenerateSphereError("points do not determine a unique sphere")
    return geom._sphere_of(ns[0])


def _sphere_fields(s):
    return repr((s.c, s.b, s.a, s.row, s.key())) if isinstance(s, Hypersphere) else s


class TestSphereThroughMinors:
    """`sphere_through` from the signed maximal minors against the sphere of
    the `nullspace` vector: the same c, b, a (as scalars of the same
    type), row and key, or the same refusal."""

    @staticmethod
    def scalar(rng, quartic):
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return q * rng.choice([1, THETA, SQRT2, THETA ** 3, 1 + THETA]) if quartic else q

    def families(self):
        tl = ColoredConfig.sample(TwoLine(), 2, 5).points()
        yield from combinations(tl, 3)
        for seed in range(40):
            rng = random.Random(seed)
            quartic = seed % 2 == 1
            yield [INF2] + [P([self.scalar(rng, quartic), self.scalar(rng, quartic)])
                            for _ in range(2)]
            yield [P([self.scalar(rng, quartic) for _ in range(2)]) for _ in range(3)]
            yield [P([self.scalar(rng, quartic) for _ in range(3)]) for _ in range(4)]
            yield ([Point.infinity(3)] +
                   [P([self.scalar(rng, quartic) for _ in range(3)]) for _ in range(3)])
        # four points of one circle, and a repeated point
        yield [P([THETA, 0, 0]), P([0, THETA, 0]), P([-THETA, 0, 0]), P([0, -THETA, 0])]
        yield [P([0, THETA]), P([0, THETA]), P([1, 0])]

    def test_same_sphere_as_nullspace(self):
        kinds = set()
        for points in self.families():
            want = _outcome(_nullspace_sphere_through, points)
            kinds.add(want[0].__name__ if isinstance(want, tuple)
                      else (len(points), geom._family_kind(points)))
            assert _sphere_fields(_outcome(sphere_through, points)) == _sphere_fields(want)
        assert kinds == {(3, "rational"), (3, "quartic"), (4, "rational"), (4, "quartic"),
                         "DegenerateSphereError", "DegenerateConfigError"}


class TestConcyclic:
    def test_examples(self):
        assert concyclic(P([1, 0]), P([0, 1]), P([-1, 0]), P([0, -1]))
        assert not concyclic(P([0, 0]), P([1, 0]), P([0, 1]), P([2, 2]))
        assert concyclic(P([0, 0]), P([1, 0]), P([2, 0]), INF2)
        assert concyclic(P([0, 0]), P([1, 0]), P([2, 0]), P([3, 0]))

    def test_duplicates_rejected(self):
        with pytest.raises(DegenerateConfigError):
            concyclic(P([0, 0]), P([0, 0]), P([1, 0]), P([2, 0]))

    def test_higher_dimension(self):
        assert concyclic(P([1, 0, 0]), P([0, 1, 0]), P([-1, 0, 0]), P([0, -1, 0]))
        assert not concyclic(P([1, 0, 0]), P([0, 1, 0]), P([-1, 0, 0]), P([0, 0, 1]))

    def test_matches_cross_ratio_reality(self):
        rng = random.Random(11)
        checked = 0
        while checked < 60:
            pts = [P([rand_rat(rng), rand_rat(rng)]) for _ in range(4)]
            if len(set(pts)) < 4:
                continue
            cr = cross_ratio(*pts)
            assert cr is not CR_INFINITY
            assert concyclic(*pts) == (cr[1] == 0)
            checked += 1


class TestSeparationSigns:
    """The signs of the one relation among the lifted rows of n+3 points
    against the tests they replace: the sphere through all but two of the
    points separates those two exactly when their signs agree, and there is
    no such relation with every sign nonzero exactly when n+2 of the points
    share a sphere."""

    @staticmethod
    def configs(kind):
        """Seeded n+3 distinct points, n = 1..4, on a coarse grid; for one
        seed in three with n > 1, n+2 of them on the hyperplane x_n = 0.
        `kind` is their backend, or "infinity" for rational and Q(2^(1/4))
        families through infinity."""
        for seed in range(60):
            rng = random.Random(seed)
            n = 1 + seed % 4
            quartic = kind == "quartic" or (kind == "infinity" and seed % 2)
            flat = seed % 3 == 0 and n > 1
            points = [Point.infinity(n)] if kind == "infinity" else []
            while len(points) < n + 3:
                xs = [rand_rat(rng, -3, 3, 2) for _ in range(n)]
                if flat and len(points) < n + 2:
                    xs[-1] = Fraction(0)
                if quartic:
                    xs = [x * rng.choice([1, THETA, SQRT2, THETA ** 3]) for x in xs]
                p = P([float(x) for x in xs] if kind == "float" else xs)
                if p not in points:
                    points.append(p)
            yield points

    @pytest.mark.parametrize("kind", ["rational", "quartic", "float", "infinity"])
    def test_signs_decide_every_separation(self, kind):
        decided = refused = 0
        for points in self.configs(kind):
            m = len(points)
            signs = separation_signs(points)
            assert (signs is None) == any(on_common_sphere(sub)
                                          for sub in combinations(points, m - 1))
            if signs is None:
                refused += 1
                continue
            decided += 1
            for subset in combinations(range(m), m - 2):
                i, j = [k for k in range(m) if k not in subset]
                s = sphere_through([points[k] for k in subset])
                assert separated(points[i], points[j], s) == (signs[i] == signs[j])
        assert decided >= 30 and refused >= 10

    def test_none_when_four_points_are_concyclic(self):
        assert separation_signs([P([1, 0]), P([0, 1]), P([-1, 0]), P([0, -1]), P([0, 0])]) is None
        # three collinear points and infinity lie on one extended line
        assert separation_signs([P([0, 0]), P([1, 0]), P([2, 0]), INF2, P([0, 1])]) is None
        on_circle = [P([THETA, 0]), P([0, THETA]), P([-THETA, 0]), P([0, -THETA])]
        assert separation_signs(on_circle + [P([1, 2])]) is None
        assert separation_signs(on_circle[:3] + [P([0, 1]), P([1, 2])]) is not None
        # five concyclic points satisfy two independent relations
        fifth = P([THETA * Fraction(3, 5), THETA * Fraction(4, 5)])
        assert separation_signs(on_circle + [fifth]) is None

    def test_none_when_n_plus_two_points_are_cospherical(self):
        sphere = [P([1, 0, 0]), P([-1, 0, 0]), P([0, 1, 0]), P([0, 0, 1]), P([0, 0, -1])]
        assert separation_signs(sphere + [P([3, 5, 7])]) is None
        assert separation_signs(sphere + [P([0, -1, 0])]) is None
        plane = [P([0, 0, 0]), P([1, 0, 0]), P([0, 1, 0]), P([1, 2, 0]), Point.infinity(3)]
        assert separation_signs(plane + [P([0, 0, 1])]) is None
        assert separation_signs(sphere[:4] + [P([1, 1, 2]), P([3, 5, 7])]) is not None

    def test_duplicates_and_counts_refused(self):
        with pytest.raises(DegenerateConfigError):
            separation_signs([P([0, 0]), P([0, 0]), P([1, 0]), P([0, 1]), P([2, 3])])
        with pytest.raises(DegenerateConfigError):
            separation_signs([INF2, P([1, 0]), INF2, P([0, 1]), P([2, 3])])
        with pytest.raises(GeometryError, match="n\\+3"):
            separation_signs([P([0, 0]), P([1, 0]), P([0, 1]), P([2, 3])])

    def test_five_point_example_partition(self):
        # (x^2 + y^2, x, y, 1) of (0,0), (0,1), (0,3), (-2,0), (2,0) satisfy
        # 14 X_0 - 12 X_1 + 4 X_2 - 3 X_3 - 3 X_4 = 0, worked out by hand
        signs = separation_signs([P([0, 0]), P([0, 1]), P([0, 3]), P([-2, 0]), P([2, 0])])
        assert signs in ([1, -1, 1, -1, -1], [-1, 1, -1, 1, 1])


def _stereo(ts):
    """Inverse stereographic image of ts in Q^k: a rational point of the unit
    k-sphere in R^(k+1)."""
    q = sum(t * t for t in ts)
    return [2 * t / (1 + q) for t in ts] + [(q - 1) / (1 + q)]


@st.composite
def point_families(draw, sizes):
    """(n, points): n in 1..4 and len(points) = sizes(n) points of R^n_inf.

    Mostly all points but at most one stray lie on one generalized k-sphere,
    1 <= k < n: a round one (stereographic images of rational parameters,
    scaled and shifted) or a coordinate k-flat, maybe through infinity. With
    k = n - 1 the points are cospherical; with smaller k, n + 1 of them fix no
    unique sphere. The rest are points in general position.
    """
    n = draw(st.integers(1, 4))
    m = sizes(n)
    small = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    if n == 1 or draw(st.integers(0, 3)) == 0:
        pts = [P(t) for t in draw(st.lists(st.tuples(*[coords] * n), min_size=m,
                                           max_size=m, unique=True))]
    else:
        k = draw(st.integers(1, n - 1))
        params = draw(st.lists(st.tuples(*[small] * k), min_size=m, max_size=m, unique=True))
        if draw(st.booleans()):
            scale = draw(small.filter(bool))
            shift = draw(st.tuples(*[small] * n))
            pts = [P([scale * x + c for x, c in zip(_stereo(t) + [0] * (n - k - 1), shift)])
                   for t in params]
        else:
            height = draw(small)
            pts = [P(list(t) + [height] * (n - k)) for t in params]
            if draw(st.booleans()):
                pts[0] = Point.infinity(n)
        if draw(st.booleans()):
            pts[-1] = draw(st.one_of(st.tuples(*[coords] * n).map(P), st.just(Point.infinity(n))))
    assume(len(set(pts)) == m and sum(p.is_infinity for p in pts) <= 1)
    return n, pts


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _oracle_rows(sympy, points):
    """The lifted matrix (<x,x>, x, 1) over QQ, infinity as (1, 0, .., 0)."""
    rows = []
    for p in points:
        if p.is_infinity:
            rows.append([1] + [0] * (p.dim + 1))
        else:
            x = [sympy.Rational(c.numerator, c.denominator) for c in p.coords]
            rows.append([sum(v * v for v in x), *x, 1])
    return sympy.Matrix(rows)


def _primitive(row):
    """A nonzero rational row scaled to primitive ints with a positive pivot."""
    d = math.lcm(*(Fraction(x).denominator for x in row))
    ints = [int(x * d) for x in row]
    g = math.gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
    return [x // g for x in ints]


class TestAgainstSympy:
    """The rank and nullspace predicates against sympy's exact linear algebra
    over QQ, an oracle that shares no code with `_linalg`."""

    @settings(max_examples=200, deadline=None)
    @given(point_families(lambda n: n + 2))
    def test_on_common_sphere_matches_rank(self, sympy, family):
        n, pts = family
        expected = _oracle_rows(sympy, pts).rank() < len(pts)
        event("cospherical" if expected else "not cospherical")
        assert on_common_sphere(pts) == expected
        for sub in (pts[:3], pts[-3:]):
            assert on_common_sphere(sub) == (_oracle_rows(sympy, sub).rank() < len(sub))

    @settings(max_examples=150, deadline=None)
    @given(point_families(lambda n: 4).filter(lambda f: f[0] >= 2))
    def test_concyclic_matches_rank(self, sympy, family):
        _, pts = family
        expected = _oracle_rows(sympy, pts).rank() <= 3
        event("concyclic" if expected else "not concyclic")
        assert concyclic(*pts) == expected

    @settings(max_examples=200, deadline=None)
    @given(point_families(lambda n: n + 1))
    def test_sphere_through_matches_nullspace(self, sympy, family):
        n, pts = family
        ns = _oracle_rows(sympy, pts).nullspace()
        if len(ns) != 1:
            event("no unique sphere")
            with pytest.raises(DegenerateSphereError):
                sphere_through(pts)
            return
        vec = list(ns[0])
        lead = next(v for v in vec if v != 0)
        expected = [Fraction(int(v.p), int(v.q)) for v in (w / lead for w in vec)]
        s = sphere_through(pts)
        event("flat" if s.is_flat else "round")
        assert [s.c, *s.b, s.a] == expected

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda cols: st.lists(
        st.lists(st.one_of(st.integers(-3, 3), small_fractions), min_size=cols, max_size=cols),
        min_size=1, max_size=5)))
    def test_echelon_matches_rref(self, sympy, rows):
        ncols = len(rows[0])
        red, pivots = _linalg.echelon(rows, ncols)
        ref, ref_pivots = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]).rref()
        assert pivots == list(ref_pivots)
        assert red == [_primitive([Fraction(int(v.p), int(v.q)) for v in ref.row(i)])
                       for i in range(len(pivots))]

    @pytest.mark.parametrize("infinity", [False, True])
    def test_separation_signs_match_cofactors(self, sympy, infinity):
        # lambda_k = (-1)**k det(the lifted rows without row k) is a relation
        # among the n+3 rows (expand det([rows | a column of rows]) = 0 along
        # that column), and lambda_k = 0 exactly when the other n+2 points
        # share a sphere; for one seed in three with n > 1, n+2 of the points
        # lie on the hyperplane x_n = 0
        decided = refused = 0
        for seed in range(48):
            rng = random.Random(seed)
            n = 1 + seed % 4
            points = [Point.infinity(n)] if infinity else []
            while len(points) < n + 3:
                xs = [rand_rat(rng, -2, 2, 2) for _ in range(n)]
                if seed % 3 == 0 and n > 1 and len(points) < n + 2:
                    xs[-1] = Fraction(0)
                if P(xs) not in points:
                    points.append(P(xs))
            rows = _oracle_rows(sympy, points)
            dets = [(-1) ** k * rows.extract([i for i in range(n + 3) if i != k],
                                             list(range(n + 2))).det() for k in range(n + 3)]
            signs = separation_signs(points)
            if any(d == 0 for d in dets):
                assert signs is None
                refused += 1
                continue
            expected = [int(sympy.sign(d)) for d in dets]
            assert signs in (expected, [-s for s in expected])
            decided += 1
        assert decided >= 20 and refused >= 10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hyperplane_through_infinity(self, sympy, n):
        # the origin, e_1 .. e_(n-1) and 2(e_1 + .. + e_(n-1)) lie on the
        # hyperplane x_n = 0, and so does infinity; e_n does not
        e = [[int(i == j) for j in range(n)] for i in range(n)]
        flat = [P([0] * n), *map(P, e[:-1]), P([2] * (n - 1) + [0])]
        for last, expected in ((Point.infinity(n), True), (P(e[-1]), False)):
            pts = flat + [last]
            assert on_common_sphere(pts) == expected
            assert expected == (_oracle_rows(sympy, pts).rank() < n + 2)
        assert sphere_through(flat[1:] + [Point.infinity(n)]) == Hypersphere.make(0, e[-1], 0)


class TestEchelon:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda cols: st.lists(
        st.lists(st.one_of(st.integers(-3, 3), small_fractions), min_size=cols, max_size=cols),
        min_size=1, max_size=5)))
    def test_rational_rows_match_rref(self, rows):
        # int, Fraction and mixed rows: their denominators are cleared row by
        # row and the reduced rows read off the integer nullspace folds
        ncols = len(rows[0])
        ref, ref_pivots = _linalg.rref([[Fraction(x) for x in r] for r in rows], ncols)
        red, pivots = _linalg.echelon(rows, ncols)
        assert pivots == ref_pivots
        assert red == [_primitive(r) for r in ref[: len(pivots)]]
        assert all(type(x) is int for r in red for x in r)
        assert _linalg.rank(rows, ncols) == len(pivots)
        for vec in _linalg.nullspace(rows, ncols):
            assert all(type(x) is int for x in vec)
            assert all(sum(a * x for a, x in zip(r, vec)) == 0 for r in rows)

    def test_quartic_rows_keep_rref(self):
        rows = [[THETA, 1, Fraction(1, 2)], [SQRT2, THETA * SQRT2, Fraction(1, 2) * THETA]]
        ref, ref_pivots = _linalg.rref(rows, 3)
        assert _linalg.echelon(rows, 3) == (ref[: len(ref_pivots)], ref_pivots)
        # an int pivot among Quartic2 entries divides exactly
        red, _ = _linalg.echelon([[0, 2, 1, THETA]], 4)
        assert red == [[0, 1, Fraction(1, 2), THETA / 2]]
        assert not any(isinstance(x, float) for x in red[0])


QUARTIC_ENTRIES = [Quartic2(0), Quartic2(1), Quartic2(-2), THETA, SQRT2, 1 + THETA,
                   THETA * SQRT2 - Fraction(1, 3)]


class TestCut:
    """`cut` narrows a nullspace basis by one row; the field Gauss-Jordan
    nullspace of every independent row so far, each vector canonical, is
    the oracle: cut from the identity, the basis is that one exactly."""

    @staticmethod
    def walk(rows, ncols):
        basis, taken = _linalg.nullspace([], ncols), []
        for row in rows:
            cut = _linalg.cut(basis, row)
            assert (cut is None) == (_linalg.rank(taken + [row], ncols) == len(taken))
            if cut is None:
                continue
            taken.append(row)
            ns = reference_nullspace(taken, ncols)
            assert len(cut) == len(ns) == len(basis) - 1
            assert cut == [reference_canonical(v) for v in ns]
            assert all(not sum(a * x for a, x in zip(r, v)) for r in taken for v in cut)
            basis = cut
            yield cut

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda cols: st.lists(
        st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=1, max_size=6)))
    def test_int_rows_match_nullspace(self, rows):
        for basis in self.walk(rows, len(rows[0])):
            for v in basis:
                assert all(type(x) is int for x in v)
                assert math.gcd(*v) == 1
                assert next(x for x in v if x) > 0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda cols: st.lists(
        st.lists(st.sampled_from(QUARTIC_ENTRIES), min_size=cols, max_size=cols),
        min_size=1, max_size=5)))
    def test_quartic_rows_match_nullspace(self, rows):
        # a vector that is rational up to a factor comes out as primitive
        # ints with a positive lead, as on the rational backend
        for basis in self.walk(rows, len(rows[0])):
            for v in basis:
                lead = next(x for x in v if x)
                if all(not isinstance(x, Quartic2) or x.is_rational for x in v):
                    assert all(type(x) is int for x in v)
                    assert math.gcd(*v) == 1 and lead > 0
                else:
                    assert lead == 1

    def test_dependent_row_returns_none(self):
        basis = _linalg.cut(_linalg.nullspace([], 3), [1, 2, 3])
        assert _linalg.cut(basis, [-2, -4, -6]) is None
        assert _linalg.cut(basis, [0, 0, 0]) is None
        assert _linalg.cut(basis, [1, 0, 0]) == [[0, 3, -2]]


_SMALL_Q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_QUARTICS = st.one_of(st.sampled_from(QUARTIC_ENTRIES),
                      st.tuples(*[_SMALL_Q] * 4).map(lambda c: Quartic2(*c)))
_MIXED_ENTRIES = st.one_of(st.integers(-3, 3), _SMALL_Q, _QUARTICS)


@st.composite
def quartic_matrices(draw):
    """A matrix of int, Fraction and Quartic2 entries, at least one of them
    a Quartic2; two draws in three add a dependency, a row that is a
    Q(2^(1/4)) combination of the others or a repeated column."""
    ncols, nrows = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_MIXED_ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    deficiency = draw(st.sampled_from(["none", "row", "column"]))
    if deficiency == "row":
        weights = draw(st.lists(_MIXED_ENTRIES, min_size=nrows, max_size=nrows))
        combo = []
        for j in range(ncols):
            acc = Quartic2(0)
            for w, r in zip(weights, rows):
                acc = acc + w * r[j]
            combo.append(acc)
        rows.insert(draw(st.integers(0, nrows)), combo)
    elif deficiency == "column" and ncols > 1:
        j = draw(st.integers(1, ncols - 1))
        rows = [r[:j] + [r[0]] + r[j + 1:] for r in rows]
    if not any(isinstance(x, Quartic2) for r in rows for x in r):
        # a row times 2^(1/4) keeps the rank and puts the matrix over Q(t)
        rows[0] = [x * THETA for x in rows[0]]
    return rows


@st.composite
def rank_matrices(draw, entries):
    """A matrix of 1 to 6 columns and 1 to 7 rows drawn from `entries`: one
    draw in two with all-zero leading columns, one in two with a row inserted
    that is an int combination of the others."""
    ncols, nrows = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    zeros = min(draw(st.sampled_from([0, 0, 0, 1, 2, ncols])), ncols)
    rows = [[0] * zeros + r[zeros:] for r in rows]
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        rows.insert(draw(st.integers(0, len(rows))),
                    [sum((w * r[j] for w, r in zip(weights, rows)), 0) for j in range(ncols)])
    return rows


def _rank_events(rows, rank):
    ncols = len(rows[0])
    event("rank-deficient" if rank < min(len(rows), ncols) else "full rank")
    if len(rows) > ncols:
        event("more rows than columns")
    if all(not r[0] for r in rows):
        event("all-zero leading column")


class TestRank:
    """`rank`'s fraction-free pass below the pivot against sympy's exact rank
    over QQ, which shares no code with `_linalg`."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["int", "fraction", "mixed"]).flatmap(lambda kind: rank_matrices(
        {"int": st.integers(-3, 3), "fraction": small_fractions,
         "mixed": st.one_of(st.integers(-3, 3), small_fractions)}[kind])))
    def test_rational_rows_match_sympy(self, sympy, rows):
        ncols = len(rows[0])
        want = sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
                              for x in r] for r in rows]).rank()
        _rank_events(rows, want)
        assert _linalg.rank(rows, ncols) == want

    @pytest.mark.parametrize("rows,want", [
        ([[0, 1, 1], [-2, 0, 0], [0, 1, 0]], 3),
        ([[0, 1, 1], [-2, 0, 0], [0, 2, 2]], 2),
        ([[0, 0, 1], [1, 0, 0], [0, -2, 1]], 3)])
    def test_zero_lead_rows(self, sympy, rows, want):
        # a row with a zero lead is carried over as it is when the pivot
        # equals the previous one, else scaled by the pivot over it. In the
        # first two matrices the first pivot, -2, differs from the starting
        # 1; in the last the second pivot, -2, differs from the first, 1.
        # Carried over unscaled, the first matrix's rows would meet a
        # rounding division by -2 and read rank 2
        assert sympy.Matrix(rows).rank() == want
        assert _linalg.rank(rows, 3) == want

    @pytest.mark.parametrize("n", [2, 3])
    def test_flag_tuples_match_sympy(self, sympy, n):
        # the lifted rows of `verify_flag`'s tuples: the origin row (0, .., 0, 1)
        # has a zero lead; the row at infinity (1, 0, .., 0) is the first
        # pivot, equal to the starting 1, so the origin row is carried over,
        # then scaled by the second pivot. Each tuple is also checked with
        # its last row replaced by a combination of the others, rank-deficient
        config = ColoredConfig.sample(FlagInversive(n), 3, 0)
        classes = [config.points_of_color(i) for i in range(1, config.k + 1)]
        for tup in product(*classes):
            rows = _lifted(tup)[0]
            assert rows[:2] == [(0,) * (n + 1) + (1,), (1,) + (0,) * (n + 1)]
            dependent = rows[:-1] + [[3 * a - b + c for a, b, c in zip(*rows[:3])]]
            for m in (rows, dependent, rows[:3], dependent[1:]):
                assert _linalg.rank(m, n + 2) == sympy.Matrix(m).rank()
            assert not on_common_sphere(tup)


@st.composite
def spanning_sets(draw):
    """(rows, other): a matrix of int, Fraction or Q(2^(1/4)) entries and
    another spanning set of its row space. Row i of `other` is a nonzero
    rational multiple of row i plus rational multiples of the rows before
    it; up to two rational combinations of the rows follow, and the whole
    is shuffled."""
    kind = draw(st.sampled_from(["int", "fraction", "quartic"]))
    rows = draw(rank_matrices({"int": st.integers(-3, 3), "fraction": small_fractions,
                               "quartic": _MIXED_ENTRIES}[kind]))
    if kind == "quartic" and not any(isinstance(x, Quartic2) for r in rows for x in r):
        rows[0] = [x * THETA for x in rows[0]]
    ncols, weight = len(rows[0]), st.fractions(min_value=-2, max_value=2, max_denominator=3)

    def combo(weights):
        return [sum((w * r[j] for w, r in zip(weights, rows)), 0) for j in range(ncols)]

    other = []
    for i in range(len(rows)):
        weights = draw(st.lists(weight, min_size=i, max_size=i))
        other.append(combo(weights + [draw(weight.filter(bool))]))
    for _ in range(draw(st.integers(0, 2))):
        other.append(combo(draw(st.lists(weight, min_size=len(rows), max_size=len(rows)))))
    return rows, draw(st.permutations(other))


class TestNullspace:
    """`nullspace`, the identity cut by each row in turn, against sympy's
    nullspace over QQ, and as a function of the row space alone."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["int", "fraction", "mixed"]).flatmap(lambda kind: rank_matrices(
        {"int": st.integers(-3, 3), "fraction": small_fractions,
         "mixed": st.one_of(st.integers(-3, 3), small_fractions)}[kind])))
    def test_rational_rows_match_sympy(self, sympy, rows):
        # one vector per free column, in order, each sympy's made primitive
        # with a positive lead
        ncols = len(rows[0])
        ref = sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
                             for x in r] for r in rows]).nullspace()
        event("%d free columns" % len(ref))
        assert _linalg.nullspace(rows, ncols) == [
            _primitive([Fraction(int(v.p), int(v.q)) for v in w]) for w in ref]

    @settings(max_examples=150, deadline=None)
    @given(spanning_sets())
    def test_same_basis_for_every_spanning_set(self, drawn):
        rows, other = drawn
        ncols = len(rows[0])
        basis = _linalg.nullspace(rows, ncols)
        event("%d free columns" % len(basis))
        assert _linalg.nullspace(other, ncols) == basis


def _seeded_rows(rng, n, zt):
    """An (n+1) x (n+2) matrix over Z, or over Z[t] with int 4-tuple entries:
    small entries, about a third of them zero, some rows (1, 0, .., 0) of
    the point at infinity, and one draw in three a row that is a combination
    of the others."""
    zero, one = ((0, 0, 0, 0), (1, 0, 0, 0)) if zt else (0, 1)

    def entry():
        if rng.random() < 1 / 3:
            return zero
        return tuple(rng.randint(-3, 3) for _ in range(4)) if zt else rng.randint(-5, 5)

    rows = [[entry() for _ in range(n + 2)] for _ in range(n + 1)]
    for i in rng.sample(range(n + 1), rng.choice([0, 0, 1, 2])):
        rows[i] = [one] + [zero] * (n + 1)
    if rng.random() < 1 / 3:
        j = rng.randrange(n + 1)
        combo = [zero] * (n + 2)
        for r in rows[:j] + rows[j + 1:]:
            w = entry()
            combo = [tuple(map(sum, zip(c, zt_mul(w, x)))) if zt else c + w * x
                     for c, x in zip(combo, r)]
        rows[j] = combo
    return rows


def _from_field(x):
    """An element of sympy's QQ<2**(1/4)> as a Quartic2, from its
    coefficients in 2**(1/4), highest power first."""
    return Quartic2(*[Fraction(int(c.numerator), int(c.denominator))
                      for c in reversed(x.to_list())])


class TestZtKernelAgainstSympy:
    """The Z[t] elimination behind `rank`, `nullspace` and `echelon` on
    Q(2^(1/4)) matrices, and the Z[t] incidence behind `side`, against
    sympy's exact arithmetic in QQ<2**(1/4)>, which shares no code with
    `_linalg` or `exactnum`."""

    @pytest.fixture(scope="class")
    def field(self, sympy):
        from sympy.polys.matrices import DomainMatrix

        t = sympy.Integer(2) ** sympy.Rational(1, 4)
        K = sympy.QQ.algebraic_field(t)
        powers = [K.from_sympy(t) ** i for i in range(4)]

        def element(x):
            cs = x.coeffs if isinstance(x, Quartic2) else (x, 0, 0, 0)
            return sum((K.convert(sympy.QQ(Fraction(c).numerator, Fraction(c).denominator)) * g
                        for c, g in zip(cs, powers)), K.zero)

        def matrix(rows, ncols):
            return DomainMatrix([[element(x) for x in r] for r in rows], (len(rows), ncols), K)

        return sympy, K, element, matrix

    @staticmethod
    def exact_divisions(monkeypatch):
        """Check that every division of the Z[t] elimination leaves no
        remainder: (p a - f b) c is a multiple of the norm, and the quotient
        times the previous pivot gives p a - f b back. Returns the number of
        steps checked, as a one-item list."""
        real = _linalg._zt_step
        count = [0]

        def checked(p, a, f, b, prev):
            q, c, norm = prev
            x = tuple(u - v for u, v in zip(zt_mul(p, a), zt_mul(f, b)))
            y = x if c is None else zt_mul(x, c)
            assert all(v % norm == 0 for v in y)
            out = real(p, a, f, b, prev)
            assert zt_mul(out, q) == x
            count[0] += 1
            return out

        monkeypatch.setattr(_linalg, "_zt_step", checked)
        return count

    @settings(max_examples=120, deadline=None)
    @given(quartic_matrices())
    def test_rank_nullspace_echelon(self, field, rows):
        with pytest.MonkeyPatch.context() as mp:
            self.check_kernel(field, rows, self.exact_divisions(mp))

    @staticmethod
    def check_kernel(field, rows, steps):
        sympy, K, element, matrix = field
        ncols = len(rows[0])
        ref = matrix(rows, ncols)
        rank = ref.rank()
        event("rank-deficient" if rank < min(len(rows), ncols) else "full rank")
        assert _linalg.rank(rows, ncols) == rank
        # the nullspace: sympy's basis, vector by vector, each up to a factor
        basis = _linalg.nullspace(rows, ncols)
        assert [_linalg.canonical(v) for v in basis] == [
            _linalg.canonical([_from_field(x) for x in w])
            for w in ref.nullspace().to_list()]
        # echelon: sympy's rref rows, each up to its lead
        red, pivots = _linalg.echelon(rows, ncols)
        ref_red, ref_pivots = ref.rref()
        assert pivots == list(ref_pivots)
        for mine, theirs in zip(red, ref_red.to_list()):
            lead = element(next(x for x in mine if x))
            assert [K.quo(element(x), lead) for x in mine] == theirs
        assert steps[0] > 0 or rank <= 1

    @settings(max_examples=120, deadline=None)
    @given(rank_matrices(_MIXED_ENTRIES))
    def test_rank_below_the_pivot(self, field, rows):
        # the rank's pass below the pivot on Quartic2, int and Fraction
        # entries, and on the same rows as Z[t] int 4-tuples, every division
        # of it checked exact
        sympy, K, element, matrix = field
        if not any(isinstance(x, Quartic2) for r in rows for x in r):
            rows[0] = [x * THETA for x in rows[0]]
        ncols = len(rows[0])
        want = matrix(rows, ncols).rank()
        _rank_events(rows, want)
        with pytest.MonkeyPatch.context() as mp:
            steps = self.exact_divisions(mp)
            assert _linalg.rank(rows, ncols) == want
            assert _linalg.rank([_linalg.zt_row(r) for r in rows], ncols) == want
        assert steps[0] > 0 or want <= 1

    @settings(max_examples=100, deadline=None)
    @given(quartic_matrices())
    def test_cut_on_mixed_rows(self, field, rows):
        # both cuts, `cut` on the exact rows and `zt_cut` on their Z[t] form,
        # row by row from the unit basis: None exactly when sympy finds the
        # row dependent on those taken, else ncols - rank independent vectors,
        # each annihilating every row taken so far
        sympy, K, element, matrix = field
        ncols = len(rows[0])
        unit = _linalg.nullspace([], ncols)
        basis = unit
        zt_basis = [_linalg.zt_row(v) for v in unit]
        taken = []
        for row in rows:
            rank = matrix(taken + [row], ncols).rank()
            cut = _linalg.cut(basis, row)
            zt_cut = _linalg.zt_cut(zt_basis, _linalg.zt_twisted(_linalg.zt_row(row)))
            assert (cut is None) == (zt_cut is None) == (rank == len(taken))
            if cut is None:
                continue
            taken.append(row)
            event("dependent rows" if len(taken) < len(rows) else "independent rows")
            zt_vectors = [[zt_element(x) for x in v] for v in zt_cut]
            for vectors in (cut, zt_vectors):
                assert len(vectors) == ncols - rank
                if vectors:
                    assert matrix(vectors, ncols).rank() == len(vectors)
                for v in vectors:
                    ev = [element(x) for x in v]
                    for r in taken:
                        assert sum((element(x) * y for x, y in zip(r, ev)), K.zero) == K.zero
            # each Z[t] vector has coprime ints and a positive int lead
            for v in zt_cut:
                lead = next(x for x in v if x != (0, 0, 0, 0))
                assert math.gcd(*[c for x in v for c in x]) == 1
                assert lead[0] > 0 and lead[1:] == (0, 0, 0)
            basis, zt_basis = cut, zt_cut

    def test_null_vector_matches_nullspace(self, field):
        # the signed maximal minors of seeded (n+1) x (n+2) matrices over Z
        # and Z[t]: a nonzero multiple of sympy's one nullspace vector when
        # the rank is n+1, else None
        sympy, K, element, matrix = field
        seen = set()
        for seed in range(240):
            rng = random.Random(seed)
            n, zt = 1 + seed % 3, seed // 3 % 2 == 1
            rows = _seeded_rows(rng, n, zt)
            exact = [[zt_element(x) if zt else x for x in r] for r in rows]
            ref = matrix(exact, n + 2)
            vec = _linalg.null_vector(rows, n + 2)
            full = ref.rank() == n + 1
            seen.add((n, zt, full, [1] + [0] * (n + 1) in exact))
            if not full:
                assert vec is None
                continue
            assert all(type(x) is (tuple if zt else int) for x in vec)
            v = [element(zt_element(x) if zt else x) for x in vec]
            (w,) = ref.nullspace().to_list()
            i = next(i for i, x in enumerate(w) if x != K.zero)
            assert v[i] != K.zero
            assert all(v[j] * w[i] == v[i] * w[j] for j in range(n + 2))
        # every size over both rings, of full and short rank, with and
        # without a row of the point at infinity
        assert len(seen) == 24

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_QUARTICS, st.one_of(_QUARTICS, _SMALL_Q)), min_size=6, max_size=6,
                    unique=True))
    def test_side_matches_sign(self, field, coords):
        sympy, K, element, _ = field
        pts = [P(c) for c in coords]
        try:
            s = sphere_through(pts[:3])
        except (DegenerateSphereError, DegenerateConfigError):
            assume(False)
        event("flat" if s.is_flat else "round")
        for p in pts + [P([Fraction(1, 2), 3]), INF2]:
            if p.is_infinity:
                value = element(s.c)
            else:
                x = [element(v) for v in p.coords]
                b = [element(v) for v in s.b]
                value = (element(s.c) * sum((v * v for v in x), K.zero)
                         + sum((u * v for u, v in zip(b, x)), K.zero) + element(s.a))
            # a nonzero value of this size is far from zero at 50 digits
            sg = 0 if value == K.zero else (1 if K.to_sympy(value).evalf(50) > 0 else -1)
            if sg == 0:
                expected = SideLabel.ON
            elif s.is_flat:
                expected = SideLabel.POSITIVE if sg > 0 else SideLabel.NEGATIVE
            else:
                expected = SideLabel.INSIDE if sg < 0 else SideLabel.OUTSIDE
            assert side(p, s) is expected
            assert s.contains(p) == (sg == 0)


class TestCrossRatio:
    def test_harmonic_quadruple(self):
        cr = cross_ratio(P([1, 0]), P([-1, 0]), P([0, 1]), P([0, -1]))
        assert cr == (Fraction(-1), Fraction(0))

    def test_infinity_cancellation(self):
        cr = cross_ratio(P([0, 0]), P([1, 0]), P([0, 1]), INF2)
        # (z1 - z3)/(z2 - z3) = (-i)/(1 - i) = (1 - i)/2
        assert cr == (Fraction(1, 2), Fraction(-1, 2))

    @pytest.mark.parametrize("at, expected", [
        # (z2 - z4) / (z2 - z3) = (3 + 3i/2) / (-2 + 3i)
        (0, (Fraction(-3, 26), Fraction(-12, 13))),
        (1, (Fraction(-2, 15), Fraction(16, 15))),
        (2, (Fraction(17, 15), Fraction(-16, 15))),
        (3, (Fraction(51, 109), Fraction(48, 109))),
    ])
    def test_infinity_in_each_position(self, at, expected):
        pts = [P([1, 2]), P([3, -1]), P([-2, Fraction(1, 2)])]
        pts.insert(at, INF2)
        assert cross_ratio(*pts) == expected

    def test_real_iff_concyclic_with_infinity(self):
        cr = cross_ratio(P([0, 0]), P([1, 0]), P([5, 0]), INF2)
        assert cr[1] == 0

    def test_duplicate_rejected(self):
        with pytest.raises(DegenerateConfigError):
            cross_ratio(P([0, 0]), P([0, 0]), P([1, 0]), P([2, 0]))

    def test_planar_only(self):
        with pytest.raises(GeometryError):
            cross_ratio(P([0, 0, 0]), P([1, 0, 0]), P([0, 1, 0]), P([0, 0, 1]))


class TestPowerCondition:
    def test_examples(self):
        assert power_condition(2, 3, 1, 6)
        assert not power_condition(2, 3, 1, 5)
        assert power_condition(THETA, THETA ** 3, 1, 2)
        assert power_condition(-2, 3, 2, -3)

    def test_agrees_with_concyclic_on_axes(self):
        rng = random.Random(23)
        for _ in range(60):
            x, xp = rand_rat(rng), rand_rat(rng)
            y, yp = rand_rat(rng), rand_rat(rng)
            if 0 in (x, xp, y, yp) or x == xp or y == yp:
                continue
            pts = [P([x, 0]), P([xp, 0]), P([0, y]), P([0, yp])]
            assert power_condition(x, xp, y, yp) == concyclic(*pts)


class TestSmallestSphere:
    def test_two_points_make_a_zero_sphere(self):
        ss = smallest_sphere([P([1, 0]), P([-1, 0])])
        assert ss.dim == 0
        assert ss.carrier.dim == 1
        assert ss.surface == UNIT_CIRCLE
        assert ss.contains(P([1, 0])) and ss.contains(P([-1, 0]))
        assert not ss.contains(P([0, 1]))
        assert not ss.contains(INF2)

    def test_collinear_points_make_extended_line(self):
        ss = smallest_sphere([P([0, 0]), P([1, 0]), P([2, 0])])
        assert ss.dim == 1
        assert ss.carrier.dim == 2
        assert ss.surface.is_flat
        assert ss.contains(INF2)
        assert ss.contains(P([7, 0]))
        assert not ss.contains(P([0, 1]))

    def test_circle_inside_three_space(self):
        pts = [P([1, 0, 0]), P([0, 1, 0]), P([-1, 0, 0]), P([0, -1, 0])]
        ss = smallest_sphere(pts)
        assert ss.dim == 1
        assert ss.surface.center() == P([0, 0, 0])
        assert ss.surface.radius_sq() == 1
        assert all(ss.contains(p) for p in pts)
        assert not ss.contains(P([0, 0, 1]))

    def test_point_plus_infinity(self):
        ss = smallest_sphere([P([3, 4]), INF2])
        assert ss.dim == 0
        assert ss.contains(P([3, 4])) and ss.contains(INF2)
        assert not ss.contains(P([3, 5]))

    def test_infinity_forces_extended_hull(self):
        ss = smallest_sphere([P([0, 0, 0]), P([1, 0, 0]), P([0, 1, 0]), Point.infinity(3)])
        assert ss.dim == 2
        assert ss.surface.is_flat
        assert ss.contains(P([5, 5, 0]))
        assert not ss.contains(P([0, 0, 1]))

    def test_surface_must_live_in_the_carriers_space(self):
        plane = Flat.through([P([0, 0, 0]), P([1, 0, 0]), P([0, 1, 0])])
        with pytest.raises(GeometryError, match="surface in dimension 2 cannot cut a "
                                                "carrier in dimension 3"):
            SubSphere(plane, UNIT_CIRCLE)
        with pytest.raises(GeometryError, match="surface in dimension 3 cannot cut"):
            SubSphere(Flat.through([P([0, 0]), P([1, 0])]), Hypersphere.make(1, (0, 0, 0), -1))

    def test_carrier_must_fit_the_surface(self):
        # surface None is the whole space, so its carrier must be all of it
        with pytest.raises(GeometryError, match="surface None needs the whole space as "
                                                "carrier, not a 1-flat in dimension 2"):
            SubSphere(Flat((0, 0), ((1, 0),)), None)
        # a surface cuts a carrier of dimension 0 in no sphere, exact or float
        with pytest.raises(GeometryError, match="a surface cannot cut a carrier of dimension 0"):
            SubSphere(Flat((Fraction(1), Fraction(0)), ()), UNIT_CIRCLE)
        with pytest.raises(GeometryError, match="a surface cannot cut a carrier of dimension 0"):
            SubSphere(Flat((0.5, 1.0), ()), Hypersphere.make(1.0, (0.0, 0.0), -1.25))
        whole = SubSphere(Flat((0, 0), ((1, 0), (0, 1))), None)
        assert whole.dim == 2 and whole.contains(P([0, 5]))

    def test_points_of_another_dimension_are_refused(self):
        whole = smallest_sphere([P([0, 0]), P([1, 0]), P([0, 1]), P([2, 2])])
        assert whole.surface is None and whole.contains(P([5, 7])) and whole.contains(INF2)
        for ss in (whole, smallest_sphere([P([1, 0]), P([0, 1]), P([-1, 0])])):
            for p in (P([1, 0, 0]), P([1]), Point.infinity(3)):
                with pytest.raises(GeometryError, match="point dimension mismatch"):
                    ss.contains(p)

    def test_whole_space_degenerate_answer(self):
        pts = [P([0, 0]), P([1, 0]), P([0, 1]), P([2, 2])]
        ss = smallest_sphere(pts)
        assert ss.surface is None
        assert ss.dim == 2

    def test_noncollinear_triple_is_its_circumcircle(self):
        ss = smallest_sphere([P([0, 0]), P([1, 0]), P([0, 1])])
        assert ss.dim == 1
        assert ss.surface == sphere_through([P([0, 0]), P([1, 0]), P([0, 1])])

    def test_keys_identify_equal_spheres(self):
        a = smallest_sphere([P([1, 0, 0]), P([0, 1, 0]), P([-1, 0, 0]), P([0, -1, 0])])
        b = smallest_sphere([P([0, 1, 0]), P([-1, 0, 0]), P([0, -1, 0]), P([1, 0, 0])])
        assert a.key() == b.key()

    @settings(max_examples=200, deadline=None)
    @given(point_families(lambda n: n + 2))
    def test_matches_hull_coordinate_solve(self, family):
        n, pts = family
        for sub in [pts[:k] for k in range(2, n + 3)] + [pts[-3:], pts[1:]]:
            if len(sub) < 2:
                continue
            got, expected = smallest_sphere(sub), reference_smallest_sphere(sub)
            assert got == expected
            if got.surface is not None:
                s = got.surface
                assert all(type(x) is Fraction for x in (s.c, *s.b, s.a))

    @pytest.mark.parametrize("pts", [
        [P([THETA, 0]), P([0, THETA]), P([-THETA, 0])],
        [P([THETA, 0, 1]), P([0, THETA, 1]), P([-THETA, 0, 1]), P([0, -THETA, 1])],
        [P([THETA, 0, 1]), P([0, SQRT2, 1])],
        [P([THETA, 0, 0]), P([0, 1, 0]), Point.infinity(3)],
        [P([THETA, 0]), P([1, 1]), P([0, SQRT2]), P([3, 0])],
    ])
    def test_quartic_matches_hull_coordinate_solve(self, pts):
        assert smallest_sphere(pts) == reference_smallest_sphere(pts)

    def test_float_keys_refused(self):
        s = smallest_sphere([P([1.0, 0.0]), P([0.0, 1.0]), P([-1.0, 0.0])])
        for sphere in (s, s.surface, s.carrier):
            with pytest.raises(BackendMismatch, match="exact coordinates"):
                sphere.key()
        with pytest.raises(BackendMismatch, match="exact coordinates"):
            span_key([P([1.0, 0.0]), P([0.0, 1.0]), P([-1.0, 0.0])])

    @pytest.mark.parametrize("pts", [
        [P([0.5, 1.0]), P([2.0, -1.0]), INF2],
        [P([0.0, 0.0]), P([1.0, 1.0]), P([2.0, 2.0])],
    ])
    def test_float_extended_flat(self, pts):
        ss = smallest_sphere(pts)
        assert ss.dim == 1 and ss.surface.is_flat
        for x in (ss.surface.c, *ss.surface.b, ss.surface.a, *ss.carrier.basis[-1]):
            assert type(x) is float
        assert all(ss.contains(p) for p in pts) and ss.contains(INF2)
        assert not ss.contains(P([7.0, -3.0]))

    def test_exact_extended_flat_keeps_rational_direction(self):
        ss = smallest_sphere([P([THETA, 0]), INF2])
        assert all(type(x) is Fraction for x in ss.carrier.basis[-1])


def coords_of(flat, p):
    """The coordinates of a point of the flat in its orthogonal basis, by
    Gram-Schmidt; a point off the flat raises."""
    if p.is_infinity:
        raise GeometryError("infinity has no flat coordinates")
    v = vec_sub(p.coords, flat.basepoint)
    ts = []
    for d in flat.basis:
        t = vec_dot(v, d) / vec_dot(d, d)
        ts.append(t)
        v = vec_sub(v, vec_scale(t, d))
    if not all(is_zero(x) for x in v):
        raise GeometryError("point is not on the flat")
    return ts


def point_at(flat, ts):
    x = flat.basepoint
    for t, d in zip(ts, flat.basis):
        x = vec_add(x, vec_scale(t, d))
    return P(x)


def flat_contains(flat, p):
    """Whether the extended flat holds p: infinity, or a point with flat
    coordinates (a zero Gram-Schmidt residual)."""
    try:
        return p.is_infinity or coords_of(flat, p) is not None
    except GeometryError:
        return False


def reference_smallest_sphere(points):
    """The construction smallest_sphere used before it solved the lifted
    rows: the circumsphere from hull coordinates t with Gram weights
    g_i = <d_i, d_i> (rows (sum g_i t_i^2, t, 1)), centre mapped back
    through the hull flat."""
    points, k = _uniform(points)
    _check_distinct(points, "reference")
    n = points[0].dim
    finite = [p for p in points if not p.is_infinity]
    hull = Flat.through(finite)
    if len(finite) < len(points) or hull.dim == 0:
        if hull.dim == n:
            return SubSphere(hull, None)
        return _extended_flat_subsphere(hull, n)
    g = [vec_dot(d, d) for d in hull.basis]
    one = Quartic2(1) if k == "quartic" else Fraction(1)
    rows = []
    for ts in (coords_of(hull, p) for p in finite):
        rows.append([vec_dot([gi * t for gi, t in zip(g, ts)], ts), *ts, one])
    ns = _linalg.nullspace(rows, hull.dim + 2)
    if not ns:
        if hull.dim == n:
            return SubSphere(hull, None)
        return _extended_flat_subsphere(hull, n)
    assert len(ns) == 1
    c, *w, a = [one * x for x in ns[0]]
    s = [-wi / (2 * gi * c) for wi, gi in zip(w, g)]
    m = point_at(hull, s).coords
    r_sq = vec_dot([gi * si for gi, si in zip(g, s)], s) - a / c
    return SubSphere(hull, Hypersphere.make(one, vec_scale(-2, m), vec_dot(m, m) - r_sq))


class TestSpanKey:
    @settings(max_examples=200, deadline=None)
    @given(point_families(lambda n: n + 2))
    def test_key_of_the_spanned_sphere(self, family):
        n, pts = family
        for sub in [pts[:k] for k in range(2, n + 3)] + [pts[-3:], pts[1:]]:
            if len(sub) < 2:
                continue
            key, s = span_key(sub), smallest_sphere(sub)
            assert (key is None) == (s.dim < len(sub) - 2)
            event("dependent" if key is None else "spanning")
            if key is not None:
                assert key == s.key()
                if len(sub) == n + 1:
                    assert key == sphere_through(sub).key()

    def test_quartic_point_and_infinity(self):
        # the carrier's hyperplane rows carry int normals beside Q(t) offsets
        pts = [P([THETA, 0]), INF2]
        key = smallest_sphere(pts).key()
        assert key == span_key(pts)
        assert not any(isinstance(x, float) for row in key for x in row)

    def test_equal_spheres_equal_keys_across_presentations(self):
        # the x-axis as an extended hyperplane, a flat, a SubSphere and spans
        line = [P([0, 0]), P([1, 0]), INF2]
        key = X_AXIS.key()
        assert key == ((0, 0, 1, 0),)
        assert span_key(line) == span_key([P([3, 0]), INF2, P([-1, 0])]) == key
        assert span_key(line[:2] + [P([5, 0])]) == key
        assert span_key(line + [P([5, 0])]) is None
        assert Flat.through(line[:2]).key() == smallest_sphere(line).key() == key
        assert smallest_sphere(line[:2] + [P([1, 1]), P([2, 2])]).key() == ()

    @pytest.mark.parametrize("pts", [
        [P([1, 0, 0]), P([0, 1, 0]), P([0, 0, 1])],
        [P([2, 0, 1]), P([0, Fraction(1, 2), 3]), P([1, -1, Fraction(2, 3)])],
        [P([THETA, 0, 1]), P([1, SQRT2, 0]), Point.infinity(3)],
    ], ids=["unit-circle", "rational-circle", "quartic-line"])
    def test_multi_vector_keys_agree(self, pts):
        # a circle of R^3 and a Q(2^(1/4)) line through infinity, spheres of
        # codimension 2: one key from the walk, the span, the smallest
        # sphere, the line's flat and a SubSphere decoded from JSON
        key = span_key(pts)
        assert len(key) == 2
        ss = smallest_sphere(pts)
        decoded = jsonio.decode_sphere(json.loads(json.dumps(jsonio.encode_sphere(ss))))
        keys = [key, *(k for _, k in span_walk(pts, 3)), ss.key(), decoded.key()]
        if pts[-1].is_infinity:
            keys.append(Flat.through(pts[:-1]).key())
        assert len(keys) == 4 + pts[-1].is_infinity
        assert len(set(map(repr, keys))) == 1


class TestFlat:
    def test_coords_roundtrip(self):
        f = Flat.through([P([1, 1, 0]), P([2, 1, 0]), P([1, 3, 0])])
        assert f.dim == 2
        p = P([Fraction(5, 2), 2, 0])
        assert flat_contains(f, p)
        assert point_at(f, coords_of(f, p)) == p
        assert not flat_contains(f, P([1, 1, 1]))
        assert flat_contains(f, Point.infinity(3))
        # the rows of its extended hyperplanes vanish on exactly its points
        for q in (p, P([1, 1, 1]), Point.infinity(3)):
            assert all(vec_dot(r, lift_row(q)) == 0 for r in f._rows) == flat_contains(f, q)

    def test_key_is_presentation_invariant(self):
        f1 = Flat.through([P([0, 0, 1]), P([1, 0, 1]), P([0, 1, 1])])
        f2 = Flat.through([P([2, 3, 1]), P([-1, 0, 1]), P([5, 5, 1])])
        assert f1.key() == f2.key()


def old_subsphere_contains(ss, p):
    """The incidence rule SubSphere had before it read cached rows: its
    surface's test, then a zero Gram-Schmidt residual on its carrier."""
    return ss.surface is None or (ss.surface.contains(p) and flat_contains(ss.carrier, p))


def _probes(ss, pts):
    """The points, infinity, and points on and near the sphere: from its
    first finite point, the second intersection of a round surface with the
    line along each carrier direction (on the sphere) and each axis (on the
    surface, mostly off the carrier), a step along each for a flat surface,
    and each of these moved by one along the last axis."""
    n = pts[0].dim
    probes = list(pts) + [Point.infinity(n)]
    if ss.surface is None:
        return probes
    base = next(p for p in pts if not p.is_infinity)
    axes = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for d in list(ss.carrier.basis) + axes:
        if ss.surface.is_flat:
            q = P(vec_add(base.coords, d))
        else:
            try:
                q = second_intersection(ss.surface, base, d)
            except GeometryError:  # tangent
                continue
        probes += [q, P(vec_add(q.coords, axes[-1]))]
    return probes


class TestSubSphereIncidence:
    """`SubSphere.contains` reads the rows of its surface and of the extended
    hyperplanes through its carrier; the oracle is the rule it replaced."""

    @staticmethod
    def check(pts):
        ss = smallest_sphere(pts)
        probes = _probes(ss, pts)
        verdicts = [ss.contains(q) for q in probes]
        assert verdicts == [old_subsphere_contains(ss, q) for q in probes]
        assert all(verdicts[:len(pts)])
        event("%d-sphere in R^%d, %s" % (ss.dim, ss.ambient, sorted(set(verdicts))))

    @settings(max_examples=150, deadline=None)
    @given(point_families(lambda n: n + 2), st.integers(2, 6), st.booleans())
    def test_rational_and_quartic(self, family, k, scaled):
        n, pts = family
        pts = pts[:min(k, n + 2)]
        self.check([_scaled_by_theta(p) for p in pts] if scaled else pts)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100), st.lists(st.integers(0, 9), min_size=2, max_size=4, unique=True))
    def test_two_line_points(self, seed, subset):
        # Q(2^(1/4)) points of the two lines, the origin and infinity
        pts = ColoredConfig.sample(TwoLine(extended=True), 2, seed).points()
        self.check([pts[i] for i in subset])

    @pytest.mark.parametrize("pts", [
        [P([0.5, 1.0]), P([2.0, -1.0]), INF2],
        [P([0.0, 0.0]), P([1.0, 1.0]), P([2.0, 2.0])],
        [P([0.5, 1.0, 0.0]), P([2.0, -1.0, 0.0]), Point.infinity(3)],
    ])
    def test_float_extended_flats(self, pts):
        ss = smallest_sphere(pts)
        a, b = pts[0].coords, pts[1].coords
        on = [P(vec_add(a, vec_scale(t, vec_sub(b, a)))) for t in (-2.0, 0.5, 3.0)]
        step = (0.0,) * (len(a) - 1) + (0.25,)
        off = [P(vec_add(q.coords, step)) for q in on] + [P([7.0, -3.0] + [0.0] * (len(a) - 2))]
        probes = pts + on + off + [Point.infinity(len(a))]
        assert [ss.contains(q) for q in probes] == [old_subsphere_contains(ss, q) for q in probes]
        assert [ss.contains(q) for q in on + off] == [True] * len(on) + [False] * len(off)

    def test_rows_are_computed_once(self, monkeypatch):
        pts = [P([1, 0, 0]), P([0, 1, 0]), P([0, 0, 1])]
        ss = smallest_sphere(pts)
        key = span_key(pts)
        assert ss.contains(pts[0]) and ss.key() == key
        calls = []
        for name in ("nullspace", "echelon", "rank"):
            monkeypatch.setattr(_linalg, name, lambda *a, name=name: calls.append(name))
        assert ss.contains(pts[1]) and not ss.contains(P([1, 1, 0]))
        assert ss.key() == key and calls == []


def _rational_point(n):
    """A rational point of R^n_inf: `Point.finite` over Fractions, a direct
    `Point` over ints, or infinity."""
    return st.one_of(
        st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6),
                 min_size=n, max_size=n).map(P),
        st.lists(st.integers(-6, 6), min_size=n, max_size=n).map(lambda xs: Point(tuple(xs), n)),
        st.just(Point.infinity(n)))


def _formula_row(p):
    """(sum X_i^2, X_i * D, D^2), X = x * D for the least common denominator
    D of x; (1, 0, .., 0) for infinity."""
    if p.is_infinity:
        return (1,) + (0,) * (p.dim + 1)
    xs = [Fraction(x) for x in p.coords]
    d = math.lcm(*(x.denominator for x in xs))
    big = [int(x * d) for x in xs]
    return (sum(v * v for v in big), *(v * d for v in big), d * d)


def _to_quartic(p):
    if p.is_infinity:
        return p
    return P([Quartic2.from_rational(x) for x in p.coords])


def _outcome(f, *args):
    """f's answer, or its exception class and message."""
    try:
        return f(*args)
    except GeometryError as e:
        return type(e), str(e)


class TestLiftedRows:
    """A rational point's lifted row is computed once and cached on it; the
    predicates read the cached rows of an all-rational family and promote any
    other family first."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(_rational_point(n), _rational_point(n))))
    def test_cached_row_is_the_formula_and_names_the_point(self, pair):
        p, q = pair
        for x in pair:
            assert x.backend() == "rational"
            assert lift_row(x) == list(_formula_row(x))
        # the row is the integer multiple D^2 (<x,x>, x, 1) of the plain lift
        if not p.is_infinity:
            row = lift_row(p)
            assert [Fraction(v, row[-1]) for v in row] == [vec_dot(p.coords, p.coords), *p.coords, 1]
        assert (lift_row(p) == lift_row(q)) == (p == q)
        assert lift_row(p) == lift_row(Point.finite(p.coords) if p.coords else p)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(_rational_point))
    def test_lifting_leaves_the_value_alone(self, p):
        fresh = Point(p.coords, p.dim)
        before = (repr(p), hash(p))
        row = lift_row(p)
        row[0] = "not cached"
        assert lift_row(p) == list(_formula_row(p))
        assert (repr(p), hash(p)) == before == (repr(fresh), hash(fresh))
        assert p == fresh and fresh == p
        # the cached row sits in the instance beside the fields, never among them
        assert Point._fields == ("coords", "dim") and "_row" in vars(p)
        assert p._values == (p.coords, p.dim) == fresh._values

    @settings(max_examples=150, deadline=None)
    @given(point_families(lambda n: n + 2), st.integers(0, 3))
    def test_predicates_agree_with_the_promoted_path(self, family, mixed):
        n, pts = family
        slow = [_to_quartic(p) for p in pts]
        # a rational family with one quartic point is promoted, not read from rows
        half = pts[:mixed] + slow[mixed:mixed + 1] + pts[mixed + 1:]
        for other in (slow, half):
            assert on_common_sphere(pts) == on_common_sphere(other)
            assert on_common_sphere(pts[:3]) == on_common_sphere(other[:3])
            assert _outcome(sphere_through, pts[:n + 1]) == _outcome(sphere_through, other[:n + 1])
            assert _outcome(sphere_through, pts[1:]) == _outcome(sphere_through, other[1:])
            if n + 2 >= 4:
                assert concyclic(*pts[:4]) == concyclic(*other[:4])

    def test_duplicates_found_on_either_path(self):
        a, b = P([Fraction(1, 2), 3]), P([0, Fraction(-2, 3)])
        for p, q in ((a, b), (_to_quartic(a), _to_quartic(b)), (a, _to_quartic(b))):
            again = Point(p.coords, 2)
            with pytest.raises(DegenerateConfigError, match="duplicate point in on_common_sphere"):
                on_common_sphere([p, q, again])
            with pytest.raises(DegenerateConfigError, match="duplicate point in concyclic"):
                concyclic(p, q, INF2, again)
            with pytest.raises(DegenerateConfigError, match="duplicate point in sphere_through"):
                sphere_through([p, again, q])
        with pytest.raises(DegenerateConfigError, match="duplicate point in span_key"):
            span_key([a, b, Point(a.coords, 2)])
        # Point((1, 2), 2) and P([1, 2]) are one point
        with pytest.raises(DegenerateConfigError, match="duplicate point in smallest_sphere"):
            smallest_sphere([Point((1, 2), 2), b, P([1, 2])])

    def test_duplicates_refused_on_every_backend(self):
        # the rows are hashed: an equal point, also -0.0 beside 0.0 or a
        # second infinity, is refused before any elimination
        rat = [P([Fraction(1, 2), 3]), P([0, Fraction(-2, 3)]), P([2, 5]), P([-1, 4])]
        quartic = [P([THETA, 1]), P([SQRT2, Fraction(1, 2)]), P([1 + THETA, -1]), P([0, THETA])]
        floats = [P([0.0, 1.0]), P([2.5, -1.0]), P([1.0, 3.0]), P([-2.0, 0.5])]
        cases = [(rat, Point(rat[0].coords, 2)), (quartic, Point(quartic[0].coords, 2)),
                 (floats, P([-0.0, 1.0])), ([INF2] + rat[1:], Point.infinity(2)),
                 ([INF2] + quartic[1:], Point.infinity(2))]
        for (a, b, c, d), again in cases:
            calls = [("on_common_sphere", lambda: on_common_sphere([a, b, again])),
                     ("concyclic", lambda: concyclic(a, b, c, again)),
                     ("sphere_through", lambda: sphere_through([a, again, b])),
                     ("separation_signs", lambda: separation_signs([a, b, c, d, again])),
                     ("smallest_sphere", lambda: smallest_sphere([b, a, again]))]
            if again.backend() != "float":  # float families have no key
                calls.append(("span_key", lambda: span_key([a, b, again])))
            for where, call in calls:
                with pytest.raises(DegenerateConfigError, match="duplicate point in %s$" % where):
                    call()

    def test_error_precedence(self):
        a, b = P([1, 2]), P([3, -1])
        with pytest.raises(DegenerateConfigError, match="duplicate point in on_common_sphere"):
            on_common_sphere([INF2, INF2, a, b])
        # the count is checked before distinctness, as for any other count
        with pytest.raises(GeometryError, match=r"need exactly n\+1 points") as err:
            sphere_through([a, a])
        assert type(err.value) is GeometryError
        with pytest.raises(GeometryError, match="need at least two points"):
            smallest_sphere([a])
        # distinctness is checked before the count
        with pytest.raises(DegenerateConfigError, match="duplicate point in on_common_sphere"):
            on_common_sphere([a, a])
        with pytest.raises(GeometryError, match="different ambient dimensions"):
            on_common_sphere([a, a, P([1, 2, 3])])
        with pytest.raises(BackendMismatch, match="cannot mix float"):
            concyclic(a, a, b, P([0.5, 1.0]))
        # float families are refused before their points are compared
        f = P([0.5, 1.0])
        with pytest.raises(BackendMismatch, match="sphere keys need exact coordinates"):
            span_key([f, f])

    def test_each_point_decides_its_kind_once(self, monkeypatch):
        unit, calls = Hypersphere.make(1.0, (0.0, 0.0), -1.0), []
        common_kind = geom.common_kind
        monkeypatch.setattr(geom, "common_kind", lambda xs: calls.append(xs) or common_kind(xs))
        pts = [P([Fraction(1, 2), 3]), P([THETA, 1]), P([0.5, 1.0]), P([2, -1])]
        assert len(calls) == 4
        for q in pts:
            lift_row(q)
        assert [q.backend() for q in pts] == ["rational", "quartic", "float", "rational"]
        _lifted(pts[:2])
        _lifted([pts[0], pts[3], INF2])
        _lifted([pts[2], INF2])
        assert [unit.contains(q) for q in (pts[0], pts[2], pts[3])] == [False] * 3
        assert len(calls) == 4
        # a point built with the bare constructor decides its kind on first use
        bare = Point((Fraction(1), Fraction(2)), 2)
        assert lift_row(bare) == lift_row(P([1, 2])) and len(calls) == 6

    def test_empty_family_is_a_geometry_error(self):
        for f in (sphere_through, span_key, on_common_sphere):
            with pytest.raises(GeometryError):
                f([])
        with pytest.raises(GeometryError, match="need at least two points"):
            smallest_sphere([])


def _promoted_rows(points):
    """Reference rows of a mixed family, promoted point by point with
    `_uniform`: the integer formula row on the rationals, else (<x,x>, x, 1)
    of each promoted point and (1, 0, .., 0) at infinity, on the family's
    backend."""
    promoted, k = _uniform(points)
    if k == "rational":
        return [list(_formula_row(q)) for q in promoted]
    one, zero = promote(1, k), promote(0, k)
    return [[one] + [zero] * (q.dim + 1) if q.is_infinity
            else [sum((x * x for x in q.coords), zero), *q.coords, one] for q in promoted]


def _zt_rows(points):
    """Reference Z[t] rows of a family with a Q(2^(1/4)) point: each promoted
    row times D**2, D the least common denominator of the point's coordinate
    coefficients (1 at infinity), as int 4-tuples."""
    rows = []
    for p, r in zip(points, _promoted_rows(points)):
        d = math.lcm(*[c.denominator for x in p.coords or () for c in promote(x, "quartic").coeffs])
        zs = [promote(x * d * d, "quartic").coeffs for x in r]
        assert all(c.denominator == 1 for z in zs for c in z)
        rows.append([tuple(int(c) for c in z) for z in zs])
    return rows


def _typed(rows):
    return [[(type(x), x) for x in r] for r in rows]


class TestMixedFamilyRows:
    """A family mixing backends (rational beside Q(2^(1/4)), or infinity
    beside either quartic or float points) reads a row each point caches for
    the family's backend, its Z[t] row on Q(2^(1/4)), and builds no point to
    get it."""

    @settings(max_examples=150, deadline=None)
    @given(point_families(lambda n: n + 2), st.integers(0, 3), st.booleans())
    def test_rows_are_the_promoted_lifts(self, family, at, inf):
        n, pts = family
        at %= len(pts)
        pts = pts[:at] + [_to_quartic(pts[at])] + pts[at + 1:] + ([Point.infinity(n)] if inf else [])
        # a family whose only Q(2^(1/4)) candidate was infinity stays rational
        want = _zt_rows(pts) if _uniform(pts)[1] == "quartic" else _promoted_rows(pts)
        assert _typed(_lifted(pts)[0]) == _typed(want)
        # read from the cache the second time
        assert _typed(_lifted(pts)[0]) == _typed(want)

    def test_float_family_with_infinity(self):
        pts = [INF2, P([0.5, 1.0]), P([2.0, -1.0])]
        rows, n = _lifted(pts)
        assert n == 2 and _typed(rows) == _typed(_promoted_rows(pts))
        assert list(rows[0]) == [1.0, 0.0, 0.0, 0.0] and type(rows[0][0]) is float

    def test_rational_point_and_its_quartic_twin_are_one_point(self):
        a, b, c = P([Fraction(1, 2), 3]), P([0, Fraction(-2, 3)]), P([THETA, 1])
        twin = _to_quartic(a)
        rows = _lifted([a, twin])[0]
        assert rows[0] == rows[1] and type(rows[0][1]) is tuple
        with pytest.raises(DegenerateConfigError, match="duplicate point in sphere_through"):
            sphere_through([a, b, twin])
        with pytest.raises(DegenerateConfigError, match="duplicate point in on_common_sphere"):
            on_common_sphere([twin, b, a])
        with pytest.raises(DegenerateConfigError, match="duplicate point in concyclic"):
            concyclic(a, c, INF2, twin)
        with pytest.raises(DegenerateConfigError, match="duplicate point in span_key"):
            span_key([a, twin, c])

    def test_no_point_is_built(self, monkeypatch):
        a, b, c = P([Fraction(1, 2), 3]), P([0, Fraction(-2, 3)]), P([THETA, 1])
        fa = P([0.5, 1.0])
        float_circle = Hypersphere.make(1.0, (0.0, 0.0), -1.0)
        built = []
        init = Point.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Point, "__init__", counting_init)
        for _ in range(2):
            s = sphere_through([a, c, INF2])
            assert s.contains(a) and s.contains(c) and s.contains(INF2)
            assert not on_common_sphere([a, b, c, INF2])
            assert not concyclic(a, b, c, INF2)
            assert span_key([a, b, c]) is not None
            assert side(a, float_circle) is SideLabel.OUTSIDE
            assert on_sphere(INF2, Hypersphere.make(0.0, (0.0, 1.0), 0.0))
            assert list(_lifted([INF2, fa])[0][0]) == [1.0, 0.0, 0.0, 0.0]
            assert side(fa, UNIT_CIRCLE) is SideLabel.OUTSIDE
        assert built == []


class TestUniformFamilies:
    """`_uniform` keeps a point already on the family's backend and builds a
    promoted twin only for the others."""

    def test_one_backend_family_builds_no_point(self, monkeypatch):
        from inversive import moebius

        a, b, c = P([Fraction(1, 2), 3]), P([0, Fraction(-2, 3)]), P([2, Fraction(5, 7)])
        axes = [P([1, 0, 0]), P([0, 1, 0]), P([0, 0, 1])]
        origin = P([0, 0])
        built = []
        init = Point.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Point, "__init__", counting_init)
        assert smallest_sphere([a, b, c]).key() == smallest_sphere([c, a, b]).key()
        assert smallest_sphere(axes).dim == 1
        assert cross_ratio(a, b, c, INF2) is not CR_INFINITY
        assert built == []
        # normalize builds the images of the maps it checks, but no promoted
        # twin of its inputs
        real = moebius._uniform

        def spy(points):
            before = len(built)
            out, k = real(points)
            assert len(built) == before and all(x is y for x, y in zip(out, points))
            return out, k

        monkeypatch.setattr(moebius, "_uniform", spy)
        m = moebius.normalize(a, b)
        assert m.apply(a) == origin and m.apply(b) == INF2
        m = moebius.normalize(origin, INF2, P([3, 4]))
        assert m.apply(P([3, 4])) == P([1, 0])

    def test_mixed_and_int_families_are_promoted(self):
        a, q = P([Fraction(1, 2), 3]), P([THETA, 1])
        out, k = _uniform([a, q, INF2])
        assert k == "quartic" and out[1] is q and out[2] is INF2
        assert out[0] == _to_quartic(a) and out[0].backend() == "quartic"
        # a point built directly over ints gets Fraction coordinates
        ints = Point((1, 2), 2)
        out, k = _uniform([ints, a])
        assert k == "rational" and out[1] is a
        assert [type(x) for x in out[0].coords] == [Fraction, Fraction] and out[0] == ints


def _formula_side(p, s):
    """The side of p read off the literal c<x,x> + <b,x> + a on the lead-1
    (or unit-norm) coefficients; infinity lies on every flat and outside
    every round sphere."""
    if p.is_infinity:
        return SideLabel.ON if s.is_flat else SideLabel.OUTSIDE
    x = p.coords
    value = s.c * sum(v * v for v in x) + sum(u * v for u, v in zip(s.b, x)) + s.a
    sg = sign_of(value)
    if sg == 0:
        return SideLabel.ON
    if s.is_flat:
        return SideLabel.POSITIVE if sg > 0 else SideLabel.NEGATIVE
    return SideLabel.INSIDE if sg < 0 else SideLabel.OUTSIDE


def _to_float(p):
    return p if p.is_infinity else P([float(x) for x in p.coords])


def _scaled_by_theta(p):
    return p if p.is_infinity else P([THETA * x for x in p.coords])


class TestIncidenceAgainstFormula:
    """`contains` and `side` take the sign of one dot product of the sphere's
    row with the point's cached lifted row; the oracle evaluates the sphere's
    equation at the point's coordinates."""

    @staticmethod
    def check(s, points):
        for p in points:
            expected = _formula_side(p, s)
            assert side(p, s) is expected
            assert s.contains(p) == on_sphere(p, s) == (expected is SideLabel.ON)

    @settings(max_examples=200, deadline=None)
    @given(point_families(lambda n: n + 2))
    def test_exact_spheres(self, family):
        n, pts = family
        tests = pts + [Point.infinity(n)]
        try:
            s = sphere_through(pts[:n + 1])
        except (DegenerateSphereError, DegenerateConfigError):
            assume(False)
        event("flat" if s.is_flat else "round")
        self.check(s, tests)
        # the same sphere met by Q(2^(1/4)) points, and its promoted twin
        quartic = [_to_quartic(p) for p in tests]
        twin = sphere_through(quartic[:n + 1])
        assert twin == s and hash(twin) == hash(s) and twin.key() == s.key()
        assert all(isinstance(x, Quartic2) for x in (twin.c, *twin.b, twin.a))
        self.check(s, quartic)
        self.check(twin, tests)
        # an irrational sphere: every point scaled by 2^(1/4)
        scaled = [_scaled_by_theta(p) for p in tests]
        self.check(sphere_through(scaled[:n + 1]), scaled + tests)

    @settings(max_examples=150, deadline=None)
    @given(point_families(lambda n: n + 2))
    def test_float_against_exact(self, family):
        n, pts = family
        floats = [_to_float(p) for p in pts] + [Point.infinity(n)]
        try:
            s = sphere_through(pts[:n + 1])
            fs = sphere_through(floats[:n + 1])
        except (DegenerateSphereError, DegenerateConfigError):
            assume(False)
        self.check(s, floats)
        self.check(fs, pts + [Point.infinity(n)])

    def test_float_tolerance_is_on_the_stored_coefficients(self):
        # the rows are primitive ints (1000, 0, 0, -1) and (D^2 <x,x>, D x, D^2)
        # with D = 10^10; scaled by them, these gaps of about 1e-10 would
        # exceed EPSILON
        small = Hypersphere.make(1, (0, 0), Fraction(-1, 1000))
        assert small.row == (1000, 0, 0, -1)
        assert on_sphere(P([math.sqrt(0.001 + 5e-10), 0.0]), small)
        near = P([Fraction(10 ** 10 + 1, 10 ** 10), 0])
        assert on_sphere(near, Hypersphere.make(1.0, (0.0, 0.0), -1.0))
        assert not on_sphere(near, UNIT_CIRCLE)

    def test_dimension_mismatch_raises(self):
        for p in (P([1, 0, 0]), P([1]), Point.infinity(3), P([1.0, 0.0, 0.0])):
            for f in (UNIT_CIRCLE.contains, lambda q: side(q, UNIT_CIRCLE),
                      lambda q: on_sphere(q, X_AXIS)):
                with pytest.raises(GeometryError, match="dimension mismatch"):
                    f(p)
