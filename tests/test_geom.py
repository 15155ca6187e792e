"""Incidence predicates, sphere constructions, and the planar invariants."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from inversive import _linalg
from inversive.exactnum import Quartic2, THETA, SQRT2, BackendMismatch
from inversive.geom import (
    _check_distinct,
    _extended_flat_subsphere,
    _uniform,
    lift_row,
    vec_dot,
    vec_scale,
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
    power_condition,
    separated,
    side,
    signed_norm,
    smallest_sphere,
    span_key,
    sphere_through,
)

P = Point.finite
INF2 = Point.infinity(2)
UNIT_CIRCLE = Hypersphere.make(1, (0, 0), -1)
X_AXIS = Hypersphere.make(0, (0, 1), 0)

coords = st.fractions(min_value=-10, max_value=10, max_denominator=8)
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def rand_rat(rng, lo=-8, hi=8, den=6):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


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


class TestSphereThrough:
    def test_float_circle(self):
        s = sphere_through([P([1.0, 0.0]), P([0.0, 1.0]), P([-1.0, 0.0])])
        assert on_sphere(P([0.6, 0.8]), s)
        assert not on_sphere(P([0.6, 0.81]), s)

    def test_float_nullspace_stays_float(self):
        for vec in _linalg.nullspace([[1.0, 2.0, 0.0, 0.0]], 4):
            assert all(type(x) is float for x in vec)

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
        assert red == [[Fraction(int(v.p), int(v.q)) for v in ref.row(i)]
                       for i in range(len(pivots))]

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
        # row and the reduced Bareiss rows divided back to Fractions
        ncols = len(rows[0])
        ref, ref_pivots = _linalg.rref([[Fraction(x) for x in r] for r in rows], ncols)
        red, pivots = _linalg.echelon(rows, ncols)
        assert pivots == ref_pivots
        assert red == ref[: len(pivots)]
        assert all(type(x) is Fraction for r in red for x in r)
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


class TestBareiss:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda cols: st.lists(
        st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=1, max_size=5)))
    def test_scaled_rref(self, rows):
        # fraction-free elimination is rref scaled by the last pivot, also on
        # rank-deficient inputs where it skips columns
        ncols = len(rows[0])
        red, pivots = _linalg.bareiss(rows, ncols)
        ref, ref_pivots = _linalg.rref([[Fraction(x) for x in r] for r in rows], ncols)
        assert pivots == ref_pivots == _linalg.bareiss(rows, ncols, reduced=False)[1]
        d = red[0][pivots[0]] if pivots else 1
        assert all(type(x) is int for r in red for x in r)
        assert red == [[d * x for x in r] for r in ref]


QUARTIC_ENTRIES = [Quartic2(0), Quartic2(1), Quartic2(-2), THETA, SQRT2, 1 + THETA,
                   THETA * SQRT2 - Fraction(1, 3)]


class TestCut:
    """`cut` narrows a nullspace basis by one row; `nullspace` of every
    independent row so far is the oracle."""

    @staticmethod
    def walk(rows, ncols):
        basis, taken = _linalg.nullspace([], ncols), []
        for row in rows:
            cut = _linalg.cut(basis, row)
            assert (cut is None) == (_linalg.rank(taken + [row], ncols) == len(taken))
            if cut is None:
                continue
            taken.append(row)
            ns = _linalg.nullspace(taken, ncols)
            assert len(cut) == len(ns) == len(basis) - 1
            assert _linalg.rank(cut, ncols) == _linalg.rank(cut + ns, ncols) == len(ns)
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
        for basis in self.walk(rows, len(rows[0])):
            for v in basis:
                assert next(x for x in v if x) == 1

    def test_dependent_row_returns_none(self):
        basis = _linalg.cut(_linalg.nullspace([], 3), [1, 2, 3])
        assert _linalg.cut(basis, [-2, -4, -6]) is None
        assert _linalg.cut(basis, [0, 0, 0]) is None
        assert _linalg.cut(basis, [1, 0, 0]) == [[0, 3, -2]]


class TestCrossRatio:
    def test_harmonic_quadruple(self):
        cr = cross_ratio(P([1, 0]), P([-1, 0]), P([0, 1]), P([0, -1]))
        assert cr == (Fraction(-1), Fraction(0))

    def test_infinity_cancellation(self):
        cr = cross_ratio(P([0, 0]), P([1, 0]), P([0, 1]), INF2)
        # (z1 - z3)/(z2 - z3) = (-i)/(1 - i) = (1 - i)/2
        assert cr == (Fraction(1, 2), Fraction(-1, 2))

    def test_real_iff_concyclic_with_infinity(self):
        cr = cross_ratio(P([0, 0]), P([1, 0]), P([5, 0]), INF2)
        assert cr[1] == 0

    def test_duplicate_rejected(self):
        with pytest.raises(DegenerateConfigError):
            cross_ratio(P([0, 0]), P([0, 0]), P([1, 0]), P([2, 0]))

    def test_planar_only(self):
        with pytest.raises(GeometryError):
            cross_ratio(P([0, 0, 0]), P([1, 0, 0]), P([0, 1, 0]), P([0, 0, 1]))


class TestSignedNorm:
    def test_axis_examples(self):
        assert signed_norm(P([-1, 0]), (1, 0)) == -1
        assert signed_norm(P([0, -2]), (0, 1)) == -2
        assert signed_norm(P([3, 4]), (Fraction(3, 5), Fraction(4, 5))) == 5

    def test_orientation_rule_flips_negative_directions(self):
        # (0,-1) is negatively oriented, so the canonical direction is (0,1)
        assert signed_norm(P([0, 3]), (0, -1)) == 3

    def test_quartic_coordinates(self):
        assert signed_norm(P([Quartic2(0), THETA]), (0, 1)) == THETA
        assert signed_norm(P([-(THETA ** 3), Quartic2(0)]), (1, 0)) == -(THETA ** 3)

    def test_errors(self):
        with pytest.raises(GeometryError):
            signed_norm(P([1, 1]), (1, 1))  # not unit
        with pytest.raises(GeometryError):
            signed_norm(P([1, 1]), (1, 0))  # off the line
        with pytest.raises(GeometryError):
            signed_norm(INF2, (1, 0))

    @given(coords, coords)
    @settings(deadline=None)
    def test_collinear_products(self, t1, t2):
        # N multiplies like the parameter because sign(d) = +1
        d = (Fraction(3, 5), Fraction(4, 5))
        p1, p2 = P([t1 * d[0], t1 * d[1]]), P([t2 * d[0], t2 * d[1]])
        assert signed_norm(p1, d) == t1
        assert signed_norm(p2, d) == t2


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
    for ts in (hull.coords_of(p) for p in finite):
        rows.append([vec_dot([gi * t for gi, t in zip(g, ts)], ts), *ts, one])
    ns = _linalg.nullspace(rows, hull.dim + 2)
    if not ns:
        if hull.dim == n:
            return SubSphere(hull, None)
        return _extended_flat_subsphere(hull, n)
    assert len(ns) == 1
    c, *w, a = [one * x for x in ns[0]]
    s = [-wi / (2 * gi * c) for wi, gi in zip(w, g)]
    m = hull.point_at(s).coords
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


class TestFlat:
    def test_coords_roundtrip(self):
        f = Flat.through([P([1, 1, 0]), P([2, 1, 0]), P([1, 3, 0])])
        assert f.dim == 2
        p = P([Fraction(5, 2), 2, 0])
        assert f.contains(p)
        assert f.point_at(f.coords_of(p)) == p
        assert not f.contains(P([1, 1, 1]))
        assert f.contains(Point.infinity(3))

    def test_key_is_presentation_invariant(self):
        f1 = Flat.through([P([0, 0, 1]), P([1, 0, 1]), P([0, 1, 1])])
        f2 = Flat.through([P([2, 3, 1]), P([-1, 0, 1]), P([5, 5, 1])])
        assert f1.key() == f2.key()


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
        assert [f.name for f in dataclasses.fields(Point)] == ["coords", "dim"]
        assert dataclasses.astuple(p) == (p.coords, p.dim)

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

    def test_empty_family_is_a_geometry_error(self):
        for f in (sphere_through, span_key, on_common_sphere):
            with pytest.raises(GeometryError):
                f([])
        with pytest.raises(GeometryError, match="need at least two points"):
            smallest_sphere([])
