"""Incidence predicates, sphere constructions, and the planar invariants."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from inversive import _linalg
from inversive.exactnum import (Quartic2, THETA, SQRT2, BackendMismatch, promote, sign_of,
                               zt_mul)
from inversive.geom import (
    _check_distinct,
    _extended_flat_subsphere,
    _lifted,
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
        # row and the reduced Bareiss rows taken over their content
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
        # the nullspace: the right number of independent vectors, each
        # annihilating every row, so the span is sympy's
        basis = _linalg.nullspace(rows, ncols)
        assert len(basis) == ncols - rank
        for v in basis:
            ev = [element(x) for x in v]
            for r in rows:
                assert sum((element(x) * y for x, y in zip(r, ev)), K.zero) == K.zero
        if basis:
            assert matrix(basis, ncols).rank() == len(basis)
        # echelon: sympy's rref rows, each up to its lead
        red, pivots = _linalg.echelon(rows, ncols)
        ref_red, ref_pivots = ref.rref()
        assert pivots == list(ref_pivots)
        for mine, theirs in zip(red, ref_red.to_list()):
            lead = element(next(x for x in mine if x))
            assert [K.quo(element(x), lead) for x in mine] == theirs
        assert steps[0] > 0 or rank <= 1

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


def _promoted_rows(points):
    """Reference rows of a mixed family: the family promoted point by point
    with `_uniform`, then each finite point's own lift and infinity's row
    promoted entry by entry."""
    promoted, k = _uniform(points)
    return [lift_row(q, k) if q.backend() == k else [promote(x, k) for x in lift_row(q)]
            for q in promoted]


def _typed(rows):
    return [[(type(x), x) for x in r] for r in rows]


class TestMixedFamilyRows:
    """A family mixing backends (rational beside Q(2^(1/4)), or infinity
    beside either quartic or float points) reads a row each point caches for
    the family's backend, and builds no point to get it."""

    @settings(max_examples=150, deadline=None)
    @given(point_families(lambda n: n + 2), st.integers(0, 3), st.booleans())
    def test_rows_are_the_promoted_lifts(self, family, at, inf):
        n, pts = family
        at %= len(pts)
        pts = pts[:at] + [_to_quartic(pts[at])] + pts[at + 1:] + ([Point.infinity(n)] if inf else [])
        want = _promoted_rows(pts)
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
        assert rows[0] == rows[1] and type(rows[0][1]) is Quartic2
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
