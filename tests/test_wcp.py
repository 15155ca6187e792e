"""Circular general position, sampled weak-circle-preservation checks, the
five-point refutation, and the sharp four-point map."""

from fractions import Fraction
from itertools import combinations, product

import pytest

from inversive.colorings import FlagInversive, TwoLine
from inversive.exactnum import THETA
from inversive.geom import (
    DegenerateConfigError,
    GeometryError,
    Hypersphere,
    Point,
    concyclic,
    on_sphere,
    smallest_sphere,
    sphere_through,
)
from inversive.wcp import (
    CgpReport,
    FiniteImageMap,
    WcpViolation,
    build_sharp_map,
    circular_general_position,
    five_point_refute,
    sample_circles,
    wcp_check,
)
from inversive.witness import SearchBudgetError

F = Fraction


def fp(*coords):
    return Point.finite(tuple(F(c) for c in coords))


INF = Point.infinity(2)
# the running complex-chart image sets: 0, 1, i, 2i, 1+2i as plane points
Z0, Z1, ZI, Z2I, Z12 = fp(0, 0), fp(1, 0), fp(0, 1), fp(0, 2), fp(1, 2)


def cgp_bruteforce(points):
    """Independent reduction: some circle contains all but at most one point
    iff some (m-1)-subset is fully concyclic (all its 4-subsets pass)."""
    m = len(points)
    if m <= 4:
        return False
    for subset in combinations(points, m - 1):
        if all(concyclic(*quad) for quad in combinations(subset, 4)):
            return False
    return True


def cgp_all_triples(points):
    """The all-triples scan circular_general_position ran before it looked
    only at triples of the first four points; for five or more distinct
    points."""
    m = len(points)
    for i, j, l in combinations(range(m), 3):
        circle = smallest_sphere([points[i], points[j], points[l]])
        on = tuple(p for p in points if circle.contains(p))
        if len(on) >= m - 1:
            return CgpReport(False, circle, on)
    return CgpReport(True, None)


UNIT = [fp(1, 0), fp(0, 1), fp(-1, 0), fp(0, -1), fp(F(3, 5), F(4, 5)), fp(F(-4, 5), F(3, 5))]
OFF = fp(2, 2)
EQUATOR = [fp(1, 0, 0), fp(0, 1, 0), fp(-1, 0, 0), fp(0, -1, 0)]
POLE = fp(0, 0, 1)


class TestCircularGeneralPosition:
    def test_four_points_always_fail(self):
        report = circular_general_position([Z0, Z1, INF, ZI])
        assert not report.verdict
        assert report.circle is not None
        assert len(report.on_circle) >= 3

    def test_collinear_five_fail_with_axis_witness(self):
        report = circular_general_position([Z0, ZI, Z2I, INF, Z1])
        assert not report.verdict
        assert set(report.on_circle) == {Z0, ZI, Z2I, INF}
        assert not report.circle.contains(Z1)

    def test_collinear_float_points_fail_with_their_line(self):
        line = [Point.finite((float(x), 0.0)) for x in range(4)]
        off = Point.finite((1.0, 5.0))
        report = circular_general_position(line + [off])
        assert not report.verdict
        assert set(report.on_circle) == set(line)
        assert report.circle.surface.is_flat and not report.circle.contains(off)

    def test_five_in_position_pass(self):
        report = circular_general_position([Z0, Z1, INF, ZI, Z12])
        assert report.verdict
        assert report.circle is None

    def test_tiny_inputs(self):
        for pts in ([Z0], [Z0, INF], [Z0, Z1, ZI]):
            report = circular_general_position(pts)
            assert not report.verdict
            assert set(pts) <= set(report.on_circle)

    def test_duplicates_are_merged(self):
        report = circular_general_position([Z0, Z0, Z1, INF, ZI, Z12])
        assert report.verdict

    def test_ambient_sphere_coordinates(self):
        # five points of the unit sphere in R^3, four on the equator
        eq = [fp(1, 0, 0), fp(0, 1, 0), fp(-1, 0, 0), fp(0, -1, 0)]
        pole = fp(0, 0, 1)
        report = circular_general_position(eq + [pole])
        assert not report.verdict
        assert report.on_circle == tuple(eq) and not report.circle.contains(pole)
        tilted = [fp(1, 0, 0), fp(0, 1, 0), fp(0, 0, 1), fp(-1, 0, 0), fp(0, -1, 0)]
        assert circular_general_position(tilted) == circular_general_position(eq + [pole])

    @pytest.mark.parametrize("pts", [
        [Z0, Z1, INF, ZI, Z12],
        [Z0, ZI, Z2I, INF, Z1],
        [Z0, Z1, ZI, Z12, fp(3, 1), fp(2, 5)],
        [fp(1, 0), fp(0, 1), fp(-1, 0), fp(0, -1), fp(2, 2), fp(5, 1)],
    ])
    def test_matches_bruteforce(self, pts):
        assert circular_general_position(pts).verdict == cgp_bruteforce(pts)

    @pytest.mark.parametrize("pts", [
        [OFF] + UNIT[:4],
        UNIT[:1] + [OFF] + UNIT[1:4],
        UNIT[:2] + [OFF] + UNIT[2:4],
        UNIT[:3] + [OFF] + UNIT[3:5],
        UNIT[:4] + [OFF] + UNIT[4:5],
        UNIT[:5] + [OFF],
        UNIT,
        [Z1, Z0, ZI, Z2I, INF],
        [Z0, ZI, INF, Z1, Z2I, fp(0, -3)],
        [POLE] + EQUATOR,
        EQUATOR[:2] + [POLE] + EQUATOR[2:],
        [Z0, Z1, INF, ZI, Z12],
        [Z0, Z1, ZI, Z12, fp(3, 1), fp(2, 5)],
    ], ids=["misses-0", "misses-1", "misses-2", "misses-3", "misses-4",
            "misses-5", "misses-none", "line-misses-0", "line-misses-3",
            "sphere-misses-0", "sphere-misses-2", "pass-5", "pass-6"])
    def test_matches_all_triples_scan(self, pts):
        assert circular_general_position(pts) == cgp_all_triples(pts)

    def test_report_validation(self):
        with pytest.raises(GeometryError):
            CgpReport(True, circular_general_position([Z0]).circle)


E1, NEG_E1, E2 = EQUATOR[0], EQUATOR[2], EQUATOR[1]
OFF_AXIS = fp(0, 1, 1)


class TestCircularGeneralPositionInSpace:
    """Points of R^3, the ambient coordinates of S^2: below five points the
    circle through the first three is completed by the first unused ±e_i."""

    @pytest.mark.parametrize("pts, aux, on", [
        ([OFF_AXIS], [E1, NEG_E1], [OFF_AXIS]),
        ([E1, OFF_AXIS], [NEG_E1], [E1, OFF_AXIS]),
        ([E1, NEG_E1], [E2], [E1, NEG_E1]),
        ([OFF_AXIS, fp(1, 1, 1), fp(2, 3, 5)], [], [OFF_AXIS, fp(1, 1, 1), fp(2, 3, 5)]),
        ([OFF_AXIS, fp(1, 1, 1), fp(2, 3, 5), E1], [], [OFF_AXIS, fp(1, 1, 1), fp(2, 3, 5)]),
        (EQUATOR, [], EQUATOR),
    ], ids=["one", "two", "two-antipodal", "three", "four", "four-concyclic"])
    def test_tiny_inputs_fail_on_the_completed_circle(self, pts, aux, on):
        report = circular_general_position(pts)
        assert not report.verdict
        assert report.circle == smallest_sphere((pts + aux)[:3])
        assert all(report.circle.contains(p) for p in pts[:3] + aux)
        assert report.on_circle == tuple(on)

    @pytest.mark.parametrize("pts, reason", [
        ([E1, Point.infinity(3)], "ambient sphere coordinates have no infinity"),
        ([Z0, E1], "points disagree in dimension"),
    ], ids=["infinity", "mixed-dimensions"])
    def test_refusals(self, pts, reason):
        with pytest.raises(GeometryError, match=reason):
            circular_general_position(pts)


class TestFiniteImageMap:
    def test_apply_follows_table(self):
        t = build_sharp_map([Z0, Z1, INF, ZI])
        assert t.apply(fp(0, 0)) == Z0          # origin: color 1
        assert t.apply(INF) == Z1               # infinity: color 2
        assert t.apply(fp(7, 0)) == INF         # punctured axis: color 3
        assert t.apply(fp(1, -5)) == ZI         # generic: color 4

    def test_table_must_cover_colors(self):
        with pytest.raises(GeometryError):
            FiniteImageMap(FlagInversive(2), (Z0, Z1), {1: 0, 2: 1, 3: 0})
        with pytest.raises(GeometryError):
            FiniteImageMap(FlagInversive(2), (Z0, Z1), {1: 0, 2: 1, 3: 0, 4: 5})

    def test_image_distinctness(self):
        with pytest.raises(GeometryError):
            FiniteImageMap(FlagInversive(2), (Z0, Z0, Z1, ZI),
                           {1: 0, 2: 1, 3: 2, 4: 3})


UNIT = Hypersphere.make(F(1), (F(0), F(0)), F(-1))
UNIT_PTS = [fp(1, 0), fp(0, 1), fp(-1, 0), fp(0, -1)]


class TestWcpCheck:
    def test_constant_map_passes(self):
        t = FiniteImageMap(FlagInversive(2), (Z0, Z1, INF, ZI),
                           {1: 0, 2: 0, 3: 0, 4: 0})
        assert wcp_check(t, [(UNIT, UNIT_PTS)]) is None

    def test_sharp_map_passes_sampled_circles(self):
        t = build_sharp_map([Z0, Z1, INF, ZI])
        assert wcp_check(t, sample_circles(40, seed=5)) is None

    def test_four_spread_images_violate(self):
        # send the four flag classes to non-concyclic points and sample a
        # circle meeting all four classes: through the origin with center
        # off the axes it picks up colors 1, 3, 4 only, so go through the
        # origin and infinity instead: the extended line x=y has colors
        # 1, 2, 4; a circle through origin, (1,0), (0,1) hits 1, 3, 4.
        # Four classes need origin, infinity, an axis point: the extended
        # x-axis carries colors 1, 2, 3 plus nothing else, so no single
        # circle meets all four flag classes; build a two-line map instead.
        t = FiniteImageMap(TwoLine(extended=True), (Z0, Z1, INF, ZI, Z12),
                           {1: 0, 2: 1, 3: 2, 4: 3, 5: 4})
        refutation = five_point_refute(t, budget=400, seed=0)
        circle = refutation.witness.sphere
        dom = [p for p, _ in refutation.witness.on_points]
        violation = wcp_check(t, [(circle, dom)])
        assert violation is not None
        assert violation.sample_index == 0
        assert not concyclic(*violation.images)

    def test_point_off_circle_is_an_error(self):
        t = build_sharp_map([Z0, Z1, INF, ZI])
        with pytest.raises(GeometryError):
            wcp_check(t, [(UNIT, UNIT_PTS[:3] + [fp(5, 5)])])

    def test_too_few_points_is_an_error(self):
        t = build_sharp_map([Z0, Z1, INF, ZI])
        with pytest.raises(GeometryError):
            wcp_check(t, [(UNIT, UNIT_PTS[:3])])


def wcp_check_by_smallest_sphere(t, samples):
    """The rule wcp_check used before it asked concyclic: each further image
    must lie on smallest_sphere of the first three distinct images; returns
    (sample index, offending images) or None."""
    for idx, (_, dom_pts) in enumerate(samples):
        distinct = list(dict.fromkeys(t.apply(p) for p in dom_pts))
        if len(distinct) <= 3:
            continue
        through = smallest_sphere(distinct[:3])
        off = next((x for x in distinct[3:] if not through.contains(x)), None)
        if off is not None:
            return idx, tuple(distinct[:3] + [off])
    return None


# the extended x-axis meets the two-line classes 1, 5, 4, 1 (three distinct
# images at most), the circle classes 2, 3, 4, 1; the circle comes twice, in
# two point orders, so different images come first
_CIRCLE_PTS = [Point.finite((0, THETA)), Point.finite((0, THETA ** 3 / 2)),
               Point.finite((THETA ** 2, 0)), Point.finite((THETA ** 2 * 3 / 2, THETA ** 3 / 2))]
TWO_LINE_SAMPLES = [
    (Hypersphere.make(0, (0, 1), 0), [Z0, fp(1, 0), Point.finite((THETA ** 2, 0)), INF]),
    (sphere_through(_CIRCLE_PTS[:3]), _CIRCLE_PTS),
    (sphere_through(_CIRCLE_PTS[:3]), _CIRCLE_PTS[::-1]),
]


def _first_three_of_violations(pool):
    """Run wcp_check and the smallest_sphere rule on every map of the five
    two-line classes into the pool; the first three images of each
    violation."""
    found = []
    for table in product(range(len(pool)), repeat=5):
        t = FiniteImageMap(TwoLine(extended=True), pool, dict(enumerate(table, 1)))
        v = wcp_check(t, TWO_LINE_SAMPLES)
        expected = wcp_check_by_smallest_sphere(t, TWO_LINE_SAMPLES)
        assert (None if v is None else (v.sample_index, v.images)) == expected
        if v is not None:
            found.append(v.images[:3])
    return found


class TestWcpCheckAgainstSmallestSphere:
    def test_infinity_or_collinear_among_first_three(self):
        found = _first_three_of_violations((INF, Z0, Z1, fp(2, 0), ZI))
        assert any(INF in first for first in found)
        assert any(set(first) == {Z0, Z1, fp(2, 0)} for first in found)

    def test_ambient_unit_sphere_images(self):
        pool = (fp(1, 0, 0), fp(0, 1, 0), fp(-1, 0, 0), fp(0, 0, 1), fp(F(3, 5), 0, F(4, 5)))
        assert _first_three_of_violations(pool)


class TestSampleCircles:
    def test_deterministic_and_incident(self):
        a = sample_circles(12, seed=3)
        b = sample_circles(12, seed=3)
        assert a == b
        for circle, pts in a:
            assert len(pts) == 4
            assert len(set(pts)) == 4
            assert not circle.is_flat
            for p in pts:
                assert on_sphere(p, circle)


class TestFivePointRefute:
    def test_two_line_refutation(self):
        t = FiniteImageMap(TwoLine(extended=True), (Z0, Z1, INF, ZI, Z12),
                           {1: 0, 2: 1, 3: 2, 4: 3, 5: 4})
        r = five_point_refute(t, budget=400, seed=0)
        assert len(r.images) == 4
        assert set(r.images) == {Z0, Z1, INF, ZI}
        assert not concyclic(*r.images)
        for p in r.domain_points:
            assert on_sphere(p, r.witness.sphere)

    def test_wrong_arity_rejected(self):
        t = build_sharp_map([Z0, Z1, INF, ZI])
        with pytest.raises(GeometryError):
            five_point_refute(t)

    def test_cgp_failure_rejected(self):
        t = FiniteImageMap(TwoLine(extended=True), (Z0, ZI, Z2I, INF, Z1),
                           {1: 0, 2: 1, 3: 2, 4: 3, 5: 4})
        with pytest.raises(DegenerateConfigError):
            five_point_refute(t)

    def test_budget_exhaustion_is_loud(self):
        # the plain two-line coloring has no four-colored circle to find
        t = FiniteImageMap(TwoLine(), (Z0, Z1, INF, ZI, Z12),
                           {1: 0, 2: 1, 3: 2, 4: 3, 5: 4})
        with pytest.raises(SearchBudgetError):
            five_point_refute(t, budget=60, seed=0)


class TestBuildSharpMap:
    def test_standard_example(self):
        t = build_sharp_map([Z0, Z1, INF, ZI])
        assert t.image == (Z0, Z1, INF, ZI)
        assert t.table == {1: 0, 2: 1, 3: 2, 4: 3}

    def test_concyclic_image_rejected(self):
        with pytest.raises(GeometryError):
            build_sharp_map(UNIT_PTS)

    def test_wrong_count_rejected(self):
        with pytest.raises(GeometryError):
            build_sharp_map([Z0, Z1, INF])

    def test_line_through_origin_uses_three_images(self):
        t = build_sharp_map([Z0, Z1, INF, ZI])
        x_axis = Hypersphere.make(F(0), (F(0), F(1)), F(0))
        pts = [fp(0, 0), fp(1, 0), fp(-2, 0), INF]
        assert wcp_check(t, [(x_axis, pts)]) is None
        images = {t.apply(p) for p in pts}
        assert images == {Z0, INF, Z1}


class TestViolationValidation:
    def test_concyclic_images_rejected(self):
        with pytest.raises(GeometryError):
            WcpViolation(0, UNIT, tuple(UNIT_PTS), tuple(UNIT_PTS))

    def test_off_circle_domain_point_rejected(self):
        with pytest.raises(GeometryError):
            WcpViolation(0, UNIT, (fp(5, 5),), (Z0, Z1, INF, ZI))
