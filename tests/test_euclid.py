"""Great flats, the forced intersection of great spheres, and the
polychromatic scan over great hyperspheres."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from inversive import _linalg, euclid
from inversive.colorings import FlagEuclidean, sample_class
from inversive.euclid import (
    GreatFlat,
    _great_index,
    _padding,
    great_flat_through,
    great_intersection,
    max_colors_great,
    verify_flag_euclidean,
)
from inversive.exactnum import BackendMismatch, Quartic2, THETA
from inversive.geom import GeometryError, Point, span_key, vec_dot, vec_scale
from inversive.witness import ColoredConfig, PolychromaticWitness

from helpers import rational_sphere_points

F = Fraction


def sp(*coords):
    return Point.finite(tuple(F(c) for c in coords))


E1, E2, E3 = sp(1, 0, 0), sp(0, 1, 0), sp(0, 0, 1)
XY_PLANE = GreatFlat.span([[1, 0, 0], [0, 1, 0]])
XZ_PLANE = GreatFlat.span([[1, 0, 0], [0, 0, 1]])


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def old_contains_direction(flat, v):
    """The rule contains_direction had before it read cached normals: v lies
    in the subspace when appending it keeps the rank of the basis."""
    rows = [[Quartic2.from_rational(x) if type(x) is not Quartic2 else x for x in r]
            for r in [*flat.basis, v]]
    return _linalg.rank(rows, flat.ambient) == flat.dim


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

    def test_wrong_lengths_are_refused(self):
        # a plain zip dot product would truncate both
        for v in [(7, -2), (7, -2, 0, 1)]:
            with pytest.raises(GeometryError, match="direction of length %d in R.3" % len(v)):
                XY_PLANE.contains_direction(v)
        for p in (sp(1, 0), sp(1, 0, 0, 0), Point.infinity(2), Point.infinity(4)):
            with pytest.raises(GeometryError, match="point dimension mismatch"):
                XY_PLANE.contains(p)
        assert not XY_PLANE.contains(Point.infinity(3))
        with pytest.raises(BackendMismatch):
            XY_PLANE.contains_direction((7.0, -2.0, 0.0))

    def test_membership_reads_cached_normals(self, monkeypatch):
        flat = GreatFlat.span([[1, 2, 0], [0, 1, 1]])
        assert flat.contains_direction((1, 3, 1))
        for name in ("nullspace", "echelon", "rank"):
            monkeypatch.setattr(_linalg, name, lambda *a: pytest.fail("eliminated again"))
        assert flat.contains_direction((1, 3, 1)) and not flat.contains(E3)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(small, min_size=n, max_size=n), min_size=1, max_size=n),
        st.lists(small, min_size=n, max_size=n),
        st.lists(small, min_size=n, max_size=n))), st.booleans(), st.booleans())
    def test_contains_direction_is_the_rank_test(self, drawn, inside, quartic):
        vectors, v, weights = drawn
        assume(any(any(r) for r in vectors))
        if inside:  # a combination of the spanning vectors
            v = [sum(w * r[j] for w, r in zip(weights, vectors)) for j in range(len(v))]
        if quartic:
            vectors = [[THETA * x for x in r] for r in vectors]
            v = [THETA ** 3 * x for x in v]
        flat = GreatFlat.span(vectors)
        assert flat.contains_direction(v) == old_contains_direction(flat, v)
        event("inside" if flat.contains_direction(v) else "outside")

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

    def test_rational_valued_quartic_bases_stay_quartic(self):
        q = [[Quartic2(1), Quartic2(1), Quartic2(0)], [Quartic2(1), Quartic2(-1), Quartic2(0)]]
        assert GreatFlat.span(q) == XY_PLANE
        assert all(type(x) is Quartic2 for r in GreatFlat.span(q).basis for x in r)
        flat = great_flat_through([Point.finite((Quartic2(1), Quartic2(0), Quartic2(0)))], 2)
        assert flat == XY_PLANE
        assert all(type(x) is Quartic2 for r in flat.basis for x in r)

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

    def test_points_of_the_line_are_refused(self):
        # the unit sphere of R^1 is the pair +-1, S^0, which has no great spheres
        config = ColoredConfig(1, 2, ((sp(1), 1), (sp(-1), 2)))
        with pytest.raises(GeometryError, match=r"points of R\^1 lie on S\^0"):
            max_colors_great(config)

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

    def test_scans_the_class_samples(self, monkeypatch):
        # the report barely depends on which generic points are drawn
        scanned, great_index = [], euclid._great_index
        monkeypatch.setattr(euclid, "_great_index",
                            lambda pts, n: scanned.append(pts) or great_index(pts, n))
        verify_flag_euclidean(2, per_class=4, seed=5)
        assert scanned == [[p for i in range(1, 4)
                            for p in sample_class(FlagEuclidean(2), i, 4, 5 + i)]]

    @pytest.mark.parametrize("n, per_class, seed", [(2, 5, 3), (2, 8, 109), (3, 3, 7)])
    def test_matches_per_subset_loop(self, n, per_class, seed):
        assert (verify_flag_euclidean(n, per_class=per_class, seed=seed)
                == reference_verify_flag_euclidean(n, per_class, seed))


def reference_padding(rows, d):
    """The greedy padding great_flat_through had before it cut normals: append
    e_i, i = 0, 1, ..., when it raises the rank, until the rank is d."""
    ambient, pads = len(rows[0]), []
    for i in range(ambient):
        if _linalg.rank(rows + pads, ambient) >= d:
            break
        e = [int(j == i) for j in range(ambient)]
        if _linalg.rank(rows + pads + [e], ambient) > _linalg.rank(rows + pads, ambient):
            pads.append(e)
    return pads


def reference_great_index(pts, n):
    """Subsets grouped by the per-subset key `great_flat_through(...).key()`."""
    index = {}
    for subset in combinations(range(len(pts)), min(n, len(pts))):
        key = great_flat_through([pts[i] for i in subset], n).key()
        index.setdefault(key, (subset, set()))[1].update(subset)
    return list(index.values())


def _stereo(t):
    tt = sum(x * x for x in t)
    return sp(*[2 * x / (tt + 1) for x in t], (tt - 1) / (tt + 1))


def sphere_points(ambient):
    """Exact points of the unit sphere of R^ambient: signed axis points,
    rational points, and the Q(2^(1/4)) point (t^2/2, t^2/2, 0, ...)."""
    h = THETA ** 2 / 2
    axis = st.builds(lambda i, s: sp(*[s if j == i else 0 for j in range(ambient)]),
                     st.integers(0, ambient - 1), st.sampled_from([1, -1]))
    rational = st.lists(small, min_size=ambient - 1, max_size=ambient - 1).map(_stereo)
    quartic = st.sampled_from([1, -1]).map(
        lambda s: Point.finite((s * h, h) + (0 * h,) * (ambient - 2)))
    return st.one_of(axis, rational, quartic)


@st.composite
def great_configs(draw):
    """A colored configuration of S^1, S^2 or S^3, some points drawn with
    their antipodes."""
    ambient = draw(st.integers(2, 4))
    pts = []
    for p, antipodal in draw(st.lists(st.tuples(sphere_points(ambient), st.booleans()),
                                      min_size=1, max_size=5)):
        pts += [p, Point.finite(vec_scale(-1, p.coords))] if antipodal else [p]
    pts = list(dict.fromkeys(pts))[:7]
    colors = draw(st.lists(st.integers(1, 4), min_size=len(pts), max_size=len(pts)))
    return ColoredConfig(ambient, 4, tuple(zip(pts, colors)))


class TestGreatIndex:
    """The index over cut normals against the per-subset great flats."""

    @settings(max_examples=60, deadline=None)
    @given(great_configs())
    def test_matches_per_subset_great_flats(self, config):
        pts, n = config.points(), config.n - 1
        index = _great_index(pts, n)
        assert list(index.values()) == reference_great_index(pts, n)
        for subset, incident in index.values():
            flat = great_flat_through([pts[i] for i in subset], n)
            assert incident == {i for i, p in enumerate(pts) if flat.contains(p)}
        assert max_colors_great(config) == reference_max_colors_great(config)

    @settings(max_examples=60, deadline=None)
    @given(great_configs(), st.data())
    def test_padding_is_the_rank_greedy_padding(self, config, data):
        pts = config.points()
        ambient = config.n
        subset = data.draw(st.lists(st.sampled_from(pts), min_size=1, max_size=ambient,
                                    unique=True))
        rows = [p.coords for p in subset]
        r = _linalg.rank(rows, ambient)
        for d in range(r, ambient + 1):
            pads, normals = _padding(rows, d)
            assert pads == reference_padding(rows, d)
            assert len(normals) == ambient - d
            assert all(vec_dot(u, v) == 0 for u in normals for v in rows + pads)
        if r > 1:
            with pytest.raises(GeometryError, match="more than the target dimension"):
                _padding(rows, r - 1)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, 5 if n < 3 else 3), st.integers(0, 500))))
    def test_verify_matches_per_subset_loop(self, case):
        n, per_class, seed = case
        assert (verify_flag_euclidean(n, per_class=per_class, seed=seed)
                == reference_verify_flag_euclidean(n, per_class, seed))

    def test_one_nullspace_per_subset(self, monkeypatch):
        pts = ColoredConfig.sample(FlagEuclidean(2), 5, 3).points()
        expected = reference_great_index(pts, 2)
        nullspaces, checked = [], []
        nullspace, unit_sphere_rows = _linalg.nullspace, euclid._unit_sphere_rows
        monkeypatch.setattr(_linalg, "nullspace", lambda *a: nullspaces.append(1) or nullspace(*a))
        monkeypatch.setattr(euclid, "_unit_sphere_rows",
                            lambda ps: checked.append(ps) or unit_sphere_rows(ps))
        for name in ("echelon", "rank"):
            monkeypatch.setattr(_linalg, name, lambda *a: pytest.fail("eliminated again"))
        monkeypatch.setattr(euclid, "great_flat_through", lambda *a: pytest.fail("flat per subset"))
        assert list(_great_index(pts, 2).values()) == expected
        assert len(nullspaces) == len(list(combinations(pts, 2)))
        assert checked == [pts]  # each point is checked once per call
