"""Witness search, the five-point separating circle, and the coset checks.

Expected values for the frozen cases were worked out by hand from the
defining equations (circle through three points, power of the origin,
signed norms) before being pinned here.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inversive.chromatic import (
    CosetModel,
    PolychromaticWitness,
    SeparationWitness,
    coset_closure_check,
    find_polychromatic,
    max_polychromatic,
    separating_circle_5pts,
    separating_sphere_bruteforce,
    sphere_index,
    transfer,
    two_line_coset_model,
    verify_flag,
    verify_generic,
    verify_two_line,
)
from inversive.colorings import (
    ColoredConfig,
    ColoringError,
    FlagInversive,
    TwoLine,
    generic_position_points,
)
from inversive.exactnum import SQRT2, THETA, BackendMismatch, norm_class_of
from inversive.geom import (
    DegenerateConfigError,
    GeometryError,
    Hypersphere,
    Point,
    smallest_sphere,
    span_key,
    span_walk,
    sphere_through,
)

F = Fraction


def fp(*coords):
    return Point.finite(tuple(F(c) for c in coords))


def config_from(n, items):
    k = max(c for _, c in items)
    return ColoredConfig(n, k, tuple(items))


UNIT_CIRCLE_CONFIG = config_from(2, [
    (fp(1, 0), 1), (fp(0, 1), 2), (fp(-1, 0), 3), (fp(0, -1), 4), (fp(5, 5), 5),
])


class TestMaxPolychromatic:
    def test_unit_circle_attains_four_colors(self):
        w = max_polychromatic(UNIT_CIRCLE_CONFIG, 1)
        assert w.color_set == {1, 2, 3, 4}
        assert w.sphere == Hypersphere.make(F(1), (F(0), F(0)), F(-1))
        assert len(w.on_points) == 4

    def test_generic_points_cap_at_three(self):
        pts = generic_position_points(2, 5, seed=3)
        cfg = config_from(2, [(p, i + 1) for i, p in enumerate(pts)])
        w = max_polychromatic(cfg, 1)
        assert len(w.color_set) == 3

    def test_point_pairs_as_zero_spheres(self):
        cfg = config_from(2, [(fp(0, 0), 1), (fp(1, 0), 2), (fp(0, 1), 2), (fp(3, 3), 3)])
        w = max_polychromatic(cfg, 0)
        assert len(w.color_set) == 2
        assert len(w.on_points) == 2

    def test_too_few_points(self):
        cfg = config_from(2, [(fp(0, 0), 1), (fp(1, 0), 2)])
        with pytest.raises(DegenerateConfigError):
            max_polychromatic(cfg, 1)

    def test_sphere_dim_out_of_range(self):
        # d = n would admit the degenerate whole-space carrier as a "sphere"
        with pytest.raises(GeometryError):
            max_polychromatic(UNIT_CIRCLE_CONFIG, 2)
        with pytest.raises(GeometryError):
            max_polychromatic(UNIT_CIRCLE_CONFIG, -1)


    def test_float_config_refused(self):
        cfg = config_from(2, [(Point.finite((1.0, 0.0)), 1), (Point.finite((0.0, 1.0)), 2),
                              (Point.finite((-1.0, 0.0)), 3), (Point.finite((0.0, -1.0)), 4)])
        with pytest.raises(BackendMismatch):
            max_polychromatic(cfg, 1)


def _span_of_dim(n, d):
    def span(subset):
        if d == n - 1:
            return sphere_through(subset)
        s = smallest_sphere(subset)
        return s if s.dim == d else None
    return span


def reference_max_polychromatic(config, d):
    """The per-subset scan the sphere index replaced: build the sphere of
    every subset and re-test every configuration point for incidence."""
    n = config.n
    pts = config.points()
    size = n + 1 if d == n - 1 else d + 2
    span = _span_of_dim(n, d)
    best = None
    for subset in combinations(range(len(pts)), size):
        try:
            s = span([pts[i] for i in subset])
        except GeometryError:
            continue
        if s is None:
            continue
        ncolors = len({c for p, c in config.items if s.contains(p)})
        if best is None or (-ncolors, subset) < best:
            best = (-ncolors, subset)
    if best is None:
        return None
    s = span([pts[i] for i in best[1]])
    on = tuple((p, c) for p, c in config.items if s.contains(p))
    return PolychromaticWitness(s, on, frozenset(c for _, c in on))


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def mixed_configs(draw):
    """A colored configuration mixing points of one circle (and, for n = 3,
    one sphere), one line, generic points, points of a circle whose radius
    is a rational multiple of 2^(1/4) (Q(2^(1/4)) coordinates) and infinity,
    with a sphere dimension."""
    n = draw(st.sampled_from([2, 3]))
    center = [draw(RATIONALS) for _ in range(n)]
    radius = draw(st.sampled_from([F(1), F(2), F(1, 2)]))
    slope, offset = draw(RATIONALS), draw(RATIONALS)

    def circle_point(t, scale):
        u = ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
        return (center[0] + scale * u[0], center[1] + scale * u[1], *center[2:])

    def sphere_point(s, t):
        q = s * s + t * t + 1
        u = (2 * s / q, 2 * t / q, (s * s + t * t - 1) / q)
        return tuple(c + radius * x for c, x in zip(center, u))

    families = ["circle", "sphere", "line", "generic", "quartic", "infinity"]
    # one family supplies about half the points, so spheres through more
    # points than a spanning subset are common
    main = draw(st.sampled_from(families[:5]))
    points = []
    for family in draw(st.lists(st.sampled_from([main] * 5 + families),
                                min_size=4, max_size=8)):
        t, u = draw(RATIONALS), draw(RATIONALS)
        if family == "infinity":
            p = Point.infinity(n)
        elif family == "circle":
            p = Point.finite(circle_point(t, radius))
        elif family == "sphere" and n == 3:
            p = Point.finite(sphere_point(t, u))
        elif family == "quartic":
            p = Point.finite(circle_point(t, radius * THETA))
        elif family == "line":
            p = Point.finite((t, slope * t + offset) + (F(0),) * (n - 2))
        else:
            p = Point.finite((t, u, *[draw(RATIONALS) for _ in range(n - 2)]))
        if p not in points:
            points.append(p)
    colors = draw(st.lists(st.integers(1, 4), min_size=len(points),
                           max_size=len(points)))
    d = draw(st.integers(0, n - 1))
    return config_from(n, list(zip(points, colors))), d


class TestAgainstPerSubsetScan:
    @settings(max_examples=120, deadline=None)
    @given(mixed_configs())
    def test_witness_matches_reference(self, case):
        config, d = case
        expected = reference_max_polychromatic(config, d)
        if expected is None:
            with pytest.raises(DegenerateConfigError):
                max_polychromatic(config, d)
            return
        got = max_polychromatic(config, d)
        assert got.sphere == expected.sphere
        assert got.on_points == expected.on_points
        assert got.color_set == expected.color_set

    def test_concyclic_points_span_no_two_sphere(self):
        # in R^4 four concyclic points span a circle, not a 2-sphere
        circle = [(fp(1, 0, 0, 0), 1), (fp(0, 1, 0, 0), 2), (fp(-1, 0, 0, 0), 3),
                  (fp(0, -1, 0, 0), 4)]
        with pytest.raises(DegenerateConfigError):
            max_polychromatic(config_from(4, circle), 2)
        config = config_from(4, circle + [(fp(0, 0, 1, 0), 1)])
        assert max_polychromatic(config, 2) == reference_max_polychromatic(config, 2)

    @settings(max_examples=120, deadline=None)
    @given(mixed_configs())
    def test_incident_sets_match_incidence(self, case):
        config, d = case
        n, pts = config.n, config.points()
        size = n + 1 if d == n - 1 else d + 2
        index = sphere_index(pts, size, span_key)
        span = _span_of_dim(n, d)
        for subset, incident in index.values():
            s = span([pts[i] for i in subset])
            assert incident == {i for i, p in enumerate(pts) if s.contains(p)}

    @settings(max_examples=80, deadline=None)
    @given(mixed_configs())
    def test_span_key_is_the_smallest_sphere_key(self, case):
        # mixes rational and Q(2^(1/4)) subsets of one configuration
        config, _ = case
        n, pts = config.n, config.points()
        for size in range(2, n + 3):
            for subset in list(combinations(pts, size))[:12]:
                key, s = span_key(subset), smallest_sphere(subset)
                assert (key is None) == (s.dim < size - 2)
                if key is not None:
                    assert key == s.key()
                    if size == n + 1:
                        assert key == sphere_through(subset).key()


class TestSpanWalk:
    """The walk against the per-subset oracle `span_key`."""

    @settings(max_examples=120, deadline=None)
    @given(mixed_configs())
    def test_walk_index_matches_span_key_index(self, case):
        config, _ = case
        n, pts = config.n, config.points()
        for d in range(n):
            size = n + 1 if d == n - 1 else d + 2
            walked = list(span_walk(pts, size))
            keys = {s: span_key([pts[i] for i in s])
                    for s in combinations(range(len(pts)), size)}
            # the walk keys exactly the spanning subsets, in order
            assert [s for s, _ in walked] == [s for s, k in keys.items() if k is not None]
            # and its keys group them as span_key does
            pairs = {(key, keys[s]) for s, key in walked}
            assert len(pairs) == len({k for k, _ in pairs}) == len({k for _, k in pairs})
            assert (list(sphere_index(pts, size).values())
                    == list(sphere_index(pts, size, span_key).values()))

    def test_one_leaf_vector_is_primitive_with_positive_lead(self):
        # x^2 + y^2 - 1 through (1, 0), (0, 1), (-1, 0)
        [(subset, key)] = span_walk(UNIT_CIRCLE_CONFIG.points()[:3], 3)
        assert subset == (0, 1, 2)
        assert key == ((1, 0, 0, -1),)
        quartic = [Point.finite((THETA, 0)), Point.finite((0, THETA)),
                   Point.finite((-THETA, 0)), Point.infinity(2)]
        assert [key for _, key in span_walk(quartic, 3)][0] == ((1, 0, 0, -SQRT2),)

    def test_dependent_prefix_drops_its_subtree(self):
        # in R^3 four points of one circle span no 2-sphere, so every
        # 4-subset holding all of them is skipped
        circle = [fp(1, 0, 0), fp(0, 1, 0), fp(-1, 0, 0), fp(0, -1, 0)]
        pts = circle + [fp(0, 0, 1), fp(0, 0, 2)]
        subsets = [s for s, _ in span_walk(pts, 4)]
        assert (0, 1, 2, 3) not in subsets
        assert len(subsets) == 14


class TestSphereIndex:
    def test_unit_circle_config_count(self):
        index = sphere_index(UNIT_CIRCLE_CONFIG.points(), 3, span_key)
        # four concyclic points collapse to one circle, plus 6 through (5,5)
        assert len(index) == 7
        key, (subset, incident) = next(iter(index.items()))
        assert key == Hypersphere.make(F(1), (F(0), F(0)), F(-1)).key()
        assert subset == (0, 1, 2)
        assert incident == {0, 1, 2, 3}

    def test_unspanning_subsets_skipped(self):
        pts = UNIT_CIRCLE_CONFIG.points()

        def key_of(subset):
            if pts[4] in subset:
                return None
            if pts[3] in subset:
                raise GeometryError("not spanning")
            return span_key(subset)

        index = sphere_index(pts, 3, key_of)
        assert list(index.values()) == [((0, 1, 2), {0, 1, 2})]


class TestFindPolychromatic:
    def test_two_line_extended_four_colors(self):
        w = find_polychromatic(TwoLine(extended=True), 4, budget=500, seed=0)
        assert w is not None
        assert len(w.color_set) >= 4
        expected = {
            (F(0), THETA): 2,
            (F(0), THETA ** 3 / 2): 3,
            (THETA ** 2, F(0)): 4,
            (3 * THETA ** 2 / 2, THETA ** 3 / 2): 1,
        }
        got = {p.coords: c for p, c in w.on_points}
        assert got == {tuple(k): v for k, v in expected.items()}

    def test_flag_three_colors_found(self):
        w = find_polychromatic(FlagInversive(2), 3, budget=200, seed=1,
                               samples_per_class=3)
        assert w is not None
        assert len(w.color_set) >= 3

    def test_flag_four_colors_not_found(self):
        w = find_polychromatic(FlagInversive(2), 4, budget=150, seed=1,
                               samples_per_class=4)
        assert w is None

    def test_target_validation(self):
        with pytest.raises(ColoringError):
            find_polychromatic(FlagInversive(2), 5)
        with pytest.raises(ColoringError):
            find_polychromatic(FlagInversive(2), 0)

    def test_deterministic(self):
        a = find_polychromatic(FlagInversive(2), 3, budget=100, seed=7,
                               samples_per_class=3)
        b = find_polychromatic(FlagInversive(2), 3, budget=100, seed=7,
                               samples_per_class=3)
        assert a == b


FIVE_POINT_EXAMPLE = (
    (fp(0, 0), 1), (fp(0, 1), 2), (fp(0, 3), 3), (fp(-2, 0), 4), (fp(2, 0), 5),
)


class TestSeparatingCircle:
    def test_pinned_example(self):
        w = separating_circle_5pts(FIVE_POINT_EXAMPLE)
        # circle through (0,1), (-2,0), (2,0): x^2 + y^2 + 3y - 4 = 0
        assert w.sphere == Hypersphere.make(F(1), (F(0), F(3)), F(-4))
        assert w.defining == (FIVE_POINT_EXAMPLE[1], FIVE_POINT_EXAMPLE[3],
                              FIVE_POINT_EXAMPLE[4])
        assert w.separated_pair == (FIVE_POINT_EXAMPLE[0], FIVE_POINT_EXAMPLE[2])

    def test_line_already_separates(self):
        pairs = ((fp(0, 0), 1), (fp(-1, 0), 2), (fp(1, 0), 3),
                 (fp(3, 1), 4), (fp(3, -1), 5))
        w = separating_circle_5pts(pairs)
        assert w.sphere == Hypersphere.make(F(0), (F(0), F(1)), F(0))
        assert w.defining == pairs[:3]
        assert w.separated_pair == (pairs[3], pairs[4])

    def test_with_point_at_infinity(self):
        pairs = ((fp(0, 0), 1), (Point.infinity(2), 2), (fp(1, 0), 3),
                 (fp(0, 2), 4), (fp(5, 1), 5))
        w = separating_circle_5pts(pairs)
        assert isinstance(w, SeparationWitness)

    def test_four_concyclic_rejected(self):
        pairs = ((fp(1, 0), 1), (fp(0, 1), 2), (fp(-1, 0), 3), (fp(0, -1), 4),
                 (fp(0, 0), 5))
        with pytest.raises(DegenerateConfigError):
            separating_circle_5pts(pairs)

    def test_distinct_colors_required(self):
        pairs = ((fp(0, 0), 1), (fp(0, 1), 1), (fp(0, 3), 3), (fp(-2, 0), 4),
                 (fp(2, 0), 5))
        with pytest.raises(DegenerateConfigError):
            separating_circle_5pts(pairs)

    def test_wrong_count_rejected(self):
        with pytest.raises(GeometryError):
            separating_circle_5pts(FIVE_POINT_EXAMPLE[:4])

    @pytest.mark.parametrize("seed", range(12))
    def test_random_generic_configs(self, seed):
        pts = generic_position_points(2, 5, seed=seed)
        pairs = tuple((p, i + 1) for i, p in enumerate(pts))
        w = separating_circle_5pts(pairs)
        assert isinstance(w, SeparationWitness)
        brute = separating_sphere_bruteforce(pairs)
        assert brute is not None


class TestSeparatingBruteforce:
    def test_pinned_example_agrees(self):
        w = separating_sphere_bruteforce(FIVE_POINT_EXAMPLE)
        assert w is not None
        assert isinstance(w, SeparationWitness)

    @pytest.mark.parametrize("seed", range(6))
    def test_three_dimensional_configs(self, seed):
        pts = generic_position_points(3, 6, seed=seed)
        pairs = tuple((p, i + 1) for i, p in enumerate(pts))
        w = separating_sphere_bruteforce(pairs)
        assert w is not None

    def test_cospherical_rejected(self):
        pairs = ((fp(1, 0), 1), (fp(0, 1), 2), (fp(-1, 0), 3), (fp(0, -1), 4),
                 (fp(5, 0), 5))
        with pytest.raises(DegenerateConfigError):
            separating_sphere_bruteforce(pairs)

    def test_wrong_count(self):
        with pytest.raises(GeometryError):
            separating_sphere_bruteforce(FIVE_POINT_EXAMPLE[:4])


class TestTransfer:
    def test_h_frozen(self):
        assert transfer("h", 2, 3, 4) == 6
        assert isinstance(transfer("h", 2, 3, 4), Fraction)

    def test_m_frozen(self):
        assert transfer("m", 2, 3, 6) == 4

    def test_quartic_values(self):
        assert transfer("h", THETA, THETA, THETA ** 3) == THETA ** 3
        assert transfer("m", THETA, F(2), F(3)) == 3 * THETA / 2

    def test_zero_rejected(self):
        with pytest.raises(GeometryError):
            transfer("h", 0, 3, 4)

    def test_unknown_kind(self):
        with pytest.raises(GeometryError):
            transfer("g", 1, 2, 3)

    @given(st.fractions(min_value=1, max_value=50, max_denominator=9),
           st.fractions(min_value=1, max_value=50, max_denominator=9),
           st.fractions(min_value=1, max_value=50, max_denominator=9))
    @settings(deadline=None, max_examples=60)
    def test_h_is_an_involution_given_the_pair(self, r1, r2, r3):
        assert transfer("h", transfer("h", r1, r2, r3), r2, r3) == r1

    @given(st.fractions(min_value=1, max_value=50, max_denominator=9),
           st.fractions(min_value=1, max_value=50, max_denominator=9),
           st.fractions(min_value=1, max_value=50, max_denominator=9))
    @settings(deadline=None, max_examples=60)
    def test_m_inverts_with_swapped_pair(self, r1, r2, r3):
        assert transfer("m", transfer("m", r1, r2, r3), r3, r2) == r1


class TestCosetModel:
    def test_clean_model_passes(self):
        model = two_line_coset_model(samples_per_class=15, seed=1)
        report = coset_closure_check(model, samples_per_check=10)
        assert report["violations"] == []
        assert report["checks"] > 100

    def test_corrupted_model_fails(self):
        model = two_line_coset_model(samples_per_class=15, seed=1)
        tampered = dict(model.class_samples)
        tampered["X4"] = (F(3), F(5), F(7)) + tampered["X4"][3:]
        bad = CosetModel(model.group_samples, tampered, model.reps,
                         model.membership, model.group_membership)
        report = coset_closure_check(bad, samples_per_check=10)
        assert len(report["violations"]) >= 1

    def test_closure_membership(self):
        model = two_line_coset_model(samples_per_class=5, seed=0)
        assert model.closure_member(THETA)
        assert model.closure_member(THETA ** 3 / 7)
        assert not model.closure_member(1 + THETA)

    def test_model_validation(self):
        model = two_line_coset_model(samples_per_class=5, seed=0)
        incomplete = {k: v for k, v in model.class_samples.items() if k != "Y3"}
        with pytest.raises(GeometryError):
            CosetModel(model.group_samples, incomplete, model.reps,
                       model.membership, model.group_membership)
        no_one = dict(model.class_samples)
        no_one["X5"] = (F(2), F(3))
        with pytest.raises(GeometryError):
            CosetModel(model.group_samples, no_one, model.reps,
                       model.membership, model.group_membership)


class TestVerifyConstructions:
    def test_flag_plane(self):
        report = verify_flag(2, per_class=6, seed=0)
        assert report["violations"] == []
        assert report["tuples_checked"] == 36
        assert report["sample_sizes"] == [1, 1, 6, 6]

    def test_flag_space(self):
        report = verify_flag(3, per_class=4, seed=0)
        assert report["violations"] == []
        assert report["tuples_checked"] == 64

    def test_two_line(self):
        report = verify_two_line(per_class=8, seed=0)
        assert report["violations"] == []
        assert report["pairs_compared"] > 0
        assert set(report["line_colors"]["C1"]) <= {1, 4, 5}
        assert set(report["line_colors"]["C2"]) <= {1, 2, 3}

    def test_generic(self):
        report = verify_generic(2, 6, seed=2)
        assert report["violations"] == []
        assert report["subsets_checked"] == 5  # C(5, 4)


class TestWitnessValidation:
    def test_polychromatic_witness_rejects_off_sphere_point(self):
        circle = Hypersphere.make(F(1), (F(0), F(0)), F(-1))
        with pytest.raises(GeometryError):
            PolychromaticWitness(circle, ((fp(2, 0), 1),), frozenset({1}))

    def test_polychromatic_witness_rejects_color_mismatch(self):
        circle = Hypersphere.make(F(1), (F(0), F(0)), F(-1))
        with pytest.raises(GeometryError):
            PolychromaticWitness(circle, ((fp(1, 0), 1),), frozenset({1, 2}))

    def test_separation_witness_rejects_unseparated_pair(self):
        circle = Hypersphere.make(F(1), (F(0), F(0)), F(-1))
        defining = ((fp(1, 0), 1), (fp(0, 1), 2), (fp(-1, 0), 3))
        with pytest.raises(GeometryError):
            SeparationWitness(circle, defining, ((fp(2, 0), 4), (fp(3, 0), 5)))
