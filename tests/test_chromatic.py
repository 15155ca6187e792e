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

from inversive import chromatic, witness
from inversive.chromatic import (
    CosetModel,
    coset_closure_check,
    find_polychromatic,
    max_polychromatic,
    sphere_index,
    transfer,
    two_line_coset_model,
    verify_flag,
    verify_generic,
    verify_two_line,
)
from inversive.colorings import (
    FlagEuclidean,
    FlagInversive,
    TwoLine,
    generic_position_points,
)
from inversive.exactnum import SQRT2, THETA, BackendMismatch, norm_class_of, sign_of
from inversive.geom import (
    DegenerateConfigError,
    GeometryError,
    Hypersphere,
    Point,
    SideLabel,
    concyclic,
    on_common_sphere,
    second_intersection,
    separated,
    side,
    smallest_sphere,
    span_key,
    span_walk,
    sphere_through,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
)
from inversive.jsonio import encode_separation_witness
from inversive.moebius import normalize
from inversive.witness import (ColoredConfig, ColoringError, PolychromaticWitness,
                               SeparationWitness, separating_circle_5pts,
                               separating_sphere_bruteforce)

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


def span_key_stream(pts, size):
    """(subset, span_key) for each size-subset that span_key keys, in
    lexicographic order: the per-subset oracle of `span_walk`."""
    for subset in combinations(range(len(pts)), size):
        key = span_key([pts[i] for i in subset])
        if key is not None:
            yield subset, key


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
        index = sphere_index(span_key_stream(pts, size))
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
            # and its keys are span_key's
            assert all(key == keys[s] for s, key in walked)
            assert (list(sphere_index(span_walk(pts, size)).values())
                    == list(sphere_index(span_key_stream(pts, size)).values()))

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
        index = sphere_index(span_key_stream(UNIT_CIRCLE_CONFIG.points(), 3))
        # four concyclic points collapse to one circle, plus 6 through (5,5)
        assert len(index) == 7
        key, (subset, incident) = next(iter(index.items()))
        assert key == Hypersphere.make(F(1), (F(0), F(0)), F(-1)).key()
        assert subset == (0, 1, 2)
        assert incident == {0, 1, 2, 3}

    def test_groups_a_keyed_stream(self):
        keyed = [((0, 1), "a"), ((0, 2), "b"), ((1, 2), "a"), ((1, 3), "c"), ((2, 3), "b")]
        index = sphere_index(iter(keyed))
        assert list(index.items()) == [("a", ((0, 1), {0, 1, 2})), ("b", ((0, 2), {0, 2, 3})),
                                       ("c", ((1, 3), {1, 3}))]
        assert sphere_index([]) == {}


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

    @pytest.mark.parametrize("coloring,target", [(FlagInversive(3), 4),
                                                 (FlagInversive(1), 3),
                                                 (FlagEuclidean(2), 3)])
    def test_non_planar_sample_refused(self, coloring, target):
        with pytest.raises(ColoringError, match="in the plane"):
            find_polychromatic(coloring, target, budget=50)

    def test_deterministic(self):
        a = find_polychromatic(FlagInversive(2), 3, budget=100, seed=7,
                               samples_per_class=3)
        b = find_polychromatic(FlagInversive(2), 3, budget=100, seed=7,
                               samples_per_class=3)
        assert a == b


FIVE_POINT_EXAMPLE = (
    (fp(0, 0), 1), (fp(0, 1), 2), (fp(0, 3), 3), (fp(-2, 0), 4), (fp(2, 0), 5),
)


def _reference_line_role_anchor(triple):
    """For a role triple on a common extended line, the point to send to
    infinity so the first entry lands strictly between the other two; None
    when the natural betweenness fails."""
    xa, xb, xc = triple
    if xa.is_infinity:
        return Point.finite(vec_scale(F(1, 2), vec_add(xb.coords, xc.coords)))
    if xb.is_infinity:
        return Point.finite(vec_sub(vec_scale(2, xc.coords), xa.coords))
    if xc.is_infinity:
        return Point.finite(vec_sub(vec_scale(2, xb.coords), xa.coords))
    d = vec_sub(xc.coords, xb.coords)
    t = vec_dot(vec_sub(xa.coords, xb.coords), d)
    if sign_of(t) > 0 and sign_of(vec_dot(d, d) - t) > 0:
        return Point.infinity(xa.dim)
    return None


def reference_separating_circle_5pts(pairs):
    """The map-based procedure `separating_circle_5pts` replaced, kept as its
    oracle: straighten the role triple with a Moebius `normalize` word sending
    an anchor to infinity, then read both side tests on the images."""
    if len(pairs) != 5:
        raise GeometryError("need exactly five colored points")
    pts = [p for p, _ in pairs]
    colors = [c for _, c in pairs]
    if len(set(pts)) != 5 or any(p.dim != 2 for p in pts):
        raise GeometryError("need five distinct planar points")
    if len(set(colors)) != 5:
        raise DegenerateConfigError("need five distinct colors")
    for quad in combinations(pts, 4):
        if concyclic(*quad):
            raise DegenerateConfigError("four of the points are concyclic")
    roles = [(a, b, c) for a in range(5)
             for b, c in combinations([i for i in range(5) if i != a], 2)]
    chosen = None
    for a, b, c in roles:
        triple = [pts[a], pts[b], pts[c]]
        circle = sphere_through(triple)
        if not circle.is_flat:
            continue
        anchor = _reference_line_role_anchor(triple)
        if anchor is not None:
            chosen = (a, b, c, circle, anchor)
            break
    if chosen is None:
        for a, b, c in roles:
            circle = sphere_through([pts[a], pts[b], pts[c]])
            if circle.is_flat:
                continue
            mid = vec_scale(F(1, 2), vec_add(pts[b].coords, pts[c].coords))
            anchor = second_intersection(circle, pts[a], vec_sub(mid, pts[a].coords))
            chosen = (a, b, c, circle, anchor)
            break
    if chosen is None:
        raise DegenerateConfigError("no usable role assignment")
    a, b, c, role_circle, anchor = chosen
    t = normalize(pts[a], anchor)
    imgs = [t.apply(p) for p in pts]
    if imgs[b].is_infinity or imgs[c].is_infinity:
        raise DegenerateConfigError("role straightening degenerated")
    if sign_of(vec_dot(imgs[b].coords, imgs[c].coords)) >= 0:
        raise DegenerateConfigError("betweenness postcondition failed")
    d, e = [i for i in range(5) if i not in (a, b, c)]
    image_line = t.image_sphere(role_circle)
    sd, se = side(imgs[d], image_line), side(imgs[e], image_line)
    if SideLabel.ON in (sd, se):
        raise DegenerateConfigError("four of the points are concyclic")
    if sd != se:
        return SeparationWitness(role_circle, (pairs[a], pairs[b], pairs[c]),
                                 (pairs[d], pairs[e]))
    verdict = side(imgs[d], sphere_through([imgs[e], imgs[b], imgs[c]]))
    if verdict is SideLabel.ON:
        raise DegenerateConfigError("four of the points are concyclic")
    keep, out = (e, d) if verdict is SideLabel.OUTSIDE else (d, e)
    return SeparationWitness(sphere_through([pts[keep], pts[b], pts[c]]),
                             (pairs[keep], pairs[b], pairs[c]), (pairs[a], pairs[out]))


def outcome(procedure, pairs):
    """A procedure's witness, or its error as (type, message)."""
    try:
        return procedure(pairs)
    except GeometryError as e:
        return type(e), str(e)


grid = st.integers(-3, 3)


@st.composite
def five_point_configs(draw):
    """Five colored planar points: exact, Q(2^(1/4)) or float, on a small grid
    so that collinear and concyclic subsets are common, sometimes with many
    points on one line and sometimes with infinity among them. A Q(2^(1/4))
    point is a grid point times 1, 2^(1/4) or 2^(1/2), so a line through the
    origin keeps its points."""
    kind = draw(st.sampled_from(["exact", "float", "line", "infinity", "quartic"]))
    if kind == "line" or (kind == "quartic" and draw(st.booleans())):
        # most points on one line through the origin, the rest anywhere
        dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -2)]))
        on = draw(st.integers(3, 5))
        coords = [(t * dx, t * dy)
                  for t in draw(st.lists(grid, min_size=on, max_size=on, unique=True))]
        coords += draw(st.lists(st.tuples(grid, grid), min_size=5 - on, max_size=5 - on))
    else:
        coords = draw(st.lists(st.tuples(grid, grid), min_size=5, max_size=5, unique=True))
    divisor = draw(st.sampled_from([1, 2, 3]))
    if kind == "float":
        pts = [Point.finite((x / divisor, y / divisor)) for x, y in coords]
    elif kind == "quartic":
        pts = [Point.finite((F(x, divisor) * f, F(y, divisor) * f))
               for (x, y), f in zip(coords, draw(st.lists(
                   st.sampled_from([1, THETA, SQRT2]), min_size=5, max_size=5)))]
    else:
        pts = [fp(F(x, divisor), F(y, divisor)) for x, y in coords]
    if kind == "infinity" or (kind in ("line", "quartic") and draw(st.booleans())):
        pts[draw(st.integers(0, 4))] = Point.infinity(2)
    colors = draw(st.permutations([1, 2, 3, 4, 5]))
    return tuple(zip(pts, colors))


def reference_separating_sphere_bruteforce(pairs):
    """The per-subset scan `separating_sphere_bruteforce` replaced, kept as its
    oracle: one `on_common_sphere` call per (n+2)-subset, then the sphere of
    each (n+1)-subset in lexicographic order, until one `separated` test
    holds for the two points off it."""
    pts = [p for p, _ in pairs]
    colors = [c for _, c in pairs]
    if not pts:
        raise GeometryError("empty input")
    n = pts[0].dim
    if len(pairs) != n + 3:
        raise GeometryError("need exactly n+3 colored points")
    if len(set(pts)) != len(pts) or len(set(colors)) != len(colors):
        raise GeometryError("points and colors must be distinct")
    for subset in combinations(range(len(pts)), n + 2):
        if on_common_sphere([pts[i] for i in subset]):
            raise DegenerateConfigError("n+2 of the points share a sphere")
    for subset in combinations(range(len(pts)), n + 1):
        try:
            s = sphere_through([pts[i] for i in subset])
        except GeometryError:
            continue
        rest = [i for i in range(len(pts)) if i not in subset]
        x, y = pts[rest[0]], pts[rest[1]]
        if separated(x, y, s):
            return SeparationWitness(s, tuple(pairs[i] for i in subset),
                                     (pairs[rest[0]], pairs[rest[1]]))
    return None


@st.composite
def bruteforce_configs(draw):
    """n+3 colored points of R^n_inf, n = 1..4: rational, Q(2^(1/4)) or
    float, on a small grid, sometimes with n+2 of them on the hyperplane
    x_n = 0 and sometimes with infinity among them. A Q(2^(1/4)) point is a
    grid point times 1, 2^(1/4) or 2^(1/2). Equal points are dropped, so a
    few inputs fall short of n+3 and are refused for their count."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["rational", "quartic", "float"]))
    on_flat = n + 2 if n > 1 and draw(st.booleans()) else 0
    coords = [c + (0,) for c in draw(st.lists(
        st.lists(grid, min_size=n - 1, max_size=n - 1).map(tuple),
        min_size=on_flat, max_size=on_flat, unique=True))]
    coords += draw(st.lists(st.lists(grid, min_size=n, max_size=n).map(tuple),
                            min_size=n + 3 - on_flat, max_size=n + 3 - on_flat, unique=True))
    divisor = draw(st.sampled_from([1, 2, 3]))
    factors = draw(st.lists(st.sampled_from([1, THETA, SQRT2] if kind == "quartic" else [1]),
                            min_size=n + 3, max_size=n + 3))
    pts = []
    for c, f in zip(coords, factors):
        xs = [F(x, divisor) * f for x in c]
        p = Point.finite([float(x) for x in xs] if kind == "float" else xs)
        if p not in pts:
            pts.append(p)
    if draw(st.booleans()):
        pts[draw(st.integers(0, len(pts) - 1))] = Point.infinity(n)
    colors = draw(st.permutations(range(1, len(pts) + 1)))
    return tuple(zip(pts, colors))


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


    @settings(max_examples=400, deadline=None)
    @given(five_point_configs())
    def test_matches_map_based_reference(self, pairs):
        new = outcome(separating_circle_5pts, pairs)
        ref = outcome(reference_separating_circle_5pts, pairs)
        assert repr(new) == repr(ref)
        if isinstance(ref, SeparationWitness):
            assert encode_separation_witness(new) == encode_separation_witness(ref)

    @settings(max_examples=200, deadline=None)
    @given(five_point_configs())
    def test_builds_only_the_witness_circle(self, pairs):
        # the role triple's flatness and betweenness are read off the points,
        # so the one circle built is the witness's, and a refusal builds none
        built = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(witness, "sphere_through",
                       lambda pts: built.append(pts) or sphere_through(pts))
            result = outcome(separating_circle_5pts, pairs)
        assert len(built) == isinstance(result, SeparationWitness)
        if built:
            assert built[0] == [p for p, _ in result.defining]


def test_chromatic_keeps_the_traced_separation_names():
    # the benchmark's tracer wraps these two as chromatic.separating_*
    assert chromatic.separating_circle_5pts is witness.separating_circle_5pts
    assert chromatic.separating_sphere_bruteforce is witness.separating_sphere_bruteforce


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

    @settings(max_examples=400, deadline=None)
    @given(bruteforce_configs())
    def test_matches_per_subset_reference(self, pairs):
        new = outcome(separating_sphere_bruteforce, pairs)
        ref = outcome(reference_separating_sphere_bruteforce, pairs)
        assert repr(new) == repr(ref)
        if isinstance(ref, SeparationWitness):
            assert encode_separation_witness(new) == encode_separation_witness(ref)

    def test_mixed_backends_refused_before_the_degeneracy_check(self):
        # four exact points of the unit circle and a float one: the family is
        # refused as a whole, before any of its points are tested
        pairs = ((fp(1, 0), 1), (fp(0, 1), 2), (fp(-1, 0), 3), (fp(0, -1), 4),
                 (Point.finite((0.5, 0.25)), 5))
        for procedure in (separating_circle_5pts, separating_sphere_bruteforce):
            with pytest.raises(BackendMismatch):
                procedure(pairs)


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
