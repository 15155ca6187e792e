"""Tests for primitive factor maps, composition, and normalization."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inversive.exactnum import (
    EPSILON,
    THETA,
    BackendMismatch,
    Quartic2,
    common_kind,
    is_zero,
    promote,
    sign_of,
    sqrt_in_field,
)
from inversive.geom import (
    CR_INFINITY,
    GeometryError,
    Hypersphere,
    Point,
    _cdiv,
    _cmul,
    _uniform,
    cross_ratio,
    on_sphere,
    sphere_through,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
)
from inversive.moebius import (
    HyperplaneReflection,
    MoebiusMap,
    NormalizationError,
    SphereInversion,
    compose,
    normalize,
    scaling_factors,
    translation_factors,
)

coords = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def rand_point(rng, n=2):
    return Point.finite(tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)))


def rand_map(rng, n=2, max_factors=4):
    factors = []
    for _ in range(rng.randint(1, max_factors)):
        if rng.random() < 0.5:
            center = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            factors.append(SphereInversion(center, F(rng.randint(1, 5))))
        else:
            normal = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            if all(x == 0 for x in normal):
                normal = (F(1),) + (F(0),) * (n - 1)
            factors.append(HyperplaneReflection(normal, F(rng.randint(-3, 3))))
    return MoebiusMap(tuple(factors), n)


class TestPrimitives:
    def test_unit_inversion_points(self):
        inv = SphereInversion((F(0), F(0)), F(1))
        assert inv.apply(Point.finite((2, 0))) == Point.finite((F(1, 2), 0))
        assert inv.apply(Point.finite((0, 0))) == Point.infinity(2)
        assert inv.apply(Point.infinity(2)) == Point.finite((0, 0))
        # points of the unit circle stay put
        assert inv.apply(Point.finite((F(3, 5), F(4, 5)))) == Point.finite((F(3, 5), F(4, 5)))

    def test_reflection_points(self):
        refl = HyperplaneReflection((F(0), F(1)), F(0))
        assert refl.apply(Point.finite((1, 2))) == Point.finite((1, -2))
        assert refl.apply(Point.finite((5, 0))) == Point.finite((5, 0))
        assert refl.apply(Point.infinity(2)) == Point.infinity(2)

    def test_offset_reflection(self):
        # mirror {x_1 = 3}, written <(1,0), x> - 3 = 0
        refl = HyperplaneReflection((F(1), F(0)), F(-3))
        assert refl.apply(Point.finite((0, 7))) == Point.finite((6, 7))

    def test_invalid_primitives(self):
        with pytest.raises(GeometryError):
            SphereInversion((F(0), F(0)), F(0))
        with pytest.raises(GeometryError):
            SphereInversion((F(0), F(0)), F(-1))
        with pytest.raises(GeometryError):
            HyperplaneReflection((F(0), F(0)), F(1))

    @given(st.tuples(coords, coords), st.tuples(coords, coords), coords)
    def test_involution(self, pt, center, rho):
        if rho <= 0:
            rho += 9
        p = Point.finite(pt)
        inv = SphereInversion(center, rho)
        assert inv.apply(inv.apply(p)) == p
        refl = HyperplaneReflection((F(1), F(2)), F(-1))
        assert refl.apply(refl.apply(p)) == p


class TestImageSphere:
    def test_line_to_circle(self):
        inv = SphereInversion((F(0), F(0)), F(1))
        line = Hypersphere.make(0, (1, 0), -2)
        img = inv.image_sphere(line)
        assert img.center() == Point.finite((F(1, 4), 0))
        assert img.radius_sq() == F(1, 16)

    def test_unit_circle_fixed(self):
        inv = SphereInversion((F(0), F(0)), F(1))
        unit = Hypersphere.make(1, (0, 0), -1)
        assert inv.image_sphere(unit) == unit

    def test_circle_through_center_to_line(self):
        inv = SphereInversion((F(0), F(0)), F(1))
        circle = sphere_through([Point.finite((0, 0)), Point.finite((2, 0)), Point.finite((1, 1))])
        img = inv.image_sphere(circle)
        assert img.is_flat
        assert on_sphere(Point.finite((F(1, 2), 0)), img)

    def test_reflection_image(self):
        refl = HyperplaneReflection((F(0), F(1)), F(0))
        circle = Hypersphere.make(1, (-2, -4), 1)
        img = refl.image_sphere(circle)
        assert img == Hypersphere.make(1, (-2, 4), 1)

    def test_image_matches_point_images(self):
        rng = random.Random(7)
        for _ in range(40):
            pts = [rand_point(rng) for _ in range(3)]
            try:
                s = sphere_through(pts)
            except GeometryError:
                continue
            m = rand_map(rng)
            images = [m.apply(p) for p in pts]
            if len({images[0], images[1], images[2]}) < 3:
                continue
            try:
                expected = sphere_through(images)
            except GeometryError:
                continue
            assert m.image_sphere(s) == expected

    def test_rational_valued_quartic_sphere_keeps_its_kind(self):
        # its row is the primitive int row, held as Q(2^(1/4)) scalars
        unit = Hypersphere.make(Quartic2(2), (Quartic2(0), Quartic2(0)), Quartic2(-2))
        assert unit.row == (1, 0, 0, -1)
        img = SphereInversion((F(1), F(0)), F(1)).image_sphere(unit)
        assert all(type(x) is Quartic2 for x in (img.c, *img.b, img.a, *img.row))
        assert img == SphereInversion((F(1), F(0)), F(1)).image_sphere(
            Hypersphere.make(1, (0, 0), -1))

    def test_incidence_preserved_3d(self):
        rng = random.Random(11)
        for _ in range(10):
            pts = [rand_point(rng, 3) for _ in range(4)]
            try:
                s = sphere_through(pts)
            except GeometryError:
                continue
            m = rand_map(rng, n=3)
            img = m.image_sphere(s)
            for p in pts:
                assert on_sphere(m.apply(p), img)


class TestCompose:
    def test_compose_order(self):
        inv = MoebiusMap.of(SphereInversion((F(0), F(0)), F(1)))
        shift = MoebiusMap(tuple(translation_factors((F(1), F(0)))), 2)
        # compose(shift, inv) applies inv first
        p = Point.finite((2, 0))
        assert compose(shift, inv).apply(p) == Point.finite((F(3, 2), 0))
        assert compose(inv, shift).apply(p) == Point.finite((F(1, 3), 0))

    def test_inverse_roundtrip(self):
        rng = random.Random(3)
        for _ in range(30):
            m = rand_map(rng)
            both = compose(m.inverse(), m)
            p = rand_point(rng)
            assert both.apply(p) == p

    def test_identity(self):
        ident = MoebiusMap.identity(2)
        p = Point.finite((3, 5))
        assert ident.apply(p) == p
        assert ident.apply(Point.infinity(2)) == Point.infinity(2)

    def test_dim_mismatch(self):
        with pytest.raises(GeometryError):
            compose(MoebiusMap.identity(2), MoebiusMap.identity(3))
        with pytest.raises(GeometryError):
            MoebiusMap.identity(2).apply(Point.finite((1, 2, 3)))


class TestBuildingBlocks:
    def test_translation(self):
        m = MoebiusMap(tuple(translation_factors((F(3), F(-1)))), 2)
        assert m.apply(Point.finite((0, 0))) == Point.finite((3, -1))
        assert m.apply(Point.infinity(2)) == Point.infinity(2)
        assert translation_factors((F(0), F(0))) == []

    def test_scaling(self):
        m = MoebiusMap(tuple(scaling_factors(F(3, 2), 2)), 2)
        assert m.apply(Point.finite((2, -4))) == Point.finite((3, -6))
        assert scaling_factors(F(1), 2) == []
        with pytest.raises(GeometryError):
            scaling_factors(F(-2), 2)

    def test_rotation(self):
        # the planar oracle's rotation, by the angle of (3/5, 4/5)
        m = MoebiusMap(tuple(rotation_factors((F(3, 5), F(4, 5)))), 2)
        assert m.apply(Point.finite((1, 0))) == Point.finite((F(3, 5), F(4, 5)))
        assert m.apply(Point.finite((0, 1))) == Point.finite((F(-4, 5), F(3, 5)))
        half_turn = MoebiusMap(tuple(rotation_factors((F(-1), F(0)))), 2)
        assert half_turn.apply(Point.finite((2, 5))) == Point.finite((-2, -5))
        assert rotation_factors((F(1), F(0))) == []
        with pytest.raises(GeometryError):
            rotation_factors((F(1), F(1)))


class TestNormalize:
    def test_three_point_plane(self):
        m = normalize(Point.finite((0, 1)), Point.finite((0, -1)), Point.finite((1, 0)))
        assert m.apply(Point.finite((0, 0))) == Point.finite((0, -1))
        assert m.apply(Point.finite((0, 1))) == Point.finite((0, 0))
        assert m.apply(Point.finite((0, -1))) == Point.infinity(2)
        assert m.apply(Point.finite((1, 0))) == Point.finite((1, 0))

    def test_two_point_forms(self):
        cases = [
            (Point.finite((3, 4)), Point.finite((1, 1))),
            (Point.finite((3, 4)), Point.infinity(2)),
            (Point.infinity(2), Point.finite((1, 1))),
            (Point.finite((0, 0)), Point.infinity(2)),
        ]
        for p, q in cases:
            m = normalize(p, q)
            assert m.apply(p) == Point.finite((0, 0))
            assert m.apply(q) == Point.infinity(2)

    def test_three_point_infinity_cases(self):
        e1 = Point.finite((1, 0))
        zero = Point.finite((0, 0))
        for p, q, r in [
            (Point.infinity(2), Point.finite((2, 1)), Point.finite((5, 5))),
            (Point.finite((2, 1)), Point.infinity(2), Point.finite((5, 5))),
            (Point.finite((2, 1)), Point.finite((5, 5)), Point.infinity(2)),
        ]:
            m = normalize(p, q, r)
            assert m.apply(p) == zero
            assert m.apply(q) == Point.infinity(2)
            assert m.apply(r) == e1

    def test_duplicate_points_rejected(self):
        p = Point.finite((1, 2))
        with pytest.raises(GeometryError):
            normalize(p, p)
        with pytest.raises(GeometryError):
            normalize(p, Point.finite((0, 0)), p)

    def test_irrational_ratio_rejected(self):
        # |r - p| = sqrt(2) is outside the rationals
        with pytest.raises(NormalizationError):
            normalize(Point.finite((0, 0)), Point.infinity(2), Point.finite((1, 1)))

    def test_quartic_field_admits_sqrt2(self):
        z = Quartic2(0)
        m = normalize(Point.finite((z, z)), Point.infinity(2), Point.finite((z + 1, z + 1)))
        img = m.apply(Point.finite((z + 1, z + 1)))
        assert img == Point.finite((Quartic2(1), Quartic2(0)))

    def test_quartic_translation(self):
        p = Point.finite((THETA, THETA ** 3))
        m = normalize(p, Point.infinity(2))
        assert m.apply(p) == Point.finite((Quartic2(0), Quartic2(0)))

    def test_householder_3d(self):
        m = normalize(Point.finite((0, 0, 0)), Point.infinity(3), Point.finite((3, 4, 0)))
        assert m.apply(Point.finite((3, 4, 0))) == Point.finite((1, 0, 0))
        with pytest.raises(NormalizationError):
            normalize(Point.finite((0, 0, 0)), Point.infinity(3), Point.finite((1, 1, 0)))

    @given(st.tuples(coords, coords), st.tuples(coords, coords), st.tuples(coords, coords))
    @settings(deadline=None)
    def test_random_triples(self, a, b, c):
        pts = {a, b, c}
        if len(pts) < 3:
            return
        p, q, r = Point.finite(a), Point.finite(b), Point.finite(c)
        try:
            m = normalize(p, q, r)
        except NormalizationError:
            return
        assert m.apply(p) == Point.finite((0, 0))
        assert m.apply(q) == Point.infinity(2)
        assert m.apply(r) == Point.finite((1, 0))


class TestCrossRatioInvariance:
    def test_parity_aware_invariance(self):
        rng = random.Random(19)
        checked = 0
        while checked < 25:
            pts = [rand_point(rng) for _ in range(4)]
            if len(set(pts)) < 4:
                continue
            cr = cross_ratio(*pts)
            m = rand_map(rng)
            images = [m.apply(p) for p in pts]
            if len(set(images)) < 4:
                continue
            cr2 = cross_ratio(*images)
            if cr is CR_INFINITY or cr2 is CR_INFINITY:
                assert cr is cr2
            elif len(m.factors) % 2 == 0:
                assert cr2 == cr
            else:
                # odd factor counts reverse orientation and conjugate
                assert cr2 == (cr[0], -cr[1])
            checked += 1


# ---------------------------------------------------------------------------
# the per-factor formulas the primitives carried before they became
# reflections of the light-cone model, kept verbatim as its oracle


def reference_inversion_apply(self, p):
    if p.is_infinity:
        return Point.finite(self.center)
    w = vec_sub(p.coords, self.center)
    ww = vec_dot(w, w)
    if is_zero(ww):
        return Point.infinity(self.dim)
    return Point.finite(vec_add(self.center, vec_scale(self.radius_sq / ww, w)))


def reference_inversion_image_sphere(self, s):
    m, rho = self.center, self.radius_sq
    mm = vec_dot(m, m)
    k = s.c * mm + vec_dot(s.b, m) + s.a
    c2 = k
    b2 = vec_add(vec_scale(rho, s.b), vec_scale(2 * (s.c * rho - k), m))
    a2 = k * mm - 2 * s.c * rho * mm + s.c * rho * rho - rho * vec_dot(s.b, m)
    return Hypersphere.make(c2, b2, a2)


def reference_reflection_apply(self, p):
    if p.is_infinity:
        return p
    u, s = self.normal, self.offset
    lam = 2 * (vec_dot(u, p.coords) + s) / vec_dot(u, u)
    return Point.finite(vec_sub(p.coords, vec_scale(lam, u)))


def reference_reflection_image_sphere(self, s):
    u, off = self.normal, self.offset
    uu = vec_dot(u, u)
    bu = vec_dot(s.b, u)
    b2 = vec_add(s.b, vec_scale((4 * s.c * off - 2 * bu) / uu, u))
    a2 = s.a + (4 * s.c * off * off - 2 * off * bu) / uu
    return Hypersphere.make(s.c, b2, a2)


def reference_apply(factors, p):
    for f in factors:
        if isinstance(f, SphereInversion):
            p = reference_inversion_apply(f, p)
        else:
            p = reference_reflection_apply(f, p)
    return p


def reference_image_sphere(factors, s):
    for f in factors:
        if isinstance(f, SphereInversion):
            s = reference_inversion_image_sphere(f, s)
        else:
            s = reference_reflection_image_sphere(f, s)
    return s


_TYPE_OF_KIND = {"rational": F, "quartic": Quartic2, "float": float}


def _factor_scalars(factors):
    for f in factors:
        if isinstance(f, SphereInversion):
            yield from (*f.center, f.radius_sq)
        else:
            yield from (*f.normal, f.offset)


def kind_rule(factors, scalars):
    """The scalar type of an image: the common kind of the input's scalars
    (none for infinity) and of every factor."""
    return _TYPE_OF_KIND[common_kind([*scalars, *_factor_scalars(factors)])]


def _rat(rng, num=9, den=4):
    return F(rng.randint(-num, num), rng.randint(1, den))


def _quartic_or_rat(rng, quartic):
    x = _rat(rng)
    return x + _rat(rng, 2, 2) * THETA + _rat(rng, 2, 2) * THETA ** 2 if quartic else x


def seeded_word(rng, n, max_factors=4, quartic_share=0.2):
    factors = []
    for _ in range(rng.randint(1, max_factors)):
        quartic = rng.random() < quartic_share
        if rng.random() < 0.5:
            center = tuple(_quartic_or_rat(rng, quartic) for _ in range(n))
            r2 = F(rng.randint(4, 12), 2)
            if quartic:
                r2 += rng.choice([-1, 0, 1]) * THETA
            factors.append(SphereInversion(center, r2))
        else:
            normal = tuple(_quartic_or_rat(rng, quartic) for _ in range(n))
            if all(x == 0 for x in normal):
                normal = (F(1),) + (F(0),) * (n - 1)
            factors.append(HyperplaneReflection(normal, _quartic_or_rat(rng, quartic)))
    return MoebiusMap(tuple(factors), n)


def _probes(rng, m):
    """Infinity, random points, every inversion centre, and the point the
    word sends to infinity."""
    n = m.dim
    pts = [Point.infinity(n)] + [Point.finite([_rat(rng) for _ in range(n)])
                                 for _ in range(3)]
    pts += [Point.finite(f.center) for f in m.factors if isinstance(f, SphereInversion)]
    pts.append(reference_apply(m.inverse().factors, Point.infinity(n)))
    return pts


def _spheres(rng, m):
    """Random spheres, and spheres through each probe (the spheres through
    an inversion centre or the preimage of infinity become flats)."""
    n = m.dim
    out = []
    for anchor in _probes(rng, m):
        for _ in range(4):
            pts = [anchor] + [Point.finite([_rat(rng) for _ in range(n)]) for _ in range(n)]
            try:
                out.append(sphere_through(pts))
            except GeometryError:
                continue
            break
    return out


def assert_point_matches(got, factors, p):
    expected = reference_apply(factors, p)
    assert got == expected
    if not got.is_infinity:
        want = kind_rule(factors, p.coords or ())
        assert all(type(x) is want for x in got.coords), (got, want)


def assert_sphere_matches(got, factors, s):
    assert got == reference_image_sphere(factors, s)
    want = kind_rule(factors, (s.c, *s.b, s.a))
    assert all(type(x) is want for x in (got.c, *got.b, got.a)), (got, want)


class TestAgainstPerFactorReference:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_seeded_words(self, n):
        rng = random.Random(600 + n)
        flats = 0
        for _ in range(25):
            m = seeded_word(rng, n)
            for p in _probes(rng, m):
                assert_point_matches(m.apply(p), m.factors, p)
                for f in m.factors:
                    assert_point_matches(f.apply(p), (f,), p)
            for s in _spheres(rng, m):
                img = m.image_sphere(s)
                flats += img.is_flat
                assert_sphere_matches(img, m.factors, s)
                for f in m.factors:
                    assert_sphere_matches(f.image_sphere(s), (f,), s)
        assert flats > 0

    def test_kind_rule_on_orbits_through_infinity(self):
        # the reflection keeps infinity; the old formulas then handed the
        # rational centre on as Fractions, the reflections answer in the
        # common kind of every factor
        word = MoebiusMap.of(HyperplaneReflection((THETA, F(0)), F(0)),
                             SphereInversion((F(1), F(2)), F(3)))
        img = word.apply(Point.infinity(2))
        assert img == Point.finite((1, 2))
        assert all(type(x) is Quartic2 for x in img.coords)
        rational = reference_apply(word.factors, Point.infinity(2))
        assert all(type(x) is F for x in rational.coords)

    def test_float_word(self):
        rng = random.Random(17)
        for _ in range(20):
            m = seeded_word(rng, 2, quartic_share=0)
            # one float factor among exact ones: mirror rows must not keep
            # exact literals beside float entries
            f = m.factors[0]
            if isinstance(f, SphereInversion):
                fl = SphereInversion(tuple(map(float, f.center)), float(f.radius_sq))
            else:
                fl = HyperplaneReflection(tuple(map(float, f.normal)), float(f.offset))
            word = MoebiusMap((fl,) + m.factors[1:], 2)
            for p in [Point.infinity(2)] + [Point.finite([_rat(rng) for _ in range(2)])
                                            for _ in range(5)]:
                got, expected = word.apply(p), reference_apply(word.factors, p)
                assert got.is_infinity == expected.is_infinity
                if got.is_infinity:
                    continue
                assert all(type(x) is float for x in got.coords)
                for x, y in zip(got.coords, expected.coords):
                    assert abs(x - y) <= EPSILON * max(1.0, abs(y))
            centre = (_rat(rng), _rat(rng))
            s = Hypersphere.make(1, vec_scale(-2, centre), vec_dot(centre, centre) - 4)
            # the old reflection formula kept c exact beside float entries
            # and raised BackendMismatch on an exact sphere, so the oracle
            # gets the sphere in floats
            s_float = Hypersphere.make(float(s.c), tuple(map(float, s.b)), float(s.a))
            got, expected = word.image_sphere(s), reference_image_sphere(word.factors, s_float)
            for x, y in zip((got.c, *got.b, got.a), (expected.c, *expected.b, expected.a)):
                assert type(x) is float and abs(x - y) <= EPSILON

    def assert_float_close(self, factors, pts):
        m = MoebiusMap(tuple(factors), factors[0].dim)
        for p in pts:
            got, expected = m.apply(p), reference_apply(factors, p)
            assert got.is_infinity == expected.is_infinity, (p, got, expected)
            if not got.is_infinity:
                for x, y in zip(got.coords, expected.coords):
                    assert type(x) is float and abs(x - y) <= EPSILON * max(1.0, abs(y))

    def test_float_small_normal_reflection(self):
        # D = <u,u> = 1e-10 scales X_W; it must not read as infinity
        for normal, offset in [((1e-5, 0.0), 0.0), ((1e-5, -3e-5), 2e-5), ((1e-4, 0.0, 1e-4), 0.0)]:
            f = HyperplaneReflection(normal, offset)
            n = len(normal)
            pts = [Point.infinity(n), Point.finite((1.0, 2.0, -0.5)[:n]),
                   Point.finite((-3.0, 0.25, 7.0)[:n])]
            self.assert_float_close([f], pts)
            self.assert_float_close([f, f], pts)

    def test_float_translation_and_scaling(self):
        pts = [Point.infinity(2), Point.finite((1.0, 2.0)), Point.finite((-0.3, 0.001))]
        for v in [(1e-3, 0.0), (1e-3, -2e-3), (-250.0, 40.0)]:
            self.assert_float_close(translation_factors(v), pts)
        for s in [1e-4, 0.5, 1e4]:
            self.assert_float_close(scaling_factors(s, 2), pts)
            self.assert_float_close(scaling_factors(s, 2) + translation_factors((0.5, 0.0)), pts)

    def test_float_normalize(self):
        p, q, r = Point.finite((1e-3, 0.0)), Point.finite((0.75, -2.0)), Point.finite((0.5, 1.5))
        cases = [(p, Point.infinity(2), None), (p, q, None), (q, p, None), (p, q, r),
                 (p, Point.infinity(2), r), (Point.infinity(2), q, r),
                 (Point.finite((1e-3, 0.0, 2.0)), Point.finite((0.0, 0.0, 1.0)),
                  Point.finite((2.0, 0.0, -1.0)))]
        for a, b, c in cases:
            m = normalize(a, b, c)
            n = m.dim
            probes = [a, b] + ([c] if c else []) + [Point.finite((0.25, -1.0, 3.0)[:n])]
            self.assert_float_close(list(m.factors), probes)

    def test_float_image_is_the_exact_image_rounded(self):
        # lifted float coordinates would cancel near a centre and lose a small
        # radius beside a far centre; floats are taken as binary fractions
        def exact_twin(f):
            if isinstance(f, SphereInversion):
                return SphereInversion(tuple(map(F, f.center)), F(f.radius_sq))
            return HyperplaneReflection(tuple(map(F, f.normal)), F(f.offset))

        small = normalize(Point.finite((1e-3, 2e-4)), Point.finite((0.0, 0.0)),
                          Point.finite((1e-4, 0.0)))
        cases = [([SphereInversion((1e9, 0.0), 1.0)], (1e9 + 0.5, 0.0)),
                 ([SphereInversion((1e5, -2.0), 1e-3)], (1e5 + 0.5, -2.0)),
                 ([SphereInversion((0.0, 0.0), 1.0)], (1e-4, 0.0)),
                 ([SphereInversion((0.1, 0.2), 3.0)], (0.1 + 1e-4, 0.2)),
                 ([HyperplaneReflection((1e-5, 3.0), 0.7)], (1.0, 2.0)),
                 (list(small.factors), (1e-4, 0.0)),
                 (list(small.factors), (0.3, -0.7))]
        for factors, x in cases:
            m = MoebiusMap(tuple(factors), 2)
            twin = MoebiusMap(tuple(map(exact_twin, factors)), 2)
            exact = twin.apply(Point.finite([F(c) for c in x]))
            assert m.apply(Point.finite(x)).coords == tuple(map(float, exact.coords))
            if max(map(abs, x)) > 10:
                # spheres there are degenerate in unit-normalized float coefficients
                continue
            s = Hypersphere.make(1.0, (-1.0, 0.5), -3.6875)
            img = twin.image_sphere(Hypersphere.make(F(s.c), tuple(map(F, s.b)), F(s.a)))
            assert m.image_sphere(s) == Hypersphere.make(
                float(img.c), tuple(map(float, img.b)), float(img.a))
        assert small.apply(Point.finite((1e-4, 0.0))).coords[0] == 1.0

    def test_float_infinity_is_a_stretch_past_one_over_epsilon(self):
        f = SphereInversion((0.0, 0.0), 1.0)
        # |x|^2 just below and just above EPSILON, as the old formula decided
        self.assert_float_close([f], [Point.finite((3e-5, 0.0)), Point.finite((3.2e-5, 0.0))])
        assert f.apply(Point.finite((3e-5, 0.0))).is_infinity
        assert MoebiusMap.of(*scaling_factors(1e10, 2)).apply(Point.finite((1.0, 0.0))).is_infinity

    def test_float_input_under_exact_word(self):
        f = SphereInversion((F(1), F(1, 2)), F(2))
        self.assert_float_close([f], [Point.finite((0.25, -1.0))])
        s = Hypersphere.make(1.0, (-1.0, 0.5), -3.6875)
        got, expected = f.image_sphere(s), reference_image_sphere([f], s)
        for x, y in zip((got.c, *got.b, got.a), (expected.c, *expected.b, expected.a)):
            assert type(x) is float and abs(x - y) <= EPSILON

    def test_float_beside_quartic_is_refused(self):
        f = SphereInversion((0.5, 0.0), 1.0)
        with pytest.raises(BackendMismatch):
            f.apply(Point.finite((THETA, F(1))))
        with pytest.raises(BackendMismatch):
            f.image_sphere(Hypersphere.make(1, (THETA, 0), -1))

    @given(st.lists(st.tuples(st.booleans(), st.tuples(coords, coords), coords,
                              st.sampled_from([F(0), F(1), THETA])),
                    min_size=1, max_size=5),
           st.one_of(st.none(), st.tuples(coords, coords)))
    @settings(deadline=None, max_examples=60)
    def test_hypothesis_words(self, specs, pt):
        factors = []
        for is_inversion, vec, scalar, twist in specs:
            vec = (vec[0] + twist, vec[1])
            if is_inversion:
                factors.append(SphereInversion(vec, abs(scalar) + 1))
            elif any(vec):
                factors.append(HyperplaneReflection(vec, scalar))
        if not factors:
            return
        m = MoebiusMap(tuple(factors), 2)
        p = Point.infinity(2) if pt is None else Point.finite(pt)
        for q in (p, reference_apply(m.inverse().factors, Point.infinity(2))):
            assert_point_matches(m.apply(q), m.factors, q)
        through = {p, Point.finite((0, 0)), Point.finite((1, 2))}
        if len(through) == 3:
            s = sphere_through(list(through))
            assert_sphere_matches(m.image_sphere(s), m.factors, s)


# ---------------------------------------------------------------------------
# the planar normalize that built z -> ((z - p)(r - q)) / ((z - q)(r - p))
# from complex arithmetic before the plane took the general path, kept
# verbatim as its oracle


def _zero_vec(n, k):
    z = promote(0, k) if k != "rational" else F(0)
    return tuple(z for _ in range(n))


def _reciprocal_factors(k):
    # z -> 1/z: unit inversion (z -> 1/conj(z)) then conjugation
    origin = _zero_vec(2, k)
    one = promote(1, k)
    zero = one - one
    return [
        SphereInversion(origin, one),
        HyperplaneReflection((zero, one), zero),
    ]


def rotation_factors(unit):
    """Planar rotation by the angle of a unit complex number, as two line
    reflections through the origin (the second mirror at half angle)."""
    u, v = unit
    if not is_zero(u * u + v * v - 1):
        raise GeometryError("rotation needs a unit complex number")
    if is_zero(v) and sign_of(u) > 0:
        return []
    k = common_kind([u, v])
    one = promote(1, k)
    zero = one - one
    x_axis = HyperplaneReflection((zero, one), zero)
    if is_zero(v) and sign_of(u) < 0:
        # rotation by pi
        return [x_axis, HyperplaneReflection((one, zero), zero)]
    # mirror along the half-angle direction (1+u, v); its normal is (-v, 1+u)
    return [x_axis, HyperplaneReflection((-v, one + u), zero)]


def complex_scaling_factors(nu):
    """Multiplication by the complex number nu, when |nu| lies in the field."""
    s2 = nu[0] * nu[0] + nu[1] * nu[1]
    if is_zero(s2):
        raise GeometryError("cannot scale by zero")
    s = sqrt_in_field(s2)
    if s is None:
        raise NormalizationError("similarity ratio |%r| is outside the scalar field" % (nu,))
    factors = scaling_factors(s, 2)
    factors += rotation_factors((nu[0] / s, nu[1] / s))
    return factors


def _three_point_plane_factors(p, q, r):
    k = common_kind([x for pt in (p, q, r) for x in pt.coords or ()])
    one = promote(1, k)
    factors = []
    if q.is_infinity:
        # z -> (z - p) / (r - p)
        factors += translation_factors(vec_scale(-1, p.coords))
        nu = _cdiv((one, one - one), vec_sub(r.coords, p.coords))
        factors += complex_scaling_factors(nu)
        return factors
    factors += translation_factors(vec_scale(-1, q.coords))
    factors += _reciprocal_factors(k)
    if p.is_infinity:
        # z -> (r - q) / (z - q)
        factors += complex_scaling_factors(vec_sub(r.coords, q.coords))
        return factors
    if r.is_infinity:
        # z -> 1 + (q - p) / (z - q)
        factors += complex_scaling_factors(vec_sub(q.coords, p.coords))
        factors += translation_factors((one, one - one))
        return factors
    mu = _cdiv(vec_sub(r.coords, q.coords), vec_sub(r.coords, p.coords))
    nu = _cmul(mu, vec_sub(q.coords, p.coords))
    factors += complex_scaling_factors(nu)
    factors += translation_factors(mu)
    return factors


def reference_normalize_plane(p, q, r):
    (p, q, r), _ = _uniform([p, q, r])
    return MoebiusMap(tuple(_three_point_plane_factors(p, q, r)), 2)


def _normalize_probes(rng, p, q, r):
    """The triple, infinity and five random rational points."""
    return [p, q, r, Point.infinity(2)] + [rand_point(rng) for _ in range(5)]


def assert_same_normalize(rng, p, q, r):
    """Both raise NormalizationError, or both maps agree exactly on the
    probes; returns whether a map was built."""
    try:
        want = reference_normalize_plane(p, q, r)
    except NormalizationError:
        with pytest.raises(NormalizationError):
            normalize(p, q, r)
        return False
    got = normalize(p, q, r)
    for x in _normalize_probes(rng, p, q, r):
        assert got.apply(x) == want.apply(x), (p, q, r, x)
    return True


class TestAgainstPlanarReference:
    def test_images_of_zero_infinity_e1_under_words(self):
        rng = random.Random(1717)
        anchors = [Point.finite((0, 0)), Point.infinity(2), Point.finite((1, 0))]
        built = refused = 0
        for _ in range(150):
            word = seeded_word(rng, 2, max_factors=5, quartic_share=0.3)
            triple = [word.apply(x) for x in anchors]
            if rng.random() < 0.2:
                rng.shuffle(triple)
            if assert_same_normalize(rng, *triple):
                built += 1
            else:
                refused += 1
        assert built > 50 and refused > 0

    def test_infinity_in_each_place(self):
        rng = random.Random(29)
        built = [0, 0, 0]
        for _ in range(60):
            for place in range(3):
                triple = [Point.finite((rng.randint(-6, 6), rng.randint(-6, 6)))
                          for _ in range(2)]
                if triple[0] == triple[1]:
                    continue
                triple.insert(place, Point.infinity(2))
                built[place] += assert_same_normalize(rng, *triple)
        assert min(built) > 5

    def test_random_rational_triples(self):
        # a small grid at one random scale, so that some lengths are rational
        rng = random.Random(31)
        built = refused = 0
        for _ in range(300):
            d = rng.randint(1, 4)
            triple = [Point.finite((F(rng.randint(-3, 3), d), F(rng.randint(-3, 3), d)))
                      for _ in range(3)]
            if len(set(triple)) == 3:
                ok = assert_same_normalize(rng, *triple)
                built, refused = built + ok, refused + (not ok)
        assert built > 10 and refused > 0

    def test_float_triples(self):
        rng = random.Random(37)
        for _ in range(100):
            triple = [Point.finite((rng.uniform(-4, 4), rng.uniform(-4, 4)))
                      for _ in range(3)]
            if rng.random() < 0.3:
                triple[rng.randrange(3)] = Point.infinity(2)
            got, want = normalize(*triple), reference_normalize_plane(*triple)
            for x in _normalize_probes(rng, *triple):
                a, b = got.apply(x), want.apply(x)
                assert a.is_infinity == b.is_infinity
                for u, v in zip(a.coords or (), b.coords or ()):
                    assert abs(u - v) <= EPSILON * max(1.0, abs(v))
