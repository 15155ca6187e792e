"""The immutable value types against frozen-dataclass twins.

Each of the 20 value types gets a `dataclasses.dataclass(frozen=True)` twin
over the same fields, with the validation the types ran as frozen
dataclasses (in `__post_init__`). On seeded instances the type and its twin
must agree on ==, hash and repr, and on which exception class refuses a bad
input."""

import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest

from inversive.colorings import (
    FlagEuclidean,
    FlagInversive,
    PointListBackground,
    TwoLine,
    num_colors,
)
from inversive.euclid import GreatFlat, GreatIntersection, great_flat_through, great_intersection
from inversive.exactnum import (SQRT2, THETA, BackendMismatch, Quartic2, common_kind, is_zero,
                               promote, sign_of)
from inversive.geom import (
    Flat,
    GeometryError,
    Hypersphere,
    Point,
    SubSphere,
    concyclic,
    on_sphere,
    separated,
    smallest_sphere,
    sphere_through,
)
from inversive.moebius import HyperplaneReflection, MoebiusMap, SphereInversion
from inversive.wcp import (
    CgpReport,
    FiniteImageMap,
    FivePointRefutation,
    WcpViolation,
    _image_points_valid,
    build_sharp_map,
    circular_general_position,
)
from inversive.witness import (ColoredConfig, ColoringError, PolychromaticWitness,
                               SeparationWitness, separating_circle_5pts)

from helpers import rational_sphere_points

F = Fraction
P = Point.finite


# ---- the checks each type ran in its dataclass __post_init__ ----

def _subsphere_check(self):
    ambient = self.carrier.ambient
    if self.surface is None:
        if self.carrier.dim != ambient:
            raise GeometryError("surface None needs the whole space as carrier")
    elif self.surface.dim != ambient:
        raise GeometryError("surface and carrier disagree in dimension")
    elif self.carrier.dim < 1:
        raise GeometryError("a surface cannot cut a carrier of dimension 0")


def _polychromatic_check(self):
    pts = [p for p, _ in self.on_points]
    if len(set(pts)) != len(pts):
        raise GeometryError("witness points must be distinct")
    for p, _ in self.on_points:
        if not self.sphere.contains(p):
            raise GeometryError("witness point is off the sphere")
    if frozenset(c for _, c in self.on_points) != self.color_set:
        raise GeometryError("witness color set does not match its points")


def _separation_check(self):
    n = self.sphere.dim + 1
    if len(self.defining) != n or len({p for p, _ in self.defining}) != n:
        raise GeometryError("a separation witness needs n distinct defining points")
    colors = [c for _, c in self.defining] + [c for _, c in self.separated_pair]
    if len(set(colors)) != len(colors):
        raise GeometryError("separation witness colors must be distinct")
    for p, _ in self.defining:
        if not on_sphere(p, self.sphere):
            raise GeometryError("defining point is off the sphere")
    (x, _), (y, _) = self.separated_pair
    if not separated(x, y, self.sphere):
        raise GeometryError("claimed pair is not separated")


def _dimension_check(self):
    if self.n < 1:
        raise ColoringError("ambient dimension must be at least 1")


def _point_list_check(self):
    if len(self.points) != len(self.colors):
        raise ColoringError("points and colors must align")
    if len(set(self.points)) != len(self.points):
        raise ColoringError("listed points must be distinct")
    for p in self.points:
        if p.dim != self.n:
            raise ColoringError("listed point has the wrong dimension")
    realized = set(self.colors) | {self.background}
    if min(realized) < 1 or realized != set(range(1, max(realized) + 1)):
        raise ColoringError("colors must realize 1..k with no gaps")


def _config_check(self):
    pts = [p for p, _ in self.items]
    if len(set(pts)) != len(pts):
        raise ColoringError("configuration points must be distinct")
    for p, c in self.items:
        if p.dim != self.n:
            raise ColoringError("configuration point has the wrong dimension")
        if not 1 <= c <= self.k:
            raise ColoringError("color outside 1..k")


def _image_map_check(self):
    if isinstance(self.coloring, FlagEuclidean) or self.coloring.n != 2:
        raise GeometryError("the domain must be the plane with infinity")
    _image_points_valid(self.image)
    if len(set(self.image)) != len(self.image):
        raise GeometryError("image points must be pairwise distinct")
    k = num_colors(self.coloring)
    if set(self.table.keys()) != set(range(1, k + 1)):
        raise GeometryError("table must assign every color 1..k")
    if any(not 0 <= v < len(self.image) for v in self.table.values()):
        raise GeometryError("table entry points outside the image list")


def _cgp_check(self):
    if self.verdict != (self.circle is None):
        raise GeometryError("a False verdict needs exactly one violating circle")
    if self.circle is not None:
        for p in self.on_circle:
            if not self.circle.contains(p):
                raise GeometryError("reported point is off the violating circle")


def _four_images_check(self):
    if len(self.images) != 4 or len(set(self.images)) != 4:
        raise GeometryError("four distinct image points are needed")
    if concyclic(*self.images):
        raise GeometryError("images are concyclic")


def _violation_check(self):
    _four_images_check(self)
    for p in self.domain_points:
        if not on_sphere(p, self.circle):
            raise GeometryError("domain point is off the sampled circle")


def _moebius_check(self):
    if any(f.dim != self.dim for f in self.factors):
        raise GeometryError("factor dimension mismatch")


def _inversion_check(self):
    k = common_kind([*self.center, self.radius_sq])
    object.__setattr__(self, "center", tuple(promote(x, k) for x in self.center))
    object.__setattr__(self, "radius_sq", promote(self.radius_sq, k))
    if sign_of(self.radius_sq) <= 0:
        raise GeometryError("inversion needs a positive squared radius")


def _reflection_check(self):
    k = common_kind([*self.normal, self.offset])
    object.__setattr__(self, "normal", tuple(promote(x, k) for x in self.normal))
    object.__setattr__(self, "offset", promote(self.offset, k))
    if all(is_zero(x) for x in self.normal):
        raise GeometryError("reflection needs a nonzero normal")


# type -> (its fields as a frozen dataclass, with defaults; its __post_init__)
SPECS = {
    Point: (["coords", "dim"], None),
    Hypersphere: (["c", "b", "a"], None),
    Flat: (["basepoint", "basis"], None),
    SubSphere: (["carrier", "surface"], _subsphere_check),
    PolychromaticWitness: (["sphere", "on_points", "color_set"], _polychromatic_check),
    SeparationWitness: (["sphere", "defining", "separated_pair"], _separation_check),
    FlagInversive: (["n"], _dimension_check),
    TwoLine: ([("extended", bool, dataclasses.field(default=False))], None),
    FlagEuclidean: (["n"], _dimension_check),
    PointListBackground: (["n", "points", "colors", "background"], _point_list_check),
    ColoredConfig: (["n", "k", "items"], _config_check),
    GreatFlat: (["basis"], None),
    GreatIntersection: (["direction", "points", "exact"], None),
    FiniteImageMap: (["coloring", "image", "table"], _image_map_check),
    CgpReport: (["verdict", "circle", ("on_circle", tuple, dataclasses.field(default=()))],
                _cgp_check),
    WcpViolation: (["sample_index", "circle", "domain_points", "images"], _violation_check),
    FivePointRefutation: (["witness", "domain_points", "images"], _four_images_check),
    MoebiusMap: (["factors", "dim"], _moebius_check),
    SphereInversion: (["center", "radius_sq"], _inversion_check),
    HyperplaneReflection: (["normal", "offset"], _reflection_check),
}


def _field_names(cls):
    return tuple(f if isinstance(f, str) else f[0] for f in SPECS[cls][0])


def twin(cls):
    """The frozen dataclass the type was, keeping a __repr__ of its own."""
    fields, check = SPECS[cls]
    namespace = {k: v for k, v in vars(cls).items() if k == "__repr__"}
    if check is not None:
        namespace["__post_init__"] = check
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)


TWINS = {cls: twin(cls) for cls in SPECS}


# ---- seeded instances ----

def _rat(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 5))


def _points(rng, count, n=2):
    out = []
    while len(out) < count:
        p = P(tuple(_rat(rng) for _ in range(n)))
        if p not in out:
            out.append(p)
    return out


def _general(rng, count):
    """count points of the plane, no three on a line and no four on a circle."""
    while True:
        pts = _points(rng, count)
        try:
            if all(not sphere_through(list(t)).is_flat for t in combinations(pts, 3)) and \
                    not any(concyclic(*q) for q in combinations(pts, 4)):
                return pts
        except GeometryError:
            pass


def _witness(rng):
    pts = _general(rng, 3)
    return PolychromaticWitness(sphere_through(pts), tuple((p, i + 1) for i, p in enumerate(pts)),
                                frozenset({1, 2, 3}))


def instances(cls, seed):
    """Seeded valid instances of the type, some of them equal to each other."""
    rng = random.Random(seed)
    if cls is Point:
        p, q = _points(rng, 2, rng.randint(1, 3))
        return [p, P(p.coords), q, Point.infinity(p.dim), P((THETA * _rat(rng), _rat(rng))),
                P((0.5, rng.random()))]
    if cls is Hypersphere:
        pts = _general(rng, 3)
        s = sphere_through(pts)
        return [s, Hypersphere(s.c, s.b, s.a), sphere_through(pts[:2] + [Point.infinity(2)]),
                Hypersphere.make(1.0, (rng.random(), 0.0), -1.0),
                Hypersphere.make(Quartic2(1), (Quartic2(rng.randint(0, 3)), Quartic2(0)), -SQRT2)]
    if cls is Flat:
        pts = _points(rng, 3, 3)
        return [Flat.through(pts), Flat.through(pts[:2]), Flat.through(list(reversed(pts)))]
    if cls is SubSphere:
        pts = _points(rng, 3, 3)
        whole = Flat.through([P((0, 0)), P((1, 0)), P((0, 1))])
        return [smallest_sphere(pts), smallest_sphere(pts[:2]), SubSphere(whole, None),
                smallest_sphere(list(reversed(pts)))]
    if cls is PolychromaticWitness:
        w = _witness(rng)
        return [w, PolychromaticWitness(w.sphere, w.on_points[:2], frozenset({1, 2})),
                _witness(rng)]
    if cls is SeparationWitness:
        pts = _general(rng, 5)
        w = separating_circle_5pts([(p, i + 1) for i, p in enumerate(pts)])
        return [w, SeparationWitness(w.sphere, w.defining, w.separated_pair[::-1])]
    if cls in (FlagInversive, FlagEuclidean):
        return [cls(rng.randint(1, 3)), cls(rng.randint(1, 3)), cls(4)]
    if cls is TwoLine:
        return [TwoLine(), TwoLine(True), TwoLine(rng.random() < 0.5)]
    if cls is PointListBackground:
        pts = _points(rng, 3)
        return [PointListBackground(2, tuple(pts[:2]), (1, 2), 3),
                PointListBackground(2, tuple(pts), (2, 1, 3), 4),
                PointListBackground(2, (), (), 1)]
    if cls is ColoredConfig:
        s = rng.randint(0, 9)
        flag = FlagInversive(2)
        return [ColoredConfig.sample(flag, 2, s), ColoredConfig.sample(flag, 2, s),
                ColoredConfig.sample(TwoLine(), 1, s + 1)]
    if cls in (GreatFlat, GreatIntersection):
        a, b = (great_flat_through(rational_sphere_points(2, 2, rng.randint(0, 99)), 2)
                for _ in range(2))
        if cls is GreatFlat:
            return [a, b, great_flat_through(rational_sphere_points(2, 1, 3), 1)]
        return [great_intersection(a, b), great_intersection(b, a), great_intersection(a, a)]
    if cls is FiniteImageMap:
        m = build_sharp_map(_general(rng, 4))
        table = {i: i - 1 for i in range(1, 6)}
        return [m, FiniteImageMap(TwoLine(True), tuple(_points(rng, 5)), table)]
    if cls is CgpReport:
        cgp = circular_general_position
        return [cgp(_points(rng, 6)), cgp(_points(rng, 3)),
                CgpReport(True, None)]
    if cls in (WcpViolation, FivePointRefutation):
        domain = tuple(rational_sphere_points(1, 4, rng.randint(0, 99)))
        images = tuple(_general(rng, 4))
        if cls is WcpViolation:
            unit = sphere_through(list(domain[:3]))
            return [WcpViolation(rng.randint(0, 9), unit, domain, images),
                    WcpViolation(0, unit, domain[:1], images[::-1])]
        w = _witness(rng)
        return [FivePointRefutation(w, domain, images), FivePointRefutation(w, domain[:2], images)]
    if cls is SphereInversion:
        c, r = (_rat(rng), _rat(rng)), rng.randint(1, 9)
        return [SphereInversion(c, r), SphereInversion(c, F(r)), SphereInversion((0.5, 1.0), 2.0),
                SphereInversion((THETA, 0), 1)]
    if cls is HyperplaneReflection:
        n, o = (_rat(rng) or 1, _rat(rng)), rng.randint(-3, 3)
        return [HyperplaneReflection(n, o), HyperplaneReflection(n, F(o)),
                HyperplaneReflection((1.0, 0.0), 0.5)]
    assert cls is MoebiusMap
    inv = SphereInversion((_rat(rng), _rat(rng)), 1)
    ref = HyperplaneReflection((1, _rat(rng)), _rat(rng))
    return [MoebiusMap.of(inv, ref), MoebiusMap.of(inv, ref), MoebiusMap.of(ref, inv),
            MoebiusMap.identity(2), MoebiusMap.identity(3)]


def _args(cls, x):
    return tuple(getattr(x, f) for f in _field_names(cls))


def _hash(x):
    """hash(x), or TypeError for a value with an unhashable field (a map's table)."""
    try:
        return hash(x)
    except TypeError:
        return TypeError


VALUE_TYPES = list(SPECS)
IDS = [cls.__name__ for cls in VALUE_TYPES]


def test_every_value_type_has_a_twin():
    assert len(VALUE_TYPES) == 20


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=IDS)
def test_fields_are_the_init_parameters(cls):
    assert cls._fields == _field_names(cls)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("cls", VALUE_TYPES, ids=IDS)
def test_eq_hash_and_repr_match_the_twin(cls, seed):
    xs = instances(cls, seed)
    ts = [TWINS[cls](*_args(cls, x)) for x in xs]
    for x, t in zip(xs, ts):
        assert repr(x) == repr(t)
        assert _hash(x) == _hash(t)
        rebuilt = cls(*_args(cls, x))
        assert rebuilt == x and not rebuilt != x and _hash(rebuilt) == _hash(x)
        assert x != t and x != _args(cls, x) and x.__eq__(t) is NotImplemented
    for x, t in zip(xs, ts):
        for y, u in zip(xs, ts):
            assert (x == y) == (t == u) and (x != y) == (t != u)
    # set orders follow the hashes, so they match the twins' too
    if _hash(xs[0]) is not TypeError:
        assert [_args(cls, x) for x in set(xs)] == [_args(cls, t) for t in set(ts)]


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=IDS)
def test_keyword_construction(cls):
    for x in instances(cls, 7):
        kwargs = dict(zip(_field_names(cls), _args(cls, x)))
        assert cls(**kwargs) == x == cls(*kwargs.values())
        assert repr(cls(**kwargs)) == repr(TWINS[cls](**kwargs))


def test_defaults():
    assert TwoLine() == TwoLine(extended=False) and TwoLine().extended is False
    assert repr(TwoLine()) == repr(TWINS[TwoLine]()) == "TwoLine(extended=False)"
    report = CgpReport(True, None)
    assert report.on_circle == () == TWINS[CgpReport](True, None).on_circle
    assert report == CgpReport(verdict=True, circle=None, on_circle=())
    assert repr(report) == repr(TWINS[CgpReport](True, None))


def test_primitives_promote_their_fields_as_before():
    for cls, args in ((SphereInversion, ((1, F(1, 2)), 3)), (SphereInversion, ((THETA, 0), 1)),
                      (HyperplaneReflection, ((1, 0), 2)),
                      (HyperplaneReflection, ((0.5, 1.0), 2.0))):
        x, t = cls(*args), TWINS[cls](*args)
        assert repr(x) == repr(t) and hash(x) == hash(t)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=IDS)
def test_assignment_and_del_raise_attribute_error(cls):
    x = instances(cls, 1)[0]
    t = TWINS[cls](*_args(cls, x))
    before = (repr(x), _hash(x))
    for name in _field_names(cls) + ("not_a_field",):
        for obj in (x, t):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert (repr(x), _hash(x)) == before


def _rejections():
    """(type, arguments) the dataclass validation refused, one per check."""
    a, b, c, d = _general(random.Random(5), 4)
    s = sphere_through([a, b, c])
    line = Flat.through([P((0, 0)), P((1, 0))])
    plane3 = Flat.through([P((0, 0, 0)), P((1, 0, 0)), P((0, 1, 0))])
    off = P((100, 100))
    domain = tuple(rational_sphere_points(1, 4, 0))
    unit = sphere_through(list(domain[:3]))
    images = (a, b, c, d)
    concyclic_images = tuple(domain)
    w = PolychromaticWitness(s, ((a, 1), (b, 2), (c, 3)), frozenset({1, 2, 3}))
    sharp = (FlagInversive(2), images, {1: 0, 2: 1, 3: 2, 4: 3})
    inv3 = SphereInversion((0, 0, 0), 1)
    return [
        (SubSphere, (line, None)),
        (SubSphere, (plane3, s)),
        (SubSphere, (Flat.through([P((0, 0))]), s)),
        (PolychromaticWitness, (s, ((a, 1), (a, 2)), frozenset({1, 2}))),
        (PolychromaticWitness, (s, ((a, 1), (off, 2)), frozenset({1, 2}))),
        (PolychromaticWitness, (s, ((a, 1), (b, 2)), frozenset({1, 3}))),
        (SeparationWitness, (s, ((a, 1), (b, 2)), ((off, 4), (d, 5)))),
        (SeparationWitness, (s, ((a, 1), (b, 2), (c, 3)), ((off, 1), (d, 5)))),
        (SeparationWitness, (s, ((a, 1), (b, 2), (off, 3)), ((P((0, 0)), 4), (d, 5)))),
        (SeparationWitness, (s, ((a, 1), (b, 2), (c, 3)), ((off, 4), (P((101, 100)), 5)))),
        (FlagInversive, (0,)),
        (FlagEuclidean, (0,)),
        (PointListBackground, (2, (a, b), (1,), 2)),
        (PointListBackground, (2, (a, a), (1, 2), 3)),
        (PointListBackground, (2, (P((1, 2, 3)),), (1,), 2)),
        (PointListBackground, (2, (a, b), (1, 3), 4)),
        (ColoredConfig, (2, 2, ((a, 1), (a, 2)))),
        (ColoredConfig, (2, 2, ((P((1, 2, 3)), 1),))),
        (ColoredConfig, (2, 2, ((a, 3),))),
        (FiniteImageMap, (FlagEuclidean(1),) + sharp[1:]),
        (FiniteImageMap, (FlagInversive(3),) + sharp[1:]),
        (FiniteImageMap, (sharp[0], ()) + sharp[2:]),
        (FiniteImageMap, (sharp[0], (a, a, b, c), sharp[2])),
        (FiniteImageMap, sharp[:2] + ({1: 0, 2: 1, 3: 2},)),
        (FiniteImageMap, sharp[:2] + ({1: 0, 2: 1, 3: 2, 4: 4},)),
        (CgpReport, (True, smallest_sphere([a, b, c]))),
        (CgpReport, (False, None)),
        (CgpReport, (False, smallest_sphere([a, b, c]), (a, off))),
        (WcpViolation, (0, unit, domain, images[:3])),
        (WcpViolation, (0, unit, domain, concyclic_images)),
        (WcpViolation, (0, unit, domain + (off,), images)),
        (FivePointRefutation, (w, domain, (a, a, b, c))),
        (FivePointRefutation, (w, domain, concyclic_images)),
        (MoebiusMap, ((inv3,), 2)),
        (SphereInversion, ((0, 0), 0)),
        (SphereInversion, ((0.5, F(1)), 1)),
        (HyperplaneReflection, ((0, 0), 1)),
        (HyperplaneReflection, ((1.0, 0.0), F(1))),
    ]


REJECTIONS = _rejections()


@pytest.mark.parametrize("cls, args", REJECTIONS,
                         ids=["%s-%d" % (c.__name__, i) for i, (c, _) in enumerate(REJECTIONS)])
def test_rejections_raise_the_twins_exception_class(cls, args):
    with pytest.raises(Exception) as ours:
        cls(*args)
    with pytest.raises(Exception) as theirs:
        TWINS[cls](*args)
    assert type(ours.value) is type(theirs.value)
    assert isinstance(ours.value, (GeometryError, BackendMismatch))
