"""Moebius transformations of R^n_inf as factor lists of primitive maps.

A primitive is a sphere inversion (carrying center and squared radius) or a
hyperplane reflection (mirror {x : <normal, x> + offset = 0}). Both are
involutions, so the inverse of a composition is the reversed list. Factors
apply first to last.

Every primitive is the reflection X -> D X - 2 (r . X) r* of the light-cone
model (`geom.lift_row`) in its mirror row r = (c, b, a), (1, -2m, <m,m> - rho)
or (0, u, s), with r* = (-2a, b, -2c) and D = <b,b> - 4ca > 0. A point leaves
as X_b / X_W (infinity when X_W is zero), a sphere enters as its dual and
leaves as (-X_W, 2 X_b, -X_0), in the common kind of input and factors. A
float is taken as the binary fraction it is, so a float image is the exact one
rounded once, and a float point that the word stretches past 1/EPSILON goes to
infinity (for one inversion: |x - m|^2 <= EPSILON rho).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import List, Optional, Sequence, Tuple, Union

from . import _linalg
from .exactnum import EPSILON, common_kind, is_zero, promote, sign_of, sqrt_in_field
from .geom import (
    Frozen,
    GeometryError,
    Hypersphere,
    Point,
    Scalar,
    _uniform,
    lift_row,
    vec_dot,
    vec_scale,
    vec_sub,
)


class NormalizationError(GeometryError):
    """The requested normalization needs a similarity ratio outside the
    scalar field of the inputs."""


def _dyadic(xs: Sequence[Scalar]) -> List[Scalar]:
    """Floats as the binary fractions they are, the other scalars as given."""
    return [Fraction(x) if type(x) is float else x for x in xs]


def _integral(row: Sequence[Scalar]) -> Sequence[Scalar]:
    """A float or rational sphere row as ints (it names the same sphere)."""
    row = _dyadic(row)
    exact = all(type(x) is int or type(x) is Fraction for x in row)
    return _linalg.scaled_to_integers(row)[1] if exact else row


def _mirror(row: Sequence[Scalar]) -> tuple:
    """(r, r*, D) for the sphere row r = (c, b, a)."""
    c, *b, a = row = _integral(row)
    return row, [-2 * a, *b, -2 * c], vec_dot(b, b) - 4 * c * a


def _stretched_past_floats(w: Scalar, w0: Scalar, mirrors: Sequence[tuple]) -> bool:
    """Whether the word stretches a point past 1/EPSILON: X_W over the input's
    X_W and the product of the D's is the reciprocal of the stretch there."""
    return abs(w) <= Fraction(EPSILON) * w0 * prod(d for _, _, d in mirrors)


def _reflect(mirrors: Sequence[tuple], xs: List[Scalar]) -> List[Scalar]:
    """D X - 2 (r . X) r* for each mirror (r, r*, D), first to last."""
    for r, r_dual, disc in mirrors:
        t = 2 * vec_dot(r, xs)
        xs = [disc * x - t * y for x, y in zip(xs, r_dual)]
    return xs


class MoebiusMap(Frozen):
    """A finite composition of primitives, applied first to last."""

    def __init__(self, factors: Tuple[PrimitiveMap, ...], dim: int):
        if any(f.dim != dim for f in factors):
            raise GeometryError("factor dimension mismatch")
        self._freeze(factors, dim, _mirrors=tuple(f._mirrors[0] for f in factors),
                     _float=any(f._float for f in factors))

    @classmethod
    def identity(cls, dim: int) -> "MoebiusMap":
        return cls((), dim)

    @classmethod
    def of(cls, *factors: PrimitiveMap) -> "MoebiusMap":
        if not factors:
            raise GeometryError("use identity(dim) for the empty composition")
        return cls(tuple(factors), factors[0].dim)

    def apply(self, p: Point) -> Point:
        if p.dim != self.dim:
            raise GeometryError("point dimension mismatch")
        k = p.backend()
        fl = self._float or k == "float"
        if k == "float":
            p = Point.finite(_dyadic(p.coords))
        lifted = lift_row(p)
        xs = _reflect(self._mirrors, lifted)
        w = xs[-1]
        if is_zero(w) or fl and _stretched_past_floats(w, lifted[-1], self._mirrors):
            return Point.infinity(self.dim)
        coords = [Fraction(u, w) if type(w) is int else u / w for u in xs[1:-1]]
        return Point.finite([promote(x, "float") for x in coords] if fl else coords)

    def image_sphere(self, s: Hypersphere) -> Hypersphere:
        if s.dim != self.dim:
            raise GeometryError("sphere dimension mismatch")
        c, *b, a = _integral(s.row)
        xs = _reflect(self._mirrors, [-2 * a, *b, -2 * c])
        s2 = Hypersphere.make(-xs[-1], [2 * x for x in xs[1:-1]], -xs[0])
        if self._float or type(s.c) is float:
            c, *b, a = (promote(x, "float") for x in (s2.c, *s2.b, s2.a))
            return Hypersphere.make(c, b, a)
        return s2

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(tuple(reversed(self.factors)), self.dim)


class _Primitive:
    """A primitive acts as the word of itself alone: `_mirrors` is its mirror."""

    apply = MoebiusMap.apply
    image_sphere = MoebiusMap.image_sphere


class SphereInversion(_Primitive, Frozen):
    def __init__(self, center: Tuple[Scalar, ...], radius_sq: Scalar):
        k = common_kind([*center, radius_sq])
        center, radius_sq = tuple(promote(x, k) for x in center), promote(radius_sq, k)
        if sign_of(radius_sq) <= 0:
            raise GeometryError("inversion needs a positive squared radius")
        *m, rho = _dyadic([*center, radius_sq])
        row = [promote(1, k), *vec_scale(-2, m), vec_dot(m, m) - rho]
        self._freeze(center, radius_sq, _mirrors=(_mirror(row),), _float=k == "float")

    @property
    def dim(self) -> int:
        return len(self.center)


class HyperplaneReflection(_Primitive, Frozen):
    def __init__(self, normal: Tuple[Scalar, ...], offset: Scalar):
        k = common_kind([*normal, offset])
        normal, offset = tuple(promote(x, k) for x in normal), promote(offset, k)
        if all(is_zero(x) for x in normal):
            raise GeometryError("reflection needs a nonzero normal")
        row = [promote(0, k), *normal, offset]
        self._freeze(normal, offset, _mirrors=(_mirror(row),), _float=k == "float")

    @property
    def dim(self) -> int:
        return len(self.normal)


PrimitiveMap = Union[SphereInversion, HyperplaneReflection]


def compose(f: MoebiusMap, g: MoebiusMap) -> MoebiusMap:
    """The composition f after g: apply(compose(f, g), x) = f(g(x))."""
    if f.dim != g.dim:
        raise GeometryError("cannot compose maps of different dimensions")
    return MoebiusMap(g.factors + f.factors, f.dim)


def translation_factors(v: Sequence[Scalar]) -> List[PrimitiveMap]:
    """Translation by v as two parallel reflections (empty list for v = 0)."""
    v = tuple(v)
    if all(is_zero(x) for x in v):
        return []
    zero = promote(0, common_kind(v))
    return [
        HyperplaneReflection(v, zero),
        HyperplaneReflection(v, -vec_dot(v, v) / 2),
    ]


def scaling_factors(s: Scalar, n: int) -> List[PrimitiveMap]:
    """Scaling about the origin by s > 0 as two concentric inversions."""
    if sign_of(s) <= 0:
        raise GeometryError("scaling ratio must be positive")
    if is_zero(s - 1):
        return []
    k = common_kind([s])
    origin = (promote(0, k),) * n
    return [SphereInversion(origin, promote(1, k)), SphereInversion(origin, s)]


def _send_zero_infinity(p: Point, q: Point) -> List[PrimitiveMap]:
    factors: List[PrimitiveMap] = []
    if q.is_infinity:
        if not p.is_infinity and not all(is_zero(x) for x in p.coords):
            factors += translation_factors(vec_scale(-1, p.coords))
    else:
        k = common_kind(q.coords)
        inv = SphereInversion(q.coords, promote(1, k))
        factors.append(inv)
        p_img = inv.apply(p)
        if not all(is_zero(x) for x in p_img.coords):
            factors += translation_factors(vec_scale(-1, p_img.coords))
    return factors


def normalize(p: Point, q: Point, r: Optional[Point] = None) -> MoebiusMap:
    """The Moebius map sending p to the origin and q to infinity; with r it
    also sends r to (1, 0, ..., 0).

    One construction in every dimension (Beardon, The Geometry of Discrete
    Groups, ch. 3): an inversion about q and a translation send p to the
    origin and q to infinity; a Householder mirror turns the image r'' of r
    onto the first axis, and a scaling by 1/|r''| ends it at e1. |r''| must
    lie in the scalar field, or the call raises NormalizationError. In the
    plane a word with an odd number of factors ends with the mirror of the
    x-axis, which fixes 0, infinity and e1; the word then preserves
    orientation and is the complex map z -> ((z - p)(r - q)) / ((z - q)(r - p)).
    """
    pts = [p, q] + ([r] if r is not None else [])
    pts, _ = _uniform(pts)
    if r is not None:
        p, q, r = pts
    else:
        p, q = pts
    n = p.dim
    if len(set(pts)) != len(pts):
        raise GeometryError("normalize needs distinct points")
    factors = _send_zero_infinity(p, q)
    if r is not None:
        r_img = MoebiusMap(tuple(factors), n).apply(r)
        if r_img.is_infinity:
            raise GeometryError("normalize needs distinct points")
        length = sqrt_in_field(vec_dot(r_img.coords, r_img.coords))
        if length is None:
            raise NormalizationError("length of the image of r is outside the scalar field")
        k = common_kind([length, *r_img.coords])
        zero = promote(0, k)
        householder = vec_sub(r_img.coords, (promote(length, k),) + (zero,) * (n - 1))
        if not all(is_zero(x) for x in householder):
            factors.append(HyperplaneReflection(householder, zero))
        factors += scaling_factors(1 / length, n)
        if n == 2 and len(factors) % 2 == 1:
            factors.append(HyperplaneReflection((zero, promote(1, k)), zero))
    result = MoebiusMap(tuple(factors), n)
    _assert_normalized(result, p, q, r)
    return result


def _assert_normalized(m: MoebiusMap, p: Point, q: Point, r: Optional[Point]) -> None:
    img_p, img_q = m.apply(p), m.apply(q)
    ok = (not img_p.is_infinity and all(is_zero(x) for x in img_p.coords)
          and img_q.is_infinity)
    if ok and r is not None:
        img_r = m.apply(r)
        if img_r.is_infinity:
            ok = False
        else:
            first = img_r.coords[0]
            ok = is_zero(first - 1) and all(is_zero(x) for x in img_r.coords[1:])
    if not ok:
        raise GeometryError("normalization postcondition failed")
