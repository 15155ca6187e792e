"""Points of extended space, generalized spheres, and incidence predicates.

A generalized sphere in R^n with the point at infinity adjoined is the zero
set of c*<x,x> + <b,x> + a with <b,b> - 4ca > 0; c = 0 gives an extended
hyperplane through infinity. Everything here is backend-generic: exact over
rationals or the quartic field, tolerance-based over floats. Everything
works on lifted rows (<x,x>, x, 1), integer for rational points, through
`_linalg`, which picks the elimination. A point lifts once and caches its
row. A hypersphere is a row (c, b, a) annihilating the lifted rows of its
points, so incidence is one dot product. Every sphere is keyed by the
canonical echelon basis of its coefficient space, the span of the (c, b, a)
of the hyperspheres through it; float spheres have no key.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from . import _linalg
from .exactnum import (
    EPSILON,
    BackendMismatch,
    Quartic2,
    common_kind,
    is_zero,
    promote,
    sign_of,
    zt_element,
)

Scalar = Union[int, Fraction, Quartic2, float]


class GeometryError(ValueError):
    pass


class DegenerateSphereError(GeometryError):
    pass


class DegenerateConfigError(GeometryError):
    pass


def vec_dot(u: Sequence, v: Sequence):
    total = 0
    for a, b in zip(u, v):
        total = total + a * b
    return total


def vec_sub(u: Sequence, v: Sequence) -> Tuple:
    return tuple(a - b for a, b in zip(u, v))


def vec_add(u: Sequence, v: Sequence) -> Tuple:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(s, u: Sequence) -> Tuple:
    return tuple(s * a for a in u)


def vec_is_zero(u: Sequence) -> bool:
    return all(is_zero(a) for a in u)


@dataclass(frozen=True)
class Point:
    """A point of R^n or the single point at infinity. Its backend and its
    lifted row (integer for a rational point) are computed once and cached on
    the instance, outside the fields (so outside ==, hash and repr)."""

    coords: Optional[Tuple[Scalar, ...]]
    dim: int

    @classmethod
    def finite(cls, coords: Sequence[Scalar]) -> "Point":
        coords = tuple(coords)
        if not coords:
            raise GeometryError("a point needs at least one coordinate")
        k = common_kind(coords)
        return cls(tuple(promote(x, k) for x in coords), len(coords))

    @classmethod
    def infinity(cls, dim: int) -> "Point":
        return cls(None, dim)

    @property
    def is_infinity(self) -> bool:
        return self.coords is None

    def backend(self) -> str:
        return self._kind

    @cached_property
    def _kind(self) -> str:
        return "rational" if self.coords is None else common_kind(self.coords)

    @cached_property
    def _row(self) -> Tuple[Scalar, ...]:
        if self.coords is None:
            return (1,) + (0,) * (self.dim + 1)
        if self._kind != "rational":
            return (vec_dot(self.coords, self.coords), *self.coords, promote(1, self._kind))
        d, xs = _linalg.scaled_to_integers(self.coords)
        return (sum(v * v for v in xs), *(v * d for v in xs), d * d)

    @cached_property
    def _zt(self) -> List[int]:
        """Its lifted row scaled by a positive integer into Z[t], flattened."""
        return [c for n in _linalg.zt_row(self._row) for c in n]

    def _row_in(self, k: str) -> Tuple[Scalar, ...]:
        """Its lifted row on backend k, cached: `_row` on its own backend, else
        (<x,x>, x, 1) of its promoted coordinates (infinity's row promoted)."""
        if k == self._kind:
            return self._row
        rows = self.__dict__.setdefault("_rows", {})
        if k not in rows:
            xs = [promote(x, k) for x in (self._row if self.coords is None else self.coords)]
            rows[k] = tuple(xs) if self.coords is None else (vec_dot(xs, xs), *xs, promote(1, k))
        return rows[k]

    def __repr__(self) -> str:
        if self.coords is None:
            return "Point.infinity(%d)" % self.dim
        return "Point(%s)" % (self.coords,)


def _family_kind(points: Sequence[Point]) -> str:
    """The one backend a family of points of one dimension shares."""
    if len({p.dim for p in points}) > 1:
        raise GeometryError("points live in different ambient dimensions")
    kinds = {p._kind for p in points if p.coords is not None}
    if "float" in kinds and kinds != {"float"}:
        raise BackendMismatch("cannot mix float with exact points")
    return "float" if "float" in kinds else ("quartic" if "quartic" in kinds else "rational")


_SCALAR_TYPE = {"rational": Fraction, "quartic": Quartic2, "float": float}


def _uniform(points: Sequence[Point]) -> Tuple[List[Point], str]:
    """Promote a family of points to one shared backend; infinity, and a
    point whose coordinates all have the backend's scalar type already, are
    kept as they are."""
    k = _family_kind(points)
    t = _SCALAR_TYPE[k]
    return [p if p.is_infinity or all(type(x) is t for x in p.coords)
            else Point(tuple(promote(x, k) for x in p.coords), p.dim)
            for p in points], k


class SideLabel(Enum):
    INSIDE = "inside"
    ON = "on"
    OUTSIDE = "outside"
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class Hypersphere:
    """Coefficients (c, b, a) of a nondegenerate generalized sphere, scaled so
    the first nonzero of (c, b_1..b_n, a) is 1; the float backend scales to
    unit coefficient norm with the same sign rule and takes a discriminant
    within EPSILON * (<b,b> + |4ca|) of zero as zero. `make` also sets `row`,
    (c, b, a) in `_linalg.canonical` form (as Q(2^(1/4)) scalars on that
    backend, unit norm on floats), outside the fields as `Point._row` is."""

    c: Scalar
    b: Tuple[Scalar, ...]
    a: Scalar

    @classmethod
    def make(cls, c: Scalar, b: Sequence[Scalar], a: Scalar) -> "Hypersphere":
        entries = [c, *b, a]
        k = common_kind(entries)
        lead = next((x for x in entries if not is_zero(x)), None)
        if lead is None:
            raise DegenerateSphereError("zero coefficient vector")
        if k == "float":
            norm = sum(x * x for x in entries) ** 0.5
            scale = (1.0 / norm) if lead > 0 else (-1.0 / norm)
            row = coeffs = [x * scale for x in entries]
        else:
            row = _linalg.canonical(entries)
            coeffs = _linalg.lead_one(row, k)
            if k == "quartic":
                row = [promote(x, k) for x in row]
        rc, *rb, ra = row
        bb = vec_dot(rb, rb)
        disc = bb - 4 * rc * ra
        if k == "float":
            # zero up to the size of its two terms, wherever the sphere sits
            degenerate = disc <= EPSILON * (bb + abs(4 * rc * ra))
        else:
            degenerate = sign_of(disc) <= 0
        if degenerate:
            raise DegenerateSphereError("discriminant <b,b> - 4ca is not positive")
        s = cls(coeffs[0], tuple(coeffs[1:-1]), coeffs[-1])
        object.__setattr__(s, "row", tuple(row))
        return s

    @property
    def dim(self) -> int:
        return len(self.b)

    @property
    def is_flat(self) -> bool:
        return is_zero(self.c)

    def center(self) -> Point:
        if self.is_flat:
            raise GeometryError("an extended hyperplane has no center")
        return Point.finite(vec_scale(-1 / (2 * self.c), self.b))

    def radius_sq(self) -> Scalar:
        if self.is_flat:
            raise GeometryError("an extended hyperplane has no radius")
        disc = vec_dot(self.b, self.b) - 4 * self.c * self.a
        return disc / (4 * self.c * self.c)

    def contains(self, p: Point) -> bool:
        return is_zero(_incidence(self, p, True))

    def key(self) -> tuple:
        """Its own row: the echelon key of its coefficient space."""
        _refuse_float(self.c)
        return (self.row,)

    @cached_property
    def _zt(self) -> Tuple[List[int], ...]:
        """Its row scaled by a positive integer into Z[t], twisted for `zt_dot`."""
        return _linalg.zt_twisted(_linalg.zt_row(self.row))


def _incidence(s: Hypersphere, p: Point, zero_test: bool = False) -> Scalar:
    """A positive multiple of c<x,x> + <b,x> + a (c at infinity); with a float
    on either side, the one on the stored (c, b, a), so EPSILON keeps its scale.
    An exact pair with a Q(2^(1/4)) side takes it over Z[t], from their cached
    Z[t] rows; with zero_test only its vanishing is computed (nonzero reads 1)."""
    if p.dim != s.dim:
        raise GeometryError("point dimension mismatch")
    if p._kind == "rational" and type(s.row[0]) is int:
        return sum(map(mul, s.row, p._row))
    if p._kind == "float" or type(s.c) is float:
        return vec_dot((s.c, *s.b, s.a), p._row_in("float"))
    if zero_test:
        return int(not _linalg.zt_vanishes(s._zt, p._zt))
    return zt_element(_linalg.zt_dot(s._zt, p._zt))


def on_sphere(p: Point, s: Hypersphere) -> bool:
    return s.contains(p)


def side(p: Point, s: Hypersphere) -> SideLabel:
    """Inside/On/Outside for spheres, Positive/On/Negative for flats.

    Canonical scaling pins the orientation, so labels are reproducible.
    """
    sg = sign_of(_incidence(s, p))
    if sg == 0:
        return SideLabel.ON
    if s.is_flat:
        return SideLabel.POSITIVE if sg > 0 else SideLabel.NEGATIVE
    return SideLabel.INSIDE if sg < 0 else SideLabel.OUTSIDE


def separated(x: Point, y: Point, s: Hypersphere) -> bool:
    """True when the sphere separates x from y; either point on it is an error."""
    lx, ly = side(x, s), side(y, s)
    if lx == SideLabel.ON or ly == SideLabel.ON:
        raise GeometryError("separation is undefined for points on the sphere")
    return lx != ly


def lift_row(p: Point, backend: str = "rational") -> List[Scalar]:
    """Row (<x,x>, x, 1) of the sphere-coefficient system; infinity lifts to
    (1, 0, .., 0), the equation forcing c = 0. On the rational backend it is
    the integer row (sum X_i^2, X_i * D, D^2), X = x * D for the common
    denominator D of x. A wider backend gets the lift of the promoted point."""
    return list(p._row_in(backend))


def _lifted(points: Sequence[Point]) -> Tuple[List[Sequence[Scalar]], int]:
    """(rows, n): the lifted rows of points of R^n_inf, each read from the
    point's cache for the family's backend."""
    if not points:
        raise GeometryError("need at least one point")
    k = _family_kind(points)
    return [p._row if p._kind == k else p._row_in(k) for p in points], points[0].dim


def _check_distinct(items: Sequence, where: str) -> None:
    """Refuse equal points, or equal lifted rows (which are equal points)."""
    if any(x in items[:i] for i, x in enumerate(items)):
        raise DegenerateConfigError("duplicate point in %s" % where)


def sphere_through(points: Sequence[Point]) -> Hypersphere:
    """The unique generalized (n-1)-sphere through n+1 points of R^n_inf.

    Affinely degenerate inputs (or any containing infinity) come back with
    c = 0. Inputs that fail to pin down a unique sphere raise; over the
    rationals the coefficients are the signed maximal minors of the lift.
    """
    rows, n = _lifted(points)
    if len(rows) != n + 1:
        raise GeometryError("need exactly n+1 points in dimension n")
    _check_distinct(rows, "sphere_through")
    ns = _linalg.nullspace(rows, n + 2)
    if len(ns) != 1:
        raise DegenerateSphereError("points do not determine a unique sphere")
    vec = ns[0]
    return Hypersphere.make(vec[0], vec[1:-1], vec[-1])


def concyclic(p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """Whether four distinct points lie on one circle (or extended line).

    Rank of the 4 x (n+2) lifted matrix is at most 3 exactly on concyclic
    quadruples.
    """
    rows, n = _lifted([p1, p2, p3, p4])
    _check_distinct(rows, "concyclic")
    return _linalg.rank(rows, n + 2) <= 3


def on_common_sphere(points: Sequence[Point]) -> bool:
    """Whether the given distinct points all lie on one generalized sphere of
    positive codimension. For n+2 points of R^n_inf this is the cospherical
    test; the lifted matrix drops rank exactly then."""
    rows, n = _lifted(points)
    _check_distinct(rows, "on_common_sphere")
    if not 3 <= len(rows) <= n + 2:
        raise GeometryError("need between 3 and n+2 points")
    return _linalg.rank(rows, n + 2) < len(rows)


def second_intersection(s: Hypersphere, base: Point, direction: Sequence[Scalar]) -> Point:
    """The other point where the line from a sphere point along `direction`
    meets a genuine sphere, by Vieta on the restricted quadratic."""
    if s.is_flat:
        raise GeometryError("second_intersection needs a genuine sphere")
    if not s.contains(base) or base.is_infinity:
        raise GeometryError("base point must lie on the sphere")
    d = tuple(direction)
    if vec_is_zero(d):
        raise GeometryError("direction must be nonzero")
    denom = s.c * vec_dot(d, d)
    t2 = -(2 * s.c * vec_dot(base.coords, d) + vec_dot(s.b, d)) / denom
    if is_zero(t2):
        raise GeometryError("the line is tangent at the base point")
    return Point.finite(vec_add(base.coords, vec_scale(t2, d)))


class _CrossRatioInfinity:
    def __repr__(self) -> str:
        return "CR_INFINITY"


CR_INFINITY = _CrossRatioInfinity()


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cdiv(x, y):
    d = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / d, (x[1] * y[0] - x[0] * y[1]) / d)


def cross_ratio(z1: Point, z2: Point, z3: Point, z4: Point):
    """Cross ratio (z1-z3)(z2-z4) / ((z2-z3)(z1-z4)) in the plane.

    One input may be infinity; the two factors containing it cancel. Returns
    a (re, im) scalar pair, or CR_INFINITY if the denominator vanishes. The
    imaginary part is zero exactly when the four points are concyclic.
    """
    points, _ = _uniform([z1, z2, z3, z4])
    if points[0].dim != 2:
        raise GeometryError("cross_ratio is a planar operation")
    _check_distinct(points, "cross_ratio")
    z = [p.coords for p in points]
    inf_at = next((i for i, p in enumerate(points) if p.is_infinity), None)
    if inf_at is None:
        num = _cmul(vec_sub(z[0], z[2]), vec_sub(z[1], z[3]))
        den = _cmul(vec_sub(z[1], z[2]), vec_sub(z[0], z[3]))
    elif inf_at == 0:
        num, den = vec_sub(z[1], z[3]), vec_sub(z[1], z[2])
    elif inf_at == 1:
        num, den = vec_sub(z[0], z[2]), vec_sub(z[0], z[3])
    elif inf_at == 2:
        num, den = vec_sub(z[1], z[3]), vec_sub(z[0], z[3])
    else:
        num, den = vec_sub(z[0], z[2]), vec_sub(z[1], z[2])
    if vec_is_zero(den):
        return CR_INFINITY
    return _cdiv(num, den)


def _direction_sign(d: Sequence[Scalar]) -> int:
    """Orientation of a nonzero vector: the sign of its last nonzero
    coordinate (in the plane: positive iff above the x-axis, or on its
    nonnegative half)."""
    for x in reversed(list(d)):
        sg = sign_of(x)
        if sg != 0:
            return sg
    raise GeometryError("zero vector has no direction")


def signed_norm(p: Point, direction: Sequence[Scalar]) -> Scalar:
    """Signed distance from the origin along a registered line.

    The line is {t * direction} with an exactly-unit direction vector; the
    positively oriented representative makes N(t * d) = t, so collinear
    points multiply by plain scalar products.
    """
    if p.is_infinity:
        raise GeometryError("infinity has no signed norm")
    direction = tuple(direction)
    if not is_zero(vec_dot(direction, direction) - 1):
        raise GeometryError("direction must have exact unit norm")
    if _direction_sign(direction) < 0:
        direction = vec_scale(-1, direction)
    idx = next(i for i, x in enumerate(direction) if not is_zero(x))
    t = p.coords[idx] / direction[idx]
    if not vec_is_zero(vec_sub(p.coords, vec_scale(t, direction))):
        raise GeometryError("point is not on the registered line")
    return t


def power_condition(x: Scalar, xp: Scalar, y: Scalar, yp: Scalar) -> bool:
    """Equality of chord products x*x' = y*y', the exact concyclicity test
    for two point pairs on two lines through the origin."""
    return is_zero(x * xp - y * yp)


@dataclass(frozen=True)
class Flat:
    """Affine subspace with an orthogonal direction basis, always understood
    as extended through infinity."""

    basepoint: Tuple[Scalar, ...]
    basis: Tuple[Tuple[Scalar, ...], ...]

    @classmethod
    def through(cls, points: Sequence[Point]) -> "Flat":
        if any(p.is_infinity for p in points):
            raise GeometryError("Flat.through expects finite points")
        points, _ = _uniform(points)
        base = points[0].coords
        basis: List[Tuple] = []
        for p in points[1:]:
            v = _orthogonal_residual(vec_sub(p.coords, base), basis)
            if not vec_is_zero(v):
                basis.append(v)
        return cls(tuple(base), tuple(basis))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient(self) -> int:
        return len(self.basepoint)

    def coords_of(self, p: Point) -> List[Scalar]:
        if p.is_infinity:
            raise GeometryError("infinity has no flat coordinates")
        v = vec_sub(p.coords, self.basepoint)
        ts = []
        for d in self.basis:
            t = vec_dot(v, d) / vec_dot(d, d)
            ts.append(t)
            v = vec_sub(v, vec_scale(t, d))
        if not vec_is_zero(v):
            raise GeometryError("point is not on the flat")
        return ts

    def point_at(self, ts: Sequence[Scalar]) -> Point:
        x = self.basepoint
        for t, d in zip(ts, self.basis):
            x = vec_add(x, vec_scale(t, d))
        return Point.finite(x)

    def contains(self, p: Point) -> bool:
        if p.is_infinity:
            return True
        v = vec_sub(p.coords, self.basepoint)
        v = _orthogonal_residual(v, self.basis)
        return vec_is_zero(v)

    def _hyperplane_rows(self) -> List[List[Scalar]]:
        """Coefficient rows (0, v, -<v, base>) of the extended hyperplanes
        through the flat, one per normal v in the nullspace of its basis."""
        normals = _linalg.nullspace(self.basis, self.ambient)
        return [[0, *v, -vec_dot(v, self.basepoint)] for v in normals]

    def key(self) -> tuple:
        _refuse_float(self.basepoint[0])
        return _echelon_key(self._hyperplane_rows(), self.ambient + 2)


def _orthogonal_residual(v: Sequence[Scalar], basis: Sequence[Sequence[Scalar]]) -> Tuple:
    v = tuple(v)
    for d in basis:
        t = vec_dot(v, d) / vec_dot(d, d)
        v = vec_sub(v, vec_scale(t, d))
    return v


@dataclass(frozen=True)
class SubSphere:
    """A d-sphere presented as carrier flat (dimension d+1) cut by an ambient
    hypersphere whose center lies in the carrier; surface None means the whole
    extended space (the degenerate answer for unconstrained inputs)."""

    carrier: Flat
    surface: Optional[Hypersphere]

    @property
    def dim(self) -> int:
        if self.surface is None:
            return self.carrier.dim
        return self.carrier.dim - 1

    @property
    def ambient(self) -> int:
        return self.carrier.ambient

    def contains(self, p: Point) -> bool:
        return self.surface is None or (self.surface.contains(p)
                                        and self.carrier.contains(p))

    def key(self) -> tuple:
        if self.surface is None:
            return ()
        s = self.surface
        _refuse_float(s.c)
        rows = [s.row, *self.carrier._hyperplane_rows()]
        return _echelon_key(rows, self.ambient + 2)


def _extended_flat_subsphere(hull: Flat, n: int) -> SubSphere:
    """SubSphere equal to hull ∪ {infinity}: carrier pads the hull by one
    deterministic direction, the surface is the hyperplane cutting it back.
    A float hull gets a float direction; an exact one keeps Fractions."""
    one = 1.0 if isinstance(hull.basepoint[0], float) else Fraction(1)
    residual = None
    for i in range(n):
        e = tuple(one if j == i else one - one for j in range(n))
        r = _orthogonal_residual(e, hull.basis)
        if not vec_is_zero(r):
            residual = r
            break
    if residual is None:
        raise GeometryError("hull flat already fills the space")
    carrier = Flat(hull.basepoint, hull.basis + (residual,))
    surface = Hypersphere.make(one - one, residual, -vec_dot(residual, hull.basepoint))
    return SubSphere(carrier, surface)


def smallest_sphere(points: Sequence[Point]) -> SubSphere:
    """The smallest-dimensional generalized sphere containing the points.

    k points span a sphere of dimension at most k-2: the circumsphere inside
    their affine hull when one exists, otherwise the extended hull flat. With
    infinity among the inputs the answer is always the extended hull. A row
    (2<v, base>, v, 0) per hull normal v puts the centre -b/2c in the hull.
    """
    if len(points) < 2:
        raise GeometryError("need at least two points")
    rows, n = _lifted(points)
    _check_distinct(rows, "smallest_sphere")
    hull = Flat.through([p for p in points if not p.is_infinity])
    for v in _linalg.nullspace(hull.basis, n):
        rows.append([2 * vec_dot(v, hull.basepoint), *v, 0])
    ns = _linalg.nullspace(rows, n + 2)
    if ns:
        vec = ns[0]
        return SubSphere(hull, Hypersphere.make(vec[0], vec[1:-1], vec[-1]))
    if hull.dim == n:
        return SubSphere(hull, None)
    return _extended_flat_subsphere(hull, n)


def _refuse_float(x: Scalar) -> None:
    if isinstance(x, float):
        raise BackendMismatch("sphere keys need exact coordinates")


def _echelon_key(rows: Sequence[Sequence[Scalar]], ncols: int) -> tuple:
    """The key of the generalized sphere whose coefficient space the exact
    rows (c, b, a) span: the canonical nonzero rows of its reduced row
    echelon form."""
    return tuple(tuple(r) for r in _linalg.echelon(rows, ncols)[0])


def span_key(points: Sequence[Point]) -> Optional[tuple]:
    """`smallest_sphere(points).key()` from the nullspace of the lifted rows,
    or None when they are dependent (the sphere has dimension below
    len(points) - 2)."""
    rows, n = _lifted(points)
    _refuse_float(rows[0][0])
    _check_distinct(rows, "span_key")
    ncols = n + 2
    ns = _linalg.nullspace(rows, ncols)
    if len(rows) + len(ns) > ncols:
        return None
    return _echelon_key(ns, ncols)


def span_walk(points: Sequence[Point], size: int) -> Iterator[Tuple[tuple, tuple]]:
    """(subset, key) for each `size`-subset that `span_key` keys, in order,
    with the key `span_key` gives it. Each point is lifted once; a depth-first
    walk cuts the prefix's nullspace basis (its pencil of spheres) by one row
    per point."""
    rows, n = _lifted(points)
    _refuse_float(rows[0][0])
    ncols = n + 2

    def walk(start: int, prefix: Tuple[int, ...], basis: List[List]) -> Iterator:
        for i in range(start, len(rows) - size + len(prefix) + 1):
            cut = _linalg.cut(basis, rows[i])
            if cut is None:
                continue
            subset = prefix + (i,)
            if len(subset) < size:
                yield from walk(i + 1, subset, cut)
            else:
                yield subset, ((tuple(cut[0]),) if len(cut) == 1
                               else _echelon_key(cut, ncols))

    yield from walk(0, (), _linalg.nullspace([], ncols))
