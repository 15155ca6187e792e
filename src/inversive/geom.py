"""Points of extended space, generalized spheres, and incidence predicates.

A generalized sphere in R^n with the point at infinity adjoined is the zero
set of c*<x,x> + <b,x> + a with <b,b> - 4ca > 0; c = 0 gives an extended
hyperplane through infinity. Everything here is backend-generic: exact over
rationals or the quartic field, tolerance-based over floats. Everything
works on lifted rows (<x,x>, x, 1), integer for rational points, through
`_linalg`, which picks the elimination. A point lifts once and caches its
row. A hypersphere is a row (c, b, a) annihilating the lifted rows of its
points, so incidence is one dot product. Every sphere is the common zero set
of such rows, computed once and cached: incidence reads them, and its key is
the canonical nullspace basis (`_linalg.nullspace`) of the space they span,
the (c, b, a) of the hyperspheres through it. Float spheres have no key.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property, reduce
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
    zt_mul,
    zt_sign,
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


class Frozen:
    """Base of the immutable value types. A class's fields are the parameters
    of its __init__, which stores each in the instance __dict__ and their
    tuple as `_values`: ==, hash (of that tuple) and the default repr read
    it, and whatever a class caches in its __dict__ beside them stays outside
    the value. Assignment and del raise AttributeError."""

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % fv for fv in zip(self._fields, self._values)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % name)


class Point(Frozen):
    """A point of R^n or the single point at infinity. Its backend (decided
    by `finite`) and its lifted row (integer for a rational point) are
    computed once and cached on the instance, outside the fields (so outside
    ==, hash and repr)."""

    def __init__(self, coords: Optional[Tuple[Scalar, ...]], dim: int):
        d = self.__dict__  # item stores build the dict faster than update()
        d["coords"], d["dim"], d["_values"] = coords, dim, (coords, dim)

    @classmethod
    def finite(cls, coords: Sequence[Scalar]) -> "Point":
        coords = tuple(coords)
        if not coords:
            raise GeometryError("a point needs at least one coordinate")
        k = common_kind(coords)
        t = _SCALAR_TYPE[k]
        p = cls(tuple(x if type(x) is t else promote(x, k) for x in coords), len(coords))
        p.__dict__["_kind"] = k  # as the cached_property would store it
        return p

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
        """Its lifted row in Z[t], flattened (`_linalg.zt_lift`): equal points, equal rows."""
        return ([c for x in self._row for c in (x, 0, 0, 0)] if self._kind == "rational"
                else _linalg.zt_lift(self.coords))

    @cached_property
    def _float_row(self) -> Tuple[float, ...]:
        """Its lifted row on the float backend: `_row` of a float point, else
        (<x,x>, x, 1) of its coordinates as floats, (1, 0, .., 0) at infinity."""
        if self._kind == "float":
            return self._row
        if self.coords is None:
            return (1.0,) + (0.0,) * (self.dim + 1)
        xs = [promote(x, "float") for x in self.coords]
        return (vec_dot(xs, xs), *xs, 1.0)

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


class Hypersphere(Frozen):
    """Coefficients (c, b, a) of a nondegenerate generalized sphere, scaled so
    the first nonzero of (c, b_1..b_n, a) is 1; the float backend scales to
    unit coefficient norm with the same sign rule and takes a discriminant
    within EPSILON * (<b,b> + |4ca|) of zero as zero. Its `row` is (c, b, a)
    in `_linalg.canonical` form (as Q(2^(1/4)) scalars on that backend, unit
    norm on floats), cached outside the fields as `Point._row` is: `make` sets
    it, and a directly built sphere takes the one `make` gives its fields."""

    def __init__(self, c: Scalar, b: Tuple[Scalar, ...], a: Scalar):
        self.__dict__.update(c=c, b=b, a=a, _values=(c, b, a))

    @classmethod
    def make(cls, c: Scalar, b: Sequence[Scalar], a: Scalar) -> "Hypersphere":
        entries = [c, *b, a]
        k = common_kind(entries)
        lead = next((x for x in entries if not is_zero(x)), None)
        if lead is None:
            raise DegenerateSphereError("zero coefficient vector")
        if k == "quartic":
            return cls._from_zt(_linalg.zt_row(entries))
        if k == "float":
            norm = sum(x * x for x in entries) ** 0.5
            scale = (1.0 / norm) if lead > 0 else (-1.0 / norm)
            row = coeffs = [x * scale for x in entries]
        else:
            row = _linalg.canonical(entries)
            coeffs = _linalg.lead_one(row, k)
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
        s.__dict__["row"] = tuple(row)
        return s

    @classmethod
    def _from_zt(cls, v: Sequence[Tuple[int, int, int, int]]) -> "Hypersphere":
        """`make` of a nonzero Z[t] row (c, b, a), on the Q(2^(1/4)) backend:
        the sign (`zt_sign`), coefficients and `_zt` all come from its `zt_normal` ints."""
        w, q = _linalg.zt_normal(v)
        terms = [zt_mul(x, x) for x in w[1:-1]] + [tuple(-4 * y for y in zt_mul(w[0], w[-1]))]
        if zt_sign([sum(z) for z in zip(*terms)]) <= 0:
            raise DegenerateSphereError("discriminant <b,b> - 4ca is not positive")
        coeffs = [zt_element(x, q) for x in w]
        row = coeffs if any(x[1] or x[2] or x[3] for x in w) else [zt_element(x) for x in w]
        s = cls(coeffs[0], tuple(coeffs[1:-1]), coeffs[-1])
        s.__dict__.update(row=tuple(row), _zt=_linalg.zt_twisted(w))
        return s

    @cached_property
    def row(self) -> Tuple[Scalar, ...]:
        return Hypersphere.make(self.c, self.b, self.a).row

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
        """Its own row: the key of its coefficient space."""
        _refuse_float(self.c)
        return (self.row,)

    @cached_property
    def _zt(self) -> Tuple[List[int], ...]:
        """Its row scaled by a positive integer into Z[t], twisted for `zt_dot`."""
        return _linalg.zt_twisted(_linalg.zt_row(self.row))


def _incidence(s: Hypersphere, p: Point, zero_test: bool = False) -> Scalar:
    """A positive multiple of c<x,x> + <b,x> + a (c at infinity), (c, b, a) =
    `row`; with a float on either side, the one on the stored (c, b, a) in
    `row`'s orientation, so EPSILON keeps its scale. An exact pair with a
    Q(2^(1/4)) side takes it over Z[t], from their cached Z[t] rows; with
    zero_test only its vanishing is computed (nonzero reads 1)."""
    if p.dim != s.dim:
        raise GeometryError("point dimension mismatch")
    if p._kind == "rational" and type(s.row[0]) is int:
        return sum(map(mul, s.row, p._row))
    if p._kind == "float" or type(s.c) is float:
        stored = (s.c, *s.b, s.a)  # `row` is stored times the sign of its lead
        if Quartic2 in map(type, stored):
            raise BackendMismatch("cannot mix a float point with a Q(2^(1/4)) sphere")
        value = vec_dot(stored, p._float_row)
        return -value if next((x for x in stored if not is_zero(x)), 0) < 0 else value
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


def lift_row(p: Point) -> List[Scalar]:
    """Row (<x,x>, x, 1) of the sphere-coefficient system on the point's own
    backend; infinity lifts to (1, 0, .., 0), the equation forcing c = 0. A
    rational point gets the integer row (sum X_i^2, X_i * D, D^2), X = x * D
    for the common denominator D of x."""
    return list(p._row)


def _lifted(points: Sequence[Point]) -> Tuple[List[Sequence], int]:
    """(rows, n): the lifted rows of points of R^n_inf, each read from the
    point's cache: `_float_row` in a float family, the Z[t] rows `_zt` as tuples of
    int 4-tuples in a family with a Q(2^(1/4)) point, `_row` in any other; all hash."""
    if not points:
        raise GeometryError("need at least one point")
    k = _family_kind(points)
    if k == "quartic":
        return [tuple(zip(*[iter(p._zt)] * 4)) for p in points], points[0].dim
    return [p._float_row if k == "float" else p._row for p in points], points[0].dim


def _check_distinct(items: Sequence, where: str) -> None:
    """Refuse equal points, or equal lifted rows (which are equal points), by hash."""
    if len(set(items)) != len(items):
        raise DegenerateConfigError("duplicate point in %s" % where)


def sphere_through(points: Sequence[Point]) -> Hypersphere:
    """The unique generalized (n-1)-sphere through n+1 points of R^n_inf.

    Affinely degenerate inputs (or any containing infinity) come back with
    c = 0. Inputs that fail to pin down a unique sphere raise; on exact points
    the coefficients are the signed maximal minors of the lift (`null_vector`).
    """
    rows, n = _lifted(points)
    if len(rows) != n + 1:
        raise GeometryError("need exactly n+1 points in dimension n")
    _check_distinct(rows, "sphere_through")
    vec = _linalg.null_vector(rows, n + 2)
    if vec is None:
        raise DegenerateSphereError("points do not determine a unique sphere")
    return _sphere_of(vec)


def _sphere_of(vec: Sequence) -> Hypersphere:
    """The sphere of a nullspace vector (c, b, a) of lifted rows: Z[t] int
    4-tuples on the Q(2^(1/4)) backend, scalars on the others."""
    if type(vec[0]) is tuple:
        return Hypersphere._from_zt(vec)
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
    """Whether 3 to n+2 distinct points of R^n_inf lie on one generalized sphere of
    positive codimension (cospherical, for n+2): exactly when their lifted rows are
    dependent, which `_linalg.rank` decides on their signed minors."""
    rows, n = _lifted(points)
    _check_distinct(rows, "on_common_sphere")
    if not 3 <= len(rows) <= n + 2:
        raise GeometryError("need between 3 and n+2 points")
    return _linalg.rank(rows, n + 2) < len(rows)


def separation_signs(points: Sequence[Point]) -> Optional[List[int]]:
    """The signs, up to one flip, of the `null_vector` lambda of the transposed lifted
    rows of n+3 distinct points (sum_k lambda_k X_k = 0): a sphere through all but x_i
    and x_j separates them exactly when lambda_i and lambda_j agree. lambda_k is +-the
    determinant of the rows but X_k, so None when n+2 of the points share a sphere."""
    rows, n = _lifted(points)
    if len(rows) != n + 3:
        raise GeometryError("need exactly n+3 points")
    _check_distinct(rows, "separation_signs")
    lam = _linalg.null_vector(list(zip(*rows)), n + 3)
    signs = [zt_sign(x) if type(x) is tuple else sign_of(x) for x in lam or ()]
    return signs if signs and 0 not in signs else None


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

    One input may be infinity; the two factors containing it are dropped.
    Returns a (re, im) scalar pair, or CR_INFINITY if the denominator
    vanishes. The imaginary part is zero exactly when the four points are
    concyclic.
    """
    points, _ = _uniform([z1, z2, z3, z4])
    if points[0].dim != 2:
        raise GeometryError("cross_ratio is a planar operation")
    _check_distinct(points, "cross_ratio")
    z = [p.coords for p in points]
    num, den = (reduce(_cmul, [vec_sub(z[i], z[j]) for i, j in factors
                               if None not in (z[i], z[j])])
                for factors in (((0, 2), (1, 3)), ((1, 2), (0, 3))))
    if vec_is_zero(den):
        return CR_INFINITY
    return _cdiv(num, den)


def power_condition(x: Scalar, xp: Scalar, y: Scalar, yp: Scalar) -> bool:
    """Equality of chord products x*x' = y*y', the exact concyclicity test
    for two point pairs on two lines through the origin."""
    return is_zero(x * xp - y * yp)


class Flat(Frozen):
    """Affine subspace with an orthogonal direction basis, always understood
    as extended through infinity."""

    def __init__(self, basepoint: Tuple[Scalar, ...], basis: Tuple[Tuple[Scalar, ...], ...]):
        self.__dict__.update(basepoint=basepoint, basis=basis, _values=(basepoint, basis))

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

    @cached_property
    def _rows(self) -> List[List[Scalar]]:
        """Coefficient rows (0, v, -<v, base>) of the extended hyperplanes
        through the flat, one per normal v in the nullspace of its basis."""
        normals = _linalg.nullspace(self.basis, self.ambient)
        return [[0, *v, -vec_dot(v, self.basepoint)] for v in normals]

    def key(self) -> tuple:
        _refuse_float(self.basepoint[0])
        n = self.ambient + 2
        return _basis_key(_linalg.nullspace(_linalg.nullspace(self._rows, n), n))


def _orthogonal_residual(v: Sequence[Scalar], basis: Sequence[Sequence[Scalar]]) -> Tuple:
    v = tuple(v)
    for d in basis:
        t = vec_dot(v, d) / vec_dot(d, d)
        v = vec_sub(v, vec_scale(t, d))
    return v


class SubSphere(Frozen):
    """A d-sphere presented as carrier flat (dimension d+1 >= 1) cut by an
    ambient hypersphere whose center lies in the carrier; surface None, with
    the whole space as carrier, means the whole extended space. Its spheres,
    the surface and the extended hyperplanes through the carrier, are built
    once: incidence and the key read their rows."""

    def __init__(self, carrier: Flat, surface: Optional[Hypersphere]):
        if surface is None:
            if carrier.dim != carrier.ambient:
                raise GeometryError("surface None needs the whole space as carrier, "
                                    "not a %d-flat in dimension %d"
                                    % (carrier.dim, carrier.ambient))
        elif surface.dim != carrier.ambient:
            raise GeometryError("surface in dimension %d cannot cut a carrier in dimension %d"
                                % (surface.dim, carrier.ambient))
        elif carrier.dim < 1:
            raise GeometryError("a surface cannot cut a carrier of dimension 0")
        self.__dict__.update(carrier=carrier, surface=surface, _values=(carrier, surface))

    @property
    def dim(self) -> int:
        if self.surface is None:
            return self.carrier.dim
        return self.carrier.dim - 1

    @property
    def ambient(self) -> int:
        return self.carrier.ambient

    @cached_property
    def _spheres(self) -> Tuple[Hypersphere, ...]:
        """Its surface and the carrier's hyperplanes, each with c = 0 * a on a's backend."""
        if self.surface is None:
            return ()
        return (self.surface, *(Hypersphere.make(0 * a, v, a) for _, *v, a in self.carrier._rows))

    def contains(self, p: Point) -> bool:
        if p.dim != self.ambient:
            raise GeometryError("point dimension mismatch")
        return all(is_zero(_incidence(s, p, True)) for s in self._spheres)

    def key(self) -> tuple:
        return self._key

    @cached_property
    def _key(self) -> tuple:
        rows = [s.row for s in self._spheres]
        _refuse_float(rows[0][0] if rows else 0)
        n = self.ambient + 2
        return _basis_key(_linalg.nullspace(_linalg.nullspace(rows, n), n))


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
    for _, *v, a in hull._rows:
        row = [-2 * a, *v, 0]
        rows.append(_linalg.zt_row(row) if type(rows[0][0]) is tuple else row)
    ns = _linalg.nullspace(rows, n + 2)
    if ns:
        return SubSphere(hull, _sphere_of(ns[0]))
    if hull.dim == n:
        return SubSphere(hull, None)
    return _extended_flat_subsphere(hull, n)


def _refuse_float(x: Scalar) -> None:
    if isinstance(x, float):
        raise BackendMismatch("sphere keys need exact coordinates")


def _basis_key(basis: Sequence[Sequence]) -> tuple:
    """The key of the generalized sphere whose coefficient space has the exact
    `_linalg.nullspace` basis given: its vectors, each `canonical`. That basis
    depends only on the space, so equal spheres get equal keys."""
    return tuple(tuple(_linalg.canonical(v)) for v in basis)


def span_key(points: Sequence[Point]) -> Optional[tuple]:
    """`smallest_sphere(points).key()`, the key of the nullspace of the lifted
    rows, or None when they are dependent (the sphere has dimension below
    len(points) - 2). A `span_walk` key is this basis before `_basis_key`."""
    rows, n = _lifted(points)
    _refuse_float(rows[0][0])
    _check_distinct(rows, "span_key")
    ns = _linalg.nullspace(rows, n + 2)
    if len(rows) + len(ns) > n + 2:
        return None
    return _basis_key(ns)


def span_walk(points: Sequence[Point], size: int) -> Iterator[Tuple[tuple, tuple]]:
    """(subset, key) for each `size`-subset that `span_key` keys, in order.
    Each point is lifted once; a depth-first walk cuts the prefix's nullspace
    basis (its pencil of spheres), from the identity, by one row per point, in
    Z[t] for a family with a Q(2^(1/4)) point, as `_linalg.nullspace` does. A
    leaf's key is that basis (`zt_normal` int 4-tuples in Z[t]): it depends
    only on the row space, so a walk keys one sphere alike, and `_basis_key`
    turns it into the subset's `span_key`."""
    rows, n = _lifted(points)
    _refuse_float(rows[0][0])
    zt = type(rows[0][0]) is tuple
    cut = _linalg.zt_cut if zt else _linalg.cut
    if zt:
        rows = [_linalg.zt_twisted(r) for r in rows]

    def walk(start: int, prefix: Tuple[int, ...], basis: List[List]) -> Iterator:
        for i in range(start, len(rows) - size + len(prefix) + 1):
            narrowed = cut(basis, rows[i])
            if narrowed is None:
                continue
            subset = prefix + (i,)
            if len(subset) < size:
                yield from walk(i + 1, subset, narrowed)
            else:
                yield subset, tuple(map(tuple, narrowed))

    yield from walk(0, (), _linalg.identity(n + 2, zt))
