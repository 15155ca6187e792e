"""Great spheres of the unit sphere in R^(n+1).

A great (d-1)-sphere is the section of the unit sphere by a d-dimensional
linear subspace through the origin, so everything here is exact linear
algebra over subspace bases. Two great hyperspheres always meet: the
intersection subspace has dimension at least one by counting.

The span of a subset is padded to the target dimension by the first
standard vectors that grow it (`_padding`), and the scans key a great
hypersphere by the canonical form of its one normal: equal subspaces have
equal orthogonal complements.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from . import _linalg
from .chromatic import IndexEntry, PolychromaticWitness, most_colored, sphere_index
from .colorings import ColoredConfig, FlagEuclidean
from .exactnum import BackendMismatch, common_kind, is_zero, promote, sqrt_in_field
from .geom import (
    DegenerateConfigError,
    Flat,
    Frozen,
    GeometryError,
    Hypersphere,
    Point,
    Scalar,
    SubSphere,
    vec_dot,
    vec_scale,
    vec_sub,
)


def _promoted_rows(vectors: Sequence[Sequence[Scalar]]) -> List[List[Scalar]]:
    flat = [x for v in vectors for x in v]
    k = common_kind(flat)
    if k == "float":
        raise BackendMismatch("great flats need an exact basis")
    return [[promote(x, k) for x in v] for v in vectors]


def _unit_sphere_rows(points: Sequence[Point]) -> List[List[Scalar]]:
    """The promoted coordinates of exact points of the unit sphere."""
    for p in points:
        if p.is_infinity:
            raise GeometryError("points of the unit sphere are finite")
        if not is_zero(vec_dot(p.coords, p.coords) - 1):
            raise GeometryError("point %r is not on the unit sphere" % (p,))
    return _promoted_rows([p.coords for p in points])


def _padding(rows: Sequence[Sequence[Scalar]], d: int) -> Tuple[List[List[int]], List[List]]:
    """(pads, normals): the first e_i outside the span of the exact rows, in
    order, until it has dimension d, and a basis of the padded span's
    orthogonal complement: the rows' nullspace, cut by each pad (an e_i that
    some normal does not annihilate)."""
    ambient = len(rows[0])
    normals = _linalg.nullspace(rows, ambient)
    if ambient - len(normals) > d:
        raise GeometryError("points span more than the target dimension")
    pads: List[List[int]] = []
    for i in range(ambient):
        if ambient - len(normals) >= d:
            break
        e = [int(j == i) for j in range(ambient)]
        cut = _linalg.cut(normals, e)
        if cut is not None:
            pads.append(e)
            normals = cut
    return pads, normals


class GreatFlat(Frozen):
    """Linear subspace of R^(n+1), stored as its reduced-echelon basis so
    equal subspaces compare equal; its unit-sphere section is a great
    (dim-1)-sphere."""

    def __init__(self, basis: Tuple[Tuple[Scalar, ...], ...]):
        self.__dict__.update(basis=basis, _values=(basis,))

    @classmethod
    def span(cls, vectors: Sequence[Sequence[Scalar]]) -> "GreatFlat":
        if not vectors:
            raise GeometryError("need at least one spanning vector")
        ncols = len(vectors[0])
        if any(len(v) != ncols for v in vectors):
            raise GeometryError("spanning vectors disagree in length")
        rows = _promoted_rows(vectors)
        red, _ = _linalg.echelon(rows, ncols)
        if not red:
            raise GeometryError("zero vectors span no subspace")
        return cls(tuple(tuple(_linalg.lead_one(r, common_kind(rows[0]))) for r in red))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient(self) -> int:
        return len(self.basis[0])

    @cached_property
    def _normals(self) -> List[List[Scalar]]:
        """A basis of the subspace's orthogonal complement, computed once."""
        return _linalg.nullspace(self.basis, self.ambient)

    def contains_direction(self, v: Sequence[Scalar]) -> bool:
        if len(v) != self.ambient:
            raise GeometryError("direction of length %d in R^%d" % (len(v), self.ambient))
        if any(isinstance(x, float) for x in v):
            raise BackendMismatch("cannot mix float with exact scalars")
        return all(is_zero(vec_dot(u, v)) for u in self._normals)

    def contains(self, p: Point) -> bool:
        if p.dim != self.ambient:
            raise GeometryError("point dimension mismatch")
        return not p.is_infinity and self.contains_direction(p.coords)

    def subsphere(self) -> SubSphere:
        """The great sphere as a carrier flat cut by the unit sphere."""
        origin = Point.finite((Fraction(0),) * self.ambient)
        carrier = Flat.through([origin] + [Point.finite(b) for b in self.basis])
        unit = Hypersphere.make(
            Fraction(1), (Fraction(0),) * self.ambient, Fraction(-1))
        return SubSphere(carrier, unit)

    def key(self) -> tuple:
        return self.basis


def great_flat_through(points: Sequence[Point], d: int) -> GreatFlat:
    """Span of unit-sphere points, padded to dimension d by appending the
    first standard basis vectors that grow the span (`_padding`)."""
    if not points:
        raise GeometryError("need at least one point")
    rows = _unit_sphere_rows(points)
    ambient = points[0].dim
    if any(p.dim != ambient for p in points):
        raise GeometryError("points disagree in ambient dimension")
    if not 1 <= d <= ambient:
        raise GeometryError("target dimension out of range")
    pads, _ = _padding(rows, d)
    return GreatFlat.span(rows + pads)


class GreatIntersection(Frozen):
    """A common direction of two great spheres with its antipodal sphere
    points; `exact` is False when scaling the direction to unit length left
    the scalar field and the points fall back to floats."""

    def __init__(self, direction: Tuple[Scalar, ...], points: Tuple[Point, Point], exact: bool):
        self.__dict__.update(direction=direction, points=points, exact=exact,
                             _values=(direction, points, exact))


def great_intersection(s: GreatFlat, c: GreatFlat) -> GreatIntersection:
    """A pair of antipodal points common to a great hypersphere and a great
    circle: the hyperplane and plane subspaces always share a line.

    When the circle's plane lies inside the hyperplane, the first canonical
    basis vector of the plane is used."""
    if s.ambient != c.ambient:
        raise GeometryError("subspaces live in different ambient spaces")
    if s.dim != s.ambient - 1:
        raise GeometryError("first argument must be a hyperplane subspace")
    if c.dim != 2:
        raise GeometryError("second argument must be a plane subspace")
    if len(s._normals) != 1:
        raise GeometryError("hyperplane basis is not full rank")
    u = s._normals[0]
    c1, c2 = [list(b) for b in c.basis]
    a1, a2 = vec_dot(u, c1), vec_dot(u, c2)
    if is_zero(a1) and is_zero(a2):
        w = tuple(c1)
    else:
        w = vec_sub(vec_scale(a1, c2), vec_scale(a2, c1))
    w = tuple(_linalg.lead_one(_linalg.canonical(w), common_kind(w)))
    nn = vec_dot(w, w)
    root = sqrt_in_field(nn)
    if root is not None:
        plus = Point.finite(vec_scale(1 / root, w))
        return GreatIntersection(w, (plus, Point.finite(vec_scale(-1, plus.coords))),
                                 True)
    wf = tuple(float(x) for x in w)
    norm = math.sqrt(sum(x * x for x in wf))
    plus = Point.finite(tuple(x / norm for x in wf))
    minus = Point.finite(tuple(-x for x in plus.coords))
    return GreatIntersection(w, (plus, minus), False)


def _great_index(points: Sequence[Point], n: int) -> Dict[tuple, IndexEntry]:
    """`sphere_index` of the min(n, len(points))-subsets of points of the unit
    n-sphere, each keyed by the canonical normal of its span padded to
    dimension n."""
    rows = _unit_sphere_rows(points)
    subsets = combinations(range(len(rows)), min(n, len(rows)))
    return sphere_index(
        (s, tuple(_linalg.canonical(_padding([rows[i] for i in s], n)[1][0])))
        for s in subsets)


def max_colors_great(config: ColoredConfig) -> PolychromaticWitness:
    """The most-colored great hypersphere spanned by n-subsets of a colored
    configuration on the unit n-sphere, n >= 1; rank-deficient subsets are
    padded by the deterministic completion, every configuration point on the
    span is counted, and ties go to the lexicographically smallest subset."""
    pts = config.points()
    if not pts:
        raise DegenerateConfigError("empty configuration")
    n = pts[0].dim - 1
    if n < 1:
        raise GeometryError("great hyperspheres need a unit n-sphere with n >= 1; "
                            "points of R^%d lie on S^%d" % (n + 1, n))
    subset, on = most_colored(config, _great_index(pts, n))
    flat = great_flat_through([pts[i] for i in subset], n)
    return PolychromaticWitness(flat.subsphere(), on, frozenset(c for _, c in on))


def verify_flag_euclidean(n: int = 2, per_class: int = 16, seed: int = 0) -> dict:
    """Sharpness scan for the flag coloring of the unit n-sphere: over great
    hyperspheres spanned by n-subsets of class samples, none may attain
    n+1 colors."""
    config = ColoredConfig.sample(FlagEuclidean(n), per_class, seed)
    colors = [c for _, c in config.items]
    index = _great_index(config.points(), n)
    max_colors, violations = 0, []
    for subset, on in index.values():
        found = {colors[i] for i in on}
        max_colors = max(max_colors, len(found))
        if len(found) >= n + 1:
            violations.append({"subset": subset, "colors": sorted(found)})
    return {"n": n, "samples": len(colors), "circles_checked": len(index),
            "max_colors": max_colors, "violations": violations}
