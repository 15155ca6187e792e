"""Great spheres of the unit sphere in R^(n+1).

A great (d-1)-sphere is the section of the unit sphere by a d-dimensional
linear subspace through the origin, so everything here is exact linear
algebra over subspace bases. Two great hyperspheres always meet: the
intersection subspace has dimension at least one by counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import _linalg
from .chromatic import PolychromaticWitness, most_colored, sphere_index
from .colorings import ColoredConfig, FlagEuclidean, sample_class
from .exactnum import BackendMismatch, common_kind, is_zero, promote, sqrt_in_field
from .geom import (
    DegenerateConfigError,
    Flat,
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


def _on_unit_sphere(p: Point) -> None:
    if p.is_infinity:
        raise GeometryError("points of the unit sphere are finite")
    if not is_zero(vec_dot(p.coords, p.coords) - 1):
        raise GeometryError("point %r is not on the unit sphere" % (p,))


@dataclass(frozen=True)
class GreatFlat:
    """Linear subspace of R^(n+1), stored as its reduced-echelon basis so
    equal subspaces compare equal; its unit-sphere section is a great
    (dim-1)-sphere."""

    basis: Tuple[Tuple[Scalar, ...], ...]

    @classmethod
    def span(cls, vectors: Sequence[Sequence[Scalar]]) -> "GreatFlat":
        if not vectors:
            raise GeometryError("need at least one spanning vector")
        ncols = len(vectors[0])
        if any(len(v) != ncols for v in vectors):
            raise GeometryError("spanning vectors disagree in length")
        red, _ = _linalg.echelon(_promoted_rows(vectors), ncols)
        if not red:
            raise GeometryError("zero vectors span no subspace")
        return cls(tuple(tuple(r) for r in red))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient(self) -> int:
        return len(self.basis[0])

    def contains_direction(self, v: Sequence[Scalar]) -> bool:
        rows = _promoted_rows(list(self.basis) + [list(v)])
        return _linalg.rank(rows, self.ambient) == self.dim

    def contains(self, p: Point) -> bool:
        if p.is_infinity:
            return False
        return self.contains_direction(p.coords)

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
    first standard basis vectors that grow the span."""
    if not points:
        raise GeometryError("need at least one point")
    for p in points:
        _on_unit_sphere(p)
    ambient = points[0].dim
    if any(p.dim != ambient for p in points):
        raise GeometryError("points disagree in ambient dimension")
    if not 1 <= d <= ambient:
        raise GeometryError("target dimension out of range")
    basis, _ = _linalg.echelon(_promoted_rows([list(p.coords) for p in points]), ambient)
    if len(basis) > d:
        raise GeometryError("points span more than the target dimension")
    for i in range(ambient):
        if len(basis) >= d:
            break
        e = [Fraction(1) if j == i else Fraction(0) for j in range(ambient)]
        candidate = basis + [e]
        if _linalg.rank(candidate, ambient) > len(basis):
            basis = candidate
    return GreatFlat.span(basis)


@dataclass(frozen=True)
class GreatIntersection:
    """A common direction of two great spheres with its antipodal sphere
    points; `exact` is False when scaling the direction to unit length left
    the scalar field and the points fall back to floats."""

    direction: Tuple[Scalar, ...]
    points: Tuple[Point, Point]
    exact: bool


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
    normals = _linalg.nullspace([list(b) for b in s.basis], s.ambient)
    if len(normals) != 1:
        raise GeometryError("hyperplane basis is not full rank")
    u = normals[0]
    c1, c2 = [list(b) for b in c.basis]
    a1, a2 = vec_dot(u, c1), vec_dot(u, c2)
    if is_zero(a1) and is_zero(a2):
        w = tuple(c1)
    else:
        w = vec_sub(vec_scale(a1, c2), vec_scale(a2, c1))
    lead = next(x for x in w if not is_zero(x))
    if isinstance(lead, int):
        lead = Fraction(lead)
    w = tuple(x / lead for x in w)
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


def max_colors_great(config: ColoredConfig) -> PolychromaticWitness:
    """The most-colored great hypersphere spanned by n-subsets of a colored
    configuration on the unit n-sphere; rank-deficient subsets are padded by
    the deterministic completion, every configuration point on the span is
    counted, and ties go to the lexicographically smallest subset."""
    pts = config.points()
    if not pts:
        raise DegenerateConfigError("empty configuration")
    for p in pts:
        _on_unit_sphere(p)
    n = pts[0].dim - 1
    index = sphere_index(pts, min(n, len(pts)),
                         lambda subset: great_flat_through(subset, n).key())
    subset, on = most_colored(config, index)
    flat = great_flat_through([pts[i] for i in subset], n)
    return PolychromaticWitness(flat.subsphere(), on, frozenset(c for _, c in on))


def verify_flag_euclidean(n: int = 2, per_class: int = 16, seed: int = 0) -> dict:
    """Sharpness scan for the flag coloring of the unit n-sphere: over great
    hyperspheres spanned by n-subsets of class samples, none may attain
    n+1 colors."""
    coloring = FlagEuclidean(n)
    samples: List[Tuple[Point, int]] = []
    for i in range(1, coloring.k + 1):
        for p in sample_class(coloring, i, per_class, seed + i):
            samples.append((p, i))
    index = sphere_index([p for p, _ in samples], n,
                         lambda subset: great_flat_through(subset, n).key())
    max_colors = 0
    violations = []
    for subset, on in index.values():
        colors = {samples[i][1] for i in on}
        max_colors = max(max_colors, len(colors))
        if len(colors) >= n + 1:
            violations.append({"subset": subset, "colors": sorted(colors)})
    return {
        "n": n,
        "samples": len(samples),
        "circles_checked": len(index),
        "max_colors": max_colors,
        "violations": violations,
    }
