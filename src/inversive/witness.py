"""Colored configurations, witnesses, and the separation procedures.

This is all that `separate`, `validate` and `plot` run. It stands on `geom`
and `exactnum` alone, so a process that builds, re-checks or draws a witness
loads neither the searches of `chromatic` nor the colorings of `colorings`.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, FrozenSet, List, Sequence, Tuple, Union

from .exactnum import is_zero, sign_of
from .geom import (
    DegenerateConfigError,
    Frozen,
    GeometryError,
    Hypersphere,
    Point,
    SubSphere,
    on_sphere,
    separated,
    separation_signs,
    sphere_through,
    vec_dot,
    vec_sub,
)

if TYPE_CHECKING:
    from .colorings import ProceduralColoring

ColoredPoint = Tuple[Point, int]
SphereLike = Union[Hypersphere, SubSphere]


class ColoringError(GeometryError):
    """A point outside a coloring's domain, or an unsatisfiable sample."""


class SearchBudgetError(GeometryError):
    """A search that had to produce a witness ran out of budget instead."""


class ColoredConfig(Frozen):
    """A finite colored point set: the search input format."""

    def __init__(self, n: int, k: int, items: Tuple[ColoredPoint, ...]):
        pts = [p for p, _ in items]
        if len(set(pts)) != len(pts):
            raise ColoringError("configuration points must be distinct")
        for p, c in items:
            if p.dim != n:
                raise ColoringError("configuration point has the wrong dimension")
            if not 1 <= c <= k:
                raise ColoringError("color %d outside 1..%d" % (c, k))
        self._freeze(n, k, items)

    @classmethod
    def sample(cls, coloring: ProceduralColoring, per_class: int,
               seed: int = 0) -> ColoredConfig:
        """The sample every scan draws: class i of the coloring from seed + i."""
        from .colorings import FlagEuclidean, num_colors, sample_class
        items: List[ColoredPoint] = []
        k = num_colors(coloring)
        for i in range(1, k + 1):
            for p in sample_class(coloring, i, per_class, seed + i):
                items.append((p, i))
        n = coloring.n if not isinstance(coloring, FlagEuclidean) else coloring.n + 1
        return cls(n, k, tuple(items))

    def points_of_color(self, i: int) -> List[Point]:
        return [p for p, c in self.items if c == i]

    def points(self) -> List[Point]:
        return [p for p, _ in self.items]


class PolychromaticWitness(Frozen):
    """A sphere with incident colored points realizing |color_set| colors."""

    def __init__(self, sphere: SphereLike, on_points: Tuple[ColoredPoint, ...],
                 color_set: FrozenSet[int]):
        pts = [p for p, _ in on_points]
        if len(set(pts)) != len(pts):
            raise GeometryError("witness points must be distinct")
        for p in pts:
            if not sphere.contains(p):
                raise GeometryError("witness point %r is off the sphere" % (p,))
        if frozenset(c for _, c in on_points) != color_set:
            raise GeometryError("witness color set does not match its points")
        self._freeze(sphere, on_points, color_set)


class SeparationWitness(Frozen):
    """A sphere through distinct-colored points separating two more colors."""

    def __init__(self, sphere: Hypersphere, defining: Tuple[ColoredPoint, ...],
                 separated_pair: Tuple[ColoredPoint, ColoredPoint]):
        n = sphere.dim + 1
        if len(defining) != n or len({p for p, _ in defining}) != n:
            raise GeometryError("a separation witness needs %d distinct defining points" % n)
        colors = [c for _, c in defining] + [c for _, c in separated_pair]
        if len(set(colors)) != len(colors):
            raise GeometryError("separation witness colors must be distinct")
        for p, _ in defining:
            if not on_sphere(p, sphere):
                raise GeometryError("defining point is off the sphere")
        (x, _), (y, _) = separated_pair
        if not separated(x, y, sphere):
            raise GeometryError("claimed pair is not separated")
        self._freeze(sphere, defining, separated_pair)


def _line_role(triple: Sequence[Point]):
    """For a planar role triple, None when its circle is genuine, and else
    whether its first point lies strictly between the other two on their
    extended line: a triple is on a line when it holds infinity, which
    counts as between, or when its 2x2 cross product is zero."""
    if any(p.is_infinity for p in triple):
        return True
    a, b, c = (p.coords for p in triple)
    (ux, uy), (vx, vy) = vec_sub(b, a), vec_sub(c, a)
    if not is_zero(ux * vy - uy * vx):
        return None
    d = vec_sub(c, b)
    t = vec_dot(vec_sub(a, b), d)
    return sign_of(t) > 0 and sign_of(vec_dot(d, d) - t) > 0


def _role_assignments(k: int):
    for a in range(k):
        rest = [i for i in range(k) if i != a]
        for b, c in combinations(rest, 2):
            yield a, b, c


def separating_circle_5pts(pairs: Sequence[ColoredPoint]) -> SeparationWitness:
    """The planar separating-circle procedure for five distinct-colored
    points, no four concyclic.

    Follows the constructive argument without building its Moebius map. The
    role triple (a, b, c) is the first, in lexicographic order, on an
    extended line with a between b and c, and otherwise the first on a
    genuine circle; both are read off the points, so only the witness's
    circle is built. Some Moebius map sends the triple onto a line with a
    strictly between b and c, where a is inside every circle through b and c.
    Since separation is Moebius invariant, both tests compare
    `separation_signs`: either the role circle separates the other two points
    d and e, or the circle through e, b, c separates a from d, or else the
    circle through d, b, c separates a from e."""
    if len(pairs) != 5:
        raise GeometryError("need exactly five colored points")
    pts = [p for p, _ in pairs]
    colors = [c for _, c in pairs]
    if len(set(pts)) != 5 or any(p.dim != 2 for p in pts):
        raise GeometryError("need five distinct planar points")
    if len(set(colors)) != 5:
        raise DegenerateConfigError("need five distinct colors")
    signs = separation_signs(pts)
    if signs is None:
        raise DegenerateConfigError("four of the points are concyclic")

    chosen = fallback = None
    for roles in _role_assignments(5):
        between = _line_role([pts[i] for i in roles])
        if between:
            chosen = roles
            break
        if fallback is None and between is None:
            fallback = roles
    a, b, c = chosen or fallback

    d, e = [i for i in range(5) if i not in (a, b, c)]
    if signs[d] != signs[e]:
        # a shares its sign with one of d, e: the circle through the other
        # one, b and c separates that pair
        a, d, e = (e, a, d) if signs[d] == signs[a] else (d, a, e)
    circle = sphere_through([pts[a], pts[b], pts[c]])
    return SeparationWitness(circle, (pairs[a], pairs[b], pairs[c]), (pairs[d], pairs[e]))


def separating_sphere_bruteforce(pairs: Sequence[ColoredPoint]) -> SeparationWitness:
    """The sphere through the first (n+1)-subset of n+3 colored points, in
    lexicographic order, whose other two have equal `separation_signs`: it
    separates them, and two of n+3 nonzero signs always agree."""
    pts = [p for p, _ in pairs]
    colors = [c for _, c in pairs]
    if not pts:
        raise GeometryError("empty input")
    n = pts[0].dim
    if len(pairs) != n + 3:
        raise GeometryError("need exactly n+3 colored points")
    if len(set(pts)) != len(pts) or len(set(colors)) != len(colors):
        raise GeometryError("points and colors must be distinct")
    signs = separation_signs(pts)
    if signs is None:
        raise DegenerateConfigError("n+2 of the points share a sphere")
    for subset in combinations(range(n + 3), n + 1):
        i, j = [k for k in range(n + 3) if k not in subset]
        if signs[i] == signs[j]:
            break
    return SeparationWitness(sphere_through([pts[k] for k in subset]),
                             tuple(pairs[k] for k in subset), (pairs[i], pairs[j]))
