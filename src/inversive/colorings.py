"""Procedural full colorings of the inversive plane and of unit spheres.

Each coloring is an immutable rule object: color_of evaluates the rule at a
point, sample_class produces seeded points of one color class. Finite classes
clamp sample requests to the class size; empty classes raise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Set, Tuple, Union

from ._linalg import cut, nullspace, rank
from .exactnum import (
    BackendMismatch,
    NormClass,
    Quartic2,
    THETA,
    is_zero,
    norm_class_of,
)
from .geom import (
    GeometryError,
    Point,
    Scalar,
    lift_row,
    vec_dot,
)


class ColoringError(GeometryError):
    """A point outside a coloring's domain, or an unsatisfiable sample."""


def _rational_stream(rng: random.Random) -> Iterator[Fraction]:
    while True:
        num = rng.randint(-40, 40)
        den = rng.randint(1, 12)
        if num != 0:
            yield Fraction(num, den)


def _distinct(stream: Iterator, count: int, seen: Optional[Set] = None) -> List:
    out: List = []
    seen = set() if seen is None else set(seen)
    for item in stream:
        if item in seen:
            continue
        seen.add(item)
        out.append(item)
        if len(out) == count:
            return out
    raise ColoringError("sample stream exhausted")


def _last_nonzero_index(coords: Sequence[Scalar]) -> int:
    """1-based index of the last nonzero coordinate, 0 for the zero vector."""
    idx = 0
    for j, x in enumerate(coords, start=1):
        if not is_zero(x):
            idx = j
    return idx


@dataclass(frozen=True)
class FlagInversive:
    """Colors R^n_inf along the standard flag of subspaces: the origin gets 1,
    infinity gets 2, and a finite nonzero point gets 2 plus the index of its
    last nonzero coordinate."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ColoringError("ambient dimension must be at least 1")

    @property
    def k(self) -> int:
        return self.n + 2

    def color_of(self, p: Point) -> int:
        if p.dim != self.n:
            raise ColoringError("point has the wrong ambient dimension")
        if p.is_infinity:
            return 2
        idx = _last_nonzero_index(p.coords)
        return 1 if idx == 0 else 2 + idx

    def sample_class(self, i: int, count: int, seed: int = 0) -> List[Point]:
        _check_class(i, self.k, count)
        if i == 1:
            return [Point.finite((Fraction(0),) * self.n)]
        if i == 2:
            return [Point.infinity(self.n)]
        rng = random.Random(seed)
        d = i - 2
        rats = _rational_stream(rng)

        def gen():
            while True:
                head = [next(rats) for _ in range(d)]
                if head[-1] == 0:
                    continue
                yield Point.finite(tuple(head) + (Fraction(0),) * (self.n - d))

        return _distinct(gen(), count)


@dataclass(frozen=True)
class GenericPoints:
    """k-coloring with k-1 marked points in singleton classes and everything
    else in class k. The marked points are meant to be spherically generic:
    no n+2 of them on a common (n-1)-sphere."""

    n: int
    k: int
    points: Tuple[Point, ...]

    def __post_init__(self):
        if self.k < 2:
            raise ColoringError("need at least two colors")
        if len(self.points) != self.k - 1:
            raise ColoringError("expected exactly k-1 marked points")
        if len(set(self.points)) != len(self.points):
            raise ColoringError("marked points must be distinct")
        for p in self.points:
            if p.dim != self.n:
                raise ColoringError("marked point has the wrong dimension")

    @classmethod
    def random(cls, n: int, k: int, seed: int = 0) -> "GenericPoints":
        pts = generic_position_points(n, k - 1, seed)
        return cls(n, k, tuple(pts))

    def color_of(self, p: Point) -> int:
        if p.dim != self.n:
            raise ColoringError("point has the wrong ambient dimension")
        for j, x in enumerate(self.points, start=1):
            if p == x:
                return j
        return self.k

    def sample_class(self, i: int, count: int, seed: int = 0) -> List[Point]:
        _check_class(i, self.k, count)
        if i < self.k:
            return [self.points[i - 1]]
        rng = random.Random(seed)
        rats = _rational_stream(rng)
        taken = set(self.points)

        def gen():
            while True:
                yield Point.finite(tuple(next(rats) for _ in range(self.n)))

        return _distinct(gen(), count, seen=taken)


# The two registered lines: C1 is the extended x-axis, C2 the extended y-axis.
_TWO_LINE_AXIS_CLASSES = {
    # on C2 (y-axis), classified by the signed norm's coset of Q*
    "C2": {NormClass.QUARTIC_Q_STAR: 2, NormClass.INV_QUARTIC_Q_STAR: 3},
    # on C1 (x-axis)
    "C1": {NormClass.ROOT2_Q_STAR: 4, NormClass.Q_STAR: 5},
}


@dataclass(frozen=True)
class TwoLine:
    """The 5-coloring of two crossing extended lines built from powers of
    2^(1/4): y-axis points of norm class theta*Q* get 2 and theta^3*Q* get 3,
    x-axis points of norm class sqrt(2)*Q* get 4 and Q* get 5, and every
    remaining point of the two lines (origin, infinity, unmatched norms) gets
    1. With extended=True the rest of the plane also gets 1, making a full
    5-coloring of S^2."""

    extended: bool = False

    @property
    def n(self) -> int:
        return 2

    @property
    def k(self) -> int:
        return 5

    def color_of(self, p: Point) -> int:
        if p.dim != 2:
            raise ColoringError("two-line coloring lives in the plane")
        if p.is_infinity:
            return 1
        x, y = p.coords
        if isinstance(x, float) or isinstance(y, float):
            raise BackendMismatch("two-line colors need exact coordinates")
        on_c1, on_c2 = is_zero(y), is_zero(x)
        if not on_c1 and not on_c2:
            if self.extended:
                return 1
            raise ColoringError("point is off both registered lines")
        if on_c1 and on_c2:
            return 1
        coord = x if on_c1 else y
        cls = norm_class_of(coord)
        table = _TWO_LINE_AXIS_CLASSES["C1" if on_c1 else "C2"]
        return table.get(cls, 1)

    def sample_class(self, i: int, count: int, seed: int = 0) -> List[Point]:
        _check_class(i, self.k, count)
        rng = random.Random(seed)
        rats = _rational_stream(rng)
        zero = Fraction(0)
        if i == 1:
            def gen():
                yield Point.finite((zero, zero))
                yield Point.infinity(2)
                while True:
                    yield Point.finite((zero, next(rats)))          # Q* norm on C2
                    yield Point.finite((next(rats) * THETA, zero))  # theta norm on C1
            return _distinct(gen(), count)
        scale = {2: THETA, 3: THETA ** 3, 4: THETA ** 2, 5: Fraction(1)}[i]
        axis_is_c2 = i in (2, 3)

        def gen():
            while True:
                v = next(rats) * scale
                yield Point.finite((zero, v) if axis_is_c2 else (v, zero))

        return _distinct(gen(), count)


@dataclass(frozen=True)
class FlagEuclidean:
    """Colors the unit n-sphere in R^(n+1) along the standard flag: the color
    is the index of the last nonzero coordinate, giving n+1 classes."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ColoringError("ambient dimension must be at least 1")

    @property
    def k(self) -> int:
        return self.n + 1

    def color_of(self, p: Point) -> int:
        if p.is_infinity or p.dim != self.n + 1:
            raise ColoringError("expected a point of the unit sphere in R^(n+1)")
        if not is_zero(vec_dot(p.coords, p.coords) - 1):
            raise ColoringError("point is not on the unit sphere")
        return _last_nonzero_index(p.coords)

    def sample_class(self, i: int, count: int, seed: int = 0) -> List[Point]:
        _check_class(i, self.k, count)
        pad = (Fraction(0),) * (self.n + 1 - i)
        if i == 1:
            pair = [Point.finite((Fraction(1),) + pad), Point.finite((Fraction(-1),) + pad)]
            return pair[:count]
        rng = random.Random(seed)
        rats = _rational_stream(rng)

        def gen():
            while True:
                t = tuple(next(rats) for _ in range(i - 1))
                tt = vec_dot(t, t)
                if tt == 1:
                    continue  # would land on the equator with a zero last coordinate
                head = _stereographic(t)
                yield Point.finite(head + pad)

        return _distinct(gen(), count)


@dataclass(frozen=True)
class PointListBackground:
    """Explicit colored points over a constant background color."""

    n: int
    points: Tuple[Point, ...]
    colors: Tuple[int, ...]
    background: int

    def __post_init__(self):
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

    @property
    def k(self) -> int:
        return max(set(self.colors) | {self.background})

    def color_of(self, p: Point) -> int:
        if p.dim != self.n:
            raise ColoringError("point has the wrong ambient dimension")
        for pt, col in zip(self.points, self.colors):
            if p == pt:
                return col
        return self.background

    def sample_class(self, i: int, count: int, seed: int = 0) -> List[Point]:
        _check_class(i, self.k, count)
        listed = [p for p, c in zip(self.points, self.colors) if c == i]
        if i != self.background:
            if not listed:
                raise ColoringError("color class %d is empty" % i)
            return listed[:count]
        rng = random.Random(seed)
        rats = _rational_stream(rng)
        taken = set(self.points)

        def gen():
            for p in listed:
                yield p
            while True:
                yield Point.finite(tuple(next(rats) for _ in range(self.n)))

        return _distinct(gen(), count, seen=taken - set(listed))


ProceduralColoring = Union[
    FlagInversive, GenericPoints, TwoLine, FlagEuclidean, PointListBackground
]


def color_of(coloring: ProceduralColoring, p: Point) -> int:
    return coloring.color_of(p)


def sample_class(coloring: ProceduralColoring, i: int, count: int, seed: int = 0) -> List[Point]:
    return coloring.sample_class(i, count, seed)


def num_colors(coloring: ProceduralColoring) -> int:
    return coloring.k


def _check_class(i: int, k: int, count: int) -> None:
    if not 1 <= i <= k:
        raise ColoringError("color %d outside 1..%d" % (i, k))
    if count < 1:
        raise ColoringError("need a positive sample count")


def _stereographic(t: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Rational point of the unit sphere: t in Q^m maps to
    (2t, <t,t> - 1) / (<t,t> + 1) in R^(m+1)."""
    tt = vec_dot(t, t)
    denom = tt + 1
    return tuple(2 * x / denom for x in t) + ((tt - 1) / denom,)


def rational_sphere_points(n: int, count: int, seed: int = 0) -> List[Point]:
    """Seeded exact rational points of the unit n-sphere in R^(n+1)."""
    if count < 1:
        raise ColoringError("need a positive sample count")
    rng = random.Random(seed)
    rats = _rational_stream(rng)
    seen: Set[Tuple] = set()
    out: List[Point] = []
    while len(out) < count:
        t = tuple(next(rats) for _ in range(n))
        if t in seen:
            continue
        seen.add(t)
        out.append(Point.finite(_stereographic(t)))
    return out


def generic_position_points(n: int, count: int, seed: int = 0,
                            euclidean: bool = False) -> List[Point]:
    """Seeded rational points in spherically generic position.

    Inversive mode: points of R^n with no n+2 of them on a common
    (n-1)-sphere. Euclidean mode: points of the unit n-sphere in R^(n+1)
    with every n+1 of them linearly independent.
    """
    if count < 1:
        raise ColoringError("need a positive sample count")
    rng = random.Random(seed)
    rats = _rational_stream(rng)
    chosen: List[Point] = []
    # nullspace bases of the lifted subsets of at most n chosen points and the
    # normals of the (n+1)-subsets, None when dependent
    bases: List[Tuple[int, Optional[List]]] = [(0, nullspace([], n + 2))]
    normals: List[Optional[List[int]]] = []
    attempts = 0
    limit = 400 * count + 400
    while len(chosen) < count:
        attempts += 1
        if attempts > limit:
            raise ColoringError("generic-position sampling did not converge")
        if euclidean:
            t = tuple(next(rats) for _ in range(n))
            cand = Point.finite(_stereographic(t))
        else:
            cand = Point.finite(tuple(next(rats) for _ in range(n)))
        if cand in chosen:
            continue
        if euclidean:
            if _euclid_degenerate(chosen, cand, n):
                continue
        else:
            row = lift_row(cand)
            if any(v is None or not vec_dot(v, row) for v in normals):
                continue
            for size, basis in list(bases):
                grown = None if basis is None else cut(basis, row)
                if size < n:
                    bases.append((size + 1, grown))
                else:
                    normals.append(None if grown is None else grown[0])
        chosen.append(cand)
    return chosen


def _euclid_degenerate(chosen: Sequence[Point], cand: Point, n: int) -> bool:
    from itertools import combinations

    for size in range(min(len(chosen), n), n + 1):
        for subset in combinations(chosen, size):
            rows = [p.coords for p in (*subset, cand)]
            if rank(rows, len(rows[0])) < len(rows):
                return True
    return False


@dataclass(frozen=True)
class ColoredConfig:
    """A finite colored point set: the search input format."""

    n: int
    k: int
    items: Tuple[Tuple[Point, int], ...]

    def __post_init__(self):
        pts = [p for p, _ in self.items]
        if len(set(pts)) != len(pts):
            raise ColoringError("configuration points must be distinct")
        for p, c in self.items:
            if p.dim != self.n:
                raise ColoringError("configuration point has the wrong dimension")
            if not 1 <= c <= self.k:
                raise ColoringError("color %d outside 1..%d" % (c, self.k))

    @classmethod
    def sample(cls, coloring: ProceduralColoring, per_class: int,
               seed: int = 0) -> "ColoredConfig":
        items: List[Tuple[Point, int]] = []
        k = num_colors(coloring)
        for i in range(1, k + 1):
            for p in sample_class(coloring, i, per_class, seed + i):
                items.append((p, i))
        n = coloring.n if not isinstance(coloring, FlagEuclidean) else coloring.n + 1
        return cls(n, k, tuple(items))

    def points_of_color(self, i: int) -> List[Point]:
        return [p for p, c in self.items if c == i]

    def colors_present(self) -> Set[int]:
        return {c for _, c in self.items}

    def points(self) -> List[Point]:
        return [p for p, _ in self.items]
