"""Procedural full colorings of the inversive plane and of unit spheres.

Each coloring is an immutable rule object: color_of evaluates the rule at a
point, sample_class produces seeded points of one color class. Every class
of 1..k is nonempty; finite classes clamp sample requests to their size.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations
from operator import mul
from typing import Iterator, List, Optional, Sequence, Set, Tuple, Union

from ._linalg import null_vector
from .exactnum import (
    BackendMismatch,
    NormClass,
    THETA,
    is_zero,
    norm_class_of,
)
from .geom import Frozen, Point, Scalar, lift_row, vec_dot
from .witness import ColoringError


def _rational_stream(rng: random.Random) -> Iterator[Fraction]:
    while True:
        num = rng.randint(-40, 40)
        den = rng.randint(1, 12)
        if num != 0:
            yield Fraction(num, den)


def _random_points(n: int, seed: int) -> Iterator[Point]:
    """The seeded stream of random finite rational points of R^n that every
    coloring draws from."""
    rats = _rational_stream(random.Random(seed))
    while True:
        yield Point.finite(tuple(next(rats) for _ in range(n)))


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


class FlagInversive(Frozen):
    """Colors R^n_inf along the standard flag of subspaces: the origin gets 1,
    infinity gets 2, and a finite nonzero point gets 2 plus the index of its
    last nonzero coordinate."""

    def __init__(self, n: int):
        if n < 1:
            raise ColoringError("ambient dimension must be at least 1")
        self.__dict__.update(n=n, _values=(n,))

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
        pad = (Fraction(0),) * (self.n - i + 2)
        return _distinct((Point.finite(p.coords + pad) for p in _random_points(i - 2, seed)),
                         count)


# The two registered lines: C1 is the extended x-axis, C2 the extended y-axis.
_TWO_LINE_AXIS_CLASSES = {
    # on C2 (y-axis), classified by the signed norm's coset of Q*
    "C2": {NormClass.QUARTIC_Q_STAR: 2, NormClass.INV_QUARTIC_Q_STAR: 3},
    # on C1 (x-axis)
    "C1": {NormClass.ROOT2_Q_STAR: 4, NormClass.Q_STAR: 5},
}
# the norm each class scales its seeded rationals by (class 1: those on C1), built once
_TWO_LINE_SCALES = {1: THETA, 2: THETA, 3: THETA ** 3, 4: THETA ** 2, 5: Fraction(1)}


class TwoLine(Frozen):
    """The 5-coloring of two crossing extended lines built from powers of
    2^(1/4): y-axis points of norm class theta*Q* get 2 and theta^3*Q* get 3,
    x-axis points of norm class sqrt(2)*Q* get 4 and Q* get 5, and every
    remaining point of the two lines (origin, infinity, unmatched norms) gets
    1. With extended=True the rest of the plane also gets 1, making a full
    5-coloring of S^2."""

    def __init__(self, extended: bool = False):
        self.__dict__.update(extended=extended, _values=(extended,))

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
        """Class 1: the origin, infinity, then seeded rationals r in turn as (0, r)
        and (r*theta, 0); class i > 1: seeded rationals scaled onto its axis, each
        rational deduplicated (in class 1 per axis) before its point is built."""
        _check_class(i, self.k, count)
        rats = _rational_stream(random.Random(seed))
        scale = _TWO_LINE_SCALES[i]
        zero, other = Fraction(0), 0 * scale  # a scaled point's other coordinate, on its backend
        if i == 1:
            def tagged():
                while True:
                    yield True, next(rats)
                    yield False, next(rats)
            head = [Point.finite((zero, zero)), Point.infinity(2)][:count]
            return head + [Point.finite((zero, r) if on_c2 else (r * scale, other))
                           for on_c2, r in (_distinct(tagged(), count - 2) if count > 2 else ())]
        return [Point.finite((other, r * scale) if i in (2, 3) else (r * scale, other))
                for r in _distinct(rats, count)]


class FlagEuclidean(Frozen):
    """Colors the unit n-sphere in R^(n+1) along the standard flag: the color
    is the index of the last nonzero coordinate, giving n+1 classes."""

    def __init__(self, n: int):
        if n < 1:
            raise ColoringError("ambient dimension must be at least 1")
        self.__dict__.update(n=n, _values=(n,))

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


class PointListBackground(Frozen):
    """Explicit colored points over a constant background color. The
    generic-points coloring is one: k-1 marked points in spherically generic
    position colored 1..k-1, over background k."""

    def __init__(self, n: int, points: Tuple[Point, ...], colors: Tuple[int, ...],
                 background: int):
        if len(points) != len(colors):
            raise ColoringError("points and colors must align")
        if len(set(points)) != len(points):
            raise ColoringError("listed points must be distinct")
        for p in points:
            if p.dim != n:
                raise ColoringError("listed point has the wrong dimension")
        realized = set(colors) | {background}
        if min(realized) < 1 or realized != set(range(1, max(realized) + 1)):
            raise ColoringError("colors must realize 1..k with no gaps")
        self.__dict__.update(n=n, points=points, colors=colors, background=background,
                             _values=(n, points, colors, background))

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
            return listed[:count]
        return _distinct(chain(listed, _random_points(self.n, seed)), count,
                         seen=set(self.points) - set(listed))


ProceduralColoring = Union[FlagInversive, TwoLine, FlagEuclidean, PointListBackground]


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


def generic_position_points(n: int, count: int, seed: int = 0) -> List[Point]:
    """Seeded rational points of R^n in spherically generic position: no n+2
    of them on a common (n-1)-sphere. A candidate must miss the `null_vector` sphere
    through each n+1 chosen points. Only a point that another follows builds its own
    spheres, and it is refused if n+1 points lie on no one sphere (None)."""
    if count < 1:
        raise ColoringError("need a positive sample count")
    stream = _random_points(n, seed)
    chosen: List[Point] = []
    rows: List[List[int]] = []
    normals: List[Optional[List[int]]] = []
    attempts = 0
    limit = 400 * count + 400
    while len(chosen) < count:
        attempts += 1
        if attempts > limit:
            raise ColoringError("generic-position sampling did not converge")
        cand = next(stream)
        if cand in chosen:
            continue
        row = lift_row(cand)
        if any(not sum(map(mul, v, row)) for v in normals):
            continue
        if len(chosen) + 1 < count:
            # the new row first, so the minor chain shares it across combinations
            new = [null_vector([row, *s], n + 2) for s in combinations(rows, n)]
            if None in new:
                continue
            normals += new
        chosen.append(cand)
        rows.append(row)
    return chosen
