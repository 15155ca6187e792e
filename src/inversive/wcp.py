"""Weakly circle-preserving map checking on finite circle samples.

A map built from a procedural coloring of the plane-with-infinity and a
finite image list is weakly circle-preserving on a sampled circle when its
distinct image points there lie on one circle; three or fewer distinct
images always do. The checks are sample-based: a pass means "no violation
on this sample", never an unconditional certificate.

Image points may be given in either representation: the plane with
infinity (dimension 2), or ambient coordinates of a sphere in R^(m+1)
(dimension at least 3, finite). The concyclicity machinery covers both.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import List, Mapping, Optional, Sequence, Tuple

from .colorings import FlagEuclidean, FlagInversive, ProceduralColoring, num_colors
from .geom import (
    DegenerateConfigError,
    Frozen,
    GeometryError,
    Hypersphere,
    Point,
    SubSphere,
    concyclic,
    on_sphere,
    second_intersection,
    smallest_sphere,
    sphere_through,
    vec_add,
    vec_scale,
    vec_sub,
)
from .witness import PolychromaticWitness, SearchBudgetError


def _image_points_valid(points: Sequence[Point]) -> None:
    if not points:
        raise GeometryError("empty point list")
    dim = points[0].dim
    if any(p.dim != dim for p in points):
        raise GeometryError("points disagree in dimension")
    if dim >= 3 and any(p.is_infinity for p in points):
        raise GeometryError("ambient sphere coordinates have no infinity")


class FiniteImageMap(Frozen):
    """A map of the plane-with-infinity with finite image: the coloring
    picks a class, the table picks the image point of that class."""

    def __init__(self, coloring: ProceduralColoring, image: Tuple[Point, ...],
                 table: Mapping[int, int]):
        if isinstance(coloring, FlagEuclidean) or coloring.n != 2:
            raise GeometryError("the domain must be the plane with infinity")
        _image_points_valid(image)
        if len(set(image)) != len(image):
            raise GeometryError("image points must be pairwise distinct")
        k = num_colors(coloring)
        if set(table.keys()) != set(range(1, k + 1)):
            raise GeometryError("table must assign every color 1..%d" % k)
        if any(not 0 <= v < len(image) for v in table.values()):
            raise GeometryError("table entry points outside the image list")
        self._freeze(coloring, image, table)

    def apply(self, p: Point) -> Point:
        return self.image[self.table[self.coloring.color_of(p)]]


class CgpReport(Frozen):
    """Circular-general-position verdict; a False verdict carries the
    violating circle together with the input points on it."""

    def __init__(self, verdict: bool, circle: Optional[SubSphere],
                 on_circle: Tuple[Point, ...] = ()):
        if verdict != (circle is None):
            raise GeometryError("a False verdict needs exactly one violating circle")
        if circle is not None:
            for p in on_circle:
                if not circle.contains(p):
                    raise GeometryError("reported point is off the violating circle")
        self._freeze(verdict, circle, on_circle)


def _aux_candidates(dim: int):
    if dim == 2:
        yield Point.infinity(2)
        yield Point.finite((Fraction(0), Fraction(0)))
        yield Point.finite((Fraction(1), Fraction(0)))
        yield Point.finite((Fraction(0), Fraction(1)))
    else:
        for i in range(dim):
            for sign in (1, -1):
                coords = [Fraction(0)] * dim
                coords[i] = Fraction(sign)
                yield Point.finite(tuple(coords))


def circular_general_position(points: Sequence[Point]) -> CgpReport:
    """Whether every circle's complement keeps at least two of the points.

    For a finite list the condition fails exactly when some circle spanned
    by three of the points contains all but at most one of them; fewer than
    five points always fail. The violating circle reported for tiny inputs
    is completed with deterministic auxiliary points."""
    pts = list(dict.fromkeys(points))
    _image_points_valid(pts)
    m = len(pts)
    if m <= 4:
        base = list(pts[:3])
        aux = _aux_candidates(pts[0].dim)
        while len(base) < 3:
            cand = next(aux)
            if cand not in base and cand not in pts:
                base.append(cand)
        circle = smallest_sphere(base)
        return CgpReport(False, circle, tuple(p for p in pts if circle.contains(p)))
    # Two distinct circles share at most two points, so for m >= 5 at most
    # one circle holds m - 1 of them; it misses at most one point, so its
    # lexicographically first triple lies in the first four points.
    for i, j, l in combinations(range(4), 3):
        circle = smallest_sphere([pts[i], pts[j], pts[l]])
        on = tuple(p for p in pts if circle.contains(p))
        if len(on) >= m - 1:
            return CgpReport(False, circle, on)
    return CgpReport(True, None)


class WcpViolation(Frozen):
    """A sampled domain circle whose image spreads over no single circle,
    certified by four distinct non-concyclic image points."""

    def __init__(self, sample_index: int, circle: Hypersphere,
                 domain_points: Tuple[Point, ...], images: Tuple[Point, ...]):
        if len(images) != 4 or len(set(images)) != 4:
            raise GeometryError("a violation needs four distinct image points")
        if concyclic(*images):
            raise GeometryError("claimed violation images are concyclic")
        for p in domain_points:
            if not on_sphere(p, circle):
                raise GeometryError("domain point is off the sampled circle")
        self._freeze(sample_index, circle, domain_points, images)


CircleSample = Tuple[Hypersphere, Sequence[Point]]


def wcp_check(t: FiniteImageMap,
              samples: Sequence[CircleSample]) -> Optional[WcpViolation]:
    """First sampled circle whose distinct images fail to be concyclic, or
    None when every sample passes.

    Each sample is a circle with at least four domain points on it; a point
    off its circle is an input error. Up to three distinct images always
    pass; otherwise every image must lie on the circle through the first
    three distinct ones."""
    for idx, (circle, dom_pts) in enumerate(samples):
        if len(dom_pts) < 4:
            raise GeometryError("sample %d carries fewer than four points" % idx)
        for p in dom_pts:
            if not on_sphere(p, circle):
                raise GeometryError("sample %d point %r is off its circle" % (idx, p))
        images = [t.apply(p) for p in dom_pts]
        distinct = list(dict.fromkeys(images))
        if len(distinct) <= 3:
            continue
        off = next((x for x in distinct[3:] if not concyclic(*distinct[:3], x)), None)
        if off is None:
            continue
        offending = distinct[:3] + [off]
        witnesses = []
        for img in offending:
            witnesses.append(next(p for p, q in zip(dom_pts, images) if q == img))
        return WcpViolation(idx, circle, tuple(witnesses), tuple(offending))
    return None


def sample_circles(count: int, seed: int = 0) -> List[Tuple[Hypersphere, List[Point]]]:
    """Seeded genuine circles in the plane, each with four exact points on
    it: three random rational points plus the second intersection of the
    line toward their midpoint."""
    if count < 1:
        raise GeometryError("need a positive circle count")
    rng = random.Random(seed)
    out: List[Tuple[Hypersphere, List[Point]]] = []
    while len(out) < count:
        raw = [(Fraction(rng.randint(-30, 30), rng.randint(1, 8)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 8))) for _ in range(3)]
        pts = [Point.finite(c) for c in raw]
        if len(set(pts)) != 3:
            continue
        circle = sphere_through(pts)
        if circle.is_flat:
            continue
        # the chord's midpoint is strictly inside, so this secant's second point
        # is not pts[0], nor (the three being off one line) pts[1] or pts[2]
        mid = vec_scale(Fraction(1, 2), vec_add(pts[1].coords, pts[2].coords))
        fourth = second_intersection(circle, pts[0], vec_sub(mid, pts[0].coords))
        out.append((circle, pts + [fourth]))
    return out


class FivePointRefutation(Frozen):
    """A domain circle needing four colors, so its four distinct image
    points cannot be concyclic: the map is not weakly circle-preserving."""

    def __init__(self, witness: PolychromaticWitness, domain_points: Tuple[Point, ...],
                 images: Tuple[Point, ...]):
        if len(images) != 4 or len(set(images)) != 4:
            raise GeometryError("a refutation needs four distinct image points")
        if concyclic(*images):
            raise GeometryError("refutation images are concyclic")
        self._freeze(witness, domain_points, images)


def five_point_refute(t: FiniteImageMap, budget: int = 2000,
                      seed: int = 0) -> FivePointRefutation:
    """Refute the weak circle-preservation of a five-point-image map whose
    image is in circular general position: some domain circle meets four
    color classes, and its four image points are never concyclic.

    Budget exhaustion raises rather than passing silently."""
    from .chromatic import find_polychromatic
    if len(t.image) != 5:
        raise GeometryError("the image must consist of exactly five points")
    if num_colors(t.coloring) != 5 or set(t.table.values()) != set(range(5)):
        raise GeometryError("the assignment must realize every image point")
    report = circular_general_position(t.image)
    if not report.verdict:
        raise DegenerateConfigError(
            "image is not in circular general position; use wcp_check on samples")
    witness = find_polychromatic(t.coloring, 4, budget=budget, seed=seed)
    if witness is None:
        raise SearchBudgetError(
            "no four-colored domain circle found within the budget")
    chosen = witness.on_points[:4]
    images = tuple(t.image[t.table[c]] for _, c in chosen)
    return FivePointRefutation(witness, tuple(p for p, _ in chosen), images)


def build_sharp_map(points: Sequence[Point]) -> FiniteImageMap:
    """The four-point map that is weakly circle-preserving on every sample:
    color the plane by the flag coloring (origin, infinity, punctured axis,
    rest) and send each class to one of four non-concyclic image points.
    Every circle meets at most three flag classes, so images stay within
    three points."""
    pts = list(points)
    if len(pts) != 4:
        raise GeometryError("need exactly four image points")
    _image_points_valid(pts)
    if len(set(pts)) != 4:
        raise GeometryError("image points must be distinct")
    if concyclic(*pts):
        raise GeometryError("four concyclic image points admit no sharp map")
    return FiniteImageMap(FlagInversive(2), tuple(pts), {1: 0, 2: 1, 3: 2, 4: 3})
