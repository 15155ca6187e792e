"""Test-only samplers shared by several test files; the package has no
caller for them."""

from typing import List

from inversive.colorings import _distinct, _random_points, _stereographic
from inversive.geom import Point
from inversive.witness import ColoringError


def rational_sphere_points(n: int, count: int, seed: int = 0) -> List[Point]:
    """Seeded exact rational points of the unit n-sphere in R^(n+1)."""
    if count < 1:
        raise ColoringError("need a positive sample count")
    return [Point.finite(_stereographic(p.coords))
            for p in _distinct(_random_points(n, seed), count)]
