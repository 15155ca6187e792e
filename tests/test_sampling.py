"""Differential tests for how the scans and the colorings draw samples.

The scans draw their samples through `ColoredConfig.sample`, and the
colorings draw random points from one seeded stream. The `reference_*`
functions below are the loops that each scan and each coloring used to
write for itself, kept as oracles: class i from `seed + i`, points straight
from `_rational_stream`. The library must give the same samples, witnesses
and reports over several seeds.
"""

import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from inversive.chromatic import find_polychromatic, verify_flag, verify_two_line
from inversive.colorings import (FlagInversive, PointListBackground, TwoLine, _rational_stream,
                                 _stereographic)
from inversive.exactnum import is_zero
from inversive.geom import GeometryError, Point, on_common_sphere, on_sphere, sphere_through
from inversive.jsonio import decode_coloring
from inversive.witness import ColoredConfig, ColoringError, PolychromaticWitness

from helpers import rational_sphere_points


def reference_points(n, seed):
    rats = _rational_stream(random.Random(seed))
    while True:
        yield Point.finite(tuple(next(rats) for _ in range(n)))


def reference_distinct(stream, count, seen=()):
    out, seen = [], set(seen)
    for p in stream:
        if p not in seen:
            seen.add(p)
            out.append(p)
            if len(out) == count:
                return out


def reference_flag_class(n, i, count, seed):
    """A flag class of R^n_inf beyond the origin and infinity."""
    rats = _rational_stream(random.Random(seed))

    def gen():
        while True:
            head = [next(rats) for _ in range(i - 2)]
            if head[-1] == 0:
                continue
            yield Point.finite(tuple(head) + (F(0),) * (n - i + 2))

    return reference_distinct(gen(), count)


def reference_background(coloring, count, seed):
    """The background class of a `PointListBackground`: its listed points
    first, then fresh random points."""
    listed = [p for p, c in zip(coloring.points, coloring.colors)
              if c == coloring.background]

    def gen():
        yield from listed
        yield from reference_points(coloring.n, seed)

    return reference_distinct(gen(), count, set(coloring.points) - set(listed))


def reference_rational_sphere_points(n, count, seed):
    rats = _rational_stream(random.Random(seed))
    seen, out = set(), []
    while len(out) < count:
        t = tuple(next(rats) for _ in range(n))
        if t not in seen:
            seen.add(t)
            out.append(Point.finite(_stereographic(t)))
    return out


def reference_pool(coloring, m, seed):
    """The per-class pool: class i drawn with seed + i, an empty class left
    out."""
    pool = []
    for i in range(1, coloring.k + 1):
        try:
            pool += [(p, i) for p in coloring.sample_class(i, m, seed + i)]
        except ColoringError:
            pass
    return pool


def reference_find_polychromatic(coloring, target, budget, seed, m):
    pool = reference_pool(coloring, m, seed)
    examined = 0
    for (pa, ca), (pb, cb), (pc, cc) in combinations(pool, 3):
        if len({ca, cb, cc}) != 3:
            continue
        if examined >= budget:
            return None
        examined += 1
        try:
            circle = sphere_through([pa, pb, pc])
        except GeometryError:
            continue
        on = [(p, c) for p, c in pool if on_sphere(p, circle)]
        colors = frozenset(c for _, c in on)
        if len(colors) >= target:
            chosen = []
            for p, c in on:
                if c not in {d for _, d in chosen}:
                    chosen.append((p, c))
            return PolychromaticWitness(circle, tuple(chosen), colors)
    return None


def reference_verify_flag(n, per_class, seed):
    flag = FlagInversive(n)
    classes = [flag.sample_class(i, 1 if i <= 2 else per_class, seed + i)
               for i in range(1, flag.k + 1)]
    tuples = list(product(*classes))
    return {"n": n, "sample_sizes": [len(c) for c in classes],
            "tuples_checked": len(tuples),
            "violations": [t for t in tuples if on_common_sphere(t)]}


def reference_axis_samples(per_class, seed):
    out = []
    for color in range(1, 6):
        for p in TwoLine().sample_class(color, per_class + 2, seed + color):
            if p.is_infinity:
                continue
            x, y = p.coords
            if is_zero(x) and is_zero(y):
                continue
            out.append(("C2", y, color) if is_zero(x) else ("C1", x, color))
    return out


def reference_verify_two_line(per_class, seed):
    samples = reference_axis_samples(per_class, seed)
    lines = {axis: [(v, c) for a, v, c in samples if a == axis] for axis in ("C1", "C2")}
    prods = {}
    for axis, pool in lines.items():
        table = prods[axis] = {}
        for (v1, col1), (v2, col2) in combinations(pool, 2):
            if col1 != col2:
                table.setdefault(v1 * v2, []).append((col1, col2, v1, v2))
    pairs_compared, violations = 0, []
    for value, entries1 in prods["C1"].items():
        entries2 = prods["C2"].get(value)
        if entries2 is None:
            pairs_compared += len(entries1)
            continue
        for e1, e2 in product(entries1, entries2):
            pairs_compared += 1
            if len({e1[0], e1[1], e2[0], e2[1]}) == 4:
                violations.append({"C1": e1, "C2": e2})
    line_colors = {axis: sorted({c for _, c in pool} | {1}) for axis, pool in lines.items()}
    violations += [{"line": axis, "colors": cols}
                   for axis, cols in line_colors.items() if len(cols) > 3]
    return {"samples": len(samples), "products_on_C1": len(prods["C1"]),
            "products_on_C2": len(prods["C2"]), "pairs_compared": pairs_compared,
            "line_colors": line_colors, "violations": violations}


def generic(n, k, seed):
    """The generic-points coloring: k - 1 marked points over background k."""
    return decode_coloring({"kind": "generic", "n": n, "k": k, "seed": seed})


# the listed background point lies on the line through (1, 0), (0, 1) and
# infinity, so that line carries all four colors
LISTED = PointListBackground(
    2, (Point.finite((0, 0)), Point.finite((1, 0)), Point.infinity(2), Point.finite((0, 1)),
        Point.finite((2, -1))),
    (2, 2, 3, 4, 1), background=1)

SEEDS = range(5)


class TestColoringStreams:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_flag_classes(self, n):
        for seed in SEEDS:
            for i in range(3, n + 3):
                assert (FlagInversive(n).sample_class(i, 7, seed)
                        == reference_flag_class(n, i, 7, seed))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generic_background(self, n):
        for seed in SEEDS:
            g = generic(n, n + 3, seed)
            assert g.sample_class(g.k, 9, seed) == reference_background(g, 9, seed)

    def test_listed_background(self):
        for seed in SEEDS:
            for count in (1, 3, 8):
                assert (LISTED.sample_class(LISTED.background, count, seed)
                        == reference_background(LISTED, count, seed))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rational_sphere_points(self, n):
        # on the circle (n = 1) 40 draws repeat a parameter for every seed
        for seed in SEEDS:
            assert (rational_sphere_points(n, 40, seed)
                    == reference_rational_sphere_points(n, 40, seed))


class TestScanSamples:
    @pytest.mark.parametrize("coloring,target,budget,m", [
        (FlagInversive(2), 3, 60, 3),
        (FlagInversive(2), 4, 40, 3),
        (TwoLine(), 3, 200, 3),
        (TwoLine(), 4, 40, 3),
        (generic(2, 5, 3), 3, 60, 3),
        (generic(2, 5, 3), 4, 60, 4),
        (LISTED, 3, 60, 3),
        (LISTED, 4, 80, 4),
    ])
    def test_find_polychromatic(self, coloring, target, budget, m):
        for seed in SEEDS:
            assert (ColoredConfig.sample(coloring, m, seed).items
                    == tuple(reference_pool(coloring, m, seed)))
            got = find_polychromatic(coloring, target, budget, seed, samples_per_class=m)
            want = reference_find_polychromatic(coloring, target, budget, seed, m)
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("n,per_class", [(1, 9), (2, 6), (3, 3)])
    def test_verify_flag(self, n, per_class):
        for seed in SEEDS:
            assert verify_flag(n, per_class, seed) == reference_verify_flag(n, per_class, seed)

    @pytest.mark.parametrize("per_class", range(1, 9))
    def test_verify_two_line(self, per_class):
        for seed in (0, 1, 2):
            assert verify_two_line(per_class, seed) == reference_verify_two_line(per_class, seed)
