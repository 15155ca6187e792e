"""Polychromatic witness search and the transfer-map coset structure of the
two-line coloring.

Searches return a witness object or None (not found within the enumerated
sample or budget); absence of a witness is always a statement about the
finite sample only.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .colorings import (
    FlagInversive,
    ProceduralColoring,
    TwoLine,
    generic_position_points,
    num_colors,
)
from .exactnum import THETA, NormClass, is_zero, norm_class_of, zt_mul, zt_pair
from .geom import (
    DegenerateConfigError,
    GeometryError,
    Point,
    Scalar,
    on_common_sphere,
    on_sphere,
    smallest_sphere,
    span_walk,
    sphere_through,
    vec_scale,
    vec_sub,
)
from .witness import ColoredConfig, ColoredPoint, ColoringError, PolychromaticWitness
# the benchmark's tracer wraps the separation procedures under these names
from .witness import separating_circle_5pts, separating_sphere_bruteforce  # noqa: F401


def _exact_div(a: Scalar, b: Scalar) -> Scalar:
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


IndexEntry = Tuple[Tuple[int, ...], Set[int]]


def sphere_index(keyed: Iterable[Tuple[Tuple[int, ...], tuple]]) -> Dict[tuple, IndexEntry]:
    """Group (subset, key) pairs, given in the lexicographic order of their
    subsets, by key: key -> (first subset, incident indices), in the order of
    first subsets. The incident set is the union of the group's subsets. Each
    caller brings its keyed stream, and makes that union every point on the
    sphere: `span_walk` keys the subsets whose lifted rows span a sphere, and
    by basis exchange each point of the sphere lies in one of them; `euclid`
    keys every n-subset by its greedily padded span. Keys are compared only
    within one stream, so a walk's can be its leaves' bases, not `span_key`."""
    index: Dict[tuple, IndexEntry] = {}
    for subset, key in keyed:
        entry = index.get(key)
        if entry is None:
            index[key] = (subset, set(subset))
        else:
            entry[1].update(subset)
    return index


def most_colored(config: ColoredConfig, index: Dict[tuple, IndexEntry]
                 ) -> Tuple[Tuple[int, ...], Tuple[ColoredPoint, ...]]:
    """The first subset of the index entry carrying the most colors, with
    the entry's colored points in configuration order; ties go to the
    lexicographically smallest first subset."""
    colors = [c for _, c in config.items]
    subset, on = min(index.values(),
                     key=lambda e: (-len({colors[i] for i in e[1]}), e[0]))
    return subset, tuple(config.items[i] for i in sorted(on))


def max_polychromatic(config: ColoredConfig, d: int) -> PolychromaticWitness:
    """The most-colored d-sphere spanned by configuration points, counting
    every configuration point incident to each candidate; ties broken by the
    lexicographically smallest defining subset. Exact coordinates only."""
    n = config.n
    if d > n - 1 or d < 0:
        raise GeometryError("sphere dimension must lie in 0..%d" % (n - 1))
    size = d + 2
    pts = config.points()
    if len(pts) < size:
        raise DegenerateConfigError("too few points to span any %d-sphere" % d)
    # a size-subset spans a d-sphere exactly when its lifted rows are
    # independent, which is when the walk keys it
    index = sphere_index(span_walk(pts, size))
    if not index:
        raise DegenerateConfigError("no subset spans a %d-sphere" % d)
    subset, on = most_colored(config, index)
    spanning = [pts[i] for i in subset]
    s = sphere_through(spanning) if d == n - 1 else smallest_sphere(spanning)
    return PolychromaticWitness(s, on, frozenset(c for _, c in on))


def _two_line_targeted(coloring: TwoLine) -> PolychromaticWitness:
    """The documented circle of the extended two-line coloring: colors 1-4."""
    zero = Fraction(0)
    a = Point.finite((zero, THETA))            # color 2
    b = Point.finite((zero, THETA ** 3 / 2))   # color 3
    c = Point.finite((THETA ** 2, zero))       # color 4
    circle = sphere_through([a, b, c])
    center = circle.center()
    # the point of the circle diametrically opposite a is off both axes
    d = Point.finite(vec_sub(vec_scale(2, center.coords), a.coords))
    pts = [(a, coloring.color_of(a)), (b, coloring.color_of(b)),
           (c, coloring.color_of(c)), (d, coloring.color_of(d))]
    return PolychromaticWitness(circle, tuple(pts), frozenset(c for _, c in pts))


def default_samples_per_class(budget: int) -> int:
    """How many points per color class a budget-limited search samples."""
    if budget < 0:
        raise ColoringError("budget must be nonnegative")
    return max(3, min(10, round(budget ** (1.0 / 3.0))))


def find_polychromatic(coloring: ProceduralColoring, target: int,
                       budget: int = 2000, seed: int = 0,
                       samples_per_class: Optional[int] = None
                       ) -> Optional[PolychromaticWitness]:
    """Search sampled points of a planar procedural coloring for a circle
    carrying at least `target` distinct colors.

    Deterministic given (seed, budget): `ColoredConfig.sample` draws the
    sample with `seed`, candidate circles through distinct-colored triples
    are enumerated in lexicographic order, and at most `budget` candidates
    are examined. The extended two-line coloring short-circuits through its
    documented four-color circle. Returns None when the budget is exhausted;
    a sample outside the plane is refused."""
    k = num_colors(coloring)
    if target > k:
        raise ColoringError("target %d exceeds the coloring's %d colors" % (target, k))
    if target < 1:
        raise ColoringError("target must be positive")
    m = default_samples_per_class(budget)  # refuses a negative budget
    if samples_per_class is not None:
        if samples_per_class < 1:
            raise ColoringError("need a positive sample count")
        m = samples_per_class
    if isinstance(coloring, TwoLine) and coloring.extended and target <= 4:
        return _two_line_targeted(coloring)
    config = ColoredConfig.sample(coloring, m, seed)
    if config.n != 2:
        raise ColoringError("the procedural search looks for circles in the plane, "
                            "not in R^%d" % config.n)
    pool = config.items
    examined = 0
    for (ia, ib, ic) in combinations(range(len(pool)), 3):
        (pa, ca), (pb, cb), (pc, cc) = pool[ia], pool[ib], pool[ic]
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
            # keep one point per color, earliest first, for a tidy witness
            chosen: List[ColoredPoint] = []
            seen_colors = set()
            for p, c in on:
                if c not in seen_colors:
                    seen_colors.add(c)
                    chosen.append((p, c))
            return PolychromaticWitness(circle, tuple(chosen), colors)
    return None


def transfer(kind: str, r1: Scalar, r2: Scalar, r3: Scalar) -> Scalar:
    """The two norm-transfer maps: a circle meeting one line at signed norms
    r2, r3 meets the other where the power condition forces r2*r3/r1 (kind
    "h"); a pair on one line transfers a point on the same line to
    (r3/r2)*r1 (kind "m")."""
    if any(is_zero(r) for r in (r1, r2, r3)):
        raise GeometryError("transfer needs nonzero norms")
    if kind == "h":
        return _exact_div(r2 * r3, r1)
    if kind == "m":
        return _exact_div(r3, r2) * r1
    raise GeometryError("unknown transfer kind %r" % (kind,))


class CosetModel:
    """Sampled model of the norm-class structure: a base group of scalars,
    labeled class samples, one representative per non-identity class, and
    membership oracles. The closure of the structure is the set of scalars
    whose fourth power falls in the base group."""

    def __init__(self, group_samples: Sequence[Scalar],
                 class_samples: Dict[str, Sequence[Scalar]],
                 reps: Dict[str, Scalar],
                 membership: Dict[str, Callable[[Scalar], bool]],
                 group_membership: Callable[[Scalar], bool]):
        self.group_samples = tuple(group_samples)
        self.class_samples = {k: tuple(v) for k, v in class_samples.items()}
        self.reps = dict(reps)
        self.membership = dict(membership)
        self.group_membership = group_membership
        expected = {"X4", "X5", "Y2", "Y3"}
        if set(self.class_samples) != expected or set(self.membership) != expected:
            raise GeometryError("model needs classes X4, X5, Y2, Y3")
        if set(self.reps) != {"X4", "Y2", "Y3"}:
            raise GeometryError("model needs representatives for X4, Y2, Y3")
        if any(not samples for samples in self.class_samples.values()):
            raise GeometryError("every class needs samples")
        if not any(s == 1 for s in self.class_samples["X5"]):
            raise GeometryError("the identity must be sampled in X5")

    def closure_member(self, x: Scalar) -> bool:
        return self.group_membership(x ** 4)


def two_line_coset_model(samples_per_class: int = 50, seed: int = 0) -> CosetModel:
    """The norm-class model of the two-line coloring: rationals as the base
    group, with the three nontrivial classes scaled by the three quartic
    monomials."""
    rng = random.Random(seed)

    def rationals(count: int, ensure_one: bool = False) -> List[Fraction]:
        out = [Fraction(1)] if ensure_one else []
        while len(out) < count:
            q = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
            if q != 0 and q not in out:
                out.append(q)
        return out

    x5 = rationals(samples_per_class, ensure_one=True)
    x4 = [q * THETA ** 2 for q in rationals(samples_per_class)]
    y2 = [q * THETA for q in rationals(samples_per_class)]
    y3 = [q * THETA ** 3 for q in rationals(samples_per_class)]

    def class_test(label: NormClass) -> Callable[[Scalar], bool]:
        def test(x: Scalar) -> bool:
            try:
                return norm_class_of(x) == label
            except (ValueError, TypeError):
                return False
        return test

    return CosetModel(
        group_samples=x5,
        class_samples={"X5": x5, "X4": x4, "Y2": y2, "Y3": y3},
        reps={"X4": THETA ** 2, "Y2": THETA, "Y3": THETA ** 3},
        membership={
            "X5": class_test(NormClass.Q_STAR),
            "X4": class_test(NormClass.ROOT2_Q_STAR),
            "Y2": class_test(NormClass.QUARTIC_Q_STAR),
            "Y3": class_test(NormClass.INV_QUARTIC_Q_STAR),
        },
        group_membership=class_test(NormClass.Q_STAR),
    )


def coset_closure_check(model: CosetModel, samples_per_check: int = 25) -> Dict:
    """Verify the claimed coset structure on sampled tuples.

    Checks, each over up to samples_per_check tuples: the h-transfer maps
    X-classes to X-classes and Y-classes to Y-classes across the two lines,
    the m-transfer with a same-class pair preserves every class, quotients
    within one class land in the base class X5, the identity is sampled in
    X5, fourth powers of representatives fall in the base group, and every
    class sample sits inside the derived closure. Returns a report dict with
    a (possibly empty) violations list."""
    violations: List[Dict] = []
    cs = model.class_samples
    mem = model.membership

    def take(label: str) -> Sequence[Scalar]:
        return cs[label][:samples_per_check]

    def record(check: str, detail: str):
        violations.append({"check": check, "detail": detail})

    checked = 0

    # h across the lines: a circle meeting the y-axis in classes Y2, Y3
    # meets the x-axis within the X-classes, and vice versa
    for target, others in (("X4", ("Y2", "Y3")), ("X5", ("Y2", "Y3")),
                           ("Y2", ("X4", "X5")), ("Y3", ("X4", "X5"))):
        for r1 in take(target):
            for r2, r3 in zip(take(others[0]), take(others[1])):
                checked += 1
                value = transfer("h", r1, r2, r3)
                if not mem[target](value):
                    record("h-closure", "h(%r|%r,%r) left class %s" % (r1, r2, r3, target))

    # m with a same-class pair fixes every class
    for target in ("X4", "X5", "Y2", "Y3"):
        for pair_class in ("X4", "X5", "Y2", "Y3"):
            pool = take(pair_class)
            for r1, (r2, r3) in zip(take(target), zip(pool, pool[1:])):
                checked += 1
                value = transfer("m", r1, r2, r3)
                if not mem[target](value):
                    record("m-closure",
                           "m(%r|%r,%r) left class %s" % (r1, r2, r3, target))

    # quotients within one class land in the base class
    for label in ("X4", "X5", "Y2", "Y3"):
        pool = take(label)
        for r2, r3 in zip(pool, pool[1:]):
            checked += 1
            if not mem["X5"](r3 / r2):
                record("quotient", "%r / %r outside the base class" % (r3, r2))

    if not any(s == 1 for s in cs["X5"]):
        record("identity", "1 missing from X5 samples")
    checked += 1

    for name, rep in model.reps.items():
        checked += 1
        if not model.group_membership(rep ** 4):
            record("fourth-power", "rep of %s has fourth power outside the group" % name)

    for label in ("X4", "X5", "Y2", "Y3"):
        for s in take(label):
            checked += 1
            if not model.closure_member(s):
                record("closure", "%r of %s outside the derived closure" % (s, label))

    return {"checks": checked, "violations": violations}


def verify_flag(n: int, per_class: int = 30, seed: int = 0) -> Dict:
    """Sharpness scan for the flag coloring of R^n_inf: over one sampled
    point per color class (the origin and infinity classes are singletons),
    no distinct-colored (n+2)-tuple may be cospherical; equivalently no
    enumerated (n-1)-sphere attains n+2 colors on the sample."""
    config = ColoredConfig.sample(FlagInversive(n), per_class, seed)
    classes = [config.points_of_color(i) for i in range(1, config.k + 1)]
    tuples_checked = 0
    violations: List[Tuple[Point, ...]] = []
    for tup in product(*classes):
        tuples_checked += 1
        if on_common_sphere(tup):
            violations.append(tup)
    return {
        "n": n,
        "sample_sizes": [len(c) for c in classes],
        "tuples_checked": tuples_checked,
        "violations": violations,
    }


def verify_generic(n: int, k: int, seed: int = 0) -> Dict:
    """Sharpness scan for the generic-points coloring: no n+2 of the marked
    points lie on a common (n-1)-sphere, so no sphere can pick up more than
    n+1 marked colors plus the background."""
    violations = []
    checked = 0
    for subset in combinations(generic_position_points(n, k - 1, seed), n + 2):
        checked += 1
        if on_common_sphere(subset):
            violations.append(subset)
    return {"n": n, "k": k, "subsets_checked": checked, "violations": violations}


def verify_two_line(per_class: int = 40, seed: int = 0) -> Dict:
    """Sharpness scan for the two-line coloring: no circle carries four
    colors among sampled line points.

    A circle meets each line in at most two points, so four colors force two
    distinct-colored points on each line, and those four points are
    concyclic exactly when the products of signed norms agree across the
    lines (the power of the origin). The scan therefore compares products
    over all distinct-colored pairs on one line against all distinct-colored
    pairs on the other; any product collision with four distinct colors in
    total is a violation. Line triples (three samples on one line) stay
    within that line's at-most-three colors by construction and are counted,
    not enumerated."""
    if per_class < 1:
        raise ColoringError("need a positive sample count")
    c1: List[Tuple[Scalar, int]] = []
    c2: List[Tuple[Scalar, int]] = []
    for p, color in ColoredConfig.sample(TwoLine(), per_class + 2, seed).items:
        if p.is_infinity:
            continue
        x, y = p.coords
        if not is_zero(x):
            c1.append((x, color))
        elif not is_zero(y):
            c2.append((y, color))

    def pair_products(pool: List[Tuple[Scalar, int]]) -> Dict:
        # keyed on each product's canonical (numerators, denominator), from the factors' ints
        table: Dict = {}
        for (v1, col1, (n1, d1)), (v2, col2, (n2, d2)) in combinations(
                [(v, col, zt_pair(v)) for v, col in pool], 2):
            if col1 == col2:
                continue
            (m0, m1, m2, m3), d = zt_mul(n1, n2), d1 * d2
            g = gcd(m0, m1, m2, m3, d)
            table.setdefault(((m0 // g, m1 // g, m2 // g, m3 // g), d // g), []).append(
                (col1, col2, v1, v2))
        return table

    prod1 = pair_products(c1)
    prod2 = pair_products(c2)
    pairs_compared = 0
    violations = []
    for value, entries1 in prod1.items():
        entries2 = prod2.get(value)
        if entries2 is None:
            pairs_compared += len(entries1)
            continue
        for e1 in entries1:
            for e2 in entries2:
                pairs_compared += 1
                if len({e1[0], e1[1], e2[0], e2[1]}) == 4:
                    violations.append({"C1": e1, "C2": e2})
    # colors present on the two lines themselves (extended lines through 0)
    line_colors = {
        "C1": sorted({c for _, c in c1} | {1}),
        "C2": sorted({c for _, c in c2} | {1}),
    }
    for axis, cols in line_colors.items():
        if len(cols) > 3:
            violations.append({"line": axis, "colors": cols})
    return {
        "samples": len(c1) + len(c2),
        "products_on_C1": len(prod1),
        "products_on_C2": len(prod2),
        "pairs_compared": pairs_compared,
        "line_colors": line_colors,
        "violations": violations,
    }
