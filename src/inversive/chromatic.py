"""Polychromatic witness search, the constructive separating-circle
procedure, and the transfer-map coset structure of the two-line coloring.

Searches return a witness object or None (not found within the enumerated
sample or budget); absence of a witness is always a statement about the
finite sample only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set,
                    Tuple, Union)

from .colorings import (
    ColoredConfig,
    ColoringError,
    FlagInversive,
    ProceduralColoring,
    TwoLine,
    num_colors,
    sample_class,
)
from .exactnum import THETA, NormClass, is_zero, norm_class_of, sign_of
from .geom import (
    DegenerateConfigError,
    GeometryError,
    Hypersphere,
    Point,
    Scalar,
    SideLabel,
    SubSphere,
    concyclic,
    on_common_sphere,
    on_sphere,
    second_intersection,
    separated,
    side,
    smallest_sphere,
    span_walk,
    sphere_through,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
)
from .moebius import normalize

def _exact_div(a: Scalar, b: Scalar) -> Scalar:
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b

ColoredPoint = Tuple[Point, int]
SphereLike = Union[Hypersphere, SubSphere]


class SearchBudgetError(GeometryError):
    """A search that had to produce a witness ran out of budget instead."""


@dataclass(frozen=True)
class PolychromaticWitness:
    """A sphere with incident colored points realizing |color_set| colors."""

    sphere: SphereLike
    on_points: Tuple[ColoredPoint, ...]
    color_set: FrozenSet[int]

    def __post_init__(self):
        pts = [p for p, _ in self.on_points]
        if len(set(pts)) != len(pts):
            raise GeometryError("witness points must be distinct")
        for p, _ in self.on_points:
            if not self.sphere.contains(p):
                raise GeometryError("witness point %r is off the sphere" % (p,))
        if frozenset(c for _, c in self.on_points) != self.color_set:
            raise GeometryError("witness color set does not match its points")


@dataclass(frozen=True)
class SeparationWitness:
    """A sphere through distinct-colored points separating two more colors."""

    sphere: Hypersphere
    defining: Tuple[ColoredPoint, ...]
    separated_pair: Tuple[ColoredPoint, ColoredPoint]

    def __post_init__(self):
        colors = [c for _, c in self.defining] + [c for _, c in self.separated_pair]
        if len(set(colors)) != len(colors):
            raise GeometryError("separation witness colors must be distinct")
        for p, _ in self.defining:
            if not on_sphere(p, self.sphere):
                raise GeometryError("defining point is off the sphere")
        (x, _), (y, _) = self.separated_pair
        if not separated(x, y, self.sphere):
            raise GeometryError("claimed pair is not separated")


IndexEntry = Tuple[Tuple[int, ...], Set[int]]


def sphere_index(points: Sequence[Point], size: int,
                 key_of: Optional[Callable[[List[Point]], Optional[tuple]]] = None
                 ) -> Dict[tuple, IndexEntry]:
    """The spheres spanned by `size`-subsets of the points, grouped by the
    canonical key `span_walk` gives them, or `key_of` gives each subset (one
    that raises GeometryError or returns None spans nothing): key -> (first
    subset, incident indices), in the lexicographic order of first subsets.
    The incident set is the union of the group's subsets, and that is every
    point on the sphere: by basis exchange on the lifted rows (for great
    flats, on the greedily padded span) each point of a spanned sphere lies
    in some subset spanning it."""
    keyed = span_walk(points, size) if key_of is None else _keyed_subsets(points, size, key_of)
    index: Dict[tuple, IndexEntry] = {}
    for subset, key in keyed:
        entry = index.get(key)
        if entry is None:
            index[key] = (subset, set(subset))
        else:
            entry[1].update(subset)
    return index


def _keyed_subsets(points: Sequence[Point], size: int, key_of: Callable
                   ) -> Iterator[Tuple[Tuple[int, ...], tuple]]:
    for subset in combinations(range(len(points)), size):
        try:
            key = key_of([points[i] for i in subset])
        except GeometryError:
            continue
        if key is not None:
            yield subset, key


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
    size = (n + 1) if d == n - 1 else (d + 2)
    pts = config.points()
    if len(pts) < size:
        raise DegenerateConfigError("too few points to span any %d-sphere" % d)
    # a size-subset spans a d-sphere exactly when its lifted rows are
    # independent, which is when the walk keys it
    index = sphere_index(pts, size)
    if not index:
        raise DegenerateConfigError("no subset spans a %d-sphere" % d)
    subset, on = most_colored(config, index)
    spanning = [pts[i] for i in subset]
    s = sphere_through(spanning) if d == n - 1 else smallest_sphere(spanning)
    return PolychromaticWitness(s, on, frozenset(c for _, c in on))


def _two_line_targeted(coloring: TwoLine, target: int) -> Optional[PolychromaticWitness]:
    if target > 4:
        return None
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
    witness = PolychromaticWitness(circle, tuple(pts), frozenset(c for _, c in pts))
    if len(witness.color_set) >= target:
        return witness
    return None


def default_samples_per_class(budget: int) -> int:
    """How many points per color class a budget-limited search samples."""
    if budget < 0:
        raise ColoringError("budget must be nonnegative")
    return max(3, min(10, round(budget ** (1.0 / 3.0))))


def find_polychromatic(coloring: ProceduralColoring, target: int,
                       budget: int = 2000, seed: int = 0,
                       samples_per_class: Optional[int] = None
                       ) -> Optional[PolychromaticWitness]:
    """Search sampled points of a procedural coloring for a circle carrying
    at least `target` distinct colors.

    Deterministic given (seed, budget): classes are sampled with seed+i,
    candidate circles through distinct-colored triples are enumerated in
    lexicographic order, and at most `budget` candidates are examined. The
    extended two-line coloring short-circuits through its documented
    four-color circle. Returns None when the budget is exhausted."""
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
    if isinstance(coloring, TwoLine) and coloring.extended:
        witness = _two_line_targeted(coloring, target)
        if witness is not None:
            return witness
    by_class: List[List[Point]] = []
    for i in range(1, k + 1):
        try:
            by_class.append(sample_class(coloring, i, m, seed + i))
        except ColoringError:
            by_class.append([])
    pool: List[ColoredPoint] = []
    for i, pts in enumerate(by_class, start=1):
        pool += [(p, i) for p in pts]
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


def _strictly_between(a: Point, b: Point, c: Point) -> bool:
    """Whether finite collinear a lies strictly inside the segment [b, c]."""
    d = vec_sub(c.coords, b.coords)
    t_num = vec_dot(vec_sub(a.coords, b.coords), d)
    dd = vec_dot(d, d)
    return sign_of(t_num) > 0 and sign_of(dd - t_num) > 0


def _line_role_anchor(triple: Sequence[Point]) -> Optional[Point]:
    """For a role triple on a common extended line, the point to send to
    infinity so the first entry lands strictly between the other two; None
    when the natural betweenness fails."""
    xa, xb, xc = triple
    if xa.is_infinity:
        mid = Point.finite(vec_scale(Fraction(1, 2), vec_add(xb.coords, xc.coords)))
        return mid
    if xb.is_infinity:
        return Point.finite(vec_sub(vec_scale(2, xc.coords), xa.coords))
    if xc.is_infinity:
        return Point.finite(vec_sub(vec_scale(2, xb.coords), xa.coords))
    if _strictly_between(xa, xb, xc):
        return Point.infinity(xa.dim)
    return None


def _role_assignments(k: int):
    for a in range(k):
        rest = [i for i in range(k) if i != a]
        for b, c in combinations(rest, 2):
            yield a, b, c


def separating_circle_5pts(pairs: Sequence[ColoredPoint]) -> SeparationWitness:
    """The planar separating-circle procedure for five distinct-colored
    points, no four concyclic.

    Mirrors the constructive argument: pick three points for the line role,
    apply a Moebius map making them collinear with the first strictly
    between the others, then either the resulting extended line already
    separates the remaining two points, or the side of one remaining point
    against the circle through the other and the pair decides which circle
    separates it from the first role point. Role triples already in the
    collinear-with-betweenness position are preferred (in lexicographic
    order); otherwise the first genuinely circular triple is straightened
    by sending an auxiliary circle point to infinity."""
    if len(pairs) != 5:
        raise GeometryError("need exactly five colored points")
    pts = [p for p, _ in pairs]
    colors = [c for _, c in pairs]
    if len(set(pts)) != 5 or any(p.dim != 2 for p in pts):
        raise GeometryError("need five distinct planar points")
    if len(set(colors)) != 5:
        raise DegenerateConfigError("need five distinct colors")
    for quad in combinations(pts, 4):
        if concyclic(*quad):
            raise DegenerateConfigError("four of the points are concyclic")

    chosen = None
    for a, b, c in _role_assignments(5):
        triple = [pts[a], pts[b], pts[c]]
        circle = sphere_through(triple)
        if not circle.is_flat:
            continue
        anchor = _line_role_anchor(triple)
        if anchor is not None:
            chosen = (a, b, c, circle, anchor)
            break
    if chosen is None:
        for a, b, c in _role_assignments(5):
            triple = [pts[a], pts[b], pts[c]]
            circle = sphere_through(triple)
            if circle.is_flat:
                continue
            mid = vec_scale(Fraction(1, 2), vec_add(pts[b].coords, pts[c].coords))
            toward = vec_sub(mid, pts[a].coords)
            anchor = second_intersection(circle, pts[a], toward)
            chosen = (a, b, c, circle, anchor)
            break
    if chosen is None:
        raise DegenerateConfigError("no usable role assignment")
    a, b, c, role_circle, anchor = chosen

    t = normalize(pts[a], anchor)
    imgs = [t.apply(p) for p in pts]
    if imgs[b].is_infinity or imgs[c].is_infinity:
        raise DegenerateConfigError("role straightening degenerated")
    if sign_of(vec_dot(imgs[b].coords, imgs[c].coords)) >= 0:
        raise DegenerateConfigError("betweenness postcondition failed")

    d, e = [i for i in range(5) if i not in (a, b, c)]
    image_line = t.image_sphere(role_circle)
    sd, se = side(imgs[d], image_line), side(imgs[e], image_line)
    if SideLabel.ON in (sd, se):
        raise DegenerateConfigError("four of the points are concyclic")
    if sd != se:
        return SeparationWitness(role_circle,
                                 (pairs[a], pairs[b], pairs[c]),
                                 (pairs[d], pairs[e]))
    verdict = side(imgs[d], sphere_through([imgs[e], imgs[b], imgs[c]]))
    if verdict is SideLabel.ON:
        raise DegenerateConfigError("four of the points are concyclic")
    if verdict is SideLabel.OUTSIDE:
        keep, out = e, d
    else:
        keep, out = d, e
    witness_circle = sphere_through([pts[keep], pts[b], pts[c]])
    return SeparationWitness(witness_circle,
                             (pairs[keep], pairs[b], pairs[c]),
                             (pairs[a], pairs[out]))


def separating_sphere_bruteforce(pairs: Sequence[ColoredPoint]
                                 ) -> Optional[SeparationWitness]:
    """Exhaustive scan for a separating (n-1)-sphere among n+3 colored
    points: first lexicographic (n+1)-subset whose sphere separates the
    remaining two, or None."""
    pts = [p for p, _ in pairs]
    colors = [c for _, c in pairs]
    if not pts:
        raise GeometryError("empty input")
    n = pts[0].dim
    if len(pairs) != n + 3:
        raise GeometryError("need exactly n+3 colored points")
    if len(set(pts)) != len(pts) or len(set(colors)) != len(colors):
        raise GeometryError("points and colors must be distinct")
    for subset in combinations(range(len(pts)), n + 2):
        if on_common_sphere([pts[i] for i in subset]):
            raise DegenerateConfigError("n+2 of the points share a sphere")
    for subset in combinations(range(len(pts)), n + 1):
        try:
            s = sphere_through([pts[i] for i in subset])
        except GeometryError:
            continue
        rest = [i for i in range(len(pts)) if i not in subset]
        x, y = pts[rest[0]], pts[rest[1]]
        if separated(x, y, s):
            return SeparationWitness(s, tuple(pairs[i] for i in subset),
                                     (pairs[rest[0]], pairs[rest[1]]))
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
    flag = FlagInversive(n)
    classes: List[List[Point]] = []
    for i in range(1, flag.k + 1):
        count = 1 if i <= 2 else per_class
        classes.append(sample_class(flag, i, count, seed + i))
    tuples_checked = 0
    violations: List[Tuple[Point, ...]] = []

    def scan(prefix: List[Point], rest: List[List[Point]]):
        nonlocal tuples_checked
        if not rest:
            tuples_checked += 1
            if on_common_sphere(prefix):
                violations.append(tuple(prefix))
            return
        for p in rest[0]:
            scan(prefix + [p], rest[1:])

    scan([], classes)
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
    from .colorings import GenericPoints

    coloring = GenericPoints.random(n, k, seed)
    violations = []
    checked = 0
    for subset in combinations(coloring.points, n + 2):
        checked += 1
        if on_common_sphere(subset):
            violations.append(subset)
    return {"n": n, "k": k, "subsets_checked": checked, "violations": violations}


def _axis_samples(per_class: int, seed: int) -> List[Tuple[str, Scalar, int]]:
    """Two-line samples as (axis, signed norm, color) triples; the origin
    and infinity are handled separately by the caller."""
    tl = TwoLine()
    out: List[Tuple[str, Scalar, int]] = []
    for color in range(1, 6):
        pts = sample_class(tl, color, per_class + 2, seed + color)
        for p in pts:
            if p.is_infinity:
                continue
            x, y = p.coords
            if is_zero(x) and is_zero(y):
                continue
            if is_zero(x):
                out.append(("C2", y, color))
            else:
                out.append(("C1", x, color))
    return out


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
    samples = _axis_samples(per_class, seed)
    c1 = [(v, c) for axis, v, c in samples if axis == "C1"]
    c2 = [(v, c) for axis, v, c in samples if axis == "C2"]

    def pair_products(pool: List[Tuple[Scalar, int]]) -> Dict:
        table: Dict = {}
        for (v1, col1), (v2, col2) in combinations(pool, 2):
            if col1 == col2:
                continue
            table.setdefault(v1 * v2, []).append((col1, col2, v1, v2))
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
        "samples": len(samples),
        "products_on_C1": len(prod1),
        "products_on_C2": len(prod2),
        "pairs_compared": pairs_compared,
        "line_colors": line_colors,
        "violations": violations,
    }
