"""Differential tests for the Z[t] path of the Q(2^(1/4)) backend.

`sphere_through`, `Hypersphere.make`, `span_walk` and `verify_two_line`
work on Z[t] rows (t**4 = 2) from the lifted row to the answer. The
`reference_*` functions below are the earlier versions in Q(2^(1/4))
arithmetic, kept as oracles: the lifted rows promoted to `Quartic2`, their
nullspace by field Gauss-Jordan, the sphere normalised by
a field division and its discriminant taken in `Quartic2`, the walk cutting
`Quartic2` rows with `Quartic2` dot products, and the product table keyed on
`Quartic2` values. None of them goes through the library's elimination.
They must give the same spheres (fields, `row` and incidence rows), the
same keyed streams and the same reports, on Q(2^(1/4)), mixed rational and
Q(2^(1/4)) and infinity-containing inputs, degenerate ones included.
"""

from fractions import Fraction as F
from itertools import combinations
from math import gcd, lcm
from operator import mul

from hypothesis import event, given, settings, strategies as st

from inversive import exactnum
from inversive.chromatic import sphere_index, verify_two_line
from inversive.colorings import TwoLine
from inversive.exactnum import SQRT2, THETA, Quartic2, common_kind, is_zero, promote, sign_of
from inversive.geom import (
    GeometryError,
    Hypersphere,
    Point,
    _basis_key,
    _uniform,
    span_walk,
    sphere_through,
    vec_dot,
)
from inversive.witness import ColoredConfig

P = Point.finite


def reference_canonical(v):
    """A nonzero exact row divided by its lead in field arithmetic: primitive
    ints with a positive lead when that is rational, else Quartic2 entries."""
    lead = next(x for x in v if x)
    w = [(F(x) if type(x) is int else x) / lead for x in v]
    if all(not isinstance(x, Quartic2) or x.is_rational for x in w):
        fs = [x.to_fraction() if isinstance(x, Quartic2) else F(x) for x in w]
        d = lcm(*(f.denominator for f in fs))
        ints = [f.numerator * (d // f.denominator) for f in fs]
        g = gcd(*ints)
        return [x // g for x in ints]
    return [promote(x, "quartic") for x in w]


def reference_make(c, b, a):
    """`Hypersphere.make` on exact coefficients as it was: the canonical row,
    the coefficients over its lead promoted to the family's backend, the row
    promoted too, and the discriminant's sign in field arithmetic."""
    entries = [c, *b, a]
    k = common_kind(entries)
    if all(is_zero(x) for x in entries):
        raise _Raised("DegenerateSphereError")
    row = reference_canonical(entries)
    if all(type(x) is int for x in row):
        lead = next(x for x in row if x)
        coeffs = [F(x, lead) for x in row]
    else:
        coeffs = row
    if k == "quartic":
        coeffs = [promote(x, k) for x in coeffs]
        row = [promote(x, k) for x in row]
    rc, *rb, ra = row
    if sign_of(vec_dot(rb, rb) - 4 * rc * ra) <= 0:
        raise _Raised("DegenerateSphereError")
    s = Hypersphere(coeffs[0], tuple(coeffs[1:-1]), coeffs[-1])
    object.__setattr__(s, "row", tuple(row))
    return s


def reference_rows(points):
    """The lifted rows of a family on its backend: the family promoted with
    `_uniform`, (<x,x>, x, 1) of each promoted point, (1, 0, .., 0) at
    infinity."""
    promoted, k = _uniform(points)
    one, zero = promote(1, k), promote(0, k)
    return [[one] + [zero] * (q.dim + 1) if q.is_infinity
            else [sum((x * x for x in q.coords), zero), *q.coords, one] for q in promoted]


def reference_rref(rows, ncols):
    """(nonzero rows, pivot columns) of the reduced row echelon form of an
    exact matrix, by Gauss-Jordan in field arithmetic."""
    m = [[F(x) if type(x) is int else x for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][col]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        p = m[r][col]
        m[r] = [x / p for x in m[r]]
        m = [[x - y * f[col] for x, y in zip(f, m[r])] if j != r else f
             for j, f in enumerate(m)]
        pivots.append(col)
    return m[: len(pivots)], pivots


def reference_nullspace(rows, ncols):
    """A basis of the right nullspace from `reference_rref`."""
    m, pivots = reference_rref(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [F(int(c == free)) for c in range(ncols)]
        for r, pcol in zip(m, pivots):
            vec[pcol] = -r[free]
        basis.append(vec)
    return basis


def reference_sphere_through(points):
    """`sphere_through` as it was: the nullspace of the points' lifted rows
    on the family's backend, Quartic2 rows for a Q(2^(1/4)) family."""
    rows, n = reference_rows(points), points[0].dim
    if len(rows) != n + 1:
        raise _Raised("GeometryError")
    if any(r in rows[:i] for i, r in enumerate(rows)):
        raise _Raised("DegenerateConfigError")
    ns = reference_nullspace(rows, n + 2)
    if len(ns) != 1:
        raise _Raised("DegenerateSphereError")
    vec = ns[0]
    return reference_make(vec[0], vec[1:-1], vec[-1])


def reference_cut(basis, row):
    """`cut` as it was: field dot products and each new vector canonical."""
    dots = [sum(map(mul, row, b)) for b in basis]
    i = next((i for i, f in enumerate(dots) if f), -1)
    if i < 0:
        return None
    p, top = dots[i], basis[i]
    return [reference_canonical([p * x - f * y for x, y in zip(b, top)]) if f else b
            for j, (b, f) in enumerate(zip(basis, dots)) if j != i]


def reference_span_walk(points, size):
    """`span_walk` as it was: the lifted rows on the family's backend, cut by
    `reference_cut` from the unit basis, a leaf keyed by its vectors, each
    canonical."""
    rows, ncols = reference_rows(points), points[0].dim + 2

    def walk(start, prefix, basis):
        for i in range(start, len(rows) - size + len(prefix) + 1):
            cut = reference_cut(basis, rows[i])
            if cut is None:
                continue
            subset = prefix + (i,)
            if len(subset) < size:
                yield from walk(i + 1, subset, cut)
            else:
                yield subset, ((tuple(cut[0]),) if len(cut) == 1 else
                               tuple(tuple(reference_canonical(v)) for v in cut))

    yield from walk(0, (), [[int(i == j) for j in range(ncols)] for i in range(ncols)])


def assert_walk_matches_reference(points, size):
    """The walk keys the reference's leaves into the reference's groups, and
    `_basis_key` takes each leaf's key to the reference key; the reference
    leaves are returned."""
    walked, want = list(span_walk(points, size)), list(reference_span_walk(points, size))
    assert repr([(s, _basis_key(k)) for s, k in walked]) == repr(want)
    assert list(sphere_index(walked).values()) == list(sphere_index(want).values())
    return want


def reference_verify_two_line(per_class, seed):
    """`verify_two_line` with its product tables keyed on Quartic2 values."""
    c1, c2 = [], []
    for p, color in ColoredConfig.sample(TwoLine(), per_class + 2, seed).items:
        if p.is_infinity:
            continue
        x, y = p.coords
        if not is_zero(x):
            c1.append((x, color))
        elif not is_zero(y):
            c2.append((y, color))
    tables = []
    for pool in (c1, c2):
        table = {}
        for (v1, col1), (v2, col2) in combinations(pool, 2):
            if col1 != col2:
                table.setdefault(v1 * v2, []).append((col1, col2, v1, v2))
        tables.append(table)
    pairs_compared, violations = 0, []
    for value, entries1 in tables[0].items():
        entries2 = tables[1].get(value)
        if entries2 is None:
            pairs_compared += len(entries1)
            continue
        for e1 in entries1:
            for e2 in entries2:
                pairs_compared += 1
                if len({e1[0], e1[1], e2[0], e2[1]}) == 4:
                    violations.append({"C1": e1, "C2": e2})
    line_colors = {"C1": sorted({c for _, c in c1} | {1}),
                   "C2": sorted({c for _, c in c2} | {1})}
    violations += [{"line": axis, "colors": cols}
                   for axis, cols in line_colors.items() if len(cols) > 3]
    return {"samples": len(c1) + len(c2), "products_on_C1": len(tables[0]),
            "products_on_C2": len(tables[1]), "pairs_compared": pairs_compared,
            "line_colors": line_colors, "violations": violations}


class _Raised(Exception):
    """An oracle's refusal, named by the library error it stands for."""


def _outcome(f, *args):
    try:
        return f(*args)
    except (GeometryError, _Raised) as e:
        return type(e).__name__ if isinstance(e, GeometryError) else str(e)


def assert_same_sphere(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert repr(got) == repr(want)
    assert repr(got.row) == repr(want.row)
    # the incidence rows are those the promoted row used to give
    assert got._zt == reference_twisted(want.row)


def reference_twisted(row):
    """The rows w_0..w_3 of `_linalg.zt_twisted` by their definition, for an
    exact row scaled by its coefficients' least common denominator: w_k holds
    at 4i + j the coefficient of t**k in row[i] * t**j."""
    row = [promote(x, "quartic") for x in row]
    d = lcm(*[c.denominator for x in row for c in x.coeffs])
    prods = [(x * d * THETA ** j).coeffs for x in row for j in range(4)]
    return tuple([int(c[k]) for c in prods] for k in range(4))


_Q = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# Q(2^(1/4)) scalars: the axis classes of the two-line coloring, and general
# elements
_QT = st.one_of(
    st.tuples(_Q, st.sampled_from([THETA, SQRT2, THETA ** 3, 1 + THETA])).map(
        lambda p: p[0] * p[1]),
    st.tuples(_Q, _Q, _Q, _Q).map(lambda c: Quartic2(*c)))
_SCALARS = st.one_of(_Q, _QT)


def _points(n):
    """A point of R^n_inf: rational, Q(2^(1/4)), on an axis, or (one draw in
    seven) infinity."""
    finite = [st.tuples(*[_SCALARS] * n).map(P), st.tuples(*[_Q] * n).map(P),
              st.tuples(_QT, st.integers(0, n - 1)).map(
                  lambda p: P([p[0] if i == p[1] else 0 for i in range(n)]))]
    return st.one_of(*finite, *finite, st.just(Point.infinity(n)))


class TestMake:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(-3, 3), _Q, _QT), min_size=3, max_size=5))
    def test_matches_reference(self, entries):
        c, *b, a = entries
        want = _outcome(reference_make, c, b, a)
        event("refused" if isinstance(want, str) else
              "flat" if is_zero(want.c) else "round")
        assert_same_sphere(_outcome(Hypersphere.make, c, b, a), want)

    def test_degenerate_quartic_coefficients(self):
        # t(x^2 + y^2) + sqrt2 has no real point, t(x^2 + y^2) only the point 0,
        # and the zero row is no sphere
        for c, b, a in [(THETA, (0, 0), SQRT2), (THETA, (0 * THETA, 0), 0),
                        (0 * THETA, (0, 0), 0)]:
            assert _outcome(Hypersphere.make, c, b, a) == "DegenerateSphereError"
            assert _outcome(reference_make, c, b, a) == "DegenerateSphereError"


class TestSphereThrough:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([1, 2, 2, 2, 3]).flatmap(
        lambda n: st.lists(_points(n), min_size=n + 1, max_size=n + 1)))
    def test_matches_reference(self, points):
        want = _outcome(reference_sphere_through, points)
        event("refused: " + want if isinstance(want, str) else "sphere")
        assert_same_sphere(_outcome(sphere_through, points), want)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_Q, min_size=4, max_size=4, unique=True), _QT.filter(bool), _Q)
    def test_cocircular_quadruples_fix_no_sphere(self, params, radius, height):
        # four points of a circle of radius `radius` in a horizontal plane
        points = [P([radius * (1 - u * u) / (1 + u * u), radius * 2 * u / (1 + u * u), height])
                  for u in params]
        assert _outcome(sphere_through, points) == "DegenerateSphereError"
        assert _outcome(reference_sphere_through, points) == "DegenerateSphereError"

    def test_degenerate_and_mixed_families(self):
        circle = [P([THETA, 0, 0]), P([0, THETA, 0]), P([-THETA, 0, 0]), P([0, -THETA, 0])]
        line = [P([0, THETA]), P([0, THETA ** 3]), Point.infinity(2)]
        cases = {
            # four points of one circle fix no 2-sphere
            "DegenerateSphereError": [circle],
            # a rational point and its Q(2^(1/4)) copy are one point
            "DegenerateConfigError": [
                [P([F(1, 2), F(1, 2)]), P([Quartic2(F(1, 2)), Quartic2(F(1, 2))]), P([THETA, 0])],
                [Point.infinity(2), P([THETA, 1]), Point.infinity(2)]],
            "GeometryError": [line[:2]],
        }
        for name, families in cases.items():
            for points in families:
                assert _outcome(sphere_through, points) == name
                assert _outcome(reference_sphere_through, points) == name
        for points in (line, [P([1, 0]), P([0, THETA]), P([F(-1, 3), 2])],
                       [P([THETA, 0]), Point.infinity(2), P([0, 1])]):
            assert_same_sphere(sphere_through(points), reference_sphere_through(points))

    def test_equal_points_have_equal_zt_rows(self):
        for xs in ([F(1, 2), F(1, 2)], [0, F(-3, 4)], [F(5), F(2, 7)]):
            rational, quartic = P(xs), P([Quartic2.from_rational(x) for x in xs])
            assert rational == quartic and rational._zt == quartic._zt
        assert P([THETA, 0])._zt == P([THETA, Quartic2(0)])._zt


def _two_line_extended(per_class, seed):
    return ColoredConfig.sample(TwoLine(extended=True), per_class, seed).points()


class TestSpanWalk:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 2, 3]).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(_points(n), min_size=n + 1, max_size=6,
                                                  unique=True))))
    def test_matches_reference(self, case):
        # sizes up to n + 2, whose leaves have an empty basis
        n, points = case
        for size in range(2, min(n + 3, len(points) + 1)):
            event("leaves" if assert_walk_matches_reference(points, size) else "no leaf")

    def test_two_line_extended_configs(self):
        # the extended two-line samples the search workload walks
        for seed in range(4):
            points = _two_line_extended(2, seed)
            assert any(isinstance(x, Quartic2) for p in points if p.coords for x in p.coords)
            for size in (2, 3):
                assert assert_walk_matches_reference(points, size)

    def test_builds_no_quartic2(self, monkeypatch):
        # a leaf's key is its Z[t] basis, so once the points' rows are
        # cached a walk constructs no Quartic2
        points = _two_line_extended(2, 0)
        new, built = exactnum._new, []
        for size in (2, 3):
            list(span_walk(points, size))
            monkeypatch.setattr(exactnum, "_new", lambda n, d: built.append(n) or new(n, d))
            assert list(span_walk(points, size))
            monkeypatch.undo()
        assert built == []


class TestVerifyTwoLine:
    def test_reports_match_reference(self):
        for per_class in (1, 3, 8, 12):
            for seed in range(4):
                assert (verify_two_line(per_class, seed)
                        == reference_verify_two_line(per_class, seed))
