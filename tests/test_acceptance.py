"""Acceptance suite: one test per claimed property, each asserting both the
mathematical content and its stated time budget, and printing a single
summary line (visible under `pytest -s` or in captured output on failure).

The checks run at desk scale: exact arithmetic throughout, seeded sampling,
brute-force cross-checks where an independent oracle exists.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations

from inversive.chromatic import (
    CosetModel,
    coset_closure_check,
    find_polychromatic,
    two_line_coset_model,
    verify_flag,
    verify_two_line,
)
from inversive.cli import main as cli_main
from inversive.colorings import (
    FlagInversive,
    TwoLine,
    sample_class,
)
from inversive.euclid import (
    GreatFlat,
    great_intersection,
    verify_flag_euclidean,
)
from inversive.exactnum import THETA, is_zero
from inversive.geom import (
    CR_INFINITY,
    Hypersphere,
    Point,
    concyclic,
    cross_ratio,
    on_common_sphere,
    on_sphere,
    power_condition,
    second_intersection,
    separated,
    sphere_through,
    vec_dot,
)
from inversive.jsonio import canonical_json, encode_polychromatic_witness
from inversive.moebius import HyperplaneReflection, MoebiusMap, SphereInversion
from inversive.wcp import (
    FiniteImageMap,
    build_sharp_map,
    circular_general_position,
    five_point_refute,
    sample_circles,
    wcp_check,
)
from inversive.witness import separating_circle_5pts, separating_sphere_bruteforce


def fp(*coords):
    return Point.finite(tuple(Fraction(c) for c in coords))


def _report(num, label, elapsed, budget, **stats):
    extras = " ".join("%s=%s" % kv for kv in sorted(stats.items()))
    print("criterion %02d PASS %-24s %6.2fs (budget %3ds) %s"
          % (num, label, elapsed, budget, extras))


def _rat(rng, span=40, den=8):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _rational_circle_points(rng, count):
    """Distinct rational points on one random rational circle, via the
    tangent-half-angle parametrization of x^2 + y^2 = 1 scaled and shifted."""
    cx, cy, r = _rat(rng, 10, 4), _rat(rng, 10, 4), Fraction(rng.randint(1, 9))
    pts = []
    seen = set()
    while len(pts) < count:
        t = _rat(rng, 12, 5)
        den = 1 + t * t
        p = fp(cx + r * (1 - t * t) / den, cy + r * 2 * t / den)
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def _random_line_points(rng, count, with_infinity=False):
    a = (_rat(rng), _rat(rng))
    d = (_rat(rng), _rat(rng))
    while d[0] == 0 and d[1] == 0:
        d = (_rat(rng), _rat(rng))
    pts = []
    seen = set()
    if with_infinity:
        pts.append(Point.infinity(2))
    while len(pts) < count:
        t = _rat(rng, 20, 6)
        p = fp(a[0] + t * d[0], a[1] + t * d[1])
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def _distinct_random_points(rng, count, dim=2, infinity_chance=0):
    pts = []
    seen = set()
    while len(pts) < count:
        if infinity_chance and rng.random() < infinity_chance:
            p = Point.infinity(dim)
        else:
            p = Point.finite(tuple(_rat(rng) for _ in range(dim)))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def test_criterion_01_concyclic_iff_real_cross_ratio():
    budget, start = 10, time.perf_counter()
    rng = random.Random(101)
    trials, n_concyclic = 10_000, 0
    for i in range(trials):
        mode = i % 4
        if mode == 0:
            quad = _rational_circle_points(rng, 4)
        elif mode == 1:
            quad = _random_line_points(rng, 4, with_infinity=(i % 8 == 1))
        else:
            quad = _distinct_random_points(rng, 4,
                                           infinity_chance=0.1 if mode == 3 else 0)
        lhs = concyclic(*quad)
        cr = cross_ratio(*quad)
        assert cr is not CR_INFINITY
        rhs = is_zero(cr[1])
        assert lhs == rhs, "disagreement on %r" % (quad,)
        n_concyclic += lhs
    elapsed = time.perf_counter() - start
    assert 1000 < n_concyclic < trials - 1000
    assert elapsed < budget
    _report(1, "cross-ratio", elapsed, budget,
            quadruples=trials, concyclic=n_concyclic)


def test_criterion_02_power_condition_iff_concyclic():
    budget, start = 5, time.perf_counter()
    rng = random.Random(102)
    trials, n_true = 1000, 0
    done = 0
    while done < trials:
        def nz():
            v = _rat(rng, 30, 6)
            return v if v != 0 else Fraction(1)
        x, xp, y = nz(), nz(), nz()
        if done % 2 == 0:
            yp = x * xp / y
        else:
            yp = nz()
        if x == xp or y == yp:
            continue
        done += 1
        lhs = power_condition(x, xp, y, yp)
        rhs = concyclic(fp(x, 0), fp(xp, 0), fp(0, y), fp(0, yp))
        assert lhs == rhs
        n_true += lhs
    elapsed = time.perf_counter() - start
    assert 100 < n_true < trials - 100
    assert elapsed < budget
    _report(2, "power-condition", elapsed, budget, tuples=trials, equal=n_true)


def _random_map(rng, max_factors=6):
    factors = []
    for _ in range(rng.randint(1, max_factors)):
        if rng.random() < 0.5:
            center = (_rat(rng, 12, 4), _rat(rng, 12, 4))
            r2 = abs(_rat(rng, 12, 4)) + 1
            factors.append(SphereInversion(center, r2))
        else:
            normal = (_rat(rng, 6, 3), _rat(rng, 6, 3))
            while normal[0] == 0 and normal[1] == 0:
                normal = (_rat(rng, 6, 3), _rat(rng, 6, 3))
            factors.append(HyperplaneReflection(normal, _rat(rng, 12, 4)))
    return MoebiusMap(tuple(factors), 2)


def test_criterion_03_moebius_invariance():
    budget, start = 30, time.perf_counter()
    rng = random.Random(103)
    probe = _distinct_random_points(rng, 50, infinity_chance=0.04)
    for i in range(1000):
        m = _random_map(rng)
        if i % 2 == 0:
            quad = _rational_circle_points(rng, 4)
        else:
            quad = _random_line_points(rng, 4, with_infinity=(i % 6 == 1))
        images = [m.apply(p) for p in quad]
        assert concyclic(*images)
        s = sphere_through(quad[:3])
        s_img = m.image_sphere(s)
        for p, q in zip(quad, images):
            assert on_sphere(p, s)
            assert on_sphere(q, s_img)
        for f in m.factors:
            for p in probe:
                assert f.apply(f.apply(p)) == p
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(3, "moebius-invariance", elapsed, budget, maps=1000, probe=len(probe))


def _assert_circles_carry_le3(sample):
    """Enumerate the circle through every 3-subset and assert it meets at
    most 3 colors of the sample. Only colors outside the defining triple
    need incidence scans: the triple's own colors are incident already."""
    by_color = {}
    for p, c in sample:
        by_color.setdefault(c, []).append(p)
    circles = 0
    for (p1, c1), (p2, c2), (p3, c3) in combinations(sample, 3):
        circle = sphere_through([p1, p2, p3])
        circles += 1
        base = {c1, c2, c3}
        extras = sum(
            1 for c, pts in by_color.items()
            if c not in base and any(on_sphere(p, circle) for p in pts))
        assert len(base) + extras <= 3, "4 colors on circle through %r" % (
            [p1, p2, p3],)
    return circles


def test_criterion_04_flag_sharpness():
    budget, start = 60, time.perf_counter()
    stats = {}
    for n in (2, 3):
        res = verify_flag(n, per_class=30, seed=104)
        assert res["violations"] == []
        assert all(s >= 30 for s in res["sample_sizes"][2:])
        assert res["sample_sizes"][:2] == [1, 1]
        stats["tuples_n%d" % n] = res["tuples_checked"]
    assert stats["tuples_n2"] == 900
    assert stats["tuples_n3"] == 27_000

    # literal form for n = 2: every circle through a 3-subset of the same
    # sample carries at most 3 colors among incident sample points
    flag = FlagInversive(2)
    sample = []
    for i in range(1, flag.k + 1):
        count = 1 if i <= 2 else 30
        for p in sample_class(flag, i, count, 104 + i):
            sample.append((p, i))
    stats["circles_n2"] = _assert_circles_carry_le3(sample)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(4, "flag-sharpness", elapsed, budget, **stats)


def test_criterion_05_two_line_sharpness():
    budget, start = 120, time.perf_counter()
    res = verify_two_line(per_class=40, seed=105)
    assert res["violations"] == []
    assert res["samples"] >= 160
    assert all(len(cols) <= 3 for cols in res["line_colors"].values())

    # direct cross-check at reduced scale: enumerate circles through
    # 3-subsets of sampled line points (plus the origin and infinity) and
    # count colors of incident line points
    tl = TwoLine()
    small = [(Point.finite((Fraction(0), Fraction(0))), 1),
             (Point.infinity(2), 1)]
    for i in range(2, 6):
        for p in sample_class(tl, i, 6, 105 + i):
            small.append((p, i))
    circles = _assert_circles_carry_le3(small)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(5, "two-line-sharpness", elapsed, budget,
            samples=res["samples"], pairs=res["pairs_compared"],
            direct_circles=circles)


def test_criterion_06_coset_structure():
    budget, start = 10, time.perf_counter()
    model = two_line_coset_model(samples_per_class=50, seed=106)
    rep = coset_closure_check(model)
    assert rep["violations"] == []
    assert rep["checks"] > 100
    assert model.group_membership(Fraction(1))
    tampered = dict(model.class_samples)
    tampered["X4"] = (Fraction(3), Fraction(5), Fraction(7)) + tampered["X4"][3:]
    bad = CosetModel(model.group_samples, tampered, model.reps,
                     model.membership, model.group_membership)
    bad_rep = coset_closure_check(bad, samples_per_check=10)
    assert len(bad_rep["violations"]) >= 1
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(6, "coset-structure", elapsed, budget,
            checks=rep["checks"], corrupted_violations=len(bad_rep["violations"]))


def test_criterion_07_extended_two_line_witness():
    budget, start = 10, time.perf_counter()
    w = find_polychromatic(TwoLine(extended=True), 4)
    assert w is not None
    assert w.color_set == frozenset({1, 2, 3, 4})
    for p, _ in w.on_points:
        assert on_sphere(p, w.sphere)
    documented = {
        Point.finite((Fraction(0), THETA)),
        Point.finite((Fraction(0), THETA ** 3 / 2)),
        Point.finite((THETA ** 2, Fraction(0))),
        Point.finite((3 * THETA ** 2 / 2, THETA ** 3 / 2)),
    }
    assert {p for p, _ in w.on_points} == documented
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(7, "four-color-witness", elapsed, budget, colors=sorted(w.color_set))


def _generic_planar_5(rng):
    while True:
        pts = _distinct_random_points(rng, 5, infinity_chance=0.02)
        if not any(on_common_sphere(s) for s in combinations(pts, 4)):
            return tuple((p, i + 1) for i, p in enumerate(pts))


def _generic_space_6(rng):
    while True:
        pts = _distinct_random_points(rng, 6, dim=3)
        if not any(on_common_sphere(s) for s in combinations(pts, 5)):
            return tuple((p, i + 1) for i, p in enumerate(pts))


def test_criterion_08_separating_sphere():
    budget, start = 120, time.perf_counter()
    rng = random.Random(108)
    for _ in range(1000):
        pairs = _generic_planar_5(rng)
        w = separating_circle_5pts(pairs)
        (x, _), (y, _) = w.separated_pair
        assert separated(x, y, w.sphere)
        assert separating_sphere_bruteforce(pairs) is not None
    for _ in range(100):
        pairs = _generic_space_6(rng)
        w = separating_sphere_bruteforce(pairs)
        assert w is not None
        (x, _), (y, _) = w.separated_pair
        assert separated(x, y, w.sphere)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(8, "separating-sphere", elapsed, budget, planar=1000, space=100)


def _random_plane(rng):
    from inversive.geom import GeometryError

    while True:
        rows = [tuple(_rat(rng, 10, 4) for _ in range(3)) for _ in range(2)]
        try:
            flat = GreatFlat.span(rows)
        except GeometryError:
            continue
        if flat.dim == 2:
            return flat


def test_criterion_09_euclidean_analogue():
    budget, start = 60, time.perf_counter()
    rng = random.Random(109)
    exact_count = 0
    for i in range(10_000):
        s, c = _random_plane(rng), _random_plane(rng)
        g = great_intersection(s, c)
        assert len(g.points) == 2
        for p in g.points:
            nn = vec_dot(p.coords, p.coords)
            if g.exact:
                assert is_zero(nn - 1)
            else:
                assert abs(nn - 1.0) < 1e-12
        exact_count += g.exact
        if i % 10 == 0:
            assert s.contains_direction(g.direction)
            assert c.contains_direction(g.direction)
    res = verify_flag_euclidean(2, per_class=32, seed=109)
    assert res["violations"] == []
    assert res["circles_checked"] >= 1000
    assert res["max_colors"] <= 2
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(9, "euclidean-analogue", elapsed, budget,
            pairs=10_000, exact=exact_count, circles=res["circles_checked"])


def _cgp_bruteforce(points):
    pts = list(dict.fromkeys(points))
    m = len(pts)
    if m <= 4:
        return False
    for subset in combinations(pts, m - 1):
        if all(on_common_sphere(q) for q in combinations(subset, 4)):
            return False
    return True


def test_criterion_10_cgp_and_refutation():
    budget, start = 30, time.perf_counter()
    rng = random.Random(110)
    agree = 0
    for i in range(60):
        size = 4 + i % 5
        if i % 3 == 0:
            pts = _rational_circle_points(rng, min(size, 4))
            pts += _distinct_random_points(rng, size - len(pts),
                                           infinity_chance=0.1)
            pts = list(dict.fromkeys(pts))
        else:
            pts = _distinct_random_points(rng, size, infinity_chance=0.05)
        rep = circular_general_position(pts)
        assert rep.verdict == _cgp_bruteforce(pts)
        agree += 1
    five = [fp(0, 0), fp(1, 0), Point.infinity(2), fp(0, 1), fp(1, 2)]
    assert circular_general_position(five).verdict is True
    for quad in [five[:4], five[1:], [fp(2, 2), fp(3, 5), fp(-1, 7), fp(0, 0)]]:
        assert circular_general_position(quad).verdict is False
    t = build_sharp_map([fp(0, 0), fp(1, 0), Point.infinity(2), fp(0, 1)])
    backed = FiniteImageMap(TwoLine(extended=True), t.image + (fp(1, 2),),
                            {1: 0, 2: 1, 3: 2, 4: 3, 5: 4})
    refutation = five_point_refute(backed)
    assert not on_common_sphere(refutation.images)
    for p in refutation.domain_points:
        assert on_sphere(p, refutation.witness.sphere)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(10, "cgp-refutation", elapsed, budget, configs=agree)


def test_criterion_11_sharp_map_survives_checks():
    budget, start = 60, time.perf_counter()
    t = build_sharp_map([fp(0, 0), fp(1, 0), Point.infinity(2), fp(0, 1)])
    circles = sample_circles(1000, seed=111)
    assert len(circles) == 1000
    assert wcp_check(t, circles) is None
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(11, "sharp-map", elapsed, budget, circles=len(circles))


def test_criterion_12_determinism():
    budget, start = 60, time.perf_counter()
    w1 = find_polychromatic(TwoLine(), 3, budget=500, seed=12)
    w2 = find_polychromatic(TwoLine(), 3, budget=500, seed=12)
    assert w1 is not None and w1 == w2
    assert (canonical_json(encode_polychromatic_witness(w1))
            == canonical_json(encode_polychromatic_witness(w2)))
    assert verify_flag(2, per_class=8, seed=3) == verify_flag(2, per_class=8, seed=3)

    argv = ["search-procedural", "--coloring", "two-line-extended",
            "--target", "4", "--seed", "5"]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        assert code == 1
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    json.loads(outs[0])
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(12, "determinism", elapsed, budget, reruns=2)
