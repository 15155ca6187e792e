"""Seeded inputs and job lists of the four benchmark workloads.

Inputs are made here from the seed with the standard library only, so the
program under test receives nothing but the generated files and argv. Each
job names the verdicts its report may carry; a job that prints another
verdict, or an exit code that does not belong to its verdict, has failed.

Why each workload exists (the usage note in README.md has the predictions):

* rank-scan: sharpness scans that are almost all `on_common_sphere` ->
  `_linalg.rref` over Fraction; no sphere objects, no incidence scans, no
  Quartic2. A predicate-kernel change shows here; a scan change should not.
* sphere-search: `search` over flag-coloring configs that mix a collinear
  axis class (one line spanned by many subsets) with points in general
  position, plus the spatial and great-sphere analogues. The incidence scan
  of `max_polychromatic` dominates; a sphere index shows here.
* quartic-search: the Q(2^(1/4)) path, where `Quartic2.__mul__` dominates.
  The procedural search finds no witness, so it spends exactly its budget.
* cli-roundtrip: many short CLI processes, one at a time, as scripts drive
  the tool: import, argparse, JSON codecs and report revalidation dominate.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("rank-scan", "sphere-search", "quartic-search", "cli-roundtrip")

# Workloads whose jobs run in child processes; the rest call cli.main(argv).
CHILD_WORKLOADS = ("cli-roundtrip",)

# The CLI's documented verdict -> exit code contract, restated here so the
# benchmark checks the program against the README rather than against itself.
EXIT_OF_VERDICT = {
    "verified": 0, "no-witness": 0, "no-witness-within-budget": 0,
    "no-violation": 0, "no-violation-within-budget": 0, "intersects": 0,
    "written": 0, "validated": 0, "witness-found": 1, "violation-found": 1,
    "refuted": 1, "invalid-witness": 1, "error": 2,
}

SIZES = {
    "full": {
        "flag_reps": 12, "flag_samples": 5, "generic_reps": 12, "generic_k": 8,
        "planar_configs": 8, "planar_per_class": 4,
        "spatial_configs": 3, "spatial_per_class": 2,
        "euclid_reps": 4, "euclid_samples": 3,
        "procedural_reps": 12, "procedural_budget": 12,
        "extended_configs": 4, "two_line_per_class": 1,
        "two_line_reps": 8, "two_line_samples": 8,
        "separate_planar": 28, "separate_spatial": 8, "wcp_reps": 6,
        "misc_reps": 5, "wcp_samples": 40,
    },
    "tiny": {
        "flag_reps": 1, "flag_samples": 3, "generic_reps": 1, "generic_k": 6,
        "planar_configs": 1, "planar_per_class": 3,
        "spatial_configs": 1, "spatial_per_class": 2,
        "euclid_reps": 1, "euclid_samples": 3,
        "procedural_reps": 1, "procedural_budget": 10,
        "extended_configs": 1, "two_line_per_class": 1,
        "two_line_reps": 1, "two_line_samples": 4,
        "separate_planar": 2, "separate_spatial": 1, "wcp_reps": 1,
        "misc_reps": 1, "wcp_samples": 5,
    },
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation; `save_as` keeps its stdout as a report file that
    a later job of the same pass reads."""

    name: str
    argv: Tuple[str, ...]
    verdicts: Tuple[str, ...]
    save_as: Optional[str] = None


# ---------------------------------------------------------------------------
# exact helpers for general-position inputs


def _rat(rng: random.Random, span: int = 40, den: int = 12) -> Fraction:
    while True:
        num = rng.randint(-span, span)
        if num:
            return Fraction(num, rng.randint(1, den))


def _det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def _lift(p: Sequence[Fraction]) -> List[Fraction]:
    return [sum(x * x for x in p), *p, Fraction(1)]


def _spherically_generic(points: List[Tuple[Fraction, ...]], n: int) -> bool:
    """No n+2 of the points on one generalized (n-1)-sphere."""
    if len(set(points)) != len(points):
        return False
    return all(_det([_lift(p) for p in sub]) != 0
               for sub in combinations(points, n + 2))


def _generic_points(rng: random.Random, n: int, count: int
                    ) -> List[Tuple[Fraction, ...]]:
    while True:
        pts = [tuple(_rat(rng) for _ in range(n)) for _ in range(count)]
        if count < n + 2 or _spherically_generic(pts, n):
            return pts


# ---------------------------------------------------------------------------
# JSON documents in the formats the CLI reads


def _pt(coords) -> Dict:
    return {"coords": [str(x) for x in coords]}


def _quartic_pt(coords) -> Dict:
    return {"coords": [[str(c) for c in x] for x in coords]}


def _flag_config(rng: random.Random, n: int, per_class: int) -> Dict:
    """Flag coloring sample of R^n_inf: the origin (1), infinity (2), and per
    class i >= 3 points whose last nonzero coordinate has index i - 2; class 3
    is the collinear x-axis."""
    points = [dict(_pt([0] * n), color=1), {"infinity": True, "color": 2}]
    seen = set()
    for d in range(1, n + 1):
        made = 0
        while made < per_class:
            head = tuple(_rat(rng) for _ in range(d))
            coords = head + (Fraction(0),) * (n - d)
            if coords in seen:
                continue
            seen.add(coords)
            points.append(dict(_pt(coords), color=d + 2))
            made += 1
    return {"n": n, "k": n + 2, "points": points}


def _two_line_config(rng: random.Random, per_class: int) -> Dict:
    """Extended two-line coloring sample over Q(t), t^4 = 2: scalars are
    coefficient lists of 1, t, t^2, t^3. Class 1 holds the origin, infinity
    and rational-norm points of the y-axis; classes 2..5 sit on the axes
    with norms in t*Q*, t^3*Q*, t^2*Q* and Q*."""
    zero = (0, 0, 0, 0)

    def scaled(power: int) -> Tuple:
        v = [0, 0, 0, 0]
        v[power] = _rat(rng)
        return tuple(v)

    points = [dict(_quartic_pt([zero, zero]), color=1),
              {"infinity": True, "color": 1}]
    on_y = {1: 0, 2: 1, 3: 3}
    on_x = {4: 2, 5: 0}
    seen = set()
    for color in range(1, 6):
        made = 0
        while made < per_class:
            if color in on_y:
                coords = (zero, scaled(on_y[color]))
            else:
                coords = (scaled(on_x[color]), zero)
            if coords in seen:
                continue
            seen.add(coords)
            points.append(dict(_quartic_pt(coords), color=color))
            made += 1
    return {"n": 2, "k": 5, "points": points}


def _colored(points, start: int = 1) -> List[Dict]:
    return [dict(_pt(p), color=i) for i, p in enumerate(points, start=start)]


def _independent_pair(rng: random.Random) -> List[List[str]]:
    while True:
        u = [_rat(rng, 9, 4) for _ in range(3)]
        v = [_rat(rng, 9, 4) for _ in range(3)]
        cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                 u[0] * v[1] - u[1] * v[0])
        if any(cross):
            return [[str(x) for x in u], [str(x) for x in v]]


# ---------------------------------------------------------------------------
# job lists


def _write(workdir: str, name: str, doc: Dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def _seeds(seed: int, count: int) -> List[str]:
    """Program seeds for `count` jobs of one kind: many independent draws
    per pass keep the work of a pass nearly the same from seed to seed."""
    return [str(seed * 1000 + r) for r in range(count)]


def _rank_scan(rng, seed, size, workdir) -> List[Job]:
    jobs = []
    for r, s in enumerate(_seeds(seed, size["flag_reps"])):
        jobs.append(Job("flag-n3-%d" % r,
                        ("verify-construction", "--kind", "flag", "--n", "3",
                         "--samples", str(size["flag_samples"]), "--seed", s),
                        ("verified",)))
    for n in (2, 3):
        for r, s in enumerate(_seeds(seed, size["generic_reps"])):
            jobs.append(Job("generic-n%d-%d" % (n, r),
                            ("verify-construction", "--kind", "generic",
                             "--n", str(n), "--k", str(size["generic_k"]),
                             "--seed", s),
                            ("verified",)))
    return jobs


def _sphere_search(rng, seed, size, workdir) -> List[Job]:
    jobs = []
    # flag colorings are sharp: no circle of R^2 and no 2-sphere of R^3
    # carries n + 2 colors, and no circle of R^3 carries four.
    for r in range(size["planar_configs"]):
        path = _write(workdir, "planar-%d.json" % r,
                      _flag_config(rng, 2, size["planar_per_class"]))
        jobs.append(Job("planar-%d" % r,
                        ("search", "--input", path, "--dim", "1",
                         "--target", "4", "--jobs", "1"),
                        ("no-witness",)))
    for r in range(size["spatial_configs"]):
        path = _write(workdir, "spatial-%d.json" % r,
                      _flag_config(rng, 3, size["spatial_per_class"]))
        for dim, target in ((2, 5), (1, 4)):
            jobs.append(Job("spatial-%d-dim%d" % (r, dim),
                            ("search", "--input", path, "--dim", str(dim),
                             "--target", str(target), "--jobs", "1"),
                            ("no-witness",)))
    for r, s in enumerate(_seeds(seed, size["euclid_reps"])):
        jobs.append(Job("euclid-%d" % r,
                        ("euclid", "verify", "--n", "2",
                         "--samples", str(size["euclid_samples"]), "--seed", s),
                        ("verified",)))
    return jobs


def _quartic_search(rng, seed, size, workdir) -> List[Job]:
    jobs = []
    # the plain two-line coloring is sharp, so each search exhausts its
    # budget: the work done is fixed by the budget, not by luck
    for r, s in enumerate(_seeds(seed, size["procedural_reps"])):
        jobs.append(Job("procedural-two-line-%d" % r,
                        ("search-procedural", "--coloring", "two-line",
                         "--target", "4",
                         "--budget", str(size["procedural_budget"]),
                         "--seed", s),
                        ("no-witness-within-budget",)))
    for r in range(size["extended_configs"]):
        path = _write(workdir, "two-line-extended-%d.json" % r,
                      _two_line_config(rng, size["two_line_per_class"]))
        jobs.append(Job("search-two-line-extended-%d" % r,
                        ("search", "--input", path, "--dim", "1",
                         "--target", "4", "--jobs", "1"),
                        ("no-witness", "witness-found")))
    for r, s in enumerate(_seeds(seed, size["two_line_reps"])):
        jobs.append(Job("verify-two-line-%d" % r,
                        ("verify-construction", "--kind", "two-line",
                         "--samples", str(size["two_line_samples"]),
                         "--seed", s),
                        ("verified",)))
    return jobs


def _cli_roundtrip(rng, seed, size, workdir) -> List[Job]:
    separate, validate = [], []
    for dim, count in ((2, size["separate_planar"]),
                       (3, size["separate_spatial"])):
        for r in range(count):
            name = "separate-n%d-%d" % (dim, r)
            pts = _generic_points(rng, dim, dim + 3)
            path = _write(workdir, name + ".json",
                          {"n": dim, "k": dim + 3, "points": _colored(pts)})
            report = os.path.join(workdir, name + ".report.json")
            separate.append(Job(name, ("separate", "--input", path),
                                ("witness-found",), save_as=report))
            validate.append(Job("validate-n%d-%d" % (dim, r),
                                ("validate", "--input", report),
                                ("validated",)))
    rest = []
    for r in range(size["wcp_reps"]):
        four = {"n": 2, "points": [_pt(p) for p in _generic_points(rng, 2, 4)]}
        rest.append(Job("wcp-sharp-%d" % r,
                        ("wcp", "sharp", "--input",
                         _write(workdir, "four-%d.json" % r, four),
                         "--check", str(size["wcp_samples"]),
                         "--seed", str(seed + r)),
                        ("verified",)))
        # the four-class flag map defeats every circle sample
        flag_map = {"coloring": {"kind": "flag", "n": 2},
                    "image": four["points"],
                    "table": {"1": 0, "2": 1, "3": 2, "4": 3}}
        rest.append(Job("wcp-check-%d" % r,
                        ("wcp", "check", "--map",
                         _write(workdir, "flag-map-%d.json" % r, flag_map),
                         "--samples", str(size["wcp_samples"]),
                         "--seed", str(seed + r)),
                        ("no-violation",)))
        # five image points in circular general position under the extended
        # two-line coloring, whose four-colored circle refutes the map
        five = [_pt(p) for p in _generic_points(rng, 2, 5)]
        two_line_map = {"coloring": {"kind": "two-line", "extended": True},
                        "image": five,
                        "table": {str(c): c - 1 for c in range(1, 6)}}
        rest.append(Job("wcp-refute-%d" % r,
                        ("wcp", "refute", "--map",
                         _write(workdir, "two-line-map-%d.json" % r,
                                two_line_map),
                         "--seed", str(seed + r)),
                        ("refuted",)))
    for r in range(size["misc_reps"]):
        pair = {"sphere": {"basis": _independent_pair(rng)},
                "circle": {"basis": _independent_pair(rng)}}
        rest.append(Job("euclid-intersect-%d" % r,
                        ("euclid", "intersect", "--input",
                         _write(workdir, "flats-%d.json" % r, pair)),
                        ("intersects",)))
        cfg = _write(workdir, "plot-%d.json" % r, _flag_config(rng, 2, 4))
        rest.append(Job("plot-%d" % r,
                        ("plot", "--input", cfg, "--out",
                         os.path.join(workdir, "plot-%d.svg" % r)),
                        ("written",)))
    return separate + validate + rest


_BUILDERS = {
    "rank-scan": _rank_scan,
    "sphere-search": _sphere_search,
    "quartic-search": _quartic_search,
    "cli-roundtrip": _cli_roundtrip,
}


def build(workload: str, seed: int, size: str, workdir: str) -> List[Job]:
    """Write the workload's seeded inputs under `workdir` (a path relative to
    the checkout root, so reports are the same in every checkout) and return
    its job list."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random("%s/%d" % (workload, seed))
    return _BUILDERS[workload](rng, seed, SIZES[size], workdir)


def self_check(workload: str, calls_under, calls_in_job,
               jobs: Sequence[Job], reports: Sequence[Dict]) -> List[str]:
    """Compare the traced call counts of one pass with the work counts the
    program reports, so a wrapper that missed a binding fails the run.

    `calls_under(name, parents)` counts spans of `name` whose parent span is
    one of `parents`; `calls_in_job(name, index)` counts spans of `name`
    inside job `index`."""
    problems = []
    if workload == "rank-scan":
        reported = sum(r.get("statistics", {}).get(key, 0)
                       for r in reports
                       for key in ("tuples_checked", "subsets_checked"))
        traced = calls_under("geom.on_common_sphere",
                             ("chromatic.verify_flag", "chromatic.verify_generic"))
        if traced != reported:
            problems.append("on_common_sphere under verify_*: traced %d, "
                            "reported %d" % (traced, reported))
    if workload == "quartic-search":
        for i, (job, rep) in enumerate(zip(jobs, reports)):
            if job.argv[0] != "search-procedural":
                continue
            budget = rep.get("statistics", {}).get("budget")
            traced = calls_in_job("geom.sphere_through", i)
            if traced != budget:
                problems.append("sphere_through in %s: traced %d, budget %s"
                                % (job.name, traced, budget))
    return problems
