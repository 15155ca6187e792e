"""Command line surface for the library.

Every subcommand prints exactly one JSON report to standard output and
exits 0 when the requested property verified (or no witness exists on the
enumerated sample), 1 when a witness or violation was found (the payload is
attached to the report), 2 on malformed input or precondition errors, and 3,
with an `internal-error` report, when the program itself failed.
Reports contain the seed and sample sizes that produced them and nothing
clock- or host-dependent, so a rerun with the same arguments is
byte-identical. `search --jobs` is accepted for compatibility and ignored;
searches need exact coordinates.

`main(argv)` may be called repeatedly in one process: the parser is built on
the first call and reused, and each call looks its handler up by name.
Each handler imports what it runs, so a process that separates or validates
never loads the searches, colorings, Moebius, Euclidean, WCP or SVG modules.
The value types are plain classes on `geom.Frozen`: no process imports
`inspect` for them or generates their methods when it starts.
"""

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Any, Dict, Optional, Tuple

from .exactnum import BackendMismatch, Quartic2
from .geom import GeometryError, Point
from .jsonio import (
    FormatError,
    canonical_json,
    decode_coloring,
    decode_config,
    decode_great_flat,
    decode_map,
    decode_point_list,
    decode_polychromatic_witness,
    decode_separation_witness,
    encode_great_intersection,
    encode_map,
    encode_point,
    encode_polychromatic_witness,
    encode_refutation,
    encode_scalar,
    encode_separation_witness,
    encode_violation,
)
from .witness import SearchBudgetError, separating_circle_5pts, separating_sphere_bruteforce

__all__ = ["main"]

_EXIT_BY_VERDICT = {
    "verified": 0,
    "no-witness": 0,
    "no-witness-within-budget": 0,
    "no-violation": 0,
    "no-violation-within-budget": 0,
    "intersects": 0,
    "written": 0,
    "validated": 0,
    "witness-found": 1,
    "violation-found": 1,
    "refuted": 1,
    "invalid-witness": 1,
    "error": 2,
}

_BUILTIN_COLORINGS = ("two-line", "two-line-extended", "flag-N",
                      "flag-euclidean-N")


def _jsonify(x: Any) -> Any:
    """Recursive fallback encoder for report payloads assembled from the
    verification dictionaries, which mix points, exact scalars, and ints."""
    if x is None or isinstance(x, (bool, int, str, float)):
        return x
    if isinstance(x, (Fraction, Quartic2)):
        return encode_scalar(x)
    if isinstance(x, Point):
        return encode_point(x)
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonify(v) for k, v in x.items()}
    raise TypeError("no JSON encoding for %s" % type(x).__name__)


def _print_report(command: str, parameters: Dict, verdict: str,
                  payload: Optional[Dict] = None,
                  statistics: Optional[Dict] = None) -> None:
    body: Dict[str, Any] = {
        "command": command,
        "parameters": parameters,
        "verdict": verdict,
    }
    if payload:
        body.update(payload)
    if statistics is not None:
        body["statistics"] = statistics
    sys.stdout.write(canonical_json(body))


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_coloring(arg: str):
    """A --coloring argument is either a descriptor file or a builtin name
    such as two-line-extended or flag-2."""
    if os.path.exists(arg):
        return decode_coloring(_load_json(arg))
    obj: Optional[Dict[str, Any]] = None
    if arg in ("two-line", "two-line-extended"):
        obj = {"kind": arg}
    elif arg.startswith("flag-euclidean-"):
        obj = {"kind": "flag-euclidean", "n": _name_suffix(arg)}
    elif arg.startswith("flag-"):
        obj = {"kind": "flag", "n": _name_suffix(arg)}
    if obj is None:
        raise FormatError("unknown coloring %r; builtins: %s"
                          % (arg, ", ".join(_BUILTIN_COLORINGS)))
    return decode_coloring(obj)


def _name_suffix(arg: str) -> int:
    try:
        return int(arg.rsplit("-", 1)[1])
    except ValueError as e:
        raise FormatError("bad dimension suffix in %r" % arg) from e


# ---------------------------------------------------------------------------
# subcommand handlers, found by `main` as cmd_<command name> with `-` and
# spaces read as `_`; each returns (verdict, payload, statistics, parameters)

_VERIFY_DEFAULT_SAMPLES = {"flag": 30, "generic": 30, "two-line": 40,
                           "flag-euclidean": 16}


def cmd_verify_construction(args) -> Tuple[str, Dict, Dict, Dict]:
    # generic scans its k - 1 marked points and samples nothing; the other
    # kinds have a fixed color count
    ignored = "--samples" if args.kind == "generic" else "--k"
    if getattr(args, ignored[2:]) is not None:
        raise FormatError("--kind %s takes no %s" % (args.kind, ignored))
    samples = args.samples
    if samples is None:
        samples = _VERIFY_DEFAULT_SAMPLES[args.kind]
    params = {"kind": args.kind, "n": args.n, "samples": samples,
              "seed": args.seed}
    from .chromatic import verify_flag, verify_generic, verify_two_line
    if args.kind == "flag":
        res = verify_flag(args.n, per_class=samples, seed=args.seed)
    elif args.kind == "two-line":
        if args.n != 2:
            raise FormatError("the two-line construction lives in the plane")
        res = verify_two_line(per_class=samples, seed=args.seed)
    elif args.kind == "flag-euclidean":
        from .euclid import verify_flag_euclidean
        res = verify_flag_euclidean(args.n, per_class=samples, seed=args.seed)
    else:
        k = args.k if args.k is not None else args.n + 3
        params["k"] = k
        res = verify_generic(args.n, k, seed=args.seed)
    return (*_scan_report(res), params)


def _scan_report(res: Dict) -> Tuple[str, Dict, Dict]:
    """(verdict, payload, statistics) of a sharpness scan's result: its
    violations, if any, go into the payload and the rest into statistics."""
    violations = res.pop("violations")
    verdict = "verified" if not violations else "violation-found"
    payload = {"violations": _jsonify(violations)} if violations else {}
    return verdict, payload, _jsonify(res)


def cmd_search(args) -> Tuple[str, Dict, Dict, Dict]:
    if args.target < 1:
        raise FormatError("--target must be positive")
    from .chromatic import max_polychromatic
    cfg = decode_config(_load_json(args.input))
    witness = max_polychromatic(cfg, args.dim)
    found = len(witness.color_set) >= args.target
    size = args.dim + 2
    stats = {
        "points": len(cfg.items),
        "subsets_enumerated": math.comb(len(cfg.items), size),
        "max_colors": len(witness.color_set),
    }
    params = {"input": args.input, "dim": args.dim, "target": args.target}
    encoded = encode_polychromatic_witness(witness)
    if args.plot:
        from .svg import emit_svg
        emit_svg(witness if found else cfg, args.plot,
                 config=cfg if found else None)
    if found:
        return "witness-found", {"witness": encoded}, stats, params
    return "no-witness", {"best": encoded}, stats, params


def cmd_search_procedural(args) -> Tuple[str, Dict, Dict, Dict]:
    from .chromatic import default_samples_per_class, find_polychromatic
    coloring = _load_coloring(args.coloring)
    spc = (args.samples_per_class if args.samples_per_class is not None
           else default_samples_per_class(args.budget))
    params = {"coloring": args.coloring, "target": args.target,
              "budget": args.budget, "seed": args.seed,
              "samples_per_class": spc}
    witness = find_polychromatic(coloring, args.target, budget=args.budget,
                                 seed=args.seed, samples_per_class=spc)
    stats = {"budget": args.budget, "samples_per_class": spc}
    if witness is None:
        return "no-witness-within-budget", {}, stats, params
    return ("witness-found",
            {"witness": encode_polychromatic_witness(witness)}, stats, params)


def cmd_separate(args) -> Tuple[str, Dict, Dict, Dict]:
    cfg = decode_config(_load_json(args.input))
    params = {"input": args.input}
    stats = {"n": cfg.n, "points": len(cfg.items)}
    if cfg.n == 2:
        witness = separating_circle_5pts(cfg.items)
    else:
        witness = separating_sphere_bruteforce(cfg.items)
    if args.plot:
        from .svg import emit_svg
        emit_svg(witness, args.plot, config=cfg)
    return ("witness-found",
            {"witness": encode_separation_witness(witness)}, stats, params)


def cmd_euclid_intersect(args) -> Tuple[str, Dict, Dict, Dict]:
    from .euclid import great_intersection
    obj = _load_json(args.input)
    if not isinstance(obj, dict) or not {"sphere", "circle"} <= set(obj):
        raise FormatError("expected {\"sphere\": {...}, \"circle\": {...}}")
    s = decode_great_flat(obj["sphere"])
    c = decode_great_flat(obj["circle"])
    g = great_intersection(s, c)
    return ("intersects",
            {"intersection": encode_great_intersection(g)},
            {"exact": g.exact}, {"input": args.input})


def cmd_euclid_verify(args) -> Tuple[str, Dict, Dict, Dict]:
    from .euclid import verify_flag_euclidean
    samples = args.samples
    if samples is None:
        samples = _VERIFY_DEFAULT_SAMPLES["flag-euclidean"]
    params = {"n": args.n, "samples": samples, "seed": args.seed}
    res = verify_flag_euclidean(args.n, per_class=samples, seed=args.seed)
    return (*_scan_report(res), params)


def cmd_wcp_check(args) -> Tuple[str, Dict, Dict, Dict]:
    from .wcp import sample_circles, wcp_check
    t = decode_map(_load_json(args.map))
    circles = sample_circles(args.samples, seed=args.seed)
    params = {"map": args.map, "samples": args.samples, "seed": args.seed}
    stats = {"circles_checked": len(circles)}
    violation = wcp_check(t, circles)
    if violation is None:
        return "no-violation", {}, stats, params
    return ("violation-found",
            {"violation": encode_violation(violation)}, stats, params)


def cmd_wcp_refute(args) -> Tuple[str, Dict, Dict, Dict]:
    from .wcp import five_point_refute
    t = decode_map(_load_json(args.map))
    params = {"map": args.map, "budget": args.budget, "seed": args.seed}
    try:
        refutation = five_point_refute(t, budget=args.budget, seed=args.seed)
    except SearchBudgetError:
        return ("no-violation-within-budget", {},
                {"budget": args.budget}, params)
    return ("refuted", {"refutation": encode_refutation(refutation)},
            {"budget": args.budget}, params)


def cmd_wcp_sharp(args) -> Tuple[str, Dict, Dict, Dict]:
    from .wcp import build_sharp_map, sample_circles, wcp_check
    _, pts = decode_point_list(_load_json(args.input))
    t = build_sharp_map(pts)
    circles = sample_circles(args.check, seed=args.seed)
    params = {"input": args.input, "check": args.check, "seed": args.seed}
    stats = {"circles_checked": len(circles)}
    violation = wcp_check(t, circles)
    payload: Dict[str, Any] = {"map": encode_map(t)}
    if violation is None:
        return "verified", payload, stats, params
    payload["violation"] = encode_violation(violation)
    return "violation-found", payload, stats, params


def cmd_plot(args) -> Tuple[str, Dict, Dict, Dict]:
    from .svg import emit_svg
    cfg = decode_config(_load_json(args.input))
    emit_svg(cfg, args.out)
    return ("written", {"out": args.out}, {"points": len(cfg.items)},
            {"input": args.input, "out": args.out})


def cmd_validate(args) -> Tuple[str, Dict, Dict, Dict]:
    obj = _load_json(args.input)
    if not isinstance(obj, dict):
        raise FormatError("expected a report or witness object")
    body = obj.get("witness", obj)
    if not isinstance(body, dict):
        raise FormatError("no witness object found")
    params = {"input": args.input}
    try:
        if "defining" in body:
            witness = decode_separation_witness(body)
            encoded = encode_separation_witness(witness)
            kind = "separation"
        elif "colors" in body:
            witness = decode_polychromatic_witness(body)
            encoded = encode_polychromatic_witness(witness)
            kind = "polychromatic"
        else:
            raise FormatError("no witness object found")
    except (GeometryError, BackendMismatch) as e:
        return ("invalid-witness", {"reason": str(e)},
                {"kind": "unknown"}, params)
    return "validated", {"witness": encoded}, {"kind": kind}, params


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inversive",
        description="Exact-arithmetic toolkit for sphere colorings, "
                    "inversive transformations, and circle-preservation "
                    "counterexamples.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-construction",
                       help="scan a sharpness construction for violations")
    p.add_argument("--kind", required=True,
                   choices=["flag", "generic", "two-line", "flag-euclidean"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=None,
                   help="color count for --kind generic (default n+3)")
    p.add_argument("--samples", type=int, default=None,
                   help="points per color class (not for --kind generic)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("search",
                       help="most-colored sphere spanned by a configuration")
    p.add_argument("--input", required=True, help="ColoredConfig JSON file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--jobs", type=int,
                   help="accepted for compatibility and ignored")
    p.add_argument("--plot", default=None, help="also write an SVG (n = 2)")

    p = sub.add_parser("search-procedural",
                       help="search a procedural coloring for a polychromatic circle")
    p.add_argument("--coloring", required=True,
                   help="descriptor file or builtin name (e.g. two-line-extended)")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples-per-class", type=int, default=None)

    p = sub.add_parser("separate",
                       help="hypersphere separating two colors of an (n+3)-point configuration")
    p.add_argument("--input", required=True, help="ColoredConfig JSON file")
    p.add_argument("--plot", default=None, help="also write an SVG (n = 2)")

    pe = sub.add_parser("euclid", help="great-sphere analogue commands")
    pes = pe.add_subparsers(dest="subcommand", required=True)
    p = pes.add_parser("intersect",
                       help="intersection of a great hypersphere and a great circle")
    p.add_argument("--input", required=True,
                   help="JSON file {\"sphere\": {\"basis\": ...}, \"circle\": {\"basis\": ...}}")
    p = pes.add_parser("verify",
                       help="scan the Euclidean flag coloring for violations")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    pw = sub.add_parser("wcp", help="weak circle preservation commands")
    pws = pw.add_subparsers(dest="subcommand", required=True)
    p = pws.add_parser("check", help="test a finite-image map on sampled circles")
    p.add_argument("--map", required=True, help="map JSON file")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p = pws.add_parser("refute",
                       help="five-point refutation of weak circle preservation")
    p.add_argument("--map", required=True, help="map JSON file")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p = pws.add_parser("sharp",
                       help="build the four-point map that defeats five-point-free tests")
    p.add_argument("--input", required=True, help="point list JSON file")
    p.add_argument("--check", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("plot", help="draw a planar configuration to SVG")
    p.add_argument("--input", required=True, help="ColoredConfig JSON file")
    p.add_argument("--out", required=True, help="output SVG path")

    p = sub.add_parser("validate",
                       help="revalidate a witness from an earlier report")
    p.add_argument("--input", required=True, help="report or witness JSON file")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    name = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    handler = globals()["cmd_" + name.replace("-", "_").replace(" ", "_")]
    try:
        verdict, payload, statistics, parameters = handler(args)
    except (FormatError, GeometryError, BackendMismatch, OSError,
            json.JSONDecodeError) as e:
        sys.stderr.write("error: %s\n" % e)
        _print_report(name, {}, "error", {"error": str(e)})
        return 2
    except Exception as e:  # a bug, not a verdict: exit 1 would read as a witness
        import traceback
        traceback.print_exc()
        _print_report(name, {}, "internal-error", {"error": str(e), "exception": type(e).__name__})
        return 3
    _print_report(name, parameters, verdict, payload, statistics)
    return _EXIT_BY_VERDICT[verdict]


if __name__ == "__main__":
    sys.exit(main())
