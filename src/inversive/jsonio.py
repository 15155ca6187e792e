"""JSON codecs for the library's value types.

Scalars travel as exact text: a rational is the string "p/q" (or "p"), an
element of the quartic field is an array of four rational strings listing
the coefficients of 1, theta, theta^2, theta^3, and a float is a plain finite
JSON number.  A bare JSON integer decodes as an exact rational rather than a
float, so hand-written coordinate files stay in the exact backends.

Structures mirror the in-memory types field by field; every decoder
revalidates through the ordinary constructors, so a tampered witness file
fails to load instead of producing a bogus verdict.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple, Union

from .exactnum import Quartic2
from .geom import Flat, Hypersphere, Point, SubSphere
from .witness import ColoredConfig, PolychromaticWitness, SeparationWitness

if TYPE_CHECKING:
    # annotation-only names; the coloring, Moebius, Euclidean and WCP codecs
    # import their modules when called, so decoding a config loads none of them
    from .colorings import ProceduralColoring
    from .euclid import GreatFlat, GreatIntersection
    from .geom import Scalar
    from .moebius import MoebiusMap
    from .wcp import FiniteImageMap, FivePointRefutation, WcpViolation

__all__ = [
    "FormatError",
    "canonical_json",
    "decode_coloring",
    "decode_config",
    "decode_great_flat",
    "decode_map",
    "decode_moebius",
    "decode_point",
    "decode_point_list",
    "decode_polychromatic_witness",
    "decode_scalar",
    "decode_separation_witness",
    "decode_sphere",
    "encode_coloring",
    "encode_config",
    "encode_great_flat",
    "encode_great_intersection",
    "encode_map",
    "encode_moebius",
    "encode_point",
    "encode_polychromatic_witness",
    "encode_refutation",
    "encode_scalar",
    "encode_separation_witness",
    "encode_sphere",
    "encode_violation",
]


class FormatError(ValueError):
    """Raised when a JSON document does not match the expected shape."""


def canonical_json(payload: Any) -> str:
    """Serialize a payload with sorted keys and a trailing newline, so that
    identical data always yields byte-identical text."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# scalars


def encode_scalar(x: Scalar) -> Any:
    if isinstance(x, bool):
        raise FormatError("booleans are not scalars")
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if isinstance(x, Quartic2):
        return [str(c) for c in x.coeffs]
    if isinstance(x, float):
        return x
    raise FormatError("cannot encode scalar of type %s" % type(x).__name__)


def decode_scalar(v: Any) -> Scalar:
    if isinstance(v, bool):
        raise FormatError("booleans are not scalars")
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise FormatError("bad rational %r" % v) from e
    if isinstance(v, list):
        if len(v) != 4:
            raise FormatError("quartic scalars need exactly four coefficients")
        coeffs = [decode_scalar(c) for c in v]
        if not all(isinstance(c, Fraction) for c in coeffs):
            raise FormatError("quartic coefficients must be rational")
        return Quartic2(*coeffs)
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise FormatError("floats must be finite, not %r" % v)
        return v
    raise FormatError("cannot decode scalar from %r" % (v,))


def _require(obj: Any, key: str, what: str) -> Any:
    """obj[key] of a JSON object, or a FormatError naming the missing key."""
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError("%s needs \"%s\"" % (what, key))
    return obj[key]


def _array(v: Any, field: str) -> list:
    """A JSON array field as it is, or a FormatError naming the field."""
    if not isinstance(v, list):
        raise FormatError("\"%s\" must be an array" % field)
    return v


def _color(c: Any) -> int:
    if isinstance(c, bool) or not isinstance(c, int):
        raise FormatError("colors must be integers, not %r" % (c,))
    return c


def _decode_vector(v: Any, what: str = "vector") -> Tuple[Scalar, ...]:
    if not isinstance(v, list) or not v:
        raise FormatError("%s must be a nonempty array" % what)
    return tuple(decode_scalar(x) for x in v)


# ---------------------------------------------------------------------------
# points and spheres


def encode_point(p: Point) -> Dict[str, Any]:
    if p.is_infinity:
        return {"infinity": True}
    return {"coords": [encode_scalar(x) for x in p.coords]}


def decode_point(obj: Any, n: Optional[int] = None) -> Point:
    if not isinstance(obj, dict):
        raise FormatError("point must be an object")
    infinity = obj.get("infinity", False)
    if not isinstance(infinity, bool):
        raise FormatError("point needs boolean \"infinity\", not %r" % (infinity,))
    if infinity:
        if "coords" in obj:
            raise FormatError("the point at infinity has no \"coords\"")
        if n is None:
            raise FormatError("point at infinity needs an ambient dimension")
        return Point.infinity(n)
    if "coords" not in obj:
        raise FormatError("point needs \"coords\" or \"infinity\"")
    coords = _decode_vector(obj["coords"], "coords")
    if n is not None and len(coords) != n:
        raise FormatError("expected %d coordinates, got %d" % (n, len(coords)))
    return Point.finite(coords)


def encode_hypersphere(s: Hypersphere) -> Dict[str, Any]:
    return {
        "c": encode_scalar(s.c),
        "b": [encode_scalar(x) for x in s.b],
        "a": encode_scalar(s.a),
    }


def decode_hypersphere(obj: Any) -> Hypersphere:
    if not isinstance(obj, dict) or not {"c", "b", "a"} <= set(obj):
        raise FormatError("hypersphere needs \"c\", \"b\", \"a\"")
    return Hypersphere.make(decode_scalar(obj["c"]),
                            _decode_vector(obj["b"], "b"),
                            decode_scalar(obj["a"]))


def _encode_flat(f: Flat) -> Dict[str, Any]:
    return {
        "basepoint": [encode_scalar(x) for x in f.basepoint],
        "basis": [[encode_scalar(x) for x in row] for row in f.basis],
    }


def _decode_flat(obj: Any) -> Flat:
    if not isinstance(obj, dict) or "basepoint" not in obj:
        raise FormatError("flat needs \"basepoint\" and \"basis\"")
    base = _decode_vector(obj["basepoint"], "basepoint")
    rows = _array(obj.get("basis", []), "basis")
    # Rebuild through points so a hand-edited basis comes back independent
    # and orthogonal, as every carrier is built and printed.
    pts = [Point.finite(base)]
    for row in rows:
        v = _decode_vector(row, "basis vector")
        pts.append(Point.finite(tuple(b + x for b, x in zip(base, v))))
    return Flat.through(pts)


def encode_sphere(s: Union[Hypersphere, SubSphere]) -> Dict[str, Any]:
    """Encode either a full-dimensional hypersphere or a lower-dimensional
    subsphere (carrier flat plus cutting surface)."""
    if isinstance(s, Hypersphere):
        return encode_hypersphere(s)
    if isinstance(s, SubSphere):
        out: Dict[str, Any] = {"carrier": _encode_flat(s.carrier)}
        out["surface"] = None if s.surface is None else encode_hypersphere(s.surface)
        return out
    raise FormatError("cannot encode sphere of type %s" % type(s).__name__)


def decode_sphere(obj: Any) -> Union[Hypersphere, SubSphere]:
    if not isinstance(obj, dict):
        raise FormatError("sphere must be an object")
    if "carrier" in obj:
        surface = obj.get("surface")
        return SubSphere(_decode_flat(obj["carrier"]),
                         None if surface is None else decode_hypersphere(surface))
    return decode_hypersphere(obj)


def _sphere_ambient(s: Union[Hypersphere, SubSphere]) -> int:
    return len(s.b) if isinstance(s, Hypersphere) else s.ambient


# ---------------------------------------------------------------------------
# Moebius maps


def encode_moebius(m: MoebiusMap) -> Dict[str, Any]:
    from .moebius import SphereInversion
    factors: List[Dict[str, Any]] = []
    for f in m.factors:
        if isinstance(f, SphereInversion):
            factors.append({"inversion": {
                "center": [encode_scalar(x) for x in f.center],
                "r2": encode_scalar(f.radius_sq),
            }})
        else:
            factors.append({"reflection": {
                "normal": [encode_scalar(x) for x in f.normal],
                "offset": encode_scalar(f.offset),
            }})
    return {"dim": m.dim, "factors": factors}


def decode_moebius(obj: Any) -> MoebiusMap:
    from .moebius import HyperplaneReflection, MoebiusMap, SphereInversion
    if not isinstance(obj, dict) or "factors" not in obj:
        raise FormatError("map needs a \"factors\" array")
    factors = []
    for entry in _array(obj["factors"], "factors"):
        if not isinstance(entry, dict) or len(entry) != 1:
            raise FormatError("each factor is one inversion or reflection")
        if "inversion" in entry:
            body = entry["inversion"]
            factors.append(SphereInversion(
                _decode_vector(_require(body, "center", "inversion"), "center"),
                decode_scalar(_require(body, "r2", "inversion"))))
        elif "reflection" in entry:
            body = entry["reflection"]
            factors.append(HyperplaneReflection(
                _decode_vector(_require(body, "normal", "reflection"), "normal"),
                decode_scalar(_require(body, "offset", "reflection"))))
        else:
            raise FormatError("unknown factor kind %r" % list(entry))
    if not factors and "dim" not in obj:
        raise FormatError("an empty map needs an explicit \"dim\"")
    dim = _require_int(obj, "dim", "map") if "dim" in obj else factors[0].dim
    if dim < 1:
        raise FormatError("map needs \"dim\" of at least 1")
    return MoebiusMap(tuple(factors), dim)


# ---------------------------------------------------------------------------
# colored configurations and point lists


def _encode_colored(items) -> List[Dict[str, Any]]:
    """(point, color) pairs as points that carry a "color" key."""
    return [dict(encode_point(p), color=c) for p, c in items]


def _decode_colored(entries: Any, n: int, what: str) -> List[Tuple[Point, int]]:
    """The (point, color) pairs of a "points" array of colored points."""
    items = []
    for entry in _array(entries, "points"):
        if not isinstance(entry, dict) or "color" not in entry:
            raise FormatError("each %s needs a \"color\"" % what)
        items.append((decode_point(entry, n), _color(entry["color"])))
    return items


def encode_config(cfg: ColoredConfig) -> Dict[str, Any]:
    return {"n": cfg.n, "k": cfg.k, "points": _encode_colored(cfg.items)}


def decode_config(obj: Any) -> ColoredConfig:
    n, k = _require_int(obj, "n", "configuration"), _require_int(obj, "k", "configuration")
    items = _decode_colored(_require(obj, "points", "configuration"), n,
                            "configuration point")
    return ColoredConfig(n, k, tuple(items))


def decode_point_list(obj: Any) -> Tuple[int, List[Point]]:
    """Decode {"n": ..., "points": [...]} into (n, points)."""
    n = _require_int(obj, "n", "point list")
    points = _array(_require(obj, "points", "point list"), "points")
    return n, [decode_point(entry, n) for entry in points]


# ---------------------------------------------------------------------------
# coloring descriptors


def encode_coloring(col: ProceduralColoring) -> Dict[str, Any]:
    from .colorings import FlagEuclidean, FlagInversive, PointListBackground, TwoLine
    if isinstance(col, FlagInversive):
        return {"kind": "flag", "n": col.n}
    if isinstance(col, FlagEuclidean):
        return {"kind": "flag-euclidean", "n": col.n}
    if isinstance(col, TwoLine):
        return {"kind": "two-line", "extended": col.extended}
    if isinstance(col, PointListBackground):
        return {"kind": "point-list", "n": col.n, "background": col.background,
                "points": _encode_colored(zip(col.points, col.colors))}
    raise FormatError("cannot encode coloring of type %s" % type(col).__name__)


def decode_coloring(obj: Any) -> ProceduralColoring:
    from .colorings import (FlagEuclidean, FlagInversive, PointListBackground, TwoLine,
                            generic_position_points)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError("coloring descriptor needs a \"kind\"")
    kind = obj["kind"]
    if kind == "flag":
        return FlagInversive(_require_int(obj, "n"))
    if kind == "flag-euclidean":
        return FlagEuclidean(_require_int(obj, "n"))
    if kind == "two-line":
        extended = obj.get("extended", False)
        if not isinstance(extended, bool):
            raise FormatError("descriptor needs boolean \"extended\"")
        return TwoLine(extended)
    if kind == "two-line-extended":
        return TwoLine(True)
    if kind == "generic":
        # shorthand for the point-list coloring of k - 1 marked points
        n, k = _require_int(obj, "n"), _require_int(obj, "k")
        if k < 2:
            raise FormatError("a generic descriptor needs k at least 2")
        if "points" in obj:
            pts = tuple(decode_point(e, n) for e in _array(obj["points"], "points"))
        else:
            seed = _require_int(obj, "seed") if "seed" in obj else 0
            pts = tuple(generic_position_points(n, k - 1, seed))
        if len(pts) != k - 1:
            raise FormatError("a generic descriptor marks exactly k - 1 points")
        return PointListBackground(n, pts, tuple(range(1, k)), k)
    if kind == "point-list":
        n = _require_int(obj, "n")
        items = _decode_colored(obj.get("points", []), n, "listed point")
        return PointListBackground(n, tuple(p for p, _ in items),
                                   tuple(c for _, c in items),
                                   _require_int(obj, "background"))
    raise FormatError("unknown coloring kind %r" % kind)


def _require_int(obj: Mapping, key: str, what: str = "descriptor") -> int:
    v = _require(obj, key, what)
    if isinstance(v, bool) or not isinstance(v, int):
        raise FormatError("%s needs integer \"%s\"" % (what, key))
    return v


# ---------------------------------------------------------------------------
# witnesses and reports


def _encode_colored_pair(p: Point, c: int) -> Dict[str, Any]:
    return {"point": encode_point(p), "color": c}


def _decode_colored_pair(obj: Any, n: int) -> Tuple[Point, Any]:
    return (decode_point(_require(obj, "point", "witness point"), n),
            _color(_require(obj, "color", "witness point")))


def encode_polychromatic_witness(w: PolychromaticWitness) -> Dict[str, Any]:
    return {
        "sphere": encode_sphere(w.sphere),
        "points": [_encode_colored_pair(p, c) for p, c in w.on_points],
        "colors": sorted(w.color_set),
    }


def decode_polychromatic_witness(obj: Any) -> PolychromaticWitness:
    if not isinstance(obj, dict) or not {"sphere", "points", "colors"} <= set(obj):
        raise FormatError("witness needs \"sphere\", \"points\", \"colors\"")
    sphere = decode_sphere(obj["sphere"])
    n = _sphere_ambient(sphere)
    on = tuple(_decode_colored_pair(e, n) for e in _array(obj["points"], "points"))
    colors = frozenset(_color(c) for c in _array(obj["colors"], "colors"))
    return PolychromaticWitness(sphere, on, colors)


def encode_separation_witness(w: SeparationWitness) -> Dict[str, Any]:
    return {
        "sphere": encode_sphere(w.sphere),
        "defining": [_encode_colored_pair(p, c) for p, c in w.defining],
        "separated": [_encode_colored_pair(p, c) for p, c in w.separated_pair],
    }


def decode_separation_witness(obj: Any) -> SeparationWitness:
    if not isinstance(obj, dict) or not {"sphere", "defining", "separated"} <= set(obj):
        raise FormatError("witness needs \"sphere\", \"defining\", \"separated\"")
    sphere = decode_sphere(obj["sphere"])
    if not isinstance(sphere, Hypersphere):
        raise FormatError("separation witnesses use full hyperspheres")
    n = _sphere_ambient(sphere)
    defining = tuple(_decode_colored_pair(e, n)
                     for e in _array(obj["defining"], "defining"))
    sep = [_decode_colored_pair(e, n) for e in _array(obj["separated"], "separated")]
    if len(sep) != 2:
        raise FormatError("exactly two separated points expected")
    return SeparationWitness(sphere, defining, (sep[0], sep[1]))


def encode_great_flat(f: GreatFlat) -> Dict[str, Any]:
    return {"basis": [[encode_scalar(x) for x in row] for row in f.basis]}


def decode_great_flat(obj: Any) -> GreatFlat:
    from .euclid import GreatFlat
    if not isinstance(obj, dict) or "basis" not in obj:
        raise FormatError("great flat needs a \"basis\"")
    rows = [_decode_vector(row, "basis vector") for row in _array(obj["basis"], "basis")]
    if not rows:
        raise FormatError("basis must be nonempty")
    return GreatFlat.span(rows)


def encode_great_intersection(g: GreatIntersection) -> Dict[str, Any]:
    return {
        "direction": [encode_scalar(x) for x in g.direction],
        "points": [encode_point(p) for p in g.points],
        "exact": g.exact,
    }


def encode_map(t: FiniteImageMap) -> Dict[str, Any]:
    return {
        "coloring": encode_coloring(t.coloring),
        "image": [encode_point(p) for p in t.image],
        "table": {str(c): i for c, i in sorted(t.table.items())},
    }


def decode_map(obj: Any) -> FiniteImageMap:
    from .wcp import FiniteImageMap
    if not isinstance(obj, dict) or not {"coloring", "image", "table"} <= set(obj):
        raise FormatError("map needs \"coloring\", \"image\", \"table\"")
    coloring = decode_coloring(obj["coloring"])
    entries = _array(obj["image"], "image")
    dim = next((len(e["coords"]) for e in entries
                if isinstance(e, dict) and isinstance(e.get("coords"), list)), None)
    image = tuple(decode_point(e, dim) for e in entries)
    if not isinstance(obj["table"], dict):
        raise FormatError("table must be an object from colors to image indices")
    table = {}
    for key, val in obj["table"].items():
        if isinstance(val, bool) or not isinstance(val, int):
            raise FormatError("table values must be integer image indices")
        digits = key[1:] if key.startswith("-") else key
        if not digits.isdecimal() or str(int(key)) != key:
            raise FormatError("table key %s is not a color in canonical integer form"
                              % json.dumps(key))
        table[int(key)] = val
    return FiniteImageMap(coloring, image, table)


def encode_violation(v: WcpViolation) -> Dict[str, Any]:
    return {
        "sample_index": v.sample_index,
        "circle": encode_sphere(v.circle),
        "domain_points": [encode_point(p) for p in v.domain_points],
        "images": [encode_point(p) for p in v.images],
    }


def encode_refutation(r: FivePointRefutation) -> Dict[str, Any]:
    return {
        "witness": encode_polychromatic_witness(r.witness),
        "domain_points": [encode_point(p) for p in r.domain_points],
        "images": [encode_point(p) for p in r.images],
    }
