"""Round-trip tests for the JSON codecs.

Every codec is exercised in both directions; decoders must reconstruct an
object the library treats as identical, and tampered documents must fail
to load rather than producing unvalidated witnesses.
"""

import json
import re
from fractions import Fraction

import pytest

from inversive.chromatic import max_polychromatic
from inversive.colorings import (
    FlagEuclidean,
    FlagInversive,
    PointListBackground,
    TwoLine,
    generic_position_points,
)
from inversive.euclid import GreatFlat, great_intersection
from inversive.exactnum import THETA, Quartic2
from inversive.geom import GeometryError, Hypersphere, Point, smallest_sphere
from inversive.jsonio import (
    FormatError,
    canonical_json,
    decode_coloring,
    decode_config,
    decode_great_flat,
    decode_map,
    decode_moebius,
    decode_point,
    decode_point_list,
    decode_polychromatic_witness,
    decode_scalar,
    decode_separation_witness,
    decode_sphere,
    encode_coloring,
    encode_config,
    encode_great_flat,
    encode_great_intersection,
    encode_map,
    encode_moebius,
    encode_point,
    encode_polychromatic_witness,
    encode_scalar,
    encode_separation_witness,
    encode_sphere,
)
from inversive.moebius import HyperplaneReflection, MoebiusMap, SphereInversion
from inversive.wcp import build_sharp_map
from inversive.witness import ColoredConfig, separating_circle_5pts


def fp(*coords):
    return Point.finite(tuple(Fraction(c) for c in coords))


class TestScalars:
    def test_rational_round_trip(self):
        for q in [Fraction(3, 4), Fraction(-7, 2), Fraction(5), Fraction(0)]:
            assert decode_scalar(encode_scalar(q)) == q

    def test_rational_encoding_is_text(self):
        assert encode_scalar(Fraction(3, 4)) == "3/4"
        assert encode_scalar(Fraction(5)) == "5"
        assert encode_scalar(7) == "7"

    def test_quartic_round_trip(self):
        x = Quartic2(1, Fraction(-2, 3), 0, 5)
        v = encode_scalar(x)
        assert v == ["1", "-2/3", "0", "5"]
        assert decode_scalar(v) == x

    def test_float_passthrough(self):
        assert decode_scalar(encode_scalar(0.25)) == 0.25

    def test_bare_integer_decodes_exact(self):
        assert decode_scalar(3) == Fraction(3)
        assert isinstance(decode_scalar(3), Fraction)

    @pytest.mark.parametrize("text, shown", [
        ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf")])
    def test_non_finite_floats_rejected(self, text, shown):
        # json reads each of these as a float; 1e400 overflows to inf
        with pytest.raises(FormatError, match="^floats must be finite, not %s$" % shown):
            decode_scalar(json.loads(text))

    def test_rejections(self):
        with pytest.raises(FormatError):
            decode_scalar("not-a-number")
        with pytest.raises(FormatError):
            decode_scalar(["1", "2"])
        with pytest.raises(FormatError):
            decode_scalar(True)
        with pytest.raises(FormatError):
            encode_scalar(object())


class TestPoints:
    def test_finite_round_trip(self):
        p = fp(1, Fraction(-3, 7))
        assert decode_point(encode_point(p)) == p

    def test_quartic_coords(self):
        p = Point.finite((THETA, THETA * THETA / 2))
        assert decode_point(encode_point(p)) == p

    def test_infinity_needs_dimension(self):
        inf = Point.infinity(2)
        obj = encode_point(inf)
        assert obj == {"infinity": True}
        assert decode_point(obj, 2) == inf
        with pytest.raises(FormatError):
            decode_point(obj)

    def test_dimension_mismatch(self):
        with pytest.raises(FormatError):
            decode_point({"coords": ["1", "2"]}, 3)

    def test_malformed(self):
        with pytest.raises(FormatError):
            decode_point({"x": 1})
        with pytest.raises(FormatError):
            decode_point([1, 2])

    @pytest.mark.parametrize("obj,reason", [
        ({"infinity": "false", "coords": ["1", "2"]}, 'boolean "infinity"'),
        ({"infinity": [0]}, 'boolean "infinity"'),
        ({"infinity": 1}, 'boolean "infinity"'),
        ({"infinity": None, "coords": ["1", "2"]}, 'boolean "infinity"'),
        ({"infinity": True, "coords": ["1", "2"]}, 'no "coords"'),
    ])
    def test_infinity_must_be_a_lone_boolean(self, obj, reason):
        with pytest.raises(FormatError, match=reason):
            decode_point(obj, 2)

    def test_infinity_false_is_finite(self):
        assert decode_point({"infinity": False, "coords": ["1", "2"]}) == fp(1, 2)


class TestSpheres:
    def test_hypersphere_round_trip(self):
        s = Hypersphere.make(2, (Fraction(0), Fraction(-4)), -2)
        t = decode_sphere(encode_sphere(s))
        assert t == s

    def test_extended_line_round_trip(self):
        s = Hypersphere.make(0, (Fraction(0), Fraction(1)), 0)
        assert decode_sphere(encode_sphere(s)) == s

    def test_subsphere_round_trip(self):
        pts = [fp(1, 0, 0), fp(0, 1, 0), fp(-1, 0, 0)]
        ss = smallest_sphere(pts)
        tt = decode_sphere(encode_sphere(ss))
        assert tt.key() == ss.key()
        for p in pts + [fp(0, -1, 0)]:
            assert tt.contains(p)
        assert not tt.contains(fp(0, 0, 1))

    def test_bad_sphere(self):
        with pytest.raises(FormatError):
            decode_sphere({"c": "1"})


INVERSION_DOC = {"inversion": {"center": ["0", "0"], "r2": "4"}}


class TestMoebius:
    def test_round_trip_applies_identically(self):
        m = MoebiusMap((
            SphereInversion((Fraction(0), Fraction(0)), Fraction(4)),
            HyperplaneReflection((Fraction(1), Fraction(0)), Fraction(1)),
        ), 2)
        m2 = decode_moebius(encode_moebius(m))
        assert m2 == m
        for p in [fp(1, 1), fp(-2, 5), Point.infinity(2), fp(0, 0)]:
            assert m.apply(p) == m2.apply(p)

    def test_factor_keys(self):
        obj = encode_moebius(MoebiusMap(
            (SphereInversion((Fraction(1), Fraction(2)), Fraction(3)),), 2))
        assert obj["factors"][0]["inversion"]["r2"] == "3"

    def test_empty_map_needs_dim(self):
        m = decode_moebius({"dim": 3, "factors": []})
        assert m.dim == 3
        with pytest.raises(FormatError):
            decode_moebius({"factors": []})

    def test_unknown_factor(self):
        with pytest.raises(FormatError):
            decode_moebius({"factors": [{"twist": {}}]})

    @pytest.mark.parametrize("dim, factors, reason", [
        ("x", [], 'map needs integer "dim"'),
        (True, [], 'map needs integer "dim"'),
        (False, [], 'map needs integer "dim"'),
        (None, [], 'map needs integer "dim"'),
        (2.0, [], 'map needs integer "dim"'),
        (2.0, [INVERSION_DOC], 'map needs integer "dim"'),
        (True, [INVERSION_DOC], 'map needs integer "dim"'),
        (-3, [], 'map needs "dim" of at least 1'),
        (0, [], 'map needs "dim" of at least 1'),
    ])
    def test_dim_must_be_a_positive_integer(self, dim, factors, reason):
        with pytest.raises(FormatError, match="^%s$" % reason):
            decode_moebius({"dim": dim, "factors": factors})

    def test_dim_is_read_from_the_factors_when_absent(self):
        m = decode_moebius({"factors": [INVERSION_DOC]})
        assert m.dim == 2
        assert encode_moebius(m)["dim"] == 2
        with pytest.raises(GeometryError, match="factor dimension mismatch"):
            decode_moebius({"dim": 3, "factors": [INVERSION_DOC]})

    @pytest.mark.parametrize("entry, key", [
        ({"inversion": {"center": ["0", "0"]}}, "r2"),
        ({"inversion": {"r2": "1"}}, "center"),
        ({"reflection": {"normal": ["1", "0"]}}, "offset"),
        ({"reflection": "x"}, "normal"),
    ])
    def test_missing_factor_key_is_named(self, entry, key):
        with pytest.raises(FormatError, match='needs "%s"' % key):
            decode_moebius({"factors": [entry]})


class TestConfigs:
    def test_round_trip(self):
        cfg = ColoredConfig(2, 3, (
            (fp(0, 0), 1), (fp(1, 0), 2), (Point.infinity(2), 3),
        ))
        assert decode_config(encode_config(cfg)) == cfg

    def test_color_validation_still_runs(self):
        obj = {"n": 2, "k": 2, "points": [{"coords": ["0", "0"], "color": 9}]}
        with pytest.raises(GeometryError):
            decode_config(obj)

    def test_missing_fields(self):
        with pytest.raises(FormatError):
            decode_config({"n": 2, "points": []})

    def test_point_list(self):
        n, pts = decode_point_list(
            {"n": 2, "points": [{"coords": ["1", "2"]}, {"infinity": True}]})
        assert n == 2
        assert pts == [fp(1, 2), Point.infinity(2)]

    @pytest.mark.parametrize("decode, obj, what", [
        (decode_config, {"n": True, "k": 2, "points": []}, 'configuration needs integer "n"'),
        (decode_config, {"n": 1, "k": False, "points": []}, 'configuration needs integer "k"'),
        (decode_config, {"n": "2", "k": 2, "points": []}, 'configuration needs integer "n"'),
        (decode_point_list, {"n": True, "points": []}, 'point list needs integer "n"'),
    ])
    def test_dimension_and_count_are_integers_not_booleans(self, decode, obj, what):
        with pytest.raises(FormatError) as e:
            decode(obj)
        assert str(e.value) == what


class TestColorings:
    @pytest.mark.parametrize("col", [
        FlagInversive(2),
        FlagInversive(3),
        FlagEuclidean(2),
        TwoLine(),
        TwoLine(extended=True),
        decode_coloring({"kind": "generic", "n": 2, "k": 4, "seed": 3}),
        PointListBackground(2, (fp(0, 0), fp(1, 1)), (1, 2), 3),
    ])
    def test_round_trip(self, col):
        assert decode_coloring(encode_coloring(col)) == col

    def test_two_line_extended_alias(self):
        assert decode_coloring({"kind": "two-line-extended"}) == TwoLine(True)
        assert decode_coloring({"kind": "two-line"}) == TwoLine(False)

    def test_generic_by_seed(self):
        a = decode_coloring({"kind": "generic", "n": 2, "k": 4, "seed": 3})
        assert a == PointListBackground(2, tuple(generic_position_points(2, 3, 3)),
                                        (1, 2, 3), 4)

    def test_generic_seed_defaults_to_zero(self):
        assert (decode_coloring({"kind": "generic", "n": 2, "k": 4})
                == decode_coloring({"kind": "generic", "n": 2, "k": 4, "seed": 0}))

    def test_generic_is_written_back_as_its_point_list(self):
        pts = generic_position_points(3, 5, 7)
        col = decode_coloring({"kind": "generic", "n": 3, "k": 6, "seed": 7})
        doc = encode_coloring(col)
        assert doc == {"kind": "point-list", "n": 3, "background": 6,
                       "points": [dict(encode_point(p), color=c)
                                  for p, c in zip(pts, range(1, 6))]}
        assert decode_coloring(doc) == col
        listed = {"kind": "generic", "n": 3, "k": 6, "points": [encode_point(p) for p in pts]}
        assert decode_coloring(listed) == col

    @pytest.mark.parametrize("seed", [[1], "abc", True, 1.5, None])
    def test_generic_seed_must_be_an_integer(self, seed):
        with pytest.raises(FormatError, match='^descriptor needs integer "seed"$'):
            decode_coloring({"kind": "generic", "n": 2, "k": 5, "seed": seed})

    @pytest.mark.parametrize("extended", ["false", "true", 0, 1, None, [True]])
    def test_two_line_extended_must_be_a_boolean(self, extended):
        with pytest.raises(FormatError, match='^descriptor needs boolean "extended"$'):
            decode_coloring({"kind": "two-line", "extended": extended})

    def test_unknown_kind(self):
        with pytest.raises(FormatError):
            decode_coloring({"kind": "striped"})
        with pytest.raises(FormatError):
            decode_coloring({"n": 2})

    def test_integer_fields_named(self):
        with pytest.raises(FormatError, match='descriptor needs "n"'):
            decode_coloring({"kind": "generic", "k": 4})
        for bad in ("2", True, 2.0):
            with pytest.raises(FormatError, match='descriptor needs integer "n"'):
                decode_coloring({"kind": "generic", "n": bad, "k": 4})


UNIT_CIRCLE_CONFIG = ColoredConfig(2, 4, (
    (fp(1, 0), 1), (fp(0, 1), 2), (fp(-1, 0), 3), (fp(0, -1), 4),
    (fp(3, 3), 1),
))

FIVE_POINT_PAIRS = (
    (fp(0, 0), 1), (fp(0, 1), 2), (fp(0, 3), 3), (fp(-2, 0), 4), (fp(2, 0), 5),
)


class TestWitnesses:
    def test_polychromatic_round_trip(self):
        w = max_polychromatic(UNIT_CIRCLE_CONFIG, 1)
        obj = encode_polychromatic_witness(w)
        w2 = decode_polychromatic_witness(obj)
        assert w2.sphere == w.sphere
        assert w2.on_points == w.on_points
        assert w2.color_set == w.color_set
        assert obj["colors"] == [1, 2, 3, 4]

    def test_tampered_polychromatic_rejected(self):
        w = max_polychromatic(UNIT_CIRCLE_CONFIG, 1)
        obj = encode_polychromatic_witness(w)
        bad = json.loads(json.dumps(obj))
        bad["points"][0]["point"] = {"coords": ["5", "5"]}
        with pytest.raises(GeometryError):
            decode_polychromatic_witness(bad)

    def test_separation_round_trip(self):
        w = separating_circle_5pts(FIVE_POINT_PAIRS)
        w2 = decode_separation_witness(encode_separation_witness(w))
        assert w2.sphere == w.sphere
        assert w2.defining == w.defining
        assert w2.separated_pair == w.separated_pair

    def test_tampered_separation_rejected(self):
        w = separating_circle_5pts(FIVE_POINT_PAIRS)
        obj = encode_separation_witness(w)
        bad = json.loads(json.dumps(obj))
        # swap the separated pair for two points on the same side
        bad["separated"][0] = bad["defining"][0]
        with pytest.raises(GeometryError):
            decode_separation_witness(bad)


class TestEuclid:
    def test_great_flat_round_trip(self):
        f = GreatFlat.span([(Fraction(1), Fraction(1), Fraction(0)),
                            (Fraction(0), Fraction(0), Fraction(1))])
        assert decode_great_flat(encode_great_flat(f)) == f

    def test_great_intersection_payload(self):
        s = GreatFlat.span([(Fraction(1), Fraction(0), Fraction(0)),
                            (Fraction(0), Fraction(1), Fraction(0))])
        c = GreatFlat.span([(Fraction(1), Fraction(0), Fraction(0)),
                            (Fraction(0), Fraction(0), Fraction(1))])
        g = great_intersection(s, c)
        obj = encode_great_intersection(g)
        assert obj["exact"] is True
        assert obj["direction"] == ["1", "0", "0"]
        assert {tuple(p["coords"]) for p in obj["points"]} == {
            ("1", "0", "0"), ("-1", "0", "0")}

    def test_empty_basis_rejected(self):
        with pytest.raises(FormatError):
            decode_great_flat({"basis": []})


class TestMaps:
    def test_sharp_map_round_trip(self):
        t = build_sharp_map([fp(0, 0), fp(1, 0), Point.infinity(2), fp(0, 1)])
        obj = encode_map(t)
        assert obj["table"] == {"1": 0, "2": 1, "3": 2, "4": 3}
        t2 = decode_map(obj)
        assert t2 == t
        for p in [fp(0, 0), fp(7, 3), Point.infinity(2)]:
            assert t.apply(p) == t2.apply(p)

    def test_table_keys_must_be_integers(self):
        t = build_sharp_map([fp(0, 0), fp(1, 0), Point.infinity(2), fp(0, 1)])
        obj = encode_map(t)
        obj["table"] = {"one": 0, "2": 1, "3": 2, "4": 3}
        with pytest.raises(FormatError):
            decode_map(obj)

    @pytest.mark.parametrize("key", ["01", "+1", " 1", "1_0", "-0"])
    def test_table_keys_must_be_canonical(self, key):
        # "01" beside "1" silently overrode it, and "1_0" read as color 10
        t = build_sharp_map([fp(0, 0), fp(1, 0), Point.infinity(2), fp(0, 1)])
        obj = encode_map(t)
        obj["table"][key] = 3
        with pytest.raises(FormatError, match="table key %s is not" % re.escape(json.dumps(key))):
            decode_map(obj)


SPHERE_DOC = {"c": "1", "b": ["0", "0"], "a": "-1"}
PAIR_DOC = {"point": {"coords": ["1", "0"]}, "color": 1}


class TestArrayFields:
    """Every field a decoder iterates must be an array; anything else is a
    FormatError naming the field, never a TypeError."""

    @pytest.mark.parametrize("decode,doc,field", [
        (decode_config, {"n": 2, "k": 2, "points": 5}, "points"),
        (decode_point_list, {"n": 2, "points": 5}, "points"),
        (decode_coloring, {"kind": "generic", "n": 2, "k": 3, "points": 5}, "points"),
        (decode_coloring, {"kind": "point-list", "n": 2, "background": 1, "points": 5},
         "points"),
        (decode_moebius, {"factors": 5}, "factors"),
        (decode_polychromatic_witness,
         {"sphere": SPHERE_DOC, "points": 5, "colors": [1]}, "points"),
        (decode_polychromatic_witness,
         {"sphere": SPHERE_DOC, "points": [PAIR_DOC], "colors": 5}, "colors"),
        (decode_separation_witness,
         {"sphere": SPHERE_DOC, "defining": 5, "separated": []}, "defining"),
        (decode_separation_witness,
         {"sphere": SPHERE_DOC, "defining": [PAIR_DOC], "separated": 5}, "separated"),
        (decode_great_flat, {"basis": 5}, "basis"),
        (decode_sphere, {"carrier": {"basepoint": ["0", "0"], "basis": 5},
                         "surface": None}, "basis"),
        (decode_map, {"coloring": {"kind": "two-line"}, "image": 7, "table": {}}, "image"),
        (decode_point, {"coords": 5}, "coords"),
    ])
    def test_wrong_type_names_the_field(self, decode, doc, field):
        with pytest.raises(FormatError, match='"?%s"? must be a' % field):
            decode(doc)

    @pytest.mark.parametrize("decode,doc", [
        (decode_config, {"n": 2, "k": 2, "points": [{"coords": ["0", "0"], "color": "1"}]}),
        (decode_coloring, {"kind": "point-list", "n": 2, "background": 1,
                           "points": [{"coords": ["0", "0"], "color": [2]}]}),
        (decode_polychromatic_witness,
         {"sphere": SPHERE_DOC, "points": [PAIR_DOC], "colors": [[1]]}),
        (decode_polychromatic_witness,
         {"sphere": SPHERE_DOC, "points": [dict(PAIR_DOC, color=True)], "colors": [1]}),
    ])
    def test_colors_must_be_integers(self, decode, doc):
        with pytest.raises(FormatError, match="colors must be integers"):
            decode(doc)

    def test_listed_point_must_be_an_object(self):
        with pytest.raises(FormatError, match='needs a "color"'):
            decode_coloring({"kind": "point-list", "n": 2, "background": 1, "points": [5]})


def reference_encode_colored(items):
    """The loop that encode_config and the point-list descriptor each used
    to write for themselves."""
    pts = []
    for p, c in items:
        entry = encode_point(p)
        entry["color"] = c
        pts.append(entry)
    return pts


COLORED_ITEMS = (
    (fp(0, 0), 1), (Point.infinity(2), 2), (fp(Fraction(-3, 7), 5), 3),
    (Point.finite((THETA, Fraction(0))), 4), (Point.finite((0.5, -1.25)), 2),
)


class TestColoredPointCodec:
    """Configurations and point-list colorings write their colored points
    through one codec, byte for byte as the hand-written loops did."""

    @pytest.mark.parametrize("cfg", [
        UNIT_CIRCLE_CONFIG,
        ColoredConfig(2, 5, FIVE_POINT_PAIRS),
        ColoredConfig(2, 4, COLORED_ITEMS),
        ColoredConfig(3, 2, ()),
        ColoredConfig.sample(FlagInversive(3), 3, 5),
    ])
    def test_config_bytes(self, cfg):
        old = {"n": cfg.n, "k": cfg.k, "points": reference_encode_colored(cfg.items)}
        assert canonical_json(encode_config(cfg)) == canonical_json(old)
        assert decode_config(json.loads(canonical_json(old))) == cfg

    @pytest.mark.parametrize("col", [
        PointListBackground(2, tuple(p for p, _ in COLORED_ITEMS),
                            tuple(c for _, c in COLORED_ITEMS), 1),
        PointListBackground(2, (), (), 1),
        decode_coloring({"kind": "generic", "n": 2, "k": 7, "seed": 4}),
    ])
    def test_point_list_bytes(self, col):
        old = {"kind": "point-list", "n": col.n, "background": col.background,
               "points": reference_encode_colored(zip(col.points, col.colors))}
        assert canonical_json(encode_coloring(col)) == canonical_json(old)
        assert decode_coloring(json.loads(canonical_json(old))) == col

    @pytest.mark.parametrize("decode, doc, what", [
        (decode_config, {"n": 2, "k": 2, "points": [{"coords": ["0", "0"]}]},
         "configuration point"),
        (decode_config, {"n": 2, "k": 2, "points": [["0", "0"]]}, "configuration point"),
        (decode_coloring, {"kind": "point-list", "n": 2, "background": 1,
                           "points": [{"infinity": True}]}, "listed point"),
    ])
    def test_a_point_without_color_is_named(self, decode, doc, what):
        with pytest.raises(FormatError, match='^each %s needs a "color"$' % what):
            decode(doc)


class TestCanonicalJson:
    def test_sorted_and_newline_terminated(self):
        text = canonical_json({"b": 1, "a": [2, 3]})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_byte_identical(self):
        payload = encode_config(UNIT_CIRCLE_CONFIG)
        assert canonical_json(payload) == canonical_json(
            json.loads(json.dumps(payload)))
