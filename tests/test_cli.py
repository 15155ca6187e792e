"""End-to-end tests for the command line: exit codes, report shape,
byte-identical reruns, the validate round trip, and the modules each
command loads."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from inversive import cli
from inversive.cli import main
from inversive.exactnum import THETA
from inversive.geom import Hypersphere, Point, SubSphere, concyclic
from inversive.jsonio import canonical_json, decode_point, decode_sphere, encode_point

FIVE_POINT_DOC = {
    "n": 2, "k": 5,
    "points": [
        {"coords": ["0", "0"], "color": 1},
        {"coords": ["0", "1"], "color": 2},
        {"coords": ["0", "3"], "color": 3},
        {"coords": ["-2", "0"], "color": 4},
        {"coords": ["2", "0"], "color": 5},
    ],
}

UNIT_CIRCLE_DOC = {
    "n": 2, "k": 4,
    "points": [
        {"coords": ["1", "0"], "color": 1},
        {"coords": ["0", "1"], "color": 2},
        {"coords": ["-1", "0"], "color": 3},
        {"coords": ["0", "-1"], "color": 4},
        {"coords": ["3", "3"], "color": 1},
    ],
}

# the worked example in floats, with one coordinate left as a raw JSON token
FLOAT_FIVE_POINT_TEXT = (
    '{"n": 2, "k": 5, "points": [{"coords": [%s, 0.0], "color": 1}, '
    '{"coords": [0.0, 1.0], "color": 2}, {"coords": [0.0, 3.0], "color": 3}, '
    '{"coords": [-2.0, 0.0], "color": 4}, {"coords": [2.0, 0.0], "color": 5}]}')

SHARP_MAP_DOC = {
    "coloring": {"kind": "two-line", "extended": True},
    "image": [
        {"coords": ["0", "0"]},
        {"coords": ["1", "0"]},
        {"infinity": True},
        {"coords": ["0", "1"]},
        {"coords": ["1", "2"]},
    ],
    "table": {"1": 0, "2": 1, "3": 2, "4": 3, "5": 4},
}


# the flag coloring's classes: the origin, infinity, the punctured x-axis and
# the rest
FLAG_DOC = {
    "n": 2, "k": 4,
    "points": [
        {"coords": ["0", "0"], "color": 1},
        {"infinity": True, "color": 2},
        {"coords": ["1", "0"], "color": 3},
        {"coords": ["-2", "0"], "color": 3},
        {"coords": ["1", "2"], "color": 4},
        {"coords": ["-1", "3"], "color": 4},
    ],
}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


class TestVerifyConstruction:
    def test_flag_verified(self, capsys):
        code, out, _ = run_cli(["verify-construction", "--kind", "flag",
                                "--n", "2", "--samples", "6", "--seed", "1"],
                               capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "verified"
        assert rep["parameters"]["seed"] == 1
        assert rep["statistics"]["tuples_checked"] == 36

    def test_two_line_verified(self, capsys):
        code, out, _ = run_cli(["verify-construction", "--kind", "two-line",
                                "--samples", "6"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "verified"
        assert rep["statistics"]["samples"] > 0

    def test_flag_euclidean_verified(self, capsys):
        code, out, _ = run_cli(["verify-construction", "--kind",
                                "flag-euclidean", "--samples", "5"], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "verified"

    def test_generic_verified(self, capsys):
        code, out, _ = run_cli(["verify-construction", "--kind", "generic",
                                "--n", "2", "--k", "5"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "verified"
        assert rep["parameters"]["k"] == 5

    def test_generic_default_parameters(self, capsys):
        # the report pins the default sample count even though generic
        # samples nothing
        code, out, _ = run_cli(["verify-construction", "--kind", "generic", "--n", "2"],
                               capsys)
        assert code == 0
        assert json.loads(out)["parameters"] == {"k": 5, "kind": "generic", "n": 2,
                                                 "samples": 30, "seed": 0}

    @pytest.mark.parametrize("argv, reason", [
        (["--kind", "generic", "--n", "2", "--samples", "3"],
         "--kind generic takes no --samples"),
        (["--kind", "generic", "--k", "5", "--samples", "30"],
         "--kind generic takes no --samples"),
        (["--kind", "flag", "--k", "9"], "--kind flag takes no --k"),
        (["--kind", "two-line", "--k", "9", "--samples", "4"], "--kind two-line takes no --k"),
        (["--kind", "flag-euclidean", "--k", "3"], "--kind flag-euclidean takes no --k"),
    ])
    def test_options_of_another_kind_refused(self, capsys, argv, reason):
        code, out, err = run_cli(["verify-construction"] + argv, capsys)
        assert code == 2
        rep = json.loads(out)
        assert (rep["verdict"], rep["error"]) == ("error", reason)
        assert reason in err

    def test_two_line_rejects_other_dimensions(self, capsys):
        code, _, err = run_cli(["verify-construction", "--kind", "two-line",
                                "--n", "3"], capsys)
        assert code == 2
        assert "error" in err


class TestScanReport:
    """_scan_report encodes every violation shape the scans return: point
    tuples (flag, generic), scalar dicts (two-line), index dicts
    (flag-euclidean), and bare points."""

    @pytest.mark.parametrize("violation, encoded", [
        (Point.finite((Fraction(1, 2), Fraction(0))), {"coords": ["1/2", "0"]}),
        ((Point.finite((Fraction(0), Fraction(3))), Point.infinity(2)),
         [{"coords": ["0", "3"]}, {"infinity": True}]),
        ({"C1": (4, 5, THETA ** 2, Fraction(-2)), "C2": (2, 3, THETA, Fraction(1, 3))},
         {"C1": [4, 5, ["0", "0", "1", "0"], "-2"], "C2": [2, 3, ["0", "1", "0", "0"], "1/3"]}),
        ({"line": "C1", "colors": [1, 2, 4, 5]}, {"line": "C1", "colors": [1, 2, 4, 5]}),
        ({"subset": (0, 3, 7), "colors": [1, 2, 3]}, {"subset": [0, 3, 7], "colors": [1, 2, 3]}),
    ])
    def test_violation_shapes(self, violation, encoded):
        verdict, payload, stats = cli._scan_report(
            {"n": 2, "ratio": Fraction(3, 4), "violations": [violation, violation]})
        assert verdict == "violation-found"
        assert payload == {"violations": [encoded, encoded]}
        assert stats == {"n": 2, "ratio": "3/4"}
        assert json.loads(canonical_json(payload)) == payload

    def test_other_objects_are_refused(self):
        with pytest.raises(TypeError, match="no JSON encoding for object"):
            cli._scan_report({"violations": [object()]})


class TestSearch:
    def test_witness_found(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", UNIT_CIRCLE_DOC)
        code, out, _ = run_cli(["search", "--input", cfg, "--dim", "1",
                                "--target", "4"], capsys)
        assert code == 1
        rep = json.loads(out)
        assert rep["verdict"] == "witness-found"
        assert rep["witness"]["colors"] == [1, 2, 3, 4]
        assert rep["witness"]["sphere"] == {"a": "-1", "b": ["0", "0"], "c": "1"}
        assert rep["statistics"]["max_colors"] == 4

    def test_sphere_dim_out_of_range(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", UNIT_CIRCLE_DOC)
        code, out, err = run_cli(["search", "--input", cfg, "--dim", "2",
                                  "--target", "4"], capsys)
        assert code == 2
        assert json.loads(out)["verdict"] == "error"
        assert "error" in err

    def test_no_witness_at_target(self, tmp_path, capsys):
        cfg = dict(UNIT_CIRCLE_DOC)
        cfg["points"] = cfg["points"][:3] + [{"coords": ["5", "7"], "color": 4}]
        path = write_json(tmp_path / "cfg.json", cfg)
        code, out, _ = run_cli(["search", "--input", path, "--dim", "1",
                                "--target", "4"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "no-witness"
        assert rep["best"]["colors"] != [1, 2, 3, 4]
        assert rep["statistics"]["subsets_enumerated"] == 4

    def test_parallel_report_identical(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", UNIT_CIRCLE_DOC)
        _, serial, _ = run_cli(["search", "--input", cfg, "--dim", "1",
                                "--target", "4", "--jobs", "1"], capsys)
        _, parallel, _ = run_cli(["search", "--input", cfg, "--dim", "1",
                                  "--target", "4", "--jobs", "2"], capsys)
        assert serial == parallel

    def test_float_config_needs_exact_coordinates(self, tmp_path, capsys):
        doc = {"n": 2, "k": 4, "points": [
            {"coords": [1.0, 0.0], "color": 1}, {"coords": [0.0, 1.0], "color": 2},
            {"coords": [-1.0, 0.0], "color": 3}, {"coords": [0.0, -1.0], "color": 4},
        ]}
        cfg = write_json(tmp_path / "cfg.json", doc)
        code, out, err = run_cli(["search", "--input", cfg, "--dim", "1",
                                  "--target", "4"], capsys)
        assert code == 2
        rep = json.loads(out)
        assert rep["verdict"] == "error"
        assert "exact coordinates" in rep["error"]
        assert "exact coordinates" in err

    def test_missing_file(self, capsys):
        code, out, err = run_cli(["search", "--input", "/nonexistent.json",
                                  "--dim", "1", "--target", "3"], capsys)
        assert code == 2
        assert json.loads(out)["verdict"] == "error"
        assert "error" in err

    def test_non_boolean_infinity_refused(self, tmp_path, capsys):
        # a truthy string once decoded as the point at infinity
        doc = json.loads(json.dumps(FIVE_POINT_DOC))
        doc["points"][1]["infinity"] = "false"
        cfg = write_json(tmp_path / "cfg.json", doc)
        code, out, err = run_cli(["search", "--input", cfg, "--dim", "1",
                                  "--target", "3"], capsys)
        assert code == 2
        assert json.loads(out)["verdict"] == "error"
        assert 'boolean "infinity"' in err


class TestSearchProcedural:
    def test_extended_two_line_witness(self, capsys):
        code, out, _ = run_cli(["search-procedural", "--coloring",
                                "two-line-extended", "--target", "4"], capsys)
        assert code == 1
        rep = json.loads(out)
        assert rep["verdict"] == "witness-found"
        assert rep["witness"]["colors"] == [1, 2, 3, 4]

    def test_plain_two_line_exhausts(self, capsys):
        code, out, _ = run_cli(["search-procedural", "--coloring", "two-line",
                                "--target", "4", "--budget", "40"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "no-witness-within-budget"
        assert rep["statistics"]["budget"] == 40
        assert rep["statistics"]["samples_per_class"] >= 3

    def test_flag_builtin_name(self, capsys):
        code, out, _ = run_cli(["search-procedural", "--coloring", "flag-2",
                                "--target", "3"], capsys)
        assert code == 1
        assert json.loads(out)["verdict"] == "witness-found"

    def test_descriptor_file(self, tmp_path, capsys):
        desc = write_json(tmp_path / "desc.json",
                          {"kind": "two-line", "extended": True})
        code, out, _ = run_cli(["search-procedural", "--coloring", desc,
                                "--target", "4"], capsys)
        assert code == 1
        assert json.loads(out)["verdict"] == "witness-found"

    def test_unknown_builtin(self, capsys):
        code, _, err = run_cli(["search-procedural", "--coloring", "striped",
                                "--target", "2"], capsys)
        assert code == 2
        assert "unknown coloring" in err

    @pytest.mark.parametrize("coloring,target", [("flag-3", "4"), ("flag-euclidean-2", "3")])
    def test_non_planar_coloring_refused(self, capsys, coloring, target):
        # circles through three points are planar; in R^3 the search would
        # build none and report an empty search as no witness
        code, out, err = run_cli(["search-procedural", "--coloring", coloring,
                                  "--target", target, "--budget", "50"], capsys)
        assert code == 2
        assert json.loads(out)["verdict"] == "error"
        assert "in the plane" in err


class TestSeparate:
    def test_worked_example(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "five.json", FIVE_POINT_DOC)
        code, out, _ = run_cli(["separate", "--input", cfg], capsys)
        assert code == 1
        rep = json.loads(out)
        assert rep["verdict"] == "witness-found"
        w = rep["witness"]
        assert sorted(e["color"] for e in w["defining"]) == [2, 4, 5]
        assert sorted(e["color"] for e in w["separated"]) == [1, 3]
        assert w["sphere"] == {"a": "-4", "b": ["0", "3"], "c": "1"}

    def test_three_dimensional_bruteforce(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "six.json", {
            "n": 3, "k": 6,
            "points": [
                {"coords": ["0", "0", "0"], "color": 1},
                {"coords": ["1", "0", "0"], "color": 2},
                {"coords": ["0", "1", "0"], "color": 3},
                {"coords": ["0", "0", "1"], "color": 4},
                {"coords": ["1", "1", "2"], "color": 5},
                {"coords": ["3", "5", "7"], "color": 6},
            ],
        })
        code, out, _ = run_cli(["separate", "--input", cfg], capsys)
        assert code == 1
        rep = json.loads(out)
        assert rep["verdict"] == "witness-found"
        w = rep["witness"]
        assert [e["color"] for e in w["defining"]] == [1, 2, 3, 5]
        assert [e["color"] for e in w["separated"]] == [4, 6]
        assert w["separated"][0]["point"] == {"coords": ["0", "0", "1"]}
        assert w["sphere"] == {"a": "0", "b": ["-1", "-1", "-2"], "c": "1"}

    @pytest.mark.parametrize("n, coords, reason", [
        # (0, 0) and four points of the unit circle
        (2, [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"], ["0", "0"]],
         "four of the points are concyclic"),
        # five points of the unit sphere and (3, 5, 7)
        (3, [["1", "0", "0"], ["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
             ["0", "0", "-1"], ["3", "5", "7"]],
         "n+2 of the points share a sphere"),
    ])
    def test_degenerate_input_is_refused(self, tmp_path, capsys, n, coords, reason):
        path = write_json(tmp_path / "degenerate.json", {
            "n": n, "k": n + 3,
            "points": [{"coords": c, "color": i + 1} for i, c in enumerate(coords)],
        })
        code, out, err = run_cli(["separate", "--input", path], capsys)
        assert code == 2
        rep = json.loads(out)
        assert (rep["verdict"], rep["error"]) == ("error", reason)
        assert reason in err

    def test_wrong_count_is_input_error(self, tmp_path, capsys):
        cfg = dict(FIVE_POINT_DOC)
        cfg = {"n": 2, "k": 5, "points": FIVE_POINT_DOC["points"][:4]}
        path = write_json(tmp_path / "four.json", cfg)
        code, out, _ = run_cli(["separate", "--input", path], capsys)
        assert code == 2
        assert json.loads(out)["verdict"] == "error"


class TestEuclid:
    def test_intersect_exact(self, tmp_path, capsys):
        pair = write_json(tmp_path / "pair.json", {
            "sphere": {"basis": [["1", "0", "0"], ["0", "1", "0"]]},
            "circle": {"basis": [["1", "0", "0"], ["0", "0", "1"]]},
        })
        code, out, _ = run_cli(["euclid", "intersect", "--input", pair], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "intersects"
        assert rep["intersection"]["exact"] is True
        assert rep["intersection"]["direction"] == ["1", "0", "0"]

    def test_verify(self, capsys):
        code, out, _ = run_cli(["euclid", "verify", "--samples", "5"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "verified"
        assert rep["statistics"]["max_colors"] <= 2

    def test_verify_default_samples(self, capsys):
        # both commands run the same scan with the same default sample count
        _, out, _ = run_cli(["euclid", "verify"], capsys)
        _, other, _ = run_cli(["verify-construction", "--kind", "flag-euclidean"], capsys)
        rep, rep2 = json.loads(out), json.loads(other)
        assert rep["parameters"]["samples"] == rep2["parameters"]["samples"] == 16
        assert rep["statistics"] == rep2["statistics"]
        assert rep["verdict"] == rep2["verdict"] == "verified"

    def test_bad_pair_file(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {"sphere": {"basis": []}})
        code, _, err = run_cli(["euclid", "intersect", "--input", path], capsys)
        assert code == 2
        assert "error" in err


class TestWcp:
    def test_sharp_then_check(self, tmp_path, capsys):
        pts = write_json(tmp_path / "four.json", {
            "n": 2,
            "points": [
                {"coords": ["0", "0"]},
                {"coords": ["1", "0"]},
                {"infinity": True},
                {"coords": ["0", "1"]},
            ],
        })
        code, out, _ = run_cli(["wcp", "sharp", "--input", pts,
                                "--check", "20"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "verified"
        map_path = write_json(tmp_path / "map.json", rep["map"])
        code, out, _ = run_cli(["wcp", "check", "--map", map_path,
                                "--samples", "25"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "no-violation"
        assert rep["statistics"]["circles_checked"] == 25

    def test_check_finds_a_violation(self, tmp_path, capsys):
        from inversive.wcp import sample_circles
        _, domain = sample_circles(1, seed=0)[0]
        image = [("0", "0"), ("1", "0"), ("0", "1"), ("3", "5"), ("7", "-2")]
        map_path = write_json(tmp_path / "map.json", {
            "coloring": {"kind": "point-list", "n": 2, "background": 5,
                         "points": [dict(encode_point(p), color=c)
                                    for c, p in enumerate(domain, 1)]},
            "image": [{"coords": list(xy)} for xy in image],
            "table": {str(c): c - 1 for c in range(1, 6)},
        })
        argv = ["wcp", "check", "--map", map_path, "--samples", "3", "--seed", "0"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 1
        rep = json.loads(out)
        assert rep["verdict"] == "violation-found"
        v = rep["violation"]
        assert v["sample_index"] == 0
        circle = decode_sphere(v["circle"])
        points = [decode_point(e, 2) for e in v["domain_points"]]
        images = [decode_point(e, 2) for e in v["images"]]
        assert all(circle.contains(p) for p in points)
        table = dict(zip(domain, image))
        assert [decode_point({"coords": list(table[p])}, 2) for p in points] == images
        assert not concyclic(*images)
        assert run_cli(argv, capsys)[:2] == (code, out)

    def test_refute_extended_two_line_map(self, tmp_path, capsys):
        map_path = write_json(tmp_path / "map.json", SHARP_MAP_DOC)
        code, out, _ = run_cli(["wcp", "refute", "--map", map_path], capsys)
        assert code == 1
        rep = json.loads(out)
        assert rep["verdict"] == "refuted"
        images = rep["refutation"]["images"]
        coords = {json.dumps(e, sort_keys=True) for e in images}
        assert {'{"coords": ["0", "0"]}', '{"infinity": true}'} <= coords

    def test_refute_budget_exhaustion(self, tmp_path, capsys):
        doc = dict(SHARP_MAP_DOC)
        doc["coloring"] = {"kind": "two-line", "extended": False}
        map_path = write_json(tmp_path / "map.json", doc)
        code, out, _ = run_cli(["wcp", "refute", "--map", map_path,
                                "--budget", "40"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "no-violation-within-budget"
        assert rep["statistics"]["budget"] == 40

    def test_sharp_rejects_concyclic(self, tmp_path, capsys):
        pts = write_json(tmp_path / "bad.json", {
            "n": 2,
            "points": [
                {"coords": ["1", "0"]},
                {"coords": ["0", "1"]},
                {"coords": ["-1", "0"]},
                {"coords": ["0", "-1"]},
            ],
        })
        code, out, _ = run_cli(["wcp", "sharp", "--input", pts], capsys)
        assert code == 2
        assert json.loads(out)["verdict"] == "error"


class TestPlotAndDeterminism:
    def test_plot_writes_svg(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", UNIT_CIRCLE_DOC)
        out_path = tmp_path / "fig.svg"
        code, out, _ = run_cli(["plot", "--input", cfg,
                                "--out", str(out_path)], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "written"
        text = out_path.read_text()
        assert text.startswith("<svg")
        assert text.count("<circle") == len(UNIT_CIRCLE_DOC["points"])

    def test_plot_rejects_space_configs(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg3.json", {
            "n": 3, "k": 1,
            "points": [{"coords": ["0", "0", "0"], "color": 1}],
        })
        code, _, _ = run_cli(["plot", "--input", cfg,
                              "--out", str(tmp_path / "f.svg")], capsys)
        assert code == 2

    @pytest.mark.parametrize("dim, target, on", [(1, 3, 4), (0, 2, 2)])
    def test_search_plots_a_witness_on_a_line(self, tmp_path, capsys, dim, target, on):
        # the x-axis carries colors 1-3; the 0-sphere {0, infinity} is drawn
        # by its surface, the line x = 0
        cfg = write_json(tmp_path / "flag.json", FLAG_DOC)
        drawn = []
        for name in ("a.svg", "b.svg"):
            code, out, _ = run_cli(["search", "--input", cfg, "--dim", str(dim),
                                    "--target", str(target), "--plot", str(tmp_path / name)],
                                   capsys)
            assert code == 1
            rep = json.loads(out)
            assert rep["verdict"] == "witness-found"
            drawn.append((tmp_path / name).read_bytes())
        assert drawn[0] == drawn[1]
        witness = rep["witness"]
        sphere = decode_sphere(witness["sphere"])
        assert isinstance(sphere, SubSphere if dim == 0 else Hypersphere)
        assert len(witness["points"]) == on
        lines = [t for t in drawn[0].decode().splitlines() if t.startswith("<line")]
        assert len(lines) == 1 and 'stroke="#f2a900"' in lines[0]
        x1, y1, x2, y2 = (float(t.split('"')[1]) for t in lines[0].split()[1:5])
        if dim == 0:
            assert sphere.surface == Hypersphere.make(0, (1, 0), 0)
            assert [(decode_point(e["point"], 2), e["color"]) for e in witness["points"]] == [
                (Point.finite((0, 0)), 1), (Point.infinity(2), 2)]
            assert x1 == x2
        else:
            assert y1 == y2

    def test_svg_byte_identical(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", UNIT_CIRCLE_DOC)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli(["plot", "--input", cfg, "--out", str(a)], capsys)
        run_cli(["plot", "--input", cfg, "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_separate_plot_includes_highlight(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "five.json", FIVE_POINT_DOC)
        out_path = tmp_path / "sep.svg"
        code, _, _ = run_cli(["separate", "--input", cfg,
                              "--plot", str(out_path)], capsys)
        assert code == 1
        assert 'stroke="#f2a900"' in out_path.read_text()

    @pytest.mark.parametrize("argv", [
        ["verify-construction", "--kind", "flag", "--n", "2",
         "--samples", "5", "--seed", "7"],
        ["search-procedural", "--coloring", "two-line-extended",
         "--target", "4", "--seed", "3"],
        ["euclid", "verify", "--samples", "4", "--seed", "2"],
    ])
    def test_reports_rerun_byte_identical(self, argv, capsys):
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2
        assert out1 == out2


class TestValidate:
    def test_search_witness_revalidates(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", UNIT_CIRCLE_DOC)
        _, out, _ = run_cli(["search", "--input", cfg, "--dim", "1",
                             "--target", "4"], capsys)
        report = write_json(tmp_path / "report.json", json.loads(out))
        code, out, _ = run_cli(["validate", "--input", report], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "validated"
        assert rep["statistics"]["kind"] == "polychromatic"

    def test_separation_witness_revalidates(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "five.json", FIVE_POINT_DOC)
        _, out, _ = run_cli(["separate", "--input", cfg], capsys)
        report = write_json(tmp_path / "report.json", json.loads(out))
        code, out, _ = run_cli(["validate", "--input", report], capsys)
        assert code == 0
        assert json.loads(out)["statistics"]["kind"] == "separation"

    def test_tampered_witness_flagged(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", UNIT_CIRCLE_DOC)
        _, out, _ = run_cli(["search", "--input", cfg, "--dim", "1",
                             "--target", "4"], capsys)
        rep = json.loads(out)
        rep["witness"]["points"][0]["point"] = {"coords": ["9", "9"]}
        report = write_json(tmp_path / "bad.json", rep)
        code, out, _ = run_cli(["validate", "--input", report], capsys)
        assert code == 1
        assert json.loads(out)["verdict"] == "invalid-witness"

    @pytest.mark.parametrize("tamper", [
        lambda d: d[:1],
        lambda d: [],
        lambda d: [d[0], dict(d[0], color=9), d[2]],
    ], ids=["one-point", "no-point", "repeated-point"])
    def test_separation_witness_needs_three_distinct_points(self, tmp_path, capsys, tamper):
        cfg = write_json(tmp_path / "five.json", FIVE_POINT_DOC)
        _, out, _ = run_cli(["separate", "--input", cfg], capsys)
        rep = json.loads(out)
        rep["witness"]["defining"] = tamper(rep["witness"]["defining"])
        code, out, _ = run_cli(["validate", "--input",
                                write_json(tmp_path / "bad.json", rep)], capsys)
        rep = json.loads(out)
        assert code == 1 and rep["verdict"] == "invalid-witness"
        assert rep["reason"] == "a separation witness needs 3 distinct defining points"

    def test_surface_of_another_dimension_is_invalid(self, tmp_path, capsys):
        # a circle of the plane cannot cut a carrier plane of R^3
        doc = {"sphere": {"carrier": {"basepoint": ["0", "0", "0"],
                                      "basis": [["1", "0", "0"], ["0", "1", "0"]]},
                          "surface": {"c": "1", "b": ["0", "0"], "a": "-1"}},
               "points": [{"point": {"coords": ["1", "0", "0"]}, "color": 1}], "colors": [1]}
        code, out, _ = run_cli(["validate", "--input",
                                write_json(tmp_path / "w.json", doc)], capsys)
        rep = json.loads(out)
        assert code == 1 and rep["verdict"] == "invalid-witness"
        assert rep["reason"] == "surface in dimension 2 cannot cut a carrier in dimension 3"

    @pytest.mark.parametrize("sphere, points, reason", [
        # the x-axis with surface null claimed the whole plane
        ({"carrier": {"basepoint": ["0", "0"], "basis": [["1", "0"]]}, "surface": None},
         [["0", "5"], ["3", "7"], ["-2", "1"]],
         "surface None needs the whole space as carrier, not a 1-flat in dimension 2"),
        # a surface on a point carrier, a "(-1)-sphere"
        ({"carrier": {"basepoint": ["1", "0"], "basis": []},
          "surface": {"c": "1", "b": ["0", "0"], "a": "-1"}},
         [["1", "0"]], "a surface cannot cut a carrier of dimension 0"),
    ])
    def test_malformed_subsphere_is_invalid(self, tmp_path, capsys, sphere, points, reason):
        colors = list(range(1, len(points) + 1))
        doc = {"sphere": sphere, "colors": colors,
               "points": [{"point": {"coords": p}, "color": c} for p, c in zip(points, colors)]}
        code, out, _ = run_cli(["validate", "--input",
                                write_json(tmp_path / "w.json", doc)], capsys)
        rep = json.loads(out)
        assert code == 1 and rep["verdict"] == "invalid-witness"
        assert rep["reason"] == reason

    def test_not_a_witness(self, tmp_path, capsys):
        report = write_json(tmp_path / "odd.json", {"hello": 1})
        code, _, _ = run_cli(["validate", "--input", report], capsys)
        assert code == 2


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--dim", "1", "--target", "3"])
        assert exc.value.code == 2

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, _ = run_cli(["separate", "--input", str(bad)], capsys)
        assert code == 2
        assert json.loads(out)["verdict"] == "error"

    def test_map_table_must_be_an_object(self, tmp_path, capsys):
        doc = dict(SHARP_MAP_DOC, table=[0, 1, 2, 3])
        code, out, _ = run_cli(["wcp", "check", "--map",
                                write_json(tmp_path / "map.json", doc)], capsys)
        assert code == 2
        assert "table must be an object" in json.loads(out)["error"]

    def test_map_table_values_must_be_integers(self, tmp_path, capsys):
        doc = dict(SHARP_MAP_DOC, table={"1": "0", "2": 1, "3": 2, "4": 3, "5": 4})
        code, out, _ = run_cli(["wcp", "check", "--map",
                                write_json(tmp_path / "map.json", doc)], capsys)
        assert code == 2
        assert "integer image indices" in json.loads(out)["error"]

    def test_witness_point_without_point_names_the_key(self, tmp_path, capsys):
        doc = {"sphere": {"c": "1", "b": ["0", "0"], "a": "-1"},
               "points": [{"color": 0}], "colors": [0]}
        code, out, _ = run_cli(["validate", "--input",
                                write_json(tmp_path / "w.json", doc)], capsys)
        assert code == 2
        assert json.loads(out)["error"] == 'witness point needs "point"'

    def test_map_image_must_be_an_array(self, tmp_path, capsys):
        doc = dict(SHARP_MAP_DOC, image=7)
        code, out, _ = run_cli(["wcp", "check", "--map",
                                write_json(tmp_path / "map.json", doc)], capsys)
        assert code == 2
        assert json.loads(out)["error"] == '"image" must be an array'

    def test_witness_colors_must_be_an_array(self, tmp_path, capsys):
        doc = {"sphere": {"c": "1", "b": ["0", "0"], "a": "-1"},
               "points": [{"point": {"coords": ["1", "0"]}, "color": 1}], "colors": 5}
        code, out, _ = run_cli(["validate", "--input",
                                write_json(tmp_path / "w.json", doc)], capsys)
        assert code == 2
        assert json.loads(out)["error"] == '"colors" must be an array'

    @pytest.mark.parametrize("field", ["n", "k"])
    def test_config_booleans_are_not_integers(self, tmp_path, capsys, field):
        # JSON true once decoded as n = 1 (or k = 1) and searched the line
        doc = {"n": 1, "k": 3, "points": [{"coords": [str(x)], "color": x + 1}
                                          for x in range(3)]}
        doc[field] = True
        code, out, err = run_cli(["search", "--input", write_json(tmp_path / "cfg.json", doc),
                                  "--dim", "0", "--target", "2"], capsys)
        assert code == 2
        assert json.loads(out)["error"] == 'configuration needs integer "%s"' % field
        assert field in err

    @pytest.mark.parametrize("command, svg_flag", [("separate", "--plot"), ("plot", "--out")])
    @pytest.mark.parametrize("number", ["NaN", "-Infinity", "1e400"])
    def test_non_finite_number_refused(self, tmp_path, capsys, command, svg_flag, number):
        # a NaN row once made separate report four concyclic points, and plot
        # draw it as cx="nan" with exit 0
        path = tmp_path / "cfg.json"
        path.write_text(FLOAT_FIVE_POINT_TEXT % number)
        svg = tmp_path / "fig.svg"
        code, out, _ = run_cli([command, "--input", str(path), svg_flag, str(svg)], capsys)
        assert code == 2
        assert json.loads(out)["error"].startswith("floats must be finite, not ")
        assert not svg.exists()

    @pytest.mark.parametrize("descriptor, field", [
        ({"kind": "generic", "n": 2, "k": 5, "seed": [1]}, "integer \"seed\""),
        ({"kind": "generic", "n": 2, "k": 5, "seed": "abc"}, "integer \"seed\""),
        ({"kind": "generic", "n": 2, "k": 5, "seed": True}, "integer \"seed\""),
        ({"kind": "two-line", "extended": "false"}, "boolean \"extended\""),
    ])
    def test_loose_coloring_descriptor_refused(self, tmp_path, capsys, descriptor, field):
        # a list seed once crashed search-procedural with a traceback, and the
        # other values were used as given
        path = write_json(tmp_path / "desc.json", descriptor)
        code, out, _ = run_cli(["search-procedural", "--coloring", path,
                                "--target", "3", "--budget", "10"], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "descriptor needs %s" % field

    @staticmethod
    def internal_failure(error, tmp_path, capsys, monkeypatch):
        # an internal bug exits 3 with an internal-error report and its
        # traceback on stderr: never 2, which reads as bad input, nor 1, which
        # reads as a witness found
        def broken(args):
            raise error

        monkeypatch.setattr(cli, "cmd_validate", broken)
        report = write_json(tmp_path / "odd.json", {"hello": 1})
        code, out, err = run_cli(["validate", "--input", report], capsys)
        assert code == 3
        assert json.loads(out) == {"command": "validate", "parameters": {},
                                   "verdict": "internal-error", "error": str(error),
                                   "exception": type(error).__name__}
        assert "Traceback" in err

    def test_internal_key_error_is_not_bad_input(self, tmp_path, capsys, monkeypatch):
        self.internal_failure(KeyError("internal"), tmp_path, capsys, monkeypatch)

    def test_internal_runtime_error_is_not_a_witness(self, tmp_path, capsys, monkeypatch):
        self.internal_failure(RuntimeError("internal"), tmp_path, capsys, monkeypatch)


class TestRepeatedCalls:
    """main builds its parser on the first call and reuses it; calls in one
    process share no parsed state."""

    FLAG = ["verify-construction", "--kind", "flag", "--n", "2", "--samples", "4", "--seed", "3"]

    def test_same_argv_twice_gives_the_same_report(self, capsys):
        first = run_cli(self.FLAG, capsys)
        assert first[0] == 0
        assert run_cli(self.FLAG, capsys) == first
        assert cli._build_parser.cache_info().misses == 1

    def test_usage_error_leaves_the_next_call_alone(self, capsys):
        code, out, _ = run_cli(self.FLAG, capsys)
        with pytest.raises(SystemExit) as exc:
            main(self.FLAG + ["--frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(self.FLAG, capsys)[:2] == (code, out)

    def test_omitted_optional_takes_its_default_again(self, capsys):
        generic = ["verify-construction", "--kind", "generic", "--n", "2"]
        _, out, _ = run_cli(generic + ["--k", "6"], capsys)
        assert json.loads(out)["parameters"]["k"] == 6
        _, out, _ = run_cli(generic, capsys)
        assert json.loads(out)["parameters"]["k"] == 5

    def test_import_builds_no_parser(self):
        probe = "import inversive.cli as c; print(c._build_parser.cache_info().currsize)"
        assert _fresh_stdout(probe) == "0\n"


def _fresh_stdout(code):
    """What `code` prints in a fresh interpreter importing this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    return done.stdout


def _modules_after(code):
    """The modules a fresh interpreter holds after `code`."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    return set(json.loads(_fresh_stdout(probe).splitlines()[-1]))


def _loaded_by(code):
    """The inversive submodules a fresh interpreter holds after `code`."""
    return {m for m in _modules_after(code) if m.startswith("inversive.")}


def _run_main(argv):
    return "from inversive.cli import main\nmain(%r)" % (argv,)


# the modules a command loads only when it runs them
OPTIONAL = {"inversive.euclid", "inversive.moebius", "inversive.svg", "inversive.wcp"}
# the searches and the colorings they sample
SEARCH = {"inversive.chromatic", "inversive.colorings"}


class TestImports:
    """Each process loads only the modules its command runs."""

    def test_package_import_loads_no_submodule(self):
        assert _loaded_by("import inversive") == set()

    def test_cli_import_loads_no_optional_module(self):
        assert _loaded_by("import inversive.cli") & (OPTIONAL | SEARCH) == set()

    def test_separate_and_validate_load_no_optional_module(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "five.json", FIVE_POINT_DOC)
        report = tmp_path / "report.json"
        report.write_text(run_cli(["separate", "--input", cfg], capsys)[1])
        for argv in (["separate", "--input", cfg], ["validate", "--input", str(report)]):
            assert _loaded_by(_run_main(argv)) & (OPTIONAL | SEARCH) == set(), argv

    def test_wcp_check_loads_wcp_alone(self, tmp_path):
        map_path = write_json(tmp_path / "map.json", SHARP_MAP_DOC)
        argv = ["wcp", "check", "--map", map_path, "--samples", "5"]
        loaded = _loaded_by(_run_main(argv))
        assert loaded & OPTIONAL == {"inversive.wcp"}
        assert "inversive.chromatic" not in loaded

    def test_wcp_sharp_loads_no_search(self, tmp_path):
        pts = write_json(tmp_path / "four.json", {"n": 2, "points": SHARP_MAP_DOC["image"][:4]})
        argv = ["wcp", "sharp", "--input", pts, "--check", "5"]
        loaded = _loaded_by(_run_main(argv))
        assert loaded & (OPTIONAL | {"inversive.chromatic"}) == {"inversive.wcp"}

    def test_plot_loads_svg(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", UNIT_CIRCLE_DOC)
        argv = ["plot", "--input", cfg, "--out", str(tmp_path / "fig.svg")]
        assert _loaded_by(_run_main(argv)) & (OPTIONAL | SEARCH) == {"inversive.svg"}

    def test_no_command_loads_dataclasses_or_inspect(self, tmp_path, capsys):
        # the value types are plain classes: a process neither imports the
        # dataclasses machinery (and inspect with it) nor generates methods
        cfg = write_json(tmp_path / "five.json", FIVE_POINT_DOC)
        report = tmp_path / "report.json"
        report.write_text(run_cli(["separate", "--input", cfg], capsys)[1])
        map_path = write_json(tmp_path / "map.json", SHARP_MAP_DOC)
        baseline = _modules_after("pass")
        for code in ("import inversive.cli",
                     _run_main(["separate", "--input", cfg]),
                     _run_main(["validate", "--input", str(report)]),
                     _run_main(["wcp", "check", "--map", map_path, "--samples", "5"])):
            added = _modules_after(code) - baseline
            assert not added & {"dataclasses", "inspect"}, code


def _commands(parser, path=()):
    """(path, parser) for every command the parser registers, a path being
    its subcommand names from the top, e.g. ("wcp", "check")."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
    for group in groups:
        for name, sub in group.choices.items():
            yield from _commands(sub, path + (name,))


def _handler_name(path):
    return "cmd_" + "_".join(path).replace("-", "_")


class TestDispatch:
    """main finds each command's handler by name when it runs."""

    def test_every_command_has_a_handler(self):
        names = [_handler_name(path) for path, _ in _commands(cli._build_parser())]
        assert len(names) == 11
        for name in names:
            assert callable(getattr(cli, name, None)), name
        assert sorted(names) == sorted(n for n in vars(cli) if n.startswith("cmd_"))

    def test_each_command_runs_its_handler_under_its_name(self, capsys, monkeypatch):
        for path, parser in _commands(cli._build_parser()):
            ran = []
            monkeypatch.setattr(cli, _handler_name(path),
                                lambda args: ran.append(args) or ("written", {}, {}, {}))
            argv = list(path)
            for a in parser._actions:
                if a.required and a.option_strings:
                    argv += [a.option_strings[0], a.choices[0] if a.choices else "1"]
            code, out, _ = run_cli(argv, capsys)
            assert (code, len(ran)) == (0, 1)
            assert json.loads(out)["command"] == " ".join(path)


class TestBadCounts:
    """A negative budget or target, or a sample count below one, is bad
    input: exit 2 with a JSON error report, never a traceback or a verdict
    over an empty sample."""

    @staticmethod
    def refused(argv, capsys, reason):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        rep = json.loads(out)
        assert rep["verdict"] == "error"
        assert reason in rep["error"] and reason in err

    def test_negative_procedural_budget(self, capsys):
        self.refused(["search-procedural", "--coloring", "two-line", "--target", "4",
                      "--budget", "-1"], capsys, "budget must be nonnegative")

    def test_zero_samples_per_class(self, capsys):
        self.refused(["search-procedural", "--coloring", "two-line", "--target", "4",
                      "--samples-per-class", "0"], capsys, "need a positive sample count")

    def test_negative_wcp_check_samples(self, tmp_path, capsys):
        path = write_json(tmp_path / "map.json", SHARP_MAP_DOC)
        self.refused(["wcp", "check", "--map", path, "--samples", "-1"], capsys,
                     "need a positive circle count")

    def test_negative_wcp_sharp_check(self, tmp_path, capsys):
        pts = write_json(tmp_path / "pts.json", {"n": 2, "points": [
            {"coords": ["0", "0"]}, {"coords": ["1", "0"]},
            {"coords": ["0", "1"]}, {"coords": ["1", "2"]}]})
        self.refused(["wcp", "sharp", "--input", pts, "--check", "-1"], capsys,
                     "need a positive circle count")

    def test_negative_wcp_refute_budget(self, tmp_path, capsys):
        # the extended two-line coloring's documented circle needs no search,
        # so the budget is checked before it is found
        path = write_json(tmp_path / "map.json", SHARP_MAP_DOC)
        self.refused(["wcp", "refute", "--map", path, "--budget", "-3"], capsys,
                     "budget must be nonnegative")

    def test_negative_search_target(self, tmp_path, capsys):
        path = write_json(tmp_path / "cfg.json", FIVE_POINT_DOC)
        self.refused(["search", "--input", path, "--dim", "1", "--target", "-3"], capsys,
                     "--target must be positive")

    @pytest.mark.parametrize("kind", ["two-line", "flag"])
    def test_zero_construction_samples(self, capsys, kind):
        self.refused(["verify-construction", "--kind", kind, "--samples", "0"], capsys,
                     "need a positive sample count")
