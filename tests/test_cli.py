import csv
import hashlib
import json
import tracemalloc
import types

import numpy as np
import pytest

from cconvex import cli, grids, propcheck
from cconvex.cli import (_build_grids, _common_config, _config_hash, build_parser, main,
                         parse_function)
from cconvex.costs import parse_cost_spec, read_cost_csv, tabulate_cost
from cconvex.grids import make_uniform_grid, read_grid_function_csv, sup_norm_diff
from cconvex.jensen import WITNESS_BLOCK_CELLS
from cconvex.subdiff import Analysis
from cconvex.verdicts import Verdict


def run(args):
    return main(list(args))


class TestParsing:
    def test_cost_families(self):
        assert parse_cost_spec("bilinear").family == "bilinear"
        assert parse_cost_spec("neg_quadratic:2.5").scale == 2.5
        spec = parse_cost_spec("one_affine:0,1;0.5")
        assert spec.a_coeffs == (0.0, 1.0) and spec.b_coeffs == (0.5,)
        # the InstanceConfig spelling (family, params) gives the same specs
        assert parse_cost_spec("neg_quadratic", (2.5,)) == parse_cost_spec("neg_quadratic:2.5")
        assert parse_cost_spec("one_affine", ((0.0, 1.0), (0.5,))) == spec

    def test_bad_cost(self):
        for text in ("unknown", "one_affine:nope", "one_affine:1,2", "neg_quadratic:1;2",
                     "translation"):
            with pytest.raises(ValueError):
                parse_cost_spec(text)
            with pytest.raises(SystemExit, match="^error: "):
                run(["transform", "--cost", text, "--n", "5", "--m", "5"])

    @pytest.mark.parametrize("family, text, params, shown", [
        ("bilinear", "9", (), "'9'"),
        ("reflector", "1,2;4", (), "'1,2;4'"),
        ("bilinear", "", (9.0,), r"\(9.0,\)"),
        ("reflector", "", ((1.0,), (2.0,)), r"\(\(1.0,\), \(2.0,\)\)"),
    ])
    def test_parameters_a_family_does_not_take(self, family, text, params, shown):
        # these used to be dropped without a word: a plain bilinear or reflector
        message = f"the {family} family takes no parameters, got {shown}$"
        spelled = f"{family}:{text}" if text else family
        with pytest.raises(ValueError, match="^" + message):
            parse_cost_spec(spelled, params)
        if text:
            with pytest.raises(SystemExit, match="^error: " + message):
                run(["transform", "--cost", spelled, "--n", "5", "--m", "5"])

    def test_empty_parameter_text_is_no_parameters(self, tmp_path):
        assert parse_cost_spec("bilinear:") == parse_cost_spec("bilinear")
        assert run(["transform", "--cost", "bilinear:", "--n", "5", "--m", "5",
                    "--out", str(tmp_path / "out.json")]) == 0

    def test_function_catalog(self):
        g = make_uniform_grid(-1, 1, 5)
        assert list(parse_function("parabola", g).values) == [1, 0.25, 0, 0.25, 1]
        assert list(parse_function("constant:3", g).values) == [3] * 5
        assert list(parse_function("zero", g).values) == [0] * 5
        pl = parse_function("piecewise_linear:-1,1;0,0;1,1", g)
        assert list(pl.values) == [1, 0.5, 0, 0.5, 1]

    def test_bad_function(self):
        g = make_uniform_grid(-1, 1, 5)
        with pytest.raises(SystemExit, match="catalog"):
            parse_function("nope", g)

    @pytest.mark.parametrize("params, message", [
        ("1,0;0,1", "got x1=0.0 after x0=1.0$"),
        ("-1,0;0.5,1;0.25,0;1,1", "got x2=0.25 after x1=0.5$"),
        ("-1,0;nan,1;1,1", "got x1=nan after x0=-1.0$"),
    ])
    def test_piecewise_linear_knots_out_of_order(self, params, message):
        with pytest.raises(SystemExit, match="^error: piecewise_linear knots need ascending x, "
                                             + message):
            run(["transform", "--n", "5", "--m", "5", "--f", f"piecewise_linear:{params}"])

    def test_piecewise_linear_repeated_knot_is_a_jump(self):
        g = make_uniform_grid(-1, 1, 5)
        f = parse_function("piecewise_linear:-1,0;0,0;0,1;1,1", g)
        assert list(f.values) == [0, 0, 1, 1, 1]


class TestTransformCommand:
    def test_json_output(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(["transform", "--f", "half_parabola", "--n", "257", "--m", "257",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        pts = np.array(payload["f_c"]["points"])
        vals = np.array(payload["f_c"]["values"])
        assert np.abs(vals - 0.5 * pts**2).max() <= 1e-3
        assert payload["c_convex"]["holds"] is True
        assert "config_hash" in payload

    def test_csv_output(self, tmp_path):
        prefix = str(tmp_path / "t")
        assert run(["transform", "--f", "zero", "--n", "41", "--m", "41",
                    "--format", "csv", "--out", prefix]) == 0
        with open(prefix + "_fc.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["point", "f_c", "argmax_point"]
        pts = np.array([float(r[0]) for r in rows[1:]])
        vals = np.array([float(r[1]) for r in rows[1:]])
        assert np.abs(vals - np.abs(pts)).max() <= 1e-15
        with open(prefix + "_verdict.json") as fh:
            verdict = json.load(fh)
        assert verdict["holds"] is True

    def test_csv_input_function(self, tmp_path):
        gen_prefix = str(tmp_path / "inst")
        assert run(["gen", "--n", "65", "--m", "65", "--seed", "9",
                    "--out", gen_prefix]) == 0
        out = tmp_path / "t.json"
        assert run(["transform", "--f", f"csv:{gen_prefix}_f.csv",
                    "--n", "65", "--m", "65", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["c_convex"]["holds"] is True  # gen emits a c-convexified f

    def test_infinite_f_gets_no_verdict(self, tmp_path):
        # f^c and f^cc skip the +inf point, but no c-convexity is judged;
        # subdiff needs a finite f and says so
        path = tmp_path / "f.csv"
        path.write_text("x,f\n-1,1\n-0.5,0.25\n0,inf\n0.5,0.25\n1,1\n")
        out = tmp_path / "t.json"
        grids = ["--n", "5", "--m", "5", "--f", f"csv:{path}"]
        assert run(["transform", *grids, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["c_convex"] == {"deviation": None, "holds": None, "tol": 1e-9}
        fcc = payload["f_cc"]["values"]
        assert all(v <= f for v, f in zip(fcc, [1, 0.25, float("inf"), 0.25, 1]))
        with pytest.raises(SystemExit, match="^error: Analysis.triples requires an "
                                             "everywhere-finite f$"):
            run(["subdiff", *grids, "--out", str(tmp_path / "s.json")])

    def test_reflector_domain_violation_names_the_pair(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["transform", "--cost", "reflector", "--interval-i", "0,2",
                 "--interval-j", "0,2", "--n", "9", "--m", "9"])
        msg = str(e.value)
        assert "x" in msg and "y" in msg and "error" in msg


class TestSubdiffCommand:
    def test_json_triples(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["subdiff", "--f", "absolute_value", "--n", "21", "--m", "21",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert all(payload["dom"])
        # at x=0 (index 10) every y is a member
        at_zero = [t for t in payload["triples"] if t[0] == 10]
        assert len(at_zero) == 21

    def test_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        assert run(["subdiff", "--f", "parabola", "--n", "11", "--m", "11",
                    "--format", "csv", "--out", str(path)]) == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x_index", "y_index", "slack"]
        assert len(rows) > 1


class TestJensenCommand:
    def test_discrete(self, tmp_path):
        out = tmp_path / "j.json"
        assert run(["jensen", "--f", "parabola", "--interval-i", "0,1",
                    "--interval-j=-2,2", "--n", "33", "--m", "65",
                    "--measure", "0:0.5,1:0.5", "--y", "1.0",
                    "--out", str(out)]) == 0
        r = json.loads(out.read_text())["report"]
        assert r["lhs"] == pytest.approx(0.25, abs=1e-12)
        assert r["rhs"] == pytest.approx(0.0, abs=1e-12)
        assert r["holds"] and r["hypothesis_verified"]

    def test_integral(self, tmp_path):
        out = tmp_path / "j.json"
        assert run(["jensen", "--form", "integral", "--f", "parabola",
                    "--interval-i", "0,1", "--interval-j=-2,2",
                    "--n", "1001", "--m", "65", "--xi", "0.5",
                    "--out", str(out)]) == 0
        r = json.loads(out.read_text())["report"]
        assert r["lhs"] == pytest.approx(1.0 / 12.0, abs=1e-6)
        assert r["rhs"] == pytest.approx(0.0, abs=1e-6)

    def test_midpoint_uses_measure_endpoints(self, tmp_path):
        out = tmp_path / "j.json"
        assert run(["jensen", "--form", "midpoint", "--f", "parabola",
                    "--interval-i", "0,1", "--interval-j=-2,2",
                    "--n", "33", "--m", "65", "--measure", "0:0.5,1:0.5",
                    "--out", str(out)]) == 0
        r = json.loads(out.read_text())["report"]
        assert r["holds"]

    def test_weighted_endpoint_barycenter_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="interior"):
            run(["jensen", "--form", "weighted", "--f", "parabola",
                 "--interval-i", "0,1", "--n", "33", "--m", "33",
                 "--measure", "1:1.0", "--y", "2.0"])

    def test_measure_csv(self, tmp_path):
        mpath = tmp_path / "mu.csv"
        mpath.write_text("x,p\n0,0.25\n1,0.75\n")
        out = tmp_path / "j.json"
        assert run(["jensen", "--f", "parabola", "--interval-i", "0,1",
                    "--interval-j=-2,2", "--n", "33", "--m", "65",
                    "--measure", f"csv:{mpath}", "--y", "1.5",
                    "--out", str(out)]) == 0
        r = json.loads(out.read_text())["report"]
        assert r["lhs"] == pytest.approx(0.1875, abs=1e-12)

    @pytest.mark.parametrize("form", ["discrete", "midpoint", "weighted", "integral"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_y_rejected_before_work(self, monkeypatch, form, value):
        def no_work(*args, **kwargs):
            raise AssertionError("cost evaluated before the y check")

        monkeypatch.setattr("cconvex.jensen.evaluate_cost", no_work)
        with pytest.raises(SystemExit, match=f"^error: witness y must be finite, got {value}$"):
            run(["jensen", "--form", form, "--n", "33", "--m", "33",
                 "--measure=-0.5:0.5,0.25:0.5", f"--y={value}"])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_xi_rejected_before_work(self, monkeypatch, value):
        def no_work(*args, **kwargs):
            raise AssertionError("computation started before the xi check")

        monkeypatch.setattr("cconvex.jensen.evaluate_cost", no_work)
        monkeypatch.setattr("cconvex.grids.Grid.nearest_index", no_work)
        with pytest.raises(SystemExit, match=f"^error: xi must be finite, got {value}$"):
            run(["jensen", "--form", "integral", "--n", "33", "--m", "33", f"--xi={value}"])

    @pytest.mark.parametrize("value, shown", [("7", "7.0"), ("-1e9", "-1000000000.0")])
    def test_xi_outside_the_interval_rejected_before_work(self, monkeypatch, value, shown):
        # it used to be snapped to the nearest endpoint, with exit code 0
        def no_work(*args, **kwargs):
            raise AssertionError("computation started before the xi check")

        monkeypatch.setattr("cconvex.jensen.evaluate_cost", no_work)
        monkeypatch.setattr("cconvex.grids.Grid.nearest_index", no_work)
        with pytest.raises(SystemExit, match=rf"^error: xi = {shown} lies outside the "
                                             r"interval \[-1.0, 1.0\]$"):
            run(["jensen", "--form", "integral", "--n", "33", "--m", "33",
                 "--interval-i=-1,1", f"--xi={value}"])

    @pytest.mark.parametrize("rows, message", [
        ("x,p\n0,0.25\n0.25,O.3\n1,0.45\n", r"mu.csv:3: bad p value 'O.3'$"),
        ("0,0.25\nzero,0.3\n1,0.45\n", r"mu.csv:2: bad x value 'zero'$"),
        ("x,p\n0,0.25\n0.5\n1,0.75\n", r"mu.csv:3: expected 2 columns, got 1$"),
        ("0,0.25\n1,O.75\n", r"mu.csv:2: bad p value 'O.75'$"),
        ("x,p\n\n", r"mu.csv: no atoms$"),
    ])
    def test_measure_csv_bad_rows(self, tmp_path, rows, message):
        mpath = tmp_path / "mu.csv"
        mpath.write_text(rows)
        with pytest.raises(SystemExit, match=message):
            run(["jensen", "--f", "parabola", "--interval-i", "0,1", "--n", "33", "--m", "33",
                 "--measure", f"csv:{mpath}", "--y", "1.5"])

    @pytest.mark.parametrize("cells", [2**16, 5])
    def test_domain_error_names_the_first_grid_pair(self, monkeypatch, cells):
        # the anchor 1.0 offends at y = 1.0, but the message names the first
        # offending pair of the whole grid x witness table, row by row
        monkeypatch.setattr("cconvex.jensen.WITNESS_BLOCK_CELLS", cells)
        with pytest.raises(SystemExit, match=r"x\*y < 1 at \(x=0.5, y=2.0\)$"):
            run(["jensen", "--cost", "reflector", "--interval-i=0,2", "--interval-j=0,2",
                 "--n", "5", "--m", "5", "--measure", "0.9:0.5,1.1:0.5"])

    @pytest.mark.parametrize("cost, interval", [("bilinear", "-1,1"), ("neg_quadratic", "-1,1"),
                                                ("reflector", "-0.9,0.9")])
    @pytest.mark.parametrize("form", ["discrete", "integral"])
    def test_searched_witness_memory(self, tmp_path, cost, interval, form):
        # the n x m gap table is evaluated WITNESS_BLOCK_CELLS cells at a time:
        # at most six such float arrays live at once (the reflector's x*y, -p,
        # log1p and its negation, then the gap difference and the gaps), beside
        # O(n + m) of grids, f, the per-y slack and the output; the whole table
        # is 33.6 MB here, and three of them were live at once
        n = 2049
        argv = ["jensen", "--n", str(n), "--m", str(n), "--cost", cost, "--form", form,
                f"--interval-i={interval}", f"--interval-j={interval}",
                "--measure", "0:0.5,0.5:0.5", "--out", str(tmp_path / "j.json")]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * WITNESS_BLOCK_CELLS + 200 * (n + n), f"peak {peak / 1e6:.2f} MB"


class TestSuiteCommand:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["suite", "--seed", "0", "--pair-cap", "500", "--out", str(a)]) == 0
        assert run(["suite", "--seed", "0", "--pair-cap", "500", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 * 18 and all(line.startswith("held ") for line in lines)

    def test_falsify_still_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert run(["suite", "--seed", "0", "--pair-cap", "200", "--falsify",
                    "--out", str(out)]) == 0
        statuses = {v["status"] for v in json.loads(out.read_text())["verdicts"]}
        assert "hypothesis_failed" in statuses and "violated" not in statuses

    def test_pair_cap_zero_is_vacuous(self, tmp_path, capsys):
        # no sampled pair: vacuous verdicts with finite violations, valid JSON
        out = tmp_path / "s.json"
        assert run(["suite", "--seed", "0", "--pair-cap", "0", "--out", str(out)]) == 0
        verdicts = {v["check_id"]: v for v in json.loads(out.read_text())["verdicts"]}
        v = verdicts["set_valued_convexity"]
        assert (v["status"], v["holds"], v["max_violation"]) == ("vacuous", True, 0.0)

    def test_violated_verdict_exits_one(self, tmp_path, monkeypatch, capsys):
        verdicts = [Verdict("b_check", -1.0, notes="fine"),
                    Verdict("a_check", 0.5, witness=(3, 4, 0.25), notes="broken")]
        monkeypatch.setattr(propcheck, "run_suite", lambda **kwargs: verdicts)
        out = tmp_path / "s.json"
        assert run(["suite", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "violated a_check max_violation=5.000e-01 broken",
            "held b_check max_violation=-1.000e+00 fine"]
        written = json.loads(out.read_text())["verdicts"]
        assert [v["check_id"] for v in written] == ["a_check", "b_check"]
        assert [v["status"] for v in written] == ["violated", "held"]
        assert written[0]["witness"] == [3, 4, 0.25] and written[1]["witness"] is None

    def test_only_a_violated_verdict_exits_one(self, tmp_path, monkeypatch, capsys):
        verdicts = [Verdict("c_check", 0.0, notes="vacuous: none", status="vacuous"),
                    Verdict("d_check", 0.0, notes="hypothesis-failed: no",
                            status="hypothesis_failed")]
        monkeypatch.setattr(propcheck, "run_suite", lambda **kwargs: verdicts)
        assert run(["suite", "--out", str(tmp_path / "s.json")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "vacuous c_check max_violation=0.000e+00 vacuous: none",
            "hypothesis_failed d_check max_violation=0.000e+00 hypothesis-failed: no"]

    def test_verdicts_sorted_by_id(self, tmp_path):
        out = tmp_path / "s.json"
        run(["suite", "--seed", "1", "--pair-cap", "200", "--out", str(out)])
        ids = [v["check_id"] for v in json.loads(out.read_text())["verdicts"]]
        assert ids == sorted(ids)


class TestSuiteGolden:
    """sha256 of `cconvex suite --seed 0 --out F`.  A change to any verdict
    byte fails here and must be recorded in CHANGES.md with the new hash."""

    @pytest.mark.parametrize("flags, digest", [
        ([], "df9c21e3bca365191af53803b85c0726111b6de7f04b73871b571e4ab9c850ee"),
        (["--falsify"], "6ccb0f8b8f81769eab21923ff8ef3871f773c4d651c1c65c3b112ef47102d289"),
    ])
    def test_seed_0_record(self, tmp_path, flags, digest):
        out = tmp_path / "suite.json"
        assert run(["suite", "--seed", "0", *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestTransformGolden:
    """sha256 of `cconvex transform` and `cconvex subdiff` files on a
    bilinear and a neg_quadratic cost at n = 65, m = 33.  A change to any
    output byte fails here and must be recorded in CHANGES.md with the new
    hash."""

    F = "piecewise_linear:-1,0.5;-0.25,-0.75;0.5,0.25;1,1"
    COSTS = {"bilinear": [], "neg_quadratic:2.5": ["--interval-j=-1.5,1.5"]}

    def argv(self, cost):
        return ["--n", "65", "--m", "33", "--cost", cost, "--f", self.F, *self.COSTS[cost],
                "--format", "csv"]

    @pytest.mark.parametrize("cost, digests", [
        ("bilinear", ("46287ca707fcf80831f4674da3407598f07bd4bfbe39e5f6038a67a4840a2c07",
                      "cf632e572b77c239141209a06edc624e876876895b070ae8d5df06e1953de029",
                      "96b39b1dc6e9676a934ae92858c24545ac38fb12a5b65a9e3bf2e1496e09922e")),
        ("neg_quadratic:2.5", ("4a9d947a6ac826b9da78ccd09edb065c77b8a32fb68762c5582f905849f549e2",
                               "92bc96a866c440c8b4d1a052b6e6bd2ab2cf8fdd3142cdeb1f3e4ab1ecd730ce",
                               "b5c5c807cb7dbd4d7e5382b8087cef2bb49a7025c22622065414d649df8f5da3")),
    ])
    def test_transform_csv_record(self, tmp_path, cost, digests):
        prefix = str(tmp_path / "t")
        assert run(["transform", *self.argv(cost), "--out", prefix]) == 0
        for suffix, digest in zip(("_fc.csv", "_fcc.csv", "_verdict.json"), digests):
            with open(prefix + suffix, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, suffix

    @pytest.mark.parametrize("cost, digest", [
        ("bilinear", "bce7c3214e6d7dce838b7cd181377cefa0eee08b4f28db78f8e0395dd6a68da4"),
        ("neg_quadratic:2.5", "b5a646cbbaa0fbc438a0f9e08d4c66128fb04821461bb5a8710fbc9a11967b60"),
    ])
    def test_subdiff_csv_record(self, tmp_path, cost, digest):
        out = tmp_path / "s.csv"
        assert run(["subdiff", *self.argv(cost), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_signed_zero_end_points_record(self, tmp_path):
        # the grids compare equal, but their last points print as -0.0 and 0.0
        out = tmp_path / "t.json"
        assert run(["transform", "--n", "65", "--m", "65", "--interval-i=-1,-0.0",
                    "--interval-j=-1,0.0", "--out", str(out)]) == 0
        payload = json.loads(out.read_bytes())
        assert str(payload["f_cc"]["points"][-1]) == "-0.0"
        assert str(payload["f_c"]["points"][-1]) == "0.0"
        assert (hashlib.sha256(out.read_bytes()).hexdigest() ==
                "9d6918eceeca6b18cf1c80674d87d977469b5419327042aac9eeec1f0c657098")


def dumped_payload(command, argv):
    """`cconvex transform`/`subdiff` JSON as json.dumps writes the same
    results' lists, the reference for the pre-rendered arrays."""
    args = build_parser().parse_args([command, *argv])
    gi, gj = _build_grids(args)
    spec, f = parse_cost_spec(args.cost), parse_function(args.f, gi)
    payload = {"config": _common_config(args)}
    if command == "transform":
        a = Analysis(f, spec, grid_j=gj)
        fc, fcc = a.fc, a.fcc
        deviation = sup_norm_diff(f, fcc.values)
        payload.update({
            "f_c": {"points": gj.points.tolist(), "values": fc.values.values.tolist(),
                    "argmax_points": gi.points[fc.argmax].tolist()},
            "f_cc": {"points": gi.points.tolist(), "values": fcc.values.values.tolist(),
                     "argmax_points": gj.points[fcc.argmax].tolist()},
            "c_convex": {"holds": deviation <= args.tol, "deviation": deviation,
                         "tol": args.tol}})
    else:
        dom, rows, cols, slack = Analysis(f, spec, args.tol, gj).triples
        payload.update({"dom": dom.tolist(),
                        "triples": [list(t) for t in zip(rows.tolist(), cols.tolist(),
                                                         slack.tolist())]})
    payload["config_hash"] = _config_hash(payload["config"])
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


class TestRendering:
    # the cases tests/test_monotone.py::TestCliByteIdentity cannot take: its
    # dense reference may differ from the engine in a zero's sign, so f = 0
    # and the signed-zero grid ends are checked against the engine's results
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # these arrays fit one default block; 7 values a block split them
        monkeypatch.setattr("cconvex.cli.BLOCK", 7)

    @pytest.mark.parametrize("command", ["transform", "subdiff"])
    @pytest.mark.parametrize("n, m", [(33, 65), (65, 33)])
    @pytest.mark.parametrize("cost, intervals, f", [
        ("bilinear", [], "zero"),
        ("neg_quadratic:2.5", ["--interval-j=-1.5,1.5"], "zero"),
        ("reflector", ["--interval-i=-0.9,0.9", "--interval-j=-0.9,0.9"], "zero"),
        ("one_affine:0,-1;0.1", [], "zero"),  # a(y) = -y decreases: tabulated
        ("bilinear", ["--interval-i=-1,-0.0", "--interval-j=-1,0.0"], "zero"),
        ("bilinear", ["--interval-i=-1,-0.0", "--interval-j=-1,0.0"],
         "piecewise_linear:-1,0.5;-0.25,-0.75;0.5,0.25;1,1"),
    ], ids=["bilinear", "neg_quadratic", "reflector", "dense", "signed_zero_ends",
            "signed_zero_ends_piecewise"])
    def test_matches_json_dumps(self, tmp_path, command, n, m, cost, intervals, f):
        argv = ["--n", str(n), "--m", str(m), "--cost", cost, "--f", f, *intervals]
        out = tmp_path / "out.json"
        assert run([command, *argv, "--out", str(out)]) == 0
        assert out.read_text() == dumped_payload(command, argv)

    # writer edge cases: argv, the transform CSV digests (_fc.csv, _fcc.csv,
    # _verdict.json) and the subdiff CSV digest, all recorded when the grids'
    # texts were lists of str; n = 8 is BLOCK + 1 under the fixture
    WRITER_CASES = {
        "texts_3_to_24_chars": (
            ["--n", "65", "--m", "33", "--interval-i=-1e-300,1e-300", "--f", "absolute_value"],
            ("1be1063c93e3def5d9f32e2d4fa589b8427a3910ef69859a7f372145152062e0",
             "2cee5642e9c6ef342b27245f9f42038c93455628155c5c4c4acae34ca75164bf",
             "7c384c1270058e065291fe927d27134545a7ce1ed5c1057e5f23e7941bc69d7a"),
            "23a08eb3c689b5e3ad407e3b5fc497db2ffca72735a8dc825d04fe264257489f"),
        "n_2": (
            ["--n", "2", "--m", "2"],
            ("9c92d5824dd1c36fea24c6a659d0cd021441be5cc8e217d37e3d287084ce68a6",
             "ce4a6a113e0b84fcb760bd1e86e16d3450957fa6487a6cf63fc5c55644da2687",
             "7c384c1270058e065291fe927d27134545a7ce1ed5c1057e5f23e7941bc69d7a"),
            "0462b5a02accb8763ffb805026ee2232190f9708d2ecfdba20902729e7fafd2f"),
        "n_block_plus_1": (
            ["--n", "8", "--m", "8", "--cost", "neg_quadratic:2.5", "--interval-j=-1.5,1.5"],
            ("25bc94f676d5ceeb011b404724bd93a10a75f79aeed9c19828da6b3e5c8dae4e",
             "7c0e0b746e191154d22f8a8fadbac63c279ddf44a25331081351eaf77102964a",
             "ae944e8cf86a97244e13dd8e50cbcc294714d9f9abf290ef54a576e1fbf7e550"),
            "eaa3faf30d35b8e06fd157fb873036103b0796a235b91f6241e1673c10526db3"),
        "signed_zero_ends": (
            ["--n", "65", "--m", "65", "--interval-i=-1,-0.0", "--interval-j=-1,0.0",
             "--f", "piecewise_linear:-1,0.5;-0.25,-0.75;0.5,0.25;1,1"],
            ("9a801b59609f064a249c00c2c215be731b22ffc96dec6aeccc0b42909103fa8a",
             "ed64d341d546b8d28c65332dae72c0cf73320cc6cba467ab0c137ee6dae91dc1",
             "96b39b1dc6e9676a934ae92858c24545ac38fb12a5b65a9e3bf2e1496e09922e"),
            "5abf7a0b8b9cb85215898a02474b1f36c591e9e653c8e719fa3b9dc3e5bd521e"),
    }

    def test_writer_cases_reach_their_edges(self):
        texts = [repr(x) for x in make_uniform_grid(-1e-300, 1e-300, 65).points.tolist()]
        assert min(map(len, texts)) == 3 and max(map(len, texts)) == 24
        assert cli.BLOCK + 1 == 8
        assert str(make_uniform_grid(-1, -0.0, 3).points[-1]) == "-0.0"

    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_writer_bytes(self, tmp_path, case):
        argv, transform_digests, subdiff_digest = self.WRITER_CASES[case]
        for command in ("transform", "subdiff"):
            out = tmp_path / f"{command}.json"
            assert run([command, *argv, "--out", str(out)]) == 0
            assert out.read_text() == dumped_payload(command, argv)
        prefix = str(tmp_path / "t")
        assert run(["transform", *argv, "--format", "csv", "--out", prefix]) == 0
        for suffix, digest in zip(("_fc.csv", "_fcc.csv", "_verdict.json"), transform_digests):
            with open(prefix + suffix, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, suffix
        out = tmp_path / "s.csv"
        assert run(["subdiff", *argv, "--format", "csv", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == subdiff_digest

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_value_keeps_the_json_error(self, tmp_path):
        # f^c overflows to +inf for the larger y: JSON refuses it, CSV writes it
        argv = ["--n", "9", "--m", "9", "--interval-i=0,1.3e154", "--interval-j=0,1.3e154",
                "--f", "constant:-1e308"]
        out = tmp_path / "t.json"
        out.write_bytes(b"earlier output\n")
        with pytest.raises(SystemExit,
                           match="^error: Out of range float values are not JSON compliant"):
            run(["transform", *argv, "--out", str(out)])
        assert out.read_bytes() == b"earlier output\n"
        prefix = str(tmp_path / "t")
        assert run(["transform", *argv, "--format", "csv", "--out", prefix]) == 0
        with open(prefix + "_fc.csv", newline="") as fh:
            assert [row[1] for row in csv.reader(fh)][-1] == "inf"

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_report_value_leaves_the_file(self, tmp_path):
        # lhs = 1e308 - (-1e308) overflows: a scalar, not an array, is refused
        (tmp_path / "f.csv").write_text("x,f\n-1.0,1e308\n0.0,-1e308\n1.0,1e308\n")
        out = tmp_path / "j.json"
        out.write_bytes(b"earlier output\n")
        with pytest.raises(SystemExit,
                           match="^error: Out of range float values are not JSON compliant"):
            run(["jensen", "--n", "3", "--m", "3", f"--f=csv:{tmp_path / 'f.csv'}",
                 "--measure=-1:0.5,1:0.5", "--out", str(out)])
        assert out.read_bytes() == b"earlier output\n"

    @pytest.mark.parametrize("argv", [
        ["transform", "--n", "33", "--m", "65", "--f", "absolute_value"],
        ["subdiff", "--n", "33", "--m", "65", "--f", "absolute_value"],
        ["suite", "--seed", "0", "--pair-cap", "50"],
        ["jensen", "--n", "33", "--m", "65", "--form", "integral"],
    ], ids=["transform", "subdiff", "suite", "jensen"])
    def test_stdout_matches_out_file(self, tmp_path, capsys, argv):
        out = tmp_path / "out.json"
        code = run([*argv, "--out", str(out)])
        capsys.readouterr()
        assert run(argv) == code
        assert capsys.readouterr().out.encode() == out.read_bytes()


class TestJensenGolden:
    """sha256 of `cconvex jensen --form F` per cost family, at off-grid atoms
    with a searched witness.  A change to any report byte fails here and must
    be recorded in CHANGES.md with the new hash."""

    J_INTERVAL = {"bilinear": "-2,2", "one_affine:0.2,0.8;0.1": "-2,2",
                  "neg_quadratic": "-2.5,2.5", "reflector": "-0.9,0.9"}

    def record(self, tmp_path, cost, form):
        out = tmp_path / f"jensen_{form}.json"
        assert run(["jensen", "--n", "65", "--m", "65", f"--interval-j={self.J_INTERVAL[cost]}",
                    "--cost", cost, "--f", "parabola",
                    "--measure=-0.7:0.25,0.1:0.45,0.63:0.3", "--form", form,
                    "--out", str(out)]) == 0
        return out.read_bytes()

    RECORDS = [
        ("bilinear", "discrete", "a962c992de028786e5554609c41ed436518637283113a1fe14984b278896a13c"),
        ("bilinear", "midpoint", "89bb2a747df734290077d4b05ef8801683b034db84e003e1c1283f2b91e7026b"),
        ("bilinear", "integral", "d4d8843aa564d1efd0aab10aa675f4ac4e7b2f26a12f0e6e5f749c6cf0e954c4"),
        ("bilinear", "weighted", "f5b9c517d49c3baf969bb5b43c200a24284a2a166d887788b8dd850f779a44e2"),
        ("one_affine:0.2,0.8;0.1", "discrete", "fbe8f3c34a8cbef1244ecc7c17467ebd6311c75a412a0d87b37d19052c1f0575"),
        ("one_affine:0.2,0.8;0.1", "midpoint", "77e907f88fe039bb8ac5653d662bb999889227a20c40a179eea3c8537c890a76"),
        ("one_affine:0.2,0.8;0.1", "integral", "16c7657a1c96c91543d357f85fc7637de18289cfed712d4577a1a7e5c5e52af8"),
        ("one_affine:0.2,0.8;0.1", "weighted", "8ddaa6b81ef618d894d0513e5d10001511220fb7fa7e7281bb0ee5e3b571b258"),
        ("neg_quadratic", "discrete", "53644f025acb2b534360664b28618953439f6340e6d8e5dd95ae71245ca9cebf"),
        ("neg_quadratic", "midpoint", "0103536d732693336bb35fdebd19e1e4d613be72ee9ab522503010dacbd9f0d9"),
        ("neg_quadratic", "integral", "d6e245ed00464786e372c2eae0f689b6dc28efda81090dd939ef917db157d7c2"),
        ("neg_quadratic", "weighted", "d2961f085503700b7bcfd3d3b60a516b31c2d8a03b3bc059c116a4fc346344da"),
        ("reflector", "discrete", "563aaa5c0c28c9389cb64390d3ea5f7348f5db259b96702af80e54aabbc9dcb4"),
        ("reflector", "midpoint", "e2391d68c184be717f8a34ea14affd7bcf5b25377958e80a1e308d3e594bc753"),
        ("reflector", "integral", "9d452b4138edf39fa93f1d557ee8ae9d003f0c4b4971ebd019be31a671a1f58c"),
        ("reflector", "weighted", "da761aad54fdbb4f90d8848b7f4aff12a438885d0a17c34893645775e01e6af3"),
    ]

    @pytest.mark.parametrize("cost, form, digest", RECORDS)
    def test_record(self, tmp_path, cost, form, digest):
        assert hashlib.sha256(self.record(tmp_path, cost, form)).hexdigest() == digest

    @pytest.mark.parametrize("cost, form, digest", RECORDS)
    def test_record_in_row_blocks(self, tmp_path, monkeypatch, cost, form, digest):
        # the 65 x 65 witness table fits one default block; 195 cells make
        # blocks of 3 rows and a last one of 2
        monkeypatch.setattr("cconvex.jensen.WITNESS_BLOCK_CELLS", 3 * 65)
        assert hashlib.sha256(self.record(tmp_path, cost, form)).hexdigest() == digest

    @pytest.mark.parametrize("cost", sorted(J_INTERVAL))
    def test_forms_have_distinct_config_hashes(self, tmp_path, cost):
        forms = ("discrete", "midpoint", "integral", "weighted")
        records = [json.loads(self.record(tmp_path, cost, form)) for form in forms]
        assert [r["config"]["form"] for r in records] == list(forms)
        assert len({r["config_hash"] for r in records}) == len(forms)

    def test_config_records_measure_y_and_xi(self, tmp_path):
        out = tmp_path / "jensen.json"
        assert run(["jensen", "--f", "parabola", "--form", "integral", "--xi", "0.3",
                    "--y", "0.2", "--measure", "0:0.5,1:0.5", "--out", str(out)]) == 0
        config = json.loads(out.read_bytes())["config"]
        assert (config["measure"], config["y"], config["xi"]) == ("0:0.5,1:0.5", 0.2, 0.3)


class TestGenCommand:
    def test_round_trip(self, tmp_path):
        prefix = str(tmp_path / "inst")
        assert run(["gen", "--n", "33", "--m", "33", "--seed", "5",
                    "--f-family", "random_piecewise_linear",
                    "--out", prefix]) == 0
        f = read_grid_function_csv(prefix + "_f.csv")
        assert f.grid.n == 33
        assert run(["gen", "--n", "33", "--m", "33", "--seed", "5",
                    "--f-family", "random_piecewise_linear",
                    "--out", prefix + "2"]) == 0
        f2 = read_grid_function_csv(prefix + "2_f.csv")
        assert np.array_equal(f.values, f2.values)

    @pytest.mark.parametrize("cost", ["neg_quadratic:2.5", "one_affine:0.2,0.8;0.1"])
    def test_cost_parameters_reach_the_instance(self, tmp_path, cost):
        prefix = str(tmp_path / "inst")
        assert run(["gen", "--n", "9", "--m", "9", "--cost", cost, "--out", prefix]) == 0
        written = read_cost_csv(prefix + "_cost.csv")
        want = tabulate_cost(parse_cost_spec(cost), written.grid_i, written.grid_j)
        assert np.array_equal(written.entries, want.entries)

    @pytest.mark.parametrize("family", ["random_piecewise_linear", "random_smooth_fourier"])
    @pytest.mark.parametrize("amplitude", ["inf", "nan"])
    def test_nonfinite_amplitude_is_an_error(self, tmp_path, family, amplitude):
        with pytest.raises(SystemExit, match=f"^error: amplitude must be finite, got {amplitude}$"):
            run(["gen", "--f-family", family, "--amplitude", amplitude,
                 "--out", str(tmp_path / "inst")])
        assert not list(tmp_path.iterdir())

    def test_zero_amplitude(self, tmp_path):
        prefix = str(tmp_path / "flat")
        assert run(["gen", "--n", "17", "--m", "17", "--amplitude", "0",
                    "--f-family", "random_smooth_fourier", "--out", prefix]) == 0
        f = read_grid_function_csv(prefix + "_f.csv")
        assert not f.values.any()


class TestErrors:
    def test_bad_interval(self):
        with pytest.raises(SystemExit, match="interval"):
            run(["transform", "--interval-i", "zero-one"])

    @pytest.mark.parametrize("f", ["zero", "parabola"])
    def test_overflowing_interval_length(self, f):
        with pytest.raises(SystemExit, match=r"^error: interval length overflows: "
                                             r"\[-1e\+308, 1e\+308\]$"):
            run(["transform", "--interval-i=-1e308,1e308", "--f", f])

    @pytest.mark.parametrize("interval", ["--interval-i=0,5e-324", "--interval-j=0,5e-324"])
    def test_interval_too_short_for_the_grid(self, interval):
        with pytest.raises(SystemExit, match=r"^error: \[0\.0, 5e-324\] is too short for 3 "
                                             r"strictly increasing grid points$"):
            run(["transform", interval, "--n", "3", "--m", "3"])

    def test_tabulation_overflow_is_only_an_error(self):
        # numpy's overflow warning no longer precedes the error (pytest
        # turns any warning into a failure)
        with pytest.raises(SystemExit, match="^error: cost matrix entries must all be finite$"):
            run(["transform", "--n", "3", "--m", "3", "--cost", "neg_quadratic",
                 "--interval-j=1e300,1.5e300"])

    @pytest.mark.parametrize("measure, atom", [("0:0.5,1", "'1'"), ("0:0.5,x:0.5", "'x:0.5'"),
                                               ("0:0.5,1:", "'1:'"), ("", "''")])
    def test_bad_measure_atom_is_named(self, measure, atom):
        with pytest.raises(SystemExit, match=f"^error: --measure atom {atom} is not 'x:p' "
                                             "with numbers x and p$"):
            run(["jensen", "--n", "5", "--m", "5", f"--measure={measure}"])

    def test_bad_constant_is_named(self):
        with pytest.raises(SystemExit, match="^error: constant needs a number as its param, "
                                             "got 'abc'$"):
            run(["transform", "--n", "5", "--m", "5", "--f", "constant:abc"])

    def test_negative_pair_cap(self):
        with pytest.raises(SystemExit, match="pair_cap must be >= 0, got -5"):
            run(["suite", "--pair-cap", "-5"])

    @pytest.mark.parametrize("command", ["suite", "gen"])
    def test_negative_seed(self, tmp_path, command):
        with pytest.raises(SystemExit, match="^error: seed must be an integer >= 0, got -1$"):
            run([command, "--seed", "-1", "--out", str(tmp_path / "out")])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
    def test_bad_suite_tol(self, tol):
        with pytest.raises(SystemExit, match="tol must be finite and >= 0"):
            run(["suite", f"--tol={tol}"])

    @pytest.mark.parametrize("command", ["transform", "subdiff", "jensen"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
    def test_bad_tol_rejected_before_work(self, monkeypatch, command, tol):
        def no_work(*args, **kwargs):
            raise AssertionError("computation started before the tol check")

        for name in ("Analysis", "discrete_jensen_gap"):
            monkeypatch.setattr(f"cconvex.cli.{name}", no_work)
        with pytest.raises(SystemExit, match="^error: tol must be finite and >= 0"):
            run([command, f"--tol={tol}"])

    # options a command does not read are not accepted: suite runs fixed
    # instances, jensen writes JSON only, gen writes CSV and judges nothing
    @pytest.mark.parametrize("command, option", [
        ("suite", "--interval-i=0,3"), ("suite", "--interval-j=0,3"), ("suite", "--n=7"),
        ("suite", "--m=9"), ("suite", "--cost=nonsense"), ("suite", "--format=csv"),
        ("suite", "--exhaustive"),
        ("jensen", "--format=csv"), ("gen", "--tol=5"), ("gen", "--format=json"),
    ])
    def test_unread_option_is_a_usage_error(self, tmp_path, capsys, command, option):
        with pytest.raises(SystemExit) as exit_:
            run([command, option, "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert f"error: unrecognized arguments: {option}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["transform", "--n", "100000000000", "--m", "5"],
        ["subdiff", "--n", "100000000000", "--m", "5"],
        ["jensen", "--n", "5", "--m", "100000000000"],
        ["gen", "--n", "100000000000", "--m", "5"],
    ], ids=lambda argv: argv[0])
    def test_grid_too_large_for_memory(self, tmp_path, monkeypatch, argv):
        # the grid's np.arange raises numpy's MemoryError; injected, since on a
        # host that overcommits memory the real allocation can succeed
        def arange(n, *args, **kwargs):
            if n > 10**9:
                raise MemoryError(f"Unable to allocate {8 * n / 2**30:.3g} GiB for an array "
                                  f"with shape ({n},) and data type int64")
            return np.arange(n, *args, **kwargs)

        fake_np = types.ModuleType("numpy")
        fake_np.__getattr__ = lambda name: getattr(np, name)
        fake_np.arange = arange
        monkeypatch.setattr(grids, "np", fake_np)
        with pytest.raises(SystemExit, match=r"^error: Unable to allocate 745 GiB for an array "
                                             r"with shape \(100000000000,\)"):
            run([*argv, "--out", str(tmp_path / "out")])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["transform", "subdiff"])
    def test_dense_cell_budget(self, command):
        # a(y) = -y decreases, so the cost is tabulated: 10**12 cells refused
        # before anything of more than O(n + m) is allocated
        n = 10**6
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit, match=r"^error: a dense 1000000 x 1000000 cost table "
                                                 r"has 1000000000000 cells, above the budget"):
                run([command, "--cost", "one_affine:0,-1;0", "--n", str(n), "--m", str(n)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * (n + n)

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            run([])
