import csv
import hashlib
import json

import numpy as np
import pytest

from cconvex.cli import main, parse_function
from cconvex.costs import parse_cost_spec, read_cost_csv, tabulate_cost
from cconvex.grids import make_uniform_grid, read_grid_function_csv


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
        verdict = json.loads(open(prefix + "_verdict.json").read())
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


class TestSuiteCommand:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["suite", "--seed", "0", "--pair-cap", "500", "--out", str(a)]) == 0
        assert run(["suite", "--seed", "0", "--pair-cap", "500", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        err = capsys.readouterr().err
        assert "PASS" in err and "FAIL" not in err

    def test_falsify_still_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert run(["suite", "--seed", "0", "--pair-cap", "200", "--falsify",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        notes = " ".join(v["notes"] for v in payload["verdicts"])
        assert "hypothesis-failed" in notes

    def test_pair_cap_zero_is_vacuous(self, tmp_path, capsys):
        # no sampled pair: vacuous verdicts with finite violations, valid JSON
        out = tmp_path / "s.json"
        assert run(["suite", "--seed", "0", "--pair-cap", "0", "--out", str(out)]) == 0
        verdicts = {v["check_id"]: v for v in json.loads(out.read_text())["verdicts"]}
        v = verdicts["set_valued_convexity"]
        assert v["holds"] and v["max_violation"] == 0.0 and "vacuous" in v["notes"]

    def test_verdicts_sorted_by_id(self, tmp_path):
        out = tmp_path / "s.json"
        run(["suite", "--seed", "1", "--pair-cap", "200", "--out", str(out)])
        ids = [v["check_id"] for v in json.loads(out.read_text())["verdicts"]]
        assert ids == sorted(ids)


class TestSuiteGolden:
    """sha256 of `cconvex suite --seed 0 --out F`.  A change to any verdict
    byte fails here and must be recorded in CHANGES.md with the new hash."""

    @pytest.mark.parametrize("flags, digest", [
        ([], "f070d2d515f8e5f02dede199a014676b487b45706e59451557e2335b37b87431"),
        (["--falsify"], "8feb9a0a6510039ad2b744da2b0c97a7d8a0e256d4172d4fbf8d5a7b8cac261f"),
    ])
    def test_seed_0_record(self, tmp_path, flags, digest):
        out = tmp_path / "suite.json"
        assert run(["suite", "--seed", "0", *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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

    def test_negative_pair_cap(self):
        with pytest.raises(SystemExit, match="pair_cap must be >= 0, got -5"):
            run(["suite", "--pair-cap", "-5"])

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
    def test_bad_suite_tol(self, tol):
        with pytest.raises(SystemExit, match="tol must be finite and >= 0"):
            run(["suite", f"--tol={tol}"])

    @pytest.mark.parametrize("command", ["transform", "subdiff", "jensen", "gen"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
    def test_bad_tol_rejected_before_work(self, monkeypatch, command, tol):
        def no_work(*args, **kwargs):
            raise AssertionError("computation started before the tol check")

        for name in ("conjugates", "membership_triples", "discrete_jensen_gap"):
            monkeypatch.setattr(f"cconvex.cli.{name}", no_work)
        monkeypatch.setattr("cconvex.cli.propcheck.generate_instance", no_work)
        with pytest.raises(SystemExit, match="^error: tol must be finite and >= 0"):
            run([command, f"--tol={tol}"])

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            run([])
