"""Command-line workflow tests: solve/verify/convergence/oracle, exit codes,
round-trips, and determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capillary_minkowski import cli


BASE = {
    "theta": 60.0,
    "theta_unit": "deg",
    "n": 2,
    "p": 3.0,
    "q": 1.0,
    "grid": {"Nr": 16, "Nphi": 16},
    "f": {"type": "harmonic", "base": 1.0, "amplitude": 0.2, "m": 2, "radial_mode": 0},
}


# A valid density spec of each family besides BASE's harmonic one.
DENSITIES = {"constant": {"type": "constant", "value": 1.3},
             "radial": {"type": "radial", "coeffs": [1.0, -0.2]},
             "homotopy-start": {"type": "homotopy-start", "scale": 0.5}}


@pytest.fixture
def no_solve(monkeypatch):
    """Fail the test if the CLI reaches the solver."""
    def fail(*args, **kwargs):
        raise AssertionError("the solver ran on input that should be refused first")

    monkeypatch.setattr(cli, "continuation_solve", fail)


def package_env():
    """The environment of a child interpreter that imports this package's source."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def write_config(tmp_path, name="run.json", **overrides):
    doc = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        doc[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestSolveVerify:
    def test_solve_then_verify(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["solve", "--config", str(cfg), "--mesh", str(tmp_path / "m.obj")]) == 0
        sol = tmp_path / "run.solution.json"
        rep = tmp_path / "run.report.json"
        assert sol.exists() and rep.exists()
        assert (tmp_path / "m.obj").exists()
        report = json.loads(rep.read_text())
        for key in ("t_steps", "newton_iters", "factorizations", "residuals", "margins",
                    "timings", "final_residual", "bound_verification"):
            assert key in report
        assert report["bound_verification"]["all_passed"] is True
        assert cli.main(["verify", "--solution", str(sol)]) == 0

    def test_solution_near_float_limit_verifies_without_warning(self, tmp_path):
        # max h is 1.3e303: the frame Hessian of u = h/l overflowed in the rim
        # identities until they were evaluated at a power-of-two scale
        cfg = write_config(tmp_path, theta=4.17, p=2.16133, q=2.14828,
                           f={"type": "harmonic", "base": 1.0, "amplitude": 0.744,
                              "m": 1, "radial_mode": 2})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "run.solution.json").read_text())
        assert np.max(doc["h"]) > 1e303
        checks = json.loads((tmp_path / "run.report.json").read_text())["bound_verification"]["checks"]
        assert all(np.isfinite(c["value"]) for c in checks)

    @pytest.mark.parametrize("node", [1e308, 1e-320])
    def test_extreme_node_verifies_to_a_table_without_warning(self, tmp_path, capsys, node):
        # the powers of h in the measure leave the float range: checks fail, nothing warns
        cli.main(["solve", "--config", str(write_config(tmp_path))])
        sol = tmp_path / "run.solution.json"
        doc = json.loads(sol.read_text())
        doc["h"][3][4] = node
        sol.write_text(json.dumps(doc))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["verify", "--solution", str(sol)]) == 1
        out, err = capsys.readouterr()
        assert err == "" and "measure_consistency" in out and "overall: FAIL" in out

    def test_overflowed_gradient_fails(self, tmp_path, capsys):
        # one node at 1e308 overflows max |grad h| to inf, and the bound
        # (1 + rel_tol) max h / sin(theta) with it; decided on h / max h, it fails
        cli.main(["solve", "--config", str(write_config(tmp_path))])
        sol = tmp_path / "run.solution.json"
        doc = json.loads(sol.read_text())
        doc["h"][3][4] = 1e308
        sol.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["verify", "--solution", str(sol)]) == 1
        row = next(line.split() for line in capsys.readouterr().out.splitlines()
                   if line.startswith("gradient "))
        assert row[1] == "inf" and row[-1] == "FAIL"

    def test_round_trip_residual(self, tmp_path):
        cfg = write_config(tmp_path)
        cli.main(["solve", "--config", str(cfg)])
        doc = json.loads((tmp_path / "run.solution.json").read_text())
        config, prob, sf, stored = cli.load_solution(str(tmp_path / "run.solution.json"))
        from capillary_minkowski.ma_system import residual

        recomputed = residual(np.log(sf.h), prob).max_norm()
        assert abs(recomputed - stored) < 1e-10

    def test_solution_determinism(self, tmp_path):
        # two processes, as two runs of the console script would be
        cfg = write_config(tmp_path)
        for name in ("a.json", "b.json"):
            subprocess.run([sys.executable, "-m", "capillary_minkowski.cli", "solve",
                            "--config", str(cfg), "--solution", str(tmp_path / name)],
                           check=True, env=package_env(), capture_output=True)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_verify_bounds_recomputed_residual(self, tmp_path, capsys):
        cli.main(["solve", "--config", str(write_config(tmp_path))])
        sol = tmp_path / "run.solution.json"
        capsys.readouterr()
        assert cli.main(["verify", "--solution", str(sol)]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert "bound" in last and last.endswith("pass")
        doc = json.loads(sol.read_text())
        doc["h"][5][3] *= 1.0 + 1e-6  # one interior node
        sol.write_text(json.dumps(doc))
        assert cli.main(["verify", "--solution", str(sol)]) == 1
        out = capsys.readouterr().out
        assert "overall: pass" in out  # the residual alone fails
        assert out.strip().splitlines()[-1].endswith("FAIL")

    def test_hand_scaled_solution_fails_verify(self, tmp_path, capsys):
        # 32^2 keeps the discrete slack 10*spacing^2 well below the factor
        # 2^(q-p) = 1/4 shift that scaling h by 2 puts into the measure
        cfg = write_config(tmp_path, grid={"Nr": 32, "Nphi": 32})
        cli.main(["solve", "--config", str(cfg)])
        sol = tmp_path / "run.solution.json"
        doc = json.loads(sol.read_text())
        doc["h"] = (2.0 * np.asarray(doc["h"])).tolist()
        sol.write_text(json.dumps(doc))
        assert cli.main(["verify", "--solution", str(sol)]) == 1
        out = capsys.readouterr().out
        assert "measure_consistency" in out and "FAIL" in out

    def test_truncated_solution_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cli.main(["solve", "--config", str(cfg)])
        sol = tmp_path / "run.solution.json"
        sol.write_text(sol.read_text()[: len(sol.read_text()) // 2])
        assert cli.main(["verify", "--solution", str(sol)]) == 2

    def test_radians_unit(self, tmp_path):
        cfg = write_config(tmp_path, theta=np.pi / 3, theta_unit="rad")
        assert cli.main(["solve", "--config", str(cfg)]) == 0


    def test_solution_beyond_float_range_exits_3(self, tmp_path, capsys):
        # the solve converges in log h, but h = exp(v) overflows: a solver
        # failure with one line, and no output file
        cfg = write_config(tmp_path, theta=1.0, p=1.4612, q=1.453,
                           grid={"Nr": 24, "Nphi": 24}, f={"type": "constant", "value": 1.0})
        assert cli.main(["solve", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "float range" in err
        assert not (tmp_path / "run.solution.json").exists()


class TestValidation:
    def test_p_not_greater_q_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, p=2.0, q=2.0)
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        assert "p > q" in capsys.readouterr().err

    def test_nonpositive_f_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           f={"type": "harmonic", "base": 1.0, "amplitude": 1.5, "m": 2})
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        assert "non-positive" in capsys.readouterr().err

    def test_theta_out_of_range_rejected(self, tmp_path):
        cfg = write_config(tmp_path, theta=120.0)
        assert cli.main(["solve", "--config", str(cfg)]) == 2

    def test_missing_file(self, tmp_path):
        assert cli.main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_unit_rejected(self, tmp_path):
        cfg = write_config(tmp_path, theta_unit="gradians")
        assert cli.main(["solve", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("overrides", [
        {"f": {"type": "constant"}},
        {"f": {"type": "harmonic", "base": 1}},
        {"f": {"type": "radial", "coeffs": 5}},
        {"grid": 5},
        {"grid": {"Nr": None}},
        {"n": None},
        {"p": [3]},
        {"theta": [1]},
        {"schedule": {"adaptive": False}},
        {"solver": {"max_iter": 30.5}},
        {"output": 5},
        {"solver": {"backtrack_factor": 0.5}},
        {"p": 1e308},  # finite, but the start density l^(1-p) overflows
        {"grid": {"Nr": 10**400}},  # an integer beyond the float range
        {"grid": {"Nr": 10**18}},  # in the float range, but no array of it fits in memory
        {"f": {"type": "homotopy-start", "scale": 1e-300}},  # scale^(q-p) overflows
        {"p": 1e308, "f": {"type": "homotopy-start"}},  # the f-spec itself overflows
        {"theta": 1e-320, "theta_unit": "rad"},  # sin r is denormal, so cot r overflows
        {"solver": [1]},
        {"schedule": [1]},
    ])
    def test_malformed_config_one_line(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a warning would print to stderr too
            assert cli.main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert [str(w.message) for w in caught] == []
        # a section that is not an object is refused by its name
        assert all(repr(key) in err for key, value in overrides.items()
                   if key in ("grid", "output", "solver", "schedule") and not isinstance(value, dict))

    @pytest.mark.parametrize("path, value", [
        (("n",), 1.5), (("n",), True), (("grid", "Nr"), 16.7), (("grid", "Nphi"), 16.5),
        (("grid", "Nr"), "16"), (("f", "m"), 2.5), (("f", "m"), True),
        (("f", "radial_mode"), 0.9),
    ])
    def test_non_integral_counts_refused(self, tmp_path, capsys, no_solve, path, value):
        # int() would truncate these to a valid run of another problem
        doc = json.loads(json.dumps(BASE))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"{path[-1]} must be an integer, got {value!r}" in err

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "tol", True), ("solver", "max_iter", True), ("solver", "tol", "1e-9"),
        ("schedule", "min_step", True), ("solver", "tol", float("inf")),
        ("solver", "tol", float("nan")), ("schedule", "min_step", float("-inf")),
        ("schedule", "min_step", float("nan")),
    ])
    def test_non_numeric_solver_settings_refused(self, tmp_path, capsys, no_solve,
                                                 section, key, value):
        # float(True) is 1.0 and float("1") is 1.0: either would run another schedule
        cfg = write_config(tmp_path, **{section: {key: value}})
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and f"{key} " in err and "must be" in err

    @pytest.mark.parametrize("section, key, value", [
        # retired settings, refused whatever their value: there is one march
        # (t_values), and the line-search and convexity floors are constants
        ("schedule", "t_values", [0, 0.5, 1]), ("schedule", "t_values", [False, True]),
        ("schedule", "t_values", ["0", "1"]), ("schedule", "t_values", "01"),
        ("schedule", "t_values", [0, float("nan"), 1]), ("schedule", "t_values", 5),
        ("solver", "min_step", 1e-3), ("solver", "min_step", True),
        ("solver", "min_step", float("nan")), ("solver", "convexity_floor_rel", 0.1),
        ("solver", "convexity_floor_rel", False),
        # a misspelt key in each section and in each density family
        (None, "shedule", {"min_step": 0.5}), ("grid", "x", 1), ("output", "bogus", "b"),
        ("solver", "tolerance", 1e-9), ("schedule", "minstep", 0.5),
        ("f", "amplitud", 0.9), ("constant", "m", 2), ("radial", "scale", 2.0),
        ("homotopy-start", "value", 1.0),
        # retired keys are refused before their values are read; the t-step
        # starts at 1 and is only ever halved, so it has no bounds to set
        ("schedule", "t_values", []), ("solver", "convexity_floor_rel", "x"),
        ("schedule", "initial_step", 0.5), ("schedule", "max_step", 0.5),
    ])
    def test_unknown_keys_refused(self, tmp_path, capsys, no_solve,
                                  section, key, value):
        # read as absent, such a key would run the defaults instead of the config's setting
        doc = json.loads(json.dumps(BASE))
        if section in DENSITIES:
            doc["f"], section = dict(DENSITIES[section]), "f"
        (doc if section is None else doc.setdefault(section, {}))[key] = value
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and f"unknown key {key!r}" in err
        assert sorted(os.listdir(tmp_path)) == ["run.json"]

    @pytest.mark.parametrize("overrides, key", [
        ({"theta": True}, "theta"), ({"theta": "60"}, "theta"), ({"q": False}, "q"),
        ({"p": "3"}, "p"),
        ({"f": {"type": "constant", "value": True}}, "value"),
        ({"f": {"type": "radial", "coeffs": [True, "0.1"]}}, "coeffs entry"),
        ({"f": {"type": "radial", "coeffs": [1.0, "0.1"]}}, "coeffs entry"),
        ({"f": {"type": "harmonic", "base": "1", "amplitude": 0.2, "m": 2}}, "base"),
        ({"f": {"type": "harmonic", "base": 1.0, "amplitude": False, "m": 2}}, "amplitude"),
        ({"f": {"type": "homotopy-start", "scale": "2"}}, "scale"),
        ({"p": float("inf")}, "p"), ({"q": float("-inf")}, "q"), ({"theta": float("nan")}, "theta"),
        ({"p": 10**400}, "p"),
        ({"f": {"type": "harmonic", "base": 1.0, "amplitude": float("inf"), "m": 2}}, "amplitude"),
    ])
    def test_non_numeric_problem_numbers_refused(self, tmp_path, capsys, no_solve,
                                                 overrides, key):
        # float() reads each of these as a number, so they would solve another
        # problem; NaN and the infinities (JSON's NaN and Infinity) solve none
        cfg = write_config(tmp_path, **overrides)
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and f"{key} must be a number" in err

    def test_integral_problem_numbers_accepted(self):
        config = cli.parse_config(dict(BASE, theta=60, p=3, q=1,
                                       f={"type": "radial", "coeffs": [1, 0]}))
        assert (config.pq.p, config.pq.q) == (3.0, 1.0)
        assert np.all(cli.build_problem(config).f == 1.0)

    def test_integral_max_iter_read_as_count(self):
        solver = cli.parse_config(dict(BASE, solver={"max_iter": 2.0})).solver
        assert solver.max_iter == 2 and type(solver.max_iter) is int

    @pytest.mark.parametrize("key, value", [("final_residual", None), ("final_residual", True),
                                            ("final_residual", "1e-12"), ("config", 5)])
    def test_malformed_solution_one_line(self, tmp_path, capsys, key, value):
        cli.main(["solve", "--config", str(write_config(tmp_path))])
        sol = tmp_path / "run.solution.json"
        doc = json.loads(sol.read_text())
        doc[key] = value
        sol.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["verify", "--solution", str(sol)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    def test_mesh_needs_n2_before_solve(self, tmp_path, capsys, no_solve):
        cfg = write_config(tmp_path, n=1, grid={"Nr": 16, "Nphi": 1},
                           f={"type": "constant", "value": 1.0})
        assert cli.main(["solve", "--config", str(cfg), "--mesh", str(tmp_path / "m.obj")]) == 2
        assert "--mesh" in capsys.readouterr().err
        assert not (tmp_path / "run.solution.json").exists()

    @pytest.mark.parametrize("flag", ["--solution", "--report", "--mesh"])
    def test_missing_output_directory_refused_before_solve(self, tmp_path, capsys, no_solve,
                                                           flag):
        cfg = write_config(tmp_path)
        rc = cli.main(["solve", "--config", str(cfg), flag, str(tmp_path / "nodir" / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "nodir" in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("flag", ["--solution", "--report", "--mesh"])
    def test_directory_as_output_refused_before_solve(self, tmp_path, capsys, no_solve, flag):
        cfg = write_config(tmp_path)
        (tmp_path / "d").mkdir()
        assert cli.main(["solve", "--config", str(cfg), flag, str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "run.json"]
        assert not any((tmp_path / "d").iterdir())

    @pytest.mark.parametrize("flags, output", [
        (["--solution", "out.json", "--report", "out.json"], {}),
        (["--solution", "run.json"], {}),
        (["--report", "sub/../run.json"], {}),
        (["--report", "out.json", "--mesh", "./out.json"], {}),
        ([], {"solution": "out.json", "report": "out.json"}),
        (["--mesh", "out.json"], {"report": "out.json"}),
    ])
    def test_same_file_outputs_refused_before_solve(self, tmp_path, capsys, no_solve,
                                                    flags, output):
        # paths are relative to tmp_path; "sub" exists so "sub/.." resolves
        (tmp_path / "sub").mkdir()
        cfg = write_config(tmp_path, output={k: str(tmp_path / v) for k, v in output.items()})
        text = cfg.read_text()
        flags = [f if f.startswith("--") else str(tmp_path / f) for f in flags]
        assert cli.main(["solve", "--config", str(cfg)] + flags) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "is that file" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "sub"]
        assert cfg.read_text() == text

    def test_failed_write_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "export_obj", fail)  # the last of the three outputs
        cfg = write_config(tmp_path)
        assert cli.main(["solve", "--config", str(cfg), "--mesh", str(tmp_path / "m.obj")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "disk full" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_failed_write_one_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        (tmp_path / "taken").mkdir()  # a directory where the solution file should go
        assert cli.main(["solve", "--config", str(cfg), "--solution", str(tmp_path / "taken")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "taken"]
        assert not any((tmp_path / "taken").iterdir())

    def test_non_object_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        assert "not a JSON object" in capsys.readouterr().err


def _solve(**overrides):
    config = cli.parse_config(json.loads(json.dumps(dict(BASE, **overrides))))
    prob = cli.build_problem(config)
    sf, report = cli.continuation_solve(prob, config.solver, config.schedule)
    report.bound_verification = cli.verify(sf, prob, newton_tol=config.solver.tol)
    return config, sf, report


class TestJsonFormat:
    """Every JSON file the CLI writes is json.dumps(doc, indent=2) plus a newline."""

    @staticmethod
    def write(tmp_path, doc):
        path = tmp_path / "out.json"
        cli._write_json(str(path), doc)
        assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()
        return path

    @pytest.mark.parametrize("overrides", [
        {},
        {"n": 1, "grid": {"Nr": 16, "Nphi": 1}, "f": {"type": "constant", "value": 1.0}},
        {"output": {"report": 'text holding "h": null'}},  # a config holds no key "h"
    ], ids=["n2", "n1-rows-of-one", "config-holding-h-null"])
    def test_solution_document(self, tmp_path, overrides):
        config, sf, report = _solve(**overrides)
        path = self.write(tmp_path, cli.solution_document(config, sf, report.final_residual))
        config_back, _, sf_back, residual = cli.load_solution(str(path))
        assert config_back.raw == config.raw
        assert np.array_equal(sf_back.h, sf.h) and residual == report.final_residual

    def test_report_document(self, tmp_path):
        _, _, report = _solve()
        doc = report.to_json_dict()
        # the report format: a change to these keys is a format change
        assert list(doc) == ["t_steps", "grids", "requested_tol", "tols", "newton_iters",
                             "residuals", "margins", "krylov_iters", "factorizations",
                             "rejected", "timings", "final_residual", "start_residual",
                             "bound_verification"]
        assert json.loads(self.write(tmp_path, doc).read_text())["grids"] == doc["grids"]

    @pytest.mark.parametrize("doc", [
        {},
        {"rows": [[], [1, -0.0, 5e-324, 1e300, float("nan"), float("-inf")], [2]]},
        {"nested": [[1, [2]], [3]], "mixed": [[1], 2], "empty": [], "obj": {}, "s": "a\nb"},
        {"strs": [["x", "y"]], "bools": [[True, None]], "tuple": [(1.5, 2.5)]},
        {"config": {"h": None, "note": 'text holding "h": null'}, "h": [[1.5, 2.5]]},
    ])
    def test_shapes(self, tmp_path, doc):
        self.write(tmp_path, doc)


class TestConvergence:
    def test_manufactured_study(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f={"type": "homotopy-start", "scale": 2.0},
                           q=2.0)
        assert cli.main(["convergence", "--config", str(cfg), "--grids", "16,32"]) == 0
        out = capsys.readouterr().out
        assert "order" in out
        lines = [ln for ln in out.splitlines() if ln.strip().startswith(("16", "32"))]
        assert len(lines) == 2

    def test_single_grid_no_order(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f={"type": "homotopy-start"})
        assert cli.main(["convergence", "--config", str(cfg), "--grids", "16"]) == 0

    @pytest.mark.parametrize("f_spec, grids", [
        ({"type": "homotopy-start"}, "4,16"),
        ({"type": "homotopy-start", "scale": -1}, "16"),
        ({"type": "homotopy-start"}, "16,16"),  # no convergence order against itself
        ({"type": "homotopy-start"}, "16,32,16"),
        ({"type": "homotopy-start"}, "16,a"),
        ({"type": "homotopy-start"}, ","),
    ])
    def test_bad_grid_or_spec_rejected(self, tmp_path, capsys, f_spec, grids):
        cfg = write_config(tmp_path, f=f_spec)
        assert cli.main(["convergence", "--config", str(cfg), "--grids", grids]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    def test_non_manufactured_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["convergence", "--config", str(cfg), "--grids", "16,32"]) == 2
        assert "manufactured" in capsys.readouterr().err


class TestRunTimeImports:
    def test_solve_and_oracle_load_no_interpolate(self, tmp_path):
        # a nested solve (40^2 resamples from 20^2) and the oracle's splines,
        # in a fresh interpreter: neither may pull in scipy.interpolate, which
        # would bring scipy.optimize and scipy.special with it
        cfg = write_config(tmp_path, theta=45.0, grid={"Nr": 40, "Nphi": 40},
                           f={"type": "radial", "coeffs": [1.0, -0.2]})
        script = (
            "import json, sys\n"
            "from capillary_minkowski import cli\n"
            f"assert cli.main(['solve', '--config', {str(cfg)!r}]) == 0\n"
            f"assert cli.main(['oracle', '--config', {str(cfg)!r}]) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        out = subprocess.run([sys.executable, "-c", script], check=True, env=package_env(),
                             capture_output=True, text=True).stdout
        loaded = set(json.loads(out.strip().splitlines()[-1]))
        assert json.loads((tmp_path / "run.report.json").read_text())["grids"] == [[20, 20], [40, 40]]
        assert not loaded & {"scipy.interpolate", "scipy.optimize", "scipy.special"}


class TestOracle:
    def test_radial_spec(self, tmp_path, capsys):
        cfg = write_config(tmp_path, grid={"Nr": 24, "Nphi": 24},
                           f={"type": "radial", "coeffs": [1.0, 0.2],
                              "times_start_density": True})
        assert cli.main(["oracle", "--config", str(cfg)]) == 0
        assert "discrepancy" in capsys.readouterr().out

    def test_angular_spec_rejected(self, tmp_path, capsys, no_solve):
        cfg = write_config(tmp_path)
        assert cli.main(["oracle", "--config", str(cfg)]) == 2
        assert "varies over rings" in capsys.readouterr().err

    def test_constant_harmonic_accepted(self, tmp_path, capsys):
        # m = 2 with amplitude 0 is a constant density, hence axisymmetric
        cfg = write_config(tmp_path, f={"type": "harmonic", "base": 1.0,
                                        "amplitude": 0.0, "m": 2})
        assert cli.main(["oracle", "--config", str(cfg)]) == 0


class TestDensityFamilies:
    def test_constant(self, tmp_path):
        cfg = write_config(tmp_path, f={"type": "constant", "value": 1.3})
        assert cli.main(["solve", "--config", str(cfg)]) == 0

    def test_unknown_type(self, tmp_path):
        cfg = write_config(tmp_path, f={"type": "mystery"})
        assert cli.main(["solve", "--config", str(cfg)]) == 2

    def test_homotopy_start_solves_to_scaled_l(self, tmp_path):
        cfg = write_config(tmp_path, f={"type": "homotopy-start", "scale": 0.5})
        assert cli.main(["solve", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "run.solution.json").read_text())
        _, prob, sf, _ = cli.load_solution(str(tmp_path / "run.solution.json"))
        from capillary_minkowski import l_field

        err = np.abs(sf.h - 0.5 * l_field(prob.grid)).max()
        assert err < 10.0 * prob.grid.max_spacing**2


# Every leaf of a full config document, as a key path.
FULL = dict(BASE, solver={"tol": 1e-9, "max_iter": 30},
            schedule={"min_step": 0.25},
            output={"solution": "s.json"})
PATHS = [(k,) for k in FULL] + [(k, sub) for k, v in FULL.items()
                                if isinstance(v, dict) for sub in v]

# Strings avoid digits so that no mutation asks for a huge grid (int("99999")).
BAD_VALUES = st.one_of(
    st.none(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.text(alphabet="abxyz ", max_size=4),
    st.dictionaries(st.text(alphabet="ab", max_size=2), st.integers(-3, 3), max_size=2),
    st.integers(-100, -1),
    st.floats(-1e3, -1e-3),
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(path=st.sampled_from(PATHS), value=BAD_VALUES)
def test_mutated_config_returns_or_raises_config_error(path, value):
    doc = json.loads(json.dumps(FULL))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        cli.build_problem(cli.parse_config(doc))
    except cli.ConfigError:
        pass
