"""Command-line workflow tests: solve/verify/convergence/oracle, exit codes,
round-trips, and determinism."""

import json
import os
import subprocess
import sys
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


@pytest.fixture
def no_solve(monkeypatch):
    """Fail the test if the CLI reaches the solver."""
    def fail(*args, **kwargs):
        raise AssertionError("the solver ran on input that should be refused first")

    monkeypatch.setattr(cli, "continuation_solve", fail)


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
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for name in ("a.json", "b.json"):
            subprocess.run([sys.executable, "-m", "capillary_minkowski.cli", "solve",
                            "--config", str(cfg), "--solution", str(tmp_path / name)],
                           check=True, env=env, capture_output=True)
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
        {"schedule": {"adaptive": False, "t_values": []}},
        {"solver": {"max_iter": 30.0}},
        {"solver": {"convexity_floor_rel": "x"}},
        {"output": 5},
        {"solver": {"backtrack_factor": 0.5}},
    ])
    def test_malformed_config_one_line(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("final_residual", None), ("config", 5)])
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
            schedule={"initial_step": 0.25, "t_values": [0.0, 0.5, 1.0]},
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
