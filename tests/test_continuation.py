"""Newton + homotopy continuation driver tests."""

import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capillary_minkowski as cm
from capillary_minkowski import cli, continuation, ma_system
from capillary_minkowski.continuation import SolveReport, start_density
from capillary_minkowski.errors import (
    ContinuationStallError,
    LineSearchStallError,
    MaxIterationsError,
    NonConvexError,
    SingularSystemError,
)
from capillary_minkowski.ma_system import ProblemSpec

from conftest import smooth_field


@pytest.fixture(scope="module")
def prob_start(grid32, pq31):
    return ProblemSpec(grid=grid32, pq=pq31, f=start_density(grid32, pq31))


@pytest.fixture(scope="module")
def prob_harmonic(grid32, pq31):
    R, PHI = grid32.mesh()
    f = 1.0 + 0.3 * (np.sin(R) / grid32.spec.sin_theta) ** 2 * np.cos(2 * PHI) * np.cos(R)
    return ProblemSpec(grid=grid32, pq=pq31, f=f)


@pytest.fixture(scope="module")
def v_off_ring(grid32):
    """A convex start that is not constant on its rings, so every Newton
    direction from it on grid32 is a SuperLU one."""
    R, PHI = grid32.mesh()
    s = np.sin(R) / grid32.spec.sin_theta
    v0 = np.log(cm.l_field(grid32)) + 0.05 * s**2 * np.cos(2 * PHI) + 0.01 * s**3 * np.sin(3 * PHI)
    assert not np.all(v0 == v0[:, :1])
    return v0


def fail_first_attempts(monkeypatch, failures):
    """Make the first ``failures`` Newton solves raise MaxIterationsError: the
    homotopy march then halves its t-step that many times."""
    real, attempts = continuation.newton_solve, []

    def fail_first(v0, prob, cfg, **kwargs):
        attempts.append(prob)
        if len(attempts) <= failures:
            raise MaxIterationsError("injected", best_v=v0)
        return real(v0, prob, cfg, **kwargs)

    monkeypatch.setattr(continuation, "newton_solve", fail_first)


class _NanFactor:
    """A stand-in SuperLU factor whose solves are all NaN."""

    def solve(self, rhs):
        return np.full_like(rhs, np.nan)


class TestHomotopyDensity:
    def test_endpoints(self, grid32, prob_harmonic, pq31):
        f0 = start_density(grid32, pq31)
        np.testing.assert_allclose(cm.homotopy_density(0.0, prob_harmonic), f0, rtol=1e-15)
        np.testing.assert_allclose(cm.homotopy_density(1.0, prob_harmonic), prob_harmonic.f, rtol=1e-15)

    def test_constant_when_target_equals_start(self, grid32, prob_start, pq31):
        f0 = start_density(grid32, pq31)
        np.testing.assert_allclose(cm.homotopy_density(0.5, prob_start), f0, rtol=1e-15)

    def test_domain(self, prob_start):
        with pytest.raises(ValueError):
            cm.homotopy_density(1.5, prob_start)


class TestNewton:
    def test_exact_start_fast_convergence(self, grid32, prob_start):
        v, stage = cm.newton_solve(np.log(cm.l_field(grid32)), prob_start,
                                   cm.SolverConfig(tol=1e-10))
        assert stage.converged
        assert stage.iterations <= 3
        assert stage.residuals[-1] <= 1e-10

    def test_monotone_merit(self, grid32, prob_start):
        _, stage = cm.newton_solve(np.log(1.3 * cm.l_field(grid32)), prob_start,
                                   cm.SolverConfig(tol=1e-10))
        assert all(b < a for a, b in zip(stage.residuals, stage.residuals[1:]))

    def test_scaled_start_pulled_back(self, grid32, prob_start):
        # p - q = 2: the instance has one solution, so the scaled start returns to it
        cfg = cm.SolverConfig(tol=1e-10)
        v_ref, _ = cm.newton_solve(np.log(cm.l_field(grid32)), prob_start, cfg)
        v, stage = cm.newton_solve(np.log(1.2 * cm.l_field(grid32)), prob_start, cfg)
        assert stage.converged
        assert np.abs(np.exp(v) - np.exp(v_ref)).max() < 1e-8

    def test_indefinite_start_rejected(self, grid32, prob_start):
        R, PHI = grid32.mesh()
        v0 = np.log(cm.l_field(grid32)) + 2.0 * np.sin(4 * R) * np.cos(5 * PHI)
        with pytest.raises(NonConvexError):
            cm.newton_solve(v0, prob_start, cm.SolverConfig())

    def test_max_iterations_reports_best(self, grid32, prob_harmonic):
        with pytest.raises(MaxIterationsError) as exc:
            cm.newton_solve(np.log(cm.l_field(grid32)), prob_harmonic,
                            cm.SolverConfig(tol=1e-12, max_iter=1))
        assert exc.value.best_v is not None
        assert exc.value.report.iterations == 1

    def test_line_search_stall_via_floor(self, grid32, prob_start, monkeypatch):
        # an unreachable convexity floor rejects every candidate step
        monkeypatch.setattr(continuation, "CONVEXITY_FLOOR_REL", 0.95)
        monkeypatch.setattr(continuation, "LINE_SEARCH_MIN_STEP", 1e-3)
        prob = ProblemSpec(grid=grid32, pq=prob_start.pq, f=2.0 * prob_start.f)
        with pytest.raises(LineSearchStallError, match="stalled at step 9.766e-04") as exc:
            cm.newton_solve(np.log(cm.l_field(grid32)), prob, cm.SolverConfig())
        assert exc.value.report.iterations == 0

    def test_one_evaluation_per_trial(self, grid32, prob_harmonic, monkeypatch):
        # residual takes grad v and hess v from one operator pass and forms
        # B(v) once; the convexity checks and the Jacobian read its
        # ResidualVector instead of evaluating v again
        calls = {"gauss_map": 0, "apply": 0, "residual": 0}

        def counted(module, name, key):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(ma_system, "log_gauss_map_matrix", "gauss_map")
        counted(cm.cap_chart.FrameOps, "apply", "apply")
        counted(continuation, "residual", "residual")
        _, stage = cm.newton_solve(np.log(cm.l_field(grid32)), prob_harmonic, cm.SolverConfig())
        assert stage.converged and stage.iterations >= 2
        assert calls["residual"] > stage.iterations
        assert len(set(calls.values())) == 1, calls

    def test_singular_factorization_reports_the_start(self, prob_harmonic, v_off_ring,
                                                      monkeypatch):
        def splu(J, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(continuation.spla, "splu", splu)
        v0 = v_off_ring
        with pytest.raises(SingularSystemError, match="exactly singular") as exc:
            cm.newton_solve(v0, prob_harmonic, cm.SolverConfig())
        assert np.array_equal(exc.value.best_v, v0)
        stage = exc.value.report
        assert isinstance(stage, continuation.NewtonStage)
        assert stage.iterations == 0 and len(stage.residuals) == 1

    def test_non_finite_step_raises_singular(self, prob_harmonic, v_off_ring, monkeypatch):
        monkeypatch.setattr(continuation.spla, "splu", lambda J, **kwargs: _NanFactor())
        v0 = v_off_ring
        with pytest.raises(SingularSystemError, match="non-finite step") as exc:
            cm.newton_solve(v0, prob_harmonic, cm.SolverConfig())
        assert np.array_equal(exc.value.best_v, v0)
        assert exc.value.report.iterations == 0

    def test_non_finite_mode_step_raises_singular(self, grid32, prob_harmonic, monkeypatch):
        # h = l is constant on every ring, so the first step solves with the
        # mode blocks; a non-finite solve (a singular block) is refused there too
        monkeypatch.setattr(cm.cap_chart.ModeFactor, "solve",
                            lambda self, b: np.full_like(b, np.nan))
        v0 = np.log(cm.l_field(grid32))
        with pytest.raises(SingularSystemError, match="non-finite step") as exc:
            cm.newton_solve(v0, prob_harmonic, cm.SolverConfig())
        assert np.array_equal(exc.value.best_v, v0)
        stage = exc.value.report
        assert stage.iterations == 0 and len(stage.residuals) == 1

    def test_convexity_margins_recorded_positive(self, grid32, prob_harmonic):
        _, stage = cm.newton_solve(np.log(cm.l_field(grid32)), prob_harmonic,
                                   cm.SolverConfig(max_iter=60))
        assert len(stage.margins) == len(stage.residuals)
        assert min(stage.margins) > 0.0


class TestContinuation:
    def test_trivial_path_single_stage(self, grid32, prob_start):
        sf, rep = cm.continuation_solve(prob_start)
        assert len(rep.stages) == 1
        assert np.abs(sf.h - cm.l_field(grid32)).max() < 10.0 * grid32.max_spacing**2
        assert rep.start_residual < 10.0 * grid32.max_spacing**2

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_manufactured_family(self, grid32, pq31, c):
        prob = ProblemSpec(grid=grid32, pq=pq31,
                           f=c ** (pq31.q - pq31.p) * start_density(grid32, pq31))
        sf, rep = cm.continuation_solve(prob)
        assert np.abs(sf.h - c * cm.l_field(grid32)).max() < 10.0 * grid32.max_spacing**2

    def test_harmonic_instance(self, grid32, prob_harmonic):
        sf, rep = cm.continuation_solve(prob_harmonic)
        assert rep.final_residual <= 1e-9
        assert rep.t_steps[-1] == 1.0
        for stage in rep.stages:
            assert all(b < a for a, b in zip(stage.residuals, stage.residuals[1:]))
            assert min(stage.margins) > 0.0
        report_doc = rep.to_json_dict()
        for key in ("t_steps", "newton_iters", "residuals", "margins", "timings", "final_residual"):
            assert key in report_doc

    def test_mode_one_perturbation_of_start_density(self, grid32, pq31):
        # mode-1 angular content exercises the pole closure hardest
        R, PHI = grid32.mesh()
        f0 = start_density(grid32, pq31)
        f = f0 * (1.0 + 0.3 * np.sin(PHI) * np.sin(R) / grid32.spec.sin_theta)
        assert f.min() > 0.0
        prob = ProblemSpec(grid=grid32, pq=pq31, f=f)
        sf, rep = cm.continuation_solve(prob)
        assert rep.final_residual <= 1e-9
        assert cm.verify(sf, prob).all_passed

    @pytest.mark.parametrize("p, q", [(4.5, 3.5), (1.1, 1.0)])  # q > n + 1; p - q = 0.1
    def test_exponent_regimes(self, grid32, p, q):
        pq = cm.ExponentPair(p=p, q=q)
        R, PHI = grid32.mesh()
        f = 1.0 + 0.3 * (np.sin(R) / grid32.spec.sin_theta) ** 2 * np.cos(2 * PHI)
        prob = ProblemSpec(grid=grid32, pq=pq, f=f)
        sf, rep = cm.continuation_solve(prob)
        cfg = cm.SolverConfig()
        assert rep.final_residual <= continuation.effective_tolerance(cfg, grid32, np.log(sf.h))
        assert cm.verify(sf, prob, newton_tol=cfg.tol).all_passed

    def test_scale_equivariance(self, grid32, pq31, prob_harmonic):
        c = 1.7
        sf1, _ = cm.continuation_solve(prob_harmonic)
        prob2 = ProblemSpec(grid=grid32, pq=pq31, f=c ** (pq31.q - pq31.p) * prob_harmonic.f)
        sf2, _ = cm.continuation_solve(prob2)
        assert np.abs(sf2.h - c * sf1.h).max() < 1e-7 * c

    def test_determinism(self, grid32, prob_harmonic):
        sf1, rep1 = cm.continuation_solve(prob_harmonic)
        sf2, rep2 = cm.continuation_solve(prob_harmonic)
        assert np.array_equal(sf1.h, sf2.h)
        d1, d2 = rep1.to_json_dict(), rep2.to_json_dict()
        d1.pop("timings")
        d2.pop("timings")
        assert d1 == d2

    def test_stall_raises_with_state(self, grid32, prob_harmonic):
        cfg = cm.SolverConfig(tol=1e-12, max_iter=1)
        with pytest.raises(ContinuationStallError) as exc:
            cm.continuation_solve(prob_harmonic, cfg)
        assert exc.value.t == 0.0
        assert exc.value.best_v is not None
        # t = 1 first, then the halved steps down to the schedule's minimum 2^-10
        assert exc.value.report.rejected == [
            {"t": 2.0**-k, "grid": [32, 32], "error": "MaxIterationsError"} for k in range(11)]

    @pytest.mark.parametrize("failures, t_steps", [
        (1, [0.5, 1.0]),  # t = 1 fails: step 1/2, kept
        (2, [0.25, 0.5, 0.75, 1.0]),  # t = 1 and t = 1/2 fail: step 1/4, kept
    ])
    def test_halving_only_march(self, prob_harmonic, monkeypatch, failures, t_steps):
        # each failed attempt halves the t-step; an accepted stage never lengthens it
        fail_first_attempts(monkeypatch, failures)
        _, rep = cm.continuation_solve(prob_harmonic)
        assert rep.t_steps == t_steps
        assert [r["t"] for r in rep.rejected] == [2.0**-k for k in range(failures)]
        assert rep.final_residual <= 1e-9

    def test_solution_beyond_float_range_raises_with_best_iterate(self):
        # p - q = 0.0082 at theta 1 deg: the solve converges in v = log h near
        # 1383, where h = exp(v) overflows
        grid = cm.PolarGrid(cm.CapSpec(theta=np.radians(1.0)), 24, 24)
        prob = ProblemSpec(grid=grid, pq=cm.ExponentPair(p=1.4612, q=1.453),
                           f=np.ones(grid.shape))
        with pytest.raises(cm.errors.SolverError, match="float range") as exc:
            cm.continuation_solve(prob)
        assert type(exc.value) is cm.errors.SolverError
        v, report = exc.value.best_v, exc.value.report
        assert np.all(np.isfinite(v)) and v.max() > np.log(np.finfo(float).max)
        assert report.t_steps == [1.0] and report.rejected == []
        assert report.final_residual <= report.stages[-1].tol

    def test_march_stops_when_target_met(self, prob_start, monkeypatch):
        # t = 1 fails once; the t = 0.5 stage then already solves the constant
        # homotopy's target, so the march ends there
        fail_first_attempts(monkeypatch, 1)
        _, rep = cm.continuation_solve(prob_start)
        assert rep.t_steps == [0.5]
        assert [r["t"] for r in rep.rejected] == [1.0]
        assert rep.final_residual <= rep.stages[-1].tol

    def test_schedule_validation(self):
        for min_step in (0.0, 1.5, -1.0):
            with pytest.raises(ValueError, match="min_step"):
                cm.HomotopySchedule(min_step=min_step)
        # the t-step starts at 1, is only halved, and there is one march
        for retired in ("initial_step", "max_step", "t_values"):
            with pytest.raises(TypeError, match=retired):
                cm.HomotopySchedule(**{retired: 0.5})
        # the line-search floor and the convexity floor are module constants
        for retired in ("min_step", "convexity_floor_rel"):
            with pytest.raises(TypeError, match=retired):
                cm.SolverConfig(**{retired: 1e-3})


class TestChord:
    """One Newton solve keeps the factor of an earlier iterate's J for chord steps."""

    @staticmethod
    def exact_newton(monkeypatch):
        """From here on every direction is exact: _newton_direction keeps no factor."""
        real = continuation._newton_direction
        monkeypatch.setattr(continuation, "_newton_direction",
                            lambda *args: (real(*args)[0], None))

    def test_fewer_factorizations_than_steps(self, prob_harmonic, monkeypatch):
        # the report counts the mode-block factors of ring-constant iterates
        # (h = l) and SuperLU's, each of which assembles J once
        calls = {"splu": 0, "jacobian": 0, "mode_system": 0}
        real_splu, real_jacobian = continuation.spla.splu, continuation.jacobian
        real_modes = cm.cap_chart.FrameOps.mode_system

        def splu(J, **kwargs):
            calls["splu"] += 1
            return real_splu(J, **kwargs)

        def jac(R, prob):
            calls["jacobian"] += 1
            return real_jacobian(R, prob)

        def mode_system(ops, **coeffs):
            calls["mode_system"] += 1
            return real_modes(ops, **coeffs)

        monkeypatch.setattr(continuation.spla, "splu", splu)
        monkeypatch.setattr(continuation, "jacobian", jac)
        monkeypatch.setattr(cm.cap_chart.FrameOps, "mode_system", mode_system)
        _, rep = cm.continuation_solve(prob_harmonic)
        doc = rep.to_json_dict()
        assert rep.t_steps == [1.0] and doc["rejected"] == []
        assert calls["mode_system"] >= 1 and calls["splu"] >= 1
        superlu = sum(doc["factorizations"]) - calls["mode_system"]
        assert calls["splu"] == calls["jacobian"] == superlu
        assert sum(doc["factorizations"]) < sum(doc["newton_iters"])
        assert len(doc["factorizations"]) == len(doc["newton_iters"])

    def test_refused_chord_steps_give_exact_newton(self, prob_harmonic, monkeypatch):
        # with contraction 0 every chord step is refused and redone exactly at
        # the same v, so each stage of the march is the exact-Newton one bit
        # for bit; a failed t = 1 attempt makes the march two stages
        with monkeypatch.context() as m:
            self.exact_newton(m)
            fail_first_attempts(m, 1)
            sf_exact, rep_exact = cm.continuation_solve(prob_harmonic)
        monkeypatch.setattr(continuation, "CHORD_CONTRACTION", 0.0)
        fail_first_attempts(monkeypatch, 1)
        sf, rep = cm.continuation_solve(prob_harmonic)
        assert np.array_equal(sf.h, sf_exact.h)
        assert rep.t_steps == rep_exact.t_steps == [0.5, 1.0]
        assert rep.newton_iters == rep_exact.newton_iters
        assert [s.factorizations for s in rep.stages] == rep.newton_iters

    def test_non_finite_chord_step_is_refused(self, prob_harmonic, v_off_ring, monkeypatch):
        # a factor whose later solves (the chord steps) are all NaN: each chord
        # step is refused and the solve is the exact-Newton one
        real_splu = continuation.spla.splu
        v0, cfg = v_off_ring, cm.SolverConfig()
        with monkeypatch.context() as m:
            self.exact_newton(m)
            v_ref, stage_ref = cm.newton_solve(v0, prob_harmonic, cfg)
        chord_solves = []

        class FirstSolveOnly:
            def __init__(self, lu):
                self.lu, self.solves = lu, 0

            def solve(self, rhs):
                self.solves += 1
                if self.solves == 1:
                    return self.lu.solve(rhs)
                chord_solves.append(self.solves)
                return np.full_like(rhs, np.nan)

        monkeypatch.setattr(continuation.spla, "splu",
                            lambda J, **kwargs: FirstSolveOnly(real_splu(J, **kwargs)))
        v, stage = cm.newton_solve(v0, prob_harmonic, cfg)
        assert chord_solves == [2] * (stage.iterations - 1) and stage.iterations >= 2
        assert np.array_equal(v, v_ref)
        assert stage.iterations == stage_ref.iterations == stage.factorizations

    def test_one_factor_at_a_time(self, prob_harmonic, v_off_ring, monkeypatch):
        # a refused chord step frees the solve's factor before the next one is
        # built, so a Newton solve never holds two factors at once
        real_splu, live, held = continuation.spla.splu, weakref.WeakSet(), []

        class Factor:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                return self.lu.solve(rhs)

        def splu(J, **kwargs):
            held.append(len(live))
            factor = Factor(real_splu(J, **kwargs))
            live.add(factor)
            return factor

        monkeypatch.setattr(continuation.spla, "splu", splu)
        _, stage = cm.newton_solve(v_off_ring, prob_harmonic, cm.SolverConfig())
        assert len(held) == stage.factorizations >= 2
        assert held == [0] * len(held)
        assert len(live) == 0  # the factor dies with the call

    def test_march_evaluates_each_accepted_stage_once(self, prob_harmonic, monkeypatch):
        # between stages the march evaluates the residual of the accepted v
        # against the target density once; no residual at t = 1
        real_residual, real_newton = continuation.residual, continuation.newton_solve
        depth, outside = [0], []

        def counted_residual(v, prob):
            if depth[0] == 0:
                outside.append(prob.f is prob_harmonic.f)
            return real_residual(v, prob)

        def newton(*args, **kwargs):
            depth[0] += 1
            try:
                return real_newton(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(continuation, "residual", counted_residual)
        monkeypatch.setattr(continuation, "newton_solve", newton)
        fail_first_attempts(monkeypatch, 2)  # t = 1 and t = 1/2 fail: step 1/4
        _, rep = cm.continuation_solve(prob_harmonic)
        assert rep.t_steps == [0.25, 0.5, 0.75, 1.0]
        assert outside == [True] * 4  # h = l, then the stages at 0.25, 0.5 and 0.75

    def test_shifted_residual_matches_evaluation(self, grid32, prob_harmonic):
        v = np.log(1.1 * cm.l_field(grid32))
        f_t = cm.homotopy_density(0.5, prob_harmonic)
        R_t = ma_system.residual(v, ProblemSpec(grid=grid32, pq=prob_harmonic.pq, f=f_t))
        shifted = R_t.with_density(f_t, prob_harmonic.f)
        np.testing.assert_allclose(shifted.full, ma_system.residual(v, prob_harmonic).full,
                                   rtol=0.0, atol=1e-13)
        assert shifted.B is R_t.B

    def test_start_residual_evaluated_once(self, grid32, prob_harmonic, monkeypatch):
        # the report's start residual and the march's first probe read one
        # evaluation at h = l, shifted between the two densities
        real_residual, v0 = continuation.residual, np.log(cm.l_field(grid32))
        at_start = []

        def counted_residual(v, prob):
            if np.array_equal(v, v0):
                at_start.append(prob.grid.shape)
            return real_residual(v, prob)

        monkeypatch.setattr(continuation, "residual", counted_residual)
        _, rep = cm.continuation_solve(prob_harmonic)
        assert at_start == [(32, 32)]
        f0 = cm.homotopy_density(0.0, prob_harmonic)
        direct = real_residual(v0, replace(prob_harmonic, f=f0)).max_norm()
        assert rep.start_residual == pytest.approx(direct, rel=0.0, abs=1e-14)


def harmonic_problem(theta_deg, N, amplitude):
    spec = cm.CapSpec(theta=np.radians(theta_deg))
    grid = cm.PolarGrid(spec, N, N)
    R, PHI = grid.mesh()
    f = 1.0 + amplitude * (np.sin(R) / spec.sin_theta) ** 2 * np.cos(2 * PHI) * np.cos(R)
    return ProblemSpec(grid=grid, pq=cm.ExponentPair(p=3.0, q=1.0), f=f)


class TestSymmetricPivoting:
    """SuperLU factors J in symmetric mode: diagonal pivots unless one falls
    below DIAG_PIVOT_THRESH of its column's largest entry.  It orders each J
    itself, by minimum degree on J^T + J."""

    @pytest.mark.parametrize("N", [16, 24, 32])
    @pytest.mark.parametrize("theta_deg", [5.0, 45.0, 85.0])
    def test_direction_matches_partial_pivoting(self, theta_deg, N):
        # the Jacobian at a solution, applied to the residual against the start
        # density, so the direction is of order one
        for amplitude in (0.3, 0.9):
            prob = harmonic_problem(theta_deg, N, amplitude)
            v = np.log(cm.continuation_solve(prob)[0].h)
            R = ma_system.residual(v, replace(prob, f=start_density(prob.grid, prob.pq)))
            delta, lu = continuation._newton_direction(v, R, prob,
                                                       continuation.NewtonStage(t=1.0))
            J = ma_system.jacobian(R, prob)
            ref = continuation.spla.splu(J, permc_spec="MMD_AT_PLUS_A").solve(-R.full.ravel())
            assert np.abs(delta.ravel() - ref).max() <= 1e-12 * np.abs(ref).max()
            assert np.array_equal(lu.perm_r, lu.perm_c)  # every pivot diagonal
            # the step's factor is SuperLU's symmetric-mode factor of J in its
            # own order: same fill and, to roundoff, the same direction
            own = continuation.spla.splu(J, permc_spec="MMD_AT_PLUS_A",
                                         diag_pivot_thresh=continuation.DIAG_PIVOT_THRESH,
                                         options=dict(SymmetricMode=True))
            assert lu.nnz == own.nnz and np.array_equal(lu.perm_c, own.perm_c)
            own_delta = own.solve(-R.full.ravel())
            assert np.abs(delta.ravel() - own_delta).max() <= 1e-12 * np.abs(own_delta).max()

    def test_small_diagonal_pivots_off_the_diagonal(self, grid32, prob_harmonic, v_off_ring,
                                                    monkeypatch):
        # a hand-built J on the grid's Jacobian pattern: 4 on the diagonal, but
        # the first two unknowns (neighbours on the innermost ring) couple
        # through a 2x2 block with diagonal 1e-8 against off-diagonal 5, and
        # every other stored entry is 0.  The factor pivots off the diagonal
        # there and the step still solves J delta = -R
        pattern = grid32.ops.layout.union[2]
        row = pattern.indices
        col = np.repeat(np.arange(grid32.size), np.diff(pattern.indptr))
        block = (row < 2) & (col < 2)
        J = cm.cap_chart._with_data(pattern, np.where(row == col, np.where(block, 1e-8, 4.0),
                                                      np.where(block, 5.0, 0.0)))
        assert np.array_equal(J[:2, :2].toarray(), [[1e-8, 5.0], [5.0, 1e-8]])
        assert 1e-8 < continuation.DIAG_PIVOT_THRESH * 5.0
        monkeypatch.setattr(continuation, "jacobian", lambda R, prob: J)
        rhs = np.random.default_rng(3).normal(size=grid32.shape)
        R = ma_system.ResidualVector(full=rhs, bad_nodes=np.array([], dtype=int))
        delta, lu = continuation._newton_direction(v_off_ring, R, prob_harmonic,
                                                   continuation.NewtonStage(t=1.0))
        assert not np.array_equal(lu.perm_r, lu.perm_c)
        assert np.abs(J @ delta.ravel() + rhs.ravel()).max() <= 1e-12 * np.abs(rhs).max()

    def test_solve_does_not_depend_on_what_the_process_solved_before(self):
        # the layout is shared by every grid of its shape, whatever built it,
        # so a 32^2 solve writes the same h with no layout kept,
        # after solves at other theta on its shape, and after LAYOUT_SHAPES
        # other shapes evicted its layout; each solve builds its own grid
        cm.cap_chart.shape_layout.cache_clear()
        fresh = cm.continuation_solve(harmonic_problem(60.0, 32, 0.3))[0].h
        for theta_deg in (30.0, 75.0):
            cm.continuation_solve(harmonic_problem(theta_deg, 32, 0.3))
        after_thetas = cm.continuation_solve(harmonic_problem(60.0, 32, 0.3))[0].h
        kept = cm.cap_chart.shape_layout(32, 32, 16)
        for N in range(12, 12 + 2 * cm.cap_chart.LAYOUT_SHAPES, 2):
            cm.continuation_solve(harmonic_problem(45.0, N, 0.3))
        assert cm.cap_chart.shape_layout(32, 32, 16) is not kept
        evicted = cm.continuation_solve(harmonic_problem(60.0, 32, 0.3))[0].h
        assert fresh.tobytes() == after_thetas.tobytes() == evicted.tobytes()


class TestModeSteps:
    """At a v constant on every ring J commutes with rotations in phi, so a
    grid without a coarser level factors its angular-mode blocks instead of
    calling SuperLU."""

    @pytest.mark.parametrize("n, Nr, Nphi", [(2, 12, 12), (2, 16, 16), (2, 24, 24), (2, 25, 24),
                                             (2, 32, 32), (2, 38, 38), (2, 16, 36),
                                             (1, 16, 1), (1, 64, 1)])
    @pytest.mark.parametrize("theta_deg", [1.0, 5.0, 45.0, 85.0])
    def test_direction_matches_superlu_at_the_start(self, theta_deg, n, Nr, Nphi):
        # at v = log l against a density with angular modes, so that every
        # mode block carries a right-hand side
        spec = cm.CapSpec(theta=np.radians(theta_deg), n=n)
        grid = cm.PolarGrid(spec, Nr, Nphi) if n == 2 else cm.PolarGrid(spec, Nr)
        R, PHI = grid.mesh()
        f = 1.0 + 0.5 * (np.sin(R) / spec.sin_theta) ** 2 * np.cos(2 * PHI) * np.cos(R)
        prob = ProblemSpec(grid=grid, pq=cm.ExponentPair(p=3.0, q=1.0), f=f)
        v = np.log(cm.l_field(grid))
        Rv = ma_system.residual(v, prob)
        stage = continuation.NewtonStage(t=1.0)
        delta, factor = continuation._newton_direction(v, Rv, prob, stage)
        assert isinstance(factor, cm.cap_chart.ModeFactor) and stage.factorizations == 1
        J = ma_system.jacobian(Rv, prob)
        ref = continuation.spla.splu(J, permc_spec="MMD_AT_PLUS_A").solve(-Rv.full.ravel())
        assert np.abs(delta.ravel() - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("f_spec, counts", [
        ({"type": "constant", "value": 1.7}, ([8], [2])),
        ({"type": "radial", "coeffs": [1.0, -0.2]}, ([8], [2])),
    ])
    def test_axisymmetric_solve_never_assembles(self, grid32, pq31, f_spec, counts, monkeypatch):
        # a radial density keeps every iterate constant on its rings bit for
        # bit, so every factor is the mode blocks'; the Newton steps and
        # factorizations are as many as with SuperLU factors
        def refuse(*args, **kwargs):
            raise AssertionError("J assembled or factored by SuperLU")

        monkeypatch.setattr(continuation, "jacobian", refuse)
        monkeypatch.setattr(continuation.spla, "splu", refuse)
        f = cli.density_from_spec(f_spec, grid32, pq31)
        sf, rep = cm.continuation_solve(ProblemSpec(grid=grid32, pq=pq31, f=f))
        assert np.all(sf.h == sf.h[:, :1])
        assert (rep.newton_iters, [s.factorizations for s in rep.stages]) == counts

    def test_mode_factor_first_then_superlu(self, prob_harmonic, monkeypatch):
        # the harmonic solve starts at h = l, constant on every ring, so its
        # first factor is the mode blocks' and every later one SuperLU's; a
        # factor of either kind is freed before the next one is built
        real, refs, kinds, held = continuation._newton_direction, [], [], []

        class Held:  # SuperLU's factor takes no weak reference, so the solve holds this
            def __init__(self, factor):
                self.factor = factor

            def solve(self, rhs):
                return self.factor.solve(rhs)

        def direction(*args):
            held.append(sum(ref() is not None for ref in refs))
            delta, factor = real(*args)
            kinds.append(type(factor))
            factor = Held(factor)
            refs.append(weakref.ref(factor))
            return delta, factor

        monkeypatch.setattr(continuation, "_newton_direction", direction)
        _, rep = cm.continuation_solve(prob_harmonic)
        assert rep.t_steps == [1.0] and len(refs) == sum(s.factorizations for s in rep.stages)
        assert len(kinds) >= 2 and kinds[0] is cm.cap_chart.ModeFactor
        assert set(kinds[1:]) == {continuation.spla.SuperLU}
        assert held == [0] * len(held)
        assert all(ref() is None for ref in refs)  # the last factor dies with the solve


class TestNested:
    """64^2 solves run the homotopy on 32^2 and finish with one Newton solve at t = 1."""

    @pytest.fixture(scope="class")
    def prob64(self, spec, pq31):
        grid = cm.PolarGrid(spec, 64, 64)
        R, PHI = grid.mesh()
        f = 1.0 + 0.3 * (np.sin(R) / spec.sin_theta) ** 2 * np.cos(2 * PHI) * np.cos(R)
        return ProblemSpec(grid=grid, pq=pq31, f=f)

    @pytest.fixture(scope="class")
    def nested(self, prob64):
        return cm.continuation_solve(prob64)

    @pytest.fixture(scope="class")
    def direct(self, prob64):
        report = SolveReport()
        v = continuation._homotopy(prob64, cm.SolverConfig(), cm.HomotopySchedule(), report)
        return np.exp(v), report

    def test_matches_direct_homotopy(self, prob64, nested, direct):
        sf, _ = nested
        tol = continuation.effective_tolerance(cm.SolverConfig(), prob64.grid, np.log(sf.h))
        assert np.abs(sf.h - direct[0]).max() <= 10.0 * tol

    def test_report_levels(self, nested):
        doc = nested[1].to_json_dict()
        assert len(doc["grids"]) == len(doc["tols"]) == len(doc["t_steps"])
        assert doc["grids"][:-1] == [[32, 32]] * (len(doc["grids"]) - 1)
        assert doc["grids"][-1] == [64, 64] and doc["t_steps"][-1] == 1.0
        assert doc["requested_tol"] == cm.SolverConfig().tol
        assert all(tol >= cm.SolverConfig().tol for tol in doc["tols"])
        assert doc["final_residual"] <= doc["tols"][-1]

    def test_determinism(self, prob64, nested):
        sf, rep = cm.continuation_solve(prob64)
        assert np.array_equal(sf.h, nested[0].h)
        d1, d2 = rep.to_json_dict(), nested[1].to_json_dict()
        d1.pop("timings")
        d2.pop("timings")
        assert d1 == d2

    def test_fine_failure_falls_back_to_homotopy(self, prob64, direct, monkeypatch):
        real = continuation.newton_solve
        calls = []

        def fail_first_fine(v0, prob, cfg, **kwargs):
            if prob.grid.shape == (64, 64):
                calls.append(prob.grid.shape)
                if len(calls) == 1:
                    raise MaxIterationsError("injected", best_v=v0)
            return real(v0, prob, cfg, **kwargs)

        monkeypatch.setattr(continuation, "newton_solve", fail_first_fine)
        sf, rep = cm.continuation_solve(prob64)
        assert rep.rejected == [{"t": 1.0, "grid": [64, 64], "error": "MaxIterationsError"}]
        assert np.array_equal(sf.h, direct[0])
        grids = rep.to_json_dict()["grids"]
        first_fine = grids.index([64, 64])
        assert first_fine > 0 and set(map(tuple, grids[:first_fine])) == {(32, 32)}
        assert grids[first_fine:] == [[64, 64]] * len(direct[1].stages)
        assert rep.t_steps[first_fine:] == direct[1].t_steps

    def test_fine_level_factors_nothing(self, prob64, monkeypatch):
        # the 64^2 Newton steps run GMRES with the mode-block preconditioner and
        # apply J matrix-free; only the 32^2 homotopy assembles and factors its
        # Jacobians
        real, real_jacobian = continuation.spla.splu, continuation.jacobian
        sizes, assembled = [], []

        def splu(J, **kwargs):
            sizes.append(J.shape[0])
            return real(J, **kwargs)

        def jacobian(R, p):
            assembled.append(p.grid.shape)
            return real_jacobian(R, p)

        monkeypatch.setattr(continuation.spla, "splu", splu)
        monkeypatch.setattr(continuation, "jacobian", jacobian)
        _, rep = cm.continuation_solve(prob64)
        doc = rep.to_json_dict()
        assert sizes and set(sizes) == {32 * 32}
        assert assembled and set(assembled) == {(32, 32)}
        fine = doc["grids"].index([64, 64])
        assert min(doc["krylov_iters"][fine]) > 0
        assert len(doc["krylov_iters"][fine]) == doc["newton_iters"][fine]
        assert set(sum(doc["krylov_iters"][:fine], [])) == {0}

    @staticmethod
    def record_jacobians(monkeypatch):
        """Unknowns (Nr * Nphi) of every ``jacobian`` and ``spla.splu`` call from here on."""
        real_jacobian, real_splu, calls = continuation.jacobian, continuation.spla.splu, []

        def jacobian(R, p):
            calls.append(p.grid.Nr * p.grid.Nphi)
            return real_jacobian(R, p)

        def splu(J, **kwargs):
            calls.append(J.shape[0])
            return real_splu(J, **kwargs)

        monkeypatch.setattr(continuation, "jacobian", jacobian)
        monkeypatch.setattr(continuation.spla, "splu", splu)
        return calls

    def test_homotopy_on_a_gmres_grid_factors_nothing(self, prob64, monkeypatch):
        # 64^2 has a coarser level, so even its own homotopy solves by GMRES
        calls = self.record_jacobians(monkeypatch)
        report = SolveReport()
        continuation._homotopy(prob64, cm.SolverConfig(), cm.HomotopySchedule(), report)
        assert calls == []
        assert report.stages and all(s.factorizations == 0 for s in report.stages)
        iters = [k for s in report.stages for k in s.krylov_iters]
        assert len(iters) == sum(s.iterations for s in report.stages) and min(iters) > 0

    def test_first_gmres_miss_falls_back_to_homotopy(self, prob64, direct, monkeypatch):
        # the miss fails the 64^2 Newton solve, which the 64^2 homotopy replaces;
        # no step is redone by a direct solve
        real_gmres, real_newton = continuation.spla.gmres, continuation.newton_solve
        gmres_calls, failures = [], []

        def gmres(A, b, **kwargs):
            gmres_calls.append(b.size)
            return (0.0 * b, 1) if len(gmres_calls) == 1 else real_gmres(A, b, **kwargs)

        def newton(v0, prob, cfg, **kwargs):
            try:
                return real_newton(v0, prob, cfg, **kwargs)
            except SingularSystemError as exc:
                failures.append((prob.grid.shape, exc))
                raise

        monkeypatch.setattr(continuation.spla, "gmres", gmres)
        monkeypatch.setattr(continuation, "newton_solve", newton)
        calls = self.record_jacobians(monkeypatch)
        sf, rep = cm.continuation_solve(prob64)
        assert rep.rejected == [{"t": 1.0, "grid": [64, 64], "error": "SingularSystemError"}]
        assert [shape for shape, _ in failures] == [(64, 64)]
        assert "GMRES missed" in str(failures[0][1])
        assert np.array_equal(sf.h, direct[0])
        assert set(calls) == {32 * 32}  # only the 32^2 homotopy assembles and factors

    def test_every_gmres_miss_stalls_with_best_iterate(self, prob64, monkeypatch):
        monkeypatch.setattr(continuation.spla, "gmres", lambda A, b, **kwargs: (0.0 * b, 1))
        calls = self.record_jacobians(monkeypatch)
        with pytest.raises(ContinuationStallError) as exc:
            cm.continuation_solve(prob64)
        assert exc.value.best_v.shape == (64, 64) and np.all(np.isfinite(exc.value.best_v))
        cause = exc.value.__cause__
        assert isinstance(cause, SingularSystemError) and "GMRES missed" in str(cause)
        assert isinstance(cause.report, continuation.NewtonStage)
        assert cause.report.grid == [64, 64] and cause.report.factorizations == 0
        assert set(calls) == {32 * 32}

    def test_final_residual_is_the_last_stage_residual(self, prob64, monkeypatch):
        # the t = 1 stage on the 64^2 grid already evaluated the returned v
        real_residual, real_newton = continuation.residual, continuation.newton_solve
        outside = []
        depth = [0]

        def counted_residual(v, prob):
            if depth[0] == 0:
                outside.append(prob.grid.shape)
            return real_residual(v, prob)

        def newton(*args, **kwargs):
            depth[0] += 1
            try:
                return real_newton(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(continuation, "residual", counted_residual)
        monkeypatch.setattr(continuation, "newton_solve", newton)
        _, rep = cm.continuation_solve(prob64)
        assert outside.count((64, 64)) == 1  # start_residual only
        assert rep.final_residual == rep.stages[-1].residuals[-1]

    def test_coarse_level_met_its_own_tolerance(self, prob64, monkeypatch):
        # the 32^2 level is solved to COARSE_LEVEL_TOL * spacing^2 there; the
        # 64^2 level to the requested tolerance, floored by its noise floor
        real, starts = continuation.newton_solve, []

        def newton(v0, prob, cfg, **kwargs):
            starts.append((prob.grid.shape, cfg.tol, v0))
            return real(v0, prob, cfg, **kwargs)

        monkeypatch.setattr(continuation, "newton_solve", newton)
        cfg = cm.SolverConfig()
        _, rep = cm.continuation_solve(prob64, cfg)
        doc = rep.to_json_dict()
        coarse = cm.PolarGrid(prob64.grid.spec, 32, 32)
        coarse_tol = max(cfg.tol, continuation.COARSE_LEVEL_TOL * coarse.max_spacing**2)
        assert coarse_tol > 1000.0 * cfg.tol
        assert doc["grids"] == [[32, 32]] * (len(doc["grids"]) - 1) + [[64, 64]]
        assert doc["tols"][:-1] == [coarse_tol] * (len(doc["tols"]) - 1)
        assert all(tol == coarse_tol for shape, tol, _ in starts if shape == (32, 32))
        [(_, fine_tol, v0)] = [s for s in starts if s[0] == (64, 64)]
        assert fine_tol == cfg.tol
        assert doc["tols"][-1] == continuation.effective_tolerance(cfg, prob64.grid, v0)
        assert doc["final_residual"] <= doc["tols"][-1]

    @staticmethod
    def near_solution(prob, eps):
        """(v, R): prob's nested solution moved by eps times a mode-2 field that
        is not constant on its rings, and its residual."""
        sf, _ = cm.continuation_solve(prob)
        R_, PHI = prob.grid.mesh()
        v = np.log(sf.h) + eps * (np.sin(R_) / prob.grid.spec.sin_theta) ** 2 * np.cos(2 * PHI)
        return v, ma_system.residual(v, prob)

    @pytest.mark.parametrize("atol_over_eta_bound", [0.5, 1000.0])
    def test_gmres_stops_at_the_larger_bound(self, grid48, pq31, atol_over_eta_bound):
        # GMRES stops once ||J delta + R||_2 <= max(eta ||R||_2, atol), with
        # the forcing term eta = min(KRYLOV_ETA_MAX, ||R||_inf) tied to the
        # residual, checked against the assembled Jacobian; an atol above the
        # relative bound stops it after fewer iterations.  v is not
        # axisymmetric, so the ring-mean preconditioner is not exact
        R_, PHI = grid48.mesh()
        shape = (np.sin(R_) / grid48.spec.sin_theta) ** 2 * np.cos(2 * PHI)
        prob = ProblemSpec(grid=grid48, pq=pq31, f=1.0 + 0.3 * shape)
        _, R = self.near_solution(prob, 1e-3)
        eta = min(continuation.KRYLOV_ETA_MAX, R.max_norm())
        assert eta < continuation.KRYLOV_ETA_MAX  # the residual's branch of the forcing term
        J = grid48.ops.combination(**ma_system.jacobian_coefficients(R, prob))
        rhs = -R.full.ravel()
        eta_bound = eta * np.linalg.norm(rhs)
        atol = atol_over_eta_bound * eta_bound
        delta, iters, bound, _ = continuation._gmres_solve(rhs, R, prob, eta, atol)
        assert bound == max(atol, eta_bound)
        assert np.linalg.norm(J @ delta - rhs) <= bound
        _, iters_eta, _, _ = continuation._gmres_solve(rhs, R, prob, eta, 0.0)
        assert (iters < iters_eta) == (atol > eta_bound)

    @pytest.mark.parametrize("tol", [1e-12, 1e-3])
    def test_gmres_miss_names_the_bound_it_missed(self, prob64, monkeypatch, tol):
        # near the solution the forcing term eta is ||R||_inf, and eta ||R||_2 is
        # about 1e-7: tol 1e-12 leaves the relative bound in force, 1e-3 the
        # absolute one
        v, R = self.near_solution(prob64, 1e-4)
        monkeypatch.setattr(continuation.spla, "gmres", lambda A, b, **kwargs: (0.0 * b, 1))
        stage = continuation.NewtonStage(t=1.0, tol=tol)
        with pytest.raises(SingularSystemError) as exc:
            continuation._newton_direction(v, R, prob64, stage)
        eta = R.max_norm()
        assert eta < continuation.KRYLOV_ETA_MAX
        eta_bound, atol = eta * np.linalg.norm(R.full), continuation.KRYLOV_TOL_SHARE * tol
        assert (atol > eta_bound) == (tol == 1e-3)
        assert f"GMRES missed its bound {max(eta_bound, atol):.3e}" in str(exc.value)
        assert f"eta {eta:.3e}" in str(exc.value)
        assert exc.value.best_v is v and exc.value.report is stage

    @pytest.fixture(scope="class")
    def harmonic64(self, spec, pq31):
        grid = cm.PolarGrid(spec, 64, 64)
        f_spec = {"type": "harmonic", "base": 1.0, "amplitude": 0.2, "m": 2}
        return ProblemSpec(grid=grid, pq=pq31, f=cli.density_from_spec(f_spec, grid, pq31))

    @staticmethod
    def record_mode_systems(monkeypatch):
        """The coefficients of every ``FrameOps.mode_system`` call from here on, by grid shape."""
        real, calls = cm.cap_chart.FrameOps.mode_system, []

        def mode_system(ops, **coeffs):
            calls.append((ops.shape, coeffs))
            return real(ops, **coeffs)

        monkeypatch.setattr(cm.cap_chart.FrameOps, "mode_system", mode_system)
        return calls

    def test_one_preconditioner_per_newton_solve(self, harmonic64, monkeypatch):
        # the 64^2 Newton solve builds its mode blocks for its first step and
        # preconditions every later step with them
        calls = self.record_mode_systems(monkeypatch)
        _, rep = cm.continuation_solve(harmonic64)
        fine = rep.stages[-1]
        assert fine.grid == [64, 64] and fine.iterations >= 2 and rep.rejected == []
        assert [shape for shape, _ in calls].count((64, 64)) == 1
        assert len(fine.krylov_iters) == fine.iterations and min(fine.krylov_iters) > 0

    def test_gmres_rtol_is_the_forcing_term(self, harmonic64, monkeypatch):
        # each 64^2 step hands GMRES rtol = min(KRYLOV_ETA_MAX, ||R||_inf) of its iterate
        real, rtols = continuation.spla.gmres, []

        def gmres(A, b, **kwargs):
            rtols.append(kwargs["rtol"])
            return real(A, b, **kwargs)

        monkeypatch.setattr(continuation.spla, "gmres", gmres)
        _, rep = cm.continuation_solve(harmonic64)
        fine = rep.stages[-1]
        assert fine.grid == [64, 64] and fine.iterations >= 2
        assert rtols == [min(continuation.KRYLOV_ETA_MAX, r) for r in fine.residuals[:-1]]
        assert max(rtols) < continuation.KRYLOV_ETA_MAX

    def test_carried_preconditioner_miss_rebuilds_it_once(self, harmonic64, monkeypatch):
        # a forced miss of the second step, which runs on the first step's mode
        # blocks, rebuilds them from the second iterate's coefficients and
        # reruns GMRES; the solve goes on without a fallback
        real_gmres, real_solve = continuation.spla.gmres, continuation._gmres_solve
        calls, events = self.record_mode_systems(monkeypatch), []

        def gmres(A, b, **kwargs):
            events.append("gmres")
            miss = events.count("gmres") == 2
            return (0.0 * b, 1) if miss else real_gmres(A, b, **kwargs)

        def gmres_solve(rhs, R, *args):
            events.append(R)
            return real_solve(rhs, R, *args)

        monkeypatch.setattr(continuation.spla, "gmres", gmres)
        monkeypatch.setattr(continuation, "_gmres_solve", gmres_solve)
        _, rep = cm.continuation_solve(harmonic64)
        assert rep.rejected == []
        fine = rep.stages[-1]
        assert fine.grid == [64, 64] and fine.converged
        steps = [e for e in events if not isinstance(e, str)]
        assert [e if isinstance(e, str) else "step" for e in events[:5]] == \
            ["step", "gmres", "step", "gmres", "gmres"]
        assert len(steps) == fine.iterations == len(fine.krylov_iters)
        fine_calls = [coeffs for shape, coeffs in calls if shape == (64, 64)]
        assert len(fine_calls) == 2
        rebuilt = ma_system.jacobian_coefficients(steps[1], harmonic64)
        assert rebuilt.keys() == fine_calls[1].keys()
        assert all(np.array_equal(rebuilt[k], fine_calls[1][k]) for k in rebuilt)

    def test_first_step_miss_raises_with_the_start(self, harmonic64, monkeypatch):
        # a miss with a preconditioner built at the start rebuilds nothing
        v0 = np.log(cm.l_field(harmonic64.grid))
        monkeypatch.setattr(continuation.spla, "gmres", lambda A, b, **kwargs: (0.0 * b, 1))
        calls = self.record_mode_systems(monkeypatch)
        with pytest.raises(SingularSystemError) as exc:
            continuation.newton_solve(v0, harmonic64, cm.SolverConfig())
        assert "GMRES missed" in str(exc.value)
        assert np.array_equal(exc.value.best_v, v0) and exc.value.report.iterations == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("shape, chain", [
        ((38, 38), []),
        ((40, 40), [(20, 20)]),
        ((42, 42), [(21, 20)]),
        ((50, 50), [(25, 24)]),
        ((94, 94), [(47, 46), (23, 22)]),
        ((128, 128), [(64, 64), (32, 32)]),
        ((96, 96), [(48, 48), (24, 24)]),
    ])
    def test_coarse_shape_chain(self, spec, shape, chain):
        levels = []
        grid = cm.PolarGrid(spec, *shape)
        while (coarse := continuation._coarse_shape(grid)) is not None:
            levels.append(coarse)
            grid = cm.PolarGrid(spec, *coarse)
        assert levels == chain

    @pytest.mark.parametrize("Nr", [6, 40, 128])
    def test_radial_grid_has_no_coarse_level(self, Nr):
        grid = cm.PolarGrid(cm.CapSpec(theta=np.pi / 3, n=1), Nr)
        assert continuation._coarse_shape(grid) is None

    def test_50_grid_nests_past_its_homotopy_stall(self, spec):
        # the 50^2 homotopy once stalled near t = 0.92 (line search at the
        # noise floor); the 25x24 level's homotopy did not, and one
        # Newton-Krylov solve finishes 50^2 from it
        grid = cm.PolarGrid(spec, 50, 50)
        R, PHI = grid.mesh()
        f = 1.0 + 0.3 * (np.sin(R) / spec.sin_theta) ** 2 * np.cos(2 * PHI) * np.cos(R)
        prob = ProblemSpec(grid=grid, pq=cm.ExponentPair(p=1.1, q=1.0), f=f)
        sf, rep = cm.continuation_solve(prob)
        doc = rep.to_json_dict()
        assert doc["grids"][0] == [25, 24] and doc["grids"][-1] == [50, 50]
        assert doc["final_residual"] <= doc["tols"][-1]
        assert cm.verify(sf, prob).all_passed

    @pytest.mark.parametrize("N", [80, 96])
    def test_pole_rounding_no_longer_stalls_the_fine_levels(self, spec, N):
        # p - q = 0.1 puts max|v| near 8, and the angular stencils' rounding of
        # v, times 1/sin^2 r on the pole ring, used to exceed the effective
        # tolerance: the fine level's Newton solve stalled, and so did the
        # homotopy it fell back to.  With d_phi and d_phiphi applied to v minus
        # its ring value at phi = 0, the nested levels finish
        grid = cm.PolarGrid(spec, N, N)
        R, PHI = grid.mesh()
        s = np.sin(R) / spec.sin_theta
        f = 1.0 + 0.3 * s**2 * np.cos(2 * PHI) * np.cos(R)  # harmonic, m = 2, radial_mode 1
        prob = ProblemSpec(grid=grid, pq=cm.ExponentPair(p=1.1, q=1.0), f=f)
        sf, rep = cm.continuation_solve(prob)
        doc = rep.to_json_dict()
        assert doc["grids"][-1] == [N, N] and doc["t_steps"][-1] == 1.0
        assert doc["final_residual"] <= doc["tols"][-1]
        assert cm.verify(sf, prob).all_passed

    def test_grid_without_coarse_level_runs_homotopy(self, prob_start):
        # 32^2 would halve to 16^2, below the coarsest level allowed
        assert continuation._coarse_shape(prob_start.grid) is None
        _, rep = cm.continuation_solve(prob_start)
        assert rep.to_json_dict()["grids"] == [[32, 32]]


def symmetry_problem(theta_deg, q, gap, Nr, Nphi, m, a, b, phase):
    """p = q + gap on an (Nr, Nphi) grid, with a density that has no mirror symmetry in phi."""
    spec = cm.CapSpec(theta=np.radians(theta_deg))
    grid = cm.PolarGrid(spec, Nr, Nphi)
    R, PHI = grid.mesh()
    s = np.sin(R) / spec.sin_theta
    f = 1.0 + a * s**m * np.cos(m * PHI + phase) + b * s ** (m + 1) * np.sin((m + 1) * PHI) * np.cos(R)
    return ProblemSpec(grid=grid, pq=cm.ExponentPair(p=q + gap, q=q), f=f)


@st.composite
def symmetry_instances(draw):
    """A 16^2-24^2 problem over the paper's range (theta 5-85 degrees, p - q
    0.3-3), a scale factor and an angular node shift."""
    Nphi = draw(st.sampled_from(range(16, 25, 2)))
    prob = symmetry_problem(draw(st.floats(5.0, 85.0)), draw(st.floats(0.0, 3.0)),
                            draw(st.floats(0.3, 3.0)), draw(st.integers(16, 24)), Nphi,
                            draw(st.integers(1, 3)), draw(st.floats(0.0, 0.4)),
                            draw(st.floats(0.0, 0.4)), draw(st.floats(0.0, 2 * np.pi)))
    return prob, draw(st.floats(0.2, 5.0)), draw(st.integers(1, Nphi - 1))


class TestSymmetry:
    """Exact symmetries of the discrete system: h(lam f) = lam^(-1/(p-q)) h(f), and
    rolling or mirroring f in phi rolls or mirrors h.

    Tolerances.  Let v_a and v_b be two computed solutions that the symmetry
    maps onto solutions of one discrete system G(v) = 0, with residual
    max-norms r_a and r_b.  To first order v_a - v_b = J^-1 (G(v_a) - G(v_b)),
    so max|v_a - v_b| <= K (r_a + r_b) with K = ||J^-1||_inf, computed here
    from the dense inverse of the Jacobian at v_a.  (K (p - q) measured 1.0 to
    2.9: the constant mode alone would give 1, and the Robin rows add to it.)
    - Scaling changes the homotopy path (f0 does not scale), so each r is
      only known to lie within its solve's effective_tolerance.
    - Rolling and mirroring map every operator, the start h = l and f0 onto
      themselves, so both solves take the same steps up to the order of
      floating-point sums; r_a and r_b are then the noise of evaluating the
      residual, which effective_tolerance's floor bounds (its value for a
      requested tolerance below it).
    The bound leaves out the second-order term.  Over 150 random examples the
    largest error was 2.2% of its bound for scaling and 0.03% for the others.
    """

    CFG = cm.SolverConfig()

    @staticmethod
    def inverse_norm(v, prob):
        J = ma_system.jacobian(ma_system.residual(v, prob), prob).toarray()
        return float(np.abs(np.linalg.inv(J)).sum(axis=1).max())

    def solve(self, prob):
        sf, rep = cm.continuation_solve(prob, self.CFG)
        # effective_tolerance of each stage's start on prob's grid; a coarser
        # level is solved to a looser tolerance of its own
        tol = max(s.tol for s in rep.stages if s.grid == [prob.grid.Nr, prob.grid.Nphi])
        assert rep.final_residual <= tol
        return np.log(sf.h), tol

    def floor(self, v, grid):
        return continuation.effective_tolerance(cm.SolverConfig(tol=np.finfo(float).tiny), grid, v)

    def base(self, prob):
        """(v, its tolerance, K) of prob's own solve."""
        v, tol = self.solve(prob)
        return v, tol, self.inverse_norm(v, prob)

    def check_scaling(self, prob, lam, base):
        v, tol, K = base
        v_lam, tol_lam = self.solve(replace(prob, f=lam * prob.f))
        shift = np.log(lam) / (prob.pq.p - prob.pq.q)
        assert np.abs(v_lam + shift - v).max() <= K * (tol + tol_lam)

    def check_rotation(self, prob, k, base):
        v, _, K = base
        v_k, _ = self.solve(replace(prob, f=np.roll(prob.f, k, axis=1)))
        assert np.abs(v_k - np.roll(v, k, axis=1)).max() <= K * 2 * self.floor(v, prob.grid)

    def check_reflection(self, prob, base):
        v, _, K = base
        mirror = (-np.arange(prob.grid.Nphi)) % prob.grid.Nphi  # phi_j = j dphi -> -phi_j
        v_m, _ = self.solve(replace(prob, f=prob.f[:, mirror]))
        assert np.abs(v_m - v[:, mirror]).max() <= K * 2 * self.floor(v, prob.grid)

    # derandomized so that tier-1 runs the same instances every time
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(case=symmetry_instances())
    def test_scaling(self, case):
        prob, lam, _ = case
        self.check_scaling(prob, lam, self.base(prob))

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(case=symmetry_instances())
    def test_rotation(self, case):
        prob, _, k = case
        self.check_rotation(prob, k, self.base(prob))

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(case=symmetry_instances())
    def test_reflection(self, case):
        prob, _, _ = case
        self.check_reflection(prob, self.base(prob))

    def test_gmres_grid(self):
        # 40^2 has a 20^2 level, so its own Newton solve runs GMRES
        prob = symmetry_problem(35.0, 1.0, 1.5, 40, 40, m=2, a=0.3, b=0.2, phase=0.7)
        assert continuation._coarse_shape(prob.grid) == (20, 20)
        base = self.base(prob)
        self.check_scaling(prob, 2.5, base)
        self.check_rotation(prob, 7, base)
        self.check_reflection(prob, base)


class TestPaperEdges:
    """theta near 0 with p - q near 0, inside the paper's range: by h(lam f) =
    lam^(-1/(p - q)) h(f), a density off the start density by a modest factor
    moves log h by hundreds, so h and its powers can leave the float range."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(theta=st.floats(1.0, 5.0), q=st.floats(0.0, 3.0), gap=st.floats(0.005, 0.05),
           N=st.sampled_from([12, 14, 16]), log_f=st.floats(-5.0, 5.0), amp=st.floats(0.0, 0.5),
           m=st.integers(0, 3))
    def test_solve_and_verify_return_or_raise_capillary_error(self, theta, q, gap, N,
                                                              log_f, amp, m):
        spec = cm.CapSpec(theta=np.radians(theta))
        grid = cm.PolarGrid(spec, N, N)
        R, PHI = grid.mesh()
        f = np.exp(log_f) * (1.0 + amp * (np.sin(R) / spec.sin_theta) ** m * np.cos(m * PHI))
        prob = ProblemSpec(grid=grid, pq=cm.ExponentPair(p=q + gap, q=q), f=f)
        try:
            sf, _ = cm.continuation_solve(prob)
            cm.verify(sf, prob)
        except cm.errors.CapillaryError:
            pass


class TestUniqueness:
    def test_distinct_starts_agree(self, grid32, prob_harmonic):
        l = cm.l_field(grid32)
        rep = cm.uniqueness_probe(prob_harmonic, cm.SolverConfig(tol=1e-9),
                                  starts=[np.log(l), np.log(1.5 * l)])
        assert rep.max_distance <= 1e-8

    def test_equal_starts_zero_distance(self, grid32, prob_harmonic):
        l = cm.l_field(grid32)
        rep = cm.uniqueness_probe(prob_harmonic, starts=[np.log(l), np.log(l)])
        assert rep.max_distance == 0.0

    def test_small_gap_still_unique(self, grid32):
        # p - q = 0.1 keeps the zero-order term weak; limits still coincide
        pq = cm.ExponentPair(p=1.1, q=1.0)
        f = start_density(grid32, pq)
        prob = ProblemSpec(grid=grid32, pq=pq, f=f)
        l = cm.l_field(grid32)
        rep = cm.uniqueness_probe(prob, cm.SolverConfig(tol=1e-10, max_iter=60),
                                  starts=[np.log(l), np.log(1.5 * l)])
        assert rep.max_distance <= 1e-8
