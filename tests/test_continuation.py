"""Newton + homotopy continuation driver tests."""

import numpy as np
import pytest

import capillary_minkowski as cm
from capillary_minkowski import continuation, ma_system
from capillary_minkowski.continuation import SolveReport, start_density
from capillary_minkowski.errors import (
    ContinuationStallError,
    LineSearchStallError,
    MaxIterationsError,
    NonConvexError,
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

    def test_line_search_stall_via_floor(self, grid32, prob_start):
        # an unreachable convexity floor rejects every candidate step
        cfg = cm.SolverConfig(convexity_floor_rel=0.95, min_step=1e-3)
        prob = ProblemSpec(grid=grid32, pq=prob_start.pq, f=2.0 * prob_start.f)
        with pytest.raises(LineSearchStallError):
            cm.newton_solve(np.log(cm.l_field(grid32)), prob, cfg)

    def test_one_evaluation_per_trial(self, grid32, prob_harmonic, monkeypatch):
        # residual takes grad v and forms B(v) once; the convexity checks and
        # the Jacobian read its ResidualVector instead of evaluating v again
        calls = {"gauss_map": 0, "grad": 0, "hessian": 0, "residual": 0}

        def counted(module, name, key):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(ma_system, "log_gauss_map_matrix", "gauss_map")
        counted(ma_system, "grad", "grad")
        counted(ma_system, "hessian", "hessian")
        counted(continuation, "residual", "residual")
        _, stage = cm.newton_solve(np.log(cm.l_field(grid32)), prob_harmonic, cm.SolverConfig())
        assert stage.converged and stage.iterations >= 2
        assert calls["residual"] > stage.iterations
        assert len(set(calls.values())) == 1, calls

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

    def test_explicit_schedule(self, grid32, prob_harmonic):
        sched = cm.HomotopySchedule(t_values=(0.0, 0.5, 1.0))
        sf, rep = cm.continuation_solve(prob_harmonic, sched=sched)
        assert rep.t_steps == [0.5, 1.0]
        assert rep.final_residual <= 1e-9

    def test_explicit_schedule_stall_raises_with_state(self, grid32, prob_harmonic):
        sched = cm.HomotopySchedule(t_values=(0.0, 1.0))
        cfg = cm.SolverConfig(tol=1e-12, max_iter=1)
        with pytest.raises(ContinuationStallError) as exc:
            cm.continuation_solve(prob_harmonic, cfg, sched)
        assert exc.value.t == 0.0
        assert exc.value.best_v is not None
        assert exc.value.report.stages == []

    def test_explicit_schedule_stops_when_target_met(self, grid32, prob_start):
        # the t = 0.5 stage already solves the constant homotopy's target
        sched = cm.HomotopySchedule(t_values=(0.0, 0.5, 1.0))
        _, rep = cm.continuation_solve(prob_start, sched=sched)
        assert rep.t_steps == [0.5]

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            cm.HomotopySchedule(t_values=(0.0, 0.6, 0.4, 1.0))
        with pytest.raises(ValueError):
            cm.HomotopySchedule(t_values=())
        with pytest.raises(ValueError):
            cm.HomotopySchedule(initial_step=0.0)


class TestChord:
    """The homotopy's Newton solves share one SuperLU factor across steps and stages."""

    def test_fewer_factorizations_than_steps(self, prob_harmonic, monkeypatch):
        calls = {"splu": 0, "jacobian": 0}
        real_splu, real_jacobian = continuation.spla.splu, continuation.jacobian

        def splu(J, **kwargs):
            calls["splu"] += 1
            return real_splu(J, **kwargs)

        def jac(R, prob):
            calls["jacobian"] += 1
            return real_jacobian(R, prob)

        monkeypatch.setattr(continuation.spla, "splu", splu)
        monkeypatch.setattr(continuation, "jacobian", jac)
        _, rep = cm.continuation_solve(prob_harmonic)
        doc = rep.to_json_dict()
        assert calls["splu"] == calls["jacobian"] == sum(doc["factorizations"])
        assert calls["splu"] < sum(doc["newton_iters"])
        assert len(doc["factorizations"]) == len(doc["newton_iters"])
        # the stages of the exact-Newton march (3, 3 and 4 steps); an easy-stage
        # test counting chord steps instead of factorizations adds t = 0.75
        assert rep.t_steps == [0.25, 0.5, 1.0]

    def test_refused_chord_steps_give_exact_newton(self, prob_harmonic, monkeypatch):
        # with contraction 0 every chord step is refused and redone exactly at
        # the same v, so the march is the exact-Newton one bit for bit
        real = continuation.newton_solve

        def exact(v0, prob, cfg, carry=None, **kwargs):
            v, stage = real(v0, prob, cfg, **kwargs)
            carry.R = ma_system.residual(v, prob)  # what the probe reads
            return v, stage

        with monkeypatch.context() as m:
            m.setattr(continuation, "newton_solve", exact)
            sf_exact, rep_exact = cm.continuation_solve(prob_harmonic)
        monkeypatch.setattr(continuation, "CHORD_CONTRACTION", 0.0)
        sf, rep = cm.continuation_solve(prob_harmonic)
        assert np.array_equal(sf.h, sf_exact.h)
        assert rep.t_steps == rep_exact.t_steps
        assert rep.newton_iters == rep_exact.newton_iters
        assert [s.factorizations for s in rep.stages] == rep.newton_iters

    def test_failed_stage_leaves_no_factor(self, prob_harmonic, monkeypatch):
        real = continuation.newton_solve
        factor_at_entry = []

        def fail_second(v0, prob, cfg, carry=None, **kwargs):
            factor_at_entry.append(carry.lu is not None)
            out = real(v0, prob, cfg, carry=carry, **kwargs)
            if len(factor_at_entry) == 2:
                assert carry.lu is not None
                raise MaxIterationsError("injected", best_v=v0)
            return out

        monkeypatch.setattr(continuation, "newton_solve", fail_second)
        _, rep = cm.continuation_solve(prob_harmonic)
        assert factor_at_entry[:3] == [False, True, False]
        assert rep.final_residual <= cm.SolverConfig().tol

    def test_probe_reuses_the_last_stage_residual(self, prob_harmonic, monkeypatch):
        # between stages the t = 1 probe shifts the last stage's residual to
        # the target density instead of evaluating B at that v again
        real_residual, real_newton = continuation.residual, continuation.newton_solve
        stages, between = [], []

        def counted_residual(v, prob):
            if stages and stages[-1] == "done":
                between.append(len(stages))
            return real_residual(v, prob)

        def newton(*args, **kwargs):
            stages.append("running")
            try:
                return real_newton(*args, **kwargs)
            finally:
                stages[-1] = "done"

        monkeypatch.setattr(continuation, "residual", counted_residual)
        monkeypatch.setattr(continuation, "newton_solve", newton)
        _, rep = cm.continuation_solve(prob_harmonic)
        assert len(rep.stages) >= 3 and rep.t_steps[-1] == 1.0
        assert between == []

    def test_shifted_residual_matches_evaluation(self, grid32, prob_harmonic):
        v = np.log(1.1 * cm.l_field(grid32))
        f_t = cm.homotopy_density(0.5, prob_harmonic)
        R_t = ma_system.residual(v, ProblemSpec(grid=grid32, pq=prob_harmonic.pq, f=f_t))
        shifted = R_t.with_density(f_t, prob_harmonic.f)
        np.testing.assert_allclose(shifted.full, ma_system.residual(v, prob_harmonic).full,
                                   rtol=0.0, atol=1e-13)
        assert shifted.B is R_t.B


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
        assert np.array_equal(sf.h, direct[0])
        grids = rep.to_json_dict()["grids"]
        first_fine = grids.index([64, 64])
        assert first_fine > 0 and set(map(tuple, grids[:first_fine])) == {(32, 32)}
        assert grids[first_fine:] == [[64, 64]] * len(direct[1].stages)
        assert rep.t_steps[first_fine:] == direct[1].t_steps

    def test_fine_level_factors_nothing(self, prob64, monkeypatch):
        # the 64^2 Newton steps run GMRES with the mode-block preconditioner;
        # only the 32^2 homotopy factors its Jacobians
        real = continuation.spla.splu
        sizes = []

        def splu(J, **kwargs):
            sizes.append(J.shape[0])
            return real(J, **kwargs)

        monkeypatch.setattr(continuation.spla, "splu", splu)
        _, rep = cm.continuation_solve(prob64)
        doc = rep.to_json_dict()
        assert sizes and set(sizes) == {32 * 32}
        fine = doc["grids"].index([64, 64])
        assert min(doc["krylov_iters"][fine]) > 0 and doc["lu_fallbacks"][fine] == []
        assert len(doc["krylov_iters"][fine]) == doc["newton_iters"][fine]
        assert set(sum(doc["krylov_iters"][:fine], [])) == {0}

    def test_gmres_miss_falls_back_to_lu(self, prob64, monkeypatch):
        # a step whose GMRES misses its tolerance is solved by the LU factor of
        # the same Jacobian, so the result is the all-LU one bit for bit
        real = continuation.newton_solve
        with monkeypatch.context() as m:
            m.setattr(continuation, "newton_solve",
                      lambda v0, prob, cfg, krylov=False, **kwargs: real(v0, prob, cfg, **kwargs))
            sf_lu, rep_lu = cm.continuation_solve(prob64)
        monkeypatch.setattr(continuation.spla, "gmres", lambda A, b, **kwargs: (0.0 * b, 1))
        sf, rep = cm.continuation_solve(prob64)
        assert np.array_equal(sf.h, sf_lu.h)
        doc, doc_lu = rep.to_json_dict(), rep_lu.to_json_dict()
        fine = doc["grids"].index([64, 64])
        assert doc["lu_fallbacks"][fine] == list(range(len(doc["krylov_iters"][fine]))) != []
        for d in (doc, doc_lu):
            for key in ("timings", "krylov_iters", "lu_fallbacks"):
                d.pop(key)
        assert doc == doc_lu

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

    def test_grid_without_coarse_level_runs_homotopy(self, prob_start):
        # 32^2 halves to 16^2, below the coarsest level allowed
        assert prob_start.grid.Nphi // 2 < continuation.NESTED_MIN_NPHI
        _, rep = cm.continuation_solve(prob_start)
        assert rep.to_json_dict()["grids"] == [[32, 32]]


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
