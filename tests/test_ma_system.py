"""Residual assembly and analytic Jacobian of the log-variable system."""

import numpy as np
import pytest

import capillary_minkowski as cm
from capillary_minkowski.continuation import start_density
from capillary_minkowski.errors import NonConvexError
from capillary_minkowski.ma_system import ProblemSpec, jacobian, residual, residual_h_form

from conftest import smooth_field


@pytest.fixture(scope="module")
def prob32(grid32, pq31):
    return ProblemSpec(grid=grid32, pq=pq31, f=start_density(grid32, pq31))


class TestResidual:
    def test_exact_start(self, grid32, prob32):
        # h = l solves the start problem, so log l leaves only truncation
        R = residual(np.log(cm.l_field(grid32)), prob32)
        assert R.max_norm() < 10.0 * grid32.max_spacing**2
        assert R.bad_nodes.size == 0

    def test_scaled_family(self, grid32, pq31):
        c = 1.6
        prob = ProblemSpec(grid=grid32, pq=pq31,
                           f=c ** (pq31.q - pq31.p) * start_density(grid32, pq31))
        R = residual(np.log(c * cm.l_field(grid32)), prob)
        assert R.max_norm() < 10.0 * grid32.max_spacing**2

    def test_doubled_density_shifts_interior_by_log2(self, grid32, pq31):
        prob = ProblemSpec(grid=grid32, pq=pq31, f=2.0 * start_density(grid32, pq31))
        R = residual(np.log(cm.l_field(grid32)), prob)
        tol = 10.0 * grid32.max_spacing**2
        assert np.abs(R.interior + np.log(2.0)).max() < tol
        assert np.abs(R.boundary).max() < tol

    def test_sentinel_for_indefinite(self, grid32, prob32):
        R_, PHI = grid32.mesh()
        v = np.log(cm.l_field(grid32)) + 2.0 * np.sin(4 * R_) * np.cos(5 * PHI)
        out = residual(v, prob32)
        assert out.bad_nodes.size > 0
        assert np.isposinf(out.max_norm())
        assert np.isposinf(out.full.ravel()[out.bad_nodes]).all()

    def test_chain_consistency_with_h_form(self, grid32, pq31):
        # the independently coded h-variable residual agrees to O(spacing^2):
        # interior rows directly, boundary rows after dividing by h
        rng = np.random.default_rng(5)
        h = cm.l_field(grid32) * np.exp(0.1 * smooth_field(grid32, rng))
        prob = ProblemSpec(grid=grid32, pq=pq31, f=start_density(grid32, pq31))
        Rv = residual(np.log(h), prob)
        Rh = residual_h_form(h, prob)
        tol = 20.0 * grid32.max_spacing**2
        assert np.abs(Rv.interior - Rh.interior).max() < tol
        assert np.abs(Rv.boundary - Rh.boundary / h[-1]).max() < tol


class TestJacobian:
    def test_matches_dense_finite_differences(self, spec, pq31):
        grid = cm.PolarGrid(spec, 8, 6)
        prob = ProblemSpec(grid=grid, pq=pq31, f=start_density(grid, pq31))
        R_, PHI = grid.mesh()
        v = np.log(cm.l_field(grid)) + 0.05 * np.sin(R_) * np.cos(PHI) + 0.03 * np.cos(R_)
        J = jacobian(residual(v, prob), prob).toarray()
        eps = 1e-7
        N = grid.size
        Jfd = np.empty((N, N))
        flat = v.ravel()
        for j in range(N):
            vp, vm = flat.copy(), flat.copy()
            vp[j] += eps
            vm[j] -= eps
            Jfd[:, j] = (residual(vp.reshape(grid.shape), prob).full.ravel()
                         - residual(vm.reshape(grid.shape), prob).full.ravel()) / (2 * eps)
        assert np.abs(J - Jfd).max() < 1e-5

    def test_directional_derivatives(self, grid32, prob32):
        rng = np.random.default_rng(7)
        v = np.log(cm.l_field(grid32)) + 0.1 * smooth_field(grid32, rng)
        J = jacobian(residual(v, prob32), prob32)
        scale = 10.0 * (1.0 + np.abs(v).max())
        eps = 1e-6 * scale
        for _ in range(5):
            dv = smooth_field(grid32, rng)
            fd = (residual(v + eps * dv, prob32).full
                  - residual(v - eps * dv, prob32).full) / (2 * eps)
            an = (J @ dv.ravel()).reshape(grid32.shape)
            assert np.abs(fd - an).max() / np.abs(an).max() < 1e-6

    def test_constant_direction_gives_minus_p_minus_q(self, grid32, prob32, pq31):
        # stencils annihilate constants, leaving exactly -(p - q) on PDE rows
        v, _ = cm.newton_solve(np.log(cm.l_field(grid32)), prob32, cm.SolverConfig())
        act = (jacobian(residual(v, prob32), prob32) @ np.ones(grid32.size)).reshape(grid32.shape)
        np.testing.assert_allclose(act[:-1], -(pq31.p - pq31.q), rtol=0, atol=1e-9)
        np.testing.assert_allclose(act[-1], 0.0, rtol=0, atol=1e-9)

    def test_indefinite_input_rejected(self, grid32, prob32):
        R_, PHI = grid32.mesh()
        v = np.log(cm.l_field(grid32)) + 2.0 * np.sin(4 * R_) * np.cos(5 * PHI)
        with pytest.raises(NonConvexError):
            jacobian(residual(v, prob32), prob32)

    def test_boundary_rows_touch_outer_rings_only(self, grid32, prob32):
        J = jacobian(residual(np.log(cm.l_field(grid32)), prob32), prob32).tocsr()
        Nphi = grid32.Nphi
        rows = np.arange(grid32.boundary_ring * Nphi, grid32.size)
        for row in rows:
            cols = J.indices[J.indptr[row]:J.indptr[row + 1]]
            rings = set(cols // Nphi)
            assert rings <= {grid32.Nr - 1, grid32.Nr - 2, grid32.Nr - 3}


class TestProblemSpecValidation:
    def test_rejects_nonpositive_f(self, grid32, pq31):
        f = np.ones(grid32.shape)
        f[3, 4] = 0.0
        with pytest.raises(ValueError):
            ProblemSpec(grid=grid32, pq=pq31, f=f)

    def test_rejects_bad_shape(self, grid32, pq31):
        with pytest.raises(ValueError):
            ProblemSpec(grid=grid32, pq=pq31, f=np.ones((3, 3)))


class TestOneDimensional:
    def test_residual_and_jacobian_n1(self):
        spec = cm.CapSpec(theta=0.8, n=1)
        grid = cm.PolarGrid(spec, 16)
        pq = cm.ExponentPair(p=3.0, q=1.0)
        prob = ProblemSpec(grid=grid, pq=pq, f=start_density(grid, pq))
        v = np.log(cm.l_field(grid))
        assert residual(v, prob).max_norm() < 10.0 * grid.max_spacing**2
        J = jacobian(residual(v, prob), prob).toarray()
        eps = 1e-7
        N = grid.size
        flat = v.ravel()
        Jfd = np.empty((N, N))
        for j in range(N):
            vp, vm = flat.copy(), flat.copy()
            vp[j] += eps
            vm[j] -= eps
            Jfd[:, j] = (residual(vp.reshape(grid.shape), prob).full.ravel()
                         - residual(vm.reshape(grid.shape), prob).full.ravel()) / (2 * eps)
        assert np.abs(J - Jfd).max() < 1e-6 * np.abs(J).max()

    def test_newton_solves_n1(self):
        spec = cm.CapSpec(theta=0.8, n=1)
        grid = cm.PolarGrid(spec, 48)
        pq = cm.ExponentPair(p=4.0, q=2.0)
        prob = ProblemSpec(grid=grid, pq=pq, f=start_density(grid, pq))
        v, stage = cm.newton_solve(np.log(cm.l_field(grid)), prob, cm.SolverConfig())
        assert stage.converged
        assert np.abs(np.exp(v) - cm.l_field(grid)).max() < 10.0 * grid.max_spacing**2
