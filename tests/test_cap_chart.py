"""Chart geometry and discrete operator tests.

Expected values are frozen from independent oracles: closed-form calculus for
the gradient/Hessian/normal-derivative examples, scipy quadrature for the
integrals, and ambient inner products for the weight field l.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import capillary_minkowski as cm
from capillary_minkowski import CapSpec, ExponentPair, PolarGrid, cli
from capillary_minkowski.continuation import start_density
from capillary_minkowski.ma_system import (ProblemSpec, jacobian, log_gauss_map_matrix,
                                            residual)

from conftest import smooth_field


THETA = np.pi / 3.0
CONFIG = {"theta": 60.0, "theta_unit": "deg", "p": 3.0, "q": 1.0, "grid": {"Nr": 16, "Nphi": 16},
          "f": {"type": "harmonic", "base": 1.0, "amplitude": 0.2, "m": 2}}


def ambient_nodes(grid):
    """xi = z + cos(theta) e for every node, computed from first principles."""
    R = grid.r[:, None]
    PHI = grid.phi[None, :]
    z = np.stack([np.sin(R) * np.cos(PHI),
                  np.sin(R) * np.sin(PHI),
                  np.broadcast_to(np.cos(R), grid.shape)], axis=-1)
    xi = z.copy()
    xi[..., 2] -= grid.spec.cos_theta
    return xi


class TestLField:
    def test_matches_ambient_inner_product(self, spec, grid32):
        # oracle: sin^2(theta) + cos(theta) <xi, e> with e = -E_3
        xi = ambient_nodes(grid32)
        oracle = spec.sin_theta**2 + spec.cos_theta * (-xi[..., 2])
        l = cm.l_field(grid32)
        assert np.abs(l - oracle).max() < 1e-14

    def test_pole_and_rim_values(self, spec):
        # closed form at r = 0 and r = theta for theta = pi/3
        assert 1.0 - spec.cos_theta * math.cos(0.0) == pytest.approx(0.5)
        assert 1.0 - spec.cos_theta * math.cos(spec.theta) == pytest.approx(0.75)

    def test_rim_node_attains_max(self, spec, grid32):
        l = cm.l_field(grid32)
        assert l.max() == pytest.approx(spec.sin_theta**2, rel=1e-14)
        assert np.all(l[-1] == l.max())

    @given(theta=st.floats(min_value=0.05, max_value=1.5))
    @settings(max_examples=25, deadline=None)
    def test_range_containment(self, theta):
        spec = CapSpec(theta=theta)
        grid = PolarGrid(spec, 8, 6)
        l = cm.l_field(grid)
        assert l.min() >= 1.0 - spec.cos_theta
        assert l.max() <= 1.0 - spec.cos_theta * spec.cos_theta + 1e-15


class TestGrad:
    def test_constant_is_zero(self, grid32):
        g = cm.grad(np.full(grid32.shape, 3.7), grid32)
        assert np.abs(g.comps).max() < 1e-12

    def test_grad_l_closed_form(self, spec):
        # oracle: differentiate l(r) = 1 - cos(theta) cos(r); at r = pi/6 the
        # radial component is cos(pi/3) sin(pi/6) = 0.25 (staggered nodes never
        # hit pi/6 exactly, so interpolate the radial profile there)
        grid = PolarGrid(spec, 33, 12)
        g = cm.grad(cm.l_field(grid), grid)
        exact = spec.cos_theta * np.sin(grid.r)
        assert np.abs(g.comps[0] - exact[:, None]).max() < 5.0 * grid.max_spacing**2
        at_mid = np.interp(np.pi / 6, grid.r, g.comps[0][:, 0])
        assert at_mid == pytest.approx(0.25, abs=1e-4)
        assert np.abs(g.comps[1]).max() < 1e-12

    def test_linearity_power_of_two_exact(self, grid32, spec):
        R, PHI = grid32.mesh()
        f = np.sin(R) * np.cos(PHI) + 0.3 * np.cos(R)
        g1 = cm.grad(2.0 * f, grid32)
        g2 = cm.grad(f, grid32)
        assert np.array_equal(g1.comps, 2.0 * g2.comps)

    def test_linearity_generic_scalar(self, grid32):
        R, PHI = grid32.mesh()
        f = np.sin(R) * np.sin(PHI)
        c = 1.7
        g1 = cm.grad(c * f, grid32)
        g2 = cm.grad(f, grid32)
        np.testing.assert_allclose(g1.comps, c * g2.comps, rtol=1e-12, atol=1e-12)


class TestHessian:
    def test_hessian_of_l(self, spec, grid32):
        # oracle: differentiate l(r) = 1 - cos(theta) cos(r) twice in the chart,
        # giving hess(l) = (1 - l) * id in the frame
        l = cm.l_field(grid32)
        H = cm.hessian(l, grid32)
        tol = 5.0 * grid32.max_spacing**2
        assert np.abs(H.comps[0, 0] - (1.0 - l)).max() < tol
        assert np.abs(H.comps[1, 1] - (1.0 - l)).max() < tol
        assert np.abs(H.comps[0, 1]).max() < tol

    def test_constant_is_zero(self, grid32):
        H = cm.hessian(np.full(grid32.shape, -2.2), grid32)
        assert np.abs(H.comps).max() < 1e-10

    def test_first_harmonic_kernel(self, grid32):
        # restriction of a linear function satisfies hess(f) + f id = 0
        R, PHI = grid32.mesh()
        f = np.sin(R) * np.cos(PHI)
        H = cm.hessian(f, grid32)
        tol = 10.0 * grid32.max_spacing**2
        assert np.abs(H.comps[0, 0] + f).max() < tol
        assert np.abs(H.comps[1, 1] + f).max() < tol
        assert np.abs(H.comps[0, 1]).max() < tol

    def test_offdiagonal_bit_equality(self, grid32):
        R, PHI = grid32.mesh()
        f = np.sin(R) ** 2 * np.cos(2 * PHI) * np.cos(R)
        H = cm.hessian(f, grid32)
        assert np.array_equal(H.comps[0, 1], H.comps[1, 0])


def triangle_amplification(grid):
    """Noise floor as the chart formulas bound it term by term (triangle inequality),
    from the partial-derivative stencils: max over nodes of the row 1-norm bounds
    |d_rr|, |d_phiphi|/sin^2 r + |cot r| |d_r| and (|d_rphi| + |cot r| |d_phi|)/sin r."""

    def row_sums(mat):
        return np.asarray(np.abs(mat).sum(axis=1)).ravel().reshape(grid.shape)

    Dr, Drr = grid.ops.D1, grid.ops.H11
    amp = row_sums(Drr).max()
    if grid.spec.n == 2:
        Dphi = grid._angular_csr([-2, -1, 1, 2],
                                 np.array([1.0, -8.0, 8.0, -1.0]) / (12 * grid.dphi))
        Dphiphi = grid._angular_csr([-2, -1, 0, 1, 2],
                                    np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * grid.dphi**2))
        sin_r = grid.sin_r[:, None]
        cot_r = np.abs(grid.cot_r)[:, None]
        h22 = row_sums(Dphiphi) / sin_r**2 + cot_r * row_sums(Dr)
        h12 = (row_sums(Dr @ Dphi) + cot_r * row_sums(Dphi)) / sin_r
        amp = max(amp, h22.max(), h12.max())
    return float(amp)


def product_form_jacobian(v, prob):
    """The Jacobian as sums of products of diagonal scalings and frame operators,
    with the PDE rows of the rim swapped for the Robin d_r rows."""
    grid, n = prob.grid, prob.grid.spec.n
    ops = grid.ops

    def diag(x):
        return sp.diags(np.ravel(x))

    g = cm.grad(v, grid)
    B = log_gauss_map_matrix(v, grid, g)
    w = (n + 1 - prob.pq.q) / (1.0 + g.norm_sq())
    if n == 2:
        det = B.det()
        B11, B12, B22 = B.comps[0, 0], B.comps[0, 1], B.comps[1, 1]
        g1, g2 = g.comps
        J = (diag(B22 / det) @ ops.H11 - 2.0 * (diag(B12 / det) @ ops.H12)
             + diag(B11 / det) @ ops.H22
             + 2.0 * (diag((B22 * g1 - B12 * g2) / det) @ ops.D1)
             + 2.0 * (diag((B11 * g2 - B12 * g1) / det) @ ops.D2)
             - diag(w * g1) @ ops.D1 - diag(w * g2) @ ops.D2)
    else:
        B11, g1 = B.comps[0, 0], g.comps[0]
        J = diag(1.0 / B11) @ (ops.H11 + 2.0 * (diag(g1) @ ops.D1)) - diag(w * g1) @ ops.D1
    J = J - (prob.pq.p - prob.pq.q) * sp.identity(grid.size)
    interior = np.ones(grid.shape)
    interior[grid.boundary_ring] = 0.0
    return diag(interior) @ J + diag(1.0 - interior) @ ops.D1


class TestFrameOps:
    @pytest.mark.parametrize("n, N, theta", [(2, 16, 0.3), (2, 16, 1.4), (2, 40, 0.3),
                                             (2, 40, 1.4), (1, 16, 0.3), (1, 40, 1.4)])
    def test_noise_floor_matches_triangle_bound(self, n, N, theta):
        # the largest row 1-norm of H11/H12/H22 is attained where the terms of
        # the chart formulas do not cancel, so it equals their term-wise bound
        grid = PolarGrid(CapSpec(theta=theta, n=n), N)
        assert grid.stencil_amplification == pytest.approx(triangle_amplification(grid),
                                                           rel=1e-12)

    def test_grid_construction_builds_no_operators(self):
        prob = cli.build_problem(cli.parse_config(CONFIG))
        assert "ops" not in vars(prob.grid)
        assert "stencil_amplification" not in vars(prob.grid)
        assert prob.grid.ops is prob.grid.ops

    def test_jacobian_fixed_pattern(self):
        # v = log l is axisymmetric (B12 = g2 = 0), so there some entries are
        # zero; the pattern must not follow them
        for n in (1, 2):
            grid = PolarGrid(CapSpec(theta=THETA, n=n), 16)
            pq = ExponentPair(p=3.0, q=1.0)
            prob = ProblemSpec(grid=grid, pq=pq, f=start_density(grid, pq))
            R, PHI = grid.mesh()
            s = np.sin(R) / grid.spec.sin_theta
            v0 = np.log(cm.l_field(grid))
            m = grid.ops.n_interior
            first = None
            for v in (v0, v0 + 0.05 * s**2 * np.cos(2 * PHI) + 0.01 * s**3 * np.sin(3 * PHI)):
                J = jacobian(residual(v, prob), prob)
                assert J.format == "csc"
                if first is None:
                    first = J
                assert np.array_equal(J.indptr, first.indptr)
                assert np.array_equal(J.indices, first.indices)
                ref = product_form_jacobian(v, prob).toarray()
                dense = J.toarray()
                assert np.abs(dense - ref).max() <= 1e-14 * np.abs(ref).max()
                assert np.array_equal(dense[m:], grid.ops.D1.toarray()[m:])

    def test_one_dimensional_has_no_angular_terms(self):
        ops = PolarGrid(CapSpec(theta=THETA, n=1), 16).ops
        assert ops.D2 is None and ops.H12 is None and ops.H22 is None


class TestNormalDerivative:
    def test_l_satisfies_robin(self, spec, grid32):
        # d_r l (theta) = cos(theta) sin(theta) = cot(theta) l(theta)
        l = cm.l_field(grid32)
        nd = cm.normal_derivative(l, grid32)
        target = spec.cot_theta * l[-1]
        assert np.abs(nd - target).max() < 5.0 * grid32.dr**2

    def test_constant(self, grid32):
        assert np.abs(cm.normal_derivative(np.full(grid32.shape, 4.0), grid32)).max() < 1e-12

    def test_cos_r(self, spec, grid32):
        R, _ = grid32.mesh()
        nd = cm.normal_derivative(np.cos(R), grid32)
        assert np.abs(nd + spec.sin_theta).max() < 5.0 * grid32.dr**2


class TestIntegrate:
    def test_unit_field_cap_area(self, spec, grid32):
        # weights carry exact cell integrals of the area element
        got = cm.integrate(np.ones(grid32.shape), grid32)
        assert got == pytest.approx(2.0 * np.pi * (1.0 - spec.cos_theta), rel=1e-12)

    def test_zero_field(self, grid32):
        assert cm.integrate(np.zeros(grid32.shape), grid32) == 0.0

    def test_l_against_quadrature_oracle(self, spec, grid32):
        oracle, _ = quad(lambda r: (1.0 - spec.cos_theta * np.cos(r)) * np.sin(r),
                         0.0, spec.theta)
        oracle *= 2.0 * np.pi
        got = cm.integrate(cm.l_field(grid32), grid32)
        assert got == pytest.approx(oracle, abs=5.0 * grid32.max_spacing**2)

    def test_weights_positive(self, grid32):
        assert np.all(grid32.weights > 0.0)


class TestRefinement:
    """Order >= 2 in max norm for smooth closed-form fields under doubling."""

    @staticmethod
    def _errors(spec, N):
        grid = PolarGrid(spec, N, N)
        R, PHI = grid.mesh()
        f = np.sin(R) * np.cos(PHI)  # worst case near the pole (mode 1)
        g = cm.grad(f, grid)
        e_grad = max(np.abs(g.comps[0] - np.cos(R) * np.cos(PHI)).max(),
                     np.abs(g.comps[1] + np.sin(PHI)).max())
        H = cm.hessian(f, grid)
        e_hess = max(np.abs(H.comps[0, 0] + f).max(),
                     np.abs(H.comps[0, 1]).max(),
                     np.abs(H.comps[1, 1] + f).max())
        nd = cm.normal_derivative(np.cos(R) + f, grid)
        exact = -np.sin(spec.theta) + np.cos(spec.theta) * np.cos(grid.phi)
        e_nd = np.abs(nd - exact).max()
        return np.array([e_grad, e_hess, e_nd])

    def test_orders(self, spec):
        errs = [self._errors(spec, N) for N in (16, 32, 64)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert orders.min() >= 2.0 - 0.1


class TestGridInvariants:
    def test_rim_node_exact(self, spec, grid32):
        assert grid32.r[-1] == spec.theta

    def test_pole_map_involution(self, grid32):
        pm = grid32.pole_map
        assert np.array_equal(pm[pm], np.arange(grid32.Nphi))

    def test_weight_sum_matches_area(self, spec):
        for N in (16, 32):
            grid = PolarGrid(spec, N, N)
            assert grid.weights.sum() == pytest.approx(spec.cap_area(), rel=1e-12)

    def test_validation(self, spec):
        with pytest.raises(ValueError):
            PolarGrid(spec, 4, 16)
        with pytest.raises(ValueError):
            PolarGrid(spec, 16, 7)
        with pytest.raises(ValueError):
            CapSpec(theta=np.pi / 2)
        with pytest.raises(ValueError):
            CapSpec(theta=0.5, n=0)


class TestOneDimensional:
    def test_grid_and_ops(self):
        spec = CapSpec(theta=0.9, n=1)
        grid = PolarGrid(spec, 40)
        assert grid.Nphi == 1
        f = np.cos(grid.r)[:, None]
        g = cm.grad(f, grid)
        assert g.comps.shape[0] == 1
        assert np.abs(g.comps[0] + np.sin(grid.r)[:, None]).max() < 5e-3
        H = cm.hessian(f, grid)
        assert H.comps.shape[:2] == (1, 1)
        assert np.abs(H.comps[0, 0] + f).max() < 5e-3

    def test_arc_length_weights(self):
        spec = CapSpec(theta=0.9, n=1)
        grid = PolarGrid(spec, 40)
        assert cm.integrate(np.ones(grid.shape), grid) == pytest.approx(2 * 0.9, rel=1e-12)


class TestResample:
    """Grid-to-grid interpolation: spectral in phi, cubic spline across the pole in r."""

    @staticmethod
    def _trig(grid):
        R, PHI = grid.mesh()
        return np.cos(R) * (1.0 + 0.5 * np.sin(PHI) + 0.3 * np.cos(7 * PHI)
                            - 0.2 * np.sin(15 * PHI) + 0.1 * np.cos(16 * PHI))

    def test_trig_polynomial_both_directions(self, spec):
        # same rings, so only the phi transform acts; cos(16 phi) is the 32-node Nyquist mode
        fine, coarse = PolarGrid(spec, 32, 64), PolarGrid(spec, 32, 32)
        u_fine, u_coarse = self._trig(fine), self._trig(coarse)
        assert np.abs(cm.resample(u_fine, fine, coarse) - u_coarse).max() < 1e-13
        assert np.abs(cm.resample(u_coarse, coarse, fine) - u_fine).max() < 1e-13

    def test_mode_one_crosses_pole_fourth_order(self, spec):
        # sin r cos phi flips sign across the pole; a wrong closure leaves an O(1) kink
        dst = PolarGrid(spec, 128, 128)
        R, PHI = dst.mesh()
        errs, drs = [], []
        for N in (16, 32):
            src = PolarGrid(spec, N, N)
            Rs, PHIs = src.mesh()
            out = cm.resample(np.sin(Rs) * np.cos(PHIs), src, dst)
            errs.append(np.abs(out - np.sin(R) * np.cos(PHI)).max())
            drs.append(src.dr)
        assert all(e < 0.1 * dr**4 for e, dr in zip(errs, drs))
        assert np.log2(errs[0] / errs[1]) >= 3.5

    def test_smooth_field_order(self, spec):
        dst = PolarGrid(spec, 128, 128)
        exact = smooth_field(dst, np.random.default_rng(7), normalize=False)
        errs = []
        for N in (16, 32, 64):
            src = PolarGrid(spec, N, N)
            u = smooth_field(src, np.random.default_rng(7), normalize=False)
            errs.append(np.abs(cm.resample(u, src, dst) - exact).max())
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert orders.min() >= 3.5

    def test_identical_grid_returns_field(self, spec):
        grid = PolarGrid(spec, 24, 24)
        u = smooth_field(grid, np.random.default_rng(3))
        assert np.abs(cm.resample(u, grid, PolarGrid(spec, 24, 24)) - u).max() < 1e-14

    def test_rejects_other_cap_or_shape(self, spec):
        grid = PolarGrid(spec, 16, 16)
        with pytest.raises(ValueError):
            cm.resample(np.zeros(grid.shape), grid, PolarGrid(CapSpec(theta=0.5), 16, 16))
        with pytest.raises(ValueError):
            cm.resample(np.zeros((16, 8)), grid, grid)
