"""Chart geometry and discrete operator tests.

Expected values are frozen from independent oracles: closed-form calculus for
the gradient/Hessian/normal-derivative examples, scipy quadrature for the
integrals, and ambient inner products for the weight field l.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

import capillary_minkowski as cm
from capillary_minkowski import CapSpec, ExponentPair, PolarGrid, cli
from capillary_minkowski import cap_chart as chart
from capillary_minkowski.cap_chart import _expand, not_a_knot
from capillary_minkowski.continuation import start_density
from capillary_minkowski.ma_system import (ProblemSpec, jacobian, jacobian_coefficients,
                                            log_gauss_map_matrix, residual)

from conftest import smooth_field


THETA = np.pi / 3.0
MIXED = ("D2", "H12", "H22")  # the operators that are formulas in the tables
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


def product_form_ops(grid):
    """Reference frame operators, assembled without the stencil tables: per-ring
    COO rows for d_r, d_rr, d_phi and d_phiphi, then the chart formulas as sparse
    products of diagonal scalings with them, sums and the product d_r d_phi.
    Also returns the identity, the two angular stencils as "Dphi" and
    "Dphiphi", and d_r d_phi as "D1Dphi"."""
    Nr, Nphi, dr, N = grid.Nr, grid.Nphi, grid.dr, grid.size
    k = np.arange(Nphi)

    def rows_to_csr(rows):  # node (i, k) gets coeff at (ring, k + shift)
        ri, ci, data = [], [], []
        for i, row in enumerate(rows):
            for ring, shift, coeff in row:
                ri.append(i * Nphi + k)
                ci.append(ring * Nphi + (k + shift) % Nphi)
                data.append(np.full(Nphi, coeff))
        return sp.coo_matrix((np.concatenate(data), (np.concatenate(ri), np.concatenate(ci))),
                             shape=(N, N)).tocsr()

    def radial_csr(stencil):  # rings below 0 are ghosts across the pole
        half = int(grid.pole_map[0])
        return rows_to_csr([[(i + o, 0, c) if i + o >= 0 else (-1 - i - o, half, c)
                             for o, c in stencil(i)] for i in range(Nr)])

    def angular_csr(offsets, coeffs):
        return rows_to_csr([[(i, off, c) for off, c in zip(offsets, coeffs)] for i in range(Nr)])

    def d_r(i):
        if i == Nr - 1:
            return [(-2, 1.0 / (2 * dr)), (-1, -4.0 / (2 * dr)), (0, 3.0 / (2 * dr))]
        if grid.r[i] <= 0.5 * grid.spec.theta and i <= Nr - 3:
            return [(o, c / (12 * dr)) for o, c in [(-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)]]
        return [(-1, -1.0 / (2 * dr)), (1, 1.0 / (2 * dr))]

    def d_rr(i):
        st = [(-3, -1.0), (-2, 4.0), (-1, -5.0), (0, 2.0)] if i == Nr - 1 \
            else [(-1, 1.0), (0, -2.0), (1, 1.0)]
        return [(o, c / dr**2) for o, c in st]

    def diag(x):
        return sp.diags(np.repeat(x, Nphi))

    ops = {"identity": sp.identity(N, format="csr"), "D1": radial_csr(d_r), "H11": radial_csr(d_rr)}
    if grid.spec.n == 2:
        Dr = ops["D1"]
        Dphi = angular_csr([-2, -1, 1, 2], np.array([1.0, -8.0, 8.0, -1.0]) / (12 * grid.dphi))
        Dphiphi = angular_csr([-2, -1, 0, 1, 2],
                              np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * grid.dphi**2))
        inv_sin, cot, D1Dphi = 1.0 / grid.sin_r, grid.cot_r, (Dr @ Dphi).tocsr()
        ops.update(Dphi=Dphi, Dphiphi=Dphiphi, D1Dphi=D1Dphi, D2=diag(inv_sin) @ Dphi,
                   H12=diag(inv_sin) @ (D1Dphi - diag(cot) @ Dphi),
                   H22=diag(inv_sin**2) @ Dphiphi + diag(cot) @ Dr)
        for name in ("D1Dphi", "D2", "H12", "H22"):
            # products leave column indices unsorted; sort them (no duplicates)
            ops[name].sum_duplicates()
    return ops


def product_form_symbols(ref, grid):
    """Mode symbols of each table read off row (i, 0) of the reference operators,
    on every ring: {name: (row ring * Nr + column ring, symbols (modes, entries))}."""
    Nr, Nphi = grid.shape
    jk = np.outer(np.arange(Nphi), np.arange(Nphi // 2 + 1)) % Nphi
    phases = np.exp(2j * np.pi / Nphi * jk)

    def symbols(op, rings):
        ent = op[rings * Nphi].tocoo()
        pos, inv = np.unique(rings[ent.row] * Nr + ent.col // Nphi, return_inverse=True)
        stencil = sp.csr_matrix((ent.data, (inv, ent.col % Nphi)), shape=(pos.size, Nphi))
        return pos, (stencil @ phases).T

    rings = np.arange(Nr)
    return {name: symbols(op, rings) for name, op in ref.items() if name not in MIXED}


def mode_symbols(grid):
    """``FrameOps._modes`` in the layout of ``product_form_symbols``."""
    (brow, bcol), (kl, ku), terms = grid.ops._modes
    key = (brow - kl - ku + bcol) * grid.Nr + bcol  # band storage back to (row, col)
    return {name: (key[slots], sym) for name, (slots, _, sym) in terms.items()}


def exact_amplification(grid):
    """The largest row 1-norm of the product form's H11, H12 and H22."""
    ref = product_form_ops(grid)
    return float(max(abs(ref[name]).sum(axis=1).max() for name in ("H11", "H12", "H22")
                     if name in ref))


def product_form_jacobian(v, prob):
    """The Jacobian as sums of products of diagonal scalings and frame operators,
    with the PDE rows of the rim swapped for the Robin d_r rows."""
    grid, n = prob.grid, prob.grid.spec.n
    ops = product_form_ops(grid)

    def diag(x):
        return sp.diags(np.ravel(x))

    g = cm.grad(v, grid)
    B = log_gauss_map_matrix(g, cm.hessian(v, grid))
    w = (n + 1 - prob.pq.q) / (1.0 + g.norm_sq())
    if n == 2:
        det = B.det()
        B11, B12, B22 = B.comps[0, 0], B.comps[0, 1], B.comps[1, 1]
        g1, g2 = g.comps
        J = (diag(B22 / det) @ ops["H11"] - 2.0 * (diag(B12 / det) @ ops["H12"])
             + diag(B11 / det) @ ops["H22"]
             + 2.0 * (diag((B22 * g1 - B12 * g2) / det) @ ops["D1"])
             + 2.0 * (diag((B11 * g2 - B12 * g1) / det) @ ops["D2"])
             - diag(w * g1) @ ops["D1"] - diag(w * g2) @ ops["D2"])
    else:
        B11, g1 = B.comps[0, 0], g.comps[0]
        J = diag(1.0 / B11) @ (ops["H11"] + 2.0 * (diag(g1) @ ops["D1"])) - diag(w * g1) @ ops["D1"]
    J = J - (prob.pq.p - prob.pq.q) * sp.identity(grid.size)
    interior = np.ones(grid.shape)
    interior[grid.boundary_ring] = 0.0
    return diag(interior) @ J + diag(1.0 - interior) @ ops["D1"]


class TestFrameOps:
    @pytest.mark.parametrize("n, N, theta", [(2, 16, 0.3), (2, 16, 1.4), (2, 40, 0.3),
                                             (2, 40, 1.4), (1, 16, 0.3), (1, 40, 1.4)])
    def test_noise_floor_matches_triangle_bound(self, n, N, theta):
        # stencil_amplification bounds the formulas' terms one by one (triangle
        # inequality), so it is not below the largest row 1-norm of the product
        # form's H11/H12/H22, up to the rounding of the two sums (a few ulp);
        # that norm is attained where the terms do not overlap, so the bound
        # is also tight
        grid = PolarGrid(CapSpec(theta=theta, n=n), N)
        exact = exact_amplification(grid)
        eps = np.finfo(float).eps
        assert exact * (1 - 4 * eps) <= grid.stencil_amplification <= exact * (1 + 1e-12)

    @pytest.mark.parametrize("theta", [0.3, 1.047, 1.4])
    @pytest.mark.parametrize("n, N", [(2, 6), (2, 8), (2, 16), (2, 48), (2, 128),
                                      (1, 16), (1, 40)])
    def test_tables_match_product_form(self, n, N, theta):
        # the tables sum entries in the order the sparse products do and drop
        # the same exact zeros, so every table expanded over phi (D1Dphi too,
        # against the sorted d_r d_phi product), and every matrix FrameOps
        # holds, is equal to the product form bit for bit.  The D2, H12 and
        # H22 that apply gives sum the same terms in another order, and the
        # FFT gives the mode symbols to roundoff
        grid = PolarGrid(CapSpec(theta=theta, n=n), N)
        ref = product_form_ops(grid)
        ops = grid.ops
        assert set(ops.stencils) == set(ref) - set(MIXED)
        for name, t in ops.stencils.items():
            op = _expand(t, grid.Nr, grid.Nphi, t.weight[:, None])
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(op, attr), getattr(ref[name], attr)), (name, attr)
        for name in ("D1", "H11", "Dphi", "Dphiphi"):
            op = getattr(ops, name)
            assert (op is None) == (name not in ref), name
            for attr in ("indptr", "indices", "data") if op is not None else ():
                assert np.array_equal(getattr(op, attr), getattr(ref[name], attr)), (name, attr)
        if n == 2:
            for x in np.random.default_rng(N).standard_normal((3, grid.size)):
                for name, got in zip(MIXED, ops.apply(x, *MIXED)):
                    want = ref[name] @ x
                    assert np.abs(got.ravel() - want).max() <= 1e-14 * np.abs(want).max(), name
        got, want = mode_symbols(grid), product_form_symbols(ref, grid)
        assert got.keys() == want.keys()
        for name, (pos, sym) in want.items():
            assert np.array_equal(got[name][0], pos), name
            assert np.abs(got[name][1] - sym).max() <= 1e-15 * np.abs(sym).max(), name

    @pytest.mark.parametrize("Nphi", [6, 10, 26, 48])
    @pytest.mark.parametrize("theta_deg", [10.0, 85.0])
    def test_composed_pole_rows_match_product_form(self, Nphi, theta_deg):
        # rings 0 and 1 read ghost nodes half a turn away through D1, which the
        # composition applies to d_phi u; Nphi = 6, 10, 26 are 2 mod 4 (the
        # ghost shift Nphi/2 is odd) and 48 is 0 mod 4.  Near the pole 1/sin r
        # and cot r are largest, so roundoff in the composition shows there first
        grid = PolarGrid(CapSpec(theta=math.radians(theta_deg)), 16, Nphi)
        ref = product_form_ops(grid)
        rows = slice(0, 3 * Nphi)  # rings 0-2
        for x in np.random.default_rng(Nphi).standard_normal((3, grid.size)):
            for name, got in zip(("H12", "H22"), grid.ops.apply(x, "H12", "H22")):
                want = (ref[name] @ x)[rows]
                assert np.abs(got.ravel()[rows] - want).max() <= 1e-14 * np.abs(want).max(), name

    def test_ghost_columns_cancel_exactly_at_six_angles(self):
        # at Nphi = 6 the ghosts half a turn away meet the regular columns of
        # d_r d_phi on rings 0 and 1.  On ring 1 the ghosts of ring 0 meet the
        # regular ring 0 at all four shifts, and two of those pairs sum to
        # exactly 0.0: the D1Dphi table drops them, so ring 1 holds 10 entries
        t = PolarGrid(CapSpec(theta=THETA), 6).ops.stencils["D1Dphi"]
        assert list(np.bincount(t.ring)[:3]) == [12, 10, 16]
        assert sorted(t.shift[(t.ring == 1) & (t.src == 0)]) == [1, 5]

    def test_frame_ops_hold_no_mixed_matrix(self):
        # D2, H12 and H22 are compositions: after a residual, a Jacobian product
        # and a mode system, the sparse matrices FrameOps holds store no more
        # entries than identity, D1, H11, Dphi (4 per node) and Dphiphi (5 per
        # node).  A merged H12 would add four d_r d_phi entries per d_r entry
        grid = PolarGrid(CapSpec(theta=THETA), 128)
        pq = ExponentPair(p=3.0, q=1.0)
        prob = ProblemSpec(grid=grid, pq=pq, f=start_density(grid, pq))
        R, PHI = grid.mesh()
        s = np.sin(R) / grid.spec.sin_theta
        v = np.log(cm.l_field(grid)) + 0.05 * s**2 * np.cos(2 * PHI)
        coeffs = jacobian_coefficients(residual(v, prob), prob)
        grid.ops.combination_product(**coeffs)(v)
        grid.ops.mode_system(**coeffs)
        ops = grid.ops
        held = sum(m.nnz for m in vars(ops).values() if sp.issparse(m))
        radial = sum(ops.stencils[name].weight.size for name in ("identity", "D1", "H11"))
        assert held <= radial * grid.Nphi + (4 + 5) * grid.size

    def test_grid_construction_builds_no_operators(self):
        prob = cli.build_problem(cli.parse_config(CONFIG))
        assert "ops" not in vars(prob.grid)
        assert "stencil_amplification" not in vars(prob.grid)
        assert prob.grid.ops is prob.grid.ops

    def test_jacobian_fixed_pattern(self):
        # v = log l is axisymmetric (B12 = g2 = 0), so there some entries are
        # zero; the pattern must not follow them.  It is every operator's and
        # the identity's entries on every row, read off the product form as a
        # sum of absolute values, so that nothing cancels (at Nphi = 6 the ghost
        # columns of d_r d_phi do cancel within D1Dphi itself).  The rim rows hold D1's
        # values; the other terms' rim entries are stored zeros
        for n, N in ((2, 6), (2, 16), (2, 48), (1, 16)):
            grid = PolarGrid(CapSpec(theta=THETA, n=n), N)
            pq = ExponentPair(p=3.0, q=1.0)
            prob = ProblemSpec(grid=grid, pq=pq, f=start_density(grid, pq))
            R, PHI = grid.mesh()
            s = np.sin(R) / grid.spec.sin_theta
            v0 = np.log(cm.l_field(grid))
            m = grid.boundary_ring * grid.Nphi
            ref_ops = product_form_ops(grid)
            pattern = sum(abs(op) for name, op in ref_ops.items()
                          if not name.startswith("Dphi")).tocsc()
            for v in (v0, v0 + 0.05 * s**2 * np.cos(2 * PHI) + 0.01 * s**3 * np.sin(3 * PHI)):
                J = jacobian(residual(v, prob), prob)
                assert J.format == "csc"
                assert np.array_equal(J.indptr, pattern.indptr), (n, N)
                assert np.array_equal(J.indices, pattern.indices), (n, N)
                ref = product_form_jacobian(v, prob)
                assert abs(J - ref).max() <= 1e-14 * abs(ref).max()
                assert (J.tocsr()[m:] != grid.ops.D1[m:]).nnz == 0

    @pytest.mark.parametrize("n, N, theta_deg", [(2, N, t) for N in (12, 48, 96)
                                                 for t in (10.0, 60.0, 85.0)] + [(1, 40, 60.0)])
    def test_robin_product_matches_robin_system(self, n, N, theta_deg):
        # the matrix-free product sums the same terms as the assembled
        # combination, in another order
        grid = PolarGrid(CapSpec(theta=math.radians(theta_deg), n=n), N)
        pq = ExponentPair(p=3.0, q=1.0)
        prob = ProblemSpec(grid=grid, pq=pq, f=start_density(grid, pq))
        R, PHI = grid.mesh()
        s = np.sin(R) / grid.spec.sin_theta
        v0 = np.log(cm.l_field(grid))
        rng = np.random.default_rng(N)
        for v in (v0, v0 + 0.05 * s**2 * np.cos(2 * PHI) + 0.01 * s**3 * np.sin(3 * PHI)):
            coeffs = jacobian_coefficients(residual(v, prob), prob)
            apply = grid.ops.combination_product(**coeffs)
            J = grid.ops.combination(**coeffs)
            for x in rng.standard_normal((3, grid.size)):
                want = J @ x
                assert np.abs(apply(x) - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n, N", [(2, 16), (2, 48), (1, 16)])
    def test_product_rim_rows_are_d1_exactly(self, n, N):
        # jacobian_coefficients gives the rim rows D1 with coefficient 1 and
        # every other term 0, so the product's rim rows are D1 x bit for bit
        grid = PolarGrid(CapSpec(theta=THETA, n=n), N)
        pq = ExponentPair(p=3.0, q=1.0)
        prob = ProblemSpec(grid=grid, pq=pq, f=start_density(grid, pq))
        R, PHI = grid.mesh()
        s = np.sin(R) / grid.spec.sin_theta
        v = np.log(cm.l_field(grid)) + 0.05 * s**2 * np.cos(2 * PHI)
        apply = grid.ops.combination_product(**jacobian_coefficients(residual(v, prob), prob))
        m = grid.boundary_ring * grid.Nphi
        for x in np.random.default_rng(N).standard_normal((3, grid.size)):
            assert np.array_equal(apply(x)[m:], grid.ops.D1[m:] @ x)

    @pytest.mark.parametrize("N", [48, 64])
    @pytest.mark.parametrize("theta_deg", [10.0, 60.0, 85.0])
    def test_mode_system_inverts_jacobian_at_axisymmetric_v(self, N, theta_deg):
        # at an axisymmetric v the Jacobian's coefficients are constant on each
        # ring, so the ring-mean mode blocks invert it; without the pole factor
        # (-1)^k, read off ghost nodes half a turn away, they do not.  The
        # coefficients are replaced by their ring means because the residual's
        # sums leave B12 and g2 at roundoff, which 1/sin r amplifies near the
        # pole (to 8e-8 in this check at 64^2, theta = 10 deg)
        grid = PolarGrid(CapSpec(theta=math.radians(theta_deg)), N)
        pq = ExponentPair(p=3.0, q=1.0)
        prob = ProblemSpec(grid=grid, pq=pq, f=start_density(grid, pq))
        R, _ = grid.mesh()
        v = np.log(cm.l_field(grid)) + 0.05 * (np.sin(R) / grid.spec.sin_theta) ** 2
        coeffs = jacobian_coefficients(residual(v, prob), prob)
        ring = {name: np.repeat(c.mean(axis=1, keepdims=True), N, axis=1)
                for name, c in coeffs.items()}
        x = np.random.default_rng(N).standard_normal(grid.size)
        Jx = grid.ops.combination(**ring) @ x
        err = np.linalg.norm(grid.ops.mode_system(**coeffs).solve(Jx) - x)
        assert err <= 1e-8 * np.linalg.norm(x)
        no_pole_factor = PolarGrid(grid.spec, N)
        no_pole_factor.pole_map = np.arange(N)  # ghosts at (r, phi) instead of (r, phi + pi)
        err = np.linalg.norm(no_pole_factor.ops.mode_system(**coeffs).solve(Jx) - x)
        assert err > 1e-4 * np.linalg.norm(x)
        assert no_pole_factor.ops.layout is not grid.ops.layout

    def test_one_dimensional_has_no_angular_terms(self):
        ops = PolarGrid(CapSpec(theta=THETA, n=1), 16).ops
        assert set(ops.stencils) == {"identity", "D1", "H11"}
        assert ops.Dphi is None and ops.Dphiphi is None and ops.mixed == {}

    @pytest.mark.parametrize("n, Nr, Nphi, theta_deg", [(2, 6, 6, 30.0), (2, 16, 6, 85.0),
                                                        (2, 16, 10, 5.0), (2, 24, 24, 60.0),
                                                        (1, 6, 1, 30.0), (1, 16, 1, 85.0)])
    def test_each_term_and_pair_equals_full_pass(self, n, Nr, Nphi, theta_deg):
        # apply computes only the terms asked for, and works in place on some of
        # them: a term asked alone, or with any other, is the same term of the
        # five-term pass (two terms for n = 1) bit for bit
        grid = PolarGrid(CapSpec(theta=math.radians(theta_deg), n=n), Nr, Nphi)
        names = ("D1", "D2", "H11", "H12", "H22") if n == 2 else ("D1", "H11")
        for x in np.random.default_rng(Nr * Nphi).standard_normal((2, grid.size)):
            full = dict(zip(names, grid.ops.apply(x, *names)))
            subsets = [(a,) for a in names] + list(itertools.permutations(names, 2))
            for subset in subsets:
                for name, got in zip(subset, grid.ops.apply(x, *subset)):
                    assert np.array_equal(got, full[name]), (subset, name)


def operator_outputs(grid):
    """Every array a grid's operators give: the FrameOps matrices, the tables,
    a combination and a mode solve at a non-axisymmetric v, and the noise floor."""
    ops, out = grid.ops, {"amplification": np.array(grid.stencil_amplification)}
    for name in ("D1", "H11", "Dphi", "Dphiphi"):
        for attr in ("data", "indices", "indptr") if getattr(ops, name) is not None else ():
            out[f"{name}.{attr}"] = getattr(getattr(ops, name), attr)
    for name, t in ops.stencils.items():
        out.update({f"{name}.{field}": a for field, a in zip(t._fields, t)})
    pq = ExponentPair(p=3.0, q=1.0)
    prob = ProblemSpec(grid=grid, pq=pq, f=start_density(grid, pq))
    R, PHI = grid.mesh()
    s = np.sin(R) / grid.spec.sin_theta
    v = np.log(cm.l_field(grid)) + 0.05 * s**2 * np.cos(2 * PHI) + 0.02 * s**3
    coeffs = jacobian_coefficients(residual(v, prob), prob)
    J = ops.combination(**coeffs)
    out.update({f"J.{attr}": getattr(J, attr) for attr in ("data", "indices", "indptr")})
    out["mode solve"] = ops.mode_system(**coeffs).solve(
        np.random.default_rng(grid.size).standard_normal(grid.size))
    return out


class TestShapeLayout:
    """The tables' integer structure is shared by every grid of one shape and
    ghost shift (``cap_chart.shape_layout``); only the weights are a grid's own."""

    @pytest.mark.parametrize("n, Nr, Nphi", [(2, 6, 6), (2, 8, 8), (2, 16, 10), (2, 25, 24),
                                             (2, 27, 26), (2, 48, 48), (1, 16, 1), (1, 27, 1),
                                             (1, 48, 1)])
    def test_grids_of_one_shape_share_it_and_equal_a_cold_build(self, n, Nr, Nphi):
        # grids of neighbouring shapes come first, so a layout keyed by less
        # than the shape would hand one of theirs to the grids under test.  The
        # first grid of the shape gives the layout its tables, and every grid
        # at 21 theta from 1 to 89 degrees has those tables exactly (at 6^2
        # and 8^2 the ghost columns of D1Dphi merge with regular ones)
        chart.shape_layout.cache_clear()
        for other in ((Nr, 1), (Nr, Nphi + 2 if n == 2 else 6), (Nr + 2, Nphi),
                      (Nr - 2 if Nr > 6 else Nr + 4, Nphi)):
            PolarGrid(CapSpec(theta=1.047, n=1 if other[1] == 1 else 2), *other).ops._modes
        warm = [PolarGrid(CapSpec(theta=theta, n=n), Nr, Nphi)
                for theta in np.radians(np.linspace(1.0, 89.0, 21))]
        got = [operator_outputs(grid) for grid in warm]
        first = warm[0].ops
        for grid in warm:
            assert grid.ops.layout is first.layout
            assert grid.ops.stencils.keys() == first.layout.tables.keys()
            for name, t in grid.ops.stencils.items():
                for got_a, want in zip(t[:3], first.layout.tables[name][:3]):
                    assert np.array_equal(got_a, want), (grid.spec.theta, name)
            for name in ("D1", "H11", "Dphi", "Dphiphi"):
                if getattr(first, name) is not None:
                    assert getattr(grid.ops, name).indices is getattr(first, name).indices, name
                    assert getattr(grid.ops, name).indptr is getattr(first, name).indptr, name
        for grid, warm_out in zip(warm, got):
            chart.shape_layout.cache_clear()
            cold = operator_outputs(PolarGrid(grid.spec, Nr, Nphi))
            assert cold.keys() == warm_out.keys()
            for key, value in cold.items():
                assert value.dtype == warm_out[key].dtype, key
                assert value.tobytes() == warm_out[key].tobytes(), (grid.spec.theta, key)

    def test_a_grid_unlike_its_layout_raises(self, monkeypatch):
        # the layout takes its tables from the first grid of the shape; a later
        # grid whose tables hold other entry counts is refused, not laid out
        chart.shape_layout.cache_clear()
        PolarGrid(CapSpec(theta=0.3), 16).ops
        real = PolarGrid._stencil
        monkeypatch.setattr(PolarGrid, "_stencil",
                            lambda grid, *a: chart.Stencil(*(x[1:] for x in real(grid, *a))))
        with pytest.raises(RuntimeError, match="layout"):
            PolarGrid(CapSpec(theta=1.4), 16).ops

    @pytest.mark.parametrize("n, Nr, Nphi", [(2, N, N) for N in (12, 16, 20, 24, 32, 40)]
                             + [(2, 25, 24), (2, 16, 40), (2, 40, 16), (1, 16, 1), (1, 64, 1)])
    def test_order_is_superlus_for_every_jacobian_of_the_shape(self, n, Nr, Nphi):
        # SuperLU orders each Newton step's J itself, by minimum degree on the
        # pattern of J^T + J; every Jacobian of the shape, at any theta and v,
        # is stored on the shape's one pattern, so it gets the same order
        orders = []
        for theta_deg in (5.0, 45.0, 85.0):
            grid = PolarGrid(CapSpec(theta=math.radians(theta_deg), n=n), Nr, Nphi)
            pq = ExponentPair(p=3.0, q=1.0)
            prob = ProblemSpec(grid=grid, pq=pq, f=start_density(grid, pq))
            R, PHI = grid.mesh()
            s = np.sin(R) / grid.spec.sin_theta
            v = np.log(cm.l_field(grid)) + 0.05 * s**2 * np.cos(2 * PHI) + 0.02 * s**3
            J = jacobian(residual(v, prob), prob)
            assert J.indices is grid.ops.layout.union[2].indices
            lu = spla.splu(J, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
            orders.append(lu.perm_c.copy())
        assert all(np.array_equal(o, orders[0]) for o in orders)

    def test_shared_arrays_are_read_only(self):
        grid = PolarGrid(CapSpec(theta=THETA), 16, 10)
        operator_outputs(grid)
        layout = grid.ops.layout
        band, _, rows = layout.modes
        slots, _, pattern = layout.union
        shared = [*band, *(a for arrays in rows.values() for a in arrays), *slots.values(),
                  pattern.data, pattern.indices, pattern.indptr]
        for matrix in layout.csr.values():
            shared += [matrix.data, matrix.indices, matrix.indptr]
        shared += [a for order in layout._merges.values() for a in order]
        shared += [a for t in layout.tables.values() for a in t[:3]]
        for name in ("D1", "H11", "Dphi", "Dphiphi"):
            shared += [getattr(grid.ops, name).indices, getattr(grid.ops, name).indptr]
        for a in shared:
            with pytest.raises(ValueError):
                a[0] = a[0]

    def test_cache_holds_at_most_the_bound(self):
        chart.shape_layout.cache_clear()
        shapes = [(N, N) for N in range(6, 6 + 2 * (chart.LAYOUT_SHAPES + 3), 2)]
        for Nr, Nphi in shapes:
            PolarGrid(CapSpec(theta=THETA), Nr, Nphi).ops
            assert chart.shape_layout.cache_info().currsize <= chart.LAYOUT_SHAPES
        assert chart.shape_layout.cache_info().currsize == chart.LAYOUT_SHAPES
        hits = chart.shape_layout.cache_info().hits
        PolarGrid(CapSpec(theta=0.3), *shapes[-1]).ops  # the latest shape is still kept
        assert chart.shape_layout.cache_info().misses == len(shapes)
        assert chart.shape_layout.cache_info().hits > hits


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

    @pytest.mark.parametrize("Nr, Nphi", [(16.5, 16), (16, 16.5), (True, 16), (16, np.nan),
                                          (16, np.inf)])
    def test_non_integral_counts_rejected(self, spec, Nr, Nphi):
        # a fractional Nr used to build Nr + 1 radii on a grid of shape (Nr, Nphi)
        with pytest.raises(ValueError, match="must be an integer"):
            PolarGrid(spec, Nr, Nphi)

    def test_integral_float_counts_accepted(self, spec):
        grid = PolarGrid(spec, 16.0, 12.0)
        assert (grid.Nr, grid.Nphi) == (16, 12) and type(grid.Nr) is int
        assert grid.r.size == 16 and cm.l_field(grid).shape == (16, 12)
        assert PolarGrid(CapSpec(theta=0.5, n=1), 16.0).Nphi == 1
        with pytest.raises(ValueError, match="must be an integer"):
            PolarGrid(CapSpec(theta=0.5, n=1), 16, True)


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


class TestNotAKnot:
    """The package's spline against scipy's CubicSpline, its reference, bit for bit."""

    @staticmethod
    def _check(x, y):
        # every knot, random points inside, and points beyond both ends
        rng = np.random.default_rng(x.size)
        span = x[-1] - x[0]
        xi = np.concatenate([x, rng.uniform(x[0], x[-1], 40),
                             [x[0] - span, x[0] - 1e-3, x[-1] + 1e-3, x[-1] + span]])
        np.testing.assert_array_equal(not_a_knot(x, y, xi), CubicSpline(x, y, axis=0)(xi))

    @pytest.mark.parametrize("n", [4, 5, 12, 64])
    def test_uniform_knots_1d(self, n):
        x = np.linspace(0.0, THETA, n)
        self._check(x, np.cos(3 * x) + np.random.default_rng(n).normal(size=n))

    @pytest.mark.parametrize("n", [4, 7, 30])
    def test_non_uniform_knots_2d(self, n):
        rng = np.random.default_rng(n)
        x = np.sort(rng.uniform(-1.0, 2.0, n))
        self._check(x, rng.normal(size=(n, 5)))

    @pytest.mark.parametrize("Nr", [6, 20, 32])
    def test_resample_diameter_knots(self, spec, Nr):
        # the 2 Nr knots resample runs its splines through: -r_{Nr-1} .. r_{Nr-1}
        grid = PolarGrid(spec, Nr, 8)
        x = np.concatenate([-grid.r[::-1], grid.r])
        self._check(x, np.random.default_rng(Nr).normal(size=(x.size, 8)))

    def test_evaluates_on_any_point_shape(self):
        x = np.linspace(0.0, 1.0, 6)
        y = np.random.default_rng(1).normal(size=(6, 3))
        xi = np.array([[0.1, 0.2], [1.5, -0.5]])
        out = not_a_knot(x, y, xi)
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out, CubicSpline(x, y)(xi))

    @pytest.mark.parametrize("n", [2, 3])
    def test_fewer_than_four_knots_rejected(self, n):
        x = np.arange(n, dtype=float)
        with pytest.raises(ValueError, match="at least 4 knots"):
            not_a_knot(x, x, x)
