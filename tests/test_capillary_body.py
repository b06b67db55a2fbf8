"""Support-field operations: convexity data, curvature, measure density,
embedding, contact angle, rim identities, OBJ export."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capillary_minkowski as cm
from capillary_minkowski.capillary_body import (
    BodyMesh,
    boundary_identity_check,
    embedding_points,
    grid_node_positions,
)
from capillary_minkowski.errors import DegenerateBoundaryError, InvalidExponentsError, NonConvexError

from conftest import smooth_field


@pytest.fixture(scope="module")
def sfl(grid32):
    return cm.SupportField(h=cm.l_field(grid32), grid=grid32)


class TestSecondFundamentalForm:
    def test_unit_cap_gives_identity(self, grid32, sfl):
        A = cm.second_fundamental_form(sfl)
        tol = 5.0 * grid32.max_spacing**2
        assert np.abs(A.comps[0, 0] - 1.0).max() < tol
        assert np.abs(A.comps[1, 1] - 1.0).max() < tol
        assert np.abs(A.comps[0, 1]).max() < tol

    def test_scaling(self, grid32):
        c = 0.5
        sf = cm.SupportField(h=c * cm.l_field(grid32), grid=grid32)
        A = cm.second_fundamental_form(sf)
        tol = 5.0 * grid32.max_spacing**2
        assert np.abs(A.comps[0, 0] - c).max() < tol

    def test_tangent_harmonic_leaves_identity(self, grid32):
        # hess(f) + f id = 0 for linear restrictions, so A is unchanged at O(eps * h^2)
        R, PHI = grid32.mesh()
        eps = 1e-3
        h = cm.l_field(grid32) + eps * np.sin(R) * np.cos(PHI)
        A = cm.second_fundamental_form(cm.SupportField(h=h, grid=grid32))
        tol = 10.0 * grid32.max_spacing**2
        assert np.abs(A.comps[0, 0] - 1.0).max() < tol


class TestConvexityMargin:
    def test_unit_cap(self, sfl):
        assert cm.convexity_margin(sfl) == pytest.approx(1.0, abs=1e-3)

    def test_scaling(self, grid32):
        sf = cm.SupportField(h=0.5 * cm.l_field(grid32), grid=grid32)
        assert cm.convexity_margin(sf) == pytest.approx(0.5, abs=1e-3)

    def test_indefinite_detected_against_brute_force(self, grid32):
        R, PHI = grid32.mesh()
        h = cm.l_field(grid32) * (1.0 + 0.5 * np.sin(3 * R) * np.cos(4 * PHI))
        sf = cm.SupportField(h=h, grid=grid32)
        A = cm.second_fundamental_form(sf)
        mats = np.moveaxis(A.comps, (0, 1), (2, 3))  # (Nr, Nphi, 2, 2)
        brute = np.linalg.eigvalsh(mats)[..., 0].min()
        margin = cm.convexity_margin(sf)
        assert margin == pytest.approx(brute, rel=1e-12)
        assert margin < 0.0


class TestCapillarySupport:
    def test_unit_cap_is_one(self, sfl):
        u = cm.capillary_support(sfl)
        assert np.abs(u - 1.0).max() < 1e-14

    def test_scalar_multiple(self, grid32):
        sf = cm.SupportField(h=2.5 * cm.l_field(grid32), grid=grid32)
        assert np.abs(cm.capillary_support(sf) - 2.5).max() < 1e-13

    def test_constant_h_range(self, spec, grid32):
        # u = 1/l: rim value exactly 4/3, pole supremum 2 approached to O(dr^2)
        sf = cm.SupportField(h=np.ones(grid32.shape), grid=grid32)
        u = cm.capillary_support(sf)
        assert u[-1, 0] == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert u.max() == pytest.approx(2.0, abs=1e-3)
        assert u.max() < 2.0


class TestGaussCurvature:
    def test_unit_cap(self, sfl):
        K = cm.gauss_curvature(sfl)
        assert np.abs(K - 1.0).max() < 1e-2

    def test_scaling(self, grid32, spec):
        c = 2.0
        sf = cm.SupportField(h=c * cm.l_field(grid32), grid=grid32)
        K = cm.gauss_curvature(sf)
        assert np.abs(K - c**-spec.n).max() < 1e-2

    def test_reciprocal_of_brute_force_determinant(self, grid32):
        rng = np.random.default_rng(3)
        h = cm.l_field(grid32) * (1.0 + 0.05 * smooth_field(grid32, rng))
        sf = cm.SupportField(h=h, grid=grid32)
        A = cm.second_fundamental_form(sf)
        mats = np.moveaxis(A.comps, (0, 1), (2, 3))
        brute = np.linalg.det(mats)
        np.testing.assert_allclose(cm.gauss_curvature(sf), 1.0 / brute, rtol=1e-12)

    def test_nonconvex_raises(self, grid32):
        R, PHI = grid32.mesh()
        h = cm.l_field(grid32) * (1.0 + 0.5 * np.sin(3 * R) * np.cos(4 * PHI))
        with pytest.raises(NonConvexError):
            cm.gauss_curvature(cm.SupportField(h=h, grid=grid32))


class TestMeasureDensity:
    def test_unit_cap_matches_start_density(self, grid32, pq31):
        from capillary_minkowski.continuation import start_density

        sf = cm.SupportField(h=cm.l_field(grid32), grid=grid32)
        density = cm.measure_density(sf, pq31)
        oracle = cm.l_field(grid32) * start_density(grid32, pq31)
        assert np.abs(density / oracle - 1.0).max() < 10.0 * grid32.max_spacing**2

    @given(c=st.floats(min_value=0.2, max_value=5.0),
           p=st.floats(min_value=-1.0, max_value=6.0),
           dq=st.floats(min_value=0.25, max_value=4.0))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, grid32, c, p, dq):
        # density(c h) = c^(q-p) density(h) nodewise, up to floating rounding
        pq = cm.ExponentPair(p=p, q=p - dq)
        rng = np.random.default_rng(11)
        h = cm.l_field(grid32) * (1.0 + 0.1 * smooth_field(grid32, rng))
        d1 = cm.measure_density(cm.SupportField(h=h, grid=grid32), pq)
        d2 = cm.measure_density(cm.SupportField(h=c * h, grid=grid32), pq)
        np.testing.assert_allclose(d2, c ** (pq.q - pq.p) * d1, rtol=1e-10)

    def test_p_equals_q_rejected_by_type(self):
        with pytest.raises(InvalidExponentsError):
            cm.ExponentPair(p=2.0, q=2.0)


class TestEmbed:
    def test_unit_cap_reproduces_nodes(self, grid32, sfl):
        mesh = cm.embed(sfl)
        xi = grid_node_positions(grid32)
        disp = np.linalg.norm(
            mesh.vertices[1:].reshape(grid32.shape + (3,)) - xi, axis=-1
        ).max()
        assert disp < 10.0 * grid32.max_spacing**2

    def test_scaled_cap(self, grid32):
        c = 2.0
        sf = cm.SupportField(h=c * cm.l_field(grid32), grid=grid32)
        X = embedding_points(sf)
        xi = grid_node_positions(grid32)
        assert np.linalg.norm(X - c * xi, axis=-1).max() < c * 10.0 * grid32.max_spacing**2

    def test_linearity_in_h(self, grid32, sfl):
        X1 = embedding_points(sfl)
        X2 = embedding_points(cm.SupportField(h=2.0 * sfl.h, grid=grid32))
        assert np.array_equal(X2, 2.0 * X1)

    def test_rim_on_plane(self, grid32, sfl):
        mesh = cm.embed(sfl)
        heights = mesh.vertices[mesh.boundary_loop][:, 2]
        assert np.abs(heights).max() <= mesh.eps

    def test_halfspace_invariant_enforced(self, grid32):
        # h = 1 violates the Robin condition, so its rim leaves the plane
        with pytest.raises(ValueError):
            cm.embed(cm.SupportField(h=np.ones(grid32.shape), grid=grid32))

    def test_nonconvex_rejected(self, grid32):
        R, PHI = grid32.mesh()
        h = cm.l_field(grid32) * (1.0 + 0.5 * np.sin(3 * R) * np.cos(4 * PHI))
        with pytest.raises(NonConvexError):
            cm.embed(cm.SupportField(h=h, grid=grid32))

    def test_outward_orientation(self, grid32, sfl):
        mesh = cm.embed(sfl)
        tri = mesh.vertices[mesh.faces]
        fn = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        centers = tri.mean(axis=1)
        centers[:, 2] += grid32.spec.cos_theta  # recenter on the unit sphere
        assert np.all(np.sum(fn * centers, axis=1) > 0.0)

    def test_one_derivative_pass(self, grid32, apply_calls):
        # the convexity test and the vertices share one grad_hessian pass over h;
        # the vertices must read as the public embedding_points
        R, PHI = grid32.mesh()
        h = cm.l_field(grid32) * (1.0 + 0.02 * (np.sin(R) / grid32.spec.sin_theta) ** 2
                                  * np.cos(3 * PHI))
        sf = cm.SupportField(h=h, grid=grid32)
        mesh = cm.embed(sf)
        assert apply_calls == {"FrameOps": 1, "PolarGrid": 0}
        assert np.array_equal(mesh.vertices[1:], embedding_points(sf).reshape(-1, 3))


class TestContactAngle:
    def test_unit_cap(self, spec, grid32, sfl):
        ang = cm.contact_angle(cm.embed(sfl))
        assert np.abs(ang - spec.theta).max() < 3.0 * grid32.max_spacing

    def test_scale_invariance(self, grid32, sfl):
        a1 = cm.contact_angle(cm.embed(sfl))
        a2 = cm.contact_angle(cm.embed(cm.SupportField(h=2.0 * sfl.h, grid=grid32)))
        np.testing.assert_allclose(a1, a2, rtol=1e-12)

    def test_degenerate_loop(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
        mesh = BodyMesh(vertices=verts, faces=np.array([[0, 1, 2]]),
                        boundary_loop=np.array([0, 1]), eps=1.0)
        with pytest.raises(DegenerateBoundaryError):
            cm.contact_angle(mesh)


class TestBoundaryIdentities:
    def test_axisymmetric_exact(self, sfl):
        rep = boundary_identity_check(sfl)
        assert rep.h_mixed_max < 1e-12
        assert rep.u_identity_max < 1e-12

    def test_robin_violation_flagged(self, grid32, pq31):
        # d_r log h = 0 on the rim of h = 1, against cot(theta) for a solution
        prob = cm.ProblemSpec(grid=grid32, pq=pq31, f=np.ones(grid32.shape))
        row = cm.verify(cm.SupportField(h=np.ones(grid32.shape), grid=grid32), prob)["robin"]
        assert not row.passed
        assert row.value == pytest.approx(grid32.spec.cot_theta, rel=1e-10)

    @pytest.mark.parametrize("theta", [math.radians(4.17), math.pi / 3])
    def test_scaling_by_a_power_of_two_is_exact(self, theta):
        # the deviations are linear in h and evaluated at max h in [1/2, 1),
        # so h 2^600 gives 2^600 times the values on h, bit for bit
        grid = cm.PolarGrid(cm.CapSpec(theta=theta), 16, 16)
        h = cm.l_field(grid) * np.exp(0.3 * smooth_field(grid, np.random.default_rng(5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = boundary_identity_check(cm.SupportField(h=h, grid=grid))
            big = boundary_identity_check(cm.SupportField(h=np.ldexp(h, 600), grid=grid))
        np.testing.assert_array_equal(big.h_mixed, np.ldexp(rep.h_mixed, 600))
        np.testing.assert_array_equal(big.u_identity, np.ldexp(rep.u_identity, 600))
        assert big.h_mixed_max == math.ldexp(rep.h_mixed_max, 600)
        assert big.u_identity_max == math.ldexp(rep.u_identity_max, 600)


class TestObjExport:
    def test_structure_and_roundtrip(self, grid32, sfl, tmp_path):
        mesh = cm.embed(sfl)
        path = tmp_path / "cap.obj"
        cm.export_obj(mesh, path)
        text = path.read_bytes().decode()
        assert "\r" not in text
        lines = text.strip().split("\n")
        v_lines = [ln for ln in lines if ln.startswith("v ")]
        f_lines = [ln for ln in lines if ln.startswith("f ")]
        l_lines = [ln for ln in lines if ln.startswith("l ")]
        assert len(v_lines) == mesh.vertices.shape[0]
        assert len(f_lines) == mesh.faces.shape[0]
        assert len(l_lines) == 1
        tokens = [ln.split()[1:] for ln in v_lines]
        assert tokens == [["%.9g" % x for x in row] for row in mesh.vertices.tolist()]
        # %.9g rounds each coordinate by at most half a unit in its ninth digit
        verts = np.array(tokens, dtype=float)
        assert np.all(np.abs(verts - mesh.vertices) <= 5e-9 * np.abs(mesh.vertices))
        idx = np.array([[int(x) for x in ln.split()[1:]] for ln in f_lines])
        assert idx.min() >= 1 and idx.max() <= len(v_lines)
        loop = [int(x) for x in l_lines[0].split()[1:]]
        assert loop == [int(i) + 1 for i in mesh.boundary_loop]

    def test_matches_plain_loop_reference(self, spec, tmp_path):
        # reference: the face list and OBJ records built one at a time
        grid = cm.PolarGrid(spec, 12, 12)
        R, PHI = grid.mesh()
        h = cm.l_field(grid) * (1.0 + 0.02 * (np.sin(R) / spec.sin_theta) ** 2 * np.cos(2 * PHI))
        mesh = cm.embed(cm.SupportField(h=h, grid=grid))
        Nr, Nphi = grid.shape

        def vid(i, k):
            return 1 + i * Nphi + (k % Nphi)

        faces = [(0, vid(0, k), vid(0, k + 1)) for k in range(Nphi)]
        for i in range(Nr - 1):
            for k in range(Nphi):
                faces.append((vid(i, k), vid(i + 1, k), vid(i + 1, k + 1)))
                faces.append((vid(i, k), vid(i + 1, k + 1), vid(i, k + 1)))
        assert np.array_equal(mesh.faces, np.array(faces))
        assert np.array_equal(mesh.boundary_loop, [vid(Nr - 1, k) for k in range(Nphi)])

        lines = [f"v {x:.9g} {y:.9g} {z:.9g}" for x, y, z in mesh.vertices]
        lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.faces]
        lines.append("l " + " ".join(str(int(i) + 1) for i in mesh.boundary_loop))
        path = tmp_path / "cap.obj"
        cm.export_obj(mesh, path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_extreme_values_match_per_record_reference(self, tmp_path):
        verts = np.array([[-0.0, 5e-324, 0.0], [1e-300, -1e300, 1.0],
                          [3.0, -2.0, 1e300], [0.1, -1.5, -0.0], [2.0 / 3.0, -7.0, 1e16]])
        mesh = BodyMesh(vertices=verts, faces=np.array([[0, 1, 2], [0, 2, 3], [3, 4, 0]]),
                        boundary_loop=np.array([0, 3]))
        lines = [f"v {x:.9g} {y:.9g} {z:.9g}" for x, y, z in mesh.vertices]
        lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.faces]
        lines.append("l 1 4")
        path = tmp_path / "extreme.obj"
        cm.export_obj(mesh, path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_float32_coordinates_roundtrip(self, tmp_path):
        # nine significant digits name every float32 value exactly, including
        # the largest finite one, the smallest subnormal and -0
        f32 = np.array([[3.4028235e38, 1e-45, 0.0], [-0.0, 0.1, 0.1],
                        [-3.4028235e38, -1e-45, 3.4028235e38], [1.0 / 3.0, -7.0, 1e-38]],
                       dtype=np.float32)
        mesh = BodyMesh(vertices=f32.astype(float), faces=np.array([[0, 1, 2], [0, 2, 3]]),
                        boundary_loop=np.array([0]))
        path = tmp_path / "f32.obj"
        cm.export_obj(mesh, path)
        tokens = [ln.split()[1:] for ln in path.read_text().splitlines() if ln.startswith("v ")]
        back = np.array(tokens, dtype=float).astype(np.float32)
        np.testing.assert_array_equal(back.view(np.uint32), f32.view(np.uint32))
