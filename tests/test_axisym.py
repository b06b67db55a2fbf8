"""Independent radial solver tests and the 1D/2D cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capillary_minkowski as cm
from capillary_minkowski import axisym
from capillary_minkowski.axisym import RadialProblem, radial_start_density
from capillary_minkowski.continuation import start_density
from capillary_minkowski.errors import NotAxisymmetricError, SingularSystemError
from capillary_minkowski.ma_system import ProblemSpec


THETA = np.pi / 3.0


def f0_profile(spec, pq):
    def fn(r):
        l = 1.0 - spec.cos_theta * np.cos(r)
        gsq = (spec.cos_theta * np.sin(r)) ** 2
        return l ** (1.0 - pq.p) * (l * l + gsq) ** (0.5 * (pq.q - spec.n - 1))
    return fn


@pytest.fixture(scope="module")
def rp_start(spec, pq31):
    return RadialProblem.from_callable(spec, pq31, f0_profile(spec, pq31), 1025)


class TestRadialResidual:
    def test_exact_start_truncation(self, spec, pq31, rp_start):
        h = 1.0 - spec.cos_theta * np.cos(rp_start.r)
        res = cm.radial_residual(h, rp_start)
        assert np.abs(res).max() < 10.0 * rp_start.dr**2

    def test_homogeneity(self, spec, pq31, rp_start):
        # (c h) with c^(q-p) f scales interior rows by c^n and boundary rows by c
        rng = np.random.default_rng(2)
        h = (1.0 - spec.cos_theta * np.cos(rp_start.r)) * (1.0 + 0.1 * np.cos(rp_start.r))
        c = 1.8
        scaled = RadialProblem(cap=spec, pq=pq31, r=rp_start.r,
                               f=c ** (pq31.q - pq31.p) * rp_start.f)
        r1 = cm.radial_residual(h, rp_start)
        r2 = cm.radial_residual(c * h, scaled)
        np.testing.assert_allclose(r2[1:-1], c**spec.n * r1[1:-1], rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(r2[[0, -1]], c * r1[[0, -1]], rtol=1e-8, atol=1e-12)

    def test_n1_reduces_to_plain_ode(self, pq31):
        # exponent n-1 = 0 kills the angular factor entirely
        cap = cm.CapSpec(theta=0.8, n=1)
        prob = RadialProblem.from_callable(cap, pq31, f0_profile(cap, pq31), 257)
        rng = np.random.default_rng(4)
        h = (1.0 - cap.cos_theta * np.cos(prob.r)) * (1.0 + 0.05 * np.sin(prob.r))
        res = cm.radial_residual(h, prob)
        dr = prob.dr
        h1 = (h[2:] - h[:-2]) / (2 * dr)
        h2 = (h[2:] - 2 * h[1:-1] + h[:-2]) / dr**2
        direct = (h2 + h[1:-1]) - prob.f[1:-1] * h[1:-1] ** (pq31.p - 1) \
            * (h[1:-1] ** 2 + h1**2) ** (0.5 * (2 - pq31.q))
        np.testing.assert_allclose(res[1:-1], direct, rtol=1e-12, atol=1e-14)


class TestFactorizationOracle:
    def test_symbolic_check_at_random_points(self):
        # the determinant of the frame matrix hess(h) + h id, assembled from the
        # chart formulas, equals the factored form (h''+h)(cot r h' + h) for
        # axisymmetric h; checked symbolically and at 5 random radii
        import sympy as sym

        r = sym.symbols("r", positive=True)
        h = 2 + sym.sin(r) / 2 + sym.cos(r) ** 2 / 3
        H11 = sym.diff(h, r, 2)
        H22 = sym.cos(r) / sym.sin(r) * sym.diff(h, r)  # phi-phi frame component
        frame_det = (H11 + h) * (H22 + h)
        factored = (sym.diff(h, r, 2) + h) * (sym.cos(r) / sym.sin(r) * sym.diff(h, r) + h)
        assert sym.simplify(frame_det - factored) == 0
        rng = np.random.default_rng(6)
        for rv in rng.uniform(0.1, 1.0, size=5):
            a = float(frame_det.subs(r, rv))
            b = float(factored.subs(r, rv))
            assert a == pytest.approx(b, rel=1e-12)

    def test_factored_matches_2d_frame_determinant_numerically(self, spec, pq31):
        # same check against the production 2D operators on an axisymmetric
        # field; the profile must be even in r (smooth across the pole)
        grid = cm.PolarGrid(spec, 64, 8)
        h_of_r = 2.0 + 0.5 * np.cos(grid.r) + np.cos(grid.r) ** 2 / 3.0
        h = np.repeat(h_of_r[:, None], grid.Nphi, axis=1)
        A = cm.second_fundamental_form(cm.SupportField(h=h, grid=grid))
        det2d = A.det()
        h1 = -0.5 * np.sin(grid.r) - 2.0 / 3.0 * np.sin(grid.r) * np.cos(grid.r)
        h2 = -0.5 * np.cos(grid.r) - 2.0 / 3.0 * np.cos(2.0 * grid.r)
        factored = (h2 + h_of_r) * (grid.cot_r * h1 + h_of_r)
        assert np.abs(det2d[:, 0] - factored).max() < 10.0 * grid.max_spacing**2


class TestRadialSolve:
    def test_start_density_returns_l(self, spec, pq31):
        prob = RadialProblem.from_callable(spec, pq31, f0_profile(spec, pq31), 4097)
        h = cm.radial_solve(prob)
        l = 1.0 - spec.cos_theta * np.cos(prob.r)
        assert np.abs(h - l).max() <= 1e-8

    def test_generic_radial_density(self, spec, pq31, rp_start):
        prob = RadialProblem(cap=spec, pq=pq31, r=rp_start.r,
                             f=rp_start.f * (1.0 + 0.2 * np.cos(rp_start.r)))
        h = cm.radial_solve(prob)
        assert np.abs(cm.radial_residual(h, prob)).max() < 1e-8

    def test_small_min_density_converges_with_wider_bounds(self, spec, pq31, rp_start):
        # min f near zero stays solvable; the closed-form range on h widens
        shrink = 0.05 + 0.95 * (1.0 - np.cos(rp_start.r)) / (1.0 - np.cos(spec.theta))
        prob = RadialProblem(cap=spec, pq=pq31, r=rp_start.r, f=rp_start.f * shrink)
        h = cm.radial_solve(prob)
        assert np.all(h > 0.0)
        grid = cm.PolarGrid(spec, 16, 8)
        f0 = start_density(grid, pq31)
        shrink2d = 0.05 + 0.95 * (1.0 - np.cos(grid.r[:, None])) / (1.0 - np.cos(spec.theta))
        wide = cm.c0_bounds(ProblemSpec(grid=grid, pq=pq31, f=f0 * shrink2d))
        base = cm.c0_bounds(ProblemSpec(grid=grid, pq=pq31, f=f0))
        assert wide.h_upper > base.h_upper


# (theta, n, p, q, nodes, f / f0 as a function of (r, theta)) and h at five
# evenly spaced nodes, as the solver returned it; they lie within 3.7e-11
# relative of the root that further Newton steps polish
BANDED_CASES = [
    ((np.pi / 3, 2, 3.0, 1.0, 257, lambda r, th: 1.0 + 0.2 * np.cos(r)),
     [0.46295701632779646, 0.47919027246957174, 0.5268252980175699, 0.6024580637097446,
      0.7000181311382483]),
    ((0.8, 1, 3.0, 1.0, 129, lambda r, th: 1.0 + 0.1 * np.sin(r)),
     [0.29918718467589295, 0.31245200595035044, 0.3519481926110155, 0.4164103270447362,
      0.5037210636683002]),
    ((np.radians(20.0), 2, 5.0, 3.5, 201, lambda r, th: 1.0 + 0.3 * (r / th) ** 2),
     [0.055040267004686796, 0.058089427896270786, 0.06728734497684728, 0.0826967454343559,
      0.10447208722214191]),
]


def banded_case(theta, n, p, q, nodes, shape):
    cap, pq = cm.CapSpec(theta=theta, n=n), cm.ExponentPair(p=p, q=q)
    r = np.linspace(0.0, theta, nodes)
    f0 = radial_start_density(RadialProblem(cap=cap, pq=pq, r=r, f=np.ones_like(r)))
    return RadialProblem(cap=cap, pq=pq, r=r, f=f0 * shape(r, theta))


class TestBandedNewton:
    @pytest.mark.parametrize("case", [c for c, _ in BANDED_CASES])
    def test_jacobian_matches_central_differences(self, case):
        prob = banded_case(*case[:4], 33, case[5])
        h = (1.0 - prob.cap.cos_theta * np.cos(prob.r)) * (1.0 + 0.1 * np.sin(2.0 * prob.r))
        ab = axisym._radial_jacobian(h, prob, prob.f)
        M = prob.r.size - 1
        dense = np.zeros((M + 1, M + 1))
        for i in range(M + 1):
            for j in range(max(0, i - 2), min(M, i + 2) + 1):
                dense[i, j] = ab[2 + i - j, j]
        eps = 1e-6
        fd = np.empty_like(dense)
        for j in range(M + 1):
            e = np.zeros(M + 1)
            e[j] = eps
            fd[:, j] = (cm.radial_residual(h + e, prob) - cm.radial_residual(h - e, prob)) / (2 * eps)
        assert np.abs(dense - fd).max() <= 1e-7 * np.abs(fd).max()

    @pytest.mark.parametrize("case, want", BANDED_CASES)
    def test_solution_unchanged(self, case, want):
        h = cm.radial_solve(banded_case(*case))
        idx = np.linspace(0, h.size - 1, 5).astype(int)
        np.testing.assert_allclose(h[idx], want, rtol=1e-12, atol=0.0)

    def test_singular_jacobian_raises_singular(self, spec, pq31, rp_start, monkeypatch):
        # an exactly singular step is reported as such, with the iterate it
        # failed at: the start, a constant multiple of l
        monkeypatch.setattr(axisym, "_radial_jacobian",
                            lambda h, prob, f: np.zeros((5, prob.r.size)))
        prob = RadialProblem(cap=spec, pq=pq31, r=rp_start.r,
                             f=rp_start.f * (1.0 + 0.2 * np.cos(rp_start.r)))
        with pytest.raises(SingularSystemError) as info:
            cm.radial_solve(prob)
        ratio = info.value.best_v / (1.0 - spec.cos_theta * np.cos(prob.r))
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-14, atol=0.0)


class TestSpuriousRoot:
    # the factored rows are homogeneous in h, so their absolute values vanish as
    # h -> 0: an absolute tolerance accepts h ~ 2e-6 (residual 5e-11) for the
    # radial density below, whose 2D solution h lies in [1.91, 2.54]
    def test_radial_density_at_45_degrees(self):
        spec, pq = cm.CapSpec(theta=np.radians(45.0)), cm.ExponentPair(p=3.0, q=1.0)
        grid = cm.PolarGrid(spec, 24, 24)
        prob = ProblemSpec(grid=grid, pq=pq,
                           f=np.repeat((1.0 - 0.2 * np.cos(grid.r))[:, None], 24, axis=1))
        sf, _ = cm.continuation_solve(prob)
        rep = cm.oracle_compare(prob, sf)
        assert rep.max_abs <= 10.0 * grid.max_spacing**2 * np.abs(sf.h).max()

    def test_start_far_from_the_solution(self, spec, pq31):
        # f = f0 / 1000 is solved by 1000^(1/(p-q)) l, far from the start l
        f0 = f0_profile(spec, pq31)
        h = cm.radial_solve(RadialProblem.from_callable(spec, pq31, lambda r: f0(r) / 1e3, 257))
        l = 1.0 - spec.cos_theta * np.cos(np.linspace(0.0, spec.theta, 257))
        np.testing.assert_allclose(h, 1e3 ** 0.5 * l, rtol=1e-3)


class TestOraclePropertyRange:
    # the 1D oracle agrees with the 2D solve within the oracle command's
    # threshold 10 spacing^2 max h for radial densities over theta 10-85 deg,
    # with p - q >= 0.3
    @given(theta_deg=st.floats(10.0, 85.0), p=st.floats(1.5, 5.0), q_share=st.floats(0.0, 0.7),
           c1=st.floats(-0.4, 0.4), c2=st.floats(-0.2, 0.2), N=st.sampled_from([16, 20, 24]))
    @settings(max_examples=25, deadline=None)
    def test_radial_densities(self, theta_deg, p, q_share, c1, c2, N):
        spec = cm.CapSpec(theta=np.radians(theta_deg))
        pq = cm.ExponentPair(p=p, q=q_share * (p - 0.3))
        grid = cm.PolarGrid(spec, N, N)
        profile = 1.0 + c1 * np.cos(grid.r) + c2 * np.cos(grid.r) ** 2
        prob = ProblemSpec(grid=grid, pq=pq, f=np.repeat(profile[:, None], N, axis=1))
        sf, _ = cm.continuation_solve(prob)
        rep = cm.oracle_compare(prob, sf)
        assert rep.max_abs <= 10.0 * grid.max_spacing**2 * np.abs(sf.h).max()


class TestOracleCompare:
    def test_start_density_agreement(self, spec, pq31):
        grid = cm.PolarGrid(spec, 32, 32)
        prob = ProblemSpec(grid=grid, pq=pq31, f=start_density(grid, pq31))
        sf, _ = cm.continuation_solve(prob)
        rep = cm.oracle_compare(prob, sf, f_radial=f0_profile(spec, pq31))
        assert rep.max_abs <= 10.0 * grid.max_spacing**2
        assert rep.angular_variation <= 1e-7

    def test_ring_mean_profile_fallback(self, spec, pq31):
        # without the exact callable the profile is spline-fit from ring means
        grid = cm.PolarGrid(spec, 32, 32)
        prob = ProblemSpec(grid=grid, pq=pq31, f=start_density(grid, pq31))
        sf, _ = cm.continuation_solve(prob)
        rep = cm.oracle_compare(prob, sf)
        assert rep.max_abs <= 10.0 * grid.max_spacing**2

    def test_angular_density_rejected(self, spec, pq31):
        grid = cm.PolarGrid(spec, 16, 8)
        R, PHI = grid.mesh()
        f = 1.0 + 0.1 * np.sin(R) * np.cos(PHI)
        prob = ProblemSpec(grid=grid, pq=pq31, f=f)
        sf = cm.SupportField(h=cm.l_field(grid), grid=grid)
        with pytest.raises(NotAxisymmetricError):
            cm.oracle_compare(prob, sf)

    def test_fine_grid_resolution_factor(self, spec, pq31):
        grid = cm.PolarGrid(spec, 32, 32)
        prob = ProblemSpec(grid=grid, pq=pq31, f=start_density(grid, pq31))
        sf, _ = cm.continuation_solve(prob)
        rep = cm.oracle_compare(prob, sf, f_radial=f0_profile(spec, pq31))
        assert (rep.fine_nodes - 1) >= 4 * (spec.theta / grid.dr)


class TestValidation:
    def test_nonuniform_grid_rejected(self, spec, pq31):
        r = np.concatenate([[0.0], np.geomspace(0.01, spec.theta, 63)])
        with pytest.raises(ValueError):
            RadialProblem(cap=spec, pq=pq31, r=r, f=np.ones_like(r))

    def test_nonpositive_f_rejected(self, spec, pq31):
        r = np.linspace(0.0, spec.theta, 65)
        f = np.ones_like(r)
        f[10] = 0.0
        with pytest.raises(ValueError):
            RadialProblem(cap=spec, pq=pq31, r=r, f=f)

    def test_span_must_match_theta(self, spec, pq31):
        r = np.linspace(0.0, 0.5 * spec.theta, 65)
        with pytest.raises(ValueError):
            RadialProblem(cap=spec, pq=pq31, r=r, f=np.ones_like(r))
