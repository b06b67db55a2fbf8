"""Closed-form bound evaluation and the verification suite.

The bound formulas are cross-checked against an independently coded
evaluation that follows the extremal-point argument (bounds on u = h/l at its
extrema, transported to h by the range of l) rather than the collected
closed forms, so the two expression trees share no structure.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capillary_minkowski as cm
from capillary_minkowski import cli
from capillary_minkowski.continuation import start_density
from capillary_minkowski.errors import InvalidExponentsError
from capillary_minkowski.ma_system import ProblemSpec


def independent_bounds_pq(theta, n, p, q, f_min, f_max):
    """Oracle: reassemble the bounds on h^(p-q) from the u-extremum inequalities."""
    l_min = 1.0 - math.cos(theta)
    l_max = math.sin(theta) ** 2
    if n + 1 - q >= 0:
        u_max_pq = 1.0 / (f_min * l_min ** (n + p - q))
        u_min_pq = 2.0 ** (-0.5 * (n + 1 - q)) / (f_max * l_max ** (p - 1))
    else:
        u_max_pq = 2.0 ** (-0.5 * (n + 1 - q)) / (f_min * l_min ** (p - 1))
        u_min_pq = 1.0 / (f_max * l_max ** (n + p - q))
    return u_min_pq * l_min ** (p - q), u_max_pq * l_max ** (p - q)


def independent_bounds(theta, n, p, q, f_min, f_max):
    """Oracle: the h-bounds, the (p-q)-th roots of independent_bounds_pq."""
    return tuple(b ** (1.0 / (p - q)) for b in independent_bounds_pq(theta, n, p, q, f_min, f_max))


def make_problem(theta, n, p, q, f_base=1.0, f_amp=0.0):
    spec = cm.CapSpec(theta=theta, n=n)
    grid = cm.PolarGrid(spec, 8, 6 if n == 2 else None)
    R, PHI = grid.mesh()
    f = f_base * (1.0 + f_amp * np.sin(R) / spec.sin_theta * np.cos(PHI))
    return ProblemSpec(grid=grid, pq=cm.ExponentPair(p=p, q=q), f=f)


class TestC0Bounds:
    def test_case_subcritical_frozen(self):
        # theta=pi/3, n=2, p=2, q=1, f=1: lower 2^-1 * (1/2) / (3/4) = 1/3,
        # upper (3/4) / (1/2)^3 = 6 (oracle: independent_bounds agrees)
        prob = make_problem(np.pi / 3, 2, 2.0, 1.0)
        bs = cm.c0_bounds(prob)
        assert bs.case == "q <= n+1"
        assert bs.h_lower == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert bs.h_upper == pytest.approx(6.0, rel=1e-12)
        lo, hi = independent_bounds(np.pi / 3, 2, 2.0, 1.0, 1.0, 1.0)
        assert (lo, hi) == (pytest.approx(bs.h_lower), pytest.approx(bs.h_upper))

    def test_case_supercritical_frozen(self):
        # theta=pi/3, n=2, p=5, q=4 (n+1-q = -1): exponents p-q=1, p-1=4, n+p-q=3
        prob = make_problem(np.pi / 3, 2, 5.0, 4.0)
        bs = cm.c0_bounds(prob)
        assert bs.case == "q > n+1"
        assert bs.h_lower == pytest.approx(0.5 / 0.75**3, rel=1e-12)
        assert bs.h_upper == pytest.approx(math.sqrt(2.0) * 0.75 / 0.5**4, rel=1e-12)
        lo, hi = independent_bounds(np.pi / 3, 2, 5.0, 4.0, 1.0, 1.0)
        assert (lo, hi) == (pytest.approx(bs.h_lower), pytest.approx(bs.h_upper))

    def test_density_scaling(self):
        # f -> c f multiplies both bounds on h^(p-q) by 1/c
        p, q = 3.0, 1.0
        b1 = cm.c0_bounds(make_problem(0.9, 2, p, q, f_base=1.0))
        b2 = cm.c0_bounds(make_problem(0.9, 2, p, q, f_base=2.5))
        root = 1.0 / (p - q)
        assert b2.h_lower == pytest.approx(b1.h_lower * 2.5**-root, rel=1e-12)
        assert b2.h_upper == pytest.approx(b1.h_upper * 2.5**-root, rel=1e-12)

    def test_bounds_beyond_the_float_range(self):
        # p - q = 0.00884 at theta 3 deg: h^(p-q) bounds are ordinary numbers,
        # but their 113th powers leave the float range; the logs stay finite
        p, q, f = 0.63521, 0.62637, 87.0
        bs = cm.c0_bounds(make_problem(np.radians(3.0), 2, p, q, f_base=f))
        assert math.isfinite(bs.log_h_lower) and math.isfinite(bs.log_h_upper)
        assert bs.log_h_upper > math.log(np.finfo(float).max) and bs.h_upper == math.inf
        lo_pq, hi_pq = independent_bounds_pq(np.radians(3.0), 2, p, q, f, f)
        assert (p - q) * bs.log_h_lower == pytest.approx(math.log(lo_pq), rel=1e-12)
        assert (p - q) * bs.log_h_upper == pytest.approx(math.log(hi_pq), rel=1e-12)

    def test_verify_near_p_equal_q_gives_a_table(self):
        # the 16^2 solve reaches max h near 4e136; verify compares its bounds in
        # logs and reports each check instead of raising OverflowError
        spec = cm.CapSpec(theta=np.radians(3.0))
        grid = cm.PolarGrid(spec, 16, 16)
        prob = ProblemSpec(grid=grid, pq=cm.ExponentPair(p=0.63521, q=0.62637),
                           f=np.full(grid.shape, 87.0))
        sf, _ = cm.continuation_solve(prob)
        report = cm.verify(sf, prob)
        assert report["c0_lower"].passed and report["c0_upper"].passed
        assert report["c0_upper"].bound == math.inf
        assert "c0_upper" in report.format_table()

    def test_grad_factor(self):
        bs = cm.c0_bounds(make_problem(np.pi / 3, 2, 3.0, 1.0))
        assert bs.grad_bound_factor == pytest.approx(1.0 / math.sin(np.pi / 3), rel=1e-14)

    def test_invalid_exponents(self, grid32):
        prob = ProblemSpec(grid=grid32, pq=cm.ExponentPair(p=3.0, q=1.0),
                           f=np.ones(grid32.shape))
        prob.pq = cm.ExponentPair.__new__(cm.ExponentPair)  # bypass ctor to fake p <= q
        object.__setattr__(prob.pq, "p", 1.0)
        object.__setattr__(prob.pq, "q", 2.0)
        with pytest.raises(InvalidExponentsError):
            cm.c0_bounds(prob)

    @given(theta=st.floats(min_value=0.05, max_value=1.5),
           n=st.sampled_from([1, 2]),
           q=st.floats(min_value=-2.0, max_value=5.0),
           gap=st.floats(min_value=0.2, max_value=4.0),
           base=st.floats(min_value=0.3, max_value=3.0),
           amp=st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=100, deadline=None)
    def test_formula_cross_check(self, theta, n, q, gap, base, amp):
        prob = make_problem(theta, n, q + gap, q, f_base=base, f_amp=amp)
        bs = cm.c0_bounds(prob)
        lo, hi = independent_bounds(theta, n, q + gap, q,
                                    float(prob.f.min()), float(prob.f.max()))
        assert bs.h_lower == pytest.approx(lo, rel=1e-10)
        assert bs.h_upper == pytest.approx(hi, rel=1e-10)
        assert 0.0 < bs.h_lower <= bs.h_upper

    def test_case_boundary_probe(self):
        # each branch is evaluated on its own domain only; q -> n+1 from either
        # side stays finite (no cross-case continuity is asserted)
        n = 2
        for eps in (1e-3, 1e-6):
            below = cm.c0_bounds(make_problem(0.8, n, n + 4.0, n + 1.0 - eps))
            above = cm.c0_bounds(make_problem(0.8, n, n + 4.0, n + 1.0 + eps))
            assert below.case == "q <= n+1"
            assert above.case == "q > n+1"
            for bs in (below, above):
                assert np.isfinite(bs.h_lower) and np.isfinite(bs.h_upper)


def start_problem(grid, pq):
    return ProblemSpec(grid=grid, pq=pq, f=start_density(grid, pq))


class TestGradientBound:
    def test_unit_cap_frozen(self, spec, grid32, pq31):
        # computed max cos(theta) sin(r) = cos(pi/3) sin(pi/3), bound sin(pi/3)
        sf = cm.SupportField(h=cm.l_field(grid32), grid=grid32)
        row = cm.verify(sf, start_problem(grid32, pq31))["gradient"]
        assert row.value == pytest.approx(math.sqrt(3.0) / 4.0, abs=5.0 * grid32.dr**2)
        assert row.bound == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
        assert row.passed and row.value <= row.bound

    def test_constant_field(self, grid32, pq31):
        sf = cm.SupportField(h=np.full(grid32.shape, 2.0), grid=grid32)
        row = cm.verify(sf, start_problem(grid32, pq31))["gradient"]
        assert row.value < 1e-12
        assert row.bound == pytest.approx(2.0 / grid32.spec.sin_theta, rel=1e-12)
        assert row.passed


class TestVerify:
    def test_exact_start_all_pass(self, grid32, pq31):
        prob = ProblemSpec(grid=grid32, pq=pq31, f=start_density(grid32, pq31))
        sf, _ = cm.continuation_solve(prob)
        report = cm.verify(sf, prob)
        assert report.all_passed
        names = {c.name for c in report.checks}
        assert {"c0_lower", "c0_upper", "gradient", "boundary_h_mixed",
                "boundary_u_identity", "robin", "measure_consistency",
                "log_gradient_max"} <= names

    def test_scaled_nonsolution_fails_measure_only_there(self, grid32, pq31):
        prob = ProblemSpec(grid=grid32, pq=pq31, f=start_density(grid32, pq31))
        sf = cm.SupportField(h=2.0 * cm.l_field(grid32), grid=grid32)
        report = cm.verify(sf, prob)
        assert not report.all_passed
        assert not report["measure_consistency"].passed
        # the axisymmetric rim identities still hold, so the report singles
        # out the measure item rather than failing wholesale
        assert report["boundary_h_mixed"].passed
        assert report["boundary_u_identity"].passed
        # homogeneity: density is off by the factor 2^(q-p) = 1/4
        density = cm.measure_density(sf, pq31)
        ratio = density / (cm.l_field(grid32) * prob.f)
        assert np.median(ratio) == pytest.approx(0.25, rel=1e-2)

    def test_measure_consistency_is_scale_invariant(self, grid32, pq31):
        # (lam h, lam^(q-p) f) solves the equation when (h, f) does; at lam =
        # 1e100 the density's powers of h underflow unless h is rescaled first
        R, PHI = grid32.mesh()
        f = 1.0 + 0.3 * (np.sin(R) / grid32.spec.sin_theta) ** 2 * np.cos(2 * PHI)
        prob = ProblemSpec(grid=grid32, pq=pq31, f=f)
        sf, _ = cm.continuation_solve(prob)
        lam = 1e100
        scaled = ProblemSpec(grid=grid32, pq=pq31, f=lam ** (pq31.q - pq31.p) * f)
        check = cm.verify(sf, prob)["measure_consistency"]
        lam_value = cm.verify(cm.SupportField(h=lam * sf.h, grid=grid32),
                              scaled)["measure_consistency"].value
        assert check.passed
        assert abs(lam_value - check.value) <= 1e-12

    @pytest.mark.parametrize("lam", [1e-200, 1e100, 1e200])
    def test_gradient_bound_is_scale_invariant(self, grid32, pq31, lam):
        # max |grad h| and (1/sin theta) max h are both homogeneous of degree 1
        # in h; the squared gradient of lam h overflows for lam = 1e200 and
        # underflows for lam = 1e-200 unless h is rescaled first
        R, PHI = grid32.mesh()
        h = cm.l_field(grid32) * (1.0 + 0.1 * (np.sin(R) / grid32.spec.sin_theta) ** 2
                                  * np.cos(2 * PHI))
        prob = start_problem(grid32, pq31)
        row = cm.verify(cm.SupportField(h=h, grid=grid32), prob)["gradient"]
        lam_row = cm.verify(cm.SupportField(h=lam * h, grid=grid32), prob)["gradient"]
        assert lam_row.value == pytest.approx(lam * row.value, rel=1e-12, abs=0.0)
        assert lam_row.bound == pytest.approx(lam * row.bound, rel=1e-12, abs=0.0)
        assert lam_row.passed == row.passed

    def test_rim_identities_are_decided_at_any_scale(self, spec, pq31):
        # a rim ring bent in phi breaks both rim identities; moved to max h in
        # [2^1023, 2^1024), their values and bounds overflow to inf (on 16^2,
        # 10 spacing^2 > 1), and the checks, decided on h 2^-k, still fail
        grid = cm.PolarGrid(spec, 16, 16)
        R, PHI = grid.mesh()
        h = cm.l_field(grid) * (1.0 + 0.3 * (R / R.max()) ** 8 * np.cos(3 * PHI))
        prob = ProblemSpec(grid=grid, pq=pq31, f=start_density(grid, pq31))
        top = np.ldexp(h, 1024 - math.frexp(h.max())[1])
        assert 2.0**1023 <= top.max() < math.inf
        for field in (h, top):
            report = cm.verify(cm.SupportField(h=field, grid=grid), prob)
            for name in ("boundary_h_mixed", "boundary_u_identity"):
                assert not report[name].passed, (field.max(), name)
        assert all(report[name].value == report[name].bound == math.inf
                   for name in ("boundary_h_mixed", "boundary_u_identity"))

    def test_gradient_of_a_huge_solution_is_finite(self, tmp_path, capsys):
        # theta 3.03 deg with p - q = 0.0212 solves to max h near 3.4e238,
        # whose squared frame gradient overflowed: verify warned and read inf
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({
            "theta": 3.03, "theta_unit": "deg", "p": 1.7639, "q": 1.7427,
            "grid": {"Nr": 16, "Nphi": 16}, "f": {"type": "constant", "value": 0.08}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cli.main(["solve", "--config", str(cfg)])
            capsys.readouterr()
            cli.main(["verify", "--solution", str(tmp_path / "huge.solution.json")])
        assert caught == []
        row = next(line.split() for line in capsys.readouterr().out.splitlines()
                   if line.startswith("gradient "))
        assert float(row[1]) > 1e238 and math.isfinite(float(row[1])) and row[-1] == "pass"

    def test_one_derivative_pass_per_field(self, grid32, pq31, apply_calls):
        # h / max h, h 2^-k, u = h 2^-k / l and log h: one frame-operator pass each
        sf = cm.SupportField(h=cm.l_field(grid32), grid=grid32)
        cm.verify(sf, start_problem(grid32, pq31))
        assert apply_calls == {"FrameOps": 4, "PolarGrid": 0}

    def test_shared_pass_matches_standalone_calls(self, grid32, pq31):
        # the gradient and measure rows share one pass over h / max h; each must
        # read as the public grad and measure_density of that field, bit for bit
        R, PHI = grid32.mesh()
        f = 1.0 + 0.3 * (np.sin(R) / grid32.spec.sin_theta) ** 2 * np.cos(3 * PHI)
        prob = ProblemSpec(grid=grid32, pq=pq31, f=f)
        sf, _ = cm.continuation_solve(prob)
        report = cm.verify(sf, prob)
        h_max = float(sf.h.max())
        unit = cm.SupportField(h=sf.h / h_max, grid=grid32)
        assert report["gradient"].value == float(cm.grad(unit.h, grid32).norm().max()) * h_max
        density = cm.measure_density(unit, pq31)
        ratio = density * np.exp((pq31.q - pq31.p) * math.log(h_max)
                                 - np.log(cm.l_field(grid32)) - np.log(f))
        assert report["measure_consistency"].value == float(np.max(np.abs(ratio - 1.0)))
        assert report.all_passed

    def test_table_rendering(self, grid32, pq31):
        prob = ProblemSpec(grid=grid32, pq=pq31, f=start_density(grid32, pq31))
        sf, _ = cm.continuation_solve(prob)
        report = cm.verify(sf, prob)
        table = report.format_table()
        assert "measure_consistency" in table
        assert "overall: pass" in table
        doc = report.to_json_dict()
        assert doc["all_passed"] is True
        assert len(doc["checks"]) == len(report.checks)
