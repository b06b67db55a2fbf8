"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s``); run

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

import capillary_minkowski as cm
from capillary_minkowski import cli
from capillary_minkowski.capillary_body import boundary_identity_check, grid_node_positions
from capillary_minkowski.continuation import start_density
from capillary_minkowski.errors import NonConvexError
from capillary_minkowski.ma_system import ProblemSpec, jacobian, residual

from conftest import smooth_field


THETA = np.pi / 3.0
PQ = cm.ExponentPair(p=3.0, q=1.0)


def report_line(index, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {index:02d}: {status} -- {detail}")
    assert ok, detail


def harmonic_density(grid, base=1.0, amp=0.3, m=2, k=1):
    R, PHI = grid.mesh()
    return base * (1.0 + amp * (np.sin(R) / grid.spec.sin_theta) ** m
                   * np.cos(m * PHI) * np.cos(R) ** k)


@pytest.fixture(scope="module")
def harmonic_solves(spec):
    """Converged harmonic instances on 32/64/128 grids (shared by 4, 5, 9)."""
    out = {}
    for N in (32, 64, 128):
        grid = cm.PolarGrid(spec, N, N)
        prob = ProblemSpec(grid=grid, pq=PQ, f=harmonic_density(grid))
        sf, rep = cm.continuation_solve(prob)
        out[N] = (prob, sf, rep)
    return out


def test_criterion_01_homotopy_start_exactness(spec):
    limits = {64: 5e-4, 128: 1.3e-4}
    details = []
    ok = True
    for N, limit in limits.items():
        grid = cm.PolarGrid(spec, N, N)
        prob = ProblemSpec(grid=grid, pq=PQ, f=start_density(grid, PQ))
        t0 = time.perf_counter()
        sf, rep = cm.continuation_solve(prob)
        seconds = time.perf_counter() - t0
        err = float(np.abs(sf.h - cm.l_field(grid)).max())
        ok = ok and err <= limit and seconds < 60.0
        details.append(f"{N}x{N}: |h-l|={err:.2e} (<= {limit:.1e}), {seconds:.1f}s")
    report_line(1, ok, "; ".join(details))


def test_criterion_02_manufactured_scaling_family(spec):
    ok = True
    details = []
    for p, q in ((3.0, 2.0), (3.0, 1.0)):  # p - q in {1, 2}
        pq = cm.ExponentPair(p=p, q=q)
        for c in (0.5, 2.0):
            errs, spacings = [], []
            for N in (16, 32, 64):
                grid = cm.PolarGrid(spec, N, N)
                prob = ProblemSpec(grid=grid, pq=pq,
                                   f=c ** (q - p) * start_density(grid, pq))
                sf, _ = cm.continuation_solve(prob)
                err = float(np.abs(sf.h - c * cm.l_field(grid)).max())
                ok = ok and err <= 10.0 * grid.max_spacing**2
                errs.append(err)
                spacings.append(grid.max_spacing)
            slope = np.polyfit(np.log(spacings), np.log(errs), 1)[0]
            ok = ok and slope >= 1.9
            details.append(f"p-q={p - q:g},c={c:g}: errs "
                           + "/".join(f"{e:.1e}" for e in errs)
                           + f", order {slope:.2f}")
    report_line(2, ok, "; ".join(details))


def test_criterion_03_apriori_bound_suite(spec):
    grid = cm.PolarGrid(spec, 32, 32)
    rng = np.random.default_rng(42)
    failures = 0
    runs = 0
    for pq in (cm.ExponentPair(3.0, 1.0), cm.ExponentPair(6.0, 4.0)):
        for _ in range(5):
            base = rng.uniform(0.9, 1.3)
            amp = rng.uniform(0.1, 0.35)
            m = int(rng.integers(1, 4))
            k = int(rng.integers(0, 2))
            f = harmonic_density(grid, base=base, amp=amp, m=m, k=k)
            assert 0.5 <= f.min() and f.max() <= 2.0
            prob = ProblemSpec(grid=grid, pq=pq, f=f)
            sf, _ = cm.continuation_solve(prob)
            report = cm.verify(sf, prob)
            runs += 1
            for name in ("c0_lower", "c0_upper", "gradient"):
                if not report[name].passed:
                    failures += 1
            if not report.all_passed:
                failures += 1
    report_line(3, failures == 0,
                f"{runs} randomized harmonic instances over both exponent regimes, "
                f"{failures} bound-check failures")


def test_criterion_04_boundary_identities(spec, harmonic_solves):
    hkn = {}
    robin_ok = True
    for N, (prob, sf, rep) in harmonic_solves.items():
        grid = prob.grid
        hkn[N] = boundary_identity_check(sf).h_mixed_max
        rows = grid.apply(grid.ops.D1, np.log(sf.h))[grid.boundary_ring] - spec.cot_theta
        robin_ok = robin_ok and float(np.abs(rows).max()) <= 1e-9
    r1 = math.log2(hkn[32] / hkn[64])
    r2 = math.log2(hkn[64] / hkn[128])
    ok = r1 >= 1.8 and r2 >= 1.8 and robin_ok
    report_line(4, ok,
                f"max|h_kn| = {hkn[32]:.2e}/{hkn[64]:.2e}/{hkn[128]:.2e} on 32/64/128, "
                f"rates {r1:.2f}, {r2:.2f} (>= 1.8); Robin rows <= 1e-9: {robin_ok}")


def test_criterion_05_measure_consistency(harmonic_solves):
    ok = True
    details = []
    for N, (prob, sf, _) in harmonic_solves.items():
        density = cm.measure_density(sf, prob.pq)
        rel = float(np.abs(density / (cm.l_field(prob.grid) * prob.f) - 1.0).max())
        tol = 10.0 * prob.grid.max_spacing**2
        ok = ok and rel <= tol
        details.append(f"{N}: {rel:.2e} <= {tol:.1e}")
    report_line(5, ok, "max rel deviation of density/(l f) from 1: " + "; ".join(details))


def test_criterion_06_uniqueness_probe(spec):
    grid = cm.PolarGrid(spec, 48, 48)
    prob = ProblemSpec(grid=grid, pq=PQ, f=harmonic_density(grid))
    l = cm.l_field(grid)
    rep = cm.uniqueness_probe(prob, cm.SolverConfig(tol=1e-9),
                              starts=[np.log(l), np.log(1.5 * l)])
    ok = rep.max_distance <= 1e-8
    report_line(6, ok, f"starts log(l), log(1.5 l): max |h1-h2| = {rep.max_distance:.2e} <= 1e-8")


def test_criterion_07_oracle_equivalence(spec):
    grid = cm.PolarGrid(spec, 64, 64)
    shape = (1.0 + 0.2 * np.cos(grid.r))[:, None]
    prob = ProblemSpec(grid=grid, pq=PQ, f=start_density(grid, PQ) * shape)

    def f_radial(r):
        l = 1.0 - spec.cos_theta * np.cos(r)
        gsq = (spec.cos_theta * np.sin(r)) ** 2
        f0 = l ** (1.0 - PQ.p) * (l * l + gsq) ** (0.5 * (PQ.q - spec.n - 1))
        return f0 * (1.0 + 0.2 * np.cos(r))

    sf, _ = cm.continuation_solve(prob)
    rep = cm.oracle_compare(prob, sf, f_radial=f_radial)
    tol = 10.0 * grid.max_spacing**2
    ok = rep.max_abs <= tol and rep.angular_variation <= 1e-7
    report_line(7, ok,
                f"1D/2D max discrepancy {rep.max_abs:.2e} <= {tol:.1e}; "
                f"angular variation {rep.angular_variation:.2e} <= 1e-7")


def test_criterion_08_jacobian_correctness(spec):
    grid = cm.PolarGrid(spec, 32, 32)
    prob = ProblemSpec(grid=grid, pq=PQ, f=start_density(grid, PQ))
    rng = np.random.default_rng(7)
    v = np.log(cm.l_field(grid)) + 0.1 * smooth_field(grid, rng)
    J = jacobian(v, prob)
    # eps balances central-difference truncation against the float noise of
    # the residual evaluation (amplified ~1/sin(r)^2 at the pole ring)
    eps = 1e-6 * 10.0 * (1.0 + float(np.abs(v).max()))
    worst = 0.0
    for _ in range(20):
        dv = smooth_field(grid, rng)
        fd = (residual(v + eps * dv, prob).full - residual(v - eps * dv, prob).full) / (2 * eps)
        an = (J @ dv.ravel()).reshape(grid.shape)
        worst = max(worst, float(np.abs(fd - an).max() / np.abs(an).max()))
    report_line(8, worst <= 1e-6,
                f"20 random smooth directions on 32x32: worst relative error {worst:.2e} <= 1e-6")


def test_criterion_09_geometry_reconstruction(spec, harmonic_solves):
    grid = cm.PolarGrid(spec, 64, 64)
    sf_l = cm.SupportField(h=cm.l_field(grid), grid=grid)
    mesh = cm.embed(sf_l)
    xi = grid_node_positions(grid)
    disp = float(np.linalg.norm(
        mesh.vertices[1:].reshape(grid.shape + (3,)) - xi, axis=-1).max())
    embed_ok = disp <= 10.0 * grid.max_spacing**2

    _, sf128, _ = harmonic_solves[128]
    angles = cm.contact_angle(cm.embed(sf128))
    rel = float(np.abs(angles - spec.theta).max() / spec.theta)
    angle_ok = rel <= 0.02
    report_line(9, embed_ok and angle_ok,
                f"embed(l) node displacement {disp:.2e} <= {10.0 * grid.max_spacing**2:.1e}; "
                f"contact angle error {100 * rel:.2f}% <= 2% at 128x128")


def test_criterion_10_negative_controls(spec, tmp_path):
    import json

    base = {"theta": 60.0, "theta_unit": "deg", "n": 2, "p": 2.0, "q": 2.0,
            "grid": {"Nr": 16, "Nphi": 16},
            "f": {"type": "constant", "value": 1.0}}
    bad_pq = tmp_path / "bad_pq.json"
    bad_pq.write_text(json.dumps(base))
    pq_rejected = cli.main(["solve", "--config", str(bad_pq)]) == 2

    base["p"], base["f"] = 3.0, {"type": "harmonic", "base": 1.0, "amplitude": 2.0, "m": 1}
    bad_f = tmp_path / "bad_f.json"
    bad_f.write_text(json.dumps(base))
    f_rejected = cli.main(["solve", "--config", str(bad_f)]) == 2

    grid = cm.PolarGrid(spec, 16, 16)
    prob = ProblemSpec(grid=grid, pq=PQ, f=start_density(grid, PQ))
    R, PHI = grid.mesh()
    v0 = np.log(cm.l_field(grid)) + 2.0 * np.sin(4 * R) * np.cos(5 * PHI)
    try:
        cm.newton_solve(v0, prob, cm.SolverConfig())
        guess_rejected = False
    except NonConvexError:
        guess_rejected = True

    ok = pq_rejected and f_rejected and guess_rejected
    report_line(10, ok,
                f"p<=q config rejected: {pq_rejected}; non-positive f-spec rejected: "
                f"{f_rejected}; indefinite initial guess rejected: {guess_rejected}")
