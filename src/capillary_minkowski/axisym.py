"""Independent 1D solver for rotationally symmetric instances.

For h = h(r) the frame Hessian of the cap chart is diagonal, so the
determinant factorizes and the prescribed-measure equation reduces to the
two-point boundary value problem

    (h'' + h) (cot(r) h' + h)^(n-1) = f(r) h^(p-1) (h^2 + h'^2)^((n+1-q)/2)

on (0, theta), with the regularity condition h'(0) = 0 at the pole and the
Robin condition h'(theta) = cot(theta) h(theta) at the rim.  The collocation
here (uniform nodes including r = 0 and r = theta, centered differences,
one-sided second-order boundary rows, Newton on a density homotopy)
shares no discretization code with the 2D solver, which is the point: it
serves as a brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, solve_banded

from .cap_chart import CapSpec, not_a_knot
from .capillary_body import ExponentPair, SupportField
from .errors import (
    LineSearchStallError,
    MaxIterationsError,
    NotAxisymmetricError,
    SingularSystemError,
)
from .ma_system import ProblemSpec

# The oracle solves the radial problem to the relative residual RADIAL_TOL
# (``_rows``) on ORACLE_RESOLUTION times the 2D grid's radial nodes, at least
# 64: both keep the 1D errors far below the O(dr^2) error of the 2D solve,
# which the mismatch then measures.
RADIAL_TOL = 1e-10
ORACLE_RESOLUTION = 4
RADIAL_MAX_ITER = 40  # Newton steps per stage; a stage that needs more halves its t-step
RADIAL_MIN_STEP = 1e-8  # a Newton direction still no descent at this step has stalled
RADIAL_MIN_DT = 2.0**-10  # a stage that fails at this t-step fails for more than its length


@dataclass
class RadialProblem:
    """Rotationally symmetric instance sampled on a fine uniform 1D grid."""

    cap: CapSpec
    pq: ExponentPair
    r: np.ndarray  # nodes 0 = r_0 < ... < r_M = theta, uniform
    f: np.ndarray  # positive samples f(r_j)

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        if self.r.ndim != 1 or self.r.size < 8:
            raise ValueError("need a 1D grid with at least 8 nodes")
        if self.r[0] != 0.0 or abs(self.r[-1] - self.cap.theta) > 1e-14:
            raise ValueError("radial grid must span [0, theta]")
        steps = np.diff(self.r)
        if not np.allclose(steps, steps.mean(), rtol=1e-9):
            raise ValueError("radial grid must be uniform")
        if self.f.shape != self.r.shape:
            raise ValueError("f must be sampled at the radial nodes")
        if not (np.all(np.isfinite(self.f)) and np.all(self.f > 0.0)):
            raise ValueError("f must be finite and strictly positive")

    @property
    def dr(self) -> float:
        return float((self.r[-1] - self.r[0]) / (self.r.size - 1))

    @classmethod
    def from_callable(cls, cap: CapSpec, pq: ExponentPair, f_of_r, num_nodes: int) -> "RadialProblem":
        r = np.linspace(0.0, cap.theta, num_nodes)
        return cls(cap=cap, pq=pq, r=r, f=np.asarray(f_of_r(r), dtype=float))


def radial_start_density(prob: RadialProblem) -> np.ndarray:
    """The 1D profile of the homotopy start density (solved exactly by h = l)."""
    spec = prob.cap
    l = 1.0 - spec.cos_theta * np.cos(prob.r)
    grad_sq = (spec.cos_theta * np.sin(prob.r)) ** 2
    n = spec.n
    return l ** (1.0 - prob.pq.p) * (l * l + grad_sq) ** (0.5 * (prob.pq.q - n - 1))


def _factors(h: np.ndarray, prob: RadialProblem, f: np.ndarray):
    """(a, b, c, h1) with a = h''+h, b = cot(r) h'+h, c = RHS, on interior nodes."""
    M = prob.r.size - 1
    dr = prob.dr
    n = prob.cap.n
    p, q = prob.pq.p, prob.pq.q
    h1 = np.empty_like(h)
    h1[1:-1] = (h[2:] - h[:-2]) / (2 * dr)
    h1[0] = (-3 * h[0] + 4 * h[1] - h[2]) / (2 * dr)
    h1[-1] = (3 * h[-1] - 4 * h[-2] + h[-3]) / (2 * dr)
    h2 = np.zeros_like(h)
    h2[1:-1] = (h[2:] - 2 * h[1:-1] + h[:-2]) / dr**2

    idx = slice(1, M)
    cot = np.cos(prob.r[idx]) / np.sin(prob.r[idx])
    a = h2[idx] + h[idx]
    b = cot * h1[idx] + h[idx]
    c = f[idx] * h[idx] ** (p - 1) * (h[idx] ** 2 + h1[idx] ** 2) ** (0.5 * (n + 1 - q))
    return a, b, c, h1


def radial_residual(h: np.ndarray, prob: RadialProblem, f: np.ndarray | None = None) -> np.ndarray:
    """Residual rows: h'(0) at node 0, factored equation inside, Robin at node M."""
    return _rows(np.asarray(h, dtype=float), prob, prob.f if f is None else f)[0]


def _rows(h: np.ndarray, prob: RadialProblem, f: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(``radial_residual`` rows, their relative max-norm, its roundoff floor).

    Relative: interior rows over their right-hand side c, boundary rows over
    max h.  That norm is invariant under the exact scaling h -> s h,
    f -> s^(q-p) f, and grows like h^(q-p) towards the spurious root h = 0 of
    the homogeneous rows.  Floor: float noise eps max h in a = h'' + h,
    divided by dr^2 and by a.
    """
    n = prob.cap.n
    M = prob.r.size - 1
    dr = prob.dr
    out = np.empty(M + 1)
    a, b, c, h1 = _factors(h, prob, f)
    out[1:M] = a * b ** (n - 1) - c
    out[0] = (-3 * h[0] + 4 * h[1] - h[2]) / (2 * dr)
    out[M] = (3 * h[M] - 4 * h[M - 1] + h[M - 2]) / (2 * dr) - prob.cap.cot_theta * h[M]
    h_max, a_min = float(np.max(np.abs(h))), float(np.min(a))
    rel = max(float(np.max(np.abs(out[1:M]) / c)), abs(out[0]) / h_max, abs(out[M]) / h_max)
    floor = 16.0 * np.finfo(float).eps * h_max / (dr**2 * a_min) if a_min > 0.0 else 0.0
    return out, rel, floor


def _radial_jacobian(h: np.ndarray, prob: RadialProblem, f: np.ndarray) -> np.ndarray:
    """Jacobian of ``radial_residual`` at h in (2, 2) band storage: entry (i, j)
    at [2 + i - j, j], as ``scipy.linalg.solve_banded`` reads it.

    Interior rows are tridiagonal; the pole and rim rows are their three-node
    one-sided stencils, two nodes off the diagonal.
    """
    M = prob.r.size - 1
    dr = prob.dr
    n = prob.cap.n
    p, q = prob.pq.p, prob.pq.q
    a, b, c, h1 = _factors(h, prob, f)
    idx = slice(1, M)
    cot = np.cos(prob.r[idx]) / np.sin(prob.r[idx])

    # interior row: k2 h'' + k1 h' + k0 h with centered h', h''
    hs = h[idx] ** 2 + h1[idx] ** 2
    dc_dh = f[idx] * ((p - 1) * h[idx] ** (p - 2) * hs ** (0.5 * (n + 1 - q))
                      + h[idx] ** (p - 1) * (n + 1 - q) * hs ** (0.5 * (n + 1 - q) - 1) * h[idx])
    dc_dh1 = f[idx] * h[idx] ** (p - 1) * (n + 1 - q) * hs ** (0.5 * (n + 1 - q) - 1) * h1[idx]
    k2 = b ** (n - 1)
    k1 = -dc_dh1
    k0 = k2 - dc_dh
    if n >= 2:
        kb = (n - 1) * a * b ** (n - 2)  # times the linearization cot(r) h' + h of b
        k1 = k1 + kb * cot
        k0 = k0 + kb

    ab = np.zeros((5, M + 1))
    ab[3, :M - 1] = k2 / dr**2 - k1 / (2 * dr)  # (i, i - 1)
    ab[2, 1:M] = -2.0 * k2 / dr**2 + k0  # (i, i)
    ab[1, 2:] = k2 / dr**2 + k1 / (2 * dr)  # (i, i + 1)
    ab[[2, 1, 0], [0, 1, 2]] = np.array([-3.0, 4.0, -1.0]) / (2 * dr)  # pole row 0
    ab[[4, 3, 2], [M - 2, M - 1, M]] = np.array([1.0, -4.0, 3.0]) / (2 * dr)  # rim row M
    ab[2, M] -= prob.cap.cot_theta
    return ab


def _radial_newton(h0, prob, f):
    """Newton on ``radial_residual`` with a backtracking line search on the
    relative max-norm of ``_rows``, until that is at most RADIAL_TOL, or at its
    roundoff floor where the line search stalls."""
    h = h0.copy()
    res, rel, floor = _rows(h, prob, f)
    for _ in range(RADIAL_MAX_ITER):
        if rel <= RADIAL_TOL:
            return h
        try:
            delta = solve_banded((2, 2), _radial_jacobian(h, prob, f), -res,
                                 overwrite_ab=True, check_finite=False)
        except LinAlgError as exc:  # an exactly singular Jacobian
            raise SingularSystemError(str(exc), best_v=h) from exc
        alpha = 1.0
        while True:
            h_new = h + alpha * delta
            if np.all(h_new > 0.0):
                res_new, rel_new, floor_new = _rows(h_new, prob, f)
                if np.isfinite(rel_new) and rel_new < rel:
                    break
            alpha *= 0.5
            if alpha < RADIAL_MIN_STEP:
                if rel <= floor:
                    return h  # stalled at the roundoff floor, accept
                raise LineSearchStallError(
                    f"1D line search stalled (relative residual {rel:.3e})", best_v=h
                )
        h, res, rel, floor = h_new, res_new, rel_new, floor_new
    if rel <= max(RADIAL_TOL, floor):
        return h
    raise MaxIterationsError(f"1D Newton did not converge (relative residual {rel:.3e})",
                             best_v=h)


def radial_solve(prob: RadialProblem) -> np.ndarray:
    """Solve the radial problem to RADIAL_TOL by Newton along the density homotopy
    from h = s l, which solves s^(q-p) f0 exactly; s matches that to f in geometric mean."""
    f0 = radial_start_density(prob)
    s = np.exp(np.mean(np.log(f0 / prob.f)) / (prob.pq.p - prob.pq.q))
    h = s * (1.0 - prob.cap.cos_theta * np.cos(prob.r))
    f0 = s ** (prob.pq.q - prob.pq.p) * f0
    t, dt = 0.0, 0.25
    while t < 1.0:
        if _rows(h, prob, prob.f)[1] <= RADIAL_TOL:
            return h
        t_try = min(1.0, t + dt)
        f_t = (1.0 - t_try) * f0 + t_try * prob.f
        try:
            h = _radial_newton(h, prob, f_t)
        except (LineSearchStallError, MaxIterationsError, SingularSystemError):
            dt *= 0.5
            if dt < RADIAL_MIN_DT:
                raise
            continue
        t = t_try
    return h


def require_axisymmetric(f: np.ndarray) -> None:
    """Raise NotAxisymmetricError unless f is constant on every ring up to 1e-10 max|f|."""
    ring_var = float(np.max(np.ptp(f, axis=1)))
    if ring_var > 1e-10 * float(np.max(np.abs(f))):
        raise NotAxisymmetricError(f"f varies over rings by {ring_var:.3e}; "
                                   "the 1D oracle needs a radial density")


@dataclass
class OracleCompareReport:
    """Discrepancy between the 2D solution and the independent radial solve."""

    max_abs: float
    l2: float
    angular_variation: float
    fine_nodes: int


def oracle_compare(prob: ProblemSpec, h2d: SupportField, f_radial=None) -> OracleCompareReport:
    """Interpolate the 1D solution onto the 2D radii and report the mismatch.

    ``f_radial``, when given, supplies the exact radial density profile;
    otherwise the profile is spline-fit through the ring means of prob.f.
    Raises NotAxisymmetricError when f varies around a ring.
    """
    grid = prob.grid
    f = prob.f
    require_axisymmetric(f)

    num = max(int(np.ceil(ORACLE_RESOLUTION * grid.spec.theta / grid.dr)) + 1, 64)
    if f_radial is None:
        def f_radial(r):
            return not_a_knot(grid.r, f.mean(axis=1), r)
    rp = RadialProblem.from_callable(grid.spec, prob.pq, f_radial, num)
    h1d = radial_solve(rp)
    h_on_rings = not_a_knot(rp.r, h1d, grid.r)

    diff = h2d.h - h_on_rings[:, None]
    max_abs = float(np.max(np.abs(diff)))
    l2 = float(np.sqrt(np.sum(grid.weights * diff**2)))
    ang = float(np.max(h2d.h.max(axis=1) - h2d.h.min(axis=1))) if grid.Nphi > 1 else 0.0
    return OracleCompareReport(max_abs=max_abs, l2=l2, angular_variation=ang, fine_nodes=num)
