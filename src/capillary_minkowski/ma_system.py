"""Nonlinear residual of the prescribed-measure equation in the log variable,
plus its exact sparse linearization.

Working variable is v = log h, which keeps h > 0 structural.  With
B = hess(v) + grad(v) x grad(v) + id the interior equation reads

    log det B = log f + (p - q) v + ((n + 1 - q)/2) log(1 + |grad v|^2)

and the boundary rows impose the Robin condition d_r v = cot(theta) on the
rim.  Boundary conditions are explicit residual rows (no ghost elimination),
so the Jacobian assembly is uniform over nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .cap_chart import CapSpec, FrameSymMatrix, FrameVector, PolarGrid, grad, hessian
from .capillary_body import ExponentPair, SupportField, second_fundamental_form
from .errors import NonConvexError


@dataclass
class ProblemSpec:
    """One instance of the prescribed-measure problem: grid, exponents, density."""

    grid: PolarGrid
    pq: ExponentPair
    f: np.ndarray

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        if self.f.shape != self.grid.shape:
            raise ValueError(f"f has shape {self.f.shape}, grid expects {self.grid.shape}")
        if not np.all(np.isfinite(self.f)):
            raise ValueError("f must be finite at every node")
        if not np.all(self.f > 0.0):
            raise ValueError("f must be strictly positive at every node")

    @property
    def cap(self) -> CapSpec:
        return self.grid.spec


@dataclass
class ResidualVector:
    """Residual samples: interior PDE rows on rings < Nr-1, Robin rows on the rim.

    ``full`` has one entry per grid node; nodes where det B <= 0 carry a +inf
    sentinel (listed in ``bad_nodes``) so a line search can reject them while
    keeping a total order on step quality.  ``residual`` keeps grad v, B(v)
    and det B on it for the convexity checks and ``jacobian``.
    """

    full: np.ndarray
    bad_nodes: np.ndarray
    g: FrameVector | None = None
    B: FrameSymMatrix | None = None
    detB: np.ndarray | None = None

    @property
    def interior(self) -> np.ndarray:
        return self.full[:-1]

    @property
    def boundary(self) -> np.ndarray:
        return self.full[-1]

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.full)))

    def with_density(self, f_from: np.ndarray, f_to: np.ndarray) -> ResidualVector:
        """This residual, evaluated against density ``f_from``, at the same v against ``f_to``.

        log f enters the interior rows additively, so g, B and det B carry over.
        """
        full = self.full.copy()
        full[:-1] += np.log(f_from[:-1] / f_to[:-1])
        return ResidualVector(full=full, bad_nodes=self.bad_nodes, g=self.g, B=self.B,
                              detB=self.detB)

    @cached_property
    def eig_range(self) -> tuple[float, float]:  # (min, max) eigenvalue of B over the nodes
        lo, hi = self.B.eig_bounds()
        return float(lo.min()), float(hi.max())


def log_gauss_map_matrix(v: np.ndarray, grid: PolarGrid, g: FrameVector) -> FrameSymMatrix:
    """B(v) = hess(v) + g x g + id in the orthonormal frame, where g = grad(v)."""
    comps = hessian(v, grid).comps + g.comps[:, None] * g.comps[None, :]
    for i in range(g.comps.shape[0]):
        comps[i, i] += 1.0
    return FrameSymMatrix(comps)


def residual(v: np.ndarray, prob: ProblemSpec) -> ResidualVector:
    """Assemble the nonlinear residual at v = log h.

    Interior rows:  log det B - [log f + (p-q) v + ((n+1-q)/2) log(1+|grad v|^2)].
    Boundary rows:  d_r v - cot(theta)  (one-sided second order).
    det B <= 0 yields a +inf sentinel instead of an exception.
    """
    grid = prob.grid
    n = grid.spec.n
    p, q = prob.pq.p, prob.pq.q
    v = np.asarray(v, dtype=float)

    g = grad(v, grid)
    B = log_gauss_map_matrix(v, grid, g)
    detB = B.det()
    gsq = g.norm_sq()

    good = detB > 0.0
    logdet = np.full(grid.shape, np.inf)
    np.log(detB, out=logdet, where=good)

    rhs = np.log(prob.f) + (p - q) * v + 0.5 * (n + 1 - q) * np.log1p(gsq)
    full = logdet - rhs
    full[~good] = np.inf

    b = grid.boundary_ring
    full[b] = g.comps[0][b] - grid.spec.cot_theta  # g.comps[0] = D1 v
    good[b] = True  # rim rows are Robin rows; det B is irrelevant there
    bad = np.flatnonzero(~good.ravel())
    return ResidualVector(full=full, bad_nodes=bad, g=g, B=B, detB=detB)


def residual_h_form(h: np.ndarray, prob: ProblemSpec) -> ResidualVector:
    """Independently coded residual in the original variable h.

    Interior rows: log det(hess h + h id) - log(f h^(p-1) (h^2+|grad h|^2)^((n+1-q)/2)).
    Boundary rows: d_r h - cot(theta) h.  Used as a cross-check of the log path;
    the two agree to O(spacing^2) on smooth positive fields.
    """
    grid = prob.grid
    n = grid.spec.n
    p, q = prob.pq.p, prob.pq.q
    sf = SupportField(h=np.asarray(h, dtype=float), grid=grid)
    detA = second_fundamental_form(sf).det()
    gsq = grad(sf.h, grid).norm_sq()

    good = detA > 0.0
    logdet = np.full(grid.shape, np.inf)
    np.log(detA, out=logdet, where=good)
    rhs = np.log(prob.f) + (p - 1) * np.log(sf.h) + 0.5 * (n + 1 - q) * np.log(sf.h**2 + gsq)
    full = logdet - rhs
    full[~good] = np.inf

    b = grid.boundary_ring
    full[b] = grid.apply(grid.ops.D1, sf.h)[b] - grid.spec.cot_theta * sf.h[b]
    return ResidualVector(full=full, bad_nodes=np.flatnonzero(~good.ravel()))


def jacobian_coefficients(R: ResidualVector, prob: ProblemSpec) -> dict:
    """Per-node coefficients of the exact linearization at the v of R = residual(v, prob).

    Interior rows of the linearization:
        tr(B^-1 dB) - (p-q) I - (n+1-q) * (grad v . d grad v) / (1+|grad v|^2)
    with dB = d hess + dgrad x grad + grad x dgrad, as the keyword arguments
    of ``FrameOps.robin_system`` and ``FrameOps.mode_system``.  Requires B(v)
    positive definite.
    """
    n = prob.grid.spec.n
    p, q = prob.pq.p, prob.pq.q
    eig_min = R.eig_range[0]
    if eig_min <= 0.0:
        raise NonConvexError(
            f"B(v) is not positive definite (min eigenvalue {eig_min:.3e})", margin=eig_min
        )

    B, g, detB = R.B, R.g, R.detB
    w = (n + 1 - q) / (1.0 + g.norm_sq())
    if n == 1:
        B11, g1 = B.comps[0, 0], g.comps[0]
        return dict(H11=1.0 / B11, D1=(2.0 / B11 - w) * g1, identity=-(p - q))
    B11, B12, B22 = B.comps[0, 0], B.comps[0, 1], B.comps[1, 1]
    g1, g2 = g.comps[0], g.comps[1]
    return dict(
        H11=B22 / detB, H12=-2.0 * B12 / detB, H22=B11 / detB,
        D1=2.0 * (B22 * g1 - B12 * g2) / detB - w * g1,
        D2=2.0 * (B11 * g2 - B12 * g1) / detB - w * g2,
        identity=-(p - q),
    )


def jacobian(R: ResidualVector, prob: ProblemSpec) -> sp.csc_matrix:
    """Exact analytic linearization of ``residual`` at the v of R = residual(v, prob).

    Interior rows combine the frame operators with ``jacobian_coefficients``;
    boundary rows are the (linear) one-sided d_r stencil.  The sparsity
    pattern is the same for every v (``FrameOps.robin_system``).
    """
    return prob.grid.ops.robin_system(**jacobian_coefficients(R, prob))
