"""Operations on a candidate support function: convexity data, curvature,
measure density, embedding of the hypersurface, and the rim identities.

A positive field h on the cap determines a convex capillary hypersurface via
the inverse of the translated Gauss map; the second fundamental form pulled
back to the cap is A = hess(h) + h * id, and the body is convex exactly when
A > 0 at every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cap_chart import (CapSpec, FrameSymMatrix, FrameVector, PolarGrid, grad, grad_hessian,
                        hessian, l_field)
from .errors import DegenerateBoundaryError, InvalidExponentsError, NonConvexError


@dataclass(frozen=True)
class ExponentPair:
    """Exponents (p, q) of the prescribed-measure problem; only p > q is solvable."""

    p: float
    q: float

    def __post_init__(self):
        if not self.p > self.q:
            raise InvalidExponentsError(f"need p > q, got p={self.p}, q={self.q}")


@dataclass
class SupportField:
    """A candidate support function: positive samples h on a polar grid."""

    h: np.ndarray
    grid: PolarGrid

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        if self.h.shape != self.grid.shape:
            raise ValueError(f"h has shape {self.h.shape}, grid expects {self.grid.shape}")
        if not np.all(np.isfinite(self.h)):
            raise ValueError("h must be finite at every node")
        if not np.all(self.h > 0.0):
            raise ValueError("h must be strictly positive at every node")

    @property
    def spec(self) -> CapSpec:
        return self.grid.spec


def second_fundamental_form(sf: SupportField) -> FrameSymMatrix:
    """A = hess(h) + h * id in the orthonormal frame."""
    return hessian(sf.h, sf.grid).shifted(sf.h)


def convexity_margin(sf: SupportField) -> float:
    """Minimum over nodes of the smallest eigenvalue of A; > 0 certifies convexity."""
    return _convexity_margin(sf, hessian(sf.h, sf.grid))


def _convexity_margin(sf: SupportField, hess: FrameSymMatrix) -> float:
    """``convexity_margin`` from the frame Hessian hess of sf.h."""
    return float(hess.shifted(sf.h).smallest_eigenvalue().min())


def capillary_support(sf: SupportField) -> np.ndarray:
    """u = h / l, the support function rescaled by the cap weight."""
    return sf.h / l_field(sf.grid)


def gauss_curvature(sf: SupportField) -> np.ndarray:
    """Gauss-Kronecker curvature K = 1 / det(A) of the reconstructed body."""
    A = second_fundamental_form(sf)
    margin = float(A.smallest_eigenvalue().min())
    if margin <= 0.0:
        raise NonConvexError(f"support field is not convex (margin {margin:.3e})", margin=margin)
    return 1.0 / A.det()


def measure_density(sf: SupportField, pq: ExponentPair) -> np.ndarray:
    """Density of the prescribed curvature measure against the round area element.

        l * h^(1-p) * (h^2 + |grad h|^2)^((q-n-1)/2) * det(hess h + h id)

    For a solution of the prescribed-measure equation this equals f * l
    nodewise.
    """
    return _measure_density(sf, pq, *grad_hessian(sf.h, sf.grid))


def _measure_density(sf: SupportField, pq: ExponentPair, g: FrameVector,
                     hess: FrameSymMatrix) -> np.ndarray:
    """``measure_density`` from the frame gradient g and Hessian hess of sf.h."""
    n = sf.grid.spec.n
    h = sf.h
    detA = hess.shifted(h).det()
    l = l_field(sf.grid)
    return l * h ** (1.0 - pq.p) * (h * h + g.norm_sq()) ** (0.5 * (pq.q - n - 1)) * detA


# -- embedding ----------------------------------------------------------------


@dataclass
class BodyMesh:
    """Triangulated image of the embedding in R^3 (n = 2 only).

    Vertices lie in the closed upper half-space up to eps, and the boundary
    loop (ordered rim vertices) lies on the bounding hyperplane up to eps.
    Both are validated at construction.
    """

    vertices: np.ndarray  # (nv, 3)
    faces: np.ndarray  # (nf, 3) int, outward-oriented
    boundary_loop: np.ndarray  # (nb,) int
    eps: float = field(default=1e-9)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.faces = np.asarray(self.faces, dtype=int)
        self.boundary_loop = np.asarray(self.boundary_loop, dtype=int)
        height = self.vertices[:, -1]
        if height.min() < -self.eps:
            raise ValueError(
                f"mesh leaves the closed half-space: min height {height.min():.3e} < -{self.eps:.3e}"
            )
        rim = np.abs(height[self.boundary_loop])
        if rim.size and rim.max() > self.eps:
            raise ValueError(
                f"boundary loop off the bounding plane by {rim.max():.3e} > {self.eps:.3e}"
            )


def _frame_vectors(grid: PolarGrid):
    """Ambient coordinates of z(r,phi) on the unit sphere and the frame {e_r, e_phi}."""
    r = grid.r[:, None]
    phi = grid.phi[None, :]
    sr, cr = np.sin(r), np.cos(r)
    sp_, cp = np.sin(phi), np.cos(phi)
    z = np.stack([sr * cp, sr * sp_, np.broadcast_to(cr, grid.shape)], axis=-1)
    e_r = np.stack([cr * cp, cr * sp_, np.broadcast_to(-sr, grid.shape)], axis=-1)
    e_phi = np.stack([np.broadcast_to(-sp_, grid.shape),
                      np.broadcast_to(cp, grid.shape),
                      np.zeros(grid.shape)], axis=-1)
    return z, e_r, e_phi


def embedding_points(sf: SupportField) -> np.ndarray:
    """Map each grid node to X = grad(h) + h * z in R^3 (shape (Nr, Nphi, 3))."""
    return _embedding_points(sf, grad(sf.h, sf.grid))


def _embedding_points(sf: SupportField, g: FrameVector) -> np.ndarray:
    """``embedding_points`` from the frame gradient g of sf.h."""
    grid = sf.grid
    if grid.spec.n != 2:
        raise ValueError("embedding requires n = 2")
    z, e_r, e_phi = _frame_vectors(grid)
    return (g.comps[0][..., None] * e_r
            + g.comps[1][..., None] * e_phi
            + sf.h[..., None] * z)


def grid_node_positions(grid: PolarGrid) -> np.ndarray:
    """Ambient positions xi = z + cos(theta) * e of the grid nodes on the cap itself."""
    z, _, _ = _frame_vectors(grid)
    xi = z.copy()
    xi[..., 2] -= grid.spec.cos_theta
    return xi


def embed(sf: SupportField) -> BodyMesh:
    """Triangulate the embedded hypersurface.

    Vertex 0 is a synthetic pole vertex (mean of the innermost ring, accurate
    to O(spacing^2)); node (i, k) maps to vertex 1 + i*Nphi + k.  Quads are
    split along the fixed (i,k)-(i+1,k+1) diagonal and the innermost ring is
    fanned to the pole vertex, so the topology is deterministic.  One
    ``grad_hessian`` pass feeds both the convexity test and the vertices.
    """
    grid = sf.grid
    g, hess = grad_hessian(sf.h, grid)
    margin = _convexity_margin(sf, hess)
    if margin <= 0.0:
        raise NonConvexError(f"cannot embed a non-convex field (margin {margin:.3e})", margin=margin)
    X = _embedding_points(sf, g)
    Nr, Nphi = grid.shape
    pole = X[0].mean(axis=0)
    vertices = np.concatenate([pole[None, :], X.reshape(-1, 3)], axis=0)

    vid = 1 + np.arange(Nr)[:, None] * Nphi + np.arange(Nphi + 1) % Nphi  # (i, k), k wrapping
    fan = np.stack([np.zeros(Nphi, dtype=int), vid[0, :-1], vid[0, 1:]], axis=1)
    a, b, c, d = vid[:-1, :-1], vid[1:, :-1], vid[1:, 1:], vid[:-1, 1:]  # quad (i, k)
    quads = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)  # triangles abc, acd
    eps = grid.discretization_tol * float(np.max(np.abs(sf.h)))
    return BodyMesh(vertices=vertices, faces=np.concatenate([fan, quads]),
                    boundary_loop=vid[-1, :-1], eps=eps)


def contact_angle(mesh: BodyMesh) -> np.ndarray:
    """Estimated contact angle at each boundary vertex from the mesh normals.

    The angle between the outward vertex normal and the downward axis e is
    pi - theta for a capillary body, so the estimate returned is
    pi - arccos(<normal, e>), expected to equal theta up to O(spacing).
    """
    if mesh.boundary_loop.size < 3:
        raise DegenerateBoundaryError(
            f"boundary loop has {mesh.boundary_loop.size} vertices, need >= 3"
        )
    v = mesh.vertices
    tri = v[mesh.faces]
    fn = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])  # area-weighted
    normals = np.zeros_like(v)
    for j in range(3):
        np.add.at(normals, mesh.faces[:, j], fn)
    rim = normals[mesh.boundary_loop]
    rim = rim / np.linalg.norm(rim, axis=1, keepdims=True)
    cos_with_e = -rim[:, 2]  # e = -E_3
    return np.pi - np.arccos(np.clip(cos_with_e, -1.0, 1.0))


# -- boundary identities -------------------------------------------------------


@dataclass
class BoundaryIdentityReport:
    """Deviations from the rim identities of exact solutions.

    ``h_mixed_max``: max |mixed Hessian (tangent, normal) of h| on the rim,
    which vanishes for exact solutions.
    ``u_identity_max``: max |u_kn + cot(theta) u_k| on the rim for u = h/l.
    Both identities follow from the Robin condition d_r h = cot(theta) h, which
    ``apriori.verify`` checks on log h.
    """

    h_mixed_max: float
    u_identity_max: float
    h_mixed: np.ndarray
    u_identity: np.ndarray


def boundary_identity_check(sf: SupportField) -> BoundaryIdentityReport:
    """Evaluate the rim identities h_kn = 0 and u_kn = -cot(theta) u_k.

    Mixed entries use the same frame-Hessian stencils as the rest of the
    stack (one-sided in r on the rim); no special boundary calculus.

    Both deviations are linear in h, so they are evaluated on h 2^-k, whose
    max lies in [1/2, 1), and multiplied back by 2^k.  Powers of two scale
    exactly, so the values are those of h itself wherever h's own scale does
    not overflow; the frame Hessian of u = h/l overflows first, at max h near
    1e303 on small caps.
    """
    grid = sf.grid
    b = grid.boundary_ring
    spec = grid.spec
    k = math.frexp(float(np.max(np.abs(sf.h))))[1]
    unit = SupportField(h=np.ldexp(sf.h, -k), grid=grid)

    if spec.n == 1:
        # No tangential directions on a 0-dimensional rim; identities are void.
        zeros = np.zeros(grid.Nphi)
        return BoundaryIdentityReport(h_mixed_max=0.0, u_identity_max=0.0,
                                      h_mixed=zeros, u_identity=zeros.copy())

    h_mixed = np.ldexp(hessian(unit.h, grid).comps[0, 1][b], k)
    u_grad, u_hess = grad_hessian(capillary_support(unit), grid)
    u_dev = np.ldexp(u_hess.comps[0, 1][b] + spec.cot_theta * u_grad.comps[1][b], k)
    return BoundaryIdentityReport(
        h_mixed_max=float(np.max(np.abs(h_mixed))),
        u_identity_max=float(np.max(np.abs(u_dev))),
        h_mixed=h_mixed,
        u_identity=u_dev,
    )


# -- export --------------------------------------------------------------------


def export_obj(mesh: BodyMesh, path) -> None:
    """Write the mesh as ASCII OBJ: v records, f records and an l record for the
    rim loop; each section is one ``%`` over a flat tuple.

    Coordinates are written in %.9g.  That is exact for every float32 value
    (how mesh tools store OBJ vertices) and rounds a double by at most 5e-9 of
    itself, far below the O(spacing^2) discretization error of the vertices.
    Nine digits also keep CPython's float formatting on its fast path, where
    %.17g takes the exact big-integer one at twice the cost.
    """
    v, f = mesh.vertices, mesh.faces + 1
    loop = " ".join(map(str, (mesh.boundary_loop + 1).tolist()))
    with open(path, "w", newline="\n") as fh:
        fh.write(("v %.9g %.9g %.9g\n" * len(v)) % tuple(v.ravel().tolist())
                 + ("f %d %d %d\n" * len(f)) % tuple(f.ravel().tolist()) + f"l {loop}\n")
