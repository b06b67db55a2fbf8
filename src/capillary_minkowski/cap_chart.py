"""Geodesic-polar chart of the spherical cap plus discrete differential operators.

The cap of contact angle theta is parametrized by geodesic polar coordinates
(r, phi) about its pole, r in (0, theta], with the round metric
sigma = dr^2 + sin(r)^2 dphi^2.  Scalar fields are sampled on a tensor grid
with staggered radial nodes r_i = (i + 1/2) dr (no node at the coordinate
singularity r = 0, rim node exactly at r = theta) and uniform periodic
angular nodes.  Crossing the pole identifies (r, phi) with (-r, phi + pi),
which supplies ghost values for radial stencils on the innermost rings.

Frame components refer to the orthonormal frame {d_r, (1/sin r) d_phi}; the
chart formulas of the mixed frame operators D2, H12 and H22 are written once,
in ``_mixed``, which ``PolarGrid.ops`` evaluates on per-ring ``Stencil`` tables
and ``FrameOps.apply`` on fields.
Angular stencils are fourth order everywhere and the radial first derivative
is fourth order on the inner half of the cap: the Christoffel factors cot(r)
and 1/sin(r)^2 amplify truncation errors by 1/r near the pole, and the extra
order is what keeps gradient/Hessian errors O(max spacing^2) in the max norm.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack, solve_banded


@dataclass(frozen=True)
class CapSpec:
    """Contact angle and intrinsic dimension of the cap.

    Trigonometric constants are computed once here and reused everywhere so
    that all modules agree bit-for-bit on cos(theta), sin(theta), cot(theta).
    """

    theta: float
    n: int = 2
    cos_theta: float = field(init=False, repr=False)
    sin_theta: float = field(init=False, repr=False)
    cot_theta: float = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.theta < 0.5 * math.pi:
            raise ValueError(f"theta must lie in (0, pi/2), got {self.theta}")
        if self.n < 1 or self.n != int(self.n):
            raise ValueError(f"cap dimension n must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "cos_theta", math.cos(self.theta))
        object.__setattr__(self, "sin_theta", math.sin(self.theta))
        object.__setattr__(self, "cot_theta", math.cos(self.theta) / math.sin(self.theta))

    def cap_area(self) -> float:
        """Area of the cap: 2*pi*(1-cos theta) for n = 2, arc length 2*theta for n = 1."""
        if self.n == 2:
            return 2.0 * math.pi * (1.0 - self.cos_theta)
        if self.n == 1:
            return 2.0 * self.theta
        raise ValueError("area formula implemented for n in (1, 2) only")


def _mixed(want, inv_sin, inv_sin_sq, cot, D1, Dphi, Dphiphi, D1_Dphi) -> dict:
    """The mixed frame operators named in ``want``, by the chart formulas
      D2  = Dphi / sin r
      H12 = (D1 Dphi - cot r Dphi) / sin r
      H22 = Dphiphi / sin^2 r + cot r D1
    on fields (with 1/sin r, 1/sin^2 r and cot r at every node) or on tables
    (``_LaidTable``, with them on every ring).  Only the terms of the operators
    in ``want`` are read; on fields, the terms D1_Dphi, Dphiphi and Dphi are
    updated in place.
    """
    out = {}
    if "H12" in want:
        D1_Dphi -= Dphi * cot
        D1_Dphi *= inv_sin
        out["H12"] = D1_Dphi
    if "H22" in want:
        Dphiphi *= inv_sin_sq
        Dphiphi += D1 * cot
        out["H22"] = Dphiphi
    if "D2" in want:  # last: on fields it overwrites Dphi, which H12 reads
        Dphi *= inv_sin
        out["D2"] = Dphi
    return out


@dataclass(frozen=True)
class FrameOps:
    """The frame calculus on the flattened (Nr*Nphi) grid.

    ``stencils`` holds one per-ring table per operator: D1 = d_r, H11 = d_rr,
    the mixed D2, H12 and H22 of ``_mixed``, and the identity, the zeroth-order
    term of a linearization.  Only D1, H11 and the angular Dphi (d_phi) and
    Dphiphi (d_phiphi), the same on every ring, are sparse matrices; ``apply``
    evaluates ``_mixed`` on fields from them, with D1's ghost rows acting on
    d_phi u (the half-turn shift commutes with d_phi).  The 2D-only ones are
    None for n = 1.  Rows are grid nodes in C order on a grid of ``shape``
    (Nr, Nphi); ring Nr - 1 is the rim.  ``combination`` and its siblings take
    sum_k diag(c_k) op_k over every row, so the coefficient fields alone
    (``ma_system.jacobian_coefficients``) say what a row is.  ``layout`` is
    the tables' integer structure, shared by every grid of the shape with the
    same tables (``shape_layout``); only the weights are this grid's.
    """

    D1: sp.csr_matrix
    H11: sp.csr_matrix
    shape: tuple
    stencils: dict
    layout: TableLayout
    Dphi: sp.csr_matrix | None = None
    Dphiphi: sp.csr_matrix | None = None
    inv_sin: np.ndarray | None = None  # 1/sin r, 1/sin^2 r and cot r at every node, flattened
    inv_sin_sq: np.ndarray | None = None
    cot: np.ndarray | None = None

    def apply(self, x: np.ndarray, *names: str) -> list[np.ndarray]:
        """[op x for op in ``names``] as (Nr, Nphi) fields, for a field x flattened or not.

        The terms asked for share one D1 x and one Dphi x.  Dphi and Dphiphi act
        on x minus its value at phi = 0 on each ring: they annihilate ring
        constants, so this changes nothing exactly, but near the pole, where a
        ring is almost constant, it keeps the rounding of x itself from the
        1/sin r and 1/sin^2 r factors (docs/math_map.md, "Rounding at the pole").
        """
        x = np.ravel(x)
        out = {"identity": x}
        if "D1" in names or "H22" in names:
            out["D1"] = self.D1 @ x
        if "H11" in names:
            out["H11"] = self.H11 @ x
        if not {"D2", "H12", "H22"}.isdisjoint(names):
            u = x.reshape(self.shape)
            centred = (u - u[:, :1]).ravel()
            dphi = self.Dphi @ centred if "D2" in names or "H12" in names else None
            out.update(_mixed(names, self.inv_sin, self.inv_sin_sq, self.cot, out.get("D1"), dphi,
                              self.Dphiphi @ centred if "H22" in names else None,
                              self.D1 @ dphi if "H12" in names else None))
        return [out[name].reshape(self.shape) for name in names]

    def combination(self, **coeffs: np.ndarray) -> sp.csc_matrix:
        """sum_k diag(c_k) op_k, for ``coeffs`` mapping operator names to per-node fields c_k.

        Each table of ``stencils`` named in ``coeffs`` adds c_k times its
        weights into its slots of the union of all the tables' entries, in the
        order of ``coeffs``; the union expanded over phi is the pattern, so it
        does not depend on the coefficients (entries that cancel are stored
        zeros).  The pattern and the CSC order of its values come from
        ``layout.union``, so a call sums and gathers, nothing else.  Only the
        SuperLU steps of a grid without a coarser level need it; GMRES applies
        the operator through ``combination_product`` instead.
        """
        slots, size, pattern = self.layout.union
        values = np.zeros((size, self.shape[1]))
        for name, c in coeffs.items():
            t = self.stencils[name]
            values[slots[name]] += np.reshape(c, self.shape)[t.ring] * t.weight[:, None]
        return _with_data(pattern, values.ravel()[pattern.data])

    def combination_product(self, **coeffs: np.ndarray):
        """x -> combination(**coeffs) @ x, applied without assembly as the sum of
        c_k (op_k x) in the order of ``coeffs``, the op_k x from one ``apply``.
        Equal to the assembled product up to the order of the sums."""
        names, fields = list(coeffs), [np.ravel(c) for c in coeffs.values()]

        def product(x: np.ndarray) -> np.ndarray:
            out = np.zeros(np.size(x))
            for c, term in zip(fields, self.apply(x, *names)):
                out += c * term.ravel()
            return out

        return product

    @cached_property
    def _modes(self):
        """Band layout of ``mode_system`` and each ``stencils`` table's mode symbols in it.

        Table entry (i, j, s, w) adds w exp(2 pi i s k / Nphi) to entry (i, j) of
        the radial block of angular mode k: with the weights of one (i, j)
        scattered by shift into a row (a table has one entry per (i, j, s)), the
        symbols are conj(rfft(row)).  A ghost's shift Nphi/2 makes its phase (-1)^k.
        Where each entry goes in those rows, and the band layout, are
        ``layout.modes``; only the weights and their FFT are this grid's.
        """
        band, bounds, rows = self.layout.modes
        Nphi = self.shape[1]
        terms = {}
        for name, t in self.stencils.items():
            slots, ring, scatter = rows[name]
            row = np.zeros(slots.size * Nphi)
            row[scatter] = t.weight
            terms[name] = slots, ring, np.conj(np.fft.rfft(row.reshape(-1, Nphi), axis=1)).T
        return band, bounds, terms

    def mode_system(self, **coeffs: np.ndarray) -> ModeFactor:
        """LU factors of ``combination(**coeffs)`` with every c_k replaced by its
        mean over each ring: of ``combination(**coeffs)`` itself exactly when
        every c_k is constant on its ring.

        That operator commutes with rotations in phi, so an FFT in phi splits
        it into Nphi/2 + 1 banded radial blocks, one per angular mode.  They
        stand on the diagonal of one banded matrix, mode k in rows k Nr to
        (k + 1) Nr - 1, which one call of LAPACK's banded LU with partial
        pivoting factors: no entry couples two blocks, so each block's pivots
        stay inside it and its factors are those of the block alone.  A
        singular block leaves ``ModeFactor.solve`` non-finite, which GMRES
        reports as a miss and a factoring Newton step as a non-finite step:
        either raises SingularSystemError.
        """
        (brow, bcol), (kl, ku), terms = self._modes
        Nr, Nphi = self.shape
        data = np.zeros((Nphi // 2 + 1, brow.size), dtype=complex)
        for name, c in coeffs.items():
            slots, ring, sym = terms[name]
            data[:, slots] += np.reshape(c, self.shape).mean(axis=1)[ring] * sym
        # the band storage of mode k's columns, column-major as LAPACK reads it
        bands = np.zeros((data.shape[0], Nr, 2 * kl + ku + 1), dtype=complex)
        bands[:, bcol, brow] = data
        lu, piv, _ = lapack.zgbtrf(bands.reshape(-1, bands.shape[2]).T, kl, ku, overwrite_ab=True)
        return ModeFactor(lu, piv, kl, ku, self.shape)


@dataclass(frozen=True)
class ModeFactor:
    """Banded LU factors (lu, piv) of the stacked angular-mode blocks from
    ``FrameOps.mode_system``: the GMRES preconditioner, and the factor of J
    itself when every coefficient is constant on its ring."""

    lu: np.ndarray
    piv: np.ndarray
    kl: int
    ku: int
    shape: tuple  # (Nr, Nphi)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply the inverse of the ring-mean operator to a flattened real field:
        every mode's radial column, stacked in mode order, in one banded solve."""
        Nr, Nphi = self.shape
        modes = np.fft.rfft(np.reshape(b, self.shape), axis=1)
        x = lapack.zgbtrs(self.lu, self.kl, self.ku, modes.T.ravel(), self.piv, overwrite_b=True)[0]
        return np.fft.irfft(x.reshape(-1, Nr).T, n=Nphi, axis=1).ravel()


class Stencil(NamedTuple):
    """Per-ring table of a frame operator: entry (i, j, s, w) gives every node
    (i, k) the weight w at node (j, k + s mod Nphi), 0 <= s < Nphi.  A table
    times x scales ring i's rows by x[i]; ``ShapeLayout.sum`` adds two."""

    ring: np.ndarray
    src: np.ndarray
    shift: np.ndarray
    weight: np.ndarray

    def merge_order(self) -> tuple:
        """(inv, ring, src, shift): the distinct (ring, source ring, shift) keys of
        the entries, sorted, and the index of each entry's key among them."""
        m = int(max(self.ring.max(), self.src.max(), self.shift.max())) + 1
        key, inv = np.unique((self.ring * m + self.src) * m + self.shift, return_inverse=True)
        ring_src, shift = np.divmod(key, m)
        return (inv, *np.divmod(ring_src, m), shift)

    @staticmethod
    def summed(order: tuple, weight: np.ndarray) -> Stencil:
        """The table of the keys of ``merge_order`` ``order``, with the weights of
        each key summed in order and the sums of exactly 0.0 left out."""
        inv, *keys = order
        weight = np.bincount(inv, weights=weight)
        keep = weight != 0.0
        return Stencil(*(a[keep] for a in keys), weight[keep])

    def __mul__(self, x: np.ndarray) -> Stencil:
        return self._replace(weight=self.weight * x[self.ring])


class _LaidTable(NamedTuple):
    """A table with the arithmetic of ``_mixed``: t * x as a ``Stencil``, and
    t + u and t - u by ``layout.sum``, which keeps the merge order of each
    sum for every grid of the shape."""

    table: Stencil
    layout: ShapeLayout

    def __mul__(self, x: np.ndarray) -> _LaidTable:
        return self._replace(table=self.table * x)

    def __add__(self, other: _LaidTable) -> _LaidTable:
        return self._replace(table=self.layout.sum(self.table, other.table))

    def __sub__(self, other: _LaidTable) -> _LaidTable:
        return self + other._replace(table=other.table._replace(weight=-other.table.weight))


class PolarGrid:
    """Structured (r, phi) grid with quadrature weights and pole bookkeeping.

    For n = 2 the angular direction has Nphi uniform nodes on [0, 2*pi); for
    n = 1 the grid degenerates to Nphi = 1 (even fields on the arc, no
    angular terms).  Fields live in arrays of shape (Nr, Nphi), flattened in
    C order wherever a vector is needed.
    """

    def __init__(self, spec: CapSpec, Nr: int, Nphi: int | None = None):
        if spec.n not in (1, 2):
            raise ValueError(f"grids support n in (1, 2), got n = {spec.n}")
        if Nphi is None:
            Nphi = Nr if spec.n == 2 else 1
        for name, count in (("Nr", Nr), ("Nphi", Nphi)):
            if isinstance(count, bool) or not float(count).is_integer():
                raise ValueError(f"{name} must be an integer, got {count!r}")
        Nr, Nphi = int(Nr), int(Nphi)
        if spec.n == 1 and Nphi != 1:
            raise ValueError("n = 1 grids are radial only (Nphi must be 1)")
        if spec.n == 2 and (Nphi < 6 or Nphi % 2 != 0):
            raise ValueError(f"Nphi must be even and >= 6, got {Nphi}")
        if Nr < 6:
            raise ValueError(f"Nr must be >= 6, got {Nr}")

        self.spec = spec
        self.Nr = Nr
        self.Nphi = Nphi
        self.dr = spec.theta / (Nr - 0.5)
        self.dphi = 2.0 * math.pi / Nphi if spec.n == 2 else 0.0

        r = (np.arange(Nr) + 0.5) * self.dr
        r[-1] = spec.theta  # rim node sits exactly on the boundary circle
        self.r = r
        self.phi = np.arange(Nphi) * self.dphi
        self.sin_r = np.sin(r)
        self.cos_r = np.cos(r)
        with np.errstate(over="ignore"):  # inf at a denormal sin r; the start density refuses it
            self.cot_r = self.cos_r / self.sin_r

        # Pairing of angular indices across the pole: (-r, phi) ~ (r, phi+pi).
        self.pole_map = (np.arange(Nphi) + Nphi // 2) % Nphi

        self.weights = self._quadrature_weights()

    # -- construction helpers -------------------------------------------------

    def _quadrature_weights(self) -> np.ndarray:
        """Per-node weights: exact cell integrals of the area element.

        Cell i spans [i*dr, (i+1)*dr] for i < Nr-1 and [(Nr-1)*dr, theta] for
        the rim node, so constants integrate to the exact cap area and smooth
        fields to second order.
        """
        edges = np.arange(self.Nr + 1) * self.dr
        edges[-1] = self.spec.theta
        if self.spec.n == 2:
            w_r = np.cos(edges[:-1]) - np.cos(edges[1:])
            return np.repeat((w_r * self.dphi)[:, None], self.Nphi, axis=1)
        # n = 1: even fields on the arc [-theta, theta]; each node represents
        # both halves, hence the factor 2 on the cell width.
        w_r = 2.0 * (edges[1:] - edges[:-1])
        return w_r[:, None].copy()

    def _stencil(self, offsets, w_r, shifts=(0,), w_phi=(1.0,)) -> Stencil:
        """Merged table of a radial stencil (offsets, weights w_r[ring, m] or w_r[m])
        times an angular one (shifts, w_phi); zero weights pad rows and add nothing.
        A source ring j < 0 is the ghost across the pole: ring -1 - j at ``pole_map``.
        Which entries merge comes from ``shape_layout``; only the sums are this grid's."""
        w = np.broadcast_to(w_r, (self.Nr, len(offsets)))[:, :, None] * np.asarray(w_phi)
        order = shape_layout(self.Nr, self.Nphi).merge_order(tuple(offsets), tuple(shifts),
                                                             int(self.pole_map[0]))
        return Stencil.summed(order, w.ravel())

    # -- conveniences ----------------------------------------------------------

    @property
    def shape(self):
        return (self.Nr, self.Nphi)

    @property
    def size(self):
        return self.Nr * self.Nphi

    @property
    def boundary_ring(self) -> int:
        return self.Nr - 1

    @property
    def max_spacing(self) -> float:
        """Largest physical node spacing; the scale used in O(spacing^2) tolerances."""
        if self.spec.n == 2:
            return max(self.dr, self.spec.sin_theta * self.dphi)
        return self.dr

    @property
    def discretization_tol(self) -> float:
        """10 * max_spacing^2: the threshold of the checks that exact solutions
        meet only to the second-order truncation of the discretization."""
        return 10.0 * self.max_spacing**2

    def mesh(self):
        """Broadcast (r, phi) node coordinates as (Nr, Nphi) arrays."""
        return np.broadcast_to(self.r[:, None], self.shape).copy(), \
            np.broadcast_to(self.phi[None, :], self.shape).copy()

    def apply(self, op: sp.csr_matrix, f: np.ndarray) -> np.ndarray:
        return (op @ np.ascontiguousarray(f).ravel()).reshape(self.shape)

    @cached_property
    def ops(self) -> FrameOps:
        """The frame operators of this grid, built on first use: a Jacobian
        assembly only fills its coefficients into ``FrameOps.combination``,
        and building them lazily keeps grid construction cheap.

        Only the weights are computed here.  The integer structure of the
        tables and matrices is the ``TableLayout`` that ``shape_layout`` keeps
        for every grid of this shape: each matrix gathers its ``data`` from its
        table's weights through the layout's entry map and shares the layout's
        read-only ``indices`` and ``indptr``."""
        Nr, Nphi, dr = self.Nr, self.Nphi, self.dr
        # fourth-order, second-order and one-sided rim rows; zero weights pad them
        kind = np.where((self.r <= 0.5 * self.spec.theta) & (np.arange(Nr) <= Nr - 3), 0, 1)
        kind[-1] = 2
        d_r = [-2, -1, 0, 1, 2], np.stack([np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * dr),
                                           np.array([0.0, -1.0, 0.0, 1.0, 0.0]) / (2 * dr),
                                           np.array([1.0, -4.0, 3.0, 0.0, 0.0]) / (2 * dr)])[kind]
        d_rr = [-3, -2, -1, 0, 1], \
            np.array([[0.0, 0.0, 1.0, -2.0, 1.0], [-1.0, 4.0, -5.0, 2.0, 0.0]])[kind // 2] / dr**2
        expanded = {"D1": self._stencil(*d_r), "H11": self._stencil(*d_rr)}
        stencils, scalings = {"identity": self._stencil([0], [1.0]), **expanded}, {}
        if self.spec.n == 2:
            d_phi = [-2, -1, 1, 2], np.array([1.0, -8.0, 8.0, -1.0]) / (12 * self.dphi)
            d_phiphi = [-2, -1, 0, 1, 2], \
                np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * self.dphi**2)
            Dphi, Dphiphi = self._stencil([0], [1.0], *d_phi), self._stencil([0], [1.0], *d_phiphi)
            inv_sin, cot = 1.0 / self.sin_r, self.cot_r
            tables = (_LaidTable(t, shape_layout(Nr, Nphi))
                      for t in (stencils["D1"], Dphi, Dphiphi, self._stencil(*d_r, *d_phi)))
            mixed = _mixed({"D2", "H12", "H22"}, inv_sin, inv_sin**2, cot, *tables)
            stencils.update((name, t.table) for name, t in mixed.items())
            expanded.update(Dphi=Dphi, Dphiphi=Dphiphi)
            scalings = dict(inv_sin=np.repeat(inv_sin, Nphi),
                            inv_sin_sq=np.repeat(inv_sin**2, Nphi), cot=np.repeat(cot, Nphi))
        layout = shape_layout(Nr, Nphi).table_layout(stencils, expanded)
        weights = np.concatenate([expanded[name].weight for name in layout.csr])
        matrices = {name: _with_data(pattern, weights[pattern.data])
                    for name, pattern in layout.csr.items()}
        return FrameOps(**matrices, **scalings, shape=self.shape, stencils=stencils, layout=layout)

    @cached_property
    def stencil_amplification(self) -> float:
        """Worst row 1-norm of the frame-Hessian operators.

        Bounds how much the Hessian stencils amplify float noise in a field:
        the residual of a nonlinear system built on them cannot be evaluated
        below roughly eps * amplification * |field|, which matters near the
        pole where 1/sin(r)^2 is large.
        """
        hess = [t for name, t in self.ops.stencils.items() if name in ("H11", "H12", "H22")]
        return float(max(np.bincount(t.ring, weights=np.abs(t.weight)).max() for t in hess))


def _expand(t: Stencil, Nr: int, Nphi: int, values: np.ndarray, blocks: int = 1) -> sp.csr_matrix:
    """A table sorted by ring expanded over phi, as a CSR matrix with sorted rows:
    entry e = (i, j, s, w) puts values[e, k] (``values`` broadcast to (entries,
    Nphi)) in row (i, k), column (j, k + s mod Nphi).  With the entries' own
    places as ``values``, the matrix's data is the layout's entry map.  Rings
    i >= Nr give ``blocks`` square matrices one below the other: ``blocks``
    tables expand in one pass when table b's rings are raised by b Nr."""
    k, N = np.arange(Nphi, dtype=np.int32), Nr * Nphi
    count = np.bincount(t.ring, minlength=blocks * Nr).astype(np.int32)
    first = (np.cumsum(count) - count)[t.ring]  # row (i, k): data[first * Nphi + k * count:]
    dest = (first * (Nphi - 1) + np.arange(t.ring.size, dtype=np.int32))[:, None] \
        + count[t.ring][:, None] * k
    col = t.shift.astype(np.int32)[:, None] + k  # below 2 Nphi: mod Nphi is one subtraction
    np.subtract(col, Nphi, out=col, where=col >= Nphi)
    col += (t.src * Nphi).astype(np.int32)[:, None]
    indices, data = np.empty(dest.size, dtype=np.int32), np.empty(dest.size, dtype=values.dtype)
    indices[dest], data[dest] = col, values
    indptr = np.zeros(blocks * N + 1, dtype=np.int32)
    np.cumsum(np.repeat(count, Nphi), out=indptr[1:])
    mat = sp.csr_matrix((data, indices, indptr), shape=(blocks * N, N))
    mat.sort_indices()  # one entry per column in a row, so this only orders them
    return mat


def _with_data(pattern, data: np.ndarray):
    """The sparse matrix of a layout's ``pattern``, whose data are places, with
    ``data`` instead: it shares the pattern's read-only indices and indptr."""
    mat = copy.copy(pattern)
    mat.data = data
    return mat


def _read_only(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _frozen(pattern):
    """A sparse matrix whose arrays are made read-only."""
    _read_only(pattern.data, pattern.indices, pattern.indptr)
    return pattern


def _entry_dtype(count: int) -> np.dtype:
    """The smallest unsigned type that numbers ``count`` entries."""
    return np.min_scalar_type(max(count - 1, 0))


class TableLayout:
    """The integer structure of one set of tables on one grid shape: all of a
    grid's frame operators that its weights do not change.  ``key`` holds the
    tables' (ring, src, shift) arrays as bytes.  Each part is built on first
    use, and every array in it is read-only:

    - ``csr``: for each table expanded to a ``FrameOps`` matrix, that matrix
      with, as its data, the place of each stored entry's weight among the
      tables' weights concatenated in ``csr`` order (its CSR ``indices`` and
      ``indptr`` are shared by the grids' matrices);
    - ``modes``: the band layout of ``FrameOps.mode_system``, (kl, ku), and
      for each ``stencils`` table its entries' band slots, their rings, and
      their places in the rows that ``FrameOps._modes`` transforms;
    - ``union``: for each ``stencils`` table its slots in the union of all
      their entries, the union's size, and the CSC matrix of
      ``FrameOps.combination`` with, as its data, the place (union entry,
      angle) of each stored entry in the summed values.
    """

    def __init__(self, shape: tuple, key: tuple, stencils: tuple, matrices: tuple):
        self.shape, self.key, self._stencils, self._matrices = shape, key, stencils, matrices

    def _tables(self, names: tuple) -> dict:
        """The tables ``names`` without weights, read from ``key``."""
        return {name: Stencil(*np.frombuffer(b, dtype=np.intp).reshape(3, -1), None)
                for name, b in self.key if name in names}

    @cached_property
    def csr(self) -> dict:
        Nr, Nphi = self.shape
        tables = self._tables(self._matrices)
        stacked = Stencil(*map(np.concatenate, zip(*((t.ring + b * Nr, t.src, t.shift)
                                                     for b, t in enumerate(tables.values())))), None)
        size, N = stacked.ring.size, Nr * Nphi
        mat = _expand(stacked, Nr, Nphi, np.arange(size, dtype=_entry_dtype(size))[:, None],
                      blocks=len(tables))
        out = {}
        for b, name in enumerate(tables):
            lo, hi = mat.indptr[b * N], mat.indptr[(b + 1) * N]
            out[name] = sp.csr_matrix((mat.data[lo:hi], mat.indices[lo:hi],
                                       mat.indptr[b * N:(b + 1) * N + 1] - lo), shape=(N, N))
            out[name].has_sorted_indices = True
            _frozen(out[name])
        return out

    @cached_property
    def modes(self) -> tuple:
        Nr, Nphi = self.shape
        parts = {}
        for name, t in self._tables(self._stencils).items():
            pairs = t.ring * Nr + t.src  # a table is sorted by (ring, src, shift)
            new = np.empty(pairs.size, dtype=bool)
            new[0] = True
            np.not_equal(pairs[1:], pairs[:-1], out=new[1:])
            parts[name] = pairs[new], (np.cumsum(new) - 1) * Nphi + t.shift
        keys = np.unique(np.concatenate([pos for pos, _ in parts.values()]))
        row, col = np.divmod(keys, Nr)
        kl, ku = int(np.max(row - col)), int(np.max(col - row))
        rows = {name: _read_only(np.searchsorted(keys, pos), pos // Nr, scatter)
                for name, (pos, scatter) in parts.items()}
        band = _read_only(kl + ku + row - col, col)  # LAPACK gbtrf band storage of entry (row, col)
        return band, (kl, ku), rows

    @cached_property
    def union(self) -> tuple:
        Nr, Nphi = self.shape
        key = {name: (t.ring * Nr + t.src) * Nphi + t.shift
               for name, t in self._tables(self._stencils).items()}
        union = np.unique(np.concatenate(list(key.values())))
        slots = {name: np.searchsorted(union, k) for name, k in key.items()}
        _read_only(*slots.values())
        ring_src, shift = np.divmod(union, Nphi)
        place = np.arange(union.size * Nphi, dtype=_entry_dtype(union.size * Nphi))
        pattern = _expand(Stencil(*np.divmod(ring_src, Nr), shift, None), Nr, Nphi,
                          place.reshape(-1, Nphi)).tocsc()
        return slots, union.size, _frozen(pattern)


class ShapeLayout:
    """What the frame operators of all grids of one shape (Nr, Nphi) share,
    whatever their theta (n is 1 exactly when Nphi is 1): the ``merge_order``
    of each product that ``PolarGrid._stencil`` merges and of each ``sum``
    of tables that ``_mixed`` forms, and the ``TableLayout`` of the tables
    asked for last.  A merged table leaves out the entries whose weights sum
    to exactly 0.0, which depends on the weights, so tables that differ from
    the kept ones replace them; a grid's ``FrameOps`` keeps the layout it was
    built on."""

    def __init__(self, Nr: int, Nphi: int):
        self.shape = (Nr, Nphi)
        self._merges = {}
        self._last = None

    def merge_order(self, offsets: tuple, shifts: tuple, ghost_shift: int) -> tuple:
        """``Stencil.merge_order`` of the entries of the radial ``offsets`` times
        the angular ``shifts`` on every ring, ghosts read ``ghost_shift`` away."""
        key = offsets, shifts, ghost_shift
        if key not in self._merges:
            Nr, Nphi = self.shape
            ring = np.arange(Nr)
            src = np.repeat(ring[:, None] + offsets, len(shifts))
            shift = (np.resize(shifts, src.size) + (src < 0) * ghost_shift) % Nphi
            rows = Stencil(np.repeat(ring, src.size // Nr), np.where(src < 0, -1 - src, src), shift,
                           None)
            self._merges[key] = _read_only(*rows.merge_order())
        return self._merges[key]

    def sum(self, a: Stencil, b: Stencil) -> Stencil:
        """The table of a's and b's entries merged as by ``Stencil.merge_order``:
        sorted by key, the weights of one key summed a's first, and sums of
        exactly 0.0 left out, as in sparse sums.  The merge order is kept for
        the (ring, src, shift) arrays of a and b."""
        key = tuple(x.tobytes() for x in (*a[:3], *b[:3]))
        if key not in self._merges:
            both = Stencil(*map(np.concatenate, zip(a[:3], b[:3])), None)
            self._merges[key] = _read_only(*both.merge_order())
        return Stencil.summed(self._merges[key], np.concatenate((a.weight, b.weight)))

    def table_layout(self, stencils: dict, matrices: dict) -> TableLayout:
        """The ``TableLayout`` of the ``stencils`` tables and of the ``matrices``
        tables that ``FrameOps`` holds expanded."""
        key = tuple((name, np.concatenate(t[:3]).tobytes())
                    for name, t in {**stencils, **matrices}.items())
        if self._last is None or self._last.key != key:
            self._last = TableLayout(self.shape, key, tuple(stencils), tuple(matrices))
        return self._last


# Grid shapes whose ShapeLayout is kept.  A benchmark process meets at most
# five, warm-up included: sweep-small's 16^2, 24^2, 32^2 and 40^2 with its
# coarse 20^2 level, and aniso-96's 16^2, 96^2, 48^2, 24^2 and the 32^2
# reference (harmonic-128: four).  With fewer, every pass of those workloads
# would rebuild some layout; a 512^2 solve's five levels fit as well.
LAYOUT_SHAPES = 5


@lru_cache(maxsize=LAYOUT_SHAPES)
def shape_layout(Nr: int, Nphi: int) -> ShapeLayout:
    """The ``ShapeLayout`` of grids of shape (Nr, Nphi), one per shape for the
    LAYOUT_SHAPES shapes used last."""
    return ShapeLayout(Nr, Nphi)


@dataclass
class FrameVector:
    """Per-node vector in the orthonormal frame; comps has shape (n, Nr, Nphi)."""

    comps: np.ndarray

    def norm_sq(self) -> np.ndarray:
        return np.sum(self.comps**2, axis=0)

    def norm(self) -> np.ndarray:
        return np.sqrt(self.norm_sq())


@dataclass
class FrameSymMatrix:
    """Per-node symmetric matrix in the orthonormal frame; comps (n, n, Nr, Nphi)."""

    comps: np.ndarray

    @property
    def n(self) -> int:
        return self.comps.shape[0]

    def det(self) -> np.ndarray:
        if self.n == 1:
            return self.comps[0, 0].copy()
        a, b, c = self.comps[0, 0], self.comps[0, 1], self.comps[1, 1]
        return a * c - b * b

    def eig_bounds(self):
        """(min, max) eigenvalue per node via the closed 2x2 form (branch-free)."""
        if self.n == 1:
            a = self.comps[0, 0]
            return a.copy(), a.copy()
        a, b, c = self.comps[0, 0], self.comps[0, 1], self.comps[1, 1]
        half_tr = 0.5 * (a + c)
        disc = np.sqrt(0.25 * (a - c) ** 2 + b * b)
        return half_tr - disc, half_tr + disc

    def smallest_eigenvalue(self) -> np.ndarray:
        return self.eig_bounds()[0]

    def shifted(self, s: np.ndarray) -> "FrameSymMatrix":
        """Return self + s * identity (s a per-node scalar field)."""
        out = self.comps.copy()
        for i in range(self.n):
            out[i, i] = out[i, i] + s
        return FrameSymMatrix(out)


def l_field(grid: PolarGrid) -> np.ndarray:
    """Weight l = 1 - cos(theta) cos(r), the chart form of sin^2(theta) + cos(theta)<xi, e>."""
    col = 1.0 - grid.spec.cos_theta * grid.cos_r
    return np.repeat(col[:, None], grid.Nphi, axis=1)


def l_gradient_norm_sq(grid: PolarGrid) -> np.ndarray:
    """Closed-form |grad l|^2 = cos(theta)^2 sin(r)^2 on the grid."""
    col = (grid.spec.cos_theta * grid.sin_r) ** 2
    return np.repeat(col[:, None], grid.Nphi, axis=1)


_GRAD = {1: ("D1",), 2: ("D1", "D2")}
_HESS = {1: ("H11",), 2: ("H11", "H12", "H22")}


def _frame_hessian(terms: list[np.ndarray]) -> FrameSymMatrix:
    if len(terms) == 1:
        return FrameSymMatrix(terms[0][None, None])
    H11, H12, H22 = terms
    return FrameSymMatrix(np.array([[H11, H12], [H12, H22]]))


def grad(f: np.ndarray, grid: PolarGrid) -> FrameVector:
    """Orthonormal-frame gradient (f_r, f_phi / sin r): D1 and D2 of ``FrameOps.apply``."""
    return FrameVector(np.stack(grid.ops.apply(f, *_GRAD[grid.spec.n])))


def hessian(f: np.ndarray, grid: PolarGrid) -> FrameSymMatrix:
    """Covariant Hessian w.r.t. the round metric in the orthonormal frame: H11, H12, H22."""
    return _frame_hessian(grid.ops.apply(f, *_HESS[grid.spec.n]))


def grad_hessian(f: np.ndarray, grid: PolarGrid) -> tuple[FrameVector, FrameSymMatrix]:
    """(grad f, hessian f) from one ``FrameOps.apply`` pass, which computes
    D1 f and d_phi f once for both; equal to the two separate calls bit for bit."""
    n = grid.spec.n
    terms = grid.ops.apply(f, *_GRAD[n], *_HESS[n])
    return FrameVector(np.stack(terms[:n])), _frame_hessian(terms[n:])


def normal_derivative(f: np.ndarray, grid: PolarGrid) -> np.ndarray:
    """One-sided second-order d/dr at the rim r = theta (outward normal of the cap)."""
    return grid.apply(grid.ops.D1, f)[grid.boundary_ring].copy()


def resample(u: np.ndarray, src: PolarGrid, dst: PolarGrid) -> np.ndarray:
    """Interpolate a smooth nodal field from grid ``src`` to grid ``dst`` of the same cap.

    In phi: trigonometric interpolation, truncating or zero-padding the FFT
    (the Nyquist mode is split between +-N/2 when padding and joined when
    truncating).  In r: a not-a-knot cubic spline along each diameter, whose
    data continue across the pole by the closure (-r, phi) ~ (r, phi + pi).
    """
    if src.spec != dst.spec:
        raise ValueError("resample needs two grids of the same cap")
    u = np.asarray(u, dtype=float)
    if u.shape != src.shape:
        raise ValueError(f"field has shape {u.shape}, source grid expects {src.shape}")
    if dst.Nphi != src.Nphi:
        coeffs = np.fft.rfft(u, axis=1)
        half = min(src.Nphi, dst.Nphi) // 2
        out = np.zeros((src.Nr, dst.Nphi // 2 + 1), dtype=complex)
        out[:, :half + 1] = coeffs[:, :half + 1]
        out[:, half] *= 0.5 if dst.Nphi > src.Nphi else 2.0
        u = np.fft.irfft(out, n=dst.Nphi, axis=1) * (dst.Nphi / src.Nphi)
    across = u[::-1][:, dst.pole_map]  # ring i at -r_i, read half a turn away
    return not_a_knot(np.concatenate([-src.r[::-1], src.r]), np.vstack([across, u]), dst.r)


def not_a_knot(x: np.ndarray, y: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The not-a-knot cubic spline through (x, y), y along axis 0, evaluated at xi.

    The knot slopes s solve the tridiagonal system of C2 continuity, closed by
    third-derivative continuity across x[1] and x[-2] (de Boor, A Practical
    Guide to Splines, 1978, ch. IV).  Each piece is the cubic Hermite
    interpolant of its end values and slopes, and points outside [x[0], x[-1]]
    use the end pieces.  The arithmetic is scipy's CubicSpline's, operation for
    operation, so both give the same bits.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 4:
        raise ValueError(f"a not-a-knot spline needs at least 4 knots, got {n}")
    dx = np.diff(x)
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    ab = np.zeros((3, n))
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[2, :-2] = dx[1:]
    b = np.empty(y.shape)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    d = x[2] - x[0]
    ab[1, 0], ab[0, 1] = dx[1], d
    b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0]**2 * slope[1]) / d
    d = x[-1] - x[-3]
    ab[1, -1], ab[2, -2] = dx[-2], d
    b[-1] = (dxr[-1]**2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    s = solve_banded((1, 1), ab, b.reshape(n, -1), overwrite_ab=True, overwrite_b=True,
                     check_finite=False).reshape(y.shape)

    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    xi = np.asarray(xi, dtype=float)
    i = np.clip(np.searchsorted(x, xi, "right") - 1, 0, n - 2)
    z = (xi - x[i]).reshape(xi.shape + (1,) * (y.ndim - 1))
    z2 = z * z
    c0, c1 = (t / dxr)[i], ((slope - s[:-1]) / dxr - t)[i]
    return y[:-1][i] + s[:-1][i] * z + c1 * z2 + c0 * (z2 * z)


def integrate(f: np.ndarray, grid: PolarGrid) -> float:
    """Quadrature-weighted sum approximating the integral against the area element."""
    return float(np.sum(grid.weights * f))
