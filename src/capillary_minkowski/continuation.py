"""Damped Newton iteration with a convexity safeguard, from the exact start
h = l of the density homotopy f_t, with nested iteration across grids.

The homotopy f_t = (1-t) f0 + t f interpolates from the start density f0
(for which h = l solves the problem exactly) to the target f.  Each t-stage
is solved by Newton with a backtracking line search on the max-norm of the
residual.  The first stage is t = 1; each stage failure halves the t-step,
so the march along f_t is the fallback.
On a grid with a coarser level the homotopy runs only on the coarsest level,
and each finer level starts one Newton solve at t = 1 from the resampled
solution.  The grid picks the linear solve: GMRES where a coarser level
exists, stopped by a forcing term tied to the residual and preconditioned by
angular-mode blocks that one Newton solve builds once, else a factorization
(the angular-mode blocks at a v constant on every ring, SuperLU in its own
fill-reducing order at any other), which one Newton solve keeps for chord
steps while these contract fast enough.
"""

from __future__ import annotations

import ctypes
import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse.linalg as spla

from .cap_chart import PolarGrid, l_field, l_gradient_norm_sq, resample
from .capillary_body import ExponentPair, SupportField
from .errors import (
    ContinuationStallError,
    InvalidExponentsError,
    LineSearchStallError,
    MaxIterationsError,
    NonConvexError,
    SingularSystemError,
    SolverError,
)
# log_gauss_map_matrix is unused here; the benchmark's tracer patches it by this name.
from .ma_system import (ProblemSpec, ResidualVector, jacobian,  # noqa: F401
                        jacobian_coefficients, log_gauss_map_matrix, residual)

# Smallest Nphi of a coarser level (``_coarse_shape``).  Measured on one
# 2-core host: 20 moves the SuperLU homotopy of every 40^2-46^2 grid to a
# 20^2-23^2 level, which cut the sweep-small benchmark's solve_s from 0.83
# to 0.62 s (medians of 10 runs each).  16 would also nest every 32^2-38^2
# grid, but 32^2 grids are the homotopy fixtures of the chord, nested and
# march tests, which would then test nested solves instead.
NESTED_MIN_NPHI = 20

# GMRES controls of a Krylov Newton step.  GMRES stops once the 2-norm of
# J delta + R is at most max(eta * ||R||_2, KRYLOV_TOL_SHARE * tol), with
# the forcing term eta = min(KRYLOV_ETA_MAX, ||R||_inf) and tol the Newton
# solve's effective tolerance.  eta = O(||R||) keeps Newton's quadratic
# convergence (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982;
# Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996): the linear part of the
# next residual is then of the order of its quadratic part, ||R||^2.  Since
# ||.||_inf <= ||.||_2, the absolute bound keeps that linear part below a
# tenth of what the solve must reach.  KRYLOV_MAX_ITERS is the budget of one
# unrestarted cycle, after which the step fails with SingularSystemError.
KRYLOV_ETA_MAX = 0.1
KRYLOV_TOL_SHARE = 0.1
KRYLOV_MAX_ITERS = 40

# A coarser level is solved only to COARSE_LEVEL_TOL * spacing^2 (its
# max_spacing), or to the requested tolerance when that is larger: the finer
# level's start then errs by its discretization error anyway, of order
# spacing^2 (nested iteration; Hackbusch, Multi-Grid Methods and
# Applications, Springer 1985, ch. 5).  It is 1/1000 of the 10 * spacing^2
# bound of ``verify``.  The finest level keeps the requested tolerance.
COARSE_LEVEL_TOL = 1e-2

# A chord step (the solve's factor of an earlier Jacobian) is accepted when
# its full step cuts the residual max-norm by this factor; otherwise the
# factor is dropped and the step is redone exactly.  On the sweep-small
# benchmark (seed 1) 0.1 cut the factorizations from 179 to 50.  0.25 made
# 40 in about the same time, but up to 13 Newton steps in a stage against 10
# with 0.1, nearer the default max_iter of 30.
CHORD_CONTRACTION = 0.1

# SuperLU factors J in symmetric mode: ordered on J^T + J, it keeps a diagonal
# pivot unless it is below this share of its column's largest entry, and else
# pivots off the diagonal.  The Jacobian is nearly structurally symmetric, and
# keeping the diagonal cut the fill of a 32^2 factor from 92k to 79k entries
# and its time by 11%; at 0.1 the 24^2-40^2 factors pivoted off the diagonal
# and their fill went back to that of partial pivoting.
DIAG_PIVOT_THRESH = 0.01

# The line search gives up below this step length, after 20 halvings: a
# direction that cuts the residual max-norm at no length down to a millionth
# of the Newton step is no descent direction in float arithmetic.
LINE_SEARCH_MIN_STEP = 1e-6

# Every accepted iterate keeps lambda_min(B) >= this * lambda_max(B): a margin
# 1e8 times the rounding of a computed eigenvalue, so lambda_min, and with it
# log det B in the residual, is known to about 2e-8 relative.
CONVEXITY_FLOOR_REL = 1e-8


def as_count(value, name: str) -> int:
    """A setting that counts something: a number with an integral value (16 or
    16.0) in the float range, never truncated; booleans and strings are refused."""
    if (isinstance(value, int) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_real(value, name: str) -> float:
    """A real setting: a finite number, never a boolean (float(True) would be 1.0)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Newton controls: tolerance on the residual max-norm and the iteration cap."""

    tol: float = 1e-9
    max_iter: int = 30

    def __post_init__(self):
        object.__setattr__(self, "tol", as_real(self.tol, "tol"))
        object.__setattr__(self, "max_iter", as_count(self.max_iter, "max_iter"))
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be an integer >= 1")


@dataclass(frozen=True)
class HomotopySchedule:
    """The march in t: steps from 1, halved on failure down to min_step."""

    min_step: float = 2.0**-10

    def __post_init__(self):
        object.__setattr__(self, "min_step", as_real(self.min_step, "min_step"))
        if not 0.0 < self.min_step <= 1.0:
            raise ValueError("min_step must lie in (0, 1]")


@dataclass
class NewtonStage:
    """History of one Newton solve (one homotopy stage)."""

    t: float
    iterations: int = 0
    residuals: list = field(default_factory=list)  # per-iterate max-norms, start included
    margins: list = field(default_factory=list)  # per-iterate min eigenvalue of B
    step_lengths: list = field(default_factory=list)
    converged: bool = False
    seconds: float = 0.0
    grid: list = field(default_factory=list)  # [Nr, Nphi] of the grid it ran on
    tol: float = float("nan")  # the effective tolerance it had to meet
    krylov_iters: list = field(default_factory=list)  # per linear solve; 0 for an LU solve
    factorizations: int = 0  # factorizations it made, SuperLU's and mode blocks' alike


@dataclass
class SolveReport:
    """Aggregated continuation history plus verification hooks."""

    stages: list = field(default_factory=list)
    requested_tol: float = float("nan")  # SolverConfig.tol; each stage's tol is the effective one
    start_residual: float = float("nan")
    final_residual: float = float("nan")
    total_seconds: float = 0.0
    bound_verification: object = None  # filled by the a priori estimate suite
    rejected: list = field(default_factory=list)  # {"t", "grid", "error"} per failed attempt

    @property
    def t_steps(self):
        return [s.t for s in self.stages]

    @property
    def newton_iters(self):
        return [s.iterations for s in self.stages]

    def reject(self, t: float, grid: PolarGrid, exc: Exception) -> None:
        self.rejected.append({"t": t, "grid": [grid.Nr, grid.Nphi], "error": type(exc).__name__})

    def to_json_dict(self) -> dict:
        out = {
            "t_steps": self.t_steps,
            "grids": [list(s.grid) for s in self.stages],
            "requested_tol": self.requested_tol,
            "tols": [s.tol for s in self.stages],
            "newton_iters": self.newton_iters,
            "residuals": [list(s.residuals) for s in self.stages],
            "margins": [list(s.margins) for s in self.stages],
            "krylov_iters": [list(s.krylov_iters) for s in self.stages],
            "factorizations": [s.factorizations for s in self.stages],
            "rejected": self.rejected,
            "timings": {
                "total_seconds": self.total_seconds,
                "stage_seconds": [s.seconds for s in self.stages],
            },
            "final_residual": self.final_residual,
            "start_residual": self.start_residual,
        }
        if self.bound_verification is not None:
            out["bound_verification"] = self.bound_verification.to_json_dict()
        return out


def start_density(grid: PolarGrid, pq: ExponentPair) -> np.ndarray:
    """The density f0 = l^(1-p) (l^2 + |grad l|^2)^((q-n-1)/2) solved exactly by h = l.

    Uses the closed forms l = 1 - cos(theta) cos(r) and |grad l| = cos(theta) sin(r).
    """
    n = grid.spec.n
    l = l_field(grid)
    return l ** (1.0 - pq.p) * (l * l + l_gradient_norm_sq(grid)) ** (0.5 * (pq.q - n - 1))


def homotopy_density(t: float, prob: ProblemSpec) -> np.ndarray:
    """f_t = (1 - t) f0 + t f."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    f0 = start_density(prob.grid, prob.pq)
    return (1.0 - t) * f0 + t * prob.f


def effective_tolerance(cfg: SolverConfig, grid: PolarGrid, v: np.ndarray) -> float:
    """Requested tolerance, floored by the residual's float-evaluation noise.

    Hessian stencils amplify rounding of v by up to grid.stencil_amplification
    (1/sin(r)^2 near the pole), so on fine grids the residual cannot be
    evaluated more accurately than eps * amplification * |v|; asking Newton to
    go below that only stalls the line search.
    """
    floor = 0.25 * np.finfo(float).eps * grid.stencil_amplification \
        * (1.0 + float(np.max(np.abs(v))))
    return float(max(cfg.tol, floor))


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None under another BLAS."""
    try:  # dlsym on numpy's extension module also searches the libraries it links
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                           ("openblas_", "64_"), ("openblas_", "")):
        try:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def _serial_blas():
    """Run numpy's OpenBLAS on one thread inside the block.

    GMRES works between its matvecs in level-1 BLAS on grid-length vectors,
    and OpenBLAS splits a dot product of more than 10000 entries across its
    threads.  On a 2-vCPU host whose vCPUs shared about one CPU, each split
    call waited about 8 ms for the second thread, against 4 us on one thread.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _gmres_solve(rhs: np.ndarray, R, prob: ProblemSpec, rtol: float, atol: float,
                 M=None) -> tuple[np.ndarray | None, int, float, object]:
    """(x, iterations, bound, M) of GMRES on J x = rhs for the exact J at the
    v of R, right-preconditioned by the ``ModeFactor`` M of ring-mean mode
    blocks.  GMRES stops once the 2-norm of J x - rhs is at most bound =
    max(rtol * ||rhs||_2, atol); x is None when it misses that bound.

    M, when given, is the factor of an earlier iterate's coefficients; a miss
    with it builds M once from R's coefficients and runs GMRES again, and
    iterations counts both runs.  Without it M is built from R's.  J is never
    assembled: GMRES applies it as ``FrameOps.combination_product`` of the
    same ``jacobian_coefficients`` that build M.  With the preconditioner on
    the right, GMRES minimizes the residual of J x = rhs itself, so its bound
    holds for the true linear residual.
    """
    ops = prob.grid.ops
    coeffs = jacobian_coefficients(R, prob)
    J = ops.combination_product(**coeffs)
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    JM = spla.LinearOperator((rhs.size, rhs.size), matvec=lambda y: J(M.solve(y)), dtype=float)
    with _serial_blas():
        bound = max(rtol * float(np.linalg.norm(rhs)), atol)  # a BLAS dot, kept serial
        for build in ((False, True) if M is not None else (True,)):
            if build:
                M = ops.mode_system(**coeffs)
            y, info = spla.gmres(JM, rhs, rtol=rtol, atol=atol, restart=KRYLOV_MAX_ITERS,
                                 maxiter=1, callback=count, callback_type="pr_norm")
            if info == 0:
                break
    return (M.solve(y) if info == 0 else None), iters, bound, M


def _trial(v: np.ndarray, delta: np.ndarray,
           prob: ProblemSpec) -> tuple[np.ndarray, ResidualVector, float]:
    """(v + delta, its residual, its merit): the residual max-norm, or +inf
    when B(v + delta) breaks the floor CONVEXITY_FLOOR_REL."""
    v_new = v + delta
    R_new = residual(v_new, prob)
    lo, hi = R_new.eig_range
    return v_new, R_new, R_new.max_norm() if lo >= CONVEXITY_FLOOR_REL * hi else np.inf


def _newton_direction(v: np.ndarray, R: ResidualVector, prob: ProblemSpec,
                      stage: NewtonStage, precond=None) -> tuple[np.ndarray, object]:
    """(delta, factor): delta solves J delta = -R with the exact J at v.  On a
    grid with a coarser level GMRES solves it, applying J matrix-free, only
    until ||J delta + R||_2 <= max(eta * ||R||_2, KRYLOV_TOL_SHARE *
    stage.tol) with the forcing term eta = min(KRYLOV_ETA_MAX, ||R||_inf)
    (``_gmres_solve``).  Its preconditioner is ``precond``, the mode-block
    factor of an earlier step of the same Newton solve, when given, rebuilt
    at v once if GMRES misses with it; factor is the preconditioner used, for
    the next step.  A miss with a preconditioner built at v raises
    SingularSystemError naming the bound.  Else factor is the factor that
    solved it, kept for chord steps.  At a v constant on every ring (bit for
    bit: every homotopy start h = l, every n = 1 grid, axisymmetric solves) J
    commutes with rotations in phi, so it is the ``ModeFactor`` of
    ``mode_system``, the banded LU of J's angular-mode blocks.  At any other
    v it is SuperLU's factor of the assembled J (``jacobian``), in the
    minimum-degree order on J^T + J that SuperLU computes for each factor."""
    rhs = -R.full.ravel()
    if _coarse_shape(prob.grid) is not None:
        eta, atol = min(KRYLOV_ETA_MAX, R.max_norm()), KRYLOV_TOL_SHARE * stage.tol
        delta, iters, bound, lu = _gmres_solve(rhs, R, prob, eta, atol, precond)
        if delta is None:
            raise SingularSystemError(
                f"GMRES missed its bound {bound:.3e} on ||J delta + R||_2 (the larger of eta "
                f"{eta:.3e} times ||R||_2 and atol {atol:.3e}) in {iters} iterations",
                best_v=v, report=stage)
    else:
        if np.all(v == v[:, :1]):
            lu = prob.grid.ops.mode_system(**jacobian_coefficients(R, prob))
        else:
            try:
                lu = spla.splu(jacobian(R, prob), permc_spec="MMD_AT_PLUS_A",
                               diag_pivot_thresh=DIAG_PIVOT_THRESH,
                               options=dict(SymmetricMode=True))
            except RuntimeError as exc:  # SuperLU signals exact singularity this way
                raise SingularSystemError(str(exc), best_v=v, report=stage) from exc
        stage.factorizations += 1
        delta, iters = lu.solve(rhs), 0
    stage.krylov_iters.append(iters)
    if not np.all(np.isfinite(delta)):
        raise SingularSystemError("linear solve produced non-finite step",
                                  best_v=v, report=stage)
    return delta.reshape(v.shape), lu


def newton_solve(v0: np.ndarray, prob: ProblemSpec, cfg: SolverConfig,
                 R0: ResidualVector | None = None) -> tuple[np.ndarray, NewtonStage]:
    """Damped Newton on the log-variable residual with a convexity safeguard.

    While the solve holds ``lu``, the factor of an earlier iterate's J, a
    step is first the full chord step with it, kept when its merit is at
    most CHORD_CONTRACTION times the residual max-norm; a refused one drops
    the factor before any other is built.  Otherwise the exact direction at v
    is line-searched by step halving until the merit falls strictly below the
    residual max-norm.  A trial's merit is its residual max-norm, or +inf when
    B breaks the floor of CONVEXITY_FLOOR_REL times its max eigenvalue, which
    every accepted iterate therefore keeps.  The grid picks how the exact J
    is solved (``_newton_direction``): on a grid with a coarser level
    (``_coarse_shape``) by GMRES, preconditioned by the ring-mean mode blocks
    of the first Krylov step, which become ``lu`` and serve every later step
    (no chord steps there), and where a miss with a fresh preconditioner
    raises SingularSystemError; else by a factor (the mode blocks' banded LU
    or SuperLU's ``SuperLU`` object), which becomes ``lu``.
    Either way ``lu`` dies with the call.  ``R0``, when given, is the
    residual at v0 against prob.f, which the solve then does not evaluate
    again.
    """
    grid = prob.grid
    v = np.asarray(v0, dtype=float).copy()
    if not np.all(np.isfinite(v)):
        raise ValueError("initial guess must be finite")
    t0 = time.perf_counter()
    R = residual(v, prob) if R0 is None else R0
    krylov = _coarse_shape(grid) is not None
    lu = None  # an earlier iterate's factor: of J for chord steps, else GMRES's preconditioner
    eig_lo = R.eig_range[0]
    if eig_lo <= 0.0:
        raise NonConvexError(
            f"initial guess violates convexity (min eigenvalue of B = {eig_lo:.3e})",
            margin=eig_lo,
        )

    tol = effective_tolerance(cfg, grid, v)
    stage = NewtonStage(t=float("nan"), grid=[grid.Nr, grid.Nphi], tol=tol)
    try:
        rnorm = R.max_norm()
        stage.residuals.append(rnorm)
        stage.margins.append(eig_lo)

        while rnorm > tol:
            if stage.iterations == cfg.max_iter:
                raise MaxIterationsError(
                    f"no convergence in {cfg.max_iter} iterations (residual {rnorm:.3e})",
                    best_v=v,
                    report=stage,
                )
            alpha, trial = 1.0, None
            if lu is not None and not krylov:
                trial = _trial(v, lu.solve(-R.full.ravel()).reshape(v.shape), prob)
                if trial[2] <= CHORD_CONTRACTION * rnorm:
                    stage.krylov_iters.append(0)
                else:  # one factor at a time: free it before the next is built
                    trial = lu = None
            if trial is None:
                delta, lu = _newton_direction(v, R, prob, stage, lu)
                while not (trial := _trial(v, alpha * delta, prob))[2] < rnorm:
                    alpha *= 0.5
                    if alpha < LINE_SEARCH_MIN_STEP:
                        raise LineSearchStallError(
                            f"line search stalled at step {alpha:.3e} (residual {rnorm:.3e})",
                            best_v=v, report=stage)
            v, R, rnorm = trial
            stage.iterations += 1
            stage.residuals.append(rnorm)
            stage.margins.append(R.eig_range[0])
            stage.step_lengths.append(alpha)

        stage.converged = True
        return v, stage
    finally:
        stage.seconds = time.perf_counter() - t0


def _homotopy(prob: ProblemSpec, cfg: SolverConfig, sched: HomotopySchedule,
              report: SolveReport, R0: ResidualVector | None = None) -> np.ndarray:
    """March the homotopy on prob's grid from h = l at t = 0 to t = 1.

    The first stage is t = 1.  ``R`` is the residual of the current v
    against prob.f: within tolerance, the march jumps to the end (a constant
    homotopy therefore costs a single Newton stage); shifted to a stage's
    density, it is that stage's start residual.  It is ``R0`` at h = l when
    given, and is evaluated once after each accepted stage below t = 1.  The
    t-step starts at 1, is halved after each failed attempt down to
    sched.min_step and is kept once a stage is accepted.  Accepted stages go
    to ``report.stages``, failed attempts to ``report.rejected``.
    """
    grid = prob.grid
    v = np.log(l_field(grid))
    tol = effective_tolerance(cfg, grid, v)
    t, dt = 0.0, 1.0
    R = residual(v, prob) if R0 is None else R0
    while t < 1.0 and R.max_norm() > tol:
        t_try = min(1.0, t + dt)
        stage_prob = replace(prob, f=homotopy_density(t_try, prob))
        try:
            v_new, stage = newton_solve(v, stage_prob, cfg,
                                        R0=R.with_density(prob.f, stage_prob.f))
        except SolverError as exc:
            report.reject(t_try, grid, exc)
            dt *= 0.5
            if dt < sched.min_step:
                raise ContinuationStallError(
                    f"homotopy stalled at t = {t:.6f}: stage t = {t_try:.6f} failed: {exc}",
                    t=t, best_v=v, report=report) from exc
            continue
        stage.t = t_try
        report.stages.append(stage)
        v, t = v_new, t_try
        if t < 1.0:
            R = residual(v, prob)
    return v


def _coarse_correction(prob: ProblemSpec, Nr: int, Nphi: int, cfg: SolverConfig,
                       sched: HomotopySchedule, report: SolveReport) -> np.ndarray:
    """Solve prob on the (Nr, Nphi) grid and resample its v - log l onto prob's grid.

    The coarse density is exp(resample(log f)).  The coarse level is solved
    only to max(cfg.tol, COARSE_LEVEL_TOL * spacing^2) of its own spacing:
    below its discretization error a tighter solve does not bring the finer
    level's start closer.  The coarse grid and problem are dropped on
    return, before the caller's Newton solve.
    """
    grid = prob.grid
    coarse = PolarGrid(grid.spec, Nr, Nphi)
    coarse_prob = replace(prob, grid=coarse, f=np.exp(resample(np.log(prob.f), grid, coarse)))
    coarse_cfg = replace(cfg, tol=max(cfg.tol, COARSE_LEVEL_TOL * coarse.max_spacing**2))
    v = _solve_level(coarse_prob, coarse_cfg, sched, report)
    return resample(v - np.log(l_field(coarse)), coarse, grid)


def _coarse_shape(grid: PolarGrid) -> tuple[int, int] | None:
    """(Nr, Nphi) of grid's coarser level, or None when it has none.

    The coarser level halves Nr and takes the largest even Nphi not above
    half; it needs Nphi >= NESTED_MIN_NPHI (so no n = 1 grid, whose Nphi is
    1, has one) and Nr >= 6.
    """
    Nr, Nphi = grid.Nr // 2, 2 * (grid.Nphi // 4)
    if Nphi >= NESTED_MIN_NPHI and Nr >= 6:
        return Nr, Nphi
    return None


def _solve_level(prob: ProblemSpec, cfg: SolverConfig, sched: HomotopySchedule,
                 report: SolveReport, R0: ResidualVector | None = None) -> np.ndarray:
    """v = log h solving prob, by nested iteration where a coarser level exists.

    The coarser level is ``_coarse_shape(prob.grid)``: 128^2 -> 64^2 -> 32^2,
    96^2 -> 48^2 -> 24^2, 50^2 -> 25x24, 40^2 -> 20^2.  Its solution, to
    the coarse-level tolerance of ``_coarse_correction`` and resampled,
    starts one Newton-Krylov solve at t = 1 on this grid to cfg.tol; any
    failure on the way is rejected and falls back to the homotopy on this
    grid.  ``R0`` goes to ``_homotopy``.
    """
    shape = _coarse_shape(prob.grid)
    if shape is not None:
        try:
            dv = _coarse_correction(prob, *shape, cfg, sched, report)
            v, stage = newton_solve(np.log(l_field(prob.grid)) + dv, prob, cfg)
        except (SolverError, NonConvexError) as exc:
            report.reject(1.0, prob.grid, exc)  # and fall back to the homotopy
        else:
            stage.t = 1.0
            report.stages.append(stage)
            return v
    return _homotopy(prob, cfg, sched, report, R0)


def continuation_solve(
    prob: ProblemSpec,
    cfg: SolverConfig | None = None,
    sched: HomotopySchedule | None = None,
) -> tuple[SupportField, SolveReport]:
    """Solve prob from the exact start h = l of the density homotopy.

    Grids with a coarser level (``_solve_level``) run the homotopy only on the
    coarsest one and finish each finer one with one Newton solve at t = 1;
    the others run it directly (``_homotopy``).  A stall of the homotopy on
    prob's own grid raises ``ContinuationStallError``; a start density not
    finite and positive on it (p far above q, say) ``InvalidExponentsError``;
    a solution whose h = exp(v) leaves the float range ``SolverError`` with best_v = v.
    """
    cfg = cfg or SolverConfig()
    sched = sched or HomotopySchedule()
    grid = prob.grid

    report = SolveReport(requested_tol=cfg.tol)
    t_start = time.perf_counter()
    with np.errstate(all="ignore"):
        f0 = homotopy_density(0.0, prob)
    if not np.all((f0 > 0.0) & (f0 < np.inf)):
        raise InvalidExponentsError(f"start density of {prob.pq} is not finite and positive")
    R0 = residual(np.log(l_field(grid)), prob)  # h = l against the target density
    report.start_residual = R0.with_density(prob.f, f0).max_norm()
    if _coarse_shape(grid) is not None:
        R0 = None  # not held through the coarser levels for a fallback homotopy's sake
    try:
        v = _solve_level(prob, cfg, sched, report, R0)
    except ContinuationStallError as exc:
        report.final_residual = residual(exc.best_v, prob).max_norm()
        raise
    finally:
        report.total_seconds = time.perf_counter() - t_start
    last = report.stages[-1] if report.stages else None
    if last is not None and last.t == 1.0 and last.grid == [grid.Nr, grid.Nphi]:
        # that stage evaluated v against homotopy_density(1.0, prob), which is prob.f exactly
        report.final_residual = last.residuals[-1]
    else:
        report.final_residual = residual(v, prob).max_norm()
    with np.errstate(over="ignore"):
        h = np.exp(v)
    if not np.all((h > 0.0) & (h < np.inf)):
        raise SolverError(f"h = exp(v) leaves the float range: v spans "
                          f"[{v.min():.6g}, {v.max():.6g}]", best_v=v, report=report)
    return SupportField(h=h, grid=grid), report


@dataclass
class UniquenessReport:
    """Pairwise distances between solutions reached from different starts."""

    solutions: list
    distances: np.ndarray  # (k, k) max-norm distances between the h fields

    @property
    def max_distance(self) -> float:
        return float(self.distances.max()) if self.distances.size else 0.0


def uniqueness_probe(
    prob: ProblemSpec,
    cfg: SolverConfig | None = None,
    starts: list | None = None,
) -> UniquenessReport:
    """Solve at t = 1 directly from each start (no continuation) and compare.

    A well-posed instance has a unique solution, so all converged limits
    should agree to roughly 10x the Newton tolerance.
    """
    cfg = cfg or SolverConfig()
    if not starts:
        raise ValueError("need at least one start")
    sols = []
    for v0 in starts:
        v, _ = newton_solve(np.asarray(v0, dtype=float), prob, cfg)
        sols.append(np.exp(v))
    k = len(sols)
    dist = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            d = float(np.max(np.abs(sols[i] - sols[j])))
            dist[i, j] = dist[j, i] = d
    return UniquenessReport(solutions=sols, distances=dist)
