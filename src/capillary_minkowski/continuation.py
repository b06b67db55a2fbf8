"""Damped Newton iteration with a convexity safeguard, driven along the
density homotopy f_t from the exact start h = l, with nested iteration
across grids.

The homotopy f_t = (1-t) f0 + t f interpolates from the start density f0
(for which h = l solves the problem exactly) to the target f.  Each t-stage
is solved by Newton with a backtracking line search on the max-norm of the
residual; stage failures halve the t-step, easy stages double it.  The
stages of one march share a SuperLU factor: a step is a chord step with the
factor of an earlier iterate while that contracts fast enough.  On a grid
with a coarser level the homotopy runs only on the coarsest level, and each
finer level starts one Newton solve at t = 1 from the resampled solution,
whose steps solve by preconditioned GMRES instead of sparse LU.
"""

from __future__ import annotations

import ctypes
import functools
import operator
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse.linalg as spla

from .cap_chart import PolarGrid, l_field, l_gradient_norm_sq, resample
from .capillary_body import ExponentPair, SupportField
from .errors import (
    ContinuationStallError,
    LineSearchStallError,
    MaxIterationsError,
    NonConvexError,
    SingularSystemError,
    SolverError,
)
# log_gauss_map_matrix is unused here; the benchmark's tracer patches it by this name.
from .ma_system import (ProblemSpec, ResidualVector, jacobian,  # noqa: F401
                        jacobian_coefficients, log_gauss_map_matrix, residual)

# Smallest Nphi of a coarser level.  Measured on one 2-core host: a 24^2
# level under 48^2 speeds up a 96^2 solve (0.53-0.57 s against 0.62-0.66 s),
# while a 16^2 level under 32^2 gains nothing at 128^2 (0.96-0.99 s against
# 0.97-1.01 s) and would change the path of every 32^2-46^2 solve.
NESTED_MIN_NPHI = 24

# GMRES controls of a Krylov Newton step: relative tolerance on the 2-norm of
# J delta + R, and the iteration budget of one unrestarted cycle, after which
# the step is solved with the LU factor instead.
KRYLOV_RTOL = 1e-6
KRYLOV_MAX_ITERS = 40

# A chord step (the carried factor of an earlier Jacobian) is accepted when
# its full step cuts the residual max-norm by this factor; otherwise the
# factor is dropped and the step is redone exactly.  On the sweep-small
# benchmark (seed 1) 0.1 cut the factorizations from 179 to 50.  0.25 made
# 40 in about the same time, but up to 13 Newton steps in a stage against 10
# with 0.1, nearer the default max_iter of 30.
CHORD_CONTRACTION = 0.1


@dataclass(frozen=True)
class SolverConfig:
    """Newton controls: tolerance on the residual max-norm, damping, safeguards."""

    tol: float = 1e-9
    max_iter: int = 30
    min_step: float = 1e-6
    convexity_floor_rel: float = 1e-8  # floor = rel * max eigenvalue of B

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if not 0.0 < self.min_step <= 1.0:
            raise ValueError("min_step must lie in (0, 1]")
        if operator.index(self.max_iter) < 1:
            raise ValueError("max_iter must be an integer >= 1")
        if not 0.0 <= self.convexity_floor_rel < 1.0:
            raise ValueError("convexity_floor_rel must lie in [0, 1)")


@dataclass(frozen=True)
class HomotopySchedule:
    """Plan for the march in t: the explicit list t_values when given, else adaptive steps."""

    initial_step: float = 0.25
    min_step: float = 2.0**-10
    max_step: float = 0.5
    t_values: tuple | None = None

    def __post_init__(self):
        if not 0.0 < self.min_step <= self.initial_step <= self.max_step <= 1.0:
            raise ValueError("need 0 < min_step <= initial_step <= max_step <= 1")
        if self.t_values is not None:
            ts = tuple(float(t) for t in self.t_values)
            if len(ts) < 2 or ts[0] != 0.0 or ts[-1] != 1.0 \
                    or any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValueError("explicit t_values must increase strictly from 0 to 1")
            object.__setattr__(self, "t_values", ts)


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
    lu_fallbacks: list = field(default_factory=list)  # solves (krylov_iters index) redone by LU
    factorizations: int = 0  # SuperLU factorizations it made


@dataclass
class _Carry:
    """What one Newton solve of a homotopy march hands to the next.

    ``lu`` is the SuperLU factor of the last Jacobian the march assembled,
    or None once a chord step with it was refused or a stage failed; ``R`` is
    the residual of the last accepted stage's solution against that stage's
    density.
    """

    lu: object = None
    R: ResidualVector | None = None


@dataclass
class SolveReport:
    """Aggregated continuation history plus verification hooks."""

    stages: list = field(default_factory=list)
    start_residual: float = float("nan")
    final_residual: float = float("nan")
    total_seconds: float = 0.0
    bound_verification: object = None  # filled by the a priori estimate suite

    @property
    def t_steps(self):
        return [s.t for s in self.stages]

    @property
    def newton_iters(self):
        return [s.iterations for s in self.stages]

    def to_json_dict(self) -> dict:
        out = {
            "t_steps": self.t_steps,
            "grids": [list(s.grid) for s in self.stages],
            "tols": [s.tol for s in self.stages],
            "newton_iters": self.newton_iters,
            "residuals": [list(s.residuals) for s in self.stages],
            "margins": [list(s.margins) for s in self.stages],
            "krylov_iters": [list(s.krylov_iters) for s in self.stages],
            "lu_fallbacks": [list(s.lu_fallbacks) for s in self.stages],
            "factorizations": [s.factorizations for s in self.stages],
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


def _gmres_solve(J, rhs: np.ndarray, R, prob: ProblemSpec) -> tuple[np.ndarray | None, int]:
    """(x, iterations) of GMRES on J x = rhs, right-preconditioned by the
    ring-mean mode blocks; x is None when GMRES misses KRYLOV_RTOL.

    With the preconditioner on the right, GMRES minimizes the residual of
    J x = rhs itself, so its tolerance bounds the true linear residual.
    """
    M = prob.grid.ops.mode_system(**jacobian_coefficients(R, prob))
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    JM = spla.LinearOperator(J.shape, matvec=lambda y: J @ M.solve(y), dtype=float)
    with _serial_blas():
        y, info = spla.gmres(JM, rhs, rtol=KRYLOV_RTOL, restart=KRYLOV_MAX_ITERS, maxiter=1,
                             callback=count, callback_type="pr_norm")
    return (M.solve(y) if info == 0 else None), iters


def _above_floor(R: ResidualVector, cfg: SolverConfig) -> bool:
    lo, hi = R.eig_range
    return lo >= cfg.convexity_floor_rel * hi


def _chord_step(lu, v: np.ndarray, rhs: np.ndarray, rnorm: float, prob: ProblemSpec,
                cfg: SolverConfig) -> tuple[np.ndarray, ResidualVector, float] | None:
    """(v, R, max-norm of R) after the full step ``lu.solve(rhs)``, or None
    unless that step cuts the max-norm by CHORD_CONTRACTION and keeps the
    convexity floor."""
    delta = lu.solve(rhs).reshape(v.shape)
    if not np.all(np.isfinite(delta)):
        return None
    v_new = v + delta
    R_new = residual(v_new, prob)
    rnorm_new = R_new.max_norm()
    if rnorm_new <= CHORD_CONTRACTION * rnorm and _above_floor(R_new, cfg):
        return v_new, R_new, rnorm_new
    return None


def newton_solve(v0: np.ndarray, prob: ProblemSpec, cfg: SolverConfig,
                 krylov: bool = False, carry: _Carry | None = None,
                 ) -> tuple[np.ndarray, NewtonStage]:
    """Damped Newton on the log-variable residual with a convexity safeguard.

    Every accepted iterate keeps B positive definite with min eigenvalue at
    least convexity_floor_rel times the max eigenvalue; candidates violating
    the floor or failing strict max-norm decrease are rejected by the
    step-halving line search (the +inf sentinel makes indefinite candidates
    compare as worst).  Each step solves with the exact Jacobian J: by a
    SuperLU factor, or with ``krylov`` by GMRES preconditioned by the
    ring-mean mode blocks (``FrameOps.mode_system``); a step whose GMRES
    misses KRYLOV_RTOL falls back to the SuperLU factor of the same J.

    With a ``carry`` (the homotopy's), a step is first the chord step with
    ``carry.lu``, the factor of an earlier iterate's J, taken in full when it
    cuts the residual by CHORD_CONTRACTION and keeps the convexity floor;
    otherwise the factor is dropped and the exact step is taken at the same
    v, whose factor becomes ``carry.lu``.  On success ``carry.R`` holds the
    residual of the returned iterate.
    """
    grid = prob.grid
    v = np.asarray(v0, dtype=float).copy()
    if not np.all(np.isfinite(v)):
        raise ValueError("initial guess must be finite")
    t0 = time.perf_counter()
    R = residual(v, prob)
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

        for _ in range(cfg.max_iter):
            if rnorm <= tol:
                break
            rhs = -R.full.ravel()
            chord = None
            if carry is not None and carry.lu is not None:
                chord = _chord_step(carry.lu, v, rhs, rnorm, prob, cfg)
                if chord is None:
                    carry.lu = None  # one factor at a time: free it before the next is built
            if chord is not None:
                (v, R, rnorm), alpha = chord, 1.0
                stage.krylov_iters.append(0)
            else:
                v, R, rnorm, alpha = _exact_step(v, R, rnorm, rhs, prob, cfg, krylov, carry, stage)
            stage.iterations += 1
            stage.residuals.append(rnorm)
            stage.margins.append(R.eig_range[0])
            stage.step_lengths.append(alpha)

        if rnorm > tol:
            raise MaxIterationsError(
                f"no convergence in {cfg.max_iter} iterations (residual {rnorm:.3e})",
                best_v=v,
                report=stage,
            )
        stage.converged = True
        if carry is not None:
            carry.R = R
        return v, stage
    finally:
        stage.seconds = time.perf_counter() - t0


def _exact_step(v: np.ndarray, R: ResidualVector, rnorm: float, rhs: np.ndarray,
                prob: ProblemSpec, cfg: SolverConfig, krylov: bool, carry: _Carry | None,
                stage: NewtonStage) -> tuple[np.ndarray, ResidualVector, float, float]:
    """(v, R, max-norm of R, step length) after one Newton step with the exact
    J at v and the line search; the SuperLU factor it makes, if any, is kept
    in ``carry``."""
    J = jacobian(R, prob)
    delta, iters = _gmres_solve(J, rhs, R, prob) if krylov else (None, 0)
    if delta is None:
        if krylov:
            stage.lu_fallbacks.append(len(stage.krylov_iters))
        try:
            lu = spla.splu(J, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # SuperLU signals exact singularity this way
            raise SingularSystemError(str(exc), best_v=v, report=stage) from exc
        stage.factorizations += 1
        delta = lu.solve(rhs)
        if carry is not None:
            carry.lu = lu
        del lu
    stage.krylov_iters.append(iters)
    delta = delta.reshape(v.shape)
    del J  # one factor at a time: free it before the next is built
    if not np.all(np.isfinite(delta)):
        raise SingularSystemError("linear solve produced non-finite step",
                                  best_v=v, report=stage)

    alpha = 1.0
    while True:
        v_new = v + alpha * delta
        R_new = residual(v_new, prob)
        rnorm_new = R_new.max_norm()
        if rnorm_new < rnorm and _above_floor(R_new, cfg):
            return v_new, R_new, rnorm_new, alpha
        alpha *= 0.5
        if alpha < cfg.min_step:
            raise LineSearchStallError(
                f"line search stalled at step {alpha:.3e} (residual {rnorm:.3e})",
                best_v=v,
                report=stage,
            )


def _homotopy(prob: ProblemSpec, cfg: SolverConfig, sched: HomotopySchedule,
              report: SolveReport) -> np.ndarray:
    """March the homotopy on prob's grid from h = l at t = 0 to t = 1.

    Before every stage the residual against the t = 1 density is probed; if it
    is already within tolerance the march jumps to the end (a constant
    homotopy therefore costs a single Newton stage).  The probe reuses the
    previous stage's last residual, whose density alone differs.  An explicit
    schedule visits its t values in order and stalls on the first failed
    stage; an adaptive one halves the t-step on failure down to the schedule
    minimum and doubles it after two consecutive easy stages: stages with
    full steps only and at most two factorizations.  The Newton solves share
    one SuperLU factor through a ``_Carry``, which a failed stage empties and
    which dies with the march.  Accepted stages are appended to ``report``.
    """
    grid = prob.grid
    v = np.log(l_field(grid))
    tol = effective_tolerance(cfg, grid, v)
    adaptive = sched.t_values is None
    t, dt, easy_streak = 0.0, sched.initial_step, 0
    carry = _Carry(R=residual(v, prob))
    f_v = prob.f  # the density carry.R was evaluated against
    while t < 1.0:
        if carry.R.with_density(f_v, prob.f).max_norm() <= tol:
            break
        if adaptive:
            t_try = min(1.0, t + dt)
        else:
            t_try = next(s for s in sched.t_values if s > t)
        stage_prob = replace(prob, f=homotopy_density(t_try, prob))
        try:
            v_new, stage = newton_solve(v, stage_prob, cfg, carry=carry)
        except SolverError as exc:
            carry.lu = None
            dt *= 0.5
            if not adaptive or dt < sched.min_step:
                raise ContinuationStallError(
                    f"homotopy stalled at t = {t:.6f}: stage t = {t_try:.6f} failed: {exc}",
                    t=t,
                    best_v=v,
                    report=report,
                ) from exc
            continue
        stage.t = t_try
        report.stages.append(stage)
        v, t, f_v = v_new, t_try, stage_prob.f
        if adaptive:
            easy = stage.factorizations <= 2 and all(a == 1.0 for a in stage.step_lengths)
            easy_streak = easy_streak + 1 if easy else 0
            if easy_streak >= 2:
                dt = min(2.0 * dt, sched.max_step)
                easy_streak = 0
    return v


def _coarse_correction(prob: ProblemSpec, Nr: int, Nphi: int, cfg: SolverConfig,
                       sched: HomotopySchedule, report: SolveReport) -> np.ndarray:
    """Solve prob on the (Nr, Nphi) grid and resample its v - log l onto prob's grid.

    The coarse density is exp(resample(log f)); the coarse grid and problem
    are dropped on return, before the caller's Newton solve.
    """
    grid = prob.grid
    coarse = PolarGrid(grid.spec, Nr, Nphi)
    coarse_prob = replace(prob, grid=coarse, f=np.exp(resample(np.log(prob.f), grid, coarse)))
    v = _solve_level(coarse_prob, cfg, sched, report)
    return resample(v - np.log(l_field(coarse)), coarse, grid)


def _solve_level(prob: ProblemSpec, cfg: SolverConfig, sched: HomotopySchedule,
                 report: SolveReport) -> np.ndarray:
    """v = log h solving prob, by nested iteration where a coarser level exists.

    The coarser level halves Nr and Nphi (n = 2 only) and must keep Nphi even
    and at least NESTED_MIN_NPHI.  Its solution, resampled, starts one
    Newton-Krylov solve at t = 1 on this grid; any failure on the way falls
    back to the homotopy on this grid.
    """
    grid = prob.grid
    Nr, Nphi = grid.Nr // 2, grid.Nphi // 2
    if grid.spec.n == 2 and Nphi >= NESTED_MIN_NPHI and Nphi % 2 == 0 and Nr >= 6:
        try:
            dv = _coarse_correction(prob, Nr, Nphi, cfg, sched, report)
            v, stage = newton_solve(np.log(l_field(grid)) + dv, prob, cfg, krylov=True)
        except (SolverError, NonConvexError):
            pass  # fall back to the homotopy on this grid
        else:
            stage.t = 1.0
            report.stages.append(stage)
            return v
    return _homotopy(prob, cfg, sched, report)


def continuation_solve(
    prob: ProblemSpec,
    cfg: SolverConfig | None = None,
    sched: HomotopySchedule | None = None,
) -> tuple[SupportField, SolveReport]:
    """Solve prob from the exact start h = l at t = 0 of the density homotopy.

    Grids with a coarser level (``_solve_level``) run the homotopy only on the
    coarsest one and finish each finer one with one Newton solve at t = 1;
    the others march the homotopy directly (``_homotopy``).  An explicit
    schedule runs on the coarsest level.  A stall of the homotopy on prob's
    own grid raises ``ContinuationStallError``.
    """
    cfg = cfg or SolverConfig()
    sched = sched or HomotopySchedule()
    grid = prob.grid

    report = SolveReport()
    t_start = time.perf_counter()
    report.start_residual = residual(np.log(l_field(grid)),
                                     replace(prob, f=homotopy_density(0.0, prob))).max_norm()
    try:
        v = _solve_level(prob, cfg, sched, report)
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
    return SupportField(h=np.exp(v), grid=grid), report


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
