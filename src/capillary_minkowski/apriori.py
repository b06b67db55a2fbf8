"""Closed-form a priori bounds for solutions and their verification on
computed fields.

The sup/inf bounds on h follow from evaluating the equation at extrema of the
rescaled support u = h/l; the gradient bound is pure convexity.  Both come as
explicit expressions in theta, (p, q), n and the range of f, so a computed
solution can be checked against them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .capillary_body import (SupportField, _measure_density, boundary_identity_check,
                             capillary_support)
from .cap_chart import grad, grad_hessian, l_field
from .errors import InvalidExponentsError
from .ma_system import ProblemSpec


@dataclass(frozen=True)
class BoundSet:
    """Sup/inf bounds on log h plus the convexity gradient factor.

    Kept in logs: with 1/(p - q) near 100 the bounds on h leave the float range.
    """

    log_h_lower: float
    log_h_upper: float
    grad_bound_factor: float  # (1 + cot^2 theta)^(1/2) = 1/sin(theta)
    case: str  # "q <= n+1" or "q > n+1"

    def __post_init__(self):
        if not self.log_h_lower <= self.log_h_upper:
            raise ValueError(f"invalid bound ordering: log h in "
                             f"[{self.log_h_lower}, {self.log_h_upper}]")

    @property
    def h_lower(self) -> float:
        return _exp(self.log_h_lower)

    @property
    def h_upper(self) -> float:
        return _exp(self.log_h_upper)


def _exp(x: float) -> float:
    """exp(x), or inf beyond the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def c0_bounds(prob: ProblemSpec) -> BoundSet:
    """Sup/inf bounds on h from the equation, resolved to log h by dividing by p - q.

    Two closed forms apply depending on the sign of n+1-q; both carry the
    range of f through min(1/f) and max(1/f).  The grid min/max of f stand in
    for the continuous extrema.  Each bound on h^(p-q) is taken in logs, so
    no power of it overflows.
    """
    spec = prob.cap
    p, q, n = prob.pq.p, prob.pq.q, spec.n
    if not p > q:
        raise InvalidExponentsError(f"bounds require p > q, got p={p}, q={q}")
    log_f_min = math.log(float(prob.f.min()))
    log_f_max = math.log(float(prob.f.max()))
    log_1mc = math.log(1.0 - spec.cos_theta)
    log_sin = math.log(spec.sin_theta)
    log_c = -0.5 * (n + 1 - q) * math.log(2.0)  # log of 2^(-(n+1-q)/2)

    if n + 1 - q >= 0:
        case = "q <= n+1"
        log_lower_pq = log_c + (p - q) * log_1mc - 2 * (p - 1) * log_sin - log_f_max
        log_upper_pq = 2 * (p - q) * log_sin - (n + p - q) * log_1mc - log_f_min
    else:
        case = "q > n+1"
        log_lower_pq = (p - q) * log_1mc - 2 * (n + p - q) * log_sin - log_f_max
        log_upper_pq = log_c + 2 * (p - q) * log_sin - (p - 1) * log_1mc - log_f_min

    return BoundSet(
        log_h_lower=log_lower_pq / (p - q),
        log_h_upper=log_upper_pq / (p - q),
        grad_bound_factor=1.0 / spec.sin_theta,
        case=case,
    )


@dataclass
class CheckResult:
    name: str
    value: float
    bound: float | None
    passed: bool
    slack: float | None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "bound": self.bound,
            "passed": self.passed,
            "slack": self.slack,
        }


@dataclass
class VerificationReport:
    """Itemized bound/identity checks for one computed solution."""

    checks: list = field(default_factory=list)
    rel_tol: float = float("nan")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "rel_tol": self.rel_tol,
            "all_passed": self.all_passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def format_table(self) -> str:
        w = max((len(c.name) for c in self.checks), default=4)
        lines = [f"{'check':<{w}}  {'value':>13}  {'bound':>13}  {'slack':>10}  status"]
        for c in self.checks:
            bound = f"{c.bound:13.6e}" if c.bound is not None else " " * 13
            slack = f"{c.slack:10.3e}" if c.slack is not None else " " * 10
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name:<{w}}  {c.value:13.6e}  {bound}  {slack}  {status}")
        lines.append(f"overall: {'pass' if self.all_passed else 'FAIL'}")
        return "\n".join(lines)


@np.errstate(all="ignore")  # a value out of the float range fails its check, not a warning
def verify(sf: SupportField, prob: ProblemSpec, newton_tol: float = 1e-9) -> VerificationReport:
    """Run every closed-form check on a computed solution.

    The bounds hold exactly for continuous solutions; a discrete solution gets
    a relative slack of 1e-6 + 10 * spacing^2 on the bound checks, and the
    identity/consistency checks use the 10 * spacing^2 threshold directly
    (``PolarGrid.discretization_tol``).  The max of |grad log h| is reported
    without a bound: its theoretical constant is non-constructive.  Each field
    (h / max h, h 2^-k, u = h 2^-k / l, log h) is differentiated once.
    """
    grid = sf.grid
    tol = grid.discretization_tol
    rel_tol = 1e-6 + tol
    report = VerificationReport(rel_tol=rel_tol)

    bounds = c0_bounds(prob)
    h_min, h_max = float(sf.h.min()), float(sf.h.max())
    # compared in logs; a slack of rel_tol >= 1 passes every positive h_min
    report.checks.append(CheckResult(
        "c0_lower", h_min, bounds.h_lower,
        rel_tol >= 1.0 or math.log(h_min) >= bounds.log_h_lower + math.log1p(-rel_tol),
        h_min - bounds.h_lower,
    ))
    report.checks.append(CheckResult(
        "c0_upper", h_max, bounds.h_upper,
        math.log(h_max) <= bounds.log_h_upper + math.log1p(rel_tol),
        bounds.h_upper - h_max,
    ))

    # The gradient (degree 1 in h) and the density (degree q - p) come from one
    # pass over h / max h: h's squared gradient overflows beyond max h near 1e154,
    # the density's powers underflow near 1e136, and with 1/(p - q) near 100 h
    # reaches 1e238.  The gradient check reads the unit value: its bound overflows first.
    normed = SupportField(h=sf.h / h_max, grid=grid)
    g, hess = grad_hessian(normed.h, grid)
    g_unit = float(g.norm().max())
    g_computed, g_bound = g_unit * h_max, h_max / grid.spec.sin_theta
    report.checks.append(CheckResult(
        "gradient", g_computed, g_bound,
        g_unit <= (1.0 + rel_tol) / grid.spec.sin_theta,
        g_bound - g_computed,
    ))

    # The rim identities are linear in h, and so are their bounds: both are
    # decided on h 2^-k, whose max lies in [1/2, 1), and reported times 2^k,
    # which scales exactly wherever h's own scale does not overflow.
    k = math.frexp(h_max)[1]
    unit = SupportField(h=np.ldexp(sf.h, -k), grid=grid)
    ident = boundary_identity_check(unit)
    u_max = float(np.abs(capillary_support(unit)).max())
    for name, value, size in (("boundary_h_mixed", ident.h_mixed_max, float(unit.h.max())),
                              ("boundary_u_identity", ident.u_identity_max, u_max)):
        bound = tol * size
        report.checks.append(CheckResult(
            name, float(np.ldexp(value, k)), float(np.ldexp(bound, k)),
            value <= bound, float(np.ldexp(bound - value, k)),
        ))

    # Robin on log h, which has no scale: the rim row of d_r is the normal derivative
    log_g = grad(np.log(sf.h), grid)
    robin_v = float(np.max(np.abs(log_g.comps[0][grid.boundary_ring] - grid.spec.cot_theta)))
    robin_tol = max(10.0 * newton_tol, 1e-12)
    report.checks.append(CheckResult(
        "robin", robin_v, robin_tol, robin_v <= robin_tol, robin_tol - robin_v,
    ))

    pq = prob.pq
    density = _measure_density(normed, pq, g, hess)
    ratio = density * np.exp((pq.q - pq.p) * math.log(h_max)
                             - np.log(l_field(grid)) - np.log(prob.f))
    rel_err = float(np.max(np.abs(ratio - 1.0)))
    report.checks.append(CheckResult(
        "measure_consistency", rel_err, tol, rel_err <= tol, tol - rel_err,
    ))

    log_grad_max = float(log_g.norm().max())
    report.checks.append(CheckResult("log_gradient_max", log_grad_max, None, True, None))
    return report
