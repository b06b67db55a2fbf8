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

from .capillary_body import (
    SupportField,
    boundary_identity_check,
    capillary_support,
    measure_density,
)
from .cap_chart import grad, l_field, normal_derivative
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


def _unit_gradient(sf: SupportField) -> tuple[float, float]:
    """(max frame |grad(h / max h)|, max h).

    The norm squares the gradient, which overflows for h beyond about 1e154
    (with 1/(p - q) near 100, h can reach 1e238); the gradient of h / max h
    stays below 1 / spacing.
    """
    scale = float(sf.h.max())
    return float(grad(sf.h / scale, sf.grid).norm().max()), scale


def gradient_bound(sf: SupportField) -> tuple[float, float]:
    """(computed, bound): max frame |grad h| against (1/sin theta) * max h.

    Both are homogeneous of degree 1 in h, so the gradient is taken of h / max h
    (``_unit_gradient``) and scaled back by max h.
    """
    unit, scale = _unit_gradient(sf)
    return unit * scale, scale / sf.spec.sin_theta


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


def _measure_ratio(sf: SupportField, prob: ProblemSpec) -> np.ndarray:
    """measure_density / (l f), evaluated within the float range.

    The density is homogeneous of degree q - p in h, so it is evaluated on
    h / max h and its scale max h^(q - p) joins 1/(l f) in logs: with
    1/(p - q) near 100, h can reach 1e136, where the density's powers of h
    underflow.
    """
    pq, scale = prob.pq, float(sf.h.max())
    density = measure_density(SupportField(h=sf.h / scale, grid=sf.grid), pq)
    return density * np.exp((pq.q - pq.p) * math.log(scale)
                            - np.log(l_field(sf.grid)) - np.log(prob.f))


@np.errstate(all="ignore")  # a value out of the float range fails its check, not a warning
def verify(sf: SupportField, prob: ProblemSpec, newton_tol: float = 1e-9) -> VerificationReport:
    """Run every closed-form check on a computed solution.

    The bounds hold exactly for continuous solutions; a discrete solution gets
    a relative slack of 1e-6 + 10 * spacing^2 on the bound checks, and the
    identity/consistency checks use the 10 * spacing^2 threshold directly
    (both tied to the second-order discretization).  The max of |grad log h|
    is reported without a bound: its theoretical constant is non-constructive.
    """
    grid = sf.grid
    d2 = grid.max_spacing**2
    rel_tol = 1e-6 + 10.0 * d2
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

    # decided on h / max h: the bound (1 + rel_tol) max h / sin(theta) overflows first
    g_unit, scale = _unit_gradient(sf)
    g_computed, g_bound = g_unit * scale, scale / grid.spec.sin_theta
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
        bound = 10.0 * d2 * size
        report.checks.append(CheckResult(
            name, float(np.ldexp(value, k)), float(np.ldexp(bound, k)),
            value <= bound, float(np.ldexp(bound - value, k)),
        ))

    robin_v = float(np.max(np.abs(normal_derivative(np.log(sf.h), grid) - grid.spec.cot_theta)))
    robin_tol = max(10.0 * newton_tol, 1e-12)
    report.checks.append(CheckResult(
        "robin", robin_v, robin_tol, robin_v <= robin_tol, robin_tol - robin_v,
    ))

    rel_err = float(np.max(np.abs(_measure_ratio(sf, prob) - 1.0)))
    meas_tol = 10.0 * d2
    report.checks.append(CheckResult(
        "measure_consistency", rel_err, meas_tol, rel_err <= meas_tol, meas_tol - rel_err,
    ))

    log_grad_max = float(grad(np.log(sf.h), grid).norm().max())
    report.checks.append(CheckResult("log_gradient_max", log_grad_max, None, True, None))
    return report
