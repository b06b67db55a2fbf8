"""Seeded instance lists for the three benchmark workloads.

Each instance is a plain ``capmink`` config document plus the kind of
reference its answer is checked against.  The same (workload, seed) always
yields the same list; the solver only ever sees the generated documents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("harmonic-128", "aniso-96", "sweep-small")

SWEEP_SIZES = (16, 24, 32, 40)
SWEEP_FAMILIES = ("constant", "radial", "harmonic", "homotopy-start")
ANISO_DESIGN = ((45.0, 4, 1, 0.6), (60.0, 1, 2, 0.8), (75.0, 3, 2, 0.7))  # theta, m, k, amplitude cell
REFERENCE_GRID = 32


@dataclass(frozen=True)
class Instance:
    name: str
    config: dict
    reference: str | None  # "exact" (h = scale * l), "oracle" (1D solver) or None


def _config(theta_deg: float, p: float, q: float, N: int, f: dict) -> dict:
    return {
        "theta": round(theta_deg, 6), "theta_unit": "deg", "n": 2,
        "p": round(p, 6), "q": round(q, 6),
        "grid": {"Nr": N, "Nphi": N},
        "f": f,
    }


def _exact_reference(rng, N: int) -> Instance:
    """Manufactured instance with exact solution scale * l.  The discrete
    equation is homogeneous in h, so its relative error does not depend on
    the drawn scale."""
    scale = round(float(rng.uniform(0.5, 2.0)), 6)
    return Instance(f"reference-{N}", _config(60.0, 3.0, 1.0, N,
                    {"type": "homotopy-start", "scale": scale}), "exact")


def harmonic_128(rng, cap: int) -> list[Instance]:
    """The ROADMAP baseline density (m = 2) with a seeded amplitude near 0.2."""
    N = min(128, cap)
    amp = round(float(rng.uniform(0.18, 0.22)), 6)
    main = Instance(f"harmonic-m2-{N}", _config(60.0, 3.0, 1.0, N, {
        "type": "harmonic", "base": 1.0, "amplitude": amp, "m": 2, "radial_mode": 0}), None)
    return [main, _exact_reference(rng, min(REFERENCE_GRID, cap))]


def aniso_96(rng, cap: int) -> list[Instance]:
    """Three strongly non-axisymmetric densities, one per ANISO_DESIGN row:
    theta, angular mode m, radial mode k and an amplitude cell of width 0.1
    within [0.6, 0.9], drawn by the seed within the middle half of its cell."""
    N = min(96, cap)
    out = []
    for theta, m, k, amp_lo in ANISO_DESIGN:
        amp = round(amp_lo + float(rng.uniform(0.025, 0.075)), 6)
        out.append(Instance(f"aniso-t{theta:g}-m{m}k{k}-{N}", _config(theta, 3.0, 1.0, N, {
            "type": "harmonic", "base": 1.0, "amplitude": amp, "m": m, "radial_mode": k}), None))
    out.append(_exact_reference(rng, min(REFERENCE_GRID, cap)))
    return out


SWEEP_COUNT = 24
SWEEP_JITTER = 0.25  # of a design cell, each side of its centre


def _cell(index: int, lo: float, hi: float, rng) -> float:
    """A value in cell ``index`` of SWEEP_COUNT equal cells of [lo, hi]: the
    cell centre moved by a seeded jitter of up to SWEEP_JITTER cells."""
    width = (hi - lo) / SWEEP_COUNT
    return lo + width * (index + 0.5 + float(rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)))


def _sweep_density(family: str, i: int, rng) -> tuple[dict, str | None]:
    """Density of sweep instance ``i``.  Overall scales (constant value, radial
    c0, harmonic base, homotopy scale) are drawn freely: the equation is
    homogeneous in h, so they change h but not its relative errors.  Shape
    parameters follow the design, with the same jitter as the geometry."""
    shape_cell = (13 * i + 7) % SWEEP_COUNT
    scale = round(float(rng.uniform(0.5, 2.0)), 6)
    if family == "constant":
        return {"type": "constant", "value": scale}, None
    if family == "radial":
        ratio = _cell(shape_cell, -0.3, 0.3, rng)
        return {"type": "radial", "coeffs": [scale, round(ratio * scale, 6)],
                "times_start_density": True}, "oracle"
    if family == "harmonic":
        return {"type": "harmonic", "base": scale,
                "amplitude": round(_cell(shape_cell, 0.1, 0.5, rng), 6),
                "m": 1 + (i // 4) % 3, "radial_mode": (i // 12) % 2}, None
    return {"type": "homotopy-start", "scale": scale}, "exact"


def sweep_small(rng, cap: int) -> list[Instance]:
    """SWEEP_COUNT small instances on a fixed Latin-hypercube design over
    theta in [20, 80] deg, q in [0, 3.5] and p - q in [0.5, 3]: each range is
    cut into SWEEP_COUNT cells and every instance takes a different cell of
    each, jittered by the seed.  Families cycle through the four ``cli``
    families and grid sizes through 16..40, so every run holds each family
    and each size six times.  The design keeps per-run sums and maxima
    comparable between seeds; the jitter keeps seeds distinct."""
    out = []
    for i in range(SWEEP_COUNT):
        family = SWEEP_FAMILIES[i % 4]
        N = min(SWEEP_SIZES[(i // 4 + i) % 4], cap)
        theta = _cell((5 * i) % SWEEP_COUNT, 20.0, 80.0, rng)
        q = _cell((7 * i) % SWEEP_COUNT, 0.0, 3.5, rng)
        p = q + _cell((11 * i + 5) % SWEEP_COUNT, 0.5, 3.0, rng)
        f, ref = _sweep_density(family, i, rng)
        out.append(Instance(f"{family}-t{theta:.1f}-q{q:.2f}-{N}",
                            _config(theta, p, q, N, f), ref))
    return out


_GENERATORS = {"harmonic-128": harmonic_128, "aniso-96": aniso_96, "sweep-small": sweep_small}


def make_instances(workload: str, seed: int, cap: int = 1 << 30) -> list[Instance]:
    """The workload's instance list for ``seed``; ``cap`` bounds every grid
    size (for smoke tests) without changing any drawn parameter."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](np.random.default_rng(seed), cap)


def warmup_instance() -> Instance:
    """A tiny solve run before timing so lazy imports and first calls are paid."""
    return Instance("warmup-16", _config(60.0, 3.0, 1.0, 16, {
        "type": "radial", "coeffs": [1.0, 0.1], "times_start_density": True}), "oracle")
