"""Command-line front end: solve instances, verify solutions, run convergence
and oracle studies.

Configs are JSON documents; angles carry an explicit unit key ("deg" or
"rad").  Density specs are limited to three closed families (constant, radial
polynomial in cos r, harmonic perturbation) plus the homotopy-start keyword,
so positivity can always be checked on the grid at load time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .apriori import verify
from .axisym import oracle_compare, require_axisymmetric
from .cap_chart import CapSpec, PolarGrid, l_field
from .capillary_body import ExponentPair, SupportField, embed, export_obj
from .continuation import (
    HomotopySchedule,
    SolverConfig,
    continuation_solve,
    effective_tolerance,
    start_density,
)
from .errors import CapillaryError, ContinuationStallError, SolverError
from .ma_system import ProblemSpec, residual

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_STALL = 3


class ConfigError(CapillaryError, ValueError):
    """Malformed or invalid run configuration or solution file."""


_INPUT_ERRORS = (KeyError, TypeError, ValueError)


def _input_error(exc: Exception, context: str = "") -> ConfigError:
    """The one-line ConfigError for an error in _INPUT_ERRORS met while reading outside input."""
    if isinstance(exc, ConfigError):
        return exc
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return ConfigError(context + detail)


@dataclass
class RunConfig:
    """Validated run parameters plus the raw document for provenance."""

    spec: CapSpec
    pq: ExponentPair
    Nr: int
    Nphi: int
    f_spec: dict
    solver: SolverConfig
    schedule: HomotopySchedule
    raw: dict


def _angle_from(doc: dict) -> float:
    theta = float(doc["theta"])
    unit = doc.get("theta_unit", "rad")
    if unit not in ("deg", "rad"):
        raise ValueError(f"theta_unit must be 'deg' or 'rad', got {unit!r}")
    return math.radians(theta) if unit == "deg" else theta


def density_from_spec(f_spec: dict, grid: PolarGrid, pq: ExponentPair) -> np.ndarray:
    """Evaluate a density family on the grid; reject malformed specs and non-positive results."""
    kind = f_spec.get("type")
    r = grid.r[:, None]
    phi = grid.phi[None, :]
    try:
        if kind == "constant":
            f = np.full(grid.shape, float(f_spec["value"]))
        elif kind == "radial":
            coeffs = [float(c) for c in f_spec["coeffs"]]
            poly = sum(c * np.cos(r) ** k for k, c in enumerate(coeffs))
            f = np.broadcast_to(poly, grid.shape).copy()
            if f_spec.get("times_start_density", False):
                f = f * start_density(grid, pq)
        elif kind == "harmonic":
            base = float(f_spec["base"])
            amp = float(f_spec["amplitude"])
            m = int(f_spec["m"])
            k = int(f_spec.get("radial_mode", 0))
            if m < 0 or k < 0:
                raise ValueError("modes must be non-negative")
            shape_fn = (np.sin(r) / grid.spec.sin_theta) ** m * np.cos(m * phi) * np.cos(r) ** k
            f = base * (1.0 + amp * shape_fn)
            f = np.broadcast_to(f, grid.shape).copy()
        elif kind == "homotopy-start":
            scale = float(f_spec.get("scale", 1.0))
            if scale <= 0.0:
                raise ValueError("scale must be positive")
            f = scale ** (pq.q - pq.p) * start_density(grid, pq)
        else:
            raise ValueError("unknown type")
    except _INPUT_ERRORS as exc:
        raise _input_error(exc, f"f-spec of type {kind!r}: ") from None
    if not np.all(f > 0.0):
        raise ConfigError("f-spec evaluates non-positive somewhere on the grid")
    return f


def _read_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad encoding
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} is not a JSON object")
    return doc


def load_config(path: str) -> RunConfig:
    return parse_config(_read_json(path, "config"))


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document; every malformed entry raises ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    try:
        spec = CapSpec(theta=_angle_from(doc), n=int(doc.get("n", 2)))
        p, q = float(doc["p"]), float(doc["q"])
        if not p > q:
            raise ValueError(f"exponents must satisfy p > q, got p={p}, q={q}")
        gdoc = doc.get("grid", {})
        if not isinstance(gdoc, dict):
            raise ValueError("'grid' must be an object with keys 'Nr' and 'Nphi'")
        Nr = int(gdoc.get("Nr", 64))
        Nphi = int(gdoc.get("Nphi", Nr))
        f_spec = doc.get("f")
        if not isinstance(f_spec, dict):
            raise ValueError("missing or malformed 'f' spec")
        out = doc.get("output", {})
        if not (isinstance(out, dict) and all(isinstance(v, str) for v in out.values())):
            raise ValueError("'output' must map 'solution'/'report' to file paths")
        return RunConfig(spec=spec, pq=ExponentPair(p=p, q=q), Nr=Nr, Nphi=Nphi,
                         f_spec=f_spec, solver=SolverConfig(**doc.get("solver", {})),
                         schedule=HomotopySchedule(**doc.get("schedule", {})), raw=doc)
    except _INPUT_ERRORS as exc:
        raise _input_error(exc) from None


def build_problem(config: RunConfig) -> ProblemSpec:
    try:
        grid = PolarGrid(config.spec, config.Nr, config.Nphi)
        f = density_from_spec(config.f_spec, grid, config.pq)
        return ProblemSpec(grid=grid, pq=config.pq, f=f)
    except _INPUT_ERRORS as exc:
        raise _input_error(exc) from None


def solution_document(config: RunConfig, sf: SupportField, final_residual: float) -> dict:
    return {
        "format": "capmink-solution-v1",
        "config": config.raw,
        "grid": {"Nr": config.Nr, "Nphi": config.Nphi,
                 "theta": config.spec.theta, "n": config.spec.n},
        "h": sf.h.tolist(),
        "final_residual": final_residual,
    }


def load_solution(path: str):
    doc = _read_json(path, "solution")
    if doc.get("format") != "capmink-solution-v1":
        raise ConfigError("not a solution file (missing format marker)")
    try:
        config = parse_config(doc["config"])
        prob = build_problem(config)
        sf = SupportField(h=np.asarray(doc["h"], dtype=float), grid=prob.grid)
        return config, prob, sf, float(doc["final_residual"])
    except _INPUT_ERRORS as exc:
        raise _input_error(exc, "corrupt solution file: ") from None


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_all(outputs) -> None:
    """Write every output or none: ``outputs`` pairs a path with a function that
    writes to a given path.  Each is written to a new sibling file, and they are
    renamed into place only after every write succeeded."""
    temps = []
    try:
        for i, (path, write) in enumerate(outputs):
            temp = f"{path}.{os.getpid()}-{i}.tmp"
            os.close(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            temps.append(temp)
            write(temp)
        for (path, _), temp in zip(outputs, temps):
            os.replace(temp, path)
    finally:
        for temp in temps:
            if os.path.exists(temp):
                os.remove(temp)


def cmd_solve(args) -> int:
    config = load_config(args.config)
    prob = build_problem(config)
    if args.mesh and config.spec.n != 2:
        raise ConfigError(f"--mesh needs n = 2, got n = {config.spec.n}")
    out = config.raw.get("output", {})
    stem = args.config[:-5] if args.config.endswith(".json") else args.config
    sol_path = args.solution or out.get("solution", stem + ".solution.json")
    rep_path = args.report or out.get("report", stem + ".report.json")
    outs = [p for p in (sol_path, rep_path, args.mesh) if p]
    for i, path in enumerate(outs):
        if os.path.realpath(path) in {os.path.realpath(p) for p in [args.config] + outs[:i]}:
            raise CapillaryError(f"cannot write {path}: the config or another output is that file")
        if os.path.isdir(path):
            raise CapillaryError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise CapillaryError(f"cannot write {path}: its directory does not exist")

    sf, report = continuation_solve(prob, config.solver, config.schedule)
    report.bound_verification = verify(sf, prob, newton_tol=config.solver.tol)
    outputs = [
        (sol_path, lambda p: _write_json(p, solution_document(config, sf, report.final_residual))),
        (rep_path, lambda p: _write_json(p, report.to_json_dict())),
    ]
    if args.mesh:
        outputs.append((args.mesh, lambda p: export_obj(embed(sf), p)))
    _write_all(outputs)
    print(f"solved: residual {report.final_residual:.3e} "
          f"in {len(report.stages)} stage(s), wrote {sol_path}")
    if not report.bound_verification.all_passed:
        print(report.bound_verification.format_table())
        print("warning: bound verification failed", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Re-run the bound checks, and hold the residual recomputed from the stored h
    to twice the solver's tolerance: the solver met it once, and storing h = exp(v)
    then taking log again adds about one noise floor (effective_tolerance)."""
    config, prob, sf, stored = load_solution(args.solution)
    v = np.log(sf.h)
    recomputed = residual(v, prob).max_norm()
    bound = 2.0 * effective_tolerance(config.solver, prob.grid, v)
    report = verify(sf, prob, newton_tol=config.solver.tol)
    residual_ok = recomputed <= bound
    print(report.format_table())
    print(f"stored residual {stored:.6e}, recomputed {recomputed:.6e}, "
          f"bound {bound:.6e}  {'pass' if residual_ok else 'FAIL'}")
    return EXIT_OK if report.all_passed and residual_ok else EXIT_CHECK_FAILED


def grid_sizes(text: str) -> list[int]:
    """Parse --grids: a non-empty comma-separated list of grid sizes."""
    sizes = [int(s) for s in text.split(",") if s]
    if not sizes:
        raise ValueError("no grid sizes")
    return sizes


def cmd_convergence(args) -> int:
    config = load_config(args.config)
    if config.f_spec.get("type") != "homotopy-start":
        raise ConfigError("convergence study needs a manufactured f-spec "
                          "(type 'homotopy-start', exact solution scale * l)")
    probs = [build_problem(replace(config, Nr=N, Nphi=N if config.spec.n == 2 else 1))
             for N in args.grids]
    scale = float(config.f_spec.get("scale", 1.0))

    rows = []
    for N, prob in zip(args.grids, probs):
        sf, _ = continuation_solve(prob, config.solver, config.schedule)
        err = float(np.max(np.abs(sf.h - scale * l_field(prob.grid))))
        rows.append((N, prob.grid.max_spacing, err))

    print(f"{'N':>5} {'spacing':>12} {'max error':>13} {'order':>7}")
    for i, (N, sp_, err) in enumerate(rows):
        if i == 0:
            print(f"{N:>5} {sp_:>12.5e} {err:>13.6e} {'':>7}")
        else:
            order = math.log2(rows[i - 1][2] / err) / math.log2(rows[i - 1][1] / sp_)
            print(f"{N:>5} {sp_:>12.5e} {err:>13.6e} {order:>7.3f}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    config = load_config(args.config)
    prob = build_problem(config)
    require_axisymmetric(prob.f)
    sf, _ = continuation_solve(prob, config.solver, config.schedule)
    rep = oracle_compare(prob, sf)
    threshold = 10.0 * prob.grid.max_spacing**2 * float(np.max(np.abs(sf.h)))
    print(f"1D/2D max discrepancy {rep.max_abs:.6e} (threshold {threshold:.3e}), "
          f"L2 {rep.l2:.6e}, angular variation {rep.angular_variation:.3e}")
    return EXIT_OK if rep.max_abs <= threshold else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="capmink",
        description="solver and verification suite for convex capillary bodies "
                    "with prescribed dual curvature data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the continuation solver on a config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--mesh", help="optional OBJ output path")
    p_solve.add_argument("--solution", help="override solution output path")
    p_solve.add_argument("--report", help="override report output path")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a stored solution against the bounds")
    p_verify.add_argument("--solution", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_conv = sub.add_parser("convergence", help="manufactured-solution grid study")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--grids", required=True, type=grid_sizes,
                        help="comma-separated sizes, e.g. 16,32,64")
    p_conv.set_defaults(func=cmd_convergence)

    p_oracle = sub.add_parser("oracle", help="compare the 2D solve against the 1D radial solver")
    p_oracle.add_argument("--config", required=True)
    p_oracle.set_defaults(func=cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContinuationStallError as exc:
        print(f"continuation stalled: {exc} (last t = {exc.t})", file=sys.stderr)
        return EXIT_STALL
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_STALL
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except CapillaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:  # readers turn their OSErrors into ConfigError; this is a write
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
