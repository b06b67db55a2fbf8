"""One instance through the package's public calls, in the order
``capmink solve --mesh`` makes them, plus the per-instance correctness gate.

    cli.parse_config -> cli.build_problem          (setup)
    continuation.continuation_solve                 (solve)
    apriori.verify -> solution JSON -> embed -> export_obj
    -> reference comparison where the instance has one   (post)
"""

from __future__ import annotations

import copy
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class InstanceRun:
    name: str
    setup_s: float = 0.0
    solve_s: float = 0.0
    post_s: float = 0.0
    error: str | None = None
    final_residual: float | None = None
    effective_tol: float | None = None
    measure_err: float | None = None
    ref_err: float | None = None
    ref_limit: float | None = None
    failed_checks: list = field(default_factory=list)
    solution_bytes: int = 0
    obj_bytes: int = 0
    stages: int = 0
    newton_iters: int = 0

    @property
    def residual_ok(self) -> bool:
        return self.final_residual is not None and self.final_residual <= self.effective_tol

    @property
    def reference_ok(self) -> bool:
        return self.ref_err is None or self.ref_err <= self.ref_limit

    @property
    def wrong_output(self) -> bool:
        """Failed a check against an independent truth: it raised, its residual
        is above the solver's own tolerance, or it misses its reference."""
        return self.error is not None or not (self.residual_ok and self.reference_ok)

    @property
    def failed(self) -> bool:
        """The per-instance gate: a wrong output or a failed ``verify`` check."""
        return self.wrong_output or bool(self.failed_checks)

    def reasons(self) -> list[str]:
        if self.error is not None:
            return [f"raised {self.error}"]
        out = []
        if not self.residual_ok:
            out.append(f"residual {self.final_residual:.3e} above effective tolerance "
                       f"{self.effective_tol:.3e}")
        if self.failed_checks:
            out.append("verify failed: " + ", ".join(self.failed_checks))
        if not self.reference_ok:
            out.append(f"reference error {self.ref_err:.3e} above 10*spacing^2 = {self.ref_limit:.3e}")
        return out


def check(pkg, run: InstanceRun, prob, cfg, sf, verification, ref_err,
          final_residual: float) -> InstanceRun:
    """Fill in the gate's inputs for the solution ``sf``.

    ``final_residual`` is the residual max-norm at the solver's final iterate
    v (the report's value).  Re-evaluating it from the stored h = exp(v) adds
    the rounding of exp and log, which the Hessian stencils amplify to about
    the size of the noise floor itself, so it is taken as reported and held
    against the floor evaluated at that iterate.
    """
    run.final_residual = float(final_residual)
    run.effective_tol = pkg.continuation.effective_tolerance(cfg.solver, prob.grid, np.log(sf.h))
    run.measure_err = verification["measure_consistency"].value
    run.failed_checks = [c.name for c in verification.checks if not c.passed]
    run.ref_err = ref_err
    run.ref_limit = 10.0 * prob.grid.max_spacing**2
    return run


def reference_error(pkg, inst, prob, sf) -> float | None:
    """max |h - h_ref| / max h against the instance's reference, if it has one."""
    if inst.reference == "exact":
        scale = float(inst.config["f"].get("scale", 1.0))
        diff = np.max(np.abs(sf.h - scale * pkg.cap_chart.l_field(prob.grid)))
    elif inst.reference == "oracle":
        diff = pkg.axisym.oracle_compare(prob, sf).max_abs
    else:
        return None
    return float(diff / np.max(sf.h))


def setup(pkg, inst):
    config = pkg.cli.parse_config(copy.deepcopy(inst.config))
    return config, pkg.cli.build_problem(config)


@dataclass
class Solved:
    """What the post phase needs from a solved instance."""

    inst: object
    config: object
    prob: object
    sf: object
    report: object


def post(pkg, solved: Solved, workdir: str, tracer):
    """verify, solution JSON, embed + export_obj, reference comparison."""
    cli, body = pkg.cli, pkg.capillary_body
    config, prob, sf = solved.config, solved.prob, solved.sf
    verification = pkg.apriori.verify(sf, prob, newton_tol=config.solver.tol)
    with tracer.span("cli.solution_write"):
        cli._write_json(os.path.join(workdir, "instance.solution.json"),
                        cli.solution_document(config, sf, solved.report.final_residual))
    body.export_obj(body.embed(sf), os.path.join(workdir, "instance.obj"))
    return verification, reference_error(pkg, solved.inst, prob, sf)


def run_instance(pkg, inst, workdir: str, tracer) -> tuple[InstanceRun, Solved | None]:
    """Run one instance; any exception is recorded as a failure, not raised."""
    run = InstanceRun(inst.name)
    clock = time.perf_counter
    phase = "setup_s"
    t0 = clock()
    try:
        with tracer.span("bench.setup"):
            config, prob = setup(pkg, inst)
        t1 = clock()
        run.setup_s, phase = t1 - t0, "solve_s"
        with tracer.span("bench.solve"):
            sf, report = pkg.continuation.continuation_solve(prob, config.solver, config.schedule)
        t2 = clock()
        run.solve_s, phase = t2 - t1, "post_s"
        solved = Solved(inst, config, prob, sf, report)
        with tracer.span("bench.post"):
            verification, ref_err = post(pkg, solved, workdir, tracer)
        run.post_s = clock() - t2
    except Exception as exc:  # the benchmark keeps going and counts the failure
        setattr(run, phase, clock() - t0 - run.setup_s - run.solve_s)
        run.error = f"{type(exc).__name__}: {exc}"
        return run, None

    run.solution_bytes = os.path.getsize(os.path.join(workdir, "instance.solution.json"))
    run.obj_bytes = os.path.getsize(os.path.join(workdir, "instance.obj"))
    run.stages = len(report.stages)
    run.newton_iters = sum(report.newton_iters)
    check(pkg, run, prob, config, sf, verification, ref_err, report.final_residual)
    return run, solved


@dataclass
class Repetition:
    """One pass over the workload's instance list."""

    runs: list
    wall_s: float
    solved: list | None  # per instance, Solved or None if it raised; kept on request
    traced: bool = False
    layers: dict | None = None
    linalg: dict | None = None

    def total(self, attr: str) -> float:
        return sum(getattr(r, attr) for r in self.runs)


def run_repetition(pkg, instances, workdir: str, tracer, keep_solved: bool = False) -> Repetition:
    """One pass.  Solved states are dropped unless ``keep_solved``, so passes
    do not add the benchmark's own memory to the measured peak RSS."""
    t0 = time.perf_counter()
    runs, kept = [], []
    for inst in instances:
        with tracer.span("bench.instance"):
            run, solved = run_instance(pkg, inst, workdir, tracer)
        runs.append(run)
        kept.append(solved if keep_solved else None)
        del solved
    return Repetition(runs=runs, wall_s=time.perf_counter() - t0,
                      solved=kept if keep_solved else None)


def write_record(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=float)
        fh.write("\n")
