"""Which package attributes a traced repetition wraps, and how the spans and
counters they record become the per-layer metrics.

The solver reaches its layers through module attributes
(``continuation.residual``, ``continuation.spla.splu``, ...), so swapping
those attributes for timed wrappers traces exactly the calls the solver
makes, without editing the package.
"""

from __future__ import annotations

import statistics

from tracing import Patches, TracedNamespace, Tracer

LINALG_PREFIX = "continuation.linalg."
LU_SOLVE = "continuation.lu_solve"
LU_FILL = "continuation.lu_fill_nnz"


def install(pkg, tracer: Tracer) -> Patches:
    """Swap in timed wrappers; the returned Patches restores the originals."""
    cli, cont, ma = pkg.cli, pkg.continuation, pkg.ma_system
    body, apriori, axisym, chart = pkg.capillary_body, pkg.apriori, pkg.axisym, pkg.cap_chart
    SolverError = pkg.errors.SolverError

    def stage_counts(stage):
        tracer.count("continuation.newton_iters", stage.iterations)
        tracer.count("continuation.backtracks", sum(1 for a in stage.step_lengths if a < 1.0))

    def newton_done(result):
        tracer.count("continuation.newton_accepted")
        stage_counts(result[1])
        return result

    def newton_failed(exc):
        if isinstance(exc, SolverError) and hasattr(exc.report, "step_lengths"):
            stage_counts(exc.report)

    def jacobian_done(J):
        tracer.record_max("ma_system.jacobian_nnz", float(J.nnz))
        return J

    def verify_done(report):
        tracer.count("apriori.checks_failed", sum(1 for c in report.checks if not c.passed))
        return report

    patches = Patches()
    w = tracer.wrap
    patches.set(cli, "parse_config", w(cli.parse_config, "cli.parse_config"))
    patches.set(cli, "build_problem", w(cli.build_problem, "cli.build_problem"))
    patches.set(chart.PolarGrid, "__init__", w(chart.PolarGrid.__init__, "cap_chart.grid_build"))
    patches.set(cont, "continuation_solve", w(cont.continuation_solve, "continuation.continuation_solve"))
    patches.set(cont, "newton_solve", w(cont.newton_solve, "continuation.newton_solve",
                                        on_result=newton_done, on_error=newton_failed))
    patches.set(cont, "residual", w(cont.residual, "ma_system.residual"))
    patches.set(cont, "jacobian", w(cont.jacobian, "ma_system.jacobian", on_result=jacobian_done))
    gauss = w(ma.log_gauss_map_matrix, "ma_system.log_gauss_map_matrix")
    patches.set(cont, "log_gauss_map_matrix", gauss)
    patches.set(ma, "log_gauss_map_matrix", gauss)
    patches.set(cont, "spla", TracedNamespace(cont.spla, tracer, LINALG_PREFIX, LU_SOLVE, LU_FILL))
    patches.set(apriori, "verify", w(apriori.verify, "apriori.verify", on_result=verify_done))
    patches.set(body, "embed", w(body.embed, "capillary_body.embed"))
    patches.set(body, "export_obj", w(body.export_obj, "capillary_body.export_obj"))
    patches.set(axisym, "oracle_compare", w(axisym.oracle_compare, "axisym.oracle_compare"))
    return patches


# Per-layer metric names, in BENCHMARK.json order, with their units.
PER_LAYER = {
    "cap_chart.grid_build_s": "s",
    "cap_chart.grid_builds": "count",
    "ma_system.jacobian_s": "s",
    "ma_system.jacobian_calls": "count",
    "ma_system.jacobian_nnz": "count",
    "ma_system.residual_s": "s",
    "ma_system.residual_calls": "count",
    "ma_system.gauss_map_s": "s",
    "continuation.solve_s": "s",
    "continuation.linalg_s": "s",
    "continuation.linalg.splu_s": "s",
    "continuation.linalg.splu_calls": "count",
    "continuation.lu_solve_s": "s",
    "continuation.lu_fill_nnz": "count",
    "continuation.newton_self_s": "s",
    "continuation.newton_attempts": "count",
    "continuation.stage_accept_ratio": "ratio",
    "continuation.newton_iters": "count",
    "continuation.backtracks": "count",
    "continuation.final_residual": "1",
    "continuation.effective_tol": "1",
    "apriori.verify_s": "s",
    "apriori.checks_failed": "count",
    "capillary_body.embed_s": "s",
    "capillary_body.export_obj_s": "s",
    "capillary_body.obj_bytes": "bytes",
    "axisym.oracle_s": "s",
    "axisym.oracle_calls": "count",
    "cli.parse_build_s": "s",
    "cli.solution_write_s": "s",
    "cli.solution_bytes": "bytes",
    "trace.overhead_s": "s",
}


def rep_layer_metrics(tracer: Tracer, runs) -> tuple[dict, dict]:
    """(listed metrics, every linalg function seen) for one traced repetition.

    ``runs`` are the repetition's InstanceRun records; they carry the output
    sizes and the residual/tolerance pair of each instance.
    """
    incl = tracer.inclusive_times()
    own = tracer.self_times()
    c = tracer.counts
    linalg = {}
    for name, seconds in incl.items():
        if name.startswith(LINALG_PREFIX):
            linalg[f"{name}_s"] = seconds
            linalg[f"{name}_calls"] = c[name + ".calls"]
    attempts = c["continuation.newton_solve.calls"]
    worst = max((r for r in runs if r.final_residual is not None),
                key=lambda r: r.final_residual / r.effective_tol, default=None)
    m = {
        "cap_chart.grid_build_s": incl.get("cap_chart.grid_build", 0.0),
        "cap_chart.grid_builds": c["cap_chart.grid_build.calls"],
        "ma_system.jacobian_s": incl.get("ma_system.jacobian", 0.0),
        "ma_system.jacobian_calls": c["ma_system.jacobian.calls"],
        "ma_system.jacobian_nnz": tracer.maxima.get("ma_system.jacobian_nnz", 0.0),
        "ma_system.residual_s": incl.get("ma_system.residual", 0.0),
        "ma_system.residual_calls": c["ma_system.residual.calls"],
        "ma_system.gauss_map_s": incl.get("ma_system.log_gauss_map_matrix", 0.0),
        "continuation.solve_s": incl.get("continuation.continuation_solve", 0.0),
        "continuation.linalg_s": sum(v for k, v in linalg.items() if k.endswith("_s"))
        + incl.get(LU_SOLVE, 0.0),
        "continuation.linalg.splu_s": linalg.get(LINALG_PREFIX + "splu_s", 0.0),
        "continuation.linalg.splu_calls": linalg.get(LINALG_PREFIX + "splu_calls", 0),
        "continuation.lu_solve_s": incl.get(LU_SOLVE, 0.0),
        "continuation.lu_fill_nnz": tracer.maxima.get(LU_FILL, 0.0),
        "continuation.newton_self_s": own.get("continuation.newton_solve", 0.0),
        "continuation.newton_attempts": attempts,
        "continuation.stage_accept_ratio": c["continuation.newton_accepted"] / attempts if attempts else 0.0,
        "continuation.newton_iters": c["continuation.newton_iters"],
        "continuation.backtracks": c["continuation.backtracks"],
        "continuation.final_residual": worst.final_residual if worst else float("nan"),
        "continuation.effective_tol": worst.effective_tol if worst else float("nan"),
        "apriori.verify_s": incl.get("apriori.verify", 0.0),
        "apriori.checks_failed": c["apriori.checks_failed"],
        "capillary_body.embed_s": incl.get("capillary_body.embed", 0.0),
        "capillary_body.export_obj_s": incl.get("capillary_body.export_obj", 0.0),
        "capillary_body.obj_bytes": sum(r.obj_bytes for r in runs),
        "axisym.oracle_s": incl.get("axisym.oracle_compare", 0.0),
        "axisym.oracle_calls": c["axisym.oracle_compare.calls"],
        "cli.parse_build_s": incl.get("cli.parse_config", 0.0) + incl.get("cli.build_problem", 0.0),
        "cli.solution_write_s": incl.get("cli.solution_write", 0.0),
        "cli.solution_bytes": sum(r.solution_bytes for r in runs),
    }
    return m, linalg


def median_metrics(per_rep: list[dict]) -> dict:
    """Per-key median over repetitions (counts repeat exactly, times vary)."""
    keys = per_rep[0].keys()
    return {k: statistics.median(d[k] for d in per_rep) for k in keys}
