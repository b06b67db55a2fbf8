"""Repetitions, metric aggregation, provenance and output of one benchmark run.

A run is closed-loop and single-process: one instance at a time, each
repetition a full pass over the workload's instance list, repeated until the
next pass would overrun ``--seconds``.  Times are medians over repetitions,
and the end-to-end ones are scaled by an in-run host-speed probe (HostSpeed).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time

import layers
from pipeline import post, run_instance, run_repetition, setup, write_record
from run import THREAD_VARS
from tracing import NullTracer, Tracer
from workloads import warmup_instance

# End-to-end metric names, in BENCHMARK.json order, with their units.
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "post_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "measure_err": "1",
    "ref_err": "1",
}
SIDE_SHARE = 0.12  # of --seconds, for each of the two batches of side samples
MIN_SIDE_ROUNDS = 2
TIMES = ("setup_s", "solve_s", "post_s", "pipeline_s")
PROBE_REF_S = 0.085  # typical duration of one HostSpeed probe on the 2-core host measured; see HostSpeed
NOISE_NOTE = (
    "Run-to-run spread here is host throughput, not scheduling: wall and CPU "
    "time of one 128^2 splu agree and vary together (0.84-1.15 s on a shared "
    "2-core host), so every time is a median over repetitions, end-to-end "
    "times are scaled by an in-run host-speed probe (raw.* are as measured), "
    "and comparisons need medians over several runs."
)


class HostSpeed:
    """Throughput probe of the host, for normalizing times.

    The host drifts between speed regimes that last minutes.  Wall and CPU
    time agree, so this is throughput rather than scheduling.  The same
    128^2 solve took 8.6-11 s in five consecutive runs and 12-14 s in the
    next five.  Repetitions inside a run cannot average that out.  So the
    run also times a fixed probe: a sparse LU (COLAMD, as the solver uses)
    of an 80^2-node polar-like operator, plus a few sparse diagonal
    products like those of Jacobian assembly.  The probe uses numpy and
    scipy but no solver code, so a change to the solver cannot move it.
    The reported times are measured times multiplied by
    PROBE_REF_S / (median probe time of the run).  That is, they are
    seconds on a host where the probe takes PROBE_REF_S; the measured
    times are printed and recorded as raw.*.
    """

    def __init__(self, n: int = 80):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        e = np.ones(n)
        T = sp.diags([e[:-1], -2.0 * e, e[:-1]], [-1, 0, 1], format="csr")
        P = (T + sp.csr_matrix(([1.0, 1.0], ([0, n - 1], [n - 1, 0])), shape=(n, n))).tocsr()
        w = sp.diags(np.linspace(1.0, 2.0, n))
        I = sp.identity(n, format="csr")
        self._A = (sp.kron(T, I) + sp.kron(I, P) + sp.kron(w, P @ P)
                   - 0.5 * sp.identity(n * n)).tocsc()
        self._d = sp.diags(np.linspace(1.0, 2.0, n * n))
        self._splu = spla.splu
        self.samples: list[float] = []

    def probe(self, count: int) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            self._splu(self._A, permc_spec="COLAMD")
            for _ in range(8):
                B = (self._d @ self._A + self._A @ self._d).tocsr()
                B.eliminate_zeros()
            self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return PROBE_REF_S / statistics.median(self.samples)


def repeat(deadline: float, one_pass, last_duration: float | None = None) -> list:
    """Call ``one_pass`` while the next call is expected to end no more than
    half a pass after ``deadline``; at least once if ``last_duration`` is None."""
    done = []
    while last_duration is None or time.perf_counter() + 0.5 * last_duration <= deadline:
        t0 = time.perf_counter()
        done.append(one_pass())
        last_duration = time.perf_counter() - t0
    return done


def side_samples(pkg, instances, solved, workdir: str, budget: float,
                 setup_t: list, post_t: list) -> None:
    """Rounds of extra timings of every instance's set-up and post phase,
    appended to ``setup_t[i]`` / ``post_t[i]``, until ``budget`` seconds are
    used (at least MIN_SIDE_ROUNDS rounds).  Single timings of these short
    phases scatter by about 12% (IQR over median) within one process, so
    their medians need many samples.  Each round visits every instance once,
    so a slow moment of the host costs one sample per instance."""
    end = time.perf_counter() + budget
    rounds = 0
    while rounds < MIN_SIDE_ROUNDS or time.perf_counter() < end:
        for inst, s, st, pt in zip(instances, solved, setup_t, post_t):
            t0 = time.perf_counter()
            setup(pkg, inst)
            st.append(time.perf_counter() - t0)
            if s is not None:
                t0 = time.perf_counter()
                post(pkg, s, workdir, NullTracer())
                pt.append(time.perf_counter() - t0)
        rounds += 1


def _finite_max(values) -> float | None:
    vals = [v for v in values if v is not None]
    return max(vals) if vals else None


def end_to_end(reps, setup_t: list, post_t: list, host: HostSpeed) -> tuple[dict, dict]:
    """(metrics, raw times).  Times are medians over passes, except set-up
    and post: per instance, the median of the side samples (and, for post,
    of every pass), summed; the metrics carry them scaled by the host probe."""
    runs = [r for rep in reps for r in rep.runs]
    raw = {
        "setup_s": sum(statistics.median(t) for t in setup_t),
        "solve_s": statistics.median(rep.total("solve_s") for rep in reps),
        "post_s": sum(statistics.median([rep.runs[i].post_s for rep in reps] + extra)
                      for i, extra in enumerate(post_t)),
        "pipeline_s": statistics.median(rep.wall_s for rep in reps),
    }
    scale = host.scale()
    metrics = {k: raw[k] * scale for k in TIMES}
    metrics.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "measure_err": _finite_max(r.measure_err for r in runs),
        "ref_err": _finite_max(r.ref_err for r in runs),
    })
    extras = {f"raw.{k}": v for k, v in raw.items()}
    extras["host.probe_median_s"] = statistics.median(host.samples)
    extras["host.scale"] = scale
    return metrics, extras


def run(pkg, instances, args, nproc: int, root) -> dict:
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    spans = None
    try:
        warm, _ = run_instance(pkg, warmup_instance(), workdir, NullTracer())
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            reps, metrics, extras, spans = traced_run(pkg, instances, workdir, deadline)
        else:
            reps, metrics, extras = plain_run(pkg, instances, workdir, deadline,
                                              SIDE_SHARE * args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [r for rep in reps for r in rep.runs]
    failed = instance_failures(reps)
    prov = provenance(pkg, args, nproc, root)
    prov["process_wall_s"] = time.perf_counter() - wall0
    prov["process_cpu_s"] = time.process_time() - cpu0
    result = {
        "provenance": prov,
        "correct": not any(r.wrong_output for r in runs) and not warm.wrong_output,
        "attempted": len(instances),
        "failed": len(failed),
        "metrics": metrics,
        "units": layers.PER_LAYER if args.trace else END_TO_END,
        "extras": extras,
        "failures": sorted({f"{r.name}: {'; '.join(r.reasons())}" for r in failed}),
    }
    record = dict(result, repetitions=[
        {"wall_s": rep.wall_s, "traced": rep.traced,
         "instances": [dict(dataclasses.asdict(r), failed=r.failed) for r in rep.runs]}
        for rep in reps])
    if spans is not None:
        record["spans_of_last_traced_repetition"] = spans
    write_record(str(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), record)
    return result


def instance_failures(reps) -> list:
    """The first failing execution of each instance that fails the gate in
    any pass.  A run attempts each instance of its list once; the passes
    repeat them only for timing.  So ``attempted`` and ``failed`` count
    instances, not executions, and do not depend on how many passes fit in
    the run."""
    out = []
    for executions in zip(*(rep.runs for rep in reps)):
        bad = [r for r in executions if r.failed]
        if bad:
            out.append(bad[0])
    return out


def plain_run(pkg, instances, workdir, deadline, side_budget):
    """Untraced passes, with the side samples of set-up and post split into
    a batch after the first pass and one after the last, so they see the
    host at both ends of the run; the passes stop early enough to leave
    room for the second batch.  The host probe runs before and after every
    pass."""
    host = HostSpeed()
    host.probe(6)
    setup_t = [[] for _ in instances]
    post_t = [[] for _ in instances]

    def one_pass(keep_solved=False):
        rep = run_repetition(pkg, instances, workdir, NullTracer(), keep_solved=keep_solved)
        host.probe(4)
        return rep

    first = one_pass(keep_solved=True)
    side_samples(pkg, instances, first.solved, workdir, side_budget, setup_t, post_t)
    reps = [first] + repeat(deadline - side_budget, one_pass, first.wall_s)
    side_samples(pkg, instances, first.solved, workdir, side_budget, setup_t, post_t)
    host.probe(4)
    first.solved = None
    metrics, extras = end_to_end(reps, setup_t, post_t, host)
    return reps, metrics, extras


def traced_run(pkg, instances, workdir, deadline):
    """Alternate an untraced and a traced repetition; per-layer metrics are
    medians over the traced ones, and the tracing overhead is the difference
    of the two kinds' median wall times."""
    last = {}

    def pair():
        plain = run_repetition(pkg, instances, workdir, NullTracer())
        tracer = Tracer()
        with layers.install(pkg, tracer):
            traced = run_repetition(pkg, instances, workdir, tracer)
        traced.traced = True
        traced.layers, traced.linalg = layers.rep_layer_metrics(tracer, traced.runs)
        last["tracer"] = tracer
        return plain, traced

    pairs = repeat(deadline, pair)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    metrics = layers.median_metrics([t.layers for t in traced])
    metrics["trace.overhead_s"] = (statistics.median(t.wall_s for t in traced)
                                   - statistics.median(p.wall_s for p in plain))
    extras = layers.median_metrics([t.linalg for t in traced])
    tracer = last["tracer"]
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    spans = [[s.name, s.start - t0, s.end - t0, s.parent] for s in tracer.spans]
    return plain + traced, metrics, extras, spans


def provenance(pkg, args, nproc: int, root) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "package": pkg.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(root),
        "note": NOISE_NOTE,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root) -> str | None:
    """HEAD of the checkout's own .git, read as files; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _number(v):
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None


def emit(result: dict) -> None:
    """Human-readable summary, then provenance, then the one-line result."""
    units = result["units"]
    for name, value in result["metrics"].items():
        print(f"{name:36s} {value!s:>24} {units[name]}")
    for name, value in result["extras"].items():
        print(f"{name:36s} {value!s:>24} (not in BENCHMARK.json)")
    print(f"instances failed/attempted: {result['failed']}/{result['attempted']}")
    for line in result["failures"]:
        print(f"  failed {line}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    metrics = {k: {"value": _number(v), "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
