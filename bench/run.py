"""Benchmark of the capillary Minkowski solver: three seeded workloads driven
through the package's public calls, end-to-end metrics with tracing off and
per-layer metrics from a separate traced run.

    python3 bench/run.py --workload harmonic-128 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ./src.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's provenance.  A full record (per-instance results, spans of the last
traced repetition) is written to .bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> int:
    """One process, with BLAS/OpenMP threads capped at the usable core count.
    Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_package():
    """Import capillary_minkowski from ./src of this checkout, never from
    anywhere else on the path."""
    src = ROOT / "src"
    if not (src / "capillary_minkowski" / "__init__.py").is_file():
        raise ImportError(f"no package source under {src}")
    sys.path.insert(0, str(src))
    import capillary_minkowski as pkg
    from capillary_minkowski import (  # noqa: F401  (submodules used as pkg.<name>)
        apriori, axisym, cap_chart, capillary_body, cli, continuation, errors, ma_system)
    if Path(pkg.__file__).resolve().parent != (src / "capillary_minkowski").resolve():
        raise ImportError(f"capillary_minkowski resolved to {pkg.__file__}, outside {src}")
    return pkg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_threads()
    from workloads import WORKLOADS, make_instances
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        pkg = import_package()
    except ImportError as exc:
        print(f"cannot import the solver: {exc}", file=sys.stderr)
        return 2

    import measure
    instances = make_instances(args.workload, args.seed)
    result = measure.run(pkg, instances, args, nproc, ROOT)
    measure.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
