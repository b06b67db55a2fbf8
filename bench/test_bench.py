"""Tests of the benchmark's own code (not collected by the package suite).

    python -m pytest bench
"""

from __future__ import annotations

import argparse
import itertools
import json

import numpy as np
import pytest

import layers
import measure
import run
from pipeline import InstanceRun, Repetition, check, reference_error, run_instance, setup
from tracing import NullTracer, TracedNamespace, Tracer
from workloads import WORKLOADS, make_instances

pkg = run.import_package()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_instances(workload):
    a = make_instances(workload, 7)
    assert a == make_instances(workload, 7)
    assert a != make_instances(workload, 8)


def test_sweep_is_stratified():
    insts = make_instances("sweep-small", 3)
    assert len(insts) == 24
    sizes = sorted(i.config["grid"]["Nr"] for i in insts)
    assert sizes == sorted([16, 24, 32, 40] * 6)
    families = sorted(i.config["f"]["type"] for i in insts)
    assert families == sorted(["constant", "radial", "harmonic", "homotopy-start"] * 6)


def _solved(inst):
    config, prob = setup(pkg, inst)
    sf, _ = pkg.continuation.continuation_solve(prob, config.solver, config.schedule)
    return config, prob, sf


def _gate(inst, config, prob, sf):
    verification = pkg.apriori.verify(sf, prob, newton_tol=config.solver.tol)
    ref = reference_error(pkg, inst, prob, sf)
    res = pkg.ma_system.residual(np.log(sf.h), prob).max_norm()
    return check(pkg, InstanceRun(inst.name), prob, config, sf, verification, ref, res)


def test_gate_flags_perturbed_solution():
    inst = make_instances("harmonic-128", 1, cap=16)[1]  # manufactured reference instance
    config, prob, sf = _solved(inst)
    assert not _gate(inst, config, prob, sf).failed
    bumped = pkg.capillary_body.SupportField(h=sf.h * 1.01, grid=sf.grid)
    result = _gate(inst, config, prob, bumped)
    assert result.failed and result.wrong_output
    assert not result.residual_ok
    assert result.reasons()


def test_gate_counts_a_raise_as_failure(tmp_path):
    inst = make_instances("sweep-small", 1, cap=16)[0]
    broken = type(inst)(inst.name, dict(inst.config, p=0.0, q=1.0), inst.reference)
    result, solved = run_instance(pkg, broken, str(tmp_path), NullTracer())
    assert solved is None and result.error is not None
    assert result.failed and result.wrong_output


def test_failures_count_instances_not_passes():
    def rep(*failed):
        runs = [InstanceRun(f"i{k}", error="boom" if f else None,
                            final_residual=None if f else 0.0, effective_tol=1.0)
                for k, f in enumerate(failed)]
        return Repetition(runs=runs, wall_s=0.0, solved=None)
    reps = [rep(False, True, False), rep(False, True, True), rep(False, True, False)]
    assert [r.name for r in measure.instance_failures(reps)] == ["i1", "i2"]


def _fake_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


def test_self_times_add_up_to_parent():
    tr = Tracer(clock=_fake_clock())
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("b"):
                pass
            with tr.span("b"):
                pass
        with tr.span("c"):
            pass
    root = tr.spans[0]
    own = tr.self_times()
    assert sum(own.values()) == pytest.approx(root.end - root.start)
    incl = tr.inclusive_times()
    a = tr.spans[1]
    assert own["a"] + incl["b"] == pytest.approx(a.end - a.start)
    assert [s.parent for s in tr.spans] == [None, 0, 1, 1, 0]


def test_same_name_nesting_counted_once():
    tr = Tracer(clock=_fake_clock())
    with tr.span("x"):
        with tr.span("x"):
            pass
    assert tr.inclusive_times()["x"] == pytest.approx(tr.spans[0].end - tr.spans[0].start)


def test_traced_namespace_is_generic():
    class Factor:
        nnz = 42

        def solve(self, b):
            return b

    class FakeLinalg:
        @staticmethod
        def splu(a):
            return Factor()

        @staticmethod
        def gmres(a, b):
            return b, 0

    tr = Tracer()
    ns = TracedNamespace(FakeLinalg, tr, "lin.", "lin.solve", "lin.fill")
    lu = ns.splu(None)
    assert lu.solve(3) == 3 and lu.nnz == 42
    ns.gmres(None, 1)
    assert tr.counts["lin.splu.calls"] == 1 and tr.counts["lin.gmres.calls"] == 1
    assert tr.counts["lin.solve.calls"] == 1 and tr.maxima["lin.fill"] == 42
    assert {"lin.splu", "lin.gmres", "lin.solve"} <= set(tr.inclusive_times())


def test_install_restores_every_attribute():
    before = (pkg.continuation.spla, pkg.continuation.residual, pkg.cli.parse_config,
              pkg.cap_chart.PolarGrid.__init__, pkg.ma_system.log_gauss_map_matrix)
    with layers.install(pkg, Tracer()):
        assert pkg.continuation.spla is not before[0]
    after = (pkg.continuation.spla, pkg.continuation.residual, pkg.cli.parse_config,
             pkg.cap_chart.PolarGrid.__init__, pkg.ma_system.log_gauss_map_matrix)
    assert after == before


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_pass(workload, trace, tmp_path, capsys):
    args = argparse.Namespace(workload=workload, seed=5, seconds=0.01, trace=trace)
    result = measure.run(pkg, make_instances(workload, 5, cap=12), args, 2, tmp_path)
    expected = layers.PER_LAYER if trace else measure.END_TO_END
    assert list(result["metrics"]) == list(expected)
    assert result["attempted"] >= 1 and result["correct"]
    measure.emit(result)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(expected)
    if trace:
        m = result["metrics"]
        assert m["continuation.linalg.splu_calls"] == m["ma_system.jacobian_calls"] > 0
        assert m["continuation.newton_self_s"] > 0
    assert list(tmp_path.glob(".bench_out/*.json"))


def test_refuses_to_run_without_package_source(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(ImportError):
        run.import_package()


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.PER_LAYER
