"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They import the package from the checkout's ``src/`` like the benchmark
does, and write only under ``perfbench/out/``.
"""

import importlib
import math
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads
from workloads import OUT, ROOT

CLI = workloads.load_cli()


@pytest.mark.parametrize("name", ["heat-robin", "rho-sweep"])
def test_traced_counts_repeat_exactly(name):
    client = run.Client(CLI, workloads.make_workload(name, seed=0))
    tracer = tracing.Tracer()
    traced_main = tracer.wrap(CLI.main, tracing.ROOT_SPAN)
    with tracer.patched():
        for run_id in (0, 1):
            tracer.run_id = run_id
            client.unit(traced_main)
    assert client.check.failed == 0, client.check.problems

    first, second = (tracing.layer_metrics(tracer, r) for r in (0, 1))
    for count in run.EXACT_COUNTS:
        assert first[count] == second[count], count
    for count, expected in client.workload.traced_counts().items():
        assert first[count] == expected, count
    assert first["schwarz.iterations"] > 0
    assert first["discretize.solve_banded_calls"] >= first["discretize.subdomain_solve_calls"]
    for r in (0, 1):
        assert tracer.nesting_problems(r) == []
        totals = tracer.layer_totals(r)
        self_sum = sum(layer["self_s"] for layer in totals.values())
        assert self_sum == pytest.approx(totals[tracing.ROOT_SPAN]["total_s"], abs=1e-6)


def test_traced_run_fails_on_a_count_off_its_record(monkeypatch):
    client = run.Client(CLI, workloads.make_workload("rho-sweep", seed=0))
    monkeypatch.setattr(client.workload, "traced_counts", lambda: {"oracle.tau_calls": 12})
    metrics, notes, ok = run.measure_layers(client, seconds=0.0)
    assert not ok
    assert "FAIL oracle.tau_calls = 11, expected 12" in notes
    assert metrics["trace.overhead_s"] != 0.0


def _tracer_with_spans(*spans):
    """A tracer holding the given (name, parent, start, end) spans in run 0."""
    tracer = tracing.Tracer()
    for name, parent, start, end in spans:
        tracer.name.append(tracer.names.index(name))
        tracer.parent.append(parent)
        tracer.run.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    return tracer


def test_nesting_problems_are_found():
    root = (tracing.ROOT_SPAN, -1, 0.0, 10.0)
    nested = _tracer_with_spans(root, ("schwarz.run", 0, 1.0, 9.0),
                                ("schwarz.norm", 1, 2.0, 3.0), ("schwarz.norm", 1, 3.0, 4.0))
    assert nested.nesting_problems(0) == []
    outside = _tracer_with_spans(root, ("schwarz.run", 0, 1.0, 11.0))
    assert "1 spans end outside their parent span, first: schwarz.run" in (
        outside.nesting_problems(0))
    overlapping = _tracer_with_spans(root, ("schwarz.run", 0, 1.0, 7.0),
                                     ("schwarz.run", 0, 2.0, 9.0))
    assert "1 spans have overlapping children, first: cli.main" in (
        overlapping.nesting_problems(0))
    two_roots = _tracer_with_spans(root, root)
    assert two_roots.nesting_problems(0) == ["2 spans without a parent, expected one cli.main"]


def test_patches_are_restored_after_an_error():
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a, *_ in tracing.PATCHES}
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched():
            assert all(getattr(importlib.import_module(m), a) is not fn
                       for (m, a), fn in originals.items())
            raise RuntimeError("unit failed")
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn


def test_missing_attribute_fails_and_restores(monkeypatch):
    schwarz = importlib.import_module("schwarz1d.schwarz")
    solve_banded = importlib.import_module("schwarz1d.discretize").solve_banded
    monkeypatch.delattr(schwarz, "weighted_sup_norm")
    with pytest.raises(AttributeError, match="weighted_sup_norm"):
        with tracing.Tracer().patched():
            pass
    assert importlib.import_module("schwarz1d.discretize").solve_banded is solve_banded
    assert not hasattr(schwarz, "weighted_sup_norm")


def test_rho_values_from_seed():
    assert workloads.rho_values(0) == [2.0 ** k for k in range(11)]
    for seed in (1, 2, 7):
        values = workloads.rho_values(seed)
        assert values == workloads.rho_values(seed)
        assert len(values) == 11 and values[-1] == 1024.0
        for k, rho in enumerate(values[:-1]):
            assert 2.0 ** k <= rho < 2.0 ** (k + 1)
    assert workloads.rho_values(1) != workloads.rho_values(2)


def _write_run_outputs(out_dir, verdict, iterations, rate):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.txt").write_text(
        f"verdict:        {verdict}\niterations:     {iterations}\n"
        f"rate/double:    {rate!r}\n", encoding="utf-8")
    rows = ["k,l,norm,E_k,rate,verdict"] + ["row"] * (3 * iterations)
    (out_dir / "history.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_run_check_catches_drift():
    workload = workloads.make_workload("heat-robin", seed=0)
    _, verdict, code, iterations, rate = workloads.HEAT_EXPECTED["heat-robin"]
    out_dir = OUT / "test-check-run"
    _write_run_outputs(out_dir, verdict, iterations, rate * (1 + 5e-11))
    assert workload.check(out_dir, code).failed == 0
    _write_run_outputs(out_dir, verdict, iterations, rate * (1 + 1e-9))
    assert workload.check(out_dir, code).failed == 1
    _write_run_outputs(out_dir, verdict, iterations + 1, rate)
    assert workload.check(out_dir, code).failed == 1
    _write_run_outputs(out_dir, verdict, iterations, rate)
    assert workload.check(out_dir, 2).failed == 1


def test_sweep_check_catches_contradictions():
    workload = workloads.make_workload("rho-sweep", seed=0)
    out_dir = OUT / "test-check-sweep"
    out_dir.mkdir(parents=True, exist_ok=True)

    def check(rows):
        lines = ["axis,value,verdict,iterations,rate_double,tau,error"]
        lines += [f"transmission.rho,{rho!r},{v},{200 if v == 'stalled' else 10},{rate!r},"
                  f"{tau!r}," for rho, (v, rate, tau) in zip(workload.config["sweep"]["values"],
                                                             rows)]
        (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return workload.check(out_dir, 0)

    good = [("diverged", 1.2, 1.2), ("stalled", 1.0, 1.07)] + [("converged", 0.5, 0.5)] * 9
    assert check(good).failed == 0
    assert check(good[:2] + [("stalled", 0.7, 0.7)] + good[3:]).failed == 1
    assert check([("stalled", 1.3, 1.3)] + good[1:]).failed == 1
    workload.config["run"]["max_iters"] = 250  # the stalled row used 200 of 250
    assert check(good).failed == 1
    workload.config["run"]["max_iters"] = 200
    assert check(good[:2] + [("converged", 1.0, 1.0)] + good[3:]).failed == 1
    assert check(good[:2] + [("diverged", 0.5, 0.5)] + good[3:]).failed == 1
    result = check(good[:2] + [("converged", 0.5 * 1.06, 0.5)] + good[3:])
    assert result.failed == 1
    assert max(result.oracle_gaps) == pytest.approx(0.06)
    assert math.isclose(max(check(good).oracle_gaps), 0.0)


def test_fails_without_the_package():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for name in ("run.py", "tracing.py", "workloads.py"):
        shutil.copy(workloads.BENCH_DIR / name, bare / "perfbench")
    try:
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rho-sweep",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
