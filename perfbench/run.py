"""schwarz1d benchmark: time to verdict of a closed-loop, single-process client.

    python3 perfbench/run.py --workload heat-dirichlet --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout and imports the package from its
``src/``.  One client runs one unit after another (``max_workers`` 1,
BLAS threads pinned to 1) until the next unit would overrun
``--seconds``; at least one unit runs.  Every unit's outputs are checked.

``--trace 0`` reports the end-to-end metrics of untraced units and the
set-up time of fresh interpreters.  ``--trace 1`` alternates untraced and
traced units and reports the per-layer metrics of the traced ones.  The
last line of standard output is one JSON object; the lines before it
print every metric by name and unit, and the environment.  The exit code
is 2, without a result, when the checkout lacks the package or configs.
"""

import os

# pinned before numpy is imported, here and in the set-up subprocesses
BLAS_THREADS = {var: "1" for var in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import OUT, ROOT, Check  # noqa: E402

SETUP_SAMPLES = 5
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import schwarz1d; "
    "from schwarz1d.cli import load_config, build_schwarz_config; "
    "build_schwarz_config(load_config(sys.argv[2]))"
)

END_TO_END_UNITS = {"time_to_verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "discretize.solve_banded_calls": "count",
    "discretize.solve_banded_s": "s",
    "discretize.solve_banded_us": "us",
    "discretize.subdomain_solve_calls": "count",
    "discretize.subdomain_solve_s": "s",
    "discretize.subdomain_solve_self_s": "s",
    "discretize.picard_steps_per_level": "steps/level",
    "discretize.reference_solve_s": "s",
    "schwarz.norm_calls": "count",
    "schwarz.norm_s": "s",
    "schwarz.iterations": "count",
    "schwarz.engine_self_s": "s",
    "transmission.extract_calls": "count",
    "transmission.extract_s": "s",
    "problem.validate_s": "s",
    "geometry.build_grid_s": "s",
    "oracle.tau_calls": "count",
    "oracle.tau_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
#: layer metrics that count work: they must repeat exactly between traced units
EXACT_COUNTS = tuple(name for name, unit in LAYER_UNITS.items() if unit not in ("s", "us"))


class Client:
    """Runs units of one workload through ``cli.main`` and checks each one."""

    def __init__(self, cli, workload: workloads.Workload):
        self.cli = cli
        self.workload = workload
        self.dir = OUT / workload.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(workload.config), encoding="utf-8")
        self.check = Check(attempted=0)

    def warm_up(self) -> None:
        """Run two iterations untimed; they stall by design, so their report is dropped."""
        path = self.dir / "warmup.json"
        path.write_text(json.dumps(self.workload.warmup_config()), encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()):
            self.cli.main(self.workload.argv(path, self.dir / "warmup"))

    def unit(self, main=None) -> float:
        """Wall seconds of one unit; its outputs are checked afterwards, untimed."""
        out_dir = self.dir / "unit"
        shutil.rmtree(out_dir, ignore_errors=True)
        main = main or self.cli.main
        argv = self.workload.argv(self.config_path, out_dir)
        tic = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a failed unit is counted and reported, not fatal
            code = None
            self.check.problems.append("unit raised " + traceback.format_exc())
        elapsed = time.perf_counter() - tic
        check = self.workload.check(out_dir, code)
        self.check.attempted += check.attempted
        self.check.failed += check.failed
        self.check.problems += check.problems
        self.check.oracle_gaps += check.oracle_gaps
        return elapsed


def repeat(seconds: float, step) -> list:
    """Call ``step`` until the next call would likely end after ``seconds``; at least once."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        tic = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - tic)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def setup_seconds(config_path: Path) -> list[float]:
    """Wall time of fresh interpreters importing the package and building the config."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        tic = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(ROOT / "src"),
                        str(config_path)], cwd=ROOT, check=True, timeout=120)
        samples.append(time.perf_counter() - tic)
    return samples


def spread(samples: list[float]) -> str:
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return (f"median {statistics.median(samples):.6g}, quartiles {q[0]:.6g} / {q[2]:.6g}, "
            f"min {min(samples):.6g}, max {max(samples):.6g}, n = {len(samples)}")


def measure_end_to_end(client: Client, seconds: float) -> tuple[dict, list[str]]:
    setup = setup_seconds(client.config_path)
    times = repeat(seconds, client.unit)
    metrics = {
        "time_to_verdict_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"time_to_verdict_s: {spread(times)}", f"setup_s: {spread(setup)}"]
    return metrics, notes


def measure_layers(client: Client, seconds: float) -> tuple[dict, list[str], bool]:
    tracer = tracing.Tracer()
    traced_main = tracer.wrap(client.cli.main, tracing.ROOT_SPAN)

    def pair() -> float:
        untraced = client.unit()
        tracer.run_id += 1
        with tracer.patched():
            client.unit(traced_main)
        return untraced

    untraced = repeat(seconds, pair)
    runs = range(len(untraced))
    per_run = [tracing.layer_metrics(tracer, r) for r in runs]
    # the root span of a traced unit is the sum of its self times
    traced = [tracer.layer_totals(r)[tracing.ROOT_SPAN]["total_s"] for r in runs]
    # counts are checked to be equal below, so the first run's stand for all
    metrics = {name: per_run[0][name] if name in EXACT_COUNTS
               else statistics.median(m[name] for m in per_run) for name in per_run[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    ok = True
    notes = [f"untraced time_to_verdict_s: {spread(untraced)}",
             f"traced time_to_verdict_s (sum of self times): {spread(traced)}",
             f"self times {statistics.median(traced):.6f} s = untraced "
             f"{statistics.median(untraced):.6f} s + trace.overhead_s "
             f"{metrics['trace.overhead_s']:.6f} s (medians)"]
    for name in EXACT_COUNTS:
        values = {m[name] for m in per_run}
        if len(values) != 1:
            ok = False
            notes.append(f"FAIL {name} differs between traced runs: {sorted(values)}")
    for name, expected in client.workload.traced_counts().items():
        if metrics[name] != expected:
            ok = False
            notes.append(f"FAIL {name} = {metrics[name]!r}, expected {expected!r}")
    for r in runs:
        for problem in tracer.nesting_problems(r):
            ok = False
            notes.append(f"FAIL traced run {r}: {problem}")
    trace_path = OUT / f"{client.workload.name}.spans.csv.gz"
    tracer.dump(trace_path)
    notes.append(f"{len(tracer.start)} spans written to {trace_path.relative_to(ROOT)}")
    return metrics, notes, ok


def environment(seed: int) -> dict:
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, timeout=30)
        commit = found.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = workloads.load_cli()
        workload = workloads.make_workload(args.workload, args.seed)
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    client = Client(cli, workload)
    client.warm_up()
    if args.trace:
        metrics, notes, ok = measure_layers(client, args.seconds)
        units = LAYER_UNITS
    else:
        metrics, notes = measure_end_to_end(client, args.seconds)
        ok, units = True, END_TO_END_UNITS

    check = client.check
    env = environment(args.seed)
    extra = {"failed_ratio": (check.failed / check.attempted, "1")}
    if check.oracle_gaps:
        extra["oracle_rel_gap"] = (max(check.oracle_gaps), "1")
    if workload.command == "sweep":
        values = workload.config["sweep"]["values"]
        notes.append("seed draws the rho values: " + ", ".join(f"{v:.6g}" for v in values))
    else:
        notes.append("seed unused: the shipped config is fixed")
    result = {
        "correct": ok and check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]!r} {unit}")
    for name, (value, unit) in extra.items():
        print(f"  {name} = {value!r} {unit}")
    for line in notes + check.problems:
        print(f"  {line}")
    print("env " + json.dumps(env, sort_keys=True))
    record = dict(result, workload=workload.name, trace=args.trace, env=env,
                  extra={k: v[0] for k, v in extra.items()}, notes=notes + check.problems)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
