"""The benchmark's workloads: inputs made from the seed, and output checks.

One unit of a workload is one ``schwarz1d run`` or ``schwarz1d sweep``
call through ``schwarz1d.cli.main``, from config to written CSVs.  Why
each workload was chosen is recorded in NOTES.md.
"""

from __future__ import annotations

import copy
import importlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"

#: verdict, exit code, iteration count and rate_per_double recorded at the
#: seed commit for the shipped heat configs
HEAT_EXPECTED = {
    "heat-dirichlet": ("configs/heat_dirichlet.json", "converged", 0, 29,
                       0.30717881684276754),
    "heat-robin": ("configs/heat_robin.json", "converged", 0, 4,
                   0.0022102430303957764),
}
#: traced counts recorded at the seed commit for the shipped heat configs;
#: the levels are those of the whole-window solves (subdomain solves and the
#: reference), 2,000 time levels each: 88 for heat-dirichlet, 13 for heat-robin
HEAT_TRACED_COUNTS = {
    "heat-dirichlet": {"discretize.solve_banded_calls": 331601,
                       "discretize.subdomain_solve_calls": 87,
                       "discretize.picard_steps_per_level": 331601 / 176000,
                       "schwarz.iterations": 29},
    "heat-robin": {"discretize.solve_banded_calls": 82011,
                   "discretize.subdomain_solve_calls": 12,
                   "discretize.picard_steps_per_level": 82011 / 26000,
                   "schwarz.iterations": 4},
}
#: loose enough for a change of pivoting, tight enough to catch real drift
RATE_RTOL = 1e-10
#: the README's acceptance tolerance for fitted rate against closed-form tau
TAU_RTOL = 0.05
#: a sweep point may stall (use its whole iteration budget) only this close
#: to the threshold tau = 1; observed stalls have tau from 0.82 to 1.14
STALL_TAU_MARGIN = 0.25
RHO_SWEEP_CONFIG = "configs/counterexample_rho_sweep.json"
RHO_SWEEP_H = 1e-4
NAMES = ("heat-dirichlet", "heat-robin", "rho-sweep")


class SetupError(RuntimeError):
    """The checkout lacks the package or the configs the benchmark runs."""


def load_cli():
    """Import ``schwarz1d.cli`` from the checkout's ``src/``, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "schwarz1d" / "__init__.py").is_file():
        raise SetupError(f"no package source at {src / 'schwarz1d'}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("schwarz1d.cli")
    if Path(cli.__file__).resolve().parent != (src / "schwarz1d").resolve():
        raise SetupError(f"schwarz1d was imported from {cli.__file__}, not from {src}")
    return cli


def rho_values(seed: int) -> list[float]:
    """Eleven rho values in [1, 1024]: 2^(k+u) for k = 0..9, and 1024.

    u is one offset drawn uniformly from [0, 1) with the seed, so each of
    the first ten values is log-uniform within its octave and the set
    stays evenly spread.  Seed 0 gives u = 0, the shipped powers of two.
    """
    u = 0.0 if seed == 0 else float(np.random.default_rng(seed).uniform())
    return [2.0 ** (k + u) for k in range(10)] + [1024.0]


@dataclass
class Check:
    """Outcome of checking one unit's outputs; one operation per run or sweep point."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    oracle_gaps: list[float] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


@dataclass
class Workload:
    name: str
    command: str  # "run" or "sweep"
    config: dict

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        return ["--quiet", self.command, "--config", str(config_path), "--out", str(out_dir)]

    def warmup_config(self) -> dict:
        """A two-iteration run of the same code paths, to warm caches before timing."""
        cfg = copy.deepcopy(self.config)
        cfg["run"]["max_iters"] = 2
        if self.command == "sweep":
            cfg["sweep"]["values"] = cfg["sweep"]["values"][:1]
        return cfg

    def traced_counts(self) -> dict[str, float]:
        """Layer counts every traced unit must report exactly.

        The sweep's counts change with the seed's rho values, but the
        problem is linear (one banded solve per elliptic solve) and each
        point asks the oracle for tau once.
        """
        if self.command == "sweep":
            return {"discretize.picard_steps_per_level": 1.0,
                    "oracle.tau_calls": len(self.config["sweep"]["values"])}
        return HEAT_TRACED_COUNTS[self.name]

    def check(self, out_dir: Path, exit_code: int) -> Check:
        if self.command == "sweep":
            return _check_sweep(self.config, out_dir, exit_code)
        return _check_run(HEAT_EXPECTED[self.name], out_dir, exit_code,
                          self.config["partition"]["uniform"]["count"])


def make_workload(name: str, seed: int) -> Workload:
    """The workload's inputs; the heat workloads are fixed configs and ignore the seed."""
    if name in HEAT_EXPECTED:
        return Workload(name, "run", _read_json(ROOT / HEAT_EXPECTED[name][0]))
    if name == "rho-sweep":
        cfg = _read_json(ROOT / RHO_SWEEP_CONFIG)
        cfg["grid"]["h"] = RHO_SWEEP_H
        cfg["sweep"]["values"] = rho_values(seed)
        return Workload(name, "sweep", cfg)
    raise ValueError(f"unknown workload {name!r} (choose from {', '.join(NAMES)})")


def _read_json(path: Path) -> dict:
    if not path.is_file():
        raise SetupError(f"missing config {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def _parse_summary(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def _check_run(expected, out_dir: Path, exit_code: int, subdomains: int) -> Check:
    _, verdict, code, iterations, rate = expected
    check = Check(attempted=1)
    try:
        summary = _parse_summary((out_dir / "summary.txt").read_text(encoding="utf-8"))
        history_rows = (out_dir / "history.csv").read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        check.fail(f"missing output: {exc}")
        return check
    got_rate = float(summary.get("rate/double") or "nan")
    if exit_code != code:
        check.fail(f"exit code {exit_code}, expected {code}")
    elif summary.get("verdict") != verdict:
        check.fail(f"verdict {summary.get('verdict')!r}, expected {verdict!r}")
    elif summary.get("iterations") != str(iterations):
        check.fail(f"{summary.get('iterations')} iterations, expected {iterations}")
    elif len(history_rows) != 1 + iterations * subdomains:
        check.fail(f"history.csv has {len(history_rows)} lines, "
                   f"expected {1 + iterations * subdomains}")
    elif not abs(got_rate - rate) <= RATE_RTOL * rate:
        check.fail(f"rate/double {got_rate!r} differs from {rate!r} "
                   f"by more than {RATE_RTOL:g} relative")
    return check


def _check_sweep(config: dict, out_dir: Path, exit_code: int) -> Check:
    values = config["sweep"]["values"]
    check = Check(attempted=len(values))
    try:
        rows = (out_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    except OSError as exc:
        rows = []
        check.problems.append(f"missing output: {exc}")
    if exit_code != 0 or len(rows) != len(values):
        check.failed = len(values)
        check.problems.append(f"exit code {exit_code} with {len(rows)} of "
                              f"{len(values)} sweep rows")
        return check
    max_iters = config["run"]["max_iters"]
    for value, row in zip(values, rows):
        _, point, verdict, iterations, rate, tau, error = row.split(",", 6)
        where = f"rho = {value:.6g}"
        if not np.isclose(float(point), value, rtol=1e-15, atol=0.0):
            check.fail(f"{where}: row is for rho = {point}")
        elif verdict not in ("converged", "diverged", "stalled") or not tau:
            check.fail(f"{where}: verdict {verdict!r}, tau {tau!r} {error}")
        elif verdict == "stalled":
            if int(iterations) != max_iters or not abs(float(tau) - 1.0) < STALL_TAU_MARGIN:
                check.fail(f"{where}: stalled after {iterations} of {max_iters} iterations "
                           f"with tau = {tau}; a stall must use them all, with tau "
                           f"within {STALL_TAU_MARGIN} of 1")
        elif (verdict == "converged") != (float(tau) < 1.0):
            check.fail(f"{where}: verdict {verdict} contradicts tau = {tau}")
        else:
            gap = abs(float(rate) - float(tau)) / float(tau)
            check.oracle_gaps.append(gap)
            if not gap <= TAU_RTOL:
                check.fail(f"{where}: rate/double {rate} is {gap:.3g} from tau = {tau}")
    return check
