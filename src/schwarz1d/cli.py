"""Experiment runner: load a config, run sweeps, write machine-readable reports.

Subcommands:

* ``run``      -- one Schwarz run; writes history.csv + summary.txt.
                  Exit 0 when the run converged, 2 when it diverged,
                  1 on operational failure (bad config, no verdict).
* ``tau``      -- closed-form contraction factors for the two-subdomain
                  model; prints tau1, tau2, tau and a converge/diverge
                  verdict (tau < 1).
* ``sweep``    -- re-run a config along one parameter axis; writes
                  sweep.csv with the engine verdict/rate per grid point
                  and the closed-form tau wherever the config matches the
                  analytic two-subdomain geometry.
* ``validate`` -- check problem assumptions and partition rules; exit 0
                  iff no violations.

Configs are JSON with a ``schema_version`` field; see README for the
schema.  CSV output never contains wall-clock times, so identical
configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from . import oracle
from .discretize import PicardError, SingularSystemError
from .geometry import Partition, build_uniform_partition, validate_partition
from .problem import DataFn, ProblemSpec, catalog_lookup, validate as validate_problem
from .schwarz import (
    IterationHistory,
    SchwarzConfig,
    SchwarzRunError,
    run_elliptic,
    run_parabolic,
)
from .transmission import TransmissionSpec

__all__ = ["main", "load_config", "build_schwarz_config"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed or inconsistent experiment config."""


# --------------------------------------------------------------------------
# config handling
# --------------------------------------------------------------------------

def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    return cfg


def _section(cfg: dict, key: str) -> dict:
    """The object ``cfg[key]``, {} when absent."""
    body = cfg.get(key, {})
    if not isinstance(body, dict):
        raise ConfigError(f"config section {key!r} must be an object, got {body!r}")
    return body


def _number(section: dict, key: str, default, cast=float):
    """``section[key]`` (``default`` when absent) converted by ``cast``."""
    value = section.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _problem_from_config(cfg: dict) -> tuple[ProblemSpec, str]:
    spec = cfg.get("problem")
    if isinstance(spec, str):
        return catalog_lookup(spec), spec
    if isinstance(spec, dict):
        return ProblemSpec.from_dict(spec), "(inline)"
    raise ConfigError("config needs a 'problem' (catalog id or inline object)")


def _partition_from_config(cfg: dict, length: float) -> Partition:
    spec = cfg.get("partition")
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError("config needs a 'partition' ({uniform: ...} or {intervals: ...})")
    kind, body = next(iter(spec.items()))
    if kind not in ("uniform", "intervals"):
        raise ConfigError(f"unknown partition kind {kind!r}")
    try:
        if kind == "uniform":
            count, overlap = int(body["count"]), float(body["overlap"])
        else:
            subs = tuple((float(lo), float(hi)) for lo, hi in body)
    except (TypeError, ValueError, LookupError):
        raise ConfigError(f"bad {kind} partition {body!r}") from None
    if kind == "uniform":
        return build_uniform_partition(length, count, overlap)
    return Partition(length=length, subdomains=subs)


def build_schwarz_config(cfg: dict) -> tuple[SchwarzConfig, str]:
    """Translate a config dict into a SchwarzConfig; returns (config, problem id)."""
    problem, problem_id = _problem_from_config(cfg)
    partition = _partition_from_config(cfg, problem.length)
    tdict = cfg.get("transmission", {"dirichlet": {}})
    transmission = TransmissionSpec.from_dict(tdict)
    grid = _section(cfg, "grid")
    if "h" not in grid:
        raise ConfigError("config needs grid.h")
    run = _section(cfg, "run")
    u0 = run.get("u0", "zero")  # a shorthand string or "reference" stays as it is
    sc = SchwarzConfig(
        problem=problem,
        partition=partition,
        h_target=_number(grid, "h", None),
        dt_target=_number(grid, "dt", None) if grid.get("dt") is not None else None,
        transmission=transmission,
        u0=DataFn.from_dict(u0) if isinstance(u0, dict) else u0,
        k_max=_number(run, "max_iters", 200, int),
        stop_tol=_number(run, "stop_tol", 1e-10),
        alpha=_number(run, "alpha", 10.0),
        picard_tol=_number(run, "picard_tol", 1e-10),
        picard_max=_number(run, "picard_max", 200, int),
        guard_factor=_number(run, "guard_factor", 1e6),
        rate_window=_number(run, "rate_window", 8, int),
    )
    return sc, problem_id


def _oracle_tau(sc: SchwarzConfig, problem_id: str) -> float | None:
    """Closed-form tau when the run is the analytic two-subdomain model, else None."""
    L = sc.problem.length
    if problem_id != "example31" or sc.partition.count != 2:
        return None
    (a0, L2), (L1, b1) = sc.partition.subdomains
    if abs(a0) > 1e-12 or abs(b1 - L) > 1e-12 or not 0.0 < L1 < L2 < L:
        return None
    tsp = sc.transmission
    try:
        if not tsp.is_robin:
            return oracle.dirichlet_tau_factors(
                oracle.AnalyticCase(L=L, L1=L1, L2=L2, p=1.0, q=1.0)).tau
        p = tsp.p if isinstance(tsp.p, dict) else {(0, 1): tsp.p, (1, 0): tsp.p}
        rho = tsp.rho if tsp.kind == "scaled_robin" else 1.0
        return oracle.tau_factors(oracle.AnalyticCase(
            L=L, L1=L1, L2=L2, p=float(p[(0, 1)]), q=float(p[(1, 0)]), rho=rho)).tau
    except (KeyError, oracle.DegenerateParameterError):
        return None


# --------------------------------------------------------------------------
# report writing
# --------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if np.isnan(v):
            return ""
        return format(v, ".17g")
    return str(v)


def _write_history_csv(path: Path, hist: IterationHistory) -> None:
    lines = ["k,l,norm,E_k,rate,verdict"]
    for k, l, norm, ek, rate, verdict in hist.to_csv_rows():
        lines.append(",".join([str(k), str(l), _fmt(norm), _fmt(ek), _fmt(rate), verdict]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _summary_text(problem_id: str, sc: SchwarzConfig, hist: IterationHistory) -> str:
    lines = [
        f"problem:        {problem_id}",
        f"transmission:   {sc.transmission.kind}",
        f"norm:           {hist.norm_kind}",
        f"verdict:        {hist.verdict}",
        f"iterations:     {hist.iterations}",
        f"final E:        {_fmt(hist.E[-1]) if hist.E else ''}",
        f"rate/iter:      {_fmt(hist.rate_per_iteration)}",
        f"rate/double:    {_fmt(hist.rate_per_double)}",
        f"wall time (s):  {sum(hist.wall_times):.3f}",
    ]
    tau = _oracle_tau(sc, problem_id)
    if tau is not None:
        lines.append(f"oracle tau:     {_fmt(tau)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    sc, problem_id = build_schwarz_config(cfg)
    out = Path(args.out or _section(cfg, "output").get("dir", "out"))
    hist = run_parabolic(sc) if sc.problem.mode == "parabolic" else run_elliptic(sc)
    out.mkdir(parents=True, exist_ok=True)
    _write_history_csv(out / "history.csv", hist)
    summary = _summary_text(problem_id, sc, hist)
    (out / "summary.txt").write_text(summary, encoding="utf-8")
    if not args.quiet:
        print(summary, end="")
    if hist.verdict == "converged":
        return 0
    if hist.verdict == "diverged":
        return 2
    print("no verdict within max_iters (stalled)", file=sys.stderr)
    return 1


def _cmd_tau(args) -> int:
    case = oracle.AnalyticCase(L=args.L, L1=args.L1, L2=args.L2, p=args.p, q=args.q,
                               rho=args.rho)
    f = oracle.tau_factors(case)
    print(f"tau1 = {_fmt(f.tau1)}")
    print(f"tau2 = {_fmt(f.tau2)}")
    print(f"tau  = {_fmt(f.tau)}")
    print(f"verdict: {'converge' if f.tau < 1.0 else 'diverge'} (tau {'<' if f.tau < 1.0 else '>='} 1)")
    return 0


_AXIS_HELP = ("transmission.rho, transmission.p, partition.overlap, "
              "grid.h, grid.dt, run.alpha (or any dotted config path)")


def _apply_axis(cfg: dict, axis: str, value) -> dict:
    out = copy.deepcopy(cfg)
    if axis in ("transmission.rho", "transmission.p"):
        tdict = out.get("transmission", {"dirichlet": {}})
        if not (isinstance(tdict, dict) and len(tdict) == 1
                and isinstance(next(iter(tdict.values())), dict)):
            raise ConfigError(f"bad transmission spec: {tdict!r}")
        kind, body = next(iter(tdict.items()))
        leaf = axis.split(".")[1]
        if kind == "dirichlet":
            raise ConfigError(f"cannot sweep {leaf} on a Dirichlet config")
        out["transmission"] = {"scaled_robin" if leaf == "rho" else kind: {**body, leaf: value}}
        return out
    if axis == "partition.overlap":
        if not isinstance(_section(out, "partition").get("uniform"), dict):
            raise ConfigError("partition.overlap sweep needs a uniform partition")
        out["partition"]["uniform"]["overlap"] = value
        return out
    node = out
    *head, leaf = axis.split(".")
    for part in head:
        if not isinstance(node.get(part), dict):
            raise ConfigError(f"unknown sweep axis {axis!r} (try: {_AXIS_HELP})")
        node = node[part]
    if leaf not in node:
        raise ConfigError(f"unknown sweep axis {axis!r} (try: {_AXIS_HELP})")
    node[leaf] = value
    return out


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    sweep = _section(cfg, "sweep")
    axis, values = sweep.get("axis"), sweep.get("values")
    if not axis or not values:
        raise ConfigError("sweep needs config.sweep.axis and a nonempty value list")
    if not (isinstance(values, list)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)):
        raise ConfigError(f"sweep values must be numbers in a list, got {values!r}")
    labels = [_fmt(float(value)) for value in values]
    out = Path(args.out or _section(cfg, "output").get("dir", "out"))
    rows = ["axis,value,verdict,iterations,rate_double,tau,error"]
    first_converged = None
    for value, label in zip(values, labels):
        point = _apply_axis(cfg, axis, value)
        tau = None
        try:
            sc, problem_id = build_schwarz_config(point)
            tau = _oracle_tau(sc, problem_id)
            hist = run_parabolic(sc) if sc.problem.mode == "parabolic" else run_elliptic(sc)
            rows.append(",".join([axis, label, hist.verdict, str(hist.iterations),
                                  _fmt(hist.rate_per_double), _fmt(tau), ""]))
            if first_converged is None and hist.verdict == "converged":
                first_converged = value
        except Exception as exc:  # record the failure, keep sweeping
            rows.append(",".join([axis, label, "error", "", "", _fmt(tau),
                                  str(exc).replace(",", ";")]))
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    if not args.quiet:
        print("\n".join(rows))
        if first_converged is not None:
            print(f"# first converged at {axis} = {first_converged}")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    problem, _ = _problem_from_config(cfg)
    rng = np.random.default_rng(args.seed)
    violations = validate_problem(problem, rng=rng)
    try:
        partition = _partition_from_config(cfg, problem.length)
        violations += validate_partition(partition)
    except (ConfigError, ValueError) as exc:
        violations.append(str(exc))
    for v in violations:
        print(v)
    if violations:
        return 1
    if not args.quiet:
        print("ok: all assumption and partition checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="schwarz1d",
        description="Overlapping Schwarz experiments on 1D semilinear problems",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized validation checks")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one Schwarz iteration experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory (default: config output.dir)")

    p_tau = sub.add_parser("tau", help="closed-form contraction factors")
    p_tau.add_argument("--L", type=float, required=True)
    p_tau.add_argument("--L1", type=float, required=True)
    p_tau.add_argument("--L2", type=float, required=True)
    p_tau.add_argument("--p", type=float, required=True)
    p_tau.add_argument("--q", type=float, required=True)
    p_tau.add_argument("--rho", type=float, default=1.0)

    p_sweep = sub.add_parser("sweep", help="run a config along one parameter axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="check problem assumptions and partition rules")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    handler = {"run": _cmd_run, "tau": _cmd_tau, "sweep": _cmd_sweep,
               "validate": _cmd_validate}[args.command]
    try:
        return handler(args)
    except (ConfigError, ValueError, LookupError, OSError, SchwarzRunError, PicardError,
            SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
