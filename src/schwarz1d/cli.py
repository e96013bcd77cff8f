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
                  analytic two-subdomain geometry (empty for a point
                  whose plan fails).  Consecutive points with the same
                  problem, partition, grid and Picard settings share one
                  monodomain reference.  Exit 1 when no point converged
                  or diverged.
* ``validate`` -- make every check ``run`` makes before its first solve
                  and build every subdomain operator; on a violation
                  print the message ``run`` would print after
                  ``error:`` and exit 1, else print each operator's
                  ``h > h*`` warning and exit 0.

Configs are JSON with a ``schema_version`` field; see README for the
schema.  Every config value goes through the ``read_*`` helpers of the
problem module, so a number is a JSON number, never ``true`` or
``"0.01"``; a bad value or an unknown ``run`` key is a ValueError.  Any
failure prints one ``error: ...`` line (``validate``: the message on
stdout) and exits 1.  CSV output never contains wall-clock times, so
identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from . import oracle, transmission as tx
from .geometry import Partition, build_uniform_partition
from .problem import (DataFn, ProblemSpec, catalog_lookup, is_number, read_entry, read_integer,
                      read_kind, read_number, read_string)
from .schwarz import (
    IterationHistory,
    Plan,
    SchwarzConfig,
    SchwarzRunError,
    plan,
    run_elliptic,
    run_parabolic,
    solve_reference,
)

__all__ = ["main", "load_config", "build_schwarz_config"]

SCHEMA_VERSION = 1


# --------------------------------------------------------------------------
# config handling
# --------------------------------------------------------------------------

def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError("config root must be a JSON object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    return cfg


def _section(cfg: dict, key: str) -> dict:
    """The object ``cfg[key]``, {} when absent."""
    body = cfg.get(key, {})
    if not isinstance(body, dict):
        raise ValueError(f"config section {key!r} must be an object, got {body!r}")
    return body


def _problem_from_config(cfg: dict) -> tuple[ProblemSpec, str]:
    spec = cfg.get("problem")
    if isinstance(spec, str):
        return catalog_lookup(spec), spec
    if isinstance(spec, dict):
        return ProblemSpec.from_dict(spec), "(inline)"
    raise ValueError("config needs a 'problem' (catalog id or inline object)")


def _partition_from_config(cfg: dict, length: float) -> Partition:
    kind, body = read_kind(cfg.get("partition"), dict.fromkeys(("uniform", "intervals")),
                           "partition")
    if kind == "uniform":
        return build_uniform_partition(
            length, read_integer(read_entry(body, "count", "uniform partition"), "count"),
            read_number(read_entry(body, "overlap", "uniform partition"), "overlap"))
    if not (isinstance(body, list) and all(isinstance(s, list) and len(s) == 2 for s in body)):
        raise ValueError(f"bad intervals partition {body!r}")
    return Partition(length=length, subdomains=tuple(
        (read_number(lo, "interval end"), read_number(hi, "interval end")) for lo, hi in body))


# how each run.<key> is read; an absent key keeps SchwarzConfig's default, another is an error
_RUN_SETTINGS = {**dict.fromkeys(("max_iters", "picard_max", "rate_window"), read_integer),
                 **dict.fromkeys(("stop_tol", "alpha", "picard_tol", "guard_factor"),
                                 read_number),
                 "u0": lambda u0, key: DataFn.from_dict(u0) if isinstance(u0, dict) else u0}


def build_schwarz_config(cfg: dict) -> tuple[SchwarzConfig, str]:
    """Translate a config dict into a SchwarzConfig; returns (config, problem id)."""
    problem, problem_id = _problem_from_config(cfg)
    partition = _partition_from_config(cfg, problem.length)
    transmission = tx.TransmissionSpec.from_dict(cfg.get("transmission", {"dirichlet": {}}))
    grid = _section(cfg, "grid")
    run = _section(cfg, "run")
    unknown = sorted(set(run) - set(_RUN_SETTINGS))
    if unknown:
        raise ValueError(f"unknown run setting(s) {unknown} (known: {sorted(_RUN_SETTINGS)})")
    settings = {"k_max" if key == "max_iters" else key: convert(run[key], key)
                for key, convert in _RUN_SETTINGS.items() if key in run}
    return SchwarzConfig(
        problem=problem,
        partition=partition,
        h_target=read_number(read_entry(grid, "h", "grid"), "h"),
        dt_target=read_number(grid["dt"], "dt") if grid.get("dt") is not None else None,
        transmission=transmission,
        **settings,
    ), problem_id


def _oracle_tau(p: Plan, problem_id: str) -> float | None:
    """Closed-form tau when the run is the analytic two-subdomain model, else None."""
    part = p.cfg.partition
    if problem_id != "example31" or part.count != 2:
        return None
    left = int(part.subdomains[1][0] < part.subdomains[0][0])  # the subdomain at x = 0
    right = 1 - left
    (L2,), (L1,) = part.interfaces[(left, right)], part.interfaces[(right, left)]
    try:
        # p and q as the run's Robin rows read them (rho applied); a Dirichlet
        # link has p = None, and its tau does not depend on p and q
        case = oracle.AnalyticCase(L=part.length, L1=L1, L2=L2, p=p.links[left][1].p or 1.0,
                                   q=p.links[right][0].p or 1.0)
        return (oracle.tau_factors(case) if p.cfg.transmission.is_robin
                else oracle.dirichlet_tau_factors(case)).tau
    except ValueError:  # a degenerate tau
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


def _out_dir(cfg: dict, out: str | None = None) -> Path:
    """``out`` (``--out``), else ``output.dir`` (read either way), else "out"."""
    configured = read_string(_section(cfg, "output").get("dir", "out"), "output.dir")
    return Path(out or configured)


def _write_history_csv(path: Path, hist: IterationHistory) -> None:
    lines = ["k,l,norm,E_k,rate,verdict"]
    for k, l, norm, ek, rate, verdict in hist.to_csv_rows():
        lines.append(",".join([str(k), str(l), _fmt(norm), _fmt(ek), _fmt(rate), verdict]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _summary_text(problem_id: str, p: Plan, hist: IterationHistory) -> str:
    lines = [
        f"problem:        {problem_id}",
        f"transmission:   {p.cfg.transmission.kind}",
        f"norm:           {hist.norm_kind}",
        f"verdict:        {hist.verdict}",
        f"iterations:     {hist.iterations}",
        f"final E:        {_fmt(hist.E[-1]) if hist.E else ''}",
        f"rate/iter:      {_fmt(hist.rate_per_iteration)}",
        f"rate/double:    {_fmt(hist.rate_per_double)}",
        f"wall time (s):  {sum(hist.wall_times):.3f}",
    ]
    tau = _oracle_tau(p, problem_id)
    if tau is not None:
        lines.append(f"oracle tau:     {_fmt(tau)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    sc, problem_id = build_schwarz_config(cfg)
    p = plan(sc)
    out = _out_dir(cfg, args.out)
    try:
        hist = run_parabolic(p) if sc.problem.mode == "parabolic" else run_elliptic(p)
    except SchwarzRunError as exc:
        if exc.history is not None:  # keep the iterations before the failed sweep
            out.mkdir(parents=True, exist_ok=True)
            _write_history_csv(out / "history.csv", exc.history)
        raise
    out.mkdir(parents=True, exist_ok=True)
    _write_history_csv(out / "history.csv", hist)
    summary = _summary_text(problem_id, p, hist)
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
        kind, body = read_kind(tdict, tx.TransmissionSpec._KINDS, "transmission")
        leaf = axis.split(".")[1]
        if kind == "dirichlet":
            raise ValueError(f"cannot sweep {leaf} on a Dirichlet config")
        if not isinstance(body, dict):
            raise ValueError(f"bad transmission spec: {tdict!r}")
        out["transmission"] = {"scaled_robin" if leaf == "rho" else kind: {**body, leaf: value}}
        return out
    if axis == "partition.overlap":
        if not isinstance(_section(out, "partition").get("uniform"), dict):
            raise ValueError("partition.overlap sweep needs a uniform partition")
        out["partition"]["uniform"]["overlap"] = value
        return out
    node = out
    *head, leaf = axis.split(".")
    for part in head:
        if not isinstance(node.get(part), dict):
            raise ValueError(f"unknown sweep axis {axis!r} (try: {_AXIS_HELP})")
        node = node[part]
    if leaf not in node:
        raise ValueError(f"unknown sweep axis {axis!r} (try: {_AXIS_HELP})")
    node[leaf] = value
    return out


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    sweep = _section(cfg, "sweep")
    axis, values = sweep.get("axis"), sweep.get("values")
    if not axis or not values:
        raise ValueError("sweep needs config.sweep.axis and a nonempty value list")
    axis = read_string(axis, "sweep.axis")
    if not (isinstance(values, list) and all(map(is_number, values))):
        raise ValueError(f"sweep values must be numbers in a list, got {values!r}")
    labels = [_fmt(read_number(value, "sweep value")) for value in values]
    out = _out_dir(cfg, args.out)
    rows = ["axis,value,verdict,iterations,rate_double,tau,error"]
    first_converged, verdicts = None, 0
    # the last reference solved and its plan's reference_key: an axis that
    # leaves the problem, partition and grid alone (rho, p, alpha) solves it once
    reference = key = None
    for value, label in zip(values, labels):
        point = _apply_axis(cfg, axis, value)
        tau = p = hist = None  # a failed plan has no tau; the last point's is dropped
        try:
            sc, problem_id = build_schwarz_config(point)
            p = plan(sc)
            tau = _oracle_tau(p, problem_id)
            if p.reference_key != key:
                reference = key = None  # freed before the next one is solved
                reference, key = solve_reference(p), p.reference_key
            run = run_parabolic if sc.problem.mode == "parabolic" else run_elliptic
            hist = run(p, reference)
            rows.append(",".join([axis, label, hist.verdict, str(hist.iterations),
                                  _fmt(hist.rate_per_double), _fmt(tau), ""]))
            if first_converged is None and hist.verdict == "converged":
                first_converged = value
            verdicts += hist.verdict in ("converged", "diverged")
        except Exception as exc:  # record the failure, keep sweeping
            rows.append(",".join([axis, label, "error", "", "", _fmt(tau),
                                  str(exc).replace(",", ";")]))
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    if not args.quiet:
        print("\n".join(rows))
        if first_converged is not None:
            print(f"# first converged at {axis} = {first_converged}")
    if not verdicts:
        print("error: no sweep point reached a verdict", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    try:  # every check run makes before its first solve
        p = plan(build_schwarz_config(cfg)[0])
        _out_dir(cfg)
    except Exception as exc:
        print(str(exc) or type(exc).__name__)  # as main prints it
        return 1
    for l, op in enumerate(p.ops, start=1):
        for warning in op.warnings:
            print(f"warning: subdomain {l}: {warning}")
    if not args.quiet:
        print("ok: every check run makes before its first solve passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="schwarz1d",
        description="Overlapping Schwarz experiments on 1D semilinear problems",
    )
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

    p_val = sub.add_parser("validate", help="make every check run makes before its first solve")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    handler = {"run": _cmd_run, "tau": _cmd_tau, "sweep": _cmd_sweep,
               "validate": _cmd_validate}[args.command]
    try:
        return handler(args)
    except Exception as exc:  # one line, never a traceback; a bare MemoryError has no text
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
