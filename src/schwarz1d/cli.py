"""Experiment runner: load a config, run sweeps, write machine-readable reports.

Subcommands:

* ``run``      -- one Schwarz run; writes history.csv + summary.txt.
                  Exit 0 when the run converged, 2 when it diverged,
                  1 on operational failure (bad config, no verdict).
* ``tau``      -- closed-form contraction factors for the two-subdomain
                  model; prints tau1, tau2, tau and a converge/diverge
                  verdict (tau < 1).
* ``sweep``    -- re-run a config along one parameter axis, any key
                  that its section's table reads (``transmission.rho``,
                  ``grid.h``) or any dotted path the config writes; writes
                  sweep.csv with the engine verdict/rate per grid point
                  and the closed-form tau wherever ``oracle.run_tau``
                  finds the run to be its model (empty for a point
                  whose plan fails).  Consecutive points with the same
                  problem, partition, grid and Picard settings share one
                  monodomain reference.  Exit 1 when no point converged
                  or diverged.
* ``validate`` -- make every check ``run`` makes before its first solve,
                  and ``sweep`` before its first point, and build every
                  subdomain operator; on a violation print the message
                  ``run`` would print after ``error:`` and exit 1, else
                  print each operator's ``h > h*`` warning and exit 0.

Configs are JSON with a ``schema_version`` field; see README for the
schema.  Each section is read by a table of the problem module's
``read_body`` / ``read_form``, so a number is a JSON number, never
``true`` or ``"0.01"``; a bad value (named by section and key, ``grid
h``) or a key that its object does not read is a ValueError.  Any
failure prints one ``error: ...`` line (``validate``: the message on
stdout) and exits 1.  CSV output never contains wall-clock times, so
identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

from . import oracle, transmission as tx
from .geometry import Partition, build_uniform_partition
from .problem import (REQUIRED, ProblemSpec, catalog_lookup, read_body, read_form, read_integer,
                      read_keys, read_kind, read_number, read_numbers, read_string)
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
    read_keys(cfg, ("schema_version", "problem", "partition", "transmission", "grid", "run",
                    "output", "sweep"), "config")
    return cfg


def _problem_from_config(cfg: dict) -> tuple[ProblemSpec, str]:
    spec = cfg.get("problem")
    if isinstance(spec, str):
        return catalog_lookup(spec), spec
    if isinstance(spec, dict):
        return ProblemSpec.from_dict(spec), "(inline)"
    raise ValueError("config needs a 'problem' (catalog id or inline object)")


def _read_intervals(subdomains, what: str) -> tuple[tuple[float, float], ...]:
    """A list of [lo, hi] pairs of numbers."""
    if not (isinstance(subdomains, list)
            and all(isinstance(s, list) and len(s) == 2 for s in subdomains)):
        raise ValueError(f"{what} must be a list of [lo, hi] pairs, got {subdomains!r}")
    return tuple((read_number(lo, what), read_number(hi, what)) for lo, hi in subdomains)


# read_form's table of a partition: the entries are the keyword arguments of
# build_uniform_partition or Partition, and a bare intervals list is the subdomains
_PARTITIONS = {"uniform": (None, {"count": (read_integer, REQUIRED),
                                  "overlap": (read_number, REQUIRED)}),
               "intervals": ("subdomains", {"subdomains": (_read_intervals, REQUIRED)})}
# read_body's tables of the other sections; a run key's default is SchwarzConfig's,
# and max_iters is its k_max
_GRID = {"h": (read_number, REQUIRED),
         "dt": (lambda dt, what: None if dt is None else read_number(dt, what), None)}
_RUN = {"u0": (lambda u0, _: u0, SchwarzConfig.u0),  # SchwarzConfig reads it
        "max_iters": (read_integer, SchwarzConfig.k_max),
        "stop_tol": (read_number, SchwarzConfig.stop_tol),
        "alpha": (read_number, SchwarzConfig.alpha),
        "picard_tol": (read_number, SchwarzConfig.picard_tol),
        "picard_max": (read_integer, SchwarzConfig.picard_max),
        "guard_factor": (read_number, SchwarzConfig.guard_factor),
        "rate_window": (read_integer, SchwarzConfig.rate_window)}
_OUTPUT = {"dir": (read_string, "out")}
_SWEEP = {"axis": (read_string, REQUIRED),  # values stay as written: each goes into a point
          "values": (lambda values, what: read_numbers(values, what) and values, REQUIRED)}
_DIRICHLET = {"dirichlet": {}}  # the transmission of a config that has none
# the tables by which _apply_axis resolves an axis <section>.<key>; a {kind: body}
# section's are read_form's, with the form of a config that omits the section
_AXIS_SECTIONS = {"grid": _GRID, "run": _RUN}
_AXIS_FORMS = {"transmission": (tx.TransmissionSpec._FORMS, _DIRICHLET),
               "partition": (_PARTITIONS, None)}


def build_schwarz_config(cfg: dict) -> tuple[SchwarzConfig, str]:
    """Translate a config dict into a SchwarzConfig; returns (config, problem id)."""
    problem, problem_id = _problem_from_config(cfg)
    kind, entries = read_form(cfg.get("partition"), _PARTITIONS, "partition")
    partition = (build_uniform_partition if kind == "uniform" else Partition)(
        length=problem.length, **entries)
    transmission = tx.TransmissionSpec.from_dict(cfg.get("transmission", _DIRICHLET))
    grid = read_body(cfg.get("grid", {}), _GRID, "grid")
    run = read_body(cfg.get("run", {}), _RUN, "run")
    return SchwarzConfig(problem=problem, partition=partition, h_target=grid["h"],
                         dt_target=grid["dt"], transmission=transmission,
                         k_max=run.pop("max_iters"), **run), problem_id


# --------------------------------------------------------------------------
# report writing
# --------------------------------------------------------------------------

def _fmt(v: float | None) -> str:
    """``v`` with 17 significant digits; empty for None and NaN."""
    return "" if v is None or math.isnan(v) else format(v, ".17g")


def _out_dir(cfg: dict, out: str | None = None) -> Path:
    """``out`` (``--out``), else ``output.dir`` (read either way), else "out"."""
    configured = read_body(cfg.get("output", {}), _OUTPUT, "output")["dir"]
    return Path(out or configured)


def _write_history_csv(out: Path, hist: IterationHistory) -> None:
    """Write ``out``/history.csv, making ``out``: a row (k, l, norm, E_k, rate,
    verdict) per iteration k and subdomain l, 1-based, where ``rate`` is
    E_k / E_{k-1}, empty for k = 1 and where E_{k-1} = 0."""
    lines = ["k,l,norm,E_k,rate,verdict"]
    for k, (ek, norms) in enumerate(zip(hist.E, hist.sub_norms), start=1):
        rate = ek / hist.E[k - 2] if k >= 2 and hist.E[k - 2] != 0.0 else None
        for l, norm in enumerate(norms, start=1):
            lines.append(",".join([str(k), str(l), _fmt(norm), _fmt(ek), _fmt(rate),
                                   hist.verdict]))
    out.mkdir(parents=True, exist_ok=True)
    (out / "history.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _summary_text(problem_id: str, p: Plan, hist: IterationHistory) -> str:
    lines = [
        f"problem:        {problem_id}",
        f"transmission:   {p.cfg.transmission.kind}",
        f"norm:           {p.norm_kind}",
        f"verdict:        {hist.verdict}",
        f"iterations:     {hist.iterations}",
        f"final E:        {_fmt(hist.E[-1]) if hist.E else ''}",
        f"rate/double:    {_fmt(hist.rate_per_double)}",
        f"wall time (s):  {sum(hist.wall_times):.3f}",
    ]
    tau = oracle.run_tau(p.cfg.problem, p.cfg.partition, p.links)
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
            _write_history_csv(out, exc.history)
        raise
    _write_history_csv(out, hist)
    summary = _summary_text(problem_id, p, hist)
    (out / "summary.txt").write_text(summary, encoding="utf-8")
    if not args.quiet:
        print(summary, end="")
    if hist.verdict == "converged":
        return 0
    if hist.verdict == "diverged":
        return 2
    raise RuntimeError("no verdict within max_iters (stalled)")


def _cmd_tau(args) -> int:
    case = oracle.AnalyticCase(L=args.L, L1=args.L1, L2=args.L2, p=args.p, q=args.q)
    f = oracle.tau_factors(case)
    print(f"tau1 = {_fmt(f.tau1)}")
    print(f"tau2 = {_fmt(f.tau2)}")
    print(f"tau  = {_fmt(f.tau)}")
    print(f"verdict: {'converge' if f.tau < 1.0 else 'diverge'} (tau {'<' if f.tau < 1.0 else '>='} 1)")
    return 0


def _apply_axis(cfg: dict, axis: str, value) -> dict:
    """A copy of ``cfg`` with ``value`` at ``axis``, ``<section>.<key>``: any
    key its section's table reads, written or not (for a ``{kind: body}``
    section, the table of its kind), else any dotted path ``cfg`` writes."""
    out = copy.deepcopy(cfg)
    section, _, key = axis.partition(".")
    if section in _AXIS_SECTIONS:
        entries, what = _AXIS_SECTIONS[section], section
        body = out.setdefault(section, {})
    elif section in _AXIS_FORMS:
        forms, default = _AXIS_FORMS[section]
        kind, body = read_kind(out.get(section, default),
                               {kind: main for kind, (main, _) in forms.items()}, section)
        entries, what = forms[kind][1], f"{kind} {section}"
        out[section] = {kind: body}  # a bare body as the entry it stands for
    else:
        node = out
        *head, leaf = axis.split(".")
        for part in head:
            node = node.get(part) if isinstance(node, dict) else None
        if not (isinstance(node, dict) and leaf in node):
            raise ValueError(f"unknown sweep axis {axis!r} (try: a key that the grid, run, "
                             "transmission or partition section reads, or any dotted path "
                             "the config writes)")
        node[leaf] = value
        return out
    if key not in entries:
        raise ValueError(f"cannot sweep {axis}: {what} has no {key!r} entry")
    if not isinstance(body, dict):  # read_keys's words; each point reads the body's keys
        raise ValueError(f"{what} must be an object, got {body!r}")
    body[key] = value
    return out


def _read_sweep(cfg: dict) -> tuple[str, list]:
    """The sweep section's axis and values, the axis resolved once on the first value."""
    sweep = read_body(cfg.get("sweep", {}), _SWEEP, "sweep")
    if not sweep["values"]:
        raise ValueError("sweep values must be a nonempty list of numbers, got []")
    _apply_axis(cfg, sweep["axis"], sweep["values"][0])
    return sweep["axis"], sweep["values"]


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    axis, values = _read_sweep(cfg)
    labels = [_fmt(float(value)) for value in values]
    out = _out_dir(cfg, args.out)
    rows = ["axis,value,verdict,iterations,rate_double,tau,error"]
    first_converged, verdicts = None, 0
    # the last reference solved and its plan's reference_key: an axis that
    # leaves the problem, partition and grid alone (a Robin scale, p, alpha) solves it once
    reference = key = None
    for value, label in zip(values, labels):
        point = _apply_axis(cfg, axis, value)
        tau = p = hist = None  # a failed plan has no tau; the last point's is dropped
        try:
            sc = build_schwarz_config(point)[0]
            p = plan(sc)
            tau = oracle.run_tau(sc.problem, sc.partition, p.links)
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
                                  (str(exc) or type(exc).__name__).replace(",", ";")]))
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    if not args.quiet:
        print("\n".join(rows))
        if first_converged is not None:
            print(f"# first converged at {axis} = {first_converged}")
    if not verdicts:
        raise RuntimeError("no sweep point reached a verdict")
    return 0


def _cmd_validate(args) -> int:
    try:  # every check run makes before its first solve
        cfg = load_config(args.config)
        p = plan(build_schwarz_config(cfg)[0])
        _out_dir(cfg)
        if "sweep" in cfg:
            _read_sweep(cfg)
    except Exception as exc:
        print(str(exc) or type(exc).__name__)  # as main prints it
        return 1
    for l, op in enumerate(p.ops, start=1):
        for warning in op.warnings:
            print(f"warning: subdomain {l}: {warning}")
    if not args.quiet:
        print("ok: every check run makes before its first solve passed")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, as every other
    failure does; its subparsers are of its class."""

    def error(self, message):
        raise ValueError(message)


def main(argv=None) -> int:
    """Run the command of ``argv`` (default: the process's) and return its exit code.

    Any failure, a usage error among them, prints one ``error: ...`` line
    on stderr and returns 1; ``--help`` prints its text and exits 0.
    """
    parser = _Parser(
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

    p_sweep = sub.add_parser("sweep", help="run a config along one parameter axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="make every check run makes before its first solve")
    p_val.add_argument("--config", required=True)

    handlers = {"run": _cmd_run, "tau": _cmd_tau, "sweep": _cmd_sweep, "validate": _cmd_validate}
    try:
        args = parser.parse_args(argv)
        return handlers[args.command](args)
    except Exception as exc:  # one line, never a traceback; a bare MemoryError has no text
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
