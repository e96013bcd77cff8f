"""Jacobi-type overlapping Schwarz iteration with error tracking.

Iteration k is one Jacobi sweep and its error norm: every subdomain is
solved from the interface data of the neighbors' previous iterate (the
initial iterate u^0 for the first sweep), so their order does not change
the result, and each new field is compared against a monodomain
reference computed once with the same discretization.  A run hands each
field on as soon as it is solved: its norm is taken and the data its
neighbors read next are extracted before the next subdomain is solved,
so a parabolic run holds one subdomain field at a time.  ``exchange``
(the data of an iterate) and ``sweep`` (all solves from such data) are
the same steps for a loop written by hand.  (One Jacobi sweep is not the
CLI's ``sweep`` command, which re-runs a whole configuration along one
parameter axis.)
Stopping: the error norm E_k falls below ``stop_tol`` (converged), grows
past ``guard_factor`` times E_1 or stops being finite (diverged; so does
a subdomain whose norm is not finite, or whose solve finds a non-finite
value, and that iteration is not recorded), or the iteration budget runs
out (stalled).

Error norms per mode and transmission kind:

* elliptic: E_k = max over subdomains of the sup norm |e|.
* parabolic, Dirichlet exchange: E_k = max over subdomains of the
  time-weighted squared sup  max (e^2 exp(-alpha t)).
* parabolic, Robin exchange: E_k = sum over subdomains of the spatial
  integral of the squared Laplace-window seminorm |e(x, .)|_alpha^2,
  where |f|_alpha = sup_{a' >= alpha} [ int_{a'}^{a'+1} (Lf)(y)^2 dy ]^(1/2)
  and (Lf)(y) is the Laplace transform of the time signal on [0, T].

The time horizon T truncates the half-line the weighted norms are set on;
pick T with exp(-alpha T) <= 1e-8 so the discarded tail is negligible.

Contraction rates are fitted on the trailing iterations: a least-squares
slope of log E_k (per-iteration rate) and the geometric mean of the
two-sweep ratios E_k / E_{k-2} (per-double-sweep rate).  The latter is
the quantity the closed-form factors of the oracle module predict, and
it stays unbiased when the two interface maps have very different
magnitudes and E_k oscillates between parities.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from . import transmission as tx
from .discretize import (
    NonFiniteError,
    Operator,
    PicardError,
    SingularSystemError,
    reference_solve,
    solve_semilinear_elliptic,
    solve_semilinear_parabolic,
)
from .geometry import Grid, Partition, build_grid, validate_partition
from .problem import DataFn, ProblemSpec, validate as validate_problem

__all__ = [
    "SchwarzConfig",
    "IterationHistory",
    "SchwarzRunError",
    "Plan",
    "plan",
    "solve_reference",
    "run_elliptic",
    "run_parabolic",
    "exchange",
    "sweep",
    "weighted_sup_norm",
    "laplace_seminorm",
    "seminorm_sq_profile",
    "fit_contraction_rate",
    "double_sweep_ratio",
]


class SchwarzRunError(RuntimeError):
    """A solve failed; the message begins "iteration k, subdomain l:" (1-based
    l) or "reference solve:".

    When a sweep of ``run_elliptic`` or ``run_parabolic`` failed,
    ``history`` holds the iterations before it, with verdict "error";
    otherwise it is None.  Setup errors are ``plan``'s ValueErrors.
    """

    history: IterationHistory | None = None


@dataclass
class SchwarzConfig:
    """Everything one run needs.

    ``u0`` is the initial iterate: a DataFn, one of the shorthands
    "zero" / "one" / "sine", or "reference" (the reference solution
    itself, so the iteration must sit still at the fixed point).  It is
    sampled on each subdomain's nodes, and the first sweep takes its
    interface data from it through the same transmission stencil as
    every later sweep.
    ``alpha`` is the decay rate of the parabolic time weight and the
    left end of the seminorm window.  The subdomains are solved one after
    another in one thread; each sweep reads only the previous iterate, so
    their order does not change the result.
    """

    problem: ProblemSpec
    partition: Partition
    h_target: float
    transmission: tx.TransmissionSpec
    dt_target: float | None = None
    u0: Union[DataFn, str] = "zero"
    k_max: int = 200
    stop_tol: float = 1e-10
    alpha: float = 10.0
    picard_tol: float = 1e-10
    picard_max: int = 200
    guard_factor: float = 1e6
    rate_window: int = 8

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        for name in ("stop_tol", "alpha", "picard_tol"):
            value = getattr(self, name)
            if not -math.inf < value < math.inf:
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            if not value > 0:
                raise ValueError(f"{name} must be positive")
        if self.picard_max < 1:
            raise ValueError("picard_max must be >= 1")
        if not self.guard_factor > 1:
            raise ValueError("guard_factor must be > 1")
        if self.rate_window < 1:
            raise ValueError("rate_window must be >= 1")


@dataclass
class IterationHistory:
    """Per-iteration record of one Schwarz run.

    ``final_fields`` is the iterate the run keeps between sweeps, as of
    the last recorded iteration: one field per subdomain of an elliptic
    run, whose fields start the next Picard loops, and empty for a
    parabolic run, which hands each field on and drops it.  It is empty
    too when the run ended in a sweep that was not recorded: a failed
    solve, or an error norm that is not finite.
    """

    norm_kind: str
    E: list[float]
    sub_norms: list[list[float]]
    wall_times: list[float]
    verdict: str
    final_fields: list[np.ndarray]
    rate_per_iteration: float
    rate_per_double: float

    @property
    def iterations(self) -> int:
        return len(self.E)

    def rate_so_far(self, k: int) -> float:
        """E_k / E_{k-1} for 1-based iteration k; nan for k = 1."""
        if k < 2 or self.E[k - 2] == 0.0:
            return float("nan")
        return self.E[k - 1] / self.E[k - 2]

    def to_csv_rows(self) -> list[tuple]:
        """(k, l, norm, E_k, rate, verdict) per iteration and subdomain, 1-based l."""
        rows = []
        for k in range(1, self.iterations + 1):
            for l, norm in enumerate(self.sub_norms[k - 1], start=1):
                rows.append((k, l, norm, self.E[k - 1], self.rate_so_far(k), self.verdict))
        return rows


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------

#: values per block of ``weighted_sup_norm``: 16 KiB, which malloc serves
#: from its heap rather than from fresh pages; numpy buffers the strided
#: reference operand of the subtraction in as many values again, and the
#: two together stay small beside one subdomain field
_SUP_BLOCK = 2048


def weighted_sup_norm(u: np.ndarray, alpha: float, t: np.ndarray, ref=0.0) -> float:
    """max over nodes and time levels of (u - ref)^2 * exp(-alpha t).

    The error u - ref is formed one block of time levels at a time, in one
    buffer of at most ``_SUP_BLOCK`` values, never whole, and each level's
    max of e^2 is weighted once.  For alpha t >= 0 that gives the bits of
    the one-shot expression: the max is exact, rounding e^2 * w is monotone
    in e^2 for a weight 0 < w <= 1, and a weight of 0 turns an inf into NaN
    either way.  A NaN anywhere is the result.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    ref = np.broadcast_to(np.asarray(ref, dtype=float), u.shape)
    nodes, levels = u.shape
    step = max(1, _SUP_BLOCK // nodes)
    buf = np.empty((step, nodes)).T  # level-major, as a parabolic field is
    level_max = np.empty(levels)
    for lo in range(0, levels, step):
        hi = min(lo + step, levels)
        sq = np.subtract(u[:, lo:hi], ref[:, lo:hi], buf[:, :hi - lo])
        np.square(sq, sq)
        np.maximum.reduce(sq, 0, None, level_max[lo:hi])
    level_max *= np.exp(-alpha * np.asarray(t))
    return float(level_max.max())


def _trapezoid_weights(t: np.ndarray) -> np.ndarray:
    w = np.zeros_like(t)
    w[1:] += 0.5 * np.diff(t)
    w[:-1] += 0.5 * np.diff(t)
    return w


_WINDOW_STARTS = 9  # log-spaced window starts sampled in [alpha, 10 alpha]
_WINDOW_INTERVALS = 64  # Simpson intervals per unit window


def _simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Composite Simpson integral of the rows of ``y`` over the points ``x``.

    ``x`` may be non-uniform and must have an odd number of points.  Each
    pair of intervals (h0, h1) integrates the parabola through its three
    points, so the rule is exact for quadratics, and for cubics when every
    middle point is its pair's midpoint.  The arithmetic is that of
    scipy.integrate.simpson (scipy 1.17) for an odd point count, in the
    same order, so the results agree bitwise.
    """
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (y[:, 0:-2:2] * (2.0 - 1.0 / h0divh1)
                        + y[:, 1::2] * (hsum * (hsum / hprod))
                        + y[:, 2::2] * (2.0 - h0divh1))
    return np.sum(tmp, axis=1)


@functools.lru_cache(maxsize=1)
def _seminorm_plan(alpha: float, t_bytes: bytes) -> tuple[list[np.ndarray], np.ndarray]:
    """Window abscissae and the trapezoidal Laplace kernel for (alpha, t).

    Both depend only on alpha and the time grid, which stay fixed for a
    run, so one cached entry serves every norm of that run.  The arrays
    are read-only because every caller shares them.
    """
    t = np.frombuffer(t_bytes, dtype=float)
    starts = np.geomspace(alpha, 10.0 * alpha, _WINDOW_STARTS)
    windows = [np.linspace(s, s + 1.0, _WINDOW_INTERVALS + 1) for s in starts]
    # exp(-y t) times the trapezoidal weights, built in one (window points, t) array
    kernel = np.outer(np.concatenate(windows), t)
    np.negative(kernel, out=kernel)
    np.exp(kernel, out=kernel)
    kernel *= _trapezoid_weights(t)
    for a in (*windows, kernel):
        a.setflags(write=False)
    return windows, kernel


def seminorm_sq_profile(fields: np.ndarray, alpha: float, t: np.ndarray) -> np.ndarray:
    """Per-node squared seminorm |f(x_i, .)|_alpha^2 of a (nodes, time) field.

    The Laplace transform uses trapezoidal quadrature on the time grid;
    the window integral uses composite Simpson with 64 intervals per unit
    window; the sup over window starts is sampled at 9 log-spaced points
    in [alpha, 10 alpha] (for transforms decreasing in y, e.g. signals of
    one sign, it is attained at the left end).  The windows and the
    transform kernel are built once per (alpha, t) and cached for the
    next call with the same pair, so the norms of one run share them.
    """
    fields = np.atleast_2d(np.asarray(fields, dtype=float))
    t = np.ascontiguousarray(t, dtype=float)
    windows, kernel = _seminorm_plan(float(alpha), t.tobytes())
    transforms = fields @ kernel.T  # (nodes, all window points)
    best = np.full(fields.shape[0], -np.inf)
    ny = windows[0].size
    for i, y in enumerate(windows):
        block = transforms[:, i * ny:(i + 1) * ny] ** 2
        best = np.maximum(best, _simpson(block, y))
    return best


def laplace_seminorm(series: np.ndarray, alpha: float, t: np.ndarray) -> float:
    """Seminorm |f|_alpha of one time series on the truncated horizon."""
    sq = seminorm_sq_profile(np.asarray(series)[None, :], alpha, t)
    return float(np.sqrt(max(sq[0], 0.0)))


# --------------------------------------------------------------------------
# rate fitting
# --------------------------------------------------------------------------

def fit_contraction_rate(E, window: int) -> float:
    """Per-iteration rate from a least-squares fit of log E over the tail.

    Returns 0.0 when the tail contains an exact zero (converged to the
    floor); values above 1 indicate growth.
    """
    E = [float(v) for v in E]
    tail = E[-max(int(window), 2):]
    if len(tail) < 2:
        return float("nan")
    if min(tail) <= 0.0:
        return 0.0
    k = np.arange(len(tail), dtype=float)
    slope = np.polyfit(k, np.log(tail), 1)[0]
    return float(np.exp(slope))


def double_sweep_ratio(E, window: int) -> float:
    """Geometric mean of E_k / E_{k-2} over the trailing ``window`` pairs.

    This is the empirical counterpart of the closed-form double-sweep
    factors; parity oscillations of E cancel out of it exactly.
    """
    E = [float(v) for v in E]
    pairs = [(E[k], E[k - 2]) for k in range(2, len(E))]
    pairs = pairs[-max(int(window), 1):]
    if not pairs:
        return float("nan")
    if any(num <= 0.0 or den <= 0.0 for num, den in pairs):
        return 0.0
    logs = [np.log(num / den) for num, den in pairs]
    return float(np.exp(np.mean(logs)))


# --------------------------------------------------------------------------
# the engine
# --------------------------------------------------------------------------

class Plan(NamedTuple):
    """What a run fixes before its first solve; ``plan(cfg)`` builds it.

    ``links[l]`` holds subdomain l's ends (left, right): a
    ``transmission.Link``, or None at the outer boundary.  ``readers[m]``
    lists, as (l, end, link), the links whose neighbor is m, with
    ``links[l][end] is link``: the data subdomain m's field gives.
    ``ops[l]`` is its operator (grid, matrix and LU factors), whose Robin
    rows read the same ``Link.p`` as ``transmission.extract``; only the
    interface data change between sweeps.  ``u0`` is a DataFn or
    "reference".
    """

    cfg: SchwarzConfig
    grid: Grid
    links: list
    readers: list[list[tuple]]
    ops: list[Operator]
    u0: Union[DataFn, str]
    norm_kind: str

    @property
    def reference_key(self) -> tuple:
        """What the monodomain reference depends on; plans with equal keys
        share it (the transmission, ``u0`` and the run settings other than
        the Picard ones do not enter it)."""
        cfg = self.cfg
        return (cfg.problem, cfg.partition, cfg.h_target, cfg.dt_target, cfg.picard_tol,
                cfg.picard_max)


def plan(cfg: SchwarzConfig) -> Plan:
    """Make every check of a run and build its operators; solve nothing.

    Every defect of ``cfg`` that would stop a run before its first solve
    is a ValueError here.
    """
    prob, part = cfg.problem, cfg.partition
    bad = validate_problem(prob)
    if bad:
        raise ValueError("problem fails validation: " + "; ".join(bad))
    bad = validate_partition(part)
    if bad:
        raise ValueError("partition fails validation: " + "; ".join(bad))
    if abs(part.length - prob.length) > 1e-12 * prob.length:
        raise ValueError("partition length differs from problem domain length")
    u0 = cfg.u0
    if isinstance(u0, str) and u0 != "reference":
        u0 = DataFn.from_dict(u0)
    elif not isinstance(u0, (str, DataFn)):
        raise ValueError(f"initial guess must be a DataFn or shorthand, got {u0!r}")
    parabolic = prob.mode == "parabolic"
    if parabolic and cfg.dt_target is None:
        raise ValueError("parabolic runs need dt_target (grid.dt)")
    if not parabolic and cfg.dt_target is not None:
        raise ValueError("elliptic runs take no dt_target (grid.dt)")
    grid = build_grid(part, cfg.h_target, cfg.dt_target, prob.time_horizon)

    links = tx.links(cfg.transmission, grid, prob)
    readers = [[] for _ in links]
    for l, pair in enumerate(links):
        for end, link in enumerate(pair):
            if link is not None:
                readers[link.m].append((l, end, link))
    ops = []
    for l, pair in enumerate(links):
        robin_p = tuple(None if link is None else link.p for link in pair)
        try:
            ops.append(Operator(prob, grid.subgrid(l), robin_p,
                                1.0 / grid.dt if parabolic else 0.0))
        except (SingularSystemError, ValueError) as exc:
            raise ValueError(f"subdomain {l + 1}: {exc}") from exc
    norm_kind = ("sup" if not parabolic else "laplace-seminorm2"
                 if cfg.transmission.is_robin else "weighted-sup2")
    return Plan(cfg, grid, links, readers, ops, u0, norm_kind)


def solve_reference(plan: Plan) -> np.ndarray:
    """The monodomain reference of ``plan``'s run, on its whole grid.

    A failed solve is ``SchwarzRunError("reference solve: ...")``.
    """
    cfg = plan.cfg
    try:
        return reference_solve(cfg.problem, plan.grid, cfg.picard_tol, cfg.picard_max)
    except (PicardError, SingularSystemError) as exc:
        raise SchwarzRunError(f"reference solve: {exc}") from exc


def exchange(plan: Plan, fields: list[np.ndarray]) -> list[list]:
    """Every subdomain's boundary data [left, right] from the iterate ``fields``.

    An outer end gets the problem's boundary value g, an interface end
    ``transmission.extract`` of its neighbor's field, handed off as a run
    hands off each new field.
    """
    data = _outer_data(plan)
    for m, field in enumerate(fields):
        _hand_off(plan, m, field, data)
    return data


def _outer_data(plan: Plan) -> list[list]:
    """Boundary data with g at every outer end and None at every interface end."""
    outer = plan.cfg.problem.boundary_values()
    return [[g if link is None else None for link, g in zip(pair, outer)]
            for pair in plan.links]


def _hand_off(plan: Plan, m: int, field: np.ndarray, data: list[list]) -> None:
    """Write into ``data`` every datum that subdomain m's ``field`` gives.

    Each datum is a copy, so ``field`` is free once this returns: a
    Dirichlet datum of a space-time field would be a view of its row.
    """
    for l, end, link in plan.readers[m]:
        data[l][end] = np.array(tx.extract(link, field))


def _solve(plan: Plan, l: int, data, start, k: int, check_finite: bool = True,
           out: np.ndarray | None = None) -> np.ndarray | None:
    """Subdomain l's new field from its boundary data ``data`` (left, right).

    ``start`` is as for ``sweep``, and ``out`` the buffer of a parabolic
    solve (None: its own).  Returns None when the solve raises
    NonFiniteError; with ``check_finite`` False a linear field is not
    scanned, and the caller's norm is its check.  Any other failure is
    ``SchwarzRunError("iteration k, subdomain l: ...")``.
    """
    cfg, grid, op = plan.cfg, plan.grid, plan.ops[l]
    left, right = data
    try:
        if cfg.problem.mode == "parabolic":
            return solve_semilinear_parabolic(op, left, right, start, grid.dt, grid.t,
                                              cfg.picard_tol, cfg.picard_max,
                                              check_finite=check_finite, out=out)
        return solve_semilinear_elliptic(op, left, right, cfg.picard_tol, cfg.picard_max,
                                         u_start=start, check_finite=check_finite)[0]
    except NonFiniteError:
        return None
    except Exception as exc:
        raise SchwarzRunError(f"iteration {k}, subdomain {l + 1}: {exc}") from exc


def sweep(plan: Plan, data: list, starts: list, k: int = 1) -> list[np.ndarray] | None:
    """One Jacobi sweep: every subdomain of ``plan`` solved from its boundary
    data ``data[l]``, as ``exchange`` gives it.

    ``starts[l]`` starts subdomain l's solve: the start of its Picard loop
    (elliptic; None is zero) or its initial profile (parabolic); it is only
    read.  Returns the new fields, or None when a solve raises
    NonFiniteError (a Picard difference or, with F zero, the field is not
    finite).  Any other failure is ``SchwarzRunError("iteration k,
    subdomain l: ...")``, with ``k`` the number of this sweep in its run.
    """
    fields = []
    for l, (pair, start) in enumerate(zip(data, starts)):
        u = _solve(plan, l, pair, start, k)
        if u is None:
            return None
        fields.append(u)
    return fields


def _error_norm(plan: Plan, op: Operator, field: np.ndarray, ref: np.ndarray,
                scratch: np.ndarray | None) -> float:
    """The norm of one subdomain's error ``field - ref``.

    The weighted sup norm forms the error a block of levels at a time; the
    sup norm and the Laplace seminorm form it whole, in the leading rows
    of ``scratch``.
    """
    if plan.norm_kind == "weighted-sup2":
        return weighted_sup_norm(field, plan.cfg.alpha, plan.grid.t, ref)
    err = np.subtract(field, ref, scratch[:op.n])
    if plan.norm_kind == "sup":
        np.abs(err, err)
        # argmax stops at the first NaN, as np.max would return it
        return err.item(err.argmax())
    return float(np.trapezoid(seminorm_sq_profile(err, plan.cfg.alpha, plan.grid.t), op.sg.x))


def _run(plan: Plan, mode: str, reference: np.ndarray | None) -> IterationHistory:
    """Sweep ``plan`` until a verdict, handing each new field on as it is solved.

    Sweep k solves subdomain l from the data of sweep k - 1 (``exchange``
    of the initial iterate for k = 1), takes the norm of its error against
    the reference restriction, and hands it off: ``_hand_off`` writes every
    datum its neighbors read into the data of sweep k + 1.  Only then is
    the next subdomain solved.  Every solve still reads the previous
    iterate's data, so the subdomain order does not change the result.
    A non-finite norm ends the run "diverged" at once, before that field
    is handed off, and the sweep is not recorded; it is also the run's
    finiteness rule for linear fields, which the solves do not scan.

    A parabolic field is then dead: every parabolic solve of the run
    writes into one time-major buffer of the largest subdomain's size,
    which dies with the run, and starts from the reference's initial
    profile.  An elliptic run keeps its iterate, which starts the next
    Picard loops.  The reference is only read.  The sup norm and the
    Laplace seminorm form the error in one scratch of the largest
    subdomain's size, the weighted sup norm a block of levels at a time.
    So a parabolic run's working set is the reference, one subdomain
    field and, with Robin exchange, one seminorm scratch.
    """
    cfg, grid = plan.cfg, plan.grid
    if cfg.problem.mode != mode:
        raise ValueError(f"run_{mode} needs a {mode} problem, got {cfg.problem.mode}")
    parabolic = mode == "parabolic"
    if reference is None:
        reference = solve_reference(plan)
    refs = [reference[grid.nodes(l)] for l in range(len(plan.ops))]
    n_max = max(op.n for op in plan.ops)
    scratch = None
    if plan.norm_kind != "weighted-sup2":
        scratch = np.empty((n_max,) + reference.shape[1:])
    buffer = np.empty(n_max * grid.t.size) if parabolic else None
    u0 = plan.u0
    fields = [ref if u0 == "reference" else
              np.asarray(u0.value(op.sg.x, cfg.problem.length), dtype=float)
              for ref, op in zip(refs, plan.ops)]
    data = exchange(plan, fields)
    if parabolic:
        fields = []  # every solve starts from the initial profile instead

    E: list[float] = []
    sub_norms: list[list[float]] = []
    wall: list[float] = []

    def history(verdict: str, final: list[np.ndarray]) -> IterationHistory:
        return IterationHistory(plan.norm_kind, E, sub_norms, wall, verdict, final,
                                fit_contraction_rate(E, cfg.rate_window),
                                double_sweep_ratio(E, cfg.rate_window))

    for k in range(1, cfg.k_max + 1):
        tic = time.perf_counter()
        handed = _outer_data(plan)
        norms = []
        for l, (op, ref) in enumerate(zip(plan.ops, refs)):
            try:
                field = _solve(plan, l, data[l], ref[:, 0] if parabolic else fields[l], k,
                               check_finite=False, out=buffer)
            except SchwarzRunError as exc:
                exc.history = history("error", [])
                raise
            data[l] = None  # read once, by this solve
            norm = math.nan if field is None else _error_norm(plan, op, field, ref, scratch)
            if not math.isfinite(norm):
                return history("diverged", [])
            norms.append(norm)
            _hand_off(plan, l, field, handed)
            if not parabolic:
                fields[l] = field
        data = handed
        Ek = float(sum(norms)) if plan.norm_kind == "laplace-seminorm2" else float(max(norms))
        if not math.isfinite(Ek):
            return history("diverged", [])
        E.append(Ek)
        sub_norms.append(norms)
        wall.append(time.perf_counter() - tic)
        if Ek <= cfg.stop_tol:
            return history("converged", fields)
        if k >= 2 and E[0] > 0.0 and Ek > cfg.guard_factor * E[0]:
            return history("diverged", fields)
    return history("stalled", fields)


def run_elliptic(plan: Plan, reference: np.ndarray | None = None) -> IterationHistory:
    """Run the elliptic Schwarz iteration of ``plan`` until a verdict.

    ``reference`` is ``solve_reference`` of a plan with the same
    ``reference_key``, or None to solve it here.
    """
    return _run(plan, "elliptic", reference)


def run_parabolic(plan: Plan, reference: np.ndarray | None = None) -> IterationHistory:
    """Run waveform relaxation on ``plan``: whole time-window solves, trace exchange.

    ``reference`` is as for ``run_elliptic``.
    """
    return _run(plan, "parabolic", reference)
