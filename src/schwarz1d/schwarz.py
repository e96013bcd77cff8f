"""Jacobi-type overlapping Schwarz iteration with error tracking.

Iteration k is one Jacobi sweep and its error norm: every subdomain is
solved from the interface data of the neighbors' previous iterate (the
initial iterate u^0 for the first sweep), so their order does not change
the result, and each new field is compared against a monodomain
reference computed once with the same discretization.  ``sweep`` yields
the subdomains' new fields one at a time, from the data that
``exchange`` gives of an iterate; a run consumes it, taking each field's
norm and extracting the data its neighbors read next before the next
subdomain is solved, so a parabolic run holds one subdomain field at a
time, and a loop written by hand is ``list(sweep(...))``.  (One Jacobi
sweep is not the CLI's ``sweep`` command, which re-runs a whole
configuration along one parameter axis.)
Stopping: the error norm E_k falls below ``stop_tol`` (converged), grows
past ``guard_factor`` times E_1 (diverged; so does a subdomain whose field
is not finite, which its norm shows, and that iteration is not
recorded), or the iteration budget runs out (stalled).  A norm that
overflows a float while its field and reference are finite is no
verdict but a ``SchwarzRunError``.

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

The contraction rate is fitted on the trailing iterations as the
geometric mean of the two-sweep ratios E_k / E_{k-2} (per double sweep):
the quantity the closed-form factors of the oracle module predict, which
stays unbiased when the two interface maps have very different
magnitudes and E_k oscillates between parities.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

import numpy as np

from . import transmission as tx
from .discretize import (
    Operator,
    reference_solve,
    solve_semilinear_elliptic,
    solve_semilinear_parabolic,
)
from .geometry import Grid, Partition, build_grid
from .problem import Fn, ProblemSpec, validate as validate_problem

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
    "seminorm_sq_profile",
    "double_sweep_ratio",
]


class SchwarzRunError(RuntimeError):
    """A solve failed, or an error norm overflowed; the message is
    "iteration k, subdomain l: " (1-based l) or "reference solve: "
    followed by the failed solve's message, or by its exception's type
    name when that has no message.  Any exception a solve raises becomes
    one, as does a reference that is not finite, and so does an error norm
    that is not finite though its field and reference are: a finite
    iterate whose e^2 or seminorm overflows a float has no verdict.

    When a sweep of ``run_elliptic`` or ``run_parabolic`` failed,
    ``history`` holds the iterations before it, with verdict "error";
    otherwise it is None.  Setup errors are ``plan``'s ValueErrors.
    """

    history: IterationHistory | None = None


@dataclass
class SchwarzConfig:
    """Everything one run needs.

    ``u0`` is the initial iterate: "reference" (the reference solution
    itself, so the iteration must sit still at the fixed point), or an Fn
    or anything ``Fn.from_dict`` reads as data (a form, a number or a
    shorthand such as "one"), which the config holds as that Fn.  It is
    sampled on each subdomain's nodes, and the first sweep takes its
    interface data from it through the same transmission stencil as
    every later sweep.
    ``alpha`` is the decay rate of the parabolic time weight and the
    left end of the seminorm window; ``plan`` refuses a parabolic run
    unless (10 alpha + 1) T is finite and exp(-alpha dt) is a normal
    float, so that the time levels after t = 0 carry a weight.  The
    subdomains are solved one after another in one thread; each sweep
    reads only the previous iterate, so their order does not change the
    result.
    """

    problem: ProblemSpec
    partition: Partition
    h_target: float
    transmission: tx.TransmissionSpec
    dt_target: float | None = None
    u0: Union[Fn, str] = Fn.zero()
    k_max: int = 200
    stop_tol: float = 1e-10
    alpha: float = 10.0
    picard_tol: float = 1e-10
    picard_max: int = 200
    guard_factor: float = 1e6
    rate_window: int = 8

    def __post_init__(self) -> None:
        if not (isinstance(self.u0, Fn) or self.u0 == "reference"):
            self.u0 = Fn.from_dict(self.u0, "data u0")
        if self.k_max < 1:
            raise ValueError("k_max (run.max_iters) must be >= 1")
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

    E: list[float]
    sub_norms: list[list[float]]
    wall_times: list[float]
    verdict: str
    final_fields: list[np.ndarray]
    rate_per_double: float

    @property
    def iterations(self) -> int:
        return len(self.E)


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------

#: values per block of ``weighted_sup_norm``: 16 KiB, which malloc serves
#: from its heap rather than from fresh pages; numpy buffers the strided
#: reference operand of the subtraction in as many values again, and the
#: two together stay small beside one subdomain field.  Both parabolic
#: norms stream a field by blocks of time levels and never form its error
#: whole; ``seminorm_sq_profile`` takes ``_LAPLACE_BLOCK`` levels at a time.
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
#: time levels per block of ``seminorm_sq_profile``: its kernel block at
#: the 9 x 65 window points is then 0.6 MB.  In runs of heat_robin.json
#: (97-node fields of 2,001 levels, one BLAS thread) a call takes about
#: 7.8 ms at 128 levels and 7.4 ms at 256, which double the block
_LAPLACE_BLOCK = 128


def _simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson integral of the rows of ``y`` over equally spaced
    points ``h`` apart; ``y`` must have an odd number of columns.

    Each pair of intervals integrates the parabola through its three
    points, so the rule is exact for cubics.  At h = 1/64, where the
    per-pair factors of scipy.integrate.simpson (scipy 1.17, odd point
    count) are exactly 1, 4 and 1, this is its arithmetic in the same
    order, so the results agree bitwise.
    """
    return np.sum((2.0 * h) / 6.0 * (y[:, 0:-2:2] + 4.0 * y[:, 1::2] + y[:, 2::2]), axis=1)


def seminorm_sq_profile(u: np.ndarray, alpha: float, t: np.ndarray, ref=0.0) -> np.ndarray:
    """Per-node squared seminorm |e(x_i, .)|_alpha^2 of the error e = u - ref
    of a (nodes, time) field.

    The Laplace transform uses trapezoidal quadrature on the time grid;
    the window integral uses composite Simpson with 64 intervals per unit
    window; the sup over window starts is sampled at 9 log-spaced points
    s in [alpha, 10 alpha] (for transforms decreasing in y, e.g. signals
    of one sign, it is attained at the left end).  The error is formed
    one block of ``_LAPLACE_BLOCK`` time levels at a time, never whole,
    and each block adds its part of every transform with one matmul.  Its
    kernel exp(-y t) times the trapezoidal weights, at the window points
    y = s + d with offsets d = k/64, is built per block from two small
    factor tables, since exp(-(s + d) t) = exp(-s t) exp(-d t); no table
    outlives the call.  A NaN or inf anywhere makes its node's value
    non-finite.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    ref = np.broadcast_to(np.asarray(ref, dtype=float), u.shape)
    t = np.asarray(t, dtype=float)
    nodes, levels = u.shape
    starts = np.geomspace(alpha, 10.0 * alpha, _WINDOW_STARTS)
    offsets = np.arange(_WINDOW_INTERVALS + 1) / _WINDOW_INTERVALS
    minus_rates = -np.concatenate([starts, offsets])
    weights = _trapezoid_weights(t)
    step = min(_LAPLACE_BLOCK, levels)
    # one buffer each for the block's factor tables, kernel and error; the
    # outer products are einsums, which need no broadcast buffers
    factors = np.empty((minus_rates.size, step))
    kernel = np.empty((starts.size, offsets.size, step))
    err = np.empty((step, nodes)).T  # level-major, as a parabolic field is
    transforms = np.zeros((nodes, starts.size * offsets.size))
    part = np.empty_like(transforms)
    for lo in range(0, levels, step):
        hi = min(lo + step, levels)
        f = np.einsum("i,t->it", minus_rates, t[lo:hi], out=factors[:, :hi - lo])
        np.exp(f, f)
        f[:starts.size] *= weights[lo:hi]
        k = np.einsum("it,kt->ikt", f[:starts.size], f[starts.size:],
                      out=kernel[..., :hi - lo])
        e = np.subtract(u[:, lo:hi], ref[:, lo:hi], err[:, :hi - lo])
        transforms += np.matmul(e, k.reshape(transforms.shape[1], -1).T, part)
    windows = np.square(transforms, transforms).reshape(nodes, starts.size, offsets.size)
    return np.max([_simpson(windows[:, i], 1.0 / _WINDOW_INTERVALS)
                   for i in range(starts.size)], axis=0)


# --------------------------------------------------------------------------
# rate fitting
# --------------------------------------------------------------------------

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
    ``transmission.Link``, or None at the outer boundary; the ends whose
    ``Link.m`` is m read subdomain m's field.  ``ops[l]`` is subdomain l's
    operator (grid, matrix and LU factors), whose Robin rows read the same
    ``Link.p`` as ``transmission.extract``; only the interface data change
    between sweeps.
    """

    cfg: SchwarzConfig
    grid: Grid
    links: list
    ops: list[Operator]
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
    is a ValueError here, but for those of its partition, which
    ``Partition`` raises when it is built.  Among them is a ``u0`` that is
    not finite on the grid's nodes.
    """
    prob, part = cfg.problem, cfg.partition
    bad = validate_problem(prob)
    if bad:
        raise ValueError("problem fails validation: " + "; ".join(bad))
    if abs(part.length - prob.length) > 1e-12 * prob.length:
        raise ValueError("partition length differs from problem domain length")
    parabolic = prob.mode == "parabolic"
    if parabolic and cfg.dt_target is None:
        raise ValueError("parabolic runs need dt_target (grid.dt)")
    if not parabolic and cfg.dt_target is not None:
        raise ValueError("elliptic runs take no dt_target (grid.dt)")
    # the norms weight a level at time t by exp(-y t) for y up to 10 alpha + 1
    if parabolic and not math.isfinite((10.0 * cfg.alpha + 1.0) * prob.time_horizon):
        raise ValueError(f"alpha (run.alpha) = {cfg.alpha!r} is too large for T = "
                         f"{prob.time_horizon!r}: (10 alpha + 1) T must be finite")
    grid = build_grid(part, cfg.h_target, cfg.dt_target, prob.time_horizon)
    # below the least normal float, e^2 exp(-alpha t) is subnormal or 0 for
    # |e| <= 1 at every level after t = 0, and every run would converge
    if parabolic and math.exp(-cfg.alpha * grid.dt) < sys.float_info.min:
        raise ValueError(f"alpha (run.alpha) = {cfg.alpha!r} is too large for dt (grid.dt) = "
                         f"{grid.dt:g}: exp(-alpha dt) underflows, so no time level after "
                         f"t = 0 carries a weight")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is this message
        if cfg.u0 != "reference" and not np.isfinite(cfg.u0.value(grid.x, prob.length)).all():
            raise ValueError("u0 (run.u0) is not finite on the grid")

    links = tx.links(cfg.transmission, grid, prob)
    ops = []
    for l, pair in enumerate(links):
        robin_p = tuple(None if link is None else link.p for link in pair)
        try:
            ops.append(Operator(prob, grid.x[grid.nodes(l)], grid.h, robin_p,
                                1.0 / grid.dt if parabolic else 0.0))
        except ValueError as exc:
            raise ValueError(f"subdomain {l + 1}: {exc}") from exc
    norm_kind = ("sup" if not parabolic else "laplace-seminorm2"
                 if cfg.transmission.is_robin else "weighted-sup2")
    return Plan(cfg, grid, links, ops, norm_kind)


def _labelled(label: str, exc: Exception) -> SchwarzRunError:
    """``SchwarzRunError("<label>: <message>")`` for the failure ``exc``, whose
    message is its type name when it has none (a bare MemoryError)."""
    return SchwarzRunError(f"{label}: {str(exc) or type(exc).__name__}")


def solve_reference(plan: Plan) -> np.ndarray:
    """The monodomain reference of ``plan``'s run, on its whole grid.

    Any failure of its solve, or a reference that is not finite, is
    ``SchwarzRunError("reference solve: ...")``: every error norm of the
    run is measured against it.  The solve runs under ``_run``'s
    ``np.errstate``, since that finiteness check judges its result.
    """
    cfg = plan.cfg
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            reference = reference_solve(cfg.problem, plan.grid, cfg.picard_tol, cfg.picard_max)
        if not np.isfinite(reference).all():
            raise FloatingPointError("banded solve produced non-finite values")
    except Exception as exc:
        raise _labelled("reference solve", exc) from exc
    return reference


def exchange(plan: Plan, fields: list[np.ndarray]) -> list[list]:
    """Every subdomain's boundary data [left, right] from the iterate ``fields``.

    An outer end gets the problem's boundary value g, an interface end
    ``transmission.extract`` of its neighbor's field, handed off as a run
    hands off each new field, or None when ``fields`` is empty.
    """
    outer = plan.cfg.problem.boundary_values()
    data = [[g if link is None else None for link, g in zip(pair, outer)]
            for pair in plan.links]
    for m, field in enumerate(fields):
        _hand_off(plan, m, field, data)
    return data


def _hand_off(plan: Plan, m: int, field: np.ndarray, data: list[list]) -> None:
    """Write into ``data`` every datum that subdomain m's ``field`` gives:
    one for each end in ``plan.links`` whose ``Link.m`` is m, at most two.

    Each datum is a copy, so ``field`` is free once this returns: a
    Dirichlet datum of a space-time field would be a view of its row.
    """
    for l, pair in enumerate(plan.links):
        for end, link in enumerate(pair):
            if link is not None and link.m == m:
                data[l][end] = np.array(tx.extract(link, field))


def sweep(plan: Plan, data: list, starts: list, k: int = 1,
          out: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """One Jacobi sweep: yields subdomain l's new field, solved from its
    boundary data ``data[l]`` as ``exchange`` gives it, for l = 0, 1, ...

    ``starts`` is the previous iterate, only read: ``starts[l]``, read after
    field l - 1 is yielded, starts subdomain l's elliptic Picard loop (None
    is zero).  A parabolic solve starts from the problem's initial state g
    instead, so the previous iterate reaches it only through ``data``.
    ``out`` is the buffer of every parabolic solve (None: its own; an
    elliptic solve ignores it), so a caller that passes one is done with a
    field before asking for the next; a caller that keeps the fields
    passes None.  A field is yielded as its solve computed it, finite or
    not; a failed solve is ``SchwarzRunError("iteration k, subdomain l:
    ...")``, with ``k`` the number of this sweep in its run.
    """
    cfg, grid, prob = plan.cfg, plan.grid, plan.cfg.problem
    for l, (op, (left, right)) in enumerate(zip(plan.ops, data)):
        try:
            if prob.mode == "parabolic":
                initial = prob.g.value(op.x, prob.length)
                field = solve_semilinear_parabolic(op, left, right, initial, grid.dt, grid.t,
                                                   cfg.picard_tol, cfg.picard_max, out=out)
            else:
                field = solve_semilinear_elliptic(op, left, right, cfg.picard_tol,
                                                  cfg.picard_max, u_start=starts[l])[0]
        except Exception as exc:
            raise _labelled(f"iteration {k}, subdomain {l + 1}", exc) from exc
        yield field


def _error_norm(plan: Plan, op: Operator, field: np.ndarray, ref: np.ndarray,
                work: np.ndarray) -> float:
    """The norm of one subdomain's error ``field - ref``.

    Both parabolic norms form the error a block of time levels at a time;
    the elliptic sup norm forms it whole, in the leading entries of
    ``work``.
    """
    alpha, t = plan.cfg.alpha, plan.grid.t
    if plan.norm_kind == "weighted-sup2":
        return weighted_sup_norm(field, alpha, t, ref)
    if plan.norm_kind == "laplace-seminorm2":
        return float(np.trapezoid(seminorm_sq_profile(field, alpha, t, ref), op.x))
    err = np.subtract(field, ref, work[:op.n])
    np.abs(err, err)
    # argmax stops at the first NaN, as np.max would return it
    return err.item(err.argmax())


def _run(plan: Plan, mode: str, reference: np.ndarray | None) -> IterationHistory:
    """Sweep ``plan`` until a verdict, handing on each field ``sweep`` yields.

    Sweep k solves subdomain l from the data of sweep k - 1 (``exchange``
    of the initial iterate for k = 1); the run takes the norm of its error
    against the reference restriction and hands it off (``_hand_off``
    writes every datum its neighbors read into the data of sweep k + 1)
    before ``sweep`` solves the next subdomain.  Every solve still
    reads the previous iterate's data, so the subdomain order does not
    change the result.  The norm is the one judge of a field: a field
    that is not finite has a norm that is not finite, which ends the run
    "diverged" at once, before that field is handed off, and the sweep is
    not recorded.  A norm (or E_k) that is not finite while the field and
    its reference restriction are finite overflowed a float: that is a
    ``SchwarzRunError`` naming the iteration, whose ``history`` keeps the
    iterations before it.  Everything from sampling ``u0`` to the last
    norm runs under one ``np.errstate`` that silences numpy's overflow,
    invalid-value and division warnings, since the norms judge every
    value that is not finite.

    A parabolic field is then dead.  The run allocates one ``work``
    buffer of the largest subdomain's size, which dies with the run:
    ``sweep`` writes every parabolic field there, time-major, from the
    problem's initial state, and the elliptic sup norm forms the
    error there; both parabolic norms form it a block of time levels at
    a time.  An elliptic run keeps its iterate, which starts the next
    Picard loops.  The reference is only read.  So a parabolic run's
    working set is the reference and one subdomain field, with either
    exchange.
    """
    cfg, grid = plan.cfg, plan.grid
    if cfg.problem.mode != mode:
        raise ValueError(f"run_{mode} needs a {mode} problem, got {cfg.problem.mode}")
    parabolic = mode == "parabolic"
    if reference is None:
        reference = solve_reference(plan)
    refs = [reference[grid.nodes(l)] for l in range(len(plan.ops))]
    n_max = max(op.n for op in plan.ops)
    work = np.empty(n_max * grid.t.size if parabolic else n_max)

    E: list[float] = []
    sub_norms: list[list[float]] = []
    wall: list[float] = []

    def history(verdict: str, final: list[np.ndarray]) -> IterationHistory:
        return IterationHistory(E, sub_norms, wall, verdict, final,
                                double_sweep_ratio(E, cfg.rate_window))

    # the norms judge every value that is not finite, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fields = [ref if cfg.u0 == "reference" else cfg.u0.value(op.x, cfg.problem.length)
                  for ref, op in zip(refs, plan.ops)]
        data = exchange(plan, fields)
        fields = [] if parabolic else fields  # a parabolic run drops each field
        outer = exchange(plan, [])  # g at the outer ends; every sweep hands off into a copy
        try:
            for k in range(1, cfg.k_max + 1):
                tic = time.perf_counter()
                handed = [pair.copy() for pair in outer]
                norms = []
                for l, field in enumerate(sweep(plan, data, fields, k, work)):
                    norm = _error_norm(plan, plan.ops[l], field, refs[l], work)
                    if not math.isfinite(norm):
                        if np.isfinite(field).all() and np.isfinite(refs[l]).all():
                            raise SchwarzRunError(
                                f"iteration {k}, subdomain {l + 1}: the error norm overflows "
                                "a float, though the field and the reference are finite")
                        return history("diverged", [])
                    norms.append(norm)
                    _hand_off(plan, l, field, handed)
                    if not parabolic:
                        fields[l] = field
                data = handed
                Ek = float(sum(norms) if plan.norm_kind == "laplace-seminorm2" else max(norms))
                if not math.isfinite(Ek):  # every norm is finite, so their sum overflowed
                    raise SchwarzRunError(f"iteration {k}: the error norm E_k overflows a "
                                          "float, though every subdomain norm is finite")
                E.append(Ek)
                sub_norms.append(norms)
                wall.append(time.perf_counter() - tic)
                if Ek <= cfg.stop_tol:
                    return history("converged", fields)
                if k >= 2 and E[0] > 0.0 and Ek > cfg.guard_factor * E[0]:
                    return history("diverged", fields)
        except SchwarzRunError as exc:
            exc.history = history("error", [])
            raise
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
