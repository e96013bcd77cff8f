"""Jacobi-type overlapping Schwarz iteration with error tracking.

Every sweep solves all subdomains independently, each taking its
interface data from the neighbors' previous iterate (the initial iterate
u^0 for the first sweep; the sweep does not depend on the order of the
subdomains), then compares against a monodomain reference computed once
with the same discretization.
Stopping: the error norm E_k falls below ``stop_tol`` (converged), grows
past ``guard_factor`` times E_1 or stops being finite (diverged; so does
a subdomain solve whose field is not finite, and that iteration is not
recorded), or the iteration budget runs out (stalled).

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

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np
from scipy.integrate import simpson

from . import transmission as tx
from .discretize import (
    DirichletBC,
    NonFiniteError,
    Operator,
    PicardError,
    RobinBC,
    SingularSystemError,
    reference_solve,
    solve_semilinear_elliptic,
    solve_semilinear_parabolic,
)
from .geometry import Partition, SubGrid, build_grid, validate_partition
from .problem import DataFn, ProblemSpec, validate as validate_problem

__all__ = [
    "SchwarzConfig",
    "IterationHistory",
    "SchwarzRunError",
    "run_elliptic",
    "run_parabolic",
    "weighted_sup_norm",
    "laplace_seminorm",
    "seminorm_sq_profile",
    "fit_contraction_rate",
    "double_sweep_ratio",
]


class SchwarzRunError(RuntimeError):
    """A solve failed; carries the iteration and 1-based subdomain index.

    Both are 0 when the monodomain reference solve failed; the iteration
    is 0 when a subdomain's operator could not be built.
    """

    def __init__(self, message: str, iteration: int, subdomain: int):
        super().__init__(message)
        self.iteration = iteration
        self.subdomain = subdomain


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
        if not self.stop_tol > 0:
            raise ValueError("stop_tol must be positive")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")


@dataclass
class IterationHistory:
    """Per-iteration record of one Schwarz run."""

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

def weighted_sup_norm(e: np.ndarray, alpha: float, t: np.ndarray) -> float:
    """max over nodes and time levels of e^2 * exp(-alpha t)."""
    e = np.atleast_2d(np.asarray(e, dtype=float))
    return float(np.max(e**2 * np.exp(-alpha * np.asarray(t))))


def _trapezoid_weights(t: np.ndarray) -> np.ndarray:
    w = np.zeros_like(t)
    w[1:] += 0.5 * np.diff(t)
    w[:-1] += 0.5 * np.diff(t)
    return w


_WINDOW_STARTS = 9  # log-spaced window starts sampled in [alpha, 10 alpha]
_WINDOW_INTERVALS = 64  # Simpson intervals per unit window


def _seminorm_windows(alpha: float):
    starts = np.geomspace(alpha, 10.0 * alpha, _WINDOW_STARTS)
    return [np.linspace(s, s + 1.0, _WINDOW_INTERVALS + 1) for s in starts]


def seminorm_sq_profile(fields: np.ndarray, alpha: float, t: np.ndarray) -> np.ndarray:
    """Per-node squared seminorm |f(x_i, .)|_alpha^2 of a (nodes, time) field.

    The Laplace transform uses trapezoidal quadrature on the time grid;
    the window integral uses composite Simpson with 64 intervals per unit
    window; the sup over window starts is sampled at 9 log-spaced points
    in [alpha, 10 alpha] (for transforms decreasing in y, e.g. signals of
    one sign, it is attained at the left end).
    """
    fields = np.atleast_2d(np.asarray(fields, dtype=float))
    t = np.asarray(t, dtype=float)
    windows = _seminorm_windows(alpha)
    y_all = np.concatenate(windows)
    kernel = np.exp(-np.outer(y_all, t)) * _trapezoid_weights(t)[None, :]
    transforms = fields @ kernel.T  # (nodes, len(y_all))
    best = np.full(fields.shape[0], -np.inf)
    ny = windows[0].size
    for i, y in enumerate(windows):
        block = transforms[:, i * ny:(i + 1) * ny] ** 2
        best = np.maximum(best, simpson(block, x=y, axis=1))
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

class _SubPlan(NamedTuple):
    """What the solves of one subdomain need that stays fixed for a run.

    ``op`` is the subdomain's matrix, assembled and LU-factored once: the
    boundary-condition kinds and Robin parameters of a subdomain (and 1/dt)
    do not change between sweeps, only the interface data do.
    """

    sg: SubGrid
    op: Operator
    ref: np.ndarray  # the reference restricted to the subdomain
    neighbors: tuple  # (left, right) neighbor index, None on the outer boundary
    outer_bcs: tuple  # (left, right) DirichletBC on the outer boundary, else None
    initial: np.ndarray | None  # parabolic initial profile
    start: np.ndarray  # the initial iterate u^0 on the subdomain


class _Runner:
    def __init__(self, cfg: SchwarzConfig, mode: str):
        prob, part = cfg.problem, cfg.partition
        if prob.mode != mode:
            raise ValueError(f"run_{mode} needs a {mode} problem, got {prob.mode}")
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

        self.cfg = cfg
        self.mode = mode
        if mode == "parabolic":
            if cfg.dt_target is None or prob.time_horizon is None:
                raise ValueError("parabolic runs need dt_target and a time horizon")
            self.grid = build_grid(part, cfg.h_target, cfg.dt_target, prob.time_horizon)
        else:
            self.grid = build_grid(part, cfg.h_target)
        grid = self.grid

        depth_needed = 2 if cfg.transmission.is_robin else 1
        for (l, m), idx in grid.interface_index.items():
            lo, hi = grid.sub_ranges[m]
            if min(idx - lo, hi - idx) < depth_needed:
                raise ValueError(
                    f"interface of subdomain {l} lies only {min(idx - lo, hi - idx)} "
                    f"node(s) inside neighbor {m}; need >= {depth_needed} "
                    "(refine h or widen the overlap)"
                )
        if cfg.transmission.is_robin and isinstance(cfg.transmission.p, dict):
            missing = [k for k in grid.interface_index if k not in cfg.transmission.p]
            if missing:
                raise ValueError(f"transmission table missing interfaces {missing}")

        try:
            reference = reference_solve(prob, grid, cfg.picard_tol, cfg.picard_max)
        except (PicardError, SingularSystemError) as exc:
            raise SchwarzRunError(f"reference solve: {exc}", 0, 0) from exc
        outer = [DirichletBC(g) for g in prob.boundary_values()]
        neighbor_at = {(l, idx): m for (l, m), idx in grid.interface_index.items()}
        tsp = cfg.transmission
        c_shift = 1.0 / grid.dt if mode == "parabolic" else 0.0
        self.plans: list[_SubPlan] = []
        for l, (lo, hi) in enumerate(grid.sub_ranges):
            sg = grid.subgrid(l)
            neighbors = (neighbor_at.get((l, lo)), neighbor_at.get((l, hi)))
            robin_p = tuple(None if m is None or not tsp.is_robin else tsp.p_effective((l, m))
                            for m in neighbors)
            try:
                op = Operator(prob, sg, robin_p, c_shift)
            except (SingularSystemError, ValueError) as exc:
                raise SchwarzRunError(f"subdomain {l + 1}: {exc}", 0, l + 1) from exc
            initial = None
            if mode == "parabolic":
                initial = np.asarray(prob.g.value(sg.x, prob.length),
                                     dtype=float) + np.zeros(sg.n)
            ref = reference[lo:hi + 1]
            self.plans.append(_SubPlan(
                sg=sg,
                op=op,
                ref=ref,
                neighbors=neighbors,
                outer_bcs=tuple(bc if m is None else None for m, bc in zip(neighbors, outer)),
                initial=initial,
                start=ref if u0 == "reference" else np.asarray(
                    u0.value(sg.x, prob.length), dtype=float),
            ))

        if cfg.transmission.is_robin:
            self.norm_kind = "sup" if mode == "elliptic" else "laplace-seminorm2"
        else:
            self.norm_kind = "sup" if mode == "elliptic" else "weighted-sup2"

    # -- data exchange ----------------------------------------------------

    def _bc_pair(self, l: int, fields: list[np.ndarray]):
        cfg, grid = self.cfg, self.grid
        plan = self.plans[l]
        out = []
        for m, outer_bc in zip(plan.neighbors, plan.outer_bcs):
            if m is None:
                out.append(outer_bc)
                continue
            datum = tx.extract(cfg.transmission, grid, cfg.problem, l, m, fields[m])
            if cfg.transmission.is_robin:
                out.append(RobinBC(cfg.transmission.p_effective((l, m)), datum))
            else:
                out.append(DirichletBC(datum))
        return out

    def _solve_one(self, l: int, bcs, warm) -> np.ndarray:
        cfg, grid = self.cfg, self.grid
        plan = self.plans[l]
        if self.mode == "elliptic":
            u, _ = solve_semilinear_elliptic(cfg.problem, plan.sg, bcs[0], bcs[1],
                                             cfg.picard_tol, cfg.picard_max,
                                             u_start=warm, op=plan.op)
            return u
        return solve_semilinear_parabolic(cfg.problem, plan.sg, bcs[0], bcs[1],
                                          plan.initial, grid.dt, grid.t, cfg.picard_tol,
                                          cfg.picard_max, op=plan.op)

    def _sweep(self, k: int, fields: list[np.ndarray]) -> list[np.ndarray] | None:
        """Sweep k from ``fields``; None when a subdomain field is not finite."""
        bc_all = [self._bc_pair(l, fields) for l in range(len(self.plans))]
        new_fields = []
        for l, bcs in enumerate(bc_all):
            try:
                new_fields.append(self._solve_one(l, bcs, fields[l]))
            except NonFiniteError:
                return None
            except Exception as exc:
                raise SchwarzRunError(
                    f"iteration {k}, subdomain {l + 1}: {exc}", k, l + 1
                ) from exc
        return new_fields

    # -- norms -------------------------------------------------------------

    def _sub_norm(self, l: int, err: np.ndarray) -> float:
        if self.norm_kind == "sup":
            return float(np.max(np.abs(err)))
        if self.norm_kind == "weighted-sup2":
            return weighted_sup_norm(err, self.cfg.alpha, self.grid.t)
        profile = seminorm_sq_profile(err, self.cfg.alpha, self.grid.t)
        return float(np.trapezoid(profile, self.plans[l].sg.x))

    def _combine(self, sub_norms: list[float]) -> float:
        if self.norm_kind == "laplace-seminorm2":
            return float(sum(sub_norms))
        return float(max(sub_norms))

    # -- main loop ----------------------------------------------------------

    def run(self) -> IterationHistory:
        cfg = self.cfg
        count = len(self.plans)
        fields = [p.start for p in self.plans]

        E: list[float] = []
        sub_norms: list[list[float]] = []
        wall: list[float] = []
        verdict = "stalled"

        for k in range(1, cfg.k_max + 1):
            tic = time.perf_counter()
            new_fields = self._sweep(k, fields)
            if new_fields is None:
                verdict = "diverged"
                break
            errs = [new_fields[l] - self.plans[l].ref for l in range(count)]
            norms = [self._sub_norm(l, errs[l]) for l in range(count)]
            Ek = self._combine(norms)
            if not math.isfinite(Ek):
                verdict = "diverged"
                break
            E.append(Ek)
            sub_norms.append(norms)
            wall.append(time.perf_counter() - tic)
            fields = new_fields

            if Ek <= cfg.stop_tol:
                verdict = "converged"
                break
            if k >= 2 and E[0] > 0.0 and Ek > cfg.guard_factor * E[0]:
                verdict = "diverged"
                break

        window = cfg.rate_window
        return IterationHistory(
            norm_kind=self.norm_kind,
            E=E,
            sub_norms=sub_norms,
            wall_times=wall,
            verdict=verdict,
            final_fields=fields,
            rate_per_iteration=fit_contraction_rate(E, window),
            rate_per_double=double_sweep_ratio(E, window),
        )


def run_elliptic(cfg: SchwarzConfig) -> IterationHistory:
    """Run the elliptic Schwarz iteration until a verdict."""
    return _Runner(cfg, "elliptic").run()


def run_parabolic(cfg: SchwarzConfig) -> IterationHistory:
    """Run waveform relaxation: whole time-window solves, trace exchange."""
    return _Runner(cfg, "parabolic").run()
