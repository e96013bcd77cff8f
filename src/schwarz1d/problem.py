"""Model problems: 1D semilinear elliptic and parabolic equations.

Everything in this package works with the divergence-form operator

    -(a(x) u')' + b(x) u' + c(x) u = F(x, u) + source(x[, t])

on an interval (0, L), with Dirichlet data g on the outer boundary.  In
parabolic mode a d/dt term is added on the left and u(x, 0) = g(x) is the
initial state.  Coefficients and data functions come from small closed
sets of evaluable forms, so problem instances stay declarative, cheap to
validate by sampling, and writable inline in experiment configs.

Well-posedness conditions enforced by :func:`validate`:

* ellipticity: a(x) >= lambda > 0 on the closed domain,
* a uniform Lipschitz bound C on F in the u argument (C = |param|,
  exact for every supported form of F, so it is not sampled),
* elliptic mode only: c(x) > C on the closed domain (for C = 0 the
  requirement degenerates to c(x) >= 0).

Parabolic mode needs no sign condition on c.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "CoefficientFn",
    "Nonlinearity",
    "DataFn",
    "ProblemSpec",
    "catalog_lookup",
    "catalog_ids",
    "validate",
]


# --------------------------------------------------------------------------
# config readers, shared by every from_dict and the CLI
# --------------------------------------------------------------------------

def is_number(value) -> bool:
    """True for a real number that is not a bool (JSON ``true`` is no number)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_positive_number(value) -> bool:
    """A number above 0 that a float holds (not NaN, infinity or an integer
    past the float range)."""
    return is_number(value) and 0 < value <= sys.float_info.max


def read_number(value, what: str) -> float:
    """``value`` as a finite float, or a ValueError naming the entry and the value.

    What JSON reads as a non-finite float (``Infinity``, ``NaN``,
    ``1e999``) is an error, and so is an integer too large for a float
    (``1`` followed by 400 zeros), not an OverflowError.
    """
    if not is_number(value):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return number


def read_string(value, what: str) -> str:
    """``value`` if it is a string, or a ValueError naming the entry and the value."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def read_integer(value, what: str) -> int:
    """An integral number (``200`` or ``200.0``, not ``2.9`` or ``true``) as an int."""
    if isinstance(value, bool) or not (isinstance(value, int)
                                       or read_number(value, what).is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def read_numbers(value, what: str) -> tuple[float, ...]:
    """A list of numbers as floats, or a ValueError naming the entry and the value."""
    if not isinstance(value, (list, tuple)) or not all(map(is_number, value)):
        raise ValueError(f"{what} must be a list of numbers, got {value!r}")
    return tuple(read_number(v, what) for v in value)


def read_entry(body, key: str, what: str):
    """``body[key]``, or a ValueError naming the missing entry."""
    if not isinstance(body, dict) or key not in body:
        raise ValueError(f"{what} needs a {key!r} entry, got {body!r}")
    return body[key]


def read_kind(d, kinds: dict, what: str) -> tuple[str, object]:
    """(kind, body) of a one-entry ``{kind: body}`` object with a known kind.

    ``kinds`` maps each kind to the entry a bare body stands for, or None:
    with ``{"constant": "value"}``, ``{"constant": 2.0}`` reads as
    ``{"constant": {"value": 2.0}}``.
    """
    if not isinstance(d, dict) or len(d) != 1:
        raise ValueError(f"bad {what} spec: {d!r}")
    kind, body = next(iter(d.items()))
    if kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r}")
    if kinds[kind] is not None and not isinstance(body, dict):
        body = {kinds[kind]: body}
    return kind, body


@dataclass(frozen=True)
class CoefficientFn:
    """A PDE coefficient from a closed set of smooth evaluable forms.

    kinds:
        ``constant``    -- value
        ``polynomial``  -- sum(coeffs[i] * x**i)
        ``scaled-exp``  -- value * exp(rate * x)

    ``lower_bound`` optionally declares a strict positive lower bound
    (the ellipticity constant for the diffusion coefficient); it is
    checked against dense samples by :func:`validate`.
    """

    kind: str
    value: float = 0.0
    coeffs: tuple[float, ...] = ()
    rate: float = 0.0
    lower_bound: float | None = None

    _KINDS = {"constant": "value", "polynomial": None, "scaled-exp": "value"}

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")

    @classmethod
    def constant(cls, value: float, lower_bound: float | None = None) -> "CoefficientFn":
        return cls(kind="constant", value=float(value), lower_bound=lower_bound)

    @classmethod
    def polynomial(cls, coeffs, lower_bound: float | None = None) -> "CoefficientFn":
        return cls(kind="polynomial", coeffs=tuple(float(c) for c in coeffs),
                   lower_bound=lower_bound)

    @classmethod
    def scaled_exp(cls, value: float, rate: float,
                   lower_bound: float | None = None) -> "CoefficientFn":
        return cls(kind="scaled-exp", value=float(value), rate=float(rate),
                   lower_bound=lower_bound)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.value) if x.ndim else float(self.value)
        if self.kind == "polynomial":
            return np.polynomial.polynomial.polyval(x, np.array(self.coeffs or (0.0,)))
        return self.value * np.exp(self.rate * x)

    @classmethod
    def from_dict(cls, d) -> "CoefficientFn":
        kind, body = read_kind({"constant": d} if is_number(d) else d, cls._KINDS,
                               "coefficient")
        what = f"{kind} coefficient"
        lb = body.get("lower_bound") if isinstance(body, dict) else None
        if lb is not None:
            lb = read_number(lb, f"{what} lower_bound")
        if kind == "polynomial":
            return cls.polynomial(read_numbers(read_entry(body, "coeffs", what),
                                               f"{what} coeffs"), lb)
        value = read_number(read_entry(body, "value", what), f"{what} value")
        if kind == "constant":
            return cls.constant(value, lb)
        return cls.scaled_exp(value, read_number(body.get("rate", 0.0), f"{what} rate"), lb)


@dataclass(frozen=True)
class Nonlinearity:
    """Zeroth-order term F(x, u), uniformly Lipschitz in u.

    kinds:
        ``zero``         -- F = 0
        ``linear-in-u``  -- F = param * u
        ``sine``         -- F = param * sin(u)

    The Lipschitz bound in u is |param| for the last two and 0 for ``zero``.
    A call returns a new array, or fills and returns ``out`` (an array of
    u's shape) with the same bits.
    """

    kind: str
    param: float = 0.0
    # param as a 0-d array: a ufunc takes it faster than a Python float
    _factor: np.ndarray = field(init=False, repr=False, compare=False)

    _KINDS = {"zero": None, "linear-in-u": "param", "sine": "param"}

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        object.__setattr__(self, "_factor", np.array(self.param, dtype=float))

    @classmethod
    def zero(cls) -> "Nonlinearity":
        return cls(kind="zero")

    @classmethod
    def linear(cls, slope: float) -> "Nonlinearity":
        return cls(kind="linear-in-u", param=float(slope))

    @classmethod
    def sine(cls, amplitude: float) -> "Nonlinearity":
        return cls(kind="sine", param=float(amplitude))

    @property
    def lipschitz(self) -> float:
        """Uniform Lipschitz bound C of F in u."""
        return 0.0 if self.kind == "zero" else abs(self.param)

    def __call__(self, x, u, out=None):
        if out is None:
            out = np.empty_like(np.asarray(u, dtype=float))
        # out goes by position: the keyword costs about as much as the
        # arithmetic on a subdomain's ~100 nodes
        if self.kind == "zero":
            out.fill(0.0)
            return out
        if self.kind == "linear-in-u":
            return np.multiply(self._factor, u, out)
        return np.multiply(self._factor, np.sin(u, out), out)

    @classmethod
    def from_dict(cls, d) -> "Nonlinearity":
        kind, body = read_kind(d, cls._KINDS, "nonlinearity")
        if kind == "zero":
            return cls.zero()
        what = f"{kind} nonlinearity"
        param = read_number(read_entry(body, "param", what), f"{what} param")
        return cls.linear(param) if kind == "linear-in-u" else cls.sine(param)


@dataclass(frozen=True)
class DataFn:
    """Closed-form boundary/initial/source data and initial iterates.

    kinds:
        ``zero``        -- 0
        ``constant``    -- amplitude
        ``sine``        -- amplitude * sin(mode * pi * x / L)
        ``polynomial``  -- sum(coeffs[i] * x**i)

    Data are only ever evaluated at grid nodes; derivatives (e.g. for the
    Robin transmission of an initial iterate) come from the same discrete
    stencils that act on computed fields.
    """

    kind: str
    amplitude: float = 0.0
    mode: int = 1
    coeffs: tuple[float, ...] = ()

    _KINDS = {"zero": None, "constant": "value", "sine": "amplitude", "polynomial": "coeffs"}

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown data kind {self.kind!r}")

    @classmethod
    def zero(cls) -> "DataFn":
        return cls(kind="zero")

    @classmethod
    def constant(cls, value: float) -> "DataFn":
        return cls(kind="constant", amplitude=float(value))

    @classmethod
    def sine(cls, amplitude: float = 1.0, mode: int = 1) -> "DataFn":
        return cls(kind="sine", amplitude=float(amplitude), mode=int(mode))

    @classmethod
    def polynomial(cls, coeffs) -> "DataFn":
        return cls(kind="polynomial", coeffs=tuple(float(c) for c in coeffs))

    def value(self, x, length: float):
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x) if x.ndim else 0.0
        if self.kind == "constant":
            return np.full_like(x, self.amplitude) if x.ndim else self.amplitude
        if self.kind == "sine":
            return self.amplitude * np.sin(self.mode * math.pi * x / length)
        return np.polynomial.polynomial.polyval(x, np.array(self.coeffs or (0.0,)))

    @classmethod
    def from_dict(cls, d) -> "DataFn":
        if isinstance(d, str):
            return _named_data(d)
        kind, body = read_kind({"constant": d} if is_number(d) else d, cls._KINDS, "data")
        if kind == "zero":
            return cls.zero()
        what = f"{kind} data"
        if kind == "sine":
            return cls.sine(read_number(body.get("amplitude", 1.0), f"{what} amplitude"),
                            read_integer(body.get("mode", 1), f"{what} mode"))
        if kind == "polynomial":
            return cls.polynomial(read_numbers(read_entry(body, "coeffs", what),
                                               f"{what} coeffs"))
        return cls.constant(read_number(read_entry(body, "value", what), f"{what} value"))


def _named_data(name: str) -> DataFn:
    table = {"zero": DataFn.zero(), "one": DataFn.constant(1.0), "sine": DataFn.sine()}
    if name not in table:
        raise ValueError(f"unknown data shorthand {name!r} (known: {sorted(table)})")
    return table[name]


@dataclass(frozen=True)
class ProblemSpec:
    """A fully specified model problem instance.

    ``source`` may be a DataFn or, for manufactured-solution studies, any
    callable ``f(x)`` or ``f(x, t)``.
    """

    mode: str  # "elliptic" | "parabolic"
    a: CoefficientFn
    b: CoefficientFn
    c: CoefficientFn
    F: Nonlinearity
    g: DataFn
    length: float
    time_horizon: float | None = None
    source: DataFn | Callable | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("elliptic", "parabolic"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.length > 0:
            raise ValueError("domain length must be positive")
        if self.time_horizon is not None and not self.time_horizon > 0:
            raise ValueError("time horizon must be positive")

    def source_values(self, x, t: float = 0.0):
        """Evaluate the source term at nodes x (and time t for parabolic)."""
        x = np.asarray(x, dtype=float)
        if self.source is None:
            return np.zeros_like(x)
        if isinstance(self.source, DataFn):
            return np.asarray(self.source.value(x, self.length), dtype=float)
        try:
            return np.asarray(self.source(x, t), dtype=float) + np.zeros_like(x)
        except TypeError:
            return np.asarray(self.source(x), dtype=float) + np.zeros_like(x)

    def boundary_values(self) -> tuple[float, float]:
        """Dirichlet data (g(0), g(L)) on the outer boundary."""
        return (float(self.g.value(0.0, self.length)),
                float(self.g.value(self.length, self.length)))

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemSpec":
        for key in ("mode", "L", "a", "b", "c"):
            read_entry(d, key, "inline problem")
        return cls(
            mode=d["mode"],
            a=CoefficientFn.from_dict(d["a"]),
            b=CoefficientFn.from_dict(d["b"]),
            c=CoefficientFn.from_dict(d["c"]),
            F=Nonlinearity.from_dict(d.get("F", {"zero": {}})),
            g=DataFn.from_dict(d.get("g", {"zero": {}})),
            length=read_number(d["L"], "inline problem L"),
            time_horizon=(read_number(d["T"], "inline problem T") if d.get("T") is not None
                          else None),
            source=DataFn.from_dict(d["source"]) if d.get("source") is not None else None,
        )


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------

def _example31() -> ProblemSpec:
    # Constant-coefficient operator u'' - 3u' - 4u = f on (0, 2), stored in
    # divergence form as -(u')' + 3u' + 4u = -f.  Its homogeneous solutions
    # exp(4x), exp(-x) make this the model with closed-form interface maps
    # (see the oracle module); the transmission-side divergence it exhibits
    # is the point of the entry.
    return ProblemSpec(
        mode="elliptic",
        a=CoefficientFn.constant(1.0, lower_bound=1.0),
        b=CoefficientFn.constant(3.0),
        c=CoefficientFn.constant(4.0),
        F=Nonlinearity.zero(),
        g=DataFn.zero(),
        length=2.0,
        source=DataFn.sine(-1.0, 1),  # -f with f(x) = sin(pi x / L)
    )


def _laplace1d() -> ProblemSpec:
    return ProblemSpec(
        mode="elliptic",
        a=CoefficientFn.constant(1.0, lower_bound=1.0),
        b=CoefficientFn.constant(0.0),
        c=CoefficientFn.constant(0.0),
        F=Nonlinearity.zero(),
        g=DataFn.zero(),
        length=1.0,
    )


def _heat_semilinear() -> ProblemSpec:
    # u_t - u'' = sin(u), zero boundary, initial profile sin(pi x).
    # |sin z - sin z'| <= |z - z'| gives the Lipschitz bound 1.
    return ProblemSpec(
        mode="parabolic",
        a=CoefficientFn.constant(1.0, lower_bound=1.0),
        b=CoefficientFn.constant(0.0),
        c=CoefficientFn.constant(0.0),
        F=Nonlinearity.sine(1.0),
        g=DataFn.sine(1.0, 1),
        length=1.0,
        time_horizon=2.0,
    )


def _elliptic_semilinear() -> ProblemSpec:
    # -(u')' + u' + 4u = 2 sin(u) + sin(pi x); c = 4 > 2 = Lipschitz bound,
    # so the fixed-point linearization contracts.
    return ProblemSpec(
        mode="elliptic",
        a=CoefficientFn.constant(1.0, lower_bound=1.0),
        b=CoefficientFn.constant(1.0),
        c=CoefficientFn.constant(4.0),
        F=Nonlinearity.sine(2.0),
        g=DataFn.zero(),
        length=1.0,
        source=DataFn.sine(1.0, 1),
    )


_CATALOG: dict[str, Callable[[], ProblemSpec]] = {
    "example31": _example31,
    "laplace1d": _laplace1d,
    "heat-semilinear": _heat_semilinear,
    "elliptic-semilinear": _elliptic_semilinear,
}


def catalog_ids() -> list[str]:
    return sorted(_CATALOG)


def catalog_lookup(problem_id: str) -> ProblemSpec:
    """Return a fresh ProblemSpec for a known catalog id (ValueError for another)."""
    if problem_id not in _CATALOG:
        raise ValueError(f"unknown problem id {problem_id!r} (known: {catalog_ids()})")
    return _CATALOG[problem_id]()


# --------------------------------------------------------------------------
# assumption checks
# --------------------------------------------------------------------------

_VALIDATE_SAMPLES = 2048


def validate(spec: ProblemSpec) -> list[str]:
    """Check the well-posedness assumptions by dense sampling.

    Returns a list of human-readable violations; empty means all checks
    passed on a grid of 2048 points (and the midpoints between them).
    The Lipschitz bound C = |param| of F is exact for every supported
    form, so it is read, not sampled.
    """
    violations: list[str] = []
    x = np.linspace(0.0, spec.length, _VALIDATE_SAMPLES)
    xh = 0.5 * (x[:-1] + x[1:])

    for name, fn in (("a", spec.a), ("b", spec.b), ("c", spec.c)):
        vals = np.concatenate([np.atleast_1d(fn(x)), np.atleast_1d(fn(xh))])
        if not np.all(np.isfinite(vals)):
            violations.append(f"finite: coefficient {name}(x) is not finite on [0, L]")

    a_min = float(np.min(np.concatenate([np.atleast_1d(spec.a(x)),
                                         np.atleast_1d(spec.a(xh))])))
    if a_min <= 0.0:
        violations.append(f"ellipticity: min a(x) = {a_min:g} <= 0 (need a >= lambda > 0)")
    elif spec.a.lower_bound is not None and a_min < spec.a.lower_bound - 1e-12:
        violations.append(
            f"ellipticity: min a(x) = {a_min:g} below declared lambda = {spec.a.lower_bound:g}"
        )

    lip = spec.F.lipschitz
    if spec.mode == "elliptic":
        c_min = float(np.min(np.atleast_1d(spec.c(x))))
        if lip > 0.0 and c_min <= lip:
            violations.append(
                f"(A3′) c ≤ Lipschitz C: min c(x) = {c_min:g} <= C = {lip:g} "
                "(elliptic mode needs c > C)"
            )
        elif lip == 0.0 and c_min < 0.0:
            violations.append(
                f"(A3′) c ≤ Lipschitz C: min c(x) = {c_min:g} < 0 with C = 0"
            )
    else:
        if spec.time_horizon is None:
            violations.append("time_horizon: parabolic mode needs a finite horizon T")

    gv = np.atleast_1d(spec.g.value(x, spec.length))
    sv = np.atleast_1d(spec.source_values(x, 0.0))
    if not (np.all(np.isfinite(gv)) and np.all(np.isfinite(sv))):
        violations.append("finite: boundary data or source is not finite on [0, L]")

    return violations
