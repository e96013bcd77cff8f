"""Model problems: 1D semilinear elliptic and parabolic equations.

Everything in this package works with the divergence-form operator

    -(a(x) u')' + b(x) u' + c(x) u = F(x, u) + source(x[, t])

on an interval (0, L), with Dirichlet data g on the outer boundary.  In
parabolic mode a d/dt term is added on the left and u(x, 0) = g(x) is the
initial state.  Coefficients (a, b, c) and data (g, the source, an
initial iterate) are all :class:`Fn`: one closed set of evaluable forms
with one evaluator and one config reader, so problem instances stay
declarative, cheap to validate by sampling, and writable inline in
experiment configs.  The catalog is four such inline problems.

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
    "Fn",
    "Nonlinearity",
    "ProblemSpec",
    "catalog_lookup",
    "catalog_ids",
    "validate",
]


# --------------------------------------------------------------------------
# reading config values, shared by every from_dict and the CLI
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


def read_keys(body, known, what: str) -> None:
    """A ValueError unless ``body`` is an object whose keys are all in
    ``known``; it names the others, so that no entry is silently ignored."""
    if not isinstance(body, dict):
        raise ValueError(f"{what} must be an object, got {body!r}")
    unknown = sorted(set(body) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} setting(s) {unknown} (known: {sorted(known)})")


def read_kind(d, kinds: dict, what: str) -> tuple[str, object]:
    """(kind, body) of a one-entry ``{kind: body}`` object with a known kind;
    ``kinds`` maps each kind to the entry a bare body stands for, or None (with
    ``{"constant": "value"}``, ``{"constant": 2.0}`` is ``{"constant": {"value": 2.0}}``)."""
    if not isinstance(d, dict) or len(d) != 1:
        raise ValueError(f"bad {what} spec: {d!r}")
    kind, body = next(iter(d.items()))
    if kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r}")
    if kinds[kind] is not None and not isinstance(body, dict):
        body = {kinds[kind]: body}
    return kind, body


REQUIRED = object()  # the default of an entry that a body must give


def read_body(body, entries: dict, what: str) -> dict:
    """The object ``body`` read by ``entries`` (key -> (reader, default or
    REQUIRED)): missing required entries first, then unknown keys, then
    each value, read and named by ``reader(value, f"{what} {key}")``."""
    for key, (_, default) in entries.items():
        if default is REQUIRED and not (isinstance(body, dict) and key in body):
            raise ValueError(f"{what} needs a {key!r} entry, got {body!r}")
    read_keys(body, entries, what)
    return {key: read(body[key], f"{what} {key}") if key in body else default
            for key, (read, default) in entries.items()}


def read_form(d, forms: dict, what: str) -> tuple[str, dict]:
    """(kind, entries) of a ``{kind: body}`` object; ``forms`` maps each kind
    to the entry a bare body stands for (or None) and its body's table."""
    kind, body = read_kind(d, {kind: main for kind, (main, _) in forms.items()}, what)
    return kind, read_body(body, forms[kind][1], f"{kind} {what}")


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

    _FORMS = {"zero": (None, {}),  # read by read_form
              "linear-in-u": ("param", {"param": (read_number, REQUIRED)}),
              "sine": ("param", {"param": (read_number, REQUIRED)})}

    def __post_init__(self) -> None:
        if self.kind not in self._FORMS:
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
        kind, entries = read_form(d, cls._FORMS, "nonlinearity")
        return cls(kind, **entries)


@dataclass(frozen=True)
class Fn:
    """A coefficient (a, b, c) or data function (g, source, initial iterate)
    from a closed set of smooth evaluable forms.

    kinds:
        ``zero``        -- 0
        ``constant``    -- amplitude
        ``polynomial``  -- sum(coeffs[i] * x**i)
        ``scaled-exp``  -- amplitude * exp(rate * x)
        ``sine``        -- amplitude * sin(mode * pi * x / L)

    Data are only ever evaluated at grid nodes; derivatives (e.g. for the
    Robin transmission of an initial iterate) come from the same discrete
    stencils that act on computed fields.
    """

    kind: str
    amplitude: float = 0.0
    coeffs: tuple[float, ...] = ()
    rate: float = 0.0
    mode: int = 1

    # read_form's table: {"constant": 2.0} is {"constant": {"value": 2.0}}, and
    # the entries are the keyword arguments of the kind's constructor
    _FORMS = {
        "zero": (None, {}),
        "constant": ("value", {"value": (read_number, REQUIRED)}),
        "polynomial": ("coeffs", {"coeffs": (read_numbers, REQUIRED)}),
        "scaled-exp": ("value", {"value": (read_number, REQUIRED), "rate": (read_number, 0.0)}),
        "sine": ("amplitude", {"amplitude": (read_number, 1.0), "mode": (read_integer, 1)}),
    }

    def __post_init__(self) -> None:
        if self.kind not in self._FORMS:
            raise ValueError(f"unknown function kind {self.kind!r}")

    @classmethod
    def zero(cls) -> "Fn":
        return cls(kind="zero")

    @classmethod
    def constant(cls, value: float) -> "Fn":
        return cls(kind="constant", amplitude=float(value))

    @classmethod
    def polynomial(cls, coeffs) -> "Fn":
        return cls(kind="polynomial", coeffs=tuple(float(c) for c in coeffs))

    @classmethod
    def scaled_exp(cls, value: float, rate: float) -> "Fn":
        return cls(kind="scaled-exp", amplitude=float(value), rate=float(rate))

    @classmethod
    def sine(cls, amplitude: float = 1.0, mode: int = 1) -> "Fn":
        return cls(kind="sine", amplitude=float(amplitude), mode=int(mode))

    def value(self, x, length: float):
        """The function at x (an array, or a scalar for a scalar x) on (0, length)."""
        x = np.asarray(x, dtype=float)
        if self.kind in ("zero", "constant"):  # zero's amplitude is 0.0
            return np.full_like(x, self.amplitude) if x.ndim else self.amplitude
        if self.kind == "polynomial":
            return np.polynomial.polynomial.polyval(x, np.array(self.coeffs or (0.0,)))
        if self.kind == "scaled-exp":
            return self.amplitude * np.exp(self.rate * x)
        return self.amplitude * np.sin(self.mode * math.pi * x / length)

    @classmethod
    def from_dict(cls, d, what: str) -> "Fn":
        """Read a config entry: a ``{kind: body}`` object, a number (a
        constant) or one of the shorthands "zero", "one" and "sine".

        ``what`` is "coefficient" or "data", then the entry's key
        ("coefficient a", "data u0"), and every error names it: a value
        in a form's body as "constant coefficient a value".
        """
        if isinstance(d, str):
            table = {"zero": cls.zero(), "one": cls.constant(1.0), "sine": cls.sine()}
            if d not in table:
                raise ValueError(f"unknown {what} shorthand {d!r} (known: {sorted(table)})")
            return table[d]
        kind, entries = read_form({"constant": d} if is_number(d) else d, cls._FORMS, what)
        return getattr(cls, kind.replace("-", "_"))(**entries)


@dataclass(frozen=True)
class ProblemSpec:
    """A fully specified model problem instance.

    ``source`` may be an Fn or, for manufactured-solution studies, any
    callable ``f(x, t)``; an elliptic solve passes t = 0.
    """

    mode: str  # "elliptic" | "parabolic"
    a: Fn
    b: Fn
    c: Fn
    F: Nonlinearity
    g: Fn
    length: float
    time_horizon: float | None = None
    source: Fn | Callable | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("elliptic", "parabolic"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.length > 0:
            raise ValueError("domain length must be positive")
        if self.time_horizon is not None and not self.time_horizon > 0:
            raise ValueError("time horizon must be positive")

    def source_values(self, x, t: float = 0.0):
        """The source at nodes x and time t (an Fn does not depend on t)."""
        x = np.asarray(x, dtype=float)
        if self.source is None:
            return np.zeros_like(x)
        if isinstance(self.source, Fn):
            return np.asarray(self.source.value(x, self.length), dtype=float)
        return np.asarray(self.source(x, t), dtype=float) + np.zeros_like(x)

    def boundary_values(self) -> tuple[float, float]:
        """Dirichlet data (g(0), g(L)) on the outer boundary."""
        return (float(self.g.value(0.0, self.length)),
                float(self.g.value(self.length, self.length)))

    # read_body's table of an inline problem; a function is named by its role and key
    _ENTRIES = {
        "mode": (lambda mode, _: mode, REQUIRED),  # __post_init__ checks it
        "L": (read_number, REQUIRED),
        "T": (lambda T, what: None if T is None else read_number(T, what), None),
        "a": (lambda a, _: Fn.from_dict(a, "coefficient a"), REQUIRED),
        "b": (lambda b, _: Fn.from_dict(b, "coefficient b"), REQUIRED),
        "c": (lambda c, _: Fn.from_dict(c, "coefficient c"), REQUIRED),
        "F": (lambda F, _: Nonlinearity.from_dict(F), Nonlinearity.zero()),
        "g": (lambda g, _: Fn.from_dict(g, "data g"), Fn.zero()),
        "source": (lambda f, _: None if f is None else Fn.from_dict(f, "data source"), None),
    }

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemSpec":
        e = read_body(d, cls._ENTRIES, "inline problem")
        return cls(length=e.pop("L"), time_horizon=e.pop("T"), **e)


# --------------------------------------------------------------------------
# catalog: inline problems, read by the same ProblemSpec.from_dict as a config's
# --------------------------------------------------------------------------

_CATALOG: dict[str, dict] = {
    # Constant-coefficient operator u'' - 3u' - 4u = f on (0, 2), stored in
    # divergence form as -(u')' + 3u' + 4u = -f with f(x) = sin(pi x / L).
    # Its homogeneous solutions exp(4x), exp(-x) make this the model with
    # closed-form interface maps (see the oracle module); the
    # transmission-side divergence it exhibits is the point of the entry.
    "example31": {"mode": "elliptic", "L": 2.0, "a": 1.0, "b": 3.0, "c": 4.0,
                  "source": {"sine": {"amplitude": -1.0, "mode": 1}}},
    "laplace1d": {"mode": "elliptic", "L": 1.0, "a": 1.0, "b": 0.0, "c": 0.0},
    # u_t - u'' = sin(u), zero boundary, initial profile sin(pi x).
    # |sin z - sin z'| <= |z - z'| gives the Lipschitz bound 1.
    "heat-semilinear": {"mode": "parabolic", "L": 1.0, "T": 2.0, "a": 1.0, "b": 0.0,
                        "c": 0.0, "F": {"sine": {"param": 1.0}},
                        "g": {"sine": {"amplitude": 1.0, "mode": 1}}},
    # -(u')' + u' + 4u = 2 sin(u) + sin(pi x); c = 4 > 2 = Lipschitz bound,
    # so the fixed-point linearization contracts.
    "elliptic-semilinear": {"mode": "elliptic", "L": 1.0, "a": 1.0, "b": 1.0, "c": 4.0,
                            "F": {"sine": {"param": 2.0}},
                            "source": {"sine": {"amplitude": 1.0, "mode": 1}}},
}


def catalog_ids() -> list[str]:
    return sorted(_CATALOG)


def catalog_lookup(problem_id: str) -> ProblemSpec:
    """Return a fresh ProblemSpec for a known catalog id (ValueError for another)."""
    if problem_id not in _CATALOG:
        raise ValueError(f"unknown problem id {problem_id!r} (known: {catalog_ids()})")
    return ProblemSpec.from_dict(_CATALOG[problem_id])


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
    L = spec.length
    x = np.linspace(0.0, L, _VALIDATE_SAMPLES)
    # an overflow is a non-finite sample, which the checks below name, not
    # a numpy warning
    coefficients = {"a": spec.a, "b": spec.b, "c": spec.c}
    with np.errstate(over="ignore", invalid="ignore"):
        xh = 0.5 * (x[:-1] + x[1:])
        on_x = {name: fn.value(x, L) for name, fn in coefficients.items()}
        on_xh = {name: fn.value(xh, L) for name, fn in coefficients.items()}
        data = np.concatenate([spec.g.value(x, L), spec.source_values(x, 0.0)])

    for name in on_x:
        if not (np.all(np.isfinite(on_x[name])) and np.all(np.isfinite(on_xh[name]))):
            violations.append(f"finite: coefficient {name}(x) is not finite on [0, L]")

    a_min = float(np.min(np.concatenate([on_x["a"], on_xh["a"]])))
    if a_min <= 0.0:
        violations.append(f"ellipticity: min a(x) = {a_min:g} <= 0 (need a >= lambda > 0)")

    lip = spec.F.lipschitz
    if spec.mode == "elliptic":
        c_min = float(np.min(on_x["c"]))
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

    if not np.all(np.isfinite(data)):
        violations.append("finite: boundary data or source is not finite on [0, L]")

    return violations
