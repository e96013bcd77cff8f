import dataclasses
import math

import numpy as np
import pytest

from schwarz1d.problem import (
    Fn,
    Nonlinearity,
    ProblemSpec,
    catalog_ids,
    catalog_lookup,
    validate,
)


def test_catalog_has_expected_entries():
    ids = catalog_ids()
    for required in ("example31", "laplace1d", "heat-semilinear"):
        assert required in ids


def test_unknown_id_raises_value_error():
    with pytest.raises(ValueError, match=r"^unknown problem id 'no-such-problem' \(known: "):
        catalog_lookup("no-such-problem")


def test_example31_encodes_the_operator():
    spec = catalog_lookup("example31")
    a, b, c = (fn.value(0.3, spec.length) for fn in (spec.a, spec.b, spec.c))
    assert spec.mode == "elliptic"
    assert (a, b, c) == (1.0, 3.0, 4.0)
    assert spec.length == 2.0
    # -(a u')' + b u' + c u annihilates exp(4x) and exp(-x):
    # -a r^2 + b r + c = -(r^2 - 3r - 4) = 0 for r in {4, -1}
    for r in (4.0, -1.0):
        assert -a * r**2 + b * r + c == 0.0
    # stored right-hand side is the negated forcing: source(x) = -sin(pi x / L)
    x = np.linspace(0, 2, 7)
    np.testing.assert_allclose(spec.source_values(x), -np.sin(np.pi * x / 2), atol=1e-15)


def test_laplace1d_is_trivial_diffusion():
    spec = catalog_lookup("laplace1d")
    assert spec.b.value(0.5, 1.0) == 0.0 and spec.c.value(0.5, 1.0) == 0.0
    assert spec.F.kind == "zero"
    assert spec.boundary_values() == (0.0, 0.0)


def test_heat_semilinear_satisfies_parabolic_assumptions():
    spec = catalog_lookup("heat-semilinear")
    assert spec.mode == "parabolic"
    assert spec.F.lipschitz == 1.0
    # no sign condition on c in parabolic mode: c = 0 with C = 1 is fine
    assert validate(spec) == []


@pytest.mark.parametrize("problem_id", catalog_ids())
def test_every_catalog_entry_passes_validation(problem_id):
    assert validate(catalog_lookup(problem_id)) == []


@pytest.mark.parametrize("problem_id", catalog_ids())
def test_catalog_lipschitz_property_on_random_triples(problem_id):
    spec = catalog_lookup(problem_id)
    rng = np.random.default_rng(42)
    x = rng.uniform(0.0, spec.length, size=10_000)
    z = rng.uniform(-50.0, 50.0, size=10_000)
    zp = rng.uniform(-50.0, 50.0, size=10_000)
    lhs = np.abs(np.atleast_1d(spec.F(x, z)) - np.atleast_1d(spec.F(x, zp)))
    assert np.all(lhs <= spec.F.lipschitz * np.abs(z - zp) + 1e-12)


@pytest.mark.parametrize("F", [Nonlinearity.zero(), Nonlinearity.linear(1.0),
                               Nonlinearity.linear(-2.5), Nonlinearity.linear(0.0),
                               Nonlinearity.sine(1.0), Nonlinearity.sine(2.0),
                               Nonlinearity.sine(-0.3)], ids=repr)
def test_nonlinearity_fills_out_with_the_bits_of_a_new_array(F):
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 1.0, 105)
    u = np.concatenate([rng.uniform(-50.0, 50.0, 100), [0.0, -0.0, 1e-310, -1e300, 7.0]])
    plain = {"zero": np.zeros(105), "linear-in-u": F.param * u,
             "sine": F.param * np.sin(u)}[F.kind]
    out = np.full(105, np.nan)
    assert F(x, u, out) is out
    assert out.tobytes() == F(x, u).tobytes() == plain.tobytes()


def test_elliptic_c_below_lipschitz_bound_is_flagged():
    spec = ProblemSpec(
        mode="elliptic",
        a=Fn.constant(1.0),
        b=Fn.constant(0.0),
        c=Fn.constant(0.0),
        F=Nonlinearity.linear(1.0),
        g=Fn.zero(),
        length=1.0,
    )
    out = validate(spec)
    assert any("(A3′)" in v for v in out)


@pytest.mark.parametrize("param", [1e3, 1e8, -1e8])
def test_large_linear_nonlinearity_with_c_above_its_bound_passes(param):
    # C = |param| is exact, so c = 2C is well-posed at any scale; a sampled
    # bound check with an absolute slack rejected these on round-off
    spec = ProblemSpec(
        mode="elliptic",
        a=Fn.constant(1.0),
        b=Fn.constant(0.0),
        c=Fn.constant(2.0 * abs(param)),
        F=Nonlinearity.linear(param),
        g=Fn.zero(),
        length=1.0,
    )
    assert validate(spec) == []


def test_negative_diffusion_is_flagged_as_ellipticity():
    spec = ProblemSpec(
        mode="elliptic",
        a=Fn.constant(-1.0),
        b=Fn.constant(0.0),
        c=Fn.constant(1.0),
        F=Nonlinearity.zero(),
        g=Fn.zero(),
        length=1.0,
    )
    out = validate(spec)
    assert any("ellipticity" in v for v in out)


@pytest.mark.parametrize("change, message", [
    pytest.param({"b": Fn.constant(math.inf)},
                 "finite: coefficient b(x) is not finite on [0, L]",
                 id="coefficient-not-finite"),
    pytest.param({"c": Fn.constant(-1.0)},
                 "(A3′) c ≤ Lipschitz C: min c(x) = -1 < 0 with C = 0",
                 id="c-negative-C-zero"),
    pytest.param({"mode": "parabolic"}, "time_horizon: parabolic mode needs a finite horizon T",
                 id="parabolic-without-T"),
    pytest.param({"source": Fn.constant(math.nan)},
                 "finite: boundary data or source is not finite on [0, L]",
                 id="source-not-finite"),
])
def test_validate_names_each_violation(change, message):
    assert validate(dataclasses.replace(catalog_lookup("laplace1d"), **change)) == [message]


# each kind's value is the plain numpy expression, bit for bit, on (0, L) with L = 1.5
_FORMS = {
    "zero": (Fn.zero(), lambda x: np.full_like(x, 0.0)),
    "constant": (Fn.constant(2.5), lambda x: np.full_like(x, 2.5)),
    "minus-zero": (Fn.constant(-0.0), lambda x: np.full_like(x, -0.0)),
    "polynomial": (Fn.polynomial([1.0, 2.0, 3.0]),
                   lambda x: np.polynomial.polynomial.polyval(x, np.array([1.0, 2.0, 3.0]))),
    "empty-polynomial": (Fn.polynomial([]),
                         lambda x: np.polynomial.polynomial.polyval(x, np.array([0.0]))),
    "scaled-exp": (Fn.scaled_exp(2.0, -1.0), lambda x: 2.0 * np.exp(-1.0 * x)),
    "sine": (Fn.sine(2.0, 3), lambda x: 2.0 * np.sin(3 * math.pi * x / 1.5)),
}


def test_coefficient_forms_evaluate():
    x = np.linspace(0.0, 1.5, 37)
    for form, (fn, expected) in _FORMS.items():
        assert np.array_equal(fn.value(x, 1.5), expected(x)), form
        assert fn.value(x, 1.5).tobytes() == expected(x).tobytes(), form  # signed zeros too
        for xi in (0.0, 0.7, 1.5):
            assert np.ndim(fn.value(xi, 1.5)) == 0, form
            assert np.array_equal(fn.value(xi, 1.5), expected(np.asarray(xi))), form


def test_datafn_values():
    assert Fn.sine(2.0, 1).value(0.0, 1.0) == 0.0
    np.testing.assert_allclose(Fn.sine(2.0, 1).value(0.25, 0.5), 2.0)
    p = Fn.polynomial([1.0, 0.0, 3.0])  # 1 + 3 x^2
    assert p.value(2.0, 1.0) == 13.0
    assert np.array_equal(p.value(np.array([0.0, 2.0]), 1.0), [1.0, 13.0])


# every catalog entry written as an inline problem in README's forms
_DIFFUSION = {"constant": {"value": 1.0}}
_INLINE = {
    "example31": {"mode": "elliptic", "L": 2.0, "a": _DIFFUSION, "b": {"constant": 3.0},
                  "c": {"constant": 4.0}, "F": {"zero": {}}, "g": {"zero": {}},
                  "source": {"sine": {"amplitude": -1.0, "mode": 1}}},
    "laplace1d": {"mode": "elliptic", "L": 1.0, "a": _DIFFUSION, "b": {"constant": 0.0},
                  "c": {"constant": 0.0}},
    "heat-semilinear": {"mode": "parabolic", "L": 1.0, "T": 2.0, "a": _DIFFUSION,
                        "b": {"constant": 0.0}, "c": {"constant": 0.0},
                        "F": {"sine": {"param": 1.0}},
                        "g": {"sine": {"amplitude": 1.0, "mode": 1}}},
    "elliptic-semilinear": {"mode": "elliptic", "L": 1.0, "a": _DIFFUSION,
                            "b": {"constant": 1.0}, "c": {"constant": 4.0},
                            "F": {"sine": {"param": 2.0}}, "g": {"zero": {}},
                            "source": {"sine": {"amplitude": 1.0, "mode": 1}}},
}


@pytest.mark.parametrize("problem_id", catalog_ids())
def test_from_dict_of_readme_form_equals_catalog_entry(problem_id):
    assert ProblemSpec.from_dict(_INLINE[problem_id]) == catalog_lookup(problem_id)


def test_from_dict_reads_every_coefficient_form():
    spec = ProblemSpec.from_dict({**_INLINE["laplace1d"],
                                  "a": {"polynomial": {"coeffs": [1.0, 0.5]}},
                                  "c": {"scaled-exp": {"value": 2.0, "rate": -1.0}}})
    assert spec.a == Fn.polynomial([1.0, 0.5])
    assert spec.c == Fn.scaled_exp(2.0, -1.0)


def test_coefficients_and_data_read_one_form():
    # a bare body is the kind's main entry, for a coefficient as for data
    spec = ProblemSpec.from_dict({**_INLINE["laplace1d"], "a": {"polynomial": [1.0, 0.5]},
                                  "g": {"polynomial": [1.0, 0.5]}})
    assert spec.a == spec.g == Fn.polynomial([1.0, 0.5])
    for d in (2.0, "one", {"constant": 2.0}, {"sine": {"mode": 2}}, {"zero": {}},
              {"scaled-exp": {"value": 2.0, "rate": -1.0}}, {"polynomial": {"coeffs": [1.0]}}):
        assert Fn.from_dict(d, "coefficient") == Fn.from_dict(d, "data")


# the problem and coefficient entries are checked through the CLI in test_cli.py
@pytest.mark.parametrize("body, message", [
    pytest.param({**_INLINE["laplace1d"], "F": {"sine": {}}},
                 "sine nonlinearity needs a 'param'", id="nonlinearity-param"),
    pytest.param({**_INLINE["laplace1d"], "g": {"polynomial": {}}},
                 "polynomial data g needs a 'coeffs'", id="data-coeffs"),
])
def test_from_dict_names_the_missing_entry(body, message):
    with pytest.raises(ValueError, match=message):
        ProblemSpec.from_dict(body)


def test_lipschitz_bound_is_derived_from_param():
    assert Nonlinearity.zero().lipschitz == 0.0
    assert Nonlinearity.linear(-3.0).lipschitz == 3.0
    assert Nonlinearity.sine(2.0).lipschitz == 2.0
    with pytest.raises(TypeError):
        Nonlinearity(kind="sine", param=1.0, lipschitz=5.0)


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Fn(kind="cosine")
    with pytest.raises(ValueError):
        Nonlinearity(kind="custom")  # only closed forms are accepted
    with pytest.raises(ValueError):
        ProblemSpec(
            mode="elliptic",
            a=Fn.constant(1.0),
            b=Fn.constant(0.0),
            c=Fn.constant(0.0),
            F=Nonlinearity.zero(),
            g=Fn.zero(),
            length=-1.0,
        )
