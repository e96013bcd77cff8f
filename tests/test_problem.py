import numpy as np
import pytest

from schwarz1d.problem import (
    CoefficientFn,
    DataFn,
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
    assert spec.mode == "elliptic"
    assert spec.a(0.3) == 1.0
    assert spec.b(0.3) == 3.0
    assert spec.c(0.3) == 4.0
    assert spec.length == 2.0
    # -(a u')' + b u' + c u annihilates exp(4x) and exp(-x):
    # -a r^2 + b r + c = -(r^2 - 3r - 4) = 0 for r in {4, -1}
    for r in (4.0, -1.0):
        assert -spec.a(0.0) * r**2 + spec.b(0.0) * r + spec.c(0.0) == 0.0
    # stored right-hand side is the negated forcing: source(x) = -sin(pi x / L)
    x = np.linspace(0, 2, 7)
    np.testing.assert_allclose(spec.source_values(x), -np.sin(np.pi * x / 2), atol=1e-15)


def test_laplace1d_is_trivial_diffusion():
    spec = catalog_lookup("laplace1d")
    assert spec.b(0.5) == 0.0 and spec.c(0.5) == 0.0
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
        a=CoefficientFn.constant(1.0),
        b=CoefficientFn.constant(0.0),
        c=CoefficientFn.constant(0.0),
        F=Nonlinearity.linear(1.0),
        g=DataFn.zero(),
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
        a=CoefficientFn.constant(1.0, lower_bound=1.0),
        b=CoefficientFn.constant(0.0),
        c=CoefficientFn.constant(2.0 * abs(param)),
        F=Nonlinearity.linear(param),
        g=DataFn.zero(),
        length=1.0,
    )
    assert validate(spec) == []


def test_negative_diffusion_is_flagged_as_ellipticity():
    spec = ProblemSpec(
        mode="elliptic",
        a=CoefficientFn.constant(-1.0),
        b=CoefficientFn.constant(0.0),
        c=CoefficientFn.constant(1.0),
        F=Nonlinearity.zero(),
        g=DataFn.zero(),
        length=1.0,
    )
    out = validate(spec)
    assert any("ellipticity" in v for v in out)


def test_declared_lower_bound_is_checked():
    spec = ProblemSpec(
        mode="elliptic",
        a=CoefficientFn.polynomial([0.5, 1.0], lower_bound=1.0),  # a(0) = 0.5 < 1
        b=CoefficientFn.constant(0.0),
        c=CoefficientFn.constant(1.0),
        F=Nonlinearity.zero(),
        g=DataFn.zero(),
        length=1.0,
    )
    assert any("ellipticity" in v for v in validate(spec))


def test_coefficient_forms_evaluate():
    assert CoefficientFn.constant(2.5)(0.7) == 2.5
    np.testing.assert_allclose(
        CoefficientFn.polynomial([1.0, 2.0, 3.0])(np.array([0.0, 1.0])),
        [1.0, 6.0],
    )
    np.testing.assert_allclose(CoefficientFn.scaled_exp(2.0, -1.0)(1.0), 2.0 / np.e)


def test_datafn_values():
    assert DataFn.sine(2.0, 1).value(0.0, 1.0) == 0.0
    np.testing.assert_allclose(DataFn.sine(2.0, 1).value(0.25, 0.5), 2.0)
    p = DataFn.polynomial([1.0, 0.0, 3.0])  # 1 + 3 x^2
    np.testing.assert_allclose(p.value(2.0, 1.0), 13.0)


# every catalog entry written as an inline problem in README's forms
_DIFFUSION = {"constant": {"value": 1.0, "lower_bound": 1.0}}
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


# the problem and coefficient entries are checked through the CLI in test_cli.py
@pytest.mark.parametrize("body, message", [
    pytest.param({**_INLINE["laplace1d"], "F": {"sine": {}}},
                 "sine nonlinearity needs a 'param'", id="nonlinearity-param"),
    pytest.param({**_INLINE["laplace1d"], "g": {"polynomial": {}}},
                 "polynomial data needs a 'coeffs'", id="data-coeffs"),
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
        CoefficientFn(kind="cosine")
    with pytest.raises(ValueError):
        Nonlinearity(kind="custom")  # only closed forms are accepted
    with pytest.raises(ValueError):
        ProblemSpec(
            mode="elliptic",
            a=CoefficientFn.constant(1.0),
            b=CoefficientFn.constant(0.0),
            c=CoefficientFn.constant(0.0),
            F=Nonlinearity.zero(),
            g=DataFn.zero(),
            length=-1.0,
        )
