import dataclasses
import functools
import itertools
import json
import math
import warnings
from pathlib import Path

import pytest

from schwarz1d.cli import _PARTITIONS, build_schwarz_config, main
from schwarz1d.geometry import build_uniform_partition
from schwarz1d.oracle import AnalyticCase, tau_factors
from schwarz1d.problem import REQUIRED, Fn, Nonlinearity
from schwarz1d.schwarz import SchwarzConfig, plan, run_elliptic
from schwarz1d.transmission import TransmissionSpec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DATA = Path(__file__).resolve().parent / "data"


def write_config(tmp_path: Path, cfg: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return str(path)


def laplace_config(out_dir: str) -> dict:
    return {
        "schema_version": 1,
        "problem": "laplace1d",
        "partition": {"uniform": {"count": 2, "overlap": 0.2}},
        "grid": {"h": 0.01},
        "transmission": {"dirichlet": {}},
        "run": {"u0": "one", "max_iters": 100, "stop_tol": 1e-10},
        "output": {"dir": out_dir},
    }


# laplace1d as an inline problem
LAPLACE_INLINE = {"mode": "elliptic", "L": 1.0, "a": {"constant": 1.0}, "b": {"constant": 0.0},
                  "c": {"constant": 0.0}}


def shipped_config(name: str, out_dir: str) -> dict:
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["output"]["dir"] = out_dir
    return cfg


def singular_robin_config(out_dir: str) -> dict:
    # b = 2a/h zeroes the super-diagonal, so the left Robin row of subdomain
    # 2 cannot eliminate its third stencil point
    cfg = laplace_config(out_dir)
    cfg["problem"] = {"mode": "elliptic", "L": 1.0, "a": {"constant": 1.0},
                      "b": {"constant": 128.0}, "c": {"constant": 0.0},
                      "F": {"zero": {}}, "g": {"zero": {}}}
    cfg["partition"] = {"uniform": {"count": 2, "overlap": 0.125}}
    cfg["grid"]["h"] = 1.0 / 64
    cfg["transmission"] = {"robin": {"p": 1.0}}
    return cfg


def divergent_config(out_dir: str) -> dict:
    return {
        "schema_version": 1,
        "problem": "example31",
        "partition": {"intervals": [[0.0, 1.95], [1.9, 2.0]]},
        "grid": {"h": 0.005},
        "transmission": {"robin": {"p": {"0,1": 1.0, "1,0": 50.0}}},
        "run": {"u0": "one", "max_iters": 300, "stop_tol": 1e-10, "rate_window": 10},
        "output": {"dir": out_dir},
    }


def test_run_convergent_exits_zero_with_monotone_errors(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, laplace_config(str(out)))
    assert main(["run", "--config", cfg_path]) == 0
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0] == "k,l,norm,E_k,rate,verdict"
    e_col = [float(row.split(",")[3]) for row in lines[1::2]]
    assert all(b < a for a, b in zip(e_col[1:], e_col[2:]))  # monotone after k=1
    assert "verdict:        converged" in (out / "summary.txt").read_text()


def test_run_divergent_exits_two(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, divergent_config(str(out)))
    assert main(["--quiet", "run", "--config", cfg_path]) == 2
    summary = (out / "summary.txt").read_text()
    assert "verdict:        diverged" in summary
    assert "oracle tau:" in summary


def test_run_malformed_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["run", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_wrong_schema_version_exits_one(tmp_path):
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["schema_version"] = 99
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 1


def test_run_is_deterministic_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_path = write_config(tmp_path, laplace_config(str(out_a)))
    assert main(["--quiet", "run", "--config", cfg_path]) == 0
    assert main(["--quiet", "run", "--config", cfg_path, "--out", str(out_b)]) == 0
    assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()


def test_history_rows_parse_and_are_finite(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, divergent_config(str(out)))
    main(["--quiet", "run", "--config", cfg_path])
    for row in (out / "history.csv").read_text().splitlines()[1:]:
        k, l, norm, ek, rate, verdict = row.split(",")
        assert int(k) >= 1 and int(l) in (1, 2)
        assert float(norm) >= 0 and float(ek) >= 0
        assert verdict == "diverged"


def test_tau_subcommand_prints_factors(capsys):
    assert main(["tau", "--L", "2", "--L1", "1.7", "--L2", "1.9",
                 "--p", "1", "--q", "50"]) == 0
    out = capsys.readouterr().out
    assert "tau  = 0.2519066375694" in out
    assert "verdict: converge" in out


def test_tau_divergent_regime(capsys):
    assert main(["tau", "--L", "2", "--L1", "1.9", "--L2", "1.95",
                 "--p", "1", "--q", "50"]) == 0
    assert "verdict: diverge" in capsys.readouterr().out


def test_tau_rho_rescues_divergent_case(capsys):
    # a config's rho = 64 on p = 1, q = 50: tau takes the scaled parameters
    assert main(["tau", "--L", "2", "--L1", "1.9", "--L2", "1.95",
                 "--p", "64", "--q", "3200"]) == 0
    assert "verdict: converge" in capsys.readouterr().out


def test_tau_on_a_long_domain_prints_its_factor(capsys):
    # tau2's numerator is ~ 7e18 beside a denominator of 25.5: a large
    # ratio, not a vanishing denominator; L = 8 gives the same tau
    assert main(["tau", "--L", "10", "--L1", "9.9", "--L2", "9.95",
                 "--p", "1", "--q", "50"]) == 0
    assert "tau  = 1.20783142755496" in capsys.readouterr().out


@pytest.mark.parametrize("L, L1, L2, message", [
    pytest.param("inf", "1.9", "1.95", "lengths L, L1 and L2 must be finite numbers, "
                 "got L=inf, L1=1.9, L2=1.95", id="infinite"),
    pytest.param("1e3", "1.9", "1.95", "the right error profile overflows a float at "
                 "x = 1.95 (L = 1000)", id="overflowing"),
    pytest.param("178", "100", "177.3", "the derivative of the left error profile "
                 "overflows a float at x = 177.3 (L = 178)", id="overflowing-derivative"),
])
def test_tau_names_a_length_it_cannot_evaluate(capsys, L, L1, L2, message):
    # not a vanishing denominator (num=-91909.4, den=inf; num=0.30405,
    # den=inf) or a bare "math range error"
    assert main(["tau", "--L", L, "--L1", L1, "--L2", L2, "--p", "1", "--q", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_tau_degenerate_exits_one(capsys):
    # negative q solving phi2'(L1) = q phi2(L1) zeroes the denominator
    import math
    L, L1 = 2.0, 1.0
    w = math.exp(4 * (L1 - L)) - math.exp(-(L1 - L))
    dw = 4 * math.exp(4 * (L1 - L)) + math.exp(-(L1 - L))
    assert main(["tau", "--L", "2", "--L1", "1", "--L2", "1.5",
                 "--p", "1", "--q", str(dw / w)]) == 1


_BAD_PQ = "Robin parameters p and q must be positive finite numbers"


@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--p", "nan", _BAD_PQ, id="p-nan"),
    pytest.param("--p", "-1", _BAD_PQ, id="p-negative"),
    pytest.param("--q", "inf", _BAD_PQ, id="q-inf"),
    pytest.param("--q", "0", _BAD_PQ, id="q-zero"),
])
def test_tau_rejects_robin_parameters_that_run_rejects(capsys, flag, value, message):
    values = {"--p": "1", "--q": "50", flag: value}
    argv = ["tau", "--L", "2", "--L1", "1.9", "--L2", "1.95"]
    assert main(argv + [s for item in values.items() for s in item]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}, got ")


@pytest.mark.parametrize("argv, message", [
    # p and q are finite, a Robin term p v is not: not tau2 = -inf and tau =
    # inf, nor a vanishing denominator (num=-3.95319e+307, den=inf)
    pytest.param(["--p", "1", "--q", "1.7e308"],
                 "the Robin term p v = -1.7e+308 * 1998.05 of the left error profile "
                 "overflows a float at x = 1.9 (L = 2)", id="q-v"),
    pytest.param(["--p", "1.7e308", "--q", "50"],
                 "the Robin term p v = 1.7e+308 * 2440.46 of the left error profile "
                 "overflows a float at x = 1.95 (L = 2)", id="p-v"),
])
def test_tau_names_an_overflowed_robin_parameter(capsys, argv, message):
    assert main(["tau", "--L", "2", "--L1", "1.9", "--L2", "1.95"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sweep_rho_locates_empirical_threshold(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = divergent_config(str(out))
    cfg["transmission"] = {"robin": {"p": {"0,1": 1.0, "1,0": 50.0}, "rho": 1.0}}
    cfg["run"]["max_iters"] = 200
    cfg["run"]["stop_tol"] = 1e-9
    cfg["sweep"] = {"axis": "transmission.rho", "values": [1, 2, 4, 8]}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", cfg_path]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "axis,value,verdict,iterations,rate_double,tau,error"
    # without --quiet the rows go to stdout too, and then the first converged value
    assert capsys.readouterr().out.splitlines() == rows + [
        "# first converged at transmission.rho = 4"]
    verdicts = {float(r.split(",")[1]): r.split(",")[2] for r in rows[1:]}
    taus = {float(r.split(",")[1]): float(r.split(",")[5]) for r in rows[1:]}
    assert verdicts[1.0] == "diverged" and taus[1.0] > 1.0
    first_engine = min(v for v, verdict in verdicts.items() if verdict == "converged")
    first_oracle = min(v for v, tau in taus.items() if tau < 1.0)
    assert first_engine == first_oracle == 4.0


def test_sweep_overlap_rate_decreases(tmp_path):
    out = tmp_path / "out"
    cfg = laplace_config(str(out))
    cfg["sweep"] = {"axis": "partition.overlap", "values": [0.1, 0.15, 0.2]}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["--quiet", "sweep", "--config", cfg_path]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    rates = [float(r.split(",")[4]) for r in rows]
    assert rates == sorted(rates, reverse=True)


def test_sweep_empty_axis_exits_one(tmp_path, capsys):
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["sweep"] = {"axis": "transmission.rho", "values": []}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 1


@pytest.mark.parametrize("make, axis, message", [
    pytest.param(laplace_config, "transmission.rho",
                 "cannot sweep transmission.rho: dirichlet transmission has no 'rho' entry\n",
                 id="rho-on-dirichlet"),
    pytest.param(lambda out: {**laplace_config(out), "transmission": {"robin": 5}},
                 "transmission.p", "robin transmission must be an object, got 5\n",
                 id="transmission-body-not-an-object"),
    pytest.param(divergent_config, "partition.overlap",
                 "cannot sweep partition.overlap: intervals partition has no 'overlap' entry\n",
                 id="overlap-on-intervals"),
    pytest.param(laplace_config, "grid.spacing.h",
                 "cannot sweep grid.spacing.h: grid has no 'spacing.h' entry\n",
                 id="unknown-section"),
    pytest.param(laplace_config, "grid.hh", "cannot sweep grid.hh: grid has no 'hh' entry\n",
                 id="unknown-leaf"),
    pytest.param(laplace_config, "problem.L", "unknown sweep axis 'problem.L'",
                 id="unwritten-path"),
    # a section that is not an object is named as every reader names it
    pytest.param(lambda out: {**laplace_config(out), "run": None}, "run.alpha",
                 "run must be an object, got None\n", id="run-null"),
])
def test_sweep_axis_that_does_not_apply_exits_one_naming_it(tmp_path, capsys, make, axis,
                                                             message):
    out = tmp_path / "o"
    cfg = make(str(out))
    cfg["sweep"] = {"axis": axis, "values": [1.0]}
    assert main(["--quiet", "sweep", "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_sweep_records_per_point_failures(tmp_path):
    out = tmp_path / "out"
    cfg = laplace_config(str(out))
    # overlap 0.4 violates the uniform-partition bound and must fail in-row
    cfg["sweep"] = {"axis": "partition.overlap", "values": [0.2, 0.4]}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["--quiet", "sweep", "--config", cfg_path]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert rows[0].split(",")[2] == "converged"
    assert rows[1].split(",")[2] == "error"
    assert "triple overlap" in rows[1].split(",")[6]


def counted_reference_solves(monkeypatch, fail_first: bool = False) -> list:
    """Count the engine's monodomain reference solves; with ``fail_first``
    the first one fails."""
    import schwarz1d.schwarz as engine

    calls = []
    original = engine.reference_solve

    def counted(*args, **kwargs):
        calls.append(1)
        if fail_first and len(calls) == 1:
            raise RuntimeError("synthetic reference failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "reference_solve", counted)
    return calls


def robin_sweep_config(out_dir: str, axis: str, values: list) -> dict:
    cfg = divergent_config(out_dir)
    cfg["transmission"] = {"robin": {"p": {"0,1": 1.0, "1,0": 50.0}, "rho": 1.0}}
    cfg["run"].update(max_iters=200, stop_tol=1e-9)
    cfg["sweep"] = {"axis": axis, "values": values}
    return cfg


@pytest.mark.parametrize("axis, values, solves", [
    ("transmission.rho", [1, 2, 4, 8], 1),
    ("transmission.p", [0.5, 1.0, 2.0], 1),
    ("run.alpha", [1.0, 10.0], 1),
    ("grid.h", [0.01, 0.005], 2),
    ("grid.h", [0.01, 0.005, 0.01], 3),
])
def test_sweep_solves_the_reference_once_per_problem_partition_and_grid(
        tmp_path, monkeypatch, axis, values, solves):
    calls = counted_reference_solves(monkeypatch)
    cfg = robin_sweep_config(str(tmp_path / "out"), axis, values)
    assert main(["--quiet", "sweep", "--config", write_config(tmp_path, cfg)]) == 0
    assert len(calls) == solves


def test_overlap_sweep_solves_the_reference_per_point(tmp_path, monkeypatch):
    calls = counted_reference_solves(monkeypatch)
    cfg = laplace_config(str(tmp_path / "out"))
    cfg["sweep"] = {"axis": "partition.overlap", "values": [0.1, 0.15, 0.2]}
    assert main(["--quiet", "sweep", "--config", write_config(tmp_path, cfg)]) == 0
    assert len(calls) == 3


def test_each_sweep_call_solves_its_own_reference(tmp_path, monkeypatch):
    calls = counted_reference_solves(monkeypatch)
    cfg_path = write_config(tmp_path, robin_sweep_config(str(tmp_path / "out"),
                                                         "transmission.rho", [1, 4]))
    for _ in range(2):
        assert main(["--quiet", "sweep", "--config", cfg_path]) == 0
    assert len(calls) == 2


def laplace_sweep_config(out_dir: str, axis: str, values: list) -> dict:
    cfg = shipped_config("laplace_dirichlet", out_dir)
    cfg["sweep"] = {"axis": axis, "values": values}
    return cfg


def inline31_sweep_config(out_dir: str, axis: str, values: list) -> dict:
    # example31 written inline at h = 5e-3, so its entries are dotted paths
    # that the config writes
    cfg = shipped_config("counterexample_divergent", out_dir)
    cfg["problem"] = {"mode": "elliptic", "L": 2, "a": 1, "b": 3, "c": 4,
                      "source": {"sine": {"amplitude": -1}}}
    cfg["grid"]["h"] = 5e-3
    cfg["sweep"] = {"axis": axis, "values": values}
    return cfg


@pytest.mark.parametrize("make, axis, values", [
    pytest.param(robin_sweep_config, "transmission.rho", [1, 2, 4, 8],
                 id="transmission.rho-values0"),
    pytest.param(robin_sweep_config, "grid.h", [0.01, 0.005], id="grid.h-values1"),
    # a key the run section reads but the config does not write
    pytest.param(laplace_sweep_config, "run.rate_window", [4, 8], id="run.rate_window-unwritten"),
    # a dotted path into an inline problem: c = 6 stalls after 250 iterations
    # at rate 1.0925928, c = 16 converges after 183 at 0.7767807
    pytest.param(inline31_sweep_config, "problem.c", [6, 16], id="problem.c-dotted-path"),
])
def test_sweep_points_equal_their_own_runs_bitwise(tmp_path, make, axis, values):
    from schwarz1d.cli import _apply_axis

    out = tmp_path / "out"
    cfg = make(str(out), axis, values)
    assert main(["--quiet", "sweep", "--config", write_config(tmp_path, cfg)]) == 0
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert len(rows) == len(values)
    for value, row in zip(values, rows):
        hist = run_elliptic(plan(build_schwarz_config(_apply_axis(cfg, axis, value))[0]))
        assert (row[2], int(row[3])) == (hist.verdict, hist.iterations)
        assert float(row[4]).hex() == hist.rate_per_double.hex()


def test_sweep_retries_a_failed_reference_at_the_next_point(tmp_path, monkeypatch):
    calls = counted_reference_solves(monkeypatch, fail_first=True)
    out = tmp_path / "out"
    cfg = robin_sweep_config(str(out), "transmission.rho", [4, 8, 16])
    assert main(["--quiet", "sweep", "--config", write_config(tmp_path, cfg)]) == 0
    rows = [r.split(",", 6) for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert rows[0][2] == "error" and rows[0][6] == "reference solve: synthetic reference failure"
    assert rows[0][5] != ""  # the point's plan succeeded, so it keeps its tau
    assert [r[2] for r in rows[1:]] == ["converged", "converged"]
    assert len(calls) == 2


def test_validate_ok_config(tmp_path, capsys):
    cfg_path = write_config(tmp_path, laplace_config(str(tmp_path / "o")))
    assert main(["validate", "--config", cfg_path]) == 0


def test_validate_triple_overlap_config(tmp_path, capsys):
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["partition"] = {"intervals": [[0.0, 0.6], [0.3, 0.8], [0.5, 1.0]]}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", cfg_path]) == 1
    assert "triple overlap" in capsys.readouterr().out


def test_validate_assumption_violation(tmp_path, capsys):
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["problem"] = {
        "mode": "elliptic", "L": 1.0,
        "a": {"constant": {"value": 1.0}},
        "b": {"constant": {"value": 0.0}},
        "c": {"constant": {"value": 0.0}},
        "F": {"linear-in-u": {"param": 1.0}},
        "g": {"zero": {}},
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", cfg_path]) == 1
    assert "(A3′)" in capsys.readouterr().out


@pytest.mark.parametrize("entry, form, message", [
    pytest.param("a", {"scaled-exp": {"value": 1, "rate": 1000}},
                 "finite: coefficient a(x) is not finite on [0, L]", id="scaled-exp-coefficient"),
    pytest.param("g", {"polynomial": [0, 1e308, 1e308]},
                 "finite: boundary data or source is not finite on [0, L]", id="polynomial-data"),
])
def test_overflowing_form_is_one_validation_message_without_warning(tmp_path, capsys, entry,
                                                                    form, message):
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["problem"] = {**LAPLACE_INLINE, entry: form}
    path = write_config(tmp_path, cfg)
    message = f"problem fails validation: {message}\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would be the message
        assert main(["validate", "--config", path]) == 1
        assert capsys.readouterr() == (message, "")
        assert main(["--quiet", "run", "--config", path]) == 1
        assert capsys.readouterr() == ("", f"error: {message}")


@pytest.mark.parametrize("text, message", [
    pytest.param("{", "is not valid JSON", id="bad-json"),
    pytest.param('{"schema_version": 2}', "unsupported schema_version 2 (expected 1)",
                 id="schema-version"),
    pytest.param("[1]", "config root must be a JSON object", id="root-not-object"),
    pytest.param(json.dumps({**laplace_config("o"), "outptu": {}}),
                 "unknown config setting(s) ['outptu']", id="root-key"),
])
def test_validate_prints_a_config_load_failure_on_stdout(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert message in out and out.count("\n") == 1 and out.endswith("\n")
    assert err == ""


def test_unreadable_config_path_exits_one(tmp_path, capsys):
    path = tmp_path / "missing.json"
    for command in ("run", "sweep"):
        assert main(["--quiet", command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {path}: ") and err.count("\n") == 1


def test_run_stalled_exits_one(tmp_path, capsys):
    # one error line, as for every failure, after both reports are written
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["run"]["max_iters"] = 3  # cannot converge that fast
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == "error: no verdict within max_iters (stalled)\n"
    assert "verdict:        stalled\n" in (tmp_path / "o" / "summary.txt").read_text()
    assert (tmp_path / "o" / "history.csv").read_text().endswith(",stalled\n")


def test_run_engine_failure_reports_error_without_traceback(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "heat_dirichlet.json").read_text())
    cfg["run"]["picard_max"] = 1  # the reference solve's Picard loop fails at once
    cfg["output"]["dir"] = str(tmp_path / "o")
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: reference solve: time level 1")
    assert "Picard" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("u0", [True, "foo"])
def test_run_bad_initial_guess_exits_one(tmp_path, capsys, u0):
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["run"]["u0"] = u0
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_run_without_guard_ends_diverged_at_first_non_finite_iterate(tmp_path):
    # with the guard out of reach the interface data grow by tau per double
    # sweep until a solve overflows; that is divergence, not a failure
    out = tmp_path / "out"
    cfg = divergent_config(str(out))
    cfg["run"].update(guard_factor=1e308, max_iters=20000)
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 2
    rows = [line.split(",") for line in (out / "history.csv").read_text().splitlines()[1:]]
    assert len(rows) > 2 * 300  # far past where the default guard stops
    assert all(math.isfinite(float(r[2])) and math.isfinite(float(r[3])) for r in rows)
    assert {r[5] for r in rows} == {"diverged"}
    assert float(rows[-1][3]) > 1e300
    assert "verdict:        diverged" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("name, edit, code, iterations, err", [
    # a u0 past the float range makes the interface data inf
    pytest.param("counterexample_divergent", lambda c: c["run"].update(u0=1.7e308), 2, 0, "",
                 id="u0-max-diverges"),
    # so does a Robin term p u past it, after two finite iterations
    pytest.param("counterexample_divergent",
                 lambda c: c["transmission"]["robin"]["p"].update({"1,0": 1.7e308}), 2, 2, "",
                 id="robin-p-max-diverges"),
    # a finite iterate whose e^2 overflows has no verdict
    pytest.param("heat_dirichlet", lambda c: c["run"].update(u0=1e160), 1, 0,
                 "error: iteration 1, subdomain 1: the error norm overflows a float, though "
                 "the field and the reference are finite\n", id="heat-u0-norm-overflows"),
])
def test_a_non_finite_iterate_diverges_and_an_overflowing_norm_is_an_error(
        tmp_path, capsys, name, edit, code, iterations, err):
    out = tmp_path / "o"
    cfg = shipped_config(name, str(out))
    edit(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would leak to stderr
        assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == code
    assert capsys.readouterr() == ("", err)
    rows = (out / "history.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * iterations and all(math.isfinite(float(r.split(",")[3]))
                                               for r in rows)
    if code == 2:  # a Robin q past the float range has no closed-form tau, not tau = inf
        assert "inf" not in (out / "summary.txt").read_text()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_reference_solve_that_overflows_is_one_error_line(tmp_path, capsys):
    # u / dt overflows in the reference march; its finiteness check names it
    cfg = shipped_config("heat_dirichlet", str(tmp_path / "o"))
    cfg["problem"] = {"mode": "parabolic", "L": 1.0, "T": 2.0, "a": 1.0, "b": 0.0, "c": 0.0,
                      "F": {"sine": {"param": 1.0}}, "g": {"sine": {"amplitude": 1e308}}}
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr() == (
        "", "error: reference solve: banded solve produced non-finite values\n")


def test_subdomain_operator_failure_names_the_subdomain(tmp_path, capsys):
    cfg = singular_robin_config(str(tmp_path / "o"))
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "subdomain 2: cannot eliminate Robin stencil point" in err
    assert "Traceback" not in err


def test_run_accepts_inline_initial_iterate(tmp_path):
    out = tmp_path / "out"
    cfg = laplace_config(str(out))
    cfg["transmission"] = {"robin": {"p": 2.0}}
    cfg["run"]["u0"] = {"sine": {"amplitude": 2.0}}
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 0
    got = [float(line.split(",")[3]) for line in
           (out / "history.csv").read_text().splitlines()[1::2]]
    sc, _ = build_schwarz_config(cfg)
    assert sc.u0 == Fn.sine(2.0)
    assert got == run_elliptic(plan(sc)).E


def test_run_reads_a_number_u0_as_that_constant(tmp_path):
    runs = []
    for u0 in (0.5, {"constant": 0.5}):
        out = tmp_path / f"out{len(runs)}"
        cfg = laplace_config(str(out))
        cfg["run"]["u0"] = u0
        assert build_schwarz_config(cfg)[0].u0 == Fn.constant(0.5)
        assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 0
        runs.append((out / "history.csv").read_bytes())
    assert runs[0] == runs[1]


def test_run_uniform_two_subdomain_example31_reports_oracle_tau(tmp_path):
    out = tmp_path / "out"
    cfg = divergent_config(str(out))
    cfg["partition"] = {"uniform": {"count": 2, "overlap": 0.2}}
    cfg["grid"]["h"] = 0.01
    cfg["run"]["max_iters"] = 60
    main(["--quiet", "run", "--config", write_config(tmp_path, cfg)])
    (_, L2), (L1, _) = build_uniform_partition(2.0, 2, 0.2).subdomains
    want = tau_factors(AnalyticCase(L=2.0, L1=L1, L2=L2, p=1.0, q=50.0)).tau
    lines = (out / "summary.txt").read_text().splitlines()
    got = [float(line.split(":")[1]) for line in lines if line.startswith("oracle tau:")]
    assert got == [pytest.approx(want, rel=1e-15)]


def test_sweep_point_without_robin_p_is_recorded_not_raised(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = divergent_config(str(out))
    cfg["transmission"] = {"robin": {"q": 1.0}}
    cfg["sweep"] = {"axis": "transmission.rho", "values": [1, 2]}
    assert main(["--quiet", "sweep", "--config", write_config(tmp_path, cfg)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["error", "error"]
    assert all("needs a 'p' entry" in r.split(",", 6)[6] for r in rows)


def test_sweep_point_failure_without_a_message_is_named_by_its_type(tmp_path, capsys,
                                                                   monkeypatch):
    import schwarz1d.cli as cli

    def no_memory(sc):
        raise MemoryError()

    monkeypatch.setattr(cli, "plan", no_memory)
    out = tmp_path / "out"
    cfg = divergent_config(str(out))
    cfg["sweep"] = {"axis": "transmission.rho", "values": [1, 2]}
    assert main(["--quiet", "sweep", "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == "error: no sweep point reached a verdict\n"
    assert (out / "sweep.csv").read_text().splitlines()[1:] == [
        f"transmission.rho,{rho},error,,,,MemoryError" for rho in (1, 2)]


def test_sweep_point_whose_plan_fails_has_no_tau(tmp_path):
    out = tmp_path / "out"
    cfg = divergent_config(str(out))
    cfg["run"]["u0"] = True
    cfg["sweep"] = {"axis": "transmission.rho", "values": [1, 2]}
    assert main(["--quiet", "sweep", "--config", write_config(tmp_path, cfg)]) == 1
    rows = [r.split(",", 6) for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [r[2:6] for r in rows] == [["error", "", "", ""]] * 2
    assert all(r[6] == "bad data u0 spec: True" for r in rows)


def test_sweep_non_numeric_value_exits_one_before_any_point(tmp_path, capsys, monkeypatch):
    import schwarz1d.cli as cli

    def boom(sc):
        pytest.fail("no point may run")  # main turns any Exception into exit 1

    monkeypatch.setattr(cli, "run_elliptic", boom)
    out = tmp_path / "out"
    cfg = divergent_config(str(out))
    cfg["sweep"] = {"axis": "transmission.p", "values": [1.0, {"0,1": 1.0, "1,0": 50.0}]}
    assert main(["--quiet", "sweep", "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == ("error: sweep values must be a list of numbers, got "
                                       "[1.0, {'0,1': 1.0, '1,0': 50.0}]\n")
    assert not out.exists()


def test_sweep_without_any_verdict_exits_one(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "counterexample_rho_sweep.json").read_text())
    cfg["run"] = None
    out = tmp_path / "out"
    assert main(["--quiet", "sweep", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: no sweep point reached a verdict\n"
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == len(cfg["sweep"]["values"])
    assert all(row.split(",")[2] == "error" for row in rows)
    assert all(row.split(",", 6)[6] == "run must be an object; got None" for row in rows)


@pytest.mark.parametrize("section, setting, value", [
    pytest.param("run", "max_iters", 2.9, id="max_iters-2.9"),
    pytest.param("run", "max_iters", True, id="max_iters-true"),
    pytest.param("run", "rate_window", 4.5, id="rate_window-4.5"),
    pytest.param("run", "picard_max", 3.5, id="picard_max-3.5"),
    pytest.param("partition", "count", 2.7, id="count-2.7"),
])
def test_non_integral_integer_setting_exits_one(tmp_path, capsys, section, setting, value):
    cfg = laplace_config(str(tmp_path / "o"))
    body = cfg["partition"]["uniform"] if section == "partition" else cfg["run"]
    body[setting] = value
    what = "uniform partition" if section == "partition" else "run"
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == (f"error: {what} {setting} must be an integer, "
                                       f"got {value!r}\n")
    assert not (tmp_path / "o").exists()


def test_integral_float_settings_are_accepted(tmp_path):
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["run"].update(max_iters=100.0, rate_window=8.0, picard_max=200.0)
    cfg["partition"]["uniform"]["count"] = 2.0
    sc, _ = build_schwarz_config(cfg)
    assert (sc.k_max, sc.rate_window, sc.picard_max, sc.partition.count) == (100, 8, 200, 2)
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 0


def test_integer_setting_beyond_float_range_is_accepted():
    # an int is integral as it stands; it is never converted to a float
    cfg = laplace_config("o")
    cfg["run"]["max_iters"] = 10**400
    assert build_schwarz_config(cfg)[0].k_max == 10**400


HUGE = 10**400  # a JSON integer no float holds


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda c: c["grid"].update(h=HUGE), "grid h must be a finite number, got 1000",
                 id="grid-h"),
    pytest.param(lambda c: c["run"].update(u0={"polynomial": {"coeffs": [1.0, HUGE]}}),
                 "polynomial data u0 coeffs must be a finite number, got 1000", id="number-list"),
    pytest.param(lambda c: c.update(transmission={"robin": {"p": HUGE}}),
                 "Robin parameters p must be positive finite numbers, got 1000", id="robin-p"),
    pytest.param(lambda c: c.update(transmission={"robin": {"p": {"0,1": HUGE, "1,0": 1.0}}}),
                 "Robin parameters p must be positive finite numbers, got {(0, 1): 1000",
                 id="robin-table"),
    pytest.param(lambda c: c.update(transmission={"robin": {"p": 1.0, "rho": HUGE}}),
                 "rho must be a positive finite number, got 1000", id="rho"),
    pytest.param(lambda c: c["partition"]["uniform"].update(count=HUGE),
                 "overlap 0.2 too large: requires overlap < L/(2I) = 0 to keep interfaces "
                 "separated and avoid triple overlap", id="partition-count"),
    # what JSON itself reads as a non-finite float
    pytest.param(lambda c: c["run"].update(stop_tol=json.loads("Infinity")),
                 "run stop_tol must be a finite number, got inf", id="stop_tol-Infinity"),
    pytest.param(lambda c: c["run"].update(picard_tol=json.loads("1e999")),
                 "run picard_tol must be a finite number, got inf", id="picard_tol-1e999"),
    pytest.param(lambda c: c["run"].update(alpha=json.loads("-Infinity")),
                 "run alpha must be a finite number, got -inf", id="alpha-minus-Infinity"),
    pytest.param(lambda c: c["run"].update(u0={"constant": json.loads("NaN")}),
                 "constant data u0 value must be a finite number, got nan", id="u0-NaN"),
    pytest.param(lambda c: c["grid"].update(h=json.loads("1e999")),
                 "grid h must be a finite number, got inf", id="grid-h-1e999"),
])
def test_number_beyond_float_range_exits_one(tmp_path, capsys, edit, message):
    cfg = json.loads((CONFIGS / "laplace_dirichlet.json").read_text())
    edit(cfg)
    cfg["output"]["dir"] = str(tmp_path / "o")
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_sweep_value_beyond_float_range_exits_one(tmp_path, capsys):
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["transmission"] = {"robin": {"p": 1.0}}
    # JSON reads Infinity, NaN and 1e999 as non-finite floats
    for value in (HUGE, *map(json.loads, ("Infinity", "NaN", "1e999"))):
        cfg["sweep"] = {"axis": "transmission.rho", "values": [1.0, value]}
        assert main(["--quiet", "sweep", "--config", write_config(tmp_path, cfg)]) == 1, value
        assert capsys.readouterr().err == (f"error: sweep values must be a finite number, "
                                           f"got {value!r}\n")


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda c: c["run"].update(guard_factor=0), "guard_factor must be > 1",
                 id="guard_factor-0"),
    pytest.param(lambda c: c["run"].update(stop_tol=True),
                 "run stop_tol must be a number, got True", id="stop_tol-true"),
    # a misspelled setting is not ignored
    pytest.param(lambda c: c["run"].update(max_iter=3),
                 "unknown run setting(s) ['max_iter'] (known: ['alpha', 'guard_factor', "
                 "'max_iters', 'picard_max', 'picard_tol', 'rate_window', 'stop_tol', 'u0'])",
                 id="run-key-misspelled"),
    # so is a key that no reader reads, in every object
    pytest.param(lambda c: c.update(transmission={"dirichlet": {"p": 1.0}}),
                 "unknown dirichlet transmission setting(s) ['p'] (known: [])",
                 id="dirichlet-p"),
    pytest.param(lambda c: c.update(problem={**LAPLACE_INLINE, "T0": 1.0}),
                 "unknown inline problem setting(s) ['T0'] (known: ['F', 'L', 'T', 'a', 'b', "
                 "'c', 'g', 'mode', 'source'])", id="problem-key"),
    pytest.param(lambda c: c.update(problem={
                     **LAPLACE_INLINE, "a": {"constant": {"value": 1.0, "lower_bound": 1.0}}}),
                 "unknown constant coefficient a setting(s) ['lower_bound'] (known: ['value'])",
                 id="coefficient-lower_bound"),
    pytest.param(lambda c: c.update(problem={**LAPLACE_INLINE,
                                             "F": {"sine": {"param": 1.0, "lipschitz": 1.0}}}),
                 "unknown sine nonlinearity setting(s) ['lipschitz'] (known: ['param'])",
                 id="nonlinearity-key"),
    pytest.param(lambda c: c.update(problem={**LAPLACE_INLINE, "g": {"zero": {"value": 1.0}}}),
                 "unknown zero data g setting(s) ['value'] (known: [])", id="data-key"),
    pytest.param(lambda c: c["run"].update(u0={"zero": 5}), "zero data u0 must be an object, got 5",
                 id="data-body-number"),
    # an entry that is no form at all is named by its key
    *(pytest.param(lambda c, key=key: c.update(problem={**LAPLACE_INLINE, key: True}),
                   f"bad {role} {key} spec: True", id=f"{key}-true")
      for role, key in (("coefficient", "a"), ("coefficient", "b"), ("coefficient", "c"),
                        ("data", "g"), ("data", "source"))),
    pytest.param(lambda c: c["run"].update(u0=True), "bad data u0 spec: True", id="u0-true"),
    # a u0 that overflows on the grid, sampled once when the run is planned
    pytest.param(lambda c: c["run"].update(u0={"scaled-exp": {"value": 1, "rate": 1000}}),
                 "u0 (run.u0) is not finite on the grid", id="u0-not-finite"),
    # a kind that no table reads
    pytest.param(lambda c: c.update(transmission={"neumann": {}}),
                 "unknown transmission kind 'neumann'", id="transmission-kind-unknown"),
    pytest.param(lambda c: c.update(problem={**LAPLACE_INLINE, "a": {"cubic": 1}}),
                 "unknown coefficient a kind 'cubic'", id="coefficient-kind-unknown"),
    pytest.param(lambda c: c["partition"]["uniform"].update(overlpa=0.1),
                 "unknown uniform partition setting(s) ['overlpa'] (known: ['count', "
                 "'overlap'])",
                 id="partition-key"),
    pytest.param(lambda c: c["grid"].update(hh=0.01),
                 "unknown grid setting(s) ['hh'] (known: ['dt', 'h'])", id="grid-hh"),
    # the checks of each object's constructor
    pytest.param(lambda c: c.pop("problem"),
                 "config needs a 'problem' (catalog id or inline object)", id="no-problem"),
    pytest.param(lambda c: c.update(problem={**LAPLACE_INLINE, "mode": "hyperbolic"}),
                 "unknown mode 'hyperbolic'", id="problem-mode-unknown"),
    pytest.param(lambda c: c.update(problem={**LAPLACE_INLINE, "mode": "parabolic", "T": 0}),
                 "time horizon must be positive", id="problem-T-0"),
    pytest.param(lambda c: c.update(partition={"intervals": [[0.0, 1.0]]}),
                 "need at least two subdomains", id="intervals-one"),
    pytest.param(lambda c: c.update(partition={"intervals": [[0.0, 0.6], [0.6, 0.6]]}),
                 "empty subdomain (0.6, 0.6)", id="intervals-empty"),
    pytest.param(lambda c: c["partition"]["uniform"].update(count=1),
                 "need at least two subdomains", id="uniform-count-1"),
    pytest.param(lambda c: c["partition"]["uniform"].update(overlap=0),
                 "overlap must be positive", id="uniform-overlap-0"),
    pytest.param(lambda c: c["run"].update(max_iters=0), "k_max (run.max_iters) must be >= 1",
                 id="max_iters-0"),
    pytest.param(lambda c: c["output"].update(format="csv"),
                 "unknown output setting(s) ['format'] (known: ['dir'])", id="output-key"),
    pytest.param(lambda c: c["output"].update(dir=5), "output dir must be a string, got 5",
                 id="output-dir-number"),
    pytest.param(lambda c: c["output"].update(dir=None), "output dir must be a string, got None",
                 id="output-dir-null"),
    # each value is finite, but p * rho is not: it overflows, or underflows to 0
    pytest.param(lambda c: c.update(transmission={"robin": {"p": 1e200, "rho": 1e200}}),
                 "Robin parameters p * rho (rho = 1e+200) must be positive finite numbers, "
                 "got inf", id="robin-p-rho-overflow"),
    pytest.param(lambda c: c.update(transmission={"robin": {"p": {"0,1": 1e-300, "1,0": 50},
                                                            "rho": 1e-30}}),
                 "Robin parameters p * rho (rho = 1e-30) must be positive finite numbers, "
                 "got {(0, 1): 0.0, (1, 0): 5.0000000000000004e-29}",
                 id="robin-p-rho-underflow"),
    # a / h^2 past the float range: named, not a zero pivot, and no numpy warning
    pytest.param(lambda c: c.update(problem={**LAPLACE_INLINE, "a": 1e305}),
                 "subdomain 1: a matrix entry overflows a float: a / h^2, b / h or c is not "
                 "finite at h = 0.01", id="a-overflow",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    # interfaces 1e-9 apart would need 1e9 nodes: refused before any subdomain is built
    pytest.param(lambda c: c["partition"]["uniform"].update(count=1000000, overlap=1e-9),
                 "overlap 1e-09 too small: interfaces that close need h <= overlap, more than "
                 "10000000 grid nodes on L = 1", id="uniform-overlap-tiny"),
    # cell and level counts past the float range
    pytest.param(lambda c: c["grid"].update(h=1e-320),
                 "h_target must be positive and L / h_target finite, got 1e-320", id="grid-h-tiny"),
    pytest.param(lambda c: c.update(problem="heat-semilinear", grid={"h": 0.01, "dt": 1e-310}),
                 "dt_target and time_horizon must be positive and T / dt_target finite, got "
                 "1e-310 and 2.0", id="grid-dt-tiny"),
    # a node count past the grid's cap, refused before anything is allocated
    pytest.param(lambda c: c["grid"].update(h=1e-15),
                 "h_target 1e-15 needs 1000000000000001 nodes; at most 10000000 are allowed",
                 id="grid-h-too-fine"),
    # a level count past the space-time cap, refused before anything is allocated
    pytest.param(lambda c: c.update(problem="heat-semilinear", grid={"h": 0.01, "dt": 1e-13}),
                 "dt_target 1e-13 needs 20000000000001 time levels x 101 nodes = "
                 "2020000000000101 values; at most 50000000 are allowed", id="grid-dt-too-fine"),
    # a sweep section, which sweep reads before its first point
    pytest.param(lambda c: c.update(sweep={"axis": 5, "values": [0.01]}),
                 "sweep axis must be a string, got 5", id="sweep-axis-number"),
    pytest.param(lambda c: c.update(sweep={"axis": "grid.h", "values": ["a"]}),
                 "sweep values must be a list of numbers, got ['a']", id="sweep-values-string"),
    pytest.param(lambda c: c.update(sweep={"axis": "grid.h", "values": [json.loads("1e999")]}),
                 "sweep values must be a finite number, got inf", id="sweep-values-1e999"),
    pytest.param(lambda c: c.update(sweep={"axis": "grid.h", "values": []}),
                 "sweep values must be a nonempty list of numbers, got []",
                 id="sweep-values-empty"),
    pytest.param(lambda c: c.update(sweep={"axis": "grid.hh", "values": [0.01]}),
                 "cannot sweep grid.hh: grid has no 'hh' entry", id="sweep-axis-unknown"),
])
def test_validate_rejects_what_run_rejects(tmp_path, capsys, edit, message):
    cfg = json.loads((CONFIGS / "laplace_dirichlet.json").read_text())
    cfg["output"]["dir"] = str(tmp_path / "o")
    edit(cfg)
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 1
    assert capsys.readouterr().out == f"{message}\n"
    command = "sweep" if "sweep" in cfg else "run"  # run does not read the sweep section
    assert main(["--quiet", command, "--config", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, edit, message", [
    pytest.param("run", lambda c: c.update(outptu={"dir": "x"}),
                 "unknown config setting(s) ['outptu'] (known: ['grid', 'output', 'partition', "
                 "'problem', 'run', 'schema_version', 'sweep', 'transmission'])", id="root-key"),
    pytest.param("sweep", lambda c: c["sweep"].update(step=2),
                 "unknown sweep setting(s) ['step'] (known: ['axis', 'values'])", id="sweep-key"),
])
def test_unknown_key_outside_run_setup_exits_one_naming_it(tmp_path, capsys, command, edit,
                                                            message):
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["sweep"] = {"axis": "grid.h", "values": [0.01]}
    edit(cfg)
    assert main(["--quiet", command, "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("make, edit", [
    pytest.param(divergent_config, lambda c: c["transmission"]["robin"]["p"].pop("1,0"),
                 id="robin-table-misses-an-interface"),
    pytest.param(divergent_config,
                 lambda c: c["transmission"]["robin"]["p"].update({"5,6": 2.0}),
                 id="robin-table-names-a-non-interface"),
    pytest.param(functools.partial(shipped_config, "counterexample_divergent"),
                 lambda c: c["grid"].update(h=0.05), id="interface-too-shallow"),
    pytest.param(functools.partial(shipped_config, "heat_dirichlet"),
                 lambda c: c["grid"].pop("dt"), id="parabolic-without-dt"),
    # a number is a constant, which must be finite
    pytest.param(laplace_config, lambda c: c["run"].update(u0=math.nan), id="u0-number"),
    pytest.param(laplace_config, lambda c: c.update(problem="nope"), id="unknown-problem"),
    pytest.param(singular_robin_config, lambda c: None, id="singular-robin-elimination"),
    # an elliptic run has no time axis, so a grid.dt would be ignored
    pytest.param(functools.partial(shipped_config, "laplace_dirichlet"),
                 lambda c: c["grid"].update(dt=0.5), id="elliptic-with-dt"),
])
def test_validate_prints_what_run_prints_before_its_first_solve(tmp_path, capsys, make, edit):
    cfg = make(str(tmp_path / "o"))
    edit(cfg)
    path = write_config(tmp_path, cfg)
    assert main(["--quiet", "run", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert not (tmp_path / "o").exists()
    assert main(["validate", "--config", path]) == 1
    assert capsys.readouterr().out == err[len("error: "):]


@pytest.mark.parametrize("name", ["heat_robin", "heat_dirichlet"])
def test_alpha_whose_norm_arithmetic_overflows_exits_one_naming_it(tmp_path, capsys, name):
    # the norms weight a level at time t by exp(-y t), y up to 10 alpha + 1: at
    # alpha = 1e308 the Robin seminorm's window starts overflowed (the run ended
    # diverged after no iteration) and so did the weight of the Dirichlet run's
    # sup norm (it converged at iteration 1 with E = 0)
    cfg = shipped_config(name, str(tmp_path / "o"))
    cfg["run"]["alpha"] = 1e308
    path = write_config(tmp_path, cfg)
    message = "alpha (run.alpha) = 1e+308 is too large for T = 2.0: (10 alpha + 1) T must be finite"
    assert main(["validate", "--config", path]) == 1
    assert capsys.readouterr().out == f"{message}\n"
    assert main(["--quiet", "run", "--config", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("alpha", [1e6, 7.1e5])
@pytest.mark.parametrize("name", ["heat_robin", "heat_dirichlet"])
def test_alpha_whose_norm_weights_underflow_exits_one_naming_it(tmp_path, capsys, name, alpha):
    # at dt = 1e-3, exp(-alpha dt) is below the least normal float once
    # alpha dt > 708.4: no level after t = 0 carries a weight, and a run
    # would converge at iteration 1 with E = 0 whatever its iterate
    cfg = shipped_config(name, str(tmp_path / "o"))
    cfg["run"]["alpha"] = alpha
    path = write_config(tmp_path, cfg)
    message = (f"alpha (run.alpha) = {alpha!r} is too large for dt (grid.dt) = 0.001: "
               "exp(-alpha dt) underflows, so no time level after t = 0 carries a weight")
    assert main(["validate", "--config", path]) == 1
    assert capsys.readouterr().out == f"{message}\n"
    assert main(["--quiet", "run", "--config", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["heat_robin", "heat_dirichlet"])
def test_alpha_below_the_underflow_bound_passes_validate(tmp_path, capsys, name):
    # alpha dt = 700: exp(-700) is a normal float
    cfg = shipped_config(name, str(tmp_path / "o"))
    cfg["run"]["alpha"] = 7e5
    assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().out == "ok: every check run makes before its first solve passed\n"


def test_validate_prints_each_operator_warning(tmp_path, capsys):
    # h = 0.02 is above the diagonal-dominance threshold h* = 2 a / |b| = 0.01
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["problem"] = {"mode": "elliptic", "L": 1.0, "a": {"constant": 1.0},
                      "b": {"constant": 200.0}, "c": {"constant": 0.0}}
    cfg["grid"]["h"] = 0.02
    assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"warning: subdomain {l}: h = 0.02 above diagonal-dominance threshold h* = 0.01"
        for l in (1, 2)] + ["ok: every check run makes before its first solve passed"]


@pytest.mark.parametrize("name, command, code, calls", [
    ("counterexample_divergent", "run", 2, 1),
    ("counterexample_rho_sweep", "sweep", 0, 11),
])
def test_each_interface_is_resolved_once_per_run(tmp_path, monkeypatch, name, command, code,
                                                 calls):
    import schwarz1d.transmission as tx

    count = []
    links = tx.links

    def counted(*args, **kwargs):
        count.append(1)
        return links(*args, **kwargs)

    monkeypatch.setattr(tx, "links", counted)
    assert main(["--quiet", command, "--config", str(CONFIGS / f"{name}.json"),
                 "--out", str(tmp_path)]) == code
    assert len(count) == calls


@pytest.mark.parametrize("run", [{}, None], ids=["empty", "absent"])
def test_run_section_defaults_are_schwarz_config_defaults(tmp_path, run):
    cfg = laplace_config(str(tmp_path / "o"))
    if run is None:
        del cfg["run"]
    else:
        cfg["run"] = run
    sc, _ = build_schwarz_config(cfg)
    defaults = {f.name: f.default for f in dataclasses.fields(SchwarzConfig)
                if f.default is not dataclasses.MISSING}
    assert set(defaults) >= {"u0", "k_max", "stop_tol", "alpha", "picard_tol", "picard_max",
                             "guard_factor", "rate_window"}
    assert {name: getattr(sc, name) for name in defaults} == defaults


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda c: c.update(transmission={"robin": {"p": {"a": 1.0, "1,0": 50.0}}}),
                 'Robin table key \'a\' must have the form "l,m" (receiving and neighbor '
                 "subdomain index)", id="key-not-a-pair"),
    pytest.param(lambda c: c["transmission"]["robin"]["p"].update({"5,6": 2.0}),
                 "transmission table names non-interface pairs [(5, 6)]",
                 id="pair-not-an-interface"),
    pytest.param(lambda c: c["transmission"]["robin"]["p"].pop("1,0"),
                 "transmission table missing interfaces [(1, 0)]", id="interface-missing"),
    pytest.param(lambda c: c["grid"].update(h=0.05),
                 "interface of subdomain 0 lies only 1 node(s) inside neighbor 1; need >= 2 "
                 "(refine h or widen the overlap)", id="interface-too-shallow"),
])
def test_bad_interface_setup_exits_one_naming_it(tmp_path, capsys, edit, message):
    cfg = divergent_config(str(tmp_path / "o"))
    edit(cfg)
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda p: p.pop("a"), "inline problem needs a 'a' entry", id="no-a"),
    pytest.param(lambda p: p.update(c={"constant": {}}),
                 "constant coefficient c needs a 'value' entry", id="constant-no-value"),
])
def test_inline_problem_missing_entry_is_named(tmp_path, capsys, edit, message):
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["problem"] = {"mode": "elliptic", "L": 1.0, "a": {"constant": 1.0},
                      "b": {"constant": 0.0}, "c": {"constant": 0.0}}
    edit(cfg["problem"])
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda p: p.update(a={"constant": {"value": None}}),
                 "constant coefficient a value must be a number, got None", id="a-value-null"),
    pytest.param(lambda p: p.update(F={"sine": {"param": [1]}}),
                 "sine nonlinearity param must be a number, got [1]", id="F-param-list"),
    pytest.param(lambda p: p.update(source={"polynomial": {"coeffs": 3}}),
                 "polynomial data source coeffs must be a list of numbers, got 3",
                 id="source-coeffs-number"),
    pytest.param(lambda p: p.update(g={"sine": {"mode": None}}),
                 "sine data g mode must be a number, got None", id="g-mode-null"),
    pytest.param(lambda p: p.update(L=None), "inline problem L must be a number, got None",
                 id="L-null"),
    # JSON true and numeric strings are not numbers
    pytest.param(lambda p: p.update(L="1.0"), "inline problem L must be a number, got '1.0'",
                 id="L-string"),
    pytest.param(lambda p: p.update(a={"constant": True}),
                 "constant coefficient a value must be a number, got True", id="a-value-true"),
    pytest.param(lambda p: p.update(g={"sine": {"mode": True}}),
                 "sine data g mode must be an integer, got True", id="g-mode-true"),
    pytest.param(lambda p: p.update(g={"sine": {"mode": "2"}}),
                 "sine data g mode must be a number, got '2'", id="g-mode-string"),
])
def test_inline_problem_number_of_wrong_type_is_named(tmp_path, capsys, edit, message):
    cfg = json.loads((CONFIGS / "laplace_dirichlet.json").read_text())
    cfg["problem"] = {"mode": "elliptic", "L": 1.0, "a": {"constant": 1.0},
                      "b": {"constant": 0.0}, "c": {"constant": 4.0}}
    cfg["output"]["dir"] = str(tmp_path / "o")
    edit(cfg["problem"])
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


# every form a config writes as {kind: body}: where it goes in the laplace
# config, the role and key its errors name, and its read_form table
_FORM_PLACES = [
    (lambda c, form: c.update(problem={**LAPLACE_INLINE, "c": form}), "coefficient c",
     Fn._FORMS),
    (lambda c, form: c.update(problem={**LAPLACE_INLINE, "source": form}), "data source",
     Fn._FORMS),
    (lambda c, form: c["run"].update(u0=form), "data u0", Fn._FORMS),
    (lambda c, form: c.update(problem={**LAPLACE_INLINE, "F": form}), "nonlinearity",
     Nonlinearity._FORMS),
    (lambda c, form: c.update(transmission=form), "transmission", TransmissionSpec._FORMS),
    (lambda c, form: c.update(partition=form), "partition", _PARTITIONS),
]
# a value each entry reads
_VALID = {"value": 1.0, "rate": 0.0, "coeffs": [1.0], "amplitude": 3.0, "mode": 1,
          "param": 1.0, "p": 1.0, "rho": 2.0, "count": 2, "overlap": 0.2,
          "subdomains": [[0.0, 0.6], [0.4, 1.0]]}


def _form_body_cases():
    for place, what, forms in _FORM_PLACES:
        for kind, (_, entries) in forms.items():
            required = {key: _VALID[key] for key, (_, default) in entries.items()
                        if default is REQUIRED}
            name = f"{what.split()[-1]}-{kind}"
            for key in required:
                yield pytest.param(place, {kind: {k: v for k, v in required.items() if k != key}},
                                   f"{kind} {what} needs a {key!r} entry", id=f"{name}-no-{key}")
            yield pytest.param(place, {kind: {**required, "bogus": 1}},
                               f"unknown {kind} {what} setting(s) ['bogus']", id=f"{name}-bogus")
            # a transmission's p and rho are checked by its constructor
            for key in entries if forms is not TransmissionSpec._FORMS else ():
                yield pytest.param(place, {kind: {**required, key: "1"}},
                                   f"{kind} {what} {key} must be ", id=f"{name}-{key}-string")


@pytest.mark.parametrize("place, form, message", _form_body_cases())
def test_form_body_error_names_kind_role_and_entry(tmp_path, capsys, place, form, message):
    cfg = laplace_config(str(tmp_path / "o"))
    place(cfg, form)
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cls, what", [
    pytest.param(Fn, "data g", id="Fn"),
    pytest.param(Nonlinearity, None, id="Nonlinearity"),
    pytest.param(TransmissionSpec, None, id="TransmissionSpec"),
])
def test_bare_body_reads_as_the_kinds_main_entry(cls, what):
    def read(form):
        return cls.from_dict(form, what) if what else cls.from_dict(form)

    for kind, (main_entry, entries) in cls._FORMS.items():
        required = {key: _VALID[key] for key, (_, default) in entries.items()
                    if default is REQUIRED}
        if main_entry is None:  # a bare body is refused, never read as an entry
            with pytest.raises(ValueError):
                read({kind: 2.0})
        else:
            bare = {kind: _VALID[main_entry]}
            assert read(bare) == read({kind: {**required, main_entry: _VALID[main_entry]}})


def test_bare_intervals_list_reads_as_the_partitions_subdomains():
    cfg = laplace_config("o")
    cfg["partition"] = {"intervals": _VALID["subdomains"]}
    bare = build_schwarz_config(cfg)[0].partition
    cfg["partition"] = {"intervals": {"subdomains": _VALID["subdomains"]}}
    assert build_schwarz_config(cfg)[0].partition == bare


def test_subdomain_failure_mid_run_keeps_the_finite_iterations(tmp_path, capsys, monkeypatch):
    # the 79th subdomain solve, iteration 40's first, fails its Picard loop;
    # the 39 iterations before it stay in history.csv
    import schwarz1d.schwarz as engine

    calls = itertools.count(1)
    solve = engine.solve_semilinear_elliptic

    def failing(*args, **kwargs):
        if next(calls) == 79:
            raise RuntimeError("Picard iteration did not reach 1e-10 in 200 steps")
        return solve(*args, **kwargs)

    monkeypatch.setattr(engine, "solve_semilinear_elliptic", failing)
    out = tmp_path / "o"
    cfg = divergent_config(str(out))
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: iteration 40, subdomain 1: Picard iteration did not reach 1e-10 "
                   "in 200 steps\n")
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0] == "k,l,norm,E_k,rate,verdict"
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(k, l) for k in range(1, 40)
                                                      for l in (1, 2)]
    assert all(math.isfinite(float(r[2])) and r[5] == "error" for r in rows)
    assert not (out / "summary.txt").exists()


def test_semilinear_counterexample_diverges_at_the_linear_rate(tmp_path):
    # example31 with F = 2 sin(u) at h = 5e-3: F is bounded, so it fades
    # against the growing iterate, and the run diverges at the linear run's
    # rate; the solve's round-off grows with the iterate, which a spent
    # Picard budget forgives within picard_tol * max|u|
    rates = {}
    for name, F in (("linear", {"zero": {}}), ("semilinear", {"sine": {"param": 2}})):
        cfg = shipped_config("counterexample_divergent", str(tmp_path / name))
        cfg["problem"] = {"mode": "elliptic", "L": 2, "a": 1, "b": 3, "c": 4, "F": F,
                          "source": {"sine": {"amplitude": -1}}}
        cfg["grid"]["h"] = 5e-3
        assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 2
        summary = dict(line.split(":", 1)
                       for line in (tmp_path / name / "summary.txt").read_text().splitlines())
        assert summary["verdict"].strip() == "diverged"
        rates[name] = float(summary["rate/double"])
    assert rates["semilinear"] == pytest.approx(rates["linear"], rel=1e-6, abs=0.0)


_CLI_IMPORT_LOADS = "import sys, schwarz1d.cli; print(sys.argv[1] in sys.modules)"


def test_cli_import_does_not_load_scipy_integrate(fresh_python):
    assert fresh_python(_CLI_IMPORT_LOADS, "scipy.integrate").strip() == "False"


def test_cli_import_does_not_load_scipy_linalg(fresh_python):
    # gttrf / gttrs come from scipy's LAPACK extension alone
    assert fresh_python(_CLI_IMPORT_LOADS, "scipy.linalg").strip() == "False"


@pytest.mark.parametrize("problem, setting, value, message", [
    pytest.param("elliptic-semilinear", "picard_max", 0, "picard_max must be >= 1",
                 id="semilinear-picard_max-0"),
    pytest.param("laplace1d", "picard_max", 0, "picard_max must be >= 1",
                 id="linear-picard_max-0"),
    pytest.param("elliptic-semilinear", "picard_tol", 0.0, "picard_tol must be positive",
                 id="semilinear-picard_tol-0"),
])
def test_run_rejects_picard_settings_out_of_range(tmp_path, capsys, problem, setting, value,
                                                  message):
    cfg = json.loads((CONFIGS / "laplace_dirichlet.json").read_text())
    cfg["problem"] = problem
    cfg["run"][setting] = value
    cfg["output"]["dir"] = str(tmp_path / "o")
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, section, body", [
    pytest.param("run", "run", None, id="run-null"),
    pytest.param("sweep", "sweep", None, id="sweep-null"),
    pytest.param("run", "grid", None, id="grid-null"),
    pytest.param("run", "grid", {"h": None}, id="grid-h-null"),
    pytest.param("run", "output", None, id="output-null"),
    pytest.param("run", "partition", {"uniform": None}, id="partition-uniform-null"),
    pytest.param("run", "partition", {"intervals": [1.0, 2.0]}, id="partition-intervals-flat"),
    pytest.param("run", "transmission", {"robin": {"p": "x"}}, id="robin-p-string"),
    pytest.param("run", "transmission", {"robin": {"p": 1.0, "rho": "x"}},
                 id="scaled-robin-rho-string"),
    pytest.param("sweep", "sweep", {"axis": "transmission.rho", "values": "12"},
                 id="sweep-values-string"),
    pytest.param("sweep", "transmission", None, id="sweep-transmission-null"),
    pytest.param("sweep", "output", {"dir": 5}, id="sweep-output-dir-number"),
    pytest.param("sweep", "sweep", {"axis": 5, "values": [1.0, 2.0]}, id="sweep-axis-number"),
    pytest.param("sweep", "sweep", {"axis": ["transmission.rho"], "values": [1.0, 2.0]},
                 id="sweep-axis-list"),
])
def test_malformed_config_section_exits_one_without_traceback(tmp_path, capsys, monkeypatch,
                                                              command, section, body):
    import schwarz1d.cli as cli

    def boom(sc):
        pytest.fail("no run may start")  # main turns any Exception into exit 1

    monkeypatch.setattr(cli, "run_elliptic", boom)
    cfg = divergent_config(str(tmp_path / "o"))
    cfg["sweep"] = {"axis": "transmission.rho", "values": [1.0, 2.0]}
    cfg[section] = body
    assert main(["--quiet", command, "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


# JSON true and numeric strings are not numbers, in any section
@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda c: c["run"].update(stop_tol=True),
                 "run stop_tol must be a number, got True", id="stop_tol-true"),
    pytest.param(lambda c: c["grid"].update(h="0.01"), "grid h must be a number, got '0.01'",
                 id="h-string"),
    pytest.param(lambda c: c["partition"]["uniform"].update(overlap="0.2"),
                 "uniform partition overlap must be a number, got '0.2'",
                 id="overlap-string"),
    pytest.param(lambda c: c.update(partition={"intervals": [["0.0", 0.6], [0.4, "1.0"]]}),
                 "intervals partition subdomains must be a number, got '0.0'",
                 id="interval-end-string"),
])
def test_config_value_of_wrong_json_type_exits_one(tmp_path, capsys, edit, message):
    cfg = json.loads((CONFIGS / "laplace_dirichlet.json").read_text())
    cfg["output"]["dir"] = str(tmp_path / "o")
    edit(cfg)
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("intervals", [
    pytest.param([[0.0, 1.0], [0.3, 0.6]], id="two-subdomains"),
    pytest.param([[0.0, 0.5], [0.4, 1.0], [0.6, 0.7]], id="three-subdomains"),
])
def test_nested_subdomain_fails_validation(tmp_path, capsys, intervals):
    # the nested subdomain has both its ends inside one neighbor, but the
    # exchange holds one datum per (receiving, neighbor) pair
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["partition"] = {"intervals": intervals}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", cfg_path]) == 1
    assert "interface placement: subdomain" in capsys.readouterr().out
    assert main(["--quiet", "run", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: partition fails validation: interface placement")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("intervals, subdomain", [
    pytest.param([[0.0, 0.6], [0.4, 1.2]], "subdomain 1 = (0.4, 1.2)", id="past-L"),
    pytest.param([[-0.1, 0.6], [0.4, 1.0]], "subdomain 0 = (-0.1, 0.6)", id="before-0"),
])
def test_subdomain_outside_the_domain_fails_validation(tmp_path, capsys, intervals, subdomain):
    # a subdomain that reaches past L or before 0 lies outside (0, L), and
    # validation names that rule and the subdomain
    message = (f"partition fails validation: union/overlap: {subdomain} is not inside "
               f"(0, L) = (0, 1)\n")
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["partition"] = {"intervals": intervals}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", cfg_path]) == 1
    assert capsys.readouterr().out == message
    assert main(["--quiet", "run", "--config", cfg_path]) == 1
    assert capsys.readouterr().err == f"error: {message}"
    assert not (tmp_path / "o").exists()


def test_subdomain_at_an_outer_end_of_the_one_that_holds_it_runs_and_converges(tmp_path):
    # neither partition is a chain: subdomain 0 of the first and subdomain 1
    # of the second share an outer end with the other, so each has one interface
    for name, intervals in (("left", [[0.0, 0.5], [0.0, 1.0]]),
                            ("right", [[0.0, 1.0], [0.5, 1.0]])):
        cfg = laplace_config(str(tmp_path / name))
        cfg["partition"] = {"intervals": intervals}
        assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 0
        summary = summary_lines(tmp_path / name)
        assert "verdict:        converged" in summary and "iterations:     2" in summary


@pytest.mark.parametrize("setting, value, message", [
    pytest.param("guard_factor", 0, "guard_factor must be > 1", id="guard_factor-0"),
    pytest.param("guard_factor", 1.0, "guard_factor must be > 1", id="guard_factor-1"),
    pytest.param("rate_window", 0, "rate_window must be >= 1", id="rate_window-0"),
    pytest.param("rate_window", -3, "rate_window must be >= 1", id="rate_window-negative"),
])
def test_run_rejects_verdict_settings_out_of_range(tmp_path, capsys, setting, value, message):
    # with guard_factor <= 1 this Dirichlet run, which contracts, would be
    # called diverged; rate_window < 1 leaves no iteration pair to fit the
    # rate on
    cfg = json.loads((CONFIGS / "laplace_dirichlet.json").read_text())
    cfg["run"][setting] = value
    cfg["output"]["dir"] = str(tmp_path / "o")
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def summary_lines(out: Path, skip=("wall time",)) -> list[str]:
    """The lines of ``out``/summary.txt, without those that start with ``skip``."""
    lines = (out / "summary.txt").read_text().splitlines()
    return [line for line in lines if not line.startswith(skip)]


def test_oracle_tau_does_not_depend_on_subdomain_order(tmp_path, shipped_run):
    # the shipped divergent run with its two subdomains listed right to left;
    # the table names the same interfaces, so the run and its tau are the same
    cfg = json.loads((CONFIGS / "counterexample_divergent.json").read_text())
    cfg["partition"] = {"intervals": [[1.9, 2.0], [0.0, 1.95]]}
    cfg["transmission"] = {"robin": {"p": {"1,0": 1.0, "0,1": 50.0}}}
    cfg["output"]["dir"] = str(tmp_path / "o")
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 2
    _, forward = shipped_run("counterexample_divergent")
    assert "oracle tau:     1.2077311921632212" in summary_lines(tmp_path / "o")
    assert summary_lines(tmp_path / "o") == summary_lines(forward)


def test_inline_example31_gets_the_catalog_runs_oracle_tau(tmp_path, shipped_run):
    # the closed form is keyed on the operator, not on the catalog name; the
    # source, which the errors do not see, is written another way
    cfg = shipped_config("counterexample_divergent", str(tmp_path / "o"))
    cfg["problem"] = {"mode": "elliptic", "L": 2, "a": 1, "b": 3, "c": 4,
                      "source": {"sine": {"amplitude": -1}}}
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 2
    _, catalog = shipped_run("counterexample_divergent")
    skip = ("wall time", "problem:")
    assert "oracle tau:     1.2077311921632212" in summary_lines(tmp_path / "o", skip)
    assert summary_lines(tmp_path / "o", skip) == summary_lines(catalog, skip)
    assert (tmp_path / "o" / "history.csv").read_bytes() == (catalog / "history.csv").read_bytes()


@pytest.mark.parametrize("name", ["laplace_dirichlet", "heat_dirichlet", "heat_robin"])
def test_shipped_runs_off_the_oracle_model_print_no_oracle_tau(shipped_run, name):
    code, out = shipped_run(name)
    assert code == 0
    assert not [line for line in summary_lines(out) if line.startswith("oracle tau:")]


# Recorded with `schwarz1d --quiet <command> --config configs/<name>.json
# --out tests/data/<name>`.  Measured columns are compared to 1e-12 relative
# because another LAPACK build may round the last digit differently.
_MEASURED = {"norm", "E_k", "rate", "rate_double", "tau"}


@pytest.mark.parametrize("name, command, csv, code", [
    ("laplace_dirichlet", "run", "history.csv", 0),
    ("counterexample_divergent", "run", "history.csv", 2),
    ("counterexample_rho_sweep", "sweep", "sweep.csv", 0),
    ("heat_dirichlet", "run", "history.csv", 0),
    ("heat_robin", "run", "history.csv", 0),
])
def test_shipped_config_reproduces_recorded_csv(shipped_run, name, command, csv, code):
    got_code, out = shipped_run(name, command)
    assert got_code == code
    got = (out / csv).read_text().splitlines()
    want = (DATA / name / csv).read_text().splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0].split(",")
    for got_row, want_row in zip(got[1:], want[1:]):
        got_cells, want_cells = got_row.split(","), want_row.split(",")
        assert len(got_cells) == len(want_cells) == len(header)
        for column, g, w in zip(header, got_cells, want_cells):
            if column in _MEASURED and w:
                assert float(g) == pytest.approx(float(w), rel=1e-12, abs=0), (column, want_row)
            else:
                assert g == w, (column, want_row)


@pytest.mark.parametrize("exc, message", [
    pytest.param(TypeError("boom"), "boom", id="type-error"),
    pytest.param(MemoryError(), "MemoryError", id="no-message"),
])
def test_any_failure_is_one_error_line_without_traceback(tmp_path, capsys, monkeypatch, exc,
                                                          message):
    import schwarz1d.schwarz as schwarz

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(schwarz, "build_grid", fail)
    cfg_path = write_config(tmp_path, laplace_config(str(tmp_path / "o")))
    assert main(["--quiet", "run", "--config", cfg_path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["validate", "--config", cfg_path]) == 1
    assert capsys.readouterr() == (f"{message}\n", "")


@pytest.mark.parametrize("argv", [
    pytest.param(["run"], id="run-without-config"),
    pytest.param(["run", "--config", "c.json", "--quiet"], id="flag-after-the-command"),
    pytest.param(["tau", "--L", "x", "--L1", "1.9", "--L2", "1.95", "--p", "1", "--q", "50"],
                 id="tau-length-not-a-number"),
])
def test_a_usage_error_is_one_error_line_and_exit_one(capsys, argv):
    # not argparse's usage text and exit 2, which is run's "diverged"
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tau", "--help"])
    assert exc.value.code == 0
    assert "--q" in capsys.readouterr().out


def test_large_linear_nonlinearity_converges(tmp_path):
    # F = 1000 u with c = 2000 satisfies c > C = |1000| exactly
    cfg = json.loads((CONFIGS / "laplace_dirichlet.json").read_text())
    cfg["problem"] = {"mode": "elliptic", "L": 1.0,
                      "a": {"constant": {"value": 1.0}},
                      "b": {"constant": 0.0}, "c": {"constant": 2000.0},
                      "F": {"linear-in-u": {"param": 1000.0}},
                      "source": {"constant": {"value": 1.0}}}
    cfg["output"]["dir"] = str(tmp_path / "o")
    cfg_path = write_config(tmp_path, cfg)
    assert main(["--quiet", "validate", "--config", cfg_path]) == 0
    assert main(["--quiet", "run", "--config", cfg_path]) == 0
    assert "verdict:        converged" in (tmp_path / "o" / "summary.txt").read_text()


def test_largest_finite_robin_parameter_still_runs(tmp_path):
    cfg = shipped_config("counterexample_divergent", str(tmp_path / "o"))
    cfg["transmission"] = {"robin": {"p": 1e308}}
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 0


def test_picard_max_sizes_no_allocation(tmp_path):
    # a budget far beyond memory runs as the default one does
    cfg = shipped_config("heat_dirichlet", "")
    cfg["grid"] = {"h": 0.02, "dt": 0.01}
    history = {}
    for picard_max in (200, 10**15):
        cfg["run"]["picard_max"] = picard_max
        out = tmp_path / str(picard_max)
        cfg["output"]["dir"] = str(out)
        assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 0
        history[picard_max] = (out / "history.csv").read_bytes()
    assert history[10**15] == history[200]
