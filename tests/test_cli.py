import json
import math
from pathlib import Path

import pytest

from schwarz1d.cli import build_schwarz_config, main
from schwarz1d.geometry import build_uniform_partition
from schwarz1d.oracle import AnalyticCase, tau_factors
from schwarz1d.problem import DataFn
from schwarz1d.schwarz import run_elliptic

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
    assert main(["tau", "--L", "2", "--L1", "1.9", "--L2", "1.95",
                 "--p", "1", "--q", "50", "--rho", "64"]) == 0
    assert "verdict: converge" in capsys.readouterr().out


def test_tau_degenerate_exits_one(capsys):
    # negative q solving phi2'(L1) = q phi2(L1) zeroes the denominator
    import math
    L, L1 = 2.0, 1.0
    w = math.exp(4 * (L1 - L)) - math.exp(-(L1 - L))
    dw = 4 * math.exp(4 * (L1 - L)) + math.exp(-(L1 - L))
    assert main(["tau", "--L", "2", "--L1", "1", "--L2", "1.5",
                 "--p", "1", "--q", str(dw / w)]) == 1


def test_sweep_rho_locates_empirical_threshold(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = divergent_config(str(out))
    cfg["transmission"] = {"scaled_robin": {"p": {"0,1": 1.0, "1,0": 50.0}, "rho": 1.0}}
    cfg["run"]["max_iters"] = 200
    cfg["run"]["stop_tol"] = 1e-9
    cfg["sweep"] = {"axis": "transmission.rho", "values": [1, 2, 4, 8]}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["--quiet", "sweep", "--config", cfg_path]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "axis,value,verdict,iterations,rate_double,tau,error"
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


def test_run_stalled_exits_one(tmp_path, capsys):
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["run"]["max_iters"] = 3  # cannot converge that fast
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    assert "stalled" in capsys.readouterr().err


def test_run_engine_failure_reports_error_without_traceback(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "heat_dirichlet.json").read_text())
    cfg["run"]["picard_max"] = 1  # the reference solve's Picard loop fails at once
    cfg["output"]["dir"] = str(tmp_path / "o")
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: reference solve: time level 1")
    assert "Picard" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("u0", [0.5, "foo"])
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


def test_subdomain_operator_failure_names_the_subdomain(tmp_path, capsys):
    # b = 2a/h zeroes the super-diagonal, so the left Robin row of subdomain
    # 2 cannot eliminate its third stencil point
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["problem"] = {"mode": "elliptic", "L": 1.0, "a": {"constant": 1.0},
                      "b": {"constant": 128.0}, "c": {"constant": 0.0},
                      "F": {"zero": {}}, "g": {"zero": {}}}
    cfg["partition"] = {"uniform": {"count": 2, "overlap": 0.125}}
    cfg["grid"]["h"] = 1.0 / 64
    cfg["transmission"] = {"robin": {"p": 1.0}}
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "subdomain 2: cannot eliminate Robin stencil point" in err
    assert "Traceback" not in err


def test_scaled_robin_without_rho_names_the_missing_entry(tmp_path, capsys):
    cfg = laplace_config(str(tmp_path / "o"))
    cfg["transmission"] = {"scaled_robin": {"p": 1.0}}
    assert main(["--quiet", "run", "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scaled_robin transmission needs a 'rho' entry")
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
    assert sc.u0 == DataFn.sine(2.0)
    assert got == run_elliptic(sc).E


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
    assert main(["--quiet", "sweep", "--config", write_config(tmp_path, cfg)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["error", "error"]
    assert all("needs a 'p' entry" in r.split(",", 6)[6] for r in rows)


def test_sweep_non_numeric_value_exits_one_before_any_point(tmp_path, capsys, monkeypatch):
    import schwarz1d.cli as cli

    def boom(sc):
        raise AssertionError("no point may run")

    monkeypatch.setattr(cli, "run_elliptic", boom)
    out = tmp_path / "out"
    cfg = divergent_config(str(out))
    cfg["sweep"] = {"axis": "transmission.p", "values": [1.0, {"0,1": 1.0, "1,0": 50.0}]}
    assert main(["--quiet", "sweep", "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sweep values must be numbers")
    assert "Traceback" not in err
    assert not out.exists()


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
    pytest.param("run", "transmission", {"scaled_robin": {"p": 1.0, "rho": "x"}},
                 id="scaled-robin-rho-string"),
    pytest.param("sweep", "sweep", {"axis": "transmission.rho", "values": "12"},
                 id="sweep-values-string"),
    pytest.param("sweep", "transmission", None, id="sweep-transmission-null"),
])
def test_malformed_config_section_exits_one_without_traceback(tmp_path, capsys, monkeypatch,
                                                              command, section, body):
    import schwarz1d.cli as cli

    def boom(sc):
        raise AssertionError("no run may start")

    monkeypatch.setattr(cli, "run_elliptic", boom)
    cfg = divergent_config(str(tmp_path / "o"))
    cfg["sweep"] = {"axis": "transmission.rho", "values": [1.0, 2.0]}
    cfg[section] = body
    assert main(["--quiet", command, "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


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
def test_shipped_config_reproduces_recorded_csv(tmp_path, name, command, csv, code):
    config = str(CONFIGS / f"{name}.json")
    assert main(["--quiet", command, "--config", config, "--out", str(tmp_path)]) == code
    got = (tmp_path / csv).read_text().splitlines()
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
