"""Command line behaviour: parsing, config layering, exit codes, verify driver."""

import json
import math
import operator
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qtrap import cli, quad, spectral
from qtrap.cli import EXIT_CHECK_FAILED, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from qtrap.special import bessel_zeros


def _parse(text):
    """Split '#'-metadata, header and float rows of a command's CSV output."""
    meta, header, rows = {}, None, []
    for line in text.strip().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            meta[key.strip()] = val.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) if v else math.nan for v in line.split(",")])
    return meta, header, rows


def test_zeros_table(capsys):
    assert main(["zeros", "--m", "2", "--nmax", "5"]) == EXIT_OK
    meta, header, rows = _parse(capsys.readouterr().out)
    assert meta["command"] == "zeros"
    assert header == ["m", "n", "x_mn"]
    table = bessel_zeros(2, 5)
    assert len(rows) == 5
    for row, want in zip(rows, table.zeros):
        assert row[0] == 2.0
        np.testing.assert_allclose(row[2], want, rtol=1e-12)


def test_energy_sweep(capsys):
    rc = main(["energy", "--m", "0", "--n", "1", "--alpha-ratio", "1.0",
               "--xi", "1.5", "--grid", "3", "--nmax", "40"])
    assert rc == EXIT_OK
    meta, header, rows = _parse(capsys.readouterr().out)
    assert header == ["xi", "ratio_isum", "ratio_closed"]
    assert len(rows) == 3
    assert rows[0][0] == 1.0 and rows[-1][0] == 1.5
    for xi, isum, closed in rows:
        assert abs(isum - closed) < 5e-6  # truncation of the coefficient sum


def test_energy_rejects_static_wall(capsys):
    assert main(["energy", "--alpha-ratio", "0"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_energy_rejects_unreachable_xi(capsys):
    rc = main(["energy", "--alpha-ratio", "1.0", "--xi", "0.5"])
    assert rc == EXIT_USAGE
    assert "not reachable" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["-5", "0", "1"])
def test_energy_rejects_grid_below_two(capsys, grid):
    # as density-r and density-t do; no row is printed
    assert main(["energy", "--grid", grid]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "grid" in captured.err


def test_energy_unresolvable_phase_fails_fast(capsys):
    # a wall phase of 1.2e6 rad is far past what the panel budget resolves:
    # exit 3 at once, naming the phase, not after spending the whole budget
    start = time.perf_counter()
    rc = main(["energy", "--m", "0", "--n", "1", "--alpha-ratio", "1",
               "--xi", "1e6", "--grid", "2"])
    elapsed = time.perf_counter() - start
    assert rc == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "total phase 1.203e+06 rad" in err and "PANEL_BUDGET" in err
    assert elapsed < 5.0


def test_truncation_exits_numeric(capsys):
    # a basis of 60 modes holds too little of (5, 2) at alpha-ratio 20: the
    # guard's TruncationError is a numeric failure, and no row is printed
    rc = main(["density-r", "--m", "5", "--n", "2", "--alpha-ratio", "20"])
    captured = capsys.readouterr()
    assert rc == EXIT_NUMERIC and captured.out == ""
    assert "norm deficit 3.048e-01" in captured.err


@pytest.mark.parametrize("argv, refusal", [
    # route 1's row at t misses 5.0e-2 of the norm: the routes were 13% apart
    (["--m", "0", "--n", "2", "--alpha-ratio", "20", "--xi", "2"], "at xi = 2: norm deficit 5.049e-02"),
    # 3.6e4 rad, still summed on the rule ladder, then refused: the 60 modes
    # hold none of the row at xi = 3e4
    (["--m", "0", "--n", "1", "--alpha-ratio", "1", "--xi", "3e4"],
     "at xi = 30000: norm deficit 1.000e+00"),
    # the row at xi = 0.1 misses only 5.3e-8 of the norm, but route 1's
    # x^2-weighted tail leaves it 1.8e-4 (relative) from route 2
    (["--m", "5", "--n", "3", "--alpha-ratio", "-5", "--xi", "0.1"],
     "routes disagree at xi = 0.1: route 1 (level sum) 10.03790139 vs route 2 (closed) "
     "10.03607758, gap 1.824e-03"),
], ids=["alpha-ratio-20", "xi-3e4", "routes-apart"])
def test_energy_refuses_truncated_route_1(capsys, argv, refusal):
    rc = main(["energy", "--grid", "2", *argv])
    captured = capsys.readouterr()
    assert rc == EXIT_NUMERIC and captured.out == ""
    assert refusal in captured.err


def test_budget_exceeded_exits_numeric(monkeypatch, capsys):
    def starved(*args):
        raise quad.BudgetExceededError("node budget 1500 exhausted",
                                       quad.QuadResult(value=0.0, err_estimate=1.0, panels_used=1))

    monkeypatch.setattr(spectral, "energy_ratio_paths", starved)
    rc = main(["energy", "--grid", "2", "--nmax", "8"])
    captured = capsys.readouterr()
    assert rc == EXIT_NUMERIC and captured.out == ""
    assert "node budget 1500 exhausted" in captured.err


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_result_exits_numeric(monkeypatch, capsys, bad):
    # a NaN or an infinity is refused, never printed as an empty field or
    # as "inf"
    monkeypatch.setattr(spectral, "energy_ratio_paths", lambda *args: (bad, 0.5))
    rc = main(["energy", "--grid", "2", "--nmax", "8"])
    captured = capsys.readouterr()
    assert rc == EXIT_NUMERIC and captured.out == ""
    assert "non-finite value" in captured.err


def test_moments_m0_blanks_inverse_column(capsys):
    assert main(["moments", "--m", "0", "--nmax", "3"]) == EXIT_OK
    meta, header, rows = _parse(capsys.readouterr().out)
    i_an = header.index("aneg1_over_j2")
    i_dan = header.index("delta_aneg1")
    for row in rows:
        assert math.isnan(row[i_an]) and math.isnan(row[i_dan])
        assert row[header.index("delta_a3")] < 1e-9
        assert row[header.index("delta_c1")] < 1e-9


def test_moments_m2_has_inverse_column(capsys):
    assert main(["moments", "--m", "2", "--nmax", "3"]) == EXIT_OK
    meta, header, rows = _parse(capsys.readouterr().out)
    for row in rows:
        assert row[header.index("aneg1_over_j2")] > 0.0
        assert row[header.index("delta_aneg1")] < 1e-9


def test_density_r_snapshot(capsys):
    rc = main(["density-r", "--m", "0", "--n", "1", "--alpha-ratio", "1.0",
               "--xi", "1.4", "--grid", "40"])
    assert rc == EXIT_OK
    meta, header, rows = _parse(capsys.readouterr().out)
    assert len(rows) == 40
    assert rows[-1][header.index("rho_density")] == 0.0  # wall sample
    assert float(meta["xi"]) == 1.4


def test_density_t_metadata(capsys):
    rc = main(["density-t", "--m", "0", "--n", "6", "--alpha-ratio", "1.0",
               "--t-max", "3.0", "--grid", "120"])
    assert rc == EXIT_OK
    meta, header, rows = _parse(capsys.readouterr().out)
    zeros, _ = spectral._zeros_cached(0, 6)
    x = float(zeros[5])
    np.testing.assert_allclose(float(meta["T1"]), x / (4 * math.pi), rtol=1e-12)
    np.testing.assert_allclose(float(meta["T2"]), 3 * x / (4 * math.pi), rtol=1e-12)
    assert "visibility" in meta
    assert len(rows) == 120


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 3      # angular index\nnmax = 4\n")
    assert main(["zeros", "--config", str(cfg)]) == EXIT_OK
    meta, _, rows = _parse(capsys.readouterr().out)
    assert meta["m"] == "3" and len(rows) == 4


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 3\nnmax = 4\n")
    assert main(["zeros", "--config", str(cfg), "--m", "1"]) == EXIT_OK
    meta, _, rows = _parse(capsys.readouterr().out)
    assert meta["m"] == "1" and len(rows) == 4


def test_config_accepts_dashed_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha-ratio = 1.0\nxi = 1.2\ngrid = 2\nnmax = 16\n")
    assert main(["energy", "--config", str(cfg)]) == EXIT_OK
    _, _, rows = _parse(capsys.readouterr().out)
    assert rows[-1][0] == 1.2


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("walls = 7\n")
    assert main(["zeros", "--config", str(cfg)]) == EXIT_USAGE
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("text, fragment", [("m 3", "expected key=value"),
                                            ("m = abc", "config key m")],
                         ids=["no-equals", "failed-cast"])
def test_config_line_errors_exit_usage(tmp_path, capsys, text, fragment):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "\n")
    assert main(["zeros", "--config", str(cfg)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and fragment in captured.err


@pytest.mark.parametrize("key", ["a", "u", "hbar", "mu"])
def test_config_units_rejected_outside_energy(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 3.0\n")
    rc = main(["density-r", "--m", "0", "--n", "1", "--grid", "3", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert captured.out == "" and repr(key) in captured.err


@pytest.mark.parametrize("command, key", [("zeros", "t_max"), ("zeros", "xi"),
                                          ("moments", "n"), ("verify", "m")])
def test_config_rejects_keys_the_command_does_not_read(tmp_path, capsys, command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 3\n")
    rc = main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert captured.out == "" and repr(key) in captured.err


@pytest.mark.parametrize("argv", [["zeros", "--n", "5"], ["zeros", "--grid", "7"],
                                  ["moments", "--n", "1"], ["density-r", "--nmax", "3"],
                                  ["density-t", "--nmax", "3"], ["verify", "--m", "3"],
                                  ["energy", "--nm", "3"]])
def test_unread_flags_exit_usage(capsys, argv):
    # `zeros --n 5` would otherwise abbreviate --nmax, and `energy --nm` --nmax
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert captured.out == "" and f"unrecognized arguments: {argv[1]}" in captured.err


def test_non_positive_radial_index_exits_usage(capsys):
    assert main(["energy", "--n", "0"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "radial index n = 0" in captured.err


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert {argv[1] for argv in lines} == set(cli._COMMANDS)  # one example at least each
    for argv in lines:
        assert argv[0] == "qtrap"
        cli._build_parser().parse_args(argv[1:])  # an unknown flag exits


def test_config_rejects_missing_file(capsys):
    assert main(["zeros", "--config", "/nonexistent.cfg"]) == EXIT_USAGE


def test_out_writes_file(tmp_path, capsys):
    dest = tmp_path / "zeros.csv"
    assert main(["zeros", "--nmax", "3", "--out", str(dest)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    meta, _, rows = _parse(dest.read_text())
    assert meta["command"] == "zeros" and len(rows) == 3


def test_physical_units_warn_and_overwhelm_budget(tmp_path, capsys):
    # a near-relativistic wall makes the overlap phases unresolvable: the
    # quadrature must give up with a budget error, not hang or misreport
    cfg = tmp_path / "run.cfg"
    cfg.write_text("u = 2e7\n")
    rc = main(["energy", "--config", str(cfg), "--nmax", "8", "--grid", "2",
               "--xi", "1.0001"])
    captured = capsys.readouterr()
    assert rc == EXIT_NUMERIC
    assert "warning" in captured.err and "numeric failure" in captured.err


def test_energy_config_units_without_wall_speed(tmp_path, capsys):
    # a, hbar and mu set the units even when the wall speed comes from the
    # alpha ratio, not from u
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 2.0\nhbar = 3.0\n")
    argv = ["energy", "--nmax", "16", "--grid", "2", "--xi", "1.2"]
    assert main(argv + ["--config", str(cfg)]) == EXIT_OK
    meta, _, _ = _parse(capsys.readouterr().out)
    alpha = 0.5 * bessel_zeros(0, 1).zeros[0]
    want = spectral.TrapGeometry.from_alpha(alpha, a=2.0, hbar=3.0)
    assert float(meta["alpha"]) == alpha
    assert float(meta["u"]) == want.u != spectral.TrapGeometry.from_alpha(alpha).u


@pytest.mark.parametrize("text, flags", [("u = 0.5\n", ["--alpha-ratio", "7"]),
                                         ("u = 0.5\nalpha-ratio = 7\n", []),
                                         ("u = 0.5\n", ["--alpha-ratio", "1"])],
                         ids=["flag", "config", "flag-at-default"])
def test_energy_rejects_wall_speed_set_twice(tmp_path, capsys, text, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc = main(["energy", "--nmax", "16", "--grid", "2", "--xi", "1.2", "--config", str(cfg)]
              + flags)
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert captured.out == ""
    assert "u = 0.5" in captured.err and "alpha_ratio" in captured.err


def test_energy_rejects_unparsable_unit(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = abc\n")
    rc = main(["energy", "--nmax", "16", "--grid", "2", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert captured.out == "" and "abc" in captured.err


_NON_FINITE = {
    # id: (argv, config file text or None, quantity the error names)
    "density-r-alpha-ratio-nan": (["density-r", "--alpha-ratio", "nan"], None, "alpha"),
    "density-t-alpha-ratio-inf": (["density-t", "--alpha-ratio", "inf"], None, "alpha"),
    "density-t-t-max-negative": (["density-t", "--t-max", "-5"], None, "T_max"),
    "density-t-t-max-nan": (["density-t", "--t-max", "nan"], None, "T_max"),
    "density-t-t-max-inf": (["density-t", "--t-max", "inf"], None, "T_max"),
    "density-t-eta-obs-nan": (["density-t", "--eta-obs", "nan"], None, "eta_obs"),
    "density-r-xi-inf": (["density-r", "--xi", "inf"], None, "xi_target"),
    "energy-xi-inf": (["energy", "--xi", "inf"], None, "xi"),
    "config-a-nan": (["energy"], "a = nan", "a"),
    "config-u-nan": (["energy"], "u = nan", "u"),
    "config-hbar-inf": (["energy"], "hbar = inf", "hbar"),
    "config-u-inf": (["energy"], "u = inf", "u"),
}


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the case
@pytest.mark.parametrize("case", list(_NON_FINITE))
def test_non_finite_inputs_exit_usage(tmp_path, capsys, case):
    argv, text, quantity = _NON_FINITE[case]
    if text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    # one line that names the quantity: no traceback, warning or second message
    assert captured.err.startswith(f"error: {quantity} must be finite")
    assert captured.err.count("\n") == 1


def test_usage_error_on_bad_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_installed_entry_point():
    res = subprocess.run([sys.executable, "-c",
                          "from qtrap.cli import main; raise SystemExit(main(['zeros', '--nmax', '2']))"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "x_mn" in res.stdout


# --------------------------------------------------------------------------
# Verify driver (with stub checks, and the real battery once)

def _small():
    return 1e-12


def _large():
    return 0.5


def _crash():
    raise ValueError("deliberately broken")


def _stub(name, measure):
    return name, measure, operator.le, 1e-6


def test_verify_reports_all_green(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_CHECKS", [_stub("a", _small), _stub("b", _small)])
    assert main(["verify"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"a", "b"}
    assert report["a"] == {"pass": True, "measured": 1e-12, "threshold": 1e-6}


def test_verify_fails_on_any_red(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_CHECKS", [_stub("a", _small), _stub("b", _large)])
    assert main(["verify"]) == EXIT_CHECK_FAILED
    report = json.loads(capsys.readouterr().out)
    assert report["b"]["pass"] is False and report["b"]["measured"] == 0.5


def test_verify_captures_crashed_check(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_CHECKS", [_stub("boom", _crash)])
    assert main(["verify"]) == EXIT_CHECK_FAILED
    report = json.loads(capsys.readouterr().out)
    assert report["boom"]["pass"] is False
    assert "deliberately broken" in report["boom"]["error"]


def test_verify_drop_phase_negative_control(monkeypatch, capsys):
    # the flag must swap the agreement check for the broken reconstruction
    # and the run must then fail; stubs keep the rest of the battery cheap
    monkeypatch.setattr(cli, "_CHECKS", [_stub("two_path_b", _small), _stub("other", _small)])
    assert main(["verify", "--drop-moving-phase"]) == EXIT_CHECK_FAILED
    report = json.loads(capsys.readouterr().out)
    assert report["two_path_b"]["pass"] is False
    assert report["two_path_b"]["measured"] > 1e-3
    assert report["other"]["pass"] is True


def test_verify_judges_each_check_by_its_table_entry(capsys):
    assert main(["verify"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert list(report) == [name for name, *_ in cli._CHECKS] and len(report) == 14
    for name, _, verdict, threshold in cli._CHECKS:
        entry = report[name]
        assert entry["threshold"] == threshold, name
        assert entry["pass"] == verdict(entry["measured"], threshold), name


def _verify_failing(name, monkeypatch, capsys):
    """Run the battery's check `name` alone, which must fail; return its entry."""
    monkeypatch.setattr(cli, "_CHECKS", [check for check in cli._CHECKS if check[0] == name])
    assert main(["verify"]) == EXIT_CHECK_FAILED
    return json.loads(capsys.readouterr().out)[name]


def test_verify_truncation_guard_fails_when_guard_does_not_fire(monkeypatch, capsys):
    monkeypatch.setattr(spectral, "_DEFICIT_LIMIT", math.inf)
    entry = _verify_failing("truncation_guard", monkeypatch, capsys)
    assert entry["pass"] is False
    assert "truncation guard let norm deficit" in entry["error"]


_BUILDERS = ((spectral, "_zero_table"), (spectral, "_bessel_grid"),
             (spectral, "_moment_tables"))


def _run_checks_recording_builds(monkeypatch):
    """Run every verify check; return {(module, name): (builder, [(m, size)
    asked, ...])} for each builder in `_BUILDERS`."""
    asked = {}
    for module, name in _BUILDERS:
        builder = getattr(module, name)
        keys = []
        asked[module, name] = builder, keys

        def record(*key, builder=builder, keys=keys):
            keys.append(key)
            return builder(*key)

        monkeypatch.setattr(module, name, record)
    for name, measure, verdict, threshold in cli._CHECKS:
        assert verdict(measure(), threshold), name
    return asked


def test_verify_checks_build_no_full_size_tables(cold_memo, monkeypatch):
    # the operator checks read the zeros alone; the quadrature tables are
    # built only at the sizes the orthonormality and oracle checks compare
    _, keys = _run_checks_recording_builds(monkeypatch)[spectral, "_moment_tables"]
    assert [key for key in keys if key[1] >= 60] == []


def test_verify_checks_build_each_basis_key_once(cold_memo, monkeypatch):
    asked = _run_checks_recording_builds(monkeypatch)
    for (module, name), (builder, keys) in asked.items():
        assert builder.cache_info().misses == len(set(keys)), (module.__name__, name)
    assert set(asked[spectral, "_zero_table"][1]) == {(m, 60) for m in (0, 1, 2, 3, 5)}
    assert set(asked[spectral, "_bessel_grid"][1]) == {(0, 4, 255), (0, 60, 1023)}
    assert set(asked[spectral, "_moment_tables"][1]) == {(0, 4), (1, 4), (2, 4), (3, 4),
                                                         (0, 20), (3, 20)}


def test_verify_out_file(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_CHECKS", [_stub("a", _small)])
    dest = tmp_path / "report.json"
    assert main(["verify", "--out", str(dest)]) == EXIT_OK
    assert json.loads(dest.read_text())["a"]["pass"] is True
