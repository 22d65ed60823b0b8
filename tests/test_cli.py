"""Command line behaviour: parsing, config layering, exit codes, verify driver."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qtrap import cli, spectral
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


@pytest.mark.parametrize("key", ["a", "u", "hbar", "mu"])
def test_config_units_rejected_outside_energy(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 3.0\n")
    rc = main(["density-r", "--m", "0", "--n", "1", "--grid", "3", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert captured.out == "" and repr(key) in captured.err


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
# Verify driver (with stub checks; the real battery runs in the acceptance suite)

def _stub_pass():
    return True, 1e-12, 1e-6


def _stub_fail():
    return False, 0.5, 1e-6


def _stub_crash():
    raise ValueError("deliberately broken")


def test_verify_reports_all_green(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_CHECKS", [("a", _stub_pass), ("b", _stub_pass)])
    assert main(["verify"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"a", "b"}
    assert report["a"] == {"pass": True, "measured": 1e-12, "threshold": 1e-6}


def test_verify_fails_on_any_red(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_CHECKS", [("a", _stub_pass), ("b", _stub_fail)])
    assert main(["verify"]) == EXIT_CHECK_FAILED
    report = json.loads(capsys.readouterr().out)
    assert report["b"]["pass"] is False and report["b"]["measured"] == 0.5


def test_verify_captures_crashed_check(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_CHECKS", [("boom", _stub_crash)])
    assert main(["verify"]) == EXIT_CHECK_FAILED
    report = json.loads(capsys.readouterr().out)
    assert report["boom"]["pass"] is False
    assert "deliberately broken" in report["boom"]["error"]


def test_verify_drop_phase_negative_control(monkeypatch, capsys):
    # the flag must swap the agreement check for the broken reconstruction
    # and the run must then fail; stubs keep the rest of the battery cheap
    monkeypatch.setattr(cli, "_CHECKS",
                        [("two_path_b", _stub_pass), ("other", _stub_pass)])
    assert main(["verify", "--drop-moving-phase"]) == EXIT_CHECK_FAILED
    report = json.loads(capsys.readouterr().out)
    assert report["two_path_b"]["pass"] is False
    assert report["two_path_b"]["measured"] > 1e-3
    assert report["other"]["pass"] is True


def test_verify_out_file(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_CHECKS", [("a", _stub_pass)])
    dest = tmp_path / "report.json"
    assert main(["verify", "--out", str(dest)]) == EXIT_OK
    assert json.loads(dest.read_text())["a"]["pass"] is True
