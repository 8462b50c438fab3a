import json
import math

import numpy as np
import pytest

from defectfield import load_field
from defectfield.cli import (
    EXIT_CLAIM_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

DISCLINATION = json.dumps({"model": "disclination", "k": 1.0, "c": 1.0})
OFF_SHELL = json.dumps({"model": "disclination", "k": 1.0, "omega": 2.0, "c": 1.0})
DISLOCATION = json.dumps({"model": "dislocation", "n": 1, "k": 1.0, "omega": 1.0})


def test_generate_potential_field(tmp_path, capsys):
    out = tmp_path / "disc.json"
    code = main(["generate", "--model", DISCLINATION, "--dims", "16,16,8",
                 "--extent", "4,4,2", "--out", str(out)])
    assert code == EXIT_OK
    manifest = json.loads(out.read_text())
    assert manifest["kind"] == "potential"
    assert manifest["dims"] == [16, 16, 8]
    field = load_field(out)
    assert field.ax.shape == (16, 16, 8)
    assert (tmp_path / "disc.json.run.json").exists()


def test_generate_scalar_field_from_descriptor_file(tmp_path):
    desc = tmp_path / "model.json"
    desc.write_text(DISLOCATION)
    out = tmp_path / "dislo.json"
    code = main(["generate", "--model", str(desc), "--dims", "32,32,1",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["kind"] == "scalar"


def test_generate_rejects_malformed_descriptor(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = main(["generate", "--model", "{not json", "--dims", "8,8,1",
                 "--out", str(out)])
    assert code == EXIT_USAGE
    assert "descriptor" in capsys.readouterr().err


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["generate", "--model", DISCLINATION, "--dims", "12,12,4",
                     "--out", str(out)]) == EXIT_OK
    assert a.read_text() != ""
    assert a.with_suffix(".bin").read_bytes() == b.with_suffix(".bin").read_bytes()


def test_detect_dislocation_field(tmp_path, capsys):
    field_path = tmp_path / "field.json"
    main(["generate", "--model", DISLOCATION, "--dims", "64,64,1",
          "--extent", "6,6,1", "--out", str(field_path)])
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    code = main(["detect", "--field", str(field_path), "--slice", "0",
                 "--out", str(report_path)])
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert len(report["defects"]) == 1
    assert report["defects"][0]["index"] == "+1"
    assert report["defects"][0]["kind"] == "dislocation"


def test_detect_constant_field_empty(tmp_path, capsys):
    field_path = tmp_path / "const.json"
    main(["generate", "--model", json.dumps({"model": "constant", "value": [1.0, 0.0]}),
          "--dims", "16,16,1", "--out", str(field_path)])
    capsys.readouterr()
    code = main(["detect", "--field", str(field_path), "--slice", "0"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["defects"] == []


def test_detect_disclination_axis_slice(tmp_path, capsys):
    field_path = tmp_path / "disc.json"
    main(["generate", "--model", DISCLINATION, "--dims", "33,33,5",
          "--extent", "4,4,2", "--out", str(field_path)])
    capsys.readouterr()
    code = main(["detect", "--field", str(field_path), "--slice", "2"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert len(report["defects"]) == 1
    assert report["defects"][0]["kind"] == "disclination"
    assert report["defects"][0]["index"] == "+1"


def test_detect_rejects_corrupt_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert main(["detect", "--field", str(bad)]) == EXIT_USAGE
    bad.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["detect", "--field", str(bad)]) == EXIT_USAGE


def test_detect_rejects_overflowing_manifest_values(tmp_path, capsys):
    field_path = tmp_path / "field.json"
    main(["generate", "--model", DISLOCATION, "--dims", "8,8,1", "--out", str(field_path)])
    valid = json.loads(field_path.read_text())
    huge = 10 ** 400
    for changes in ({"time": huge}, {"origin": [0.0, huge, 0.0]}, {"dims": [8, 8, math.inf]}):
        field_path.write_text(json.dumps({**valid, **changes}))
        assert main(["detect", "--field", str(field_path)]) == EXIT_USAGE
        assert "malformed field manifest" in capsys.readouterr().err


def test_verify_on_shell_all_pass(tmp_path):
    out = tmp_path / "checks.csv"
    code = main(["verify", "--model", DISCLINATION, "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "check,value,expected,tolerance,passed,orders"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 8
    assert all(r[4] == "true" for r in rows)
    wave = [r for r in rows if r[0] == "wave_residual_rel"][0]
    assert wave[5] != ""  # orders populated at default refinements


def test_verify_off_shell_fails_wave_check(tmp_path):
    out = tmp_path / "off.csv"
    code = main(["verify", "--model", OFF_SHELL, "--out", str(out), "--dims", "21",
                 "--refinements", "1"])
    assert code == EXIT_CLAIM_FAILURE
    rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    by_name = {r[0]: r for r in rows}
    assert by_name["wave_residual_rel"][4] == "false"
    # the gauge pair still satisfies its condition off shell
    assert by_name["lorentz_interior_max"][4] == "true"
    assert by_name["tifold_index"][4] == "true"


def test_verify_single_refinement_empty_orders(tmp_path):
    out = tmp_path / "r1.csv"
    code = main(["verify", "--model", DISCLINATION, "--out", str(out),
                 "--refinements", "1", "--dims", "21"])
    assert code == EXIT_OK
    wave = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]
            if ln.startswith("wave_residual_rel")][0]
    assert wave[5] == ""


def test_verify_base_grid_residual_independent_of_refinements(tmp_path):
    values = []
    for refinements in ("1", "3"):
        out = tmp_path / f"r{refinements}.csv"
        assert main(["verify", "--model", DISCLINATION, "--out", str(out),
                     "--refinements", refinements, "--dims", "21"]) == EXIT_OK
        wave = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]
                if ln.startswith("wave_residual_rel")][0]
        values.append(wave[1])
    assert values[0] == values[1]


def test_verify_rejects_zero_amplitude(capsys):
    zero = json.dumps({"model": "disclination", "k": 1.0, "a": 0, "az": [0, 0]})
    assert main(["verify", "--model", zero, "--dims", "9", "--refinements", "1"]) == EXIT_USAGE
    assert "amplitude" in capsys.readouterr().err


def test_verify_requires_disclination(tmp_path, capsys):
    assert main(["verify", "--model", DISLOCATION]) == EXIT_USAGE


def test_verify_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["verify", "--model", DISCLINATION, "--out", str(out),
                     "--refinements", "1", "--dims", "21"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_forms_demos(capsys):
    assert main(["forms", "--demo", "period"]) == EXIT_OK
    period = json.loads(capsys.readouterr().out)
    assert period["period"] == pytest.approx(2 * math.pi, abs=1e-9)
    assert abs(period["non_enclosing_period"]) < 1e-9

    assert main(["forms", "--demo", "ws", "--energy", "1", "--nu", "1",
                 "--mass", "1"]) == EXIT_OK
    ws = json.loads(capsys.readouterr().out)
    assert ws["value"] == pytest.approx(1.0, abs=1e-9)

    assert main(["forms", "--demo", "stokes"]) == EXIT_OK
    stokes = json.loads(capsys.readouterr().out)
    assert stokes["max_relative_residual"] <= 1e-12


def test_ledger_command(capsys):
    assert main(["ledger", "--nu", "1.0"]) == EXIT_OK
    geo = json.loads(capsys.readouterr().out)
    assert geo["spin_energy"] == 0.5
    assert geo["momentum"] == 1.0

    assert main(["ledger", "--wavelength", "500e-9", "--units", "si"]) == EXIT_OK
    si = json.loads(capsys.readouterr().out)
    assert si["on_shell"] is True
    assert si["total_energy"] == pytest.approx(6.62607015e-34 * 2.99792458e8 / 500e-9,
                                               rel=1e-12)

    assert main(["ledger"]) == EXIT_USAGE


def test_report_aggregates_and_dedupes(tmp_path, capsys):
    csv_path = tmp_path / "checks.csv"
    main(["verify", "--model", DISCLINATION, "--out", str(csv_path),
          "--refinements", "1", "--dims", "21"])
    field_path = tmp_path / "field.json"
    main(["generate", "--model", DISLOCATION, "--dims", "48,48,1",
          "--extent", "6,6,1", "--out", str(field_path)])
    detect_path = tmp_path / "defects.json"
    main(["detect", "--field", str(field_path), "--out", str(detect_path)])
    capsys.readouterr()

    out = tmp_path / "summary.md"
    code = main(["report", "--inputs", str(csv_path), str(csv_path),
                 str(detect_path), "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    # duplicate CSV contributes rows once
    assert text.count("lorentz_interior_max") == 1
    assert "defect_count" in text

    assert main(["report", "--inputs"]) == EXIT_USAGE


def test_report_mixed_pass_fail_exits_one(tmp_path):
    off_csv = tmp_path / "off.csv"
    main(["verify", "--model", OFF_SHELL, "--out", str(off_csv),
          "--refinements", "1", "--dims", "21"])
    out = tmp_path / "summary.csv"
    code = main(["report", "--inputs", str(off_csv), "--out", str(out)])
    assert code == EXIT_CLAIM_FAILURE
    assert "false" in out.read_text()


def test_generate_rejects_bad_descriptor(tmp_path):
    descriptor = json.dumps({"model": "disclination", "k": 1.0, "az": [1]})
    code = main(["generate", "--model", descriptor, "--dims", "8,8,1",
                 "--out", str(tmp_path / "field.json")])
    assert code == EXIT_USAGE
    assert not (tmp_path / "field.json").exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["generate"])  # missing required flags
    assert err.value.code == EXIT_USAGE
