import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from defectfield import cli, forms, load_field
from defectfield.cli import (
    EXIT_CLAIM_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

DISCLINATION = json.dumps({"model": "disclination", "k": 1.0, "c": 1.0})
OFF_SHELL = json.dumps({"model": "disclination", "k": 1.0, "omega": 2.0, "c": 1.0})
DISLOCATION = json.dumps({"model": "dislocation", "n": 1, "k": 1.0, "omega": 1.0})
DATA = Path(__file__).resolve().parent / "data"


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


def test_detect_output_does_not_depend_on_how_the_field_is_named(tmp_path, monkeypatch):
    field_path = tmp_path / "disc.json"
    main(["generate", "--model", DISCLINATION, "--dims", "17,17,2",
          "--extent", "4,4,1", "--out", str(field_path)])
    monkeypatch.chdir(tmp_path)
    assert main(["detect", "--field", "disc.json", "--out", "relative.json"]) == EXIT_OK
    assert main(["detect", "--field", str(field_path), "--out", "absolute.json"]) == EXIT_OK
    relative = (tmp_path / "relative.json").read_bytes()
    assert relative == (tmp_path / "absolute.json").read_bytes()
    assert json.loads(relative)["field"] == "disc.json"
    # the path as given stays in the run record
    run = json.loads((tmp_path / "absolute.json.run.json").read_text())
    assert run["inputs"] == [str(field_path)]


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


def test_verify_129_csv_is_the_pinned_bytes(tmp_path):
    # 33, 65 and 129 nodes; tests/data/verify-129.csv pins the bytes, so a digit
    # that moves fails here even when two runs agree with each other
    out = tmp_path / "verify-129.csv"
    assert main(["verify", "--model", DISCLINATION, "--dims", "33", "--refinements", "3",
                 "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (DATA / "verify-129.csv").read_bytes()


def test_verify_rejects_zero_amplitude(capsys):
    zero = json.dumps({"model": "disclination", "k": 1.0, "a": 0, "az": [0, 0]})
    assert main(["verify", "--model", zero, "--dims", "9", "--refinements", "1"]) == EXIT_USAGE
    assert "amplitude" in capsys.readouterr().err


def test_verify_underflowing_wave_scale_is_not_a_zero_amplitude(capsys):
    # k * k * max|A| underflows to 0 although the amplitude is not zero
    tiny = json.dumps({"model": "disclination", "k": 1e-300})
    assert main(["verify", "--model", tiny, "--dims", "5", "--refinements", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "float range" in err and "amplitude" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("descriptor, params", [
    pytest.param({"model": "disclination", "k": 1, "c": 1e308},
                 "k=1, c=1e+308, omega=1e+308, a=1, az=1+0j", id="descriptor0"),
    pytest.param({"model": "disclination", "k": 1e200},
                 "k=1e+200, c=1, omega=1e+200, a=1e+200, az=1+0j", id="descriptor1"),
    pytest.param({"model": "disclination", "k": 1, "omega": 1e308},
                 "k=1, c=1, omega=1e+308, a=1, az=1+0j", id="descriptor2"),
    pytest.param({"model": "disclination", "k": 1, "c": 1e-300},
                 "k=1, c=1e-300, omega=1e-300, a=1, az=1+0j", id="descriptor3"),
    # every sample is finite; the finite differences of Az overflow
    pytest.param({"model": "disclination", "k": 1e50, "az": [1e300, 1]},
                 "k=1e+50, c=1, omega=1e+50, a=1e+50, az=1e+300+1j", id="descriptor4"),
])
def test_verify_extreme_magnitudes_exit_usage(descriptor, params, capsys):
    argv = ["verify", "--model", json.dumps(descriptor), "--dims", "5", "--refinements", "1"]
    assert main(argv) == EXIT_USAGE
    # one line naming the model's parameters, not the overflow's errno tuple
    # nor a derived value as a non-finite sample
    assert capsys.readouterr() == ("", f"error: model magnitudes exceed float range: {params}\n")


@pytest.mark.parametrize("command", [
    ["verify", "--dims", "17", "--refinements", "2"],
    ["generate", "--dims", "5,5,1", "--out", "field.json"],
])
def test_overflowing_model_names_the_node_and_prints_no_warning(command, tmp_path):
    # the sampled Ax overflows; the finiteness check, not numpy, reports it
    huge = json.dumps({"model": "disclination", "k": 1, "a": 1e308})
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "defectfield.cli", *command, "--model", huge],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr == "error: non-finite ax value at node (0, 0, 0)\n"
    assert list(tmp_path.iterdir()) == []


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


def _stokes_replay(nodes: int, pairs: int, seed: int) -> float:
    """The stokes demo's worst residual, drawn from the same stream on a whole-complex form."""
    rng = np.random.default_rng(seed)
    cx = forms.CubicalComplex(nodes, nodes)
    worst = 0.0
    for _ in range(pairs):
        degree = int(rng.integers(0, 2))
        cells = rng.integers(0, cx.n_cells(degree + 1), size=5)
        coeffs = {int(c): int(v) for c, v in
                  zip(cells, rng.integers(-3, 4, size=5)) if v != 0}
        chain = forms.Chain(cx, degree + 1, coeffs)
        touched = np.unique(cx.lower_cells(degree + 1, list(coeffs))[0])
        drawn = rng.standard_normal(touched.size)
        values = np.zeros(cx.n_cells(degree))
        values[touched] = drawn
        form = forms.DiscreteForm(cx, degree, values)
        scale = float(np.abs(drawn).max(initial=1.0))
        worst = max(worst, abs(forms.stokes_residual(form, chain)) / scale)
    return worst


def test_forms_stokes_report_is_deterministic_and_exact(tmp_path):
    for nodes in (2, 3, 64):
        paths = [tmp_path / f"stokes-{nodes}-{k}.json" for k in range(2)]
        for path in paths:
            assert main(["forms", "--demo", "stokes", "--nodes", str(nodes), "--pairs", "50",
                         "--seed", "7", "--out", str(path)]) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()
        report = json.loads(paths[0].read_text())
        assert (report["nodes"], report["seed"], report["pairs"]) == (nodes, 7, 50)
        assert 0.0 <= report["max_relative_residual"] <= 1e-12
    # bit for bit the residual of a whole-complex form carrying the same draws
    for nodes in (2, 3, 9, 64):
        for seed in range(6):
            path = tmp_path / f"replay-{nodes}-{seed}.json"
            assert main(["forms", "--demo", "stokes", "--nodes", str(nodes), "--pairs", "50",
                         "--seed", str(seed), "--out", str(path)]) == EXIT_OK
            worst = json.loads(path.read_text())["max_relative_residual"]
            assert worst == _stokes_replay(nodes, 50, seed), (nodes, seed)


def test_forms_stokes_memory_does_not_grow_with_nodes(tmp_path):
    # a whole-complex form at 4096 nodes per axis would be 268 MB per pair; a
    # first small run keeps one-time imports (np.unique loads numpy.ma) out of the peak
    assert main(["forms", "--demo", "stokes", "--nodes", "2", "--pairs", "1",
                 "--out", str(tmp_path / "warm.json")]) == EXIT_OK
    tracemalloc.start()
    try:
        assert main(["forms", "--demo", "stokes", "--nodes", "4096", "--pairs", "20",
                     "--out", str(tmp_path / "stokes.json")]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_forms_rejects_bad_numbers(capsys):
    for argv, message in (
            (["--demo", "period", "--radius", "nan"], "--radius must be finite, got nan"),
            (["--demo", "period", "--radius", "inf"], "--radius must be finite, got inf"),
            (["--demo", "period", "--radius", "1e308"], "--radius 1e+308 is too large: the "
             "cycles' points or tangents leave float range"),
            # 1e307 * 2 pi * 3 overflows in Python floats: an infinite tangent
            (["--demo", "period", "--turns", "3", "--radius", "1e307"], "--radius 1e+307 is too "
             "large: the cycles' points or tangents leave float range"),
            (["--demo", "period", "--radius", "1e-7"], "--radius 1e-07 is too small: cycle "
             "passes within 1.00e-07 of singular point (0.0, 0.0)"),
            (["--demo", "ws", "--energy", "nan"],
             "energy, frequency and mass must all be positive and finite"),
            (["--demo", "stokes", "--pairs", "0"], "--pairs must be at least 1"),
            (["--demo", "stokes", "--pairs", "-5"], "--pairs must be at least 1")):
        assert main(["forms", *argv]) == EXIT_USAGE, argv
        assert capsys.readouterr() == ("", f"error: {message}\n")
    # r^2 leaves float range, but the cycle does not: the angular form still winds once
    assert main(["forms", "--demo", "period", "--radius", "1e160"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["period"] == pytest.approx(2.0 * math.pi, abs=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_forms_ws_wide_orbit_and_amplitudes_out_of_range(capsys):
    # a closed orbit 7118 wide that starts near the origin passes
    assert main(["forms", "--demo", "ws", "--energy", "1", "--nu", "1e-3",
                 "--mass", "1e-3"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["passed"] is True
    # 2 * mass * energy underflows: one message, no numpy warning
    assert main(["forms", "--demo", "ws", "--energy", "1e-150", "--nu", "1e-300",
                 "--mass", "1e-300"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: energy 1e-150, frequency 1e-300 and mass 1e-300 "
                                   "put the orbit's amplitudes out of the normal float range\n")


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
    assert main(["ledger", "--nu", "1.0", "--wavelength", "2.0"]) == EXIT_USAGE
    assert "not both" in capsys.readouterr().err


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


DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_report_rejects_malformed_inputs(tmp_path, capsys):
    cases = {
        "deep.json": DEEP_JSON,
        "array.json": "[1, 2]",
        "count.json": '{"defects": 5}',
        "broken.json": "{]",
        "empty.csv": "",
        "blank.csv": "\n  \n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        assert main(["report", "--inputs", str(path)]) == EXIT_USAGE, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "Traceback" not in err


def test_report_header_only_csv_gives_empty_table(tmp_path, capsys):
    path = tmp_path / "header.csv"
    path.write_text("check,value,expected,tolerance,passed,orders\n")
    assert main(["report", "--inputs", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["| source | check | value | passed |",
                                                    "|---|---|---|---|"]


def test_deeply_nested_descriptor_file_exits_usage(tmp_path, capsys):
    desc = tmp_path / "deep.json"
    desc.write_text(DEEP_JSON)
    out = tmp_path / "field.json"
    assert main(["generate", "--model", str(desc), "--dims", "8,8,1",
                 "--out", str(out)]) == EXIT_USAGE
    assert "model descriptor is not valid JSON" in capsys.readouterr().err
    assert not out.exists()
    assert main(["verify", "--model", str(desc), "--dims", "9",
                 "--refinements", "1"]) == EXIT_USAGE
    assert "model descriptor is not valid JSON" in capsys.readouterr().err


def test_generate_rejects_bad_descriptor(tmp_path):
    descriptor = json.dumps({"model": "disclination", "k": 1.0, "az": [1]})
    code = main(["generate", "--model", descriptor, "--dims", "8,8,1",
                 "--out", str(tmp_path / "field.json")])
    assert code == EXIT_USAGE
    assert not (tmp_path / "field.json").exists()


@pytest.mark.filterwarnings("error")  # c = 0 once leaked a numpy RuntimeWarning
@pytest.mark.parametrize("c", [
    pytest.param("0", id="zero"),
    pytest.param("-1", id="negative"),
    pytest.param("1e309", id="parses-as-inf"),
])
def test_generate_pure_gauge_rejects_bad_c(tmp_path, capsys, c):
    descriptor = '{"model": "pure_gauge", "c": %s, "psi": {"model": "dislocation", "n": 1}}' % c
    out = tmp_path / "field.json"
    assert main(["generate", "--model", descriptor, "--dims", "5,5,2",
                 "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: invalid 'pure_gauge' descriptor: c must be positive and finite\n")
    assert not out.exists()


def test_generate_out_ending_in_bin_exits_usage(tmp_path, capsys):
    # the manifest would be written over its own binary
    out = tmp_path / "f.bin"
    assert main(["generate", "--model", DISLOCATION, "--dims", "5,5,2",
                 "--out", str(out)]) == EXIT_USAGE
    assert f"manifest path {str(out)!r} ends in .bin" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_exits_usage(monkeypatch, capsys, tmp_path):
    # no real allocation: the sampler stands in for an allocation numpy refuses
    def refuse(*args):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(cli.fields, "sample_scalar", refuse)
    assert main(["generate", "--model", DISLOCATION, "--dims", "4,4,1",
                 "--out", str(tmp_path / "field.json")]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 149. GiB for an array\n"
    assert list(tmp_path.iterdir()) == []


def test_generate_origin_without_spacing_exits_usage(tmp_path, capsys):
    code = main(["generate", "--model", DISLOCATION, "--dims", "8,8,1",
                 "--origin", "1,2,3", "--out", str(tmp_path / "field.json")])
    assert code == EXIT_USAGE
    assert "--origin requires --spacing" in capsys.readouterr().err
    assert not (tmp_path / "field.json").exists()


@pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
def test_generate_non_finite_time_exits_usage(tmp_path, capsys, time):
    code = main(["generate", "--model", DISLOCATION, "--dims", "4,4,1", f"--time={time}",
                 "--out", str(tmp_path / "field.json")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: --time must be finite, got {float(time)!r}\n"
    assert not (tmp_path / "field.json").exists()


def test_generate_extent_with_spacing_exits_usage(tmp_path, capsys):
    code = main(["generate", "--model", DISLOCATION, "--dims", "4,4,1", "--extent", "4",
                 "--spacing", "0.5", "--out", str(tmp_path / "field.json")])
    assert code == EXIT_USAGE
    assert "--extent and --spacing are exclusive" in capsys.readouterr().err
    assert not (tmp_path / "field.json").exists()


def test_forms_and_ledger_write_run_manifests(tmp_path, capsys):
    stokes, led = tmp_path / "stokes.json", tmp_path / "ledger.json"
    assert main(["forms", "--demo", "stokes", "--pairs", "5", "--seed", "3",
                 "--out", str(stokes)]) == EXIT_OK
    assert main(["ledger", "--nu", "2.0", "--out", str(led)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    for path, command, parameters in (
            (stokes, "forms", {"demo": "stokes", "nodes": 16, "pairs": 5, "seed": 3}),
            (led, "ledger", {"nu": 2.0, "wavelength": None, "units": "geometric",
                             "with_wavenumber": False})):
        run = json.loads((tmp_path / f"{path.name}.run.json").read_text())
        assert run["command"] == command
        assert run["inputs"] == [] and run["outputs"] == [str(path)]
        assert parameters.items() <= run["parameters"].items()
    assert json.loads(stokes.read_text())["pairs"] == 5


def test_verify_orbifold_claim_does_not_depend_on_the_field_scale(tmp_path, capsys):
    tiny = json.dumps({"model": "disclination", "k": 1, "a": 1e-12})
    assert main(["verify", "--model", tiny, "--dims", "25", "--refinements", "2"]) == EXIT_OK
    rows = [ln.split(",") for ln in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [r[1:5] for r in rows if r[0] == "orbifold_winding_deviation"] == [
        ["0", "0", "0", "true"]]
    flat = json.dumps({"model": "disclination", "k": 1, "a": 0})
    assert main(["verify", "--model", flat, "--dims", "25", "--refinements", "2"]) == EXIT_USAGE
    assert "transverse amplitude a" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["generate"])  # missing required flags
    assert err.value.code == EXIT_USAGE


def test_main_reuses_its_parser_without_carrying_values_over(tmp_path, capsys):
    # main() parses with one parser per process; no value may leak between calls
    field = tmp_path / "field.json"
    assert main(["generate", "--model", DISLOCATION, "--dims", "12,12,2",
                 "--out", str(field)]) == EXIT_OK
    saved = tmp_path / "detect.json"
    assert main(["detect", "--field", str(field), "--slice", "1",
                 "--out", str(saved)]) == EXIT_OK
    capsys.readouterr()
    assert main(["detect", "--field", str(field), "--slice", "1"]) == EXIT_OK
    assert capsys.readouterr().out == saved.read_text()
    assert main(["verify", "--model", DISCLINATION, "--dims", "9", "--refinements", "1",
                 "--out", str(tmp_path / "verify.csv")]) in (EXIT_OK, EXIT_CLAIM_FAILURE)
    again = tmp_path / "again.json"
    assert main(["generate", "--model", DISLOCATION, "--dims", "5,5,2",
                 "--out", str(again)]) == EXIT_OK
    run = json.loads((tmp_path / "again.json.run.json").read_text())
    assert run["parameters"]["extent"] is None   # omitted: the centred extent of 6.0
    assert json.loads(again.read_text())["spacing"] == [1.5, 1.5, 6.0]
    for argv in (["--help"], ["detect", "--help"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_OK
    assert cli.build_parser() is cli.build_parser()
