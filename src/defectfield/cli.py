"""Batch command-line front-end.

Subcommands: generate (sample a model to field files), detect (defect
report for one slice), verify (run the claim-check suite to CSV), forms
(discrete-calculus demos), ledger (energy bookkeeping), report (aggregate
prior outputs). Exit codes: 0 success, 1 a claim check failed, 2 invalid
usage or input, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3

@dataclass
class RunManifest:
    """Reproducibility record written next to each command's output."""

    command: str
    inputs: list
    parameters: dict
    outputs: list
    version: str
    duration_s: float


def _write_run_manifest(out_path: Path, command: str, inputs, parameters, outputs,
                        started: float) -> None:
    from . import __version__

    manifest = RunManifest(
        command=command,
        inputs=[str(p) for p in inputs],
        parameters=parameters,
        outputs=[str(p) for p in outputs],
        version=__version__,
        duration_s=time.perf_counter() - started,
    )
    path = Path(str(out_path) + ".run.json")
    path.write_text(json.dumps(asdict(manifest), sort_keys=True, indent=2) + "\n")


def _parse_triple(text: str, cast):
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise ValueError(f"expected 1 or 3 comma-separated values, got {text!r}")
    return tuple(cast(p) for p in parts)


def _load_descriptor(spec: str) -> dict:
    if os.path.exists(spec):
        text = Path(spec).read_text()
    else:
        text = spec
    try:
        descriptor = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"model descriptor is not valid JSON: {exc}") from exc
    if not isinstance(descriptor, dict):
        raise ValueError("model descriptor must be a JSON object")
    return descriptor


def _fraction_str(frac: Fraction) -> str:
    if frac.denominator == 1:
        return f"{frac.numerator:+d}"
    return f"{frac.numerator:+d}/{frac.denominator}"


def _emit(text: str, out):
    if out is None:
        sys.stdout.write(text)
        return []
    Path(out).write_text(text)
    return [out]


def cmd_generate(args) -> int:
    from . import fieldio, fields, models

    started = time.perf_counter()
    descriptor = _load_descriptor(args.model)
    model = models.model_from_descriptor(descriptor)
    dims = _parse_triple(args.dims, int)
    if args.spacing is not None:
        origin = _parse_triple(args.origin, float) if args.origin else (0.0, 0.0, 0.0)
        grid = fields.GridSpec(dims, _parse_triple(args.spacing, float), origin)
    else:
        grid = fields.GridSpec.centered(_parse_triple(args.extent, float), dims)
    if hasattr(model, "components"):
        field = fields.sample_potential(model, grid, args.time)
    else:
        field = fields.sample_scalar(model, grid, args.time)
    manifest_path, data_path = fieldio.save_field(field, args.out)
    _write_run_manifest(
        manifest_path, "generate",
        inputs=[],
        parameters={"descriptor": descriptor, "dims": list(dims),
                    "time": args.time, "extent": args.extent,
                    "spacing": args.spacing, "origin": args.origin},
        outputs=[manifest_path, data_path],
        started=started,
    )
    print(str(manifest_path))
    return EXIT_OK


def cmd_detect(args) -> int:
    from . import detect, fieldio
    from .fields import PotentialField

    started = time.perf_counter()
    field = fieldio.load_field(args.field, z_slice=args.slice)
    if isinstance(field, PotentialField):
        records = detect.find_disclinations(field, 0)
    else:
        records = detect.find_dislocations(field, 0)
    report = {
        "field": str(args.field),
        "slice": args.slice,
        "defects": [
            {
                "kind": r.kind,
                "position": list(r.position),
                "index": _fraction_str(r.index),
                "confidence": r.confidence,
            }
            for r in records
        ],
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    outputs = _emit(text, args.out)
    if args.out:
        _write_run_manifest(args.out, "detect",
                            inputs=[args.field],
                            parameters={"slice": args.slice},
                            outputs=outputs, started=started)
    return EXIT_OK


def _orbifold_deviation(sampled, model, rng_seed: int = 20240501) -> float:
    """Max deviation of loop windings of Ax from their expected values."""
    import numpy as np

    from . import detect

    rng = np.random.default_rng(rng_seed)
    grid = sampled.grid
    half = (grid.dims[0] - 1) * grid.spacing[0] / 2.0
    ax_field = sampled.component_field("Ax")
    deviation = 0.0
    for _ in range(3):
        radius = float(rng.uniform(0.25, 0.55)) * half
        cx = float(rng.uniform(-0.1, 0.1)) * half
        cy = float(rng.uniform(-0.1, 0.1)) * half
        loop = detect.LoopPath.circle(cx, cy, radius, n=128)
        deviation = max(deviation, abs(detect.phase_winding(ax_field, loop) - 1))
    away = detect.LoopPath.circle(0.6 * half, 0.0, 0.2 * half, n=128)
    deviation = max(deviation, abs(detect.phase_winding(ax_field, away)))
    return deviation


def _verify_rows(model, dims: int, refinements: int) -> list[dict]:
    import numpy as np

    from . import detect, fields, ledger, verify

    p = model.params
    k, omega = p.k, p.omega
    box = (6.0 / k, 6.0 / k, 2.0 * math.pi / k)
    grid = fields.GridSpec.centered(box, (dims, dims, dims))
    sampled = fields.sample_potential(model, grid, 0.0)
    region = verify.interior_slices(grid.dims)
    # the wave residual is reported relative to k^2 * max|A|
    wave_scale = k * k * max(
        float(np.abs(c[region]).max())
        for c in (sampled.ax, sampled.ay, sampled.az, sampled.phi)
    )
    if wave_scale == 0:
        raise ValueError("verify requires a nonzero disclination amplitude (a or az)")
    rows = []

    def add(check, value, expected, tolerance, passed, orders=""):
        rows.append({"check": check, "value": value, "expected": expected,
                     "tolerance": tolerance, "passed": bool(passed), "orders": orders})

    rep = verify.lorentz_residual(sampled, model)
    add("lorentz_interior_max", rep.interior_max, 0.0, 1e-9, rep.interior_max <= 1e-9)

    rep = verify.transverse_divergence(sampled)
    add("transverse_divergence_interior_max", rep.interior_max, 0.0, 1e-10,
        rep.interior_max <= 1e-10)

    reports = verify.convergence_study(
        lambda g: verify.wave_residual(model, g, 0.0), grid, refinements - 1)
    rel = reports[0].interior_max / wave_scale
    orders = [r.observed_order for r in reports[1:] if r.observed_order is not None]
    wave_ok = rel <= 0.05 and all(1.7 <= o <= 2.3 for o in orders)
    add("wave_residual_rel", rel, 0.0, 0.05, wave_ok,
        ";".join(f"{o:.3f}" for o in orders))

    try:
        period = 2.0 * math.pi / omega
        rate = detect.pattern_rotation_rate(model, 0.0, period / 4.0)
        value = rate / omega
        add("rotation_rate_over_omega", value, 0.5, 1e-6, abs(value - 0.5) <= 1e-6)
    except detect.RigidRotationFitError:
        add("rotation_rate_over_omega", math.nan, 0.5, 1e-6, False)

    try:
        lam = 2.0 * math.pi / k
        twist = abs(detect.axial_twist_per_length(model, 0.0, lam, 0.0)) * lam
        add("twist_per_wavelength", twist, math.pi, 1e-6, abs(twist - math.pi) <= 1e-6)
    except detect.RigidRotationFitError:
        add("twist_per_wavelength", math.nan, math.pi, 1e-6, False)

    try:
        frac = detect.tifold_index(model)
        add("tifold_index", float(frac), 0.5, 0.0, frac == Fraction(1, 2))
    except (detect.RigidRotationFitError, detect.NonRationalIndexError,
            detect.UndefinedIndexError):
        add("tifold_index", math.nan, 0.5, 0.0, False)

    deviation = _orbifold_deviation(sampled, model)
    add("orbifold_winding_deviation", deviation, 0.0, 0.0, deviation == 0)

    led = ledger.PhotonLedger(nu=omega / (2.0 * math.pi), k=k)
    internal, _, total = ledger.total_energy(led)
    mom = ledger.momentum(led)
    dev = max(abs(internal / total - 0.5), abs(mom * led.c - total))
    add("energy_partition_deviation", dev, 0.0, 0.0, dev == 0)
    return rows


def cmd_verify(args) -> int:
    from . import models

    started = time.perf_counter()
    descriptor = _load_descriptor(args.model)
    model = models.model_from_descriptor(descriptor)
    if not isinstance(model, models.DisclinationModel):
        raise ValueError("verify requires a disclination model descriptor")
    if args.refinements < 1:
        raise ValueError("refinements must be at least 1")
    rows = _verify_rows(model, args.dims, args.refinements)
    lines = ["check,value,expected,tolerance,passed,orders"]
    for r in rows:
        lines.append(
            f"{r['check']},{r['value']:.12g},{r['expected']:.12g},"
            f"{r['tolerance']:.12g},{str(r['passed']).lower()},{r['orders']}"
        )
    text = "\n".join(lines) + "\n"
    outputs = _emit(text, args.out)
    if args.out:
        _write_run_manifest(args.out, "verify",
                            inputs=[],
                            parameters={"descriptor": descriptor, "dims": args.dims,
                                        "refinements": args.refinements},
                            outputs=outputs, started=started)
    return EXIT_OK if all(r["passed"] for r in rows) else EXIT_CLAIM_FAILURE


def cmd_forms(args) -> int:
    import numpy as np

    from . import forms

    if args.demo == "stokes":
        rng = np.random.default_rng(args.seed)
        cx = forms.CubicalComplex(args.nodes, args.nodes)
        worst = 0.0
        for _ in range(args.pairs):
            degree = int(rng.integers(0, 2))
            form = forms.DiscreteForm(cx, degree,
                                      rng.standard_normal(cx.n_cells(degree)))
            cells = rng.integers(0, cx.n_cells(degree + 1), size=5)
            coeffs = {int(c): int(v) for c, v in
                      zip(cells, rng.integers(-3, 4, size=5)) if v != 0}
            chain = forms.Chain(cx, degree + 1, coeffs)
            scale = max(1.0, float(np.abs(form.values).max()))
            worst = max(worst, abs(forms.stokes_residual(form, chain)) / scale)
        report = {"demo": "stokes", "pairs": args.pairs,
                  "max_relative_residual": worst, "tolerance": 1e-12,
                  "passed": worst <= 1e-12}
    elif args.demo == "period":
        ax, ay = forms.angular_form_components()
        cycle = forms.ParametricCycle.circle(radius=args.radius, turns=args.turns)
        period = forms.period_integral(ax, ay, cycle, singularities=((0.0, 0.0),))
        expected = 2.0 * math.pi * args.turns
        offset = forms.ParametricCycle.circle(cx=3.0 * args.radius, radius=args.radius)
        away = forms.period_integral(ax, ay, offset, singularities=((0.0, 0.0),))
        report = {"demo": "period", "turns": args.turns, "period": period,
                  "expected": expected, "non_enclosing_period": away,
                  "passed": abs(period - expected) <= 1e-9 and abs(away) <= 1e-9}
    else:
        value = forms.ws_integral(args.energy, args.nu, args.mass)
        expected = args.energy / args.nu
        report = {"demo": "ws", "energy": args.energy, "nu": args.nu,
                  "mass": args.mass, "value": value, "expected": expected,
                  "passed": abs(value - expected) <= 1e-9}
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    _emit(text, args.out)
    return EXIT_OK if report["passed"] else EXIT_CLAIM_FAILURE


def cmd_ledger(args) -> int:
    from . import ledger

    units = ledger.UNIT_SYSTEMS[args.units]
    if args.wavelength is not None:
        led = ledger.PhotonLedger.from_wavelength(args.wavelength, units)
    elif args.nu is not None:
        led = ledger.PhotonLedger.from_frequency(args.nu, units,
                                                 with_wavenumber=args.with_wavenumber)
    else:
        raise ValueError("ledger requires --nu or --wavelength")
    text = json.dumps(ledger.ledger_summary(led), sort_keys=True, indent=2) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _rows_from_input(path: Path) -> list[dict]:
    text = path.read_text()
    if path.suffix == ".csv":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0].split(",")
        rows = []
        for ln in lines[1:]:
            cells = ln.split(",")
            row = dict(zip(header, cells))
            rows.append({"source": path.name, "check": row.get("check", "?"),
                         "value": row.get("value", ""),
                         "passed": row.get("passed", "true") == "true"})
        return rows
    report = json.loads(text)
    n = len(report.get("defects", []))
    return [{"source": path.name, "check": "defect_count", "value": str(n),
             "passed": True}]


def cmd_report(args) -> int:
    started = time.perf_counter()
    if not args.inputs:
        raise ValueError("report requires at least one input")
    seen = set()
    rows = []
    for spec in args.inputs:
        path = Path(spec)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest in seen:
            continue
        seen.add(digest)
        rows.extend(_rows_from_input(path))
    as_csv = args.out is not None and str(args.out).endswith(".csv")
    if as_csv:
        lines = ["source,check,value,passed"]
        for r in rows:
            lines.append(f"{r['source']},{r['check']},{r['value']},{str(r['passed']).lower()}")
        text = "\n".join(lines) + "\n"
    else:
        width = max(len(r["check"]) for r in rows)
        lines = ["| source | check | value | passed |", "|---|---|---|---|"]
        for r in rows:
            lines.append(f"| {r['source']} | {r['check']:<{width}} | {r['value']} "
                         f"| {'pass' if r['passed'] else 'FAIL'} |")
        text = "\n".join(lines) + "\n"
    outputs = _emit(text, args.out)
    if args.out:
        _write_run_manifest(args.out, "report",
                            inputs=list(args.inputs), parameters={},
                            outputs=outputs, started=started)
    return EXIT_OK if all(r["passed"] for r in rows) else EXIT_CLAIM_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectfield",
        description="Generate singular wave fields, detect their defects, "
                    "and verify the field identities numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a model descriptor to field files")
    g.add_argument("--model", required=True,
                   help="model descriptor: JSON text or a path to a JSON file")
    g.add_argument("--dims", required=True, help="node counts, e.g. 64,64,8")
    g.add_argument("--extent", default="6.0",
                   help="box extent for a centered grid (scalar or triple)")
    g.add_argument("--spacing", default=None, help="explicit node spacing triple")
    g.add_argument("--origin", default=None, help="grid origin triple (with --spacing)")
    g.add_argument("--time", type=float, default=0.0, help="sampling time")
    g.add_argument("--out", required=True, help="manifest path (binary goes next to it)")
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("detect", help="write a defect report for one z slice")
    d.add_argument("--field", required=True, help="field manifest path")
    d.add_argument("--slice", type=int, default=0, help="z slice index")
    d.add_argument("--out", default=None, help="report path (stdout when omitted)")
    d.set_defaults(func=cmd_detect)

    v = sub.add_parser("verify", help="run the claim-check suite for a disclination")
    v.add_argument("--model", required=True, help="disclination descriptor (JSON or path)")
    v.add_argument("--refinements", type=int, default=3,
                   help="number of grids for order estimates (1 disables orders)")
    v.add_argument("--dims", type=int, default=25, help="base grid nodes per axis")
    v.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    v.set_defaults(func=cmd_verify)

    f = sub.add_parser("forms", help="discrete-calculus demos as JSON reports")
    f.add_argument("--demo", required=True, choices=("stokes", "period", "ws"))
    f.add_argument("--nodes", type=int, default=16, help="stokes: grid nodes per axis")
    f.add_argument("--pairs", type=int, default=200, help="stokes: random pairs")
    f.add_argument("--seed", type=int, default=0, help="stokes: RNG seed")
    f.add_argument("--turns", type=int, default=1, help="period: cycle turns")
    f.add_argument("--radius", type=float, default=1.0, help="period: cycle radius")
    f.add_argument("--energy", type=float, default=1.0, help="ws: orbit energy")
    f.add_argument("--nu", type=float, default=1.0, help="ws: oscillator frequency")
    f.add_argument("--mass", type=float, default=1.0, help="ws: oscillator mass")
    f.add_argument("--out", default=None, help="report path (stdout when omitted)")
    f.set_defaults(func=cmd_forms)

    l = sub.add_parser("ledger", help="print the energy ledger for a photon")
    l.add_argument("--nu", type=float, default=None, help="frequency")
    l.add_argument("--wavelength", type=float, default=None, help="wavelength")
    l.add_argument("--units", choices=("geometric", "si"), default="geometric")
    l.add_argument("--with-wavenumber", action="store_true",
                   help="derive k from nu via the dispersion relation")
    l.add_argument("--out", default=None)
    l.set_defaults(func=cmd_ledger)

    r = sub.add_parser("report", help="aggregate verify/detect outputs into a table")
    r.add_argument("--inputs", nargs="*", default=[], help="verify CSVs and detect JSONs")
    r.add_argument("--out", default=None, help=".md or .csv output (stdout when omitted)")
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
