"""Batch command-line front-end.

Subcommands: generate (sample a model to field files), detect (defect
report for one slice), verify (the ``verify.claims`` table as CSV), forms
(discrete-calculus demos), ledger (energy bookkeeping), report (aggregate
prior outputs). Exit codes: 0 success, 1 a claim check failed, 2 invalid
usage or input (a request larger than memory included), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, detect, fieldio, fields, forms, ledger, models, verify

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _write_run_manifest(out_path: Path, command: str, inputs, parameters, outputs,
                        started: float) -> None:
    """Write the reproducibility record ``<out_path>.run.json`` next to an output."""
    manifest = {
        "command": command,
        "inputs": [str(p) for p in inputs],
        "parameters": parameters,
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "duration_s": time.perf_counter() - started,
    }
    path = Path(str(out_path) + ".run.json")
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


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
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"model descriptor is not valid JSON: {exc}") from exc
    if not isinstance(descriptor, dict):
        raise ValueError("model descriptor must be a JSON object")
    return descriptor


def _fraction_str(frac: Fraction) -> str:
    if frac.denominator == 1:
        return f"{frac.numerator:+d}"
    return f"{frac.numerator:+d}/{frac.denominator}"


def _emit(text: str, args, started: float, parameters: dict, inputs=()) -> None:
    """Write text to stdout, or to ``--out`` with its ``.run.json`` manifest."""
    if args.out is None:
        sys.stdout.write(text)
        return
    Path(args.out).write_text(text)
    _write_run_manifest(args.out, args.command, inputs, parameters, [args.out], started)


def cmd_generate(args) -> int:
    started = time.perf_counter()
    if args.origin is not None and args.spacing is None:
        raise ValueError("--origin requires --spacing")
    if args.extent is not None and args.spacing is not None:
        raise ValueError("--extent and --spacing are exclusive")
    if not math.isfinite(args.time):
        raise ValueError(f"--time must be finite, got {args.time!r}")
    descriptor = _load_descriptor(args.model)
    model = models.model_from_descriptor(descriptor)
    dims = _parse_triple(args.dims, int)
    if args.spacing is not None:
        origin = _parse_triple(args.origin, float) if args.origin else (0.0, 0.0, 0.0)
        grid = fields.GridSpec(dims, _parse_triple(args.spacing, float), origin)
    else:
        extent = "6.0" if args.extent is None else args.extent
        grid = fields.GridSpec.centered(_parse_triple(extent, float), dims)
    if isinstance(model, models.ScalarModel):
        field = fields.sample_scalar(model, grid, args.time)
    else:
        field = fields.sample_potential(model, grid, args.time)
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
    started = time.perf_counter()
    field = fieldio.load_field(args.field, z_slice=args.slice)
    if isinstance(field, fields.PotentialField):
        records = detect.find_disclinations(field, 0)
    else:
        records = detect.find_dislocations(field, 0)
    report = {
        "field": Path(args.field).name,
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
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args, started,
          {"slice": args.slice}, inputs=[args.field])
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.perf_counter()
    descriptor = _load_descriptor(args.model)
    rows = verify.claims(models.model_from_descriptor(descriptor), args.dims, args.refinements)
    lines = ["check,value,expected,tolerance,passed,orders"]
    for r in rows:
        lines.append(
            f"{r['check']},{r['value']:.12g},{r['expected']:.12g},"
            f"{r['tolerance']:.12g},{str(r['passed']).lower()},{r['orders']}"
        )
    _emit("\n".join(lines) + "\n", args, started,
          {"descriptor": descriptor, "dims": args.dims, "refinements": args.refinements})
    return EXIT_OK if all(r["passed"] for r in rows) else EXIT_CLAIM_FAILURE


def _agrees(value: float, expected: float) -> bool:
    """The period and ws verdict: |value - expected| <= max(1e-9, 32 eps |expected|).

    Both sums add terms of one sign, pairwise over 2 * 64 (ws) or 2 * 256
    (period) points, after a few operations for the amplitudes, so their
    relative rounding stays below 32 eps; up to |expected| = 1e-9 / (32 eps),
    about 1.4e5, the bound is the absolute 1e-9.
    """
    return abs(value - expected) <= max(1e-9, 32 * float(np.finfo(float).eps) * abs(expected))


def cmd_forms(args) -> int:
    started = time.perf_counter()
    if args.demo == "stokes":
        if args.pairs < 1:
            raise ValueError("--pairs must be at least 1")
        rng = np.random.default_rng(args.seed)
        cx = forms.CubicalComplex(args.nodes, args.nodes)
        # every pair's chain degree, cells and coefficients first, each in one draw
        degree = rng.integers(0, 2, size=args.pairs) + 1
        high = np.array([cx.n_cells(1), cx.n_cells(2)])[degree - 1, None]
        cells = rng.integers(0, high, size=(args.pairs, 5))
        coeffs = rng.integers(-3, 4, size=(args.pairs, 5))
        # Chain's dict rule: zero coefficients dropped, a repeated cell kept at its
        # first position with its last value
        same = (cells[:, :, None] == cells[:, None, :]) & (coeffs != 0)[:, None, :]
        first = (coeffs != 0) & ~np.tril(same, -1).any(-1)
        coeffs = np.take_along_axis(coeffs, 4 - np.argmax(same[:, :, ::-1], -1), -1)
        # d form(chain) and form(boundary(chain)) read only the chain's lower cells, so
        # the form is drawn on those alone, chain by chain in pair order
        touched, batches = np.zeros(args.pairs, dtype=np.int64), []
        for p in (1, 2):
            kept = first & (degree == p)[:, None]
            counts = kept[degree == p].sum(1)
            _, owner, rows, signs = forms.chain_rows(cx, p, cells[kept], counts)
            touched[degree == p] = np.bincount(owner, minlength=counts.size)
            batches.append((p, rows, signs, coeffs[kept], owner, counts.size))
        drawn = rng.standard_normal(touched.sum())
        pair = np.repeat(np.arange(args.pairs), touched)
        scale = np.ones(args.pairs)
        np.maximum.at(scale, pair, np.abs(drawn))
        residual = np.empty(args.pairs)
        for p, rows, signs, chain_coeffs, owner, n in batches:
            residual[degree == p] = forms.stokes_on_rows(
                rows, signs, chain_coeffs, drawn[degree[pair] == p], owner, n)
        worst = float(np.max(np.abs(residual) / scale))
        report = {"demo": "stokes", "nodes": args.nodes, "seed": args.seed, "pairs": args.pairs,
                  "max_relative_residual": worst, "tolerance": 1e-12,
                  "passed": worst <= 1e-12}
    elif args.demo == "period":
        if not math.isfinite(args.radius):
            raise ValueError(f"--radius must be finite, got {args.radius!r}")
        ax, ay = forms.angular_form_components()
        try:
            # points or tangents leaving float range raise: inf * sin(0) at s = 0 is invalid
            with np.errstate(over="raise", invalid="raise"):
                cycle = forms.ParametricCycle.circle(radius=args.radius, turns=args.turns)
                period = forms.period_integral(ax, ay, cycle, singularities=((0.0, 0.0),))
                offset = forms.ParametricCycle.circle(cx=3.0 * args.radius, radius=args.radius)
                away = forms.period_integral(ax, ay, offset, singularities=((0.0, 0.0),))
        except forms.SingularityProximityError as exc:
            raise ValueError(f"--radius {args.radius:g} is too small: {exc}") from exc
        except FloatingPointError as exc:
            raise ValueError(f"--radius {args.radius:g} is too large: the cycles' points "
                             f"or tangents leave float range") from exc
        expected = 2.0 * math.pi * args.turns
        report = {"demo": "period", "turns": args.turns, "period": period,
                  "expected": expected, "non_enclosing_period": away,
                  "passed": _agrees(period, expected) and abs(away) <= 1e-9}
    else:
        value = forms.ws_integral(args.energy, args.nu, args.mass)
        expected = args.energy / args.nu
        report = {"demo": "ws", "energy": args.energy, "nu": args.nu,
                  "mass": args.mass, "value": value, "expected": expected,
                  "passed": _agrees(value, expected)}
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args, started,
          {name: getattr(args, name) for name in
           ("demo", "nodes", "pairs", "seed", "turns", "radius", "energy", "nu", "mass")})
    return EXIT_OK if report["passed"] else EXIT_CLAIM_FAILURE


def cmd_ledger(args) -> int:
    started = time.perf_counter()
    units = ledger.UNIT_SYSTEMS[args.units]
    if args.wavelength is not None and args.nu is not None:
        raise ValueError("ledger takes --nu or --wavelength, not both")
    if args.wavelength is not None:
        led = ledger.PhotonLedger.from_wavelength(args.wavelength, units)
    elif args.nu is not None:
        led = ledger.PhotonLedger.from_frequency(args.nu, units,
                                                 with_wavenumber=args.with_wavenumber)
    else:
        raise ValueError("ledger requires --nu or --wavelength")
    _emit(json.dumps(ledger.ledger_summary(led), sort_keys=True, indent=2) + "\n", args,
          started, {"nu": args.nu, "wavelength": args.wavelength, "units": args.units,
                    "with_wavenumber": args.with_wavenumber})
    return EXIT_OK


def _rows_from_input(path: Path) -> list[dict]:
    text = path.read_text()
    if path.suffix == ".csv":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError(f"{path.name}: CSV input has no header line")
        header = lines[0].split(",")
        rows = []
        for ln in lines[1:]:
            cells = ln.split(",")
            row = dict(zip(header, cells))
            rows.append({"source": path.name, "check": row.get("check", "?"),
                         "value": row.get("value", ""),
                         "passed": row.get("passed", "true") == "true"})
        return rows
    try:
        report = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path.name}: JSON input is not valid JSON: {exc}") from exc
    defects = report.get("defects", []) if isinstance(report, dict) else None
    if not isinstance(defects, list):
        raise ValueError(f"{path.name}: JSON input must be an object with a 'defects' list")
    return [{"source": path.name, "check": "defect_count", "value": str(len(defects)),
             "passed": True}]


def cmd_report(args) -> int:
    import hashlib

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
        width = max((len(r["check"]) for r in rows), default=0)
        lines = ["| source | check | value | passed |", "|---|---|---|---|"]
        for r in rows:
            lines.append(f"| {r['source']} | {r['check']:<{width}} | {r['value']} "
                         f"| {'pass' if r['passed'] else 'FAIL'} |")
        text = "\n".join(lines) + "\n"
    _emit(text, args, started, {}, inputs=args.inputs)
    return EXIT_OK if all(r["passed"] for r in rows) else EXIT_CLAIM_FAILURE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process, at the first main() call: parsing leaves no state
    # in the parser, and each set_defaults(func=...) binds its cmd_* function
    # at this build, so replacing cli.cmd_* afterwards does not reach main()
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
    g.add_argument("--extent", default=None,
                   help="box extent for a centered grid (scalar or triple; 6.0 when "
                        "neither --extent nor --spacing is given)")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
