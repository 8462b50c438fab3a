"""The three benchmark workloads: seeded job lists, the calls each job makes
into the program, and the oracle that checks each job's outputs.

Every oracle value is fixed here, by construction or by the tolerances of
the acceptance suite; nothing is read back from the program's own pass/fail
verdicts. The program only ever sees the generated inputs, never the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from defectfield import cli, detect, fieldio, fields, forms, models

TWO_PI = 2.0 * math.pi


@dataclass
class Output:
    """What one job produced."""

    files: dict = field(default_factory=dict)   # data outputs in write order (digested)
    exits: list = field(default_factory=list)   # CLI exit codes, each expected 0
    values: dict = field(default_factory=dict)  # results of direct library calls
    cores: int = 0                              # true defect cores put before detection


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


def _cli(argv) -> int:
    # generate prints the manifest path; keep the benchmark's stdout for results
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _uniform(rng, lo, hi) -> float:
    return round(float(rng.uniform(lo, hi)), 6)


def _disclination_descriptor(k: float, c: float) -> str:
    return json.dumps({"model": "disclination", "k": k, "c": c}, sort_keys=True)


# ---------------------------------------------------------------- verify-refine

VERIFY_HEADER = "check,value,expected,tolerance,passed,orders"
VERIFY_DIMS = 33
VERIFY_REFINEMENTS = 3

# the acceptance suite's tolerances, pinned here
VERIFY_ORACLE = {
    "lorentz_interior_max": lambda v: 0.0 <= v <= 1e-9,
    "transverse_divergence_interior_max": lambda v: 0.0 <= v <= 1e-10,
    "wave_residual_rel": lambda v: 0.0 <= v <= 0.05,
    "rotation_rate_over_omega": lambda v: abs(v - 0.5) <= 1e-6,
    "twist_per_wavelength": lambda v: abs(v - math.pi) <= 1e-6,
    "tifold_index": lambda v: v == 0.5,
    "orbifold_winding_deviation": lambda v: v == 0.0,
    "energy_partition_deviation": lambda v: v == 0.0,
}


class VerifyRefine:
    """One ``verify`` command per job on a seeded on-shell disclination.

    Base grid 33^3 with three refinements (33^3, 65^3, 129^3): the grid-kernel
    path. Sampling, finite differences and residual reports do most of the
    work and set the memory peak; no file input, no forms.
    """

    name = "verify-refine"
    jobs_per_pass = 2

    def jobs(self, seed: int) -> list[dict]:
        rng = _rng(seed, 1)
        return [{"k": _uniform(rng, 0.5, 2.0), "c": _uniform(rng, 0.5, 2.0)}
                for _ in range(self.jobs_per_pass)]

    def prepare(self, job: dict):
        return None

    def run(self, job: dict, prepared, work: Path, i: int) -> Output:
        out = work / f"verify-{i}.csv"
        code = _cli(["verify", "--model", _disclination_descriptor(job["k"], job["c"]),
                     "--dims", VERIFY_DIMS, "--refinements", VERIFY_REFINEMENTS,
                     "--out", out])
        return Output(files={out.name: out.read_bytes()}, exits=[code])

    def check(self, job: dict, out: Output) -> list[str]:
        errors = [f"exit codes {out.exits}"] if out.exits != [0] else []
        (text,) = (b.decode() for b in out.files.values())
        lines = text.splitlines()
        if not lines or lines[0] != VERIFY_HEADER:
            return errors + ["CSV header differs"]
        rows = {}
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != 6:
                return errors + [f"CSV row {line!r} has {len(cells)} cells"]
            rows[cells[0]] = cells
        if sorted(rows) != sorted(VERIFY_ORACLE):
            return errors + [f"CSV checks {sorted(rows)}"]
        for check, accept in VERIFY_ORACLE.items():
            value = float(rows[check][1])
            if not accept(value):
                errors.append(f"{check} = {value!r}")
        orders = [float(o) for o in rows["wave_residual_rel"][5].split(";") if o]
        if len(orders) != VERIFY_REFINEMENTS - 1 or not all(abs(o - 2.0) <= 0.3 for o in orders):
            errors.append(f"observed orders {orders}")
        return errors


# -------------------------------------------------------------- slices-pipeline

SLICES = 16
SLICE_EXTENT = 6.0
SLICE_KINDS = ("disclination", "dislocation", "multi")


@dataclass
class SlicesInput:
    grid: object
    values: np.ndarray | None   # multi-defect field values, built by the benchmark
    slice0: object              # slice 0 as a one-slice scalar field, for windings
    loops: list                 # one enclosing loop per core


def _winding_factor(X, Y, x0, y0, charge):
    # (x - x0 + i*sign*(y - y0))^|n|, normalised so the product stays bounded
    w = (X - x0) + 1j * math.copysign(1.0, charge) * (Y - y0)
    return (w / np.sqrt(1.0 + np.abs(w) ** 2)) ** abs(charge)


class SlicesPipeline:
    """One field per job through ``generate`` (or ``save_field``), ``detect`` on
    all 16 slices, then ``report``.

    Fields rotate through disclination descriptors, dislocation descriptors
    with charges +-1, +-2 and +-3 once each a pass, and benchmark-built multi-defect scalar fields
    (3-6 cores, |n| <= 3); transverse grids alternate 257^2 (cores on a node)
    and 256^2 (cores between nodes). Every detect reloads the whole volume,
    so field reads dominate; no finite differences, no fits.
    """

    name = "slices-pipeline"
    jobs_per_pass = 9

    def jobs(self, seed: int) -> list[dict]:
        rng = _rng(seed, 2)
        # every pass samples |n| = 1, 2, 3 once, so its work does not depend on the seed
        orders = iter(rng.permutation([1, 2, 3]))
        jobs = []
        for i in range(self.jobs_per_pass):
            kind = SLICE_KINDS[i % 3]
            job = {"kind": kind, "n": (257, 256)[i % 2], "k": _uniform(rng, 0.5, 2.0)}
            if kind == "disclination":
                job["c"] = _uniform(rng, 0.5, 2.0)
                job["cores"] = [(0.0, 0.0, 1)]
            elif kind == "dislocation":
                job["cores"] = [(0.0, 0.0, int(next(orders)) * int(rng.choice((-1, 1))))]
            else:
                cores = []
                count = int(rng.integers(3, 7))
                while len(cores) < count:
                    x0, y0 = (_uniform(rng, -2.5, 2.5) for _ in range(2))
                    if all(math.hypot(x0 - a, y0 - b) > 0.8 for a, b, _ in cores):
                        cores.append((x0, y0, int(rng.choice((-3, -2, -1, 1, 2, 3)))))
                job["cores"] = cores
            jobs.append(job)
        return jobs

    def descriptor(self, job: dict) -> str:
        if job["kind"] == "disclination":
            return _disclination_descriptor(job["k"], job["c"])
        return json.dumps({"model": "dislocation", "n": job["cores"][0][2], "k": job["k"]},
                          sort_keys=True)

    def prepare(self, job: dict) -> SlicesInput:
        n, k = job["n"], job["k"]
        grid = fields.GridSpec.centered((SLICE_EXTENT,) * 3, (n, n, SLICES))
        xs, ys, zs = (grid.axis_coords(a) for a in range(3))
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        values = None
        if job["kind"] == "multi":
            plane = np.ones((n, n), dtype=complex)
            for x0, y0, charge in job["cores"]:
                plane *= _winding_factor(X, Y, x0, y0, charge)
            values = plane[:, :, None] * np.exp(1j * k * zs)[None, None, :]
            first = values[:, :, 0]
        else:
            # closed forms of the descriptor models (Ax for the disclination)
            x0, y0, charge = job["cores"][0]
            first = _winding_factor(X, Y, x0, y0, charge) * np.exp(1j * k * zs[0])
        slice_grid = fields.GridSpec((n, n, 1), grid.spacing, grid.origin)
        slice0 = fields.ComplexScalarField(slice_grid, 0.0, first[:, :, None])
        cores = job["cores"]
        loops = []
        for x0, y0, _ in cores:
            gaps = [math.hypot(x0 - a, y0 - b) for a, b, _ in cores if (a, b) != (x0, y0)]
            edge = SLICE_EXTENT / 2 - max(abs(x0), abs(y0))
            radius = min([1.0, 0.9 * edge] + [0.45 * g for g in gaps])
            loops.append(detect.LoopPath.circle(x0, y0, radius, n=256, z=float(zs[0])))
        return SlicesInput(grid, values, slice0, loops)

    def run(self, job: dict, prepared: SlicesInput, work: Path, i: int) -> Output:
        field_path = work / f"field-{i}.json"
        out = Output(cores=len(job["cores"]) * SLICES)
        if job["kind"] == "multi":
            data = fields.ComplexScalarField(prepared.grid, 0.0, prepared.values)
            fieldio.save_field(data, field_path)
            out.exits.append(0)
        else:
            n = job["n"]
            out.exits.append(_cli(["generate", "--model", self.descriptor(job),
                                   "--dims", f"{n},{n},{SLICES}",
                                   "--extent", SLICE_EXTENT, "--out", field_path]))
        reports = []
        for s in range(SLICES):
            path = work / f"detect-{i}-{s:02d}.json"
            out.exits.append(_cli(["detect", "--field", field_path, "--slice", s,
                                   "--out", path]))
            out.files[path.name] = path.read_bytes()
            reports.append(path)
        table = work / f"report-{i}.md"
        out.exits.append(_cli(["report", "--inputs", *reports, "--out", table]))
        out.files[table.name] = table.read_bytes()
        out.values["windings"] = [detect.phase_winding(prepared.slice0, loop)
                                  for loop in prepared.loops]
        return out

    def check(self, job: dict, out: Output) -> list[str]:
        errors = []
        if out.exits != [0] * (SLICES + 2):
            errors.append(f"exit codes {out.exits}")
        kind = "disclination" if job["kind"] == "disclination" else "dislocation"
        total = sum(charge for _, _, charge in job["cores"])
        counts = {}
        for name, blob in list(out.files.items())[:SLICES]:
            report = json.loads(blob)
            counts[name] = len(report["defects"])
            found = sum(Fraction(d["index"]) for d in report["defects"])
            if found != total or any(d["kind"] != kind for d in report["defects"]):
                errors.append(f"{name}: total index {found}, expected {total}")
        table = list(out.files.values())[SLICES].decode().splitlines()[2:]
        rows = [[c.strip() for c in line.strip("|").split("|")] for line in table]
        if [(r[0], r[1], int(r[2]), r[3]) for r in rows] != [
                (name, "defect_count", n, "pass") for name, n in counts.items()]:
            errors.append("report rows disagree with the detect outputs")
        charges = [charge for _, _, charge in job["cores"]]
        if out.values["windings"] != charges:
            errors.append(f"windings {out.values['windings']}, expected {charges}")
        return errors


# ------------------------------------------------------------------- fits-forms

FIT_SLICE = fields.GridSpec.centered((8.0, 8.0, 1.0), (161, 161, 1))
STOKES_NODES = 64
STOKES_PAIRS = 400
ANNULUS_NODES = 96


class FitsForms:
    """Rotation fits, loop windings and discrete-forms reports for one seeded
    on-shell disclination per job.

    Point-wise model evaluation inside the 4096-angle alignment scans, and the
    dict-walked chains of the forms engine, do almost all the work; no 3D
    grids, no file input.
    """

    name = "fits-forms"
    jobs_per_pass = 4

    def jobs(self, seed: int) -> list[dict]:
        rng = _rng(seed, 3)
        jobs = []
        for j in range(self.jobs_per_pass):
            # stratified draws keep the work of a pass the same from seed to seed
            stratum = (j + rng.uniform()) / self.jobs_per_pass
            loops = []
            for m in range(4):
                if m % 2 == 0:   # encloses the axis: winding +1
                    cx, cy = (_uniform(rng, -0.3, 0.3) for _ in range(2))
                    loops.append((cx, cy, _uniform(rng, 0.5, 2.5), 1))
                else:            # off the axis: winding 0
                    angle = _uniform(rng, 0.0, TWO_PI)
                    loops.append((2.2 * math.cos(angle), 2.2 * math.sin(angle),
                                  _uniform(rng, 0.3, 0.9), 0))
            size = 32 + int(32 * (1 - stratum))
            i0, j0 = (int(rng.integers(2, ANNULUS_NODES - 2 - size)) for _ in range(2))
            jobs.append({
                "k": _uniform(rng, 0.5, 2.0), "c": _uniform(rng, 0.5, 2.0),
                "rotation_fraction": round(0.05 + 0.9 * stratum, 6),
                "loops": loops,
                "hole": (i0, i0 + size, j0, j0 + size),
                "stokes_seed": int(rng.integers(0, 2 ** 31)),
                "turns": 1 + j % 3, "radius": _uniform(rng, 0.5, 2.0),
                "ws": (_uniform(rng, 0.5, 5.0), _uniform(rng, 0.5, 2.0),
                       _uniform(rng, 0.3, 3.0)),
            })
        return jobs

    def prepare(self, job: dict) -> list:
        return [detect.LoopPath.circle(cx, cy, r, n=256) for cx, cy, r, _ in job["loops"]]

    def run(self, job: dict, loops: list, work: Path, i: int) -> Output:
        out = Output()
        model = models.DisclinationModel(
            models.WaveParams.with_dispersion(k=job["k"], c=job["c"]))
        omega, k = model.params.omega, model.params.k
        index, residual = detect.tifold_index(model, full_output=True)
        rate = detect.pattern_rotation_rate(model, 0.0,
                                            job["rotation_fraction"] * TWO_PI / omega)
        twist = detect.axial_twist_per_length(model, 0.0, TWO_PI / k, 0.0)
        ax = fields.sample_potential(model, FIT_SLICE, 0.0).component_field("Ax")
        windings = [detect.phase_winding(ax, loop) for loop in loops]
        i0, i1, j0, j1 = job["hole"]
        cx = forms.annulus_complex(ANNULUS_NODES, ANNULUS_NODES, job["hole"])
        closed, period = forms.closed_not_exact_witness(
            forms.winding_one_form(cx, center=(i0 + 0.5, j0 + 0.5)))
        out.values = {"index": index, "residual": residual, "rate_over_omega": rate / omega,
                      "twist_per_wavelength": abs(twist) * TWO_PI / k,
                      "windings": windings, "closed": closed, "hole_period": period}
        out.files["fits.json"] = json.dumps(
            {key: str(v) if isinstance(v, Fraction) else v
             for key, v in out.values.items()}, sort_keys=True).encode()
        energy, nu, mass = job["ws"]
        demos = {
            "stokes": ["--nodes", STOKES_NODES, "--pairs", STOKES_PAIRS,
                       "--seed", job["stokes_seed"]],
            "period": ["--turns", job["turns"], "--radius", job["radius"]],
            "ws": ["--energy", energy, "--nu", nu, "--mass", mass],
        }
        for demo, args in demos.items():
            path = work / f"forms-{i}-{demo}.json"
            out.exits.append(_cli(["forms", "--demo", demo, *args, "--out", path]))
            out.files[path.name] = path.read_bytes()
        return out

    def check(self, job: dict, out: Output) -> list[str]:
        errors = [f"exit codes {out.exits}"] if out.exits != [0, 0, 0] else []
        v = out.values
        if v["index"] != Fraction(1, 2) or not v["residual"] <= 1e-6:
            errors.append(f"tifold index {v['index']} (residual {v['residual']!r})")
        if not abs(v["rate_over_omega"] - 0.5) <= 1e-6:
            errors.append(f"rotation rate / omega = {v['rate_over_omega']!r}")
        if not abs(v["twist_per_wavelength"] - math.pi) <= 1e-6:
            errors.append(f"twist per wavelength = {v['twist_per_wavelength']!r}")
        expected = [w for *_, w in job["loops"]]
        if v["windings"] != expected:
            errors.append(f"windings {v['windings']}, expected {expected}")
        if v["closed"] is not True or not abs(v["hole_period"] - TWO_PI) <= 1e-9:
            errors.append(f"annulus witness {v['closed']}, period {v['hole_period']!r}")
        stokes, period, ws = (json.loads(b) for name, b in out.files.items()
                              if name.startswith("forms-"))
        if stokes["pairs"] != STOKES_PAIRS or not 0.0 <= stokes["max_relative_residual"] <= 1e-12:
            errors.append(f"stokes report {stokes}")
        if (period["turns"] != job["turns"]
                or not abs(period["period"] - TWO_PI * job["turns"]) <= 1e-9
                or not abs(period["non_enclosing_period"]) <= 1e-9):
            errors.append(f"period report {period}")
        energy, nu, _ = job["ws"]
        if not abs(ws["value"] - energy / nu) <= 1e-9:
            errors.append(f"ws report {ws}")
        return errors


WORKLOADS = {w.name: w for w in (VerifyRefine(), SlicesPipeline(), FitsForms())}
