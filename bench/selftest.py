#!/usr/bin/env python3
"""Self-test of the benchmark.

Runs one job of each workload and requires the oracle to pass it, then
injects wrong answers into copies of that job's outputs and requires the
oracle to count each as a failure. Finally it installs the tracer, runs the
same jobs traced, and checks that every layer the workload should exercise
recorded spans and that the self times add up to the traced job time.

    python3 bench/selftest.py

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from fractions import Fraction

import run


def _edit_file(out, pick, edit):
    """Apply ``edit`` to the text of the first data output whose name ``pick`` accepts."""
    out = copy.deepcopy(out)
    name = next(n for n in out.files if pick(n))
    out.files[name] = edit(out.files[name].decode()).encode()
    return out


def _edit_json(out, pick, edit):
    def apply(text):
        data = json.loads(text)
        edit(data)
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    return _edit_file(out, pick, apply)


def _edit_csv_value(out, check, value, column=1):
    def apply(text):
        lines = text.splitlines()
        for i, line in enumerate(lines):
            cells = line.split(",")
            if cells[0] == check:
                cells[column] = value
                lines[i] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return _edit_file(out, lambda n: n.endswith(".csv"), apply)


def _edit_value(out, key, edit):
    out = copy.deepcopy(out)
    out.values[key] = edit(out.values[key])
    return out


def _with_exit(out, code):
    out = copy.deepcopy(out)
    out.exits[-1] = code
    return out


def _shift_first_index(report):
    first = report["defects"][0]
    first["index"] = f"{int(Fraction(first['index'])) + 1:+d}"


MUTATIONS = {
    "verify-refine": {
        "tifold index off 1/2": lambda o: _edit_csv_value(o, "tifold_index", "0.5000001"),
        "gauge residual above 1e-9": lambda o: _edit_csv_value(o, "lorentz_interior_max", "2e-09"),
        "wave residual above 5%": lambda o: _edit_csv_value(o, "wave_residual_rel", "0.06"),
        "twist off pi": lambda o: _edit_csv_value(o, "twist_per_wavelength", "3.1416"),
        "orbifold deviation 1": lambda o: _edit_csv_value(o, "orbifold_winding_deviation", "1"),
        "observed order 1.5": lambda o: _edit_csv_value(o, "wave_residual_rel", "1.500;2.000", 5),
        "one order missing": lambda o: _edit_csv_value(o, "wave_residual_rel", "2.000", 5),
        "claim failure exit code": lambda o: _with_exit(o, 1),
    },
    "slices-pipeline": {
        "detect total off by one": lambda o: _edit_json(
            o, lambda n: n.startswith("detect-"), _shift_first_index),
        "a defect dropped": lambda o: _edit_json(
            o, lambda n: n.endswith("-05.json"), lambda r: r["defects"].pop()),
        "report row failed": lambda o: _edit_file(
            o, lambda n: n.startswith("report-"), lambda t: t.replace("| pass |", "| FAIL |", 1)),
        "winding sign flipped": lambda o: _edit_value(
            o, "windings", lambda w: [-w[0]] + w[1:]),
        "i/o failure exit code": lambda o: _with_exit(o, 3),
    },
    "fits-forms": {
        "tifold index 1/3": lambda o: _edit_value(o, "index", lambda v: Fraction(1, 3)),
        "rotation rate off by 2e-6": lambda o: _edit_value(
            o, "rate_over_omega", lambda v: v + 2e-6),
        "loop winding off": lambda o: _edit_value(o, "windings", lambda w: [1] * len(w)),
        "annulus form not closed": lambda o: _edit_value(o, "closed", lambda v: False),
        "stokes residual 1e-11": lambda o: _edit_json(
            o, lambda n: n.endswith("-stokes.json"),
            lambda r: r.__setitem__("max_relative_residual", 1e-11)),
        "period off by 1e-8": lambda o: _edit_json(
            o, lambda n: n.endswith("-period.json"),
            lambda r: r.__setitem__("period", r["period"] + 1e-8)),
        "ws action off by 1e-8": lambda o: _edit_json(
            o, lambda n: n.endswith("-ws.json"),
            lambda r: r.__setitem__("value", r["value"] + 1e-8)),
    },
}

# per-layer counts each workload's first job must record when traced
EXPECTED_COUNTS = {
    "verify-refine": ("fields.fd.calls", "fields.sample.nodes", "verify.wave.calls",
                      "models.eval.points", "detect.fits.calls", "detect.winding.calls",
                      "cli.calls"),
    "slices-pipeline": ("fieldio.bytes_read", "detect.defects.records",
                        "detect.winding.calls", "cli.calls"),
    "fits-forms": ("models.eval.points", "detect.fits.calls", "detect.winding.calls",
                   "forms.chain_cells", "cli.calls"),
}


def main() -> int:
    run.enter_checkout()
    from workloads import WORKLOADS

    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems = []
    try:
        firsts = {}
        for name, workload in WORKLOADS.items():
            job = workload.jobs(run.DEFAULT_SEED)[0]
            prepared = workload.prepare(job)
            out = workload.run(job, prepared, work, 0)
            errors = workload.check(job, out)
            print(f"[{'FAIL' if errors else 'ok'}] {name}: one-job smoke run {errors or ''}")
            problems += errors
            firsts[name] = (job, prepared)
            for what, mutate in MUTATIONS[name].items():
                caught = bool(workload.check(job, mutate(out)))
                print(f"[{'ok' if caught else 'FAIL'}] {name}: oracle catches {what}")
                if not caught:
                    problems.append(f"{name}: {what} not caught")

        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
        for name, (job, prepared) in firsts.items():
            tracer.spans.clear()
            tracer.counts.clear()
            with tracer.job():
                out = WORKLOADS[name].run(job, prepared, work, 0)
            summary = tracer.summary(1)
            share = sum(summary["self_s"].values()) / summary["job_s"]
            missing = [c for c in EXPECTED_COUNTS[name] if not summary["counts"].get(c)]
            ok = abs(share - 1.0) <= 1e-6 and not missing and not WORKLOADS[name].check(job, out)
            print(f"[{'ok' if ok else 'FAIL'}] {name}: traced job, self times cover "
                  f"{share!r} of it, missing counts {missing}")
            if not ok:
                problems.append(f"{name}: traced job")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
