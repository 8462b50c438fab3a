#!/usr/bin/env python3
"""defectfield benchmark: a closed-loop, single-client driver.

One client runs a workload's fixed, seeded job list back to back (one
"pass"), and repeats passes until ``--seconds`` is spent. Jobs call the
public library API and the in-process CLI, ``defectfield.cli.main(argv)``;
an oracle in ``workloads.py`` checks every output.

    python3 bench/run.py --workload verify-refine --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics of a
traced run (see ``bench/README.md``). The program is imported from ``src/``
next to this directory; without it the benchmark exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")   # relative to ROOT, so output bytes do not depend on it
OUT = Path(".bench_out")

DEFAULT_SEED = 1
# performance claims confirm on this seed, which is not used while tuning a change
HELD_OUT_SEED = 2027

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 7
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import defectfield, defectfield.cli\n"
    "print(repr(time.perf_counter() - t0))\n"
    "print(defectfield.__file__)\n"
)


def enter_checkout() -> None:
    """Work from the checkout root on the program in ``src/``, with BLAS and
    OpenMP pools pinned to one thread before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)


def machine_context() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("DEFECTFIELD_THREADS",)},
    }


def measure_setup() -> float:
    """Median import time of the package and its CLI in fresh processes."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=os.environ,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, origin = proc.stdout.split("\n")[:2]
        if not Path(origin).resolve().is_relative_to(SRC):
            raise RuntimeError(f"defectfield imported from {origin}, not {SRC}")
        if i:   # the first import also compiles bytecode; it is not timed
            samples.append(float(seconds))
    return statistics.median(samples)


class Stats:
    """What the passes of one phase measured."""

    def __init__(self):
        self.passes: list[list[float]] = []   # job times, one list per pass
        self.attempted = 0
        self.failed = 0
        self.cores = 0
        self.digest = None

    def best_job_times(self) -> list[float]:
        """Each job's best time over the passes.

        Other tenants of the machine slow a job by up to about 1.7x for
        seconds at a time; the best of several repeats measures the program
        rather than that load, and varies far less from run to run than a
        median over the repeats.
        """
        return [min(times) for times in zip(*self.passes)]

    def list_time(self) -> float:
        """Time to finish the job list, each job at its best over the passes."""
        return sum(self.best_job_times())


class Runner:
    """Runs passes of one workload's seeded job list."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.jobs = workload.jobs(seed)
        self.prepared = [workload.prepare(job) for job in self.jobs]
        self.work = work

    def run_pass(self, stats: Stats, tracer=None) -> None:
        times = []
        blobs = hashlib.sha256()
        for i, (job, prepared) in enumerate(zip(self.jobs, self.prepared)):
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = self.workload.run(job, prepared, self.work, i)
                else:
                    with tracer.job():
                        out = self.workload.run(job, prepared, self.work, i)
                seconds = time.perf_counter() - start
                errors = self.workload.check(job, out)
            except Exception:   # a job that raises is a failed job; the run goes on
                seconds = time.perf_counter() - start
                out, errors = None, [traceback.format_exc()]
            stats.attempted += 1
            times.append(seconds)
            if errors:
                stats.failed += 1
                sys.stderr.write(f"FAIL {self.workload.name} job {i}: {'; '.join(errors)}\n")
            if out is not None:
                stats.cores += out.cores
                for name, blob in out.files.items():
                    blobs.update(name.encode() + b"\0" + blob)
        stats.passes.append(times)
        if stats.digest is None:
            stats.digest = blobs.hexdigest()


def repeat_for(seconds: float, step) -> None:
    """Call ``step`` at least once, and again until the next call would end after ``seconds``."""
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - begin) > seconds:
            return


def end_to_end(stats: Stats, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": stats.list_time(),
        "job_p50_s": statistics.median(stats.best_job_times()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (stats.attempted - stats.failed) / stats.attempted,
    }


def per_layer(names, tracer, traced: Stats, untraced_wall_s: float) -> dict:
    """Each declared per-layer metric, per traced job.

    ``<layer>.self_s`` is the layer's self time, ``<layer>.self_s.n<N>`` its
    part on grids with N nodes along x; other names are counts taken by
    ``spans.py`` or the derived values below.
    """
    summary = tracer.summary(traced.attempted)
    wall = traced.list_time()
    derived = {
        "verify.peak_mb": summary["verify_peak_bytes"] / 2 ** 20,
        "detect.defects.records_per_defect":
            tracer.counts["detect.defects.records"] / traced.cores if traced.cores else 0.0,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": wall - untraced_wall_s,
        "trace.accounted_share": sum(summary["self_s"].values()) / summary["job_s"],
    }
    metrics = {}
    for name in names:
        layer, sep, size = name.partition(".self_s")
        if name in derived:
            metrics[name] = derived[name]
        elif sep and not size:
            metrics[name] = summary["self_s"].get(layer, 0.0)
        elif sep:
            metrics[name] = summary["self_s_by_n"].get((layer, int(size[len(".n"):])), 0.0)
        else:
            metrics[name] = summary["counts"].get(name, 0.0)
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "defectfield" / "__init__.py").is_file():
        sys.stderr.write(f"error: program source {SRC / 'defectfield'} is missing\n")
        return 2

    enter_checkout()
    from workloads import WORKLOADS

    setup_s = measure_setup()
    context = machine_context()
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    try:
        runner = Runner(workload, args.seed, work)
        if args.trace:
            from spans import Tracer, install

            tracer = Tracer()
            untraced, traced = Stats(), Stats()

            def both():
                # alternate, so that load from other tenants hits both sides alike
                runner.run_pass(untraced)
                uninstall = install(tracer)
                try:
                    runner.run_pass(traced, tracer)
                finally:
                    uninstall()

            repeat_for(args.seconds, both)
            declared = spec["per_layer"]
            metrics = per_layer([m["name"] for m in declared], tracer, traced,
                                untraced.list_time())
            phases = (untraced, traced)
            correct = abs(metrics["trace.accounted_share"] - 1.0) <= 1e-6
            tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.csv")
        else:
            stats = Stats()
            repeat_for(args.seconds, lambda: runner.run_pass(stats))
            metrics = end_to_end(stats, setup_s)
            declared = spec["end_to_end"]
            phases = (stats,)
            correct = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "context": context, "sha256": phases[0].digest,
              "jobs_per_pass": len(runner.jobs), "error_rate": failed / attempted,
              **result}
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(f"context {json.dumps(context, sort_keys=True)}")
    print(f"sha256 {workload.name} seed {args.seed} {phases[0].digest}")
    print(f"jobs {attempted} failed {failed} error_rate {failed / attempted!r}")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
