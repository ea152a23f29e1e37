#!/usr/bin/env python3
"""Benchmark runner for polsardr.

    python3 perfbench/run.py --workload pipeline_default --seed 20240801 \\
        --seconds 60 --trace 0 [--result-file out.json]

Run from the root of a checkout.  One process drives the load.  The inputs are
built from ``--seed`` by a timed set-up child process (``setup_s``: interpreter
start, ``import polsardr``, input building).  Then the workload runs again and
again until ``--seconds`` is used up, and each iteration's outputs are checked.
Further set-up children (at least three in all) run between the iterations
and in the time left at the end, so that ``setup_s``, their median, sees the
same host drift as ``run_s``.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics, as medians over the iterations.  With
``--trace 1`` it carries the per-layer totals: untraced and traced iterations
alternate, and the difference between them is the tracing overhead.  The line
before it is the machine record.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
# Share of the elapsed time given to repeated set-ups between iterations.
SETUP_SHARE = 0.2
# Set-ups per run at the least, even where the last ones end after --seconds.
SETUP_MIN = 3
GOLDENS = Path(__file__).resolve().parent / "goldens.json"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result-file", help="also write the full record (samples, machine) here")
    p.add_argument("--record-goldens", action="store_true",
                   help="run once at the golden seed and store its outputs in goldens.json")
    p.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def load_program():
    """Import polsardr from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "polsardr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no polsardr sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import polsardr
    if Path(polsardr.__file__).resolve().parent != src / "polsardr":
        sys.exit(f"perfbench: imported polsardr from {polsardr.__file__}, not {src}")
    import workloads
    return workloads


def machine_record() -> dict:
    import numpy
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
                             ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


@contextlib.contextmanager
def workdir(tag: str):
    """A scratch directory inside the checkout, removed afterwards."""
    wd = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    wd.mkdir(parents=True)
    try:
        yield wd
    finally:
        shutil.rmtree(wd, ignore_errors=True)
        with contextlib.suppress(OSError):
            wd.parent.rmdir()


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3, "n": len(values)}


class Runner:
    def __init__(self, args, workloads):
        self.args = args
        self.wl = workloads.WORKLOADS[args.workload]
        self.deadline = START + args.seconds
        self.golden = None
        if args.seed == workloads.GOLDEN_SEED and GOLDENS.is_file():
            self.golden = json.loads(GOLDENS.read_text()).get(args.workload)
        self.attempted = 0
        self.failures: list[str] = []
        self.accuracy: list[float] = []
        self.rss_mb: float | None = None

    def timed_setup(self, wd: Path) -> float:
        """Build the inputs into wd in a fresh child interpreter; return its wall time."""
        shutil.rmtree(wd, ignore_errors=True)
        wd.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(wd),
               "--workload", self.args.workload, "--seed", str(self.args.seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        return elapsed

    def traced(self, fn):
        """Call fn with a fresh trace recording; layer_metrics() then reads it."""
        self.tracer.reset()
        self.tracer.install()
        try:
            return fn()
        finally:
            self.tracer.uninstall()

    def iteration(self, wd: Path, traced: bool = False) -> tuple[float, float, dict]:
        """One measured run of the workload, then its output check."""
        self.attempted += 1
        c0, t0 = time.process_time(), time.perf_counter()
        result = self.traced(lambda: self.wl.run(wd)) if traced else self.wl.run(wd)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if self.rss_mb is None:  # before verify, so the checks' arrays do not count
            self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        layers = self.tracer.layer_metrics() if traced else {}
        errors, accuracy = self.wl.verify(wd, self.args.seed, result, self.golden)
        for e in errors:
            print(f"perfbench: check failed: {e}", file=sys.stderr)
        if errors:
            self.failures.append("; ".join(errors))
        self.accuracy.append(accuracy)
        return wall, cpu, layers

    def more(self, *samples: list[float]) -> bool:
        """Whether another round of iterations fits before the deadline."""
        need = sum(statistics.median(s) for s in samples)
        return time.perf_counter() + need <= self.deadline

    def end_to_end(self, wd: Path) -> tuple[dict, dict]:
        setup = [self.timed_setup(wd / "inputs")]
        again = wd / "again"  # repeated set-ups leave the measured inputs alone
        walls, cpus = [], []
        while True:
            wall, cpu, _ = self.iteration(wd / "inputs")
            walls.append(wall)
            cpus.append(cpu)
            # Only as many as still leave room for the next iteration.
            while (sum(setup) < SETUP_SHARE * (time.perf_counter() - START)
                   and self.more(setup, walls)):
                setup.append(self.timed_setup(again))
            if not self.more(walls):
                break
        while self.more(setup) or len(setup) < SETUP_MIN:
            setup.append(self.timed_setup(again))
        metrics = {
            "run_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (self.rss_mb, "MB"),
            "accuracy_pct": (statistics.median(self.accuracy), "%"),
        }
        samples = {"run_s": walls, "cpu_s": cpus, "setup_s": setup}
        return metrics, samples

    def per_layer(self, wd: Path) -> tuple[dict, dict]:
        import spans
        self.tracer = spans.Tracer()
        self.traced(lambda: self.wl.setup(wd, self.args.seed, False))
        setup = self.tracer.layer_metrics()
        plain, walls, layers = [], [], []
        while not walls or self.more(plain, walls):
            plain.append(self.iteration(wd)[0])
            wall, _, layer = self.iteration(wd, traced=True)
            walls.append(wall)
            layers.append({m: max(v, setup[m]) if m in spans.PEAK else v + setup[m]
                           for m, v in layer.items()})
        metrics = {m: (statistics.median(l[m] for l in layers), spans.UNITS[m])
                   for m in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(walls) - statistics.median(plain), "s")
        samples = {"untraced_run_s": plain, "traced_run_s": walls,
                   "spans": self.tracer.span_table()}
        return metrics, samples

    def run(self) -> int:
        with workdir(self.args.workload) as wd:
            if self.args.trace:
                metrics, samples = self.per_layer(wd)
            else:
                metrics, samples = self.end_to_end(wd)
        line = {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        machine = machine_record()
        if self.args.result_file:
            record = {
                "workload": self.args.workload, "seed": self.args.seed,
                "seconds": self.args.seconds, "trace": self.args.trace,
                "golden_checked": self.golden is not None,
                "failed_fraction": len(self.failures) / self.attempted,
                "failures": self.failures,
                "quartiles": {k: quartiles(v) for k, v in samples.items() if k != "spans"},
                "samples": samples, "machine": machine, "result": line,
            }
            Path(self.args.result_file).write_text(json.dumps(record, indent=1) + "\n")
        print(json.dumps({"machine": machine}))
        print(json.dumps(line))
        return 0


def record_goldens(args, workloads) -> int:
    wl = workloads.WORKLOADS[args.workload]
    with workdir("goldens") as wd:
        wl.setup(wd, workloads.GOLDEN_SEED, False)
        result = wl.run(wd)
        errors, _ = wl.verify(wd, workloads.GOLDEN_SEED, result, None)
        if errors:
            sys.exit("perfbench: not recording goldens from failing outputs: "
                     + "; ".join(errors))
        goldens = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}
        goldens[args.workload] = wl.outputs(wd, result)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.WORKLOADS[args.workload].setup(Path(args.setup_only), args.seed, False)
        return 0
    if args.record_goldens:
        return record_goldens(args, workloads)
    return Runner(args, workloads).run()


if __name__ == "__main__":
    sys.exit(main())
