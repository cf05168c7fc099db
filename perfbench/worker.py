"""Workload process: runs one config through `ris_sim.cli.main` repeatedly.

Started by run.py with the checkout's `src` on PYTHONPATH and BLAS pinned
to one thread.  Writes its timings, the gate's verdict and, when traced,
the spans and per-layer metrics to DIR/worker.json, and its first table to
DIR/first.csv so that run.py can compare tables across processes.

    python3 perfbench/worker.py --config CFG --workload NAME --seed N
        --seconds S --trace 0|1 --src SRC --out DIR

Untraced mode repeats (threads 1, threads 2) pairs, alternating their order,
and times the speed calibration kernel after each run.
Traced mode makes one threads-2 run for the determinism check, then repeats
(untraced, traced) threads-1 pairs, and finally times the water-fill probe.
Either mode makes at least one repetition and stops when the next one would
overrun `--seconds`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import gate
import speed
import tracing
from workloads import WORKLOADS

REFERENCE = Path(__file__).with_name("reference.json")

#: water-fill probe: two-mode spectra of 2x2 Rayleigh channels at 60-140 dB SNR
PROBE_SPECTRA = 2000
PROBE_BUDGET_RTOL = 1e-6


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def waterfill_probe(numkernel, seed: int):
    """(budget violations, seconds) of `waterfill_powers` on seeded spectra."""
    rng = np.random.default_rng([seed, 0x57F])
    h = (rng.standard_normal((PROBE_SPECTRA, 2, 2))
         + 1j * rng.standard_normal((PROBE_SPECTRA, 2, 2))) / np.sqrt(2.0)
    spectra = np.linalg.svd(h, compute_uv=False)
    noise = 10.0 ** -rng.uniform(6.0, 14.0, PROBE_SPECTRA)
    start = time.perf_counter()
    sums = [numkernel.waterfill_powers(s, 1.0, n).sum() for s, n in zip(spectra, noise)]
    elapsed = time.perf_counter() - start
    violations = int(sum(abs(s - 1.0) > PROBE_BUDGET_RTOL for s in sums))
    return violations, elapsed


class Runner:
    """Runs the config through cli.main and keeps every output."""

    def __init__(self, package, cli, config: str, out: Path):
        self.package = package
        self.cli = cli
        self.config = config
        self.experiment = json.loads(Path(config).read_text())["experiment"]
        self.out = out
        self.count = 0
        self.last_minor_faults = 0

    def run(self, threads: int, tracer=None):
        """(exit code, wall seconds, CSV bytes or None) of one run, traced
        when a tracer is given."""
        self.count += 1
        csv_path = self.out / f"run{self.count}" / "results.csv"
        csv_path.parent.mkdir(parents=True)
        argv = [self.experiment, "--config", self.config, "--threads", str(threads),
                "--out", str(csv_path)]
        if tracer is not None:
            tracer.reset()
            tracer.install(self.package)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash fails the run's operations, not the benchmark
            print(f"cli.main raised {exc!r}", file=sys.stderr)
            code = 2
        finally:
            wall = time.perf_counter() - start
            self.last_minor_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            if tracer is not None:
                tracer.uninstall()
        csv = csv_path.read_bytes() if code == 0 and csv_path.exists() else None
        return code, wall, csv


def table_means(csv) -> dict:
    try:
        return gate.table_means(gate.parse_rows(csv))
    except gate.MalformedTable:
        return {}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import ris_sim
    import ris_sim.cli as cli

    src = Path(args.src).resolve()
    if Path(ris_sim.__file__).resolve().parent != src / "ris_sim":
        print(f"ris_sim imported from {ris_sim.__file__}, not {src}", file=sys.stderr)
        return 2
    runner = Runner(ris_sim, cli, args.config, Path(args.out))
    tracer = tracing.Tracer()
    reps = []        # list of [(exit code, csv)] per repetition
    walls = {"t1": [], "t2": [], "traced": []}
    kernels = []     # calibration kernel times between untraced runs
    layers = []
    per_fn = {}

    def timed(mode, threads, traced=False):
        code, wall, csv = runner.run(threads, tracer if traced else None)
        walls[mode].append(wall)
        if not args.trace:
            kernels.append(speed.kernel_s())
        return code, csv

    start = time.perf_counter()
    if args.trace:
        reps.append([timed("t2", 2)])
    while True:
        rep_start = time.perf_counter()
        if args.trace:
            rep = [timed("t1", 1), timed("traced", 1, traced=True)]
            per_fn = tracer.per_function()
            layers.append(tracing.layer_metrics(per_fn, tracer.counters))
            layers[-1]["process.minor_faults"] = runner.last_minor_faults
        else:
            order = (1, 2) if len(reps) % 2 == 0 else (2, 1)
            rep = [timed(f"t{threads}", threads) for threads in order]
        reps.append(rep)
        now = time.perf_counter()
        if now + (now - rep_start) - start > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = json.loads(REFERENCE.read_text())[args.workload]
    config = json.loads(Path(args.config).read_text())
    attempted, failed, reasons = gate.score(WORKLOADS[args.workload], config, reps, reference)
    result = {
        "means": {},
        "environment": environment(),
        "walls": walls,
        "kernel_s": kernels,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
    }
    first = next((csv for rep in reps for code, csv in rep if code == 0), None)
    if first is not None:
        Path(args.out, "first.csv").write_bytes(first)
        result["means"] = table_means(first)
    if args.trace:
        violations, probe_s = waterfill_probe(ris_sim.numkernel, args.seed)
        result.update(
            layers=layers,
            per_function=per_fn,
            spans=tracer.span_records(),
            waterfill_probe={"violations": violations, "seconds": probe_s,
                             "spectra": PROBE_SPECTRA},
        )
    Path(args.out, "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
