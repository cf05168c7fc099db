"""ris-sim benchmark: time to table, set-up, memory and correctness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src`.  The seed generates the workload's config, and the program
receives only that config, through the public `ris_sim.cli.main` entry point
(validation, runner and `write_outputs` into a scratch directory).

With `--trace 0` the last stdout line carries the end-to-end metrics:

* wall_s: median time of one `cli.main` run with `--threads 1`, import excluded.
* wall_threads2_s: the same with `--threads 2` (deploy ignores threads).
* setup_s: median over `SETUP_RUNS` fresh processes that import `ris_sim.cli`
  and validate the config.

  These three are scaled to nominal host speed (see speed.py); the summary
  lines also give the uncalibrated medians.
* peak_rss_mb: largest peak resident memory of the workload processes.
  Untraced repetitions are spread over `WORKER_PROCESSES` processes.
* objective_ratio: mean of the workload's headline table metric over its
  reference mean; on multiuser-shared that is the ascent objective
  (mean shared_sum).

With `--trace 1` it carries the per-layer metrics of a traced run: span self
times and call counts per layer, optimizer and deploy counters, serialised
bytes, minor page faults, the water-fill probe and the tracing overhead.  Lines before the last
one are a readable summary, including failed_fraction and, on
multiuser-shared, ascent_objective in bit/s/Hz.

Every operation passes through the gate in gate.py; `attempted` and `failed`
count operations.  Files go to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selftest
import speed
from workloads import WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 5
WORKER_PROCESSES = 2
WORKER_TIMEOUT_S = 150
SETUP_CODE = "import sys, ris_sim.cli as c; c.validate_config(open(sys.argv[1]).read())"


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # measure the program, not BLAS thread scheduling
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def time_setup(config_path: Path, env: dict):
    """(calibrated, raw) seconds of SETUP_RUNS fresh set-up processes."""
    times = []
    kernels = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config_path)],
                              env=env, cwd=ROOT, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.decode()[-2000:]}")
        kernels.append(speed.kernel_s())
    return speed.scale(times, kernels), times


def run_worker(args, src, env, config_path, out: Path, seconds: float) -> dict:
    out.mkdir()
    with open(out / "worker.log", "wb") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--config", str(config_path),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", str(args.trace),
             "--src", str(src), "--out", str(out)],
            env=env, cwd=ROOT, stdout=log, stderr=log, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        tail = (out / "worker.log").read_text(errors="replace").splitlines()[-20:]
        raise RuntimeError("workload process failed:\n" + "\n".join(tail))
    return json.loads((out / "worker.json").read_text())


def merge(works, first_tables) -> dict:
    """Pool the repetitions of several worker processes."""
    work = dict(works[0])
    work["walls"] = {key: [w for one in works for w in one["walls"][key]]
                     for key in ("t1", "t2", "traced")}
    if work["kernel_s"]:  # untraced workers time the calibration kernel
        work["calibrated"] = {key: [w for one in works
                                    for w in speed.scale(one["walls"][key], one["kernel_s"])]
                              for key in ("t1", "t2")}
        work["kernel_s"] = [k for one in works for k in one["kernel_s"]]
    work["peak_rss_mb"] = max(one["peak_rss_mb"] for one in works)
    work["attempted"] = sum(one["attempted"] for one in works)
    work["failed"] = sum(one["failed"] for one in works)
    work["reasons"] = sorted({r for one in works for r in one["reasons"]})
    tables = {p.read_bytes() if p.exists() else None for p in first_tables}
    if len(tables) > 1:
        work["failed"] = work["attempted"]
        work["reasons"].append("CSV differs between workload processes")
    return work


def end_to_end(name, work, setup_times, reference) -> dict:
    headline = WORKLOADS[name].headline
    ref_mean = reference[name][headline]["mean"]
    return {
        "wall_s": {"value": statistics.median(work["calibrated"]["t1"]), "unit": "s"},
        "wall_threads2_s": {"value": statistics.median(work["calibrated"]["t2"]),
                            "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": work["peak_rss_mb"], "unit": "MB"},
        "objective_ratio": {"value": work["means"].get(headline, 0.0) / ref_mean,
                            "unit": "ratio"},
    }


def per_layer(work) -> dict:
    layers = work["layers"]
    out = {}
    for key in layers[0]:
        unit = "s" if key.endswith("_s") else (
            "bytes" if key.endswith("bytes_out") else "count")
        values = [rep[key] for rep in layers]
        # counts repeat from run to run; report one that occurred
        median = statistics.median(values) if unit == "s" else statistics.median_low(values)
        out[key] = {"value": median, "unit": unit}
    untraced = statistics.median(work["walls"]["t1"])
    traced = statistics.median(work["walls"]["traced"])
    probe = work["waterfill_probe"]
    out.update({
        "numkernel.waterfill_budget_violations": {"value": probe["violations"],
                                                  "unit": "count"},
        "numkernel.waterfill_probe_s": {"value": probe["seconds"], "unit": "s"},
        "trace.untraced_wall_s": {"value": untraced, "unit": "s"},
        "trace.traced_wall_s": {"value": traced, "unit": "s"},
        "trace.overhead_fraction": {"value": traced / untraced - 1.0, "unit": "ratio"},
        "trace.spans": {"value": len(work["spans"]), "unit": "count"},
    })
    return out


def summary(name, seed, work, metrics, setup_times) -> list:
    lines = [f"# environment {json.dumps(work['environment'], sort_keys=True)}",
             f"# workload {name} seed {seed}: {len(work['walls']['t1'])} repetitions"
             + (f", set-up runs {len(setup_times)}" if setup_times else "")]
    for key, m in metrics.items():
        lines.append(f"{key:40s} {m['value']:.6g} {m['unit']}")
    frac = work["failed"] / work["attempted"] if work["attempted"] else 1.0
    lines.append(f"{'failed_fraction':40s} {frac:.6g} fraction "
                 f"({work['failed']} of {work['attempted']} operations)")
    if name == "multiuser-shared":
        lines.append(f"{'ascent_objective':40s} "
                     f"{work['means'].get('shared_sum', float('nan')):.6g} bit/s/Hz")
    if work["raw_setup_s"]:
        raw = {"wall_s": work["walls"]["t1"], "wall_threads2_s": work["walls"]["t2"],
               "setup_s": work["raw_setup_s"]}
        lines.extend(f"# uncalibrated {key} {statistics.median(v):.6g} s" for key, v in raw.items())
        lines.append(f"# calibration kernel median {statistics.median(work['kernel_s']):.6g} s"
                     f" (nominal {speed.NOMINAL_S} s)")
    lines.extend(f"# gate: {reason}" for reason in work["reasons"])
    if "per_function" in work:
        lines.append("# span                                     calls     self_s    total_s")
        for fn, agg in sorted(work["per_function"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"# {fn:40s} {agg['calls']:6d} {agg['self_s']:10.4f} "
                         f"{agg['total_s']:10.4f}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "ris_sim" / "cli.py").is_file():
        print(f"no ris_sim sources under {src}", file=sys.stderr)
        return 2
    problems = selftest.run()
    if problems:
        print("gate self-test failed:\n" + "\n".join(problems), file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        config_path = tmp / "config.yaml"
        # JSON is valid YAML
        config_path.write_text(json.dumps(make_config(args.workload, args.seed), indent=1))
        env = child_env(src)
        setup_times, raw_setup = ([], []) if args.trace else time_setup(config_path, env)
        # untraced runs spread their repetitions over several processes, so a
        # process that the host happens to schedule badly is outvoted
        processes = 1 if args.trace else WORKER_PROCESSES
        deadline = time.perf_counter() + args.seconds
        works = []
        for k in range(processes):
            share = (deadline - time.perf_counter()) / (processes - k)
            works.append(run_worker(args, src, env, config_path, tmp / f"w{k}", share))
        work = merge(works, [(tmp / f"w{k}" / "first.csv") for k in range(processes)])
        metrics = (per_layer(work) if args.trace
                   else end_to_end(args.workload, work, setup_times, reference))
        keep = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        keep.write_text(json.dumps(work))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    work["raw_setup_s"] = raw_setup
    for line in summary(args.workload, args.seed, work, metrics, setup_times):
        print(line)
    print(json.dumps({
        "correct": work["failed"] == 0,
        "attempted": work["attempted"],
        "failed": work["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
