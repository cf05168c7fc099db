"""Record reference.json: per-metric table means of every workload.

    python3 perfbench/record_reference.py

For each workload, runs the config of seeds 1000 to 1019 once through
`cli.main` with `--threads 1`, and stores the mean over seeds of each table
metric's per-run mean together with the standard deviation of those per-run
means.  The gate compares each run's means against these.  Re-record only
when a change to the program is meant to change its tables, and say so.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import gate  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

SEEDS = range(1000, 1020)


def main() -> int:
    from ris_sim import cli

    reference = {}
    scratch = HERE.parent / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, workload in WORKLOADS.items():
            per_seed = []
            for seed in SEEDS:
                config = make_config(name, seed)
                cfg = Path(tmp, "config.yaml")
                cfg.write_text(json.dumps(config))
                out = Path(tmp, "results.csv")
                if cli.main([config["experiment"], "--config", str(cfg), "--out", str(out)]):
                    raise SystemExit(f"{name} seed {seed}: cli failed")
                csv = out.read_bytes()
                attempted, failed, reasons = gate.score(workload, config, [[(0, csv)]], None)
                if failed:
                    raise SystemExit(f"{name} seed {seed}: {failed}/{attempted} "
                                     f"operations fail the gate: {reasons}")
                per_seed.append(gate.table_means(gate.parse_rows(csv)))
            reference[name] = {
                metric: {"mean": statistics.fmean(m[metric] for m in per_seed),
                         "sd": statistics.stdev(m[metric] for m in per_seed)}
                for metric in per_seed[0]
            }
            print(name, json.dumps(reference[name]), file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
