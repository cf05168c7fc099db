"""Self-tests of the benchmark's correctness gate.

run.py calls `run()` before every measurement and refuses to measure when
the gate lets a broken table through.  Standalone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys

import gate
from workloads import WORKLOADS, make_config


def _csv(rows) -> bytes:
    lines = ["trial,metric,value"] + [f"{t},{m},{v!r}" for t, m, v in rows]
    return ("\n".join(lines) + "\n").encode()


def _multiuser(trials, bad_trial=None):
    rows = []
    for t in range(trials):
        shared, ideal = 10.0 + t, 11.0 + t
        if t == bad_trial:
            shared = ideal + 0.5
        rows += [(t, "shared_sum", shared), (t, "ideal_sum", ideal),
                 (t, "gap_fraction", (ideal - shared) / ideal)]
    return _csv(rows)


def _coexist(trials, bad_trial=None):
    rows = []
    for t in range(trials):
        fresh, stale = 4.0, 3.0
        loss = -0.25 if t == bad_trial else (fresh - stale) / fresh
        rows += [(t, "fresh_rate", fresh), (t, "stale_rate", stale),
                 (t, "loss_fraction", loss)]
    return _csv(rows)


def _deploy(covs, scales, breathing):
    rows = []
    for s, cov in enumerate(covs):
        rows += [(s, "greedy_site", -1 if s == 0 else s - 1), (s, "greedy_coverage", cov)]
    for i, (scale, cov) in enumerate(zip(scales, breathing)):
        rows += [(i, "gain_scale", scale), (i, "breathing_coverage", cov)]
    return _csv(rows)


def _flip_digit(csv: bytes) -> bytes:
    """Change the last digit of the first value: still a valid table."""
    i = csv.index(b"\n", csv.index(b"\n") + 1) - 1
    flipped = b"1" if csv[i:i + 1] != b"1" else b"2"
    return csv[:i] + flipped + csv[i + 1:]


def run() -> list:
    """Names of the gate checks that let a bad table through (empty if none)."""
    problems = []

    def expect(label, workload, config, reps, want_failed, reference=None):
        attempted, failed, _ = gate.score(WORKLOADS[workload], config, reps, reference)
        ok = failed == want_failed if want_failed == 0 else failed >= want_failed
        if not ok or attempted < 1:
            problems.append(f"{label}: attempted {attempted}, failed {failed}")

    mu = dict(make_config("multiuser-shared", 0), trials=3)
    good = _multiuser(3)
    expect("clean multiuser table", "multiuser-shared", mu, [[(0, good), (0, good)]], 0)
    expect("shared_sum > ideal_sum", "multiuser-shared", mu,
           [[(0, _multiuser(3, bad_trial=1))]], 1)
    expect("flipped byte between thread counts", "multiuser-shared", mu,
           [[(0, good), (0, _flip_digit(good))]], 6)
    expect("flipped byte in a later repetition", "multiuser-shared", mu,
           [[(0, good), (0, good)], [(0, _flip_digit(good)), (0, good)]], 6)
    expect("non-zero exit", "multiuser-shared", mu, [[(2, None)]], 3)
    expect("missing trial", "multiuser-shared", mu,
           [[(0, b"\n".join(good.split(b"\n")[:4]) + b"\n")]], 1)
    reference = {"shared_sum": {"mean": 50.0, "sd": 0.1}}
    expect("mean off the reference", "multiuser-shared", mu, [[(0, good)]], 3, reference)

    co = dict(make_config("coexist-stale", 0), trials=3)
    expect("clean coexist table", "coexist-stale", co, [[(0, _coexist(3))]], 0)
    expect("negative loss_fraction", "coexist-stale", co,
           [[(0, _coexist(3, bad_trial=2))]], 1)

    de = make_config("deploy-dense", 0)
    scales = de["scenario"]["gain_scales"]
    rising = [0.4, 0.5, 0.6]
    breathing = [0.45, 0.5, 0.55, 0.6, 0.62, 0.65]
    expect("clean deploy table", "deploy-dense", de,
           [[(0, _deploy(rising, scales, breathing))]], 0)
    expect("greedy coverage drops", "deploy-dense", de,
           [[(0, _deploy([0.4, 0.5, 0.45], scales, [0.3, 0.4, 0.42, 0.45, 0.5, 0.55]))]], 1)
    expect("breathing drops with gain", "deploy-dense", de,
           [[(0, _deploy(rising, scales, [0.45, 0.5, 0.4, 0.6, 0.62, 0.65]))]], 1)
    return problems


if __name__ == "__main__":
    found = run()
    print("\n".join(found) if found else "gate self-test: all bad tables caught")
    sys.exit(1 if found else 0)
