"""Correctness gate applied to every operation the benchmark runs.

An operation is one trial's row group, or for deploy one greedy step or one
breathing point.  A run is one `cli.main` call; a repetition is the set of
runs made back to back on the same config (threads 1, threads 2, traced).

* A run that exits non-zero or leaves no readable table fails all of its
  operations.
* Every CSV of a benchmark run must be byte-identical to the first one,
  whatever the thread count; a mismatch fails every operation of that
  repetition.
* Each operation must hold the invariants of its experiment (below).
* The mean of each table metric must lie within `REFERENCE_SIGMAS` standard
  deviations of the reference recorded for the workload, where the deviation
  is that of the per-seed mean over the recording seeds, plus a relative
  slack of `REFERENCE_REL_TOL` for metrics that do not vary with the seed.
  This admits numeric fixes of the size of the pending water-filling repair
  (shifts of at most 4e-7 on rates near 3) while a wrong table still moves a
  mean by many deviations.  A miss fails the whole run.
"""

from __future__ import annotations

import math
from collections import defaultdict

from workloads import DEPLOY_BUDGET, min_rank

REFERENCE_SIGMAS = 8.0
REFERENCE_REL_TOL = 1e-6


class MalformedTable(ValueError):
    pass


def parse_rows(csv_bytes: bytes):
    """(index, metric, value) rows of a long-format result CSV."""
    try:
        lines = csv_bytes.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise MalformedTable(f"not UTF-8: {exc}") from None
    if lines[0] != "trial,metric,value" or lines[-1] != "":
        raise MalformedTable("bad header or missing final newline")
    rows = []
    for line in lines[1:-1]:
        parts = line.split(",")
        if len(parts) != 3:
            raise MalformedTable(f"bad row {line!r}")
        try:
            rows.append((int(parts[0]), parts[1], float(parts[2])))
        except ValueError:
            raise MalformedTable(f"bad row {line!r}") from None
    return rows


def _groups(rows, metrics):
    """index -> {metric: value} for the given metrics, or MalformedTable."""
    out = defaultdict(dict)
    for idx, metric, value in rows:
        if metric in metrics:
            if metric in out[idx]:
                raise MalformedTable(f"duplicate {metric} at {idx}")
            out[idx][metric] = value
    return out


def _trial_ok(workload, config, g) -> bool:
    if set(g) != set(workload.metrics) or not all(map(math.isfinite, g.values())):
        return False
    name = workload.name
    if name == "multiuser-shared":
        return g["shared_sum"] <= g["ideal_sum"] and 0.0 <= g["gap_fraction"] < 1.0
    if name == "coexist-stale":
        return g["stale_rate"] <= g["fresh_rate"] and 0.0 <= g["loss_fraction"] <= 1.0
    if name == "rank-nearfield":
        r = g["rank"]
        return (r == int(r) and 1 < r <= min_rank(config)
                and g["sigma_1"] >= g["sigma_2"] >= 0.0)
    raise KeyError(name)


def _check_trials(workload, config, rows):
    groups = _groups(rows, workload.metrics)
    trials = config["trials"]
    if set(groups) - set(range(trials)):
        raise MalformedTable("rows for trials outside the config")
    failed = sum(not _trial_ok(workload, config, groups.get(t, {})) for t in range(trials))
    return trials, failed


def _check_deploy(config, rows):
    scn = config["scenario"]
    greedy = _groups(rows, ("greedy_site", "greedy_coverage"))
    breathing = _groups(rows, ("gain_scale", "breathing_coverage"))
    steps = len(greedy)
    if set(greedy) != set(range(steps)) or not 1 <= steps <= DEPLOY_BUDGET + 1:
        raise MalformedTable("greedy steps are not 0..k within the budget")
    failed = 0
    seen_sites = set()
    prev = -math.inf
    for s in range(steps):
        g = greedy[s]
        ok = len(g) == 2 and all(map(math.isfinite, g.values()))
        if ok:
            site, cov = g["greedy_site"], g["greedy_coverage"]
            valid_site = site == -1 if s == 0 else (
                site == int(site) and 0 <= site < len(scn["candidate_sites"])
                and site not in seen_sites)
            ok = valid_site and 0.0 <= cov <= 1.0 and cov >= prev
            seen_sites.add(site)
            prev = max(prev, cov)
        failed += not ok
    final_cov = greedy[steps - 1].get("greedy_coverage")
    scales = scn["gain_scales"]
    if set(breathing) - set(range(len(scales))):
        raise MalformedTable("breathing points outside the sweep")
    covs = [breathing.get(i, {}).get("breathing_coverage", math.nan)
            for i in range(len(scales))]
    for i, s in enumerate(scales):
        b = breathing.get(i, {})
        ok = (len(b) == 2 and b["gain_scale"] == s
              and all(map(math.isfinite, b.values())))
        if ok:
            cov = b["breathing_coverage"]
            # a missing smaller-scale point is charged to itself, not here
            ok = (0.0 <= cov <= 1.0
                  and not any(cov < c for c, t in zip(covs, scales) if t < s)
                  and (s != 1.0 or cov == final_cov))
        failed += not ok
    return steps + len(scales), failed


def expected_ops(workload, config) -> int:
    """Operations charged to a run that produced no readable table."""
    if workload.name == "deploy-dense":
        return DEPLOY_BUDGET + 1 + len(config["scenario"]["gain_scales"])
    return config["trials"]


def table_means(rows) -> dict:
    sums = defaultdict(float)
    counts = defaultdict(int)
    for _, metric, value in rows:
        sums[metric] += value
        counts[metric] += 1
    return {m: sums[m] / counts[m] for m in sums}


def reference_misses(rows, reference) -> list:
    """Metrics whose mean is off the recorded reference, with details."""
    means = table_means(rows)
    misses = []
    for metric, ref in reference.items():
        got = means.get(metric)
        tol = REFERENCE_SIGMAS * ref["sd"] + REFERENCE_REL_TOL * abs(ref["mean"])
        if got is None or not abs(got - ref["mean"]) <= tol:
            misses.append(f"{metric}: mean {got} vs reference {ref['mean']} +- {tol:.3g}")
    return misses


def check_run(workload, config, exit_code, csv_bytes, reference):
    """(attempted, failed, reasons) of one cli run."""
    if exit_code != 0 or csv_bytes is None:
        n = expected_ops(workload, config)
        return n, n, [f"exit code {exit_code}"]
    try:
        rows = parse_rows(csv_bytes)
        if workload.name == "deploy-dense":
            attempted, failed = _check_deploy(config, rows)
        else:
            attempted, failed = _check_trials(workload, config, rows)
    except MalformedTable as exc:
        n = expected_ops(workload, config)
        return n, n, [f"malformed table: {exc}"]
    reasons = [f"{failed} operations break an invariant"] if failed else []
    if reference is not None:
        misses = reference_misses(rows, reference)
        if misses:
            return attempted, attempted, reasons + misses
    return attempted, failed, reasons


def score(workload, config, reps, reference):
    """Gate a whole benchmark run.

    `reps` is a list of repetitions, each a list of (exit_code, csv_bytes)
    runs.  Returns (attempted, failed, reasons).
    """
    first = next((csv for rep in reps for code, csv in rep if code == 0), None)
    attempted = failed = 0
    reasons = []
    for rep in reps:
        results = [check_run(workload, config, code, csv, reference) for code, csv in rep]
        rep_attempted = sum(r[0] for r in results)
        attempted += rep_attempted
        if any(code == 0 and csv != first for code, csv in rep):
            failed += rep_attempted
            reasons.append("CSV differs between runs of the same config")
        else:
            failed += sum(r[1] for r in results)
        reasons.extend(reason for r in results for reason in r[2])
    return attempted, failed, sorted(set(reasons))
