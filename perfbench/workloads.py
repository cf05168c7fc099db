"""The four benchmark workloads and the configs they hand to the program.

Each workload is one `ris-sim` config generated from the benchmark seed.
They are chosen so that every layer of the package dominates at least one
of them, and each one bypasses layers that another one stresses:

* multiuser-shared: the shipped multiuser scenario at the 32-element panel
  of the acceptance fixture.  Almost all time is `ris.weighted_phase_ascent`;
  channel drawing and bisection water-filling barely run.  The ascent is
  capped at `max_iters: 4` sweeps: left to converge, its sweep count varies
  by about 15% between seeds, which would swamp the timing; with the cap
  nearly every ascent does the same work, at a 0.4% lower objective.
* coexist-stale: the shipped stale-CSI scenario.  Many cheap independent
  trials, the most rows, water-filling and Rayleigh channel draws; no ascent.
* rank-nearfield: N=1024, M=U=8 with the `auto` wavefront, which resolves to
  spherical inside the Fraunhofer distance.  Deterministic spherical LoS
  blocks and SVDs; no water-filling and no ascent.
* deploy-dense: a seeded 100 x 60 m scene at 0.5 m resolution with four
  obstacles and twelve candidate sites.  Only `deploy` runs.  The threshold
  and panel size make coverage SNR-limited away from the base station, so
  every greedy step still adds coverage and the placement always spends the
  whole budget; the work per run then does not depend on the drawn scene.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    #: table metrics that make up one operation (one trial's row group)
    metrics: tuple
    #: table metric whose mean is the workload's objective
    headline: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("multiuser-shared", "multiuser",
                 ("shared_sum", "ideal_sum", "gap_fraction"), "shared_sum"),
        Workload("coexist-stale", "coexist",
                 ("fresh_rate", "stale_rate", "loss_fraction"), "stale_rate"),
        Workload("rank-nearfield", "rank",
                 ("rank", "sigma_1", "sigma_2"), "sigma_2"),
        Workload("deploy-dense", "deploy",
                 ("greedy_site", "greedy_coverage", "gain_scale", "breathing_coverage"),
                 "breathing_coverage"),
    )
}

_TRIALS = {"multiuser-shared": 6, "coexist-stale": 200, "rank-nearfield": 150}

# deploy-dense scene
_EXTENT = (0.0, 0.0, 100.0, 60.0)
_BASE_STATION = (10.0, 30.0)
_N_OBSTACLES = 4
_N_SITES = 12
_SITE_AREA = (50.0, 0.0, 100.0, 60.0)
DEPLOY_BUDGET = 6
GAIN_SCALES = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _inside(p, rect, margin):
    return (rect[0] - margin <= p[0] <= rect[2] + margin
            and rect[1] - margin <= p[1] <= rect[3] + margin)


def _sees_base_station(p, obstacles) -> bool:
    """Sampled sight test, only used to keep candidate sites useful."""
    t = np.linspace(0.0, 1.0, 400)[:, None]
    pts = np.asarray(_BASE_STATION) * (1.0 - t) + np.asarray(p) * t
    return not any(_inside(q, r, 0.5) for r in obstacles for q in pts)


def _obstacles(rng) -> list:
    obstacles = []
    while len(obstacles) < _N_OBSTACLES:
        w, h = rng.uniform(4.0, 10.0), rng.uniform(4.0, 12.0)
        x, y = rng.uniform(30.0, 95.0 - w), rng.uniform(3.0, 57.0 - h)
        r = (x, y, x + w, y + h)
        # keep a 2 m street between obstacles
        if not any(r[0] < o[2] + 2 and o[0] < r[2] + 2 and r[1] < o[3] + 2 and o[1] < r[3] + 2
                   for o in obstacles):
            obstacles.append(tuple(round(v, 3) for v in r))
    return obstacles


def _sites(rng, obstacles):
    """One site per cell of a 4 x 3 grid over the far part of the scene,
    where coverage is SNR-limited, so that each site has a neighbourhood of
    its own.  None when some cell has no spot in sight of the base station."""
    x0, y0, x1, y1 = _SITE_AREA
    w, h = (x1 - x0) / 4, (y1 - y0) / 3
    sites = []
    for k in range(_N_SITES):
        for _ in range(200):
            p = (x0 + (k % 4 + rng.uniform()) * w, y0 + (k // 4 + rng.uniform()) * h)
            if not any(_inside(p, o, 1.0) for o in obstacles) and _sees_base_station(p, obstacles):
                sites.append(tuple(round(v, 3) for v in p))
                break
        else:
            return None
    return sites


def _deploy_scene(seed: int) -> dict:
    rng = _rng("deploy-dense", seed)
    sites = None
    while sites is None:
        obstacles = _obstacles(rng)
        sites = _sites(rng, obstacles)
    return {
        "extent": list(_EXTENT),
        "obstacles": [list(o) for o in obstacles],
        "base_stations": [{"position": list(_BASE_STATION), "tx_power_dbm": 30.0}],
        "candidate_sites": [list(s) for s in sites],
        "grid_resolution": 0.5,
        "n_elements": 2048,
        "threshold_db": 56.0,
        "budget": float(DEPLOY_BUDGET),
        "target_fraction": 1.0,
        "gain_scales": list(GAIN_SCALES),
    }


def make_config(name: str, seed: int) -> dict:
    """The config document of workload `name` for benchmark seed `seed`."""
    seed = int(seed) % (1 << 63)
    if name == "multiuser-shared":
        scenario = {"n_users": 4, "m_antennas": 2, "u_antennas": 2,
                    "n_elements": 32, "qos_weights": [1.0, 0.8, 0.6, 0.4],
                    "max_iters": 4}
    elif name == "coexist-stale":
        scenario = {"mode": "stale_csi", "policy": "rerandomize_each_slot",
                    "n_elements_a": 64}
    elif name == "rank-nearfield":
        scenario = {"m_antennas": 8, "u_antennas": 8, "n_elements": 1024,
                    "wavefront": "auto"}
    elif name == "deploy-dense":
        scenario = _deploy_scene(seed)
    else:
        raise KeyError(name)
    return {
        "experiment": WORKLOADS[name].experiment,
        "seed": int(seed),
        "trials": _TRIALS.get(name, 1),
        "scenario": scenario,
    }


def min_rank(config: dict) -> int:
    s = config["scenario"]
    return min(s["m_antennas"], s["u_antennas"])
