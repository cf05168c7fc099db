"""Golden sha256 digests of the result CSV, JSON mirror and metadata
sidecar of every shipped config, of four LBT tables, of eight stale-CSI
branch tables, of the multiuser and deploy benchmark workloads and of two
wide beamform scenarios; and the digests of former tables, which the
frozen per-block route in `oracles.block_keyed_rows` and the frozen
per-trial routes in `oracles.trial_keyed_rows` and
`oracles.per_trial_lbt_rows` reproduce.

A change that moves any number in a shipped table changes its CSV digest;
one that changes how a config resolves changes the `config_sha256` in its
sidecar.  Either updates `golden_digests.json` and says why in CHANGES.md.
"""

import hashlib
import json
import logging
import math
from pathlib import Path

import pytest

import oracles
from ris_sim.cli import main, validate_config
from ris_sim.experiments import EXPERIMENTS, ResultTable, prepare, run

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((Path(__file__).resolve().parent / "golden_digests.json").read_text())


@pytest.fixture(autouse=True)
def _restore_root_handlers():
    root = logging.getLogger()
    saved = root.handlers[:]
    yield
    root.handlers[:] = saved


def test_every_shipped_config_has_a_digest():
    shipped = sorted(p.stem for p in (ROOT / "configs").glob("*.yaml"))
    assert shipped == sorted(DIGESTS) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment", sorted(DIGESTS))
def test_shipped_config_csv_matches_golden_digest(experiment, tmp_path, capsys):
    out = tmp_path / "results.csv"
    config = ROOT / "configs" / f"{experiment}.yaml"
    assert main([experiment, "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[experiment]["csv"]
    meta = tmp_path / "results.meta.json"
    assert hashlib.sha256(meta.read_bytes()).hexdigest() == DIGESTS[experiment]["meta"]
    mirror = tmp_path / "results.json"
    assert hashlib.sha256(mirror.read_bytes()).hexdigest() == DIGESTS[experiment]["json"]


# LBT tables (coexist, seed 5, 3 trials, 400 slots); no shipped config
# runs LBT, so these pin it.  At the default -82 dBm threshold every
# contended slot defers, so the backoff draws run; at -40 dBm every slot
# collides, so the interference term runs.
LBT_DIGESTS = {
    -82.0: "88ffa9bab1a14994718ac604d418f38e60095dca92eaa743a8f450c64c20fedd",
    -40.0: "c372dcd03ad1ed0c41cd3a74a2394c31cbffb76278b7b497449a7cd843d625c0",
}


def _lbt_digest(threshold, **scenario):
    scenario = {"mode": "lbt", "slots": 400, "sense_threshold_dbm": threshold, **scenario}
    table = run(prepare("coexist", scenario, seed=5, trials=3))
    return hashlib.sha256(table.to_csv().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("threshold", sorted(LBT_DIGESTS))
def test_lbt_csv_matches_golden_digest(threshold):
    assert _lbt_digest(threshold) == LBT_DIGESTS[threshold]


# Own-link branches the default scenario leaves out, at -82 dBm: a shadowed
# victim sees its base station only through A's surface, and an infinite
# Rician factor makes every own link its LoS block.
LBT_BRANCH_DIGESTS = {
    "shadowed": ({"b_direct_blocked": True},
                 "af3e9acbbed3fe1528e31ebdc0641711f06642548c1340307c0cfc9050376b2e"),
    "los_only": ({"rician_k": math.inf},
                 "c1b9fd81e60b194ac935ab3e4a6bc1e840d18c53f961a540e7cfbf41e0312c3a"),
}


@pytest.mark.parametrize("branch", sorted(LBT_BRANCH_DIGESTS))
def test_lbt_branch_csv_matches_golden_digest(branch):
    scenario, digest = LBT_BRANCH_DIGESTS[branch]
    assert _lbt_digest(-82.0, **scenario) == digest


# Stale-CSI branches no shipped config runs (seed 5, 20 trials): the two
# policies that hold the surface still, a measurement in the transmit slot,
# a shadowed victim and pure LoS on coexist; one filter pass, an opaque
# filter and a lossless one on adjacent.  Both still-surface policies and
# the transmit-slot measurement give the same table: B's channel never
# moves under any of them, and a trial's one held surface state is its row
# of the run's uniform stream whatever the slot.
STALE_BRANCH_DIGESTS = {
    "static": ("coexist", {"policy": "static"},
               "05d5692a0c8fdbffab2e5f191f6e7a599c2e72094967d6664d45a03b72b59740"),
    "frozen": ("coexist", {"policy": "frozen_during_foreign_slot"},
               "05d5692a0c8fdbffab2e5f191f6e7a599c2e72094967d6664d45a03b72b59740"),
    "same_slot": ("coexist", {"t1": 3, "t2": 3},
                  "05d5692a0c8fdbffab2e5f191f6e7a599c2e72094967d6664d45a03b72b59740"),
    "shadowed": ("coexist", {"b_direct_blocked": True},
                 "fc6d42b6439cd74ddcc19c8df9f8490d89d2a8f67377cdef9ecf93b287dbb3f1"),
    "los_only": ("coexist", {"rician_k": math.inf},
                 "e27bdae41013850a4c8b19d81c9e5e8eb93e5a861fa3c8ed819d17ace81afda1"),
    "one_pass": ("adjacent", {"filter_passes": 1},
                 "fd4f5a58499c1b2bd9c96610f03fa0be038716a110c9387894bab1a28322760e"),
    "opaque_filter": ("adjacent", {"oob_attenuation_db": math.inf},
                      "1c077b1940950af5b2aadfc7d7c6e677a5b9c23278f71bc347d20a62d6cd28f2"),
    "lossless_filter": ("adjacent", {"insertion_loss_db": 0},
                        "70189504db704d844c7120ac2c22998fd0a4f66874794758b1bfcf07f5f6fe4c"),
}


@pytest.mark.parametrize("branch", sorted(STALE_BRANCH_DIGESTS))
def test_stale_branch_csv_matches_golden_digest(branch):
    experiment, scenario, digest = STALE_BRANCH_DIGESTS[branch]
    table = run(prepare(experiment, scenario, seed=5, trials=20))
    assert hashlib.sha256(table.to_csv().encode("utf-8")).hexdigest() == digest


# The multiuser-shared benchmark workload's scenario at seed 5, 6 trials.
# The shipped config never reaches the sweep cap; here 28 of 30 ascents
# stop at max_iters=4, so this pins the capped branch the benchmark times.
WORKLOAD_MULTIUSER = ({"n_users": 4, "m_antennas": 2, "u_antennas": 2, "n_elements": 32,
                       "qos_weights": [1.0, 0.8, 0.6, 0.4], "max_iters": 4},
                      "5d5c1794a54c385542e1c4dd5afbde88d7d3764d62682887e7a765dd362833c7")


def test_workload_multiuser_csv_matches_golden_digest():
    scenario, digest = WORKLOAD_MULTIUSER
    table = run(prepare("multiuser", scenario, seed=5, trials=6))
    assert hashlib.sha256(table.to_csv().encode("utf-8")).hexdigest() == digest


# A scene like the deploy-dense benchmark workload's: four obstacles,
# twelve sites and a 0.5 m raster, where the shipped config has one
# obstacle on a 2 m raster.  The second obstacle's bottom edge lies at the
# station's y and carries site 4; the third has its edges on cell-centre
# rows and columns and site 5 on its corner.
WORKLOAD_DEPLOY = ({"extent": [0.0, 0.0, 100.0, 60.0],
                    "obstacles": [[81.81, 6.462, 87.874, 13.167], [51.232, 30.0, 57.906, 36.577],
                                  [60.25, 23.25, 69.25, 27.75], [33.365, 3.752, 41.971, 14.307]],
                    "base_stations": [{"position": [10.0, 30.0], "tx_power_dbm": 30.0}],
                    "candidate_sites": [[57.122, 15.266], [71.923, 6.713], [84.683, 15.993],
                                        [89.175, 17.499], [54.0, 30.0], [69.25, 27.75],
                                        [81.639, 28.148], [96.457, 31.428], [59.937, 48.811],
                                        [66.881, 46.682], [80.417, 59.41], [96.199, 54.172]],
                    "grid_resolution": 0.5, "n_elements": 2048, "threshold_db": 56.0,
                    "budget": 6.0, "target_fraction": 1.0,
                    "gain_scales": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5]},
                   "d37fabf81471820bc173f22ae49b85d1794b8328f5a374e267511e4815ebbeb2")


def test_workload_deploy_csv_matches_golden_digest():
    scenario, digest = WORKLOAD_DEPLOY
    table = run(prepare("deploy", scenario, seed=5, trials=1))
    assert hashlib.sha256(table.to_csv().encode("utf-8")).hexdigest() == digest


# Beamform past the shipped config: sizes from 1 to 1024 elements and bit
# widths up to the widest each channel ran before the array quantizer,
# 51 bits on Rayleigh draws and 62 on unit channels, seed 3, 20 trials.
WIDE_BEAMFORM = {
    "unit": ({"channel": "unit", "n_list": [1, 2, 3, 17, 64, 1024],
              "quantization_bits": [1, 2, 3, 62]},
             "b1fb9e95c8714b87d18a8a8dd59e4591598017e94139b8ebae43b1814adc27f8"),
    "rayleigh": ({"channel": "rayleigh", "n_list": [1, 2, 3, 17, 64, 1024],
                  "quantization_bits": [1, 2, 3, 51]},
                 "88e9572af4c2848d167bcaaea7359b15638b50469a66abc2a4191e0ee5dd0a61"),
}


@pytest.mark.parametrize("channel", sorted(WIDE_BEAMFORM))
def test_wide_beamform_csv_matches_golden_digest(channel):
    scenario, digest = WIDE_BEAMFORM[channel]
    table = run(prepare("beamform", scenario, seed=3, trials=20))
    assert hashlib.sha256(table.to_csv().encode("utf-8")).hexdigest() == digest


# The CSV digests of the shipped rank, beamform and multiuser tables, of
# the multiuser workload and of the wide Rayleigh beamform scenario as
# the runners made them when they keyed one stream per (trial, block).
# The frozen route reproduces each, so the in-distribution checks of the
# one-stream route compare it with the route the runners ran.
PER_BLOCK_CSV = {
    "rank": "6203d58e5a4a19b3a0e67e6bf5b3bcab30bb9be18007a9c5701e80eb9d191d95",
    "beamform": "2d192b925a8866261e4eaf84702898275e893f4553a58867ff515cf5a9f595aa",
    "multiuser": "664a5dbada8e8602aaa3c9aed0ad9af0cdccca83d89cbd8122571f4d6f82def8",
    "workload-multiuser": "3e4901fb94e1dcab32ee68201eb8efd2a33b6862d14a931ba6225d5f73b40b29",
    "wide-rayleigh": "8b77f73e3b6b29447e7c37e4600a1d4c9d068416753f0d94f56eb3eb385d021b",
}


def _former_run(name):
    if name == "workload-multiuser":
        return "multiuser", WORKLOAD_MULTIUSER[0], 5, 6
    if name == "wide-rayleigh":
        return "beamform", WIDE_BEAMFORM["rayleigh"][0], 3, 20
    prepared = validate_config((ROOT / "configs" / f"{name}.yaml").read_text())
    return prepared.experiment, prepared.scenario, prepared.seed, prepared.trials


@pytest.mark.parametrize("name", sorted(PER_BLOCK_CSV))
def test_frozen_per_block_route_reproduces_the_former_tables(name):
    rows = oracles.block_keyed_rows(*_former_run(name))
    csv = ResultTable(tuple(rows), {}).to_csv()
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == PER_BLOCK_CSV[name]


# The CSV digests of the shipped rank, beamform, multiuser, coexist and
# adjacent tables, of the multiuser workload and of the wide Rayleigh
# beamform scenario as the runners made them when they keyed one stream
# per trial (and beamform size).  The frozen route reproduces each, so the
# in-distribution checks of the run-stream route compare it with the route
# the runners ran.
PER_TRIAL_CSV = {
    "rank": "08fafec330a547c73d28450a3dc8e127fd4d1c46aa1983f554fd8619cc6459e8",
    "beamform": "d339fd8d37c19fcfd423a1214467fea0cc9c6792e2a21524ae8e61af737cc7cc",
    "multiuser": "56624d23de26f8f810512218bbaed3f07368383dea3a337e4ea067a7e427a55e",
    "coexist": "9981ee70ad03bcd3b3a03be1dcc29f8b9e02222de9a7548e385823188b6a72da",
    "adjacent": "f1b4272d1dd48b8acdeb1f18a0c547d5b184ccde498488ddd4910ec69e531ab9",
    "workload-multiuser": "e2c8950b50ab7ef40b83106117239f71fef0831f41a93bedd95c3875c214e74a",
    "wide-rayleigh": "b2bac0d71e833b3724f6dc3edfc1a5f68a1125aa2c304ff0355e2111ea8579c1",
}


@pytest.mark.parametrize("name", sorted(PER_TRIAL_CSV))
def test_frozen_per_trial_route_reproduces_the_former_tables(name):
    rows = oracles.trial_keyed_rows(*_former_run(name))
    csv = ResultTable(tuple(rows), {}).to_csv()
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == PER_TRIAL_CSV[name]


# The CSV digests of the four LBT tables above as the runner made them
# when each trial was a run of its own on the seed `subseed(seed,
# f"run/{t}")`.  The frozen route reproduces each, so the in-distribution
# check of the run-level route compares it with the route the runner ran.
PER_TRIAL_LBT_CSV = {
    -82.0: "b92143cc99c75594cf882e638bb8a4b5fb5ebcf59792af4605c958d26ccaf1b0",
    -40.0: "346e3637ef63b029d3b3578e001f1a14e8504e269c5c80b90a501915f58b83cb",
    "shadowed": "dc410002b6c3be69d39d2f5b0b26f31228cdf2556ab41dd90c9e0d5385739256",
    "los_only": "e785690c2b2d9d262605a816a802471506ecf1717e032fafbf4a0d5505dae28e",
}


@pytest.mark.parametrize("name", sorted(PER_TRIAL_LBT_CSV, key=str))
def test_frozen_per_trial_lbt_route_reproduces_the_former_tables(name):
    threshold, scenario = ((name, {}) if name in LBT_DIGESTS
                           else (-82.0, LBT_BRANCH_DIGESTS[name][0]))
    scenario = {"mode": "lbt", "slots": 400, "sense_threshold_dbm": threshold, **scenario}
    rows = oracles.per_trial_lbt_rows(scenario, 5, 3)
    csv = ResultTable(tuple(rows), {}).to_csv()
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == PER_TRIAL_LBT_CSV[name]
