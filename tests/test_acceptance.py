"""End-to-end acceptance checks, one test per headline claim.

Each test certifies a single property of the simulator at its stated
tolerance and has to finish inside its stated time budget.  Heavy Monte
Carlo batches are shared with the module tests through the session
fixtures in conftest.py.
"""

import json
import math
import pathlib
import time
from dataclasses import replace

import numpy as np

from ris_sim.channel import (
    ChannelParams,
    ChannelRealization,
    Geometry,
    assemble_effective,
    assemble_multi_panel,
    gen_los,
)
from ris_sim.cli import main
from ris_sim.coexist import (
    BandFilter,
    adjacent_rates,
    apply_band_filter,
    stale_rates,
)
from ris_sim.deploy import (
    BaseStation,
    DeploymentPlan,
    SERVING_NONE,
    Scene,
    cell_breathing,
    greedy_place,
    snr_map,
)
from ris_sim.experiments import _coex_scenario, resolve_scenario
from ris_sim.numkernel import numerical_rank, waterfill_capacity
from ris_sim.ris import RisPanel, align_phases_miso, composite_gain
from ris_sim.scheduler import UserContext, compare_shared_vs_ideal
from ris_sim.seeding import complex_normal, rng_from

#: sweep cap and phase grid of the capacity ascents in criteria 6 and 7
MAX_ITERS, GRID = 30, 64


def _reflected_only(g, h):
    return ChannelRealization(
        g_nb_ris=g, h_ris_ue=h, h_nb_ue=None,
        pl_nb_ris=1.0, pl_ris_ue=1.0, pl_nb_ue=0.0,
    )


def test_criterion_01_planar_los_incident_collapses_to_rank_one():
    t0 = time.perf_counter()
    geom = Geometry(wavelength=0.1, positions={
        "nb": (0.0, 0.0, 10.0), "ris": (40.0, 0.0, 10.0),
    })
    combos = [(m, u, n) for m in (2, 4, 8) for u in (2, 4, 8) for n in (16, 64)]
    failures = 0
    for i in range(500):
        m, u, n = combos[i % len(combos)]
        g = gen_los(geom, "nb", "ris", n, m, "planar")
        h = complex_normal(rng_from(1, f"c1/{i}/h"), (u, n))
        phi = rng_from(1, f"c1/{i}/phase").uniform(0.0, 2.0 * math.pi, n)
        h_t = assemble_effective(_reflected_only(g, h), np.exp(1j * phi))
        if numerical_rank(h_t, rel_tol=1e-8) != 1:
            failures += 1
    assert failures == 0
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_product_rank_never_exceeds_factor_ranks():
    t0 = time.perf_counter()
    rng = rng_from(2024, "products")
    violations = 0
    for _ in range(1000):
        m, k, n = (int(v) for v in rng.integers(1, 9, 3))
        ra = int(rng.integers(1, min(m, k) + 1))
        rb = int(rng.integers(1, min(k, n) + 1))
        a = complex_normal(rng, (m, ra)) @ complex_normal(rng, (ra, k))
        b = complex_normal(rng, (k, rb)) @ complex_normal(rng, (rb, n))
        if numerical_rank(a @ b) > min(numerical_rank(a), numerical_rank(b)):
            violations += 1
    assert violations == 0
    assert time.perf_counter() - t0 < 5.0


def test_criterion_03_extra_panels_restore_rank_and_capacity():
    t0 = time.perf_counter()
    seed, trials = 11, 200
    ones = np.ones(16, dtype=np.complex128)
    rank_failures = 0
    monotone_ok = 0
    for t in range(trials):
        reals = []
        for k in range(4):
            rg = rng_from(seed, f"mp/{t}/{k}/steer")
            a = np.exp(1j * rg.uniform(0.0, 2.0 * math.pi, 16))
            b = np.exp(1j * rg.uniform(0.0, 2.0 * math.pi, 4))
            h = complex_normal(rng_from(seed, f"mp/{t}/{k}/h"), (4, 16))
            reals.append(_reflected_only(np.outer(a, b), h))
        caps = []
        for kk in range(1, 5):
            h_t = assemble_multi_panel(reals[:kk], [ones] * kk)
            if numerical_rank(h_t) != min(kk, 4):
                rank_failures += 1
            caps.append(waterfill_capacity(h_t, 1.0, 0.01))
        monotone_ok += all(caps[i + 1] > caps[i] for i in range(3))
    assert rank_failures == 0
    assert monotone_ok >= 0.99 * trials
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_aligned_gain_follows_square_law():
    t0 = time.perf_counter()
    for n in range(1, 257):
        rng = rng_from(4, f"sq/{n}")
        g = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
        h = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
        gain = abs(composite_gain(g, h, align_phases_miso(g, h))) ** 2
        assert abs(gain - n * n) <= 1e-9 * n * n
    assert time.perf_counter() - t0 < 1.0


def test_criterion_05_one_bit_loss_matches_grid_oracle(quantization_ratio_pair):
    t0 = time.perf_counter()
    simulated, oracle = quantization_ratio_pair
    assert abs(simulated - oracle) <= 0.02
    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_phase_ascent_reaches_exhaustive_optimum():
    t0 = time.perf_counter()
    fixture = pathlib.Path(__file__).parent / "fixtures" / "phase_opt_oracle.json"
    doc = json.loads(fixture.read_text())
    n = doc["n_elements"]

    def unpack(pairs, shape):
        arr = np.asarray(pairs, dtype=float)
        return (arr[:, 0] + 1j * arr[:, 1]).reshape(shape)

    for inst in doc["instances"]:
        real = _reflected_only(unpack(inst["g"], (n, 2)), unpack(inst["h"], (2, n)))
        # one user: the shared state is the single-user capacity ascent
        (res,) = compare_shared_vs_ideal(
            [[UserContext(real, 1.0)]], RisPanel.uniform(n), doc["total_power"],
            doc["noise_power"], MAX_ITERS, GRID)
        assert res.shared_sum >= 0.99 * inst["oracle_capacity"]
    assert time.perf_counter() - t0 < 60.0


def test_criterion_07_shared_reflection_gap(multiuser_batch):
    t0 = time.perf_counter()
    # degenerate regimes carry no price
    solo = [UserContext(_reflected_only(
        complex_normal(rng_from(7, "solo/g"), (8, 2)),
        complex_normal(rng_from(7, "solo/h"), (2, 8))), 1.0)]
    (cmp,) = compare_shared_vs_ideal([solo], RisPanel.uniform(8), 1.0, 1.0, MAX_ITERS, GRID)
    assert cmp.gap_fraction <= 1e-6
    shared_real = _reflected_only(
        complex_normal(rng_from(7, "twin/g"), (8, 2)),
        complex_normal(rng_from(7, "twin/h"), (2, 8)))
    twins = [UserContext(shared_real, 1.0), UserContext(shared_real, 1.0)]
    (cmp,) = compare_shared_vs_ideal([twins], RisPanel.uniform(8), 1.0, 1.0, MAX_ITERS, GRID)
    assert cmp.gap_fraction <= 1e-6
    # four heterogeneous users pay a strictly positive average price
    rows = {}
    for trial, metric, value in multiuser_batch.rows:
        rows.setdefault(trial, {})[metric] = value
    assert len(rows) == 200
    assert float(np.mean([r["gap_fraction"] for r in rows.values()])) > 0.0
    for r in rows.values():
        assert r["shared_sum"] <= r["ideal_sum"] + 1e-6
    assert time.perf_counter() - t0 < 120.0


def test_criterion_08_update_policies_order_victim_rates(rerand_stale_batch):
    t0 = time.perf_counter()
    scn_re = _coex_scenario(resolve_scenario("coexist", {}), same_frequency=True)
    for policy in ("static", "frozen_during_foreign_slot"):
        _, _, loss = stale_rates(replace(scn_re, ris_update_policy=policy), range(100), 8)
        assert np.all(loss == 0.0)
    _, _, loss = rerand_stale_batch
    assert float(np.mean(loss)) > 0.0
    assert loss.size == 10_000
    # paired draws: holding the surface still is (weakly) better nearly always
    scn_re = replace(_coex_scenario(
        {**resolve_scenario("coexist", {}), "m_antennas": 8, "u_antennas": 1,
         "b_direct_blocked": True}, same_frequency=True))
    scn_st = replace(scn_re, ris_update_policy="static")
    # no trial's value depends on the others evaluated with it, so one
    # call per policy pairs the same 1000 trials
    _, (r_re,), _ = stale_rates(scn_re, range(1000), 2024)
    _, (r_st,), _ = stale_rates(scn_st, range(1000), 2024)
    wins = int(np.sum(r_st >= r_re))
    assert wins >= 950
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_band_filter_budget_and_baseline():
    t0 = time.perf_counter()
    for atten in (5.0, 20.0, 33.5):
        filt = BandFilter(per_pass_oob_attenuation_db=atten)
        assert apply_band_filter(filt, 0.0, 0.0, True).oob_out_dbm == -2.0 * atten
        assert apply_band_filter(filt, 0.0, 0.0, False).oob_out_dbm == -atten
    scn = _coex_scenario(resolve_scenario("adjacent", {}), same_frequency=False)
    _, filtered, _, _ = adjacent_rates(
        scn, BandFilter(per_pass_oob_attenuation_db=math.inf), range(50), 5)
    _, (base,), _ = stale_rates(scn, range(50), 5, (0.0,))
    assert np.max(np.abs(filtered - base)) <= 1e-9
    assert time.perf_counter() - t0 < 10.0


def test_criterion_10_greedy_panel_lights_the_shadow():
    t0 = time.perf_counter()
    scene = Scene(
        extent=(0.0, 0.0, 100.0, 60.0),
        obstacles=((45.0, 20.0, 55.0, 40.0),),
        base_stations=(
            BaseStation(position=np.array([10.0, 30.0]), tx_power_dbm=30.0),
        ),
        candidate_sites=((60.0, 8.0), (50.0, 50.0), (90.0, 30.0)),
        grid_resolution=2.0,
        wavelength=0.1,
    )
    params = ChannelParams(rician_k=0.0, path_loss_exponent=2.0,
                           noise_power=1e-13, wavefront_model="planar")
    threshold = 24.0
    bare = snr_map(scene, DeploymentPlan(), params, threshold)
    xs, ys = scene.grid_points()
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    x0, y0, x1, y1 = scene.obstacles[0]
    inside = (gx >= x0) & (gx <= x1) & (gy >= y0) & (gy <= y1)
    shadow = (bare.serving == SERVING_NONE) & ~inside
    assert shadow.sum() > 0
    assert not bare.covered[shadow].any()

    plan = greedy_place(scene, RisPanel.uniform(256), params, 1.0, 3.0,
                        threshold, 0.95)
    # the first pick is the site with line of sight to both the base
    # station and the shadowed pocket behind the obstacle
    assert plan.history[1][0] == 0
    lit = snr_map(scene, DeploymentPlan(placed=plan.placed[:1]), params, threshold)
    assert lit.covered[shadow].mean() >= 0.95
    covs = [cov for _, cov in plan.history]
    assert all(covs[i + 1] > covs[i] for i in range(len(covs) - 1))

    scales = (0.25, 0.5, 0.75, 1.0, 1.5)
    breathing = [cell_breathing(scene, plan, params, s, threshold).coverage_fraction
                 for s in scales]
    assert all(breathing[i + 1] >= breathing[i] for i in range(len(scales) - 1))
    assert time.perf_counter() - t0 < 30.0


def test_criterion_11_cli_byte_identical_across_runs_and_threads(tmp_path):
    t0 = time.perf_counter()
    config_dir = pathlib.Path(__file__).parent.parent / "configs"
    for name in ("rank", "beamform", "multiuser", "coexist", "adjacent", "deploy"):
        cfg = str(config_dir / f"{name}.yaml")
        paths = [tmp_path / f"{name}_{tag}.csv" for tag in ("r1", "r2", "t8")]
        assert main([name, "--config", cfg, "--out", str(paths[0])]) == 0
        assert main([name, "--config", cfg, "--out", str(paths[1])]) == 0
        assert main([name, "--config", cfg, "--threads", "8",
                     "--out", str(paths[2])]) == 0
        first = paths[0].read_bytes()
        assert first.startswith(b"trial,metric,value\n")
        assert paths[1].read_bytes() == first
        assert paths[2].read_bytes() == first
    assert time.perf_counter() - t0 < 120.0
