"""Scene rasters, sight blocking, greedy placement, cell breathing."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import segment_hits_rectangle_exact
from ris_sim import deploy
from ris_sim.channel import GeometryError
from ris_sim.deploy import (
    SERVING_DIRECT,
    SERVING_NONE,
    SERVING_RIS,
    BaseStation,
    CoverageMap,
    DeploymentPlan,
    Scene,
    greedy_place,
    snr_map,
)

#: every test scene's link budget
BUDGET = {"path_loss_exponent": 2.0, "noise_power": 1e-13}
THRESHOLD = 24.0


def _default_scene():
    """One station, one central blocker, three candidate wall sites."""
    return Scene(
        extent=(0.0, 0.0, 100.0, 60.0),
        obstacles=((45.0, 20.0, 55.0, 40.0),),
        base_stations=(BaseStation(position=(10.0, 30.0), tx_power_dbm=30.0),),
        candidate_sites=((60.0, 8.0), (50.0, 50.0), (90.0, 30.0)),
        grid_resolution=2.0,
        wavelength=0.1,
        **BUDGET,
    )


def _small_scene(obstacles=()):
    return Scene(
        extent=(0.0, 0.0, 8.0, 8.0),
        obstacles=obstacles,
        base_stations=(BaseStation(position=(1.0, 1.0), tx_power_dbm=30.0),),
        candidate_sites=((7.0, 7.0),),
        grid_resolution=2.0,
        wavelength=0.1,
        **BUDGET,
    )


N_ELEMENTS = 256


# ---------------------------------------------------------------------------
# line of sight

def los_blocked(scene, p, q) -> bool:
    """True when any obstacle interrupts the open sight segment p -> q.

    One segment through the package's vectorised `_segment_blocked`
    kernel, which the rational oracle below checks.
    """
    pa = np.asarray(p, dtype=float).reshape(-1)[:2]
    qa = np.asarray(q, dtype=float).reshape(-1)[:2]
    scene._check_inside(pa)
    scene._check_inside(qa)
    return any(bool(deploy._segment_blocked(pa[0], pa[1], qa[0], qa[1], rect))
               for rect in scene.obstacles)


def test_open_scene_never_blocks():
    scene = _small_scene()
    assert los_blocked(scene, (0.5, 0.5), (7.5, 7.5)) is False


def test_obstacle_on_segment_blocks():
    scene = _small_scene(obstacles=((2.0, 2.0, 4.0, 4.0),))
    assert los_blocked(scene, (1.0, 1.0), (5.0, 5.0)) is True
    assert los_blocked(scene, (1.0, 5.0), (5.0, 5.0)) is False


def test_corner_grazing_blocks():
    # the segment lies on x + y = 8 and touches the blocker only at (4, 4)
    scene = _small_scene(obstacles=((2.0, 2.0, 4.0, 4.0),))
    assert los_blocked(scene, (2.0, 6.0), (6.0, 2.0)) is True
    assert segment_hits_rectangle_exact((2.0, 6.0), (6.0, 2.0),
                                        (2.0, 2.0, 4.0, 4.0)) is True


def test_endpoint_contact_does_not_block():
    # a panel mounted on the wall still sees outward
    scene = _small_scene(obstacles=((2.0, 2.0, 4.0, 4.0),))
    assert los_blocked(scene, (0.5, 0.5), (2.0, 2.0)) is False
    assert segment_hits_rectangle_exact((0.5, 0.5), (2.0, 2.0),
                                        (2.0, 2.0, 4.0, 4.0)) is False


def test_blocking_matches_rational_oracle():
    rect = (2.0, 2.0, 4.0, 4.0)
    scene = _small_scene(obstacles=(rect,))
    rng = np.random.default_rng(77)
    pts = rng.integers(0, 65, size=(800, 4)) / 8.0
    for px, py, qx, qy in pts:
        if px == qx and py == qy:
            continue
        got = los_blocked(scene, (px, py), (qx, qy))
        want = segment_hits_rectangle_exact((px, py), (qx, qy), rect)
        assert got == want, (px, py, qx, qy)


@st.composite
def _sight_raster_case(draw):
    """A scene and an endpoint q whose coordinates favour cell-centre rows
    and columns, obstacle edge lines, and the values next to them: the next
    floats either side, and a few sight margins either side."""
    res = draw(st.sampled_from((0.5, 1.0, 0.3, 0.7)))
    nx, ny = draw(st.integers(2, 16)), draw(st.integers(2, 12))
    x0, y0 = draw(st.sampled_from(((0.0, 0.0), (-3.25, 1.5), (40.0, -7.0))))
    scene = Scene(extent=(x0, y0, x0 + nx * res, y0 + ny * res), obstacles=(),
                  base_stations=(BaseStation(position=(x0, y0), tx_power_dbm=30.0),),
                  candidate_sites=(), grid_resolution=res, wavelength=0.1, **BUDGET)
    xs, ys = scene.grid_points()
    margin = deploy._SIGHT_MARGIN * max(nx * res, ny * res, *map(abs, scene.extent))

    def near(values, lo, hi):
        out = set(values)
        out |= {np.nextafter(v, s) for v in values for s in (-np.inf, np.inf)}
        out |= {v + k * margin for v in values for k in (-3.0, -1.5, -1.0, 1.0, 1.5, 3.0)}
        return st.sampled_from(sorted(float(v) for v in out if lo <= v <= hi))

    def axis(lo, hi, centres):
        eighths = st.integers(0, math.floor((hi - lo) * 8.0)).map(lambda k: lo + k / 8.0)
        return st.one_of(eighths, near(list(centres), lo, hi))

    x_axis, y_axis = axis(*scene.extent[::2], xs), axis(*scene.extent[1::2], ys)
    rects = []
    for _ in range(draw(st.integers(1, 3))):
        a, c = sorted(draw(st.lists(x_axis, min_size=2, max_size=2, unique=True)))
        b, d = sorted(draw(st.lists(y_axis, min_size=2, max_size=2, unique=True)))
        rects.append((a, b, c, d))
    a, b, c, d = rects[0]
    edges_x = near([a, c], *scene.extent[::2])
    edges_y = near([b, d], *scene.extent[1::2])
    # along a face: its ends, its middle and the cell centres it spans
    inside_x = near([a, c, (a + c) / 2.0, *xs[(xs >= a) & (xs <= c)]], a, c)
    inside_y = near([b, d, (b + d) / 2.0, *ys[(ys >= b) & (ys <= d)]], b, d)
    q = draw(st.one_of(
        # free, or on (or next to) a cell-centre row or column
        st.tuples(x_axis, y_axis),
        # a corner, a face, and an edge line extended
        st.tuples(edges_x, edges_y),
        st.tuples(edges_x, inside_y),
        st.tuples(inside_x, edges_y),
        st.tuples(edges_x, y_axis),
        st.tuples(x_axis, edges_y),
    ))
    return replace(scene, obstacles=tuple(rects)), q


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=_sight_raster_case())
def test_sight_raster_matches_the_slab_test_on_every_cell(case):
    scene, q = case
    xs, ys = scene.grid_points()
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    want = np.zeros(gx.shape, dtype=bool)
    for rect in scene.obstacles:
        want |= deploy._segment_blocked(gx, gy, q[0], q[1], rect)
    got, tested = deploy._sight_raster(scene, q)
    assert got.shape == gx.shape
    assert np.array_equal(got, want)
    assert 0 <= tested <= len(scene.obstacles) * gx.size


# ---------------------------------------------------------------------------
# snr raster

def test_station_adjacent_cell_served_direct():
    scene = _small_scene()
    cm = snr_map(scene, DeploymentPlan(), THRESHOLD)
    assert cm.serving[0, 0] == SERVING_DIRECT
    assert cm.covered[0, 0]


def test_enclosed_cell_unreachable():
    walls = (
        (8.0, 8.0, 12.0, 9.0),
        (8.0, 11.0, 12.0, 12.0),
        (8.0, 8.0, 9.0, 12.0),
        (11.0, 8.0, 12.0, 12.0),
    )
    scene = Scene(
        extent=(0.0, 0.0, 20.0, 20.0),
        obstacles=walls,
        base_stations=(BaseStation(position=(2.0, 2.0), tx_power_dbm=30.0),),
        candidate_sites=((18.0, 2.0),),
        grid_resolution=4.0,
        wavelength=0.1,
        **BUDGET,
    )
    cm = snr_map(scene, DeploymentPlan(placed=((0, 64),)), THRESHOLD)
    assert cm.serving[2, 2] == SERVING_NONE
    assert not cm.covered[2, 2]
    assert cm.snr_db[2, 2] == -np.inf


def test_shadowed_cell_budget_matches_hand_computation():
    scene = _default_scene()
    plan = DeploymentPlan(placed=((0, N_ELEMENTS),))
    cm = snr_map(scene, plan, THRESHOLD)
    # cell centre (61, 31): hidden from the station, dual line of sight
    # through the site at (60, 8)
    ix = int(np.argmin(np.abs(cm.xs - 61.0)))
    iy = int(np.argmin(np.abs(cm.ys - 31.0)))
    assert los_blocked(scene, (10.0, 30.0), (61.0, 31.0))
    lam, n = 0.1, 256
    d1 = math.hypot(60.0 - 10.0, 8.0 - 30.0)
    d2 = math.hypot(61.0 - 60.0, 31.0 - 8.0)
    hand = (30.0
            + 20.0 * math.log10(lam / (4.0 * math.pi * d1))
            + 20.0 * math.log10(n)
            + 20.0 * math.log10(lam / (4.0 * math.pi * d2))
            - 10.0 * math.log10(1e-13 * 1e3))
    assert cm.serving[iy, ix] == SERVING_RIS
    assert abs(cm.snr_db[iy, ix] - hand) <= 0.1


def test_ris_serving_label_is_strict():
    scene = _default_scene()
    plan = DeploymentPlan(placed=((0, N_ELEMENTS), (1, N_ELEMENTS)))
    bare = snr_map(scene, DeploymentPlan(), THRESHOLD)
    full = snr_map(scene, plan, THRESHOLD)
    ris_cells = full.serving == SERVING_RIS
    assert np.any(ris_cells)
    assert np.all(full.snr_db[ris_cells] > bare.snr_db[ris_cells])
    assert np.all(full.snr_db >= bare.snr_db)


def test_edge_panel_raises_far_corner_snr():
    scene = Scene(
        extent=(0.0, 0.0, 100.0, 60.0),
        obstacles=(),
        base_stations=(BaseStation(position=(5.0, 30.0), tx_power_dbm=30.0),),
        candidate_sites=((94.0, 6.0),),
        grid_resolution=2.0,
        wavelength=0.1,
        **BUDGET,
    )
    bare = snr_map(scene, DeploymentPlan(), THRESHOLD)
    with_panel = snr_map(scene, DeploymentPlan(placed=((0, N_ELEMENTS),)),
                         THRESHOLD)
    ix = int(np.argmin(np.abs(bare.xs - 95.0)))
    iy = int(np.argmin(np.abs(bare.ys - 5.0)))
    assert with_panel.snr_db[iy, ix] > bare.snr_db[iy, ix]
    assert with_panel.serving[iy, ix] == SERVING_RIS
    assert np.all(with_panel.snr_db >= bare.snr_db)


def test_scene_validation():
    with pytest.raises(GeometryError):
        _small_scene(obstacles=((6.0, 6.0, 9.0, 7.0),))
    with pytest.raises(GeometryError):
        Scene(extent=(0, 0, 8, 8), obstacles=(), base_stations=(),
              candidate_sites=(), grid_resolution=2.0, wavelength=0.1, **BUDGET)
    with pytest.raises(GeometryError):
        Scene(extent=(0, 0, 8, 8), obstacles=(),
              base_stations=(BaseStation(position=(1, 1), tx_power_dbm=0.0),),
              candidate_sites=(), grid_resolution=0.0, wavelength=0.1, **BUDGET)
    # the scene owns its link budget, and checks it
    for field, value in (("path_loss_exponent", 1.5), ("path_loss_exponent", math.nan),
                         ("noise_power", 0.0), ("noise_power", -1e-13),
                         ("noise_power", math.inf), ("noise_power", math.nan)):
        with pytest.raises(ValueError, match=field):
            replace(_small_scene(), **{field: value})
    with pytest.raises(ValueError):
        DeploymentPlan(placed=((0, N_ELEMENTS), (0, N_ELEMENTS)))


# ---------------------------------------------------------------------------
# greedy placement

def test_saturated_scene_places_nothing():
    scene = _small_scene()
    plan = greedy_place(scene, N_ELEMENTS, cost_per_panel=1.0,
                        budget=3.0, threshold_db=THRESHOLD, target_fraction=0.95)
    assert plan.placed == ()
    assert plan.cost == 0.0
    assert plan.coverage_fraction == 1.0
    assert plan.history == ((-1, 1.0),)


def test_shadow_site_chosen_first():
    scene = _default_scene()
    plan = greedy_place(scene, N_ELEMENTS, cost_per_panel=1.0,
                        budget=3.0, threshold_db=THRESHOLD, target_fraction=0.95)
    assert plan.placed[0][0] == 0
    covs = [c for _, c in plan.history]
    assert covs == sorted(covs)
    assert covs[0] == pytest.approx(0.676, abs=1e-3)
    assert plan.coverage_fraction >= 0.95


def test_greedy_against_subset_enumeration():
    scene = _default_scene()
    plan = greedy_place(scene, N_ELEMENTS, cost_per_panel=1.0,
                        budget=2.0, threshold_db=THRESHOLD, target_fraction=1.0)
    best_subset = 0.0
    best_single = 0.0
    for k in (0, 1, 2):
        for sites in itertools.combinations(range(3), k):
            trial = DeploymentPlan(placed=tuple((s, N_ELEMENTS) for s in sites))
            cov = snr_map(scene, trial, THRESHOLD).coverage_fraction
            best_subset = max(best_subset, cov)
            if k == 1:
                best_single = max(best_single, cov)
    assert plan.coverage_fraction >= best_single
    assert plan.coverage_fraction <= best_subset + 1e-12


def test_greedy_is_deterministic():
    scene = _default_scene()
    kw = dict(cost_per_panel=1.0, budget=3.0, threshold_db=THRESHOLD,
              target_fraction=0.95)
    a = greedy_place(scene, N_ELEMENTS, **kw)
    b = greedy_place(scene, N_ELEMENTS, **kw)
    assert [s for s, _ in a.placed] == [s for s, _ in b.placed]
    assert a.cost == b.cost
    assert a.coverage_fraction == b.coverage_fraction
    assert a.history == b.history


def test_greedy_parameter_checks():
    scene = _default_scene()
    with pytest.raises(ValueError):
        greedy_place(scene, N_ELEMENTS, 0.0, 3.0, THRESHOLD, 0.95)
    with pytest.raises(ValueError):
        greedy_place(scene, N_ELEMENTS, 1.0, -1.0, THRESHOLD, 0.95)
    with pytest.raises(ValueError):
        greedy_place(scene, N_ELEMENTS, 1.0, 3.0, THRESHOLD, 0.0)
    for n_elements in (0, 2.5, "256"):
        with pytest.raises(ValueError):
            greedy_place(scene, n_elements, 1.0, 3.0, THRESHOLD, 0.95)


# ---------------------------------------------------------------------------
# cell breathing

def _greedy_plan(scene):
    return greedy_place(scene, N_ELEMENTS, cost_per_panel=1.0,
                        budget=3.0, threshold_db=THRESHOLD,
                        target_fraction=0.95)


def test_breathing_identity_at_full_gain():
    scene = _default_scene()
    plan = _greedy_plan(scene)
    direct = snr_map(scene, plan, THRESHOLD)
    breathed = snr_map(scene, plan, THRESHOLD, gain_scale=1.0)
    assert np.array_equal(direct.snr_db, breathed.snr_db)
    assert np.array_equal(direct.serving, breathed.serving)


def test_breathing_zero_reverts_to_bare_network():
    scene = _default_scene()
    plan = _greedy_plan(scene)
    bare = snr_map(scene, DeploymentPlan(), THRESHOLD)
    closed = snr_map(scene, plan, THRESHOLD, gain_scale=0.0)
    assert np.array_equal(bare.snr_db, closed.snr_db)
    assert np.array_equal(bare.covered, closed.covered)


def test_breathing_monotone_in_gain():
    scene = _default_scene()
    plan = _greedy_plan(scene)
    sweep = [snr_map(scene, plan, THRESHOLD, gain_scale=s)
             for s in (0.25, 0.5, 0.75, 1.0, 1.5)]
    covs = [cm.coverage_fraction for cm in sweep]
    assert covs == sorted(covs)
    assert covs[0] == pytest.approx(0.698, abs=1e-3)
    assert covs[1] == pytest.approx(0.7967, abs=1e-3)
    assert covs[3] == pytest.approx(0.97, abs=1e-3)
    # half-gain serves no cell the full-gain map misses
    assert not np.any(sweep[1].covered & ~sweep[3].covered)


def test_coverage_fraction_property():
    cm = CoverageMap(
        xs=np.arange(2.0), ys=np.arange(2.0),
        snr_db=np.zeros((2, 2)),
        covered=np.array([[True, False], [True, True]]),
        serving=np.full((2, 2), SERVING_DIRECT, dtype=np.int8),
        threshold_db=0.0,
    )
    assert cm.coverage_fraction == 0.75


# ---------------------------------------------------------------------------
# incremental placement and the per-scene sight cache against rebuilds
#
# Seeded scenes cover two base stations, a site whose station hop is
# blocked, a site on an obstacle wall and twin sites that tie exactly.

_segment_blocked = deploy._segment_blocked
_SWEEP_SCALES = (0.0, 0.5, 1.0, 1.5)


def _seeded_scene(seed, two_stations, blocked_hop, wall_site, twin):
    rng = np.random.default_rng(seed)
    stations = [BaseStation(position=(rng.uniform(1.0, 8.0), rng.uniform(6.0, 18.0)),
                            tx_power_dbm=30.0)]
    if two_stations:
        stations.append(BaseStation(position=(rng.uniform(1.0, 39.0), rng.uniform(1.0, 23.0)),
                                    tx_power_dbm=rng.uniform(20.0, 30.0)))
    obstacles = []
    for _ in range(rng.integers(1, 4)):
        x, y = rng.uniform(12.0, 30.0), rng.uniform(4.0, 15.0)
        obstacles.append((x, y, x + rng.uniform(1.0, 4.0), y + rng.uniform(1.0, 4.0)))
    sites = [tuple(rng.uniform((10.0, 1.0), (39.0, 23.0))) for _ in range(rng.integers(2, 5))]
    a, b, c, d = obstacles[0]
    if blocked_hop:
        # just past the far face of the first obstacle, on the ray from the
        # first station through its centre
        centre = np.array([(a + c) / 2.0, (b + d) / 2.0])
        u = centre - stations[0].position
        u /= np.hypot(*u)
        exit_t = min(h / abs(v) for h, v in (((c - a) / 2.0, u[0]), ((d - b) / 2.0, u[1]))
                     if v != 0.0)
        sites.append(tuple(centre + (exit_t + 0.25) * u))
    if wall_site:
        sites.append((a, (b + d) / 2.0))
    if twin:
        sites.append(sites[0])
    scene = Scene(
        extent=(0.0, 0.0, 40.0, 24.0),
        obstacles=tuple(obstacles),
        base_stations=tuple(stations),
        candidate_sites=tuple(sites),
        grid_resolution=1.0,
        wavelength=0.1,
        **BUDGET,
    )
    return scene, float(rng.uniform(45.0, 60.0)), float(rng.integers(1, 5))


def _rebuilt_snr_map(scene, plan, threshold_db, gain_scale=1.0):
    """The raster with every blocked-sight mask rebuilt on the spot."""
    lam, alpha = scene.wavelength, scene.path_loss_exponent
    xs, ys = scene.grid_points()
    gx, gy = np.meshgrid(xs, ys, indexing="xy")

    def gain_db(dist):
        return 10.0 * alpha * np.log10(lam / (4.0 * math.pi * np.maximum(dist, 1e-3)))

    def blocked(q):
        out = np.zeros(gx.shape, dtype=bool)
        for rect in scene.obstacles:
            out |= _segment_blocked(gx, gy, float(q[0]), float(q[1]), rect)
        return out

    direct = np.full(gx.shape, -np.inf)
    for bs in scene.base_stations:
        dbm = bs.tx_power_dbm + gain_db(np.hypot(gx - bs.position[0], gy - bs.position[1]))
        dbm[blocked(bs.position)] = -np.inf
        direct = np.maximum(direct, dbm)
    ris = np.full(gx.shape, -np.inf)
    for idx, n_elements in plan.placed if gain_scale > 0.0 else ():
        site = scene.candidate_sites[idx]
        to_grid = gain_db(np.hypot(gx - site[0], gy - site[1]))
        for bs in scene.base_stations:
            if any(_segment_blocked(bs.position[0], bs.position[1], site[0], site[1], r)
                   for r in scene.obstacles):
                continue
            dbm = (bs.tx_power_dbm + gain_db(float(np.hypot(*(bs.position - site))))
                   + 20.0 * math.log10(n_elements * gain_scale) + to_grid)
            ris = np.maximum(ris, np.where(blocked(site), -np.inf, dbm))
    snr = np.maximum(direct, ris) - 10.0 * math.log10(scene.noise_power * 1e3)
    serving = np.where(ris > direct, SERVING_RIS,
                       np.where(direct > -np.inf, SERVING_DIRECT, SERVING_NONE))
    return snr, snr >= threshold_db, serving


def _rescan_greedy(scene, threshold_db, budget, target):
    """Greedy history with every free site rescored by a full `snr_map`."""
    def cov(sites):
        plan = DeploymentPlan(placed=tuple((s, N_ELEMENTS) for s in sites))
        return snr_map(scene, plan, threshold_db).coverage_fraction

    placed, spent = [], 0.0
    history = [(-1, cov(placed))]
    free = list(range(len(scene.candidate_sites)))
    while spent + 1.0 <= budget and history[-1][1] < target and free:
        scores = [cov(placed + [s]) for s in free]
        best = max(scores)
        if best <= history[-1][1]:
            break
        site = free[scores.index(best)]
        placed.append(site)
        free.remove(site)
        spent += 1.0
        history.append((site, best))
    return tuple(history)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), two_stations=st.booleans(),
       blocked_hop=st.booleans(), wall_site=st.booleans(), twin=st.booleans(),
       target=st.sampled_from((0.6, 0.9, 1.0)))
def test_incremental_greedy_matches_rescan_and_rebuilt_masks(
        seed, two_stations, blocked_hop, wall_site, twin, target):
    scene, threshold, budget = _seeded_scene(seed, two_stations, blocked_hop, wall_site, twin)
    if blocked_hop:
        hop_site = scene.candidate_sites[-1 - wall_site - twin]
        assert los_blocked(scene, scene.base_stations[0].position, hop_site)
    calls = [0]
    sight_raster = deploy._sight_raster

    def counted(*args):
        calls[0] += 1
        return sight_raster(*args)

    deploy._sight_raster = counted
    try:
        plan = greedy_place(scene, N_ELEMENTS, 1.0, budget, threshold, target)
        sweep = [snr_map(scene, plan, threshold, gain_scale=s) for s in _SWEEP_SCALES]
        history = _rescan_greedy(scene, threshold, budget, target)
    finally:
        deploy._sight_raster = sight_raster

    assert plan.history == history
    assert [s for s, _ in plan.placed] == [s for s, _ in history[1:]]
    if twin:
        # the twin ties site 0 and never adds coverage next to it
        assert len(scene.candidate_sites) - 1 not in [s for s, _ in plan.placed]
    every_site = DeploymentPlan(
        placed=tuple((i, N_ELEMENTS) for i in range(len(scene.candidate_sites))))
    checks = [(plan, s, cm) for s, cm in zip(_SWEEP_SCALES, sweep)]
    checks.append((every_site, 1.0, snr_map(scene, every_site, threshold)))
    for placed, scale, cm in checks:
        snr, covered, serving = _rebuilt_snr_map(scene, placed, threshold, scale)
        assert np.array_equal(cm.snr_db, snr)
        assert np.array_equal(cm.covered, covered)
        assert np.array_equal(cm.serving, serving)
    # one raster sight build per endpoint: every station, and every site
    # that some station sees, whether or not greedy takes a step
    seen = [site for site in scene.candidate_sites
            if not all(los_blocked(scene, bs.position, site) for bs in scene.base_stations)]
    assert calls[0] == len(scene.base_stations) + len(seen)


def test_candidate_site_positions_are_read_only_copies():
    site = np.array([60.0, 8.0])
    scene = Scene(
        extent=(0.0, 0.0, 100.0, 60.0), obstacles=(),
        base_stations=(BaseStation(position=(10.0, 30.0), tx_power_dbm=30.0),),
        candidate_sites=(site,), grid_resolution=2.0, wavelength=0.1, **BUDGET,
    )
    site[0] = 0.0
    assert scene.candidate_sites[0][0] == 60.0
    with pytest.raises(ValueError):
        scene.candidate_sites[0][0] = 1.0


def test_tied_best_sites_resolve_to_the_lowest_index():
    base = _default_scene()
    scene = replace(base, candidate_sites=base.candidate_sites + (base.candidate_sites[0],))
    plan = _greedy_plan(scene)
    assert plan.history == _rescan_greedy(scene, THRESHOLD, 3.0, 0.95)
    assert plan.placed[0][0] == 0
    assert 3 not in [s for s, _ in plan.placed]


@pytest.mark.parametrize("seed, two_stations, blocked_hop", [(17, True, False), (0, False, True)])
def test_each_distance_layer_is_built_once_per_scene(monkeypatch, seed, two_stations,
                                                     blocked_hop):
    # each scene has a site that no station sees (the wall site in the
    # first, the site behind the first obstacle in the second), and both
    # placements take two steps
    scene, threshold, _ = _seeded_scene(seed, two_stations, blocked_hop, True, False)
    seg_gain_db = deploy._seg_gain_db
    layers = [0]

    def counted(scene_, dist):
        layers[0] += np.ndim(dist) > 0
        return seg_gain_db(scene_, dist)

    monkeypatch.setattr(deploy, "_seg_gain_db", counted)
    plan = greedy_place(scene, N_ELEMENTS, 1.0, 3.0, threshold, 1.0)
    assert len(plan.history) > 2
    # the direct layer once per station, then one layer per scored site
    # that some station sees
    seen = [site for site in scene.candidate_sites
            if not all(los_blocked(scene, bs.position, site) for bs in scene.base_stations)]
    assert 0 < len(seen) < len(scene.candidate_sites)
    built = len(scene.base_stations) + len(seen)
    assert layers[0] == built
    for scale in (0.5, 1.0, 1.5):
        snr_map(scene, plan, threshold, gain_scale=scale)
        assert layers[0] == built
