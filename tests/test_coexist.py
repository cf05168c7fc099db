"""Two-operator coexistence: stale CSI, LBT access, band filtering."""

import logging
import math
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ris_sim import channel, coexist
from ris_sim.channel import path_gain
from ris_sim.coexist import (
    STALE_CHUNK,
    UPDATE_POLICIES,
    budgets,
    filter_budget_db,
    lbt_runs,
    stale_rates,
)
from ris_sim.experiments import (
    ConfigError,
    _coex_scenario,
    prepare,
    resolve_scenario,
    run,
)


def _co_scenario(policy="rerandomize_each_slot", **overrides):
    p = resolve_scenario("coexist", {})
    p.update(overrides)
    return replace(_coex_scenario(p), policy=policy)


def _adj_scenario(**overrides):
    p = resolve_scenario("adjacent", {})
    p.update(overrides)
    return _coex_scenario(p), p


def _column(table, metric):
    return np.array([v for _, m, v in table.rows if m == metric])


# ---------------------------------------------------------------------------
# stale CSI

def test_static_policy_loses_nothing():
    fresh, stale, loss = stale_rates(_co_scenario("static"), 200, 7)
    assert np.all(loss == 0.0)
    assert np.array_equal(fresh, stale)


def test_frozen_policy_loses_nothing():
    # TDM granted to B: A freezes its surface during the foreign slot
    fresh, stale, loss = stale_rates(_co_scenario("frozen_during_foreign_slot"), 200, 7)
    assert np.all(loss == 0.0)
    assert np.array_equal(fresh, stale)


def test_same_slot_measurement_loses_nothing():
    scn = replace(_co_scenario(), t1=3, t2=3)
    _, _, loss = stale_rates(scn, 50, 7)
    assert np.all(loss == 0.0)


def test_rerandomization_loss_regression(rerand_stale_batch):
    # frozen on first computation; the band is +-10%
    fresh, stale, loss = rerand_stale_batch
    mean_loss = float(loss.mean())
    assert mean_loss > 0.0
    assert 0.1627780608 * 0.9 <= mean_loss <= 0.1627780608 * 1.1
    assert np.all(fresh >= stale - 1e-12)


def test_stale_rates_deterministic():
    scn = _co_scenario()
    a = np.stack(stale_rates(scn, 6, 11))
    b = np.stack(stale_rates(scn, 6, 11))
    assert a.tobytes() == b.tobytes()


def test_static_beats_rerandomization_paired():
    # shadowed victim served only through A's surface, 1000 paired draws;
    # no trial's value depends on the others, so one call per policy pairs them
    scn_re = _co_scenario(m_antennas=8, u_antennas=1, b_direct_blocked=True)
    scn_st = replace(scn_re, policy="static")
    _, (r_re,), _ = stale_rates(scn_re, 1000, 2024)
    _, (r_st,), _ = stale_rates(scn_st, 1000, 2024)
    assert np.mean(r_st >= r_re) >= 0.95


# ---------------------------------------------------------------------------
# stacked stale-CSI path against the per-trial evaluation

def _filter_scale():
    p = resolve_scenario("adjacent", {})
    budget_db = filter_budget_db(p["oob_attenuation_db"], p["insertion_loss_db"],
                                 p["filter_passes"])
    return 10.0 ** (budget_db / 20.0)


def _oracle_rates(scn, draws, scales):
    """(fresh, stale, loss) of each trial's draws at each scale, one trial
    at a time."""
    out = np.empty((3, len(scales), len(draws)))
    for i, drawn in enumerate(draws):
        for a, scale in enumerate(scales):
            out[:, a, i] = oracles.per_trial_stale_rates(scn, drawn, scale)
    return out


def _run_oracle_rates(scn, trials, seed, scales):
    """The scalar oracle of `stale_rates`: trials drawn one after the other
    from the run's two streams."""
    return _oracle_rates(scn, oracles.run_stream_stale_draws(scn, trials, seed), scales)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
# one trial of 1x1 blocks with no direct link: every array has size one, and
# numpy rounds a product there alike only if both operands have the same ndim
@example(seed=0, policy="static", same_slot=False, blocked=True, k=math.inf,
         dims=(2, 1, 1), chunk=1, trials=1)
@example(seed=5, policy="rerandomize_each_slot", same_slot=False, blocked=True,
         k=0.0, dims=(1, 1, 1), chunk=1, trials=3)
@given(
    seed=st.integers(0, 2**32 - 1),
    policy=st.sampled_from(UPDATE_POLICIES),
    same_slot=st.booleans(),
    blocked=st.booleans(),
    k=st.sampled_from([0.0, 3.0, math.inf]),
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.sampled_from([1, 4, 9])),
    chunk=st.integers(1, 4),
    trials=st.integers(1, 9),
)
def test_stacked_rates_match_per_trial_oracle_bit_for_bit(
        seed, policy, same_slot, blocked, k, dims, chunk, trials):
    m, u, n = dims
    scn = _co_scenario(policy, m_antennas=m, u_antennas=u, n_elements_a=n,
                       rician_k=k, b_direct_blocked=blocked,
                       t1=2, t2=2 if same_slot else 5)
    scales = (1.0, 0.0, _filter_scale())
    # a small chunk puts the trial count below, at and across its size
    with mock.patch.object(coexist, "STALE_CHUNK", chunk):
        got = np.stack(stale_rates(scn, trials, seed, scales))
    want = _run_oracle_rates(scn, trials, seed, scales)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("trials", [STALE_CHUNK - 1, STALE_CHUNK, STALE_CHUNK + 1])
def test_stacked_rates_match_oracle_around_the_chunk_size(trials):
    scn = _co_scenario(n_elements_a=16)
    got = np.stack(stale_rates(scn, trials, 31, (1.0, _filter_scale())))
    want = _run_oracle_rates(scn, trials, 31, (1.0, _filter_scale()))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scenario", [
    {},
    {"rician_k": 3.0},
    {"b_direct_blocked": True},
], ids=["rerandomize", "rician_direct", "shadowed"])
def test_one_stream_route_matches_the_per_hop_route_in_distribution(scenario):
    # the per-(trial, hop) streams the stacked path keyed before it drew
    # one stream per trial, then one per run and kind: every entry is iid
    # CN(0, 1) and every phase iid U(0, 2 pi) on both routes, so each
    # metric's mean agrees to sampling
    scn = _co_scenario(**scenario)
    trials = 400
    new = np.stack(stale_rates(scn, trials, 41))[:, 0]
    old = _oracle_rates(scn, [oracles.per_trial_stale_draws(scn, t, 42) for t in range(trials)],
                        (1.0,))[:, 0]
    # from one seed the two routes draw different channels, so this
    # compares two routes, not one route with itself
    same_seed = _oracle_rates(scn, [oracles.per_trial_stale_draws(scn, t, 41) for t in range(5)],
                              (1.0,))[:, 0]
    assert not np.any(new[:2, :5] == same_seed[:2])
    for a, b in zip(new, old):
        se = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / trials)
        assert abs(a.mean() - b.mean()) <= 5.0 * se


@pytest.mark.parametrize("experiment, scenario", [
    ("coexist", {}),
    ("coexist", {"policy": "static", "b_direct_blocked": True}),
    ("adjacent", {"rician_k": math.inf}),
], ids=["coexist", "shadowed_static", "adjacent_los"])
def test_a_stale_run_seeds_two_streams(seeded_streams, caplog, experiment, scenario):
    with caplog.at_level(logging.INFO, logger="ris_sim.coexist"):
        run(prepare(experiment, scenario, 3, 37))
    assert seeded_streams == ["stale/normals", "stale/uniforms"]
    lines = [r.getMessage() for r in caplog.records if "stale CSI" in r.getMessage()]
    assert len(lines) == 1 and lines[0].endswith(", 2 streams")


def test_trial_grouping_cannot_change_a_bit():
    # a shorter run is a prefix of a longer one, and no chunk size moves a
    # bit
    scn = _co_scenario(n_elements_a=8)
    trials = 2 * STALE_CHUNK + 5
    whole = np.stack(stale_rates(scn, trials, 4))
    for n in (1, STALE_CHUNK - 1, STALE_CHUNK + 2):
        assert np.stack(stale_rates(scn, n, 4)).tobytes() == whole[:, :, :n].tobytes()
    for chunk in (1, 3):
        with mock.patch.object(coexist, "STALE_CHUNK", chunk):
            assert np.stack(stale_rates(scn, trials, 4)).tobytes() == whole.tobytes()


def test_stale_rates_wrappers_agree():
    # a one-scale call and a shorter call at the default scale read the
    # rows and columns of a wider call bit for bit
    scn = _co_scenario()
    both = np.stack(stale_rates(scn, 6, 9, (0.5, 1.0)))
    half = np.stack(stale_rates(scn, 6, 9, (0.5,)))
    assert half.tobytes() == both[:, :1].tobytes()
    one = np.stack(stale_rates(scn, 5, 9))
    assert one.tobytes() == both[:, 1:, :5].tobytes()


def test_stale_rates_reject_active_foreign_surface():
    scn = _co_scenario()
    surface_states = coexist.surface_states

    def active(uniforms):
        return surface_states(uniforms) * (1.0 + 1e-9)

    with mock.patch.object(coexist, "surface_states", active):
        with pytest.raises(ValueError, match="magnitude"):
            stale_rates(scn, 3, 1)


def test_stale_rates_reject_negative_bounce_scale():
    with pytest.raises(ValueError):
        stale_rates(_co_scenario(), 2, 1, (1.0, -0.5))


# ---------------------------------------------------------------------------
# work counts: trial-invariant blocks are built once per run

def _count_gen_los(monkeypatch):
    calls = []
    gen_los = channel.gen_los

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return gen_los(*args, **kwargs)

    monkeypatch.setattr(channel, "gen_los", counted)
    return calls


@pytest.mark.parametrize("trials", [1, 7])
@pytest.mark.parametrize("experiment, scenario, links", [
    ("rank", {}, 2),
    ("rank", {"include_direct": True}, 3),
    ("coexist", {"mode": "stale_csi"}, 3),
    ("coexist", {"mode": "stale_csi", "b_direct_blocked": True}, 2),
    ("adjacent", {}, 3),
    ("rank", {"include_direct": True, "ris_ue_rician_k": 2.0}, 3),
    ("coexist", {"mode": "stale_csi", "rician_k": 2.0}, 3),
    ("adjacent", {"rician_k": 2.0}, 3),
])
def test_each_link_los_block_is_built_once_per_run(monkeypatch, experiment, scenario,
                                                   links, trials):
    # a run's `links` links build a LoS block only at a nonzero Rician
    # factor: rank's incident hop (always pure LoS) and departure hop at
    # `ris_ue_rician_k`, but never its direct link (factor 0); every
    # coexistence link at `rician_k`
    if experiment == "rank":
        built = 1 + (scenario.get("ris_ue_rician_k", 0.0) > 0.0)
    else:
        built = links if scenario.get("rician_k", 0.0) > 0.0 else 0
    calls = _count_gen_los(monkeypatch)
    run(prepare(experiment, scenario, 1, trials))
    assert len(calls) == built
    assert len(set(calls)) == built


# ---------------------------------------------------------------------------
# carrier sensing

def test_interference_ground_term_uses_the_direct_exponent():
    scn = _co_scenario()
    geom, lam = scn.geometry, scn.geometry.wavelength
    alpha_direct = scn.direct_params.path_loss_exponent
    alpha = scn.params.path_loss_exponent
    assert (alpha_direct, alpha) == (3.5, 2.0)
    _, (inter_a, inter_b) = budgets(scn, -82.0)
    # network B owns no surface: the ground path is all of it
    ground_b = path_gain(lam, geom.distance("nb_b", "ue_a"), alpha_direct)
    assert inter_a == scn.tx_power_b * ground_b
    # network A adds the incoherent bounce off its own surface
    ground_a = path_gain(lam, geom.distance("nb_a", "ue_b"), alpha_direct)
    bounce = (path_gain(lam, geom.distance("nb_a", "ris_a"), alpha) * scn.n_elements
              * path_gain(lam, geom.distance("ris_a", "ue_b"), alpha))
    assert inter_b == scn.tx_power_a * (ground_a + bounce)


def test_lbt_silence_clears():
    # so far off and so steep a reflected exponent that every sensed power
    # underflows to zero: silence clears even at a threshold of -inf
    far = (1e60, 0.0, 10.0)
    scn = _co_scenario(nb_b_position=far, ue_b_position=far[:2] + (1.5,),
                       alpha_reflected=5.5)
    assert budgets(scn, -math.inf)[0] == (True, True)


def test_lbt_defers_above_threshold():
    # the default networks sense each other at about -51 dBm
    assert budgets(_co_scenario(), -60.0)[0] == (False, False)
    assert budgets(_co_scenario(), -45.0)[0] == (True, True)


def _sensed_dbm(scn):
    """What each base station senses of the other network, in dBm, from
    the frozen per-source powers: (A's list, B's list)."""
    net_a, net_b = oracles.coex_networks(scn)
    return (oracles.sensed_sources(scn, net_a, net_b),
            oracles.sensed_sources(scn, net_b, net_a))


def _summed_dbm(powers_dbm):
    total_mw = 0.0
    for power_dbm in powers_dbm:
        total_mw += 10.0 ** (power_dbm / 10.0)
    return 10.0 * math.log10(total_mw) if total_mw > 0.0 else -math.inf


def _positions(extent):
    """Five distinct node positions inside +-extent metres, above ground."""
    point = st.tuples(st.floats(-extent, extent), st.floats(-extent, extent),
                      st.floats(0.5, extent + 0.5))
    return st.lists(point, min_size=5, max_size=5, unique=True)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
# nodes within a metre of each other: A's bounce outweighs the ground path
# at B's station and the sum sits near 0 dBm, where the dBm round trip
# keeps the last bits of each power, so a regrouped product moves the sum
# and flips the decision at this threshold
@example(positions=[(-0.535, 0.254, 0.861), (-0.143, -0.27, 1.018), (-0.279, 0.911, 0.886),
                    (-0.106, -0.911, 0.988), (0.177, -0.988, 1.051)],
         tx=(46.714235, 1.0), exponents=(2.07, 3.5), n=255, threshold="b")
@example(positions=[(-0.723, -0.88, 1.185), (-0.303, -0.609, 1.406), (-0.458, 0.06, 1.497),
                    (-0.154, 0.504, 0.747), (-0.956, 0.665, 0.645)],
         tx=(117.522638, 1.0), exponents=(2.0, 3.5), n=462, threshold="b")
@given(
    positions=st.one_of(_positions(300.0), _positions(1.0)),
    tx=st.tuples(st.floats(1e-6, 1e3), st.floats(1e-6, 1e3)),
    exponents=st.tuples(st.floats(2.0, 5.0), st.floats(2.0, 5.0)),
    n=st.integers(1, 1024),
    threshold=st.one_of(st.sampled_from(["a0", "b0", "b1", "a", "b", "a+", "b+", "a-", "b-"]),
                        st.floats(-200.0, 60.0)),
)
def test_budgets_match_the_frozen_sensing_oracle_bit_for_bit(positions, tx, exponents,
                                                            n, threshold):
    nodes = ("nb_a", "ris_a", "ue_a", "nb_b", "ue_b")
    p = {**resolve_scenario("coexist", {}), "tx_power_a": tx[0], "tx_power_b": tx[1],
         "alpha_reflected": exponents[0], "alpha_direct": exponents[1], "n_elements_a": n,
         **{f"{node}_position": pos for node, pos in zip(nodes, positions)}}
    scn = _coex_scenario(p)
    sensed = _sensed_dbm(scn)
    # a label puts the threshold exactly on one sensed power of network A's
    # or B's station, on their sum, or one float above (+) or below (-) it
    if isinstance(threshold, str):
        powers = sensed[0] if threshold[0] == "a" else sensed[1]
        label = threshold[1:]
        if label.isdigit():
            threshold = powers[int(label)]
        else:
            threshold = _summed_dbm(powers)
            if label:
                threshold = math.nextafter(threshold, math.inf if label == "+" else -math.inf)
    net_a, net_b = oracles.coex_networks(scn)
    want_clear = tuple(oracles.lbt_decide(threshold, powers) for powers in sensed)
    want_inter = (oracles.interference_power(scn, net_a, net_b),
                  oracles.interference_power(scn, net_b, net_a))
    clear, inter = budgets(scn, threshold)
    assert clear == want_clear
    assert [x.hex() for x in inter] == [x.hex() for x in want_inter]


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(oob=st.one_of(st.floats(0.0, 1e3), st.just(math.inf)),
       insertion=st.floats(0.0, 1e3), passes=st.integers(1, 10**6))
def test_filter_budget_matches_the_frozen_band_filter_bit_for_bit(oob, insertion, passes):
    filt = SimpleNamespace(per_pass_oob_attenuation_db=oob,
                           inband_insertion_loss_db=insertion, passes_on_reflection=passes)
    _, want = oracles.apply_band_filter(filt, 0.0, 0.0, reflective=True)
    assert filter_budget_db(oob, insertion, passes).hex() == want.hex()


def test_lbt_config_validation():
    with pytest.raises(ConfigError, match="scenario.backoff_slots_max"):
        resolve_scenario("coexist", {"backoff_slots_max": -1})


def test_uncontended_network_owns_the_channel():
    # the foreign operator is out of sensing range
    far = (1e6, 0.0, 10.0)
    scn = _co_scenario(nb_b_position=far, ue_b_position=(far[0] - 5.0, 8.0, 1.5))
    airtime_a, *_ = lbt_runs(scn, -72.0, 8, 2000, trials=1, seed=3)
    assert airtime_a[0] == 1.0


def test_symmetric_networks_share_fairly():
    (airtime_a,), (airtime_b,), (collisions,), *_ = lbt_runs(_co_scenario(), -60.0, 8,
                                                             100_000, trials=1, seed=3)
    assert abs(airtime_a - airtime_b) < 0.05
    # carrier sensing forms a natural TDM pattern
    assert collisions == 0.0
    assert airtime_a + airtime_b <= 1.0 + 1e-12


def test_lbt_threshold_monotonicity():
    scn = _co_scenario()
    sweep = [lbt_runs(scn, thr, 8, 5000, trials=1, seed=3)[:3]
             for thr in (-70.0, -60.0, -45.0, -40.0)]
    for lo, hi in zip(sweep, sweep[1:]):
        # airtime of A, airtime of B, collision fraction
        for lo_metric, hi_metric in zip(lo, hi):
            assert hi_metric[0] >= lo_metric[0]


def test_lbt_rejects_zero_slots():
    with pytest.raises(ValueError):
        lbt_runs(_co_scenario(), -72.0, 8, 0, trials=1, seed=1)


def test_lbt_draws_each_own_link_once(monkeypatch, seeded_streams):
    # a run draws every trial's own links in one `draw_links` call: A's
    # surface link and B's ground link, or a shadowed B's bounce with its
    # surface state from one more stream; the access draws take one more
    # stream, and the collided rate reuses the spectrum at the raised
    # noise.  A run seeds the same streams at 1 and at 5 trials
    calls = [0]
    draw_links = coexist.draw_links

    def counted(*args, **kwargs):
        calls[0] += 1
        return draw_links(*args, **kwargs)

    monkeypatch.setattr(coexist, "draw_links", counted)
    for trials in (1, 5):
        lbt_runs(_co_scenario(), -40.0, 8, 50, trials=trials, seed=5)
    assert calls == [2]
    assert seeded_streams == ["lbt/normals", "lbt/access"] * 2
    seeded_streams.clear()
    for trials in (1, 5):
        lbt_runs(_co_scenario(b_direct_blocked=True), -40.0, 8, 50, trials=trials, seed=5)
    assert calls == [4]
    assert seeded_streams == ["lbt/normals", "lbt/uniforms", "lbt/access"] * 2


# ---------------------------------------------------------------------------
# band filtering

def test_filter_reflective_double_pass():
    assert filter_budget_db(20.0, 0.0, 2) == -40.0


def test_filter_transmissive_single_pass():
    assert filter_budget_db(20.0, 0.0, 1) == -20.0


def test_filter_insertion_loss():
    assert filter_budget_db(0.0, 1.0, 2) == -2.0
    assert filter_budget_db(10.0, 1.0, 2) == -22.0


def test_filter_is_affine_in_attenuation():
    for passes in (2, 1, 3):
        outs = [filter_budget_db(atten, 0.7, passes) for atten in (5.0, 15.0, 40.0)]
        assert outs[1] - outs[0] == pytest.approx(-passes * 10.0)
        assert outs[2] - outs[1] == pytest.approx(-passes * 25.0)


def test_filter_validation():
    with pytest.raises(ConfigError, match="scenario.oob_attenuation_db"):
        resolve_scenario("adjacent", {"oob_attenuation_db": -1.0})
    with pytest.raises(ConfigError, match="scenario.filter_passes"):
        resolve_scenario("adjacent", {"filter_passes": 0})


# ---------------------------------------------------------------------------
# adjacent channel

def test_infinite_attenuation_recovers_baseline():
    scn, p = _adj_scenario()
    filtered = _column(run(prepare("adjacent", {"oob_attenuation_db": math.inf}, 5, 50)),
                       "rate_with_filter")
    _, (base,), _ = stale_rates(scn, 50, 5, (0.0,))
    assert np.max(np.abs(filtered - base)) <= 1e-9


def test_adjacent_static_bounce_is_lossless():
    scn, p = _adj_scenario(policy="static")
    unfiltered = _column(run(prepare("adjacent", {"policy": "static"}, 5, 50)), "rate_no_filter")
    fresh, stale, _ = stale_rates(scn, 50, 5)
    assert np.array_equal(unfiltered, stale[0])
    assert np.array_equal(stale, fresh)


def test_filter_dominates_under_rerandomization():
    # sharp numerology: many-antenna NB, single-antenna victim, lossy
    # ground path, so the uncontrolled bounce actually moves the channel
    scn, p = _adj_scenario(m_antennas=64, u_antennas=1, alpha_direct=3.5,
                           n_elements_a=64)
    scale = 10.0 ** (filter_budget_db(30.0, p["insertion_loss_db"], 2) / 20.0)
    _, (unfiltered, filtered), _ = stale_rates(scn, 10_000, 11, (1.0, scale))
    wins = np.mean(filtered >= unfiltered)
    assert wins >= 0.95


def test_adjacent_draws_each_trial_once(monkeypatch, seeded_streams):
    calls = []
    draw_links = coexist.draw_links

    def draw(links, count, normals, uniforms, n_uniforms):
        calls.append((count, normals, uniforms))
        return draw_links(links, count, normals, uniforms, n_uniforms)

    monkeypatch.setattr(coexist, "draw_links", draw)
    run(prepare("adjacent", {}, 1, 50))
    # both arms read one draw of each trial: the chunks cover the 50 trials
    # once, all from the run's two generators
    assert seeded_streams == ["stale/normals", "stale/uniforms"]
    assert sum(count for count, _, _ in calls) == 50
    assert len({(id(n), id(u)) for _, n, u in calls}) == 1


def test_adjacent_arms_match_separate_stale_trials():
    scn, p = _adj_scenario()
    table = run(prepare("adjacent", {}, 3, 5))
    arms = [_column(table, metric) for metric in ("rate_no_filter", "rate_with_filter",
                                                  "loss_no_filter", "loss_with_filter")]
    _, (s0,), (l0,) = stale_rates(scn, 5, 3)
    _, (s1,), (l1,) = stale_rates(scn, 5, 3, (_filter_scale(),))
    for arm, want in zip(arms, (s0, s1, l0, l1)):
        assert arm.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# scenario plumbing

def test_scenario_validation():
    scn = _co_scenario()
    with pytest.raises(ValueError):
        replace(scn, t1=5, t2=2)
    with pytest.raises(ValueError):
        replace(scn, policy="sometimes")
    # the users' receiver noise is the scenario's, not a link's
    for noise in (0.0, -1e-13, math.inf, math.nan):
        with pytest.raises(ValueError, match="noise_power"):
            replace(scn, noise_power=noise)
    # network sizes and powers are checked once, by the schema
    for field, value in (("m_antennas", 0), ("u_antennas", 0), ("tx_power_a", 0.0),
                         ("tx_power_b", 0.0), ("n_elements_a", 0)):
        with pytest.raises(ConfigError, match=f"scenario.{field}"):
            resolve_scenario("coexist", {field: value})
