"""Two-operator coexistence: stale CSI, LBT access, band filtering."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ris_sim import channel, coexist
from ris_sim.channel import ChannelParams, Geometry, path_gain
from ris_sim.coexist import (
    STALE_CHUNK,
    UPDATE_POLICIES,
    BandFilter,
    _interference_power,
    CoexNetwork,
    CoexScenario,
    LbtConfig,
    adjacent_rates,
    apply_band_filter,
    lbt_decide,
    run_lbt_sim,
    stale_rates,
)
from ris_sim.experiments import (
    _coex_scenario,
    resolve_scenario,
    run_adjacent,
    run_coexist,
    run_rank,
)


def _co_scenario(policy="rerandomize_each_slot", **overrides):
    p = resolve_scenario("coexist", {})
    p.update(overrides)
    scn = _coex_scenario(p, same_frequency=True)
    return replace(scn, ris_update_policy=policy)


def _adj_scenario(**overrides):
    p = resolve_scenario("adjacent", {})
    p.update(overrides)
    return _coex_scenario(p, same_frequency=False), p


def _two_plain_networks(nb_b_x=100.0, same_frequency=True):
    geom = Geometry(wavelength=0.1, positions={
        "nb_a": (0.0, 0.0, 10.0), "ue_a": (5.0, 8.0, 1.5),
        "nb_b": (nb_b_x, 0.0, 10.0), "ue_b": (nb_b_x - 5.0, 8.0, 1.5),
    })
    params = ChannelParams(rician_k=0.0, path_loss_exponent=2.0,
                           noise_power=1e-13)
    return CoexScenario(
        geometry=geom, params=params,
        net_a=CoexNetwork("A", "nb_a", "ue_a", 2, 2, 1.0),
        net_b=CoexNetwork("B", "nb_b", "ue_b", 2, 2, 1.0),
        same_frequency=same_frequency,
    )


# ---------------------------------------------------------------------------
# stale CSI

def test_static_policy_loses_nothing():
    fresh, stale, loss = stale_rates(_co_scenario("static"), range(200), 7)
    assert np.all(loss == 0.0)
    assert np.array_equal(fresh, stale)


def test_frozen_policy_loses_nothing():
    # TDM granted to B: A freezes its surface during the foreign slot
    fresh, stale, loss = stale_rates(_co_scenario("frozen_during_foreign_slot"), range(200), 7)
    assert np.all(loss == 0.0)
    assert np.array_equal(fresh, stale)


def test_same_slot_measurement_loses_nothing():
    scn = replace(_co_scenario(), t1=3, t2=3)
    _, _, loss = stale_rates(scn, range(50), 7)
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
    a = np.stack(stale_rates(scn, (5,), 11))
    b = np.stack(stale_rates(scn, (5,), 11))
    assert a.tobytes() == b.tobytes()


def test_static_beats_rerandomization_paired():
    # shadowed victim served only through A's surface, 1000 paired draws;
    # no trial's value depends on the others, so one call per policy pairs them
    scn_re = _co_scenario(m_antennas=8, u_antennas=1, b_direct_blocked=True)
    scn_st = replace(scn_re, ris_update_policy="static")
    _, (r_re,), _ = stale_rates(scn_re, range(1000), 2024)
    _, (r_st,), _ = stale_rates(scn_st, range(1000), 2024)
    assert np.mean(r_st >= r_re) >= 0.95


# ---------------------------------------------------------------------------
# stacked stale-CSI path against the frozen per-trial evaluation

def _filter_scale():
    p = resolve_scenario("adjacent", {})
    filt = BandFilter(per_pass_oob_attenuation_db=p["oob_attenuation_db"],
                      inband_insertion_loss_db=p["insertion_loss_db"],
                      passes_on_reflection=p["filter_passes"])
    return 10.0 ** (apply_band_filter(filt, 0.0, 0.0, True).oob_out_dbm / 20.0)


def _oracle_rates(scn, trial_ids, seed, scales):
    out = np.empty((3, len(scales), len(trial_ids)))
    for i, t in enumerate(trial_ids):
        draws = oracles.per_trial_stale_draws(scn, t, seed)
        for a, scale in enumerate(scales):
            out[:, a, i] = oracles.per_trial_stale_rates(scn, draws, scale)
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
# one trial of 1x1 blocks with no direct link: every array has size one, and
# numpy rounds a product there alike only if both operands have the same ndim
@example(seed=0, policy="static", same_slot=False, blocked=True, k=math.inf,
         dims=(2, 1, 1), chunk=1, trial_ids=[2])
@example(seed=5, policy="rerandomize_each_slot", same_slot=False, blocked=True,
         k=0.0, dims=(1, 1, 1), chunk=1, trial_ids=[0, 1, 2])
@given(
    seed=st.integers(0, 2**32 - 1),
    policy=st.sampled_from(UPDATE_POLICIES),
    same_slot=st.booleans(),
    blocked=st.booleans(),
    k=st.sampled_from([0.0, 3.0, math.inf]),
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.sampled_from([1, 4, 9])),
    chunk=st.integers(1, 4),
    trial_ids=st.lists(st.integers(0, 10**6), min_size=1, max_size=9),
)
def test_stacked_rates_match_per_trial_oracle_bit_for_bit(
        seed, policy, same_slot, blocked, k, dims, chunk, trial_ids):
    m, u, n = dims
    scn = _co_scenario(policy, m_antennas=m, u_antennas=u, n_elements_a=n,
                       rician_k=k, b_direct_blocked=blocked,
                       t1=2, t2=2 if same_slot else 5)
    scales = (1.0, 0.0, _filter_scale())
    # a small chunk puts the trial count below, at and across its size
    with mock.patch.object(coexist, "STALE_CHUNK", chunk):
        got = np.stack(stale_rates(scn, trial_ids, seed, scales))
    want = _oracle_rates(scn, trial_ids, seed, scales)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("trials", [STALE_CHUNK - 1, STALE_CHUNK, STALE_CHUNK + 1])
def test_stacked_rates_match_oracle_around_the_chunk_size(trials):
    scn = _co_scenario(n_elements_a=16)
    got = np.stack(stale_rates(scn, range(trials), 31, (1.0, _filter_scale())))
    want = _oracle_rates(scn, range(trials), 31, (1.0, _filter_scale()))
    assert got.tobytes() == want.tobytes()


def test_trial_grouping_cannot_change_a_bit():
    scn = _co_scenario(n_elements_a=8)
    ids = list(range(2 * STALE_CHUNK + 5))
    whole = np.stack(stale_rates(scn, ids, 4))
    for lo, hi in ((0, 1), (3, STALE_CHUNK + 2), (STALE_CHUNK - 1, len(ids))):
        part = np.stack(stale_rates(scn, ids[lo:hi], 4))
        assert part.tobytes() == whole[:, :, lo:hi].tobytes()
    backwards = np.stack(stale_rates(scn, ids[::-1], 4))
    assert backwards.tobytes() == whole[:, :, ::-1].tobytes()


def test_stale_rates_wrappers_agree():
    # a one-scale call and a one-trial call at the default scale read the
    # rows and columns of a wider call bit for bit
    scn = _co_scenario()
    both = np.stack(stale_rates(scn, range(6), 9, (0.5, 1.0)))
    half = np.stack(stale_rates(scn, range(6), 9, (0.5,)))
    assert half.tobytes() == both[:, :1].tobytes()
    one = np.stack(stale_rates(scn, (4,), 9))
    assert one.tobytes() == both[:, 1:, 4:5].tobytes()


def test_stale_rates_reject_active_foreign_surface():
    scn = _co_scenario()
    with mock.patch.object(coexist, "_foreign_state",
                           lambda rng, n: np.full(n, 1.0 + 1e-9 + 0j)):
        with pytest.raises(ValueError, match="magnitude"):
            stale_rates(scn, range(3), 1)


def test_stale_rates_reject_negative_bounce_scale():
    with pytest.raises(ValueError):
        stale_rates(_co_scenario(), range(2), 1, (1.0, -0.5))


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
@pytest.mark.parametrize("runner, scenario, links", [
    (run_rank, {}, 2),
    (run_rank, {"include_direct": True}, 3),
    (run_coexist, {"mode": "stale_csi"}, 3),
    (run_coexist, {"mode": "stale_csi", "b_direct_blocked": True}, 2),
    (run_adjacent, {}, 3),
])
def test_each_link_los_block_is_built_once_per_run(monkeypatch, runner, scenario,
                                                   links, trials):
    calls = _count_gen_los(monkeypatch)
    runner(scenario, 1, trials)
    assert len(calls) == links
    assert len(set(calls)) == links


# ---------------------------------------------------------------------------
# carrier sensing

def test_interference_ground_term_uses_the_direct_exponent():
    scn = _co_scenario()
    geom, lam = scn.geometry, scn.geometry.wavelength
    alpha_direct = scn.direct_params.path_loss_exponent
    alpha = scn.params.path_loss_exponent
    assert (alpha_direct, alpha) == (3.5, 2.0)
    # network B owns no surface: the ground path is all of it
    ground_b = path_gain(lam, geom.distance("nb_b", "ue_a"), alpha_direct)
    assert _interference_power(scn, scn.net_a, scn.net_b) == scn.net_b.tx_power * ground_b
    # network A adds the incoherent bounce off its own surface
    ground_a = path_gain(lam, geom.distance("nb_a", "ue_b"), alpha_direct)
    bounce = (path_gain(lam, geom.distance("nb_a", "ris_a"), alpha) * scn.net_a.n_elements
              * path_gain(lam, geom.distance("ris_a", "ue_b"), alpha))
    assert (_interference_power(scn, scn.net_b, scn.net_a)
            == scn.net_a.tx_power * (ground_a + bounce))


def test_lbt_silence_clears():
    cfg = LbtConfig(sense_threshold_dbm=-72.0)
    assert lbt_decide(cfg, []) is True


def test_lbt_defers_above_threshold():
    cfg = LbtConfig(sense_threshold_dbm=-72.0)
    assert lbt_decide(cfg, [-60.0]) is False


def test_lbt_config_validation():
    with pytest.raises(ValueError):
        LbtConfig(sense_threshold_dbm=-72.0, backoff_slots_max=-1)


def test_uncontended_network_owns_the_channel():
    # the foreign operator is both out of band and out of sensing range
    scn = _two_plain_networks(nb_b_x=1e6, same_frequency=False)
    res = run_lbt_sim(scn, LbtConfig(sense_threshold_dbm=-72.0), 2000, seed=3)
    assert res.airtime_a == 1.0
    assert res.collision_fraction == 0.0


def test_symmetric_networks_share_fairly():
    scn = _two_plain_networks()
    res = run_lbt_sim(scn, LbtConfig(sense_threshold_dbm=-60.0), 100_000, seed=3)
    assert abs(res.airtime_a - res.airtime_b) < 0.05
    # carrier sensing forms a natural TDM pattern
    assert res.collision_fraction == 0.0
    assert res.airtime_a + res.airtime_b <= 1.0 + 1e-12


def test_lbt_threshold_monotonicity():
    scn = _two_plain_networks()
    sweep = [run_lbt_sim(scn, LbtConfig(sense_threshold_dbm=thr), 5000, seed=3)
             for thr in (-70.0, -60.0, -45.0, -40.0)]
    for lo, hi in zip(sweep, sweep[1:]):
        assert hi.airtime_a >= lo.airtime_a
        assert hi.airtime_b >= lo.airtime_b
        assert hi.collision_fraction >= lo.collision_fraction


def test_lbt_rejects_zero_slots():
    with pytest.raises(ValueError):
        run_lbt_sim(_two_plain_networks(), LbtConfig(sense_threshold_dbm=-72.0),
                    0, seed=1)


def test_lbt_draws_each_own_link_once(monkeypatch):
    # A's surface link is a drawn realization, B's ground link one Rician
    # block; the collided rate reuses the spectrum at the raised noise
    calls = {"draw_realization": 0, "gen_rician": 0}
    for name in calls:
        fn = getattr(coexist, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(coexist, name, counted)
    run_lbt_sim(_co_scenario(), LbtConfig(sense_threshold_dbm=-40.0), 50, seed=5)
    assert calls == {"draw_realization": 1, "gen_rician": 1}


# ---------------------------------------------------------------------------
# band filtering

def test_filter_reflective_double_pass():
    filt = BandFilter(per_pass_oob_attenuation_db=20.0)
    out = apply_band_filter(filt, 0.0, 0.0, reflective=True)
    assert out.oob_out_dbm == -40.0
    assert out.inband_out_dbm == 0.0


def test_filter_transmissive_single_pass():
    filt = BandFilter(per_pass_oob_attenuation_db=20.0)
    out = apply_band_filter(filt, 0.0, 0.0, reflective=False)
    assert out.oob_out_dbm == -20.0


def test_filter_insertion_loss():
    filt = BandFilter(per_pass_oob_attenuation_db=0.0,
                      inband_insertion_loss_db=1.0)
    out = apply_band_filter(filt, 0.0, -10.0, reflective=True)
    assert out.inband_out_dbm == -2.0
    assert out.oob_out_dbm == -12.0


def test_filter_is_affine_in_attenuation():
    for passes, reflective in ((2, True), (1, False), (3, True)):
        outs = []
        for atten in (5.0, 15.0, 40.0):
            filt = BandFilter(per_pass_oob_attenuation_db=atten,
                              inband_insertion_loss_db=0.7,
                              passes_on_reflection=passes)
            outs.append(apply_band_filter(filt, 0.0, 0.0, reflective).oob_out_dbm)
        eff = passes if reflective else 1
        assert outs[1] - outs[0] == pytest.approx(-eff * 10.0)
        assert outs[2] - outs[1] == pytest.approx(-eff * 25.0)


def test_filter_validation():
    with pytest.raises(ValueError):
        BandFilter(per_pass_oob_attenuation_db=-1.0)
    with pytest.raises(ValueError):
        BandFilter(per_pass_oob_attenuation_db=1.0, passes_on_reflection=0)


# ---------------------------------------------------------------------------
# adjacent channel

def test_infinite_attenuation_recovers_baseline():
    scn, p = _adj_scenario()
    filt = BandFilter(per_pass_oob_attenuation_db=math.inf)
    _, filtered, _, _ = adjacent_rates(scn, filt, range(50), 5)
    _, (base,), _ = stale_rates(scn, range(50), 5, (0.0,))
    assert np.max(np.abs(filtered - base)) <= 1e-9


def test_adjacent_static_bounce_is_lossless():
    scn, p = _adj_scenario()
    scn = replace(scn, ris_update_policy="static")
    filt = BandFilter(per_pass_oob_attenuation_db=p["oob_attenuation_db"])
    unfiltered, _, _, _ = adjacent_rates(scn, filt, range(50), 5)
    fresh, stale, _ = stale_rates(scn, range(50), 5)
    assert np.array_equal(unfiltered, stale[0])
    assert np.array_equal(stale, fresh)


def test_filter_dominates_under_rerandomization():
    # sharp numerology: many-antenna NB, single-antenna victim, lossy
    # ground path, so the uncontrolled bounce actually moves the channel
    scn, p = _adj_scenario(m_antennas=64, u_antennas=1, alpha_direct=3.5,
                           n_elements_a=64)
    filt = BandFilter(per_pass_oob_attenuation_db=30.0,
                      inband_insertion_loss_db=p["insertion_loss_db"],
                      passes_on_reflection=2)
    unfiltered, filtered, _, _ = adjacent_rates(scn, filt, range(10_000), 11)
    wins = np.mean(filtered >= unfiltered)
    assert wins >= 0.95


def test_adjacent_draws_each_trial_once(monkeypatch):
    keyed, made, drawn = [], [], []
    link_streams, draw_stack = coexist.link_streams, coexist.draw_stack

    def keys(scenario, trials):
        keyed.append(list(trials))
        made.append(link_streams(scenario, trials))
        return made[-1]

    def draw(scenario, streams, cols):
        drawn.extend(streams.keys[1, c] for c in cols)
        return draw_stack(scenario, streams, cols)

    monkeypatch.setattr(coexist, "link_streams", keys)
    monkeypatch.setattr(coexist, "draw_stack", draw)
    run_adjacent({}, 1, 50)
    assert keyed == [list(range(50))]
    # the h stream of every trial is drawn exactly once
    assert sorted(drawn) == sorted(made[0].keys[1].tolist())
    assert len(set(drawn)) == 50


def test_adjacent_arms_match_separate_stale_trials():
    scn, p = _adj_scenario()
    filt = BandFilter(per_pass_oob_attenuation_db=p["oob_attenuation_db"],
                      inband_insertion_loss_db=p["insertion_loss_db"])
    scale = 10.0 ** (apply_band_filter(filt, 0.0, 0.0, True).oob_out_dbm / 20.0)
    for t in range(5):
        rate0, rate1, loss0, loss1 = (float(v[0]) for v in adjacent_rates(scn, filt, (t,), 3))
        _, s0, l0 = (float(v[0, 0]) for v in stale_rates(scn, (t,), 3))
        _, s1, l1 = (float(v[0, 0]) for v in stale_rates(scn, (t,), 3, (scale,)))
        assert (rate0, rate1, loss0, loss1) == (s0, s1, l0, l1)


def test_adjacent_needs_distinct_bands():
    scn = _co_scenario()
    with pytest.raises(ValueError):
        adjacent_rates(scn, BandFilter(30.0), range(10), 1)


# ---------------------------------------------------------------------------
# scenario plumbing

def test_scenario_validation():
    scn = _co_scenario()
    with pytest.raises(ValueError):
        replace(scn, t1=5, t2=2)
    with pytest.raises(ValueError):
        replace(scn, ris_update_policy="sometimes")
    with pytest.raises(ValueError):
        CoexNetwork("A", "nb_a", "ue_a", 0, 1, 1.0)
    with pytest.raises(ValueError):
        CoexNetwork("A", "nb_a", "ue_a", 1, 1, 0.0)
    with pytest.raises(ValueError):
        CoexNetwork("A", "nb_a", "ue_a", 1, 1, 1.0, ris="ris_a", n_elements=0)
