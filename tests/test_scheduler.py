"""Shared-reflection scheduling and the price of one shared surface state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exhaustive_phase_capacity
from ris_sim import ris, scheduler
from ris_sim.channel import ChannelRealization, assemble_effective
from ris_sim.numkernel import capacity_closed_form, singular_values
from ris_sim.ris import RisPanel, optimize_phases_mimo
from ris_sim.scheduler import UserContext, compare_shared_vs_ideal
from ris_sim.seeding import complex_normal, rng_from

POWER = 1.0
NOISE = 1.0


def _miso_real(h_row, pl_ris_ue=1.0):
    n = h_row.shape[0]
    return ChannelRealization(
        g_nb_ris=np.ones((n, 1), dtype=complex),
        h_ris_ue=h_row.reshape(1, n),
        h_nb_ue=None,
        pl_nb_ris=1.0, pl_ris_ue=pl_ris_ue, pl_nb_ue=0.0,
    )


def _mimo_real(rng, n=8, m=2, u=2, direct=False):
    return ChannelRealization(
        g_nb_ris=complex_normal(rng, (n, m)),
        h_ris_ue=complex_normal(rng, (u, n)),
        h_nb_ue=complex_normal(rng, (u, m)) if direct else None,
        pl_nb_ris=1.0, pl_ris_ue=1.0, pl_nb_ue=0.5 if direct else 0.0,
    )


def _steering(n, k):
    return np.exp(2j * np.pi * k * np.arange(n) / n)


def _shared_caps(users, panel):
    """Per-user capacities of the shared ascent that
    `compare_shared_vs_ideal` runs, as a one-problem engine call."""
    ((_, caps, _),) = ris.phase_ascent_batch(
        [scheduler._shared_problem(users)], panel.amplitudes, POWER, NOISE,
        30, 1e-6, ris.DEFAULT_GRID_POINTS)
    return caps


def _orthogonal_pair(n):
    """Two users whose departure vectors are exactly orthogonal."""
    r1 = _miso_real(_steering(n, 0))
    r2 = _miso_real(_steering(n, n // 2))
    return [
        UserContext(r1, 1.0),
        UserContext(r2, 1.0),
    ]


# ---------------------------------------------------------------------------
# shared reflection state

def test_single_user_reduces_to_optimizer():
    rng = rng_from(101)
    real = _mimo_real(rng)
    user = UserContext(real, 1.0)
    caps = _shared_caps([user], RisPanel.uniform(8))
    (cmp,) = compare_shared_vs_ideal([[user]], RisPanel.uniform(8), POWER, NOISE)
    ref = optimize_phases_mimo(real, RisPanel.uniform(8), POWER, NOISE)
    assert abs(caps[0] - ref.capacity) <= 1e-9
    assert cmp.shared_sum == pytest.approx(ref.capacity, abs=1e-9)


def test_identical_channels_do_not_conflict():
    rng = rng_from(103)
    real = _mimo_real(rng)
    users = [
        UserContext(real, 1.0),
        UserContext(real, 1.0),
    ]
    caps = _shared_caps(users, RisPanel.uniform(8))
    solo = optimize_phases_mimo(real, RisPanel.uniform(8), POWER, NOISE).capacity
    for cap in caps:
        assert abs(cap - solo) <= 1e-6


def test_orthogonal_users_pay_a_gap_vs_exhaustive():
    # two orthogonal departure directions cannot both be served coherently
    # by one reflection state; the coarse 4-level sweep certifies that the
    # gap is physical rather than an optimizer artifact
    users = _orthogonal_pair(8)
    (cmp,) = compare_shared_vs_ideal([users], RisPanel.uniform(8), POWER, NOISE)
    terms = []
    for u in users:
        c = u.channel.h_ris_ue[0, :] * u.channel.g_nb_ris[:, 0]
        a = np.zeros((8, 4), dtype=complex)
        a[:, 0] = c
        terms.append((1.0, a, np.zeros(4, dtype=complex)))
    best, _, _ = exhaustive_phase_capacity(terms, 4, POWER, NOISE)
    assert cmp.shared_sum >= best - 1e-9
    assert best < cmp.ideal_sum * 0.90
    assert cmp.shared_sum < cmp.ideal_sum * 0.90


def test_orthogonal_users_strict_gap_n16():
    users = _orthogonal_pair(16)
    (cmp,) = compare_shared_vs_ideal([users], RisPanel.uniform(16), POWER, NOISE)
    assert cmp.gap_fraction > 0.08
    assert cmp.shared_sum <= cmp.ideal_sum + 1e-6


def test_user_set_validation():
    rng = rng_from(107)
    real = _mimo_real(rng)
    with pytest.raises(ValueError):
        compare_shared_vs_ideal([[]], RisPanel.uniform(8), POWER, NOISE)
    with pytest.raises(ValueError):
        UserContext(real, 0.0)
    with pytest.raises(ValueError):
        compare_shared_vs_ideal([[UserContext(real, 1.0)]], RisPanel.uniform(4), POWER, NOISE)


# ---------------------------------------------------------------------------
# shared vs ideal

def test_gap_vanishes_for_one_user():
    rng = rng_from(109)
    user = UserContext(_mimo_real(rng), 1.0)
    (cmp,) = compare_shared_vs_ideal([[user]], RisPanel.uniform(8), POWER, NOISE)
    assert cmp.gap_fraction <= 1e-6


def test_gap_vanishes_for_identical_users():
    rng = rng_from(113)
    real = _mimo_real(rng)
    users = [
        UserContext(real, 1.0),
        UserContext(real, 1.0),
    ]
    (cmp,) = compare_shared_vs_ideal([users], RisPanel.uniform(8), POWER, NOISE)
    assert cmp.gap_fraction <= 1e-6


def test_four_user_gap_regression(multiuser_batch):
    # frozen on first computation; the band is +-10%
    rows = {}
    for trial, metric, value in multiuser_batch.rows:
        rows.setdefault(trial, {})[metric] = value
    assert len(rows) == 200
    gaps = [r["gap_fraction"] for r in rows.values()]
    mean_gap = float(np.mean(gaps))
    assert 0.1078719795 * 0.9 <= mean_gap <= 0.1078719795 * 1.1
    for r in rows.values():
        assert r["shared_sum"] <= r["ideal_sum"] + 1e-6


# ---------------------------------------------------------------------------
# one shared start, one engine call

def _users(seed, n, shape, specs):
    """One user per (direct, weight) spec, each with a `shape` = (U, M)
    channel."""
    rng = rng_from(seed, "multiuser-props")
    u, m = shape
    return [UserContext(_mimo_real(rng, n, m, u, direct), w) for direct, w in specs]


def test_shared_start_is_the_heaviest_user_lowest_index_first():
    users = _users(3, 6, (2, 2), [(False, 1.0), (False, 2.0), (False, 2.0)])
    entries, init = scheduler._shared_problem(users)
    assert [w for w, _ in entries] == [1.0, 2.0, 2.0]
    assert np.array_equal(init, ris._aligned_init_phases(users[1].channel))


def test_compare_reuses_the_shared_schedule_bit_for_bit():
    users = _users(5, 8, (1, 2), [(False, 1.0), (True, 3.0), (False, 3.0)])
    caps = _shared_caps(users, RisPanel.uniform(8))
    (cmp,) = compare_shared_vs_ideal([users], RisPanel.uniform(8), POWER, NOISE)
    assert cmp.shared_sum == sum(float(c) for c in caps)


def test_compare_matches_the_private_optimizer_per_user():
    users = _users(9, 8, (3, 2), [(False, 1.0), (True, 2.0), (False, 1.0)])
    (cmp,) = compare_shared_vs_ideal([users], RisPanel.uniform(8), POWER, NOISE)
    caps = _shared_caps(users, RisPanel.uniform(8))
    ideal = [
        max(optimize_phases_mimo(u.channel, RisPanel.uniform(8), POWER, NOISE).capacity,
            float(cap))
        for u, cap in zip(users, caps)
    ]
    assert cmp.ideal_sum == sum(ideal)


_user_spec = st.tuples(st.booleans(), st.sampled_from((0.5, 1.0, 2.0)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 2)),
    specs=st.lists(_user_spec, min_size=1, max_size=3),
    max_iters=st.integers(1, 4),
    grid_points=st.sampled_from((4, 8)),
    power=st.sampled_from((0.1, 1.0, 10.0)),
)
def test_multiuser_invariants(seed, n, shape, specs, max_iters, grid_points, power):
    users = _users(seed, n, shape, specs)
    panel = RisPanel.uniform(n)
    # the problems compare_shared_vs_ideal hands to the engine
    problems = [scheduler._shared_problem(users)] + [
        ([(1.0, u.channel)], ris._aligned_init_phases(u.channel)) for u in users
    ]
    results = ris.phase_ascent_batch(problems, panel.amplitudes, power, NOISE,
                                     max_iters, 1e-6, grid_points)
    for _, _, trace in results:
        assert np.all(np.diff(trace) >= 0.0)
    (cmp,) = compare_shared_vs_ideal([users], panel, power, NOISE, max_iters, grid_points)
    assert cmp.shared_sum <= cmp.ideal_sum
    phases, caps, _ = results[0]
    assert cmp.shared_sum == sum(float(c) for c in caps)
    theta = panel.amplitudes * np.exp(1j * phases)
    for u, cap in zip(users, caps):
        h = assemble_effective(u.channel, theta)
        # the ascent updates channels incrementally, so only rounding differs
        want = capacity_closed_form(singular_values(h), power, NOISE)
        assert cap == pytest.approx(want, rel=1e-9, abs=1e-12)
