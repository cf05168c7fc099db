"""Shared-reflection scheduling and the price of one shared surface state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exhaustive_phase_capacity, per_problem_phase_ascent, unit_gain_entries
from ris_sim import ris
from ris_sim.numkernel import capacity_closed_form, singular_values
from ris_sim.scheduler import compare_shared_vs_ideal
from ris_sim.seeding import complex_normal, rng_from

POWER = 1.0
NOISE = 1.0
#: sweep cap and phase grid of the ascents, where a test does not vary them
MAX_ITERS = 30
GRID = 64


def _mimo_blocks(rng, k=1, n=8, m=2, u=2):
    """Incident (K, N, M) and departure (K, U, N) blocks of K users."""
    return complex_normal(rng, (k, n, m)), complex_normal(rng, (k, u, n))


def _steering(n, k):
    return np.exp(2j * np.pi * k * np.arange(n) / n)


def _shared_caps(g, h, weights):
    """Per-user capacities of the shared ascent that
    `compare_shared_vs_ideal` runs, as a one-problem engine call from the
    heaviest user's aligned start."""
    starts = ris.aligned_phases(g, h, direct=None, gains=None)
    ((_, caps, _),) = ris.phase_ascent_batch(
        [(np.asarray(weights, dtype=float), g, h, starts[int(np.argmax(weights))])],
        POWER, NOISE, MAX_ITERS, GRID)
    return caps


def _private_capacity(g, h):
    """One user's private optimum from the frozen per-problem sweep."""
    init = ris.aligned_phases(g[None], h[None], direct=None, gains=None)[0]
    _, caps, _ = per_problem_phase_ascent(
        unit_gain_entries([1.0], g[None], h[None]), np.ones(g.shape[0]), init, POWER, NOISE,
        MAX_ITERS, ris.ASCENT_REL_TOL, GRID)
    return float(caps[0])


def _compare(g, h, weights):
    """`compare_shared_vs_ideal` on one trial of users with blocks `g`,
    `h` at the module's power, noise, sweep cap and grid."""
    (cmp,) = compare_shared_vs_ideal(g[None], h[None], weights, POWER, NOISE,
                                     MAX_ITERS, GRID)
    return cmp


def _orthogonal_pair(n):
    """Two single-antenna users whose departure vectors are exactly
    orthogonal, behind one all-ones incident column."""
    g = np.ones((2, n, 1), dtype=complex)
    h = np.stack([_steering(n, 0), _steering(n, n // 2)])[:, None, :]
    return g, h


# ---------------------------------------------------------------------------
# shared reflection state

def test_single_user_reduces_to_optimizer():
    g, h = _mimo_blocks(rng_from(101))
    caps = _shared_caps(g, h, (1.0,))
    cmp = _compare(g, h, (1.0,))
    ref = _private_capacity(g[0], h[0])
    assert abs(caps[0] - ref) <= 1e-9
    assert cmp.shared_sum == pytest.approx(ref, abs=1e-9)


def test_identical_channels_do_not_conflict():
    g, h = _mimo_blocks(rng_from(103))
    caps = _shared_caps(np.repeat(g, 2, axis=0), np.repeat(h, 2, axis=0), (1.0, 1.0))
    solo = _private_capacity(g[0], h[0])
    for cap in caps:
        assert abs(cap - solo) <= 1e-6


def test_orthogonal_users_pay_a_gap_vs_exhaustive():
    # two orthogonal departure directions cannot both be served coherently
    # by one reflection state; the coarse 4-level sweep certifies that the
    # gap is physical rather than an optimizer artifact
    g, h = _orthogonal_pair(8)
    cmp = _compare(g, h, (1.0, 1.0))
    terms = []
    for gk, hk in zip(g, h):
        a = np.zeros((8, 4), dtype=complex)
        a[:, 0] = hk[0, :] * gk[:, 0]
        terms.append((1.0, a, np.zeros(4, dtype=complex)))
    best, _, _ = exhaustive_phase_capacity(terms, 4, POWER, NOISE)
    assert cmp.shared_sum >= best - 1e-9
    assert best < cmp.ideal_sum * 0.90
    assert cmp.shared_sum < cmp.ideal_sum * 0.90


def test_orthogonal_users_strict_gap_n16():
    cmp = _compare(*_orthogonal_pair(16), (1.0, 1.0))
    assert cmp.gap_fraction > 0.08
    assert cmp.shared_sum <= cmp.ideal_sum + 1e-6


def test_user_set_validation():
    g, h = _mimo_blocks(rng_from(107))
    with pytest.raises(ValueError, match="zero dimension"):
        _compare(g[:0], h[:0], ())
    for weights in ((0.0,), (-1.0,), (float("nan"),), (float("inf"),), (1.0, 1.0), ()):
        with pytest.raises(ValueError, match="QoS weights"):
            _compare(g, h, weights)
    # the departure blocks serve 4 elements, the incident ones 8
    with pytest.raises(ValueError, match="trials, users"):
        _compare(g, h[..., :4], (1.0,))
    with pytest.raises(ValueError, match="trials, users"):
        compare_shared_vs_ideal(g, h, (1.0,), POWER, NOISE, MAX_ITERS, GRID)
    with pytest.raises(ValueError, match="non-finite"):
        _compare(g * np.nan, h, (1.0,))


# ---------------------------------------------------------------------------
# shared vs ideal

def test_gap_vanishes_for_one_user():
    cmp = _compare(*_mimo_blocks(rng_from(109)), (1.0,))
    assert cmp.gap_fraction <= 1e-6


def test_gap_vanishes_for_identical_users():
    g, h = _mimo_blocks(rng_from(113))
    cmp = _compare(np.repeat(g, 2, axis=0), np.repeat(h, 2, axis=0), (1.0, 1.0))
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

def _users(seed, k, n, shape):
    """Blocks of K users, each with a `shape` = (U, M) channel."""
    u, m = shape
    return _mimo_blocks(rng_from(seed, "multiuser-props"), k, n, m, u)


def _spy_engine(monkeypatch):
    """Record the problems of every `ris.phase_ascent_batch` call."""
    calls = []
    engine = ris.phase_ascent_batch

    def spy(problems, *args):
        calls.append(problems)
        return engine(problems, *args)

    monkeypatch.setattr(ris, "phase_ascent_batch", spy)
    return calls


def test_shared_start_is_the_heaviest_user_lowest_index_first(monkeypatch):
    calls = _spy_engine(monkeypatch)
    g, h = _users(3, 3, 6, (2, 2))
    _compare(g, h, (1.0, 2.0, 2.0))
    ((shared, *private),) = calls
    starts = ris.aligned_phases(g, h, direct=None, gains=None)
    weights, sg, sh, init = shared
    assert weights.tolist() == [1.0, 2.0, 2.0]
    assert np.array_equal(sg, g) and np.array_equal(sh, h)
    assert init.tobytes() == starts[1].tobytes()
    for i, (w, pg, ph, pinit) in enumerate(private):
        assert w.tolist() == [1.0]
        assert np.array_equal(pg, g[i:i + 1]) and np.array_equal(ph, h[i:i + 1])
        assert pinit.tobytes() == starts[i].tobytes()


def test_compare_aligns_every_user_in_one_call(monkeypatch):
    # the lead user's aligned start serves its private ascent and the
    # shared one, and every trial's starts come from one stacked call
    calls = []
    aligned = ris.aligned_phases

    def counted(g, h, direct, gains):
        calls.append(g.shape)
        return aligned(g, h, direct=direct, gains=gains)

    monkeypatch.setattr(ris, "aligned_phases", counted)
    pairs = [_users(seed, 3, 6, (2, 2)) for seed in (1, 2)]
    g, h = (np.stack(b) for b in zip(*pairs))
    compare_shared_vs_ideal(g, h, (1.0, 2.0, 1.0), POWER, NOISE, 2, 8)
    assert calls == [(2, 3, 6, 2)]


def test_compare_reuses_the_shared_schedule_bit_for_bit():
    g, h = _users(5, 3, 8, (1, 2))
    weights = (1.0, 3.0, 3.0)
    caps = _shared_caps(g, h, weights)
    cmp = _compare(g, h, weights)
    assert cmp.shared_sum == sum(float(c) for c in caps)


def test_compare_matches_the_private_optimizer_per_user():
    g, h = _users(9, 3, 8, (3, 2))
    weights = (1.0, 2.0, 1.0)
    cmp = _compare(g, h, weights)
    caps = _shared_caps(g, h, weights)
    ideal = [max(_private_capacity(gk, hk), float(cap)) for gk, hk, cap in zip(g, h, caps)]
    assert cmp.ideal_sum == sum(ideal)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 2)),
    weights=st.lists(st.sampled_from((0.5, 1.0, 2.0)), min_size=1, max_size=3),
    max_iters=st.integers(1, 4),
    grid_points=st.sampled_from((4, 8)),
    power=st.sampled_from((0.1, 1.0, 10.0)),
)
def test_multiuser_invariants(seed, n, shape, weights, max_iters, grid_points, power):
    g, h = _users(seed, len(weights), n, shape)
    # the problems compare_shared_vs_ideal hands to the engine
    starts = ris.aligned_phases(g, h, direct=None, gains=None)
    w = np.array(weights)
    problems = [(w, g, h, starts[int(np.argmax(w))])] + [
        (np.ones(1), g[i:i + 1], h[i:i + 1], starts[i]) for i in range(len(weights))
    ]
    results = ris.phase_ascent_batch(problems, power, NOISE, max_iters, grid_points)
    for _, _, trace in results:
        assert np.all(np.diff(trace) >= 0.0)
    (cmp,) = compare_shared_vs_ideal(g[None], h[None], weights, power, NOISE,
                                     max_iters, grid_points)
    assert cmp.shared_sum <= cmp.ideal_sum
    phases, caps, _ = results[0]
    assert cmp.shared_sum == sum(float(c) for c in caps)
    theta = np.exp(1j * phases)
    for gk, hk, cap in zip(g, h, caps):
        # the ascent updates channels incrementally, so only rounding differs
        want = capacity_closed_form(singular_values((hk * theta) @ gk), power, NOISE)
        assert cap == pytest.approx(want, rel=1e-9, abs=1e-12)
