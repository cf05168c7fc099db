"""Reflection state, quantization, alignment, and the capacity ascent."""

import json
import math
import pathlib

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    aligned_start,
    best_1bit_power,
    per_problem_phase_ascent,
    unit_gain_entries,
)
from ris_sim import coexist, numkernel, ris
from ris_sim.channel import ChannelRealization, assemble_effective
from ris_sim.experiments import run_coexist, run_multiuser
from ris_sim.ris import (
    ASCENT_REL_TOL,
    RisPanel,
    align_phases_miso,
    aligned_phases,
    composite_gain,
    phase_ascent_batch,
    quantize_phases,
    wrap_phase,
)
from ris_sim.seeding import complex_normal, rng_from

TWO_PI = 2.0 * math.pi
ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

#: phase grid of the single-user capacity ascents below
GRID = 64


def _unpack(pairs, shape):
    arr = np.asarray(pairs, dtype=float)
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(shape)


# ---------------------------------------------------------------------------
# panel state

def test_wrap_phase_range():
    assert wrap_phase(-math.pi / 2) == pytest.approx(3 * math.pi / 2)
    assert wrap_phase(TWO_PI + 0.25) == pytest.approx(0.25)
    assert 0.0 <= wrap_phase(TWO_PI) < TWO_PI


def test_theta_identity_reflection():
    panel = RisPanel.uniform(4)
    diag = panel.theta_diagonal()
    assert np.array_equal(diag, np.ones(4, dtype=complex))
    assert np.array_equal(np.diag(diag), np.eye(4, dtype=complex))


def test_theta_absorbing_surface():
    panel = RisPanel(np.zeros(3), np.zeros(3))
    assert np.array_equal(panel.theta_diagonal(), np.zeros(3, dtype=complex))


def test_theta_direct_formula():
    panel = RisPanel(np.array([0.5]), np.array([math.pi]))
    assert panel.theta_diagonal()[0] == pytest.approx(-0.5, abs=1e-15)


def test_panel_validation():
    with pytest.raises(ValueError):
        RisPanel(np.array([1.2]), np.array([0.0]))
    with pytest.raises(ValueError):
        RisPanel(np.array([-0.1]), np.array([0.0]))
    with pytest.raises(ValueError):
        RisPanel(np.array([1.0]), np.array([TWO_PI]))
    with pytest.raises(ValueError):
        RisPanel(np.ones(2), np.zeros(3))
    with pytest.raises(ValueError):
        RisPanel(np.ones(0), np.zeros(0))
    with pytest.raises(ValueError):
        RisPanel(np.ones(2), np.array([0.0, 0.3]), quantization_bits=1)


# ---------------------------------------------------------------------------
# quantization

def test_quantize_one_bit_examples():
    panel = RisPanel(np.ones(2), np.array([0.1, math.pi - 0.1]))
    q = quantize_phases(panel, 1)
    assert q.phases[0] == 0.0
    assert q.phases[1] == math.pi
    assert q.quantization_bits == 1
    assert np.array_equal(q.amplitudes, panel.amplitudes)


def test_quantize_tie_goes_to_smaller_index():
    # pi/4 sits exactly between levels 0 and pi/2 of the 2-bit grid;
    # pi/2 sits exactly between the two 1-bit levels
    q2 = quantize_phases(RisPanel(np.ones(1), np.array([math.pi / 4])), 2)
    assert q2.phases[0] == 0.0
    q1 = quantize_phases(RisPanel(np.ones(1), np.array([math.pi / 2])), 1)
    assert q1.phases[0] == 0.0


def test_quantize_two_bit_grid_sweep():
    grid = TWO_PI * np.arange(360) / 360.0
    panel = RisPanel(np.ones(360), grid)
    q = quantize_phases(panel, 2)
    err = np.abs(wrap_phase(q.phases - grid + math.pi) - math.pi)
    assert np.max(err) <= math.pi / 4 + 1e-12
    step = TWO_PI / 4
    assert np.all(np.isin(np.round(q.phases / step), [0, 1, 2, 3]))
    assert np.allclose(np.round(q.phases / step) * step, q.phases)


def test_quantize_rejects_zero_bits():
    with pytest.raises(ValueError):
        quantize_phases(RisPanel.uniform(2), 0)


# ---------------------------------------------------------------------------
# miso alignment

def test_align_all_ones_square_law():
    g = np.ones(16, dtype=complex)
    h = np.ones(16, dtype=complex)
    panel = align_phases_miso(g, h)
    power = abs(composite_gain(g, h, panel)) ** 2
    assert power == pytest.approx(256.0, rel=1e-12)


def test_align_single_element_formula():
    g = np.array([np.exp(1j * math.pi / 6)])
    h = np.array([np.exp(1j * math.pi / 3)])
    panel = align_phases_miso(g, h)
    assert panel.phases[0] == pytest.approx(3 * math.pi / 2, abs=1e-12)
    assert abs(composite_gain(g, h, panel)) == pytest.approx(1.0, rel=1e-12)


def test_align_with_direct_term():
    # one antenna at each end makes u and v unit phases, so the aligned
    # reflection adds to the direct term coherently, path gains included
    rng = rng_from(17)
    g = complex_normal(rng, (6, 1))
    h = complex_normal(rng, (1, 6))
    real = ChannelRealization(g_nb_ris=g, h_ris_ue=h, h_nb_ue=np.array([[0.4 - 0.9j]]),
                              pl_nb_ris=0.5, pl_ris_ue=2.0, pl_nb_ue=0.3)
    phases = aligned_phases(g[None], h[None], direct=real.h_nb_ue[None], gains=real)
    got = abs(assemble_effective(real, np.exp(1j * phases[0]))[0, 0])
    want = float(np.sum(np.abs(g[:, 0] * h[0]))) + math.sqrt(0.3) * abs(0.4 - 0.9j)
    assert got == pytest.approx(want, rel=1e-12)


def test_align_one_bit_matches_exhaustive():
    rng = rng_from(0)
    g = complex_normal(rng, 4)
    h = complex_normal(rng, 4)
    panel = quantize_phases(align_phases_miso(g, h), 1)
    power = abs(composite_gain(g, h, panel)) ** 2
    best = best_1bit_power(g, h)
    assert power == pytest.approx(best, rel=1e-12)


def test_align_input_checks():
    with pytest.raises(ValueError):
        align_phases_miso(np.ones(0), np.ones(0))
    with pytest.raises(ValueError):
        align_phases_miso(np.ones(3), np.ones(4))


def test_composite_gain_size_check():
    with pytest.raises(ValueError):
        composite_gain(np.ones(3), np.ones(3), RisPanel.uniform(4))


# ---------------------------------------------------------------------------
# capacity ascent

def _single_user_ascent(g, h, total_power, noise_power, max_iters=30):
    """(phases, capacity, trace) of the single-user capacity ascent: one
    engine problem from the aligned-MISO start."""
    init = aligned_phases(g, h, direct=None, gains=None)
    ((phases, caps, trace),) = phase_ascent_batch(
        [(np.ones(1), g[None], h[None], init)], total_power, noise_power, max_iters, GRID)
    return phases, float(caps[0]), trace


def test_optimize_two_elements_match_alignment():
    # only the relative phase matters without a direct term: from a start
    # a quarter turn off it, the ascent lands within one grid step of the
    # aligned relative phase
    rng = rng_from(29)
    g = complex_normal(rng, (2, 1))
    h = complex_normal(rng, (1, 2))
    aligned = align_phases_miso(g, h).phases
    init = wrap_phase(aligned + np.array([0.0, math.pi / 2]))
    ((phases, _, _),) = phase_ascent_batch(
        [(np.ones(1), g[None], h[None], init)], 1.0, 1.0, 30, GRID)
    diff = wrap_phase(phases[0] - phases[1] - (aligned[0] - aligned[1]) + math.pi)
    assert abs(diff - math.pi) <= TWO_PI / GRID + 1e-9


def test_optimize_traces_are_monotone():
    for seed in range(100):
        rng = rng_from(seed, "ascent")
        g, h = complex_normal(rng, (4, 2)), complex_normal(rng, (2, 4))
        _, capacity, trace = _single_user_ascent(g, h, 5.0, 1.0, max_iters=6)
        trace = np.asarray(trace)
        assert np.all(np.diff(trace) >= -1e-12)
        assert capacity >= trace[0] - 1e-12
        assert capacity == pytest.approx(trace[-1])
        assert 1 <= len(trace) - 1 <= 6


def test_optimize_never_below_initialization():
    rng = rng_from(31)
    g, h = complex_normal(rng, (8, 2)), complex_normal(rng, (2, 8))
    _, capacity, trace = _single_user_ascent(g, h, 10.0, 1.0)
    assert capacity >= trace[0] - 1e-12


def test_optimize_close_to_exhaustive_fixture():
    # instance 0 of the stored 8-level sweep; the acceptance suite runs
    # all ten
    data = json.loads((FIXTURES / "phase_opt_oracle.json").read_text())
    inst = data["instances"][0]
    g = _unpack(inst["g"], (8, 2))
    h = _unpack(inst["h"], (2, 8))
    _, capacity, _ = _single_user_ascent(g, h, data["total_power"], data["noise_power"])
    assert capacity >= 0.99 * inst["oracle_capacity"]


def test_optimize_parameter_checks():
    rng = rng_from(37)
    problem = (np.ones(1), complex_normal(rng, (1, 2, 2)), complex_normal(rng, (1, 2, 2)),
               np.zeros(2))
    with pytest.raises(ValueError, match="max_iters"):
        phase_ascent_batch([problem], 1.0, 1.0, 0, GRID)


# ---------------------------------------------------------------------------
# aligned start on stacks

def _spy_aligned(monkeypatch, module):
    """Record every `aligned_phases` call made through `module`."""
    calls = []
    aligned = ris.aligned_phases

    def spy(g, h, direct, gains):
        out = aligned(g, h, direct=direct, gains=gains)
        calls.append((g, h, direct, gains, out))
        return out

    monkeypatch.setattr(module, "aligned_phases", spy)
    return calls


_SHIPPED_MULTIUSER = yaml.safe_load((ROOT / "configs" / "multiuser.yaml").read_text())
_WORKLOAD = {"n_users": 4, "m_antennas": 2, "u_antennas": 2, "n_elements": 32,
             "qos_weights": [1.0, 0.8, 0.6, 0.4], "max_iters": 4}


@pytest.mark.parametrize("scenario, seed, trials", [
    pytest.param(_SHIPPED_MULTIUSER["scenario"], _SHIPPED_MULTIUSER["seed"],
                 _SHIPPED_MULTIUSER["trials"], id="shipped"),
    pytest.param(_WORKLOAD, 5, 6, id="benchmark"),
    pytest.param({"n_users": 2, "m_antennas": 3, "u_antennas": 4, "n_elements": 8,
                  "max_iters": 1}, 11, 3, id="non_square"),
])
def test_stacked_start_matches_the_per_realization_route_bit_for_bit(
        monkeypatch, scenario, seed, trials):
    calls = _spy_aligned(monkeypatch, ris)
    run_multiuser(scenario, seed, trials)
    ((g, h, direct, gains, out),) = calls
    assert direct is None and gains is None
    assert out.shape == g.shape[:2] + (g.shape[2],) == (trials, scenario["n_users"],
                                                         scenario["n_elements"])
    for t, i in np.ndindex(*out.shape[:2]):
        real = ChannelRealization(g_nb_ris=g[t, i], h_ris_ue=h[t, i], h_nb_ue=None,
                                  pl_nb_ris=1.0, pl_ris_ue=1.0, pl_nb_ue=0.0)
        assert out[t, i].tobytes() == aligned_start(real).tobytes()


def test_lbt_owned_start_matches_the_per_realization_route_bit_for_bit(monkeypatch):
    calls = _spy_aligned(monkeypatch, coexist)
    run_coexist({"mode": "lbt", "slots": 5}, seed=5, trials=2)
    assert len(calls) == 2
    for g, h, direct, link, out in calls:
        assert direct is not None
        assert 1.0 not in (link.pl_nb_ris, link.pl_ris_ue, link.pl_nb_ue)
        real = ChannelRealization(g_nb_ris=g[0], h_ris_ue=h[0], h_nb_ue=direct[0],
                                  pl_nb_ris=link.pl_nb_ris, pl_ris_ue=link.pl_ris_ue,
                                  pl_nb_ue=link.pl_nb_ue)
        assert out.shape == (1, g.shape[1])
        assert out[0].tobytes() == aligned_start(real).tobytes()


def test_aligned_phases_reach_the_coherent_sum():
    # a rank-one link collapses to its MISO coefficients exactly, so every
    # link of the stack reaches the coherent sum of its element gains
    rng = rng_from(53)
    g = complex_normal(rng, (3, 5, 1))
    h = complex_normal(rng, (3, 1, 5))
    theta = np.exp(1j * aligned_phases(g, h, direct=None, gains=None))
    got = np.abs(np.sum(h[:, 0, :] * theta * g[:, :, 0], axis=1))
    want = np.sum(np.abs(g[:, :, 0] * h[:, 0, :]), axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# batched ascent engine

#: (U, M) channel shapes; every entry of one batch has the same one
SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2))


def _random_problems(seed, n, shape, specs):
    """`specs` holds one list of entry weights per problem; every entry's
    channel is `shape` = (U, M)."""
    rng = rng_from(seed, "batch-ascent")
    u, m = shape
    problems = []
    for weights in specs:
        blocks = [(complex_normal(rng, (n, m)), complex_normal(rng, (u, n))) for _ in weights]
        g, h = (np.stack(b) for b in zip(*blocks))
        problems.append((np.array(weights), g, h, rng.uniform(0.0, TWO_PI, n)))
    return problems


def _bits(phases, caps, trace):
    return (np.asarray(phases).tobytes(), np.asarray(caps).tobytes(),
            np.asarray(trace, dtype=float).tobytes())


def _assert_batch_matches_per_problem(problems, power, noise, max_iters, grid_points):
    args = (power, noise, max_iters, grid_points)
    batched = phase_ascent_batch(problems, *args)
    assert len(batched) == len(problems)
    for (weights, g, h, init), got in zip(problems, batched):
        want = per_problem_phase_ascent(
            unit_gain_entries(weights, g, h), np.ones(init.shape[0]), init, power, noise,
            max_iters, ASCENT_REL_TOL, grid_points)
        assert _bits(*got) == _bits(*want)
        (alone,) = phase_ascent_batch([(weights, g, h, init)], *args)
        assert _bits(*alone) == _bits(*want)
    return batched


_weights = st.lists(st.sampled_from((0.5, 1.0, 3.0)), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    shape=st.sampled_from(SHAPES),
    specs=st.lists(_weights, min_size=1, max_size=4),
    max_iters=st.integers(1, 5),
    grid_points=st.integers(2, 8),
    power=st.sampled_from((0.1, 1.0, 10.0)),
)
def test_batch_matches_per_problem_sweep_bit_for_bit(
        seed, n, shape, specs, max_iters, grid_points, power):
    problems = _random_problems(seed, n, shape, specs)
    _assert_batch_matches_per_problem(problems, power, 1.0, max_iters, grid_points)


def test_batch_problems_stop_on_their_own():
    # the four problems settle after different sweep counts, all before
    # the cap
    specs = [[1.0, 2.0, 0.5], [1.0], [1.0], [1.0]]
    problems = _random_problems(34, 6, (2, 2), specs)
    out = _assert_batch_matches_per_problem(problems, 1.0, 1.0, 12, 16)
    sweeps = [len(trace) - 1 for _, _, trace in out]
    assert len(set(sweeps)) == 4 and max(sweeps) < 12


def test_batch_with_one_sweep():
    problems = _random_problems(11, 5, (3, 2), [[1.0, 1.0], [2.0]])
    out = _assert_batch_matches_per_problem(problems, 1.0, 1.0, 1, 8)
    assert [len(trace) for _, _, trace in out] == [2, 2]


def test_batch_costs_one_capacity_call_per_element(monkeypatch):
    calls = {"stack_singular_values": 0, "capacity_closed_form": 0}

    def counted(name):
        real = getattr(numkernel, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(ris.numkernel, name, counted(name))
    specs = [[1.0] * 4] + [[1.0]] * 4
    problems = _random_problems(13, 8, (2, 2), specs)
    out = phase_ascent_batch(problems, 1.0, 1.0, 3, 16)
    sweeps = max(len(trace) - 1 for _, _, trace in out)
    assert calls == {name: 1 + 8 * sweeps for name in calls}


def test_batch_input_checks():
    ((weights, g, h, init),) = _random_problems(17, 4, (2, 2), [[1.0]])
    assert phase_ascent_batch([], 1.0, 1.0, 3, 8) == []
    with pytest.raises(ValueError, match="element count"):
        phase_ascent_batch([(weights, g, h, np.zeros(5))], 1.0, 1.0, 3, 8)
    with pytest.raises(ValueError, match="per entry"):
        phase_ascent_batch([(np.ones(2), g, h, init)], 1.0, 1.0, 3, 8)
    with pytest.raises(ValueError, match="grid_points"):
        phase_ascent_batch([(weights, g, h, init)], 1.0, 1.0, 3, 1)


def test_batch_rejects_mixed_shapes():
    # a problem's blocks are one array each, so only problems can disagree
    square = _random_problems(19, 4, (2, 2), [[1.0]])
    for other in ((1, 2), (2, 1), (3, 2)):
        mixed = _random_problems(23, 4, other, [[1.0]])
        with pytest.raises(ValueError, match="shape"):
            phase_ascent_batch(square + mixed, 1.0, 1.0, 3, 8)


# ---------------------------------------------------------------------------
# element blocks

def test_partition_single_block_gain_fraction():
    g = np.ones(64, dtype=complex)
    h = np.ones(64, dtype=complex)
    whole = abs(composite_gain(g, h, align_phases_miso(g, h))) ** 2
    lo, hi = 0, 16
    amp = np.zeros(64)
    amp[lo:hi] = 1.0
    block_only = RisPanel(amp, np.zeros(64))
    block = abs(composite_gain(g, h, block_only)) ** 2
    assert whole == pytest.approx(4096.0)
    assert block == pytest.approx(whole / 16.0)


# ---------------------------------------------------------------------------
# invariants

def test_passivity_everywhere():
    rng = rng_from(41)
    g = complex_normal(rng, 8)
    h = complex_normal(rng, 8)
    for panel in (
        RisPanel.uniform(8),
        align_phases_miso(g, h),
        quantize_phases(align_phases_miso(g, h), 2),
        # elements 6 and 7 absorb
        RisPanel(np.r_[np.ones(6), np.zeros(2)], np.zeros(8)),
    ):
        assert np.all(np.abs(panel.theta_diagonal()) <= 1.0 + 1e-12)


def test_square_law_across_sizes():
    rng = rng_from(43)
    for n in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        g = np.exp(1j * rng.uniform(0, TWO_PI, n))
        h = np.exp(1j * rng.uniform(0, TWO_PI, n))
        panel = align_phases_miso(g, h)
        power = abs(composite_gain(g, h, panel)) ** 2
        assert abs(power - n * n) <= 1e-9 * n * n


def test_whole_panel_beats_blocks():
    rng = rng_from(47)
    for _ in range(10):
        g = complex_normal(rng, 32)
        h = complex_normal(rng, 32)
        aligned = align_phases_miso(g, h)
        whole = abs(composite_gain(g, h, aligned)) ** 2
        for lo, hi in ((0, 16), (16, 24)):
            amp = np.zeros(32)
            amp[lo:hi] = 1.0
            block = abs(composite_gain(g, h, RisPanel(amp, aligned.phases))) ** 2
            assert whole >= block - 1e-9


def test_one_bit_loss_matches_mc_oracle(quantization_ratio_pair):
    sim_ratio, oracle_ratio = quantization_ratio_pair
    assert abs(sim_ratio - oracle_ratio) <= 0.02
