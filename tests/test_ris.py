"""Reflection state, quantization, alignment, and the capacity ascent."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import best_1bit_power, per_problem_phase_ascent
from ris_sim import numkernel, ris
from ris_sim.channel import ChannelRealization
from ris_sim.ris import (
    RisPanel,
    align_phases_miso,
    composite_gain,
    effective_miso,
    optimize_phases_mimo,
    phase_ascent_batch,
    quantize_phases,
    wrap_phase,
)
from ris_sim.seeding import complex_normal, rng_from

TWO_PI = 2.0 * math.pi
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _unpack(pairs, shape):
    arr = np.asarray(pairs, dtype=float)
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(shape)


def _real_from(g, h, direct=None):
    return ChannelRealization(
        g_nb_ris=g, h_ris_ue=h, h_nb_ue=direct,
        pl_nb_ris=1.0, pl_ris_ue=1.0,
        pl_nb_ue=1.0 if direct is not None else 0.0,
    )


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
    rng = rng_from(17)
    g = complex_normal(rng, 6)
    h = complex_normal(rng, 6)
    direct = 0.4 - 0.9j
    panel = align_phases_miso(g, h, direct=direct)
    got = abs(composite_gain(g, h, panel) + direct)
    want = float(np.sum(np.abs(g * h))) + abs(direct)
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

def test_optimize_single_element_matches_alignment():
    # a direct term pins the otherwise arbitrary global phase
    rng = rng_from(29)
    g = complex_normal(rng, (1, 1))
    h = complex_normal(rng, (1, 1))
    d = complex_normal(rng, (1, 1))
    real = _real_from(g, h, direct=d)
    result = optimize_phases_mimo(real, RisPanel.uniform(1), 1.0, 1.0)
    aligned = align_phases_miso(g.reshape(-1), h.reshape(-1), direct=complex(d[0, 0]))
    diff = wrap_phase(result.panel.phases[0] - aligned.phases[0] + math.pi)
    assert abs(diff - math.pi) <= TWO_PI / 64 + 1e-9


def test_optimize_traces_are_monotone():
    for seed in range(100):
        rng = rng_from(seed, "ascent")
        real = _real_from(complex_normal(rng, (4, 2)), complex_normal(rng, (2, 4)))
        ((_, caps, trace),) = phase_ascent_batch(
            [([(1.0, real)], ris._aligned_init_phases(real))], np.ones(4), 5.0, 1.0,
            6, 1e-6, ris.DEFAULT_GRID_POINTS)
        trace = np.asarray(trace)
        assert np.all(np.diff(trace) >= -1e-12)
        assert caps[0] >= trace[0] - 1e-12
        assert caps[0] == pytest.approx(trace[-1])
        assert 1 <= len(trace) - 1 <= 6


def test_optimize_never_below_initialization():
    rng = rng_from(31)
    real = _real_from(complex_normal(rng, (8, 2)), complex_normal(rng, (2, 8)),
                      direct=complex_normal(rng, (2, 2)))
    result = optimize_phases_mimo(real, RisPanel.uniform(8), 10.0, 1.0)
    assert result.capacity >= result.trace[0] - 1e-12


def test_optimize_close_to_exhaustive_fixture():
    # instance 0 of the stored 8-level sweep; the acceptance suite runs
    # all ten
    data = json.loads((FIXTURES / "phase_opt_oracle.json").read_text())
    inst = data["instances"][0]
    g = _unpack(inst["g"], (8, 2))
    h = _unpack(inst["h"], (2, 8))
    real = _real_from(g, h)
    result = optimize_phases_mimo(real, RisPanel.uniform(8),
                                  data["total_power"], data["noise_power"])
    assert result.capacity >= 0.99 * inst["oracle_capacity"]


def test_optimize_parameter_checks():
    rng = rng_from(37)
    real = _real_from(complex_normal(rng, (2, 2)), complex_normal(rng, (2, 2)))
    args = ([([(1.0, real)], np.zeros(2))], np.ones(2), 1.0, 1.0)
    with pytest.raises(ValueError, match="max_iters"):
        phase_ascent_batch(*args, 0, 1e-6, ris.DEFAULT_GRID_POINTS)
    with pytest.raises(ValueError, match="rel_tol"):
        phase_ascent_batch(*args, 30, 0.0, ris.DEFAULT_GRID_POINTS)


# ---------------------------------------------------------------------------
# batched ascent engine

#: (U, M) channel shapes; every entry of one batch has the same one
SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2))


def _random_entry(rng, n, shape, direct, weight):
    u, m = shape
    real = ChannelRealization(
        g_nb_ris=complex_normal(rng, (n, m)),
        h_ris_ue=complex_normal(rng, (u, n)),
        h_nb_ue=complex_normal(rng, (u, m)) if direct else None,
        pl_nb_ris=float(rng.uniform(0.5, 2.0)),
        pl_ris_ue=float(rng.uniform(0.5, 2.0)),
        pl_nb_ue=float(rng.uniform(0.1, 1.0)) if direct else 0.0,
    )
    return weight, real


def _random_problems(seed, n, shape, specs):
    """`specs` holds one list of (direct, weight) per problem; every
    entry's channel is `shape` = (U, M)."""
    rng = rng_from(seed, "batch-ascent")
    problems = []
    for spec in specs:
        entries = [_random_entry(rng, n, shape, *e) for e in spec]
        problems.append((entries, rng.uniform(0.0, TWO_PI, n)))
    return problems


def _bits(phases, caps, trace):
    return (np.asarray(phases).tobytes(), np.asarray(caps).tobytes(),
            np.asarray(trace, dtype=float).tobytes())


def _assert_batch_matches_per_problem(problems, amps, power, noise,
                                      max_iters, rel_tol, grid_points):
    args = (power, noise, max_iters, rel_tol, grid_points)
    batched = phase_ascent_batch(problems, amps, *args)
    assert len(batched) == len(problems)
    for (entries, init), got in zip(problems, batched):
        want = per_problem_phase_ascent(entries, amps, init, *args)
        assert _bits(*got) == _bits(*want)
        (alone,) = phase_ascent_batch([(entries, init)], amps, *args)
        assert _bits(*alone) == _bits(*want)
    return batched


_entry_spec = st.tuples(st.booleans(), st.sampled_from((0.5, 1.0, 3.0)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    amps=st.lists(st.sampled_from((0.0, 0.3, 1.0)), min_size=1, max_size=6),
    shape=st.sampled_from(SHAPES),
    specs=st.lists(st.lists(_entry_spec, min_size=1, max_size=3),
                   min_size=1, max_size=4),
    max_iters=st.integers(1, 5),
    rel_tol=st.sampled_from((1e-9, 1e-3, 5e-2)),
    grid_points=st.integers(2, 8),
    power=st.sampled_from((0.1, 1.0, 10.0)),
)
def test_batch_matches_per_problem_sweep_bit_for_bit(
        seed, amps, shape, specs, max_iters, rel_tol, grid_points, power):
    amps = np.array(amps)
    problems = _random_problems(seed, amps.shape[0], shape, specs)
    _assert_batch_matches_per_problem(problems, amps, power, 1.0,
                                      max_iters, rel_tol, grid_points)


def test_batch_problems_stop_on_their_own():
    # the four problems settle after different sweep counts, all before
    # the cap; element 3 absorbs throughout and keeps its start phase
    specs = [[(False, 1.0), (True, 2.0), (False, 0.5)], [(False, 1.0)],
             [(True, 1.0)], [(False, 1.0)]]
    amps = np.array([1.0, 0.3, 1.0, 0.0, 1.0, 1.0])
    problems = _random_problems(1, 6, (2, 2), specs)
    out = _assert_batch_matches_per_problem(problems, amps, 1.0, 1.0, 12, 1e-6, 16)
    sweeps = [len(trace) - 1 for _, _, trace in out]
    assert len(set(sweeps)) == 4 and max(sweeps) < 12
    for (_, init), (phases, _, _) in zip(problems, out):
        assert phases[3] == wrap_phase(init)[3]


def test_batch_with_one_sweep():
    specs = [[(False, 1.0), (True, 1.0)], [(True, 2.0)]]
    problems = _random_problems(11, 5, (3, 2), specs)
    out = _assert_batch_matches_per_problem(problems, np.ones(5), 1.0, 1.0, 1, 1e-6, 8)
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
    specs = [[(False, 1.0)] * 4] + [[(False, 1.0)]] * 4
    problems = _random_problems(13, 8, (2, 2), specs)
    out = phase_ascent_batch(problems, np.ones(8), 1.0, 1.0, 3, 1e-12, 16)
    sweeps = max(len(trace) - 1 for _, _, trace in out)
    assert calls == {name: 1 + 8 * sweeps for name in calls}


def test_batch_input_checks():
    problems = _random_problems(17, 4, (2, 2), [[(False, 1.0)]])
    assert phase_ascent_batch([], np.ones(4), 1.0, 1.0, 3, 1e-6, 8) == []
    with pytest.raises(ValueError, match="element count"):
        phase_ascent_batch(problems, np.ones(5), 1.0, 1.0, 3, 1e-6, 8)
    with pytest.raises(ValueError, match="grid_points"):
        phase_ascent_batch(problems, np.ones(4), 1.0, 1.0, 3, 1e-6, 1)


def test_batch_rejects_mixed_shapes():
    # across problems and within one problem alike
    square = _random_problems(19, 4, (2, 2), [[(False, 1.0)]])
    ((entries, init),) = square
    for other in ((1, 2), (2, 1), (3, 2)):
        mixed = _random_problems(23, 4, other, [[(True, 1.0)]])
        for problems in (square + mixed, [(entries + mixed[0][0], init)]):
            with pytest.raises(ValueError, match="shape"):
                phase_ascent_batch(problems, np.ones(4), 1.0, 1.0, 3, 1e-6, 8)


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


def test_effective_miso_scalar_consistency():
    rng = rng_from(53)
    g = complex_normal(rng, (5, 1))
    h = complex_normal(rng, (1, 5))
    real = _real_from(g, h)
    g_eff, h_eff, d_eff = effective_miso(real)
    assert d_eff == 0j
    total = abs(np.sum(np.abs(g_eff * h_eff))) ** 2
    aligned = align_phases_miso(g.reshape(-1), h.reshape(-1))
    direct_power = abs(composite_gain(g.reshape(-1), h.reshape(-1), aligned)) ** 2
    assert total == pytest.approx(direct_power, rel=1e-9)
