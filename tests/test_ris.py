"""Reflection state, quantization, alignment, and the capacity ascent."""

import json
import math
import pathlib
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    ChannelRealization,
    RisPanel,
    aligned_start,
    best_1bit_power,
    per_problem_phase_ascent,
    unit_gain_entries,
)
from ris_sim import coexist, experiments, numkernel, ris
from ris_sim.channel import assemble_stack
from ris_sim.experiments import prepare, run
from ris_sim.ris import (
    ASCENT_REL_TOL,
    MAX_QUANTIZATION_BITS,
    align_miso,
    aligned_phases,
    miso_gains,
    phase_ascent_batch,
    quantize_phases,
    wrap_phase,
)
from ris_sim.seeding import complex_normal, rng_from

TWO_PI = 2.0 * math.pi
ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def _unpack(pairs, shape):
    arr = np.asarray(pairs, dtype=float)
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(shape)


# ---------------------------------------------------------------------------
# panel state

def test_wrap_phase_range():
    assert wrap_phase(-math.pi / 2) == pytest.approx(3 * math.pi / 2)
    assert wrap_phase(TWO_PI + 0.25) == pytest.approx(0.25)
    assert 0.0 <= wrap_phase(TWO_PI) < TWO_PI


# The frozen one-trial panel of `oracles` keeps its own checks: the array
# route is pinned against it, so it must still be the type it was.

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
    q = quantize_phases(np.array([0.1, math.pi - 0.1]), 1)
    assert q.tolist() == [0.0, math.pi]


def test_quantize_tie_goes_to_smaller_index():
    # pi/4 sits exactly between levels 0 and pi/2 of the 2-bit grid;
    # pi/2 sits exactly between the two 1-bit levels
    assert quantize_phases(np.array([math.pi / 4]), 2)[0] == 0.0
    assert quantize_phases(np.array([math.pi / 2]), 1)[0] == 0.0
    # the midpoint between the top level and 2 pi stays on the top level,
    # as in the frozen panel quantizer
    assert quantize_phases(np.array([1.5 * math.pi]), 1)[0] == math.pi
    frozen = oracles.quantize_phases(RisPanel(np.ones(1), np.array([1.5 * math.pi])), 1)
    assert frozen.phases[0] == math.pi


def test_quantize_two_bit_grid_sweep():
    grid = TWO_PI * np.arange(360) / 360.0
    q = quantize_phases(grid, 2)
    err = np.abs(wrap_phase(q - grid + math.pi) - math.pi)
    assert np.max(err) <= math.pi / 4 + 1e-12
    step = TWO_PI / 4
    assert np.all(np.isin(np.round(q / step), [0, 1, 2, 3]))
    assert np.allclose(np.round(q / step) * step, q)


def test_quantize_rejects_zero_bits():
    with pytest.raises(ValueError):
        quantize_phases(np.zeros(2), 0)
    with pytest.raises(ValueError):
        quantize_phases(np.zeros(2), MAX_QUANTIZATION_BITS + 1)


#: widest quantization the frozen panel can hold: from 52 bits on its
#: grid re-check fails on float division
PANEL_BITS = 51


def _level_index(phase, bits):
    """The quantizer's level for `phase` in exact arithmetic: the integer
    nearest x = phase / step as the float division gives it, ties to the
    smaller, the top wrapping to 0."""
    step = TWO_PI / (1 << bits)
    x = Fraction(float(np.float64(phase) / step))
    k = math.floor(x)
    k += x - k > Fraction(1, 2)
    return k % (1 << bits)


@st.composite
def _phase_and_bits(draw):
    bits = draw(st.integers(1, MAX_QUANTIZATION_BITS))
    step = TWO_PI / (1 << bits)
    index = st.integers(0, (1 << bits) - 1)
    phase = draw(st.one_of(
        st.floats(0.0, TWO_PI, exclude_max=True),
        st.just(float(np.nextafter(TWO_PI, 0.0))),
        # midpoints between levels k and k + 1, and levels, as floats
        index.map(lambda k: (k + 0.5) * step),
        index.map(lambda k: k * step),
    ))
    return min(phase, float(np.nextafter(TWO_PI, 0.0))), bits


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_phase_and_bits())
@example((float(np.nextafter(TWO_PI, 0.0)), 1))
@example((float(np.nextafter(TWO_PI, 0.0)), 62))
@example((1.5 * math.pi, 1))
@example((float(np.nextafter(math.pi / 2, 0.0)), 1))
@example((TWO_PI / (1 << 40) * 0.5, 40))
def test_quantizer_gives_the_nearest_level(case):
    phase, bits = case
    (out,) = quantize_phases(np.array([phase]), bits)
    assert 0.0 <= out < TWO_PI
    step = TWO_PI / (1 << bits)
    k = _level_index(phase, bits)
    assert out == wrap_phase(float(k) * step)
    # within half a step of the phase, around the circle, up to the
    # rounding of the level's own value
    dist = abs(wrap_phase(out - phase + math.pi) - math.pi)
    assert dist <= 0.5 * step + 4 * np.spacing(TWO_PI)
    if bits <= PANEL_BITS:
        frozen = oracles.quantize_phases(RisPanel(np.ones(1), np.array([phase])), bits)
        x = np.float64(phase) / step
        if x == np.nextafter(0.5, 0.0):
            # the one float the frozen panel rounds the wrong way:
            # fl(x + 0.5) is 1.0, so it took level 1 over the nearer 0
            assert frozen.phases[0] == step and out == 0.0
        else:
            assert out.tobytes() == frozen.phases[0].tobytes()


def test_frozen_quantizer_rounds_the_float_below_a_half_step_up():
    # documents the one phase where the array quantizer departs from the
    # frozen one: just below half a step, x = phase / step is the float
    # below 0.5, and floor(x + 0.5) rounded it to level 1
    for bits in (1, 2, 17, PANEL_BITS):
        step = TWO_PI / (1 << bits)
        phase = float(np.nextafter(0.5 * step, 0.0))
        assert phase / step == np.nextafter(0.5, 0.0)
        frozen = oracles.quantize_phases(RisPanel(np.ones(1), np.array([phase])), bits)
        assert frozen.phases[0] == step
        assert quantize_phases(np.array([phase]), bits)[0] == 0.0


# ---------------------------------------------------------------------------
# miso alignment

def test_align_all_ones_square_law():
    g = np.ones(16, dtype=complex)
    h = np.ones(16, dtype=complex)
    (power,) = miso_gains(g, h, align_miso(g, h))
    assert power == pytest.approx(256.0, rel=1e-12)


def test_align_single_element_formula():
    g = np.array([np.exp(1j * math.pi / 6)])
    h = np.array([np.exp(1j * math.pi / 3)])
    phases = align_miso(g, h)
    assert phases[0] == pytest.approx(3 * math.pi / 2, abs=1e-12)
    (power,) = miso_gains(g, h, phases)
    assert power == pytest.approx(1.0, rel=1e-12)


def test_align_with_direct_term():
    # one antenna at each end makes u and v unit phases, so the aligned
    # reflection adds to the direct term coherently, path gains included
    rng = np.random.default_rng(17)
    g = complex_normal(rng, (6, 1))
    h = complex_normal(rng, (1, 6))
    direct = np.array([[0.4 - 0.9j]])
    link = SimpleNamespace(n_elements=6, pl_nb_ris=0.5, pl_ris_ue=2.0, pl_nb_ue=0.3)
    phases = aligned_phases(g[None], h[None], direct=direct[None], gains=link)
    got = abs(assemble_stack(link, g[None], h[None], direct[None],
                             np.exp(1j * phases))[0, 0, 0])
    want = float(np.sum(np.abs(g[:, 0] * h[0]))) + math.sqrt(0.3) * abs(0.4 - 0.9j)
    assert got == pytest.approx(want, rel=1e-12)


def test_align_one_bit_matches_exhaustive():
    rng = np.random.default_rng(0)
    g = complex_normal(rng, 4)
    h = complex_normal(rng, 4)
    (power,) = miso_gains(g, h, quantize_phases(align_miso(g, h), 1))
    best = best_1bit_power(g, h)
    assert power == pytest.approx(best, rel=1e-12)


def test_align_input_checks():
    # links of a stack must agree on the element count
    with pytest.raises(ValueError):
        align_miso(np.ones((2, 3)), np.ones((2, 4)))
    with pytest.raises(ValueError):
        align_miso(np.ones(3), np.ones(4))


def test_composite_gain_size_check():
    with pytest.raises(ValueError):
        miso_gains(np.ones(3), np.ones(3), np.zeros(4))


def test_stacked_miso_route_matches_frozen_panels_bit_for_bit():
    # every link of a stack: the aligned phases, the quantized phases and
    # both gains equal the frozen panel route on that link alone
    rng = rng_from(61, "miso-stack")
    for n in (1, 2, 3, 17, 64, 300):
        g = complex_normal(rng, (5, n))
        h = complex_normal(rng, (5, n))
        phases = align_miso(g, h)
        gains = miso_gains(g, h, phases)
        for bits in (1, 2, 3, 8, PANEL_BITS):
            q = quantize_phases(phases, bits)
            qgains = miso_gains(g, h, q)
            for t in range(5):
                panel = oracles.align_phases_miso(g[t], h[t])
                frozen = oracles.quantize_phases(panel, bits)
                assert phases[t].tobytes() == panel.phases.tobytes()
                assert q[t].tobytes() == frozen.phases.tobytes()
                assert gains[t] == abs(oracles.composite_gain(g[t], h[t], panel)) ** 2
                assert qgains[t] == abs(oracles.composite_gain(g[t], h[t], frozen)) ** 2


def test_one_bit_fixture_route_matches_frozen_panels():
    # the first 400 draws of the one-bit loss fixture, through the array
    # route and through the frozen panels
    n, trials = 16, 400
    rng = rng_from(321, "quantloss")
    g = np.empty((trials, n), dtype=np.complex128)
    h = np.empty((trials, n), dtype=np.complex128)
    for t in range(trials):
        g[t] = complex_normal(rng, n)
        h[t] = complex_normal(rng, n)
    phases = align_miso(g, h)
    cont = miso_gains(g, h, phases)
    coarse = miso_gains(g, h, quantize_phases(phases, 1))
    for t in range(trials):
        panel = oracles.align_phases_miso(g[t], h[t])
        assert cont[t] == abs(oracles.composite_gain(g[t], h[t], panel)) ** 2
        one_bit = oracles.quantize_phases(panel, 1)
        assert coarse[t] == abs(oracles.composite_gain(g[t], h[t], one_bit)) ** 2


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), trials=st.integers(2, 5))
def test_miso_gains_of_each_link_alone_match_the_stack(seed, n, trials):
    # a one-link stack of one element takes numpy's one-element loops, which
    # round an in-place complex product differently from a longer stack's
    rng = rng_from(seed, "miso")
    g, h = complex_normal(rng, (trials, n)), complex_normal(rng, (trials, n))
    phases = align_miso(g, h)
    alone = [miso_gains(g[t:t + 1], h[t:t + 1], phases[t:t + 1])[0] for t in range(trials)]
    assert alone == miso_gains(g, h, phases)


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (3, 2), (257, 7), (5, 8), (257, 9),
                                   (4, 3, 16), (2, 17), (33, 64), (257, 127), (3, 128),
                                   (6, 129), (2, 1000), (3, 4096)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_miso_gains_one_reduction_matches_per_link_sums(shape, order):
    # the stacked reduction against each link's terms summed by its own
    # `np.sum`, the per-link loop it replaced; a Fortran-ordered stack
    # makes the per-link rows strided
    rng = rng_from(0, f"miso-sums/{shape}")
    g, h = complex_normal(rng, shape), complex_normal(rng, shape)
    g, h = np.asarray(g, order=order), np.asarray(h, order=order)
    phases = rng.uniform(0.0, TWO_PI, shape)
    terms = np.multiply(np.multiply(h, np.exp(1j * phases)), g)
    want = [abs(complex(np.sum(row))) ** 2 for row in terms.reshape(-1, shape[-1])]
    assert miso_gains(g, h, phases) == want


@pytest.mark.parametrize("chunk", [experiments.BEAMFORM_CHUNK, 50])
def test_beamform_runner_matches_frozen_panels_bit_for_bit(monkeypatch, chunk):
    # the runner's table against the per-trial panel route it replaced, on
    # each trial's draw: row t of its size's stream; at 50 coefficients per
    # chunk the 40-element size takes one trial a chunk
    monkeypatch.setattr(experiments, "BEAMFORM_CHUNK", chunk)
    scenario = {"channel": "rayleigh", "n_list": [1, 3, 40], "quantization_bits": [1, 4, 51]}
    table = run(prepare("beamform", scenario, seed=8, trials=6))
    draws = {n: oracles.rayleigh_trial_blocks(8, f"beamform/{n}", [(n,), (n,)], 6)
             for n in scenario["n_list"]}
    want = []
    for t in range(6):
        for n in scenario["n_list"]:
            g, h = draws[n][t]
            panel = oracles.align_phases_miso(g, h)
            gain = abs(oracles.composite_gain(g, h, panel)) ** 2
            want.append((t, f"gain_n{n}", gain))
            for b in scenario["quantization_bits"]:
                q = oracles.quantize_phases(panel, b)
                want.append((t, f"ratio_b{b}_n{n}",
                             abs(oracles.composite_gain(g, h, q)) ** 2 / gain))
    assert list(table.rows) == want


# ---------------------------------------------------------------------------
# capacity ascent

def _single_user_ascent(g, h, total_power, noise_power, max_iters=30):
    """(phases, capacity, trace) of the single-user capacity ascent: one
    engine problem from the aligned-MISO start."""
    init = aligned_phases(g, h, direct=None, gains=None)
    ((phases, caps, trace),) = phase_ascent_batch(
        [(np.ones(1), g[None], h[None], init)], total_power, noise_power, max_iters)
    return phases, float(caps[0]), trace


def test_optimize_two_elements_match_alignment():
    # only the relative phase matters without a direct term: from a start
    # a quarter turn off it, the ascent lands within one grid step of the
    # aligned relative phase
    rng = np.random.default_rng(29)
    g = complex_normal(rng, (2, 1))
    h = complex_normal(rng, (1, 2))
    aligned = align_miso(g[:, 0], h[0])
    init = wrap_phase(aligned + np.array([0.0, math.pi / 2]))
    ((phases, _, _),) = phase_ascent_batch(
        [(np.ones(1), g[None], h[None], init)], 1.0, 1.0, 30)
    diff = wrap_phase(phases[0] - phases[1] - (aligned[0] - aligned[1]) + math.pi)
    assert abs(diff - math.pi) <= TWO_PI / ris.ASCENT_GRID_POINTS + 1e-9


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
    rng = np.random.default_rng(31)
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
    rng = np.random.default_rng(37)
    problem = (np.ones(1), complex_normal(rng, (1, 2, 2)), complex_normal(rng, (1, 2, 2)),
               np.zeros(2))
    with pytest.raises(ValueError, match="max_iters"):
        phase_ascent_batch([problem], 1.0, 1.0, 0)


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
    run(prepare("multiuser", scenario, seed, trials))
    ((g, h, direct, gains, out),) = calls
    assert direct is None and gains is None
    assert out.shape == g.shape[:2] + (g.shape[2],) == (trials, scenario["n_users"],
                                                         scenario["n_elements"])
    for t, i in np.ndindex(*out.shape[:2]):
        real = ChannelRealization(g_nb_ris=g[t, i], h_ris_ue=h[t, i], h_nb_ue=None,
                                  pl_nb_ris=1.0, pl_ris_ue=1.0, pl_nb_ue=0.0)
        assert out[t, i].tobytes() == aligned_start(real).tobytes()


def test_lbt_owned_start_matches_the_per_realization_route_bit_for_bit(monkeypatch):
    # one stacked call aligns A's surface for every trial of the run
    calls = _spy_aligned(monkeypatch, coexist)
    run(prepare("coexist", {"mode": "lbt", "slots": 5}, seed=5, trials=3))
    ((g, h, direct, link, out),) = calls
    assert direct is not None
    assert 1.0 not in (link.pl_nb_ris, link.pl_ris_ue, link.pl_nb_ue)
    assert out.shape == (3, g.shape[1])
    for t in range(3):
        real = ChannelRealization(g_nb_ris=g[t], h_ris_ue=h[t], h_nb_ue=direct[t],
                                  pl_nb_ris=link.pl_nb_ris, pl_ris_ue=link.pl_ris_ue,
                                  pl_nb_ue=link.pl_nb_ue)
        assert out[t].tobytes() == aligned_start(real).tobytes()


def test_aligned_phases_reach_the_coherent_sum():
    # a rank-one link collapses to its MISO coefficients exactly, so every
    # link of the stack reaches the coherent sum of its element gains
    rng = np.random.default_rng(53)
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
    args = (power, noise, max_iters)
    with mock.patch.object(ris, "ASCENT_GRID_POINTS", grid_points):
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
    calls = {"stack_capacity": 0, "capacity_closed_form": 0}

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
    out = phase_ascent_batch(problems, 1.0, 1.0, 3)
    sweeps = max(len(trace) - 1 for _, _, trace in out)
    # the fused 2x2 route makes no `capacity_closed_form` call, not even
    # from inside `stack_capacity`
    assert calls == {"stack_capacity": 1 + 8 * sweeps, "capacity_closed_form": 0}


def test_batch_input_checks():
    ((weights, g, h, init),) = _random_problems(17, 4, (2, 2), [[1.0]])
    assert phase_ascent_batch([], 1.0, 1.0, 3) == []
    with pytest.raises(ValueError, match="element count"):
        phase_ascent_batch([(weights, g, h, np.zeros(5))], 1.0, 1.0, 3)
    with pytest.raises(ValueError, match="per entry"):
        phase_ascent_batch([(np.ones(2), g, h, init)], 1.0, 1.0, 3)


def test_batch_rejects_mixed_shapes():
    # a problem's blocks are one array each, so only problems can disagree
    square = _random_problems(19, 4, (2, 2), [[1.0]])
    for other in ((1, 2), (2, 1), (3, 2)):
        mixed = _random_problems(23, 4, other, [[1.0]])
        with pytest.raises(ValueError, match="shape"):
            phase_ascent_batch(square + mixed, 1.0, 1.0, 3)


# ---------------------------------------------------------------------------
# element blocks

def test_partition_single_block_gain_fraction():
    # elements outside the block absorb: their coefficients drop out
    g = np.ones(64, dtype=complex)
    h = np.ones(64, dtype=complex)
    (whole,) = miso_gains(g, h, align_miso(g, h))
    amp = np.zeros(64)
    amp[0:16] = 1.0
    (block,) = miso_gains(amp * g, h, np.zeros(64))
    assert whole == pytest.approx(4096.0)
    assert block == pytest.approx(whole / 16.0)


# ---------------------------------------------------------------------------
# invariants

def test_passivity_everywhere():
    # every surface the array route builds passes the assembly's check
    rng = np.random.default_rng(41)
    g = complex_normal(rng, 8)
    h = complex_normal(rng, 8)
    link = SimpleNamespace(n_elements=8, pl_nb_ris=1.0, pl_ris_ue=1.0, pl_nb_ue=0.0)
    absorbing = np.r_[np.ones(6), np.zeros(2)]  # elements 6 and 7 absorb
    for theta in (
        np.ones(8, dtype=complex),
        np.exp(1j * align_miso(g, h)),
        np.exp(1j * quantize_phases(align_miso(g, h), 2)),
        absorbing * np.exp(1j * np.zeros(8)),
    ):
        assert np.all(np.abs(theta) <= 1.0 + 1e-12)
        assemble_stack(link, g[None, :, None], h[None, None], None, theta[None])


def test_square_law_across_sizes():
    rng = np.random.default_rng(43)
    for n in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        g = np.exp(1j * rng.uniform(0, TWO_PI, n))
        h = np.exp(1j * rng.uniform(0, TWO_PI, n))
        (power,) = miso_gains(g, h, align_miso(g, h))
        assert abs(power - n * n) <= 1e-9 * n * n


def test_whole_panel_beats_blocks():
    rng = np.random.default_rng(47)
    for _ in range(10):
        g = complex_normal(rng, 32)
        h = complex_normal(rng, 32)
        aligned = align_miso(g, h)
        (whole,) = miso_gains(g, h, aligned)
        for lo, hi in ((0, 16), (16, 24)):
            amp = np.zeros(32)
            amp[lo:hi] = 1.0
            (block,) = miso_gains(amp * g, h, aligned)
            assert whole >= block - 1e-9


def test_one_bit_loss_matches_mc_oracle(quantization_ratio_pair):
    sim_ratio, oracle_ratio = quantization_ratio_pair
    assert abs(sim_ratio - oracle_ratio) <= 0.02
