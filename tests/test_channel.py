"""Channel synthesis: LoS blocks, Rician mixing, path loss, assembly."""

import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ris_sim import numkernel
from oracles import ChannelRealization, assemble_effective, assemble_multi_panel
from ris_sim.channel import (
    ChannelParams,
    Geometry,
    GeometryError,
    Scenario,
    assemble_stack,
    draw_links,
    element_distances,
    fraunhofer_distance,
    gen_los,
    path_gain,
    resolve_wavefront,
    surface_states,
)
from ris_sim.seeding import complex_normal, rng_from

LAM = 0.1


def _geom(**positions):
    return Geometry(wavelength=LAM, positions=positions)


# ---------------------------------------------------------------------------
# geometry validation

def test_geometry_unknown_node():
    g = _geom(a=(0, 0, 0))
    with pytest.raises(GeometryError):
        g.position("b")


def test_element_positions_centered():
    g = Geometry(wavelength=1.0, positions={"a": (5.0, 0.0, 2.0)})
    pos = g.element_positions("a", 4)
    assert pos.shape == (4, 3)
    assert np.allclose(pos.mean(axis=0), [5.0, 0.0, 2.0])
    assert np.allclose(np.diff(pos[:, 2]), 0.5)


# ---------------------------------------------------------------------------
# gen_los

def test_los_single_pair_at_one_wavelength():
    g = _geom(a=(0.0, 0.0, 0.0), b=(LAM, 0.0, 0.0))
    block = gen_los(g, "a", "b", 1, 1, "planar")
    assert block.shape == (1, 1)
    assert block[0, 0] == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_los_planar_is_rank_one():
    g = _geom(a=(0.0, 0.0, 10.0), b=(30.0, 25.0, 1.5))
    for rows, cols in ((4, 4), (2, 8), (16, 3)):
        block = gen_los(g, "a", "b", rows, cols, "planar")
        assert np.allclose(np.abs(block), 1.0)
        assert numkernel.numerical_rank(block) == 1


def test_los_spherical_improves_conditioning():
    # 4-element lines spanning 1.5 wavelengths, facing at 3 wavelengths,
    # inside their 4.5-wavelength Fraunhofer distance
    lam = 1.0
    g = Geometry(
        wavelength=lam,
        positions={"a": (0.0, 0.0, 0.0), "b": (3.0 * lam, 0.0, 0.0)},
    )
    planar = gen_los(g, "a", "b", 4, 4, "planar")
    spherical = gen_los(g, "a", "b", 4, 4, "spherical")
    c_pl = oracles.condition_number(planar)
    c_sp = oracles.condition_number(spherical)
    assert c_sp < c_pl
    assert np.isfinite(c_sp)


def test_los_rejects_overlapping_arrays():
    g = _geom(a=(0.0, 0.0, 0.0), b=(0.0, 0.0, 0.0))
    with pytest.raises(GeometryError):
        gen_los(g, "a", "b", 2, 2, "spherical")


_coord = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=st.tuples(_coord, _coord, _coord), b=st.tuples(_coord, _coord, _coord),
       rows=st.integers(1, 40), cols=st.integers(1, 40),
       wavelength=st.floats(1e-3, 10.0), same_line=st.booleans())
def test_element_distances_equal_the_norm_of_the_differences(a, b, rows, cols,
                                                            wavelength, same_line):
    # on one line the arrays interleave, and some element pairs coincide
    b = (a[0], a[1], b[2]) if same_line else b
    g = Geometry(wavelength=wavelength, positions={"a": a, "b": b})
    tx, rx = g.element_positions("a", cols), g.element_positions("b", rows)
    want = np.linalg.norm(rx[:, None, :] - tx[None, :, :], axis=2)
    assert element_distances(g, "a", "b", rows, cols).tobytes() == want.tobytes()


def test_los_rejects_unknown_wavefront():
    g = _geom(a=(0, 0, 0), b=(1, 0, 0))
    with pytest.raises(GeometryError):
        gen_los(g, "a", "b", 1, 1, "circular")


# ---------------------------------------------------------------------------
# Rician draws

def _rician_scenario(k, m=4, n=4):
    # every link at factor k, the direct one included
    geom = _geom(nb=(0.0, 0.0, 10.0), ris=(50.0, 0.0, 10.0), ue=(60.0, 5.0, 1.5))
    params = ChannelParams(rician_k=k)
    return Scenario(geometry=geom, m_antennas=m, n_elements=n, u_antennas=1,
                    nb_ris=params, ris_ue=params, nb_ue=params)


def _streams(seed):
    """A run's normal and uniform generators, keyed on `seed`."""
    return rng_from(seed, "normals"), rng_from(seed, "uniforms")


def _draw(scn, trials, seed):
    """The channel blocks of the first `trials` trials of a run on `seed`."""
    return draw_links(scn.links(), trials, *_streams(seed))[0]


def test_rician_high_k_limit():
    scn = _rician_scenario(1e12)
    for stack, (_, los, _) in zip(_draw(scn, 2, 9), scn.links()):
        rel = np.linalg.norm(stack - los) / np.linalg.norm(np.broadcast_to(los, stack.shape))
        assert rel <= 1e-5


def test_rician_infinite_k_is_los():
    scn = _rician_scenario(math.inf)
    normals, uniforms = _streams(9)
    before = normals.bit_generator.state
    for stack, (_, los, _) in zip(draw_links(scn.links(), 3, normals, uniforms)[0],
                                  scn.links()):
        assert stack.shape == (3,) + los.shape
        assert np.array_equal(stack, np.broadcast_to(los, stack.shape))
        assert not stack.flags.writeable
    # nothing scatters, so the run's generator draws nothing
    assert normals.bit_generator.state == before


def test_rician_rayleigh_variance():
    scn = _rician_scenario(0.0, m=100, n=100)
    g, _, _ = _draw(scn, 100, 9)
    var = float(np.mean(np.abs(g) ** 2))
    assert abs(var - 1.0) <= 0.02


def test_rician_deterministic():
    # trial t's blocks are a function of the seed and t alone: redrawn from
    # generators seeded anew, as the rows of a longer run, or in chunks
    scn = _rician_scenario(2.0)
    first = _draw(scn, 2, 9)
    longer = tuple(b[:2] for b in _draw(scn, 5, 9))
    normals, uniforms = _streams(9)
    chunked = tuple(np.concatenate(parts) for parts in zip(
        draw_links(scn.links(), 1, normals, uniforms)[0],
        draw_links(scn.links(), 1, normals, uniforms)[0]))
    for again in (_draw(scn, 2, 9), longer, chunked):
        for a, b in zip(first, again):
            assert a.tobytes() == b.tobytes()
    assert not np.array_equal(first[1][0], first[1][1])
    assert not np.array_equal(first[1], _draw(scn, 2, 10)[1])


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(rician_k=-1.0)
    with pytest.raises(ValueError):
        ChannelParams(path_loss_exponent=1.5)
    with pytest.raises(ValueError):
        ChannelParams(wavefront_model="flat")
    # a link carries no receiver noise: `CoexScenario` and `deploy.Scene`
    # hold and check it (see their tests)
    assert [f.name for f in fields(ChannelParams)] == ["rician_k", "path_loss_exponent",
                                                       "wavefront_model"]


# ---------------------------------------------------------------------------
# path loss

def test_path_gain_reference_distance():
    d = LAM / (4.0 * math.pi)
    assert path_gain(LAM, d, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_zero_distance_rejected():
    g = _geom(nb=(0.0, 0.0, 0.0), ris=(1.0, 0.0, 0.0), ue=(0.0, 0.0, 0.0))
    with pytest.raises(GeometryError):
        g.distance("nb", "ue")


def test_subunity_product_below_factors():
    lam = 0.1
    for d1, d2 in ((10.0, 20.0), (55.0, 5.0), (200.0, 300.0)):
        f1 = path_gain(lam, d1, 2.0)
        f2 = path_gain(lam, d2, 2.0)
        assert f1 < 1.0 and f2 < 1.0
        assert f1 * f2 <= min(f1, f2)


# ---------------------------------------------------------------------------
# wavefront resolution

def test_resolve_wavefront_auto():
    lam = 1.0
    g = Geometry(
        wavelength=lam,
        positions={"a": (0.0, 0.0, 0.0), "near": (20.0, 0.0, 0.0),
                   "far": (1000.0, 0.0, 0.0)},
    )
    # 13 transmit elements at half a wavelength: aperture 6 m -> boundary
    # 2 * 36 / 1 = 72 m
    assert fraunhofer_distance(g, 1, 13) == pytest.approx(72.0)
    assert resolve_wavefront(g, "a", "near", 1, 13, "auto") == "spherical"
    assert resolve_wavefront(g, "a", "far", 1, 13, "auto") == "planar"
    assert resolve_wavefront(g, "a", "near", 1, 13, "planar") == "planar"


# ---------------------------------------------------------------------------
# assembly

def _random_link(rng, n=4, m=2, u=2, direct=True, pls=(1.0, 1.0, 1.0)):
    """(gains, g, h, d) of one trial: the path gains and element count
    `assemble_stack` reads of a scenario, and blocks stacked one deep."""
    g = complex_normal(rng, (1, n, m))
    h = complex_normal(rng, (1, u, n))
    d = complex_normal(rng, (1, u, m)) if direct else None
    gains = SimpleNamespace(n_elements=n, pl_nb_ris=pls[0], pl_ris_ue=pls[1],
                            pl_nb_ue=pls[2] if direct else 0.0)
    return gains, g, h, d


def _realization(gains, g, h, d, trial=0):
    """The frozen one-trial realization of one trial of a stack."""
    return ChannelRealization(
        g_nb_ris=g[trial], h_ris_ue=h[trial], h_nb_ue=None if d is None else d[trial],
        pl_nb_ris=gains.pl_nb_ris, pl_ris_ue=gains.pl_ris_ue, pl_nb_ue=gains.pl_nb_ue)


def test_realization_shape_checks():
    # the frozen realization keeps its own checks
    g = np.ones((4, 2), dtype=complex)
    h = np.ones((2, 4), dtype=complex)
    with pytest.raises(ValueError):
        ChannelRealization(g_nb_ris=g, h_ris_ue=np.ones((2, 3), dtype=complex),
                           h_nb_ue=None, pl_nb_ris=1, pl_ris_ue=1, pl_nb_ue=0)
    with pytest.raises(ValueError):
        ChannelRealization(g_nb_ris=g, h_ris_ue=h,
                           h_nb_ue=np.ones((3, 2), dtype=complex),
                           pl_nb_ris=1, pl_ris_ue=1, pl_nb_ue=1)
    with pytest.raises(ValueError):
        ChannelRealization(g_nb_ris=g, h_ris_ue=h, h_nb_ue=None,
                           pl_nb_ris=-0.5, pl_ris_ue=1, pl_nb_ue=0)


def test_assemble_identity_reflection():
    rng = np.random.default_rng(41)
    gains, g, h, _ = _random_link(rng, direct=False)
    h_t = assemble_stack(gains, g, h, None, np.ones((1, 4), dtype=complex))
    assert np.array_equal(h_t, h @ g)


def test_assemble_scalar_case():
    h = np.array([[[0.3 + 0.4j]]])
    g = np.array([[[1.0 - 2.0j]]])
    d = np.array([[[0.5 + 0.1j]]])
    th = 0.8 * np.exp(1j * 0.7)
    gains = SimpleNamespace(n_elements=1, pl_nb_ris=1.0, pl_ris_ue=1.0, pl_nb_ue=1.0)
    h_t = assemble_stack(gains, g, h, d, np.array([[th]]))
    want = h[0, 0, 0] * th * g[0, 0, 0] + d[0, 0, 0]
    assert h_t[0, 0, 0] == pytest.approx(want, abs=1e-15)


def test_assemble_matches_triple_loop():
    rng = np.random.default_rng(43)
    gains, g, h, d = _random_link(rng, n=4, m=2, u=2, pls=(0.5, 0.25, 0.81))
    th = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    h_t = assemble_stack(gains, g, h, d, th[None])[0]
    amp = math.sqrt(gains.pl_ris_ue * gains.pl_nb_ris)
    want = np.zeros((2, 2), dtype=complex)
    for u in range(2):
        for m in range(2):
            acc = 0j
            for n in range(4):
                acc += h[0, u, n] * th[n] * g[0, n, m]
            want[u, m] = amp * acc + math.sqrt(gains.pl_nb_ue) * d[0, u, m]
    assert np.max(np.abs(h_t - want)) <= 1e-12


def test_assemble_dimension_mismatch():
    rng = np.random.default_rng(47)
    gains, g, h, d = _random_link(rng)
    with pytest.raises(ValueError):
        assemble_stack(gains, g, h, d, np.ones((1, 5), dtype=complex))
    with pytest.raises(ValueError):
        assemble_stack(gains, g, h, d, np.ones(4, dtype=complex))


def test_assemble_rejects_active_surface():
    rng = np.random.default_rng(53)
    gains, g, h, d = _random_link(rng)
    with pytest.raises(ValueError):
        assemble_stack(gains, g, h, d, 1.5 * np.ones((1, 4), dtype=complex))
    with pytest.raises(ValueError):
        assemble_stack(gains, g, h, d, np.ones((1, 4), dtype=complex), beta_gain=-1.0)


def test_multi_panel_superposition():
    # several panels superpose: the reflected term of each, in panel order,
    # plus the direct term once, as the frozen multi-panel assembly summed
    rng = np.random.default_rng(61)
    link1 = _random_link(rng, direct=False)
    link2 = _random_link(rng, direct=True)
    th = np.ones((1, 4), dtype=complex)
    gains2, g2, h2, d2 = link2
    h_t = (np.zeros((2, 2), dtype=complex)
           + assemble_stack(link1[0], *link1[1:], th)[0]
           + assemble_stack(gains2, g2, h2, None, th)[0]
           + math.sqrt(gains2.pl_nb_ue) * d2[0])
    want = assemble_multi_panel([_realization(*link1), _realization(*link2)], [th[0]] * 2)
    assert h_t.tobytes() == want.tobytes()


def test_multi_panel_shape_guard():
    # the frozen multi-panel assembly keeps its own checks
    rng = np.random.default_rng(67)
    r1 = _realization(*_random_link(rng, u=2))
    r2 = _realization(*_random_link(rng, u=3))
    with pytest.raises(ValueError):
        assemble_multi_panel([r1, r2], [np.ones(4)] * 2)
    with pytest.raises(ValueError):
        assemble_multi_panel([], [])


# ---------------------------------------------------------------------------
# scenario draws

def _scenario(wavefront="planar", k_incident=math.inf, direct=False):
    geom = _geom(nb=(0.0, 0.0, 10.0), ris=(50.0, 0.0, 10.0), ue=(60.0, 5.0, 1.5))
    return Scenario(
        geometry=geom,
        m_antennas=2, n_elements=16, u_antennas=2,
        nb_ris=ChannelParams(rician_k=k_incident, wavefront_model=wavefront),
        ris_ue=ChannelParams(rician_k=0.0, wavefront_model=wavefront),
        nb_ue=ChannelParams(wavefront_model=wavefront) if direct else None,
    )


def test_draw_realization_deterministic():
    # a scenario's trial is redrawn the same, and another trial differs
    scn = _scenario()
    a = _draw(scn, 1, 2024)
    b = _draw(scn, 1, 2024)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert scn.pl_nb_ris == _scenario().pl_nb_ris
    c = _draw(scn, 2, 2024)
    assert not np.array_equal(a[1][0], c[1][1])


def test_draw_links_los_incident():
    g, _, direct = _draw(_scenario(), 1, 1)
    assert np.allclose(np.abs(g[0]), 1.0)
    assert numkernel.numerical_rank(g[0]) == 1
    assert direct is None


def test_keyhole_rank_spot_check():
    # planar LoS incident hop pinches the reflected channel to rank one;
    # the acceptance suite sweeps the full 500-draw grid
    scn = _scenario()
    th = np.exp(1j * np.random.default_rng(80).uniform(0, 2 * np.pi, (25, 16)))
    for h_t in assemble_stack(scn, *_draw(scn, 25, 5), th):
        assert numkernel.numerical_rank(h_t) == 1


def test_dominant_reflection_regime():
    # once the reflected term carries 100x the direct Frobenius weight,
    # the direct term no longer moves the spectrum by more than 2%
    rng = np.random.default_rng(83)
    gains, g, h, d = _random_link(rng, n=8, m=3, u=3, pls=(1.0, 1.0, 1.0))
    th = np.exp(1j * rng.uniform(0, 2 * np.pi, (1, 8)))
    # raise the reflected path gain until the reflected term dominates
    pl = 1.0
    while True:
        gains.pl_ris_ue = pl
        ris_only = assemble_stack(gains, g, h, None, th)[0]
        direct_norm = np.linalg.norm(d[0])
        if np.linalg.norm(ris_only) > 100.0 * direct_norm:
            break
        pl *= 4.0
    full = assemble_stack(gains, g, h, d, th)[0]
    s_full = numkernel.singular_values(full)
    s_ris = numkernel.singular_values(ris_only)
    assert np.max(np.abs(s_full - s_ris)) / s_ris[0] < 0.02


def test_scenario_blocks_are_fixed_and_read_only():
    # the departure and direct links are at Rician factor 0, which gives a
    # LoS block no weight: they build only their path gains
    scn = _scenario(wavefront="spherical", direct=True)
    geom = scn.geometry
    assert np.array_equal(scn.los_nb_ris, gen_los(geom, "nb", "ris", 16, 2, "spherical"))
    assert scn.los_ris_ue is None and scn.los_nb_ue is None
    assert scn.pl_nb_ris == path_gain(LAM, geom.distance("nb", "ris"), 2.0)
    assert scn.pl_nb_ue == path_gain(LAM, geom.distance("nb", "ue"), 2.0)
    rician = replace(scn, ris_ue=replace(scn.ris_ue, rician_k=2.5),
                     nb_ue=replace(scn.nb_ue, rician_k=2.5))
    assert np.array_equal(rician.los_ris_ue, gen_los(geom, "ris", "ue", 2, 16, "spherical"))
    assert np.array_equal(rician.los_nb_ue, gen_los(geom, "nb", "ue", 2, 2, "spherical"))
    for block in (scn.los_nb_ris, rician.los_ris_ue, rician.los_nb_ue):
        assert not block.flags.writeable
    bare = _scenario()
    assert bare.los_nb_ue is None and bare.pl_nb_ue == 0.0


def _check_run_stream_draw(scn, seed, chunks, surfaces):
    """`draw_links` of consecutive chunks of `chunks` trials, each trial
    with `surfaces` surface states of N uniforms each, against the scalar
    draw of each trial, one after the other, from the run's generators
    `default_rng(subseed(seed, "normals"))` and `"uniforms"`.  Returns the
    run's generators and its stacks, the chunks joined."""
    n = scn.n_elements
    normals, uniforms = _streams(seed)
    blocks, drawn = zip(*(draw_links(scn.links(), count, normals, uniforms, surfaces * n)
                          for count in chunks))
    stacks = [None if parts[0] is None else np.concatenate(parts) for parts in zip(*blocks)]
    # (surfaces, trials, N): state j of trial t is row t's j-th run of N uniforms
    theta = surface_states(
        np.concatenate(drawn).reshape(sum(chunks), surfaces, n).transpose(1, 0, 2))
    links = [None if params is None else (params.rician_k, los, shape)
             for params, los, shape in scn.links()]
    assert theta.shape == (surfaces, sum(chunks), n)
    ref_normals, ref_uniforms = _streams(seed)
    for t in range(sum(chunks)):
        blocks, states = oracles.one_stream_draw(ref_normals, links, surfaces * n, ref_uniforms)
        for stack, block in zip(stacks, blocks):
            assert (stack is None) == (block is None)
            if block is not None:
                assert stack[t].tobytes() == block.tobytes()
        for j, state in enumerate(oracles.surface_states(states, n)):
            assert theta[j, t].tobytes() == state.tobytes()
    return (normals, uniforms), stacks


@pytest.mark.parametrize("k_incident, direct", [(math.inf, False), (math.inf, True),
                                                 (0.0, True), (3.0, False)])
def test_stacked_draw_matches_draw_realization_bit_for_bit(k_incident, direct):
    # against the scalar draw, trial after trial: one normal call on the
    # run's normal generator and one uniform call on its uniform one per
    # trial, here for two surface states and chunks of 1 and 2 trials
    scn = _scenario(k_incident=k_incident, direct=direct)
    _, (_, _, d) = _check_run_stream_draw(scn, 2**40 + 7, (1, 2), 2)
    assert (d is None) == (not direct)
    if math.isinf(k_incident):
        # the pure-LoS hop is the scenario's read-only block, never copied
        g = _draw(scn, 3, 2**40 + 7)[0]
        assert np.shares_memory(g, scn.los_nb_ris) and not g.flags.writeable


# K = 3 weighs the scatter by 1/2, exactly; K = 2.5 by an inexact factor
@pytest.mark.parametrize("k", [0.0, 2.5, 3.0, math.inf])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    chunks=st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(any),
    surfaces=st.integers(0, 2),
)
def test_stacked_draw_matches_the_two_draw_rician_oracle(k, seed, chunks, surfaces):
    # every link at factor k: each block is the oracle's mix of the
    # scenario's LoS block and its share of its trial's normals; the
    # uniforms give the surface states
    geom = _geom(nb=(0.0, 0.0, 10.0), ris=(50.0, 0.0, 10.0), ue=(60.0, 5.0, 1.5))
    params = ChannelParams(rician_k=k)
    scn = Scenario(geometry=geom, m_antennas=2, n_elements=16, u_antennas=3,
                   nb_ris=params, ris_ue=params, nb_ue=params)
    generators, stacks = _check_run_stream_draw(scn, seed, chunks, surfaces)
    for stack, shape in zip(stacks, ((16, 2), (3, 16), (3, 2))):
        assert stack.shape == (sum(chunks),) + shape
    # a kind with nothing to draw leaves its generator where it was seeded
    for rng, kind, idle in zip(generators, ("normals", "uniforms"),
                               (math.isinf(k), not surfaces)):
        assert (rng.bit_generator.state == rng_from(seed, kind).bit_generator.state) == idle


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 5),
    direct=st.booleans(),
    excess=st.one_of(st.none(), st.floats(2e-12, 1.0)),
)
def test_stacked_assembly_matches_assemble_effective_and_its_passivity_check(
        seed, trials, direct, excess):
    scn = _scenario(k_incident=0.0, direct=direct)
    reals = [oracles.keyed_blocks(scn, t, seed % 1000) for t in range(trials)]
    g = np.stack([r.g_nb_ris for r in reals])
    h = np.stack([r.h_ris_ue for r in reals])
    d = np.stack([r.h_nb_ue for r in reals]) if direct else None
    rng = rng_from(seed, "theta")
    theta = (rng.uniform(0.0, 1.0, (trials, 16))
             * np.exp(1j * rng.uniform(0.0, 2 * np.pi, (trials, 16))))
    if excess is not None:
        t, n = int(rng.integers(trials)), int(rng.integers(16))
        theta[t, n] = (1.0 + excess) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        with pytest.raises(ValueError):
            assemble_stack(scn, g, h, d, theta, 0.7)
        with pytest.raises(ValueError):
            assemble_effective(reals[t], theta[t])
        return
    stack = assemble_stack(scn, g, h, d, theta)
    assert stack.shape == (trials, 2, 2)
    for t in range(trials):
        want = assemble_effective(reals[t], theta[t])
        assert stack[t].tobytes() == want.tobytes()
