"""Linear-algebra kernel: spectra, rank, conditioning, water-filling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ris_sim import numkernel
from ris_sim.seeding import complex_normal


def _randc(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _capacity(h, total_power, noise_power):
    """Water-filled capacity of channel `h`."""
    return numkernel.capacity_closed_form(numkernel.singular_values(h), total_power,
                                          noise_power)


# ---------------------------------------------------------------------------
# singular_values

def test_singular_values_identity():
    s = numkernel.singular_values(np.eye(2))
    assert np.allclose(s, [1.0, 1.0])


def test_singular_values_diagonal():
    s = numkernel.singular_values(np.diag([3.0, 0.0]))
    assert np.allclose(s, [3.0, 0.0])


def test_singular_values_sorted_nonnegative():
    rng = np.random.default_rng(1)
    s = numkernel.singular_values(_randc(rng, (5, 3)))
    assert s.shape == (3,)
    assert np.all(np.diff(s) <= 0.0)
    assert np.all(s >= 0.0)


def test_singular_values_match_jacobi_oracle():
    rng = np.random.default_rng(42)
    a = _randc(rng, (4, 6))
    s = numkernel.singular_values(a)
    ref = oracles.jacobi_singular_values(a)
    assert np.max(np.abs(s - ref)) <= 1e-9 * ref[0]


@pytest.mark.parametrize("shape", [(7, 4, 4), (3, 2, 5, 3), (6, 1, 3)])
def test_singular_values_of_a_stack_equal_each_matrix_bit_for_bit(shape):
    stack = _randc(np.random.default_rng(sum(shape)), shape)
    s = numkernel.singular_values(stack)
    assert s.shape == shape[:-2] + (min(shape[-2:]),)
    one_by_one = [numkernel.singular_values(a) for a in stack.reshape((-1,) + shape[-2:])]
    assert s.tobytes() == np.stack(one_by_one).tobytes()


def test_singular_values_of_a_stack_reject_a_nonfinite_matrix():
    stack = np.ones((3, 2, 2), dtype=complex)
    stack[2, 1, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        numkernel.singular_values(stack)


def test_numerical_rank_takes_one_matrix():
    with pytest.raises(ValueError, match="one spectrum"):
        numkernel.numerical_rank(np.ones((2, 3, 3)))


def test_singular_values_rejects_zero_dimension():
    with pytest.raises(ValueError):
        numkernel.singular_values(np.zeros((0, 3)))


def test_singular_values_rejects_nonfinite():
    a = np.ones((2, 2), dtype=complex)
    a[0, 0] = np.nan
    with pytest.raises(ValueError):
        numkernel.singular_values(a)


# ---------------------------------------------------------------------------
# stack_capacity and its 2x2 closed form

def _blocks(kind, seed, count):
    rng = np.random.default_rng(seed)
    if kind == "rayleigh":
        return _randc(rng, (count, 2, 2))
    if kind == "rank_one":  # planar LoS: an outer product
        return _randc(rng, (count, 2))[:, :, None] * _randc(rng, (count, 2))[:, None, :]
    if kind == "equal":  # a scaled unitary
        return np.linalg.qr(_randc(rng, (count, 2, 2)))[0] * rng.uniform(0.5, 2.0, (count, 1, 1))
    return np.zeros((count, 2, 2), dtype=complex)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(("rayleigh", "rank_one", "equal", "zero")),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 6),
    exponent=st.floats(-150.0, 150.0),
)
def test_closed_form_2x2_spectrum_matches_lapack(kind, seed, count, exponent):
    h = _blocks(kind, seed, count) * 10.0**exponent
    got = numkernel._two_by_two_spectrum(h.reshape(1, count, 2, 2)).T
    want = np.linalg.svd(h, compute_uv=False)
    eps = np.finfo(float).eps
    assert np.all(got >= 0.0) and np.all(got[:, 0] >= got[:, 1])
    assert np.all(np.abs(got[:, 0] - want[:, 0]) <= 1e-13 * want[:, 0])
    assert np.all(np.abs(got[:, 1] - want[:, 1]) <= 8 * eps * want[:, 0])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    kinds=st.lists(st.sampled_from(("rayleigh", "rank_one", "equal", "zero")),
                   min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=6),
    mixed=st.booleans(),
    planes=st.booleans(),
    power=st.floats(1e-3, 1e3),
    noise=st.floats(1e-3, 10.0),
)
def test_stack_capacity_is_the_two_call_route_bit_for_bit(
        kinds, seed, exponents, mixed, planes, power, noise):
    # a (kinds, blocks) stack, one decade scale per block; `mixed` gives
    # every entry its own scale in the same 300 decades instead, and
    # `planes` passes the stack as a strided view of entry planes, the
    # layout the phase ascent hands in
    rng = np.random.default_rng(seed)
    count = len(exponents)
    h = np.stack([_blocks(kind, int(rng.integers(2**32)), count) for kind in kinds])
    scale = rng.uniform(-150.0, 150.0, h.shape) if mixed else np.array(exponents)[:, None, None]
    h = h * 10.0**scale
    if planes:
        h = np.ascontiguousarray(h.reshape(len(kinds), count, 4).transpose(2, 0, 1))
        h = h.transpose(1, 2, 0).reshape(len(kinds), count, 2, 2)
    got = numkernel.stack_capacity(h, power, noise)
    sv = oracles.stack_singular_values(h)
    want = numkernel.capacity_closed_form(sv.reshape(-1, 2), power, noise)
    assert got.shape == (len(kinds), count)
    assert got.tobytes() == want.reshape(got.shape).tobytes()


@pytest.mark.parametrize("shape", [(4, 3, 2), (2, 2, 3), (5, 1, 2), (3, 2, 4, 4), (2, 1, 1)])
def test_stack_capacity_of_other_shapes_is_the_two_call_route(shape):
    rng = np.random.default_rng(5)
    h = _randc(rng, shape) * 10.0 ** rng.uniform(-100.0, 100.0, shape[:-2] + (1, 1))
    got = numkernel.stack_capacity(h, 2.0, 0.5)
    sv = oracles.stack_singular_values(h)
    want = numkernel.capacity_closed_form(sv.reshape(-1, sv.shape[-1]), 2.0, 0.5)
    assert got.tobytes() == want.reshape(shape[:-2]).tobytes()


def test_svd_reconstruction():
    rng = np.random.default_rng(3)
    a = _randc(rng, (5, 4))
    res = numkernel.svd(a)
    rec = res.left_vectors @ np.diag(res.singular_values) @ res.right_vectors.conj().T
    rel = np.linalg.norm(rec - a) / np.linalg.norm(a)
    assert rel <= 1e-10
    eye = res.left_vectors.conj().T @ res.left_vectors
    assert np.allclose(eye, np.eye(4), atol=1e-12)


# ---------------------------------------------------------------------------
# numerical_rank

def test_rank_identity():
    assert numkernel.numerical_rank(np.eye(3)) == 3


def test_rank_outer_product():
    rng = np.random.default_rng(7)
    u = _randc(rng, 4)
    v = _randc(rng, 5)
    assert numkernel.numerical_rank(np.outer(u, v.conj())) == 1


def test_rank_of_product_cross_checked():
    rng = np.random.default_rng(11)
    a = _randc(rng, (4, 2))
    b = _randc(rng, (2, 4))
    prod = a @ b
    r = numkernel.numerical_rank(prod)
    assert r <= 2
    sv = oracles.jacobi_singular_values(prod)
    r_oracle = int(np.sum(sv > 1e-8 * sv[0]))
    assert r == r_oracle


def test_rank_zero_matrix():
    assert numkernel.numerical_rank(np.zeros((3, 3))) == 0


def test_spectrum_rank_is_the_rank_rule():
    rng = np.random.default_rng(13)
    for a in (np.eye(3), np.zeros((2, 2)), _randc(rng, (4, 2)) @ _randc(rng, (2, 5))):
        s = numkernel.singular_values(a)
        assert numkernel.spectrum_rank(s) == numkernel.numerical_rank(a)


def test_product_rank_inequality_sample():
    # spot check of the r(AB) <= min(r(A), r(B)) law; the acceptance
    # suite runs the full thousand pairs
    rng = np.random.default_rng(13)
    for _ in range(100):
        m, k, n = rng.integers(1, 7, size=3)
        a = _randc(rng, (m, k))
        b = _randc(rng, (k, n))
        ra = numkernel.numerical_rank(a)
        rb = numkernel.numerical_rank(b)
        assert numkernel.numerical_rank(a @ b) <= min(ra, rb)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    dims=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
    widths=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    seed=st.integers(0, 2**32 - 1),
)
def test_product_rank_is_at_most_either_factor_rank(dims, widths, seed):
    # A = X Y and B = V W with inner widths r_a and r_b, so each factor has
    # rank min(its shape, its width); a zero width gives the zero matrix
    rng = np.random.default_rng(seed)
    (m, k, n), (wa, wb) = dims, widths
    a = _randc(rng, (m, wa)) @ _randc(rng, (wa, k))
    b = _randc(rng, (k, wb)) @ _randc(rng, (wb, n))
    ra, rb = numkernel.numerical_rank(a), numkernel.numerical_rank(b)
    assert (ra, rb) == (min(m, k, wa), min(k, n, wb))
    assert numkernel.numerical_rank(a @ b) <= min(ra, rb)


# ---------------------------------------------------------------------------
# condition_number (a test-side oracle; the package computes no conditioning)

def test_condition_identity():
    assert oracles.condition_number(np.eye(3)) == pytest.approx(1.0)


def test_condition_diagonal():
    assert oracles.condition_number(np.diag([10.0, 1.0])) == pytest.approx(10.0)


def test_condition_rank1_infinite():
    phases = np.exp(1j * np.linspace(0.0, 3.0, 4))
    los = np.outer(phases, phases.conj())
    assert oracles.condition_number(los) == np.inf


def test_condition_zero_matrix_rejected():
    with pytest.raises(ValueError):
        oracles.condition_number(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# water-filling

def test_capacity_scalar_awgn():
    assert _capacity(np.array([[1.0]]), 1.0, 1.0) == pytest.approx(1.0)


def test_capacity_identity_2x2():
    c = _capacity(np.eye(2), 2.0, 1.0)
    assert c == pytest.approx(2.0, abs=1e-9)


def test_capacity_matches_gridsearch_oracle():
    rng = np.random.default_rng(2024)
    h = _randc(rng, (4, 4))
    c = _capacity(h, 10.0, 1.0)
    ref = oracles.gridsearch_waterfill_capacity(
        numkernel.singular_values(h), 10.0, 1.0)
    assert abs(c - ref) <= 1e-3


def test_capacity_zero_matrix():
    assert _capacity(np.zeros((3, 3)), 5.0, 1.0) == 0.0


@pytest.mark.parametrize("p, n", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_capacity_rejects_bad_powers(p, n):
    with pytest.raises(ValueError):
        _capacity(np.eye(2), p, n)


def test_waterfill_powers_sum_and_positivity():
    p = numkernel.waterfill_powers([2.0, 1.0, 0.1], 5.0, 1.0)
    assert p.shape == (3,)
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 5.0) <= 1e-8


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=4, max_size=4),
        min_size=1, max_size=6),
    power=st.floats(1e-3, 1e3),
    noise=st.floats(1e-12, 10.0),
)
def test_waterfill_rows_are_nonnegative_and_spend_the_budget(rows, power, noise):
    s = np.array(rows)
    p = numkernel._waterfill_batch(s, power, noise)
    assert p.shape == s.shape
    assert np.all(p >= 0.0)
    assert np.all(p[s == 0.0] == 0.0)
    for row, alloc in zip(s, p):
        if np.any(row > 0.0):
            assert abs(alloc.sum() - power) <= 1e-9 * power
        else:
            # a row with no usable mode allocates nothing
            assert np.all(alloc == 0.0)


def test_capacity_monotone_in_power():
    rng = np.random.default_rng(5)
    h = _randc(rng, (3, 3))
    caps = [_capacity(h, p, 1.0) for p in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(c2 >= c1 for c1, c2 in zip(caps, caps[1:]))


def test_unitary_invariance():
    rng = np.random.default_rng(17)
    a = _randc(rng, (4, 4))
    q1, _ = np.linalg.qr(_randc(rng, (4, 4)))
    q2, _ = np.linalg.qr(_randc(rng, (4, 4)))
    s1 = numkernel.singular_values(a)
    s2 = numkernel.singular_values(q1 @ a @ q2)
    assert np.max(np.abs(s1 - s2)) <= 1e-9 * s1[0]


def test_waterfilling_dominates_uniform():
    rng = np.random.default_rng(19)
    for _ in range(20):
        h = _randc(rng, (3, 4))
        s = numkernel.singular_values(h)
        c_wf = _capacity(h, 6.0, 1.0)
        c_eq = float(np.sum(np.log2(1.0 + (6.0 / s.size) * s**2)))
        assert c_wf >= c_eq - 1e-9


def test_closed_form_agrees_with_gridsearch_oracle():
    # the closed form shares its water level with waterfill_powers; the
    # oracle shares nothing
    rng = np.random.default_rng(23)
    for _ in range(50):
        s = np.sort(np.abs(rng.normal(size=4)))[::-1]
        ref = oracles.gridsearch_waterfill_capacity(s, 7.0, 0.5, rounds=4)
        c = numkernel.capacity_closed_form(s, 7.0, 0.5)
        assert abs(c - ref) <= 1e-7


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    svals=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1, max_size=4),
    power=st.floats(1e-3, 1e3),
    noise=st.floats(1e-12, 10.0),
)
def test_closed_form_matches_the_sum_over_water_filled_modes(svals, power, noise):
    # log2(level * gain) summed over the active modes cancels when
    # level * gain is near 1, far below the noise; this bounds that loss
    # against the per-mode sum, whose log1p keeps every digit
    s = np.array(svals)
    p = numkernel.waterfill_powers(s, power, noise)
    want = float(np.sum(np.log1p(p * s**2 / noise))) / math.log(2.0)
    got = numkernel.capacity_closed_form(s, power, noise)
    assert abs(got - want) <= 1e-12 + 1e-9 * want


_mode = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    pairs=st.lists(st.tuples(_mode, _mode), min_size=1, max_size=6),
    power=st.floats(1e-3, 1e3),
    noise=st.floats(1e-12, 10.0),
)
def test_two_mode_capacity_is_the_sorted_route_bit_for_bit(pairs, power, noise):
    # the fused 2x2 route's water level against `_water_level`, which
    # `capacity_closed_form` takes at every width; a zero third mode
    # changes no level or log sum
    s = np.array(pairs)
    g = (s**2 / noise).T
    got = numkernel._two_mode_capacity(np.stack((np.maximum(*g), np.minimum(*g))), power)
    want = numkernel.capacity_closed_form(s, power, noise)
    assert got.tobytes() == want.tobytes()
    padded = numkernel.capacity_closed_form(np.c_[s, np.zeros(len(s))], power, noise)
    assert padded.tobytes() == want.tobytes()
    assert numkernel.capacity_closed_form(s[0], power, noise) == want[0]


def test_equal_modes_keep_the_power_budget():
    # a bisection that stopped above its converged level handed out 1.5
    p = numkernel.waterfill_powers([1.0] * 4, 1.0, 1e-12)
    assert np.allclose(p, 0.25, rtol=1e-12, atol=0.0)
    assert abs(p.sum() - 1.0) <= 1e-12


def test_modes_far_below_the_noise_keep_the_budget():
    # level - 1/gain cancelled: 1.9000244 spent of 1.9, and a lone mode at
    # gain 1e-20 got no power at all
    p = numkernel.waterfill_powers([0.0, 0.0, 0.0, 1e-6], 1.9, 1.0)
    assert p.tolist() == [0.0, 0.0, 0.0, 1.9]
    assert numkernel.waterfill_powers([1e-10], 1.0, 1.0).tolist() == [1.0]


def test_modes_below_the_noise_by_more_than_the_float_range_are_unusable():
    # gains of 1e-310: their inverses overflow, and the level came out inf
    assert numkernel.capacity_closed_form([1e-5, 3e-6], 1.0, 1e300) == 0.0
    assert numkernel.waterfill_powers([1e-5, 3e-6], 1.0, 1e300).tolist() == [0.0, 0.0]
    h = np.full((3, 2, 2), 1e-5 + 0j)
    assert numkernel.stack_capacity(h, 1.0, 1e300).tolist() == [0.0] * 3


#: a singular value whose square, 2^-1024, is the largest gain at unit
#: noise whose inverse overflows
_EDGE = 2.0**-512


@pytest.mark.parametrize("noise", [1.0, 1e300, 1.7e308])
def test_the_three_routes_drop_the_same_unusable_modes(noise):
    values = [0.0, _EDGE, np.nextafter(_EDGE, 1.0), 1e-200, 3e-6, 1e-5, 1.0, 1e150]
    s = np.array([(a, b) for a in values for b in values])
    g = (s**2 / noise).T
    fused = numkernel._two_mode_capacity(np.stack((np.maximum(*g), np.minimum(*g))), 1.0)
    closed = numkernel.capacity_closed_form(s, 1.0, noise)
    assert fused.tobytes() == closed.tobytes()
    p = numkernel.waterfill_powers(s, 1.0, noise)
    usable = s**2 / noise > 2.0**-1024
    assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
    assert np.all(p[~usable] == 0.0)
    assert np.all(closed[~usable.any(axis=1)] == 0.0)
    assert np.all(p[usable.any(axis=1)].sum(axis=1) > 0.0)


def test_capacity_far_below_the_noise_is_never_negative():
    # nact log2(level) + sum log2(gain) cancels to the rounding of log2
    # values near +-990: 3 of these spectra came out negative, the least
    # at -1.137e-13, on every route
    s = -np.sort(-np.abs(np.random.default_rng(0).standard_normal((20000, 2))) * 10, axis=1)
    closed = numkernel.capacity_closed_form(s, 10.0, 1e300)
    fused = numkernel._two_mode_capacity((s**2 / 1e300).T, 10.0)
    assert np.all(closed >= 0.0) and np.any(closed == 0.0)
    assert fused.tobytes() == closed.tobytes()
    for cols in (2, 3):
        # a 2x2 stack takes the fused route, a 2x3 one the LAPACK route
        h = np.zeros((len(s), 2, cols), dtype=np.complex128)
        h[:, 0, 0], h[:, 1, 1] = s.T
        assert np.all(numkernel.stack_capacity(h, 10.0, 1e300) >= 0.0)


def test_high_snr_two_mode_sweep_keeps_the_budget():
    rng = np.random.default_rng(2108)
    h = (rng.standard_normal((2000, 2, 2))
         + 1j * rng.standard_normal((2000, 2, 2))) / np.sqrt(2.0)
    spectra = np.linalg.svd(h, compute_uv=False)
    noise = 10.0 ** -rng.uniform(6.0, 14.0, 2000)
    violations = 0
    for hm, s, n in zip(h, spectra, noise):
        p = numkernel.waterfill_powers(s, 1.0, n)
        violations += bool(np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-12)
        cap = numkernel.capacity_closed_form(s, 1.0, n)
        violations += abs(cap - oracles.capacity_2x2(hm, 1.0, n)) > 1e-9 * cap
    assert violations == 0


def test_batched_capacity_matches_scalar_loop():
    rng = np.random.default_rng(29)
    batch = np.abs(rng.normal(size=(6, 3)))
    vec = numkernel.capacity_closed_form(batch, 4.0, 1.0)
    for i in range(6):
        assert vec[i] == pytest.approx(
            numkernel.capacity_closed_form(batch[i], 4.0, 1.0), abs=1e-12)


def test_precoder_power_budget_and_rate():
    rng = np.random.default_rng(31)
    h = _randc(rng, (3, 4))
    f = numkernel.waterfill_precoder(h, 5.0, 1.0)
    assert float(np.sum(np.abs(f) ** 2)) <= 5.0 + 1e-8
    rate = numkernel.rate_with_precoder(h, f, 1.0)
    assert rate == pytest.approx(_capacity(h, 5.0, 1.0), abs=1e-7)


def test_rate_with_precoder_shape_check():
    rng = np.random.default_rng(37)
    h = _randc(rng, (2, 3))
    with pytest.raises(ValueError):
        numkernel.rate_with_precoder(h, _randc(rng, (2, 2)), 1.0)


def test_stacked_precoder_and_rate_match_single_channels():
    rng = np.random.default_rng(41)
    h = _randc(rng, (2, 3, 3, 4))
    h[0, 1] = 0.0
    f = numkernel.waterfill_precoder(h, 5.0, 0.5)
    rates = numkernel.rate_with_precoder(h[-1:], f, 0.5)
    assert f.shape == (2, 3, 4, 3) and rates.shape == (2, 3)
    for j in range(2):
        for t in range(3):
            one = numkernel.waterfill_precoder(h[j, t], 5.0, 0.5)
            assert one.tobytes() == f[j, t].tobytes()
            assert numkernel.rate_with_precoder(h[-1, t], one, 0.5) == rates[j, t]
    h[1, 2, 0, 0] = np.nan
    with pytest.raises(ValueError):
        numkernel.waterfill_precoder(h, 5.0, 0.5)


def test_complex_normal_unit_variance():
    z = complex_normal(np.random.default_rng(123), (200, 200))
    var = float(np.mean(np.abs(z) ** 2))
    assert abs(var - 1.0) <= 0.02
