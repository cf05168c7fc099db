"""Stacked key derivation against numpy's own SeedSequence and PCG64.

`subseeds` and `KeyedStreams` re-implement numpy's seeding arithmetic on
arrays; `subseed`, `rng_from` and `default_rng` are the reference.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ris_sim.seeding import (
    KeyedStreams,
    complex_normal,
    rng_from,
    subseed,
    subseeds,
)

_EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)

# seeds of every width from 0 to 64 bits, so both the one-word (below
# 2**32) and two-word entropy layouts of SeedSequence are drawn
seeds = st.integers(0, 64).flatmap(lambda bits: st.integers(0, (1 << bits) - 1))
labels = st.text(max_size=12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed_list=st.lists(seeds, min_size=1, max_size=6), label=labels)
@example(seed_list=list(_EDGES), label="")
@example(seed_list=list(_EDGES), label="théta/ü/7 ∠")
def test_stacked_keys_equal_subseed(seed_list, label):
    got = subseeds(np.array(seed_list, dtype=np.uint64), label)
    assert got.dtype == np.uint64
    assert got.tolist() == [subseed(s, label) for s in seed_list]


def test_keyed_streams_hand_out_one_reused_generator():
    # indexing re-seeds one generator, so indexed streams must be drawn
    # from before the next index: a tuple of them all sits at the last key
    streams = KeyedStreams(4, ["a", "b", "c"])
    held = tuple(streams[i] for i in range(3))
    assert all(rng is held[0] for rng in held)
    assert streams.draws == 3
    last = np.random.default_rng(int(streams.keys[2]))
    assert held[0].bit_generator.state == last.bit_generator.state
    assert [streams[i].standard_normal() for i in (2, 0)] == [
        rng_from(4, "c").standard_normal(), rng_from(4, "a").standard_normal()]
    assert streams.draws == 5


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=seeds, label_list=st.lists(labels, min_size=1, max_size=5))
@example(seed=2**64 - 1, label_list=["", "trial/0", "ü"])
@example(seed=0, label_list=["", "trial/0", "ü"])
def test_stacked_keys_broadcast_labels_over_a_seed(seed, label_list):
    got = subseeds(seed, [[lab] for lab in label_list])
    assert got.shape == (len(label_list), 1)
    assert got[:, 0].tolist() == [subseed(seed, lab) for lab in label_list]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed_list=st.lists(seeds, min_size=1, max_size=4))
@example(seed_list=list(_EDGES))
def test_keyed_streams_start_where_default_rng_starts(seed_list):
    streams = KeyedStreams(np.array(seed_list, dtype=np.uint64))
    for i, s in enumerate(seed_list):
        ref = np.random.default_rng(s)
        rng = streams[i]
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(rng.standard_normal(7), ref.standard_normal(7))
    assert streams.draws == len(seed_list)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=seeds, label_list=st.lists(labels, min_size=1, max_size=4), n=st.integers(1, 9))
@example(seed=2**32, label_list=["", "theta/3/1"], n=3)
@example(seed=2**32 - 1, label_list=["ü"], n=1)
def test_keyed_draws_equal_rng_from_bit_for_bit(seed, label_list, n):
    streams = KeyedStreams(seed, label_list)
    assert streams.passes == 2
    for i, label in enumerate(label_list):
        assert np.array_equal(streams[i].standard_normal((n, 2)),
                              rng_from(seed, label).standard_normal((n, 2)))
        assert np.array_equal(streams[i].uniform(0.0, 6.5, n),
                              rng_from(seed, label).uniform(0.0, 6.5, n))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=seeds, shape=st.sampled_from([5, 1, (0,), (3, 0, 2), (2, 2), (64, 2)]))
@example(seed=2**64 - 1, shape=(64, 2))
def test_one_call_complex_normal_equals_the_two_draw_oracle(seed, shape):
    got = complex_normal(np.random.default_rng(seed), shape)
    want = oracles.two_draw_complex_normal(np.random.default_rng(seed), shape)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("normals, uniforms", [(6, 4), (6, 0), (0, 3), (0, 0)])
def test_fill_draws_each_row_from_its_stream_in_two_calls(normals, uniforms):
    streams = KeyedStreams(5, [f"stale/{t}" for t in range(4)])
    cols = [3, 0, 2]
    drawn_n, drawn_u = np.empty((3, normals)), np.empty((3, uniforms))
    streams.fill(cols, drawn_n, drawn_u)
    for i, c in enumerate(cols):
        rng = rng_from(5, f"stale/{c}")
        assert drawn_n[i].tobytes() == rng.standard_normal(normals).tobytes()
        assert drawn_u[i].tobytes() == rng.random(uniforms).tobytes()
    # one state set per row, and none when there is nothing to draw
    assert streams.draws == (3 if normals or uniforms else 0)
