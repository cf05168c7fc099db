"""Seeding: the one-call complex normal draw, and the chunk invariance of
numpy's draws that lets a run draw its trials as consecutive rows of one
generator.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ris_sim.seeding import complex_normal, rng_from

# seeds of every width from 0 to 64 bits
seeds = st.integers(0, 64).flatmap(lambda bits: st.integers(0, (1 << bits) - 1))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=seeds, width=st.integers(0, 7),
       chunks=st.lists(st.integers(0, 13), min_size=1, max_size=6))
def test_chunked_draws_equal_one_call_bit_for_bit(seed, width, chunks):
    # a run fills (chunk, width) rows chunk after chunk: the rows equal one
    # call for all of them, so no value depends on the chunking and row t
    # does not depend on how many rows follow it
    total = sum(chunks)
    for draw in ("standard_normal", "random"):
        whole = getattr(rng_from(seed, "whole"), draw)(out=np.empty((total, width)))
        rng = rng_from(seed, "whole")
        parts = [getattr(rng, draw)(out=np.empty((c, width))) for c in chunks]
        assert np.concatenate(parts).tobytes() == whole.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=seeds, shape=st.sampled_from([5, 1, (0,), (3, 0, 2), (2, 2), (64, 2)]))
@example(seed=2**64 - 1, shape=(64, 2))
def test_one_call_complex_normal_equals_the_two_draw_oracle(seed, shape):
    got = complex_normal(np.random.default_rng(seed), shape)
    want = oracles.two_draw_complex_normal(np.random.default_rng(seed), shape)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
