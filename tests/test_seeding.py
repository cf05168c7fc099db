"""Stacked key derivation against numpy's own SeedSequence and PCG64.

`subseeds` and `KeyedStreams` re-implement numpy's seeding arithmetic on
arrays; `subseed`, `rng_from` and `default_rng` are the reference.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ris_sim.seeding import (
    KeyedStreams,
    complex_normal,
    complex_normal_stack,
    fan_out,
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


def test_nested_label_levels_follow_subseed_chains():
    streams = KeyedStreams(9, [["trial/0", "trial/1"]], [["g"], ["h"]])
    assert streams.passes == 3
    for r, hop in enumerate("gh"):
        for c in range(2):
            key = subseed(subseed(9, f"trial/{c}"), hop)
            assert int(streams.keys[r, c]) == key
            assert np.array_equal(streams[r, c].standard_normal(3),
                                  np.random.default_rng(key).standard_normal(3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=seeds, shape=st.sampled_from([5, 1, (0,), (3, 0, 2), (2, 2), (64, 2)]))
@example(seed=2**64 - 1, shape=(64, 2))
def test_one_call_complex_normal_equals_the_two_draw_oracle(seed, shape):
    got = complex_normal(np.random.default_rng(seed), shape)
    want = oracles.two_draw_complex_normal(np.random.default_rng(seed), shape)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_complex_normal_stack_draws_each_block_from_its_generator_in_order():
    streams = KeyedStreams(3, [f"s{i}" for i in range(4)])
    out = np.empty((4, 3, 2), dtype=np.complex128)
    assert complex_normal_stack((streams[i] for i in range(4)), out, 0.3) is out
    for i in range(4):
        want = 0.3 * oracles.two_draw_complex_normal(rng_from(3, f"s{i}"), (3, 2))
        assert out[i].tobytes() == want.tobytes()


def _run_threads(target, count):
    """Run `target(i)` on `count` threads and join them, each join timed out."""
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=seeds, n_keys=st.integers(1, 9), n=st.integers(1, 40))
@example(seed=2**64 - 1, n_keys=2, n=1)
def test_threads_draw_interleaved_keys_through_their_own_generators(seed, n_keys, n):
    # two threads take alternate keys of one set of streams; in every
    # round both index before either draws, so a generator shared between
    # them would hand one thread the other's state
    streams = KeyedStreams(seed, [f"k{i}" for i in range(n_keys)])
    barrier = threading.Barrier(2, timeout=60)
    blocks = {}

    def worker(first):
        for i in range(first, first + n_keys + n_keys % 2, 2):
            rng = streams[i] if i < n_keys else None
            barrier.wait()
            if rng is not None:
                blocks[i] = rng.standard_normal(n)
            barrier.wait()

    _run_threads(worker, 2)
    assert sorted(blocks) == list(range(n_keys))
    for i, block in blocks.items():
        want = np.random.default_rng(int(streams.keys[i])).standard_normal(n)
        assert block.tobytes() == want.tobytes()
    assert streams.draws == n_keys


def test_draw_count_survives_thread_switches_between_indexings():
    # more threads than cores, switching as often as the interpreter
    # allows: the count stays exact without a lock
    streams = KeyedStreams(5, [f"k{i}" for i in range(8)])
    per_thread = 400
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads(lambda i: [streams[(i + j) % 8] for j in range(per_thread)], 6)
    finally:
        sys.setswitchinterval(interval)
    assert streams.draws == 6 * per_thread


@pytest.mark.parametrize("trials, threads", [(1, 4), (7, 1), (7, 2), (7, 3), (2, 8)])
def test_fan_out_gives_each_trial_to_one_worker(monkeypatch, trials, threads):
    monkeypatch.setattr("ris_sim.seeding._usable_cpus", lambda: 64)
    seen = []

    def work(first, step):
        seen.extend((t, first, step, threading.get_ident()) for t in range(first, trials, step))

    before = threading.active_count()
    workers = fan_out(work, trials, threads)
    assert workers == min(trials, threads)
    assert sorted(t for t, *_ in seen) == list(range(trials))
    assert {(first, step) for _, first, step, _ in seen} == {(w, workers) for w in range(workers)}
    # a pool thread that is idle again may take a second share
    assert len({ident for *_, ident in seen}) <= workers
    assert threading.active_count() == before


def test_fan_out_raises_what_a_worker_raised(monkeypatch):
    monkeypatch.setattr("ris_sim.seeding._usable_cpus", lambda: 64)

    def work(first, step):
        if first == 2:
            raise ValueError("trial 2")

    with pytest.raises(ValueError, match="trial 2"):
        fan_out(work, 4, 4)
