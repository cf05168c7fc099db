"""Deterministic RNG derivation.

Every stochastic routine takes an explicit integer seed and derives an
independent stream from it.  Sub-streams are labelled with strings so that
the draw order of one component never shifts another component's stream;
this is what lets a runner evaluate trials in any order or grouping, for
example stacked in chunks, with byte-identical results.
"""

from __future__ import annotations

import zlib

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF


def subseed(seed: int, label: str) -> int:
    """Derive a child seed from (seed, label), stable across platforms."""
    crc = zlib.crc32(label.encode("utf-8"))
    ss = np.random.SeedSequence([int(seed) & _U64, crc])
    return int(ss.generate_state(1, np.uint64)[0])


def rng_from(seed: int, label: str | None = None) -> np.random.Generator:
    """Generator seeded from `seed`, optionally forked by a stream label."""
    if label is not None:
        seed = subseed(seed, label)
    return np.random.default_rng(int(seed) & _U64)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    # unit-variance circularly symmetric entries: Re and Im each N(0, 1/2)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)
