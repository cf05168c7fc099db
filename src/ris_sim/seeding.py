"""Deterministic RNG derivation.

Every stochastic routine takes an explicit integer seed and derives an
independent stream from it.  Streams are labelled with strings so that
the draw order of one component never shifts another component's stream.

The key contract: `subseed(seed, label)` is the first 64-bit word of
numpy's `SeedSequence([seed, crc32(label)])`, and `rng_from(seed, label)`
is `default_rng` of that key, a PCG64 seeded through `SeedSequence(key)`.

Every run draws in one thread, from a fixed number of generators that
does not grow with the trial count.  A runner seeds one generator per draw
kind, `"<runner>/normals"` and `"<runner>/uniforms"` (beamform one per
panel size, and LBT a third, `"lbt/access"`, for its polling orders and
backoffs), and draws its trials as consecutive rows of each: trial t's
row is the t-th run of values of its stream.  numpy's `standard_normal`
and `random` drawn in consecutive chunks equal one call bit for bit, so
no value depends on the chunking, and trial t's row depends on the seed
and t alone, not on the trial count.
"""

from __future__ import annotations

import math
import operator
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


#: what `(re + 1j * im) / sqrt(2)` multiplies each part by: numpy divides
#: by a real scalar as a multiply by its reciprocal
_PART_SCALE = 1.0 / math.sqrt(2.0)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance circularly symmetric complex normal entries of `shape`,
    an int or a tuple.

    One `standard_normal` call draws the real parts, then the imaginary
    parts, so Re and Im are each N(0, 1/2); the result equals
    `(re + 1j * im) / sqrt(2)` of two successive draws `re` and `im` bit
    for bit, except for the sign of an exactly zero part.
    """
    shape = tuple(shape) if np.iterable(shape) else (operator.index(shape),)
    out = np.empty((1,) + shape, dtype=np.complex128)
    return complex_from_parts(rng.standard_normal((1, 2) + shape), out, 1.0)[0]


def complex_from_parts(parts: np.ndarray, out: np.ndarray, scale: float) -> np.ndarray:
    """`scale * ((re + 1j * im) / sqrt(2))` of the standard normal parts
    `re = parts[:, 0]` and `im = parts[:, 1]`, written into `out`; returns
    `out`.  Each part is multiplied by 1 / sqrt(2), then by `scale` unless
    it is 1, straight into `out`: no complex temporary is built."""
    for dst, src in ((out.real, parts[:, 0]), (out.imag, parts[:, 1])):
        np.multiply(src, _PART_SCALE, out=dst)
        if scale != 1.0:
            dst *= scale
    return out
