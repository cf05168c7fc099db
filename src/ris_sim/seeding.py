"""Deterministic RNG derivation.

Every stochastic routine takes an explicit integer seed and derives an
independent stream from it.  Sub-streams are labelled with strings so that
the draw order of one component never shifts another component's stream;
this is what lets a runner evaluate trials in any order or grouping, for
example stacked in chunks, with byte-identical results.

The key contract: `subseed(seed, label)` is the first 64-bit word of
numpy's `SeedSequence([seed, crc32(label)])`, and the stream of a key is
`default_rng(key)`, a PCG64 seeded through `SeedSequence(key)`.
`subseed` and `rng_from` compute this with numpy itself and serve one-off
draws.  `subseeds` and `KeyedStreams` reproduce the same keys and
generator states for whole arrays of seeds and labels in one vectorized
pass each; both algorithms are fixed by numpy's stream-stability policy
(NEP 19), and `tests/test_seeding.py` checks them against numpy bit for
bit.

Every run draws in one thread: a runner keys all of its trials' streams
up front and draws them into stacks, through one reused generator.  Each
runner keys one stream per row group (a trial, a trial and panel size,
or an own link) and draws all of its normals and uniforms through
`KeyedStreams.fill`, one call of each kind per stream.
"""

from __future__ import annotations

import math
import operator
import zlib

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF
_U128 = (1 << 128) - 1
_U32 = 0xFFFFFFFF

# numpy's SeedSequence: hash constants, pool of four 32-bit words, shift 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int):
    """(xor, multiply) constant pairs of `count` successive hash steps.

    The constants do not depend on the data, so each hash step is two
    scalar operations on a whole array.
    """
    out, h = [], init
    for _ in range(count):
        nxt = (h * mult) & _U32
        out.append((h, nxt))
        h = nxt
    return out


# 4 words filled in plus 12 pairwise mixes, then up to 8 output words
_MIX_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
_OUT_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value, consts):
    xor, mult = consts
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _state_words(entropy, n_words: int):
    """`SeedSequence(entropy).generate_state(n_words, uint32)` over arrays.

    `entropy` holds the four uint32 entropy words, each an array; words
    past the end of a shorter entropy are zeros, as `SeedSequence` pads.
    """
    consts = iter(_MIX_CONSTANTS)
    pool = [_hashmix(word, next(consts)) for word in entropy]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = (_MIX_MULT_L * pool[dst]
                         - _MIX_MULT_R * _hashmix(pool[src], next(consts)))
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    return [_hashmix(pool[i % _POOL], _OUT_CONSTANTS[i]) for i in range(n_words)]


def _words64(seeds):
    """Low and high uint32 words of a uint64 array."""
    return ((seeds & _U32).astype(np.uint32),
            (seeds >> np.uint64(32)).astype(np.uint32))


def _as_seeds(seeds) -> np.ndarray:
    if isinstance(seeds, np.ndarray):
        return seeds.astype(np.uint64, copy=False)
    return np.asarray(int(seeds) & _U64, dtype=np.uint64)


def subseed(seed: int, label: str) -> int:
    """Derive a child seed from (seed, label), stable across platforms."""
    crc = zlib.crc32(label.encode("utf-8"))
    ss = np.random.SeedSequence([int(seed) & _U64, crc])
    return int(ss.generate_state(1, np.uint64)[0])


def subseeds(seeds, labels) -> np.ndarray:
    """`subseed` over arrays: a uint64 array of subseed(seed, label).

    `seeds` is an int or a uint64 array, `labels` a string or a nested
    sequence of strings; the two broadcast against each other.
    """
    # object, not str: numpy's fixed-width strings drop trailing NULs
    labels = np.asarray(labels, dtype=object)
    crc = np.fromiter((zlib.crc32(s.encode("utf-8")) for s in labels.flat),
                      dtype=np.uint32, count=labels.size).reshape(labels.shape)
    seeds, crc = np.broadcast_arrays(_as_seeds(seeds), crc)
    shape = seeds.shape
    lo, hi = _words64(seeds.reshape(-1))
    crc = crc.reshape(-1)
    zero = np.zeros_like(crc)
    # SeedSequence takes a seed below 2**32 as one word and a larger one as
    # two, so the label's word moves with the width of the seed
    wide = hi != 0
    with np.errstate(over="ignore"):
        w0, w1 = _state_words((lo, np.where(wide, hi, crc), np.where(wide, crc, zero), zero), 2)
    return (w0.astype(np.uint64) | (w1.astype(np.uint64) << np.uint64(32))).reshape(shape)


class KeyedStreams:
    """Generators at the `default_rng(key)` state of every key of an array.

    The keys are `subseeds(seeds, labels)`, or `seeds` themselves without
    labels; `KeyedStreams(seed, label)[()]` draws what `rng_from(seed,
    label)` draws.  All keys and their PCG64 seeding words are derived up
    front, in one vectorized pass for the keys and one for the states.
    Indexing sets the one reused generator to the state of the indexed
    key and returns it, so a drawn generator is valid until the next
    index.  `keys` holds the uint64 keys, `passes` counts the vectorized
    passes and `draws` the generators handed out.
    """

    def __init__(self, seeds, labels=None):
        self.keys = keys = _as_seeds(seeds) if labels is None else subseeds(seeds, labels)
        lo, hi = _words64(keys)
        zero = np.zeros_like(lo)
        with np.errstate(over="ignore"):
            words = _state_words((lo, hi, zero, zero), 2 * _POOL)
        # generate_state(4, uint64): each 64-bit word is two 32-bit ones, low first
        self._words = np.stack([words[2 * i].astype(np.uint64)
                                | (words[2 * i + 1].astype(np.uint64) << np.uint64(32))
                                for i in range(_POOL)], axis=-1)
        self.passes = 1 if labels is None else 2
        self.draws = 0
        self._bit_generator = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bit_generator)

    def __getitem__(self, index) -> np.random.Generator:
        s_hi, s_lo, i_hi, i_lo = self._words[index].tolist()
        # PCG64 seeding: inc = (seq << 1) | 1, then two LCG steps around
        # adding the initial state
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _U128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _U128
        self._bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.draws += 1
        return self._generator

    def fill(self, cols, normals: np.ndarray, uniforms: np.ndarray) -> None:
        """Row i of `normals` and of `uniforms`, both (len(cols), ...),
        from the stream at position `cols[i]`.

        Each row's stream is set once and makes one `standard_normal` call
        into its normals row, then one `random` call into its uniforms
        row; a stream with nothing to draw is not set.
        """
        if not (normals.size or uniforms.size):
            return
        for index, normal, uniform in zip(cols, normals, uniforms):
            rng = self[index]
            rng.standard_normal(out=normal)
            rng.random(out=uniform)


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
