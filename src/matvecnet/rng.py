"""Counter-based random streams for reproducible sampling.

Sample i of a run draws from its own generator, keyed by the user seed with
the sample index placed in the Philox counter block. Consequences:

* prefix stability: sample i's values do not depend on how many samples the
  caller asked for in total, so a 10k-sample run is a bit-exact prefix of a
  100k-sample run;
* partition independence: worker processes or threads can split the index
  range any way they like and still produce the same per-index draws;
* resampling isolation: the ``lane`` argument opens disjoint substreams for
  one index, used when a sample must be redrawn (for instance to move off a
  rectifier kink) without shifting anyone else's randomness.

:func:`stream` is the reference: it opens numpy's own Philox4x64-10
generator for one (seed, index, lane). :func:`uniform_rows` is the batched
path and returns bit-for-bit the same uniforms for a whole range of indices
at once. Philox is a pure function of (key, counter) (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), so every counter
block of the range is pushed through the ten rounds together in uint64
array arithmetic, with the 64x64 -> 128-bit multiply done on 32-bit halves.
The key is ``[seed mod 2^64, 0]``. Generator ``stream(seed, i, lane)``
starts from counter ``[0, lane, i, 0]``, and numpy increments the counter
before it generates, so its k-th block of four words (k = 0, 1, ...) is
Philox of counter ``[k + 1, lane, i, 0]``. Uniform j of the row is word j of
that sequence, mapped to [0, 1) as ``(word >> 11) * 2^-53``, exactly as
``Generator.random`` does.

Normal deviates come from an explicit Box-Muller transform rather than the
generator's own ziggurat method because Box-Muller consumes a fixed number
of uniforms per deviate. Rejection-style samplers consume a data-dependent
amount, which would break the fixed per-sample stream layout.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "uniform_rows", "box_muller"]

_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT_DOUBLE = np.uint64(11)

# Philox4x64 round multipliers and Weyl key increments (Random123 constants,
# the ones numpy's Philox uses).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_WORDS_PER_BLOCK = 4

# Counter blocks computed per pass of uniform_rows; bounds its scratch
# memory (eight arrays of this many uint64s, made once per call) for any row
# count. At 64 KiB each, they stay below glibc's default mmap threshold
# (128 KiB), so they come from heap memory rather than fresh pages.
_BLOCKS_PER_PASS = 1 << 13


def stream(seed: int, index: int, lane: int = 0) -> np.random.Generator:
    """Generator for sample `index` under `seed`, on resample lane `lane`."""
    if index < 0 or lane < 0:
        raise ValueError(f"index and lane must be nonnegative, got {index}, {lane}")
    counter = np.array([0, lane, index, 0], dtype=np.uint64)
    key = np.uint64(int(seed) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _mulhilo(a: int, b: np.ndarray, hi: np.ndarray, scratch: tuple) -> None:
    """The 128-bit products a * b: the high words into ``hi``, the low words over ``b``.

    numpy has no 128-bit integers, so the high word is assembled from the
    four 32 x 32 -> 64-bit partial products; no intermediate sum overflows.
    Every step writes into ``hi``, ``b`` or the three ``scratch`` arrays,
    all of b's shape, so no array is allocated.
    """
    a_lo = np.uint64(a & 0xFFFFFFFF)
    a_hi = np.uint64(a >> 32)
    cross, b_hi, t = scratch
    np.bitwise_and(b, _LOW32, out=cross)
    np.right_shift(b, _SHIFT32, out=b_hi)
    # cross = a_hi * b_lo + ((a_lo * b_lo) >> 32)
    np.multiply(cross, a_lo, out=hi)
    hi >>= _SHIFT32
    cross *= a_hi
    cross += hi
    # hi = (a_lo * b_hi + (cross & 0xFFFFFFFF)) >> 32
    np.multiply(b_hi, a_lo, out=t)
    np.bitwise_and(cross, _LOW32, out=hi)
    hi += t
    hi >>= _SHIFT32
    # hi += a_hi * b_hi + (cross >> 32)
    b_hi *= a_hi
    cross >>= _SHIFT32
    hi += b_hi
    hi += cross
    b *= np.uint64(a)


def _philox4x64(keys: list, c: list, scratch: list) -> list:
    """Philox4x64-10 of the counter words ``c`` (four arrays) in place, under a key schedule.

    ``keys`` holds each round's two key words. The rounds run in ``c`` and
    four ``scratch`` arrays of the same shape; the result is four of the
    arrays of ``c``, which it returns in word order.
    """
    c0, c1, c2, c3 = c
    hi, *products = scratch
    for k0, k1 in keys:
        # The next words are (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0).
        _mulhilo(_PHILOX_M[0], c0, hi, products)  # c0 now holds lo0
        c3 ^= hi
        c3 ^= k1
        _mulhilo(_PHILOX_M[1], c2, hi, products)  # c2 now holds lo1
        c1 ^= hi
        c1 ^= k0
        c0, c1, c2, c3 = c1, c2, c3, c0
    return [c0, c1, c2, c3]


def uniform_rows(seed: int, lo: int, hi: int, width: int, lane: int = 0) -> np.ndarray:
    """Uniforms on [0, 1) for sample indices lo..hi-1, one row per index.

    Row ``i - lo`` is bit-equal to ``stream(seed, i, lane).random(width)``.
    Indices are processed in passes of bounded size, so memory beyond the
    returned ``(hi - lo, width)`` array does not grow with the range: every
    pass runs its ten rounds in the same eight scratch arrays, made once per
    call, of at most ``_BLOCKS_PER_PASS`` words each (64 KiB) unless one row
    alone needs more.
    """
    if lo < 0 or lane < 0:
        raise ValueError(f"index and lane must be nonnegative, got {lo}, {lane}")
    if hi < lo or hi > 1 << 64:
        raise ValueError(f"index range [{lo}, {hi}) is not a range of uint64 indices")
    if width < 0:
        raise ValueError(f"width must be nonnegative, got {width}")
    out = np.empty((hi - lo, width))
    blocks = -(-width // _WORDS_PER_BLOCK)
    if blocks == 0 or hi == lo:
        return out
    key = int(seed) & _MASK64
    # Round r's key words: the key plus r Weyl increments, word by word.
    keys = [tuple(np.uint64((k + r * w) & _MASK64) for k, w in zip((key, 0), _PHILOX_W))
            for r in range(_PHILOX_ROUNDS)]
    # Counter word 0 of block k is k + 1: numpy increments before generating.
    block_counter = np.arange(1, blocks + 1, dtype=np.uint64)
    rows_per_pass = min(max(1, _BLOCKS_PER_PASS // blocks), hi - lo)
    offsets = np.arange(rows_per_pass, dtype=np.uint64)[:, None]
    buffers = [np.empty(rows_per_pass * blocks, dtype=np.uint64) for _ in range(8)]
    for start in range(lo, hi, rows_per_pass):
        rows = min(rows_per_pass, hi - start)
        c0, c1, c2, c3, *scratch = (b[:rows * blocks].reshape(rows, blocks) for b in buffers)
        c0[...] = block_counter
        c1.fill(lane)
        np.add(offsets[:rows], np.uint64(start), out=c2)
        c3.fill(0)
        words = _philox4x64(keys, [c0, c1, c2, c3], scratch)
        # Word j of block k is uniform 4k + j of the row.
        for j, word in enumerate(words):
            columns = out[start - lo: start - lo + rows, j::_WORDS_PER_BLOCK]
            word >>= _SHIFT_DOUBLE
            np.multiply(word[:, :columns.shape[1]], 2.0 ** -53, out=columns)
    return out


def box_muller(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two arrays of standard normals from two arrays of uniforms on [0, 1).

    Uses log1p(-u1) so a drawn 0.0 maps to log(1) = 0 instead of log(0);
    the radius is then finite for every representable uniform.
    """
    radius = np.sqrt(-2.0 * np.log1p(-np.asarray(u1)))
    angle = 2.0 * np.pi * np.asarray(u2)
    return radius * np.cos(angle), radius * np.sin(angle)
