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

A pass covers up to ``_BLOCKS_PER_PASS`` = 2^15 counter blocks, so a
verification chunk (2,048 rows of 36 uniforms) or a dataset block (512 rows
of 72) is one pass; its rounds run in eight scratch arrays of 256 KiB, made
once per call. Each array operation of a pass is one numpy call that takes
the GIL, so the pass count and the calls per pass, not the arithmetic, are
what keep threads from sampling side by side. Rounds 1 and 2 therefore run
on vectors: block k of row i starts from counter ``[k + 1, lane, i, 0]``,
round 1 multiplies word 0, a block word, and word 2, a row word, and its
output is two row words and two block words, so round 2 multiplies one of
each again. Only round 2's xors combine a row word with a block word and
write the first ``(rows, blocks)`` arrays; rounds 3 to 10 run on those.

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
# memory (eight arrays of this many uint64s, 256 KiB each, made once per
# call) for any row count, and is large enough that a verification chunk or
# a dataset block is drawn in one pass.
_BLOCKS_PER_PASS = 1 << 15


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
    """Philox4x64 rounds of the counter words ``c`` (four arrays) in place, under a key schedule.

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
    pass runs its rounds in the same eight scratch arrays, made once per
    call, of at most ``_BLOCKS_PER_PASS`` words each (256 KiB) unless one
    row alone needs more. Rounds 1 and 2 run on one vector of block words
    per call and one vector of row words per pass, since until round 2's
    xors no counter word depends on both the row and the block (see the
    module docstring).
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
    (k0_1, k1_1), (k0_2, k1_2) = keys[:2]
    lane_key = np.uint64(lane) ^ k0_1
    rows_per_pass = min(max(1, _BLOCKS_PER_PASS // blocks), hi - lo)
    offsets = np.arange(rows_per_pass, dtype=np.uint64)
    buffers = [np.empty(rows_per_pass * blocks, dtype=np.uint64) for _ in range(8)]
    # Rounds 1 and 2 on vectors; the heads of three scratch arrays, free
    # until round 3, hold their products' partial sums. The vectors are
    # named for the counter word each holds after round 2.
    # Block words: round 1 multiplies word 0, which is k + 1 for block k
    # (numpy increments the counter before generating), into words 2 and 3;
    # round 2 multiplies word 2 into words 0 and 1.
    block_c2, block_c1, block_c0 = np.empty((3, blocks), dtype=np.uint64)
    block_c2[:] = np.arange(1, blocks + 1, dtype=np.uint64)
    products = [b[:blocks] for b in buffers[5:]]
    _mulhilo(_PHILOX_M[0], block_c2, block_c1, products)
    block_c1 ^= k1_1
    _mulhilo(_PHILOX_M[1], block_c1, block_c0, products)
    block_c0 ^= k0_2
    block_c2 ^= k1_2
    row_words = np.empty((3, rows_per_pass), dtype=np.uint64)
    for start in range(lo, hi, rows_per_pass):
        rows = min(rows_per_pass, hi - start)
        c0, c1, c2, c3, *scratch = (b[:rows * blocks].reshape(rows, blocks) for b in buffers)
        # Row words: round 1 multiplies word 2, the index, into words 0 and
        # 1; round 2 multiplies word 0 into words 2 and 3.
        row_c1, row_c2, row_c3 = row_words[:, :rows]
        products = [b[:rows] for b in buffers[5:]]
        np.add(offsets[:rows], np.uint64(start), out=row_c1)
        _mulhilo(_PHILOX_M[1], row_c1, row_c3, products)
        row_c3 ^= lane_key
        _mulhilo(_PHILOX_M[0], row_c3, row_c2, products)
        # Round 2's xors, the first words that depend on row and block.
        np.bitwise_xor(row_c1[:, None], block_c0, out=c0)
        c1[...] = block_c1
        np.bitwise_xor(row_c2[:, None], block_c2, out=c2)
        c3[...] = row_c3[:, None]
        words = _philox4x64(keys[2:], [c0, c1, c2, c3], scratch)
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
