"""Seeded deterministic randomness built on SplitMix64 in counter mode.

The generator is fully specified here so that every stream can be reproduced
bit-for-bit from a 64-bit seed, independent of the host platform's RNG:

    raw(i) = mix64(seed + (i + 1) * GAMMA)   (all arithmetic mod 2**64)

where ``mix64`` is the SplitMix64 finalizer (Steele, Lea & Flood's
SplittableRandom) and ``GAMMA = 0x9E3779B97F4A7C15``. ``i`` is a running
counter of raw 64-bit words drawn from the stream, so the counter-mode form
produces exactly the sequential SplitMix64 sequence. Derived quantities:

  * uniforms: top 53 bits of a raw word, scaled to [0, 1)
  * gaussians: Box-Muller on uniform pairs (two raw words per pair)
  * permutations: stable argsort of raw words
  * substreams: ``split(label)`` reseeds a child with
    ``mix64(seed XOR fnv1a64(str(label)))``

Raw words, uniforms, masks and permutations are exact across platforms;
gaussians additionally go through libm's log/cos/sin, which is exact on a
given platform build. A single Rng must not be shared across threads.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_INV53 = float(2.0**-53)


def _mix64(z: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer, in place on a fresh uint64 array (returned);
    # uint64 array ops wrap mod 2**64 without warnings.
    shifted = np.empty_like(z)
    for shift, mult in ((_U30, _MIX1), (_U27, _MIX2)):
        z ^= np.right_shift(z, shift, out=shifted)
        z *= np.uint64(mult)
    z ^= np.right_shift(z, _U31, out=shifted)
    return z


def _mix64_int(z: int) -> int:
    # The same finalizer on one Python int, for the scalar seeds of split().
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _words(seeds: np.ndarray, starts: np.ndarray, cols: int) -> np.ndarray:
    # Row i: the `cols` words after counter starts[i] of the stream seeded
    # seeds[i], mix64(seeds[i] + (starts[i] + 1 + j) * GAMMA), in one call.
    offsets = starts * np.uint64(_GAMMA)
    offsets += seeds
    steps = np.arange(1, cols + 1, dtype=np.uint64)
    steps *= np.uint64(_GAMMA)
    return _mix64(np.add.outer(offsets, steps))


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class Rng:
    """Sequential SplitMix64 stream; single-owner, mutated on every draw."""

    __slots__ = ("seed", "_counter")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._counter = 0

    @property
    def counter(self) -> int:
        """Number of raw 64-bit words drawn so far."""
        return self._counter

    def raw(self, n: int) -> np.ndarray:
        """Next n raw uint64 words of the stream."""
        start = self._advance(n)
        return _words(np.array([self.seed], np.uint64), np.array([start], np.uint64), n)[0]

    def _advance(self, n: int) -> int:
        # Reserve the next n words; returns the counter before them.
        if n < 0:
            raise ParameterError("raw word count must be >= 0")
        start = self._counter
        self._counter += n
        return start

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return (self.raw(n) >> _U11).astype(np.float64) * _INV53

    def gaussians(self, n: int) -> np.ndarray:
        """n standard normal draws via Box-Muller (consumes 2*ceil(n/2) words)."""
        pairs = (n + 1) // 2
        u = self.raw(2 * pairs)
        # u1 in (0, 1] so log(u1) is finite; u2 in [0, 1)
        u1 = ((u[:pairs] >> _U11).astype(np.float64) + 1.0) * _INV53
        u2 = (u[pairs:] >> _U11).astype(np.float64) * _INV53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n) as int64 indices."""
        return np.argsort(self.raw(n), kind="stable").astype(np.int64)

    def split(self, label) -> "Rng":
        """Independent child stream derived from (seed, str(label))."""
        return Rng(_mix64_int(self.seed ^ _fnv1a64(str(label).encode("utf-8"))))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, counter={self._counter})"


def sample_dropout_mask(rng: Rng | Sequence[Rng], rows: int, cols: int, p: float) -> np.ndarray:
    """Inverted-dropout mask: entries 0 with probability p, else 1/(1-p).

    With one stream, defined as ``np.where(rng.uniforms(rows * cols)
    .reshape(rows, cols) < p, 0.0, 1 / (1 - p))``. ``rng`` may instead be
    ``rows`` distinct streams: row i is then the next ``cols`` words of
    stream i. Both forms draw the whole block in one _mix64 call, row i being
    ``mix64(seed_i + (start_i + 1 + j) * GAMMA)``, where one stream's rows
    start ``cols`` words apart. Surviving units are pre-scaled so the mask
    has unit expectation and the deterministic forward pass needs no
    rescaling. The raw words are compared against an integer threshold
    instead of being turned into uniforms: ``(w >> 11) * 2**-53 < p`` holds
    exactly when ``w < ceil(p * 2**53) << 11``, so the mask is the same bit
    for bit. The mask is written into the buffer that held the words.
    """
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout probability must be in [0, 1), got {p}")
    if isinstance(rng, Rng):
        seeds = np.full(rows, rng.seed, dtype=np.uint64)
        starts = np.arange(rows, dtype=np.uint64) * np.uint64(cols)
        starts += np.uint64(rng._advance(rows * cols))
    else:
        streams = tuple(rng)
        if len(streams) != rows or len({id(s) for s in streams}) != rows:
            raise ParameterError(f"need {rows} distinct streams, one per row, got {len(streams)}")
        seeds = np.array([s.seed for s in streams], dtype=np.uint64)
        starts = np.array([s._advance(cols) for s in streams], dtype=np.uint64)
    threshold = np.uint64(math.ceil(p * 2.0**53) << 11)
    words = _words(seeds, starts, cols)
    # bool * keep is exactly 0.0 or keep, as in the definition, and faster;
    # the float64 mask overwrites the words it was computed from
    mask = np.multiply(words >= threshold, 1.0 / (1.0 - p), out=words.view(np.float64))
    mask.setflags(write=False)
    return mask
