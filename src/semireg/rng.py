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

A mask block is a pure function of (stream seed, start counter, rows, cols,
p), so it can be computed anywhere before it is drawn. Inside mask_helper a
forked helper process computes a known schedule of such blocks ahead of the
caller and sends each one down a pipe as its keep bits, packed eight to a
byte. The helper gets copies of the (seed, start) values and never touches
an Rng: sample_dropout_mask still advances the caller's stream, and reads a
block from the pipe while its draws keep to the schedule, in order. The
first draw off the schedule ends the helper; it, every later draw, and every
draw when no helper can run are computed inline with the same bits.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from collections.abc import Sequence
from contextlib import contextmanager

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

    __slots__ = ("seed", "_counter", "_helper")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._counter = 0
        self._helper: _MaskHelper | None = None  # set inside mask_helper only

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
    for bit. The mask is written into the buffer that held the words. A
    draw from a stream inside mask_helper whose key is the next scheduled
    one returns instead the helper's keep bits scaled the same way, also
    read-only.
    """
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout probability must be in [0, 1), got {p}")
    if isinstance(rng, Rng):
        if rng._helper is not None:
            block = rng._helper.take((rng.seed, rng._counter, rows, cols, p))
            if block is not None:
                rng._advance(rows * cols)
                return block
        seeds, starts = _block_rows(rng.seed, rng._advance(rows * cols), rows, cols)
    else:
        streams = tuple(rng)
        if len(streams) != rows or len({id(s) for s in streams}) != rows:
            raise ParameterError(f"need {rows} distinct streams, one per row, got {len(streams)}")
        seeds = np.array([s.seed for s in streams], dtype=np.uint64)
        starts = np.array([s._advance(cols) for s in streams], dtype=np.uint64)
    mask = _mask_block(seeds, starts, cols, p)
    mask.setflags(write=False)
    return mask


def _block_rows(seed: int, start: int, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    # (seeds, starts) of a block of one stream, its rows `cols` words apart
    starts = np.arange(rows, dtype=np.uint64) * np.uint64(cols)
    starts += np.uint64(start)
    return np.full(rows, seed, dtype=np.uint64), starts


def _mask_block(seeds: np.ndarray, starts: np.ndarray, cols: int, p: float) -> np.ndarray:
    # The (rows, cols) float64 mask of sample_dropout_mask: row i from the
    # stream seeded seeds[i], at counter starts[i].
    words = _words(seeds, starts, cols)
    # bool * keep is exactly 0.0 or keep, as in the definition, and faster;
    # the float64 mask overwrites the words it was computed from
    return np.multiply(words >= _threshold(p), 1.0 / (1.0 - p), out=words.view(np.float64))


def _threshold(p: float) -> np.uint64:
    # a unit is kept when its raw word is at least this
    return np.uint64(math.ceil(p * 2.0**53) << 11)


# Fewest scheduled mask words worth a helper. Its fixed cost, mostly the
# ~1,600 copy-on-write faults the fork causes in the caller, was 16-54 ms of
# system time per call on a shared 2-vCPU Xeon VM, while a block taken from
# the helper saves ~6 ns a word (~7 ns to draw inline, ~1 ns to unpack):
# it pays off only past ~10M words. At ~12M (100 epochs of a 90-row, 5-draw
# validation pass of a 64x64 pair) benchmark runs showed no gain.
_HELPER_MIN_WORDS = 2**24


@contextmanager
def mask_helper(streams: Sequence[Rng], keys: Sequence[tuple[int, int, int, int, float]]):
    """Compute scheduled mask blocks of ``streams`` in a helper process while the body runs.

    ``keys`` are the ``(seed, start, rows, cols, p)`` of the one-stream
    sample_dropout_mask draws the body will make from ``streams``, in
    order. A forked helper computes them ahead and sends them down a pipe,
    and each draw whose key is the next scheduled one waits for its block
    and takes it. The first draw from one of ``streams`` with any other key
    ends the helper: it, and every later draw, is computed inline. Where the
    helper cannot run (no fork, fewer than 2 usable CPUs, a failed fork, a
    helper that died) or would not pay for itself (fewer than
    _HELPER_MIN_WORDS scheduled), draws are inline too, so the bits are the
    same either way. The helper is gone when the body exits, whichever way
    it exits.
    """
    words = sum(rows * cols for _, _, rows, cols, _ in keys)
    helper = _MaskHelper.start(keys) if words >= _HELPER_MIN_WORDS and _can_fork() else None
    if helper is None:
        yield
        return
    for stream in streams:
        stream._helper = helper
    try:
        yield
    finally:
        for stream in streams:
            stream._helper = None
        helper.close()


def _can_fork() -> bool:
    # a helper needs fork (Linux) and a second usable CPU
    return sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) >= 2


class _MaskHelper:
    """The parent's end of a forked helper that computes scheduled mask blocks.

    The helper writes the blocks in schedule order down one pipe, each as
    its keep bits packed eight to a byte, and blocks while the pipe is full,
    so the pipe's capacity bounds how far ahead of the parent it runs. A
    draw with the next scheduled key reads its block's bytes, waiting for
    them if need be, and scales the unpacked bits to the mask. A draw with
    any other key, or an end of file (the helper is gone), closes the pipe:
    that draw and all later ones are inline. The helper leaves when a write
    fails, so once the parent closes its end or dies.
    """

    def __init__(self, keys, pid: int, pipe: int):
        self._keys = iter(keys)
        self._pid, self._pipe = pid, pipe

    @classmethod
    def start(cls, keys) -> "_MaskHelper | None":
        """Fork a helper for ``keys``, or None when that fails."""
        fds = []
        try:
            fds += os.pipe()
            # The helper runs numpy's elementwise loops only, never BLAS, so
            # the threads a BLAS library may hold do not matter in it.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
                if pid == 0:  # the helper: run no more of the caller's code
                    _serve(keys, *fds)
        except OSError:
            for fd in fds:
                os.close(fd)
            return None
        pipe, helper_end = fds
        os.close(helper_end)
        return cls(keys, pid, pipe)

    def take(self, key) -> np.ndarray | None:
        """The read-only block of ``key`` if it is the next scheduled one, else None (inline)."""
        if self._pipe < 0 or key != next(self._keys, None):
            self._stop()
            return None
        _, _, rows, cols, p = key
        size = (rows * cols + 7) // 8
        packed = bytearray()
        while len(packed) < size:
            data = os.read(self._pipe, size - len(packed))
            if not data:  # the helper is gone
                self._stop()
                return None
            packed += data
        bits = np.unpackbits(np.frombuffer(packed, np.uint8), count=rows * cols)
        block = np.multiply(bits.reshape(rows, cols), 1.0 / (1.0 - p))
        block.setflags(write=False)
        return block

    def _stop(self):
        if self._pipe >= 0:
            os.close(self._pipe)
            self._pipe = -1

    def close(self):
        """End the helper and release its pipe.

        Closing the pipe ends the helper at its next write, after at most the
        block it is computing; it is then reaped.
        """
        self._stop()
        try:
            os.waitpid(self._pid, 0)
        except ChildProcessError:  # already reaped, as under SIGCHLD = SIG_IGN
            pass


def _serve(keys, parent_end: int, pipe: int):
    # The helper process: write the packed keep bits of each scheduled block
    # in turn, and leave without running any of the parent's cleanup. It
    # leaves after the last block, or on any error: a write to the pipe
    # fails once the parent's end is closed everywhere, which needs that end
    # closed here too; an interrupt ends it as well.
    status = 1
    try:
        os.close(parent_end)
        for seed, start, rows, cols, p in keys:
            words = _words(*_block_rows(seed, start, rows, cols), cols)
            packed = memoryview(np.packbits(words >= _threshold(p)))
            while packed:
                packed = packed[os.write(pipe, packed) :]
        status = 0
    finally:
        os._exit(status)
