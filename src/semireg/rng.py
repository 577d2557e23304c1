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
caller. The helper gets copies of the (seed, start) values and never touches
an Rng: sample_dropout_mask still advances the caller's stream, and takes a
block only when its draw has exactly a scheduled key and the block is ready.
Every other draw, and every draw when no helper can run, is computed inline
with the same bits.
"""

from __future__ import annotations

import math
import os
import select
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
    draw from a stream inside mask_helper whose key is scheduled returns the
    helper's block instead, a read-only copy, when the block is ready.
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
    threshold = np.uint64(math.ceil(p * 2.0**53) << 11)
    words = _words(seeds, starts, cols)
    # bool * keep is exactly 0.0 or keep, as in the definition, and faster;
    # the float64 mask overwrites the words it was computed from
    return np.multiply(words >= threshold, 1.0 / (1.0 - p), out=words.view(np.float64))


# Fewest scheduled mask words worth a helper. Its fixed cost, mostly the
# ~1,600 copy-on-write faults the fork causes in the caller, was 16-54 ms of
# system time per call on a shared 2-vCPU Xeon VM, while a block taken from
# the helper saves ~5 ns a word (~6.5 ns to draw inline, ~1.5 ns to copy):
# it pays off only past ~10M words. At ~12M (100 epochs of a 90-row, 5-draw
# validation pass of a 64x64 pair) benchmark runs showed no gain.
_HELPER_MIN_WORDS = 2**24
# Blocks the helper may compute ahead of the caller (at most 1 MiB each, see
# ensemble._CHUNK_WORDS). On a shared 2-vCPU VM, asking the helper for a ~1 ms
# block and getting it back took 2.5 ms at the median and 17 ms at the 90th
# percentile, so it works several blocks ahead instead of one.
_RING_BLOCKS = 8
# How long (ms) a draw waits for its block before drawing it inline: never,
# as a late helper must not stall the caller. Tests raise it so that every
# scheduled draw takes the helper's block.
_WAIT_MS = 0


@contextmanager
def mask_helper(streams: Sequence[Rng], keys: Sequence[tuple[int, int, int, int, float]]):
    """Compute scheduled mask blocks of ``streams`` in a helper process while the body runs.

    ``keys`` are the ``(seed, start, rows, cols, p)`` of one-stream
    sample_dropout_mask draws the body will make from ``streams``, in
    order. A forked helper computes them ahead into shared memory; a draw
    from one of ``streams`` whose key is scheduled takes that block if it is
    ready (skipping any earlier ones never drawn), and every other draw is
    computed inline. Where the helper cannot run (no fork, fewer than 2
    usable CPUs, a failed fork, a helper that died) or would not pay for
    itself (fewer than _HELPER_MIN_WORDS scheduled), draws are inline too,
    so the bits are the same either way. The helper is gone when the body
    exits, whichever way it exits.
    """
    keys = [key for key in keys if key[2] * key[3] > 0]
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

    The helper computes the blocks in schedule order into a ring of
    _RING_BLOCKS slots of a shared memory file (block i in slot i mod
    _RING_BLOCKS) and reports each one's index on the "ready" pipe. After
    each draw the parent sends, on the "free" pipe, the index of the next
    block it will draw: the helper skips any block below it and computes at
    most _RING_BLOCKS blocks past it, so it never overwrites a block the
    parent may still take. A draw whose block is not ready is drawn inline
    at once, and a block is copied out with pread, so the parent never maps
    the ring. The helper leaves by os._exit when the parent's pipe closes,
    so it also ends when the parent dies.
    """

    def __init__(self, keys, pid: int, ring: int, slot_bytes: int, ready: int, free: int):
        self._keys = keys
        self._index = {key: i for i, key in enumerate(keys)}
        self._next = 0  # index of the first block still to be drawn
        self._done = 0  # 1 + the last block the helper reported
        self._pid, self._ring, self._slot_bytes = pid, ring, slot_bytes
        self._ready, self._free = ready, free
        self._poll = select.poll()
        self._poll.register(ready, select.POLLIN)

    @classmethod
    def start(cls, keys) -> "_MaskHelper | None":
        """Fork a helper for ``keys``, or None when that fails."""
        slot_bytes = 8 * max(rows * cols for _, _, rows, cols, _ in keys)
        fds = []
        try:
            fds.append(os.memfd_create("semireg-masks"))
            os.ftruncate(fds[0], _RING_BLOCKS * slot_bytes)
            fds += [*os.pipe(), *os.pipe()]
            # The helper runs numpy's elementwise loops only, never BLAS, so
            # the threads a BLAS library may hold do not matter in it.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
                if pid == 0:  # the helper: run no more of the caller's code
                    ring, ready_r, ready_w, free_r, free_w = fds
                    _serve(keys, ring, slot_bytes, free_r, ready_w, parent_ends=(ready_r, free_w))
        except OSError:
            for fd in fds:
                os.close(fd)
            return None
        ring, ready_r, ready_w, free_r, free_w = fds
        os.close(ready_w)
        os.close(free_r)
        os.set_blocking(free_w, False)  # a stalled helper's full pipe must not block a draw
        return cls(keys, pid, ring, slot_bytes, ready_r, free_w)

    def take(self, key) -> np.ndarray | None:
        """The read-only block of a scheduled ``key``, or None to draw it inline."""
        want = self._index.get(key)
        if want is None or want < self._next:
            return None
        self._next = want + 1
        block = None
        if self._reported(want):
            _, _, rows, cols, _ = key
            block = np.empty((rows, cols))
            offset = (want % _RING_BLOCKS) * self._slot_bytes
            if os.preadv(self._ring, [block], offset) == block.nbytes:
                block.setflags(write=False)
            else:
                block = None
        try:
            os.write(self._free, self._next.to_bytes(4, "little"))
        except OSError:  # the helper is gone, or stalled with its pipe full
            self._stop()
        return block

    def _reported(self, want: int) -> bool:
        # Read the helper's reports (waiting up to _WAIT_MS for them); True
        # when block `want` is in the ring.
        while want >= self._done:
            if not self._poll.poll(_WAIT_MS):
                return False
            reports = os.read(self._ready, 4096)  # whole 4-byte reports, in order
            if not reports:
                self._stop()  # the helper is gone: draw inline from here on
                return False
            self._done = int.from_bytes(reports[-4:], "little") + 1
        return True

    def _stop(self):
        self._index = {}
        for fd in (self._ready, self._free):
            if fd >= 0:
                os.close(fd)
        self._ready = self._free = -1

    def close(self):
        """End the helper and release its pipes and ring.

        Closing the pipes ends the helper at its next look at them, after at
        most the block it is computing; it is then reaped.
        """
        self._stop()
        os.close(self._ring)
        try:
            os.waitpid(self._pid, 0)
        except ChildProcessError:  # already reaped, as under SIGCHLD = SIG_IGN
            pass


def _serve(keys, ring: int, slot_bytes: int, free: int, ready: int, parent_ends: tuple[int, int]):
    # The helper process: compute the scheduled blocks into the ring as far
    # as the parent's last "next block" allows, and leave without running
    # any of the parent's cleanup. It leaves on the EOF of the parent's
    # pipe, which needs the parent's pipe ends closed here, or on any error
    # (an interrupt too): the parent then draws inline.
    status = 1
    try:
        for fd in parent_ends:
            os.close(fd)
        poll = select.poll()
        poll.register(free, select.POLLIN)
        i = wanted = 0  # the next block to compute; the parent's next draw
        while True:
            idle = i >= min(wanted + _RING_BLOCKS, len(keys))
            if poll.poll(-1 if idle else 0):
                message = os.read(free, 4096)  # whole 4-byte indices, in order
                if not message:
                    break
                wanted = int.from_bytes(message[-4:], "little")
                i = max(i, wanted)
                continue
            seed, start, rows, cols, p = keys[i]
            block = _mask_block(*_block_rows(seed, start, rows, cols), cols, p)
            if os.pwrite(ring, block, (i % _RING_BLOCKS) * slot_bytes) != block.nbytes:
                break
            os.write(ready, i.to_bytes(4, "little"))
            i += 1
        status = 0
    finally:
        os._exit(status)
