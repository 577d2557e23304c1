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
p), so it can be computed anywhere before it is drawn and still have the bits
of an inline draw. mask_helper uses that: a forked helper process computes a
known schedule of blocks on a second CPU while the caller runs. A CLI
command forks one helper per seed's work; a mask_helper opened inside an
active one does nothing. It stays because inline masks cost too much:
without it, ensembled inference drew 35-48% fewer row-draws a second in the
benchmark on a 2-vCPU VM, and a cheaper inline mask (two keep decisions per
word) re-draws every mask and failed an acceptance criterion. A helper thread
lost to the fork, since it needs the GIL between numpy calls.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import warnings
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


@functools.lru_cache(maxsize=256)  # split labels recur on every training step
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
    """Inverted-dropout keep bits: a read-only bool array, False with probability p.

    With one stream, defined as ``rng.uniforms(rows * cols).reshape(rows,
    cols) >= p``; mlp.forward scales the kept units by 1/(1-p). ``rng`` may
    instead be ``rows`` distinct streams: row i is then the next ``cols``
    words of stream i. Both forms draw the whole block in one _mix64 call,
    row i being ``mix64(seed_i + (start_i + 1 + j) * GAMMA)``, where one
    stream's rows start ``cols`` words apart. The raw words are compared
    against an integer threshold instead of being turned into uniforms:
    ``(w >> 11) * 2**-53 < p`` holds exactly when ``w < ceil(p * 2**53) <<
    11``, so the bits are the same. While a mask_helper is active, a
    one-stream draw whose key heads its pipe takes that block instead: the
    same bits, also read-only.
    """
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout probability must be in [0, 1), got {p}")
    if isinstance(rng, Rng):
        helper = mask_helper.active
        block = None if helper is None else helper.take((rng.seed, rng._counter, rows, cols, p))
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
    mask = _words(seeds, starts, cols) >= _threshold(p)
    mask.setflags(write=False)
    return mask


def _block_rows(seed: int, start: int, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    # (seeds, starts) of a block of one stream, its rows `cols` words apart
    starts = np.arange(rows, dtype=np.uint64) * np.uint64(cols)
    starts += np.uint64(start)
    return np.full(rows, seed, dtype=np.uint64), starts


def _threshold(p: float) -> np.uint64:
    # a unit is kept when its raw word is at least this
    return np.uint64(math.ceil(p * 2.0**53) << 11)


# Fewest mask words, over a helper's whole schedule, worth a helper. Its
# fixed cost, mostly the ~1,600 copy-on-write faults the fork causes in the
# caller, was 16-54 ms of system time per fork on a shared 2-vCPU Xeon VM,
# while a block taken from the helper saves its inline draw, 7-22 ns a word
# on that VM, less ~0.1 ns a word to unpack its keep bits. A helper per
# benchmark ablate_grid cell (~12M words) showed no gain; one over its four
# cells (46.5M) raised infer_row_draws_per_s 344k -> 526k (10 of 10 pairs).
_HELPER_MIN_WORDS = 2**24


class mask_helper:
    """``with mask_helper(keys):`` serves scheduled mask blocks from a helper process.

    ``keys`` are the ``(seed, start, rows, cols, p)`` of the one-stream
    sample_dropout_mask draws the body will make, in order. The outermost
    mask_helper is ``mask_helper.active`` from entry to exit; one entered
    while another is active does nothing, so a command that opens one over
    each seed's work forks at most one helper per seed. On entry the active
    one forks a helper that computes the keys and writes each block down one
    pipe as its keep bits, packed eight to a byte; it blocks while the pipe
    is full, so the pipe's capacity bounds how far ahead it runs. One rule
    serves the draws: a draw whose key equals the key of the block at the
    head of the pipe (``_next``) reads that block, waiting if the helper is
    behind; every other draw is inline, and the pipe keeps its place.
    ``_next`` is None when no helper was forked, after the last key, and once
    an end of file showed the helper died. No helper starts without fork and
    a second usable CPU (_can_fork), when the fork fails, or for fewer than
    _HELPER_MIN_WORDS scheduled words. On exit the pipe is closed, so the
    helper's next write fails and it leaves, and it is reaped.
    """

    active: mask_helper | None = None

    def __init__(self, keys: Sequence[tuple[int, int, int, int, float]]):
        self._keys = keys
        self._pending = iter(keys)
        self._pid, self._pipe = 0, None
        self._next = None  # the key of the block at the head of the pipe

    def __enter__(self) -> "mask_helper":
        if mask_helper.active is not None:
            return self
        mask_helper.active = self
        words = sum(rows * cols for _, _, rows, cols, _ in self._keys)
        if words < _HELPER_MIN_WORDS or not _can_fork():
            return self
        fds = []
        try:
            fds += os.pipe()
            # The helper runs numpy's elementwise loops only, never BLAS, so
            # the threads a BLAS library may hold do not matter in it.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                self._pid = os.fork()
            if self._pid == 0:  # the helper: run no more of the caller's code
                self._serve(*fds)
        except OSError:
            for fd in fds:
                os.close(fd)
            return self
        os.close(fds[1])
        # unbuffered, so each read takes only what its block needs
        self._pipe = open(fds[0], "rb", buffering=0)
        self._next = next(self._pending, None)
        return self

    def take(self, key) -> np.ndarray | None:
        """The read-only block of ``key`` if it heads the pipe, else None (draw it inline)."""
        if key != self._next:
            return None
        _, _, rows, cols, _ = key
        size = (rows * cols + 7) // 8
        packed = bytearray()
        while len(packed) < size:
            data = self._pipe.read(size - len(packed))
            if not data:  # the helper is gone
                self._next = None
                return None
            packed += data
        self._next = next(self._pending, None)
        bits = np.unpackbits(np.frombuffer(packed, np.uint8), count=rows * cols)
        block = bits.view(bool).reshape(rows, cols)
        block.setflags(write=False)
        return block

    def __exit__(self, *exc):
        if mask_helper.active is not self:
            return
        mask_helper.active = None
        if self._pipe is not None:
            self._pipe.close()
            try:
                os.waitpid(self._pid, 0)
            except ChildProcessError:  # already reaped, as under SIGCHLD = SIG_IGN
                pass

    def _serve(self, parent_end: int, pipe: int):
        # The helper process: write the packed keep bits of each scheduled
        # block in turn, and leave without running any of the parent's
        # cleanup. It leaves after the last block, or on any error: a write
        # fails once the parent's end is closed everywhere, which needs that
        # end closed here too; an interrupt ends it as well.
        status = 1
        try:
            os.close(parent_end)
            with open(pipe, "wb") as out:
                for seed, start, rows, cols, p in self._keys:
                    words = _words(*_block_rows(seed, start, rows, cols), cols)
                    out.write(np.packbits(words >= _threshold(p)))
                    out.flush()  # the caller may be waiting for this block
            status = 0
        finally:
            os._exit(status)


def _can_fork() -> bool:
    # a helper needs fork (Linux) and a second usable CPU
    return sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) >= 2
