import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import semireg.rng
from semireg.errors import ParameterError
from semireg.rng import _TILE_WORDS, Rng, _fnv1a64, _mix64, sample_dropout_mask


def test_same_seed_same_stream():
    a, b = Rng(1234), Rng(1234)
    assert np.array_equal(a.raw(100), b.raw(100))
    assert np.array_equal(a.uniforms(50), b.uniforms(50))
    assert np.array_equal(a.gaussians(33), b.gaussians(33))


def test_known_splitmix64_sequence():
    # Reference values for seed 0 from the published SplitMix64 recurrence.
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert Rng(0).raw(3).tolist() == expected


def test_stream_is_call_count_invariant():
    # Drawing 10 words in one call or two gives the same sequence.
    a, b = Rng(7), Rng(7)
    assert np.array_equal(a.raw(10), np.concatenate([b.raw(4), b.raw(6)]))


def test_uniforms_in_unit_interval():
    u = Rng(5).uniforms(10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_gaussian_moments_match_standard_normal():
    draws = Rng(42).gaussians(100_000)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.02


@pytest.mark.parametrize("p", [0.0, 0.05, 0.25, 0.5])
def test_dropout_mask_expectation(p):
    n_rows, n_cols = 400, 250
    keep = sample_dropout_mask(Rng(11), n_rows, n_cols, p)
    assert keep.dtype == bool
    # the inverted-dropout factors forward applies: 0 or 1/(1-p), mean 1
    mask = np.where(keep, 1.0 / (1.0 - p), 0.0)
    n = n_rows * n_cols
    se = np.sqrt(p / (1.0 - p) / n)  # var of an inverted-dropout entry is p/(1-p)
    assert abs(mask.mean() - 1.0) <= max(3.0 * se, 1e-12)


def test_dropout_zero_fraction_close_to_p():
    p = 0.05
    keep = sample_dropout_mask(Rng(3), 1000, 100, p)
    zero_frac = np.mean(~keep)
    assert abs(zero_frac - p) < 0.01


def test_dropout_mask_deterministic_and_validated():
    m1 = sample_dropout_mask(Rng(21), 17, 13, 0.3)
    m2 = sample_dropout_mask(Rng(21), 17, 13, 0.3)
    assert np.array_equal(m1, m2)
    with pytest.raises(ParameterError):
        sample_dropout_mask(Rng(0), 2, 2, 1.0)
    with pytest.raises(ParameterError):
        sample_dropout_mask(Rng(0), 2, 2, -0.1)


@pytest.mark.parametrize("p", [0.0, 0.05, 0.1, 0.25, 0.5, 0.9, 1 - 2**-53])
def test_dropout_mask_matches_its_uniform_definition(p):
    # the sampler compares raw words to an integer threshold; it must give the
    # documented keep bits, uniforms at or above p, exactly and consume the
    # same words
    for seed in (0, 7, 2**63 + 5):
        rng, ref_rng = Rng(seed), Rng(seed)
        rng.raw(3)
        ref_rng.raw(3)
        mask = sample_dropout_mask(rng, 37, 29, p)
        expected = ref_rng.uniforms(37 * 29).reshape(37, 29) >= p
        assert mask.dtype == expected.dtype == bool
        assert mask.tobytes() == expected.tobytes()
        assert rng.counter == ref_rng.counter


def test_dropout_mask_is_read_only():
    mask = sample_dropout_mask(Rng(4), 3, 2, 0.5)
    assert mask.dtype == bool and mask.flags.c_contiguous
    with pytest.raises(ValueError):
        mask[0, 0] = not mask[0, 0]


def test_split_streams_are_independent_and_reproducible():
    root = Rng(99)
    child1 = root.split("data")
    child2 = root.split("init_a")
    assert child1.seed != child2.seed
    assert np.array_equal(child1.raw(5), Rng(99).split("data").raw(5))
    # splitting does not consume from the parent stream
    assert np.array_equal(root.raw(5), Rng(99).raw(5))


def test_split_nesting_order_matters():
    r = Rng(1)
    assert r.split("a").split("b").seed != r.split("b").split("a").seed


def test_permutation_is_a_permutation():
    perm = Rng(17).permutation(1000)
    assert sorted(perm.tolist()) == list(range(1000))
    assert np.array_equal(perm, Rng(17).permutation(1000))


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_dropout_mask_rows_from_several_streams_match_one_call_per_stream(p):
    for seeds, cols in (((0, 2**64 - 1), 37), ((5, 6, 7), 1), ((9,), 0), ((), 4)):
        streams = [Rng(seed) for seed in seeds]
        refs = [Rng(seed) for seed in seeds]
        for i, (stream, ref) in enumerate(zip(streams, refs)):
            stream.raw(i)  # every stream at its own counter
            ref.raw(i)
        block = sample_dropout_mask(tuple(streams), len(seeds), cols, p)
        expected = [sample_dropout_mask(ref, 1, cols, p) for ref in refs]
        expected = np.concatenate(expected) if expected else np.zeros((0, cols), bool)
        assert block.shape == (len(seeds), cols) and block.dtype == bool
        assert block.tobytes() == expected.tobytes()
        assert [s.counter for s in streams] == [r.counter for r in refs]
        assert not block.flags.writeable


def test_dropout_mask_streams_must_be_one_distinct_stream_per_row():
    stream = Rng(1)
    with pytest.raises(ParameterError):
        sample_dropout_mask((stream,), 2, 3, 0.1)
    with pytest.raises(ParameterError):
        sample_dropout_mask((stream, stream), 2, 3, 0.1)
    assert stream.counter == 0


# (rows, cols) blocks of three column tiles, each _TILE_WORDS // rows columns
# wide (at least one); but for one-column tiles the last tile is narrower
ACROSS_TILE_EDGES = [
    (1, 2 * _TILE_WORDS + 5),
    (3, 2 * (_TILE_WORDS // 3) + 1),
    (7, 2 * (_TILE_WORDS // 7) + 3),
    (_TILE_WORDS + 1, 3),
]
# blocks of exactly _TILE_WORDS words, drawn in one tile
ONE_TILE = [(1, _TILE_WORDS), (4, _TILE_WORDS // 4)]


@pytest.mark.parametrize("rows, cols", ACROSS_TILE_EDGES + ONE_TILE)
def test_a_tiled_block_has_the_bits_of_its_uniform_definition(rows, cols):
    for p in (0.05, 0.5):
        rng, ref = Rng(13), Rng(13)
        rng.raw(5)
        ref.raw(5)
        mask = sample_dropout_mask(rng, rows, cols, p)
        expected = ref.uniforms(rows * cols).reshape(rows, cols) >= p
        assert mask.tobytes() == expected.tobytes()
        assert rng.counter == ref.counter
        assert mask.flags.c_contiguous and not mask.flags.writeable


@pytest.mark.parametrize("rows, cols", ACROSS_TILE_EDGES + ONE_TILE)
def test_a_tiled_block_of_several_streams_has_each_streams_bits(rows, cols):
    streams = [Rng(i).split("tile") for i in range(rows)]
    refs = [Rng(i).split("tile") for i in range(rows)]
    for i, (stream, ref) in enumerate(zip(streams, refs)):
        stream.raw(i % 3)  # the streams at different counters
        ref.raw(i % 3)
    mask = sample_dropout_mask(streams, rows, cols, 0.3)
    expected = np.stack([ref.uniforms(cols) >= 0.3 for ref in refs])
    assert mask.tobytes() == expected.tobytes()
    assert [s.counter for s in streams] == [r.counter for r in refs]


@pytest.mark.parametrize(
    "rows, cols, tiles",
    [(1, _TILE_WORDS, 1), (4, _TILE_WORDS // 4, 1), (1, _TILE_WORDS + 1, 2)]
    + [(rows, cols, 3) for rows, cols in ACROSS_TILE_EDGES],
)
def test_a_block_is_drawn_in_tiles_of_at_most_tile_words(monkeypatch, rows, cols, tiles):
    words, tile_words = semireg.rng._words, []

    def counted(seeds, starts, width):
        tile_words.append(len(seeds) * width)
        return words(seeds, starts, width)

    monkeypatch.setattr(semireg.rng, "_words", counted)
    sample_dropout_mask(Rng(2), rows, cols, 0.1)
    sample_dropout_mask([Rng(i) for i in range(rows)], rows, cols, 0.1)
    assert len(tile_words) == 2 * tiles and sum(tile_words) == 2 * rows * cols
    # a tile is one column when a column alone exceeds _TILE_WORDS
    assert max(tile_words) <= max(_TILE_WORDS, rows)


def test_a_large_draw_traces_its_result_and_one_tile():
    tracemalloc.start()
    try:
        mask = sample_dropout_mask(Rng(3), 1, 2**20, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.nbytes == 2**20
    assert peak <= mask.nbytes + 500_000


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
def test_split_matches_the_numpy_finalizer(seed):
    # split() finalizes on Python ints; the numpy _mix64 is the definition
    for label in ("a", "step:1199", "", "ünïcødé", "日本語", 42):
        h = _fnv1a64(str(label).encode("utf-8"))
        expected = int(_mix64(np.array([seed ^ h], dtype=np.uint64))[0])
        assert Rng(seed).split(label).seed == expected


def test_importing_rng_leaves_training_unloaded():
    # the package root imports no submodule, so one module loads on its own
    package_root = str(Path(semireg.rng.__file__).parents[1])
    probe = "import sys, semireg.rng; print('semireg.training' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {package_root!r}); {probe}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
