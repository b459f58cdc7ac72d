"""Tests for dataset generation and PGM IO."""
import hashlib
import tracemalloc

import numpy as np
import pytest

from disentlab.datasets import (
    circular_dataset_files,
    gen_circular_dsprites,
    gen_linear_gaussian_dataset,
    write_circular_dataset,
)
from disentlab.linalg import spd_sqrt, symmetrized
from disentlab.metrics import GeneratorSampler
from support import matched_generator, pgm_bytes, read_pgm

# lattice points with x² + y² ≤ 25
DISC_5_PIXELS = 81


IMAGES, FACTORS = gen_circular_dsprites()


def _gen(d=4, r=2):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((d, d))
    sigma = symmetrized(m @ m.T + d * np.eye(d))
    bt = rng.standard_normal((d, r))
    bt *= 0.9 / np.linalg.svd(bt, compute_uv=False)[0]
    b = spd_sqrt(sigma) @ bt
    return matched_generator(sigma, b)


def _frame(ri, ai):
    """The image of placement (radius_index, angle_index) in the fixed disc set."""
    return IMAGES[ri * 40 + ai]


class TestRasterizeDisc:
    def test_integer_center_radius_5(self):
        img = _frame(0, 0)
        assert img.shape == (64, 64)
        assert img.dtype == np.uint8
        assert int((img == 255).sum()) == DISC_5_PIXELS
        assert set(np.unique(img)) <= {0, 255}
        rows, cols = np.nonzero(img)
        assert np.all((rows - 32) ** 2 + (cols - 32) ** 2 <= 25)

    def test_px_is_column_py_is_row(self):
        # angle 0 moves the disc along the columns: frame (10, 0) is centered at column 42, row 32
        img = _frame(10, 0)
        assert img[32, 47] == 255
        assert img[47, 32] == 0
        assert np.array_equal(img[:, 10:], _frame(0, 0)[:, :-10])

    def test_quarter_turn_symmetry(self):
        # a quarter turn (angle 10 of 40) moves the disc along the rows instead: the transpose
        for ri in range(27):
            assert np.array_equal(_frame(ri, 10), _frame(ri, 0).T)


class TestCircularDataset:
    def test_count_and_order(self):
        assert IMAGES.shape == (1080, 64, 64)
        assert FACTORS.shape == (1080, 2)
        assert np.array_equal(FACTORS[:, 0], np.repeat(np.arange(27), 40))
        assert np.array_equal(FACTORS[:, 1], np.tile(np.arange(40), 27))

    def test_zero_radius_images_identical(self):
        first = IMAGES[0]
        for ai in range(1, 40):
            assert np.array_equal(IMAGES[ai], first)

    def test_binary_with_plausible_counts(self):
        counts = (IMAGES == 255).sum(axis=(1, 2))
        blank = (IMAGES == 0).sum(axis=(1, 2))
        assert np.all(counts + blank == 64 * 64)
        assert counts.min() >= 69
        assert counts.max() <= 93

    def test_integral_centers_have_exact_count(self):
        counts = (IMAGES == 255).sum(axis=(1, 2))
        for idx in range(1080):
            ri, ai = FACTORS[idx]
            if ri == 0 or (4 * ai) % 40 == 0:
                assert counts[idx] == DISC_5_PIXELS

    def test_bit_exact_across_runs(self):
        again, factors = gen_circular_dsprites()
        assert np.array_equal(again, IMAGES)
        assert np.array_equal(factors, FACTORS)


class TestPgmIo:
    def test_round_trip(self, tmp_path):
        img = _frame(12, 7)
        path = tmp_path / "disc.pgm"
        path.write_bytes(pgm_bytes(img))
        assert np.array_equal(read_pgm(path), [img])

    def test_header_layout(self):
        data = pgm_bytes(np.zeros((2, 3), dtype=np.uint8))
        assert data.startswith(b"P5\n3 2\n255\n")
        assert len(data) == len(b"P5\n3 2\n255\n") + 6

    def test_byte_identical_rewrites(self):
        img = _frame(0, 0)
        assert pgm_bytes(img) == pgm_bytes(img.copy())

    def test_write_validation(self):
        with pytest.raises(ValueError):
            pgm_bytes(np.zeros((2, 2), dtype=float))

    def test_read_rejects_truncated_frame_and_trailing_bytes(self, tmp_path):
        two = pgm_bytes(np.zeros((2, 3), dtype=np.uint8)) + pgm_bytes(np.ones((2, 3), np.uint8))
        path = tmp_path / "two.pgm"
        path.write_bytes(two)
        assert np.array_equal(read_pgm(path), [np.zeros((2, 3)), np.ones((2, 3))])
        for bad in (two[:-1], two + b"\n", two + two[:11]):
            path.write_bytes(bad)
            with pytest.raises(AssertionError):
                read_pgm(path)

    def test_write_circular_dataset(self, tmp_path):
        write_circular_dataset(tmp_path, IMAGES, FACTORS)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["factors.csv", "images.pgm"]
        lines = (tmp_path / "factors.csv").read_text().splitlines()
        assert lines[0] == "image_index,radius_index,angle_index"
        assert lines[1] == "0,0,0"
        assert lines[-1] == "1079,26,39"
        frames = read_pgm(tmp_path / "images.pgm")
        assert frames.shape == (1080, 64, 64)
        assert np.array_equal(frames[5], IMAGES[5])

    def test_frames_round_trip_in_index_order(self, tmp_path):
        write_circular_dataset(tmp_path, IMAGES, FACTORS)
        frames = read_pgm(tmp_path / "images.pgm")
        rows = (tmp_path / "factors.csv").read_text().splitlines()[1:]
        assert len(frames) == len(rows) == 1080
        for i, (frame, row) in enumerate(zip(frames, rows)):
            assert np.array_equal(frame, IMAGES[i])
            assert row == f"{i},{FACTORS[i, 0]},{FACTORS[i, 1]}"

    def test_default_images_are_the_concatenated_frames(self):
        images, factors = gen_circular_dsprites()
        data = bytes(circular_dataset_files(images, factors)["images.pgm"])
        # the 1,080 files img_0000.pgm … img_1079.pgm that earlier releases wrote, in order
        assert data == b"".join(pgm_bytes(image) for image in images)
        assert len(data) == 4_437_720
        assert hashlib.sha256(data).hexdigest() == (
            "99fbc6ac20df77dc761d6389bd804cc32a9b385ce78edd5caa1bc299ddd1d116"
        )

    def test_default_files_peak_allocation(self):
        # The default set is 1,080 frames of 64×64: the image stack holds
        # 1,080·4,096 = 4,423,680 bytes and the frame buffer 1,080·(13 + 4,096)
        # = 4,437,720. With factors (17,280 bytes), factors.csv (about 10 kB)
        # and one rasterization's temporaries (a few 64×64 float arrays, about
        # 100 kB), the peak is about 8.97 MB. A second full copy of the frames
        # adds 4.4 MB, over the 10 MB bound. One bytes object per frame fits
        # under it in place of the buffer, but leaves over 1,080 live blocks
        # where the buffer, factors.csv and small objects make about a dozen.
        tracemalloc.start()
        try:
            files = circular_dataset_files(*gen_circular_dsprites())
            peak = tracemalloc.get_traced_memory()[1]
            live = len(tracemalloc.take_snapshot().traces)
        finally:
            tracemalloc.stop()
        assert len(files) == 2
        assert peak <= 10_000_000, f"peak {peak:,} bytes"
        assert live <= 100, f"{live} live allocations"


class TestLinearGaussianDataset:
    def test_deterministic(self):
        gen = _gen()
        a = gen_linear_gaussian_dataset(gen, 100, seed=5)
        b = gen_linear_gaussian_dataset(gen, 100, seed=5)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.factors, b.factors)
        c = gen_linear_gaussian_dataset(gen, 100, seed=6)
        assert not np.array_equal(a.samples, c.samples)

    def test_moments(self):
        gen = _gen()
        n = 100_000
        ds = gen_linear_gaussian_dataset(gen, n, seed=11)
        target = gen.B @ gen.B.T + gen.A @ gen.A.T
        assert np.abs(ds.samples.mean(axis=0)).max() <= 4.0 * np.sqrt(np.diag(target).max() / n)
        emp = ds.samples.T @ ds.samples / n
        se = np.sqrt(
            (np.outer(np.diag(target), np.diag(target)) + target**2) / n
        )
        assert np.all(np.abs(emp - target) <= 3.0 * se)

    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_samples_are_the_reference_stream(self, n):
        gen = _gen(d=5, r=3)
        ds = gen_linear_gaussian_dataset(gen, n, seed=9)
        want = GeneratorSampler(gen).sample_reference(n, np.random.default_rng(9))
        assert np.array_equal(ds.samples, want)
        # all codes are drawn before any noise
        assert np.array_equal(ds.factors, np.random.default_rng(9).standard_normal((n, 3)))

    def test_factors_recorded(self):
        gen = _gen(d=3, r=1)
        ds = gen_linear_gaussian_dataset(gen, 50, seed=0)
        assert ds.factors.shape == (50, 1)
        assert ds.samples.shape == (50, 3)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            gen_linear_gaussian_dataset(_gen(), 0, seed=0)

