"""Tests for dataset generation and PGM IO."""
import numpy as np
import pytest

from disentlab.datasets import (
    CircularSpec,
    gen_circular_dsprites,
    gen_linear_gaussian_dataset,
    rasterize_disc,
    read_pgm,
    write_circular_dataset,
    write_pgm,
)
from disentlab.linalg import SymMatrix, spd_sqrt
from disentlab.lingauss import matched_generator
from disentlab.metrics import GeneratorSampler

# lattice points with x² + y² ≤ 25
DISC_5_PIXELS = 81


def _gen(d=4, r=2):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((d, d))
    sigma = SymMatrix(m @ m.T + d * np.eye(d))
    bt = rng.standard_normal((d, r))
    bt *= 0.9 / np.linalg.svd(bt, compute_uv=False)[0]
    b = spd_sqrt(sigma).entries @ bt
    return matched_generator(sigma, b)


class TestCircularSpec:
    def test_defaults(self):
        spec = CircularSpec()
        assert spec.total == 1080
        assert spec.center == 32.0

    def test_reach_limit(self):
        with pytest.raises(ValueError):
            CircularSpec(n_radii=28)
        with pytest.raises(ValueError):
            CircularSpec(disc_radius=6)
        CircularSpec(n_radii=26, disc_radius=6)  # reach 31 is allowed

    def test_positive_dimensions(self):
        with pytest.raises(ValueError):
            CircularSpec(n_angles=0)


class TestRasterizeDisc:
    def test_integer_center_radius_5(self):
        img = rasterize_disc((32.0, 32.0), 5.0)
        assert img.shape == (64, 64)
        assert img.dtype == np.uint8
        assert int((img == 255).sum()) == DISC_5_PIXELS
        assert set(np.unique(img)) <= {0, 255}

    def test_radius_zero_single_pixel(self):
        img = rasterize_disc((10.0, 20.0), 0.0)
        assert int(img.sum()) == 255
        assert img[20, 10] == 255

    def test_px_is_column_py_is_row(self):
        img = rasterize_disc((40.0, 12.0), 1.0)
        assert img[12, 40] == 255
        assert img[40, 12] == 0

    def test_quarter_turn_symmetry(self):
        img_x = rasterize_disc((42.0, 32.0), 5.0)
        img_y = rasterize_disc((32.0, 42.0), 5.0)
        ys, xs = np.nonzero(img_x)
        # 90° rotation about (32, 32): (x, y) -> (64 - y, x)
        assert np.all(img_y[xs, 64 - ys] == 255)
        assert int((img_y == 255).sum()) == int((img_x == 255).sum())

    def test_out_of_canvas_rejected(self):
        with pytest.raises(ValueError):
            rasterize_disc((3.0, 32.0), 5.0)
        with pytest.raises(ValueError):
            rasterize_disc((32.0, 60.0), 5.0)
        with pytest.raises(ValueError):
            rasterize_disc((32.0, 32.0), -1.0)


class TestCircularDataset:
    IMAGES, FACTORS = gen_circular_dsprites()

    def test_count_and_order(self):
        assert self.IMAGES.shape == (1080, 64, 64)
        assert self.FACTORS.shape == (1080, 2)
        assert np.array_equal(self.FACTORS[:, 0], np.repeat(np.arange(27), 40))
        assert np.array_equal(self.FACTORS[:, 1], np.tile(np.arange(40), 27))

    def test_zero_radius_images_identical(self):
        first = self.IMAGES[0]
        for ai in range(1, 40):
            assert np.array_equal(self.IMAGES[ai], first)

    def test_binary_with_plausible_counts(self):
        counts = (self.IMAGES == 255).sum(axis=(1, 2))
        blank = (self.IMAGES == 0).sum(axis=(1, 2))
        assert np.all(counts + blank == 64 * 64)
        assert counts.min() >= 69
        assert counts.max() <= 93

    def test_integral_centers_have_exact_count(self):
        counts = (self.IMAGES == 255).sum(axis=(1, 2))
        for idx in range(1080):
            ri, ai = self.FACTORS[idx]
            if ri == 0 or (4 * ai) % 40 == 0:
                assert counts[idx] == DISC_5_PIXELS

    def test_bit_exact_across_runs(self):
        again, factors = gen_circular_dsprites()
        assert np.array_equal(again, self.IMAGES)
        assert np.array_equal(factors, self.FACTORS)


class TestPgmIo:
    def test_round_trip(self, tmp_path):
        img = rasterize_disc((20.0, 30.0), 5.0)
        path = tmp_path / "disc.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_header_layout(self, tmp_path):
        img = np.zeros((2, 3), dtype=np.uint8)
        path = tmp_path / "tiny.pgm"
        write_pgm(path, img)
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 2\n255\n")
        assert len(data) == len(b"P5\n3 2\n255\n") + 6

    def test_byte_identical_rewrites(self, tmp_path):
        img = rasterize_disc((32.0, 32.0), 5.0)
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(a, img)
        write_pgm(b, img)
        assert a.read_bytes() == b.read_bytes()

    def test_write_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "bad.pgm", np.zeros((2, 2), dtype=float))

    def test_read_validation(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ValueError):
            read_pgm(path)
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_write_circular_dataset(self, tmp_path):
        spec = CircularSpec(n_radii=2, n_angles=4)
        images, factors = gen_circular_dsprites(spec)
        write_circular_dataset(tmp_path, images, factors)
        assert sorted(p.name for p in tmp_path.glob("*.pgm")) == [
            "img_0.pgm",
            "img_1.pgm",
            "img_2.pgm",
            "img_3.pgm",
            "img_4.pgm",
            "img_5.pgm",
            "img_6.pgm",
            "img_7.pgm",
        ]
        lines = (tmp_path / "factors.csv").read_text().splitlines()
        assert lines[0] == "image_index,radius_index,angle_index"
        assert lines[1] == "0,0,0"
        assert lines[-1] == "7,1,3"
        assert np.array_equal(read_pgm(tmp_path / "img_5.pgm"), images[5])


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

