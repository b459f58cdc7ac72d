"""Synthetic dataset generation: rasterized disc sprites and linear-Gaussian
factor datasets.

The disc dataset sweeps a small disc over a polar grid of placements on a
64×64 canvas; generation is pure arithmetic, so outputs are bit-identical
across runs and platforms. The images are exchanged as one multi-image
binary PGM: P5 frames, each a header and its raster, back to back in index
order, which Netpbm's pamsplit splits into one file per image.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lingauss import LinearGenerator
from .metrics import FactorDataset, _latent_reference

FOREGROUND = 255

# unit direction for angles that are exact multiples of a quarter turn
_CARDINAL = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


@dataclass(frozen=True)
class CircularSpec:
    """Polar placement grid for the disc dataset.

    Radii run over {0..n_radii-1} pixels from the canvas center and angles
    over {2π·t/n_angles}. The largest placement must keep the disc fully on
    the canvas.
    """

    canvas_size: int = 64
    disc_radius: int = 5
    n_radii: int = 27
    n_angles: int = 40

    def __post_init__(self):
        if min(self.canvas_size, self.n_radii, self.n_angles) < 1 or self.disc_radius < 0:
            raise ValueError("spec dimensions must be positive")
        reach = (self.n_radii - 1) + self.disc_radius
        limit = self.canvas_size // 2 - 1
        if reach > limit:
            raise ValueError(
                f"largest disc reaches {reach} pixels from center, over the {limit} limit"
            )

    @property
    def total(self) -> int:
        return self.n_radii * self.n_angles

    @property
    def center(self) -> float:
        return float(self.canvas_size // 2)


def _unit_direction(angle_index: int, n_angles: int) -> tuple[float, float]:
    """(cos, sin) of 2π·angle_index/n_angles, exact on quarter-turn multiples.

    Float cos(π/2) is ~6e-17 rather than 0, which after scaling by the
    placement radius is enough to push boundary lattice pixels off the disc;
    snapping keeps cardinal placements integral.
    """
    quarters = 4 * angle_index
    if quarters % n_angles == 0:
        return _CARDINAL[(quarters // n_angles) % 4]
    angle = 2.0 * math.pi * angle_index / n_angles
    return math.cos(angle), math.sin(angle)


def rasterize_disc(center, radius: float, canvas_size: int = 64) -> np.ndarray:
    """Binary disc image: pixel (px, py) is foreground iff it lies in the disc.

    Pixel coordinates are integer lattice points, px the column and py the
    row; the test is (px-cx)² + (py-cy)² ≤ radius². The disc must lie fully
    on the canvas.
    """
    cx, cy = (float(v) for v in center)
    if radius < 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    limit = canvas_size - 1
    if cx - radius < 0.0 or cx + radius > limit or cy - radius < 0.0 or cy + radius > limit:
        raise ValueError(
            f"disc at ({cx}, {cy}) with radius {radius} extends outside the canvas"
        )
    coords = np.arange(canvas_size, dtype=float)
    dx2 = (coords - cx) ** 2
    dy2 = (coords - cy) ** 2
    mask = dy2[:, None] + dx2[None, :] <= radius * radius
    return np.where(mask, FOREGROUND, 0).astype(np.uint8)


def gen_circular_dsprites(spec: CircularSpec = CircularSpec()) -> tuple[np.ndarray, np.ndarray]:
    """All disc placements in (radius_index, angle_index) lexicographic order.

    Returns (images, factors): images (total, canvas, canvas) uint8 and
    factors (total, 2) int columns radius_index, angle_index.
    """
    images = np.empty((spec.total, spec.canvas_size, spec.canvas_size), dtype=np.uint8)
    factors = np.empty((spec.total, 2), dtype=int)
    mid = spec.center
    idx = 0
    for ri in range(spec.n_radii):
        for ai in range(spec.n_angles):
            cos, sin = _unit_direction(ai, spec.n_angles)
            center = (mid + ri * cos, mid + ri * sin)
            images[idx] = rasterize_disc(center, spec.disc_radius, spec.canvas_size)
            factors[idx] = (ri, ai)
            idx += 1
    return images, factors


def circular_dataset_files(
    images: np.ndarray, factors: np.ndarray
) -> dict[str, bytes | np.ndarray]:
    """images.pgm, every image as a P5 frame (maxval 255) in index order, and factors.csv.

    Frame i is row i of factors.csv. The frames are built in one flat uint8
    buffer, so the images are copied once and no per-frame bytes are made.
    """
    if images.ndim != 3 or images.dtype != np.uint8:
        raise ValueError(
            f"expected a stack of 2-d uint8 images, got {images.dtype} shape {images.shape}"
        )
    n, h, w = images.shape
    header = np.frombuffer(f"P5\n{w} {h}\n255\n".encode("ascii"), dtype=np.uint8)
    frames = np.empty((n, header.size + h * w), dtype=np.uint8)
    frames[:, : header.size] = header
    frames[:, header.size :] = images.reshape(n, h * w)
    lines = ["image_index,radius_index,angle_index"]
    for i, (ri, ai) in enumerate(factors):
        lines.append(f"{i},{int(ri)},{int(ai)}")
    return {"images.pgm": frames, "factors.csv": ("\n".join(lines) + "\n").encode()}


def write_circular_dataset(directory, images: np.ndarray, factors: np.ndarray) -> None:
    """Write the files of circular_dataset_files into an existing directory."""
    for name, data in circular_dataset_files(images, factors).items():
        (Path(directory) / name).write_bytes(data)


def gen_linear_gaussian_dataset(gen: LinearGenerator, n: int, seed) -> FactorDataset:
    """n draws of x = Bc + Az with the codes c recorded as ground-truth factors."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    c, z = _latent_reference(gen.r, gen.d, n, np.random.default_rng(seed))
    return FactorDataset(c @ gen.B.T + z @ gen.A.T, c)
