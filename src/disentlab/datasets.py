"""Synthetic dataset generation: rasterized disc sprites and linear-Gaussian
factor datasets.

The disc dataset is one fixed set: a radius-5 disc at each of 27 × 40 polar
placements (radii 0..26 pixels from the center, angles 2π·t/40) on a 64×64
canvas, 1,080 images. Generation is pure arithmetic, so outputs are
bit-identical across runs and platforms. The images are exchanged as one
multi-image binary PGM: P5 frames, each a header and its raster, back to
back in index order, which Netpbm's pamsplit splits into one file per image.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .lingauss import LinearGenerator
from .metrics import FactorDataset, _latent_reference

# The disc set's geometry. The farthest disc reaches 26 + 5 = 31 pixels from
# the center (32, 32), so every disc lies fully on the canvas.
CANVAS = 64
DISC_RADIUS = 5
N_RADII = 27
N_ANGLES = 40

FOREGROUND = 255

# unit direction for angles that are exact multiples of a quarter turn
_CARDINAL = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


def _unit_direction(angle_index: int) -> tuple[float, float]:
    """(cos, sin) of 2π·angle_index/N_ANGLES, exact on quarter-turn multiples.

    Float cos(π/2) is ~6e-17 rather than 0, which after scaling by the
    placement radius is enough to push boundary lattice pixels off the disc;
    snapping keeps cardinal placements integral.
    """
    quarters = 4 * angle_index
    if quarters % N_ANGLES == 0:
        return _CARDINAL[(quarters // N_ANGLES) % 4]
    angle = 2.0 * math.pi * angle_index / N_ANGLES
    return math.cos(angle), math.sin(angle)


def gen_circular_dsprites() -> tuple[np.ndarray, np.ndarray]:
    """All disc placements in (radius_index, angle_index) lexicographic order.

    Returns (images, factors): images (1080, 64, 64) uint8 and factors
    (1080, 2) int columns radius_index, angle_index. Pixel (px, py), px the
    column and py the row, is foreground iff (px-cx)² + (py-cy)² ≤ 5².
    """
    images = np.empty((N_RADII * N_ANGLES, CANVAS, CANVAS), dtype=np.uint8)
    factors = np.empty((N_RADII * N_ANGLES, 2), dtype=int)
    coords = np.arange(CANVAS, dtype=float)
    mid = float(CANVAS // 2)
    idx = 0
    for ri in range(N_RADII):
        for ai in range(N_ANGLES):
            cos, sin = _unit_direction(ai)
            dx2 = (coords - (mid + ri * cos)) ** 2
            dy2 = (coords - (mid + ri * sin)) ** 2
            images[idx] = np.where(dy2[:, None] + dx2[None, :] <= DISC_RADIUS**2, FOREGROUND, 0)
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
