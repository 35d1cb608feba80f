"""Periodic-box vector fields, spectral transforms and norms.

Fields live on the uniform grid of the periodic box [0, L)^3.  Spectral
coefficients follow the forward-normalized convention: the coefficient of
the zero mode equals the field mean, so a constant field has a single
nonzero coefficient.  Physical wavevectors are k = (2*pi/L) * m with
integer m in [-n/2, n/2).

Norm discretization table (V = L^3 the box volume):
    L2 grid      ||f||^2 = V * mean(|f|^2)
    L2 spectral  ||f||^2 = V * sum_k |fhat(k)|^2          (Parseval)
    Hs           ||f||^2 = V * sum_k |k|^(2s) |fhat(k)|^2
    FL1          ||f||   = sum_k |fhat(k)|   (dominates sup|f| exactly)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Grid3:
    """Uniform periodic grid with n cells per axis on a box of side box_len."""

    n: int
    box_len: float = 2.0 * math.pi

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not self.box_len > 0:
            raise ValueError(f"box_len must be positive, got {self.box_len}")

    @property
    def spacing(self) -> float:
        return self.box_len / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing ** 3

    @property
    def volume(self) -> float:
        return self.box_len ** 3

    def axes(self):
        """1-D node coordinates, identical per axis."""
        return np.arange(self.n) * self.spacing

    def meshgrid(self):
        x = self.axes()
        return np.meshgrid(x, x, x, indexing="ij")


@lru_cache(maxsize=32)
def _wavenumbers(n: int, box_len: float):
    """1-D physical wavevector array (fftfreq layout) for each axis."""
    return 2.0 * math.pi / box_len * np.fft.fftfreq(n, d=1.0 / n)


@lru_cache(maxsize=32)
def _k_arrays(n: int, box_len: float):
    """(kx, ky, kz, k_sq) broadcastable 3-D wavevector arrays."""
    k = _wavenumbers(n, box_len)
    kx = k[:, None, None]
    ky = k[None, :, None]
    kz = k[None, None, :]
    k_sq = kx ** 2 + ky ** 2 + kz ** 2
    return kx, ky, kz, k_sq


@dataclass
class RealVectorField:
    """Vector field sampled on the grid nodes; samples shape (3, n, n, n)."""

    grid: Grid3
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        expected = (3, self.grid.n, self.grid.n, self.grid.n)
        if self.samples.shape != expected:
            raise ValueError(f"samples shape {self.samples.shape} != {expected}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(self.samples ** 2, axis=0))


@dataclass
class SpectralVectorField:
    """Fourier coefficients of a vector field; coeffs shape (3, n, n, n)."""

    grid: Grid3
    coeffs: np.ndarray
    divergence_free: bool = False

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        expected = (3, self.grid.n, self.grid.n, self.grid.n)
        if self.coeffs.shape != expected:
            raise ValueError(f"coeffs shape {self.coeffs.shape} != {expected}")

    def copy(self) -> "SpectralVectorField":
        return SpectralVectorField(self.grid, self.coeffs.copy(), self.divergence_free)


@dataclass
class TensorField:
    """Rank-2 tensor field; comps[i, j] holds d_j f_i on the nodes."""

    grid: Grid3
    comps: np.ndarray

    def __post_init__(self):
        self.comps = np.asarray(self.comps, dtype=np.float64)
        n = self.grid.n
        if self.comps.shape != (3, 3, n, n, n):
            raise ValueError(f"comps shape {self.comps.shape} != (3,3,{n},{n},{n})")

    def magnitude(self) -> np.ndarray:
        """Pointwise Frobenius norm |T|(x)."""
        return np.sqrt(np.sum(self.comps ** 2, axis=(0, 1)))

    def trace(self) -> np.ndarray:
        return self.comps[0, 0] + self.comps[1, 1] + self.comps[2, 2]


# ---------------------------------------------------------------------------
# transforms

def to_spectral(f: RealVectorField) -> SpectralVectorField:
    """Forward FFT with 1/n^3 normalization."""
    coeffs = np.fft.fftn(f.samples, axes=(1, 2, 3)) / f.grid.n ** 3
    return SpectralVectorField(f.grid, coeffs)


def to_real(F: SpectralVectorField) -> RealVectorField:
    samples = np.real(np.fft.ifftn(F.coeffs * F.grid.n ** 3, axes=(1, 2, 3)))
    return RealVectorField(F.grid, samples)


# ---------------------------------------------------------------------------
# spectral operators

def leray_project(F: SpectralVectorField) -> SpectralVectorField:
    """Project onto divergence-free fields: u - k (k.u)/|k|^2 for k != 0."""
    kx, ky, kz, k_sq = _k_arrays(F.grid.n, F.grid.box_len)
    k_sq_safe = np.where(k_sq == 0.0, 1.0, k_sq)
    dot = kx * F.coeffs[0] + ky * F.coeffs[1] + kz * F.coeffs[2]
    factor = dot / k_sq_safe
    out = np.stack([
        F.coeffs[0] - kx * factor,
        F.coeffs[1] - ky * factor,
        F.coeffs[2] - kz * factor,
    ])
    return SpectralVectorField(F.grid, out, divergence_free=True)


def mollify(F: SpectralVectorField, n_moll: float) -> SpectralVectorField:
    """Gaussian Fourier-multiplier mollification exp(-|k|^2 / (2 n_moll^2))."""
    if not n_moll >= 1:
        raise ValueError(f"n_moll must be >= 1, got {n_moll}")
    if math.isinf(n_moll):
        return F.copy()
    _, _, _, k_sq = _k_arrays(F.grid.n, F.grid.box_len)
    mult = np.exp(-k_sq / (2.0 * n_moll ** 2))
    return SpectralVectorField(F.grid, F.coeffs * mult, F.divergence_free)


def spectral_upsample(F: SpectralVectorField, n_new: int) -> SpectralVectorField:
    """Zero-padded embedding onto a finer grid: the same trigonometric
    polynomial, represented with n_new modes per axis."""
    n = F.grid.n
    if n_new < n:
        raise ValueError(f"n_new must be >= {n}, got {n_new}")
    if n_new == n:
        return F.copy()
    grid_new = Grid3(n_new, F.grid.box_len)
    m = (np.fft.fftfreq(n) * n).astype(np.int64)
    dest = np.mod(m, n_new)
    out = np.zeros((3, n_new, n_new, n_new), dtype=np.complex128)
    ix, iy, iz = np.ix_(dest, dest, dest)
    out[:, ix, iy, iz] = F.coeffs
    return SpectralVectorField(grid_new, out, F.divergence_free)


def gradient(F: SpectralVectorField) -> TensorField:
    """Spectral gradient; exact for band-limited fields."""
    n = F.grid.n
    kx, ky, kz, _ = _k_arrays(n, F.grid.box_len)
    comps = np.empty((3, 3, n, n, n))
    for i in range(3):
        hat = F.coeffs[i] * n ** 3
        comps[i, 0] = np.real(np.fft.ifftn(1j * kx * hat))
        comps[i, 1] = np.real(np.fft.ifftn(1j * ky * hat))
        comps[i, 2] = np.real(np.fft.ifftn(1j * kz * hat))
    return TensorField(F.grid, comps)


def divergence_defect(F: SpectralVectorField) -> float:
    """max over modes of |k.uhat| / |uhat| (0 for perfectly solenoidal)."""
    kx, ky, kz, _ = _k_arrays(F.grid.n, F.grid.box_len)
    dot = np.abs(kx * F.coeffs[0] + ky * F.coeffs[1] + kz * F.coeffs[2])
    mag = np.sqrt(np.sum(np.abs(F.coeffs) ** 2, axis=0))
    mask = mag > 1e-14
    if not np.any(mask):
        return 0.0
    return float(np.max(dot[mask] / mag[mask]))


# ---------------------------------------------------------------------------
# norms

def l2_norm(F: SpectralVectorField) -> float:
    return math.sqrt(F.grid.volume * float(np.sum(np.abs(F.coeffs) ** 2)))


def l2_norm_grid(f: RealVectorField) -> float:
    return math.sqrt(f.grid.volume * float(np.mean(np.sum(f.samples ** 2, axis=0))))


def sobolev_norm(F: SpectralVectorField, s: float) -> float:
    """Homogeneous Sobolev norm of order s, s in [0, 4]."""
    if not 0.0 <= s <= 4.0:
        raise ValueError(f"s must lie in [0, 4], got {s}")
    if s == 0.0:
        return l2_norm(F)
    _, _, _, k_sq = _k_arrays(F.grid.n, F.grid.box_len)
    weight = np.power(k_sq, s, out=np.zeros_like(k_sq), where=k_sq > 0)
    total = float(np.sum(weight * np.sum(np.abs(F.coeffs) ** 2, axis=0)))
    return math.sqrt(F.grid.volume * total)


def fourier_lebesgue_norm(F: SpectralVectorField) -> float:
    """Sum over modes of the Euclidean magnitude of the coefficient vector."""
    return float(np.sum(np.sqrt(np.sum(np.abs(F.coeffs) ** 2, axis=0))))


def sup_norm_grid(f: RealVectorField) -> float:
    return float(np.max(f.magnitude()))


# ---------------------------------------------------------------------------
# point sampling

_SAMPLE_CHUNK = 2048


def sample_spectral(F: SpectralVectorField, points: np.ndarray) -> np.ndarray:
    """Exact trigonometric evaluation at arbitrary points, shape (P, 3)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    k = _wavenumbers(F.grid.n, F.grid.box_len)
    out = np.empty((pts.shape[0], 3))
    for lo in range(0, pts.shape[0], _SAMPLE_CHUNK):
        chunk = pts[lo:lo + _SAMPLE_CHUNK]
        ex = np.exp(1j * np.outer(chunk[:, 0], k))
        ey = np.exp(1j * np.outer(chunk[:, 1], k))
        ez = np.exp(1j * np.outer(chunk[:, 2], k))
        # contract one axis at a time to keep the intermediates small
        a = np.tensordot(ex, F.coeffs, axes=([1], [1]))      # (P, 3, n, n)
        b = np.einsum("pcjk,pj->pck", a, ey)                 # (P, 3, n)
        out[lo:lo + _SAMPLE_CHUNK] = np.real(np.einsum("pck,pk->pc", b, ez))
    return out


def sample_trilinear(f: RealVectorField, points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation from grid nodes with periodic wrap."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = f.grid.n
    s = pts / f.grid.spacing
    i0 = np.floor(s).astype(np.int64)
    w = s - i0
    i0 = np.mod(i0, n)
    i1 = np.mod(i0 + 1, n)
    u = f.samples
    out = np.zeros((pts.shape[0], 3))
    for dx, ix in ((0, i0[:, 0]), (1, i1[:, 0])):
        wx = (1.0 - w[:, 0]) if dx == 0 else w[:, 0]
        for dy, iy in ((0, i0[:, 1]), (1, i1[:, 1])):
            wy = (1.0 - w[:, 1]) if dy == 0 else w[:, 1]
            for dz, iz in ((0, i0[:, 2]), (1, i1[:, 2])):
                wz = (1.0 - w[:, 2]) if dz == 0 else w[:, 2]
                out += (wx * wy * wz)[:, None] * u[:, ix, iy, iz].T
    return out


def sample_velocity(field, points: np.ndarray, mode: str = "trilinear") -> np.ndarray:
    """Evaluate a vector field at arbitrary points in the box.

    mode "spectral" expects a SpectralVectorField (exact trigonometric sum),
    mode "trilinear" expects either representation and interpolates nodes.
    """
    if mode == "spectral":
        if isinstance(field, RealVectorField):
            field = to_spectral(field)
        return sample_spectral(field, points)
    if mode == "trilinear":
        if isinstance(field, SpectralVectorField):
            field = to_real(field)
        return sample_trilinear(field, points)
    raise ValueError(f"unknown sampling mode {mode!r}")


def sample_scalar_trilinear(values: np.ndarray, grid: Grid3, points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of a scalar node array, shape (n, n, n)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = grid.n
    s = pts / grid.spacing
    i0 = np.floor(s).astype(np.int64)
    w = s - i0
    i0 = np.mod(i0, n)
    i1 = np.mod(i0 + 1, n)
    out = np.zeros(pts.shape[0])
    for dx, ix in ((0, i0[:, 0]), (1, i1[:, 0])):
        wx = (1.0 - w[:, 0]) if dx == 0 else w[:, 0]
        for dy, iy in ((0, i0[:, 1]), (1, i1[:, 1])):
            wy = (1.0 - w[:, 1]) if dy == 0 else w[:, 1]
            for dz, iz in ((0, i0[:, 2]), (1, i1[:, 2])):
                wz = (1.0 - w[:, 2]) if dz == 0 else w[:, 2]
                out += wx * wy * wz * values[ix, iy, iz]
    return out


def periodic_delta(a: np.ndarray, b: np.ndarray, box_len: float) -> np.ndarray:
    """Minimal-image displacement a - b on the periodic box."""
    d = a - b
    return d - box_len * np.round(d / box_len)


def periodic_distance(a: np.ndarray, b: np.ndarray, box_len: float) -> np.ndarray:
    return np.sqrt(np.sum(periodic_delta(a, b, box_len) ** 2, axis=-1))
