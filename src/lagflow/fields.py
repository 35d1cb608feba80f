"""Periodic-box vector fields, spectral transforms, norms and point sampling.

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

Point sampling has two kernels: the exact trigonometric sum of a spectral
field (sample_spectral) and one trilinear kernel for vector and scalar
node arrays (sample_trilinear).  Both take (P, 3) points or a single (3,)
point and reject any other shape.  The spectral sum reads one coefficient
table per call, with subnormal parts flushed to 0 (same output bits, off
the CPU's subnormal slow path), and bounds each chunk's intermediate by an
element budget rather than a point count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fft


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


@lru_cache(maxsize=32)
def _half_k_arrays(n: int, box_len: float):
    """(kx, ky, kz, k_sq) for the half-spectrum layout; kz >= 0, so the
    Nyquist plane has kz = +n/2 (the sign does not change k_sq or the even
    Leray projector)."""
    kx, ky, _, _ = _k_arrays(n, box_len)
    kz = (2.0 * math.pi / box_len * np.fft.rfftfreq(n, d=1.0 / n))[None, None, :]
    return kx, ky, kz, kx ** 2 + ky ** 2 + kz ** 2


@lru_cache(maxsize=32)
def _nyquist_split(n: int, box_len: float):
    """Half-layout wavevector split per axis into k0, zero at the Nyquist
    entry, and kn, zero elsewhere.  kn carries the full layout's Nyquist
    wavenumber -n/2 on every axis, kz included (the half layout's kz there
    is +n/2)."""
    k0, kn = [], []
    for axis, k in enumerate(_half_k_arrays(n, box_len)[:3]):
        rest, nyq = k.copy(), np.zeros_like(k)
        np.moveaxis(nyq, axis, 0)[n // 2] = _wavenumbers(n, box_len)[n // 2]
        np.moveaxis(rest, axis, 0)[n // 2] = 0.0
        k0.append(rest)
        kn.append(nyq)
    return tuple(k0), tuple(kn)


@dataclass
class RealVectorField:
    """Vector field sampled on the grid nodes; samples shape (3, n, n, n),
    C-contiguous so that sample_trilinear reads them as a flat table without
    a copy."""

    grid: Grid3
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float64)
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


# ---------------------------------------------------------------------------
# transforms

def to_spectral(f: RealVectorField) -> SpectralVectorField:
    """Forward FFT with 1/n^3 normalization (full layout, Hermitian)."""
    return SpectralVectorField(f.grid, fft.full(fft.forward(f.samples), f.grid.n))


def to_real(F: SpectralVectorField) -> RealVectorField:
    """Real part of the inverse FFT."""
    return RealVectorField(F.grid, fft.inverse(fft.half(F.coeffs), F.grid.n))


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
    """Spectral gradient of the real part of the field; exact for
    band-limited fields."""
    return TensorField(F.grid, np.stack(gradient_half(fft.half(F.coeffs), F.grid)))


def gradient_half(coeffs: np.ndarray, grid: Grid3) -> tuple:
    """Nodal gradient of half-spectrum coefficients (3, n, n, n//2 + 1), as
    three (3, n, n, n) arrays: out[i][j] = d_j u_i.

    The multipliers are i k0: for a real field the Nyquist terms of an odd
    derivative cancel in pairs, so this equals the real part of the
    full-spectrum derivative.  Each component's three derivatives go through
    one batched inverse transform, so at most three derivative spectra are
    alive at a time."""
    n = grid.n
    ik = [1j * k for k in _nyquist_split(n, grid.box_len)[0]]
    out = []
    for c in coeffs:
        spectra = np.empty((3,) + c.shape, dtype=np.complex128)
        for j, m in enumerate(ik):
            np.multiply(m, c, out=spectra[j])
        out.append(fft.inverse(spectra, n))
    return tuple(out)


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

# complex elements of the per-chunk (rows, 3, n, n) intermediate: 8 MiB
_SAMPLE_ELEMS = 1 << 19


def _points(points) -> np.ndarray:
    """Sample points as a (P, 3) float array; a single (3,) point is (1, 3)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape == (3,):
        return pts[None]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (P, 3) or (3,), got {pts.shape}")
    return pts


def sample_spectral(F: SpectralVectorField, points: np.ndarray) -> np.ndarray:
    """Exact trigonometric evaluation at arbitrary points, shape (P, 3).

    The x axis is contracted first, as one matrix product with the (n, 3n^2)
    coefficient table, then y and z.  The table is built once per call, as
    a copy, with every float64 part below the smallest normal (about
    2.2e-308) set to 0: dissipated modes decay into subnormals, which put
    the matrix product on the CPU's slow path.  A term that small changes
    the rounding of a partial sum only when that sum is below about 1e-292,
    so sampled values keep the bits of the unflushed sum.  Points go in
    chunks whose intermediate holds at most _SAMPLE_ELEMS complex values
    (at least 16 rows).  OpenBLAS hands a one-row matrix product to gemv,
    which sums in another order, so a chunk of one point is evaluated as
    two equal rows: each point's value does not depend on how many points
    share the call or its chunk.
    """
    pts = _points(points)
    n = F.grid.n
    k = _wavenumbers(n, F.grid.box_len)
    table = F.coeffs.transpose(1, 0, 2, 3).copy().reshape(n, 3 * n * n)
    parts = table.view(np.float64)
    parts[np.abs(parts) < np.finfo(np.float64).tiny] = 0.0
    rows = max(16, _SAMPLE_ELEMS // (3 * n * n))
    out = np.empty((pts.shape[0], 3))
    for lo in range(0, pts.shape[0], rows):
        chunk = pts[lo:lo + rows]
        ex = np.exp(1j * np.outer(chunk[:, 0], k))
        ey = np.exp(1j * np.outer(chunk[:, 1], k))
        ez = np.exp(1j * np.outer(chunk[:, 2], k))
        if len(chunk) == 1:     # see the docstring: no one-row products
            ex = np.repeat(ex, 2, axis=0)
        a = np.dot(ex, table)[:len(chunk)].reshape(-1, 3, n, n)   # (P, 3, n, n)
        b = np.einsum("pcjk,pj->pck", a, ey)                 # (P, 3, n)
        out[lo:lo + rows] = np.real(np.einsum("pck,pk->pc", b, ez))
    return out


def sample_trilinear(values: np.ndarray, grid: Grid3, points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of a node array with periodic wrap.

    values is (3, n, n, n) for a vector field, giving (P, 3), or (n, n, n)
    for a scalar one, giving (P,).  Each corner is one flat-index gather
    from a (C, n^3) table.
    """
    pts = _points(points)
    n = grid.n
    s = pts / grid.spacing
    i0 = np.floor(s).astype(np.int64)
    w = s - i0
    i0 = np.mod(i0, n)
    i1 = np.mod(i0 + 1, n)
    table = values.reshape(-1, n ** 3)
    out = np.zeros((table.shape[0], pts.shape[0]))
    for ix, wx in ((i0[:, 0], 1.0 - w[:, 0]), (i1[:, 0], w[:, 0])):
        for iy, wy in ((i0[:, 1], 1.0 - w[:, 1]), (i1[:, 1], w[:, 1])):
            wxy = wx * wy
            ixy = ix * n * n + iy * n
            for iz, wz in ((i0[:, 2], 1.0 - w[:, 2]), (i1[:, 2], w[:, 2])):
                out += (wxy * wz) * np.take(table, ixy + iz, axis=1)
    return np.ascontiguousarray(out.reshape(values.shape[:-3] + (-1,)).T)


def periodic_delta(a: np.ndarray, b: np.ndarray, box_len: float) -> np.ndarray:
    """Minimal-image displacement a - b on the periodic box."""
    d = a - b
    return d - box_len * np.round(d / box_len)


def periodic_distance(a: np.ndarray, b: np.ndarray, box_len: float) -> np.ndarray:
    return np.sqrt(np.sum(periodic_delta(a, b, box_len) ** 2, axis=-1))
