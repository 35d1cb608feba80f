"""Periodic-box vector fields, spectral transforms, norms and point sampling.

Fields live on the uniform grid of the periodic box [0, L)^3.  Spectral
coefficients are the half spectrum of fft.forward, shape (3, n, n, n//2+1),
forward-normalized: the coefficient of the zero mode equals the field mean.
This module owns the one wavevector family of that layout (`half_modes`,
`wavevectors`): k = (2*pi/L) * m with integer m in fftfreq order on x and y
and m = 0, ..., n/2 on z.  The Nyquist entry is m = -n/2 on every axis, z
included.  Odd derivatives and the Leray projector use k0, the wavevector
with its Nyquist entries set to 0: a real field's Nyquist terms of an odd
derivative cancel in pairs, and P = I - k0 k0^T / |k0|^2 (the identity where
k0 = 0) is then a true projector whose output has zero divergence in that
derivative.  derivatives streams each nodal derivative d_j u_i as its own
(n, n, n) array, and gradient_norm, the one |grad u| formula, reads that
stream: no (3, 3, n, n, n) gradient is ever held.

Norm discretization table (V = L^3 the box volume, w the kz plane weights
of fft.plane_weights, so that each sum runs over all modes):
    L2           ||f||^2 = V * sum_k w |fhat(k)|^2         (Parseval)
    Hs           ||f||^2 = V * sum_k w |k|^(2s) |fhat(k)|^2
    FL1          ||f||   = sum_k w |fhat(k)|   (dominates sup|f| exactly)

Point sampling has two kernels: the trigonometric sum of a spectral field
(sample_spectral) and one trilinear kernel for vector and scalar node
arrays (sample_trilinear).  Both take (P, 3) points or a single (3,) point
and reject any other shape, and both are periodic: points need no wrapping
into the box.  The trilinear kernel is the one place that wraps a sampled
position, as node indices `& (n - 1)`; callers hand it unwrapped paths.
The spectral sum reads one coefficient table per call, with subnormal parts
flushed to 0 (same output bits, off the CPU's subnormal slow path), and
bounds each chunk's intermediate by an element budget rather than a point
count.  Given a relative tolerance tol > 0 it sums only the smallest centred
mode cube max(|mx|, |my|, |mz|) <= K whose dropped FL1 mass is at most tol
times the field's FL1 norm (spectral_crop); that dropped mass bounds the
error of every sampled value, as a vector.  tol = 0 sums the full table:
the exact sum, the oracle of the cropped one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
        if not 0 < self.box_len < math.inf:
            raise ValueError(f"box_len must be positive and finite, got {self.box_len}")

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
def half_modes(n: int) -> tuple:
    """Integer mode numbers (mx, my, mz) of the half layout, broadcastable
    to (n, n, n//2 + 1); the Nyquist entry is -n/2 on every axis."""
    m = np.fft.fftfreq(n, d=1.0 / n)
    return m[:, None, None], m[None, :, None], m[None, None, :n // 2 + 1]


@dataclass(frozen=True)
class Wavevectors:
    """Physical wavevectors of the half layout of one grid: k (per axis,
    broadcastable) and k_sq = |k|^2; k0, k with its Nyquist entries set to
    0, for odd derivatives and the Leray projector, and k0_sq_safe = |k0|^2
    with 1 where k0 = 0."""

    k: tuple
    k_sq: np.ndarray
    k0: tuple
    k0_sq_safe: np.ndarray


@lru_cache(maxsize=32)
def wavevectors(grid: Grid3) -> Wavevectors:
    """The wavevectors of grid's half layout, built once per grid."""
    c = 2.0 * math.pi / grid.box_len
    k = tuple(c * m for m in half_modes(grid.n))
    k0 = tuple(np.where(np.abs(m) == grid.n // 2, 0.0, c * m) for m in half_modes(grid.n))
    k0_sq = k0[0] ** 2 + k0[1] ** 2 + k0[2] ** 2
    return Wavevectors(k, k[0] ** 2 + k[1] ** 2 + k[2] ** 2, k0,
                       np.where(k0_sq == 0.0, 1.0, k0_sq))


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


@dataclass
class SpectralVectorField:
    """Half-spectrum Fourier coefficients of a real vector field: coeffs is
    fft.forward of its node values, shape (3, n, n, n//2 + 1)."""

    grid: Grid3
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        n = self.grid.n
        expected = (3, n, n, n // 2 + 1)
        if self.coeffs.shape != expected:
            raise ValueError(f"coeffs shape {self.coeffs.shape} != {expected}, the half "
                             f"spectrum of fft.forward")


# ---------------------------------------------------------------------------
# transforms

def to_spectral(f: RealVectorField) -> SpectralVectorField:
    """Forward FFT with 1/n^3 normalization, half spectrum.

    The kz = 0 and kz = n/2 planes are replaced by their Hermitian part
    (c(k) + conj(c(-k))) / 2: the transform leaves them Hermitian only up
    to round-off, and this makes the coefficients exactly a real field's."""
    c = fft.forward(f.samples)
    for plane in (c[..., 0], c[..., f.grid.n // 2]):
        mirror = np.conj(np.roll(np.flip(plane, (-2, -1)), 1, (-2, -1)))   # conj c(-k)
        plane += mirror
        plane.real *= 0.5   # real scalings: a complex 0.5 would turn inf parts into nan
        plane.imag *= 0.5
    return SpectralVectorField(f.grid, c)


def to_real(F: SpectralVectorField) -> RealVectorField:
    return RealVectorField(F.grid, fft.inverse(F.coeffs, F.grid.n))


@dataclass
class EvaluatedField:
    """spectral with its node values velocity (3, n, n, n), from one inverse
    transform; grad_norm (|grad u| at the nodes, gradient_norm) and speed
    (|u| at the nodes) are computed on first read and kept.  The one
    evaluation of a state, which all its readers share: the final state's
    norms, weights and drift read one.  Plain arrays, checked nowhere: wrap
    velocity in a RealVectorField where it must fail closed."""

    spectral: SpectralVectorField
    velocity: np.ndarray

    @property
    def grid(self) -> Grid3:
        return self.spectral.grid

    @cached_property
    def grad_norm(self) -> np.ndarray:
        return gradient_norm(self.spectral)

    @cached_property
    def speed(self) -> np.ndarray:
        return np.sqrt(np.sum(self.velocity ** 2, axis=0))


def evaluate(F: SpectralVectorField) -> EvaluatedField:
    return EvaluatedField(F, fft.inverse(F.coeffs, F.grid.n))


# ---------------------------------------------------------------------------
# spectral operators

def leray_project(F: SpectralVectorField) -> SpectralVectorField:
    """Project onto divergence-free fields: u - k0 (k0.u)/|k0|^2 where
    k0 != 0, the identity where k0 = 0 (see the module docstring)."""
    wv = wavevectors(F.grid)
    c = F.coeffs
    f = wv.k0[0] * c[0]
    f += wv.k0[1] * c[1]
    f += wv.k0[2] * c[2]
    f /= wv.k0_sq_safe
    out = np.empty_like(c)
    for ki, ci, oi in zip(wv.k0, c, out):
        np.multiply(ki, f, out=oi)
        np.subtract(ci, oi, out=oi)
    return SpectralVectorField(F.grid, out)


def mollifier(grid: Grid3, n_moll: float) -> np.ndarray | None:
    """The Gaussian Fourier multiplier exp(-|k|^2 / (2 n_moll^2)) on the half
    spectrum, None for n_moll = inf (no mollifier): the solver's rho_n."""
    if not n_moll >= 1:
        raise ValueError(f"n_moll must be >= 1 (or inf), got {n_moll}")
    if math.isinf(n_moll):
        return None
    return np.exp(-wavevectors(grid).k_sq / (2.0 * n_moll ** 2))


def derivatives(F: SpectralVectorField):
    """Yield (i, j, d_j u_i) for i, j = 0, 1, 2 in that order, each
    derivative a fresh (n, n, n) node array from multipliers i k0: for a
    real field, the exact derivative at the nodes of the function
    sample_spectral evaluates.  One inverse transform per derivative, from
    one reused spectrum buffer, so one derivative spectrum and one node
    array are alive at a time; the caller owns each array it is given."""
    n = F.grid.n
    ik = [1j * k for k in wavevectors(F.grid).k0]
    spectrum = np.empty(F.coeffs.shape[1:], dtype=np.complex128)
    for i, c in enumerate(F.coeffs):
        for j, m in enumerate(ik):
            np.multiply(m, c, out=spectrum)
            yield i, j, fft.inverse(spectrum, n)


def gradient_norm(F: SpectralVectorField, each=None) -> np.ndarray:
    """|grad u| at the nodes, the one |grad u| formula that the solver's
    diagnostics, the weights and the flow estimates read, from the
    derivatives(F) stream: s_i = (g_i0^2 + g_i1^2) + g_i2^2 per component,
    then sqrt(((0 + s_0) + s_1) + s_2).  each(i, j, g), when given, is
    called with every derivative after its square is taken, and may
    overwrite it: the solver builds its nonlinear term from the same
    stream."""
    n = F.grid.n
    total, s, sq = np.zeros((n, n, n)), np.empty((n, n, n)), np.empty((n, n, n))
    for i, j, g in derivatives(F):
        if j == 0:
            np.square(g, out=s)
        else:
            s += np.square(g, out=sq)
        if j == 2:
            total += s
        if each is not None:
            each(i, j, g)
    return np.sqrt(total, out=total)


# ---------------------------------------------------------------------------
# norms

def _power(F: SpectralVectorField) -> np.ndarray:
    """sum_i |u_i(k)|^2 per mode, weighted by its kz plane's multiplicity."""
    return fft.plane_weights(F.grid.n) * np.sum(np.abs(F.coeffs) ** 2, axis=0)


def l2_norm(F: SpectralVectorField) -> float:
    return math.sqrt(F.grid.volume * float(np.sum(_power(F))))


def sobolev_norm(F: SpectralVectorField, s: float) -> float:
    """Homogeneous Sobolev norm of order s, s in [0, 4]."""
    if not 0.0 <= s <= 4.0:
        raise ValueError(f"s must lie in [0, 4], got {s}")
    if s == 0.0:
        return l2_norm(F)
    k_sq = wavevectors(F.grid).k_sq
    weight = np.power(k_sq, s, out=np.zeros_like(k_sq), where=k_sq > 0)
    return math.sqrt(F.grid.volume * float(np.sum(weight * _power(F))))


def _mode_mass(F: SpectralVectorField) -> np.ndarray:
    """The Euclidean magnitude of each mode's coefficient vector, weighted by
    its kz plane's multiplicity: the FL1 norm's terms."""
    return fft.plane_weights(F.grid.n) * np.sqrt(np.sum(np.abs(F.coeffs) ** 2, axis=0))


def fourier_lebesgue_norm(F: SpectralVectorField) -> float:
    """Sum over modes of the Euclidean magnitude of the coefficient vector."""
    return float(np.sum(_mode_mass(F)))


# ---------------------------------------------------------------------------
# point sampling

# complex elements of the per-chunk (rows, 3, n + 1, n//2 + 1) intermediate: 8 MiB
_SAMPLE_ELEMS = 1 << 19


def _points(points) -> np.ndarray:
    """Sample points as a (P, 3) float array; a single (3,) point is (1, 3)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape == (3,):
        return pts[None]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (P, 3) or (3,), got {pts.shape}")
    return pts


def _spectral_table(F: SpectralVectorField) -> np.ndarray:
    """Coefficient table (n + 1, 3, n + 1, n//2 + 1) of the exact sum over
    all modes, Re sum_k c(k) exp(i k.x) with the Nyquist entry -n/2 on every
    axis, written on the half layout.

    Each interior kz plane stands for itself and its mirror image, the
    Hermitian partners at -k.  A partner's term, conjugated, has the
    wavenumbers of k again, except that an x or y Nyquist entry (-n/2 in
    both) becomes +n/2.  Row and column n of the table carry that +n/2: the
    partner half of an x- or y-Nyquist coefficient sits there, and every
    other interior coefficient counts twice in place."""
    n, N = F.grid.n, F.grid.n // 2
    c = F.coeffs.transpose(1, 0, 2, 3)
    table = np.zeros((n + 1, 3, n + 1, N + 1), dtype=np.complex128)
    table[:n, :, :n] = c
    mirror = np.arange(n)
    mirror[N] = n
    table[np.ix_(mirror, range(3), mirror, range(1, N))] += c[..., 1:N]
    return table


@lru_cache(maxsize=32)
def _shells(n: int) -> np.ndarray:
    """Cube shell max(|mx|, |my|, |mz|) of each half-layout mode, flat."""
    mx, my, mz = (np.abs(m).astype(np.int64) for m in half_modes(n))
    shells = np.maximum(np.maximum(mx, my), mz).ravel()
    shells.setflags(write=False)
    return shells


def spectral_crop(F: SpectralVectorField, tol: float) -> tuple:
    """(K, tail): the smallest K such that the FL1 mass of the modes outside
    the cube max(|mx|, |my|, |mz|) <= K, tail, is at most tol times F's FL1
    norm.  tail bounds |u(x) - u_K(x)| at every x, u_K being the sum over
    the cube: each dropped mode adds at most its Euclidean magnitude (the
    Nyquist partners at +n/2 lie on the shell n/2 too).  Non-finite
    coefficients raise ValueError: no cube would be certified."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    n = F.grid.n
    per_shell = np.bincount(_shells(n), weights=_mode_mass(F).ravel(), minlength=n // 2 + 1)
    total = float(np.sum(per_shell))
    if not math.isfinite(total):
        raise ValueError("coefficients must be finite to crop the spectrum")
    beyond = np.append(np.cumsum(per_shell[::-1])[-2::-1], 0.0)   # mass of shells > K
    K = int(np.argmax(beyond <= tol * total))
    return K, float(beyond[K])


def sample_spectral(F: SpectralVectorField, points: np.ndarray,
                    tol: float = 0.0) -> np.ndarray:
    """Trigonometric evaluation at arbitrary points, shape (P, 3): exact for
    tol = 0, otherwise within spectral_crop(F, tol)'s tail of the exact sum.

    A cropped call keeps the table's rows, columns and kz planes of the
    cube |m| <= K (for K < n/2 no Nyquist row or column is left); tol = 0
    keeps every entry, so its values keep the bits of the full sum.  The x
    axis is contracted first, as one matrix product with the
    _spectral_table, then y and z.  The table is built once per call with
    every float64 part below the smallest normal (about 2.2e-308) set to 0:
    dissipated modes decay into subnormals, which put the matrix product on
    the CPU's slow path.  A term that small changes the rounding of a
    partial sum only when that sum is below about 1e-292, so sampled values
    keep the bits of the unflushed sum.  Points go in chunks whose
    intermediate holds at most _SAMPLE_ELEMS complex values (at least 16
    rows).  OpenBLAS hands a one-row matrix product to gemv, which sums in
    another order, so a chunk of one point is evaluated as two equal rows:
    each point's value does not depend on how many points share the call
    or its chunk.
    """
    pts = _points(points)
    n, N = F.grid.n, F.grid.n // 2
    K = N if tol == 0 else spectral_crop(F, tol)[0]
    k = wavevectors(F.grid).k
    kxy = np.append(k[0], -k[0].flat[N])       # row and column n: +n/2
    kz = k[2].ravel()
    table = _spectral_table(F)
    if K < N:
        keep = np.r_[0:K + 1, n - K:n]        # K = 0 keeps the mean row only
        table = table[np.ix_(keep, range(3), keep, range(K + 1))]
        kxy, kz = kxy[keep], kz[:K + 1]
    parts = table.view(np.float64)
    parts[np.abs(parts) < np.finfo(np.float64).tiny] = 0.0
    rows_k, cols_k = table.shape[2], table.shape[3]
    table = table.reshape(table.shape[0], -1)
    rows = max(16, _SAMPLE_ELEMS // table.shape[1])
    out = np.empty((pts.shape[0], 3))
    for lo in range(0, pts.shape[0], rows):
        chunk = pts[lo:lo + rows]
        ex = np.exp(1j * np.outer(chunk[:, 0], kxy))
        ey = np.exp(1j * np.outer(chunk[:, 1], kxy))
        ez = np.exp(1j * np.outer(chunk[:, 2], kz))
        if len(chunk) == 1:     # see the docstring: no one-row products
            ex = np.repeat(ex, 2, axis=0)
        a = np.dot(ex, table)[:len(chunk)].reshape(-1, 3, rows_k, cols_k)
        b = np.einsum("pcjk,pj->pck", a, ey)                 # (P, 3, kz planes)
        out[lo:lo + rows] = np.real(np.einsum("pck,pk->pc", b, ez))
    return out


def sample_trilinear(values: np.ndarray, grid: Grid3, points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of a node array at points anywhere in space,
    periodic in the box: the one place that wraps a sampled position.

    values is (3, n, n, n) for a vector field, giving (P, 3), or (n, n, n)
    for a scalar one, giving (P,).  A point's lower node is floor(x / h) and
    its weight x / h - floor(x / h); n is a power of two (Grid3), so the
    node indices wrap as `& (n - 1)` and the flat index is built by shifts.
    Each corner is one flat-index gather from a (C, n^3) table into a buffer
    that all eight share, weighted (wx * wy) * wz and added in the order
    x, then y, then z, lower node first.
    """
    pts = _points(points)
    n, P = grid.n, pts.shape[0]
    s = np.divide(pts.T, grid.spacing, out=np.empty((3, P)))    # one row per axis
    i0 = np.floor(s).astype(np.int64)
    w1 = np.subtract(s, i0, out=s)
    w0 = 1.0 - w1
    i0 &= n - 1
    i1 = (i0 + 1) & (n - 1)
    bits = n.bit_length() - 1
    offsets = np.array([[2 * bits], [bits], [0]])   # x, y, z place in the flat index
    i0 <<= offsets
    i1 <<= offsets
    table = values.reshape(-1, n ** 3)
    out = np.zeros((table.shape[0], P))
    gather = np.empty_like(out)
    wxy, wt = np.empty(P), np.empty(P)
    ixy, idx = np.empty(P, dtype=np.int64), np.empty(P, dtype=np.int64)
    for ix, wx in ((i0[0], w0[0]), (i1[0], w1[0])):
        for iy, wy in ((i0[1], w0[1]), (i1[1], w1[1])):
            np.multiply(wx, wy, out=wxy)
            np.add(ix, iy, out=ixy)
            for iz, wz in ((i0[2], w0[2]), (i1[2], w1[2])):
                np.multiply(wxy, wz, out=wt)
                np.add(ixy, iz, out=idx)
                table.take(idx, axis=1, out=gather, mode="clip")    # in range: no copy
                gather *= wt
                out += gather
    return np.ascontiguousarray(out.reshape(values.shape[:-3] + (-1,)).T)


def periodic_delta(a: np.ndarray, b: np.ndarray, box_len: float) -> np.ndarray:
    """Minimal-image displacement a - b on the periodic box."""
    d = a - b
    return d - box_len * np.round(d / box_len)


def periodic_distance(a: np.ndarray, b: np.ndarray, box_len: float) -> np.ndarray:
    return np.sqrt(np.sum(periodic_delta(a, b, box_len) ** 2, axis=-1))
