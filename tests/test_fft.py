"""Property tests for the half-spectrum layout against full-spectrum oracles.

Random real fields at n = 8 and 16 carry non-zero Nyquist planes.  The
oracles live in this file: scipy.fft's public rfftn and irfftn, which
lagflow.fft must equal bit for bit, numpy's complex FFTs, the Hermitian
fill of a half spectrum, and the full-layout wavevectors (Nyquist entry
-n/2 on every axis), norms, derivatives, Leray projector and exact
trigonometric sum.
"""

import importlib.machinery
import math

import numpy as np
import pytest
import scipy.fft

from lagflow import fft
from lagflow.fields import (
    Grid3,
    RealVectorField,
    derivatives,
    evaluate,
    fourier_lebesgue_norm,
    l2_norm,
    leray_project,
    sample_spectral,
    sobolev_norm,
    to_real,
    to_spectral,
)
from lagflow.solver import SolverConfig, _accept, _nonlinear, _Operators, _record
from oracles import gradient
from test_hygiene import run_python

CASES = [(n, seed) for n in (8, 16) for seed in (0, 1)]


def random_field(n, seed):
    return np.random.default_rng(seed).standard_normal((3, n, n, n))


def full_oracle(x):
    n = x.shape[-1]
    return np.fft.fftn(x, axes=(1, 2, 3)) / n ** 3


def real_oracle(coeffs):
    n = coeffs.shape[-1]
    return np.real(np.fft.ifftn(coeffs * n ** 3, axes=(-3, -2, -1)))


def hermitian_fill(half, n):
    """Full layout from the half one: c(kx, ky, -kz) = conj(c(-kx, -ky, kz))
    on the interior kz planes; the kz = 0 and n/2 planes are kept as given."""
    h = n // 2 + 1
    out = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
    out[..., :h] = half
    mirror = np.roll(np.flip(half[..., h - 2:0:-1], (-3, -2)), 1, (-3, -2))
    out[..., h:] = np.conj(mirror)
    return out


def full_k(grid):
    """Full-layout physical wavevectors (kx, ky, kz); Nyquist entry -n/2."""
    k = 2.0 * math.pi / grid.box_len * np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    return k[:, None, None], k[None, :, None], k[None, None, :]


def full_k0(grid):
    """full_k with the Nyquist entries set to 0."""
    return tuple(np.where(np.abs(k) == math.pi * grid.n / grid.box_len, 0.0, k)
                 for k in full_k(grid))


def max_rel(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


@pytest.mark.parametrize("n, seed", CASES)
def test_transforms_match_complex_fft(n, seed):
    x = random_field(n, seed)
    full = full_oracle(x)
    h = n // 2 + 1
    assert np.max(np.abs(full[..., n // 2])) > 1e-3          # Nyquist plane present
    assert max_rel(fft.forward(x), full[..., :h]) < 1e-13
    assert max_rel(fft.inverse(fft.forward(x), n), x) < 1e-13
    assert max_rel(to_spectral(RealVectorField(Grid3(n), x)).coeffs, full[..., :h]) < 1e-13


@pytest.mark.parametrize("n, seed", CASES)
def test_hermitian_fill_round_trips(n, seed):
    # the half spectrum holds every coefficient of a real field, and
    # to_spectral's kz = 0 and n/2 planes are exactly Hermitian
    x = random_field(n, seed)
    half = to_spectral(RealVectorField(Grid3(n), x)).coeffs
    filled = hermitian_fill(half, n)
    assert max_rel(filled, full_oracle(x)) < 1e-13
    for plane in (filled[..., 0], filled[..., n // 2]):
        mirror = np.roll(np.flip(plane, (-2, -1)), 1, (-2, -1))
        np.testing.assert_array_equal(plane, np.conj(mirror))
    assert max_rel(fft.inverse(half, n), x) < 1e-13


def test_half_takes_real_part_of_non_hermitian_input():
    # a half array whose kz = 0 and n/2 planes are not Hermitian: the
    # inverse is the real part of the complex field its fill describes
    n = 8
    rng = np.random.default_rng(5)
    shape = (3, n, n, n // 2 + 1)
    half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert max_rel(fft.inverse(half, n), real_oracle(hermitian_fill(half, n))) < 1e-13


def test_plane_weights():
    w = fft.plane_weights(8).ravel()
    np.testing.assert_array_equal(w, [1.0, 2.0, 2.0, 2.0, 1.0])
    assert not fft.plane_weights(8).flags.writeable


# ---------------------------------------------------------------------------
# lagflow.fft calls scipy's pocketfft kernels itself; scipy.fft's public
# rfftn and irfftn are its oracle, bit for bit

AXES = (-3, -2, -1)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def oracle_inputs(n, lead):
    """(layout, real array, half-spectrum array) pairs of shape lead +
    (n, n, n) and lead + (n, n, n//2 + 1): C-contiguous, strided views and
    transposed views.  The spectra are random, so not Hermitian."""
    rng = np.random.default_rng(n + len(lead))
    h = n // 2 + 1

    def spectrum(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    x, c = rng.standard_normal(lead + (n, n, n)), spectrum(lead + (n, n, h))
    yield "contiguous", x, c
    yield ("strided", rng.standard_normal(lead + (n, n, 2 * n))[..., ::2],
           spectrum(lead + (2 * n, n, h))[..., ::2, :, :])
    yield "transposed", np.swapaxes(x, -1, -3), np.swapaxes(c, -2, -3)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["nnn", "3nnn"])
@pytest.mark.parametrize("n", (8, 16, 32, 64))
def test_transforms_are_scipy_fft_bits(n, lead):
    for layout, x, c in oracle_inputs(n, lead):
        assert (x.flags.c_contiguous and c.flags.c_contiguous) == (layout == "contiguous")
        want = scipy.fft.rfftn(x, axes=AXES, norm="forward")
        assert np.array_equal(bits(fft.forward(x)), bits(want)), layout
        for coeffs in (c, want):
            kept = coeffs.copy()
            want_x = scipy.fft.irfftn(coeffs, s=(n, n, n), axes=AXES, norm="forward")
            assert np.array_equal(bits(fft.inverse(coeffs, n)), bits(want_x)), layout
            assert np.array_equal(bits(coeffs), bits(kept)), layout


@pytest.mark.parametrize("shape, n", [((8, 8, 9), 16), ((16, 16, 16), 16),
                                      ((3, 16, 16, 8), 16), ((16, 9), 16), ((8, 8, 5), 16),
                                      ((8, 8, 4), 8)])
def test_inverse_rejects_other_spectrum_shapes(shape, n):
    # pocketfft alone would return (8, 8, 16) for an (8, 8, 9) spectrum at n = 16
    with pytest.raises(ValueError, match="coefficients"):
        fft.inverse(np.zeros(shape, dtype=np.complex128), n)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, bool, np.float32, np.complex128])
def test_forward_takes_real_float64(dtype):
    with pytest.raises(TypeError, match="real float64"):
        fft.forward(np.zeros((8, 8, 8), dtype=dtype))


def test_kernel_file_is_the_one_extension(tmp_path):
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    (tmp_path / "pypocketfft.py").write_text("")
    (tmp_path / ("pypocketfft_x" + suffixes[0])).write_bytes(b"")
    with pytest.raises(ImportError, match="found 0") as missing:
        fft._kernel_file(tmp_path)
    assert str(tmp_path) in str(missing.value)
    one = tmp_path / ("pypocketfft" + suffixes[0])
    one.write_bytes(b"")
    assert fft._kernel_file(tmp_path) == one
    (tmp_path / ("pypocketfft" + suffixes[-1])).write_bytes(b"")
    with pytest.raises(ImportError, match="found 2") as duplicated:
        fft._kernel_file(tmp_path)
    assert str(tmp_path) in str(duplicated.value)


@pytest.mark.parametrize("first", ["lagflow.fft", "scipy.fft"])
def test_scipy_fft_shares_the_kernel(first):
    """Whichever is imported first, lagflow.fft and scipy.fft hold one
    pocketfft module; lagflow.fft alone loads nothing else of scipy."""
    code = (f"import sys, {first}\n"
            "alone = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "import numpy as np, scipy.fft, lagflow.fft\n"
            "k = sys.modules['scipy.fft._pocketfft.pypocketfft']\n"
            "x = np.random.default_rng(0).standard_normal((8, 8, 8))\n"
            "same = np.array_equal(scipy.fft.rfftn(x, norm='forward'), lagflow.fft.forward(x))\n"
            "print(alone, k is lagflow.fft._pocketfft is scipy.fft._pocketfft.basic.pfft, same)")
    alone, shared, same = run_python(code).rsplit(" ", 2)
    if first == "lagflow.fft":
        assert alone == "['scipy.fft._pocketfft.pypocketfft']"
    assert (shared, same) == ("True", "True")


@pytest.mark.parametrize("n, seed", CASES)
def test_half_spectrum_norm_sums(n, seed):
    grid = Grid3(n, 1.3)
    x = random_field(n, seed)
    full = full_oracle(x)
    F = to_spectral(RealVectorField(grid, x))
    kx, ky, kz = full_k(grid)
    k_sq = kx ** 2 + ky ** 2 + kz ** 2
    power = np.sum(np.abs(full) ** 2, axis=0)
    energy = grid.volume * float(np.sum(power))
    enstrophy = grid.volume * float(np.sum(k_sq * power))
    h2 = math.sqrt(grid.volume * float(np.sum(k_sq ** 2 * power)))
    fl1 = float(np.sum(np.sqrt(power)))
    ops = _Operators(SolverConfig(grid, 0.05, 0.01, 1.0))
    rec = _record(_accept(F.coeffs, ops), grid, 0.0, 0.0)
    for got, want in ((rec.energy, energy), (l2_norm(F) ** 2, energy),
                      (rec.enstrophy, enstrophy), (sobolev_norm(F, 1.0) ** 2, enstrophy),
                      (rec.h2, h2), (sobolev_norm(F, 2.0), h2),
                      (rec.fl1, fl1), (fourier_lebesgue_norm(F), fl1)):
        assert got == pytest.approx(want, rel=1e-13)
    assert energy == pytest.approx(grid.volume * float(np.mean(np.sum(x ** 2, axis=0))),
                                   rel=1e-13)


def gradient_oracle(coeffs, grid):
    """Real part of the full-layout derivative: drops the Nyquist terms."""
    return np.stack([np.stack([real_oracle(1j * k * coeffs[i]) for k in full_k(grid)])
                     for i in range(3)])


@pytest.mark.parametrize("n, seed", CASES)
def test_gradient_matches_full_spectrum(n, seed):
    grid = Grid3(n, 1.3)
    x = random_field(n, seed)
    coeffs = full_oracle(x)
    want = gradient_oracle(coeffs, grid)
    F = to_spectral(RealVectorField(grid, x))
    assert max_rel(gradient(F), want) < 1e-13
    for i, j, g in derivatives(F):
        assert max_rel(g, want[i, j]) < 1e-13
    assert max_rel(evaluate(F).velocity, real_oracle(coeffs)) < 1e-13


def leray_oracle(coeffs, grid):
    """I - k0 k0^T / |k0|^2 on the full layout, the identity where k0 = 0."""
    k0 = full_k0(grid)
    k0_sq = k0[0] ** 2 + k0[1] ** 2 + k0[2] ** 2
    f = (k0[0] * coeffs[0] + k0[1] * coeffs[1] + k0[2] * coeffs[2]) / np.where(
        k0_sq == 0.0, 1.0, k0_sq)
    return np.stack([c - k * f for c, k in zip(coeffs, k0)])


@pytest.mark.parametrize("n, seed", CASES)
def test_leray_project_matches_full_spectrum(n, seed):
    grid = Grid3(n, 1.3)
    x = random_field(n, seed)
    P = leray_project(to_spectral(RealVectorField(grid, x)))
    assert max_rel(hermitian_fill(P.coeffs, n), leray_oracle(full_oracle(x), grid)) < 1e-13


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("n_moll", [math.inf, 3.0])
@pytest.mark.parametrize("n, seed", CASES)
def test_nonlinear_term_matches_full_spectrum(n, seed, dealias, n_moll):
    grid = Grid3(n, 1.3)
    cfg = SolverConfig(grid, 0.05, 0.01, 1.0, n_moll=n_moll, dealias=dealias)
    x = random_field(n, seed)
    coeffs = full_oracle(x)
    # full-spectrum oracle: -P[(rho_n * u) . grad u]
    kx, ky, kz = full_k(grid)
    k_sq = kx ** 2 + ky ** 2 + kz ** 2
    moll = 1.0 if math.isinf(n_moll) else np.exp(-k_sq / (2.0 * n_moll ** 2))
    v = real_oracle(coeffs * moll)
    du = gradient_oracle(coeffs, grid)
    w = v[0] * du[:, 0] + v[1] * du[:, 1] + v[2] * du[:, 2]
    what = full_oracle(w)
    if dealias:
        keep = np.abs(np.fft.fftfreq(n) * n) <= n / 3.0
        what *= keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
    want = -leray_oracle(what, grid)

    ops = _Operators(cfg)
    coeffs = to_spectral(RealVectorField(grid, x)).coeffs
    for got in (_accept(coeffs, ops).nonlinear, _nonlinear(coeffs, ops)[0]):
        assert max_rel(hermitian_fill(got, n), want) < 1e-13
        assert max_rel(fft.inverse(got, n), real_oracle(want)) < 1e-13


def full_sum_oracle(coeffs, grid, points):
    """Re sum over all modes of c(k) exp(i k.x), full layout."""
    kx, ky, kz = (k.ravel() for k in full_k(grid))
    ex, ey, ez = (np.exp(1j * np.outer(points[:, i], k)) for i, k in enumerate((kx, ky, kz)))
    return np.real(np.einsum("pi,pj,pk,cijk->pc", ex, ey, ez, coeffs))


@pytest.mark.parametrize("n, seed", CASES)
def test_sample_spectral_matches_full_sum(n, seed):
    grid = Grid3(n, 1.3)
    x = random_field(n, seed)
    pts = np.random.default_rng(seed + 10).uniform(-1.0, 2.5, size=(60, 3))
    want = full_sum_oracle(full_oracle(x), grid, pts)
    got = sample_spectral(to_spectral(RealVectorField(grid, x)), pts)
    assert max_rel(got, want) < 1e-13
    # and at the nodes, the node values
    idx = np.random.default_rng(seed).integers(0, n, size=(20, 3))
    nodes = sample_spectral(to_spectral(RealVectorField(grid, x)), idx * grid.spacing)
    assert max_rel(nodes, x[:, idx[:, 0], idx[:, 1], idx[:, 2]].T) < 1e-13
    assert max_rel(to_real(to_spectral(RealVectorField(grid, x))).samples, x) < 1e-13
