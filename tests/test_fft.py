"""Property tests for the half-spectrum layer against full-spectrum oracles.

Random real fields at n = 8 and 16 carry non-zero Nyquist planes.  The
oracles are numpy's complex FFTs and lagflow's full-spectrum norms and
Leray projection.
"""

import math

import numpy as np
import pytest

from lagflow import fft
from lagflow.fields import (
    Grid3,
    SpectralVectorField,
    _k_arrays,
    fourier_lebesgue_norm,
    gradient,
    l2_norm,
    leray_project,
    sobolev_norm,
)
from lagflow.solver import SolverConfig, _accept, _nonlinear, _Operators, _record

CASES = [(n, seed) for n in (8, 16) for seed in (0, 1)]


def random_field(n, seed):
    return np.random.default_rng(seed).standard_normal((3, n, n, n))


def full_oracle(x):
    n = x.shape[-1]
    return np.fft.fftn(x, axes=(1, 2, 3)) / n ** 3


def real_oracle(coeffs):
    n = coeffs.shape[-1]
    return np.real(np.fft.ifftn(coeffs * n ** 3, axes=(-3, -2, -1)))


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
    assert max_rel(fft.half(full), full[..., :h]) < 1e-13


@pytest.mark.parametrize("n, seed", CASES)
def test_hermitian_fill_round_trips(n, seed):
    full = full_oracle(random_field(n, seed))
    half = fft.half(full)
    filled = fft.full(half, n)
    assert max_rel(filled, full) < 1e-13
    # the Hermitian part is exactly Hermitian: fill and half invert each other
    np.testing.assert_array_equal(fft.half(filled), half)
    np.testing.assert_array_equal(fft.full(fft.half(filled), n), filled)


def test_half_takes_real_part_of_non_hermitian_input():
    n = 8
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal((3, n, n, n)) + 1j * rng.standard_normal((3, n, n, n))
    assert max_rel(fft.inverse(fft.half(coeffs), n), real_oracle(coeffs)) < 1e-13


def test_plane_weights():
    w = fft.plane_weights(8).ravel()
    np.testing.assert_array_equal(w, [1.0, 2.0, 2.0, 2.0, 1.0])
    assert not fft.plane_weights(8).flags.writeable


@pytest.mark.parametrize("n, seed", CASES)
def test_half_spectrum_norm_sums(n, seed):
    grid = Grid3(n, 1.3)
    F = SpectralVectorField(grid, full_oracle(random_field(n, seed)))
    rec = _record(_accept(fft.half(F.coeffs), grid), grid, 0.0, 0.0)
    assert rec.energy == pytest.approx(l2_norm(F) ** 2, rel=1e-13)
    assert rec.enstrophy == pytest.approx(sobolev_norm(F, 1.0) ** 2, rel=1e-13)
    assert rec.h2 == pytest.approx(sobolev_norm(F, 2.0), rel=1e-13)
    assert rec.fl1 == pytest.approx(fourier_lebesgue_norm(F), rel=1e-13)


def gradient_oracle(coeffs, grid):
    kx, ky, kz, _ = _k_arrays(grid.n, grid.box_len)
    return np.stack([np.stack([real_oracle(1j * k * coeffs[i]) for k in (kx, ky, kz)])
                     for i in range(3)])


@pytest.mark.parametrize("n, seed", CASES)
def test_gradient_matches_full_spectrum(n, seed):
    grid = Grid3(n, 1.3)
    coeffs = full_oracle(random_field(n, seed))
    want = gradient_oracle(coeffs, grid)
    assert max_rel(gradient(SpectralVectorField(grid, coeffs)).comps, want) < 1e-13
    state = _accept(fft.half(coeffs), grid)
    assert max_rel(np.stack(state.grad), want) < 1e-13
    assert max_rel(state.velocity, real_oracle(coeffs)) < 1e-13


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("n_moll", [math.inf, 3.0])
@pytest.mark.parametrize("n, seed", CASES)
def test_nonlinear_term_matches_full_spectrum(n, seed, dealias, n_moll):
    grid = Grid3(n, 1.3)
    cfg = SolverConfig(grid, 0.05, 0.01, 1.0, n_moll=n_moll, dealias=dealias)
    coeffs = full_oracle(random_field(n, seed))
    # full-spectrum oracle: -P[(rho_n * u) . grad u]
    _, _, _, k_sq = _k_arrays(n, grid.box_len)
    moll = 1.0 if math.isinf(n_moll) else np.exp(-k_sq / (2.0 * n_moll ** 2))
    v = real_oracle(coeffs * moll)
    du = gradient_oracle(coeffs, grid)
    w = v[0] * du[:, 0] + v[1] * du[:, 1] + v[2] * du[:, 2]
    what = full_oracle(w)
    if dealias:
        keep = np.abs(np.fft.fftfreq(n) * n) <= n / 3.0
        what *= keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
    want = -leray_project(SpectralVectorField(grid, what)).coeffs

    got = _nonlinear(_accept(fft.half(coeffs), grid), _Operators(cfg))
    # compared as nodal fields: on Nyquist planes the two layouts store the
    # same real field with different (non-Hermitian) coefficients
    assert max_rel(fft.inverse(got, n), real_oracle(want)) < 1e-13
