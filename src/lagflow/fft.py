"""The one FFT layer: real-to-complex transforms of periodic grid arrays.

Every transform in lagflow goes through this module.  Transforms act on the
last three axes of an (..., n, n, n) array and are forward-normalized: a
coefficient is the forward sum divided by n^3, so the zero mode is the mean
and the inverse carries no factor.

A real field's coefficients are Hermitian, c(-k) = conj(c(k)), so the
half-spectrum layout (..., n, n, n//2 + 1) of scipy.fft.rfftn, which keeps
kz >= 0 only, holds all of them; it is the only spectral layout in lagflow.
In a sum over all modes, each interior kz plane of that layout stands for
itself and its mirror image (weight 2); the kz = 0 and kz = n/2 planes stand
for themselves only (weight 1).  A half array whose kz = 0 or kz = n/2
plane is not Hermitian in (kx, ky) belongs to no real field; the inverse
returns the real part of the complex field it describes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.fft

_AXES = (-3, -2, -1)


def forward(values: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients of a real (..., n, n, n) array."""
    return scipy.fft.rfftn(values, axes=_AXES, norm="forward")


def inverse(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Real (..., n, n, n) array of half-spectrum coefficients."""
    return scipy.fft.irfftn(coeffs, s=(n, n, n), axes=_AXES, norm="forward")


@lru_cache(maxsize=32)
def plane_weights(n: int) -> np.ndarray:
    """Multiplicity of each kz plane of the half layout in a sum over all
    modes, shaped (1, 1, n//2 + 1) to broadcast."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    w.setflags(write=False)
    return w[None, None, :]
