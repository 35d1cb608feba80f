"""Whole-gradient oracles for the streamed derivatives of lagflow.fields.

lagflow never holds a (3, 3, n, n, n) gradient: fields.derivatives streams
one derivative at a time and fields.gradient_norm reads that stream.  These
are the whole-array forms they replaced, kept as the exact paths the tests
compare them with, bit for bit."""

import numpy as np

from lagflow import fft
from lagflow.fields import SpectralVectorField, wavevectors


def gradient(F: SpectralVectorField) -> np.ndarray:
    """Nodal gradient, shape (3, 3, n, n, n) with [i, j] = d_j u_i, from
    multipliers i k0, each component's three derivatives through one batched
    inverse transform."""
    n = F.grid.n
    ik = [1j * k for k in wavevectors(F.grid).k0]
    grad = np.empty((3, 3, n, n, n))
    spectra = np.empty((3,) + F.coeffs.shape[1:], dtype=np.complex128)
    for gi, c in zip(grad, F.coeffs):
        for j, m in enumerate(ik):
            np.multiply(m, c, out=spectra[j])
        gi[...] = fft.inverse(spectra, n)
    return grad


def gradient_norm(grad: np.ndarray) -> np.ndarray:
    """|grad u| at the nodes of a whole gradient array."""
    return np.sqrt(sum(np.sum(g ** 2, axis=0) for g in grad))
