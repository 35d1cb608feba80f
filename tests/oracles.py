"""Whole-array oracles for lagflow's streamed readers.

lagflow never holds a (3, 3, n, n, n) gradient: fields.derivatives streams
one derivative at a time and fields.gradient_norm reads that stream.
gradient and gradient_norm are the whole-array forms they replaced, kept as
the exact paths the tests compare them with, bit for bit.  Nor does the
advect stage hold an (S, P, 3) trajectory array: io.write_saves,
weights.FlowWeightSum and weights.LatticePairs read one save at a time.
write_trajectories, flow_weight and check_flow_lipschitz feed them a
collected ParticleEnsemble's saves: the ensemble path that the streamed
pass is compared with."""

import numpy as np

from lagflow import fft
from lagflow.fields import SpectralVectorField, wavevectors
from lagflow.flow import ParticleEnsemble
from lagflow.io import write_saves
from lagflow.weights import FlowWeight, FlowWeightSum, LatticePairs, WeightField


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


def write_trajectories(path, ensemble: ParticleEnsemble) -> None:
    """Write a particle ensemble as LGT1: write_saves of its saves."""
    write_saves(path, ensemble.times, ensemble.box_len, ensemble.trajectories)


def flow_weight(h: WeightField, ensemble: ParticleEnsemble) -> FlowWeight:
    """H_T along each saved (unwrapped) trajectory: FlowWeightSum fed the
    ensemble's saves."""
    H = FlowWeightSum(h, ensemble.times)
    for x in ensemble.trajectories:
        H.add(x)
    return H.value()


def check_flow_lipschitz(ensemble: ParticleEnsemble, H: FlowWeight,
                         pair_count: int = 20_000, seed: int = 2) -> dict:
    """sup_t |X_t(x)-X_t(y)| <= e^{H_T(x)} |x-y| on nearest-neighbor pairs:
    LatticePairs fed the ensemble's saves."""
    pairs = LatticePairs(ensemble.initial_positions, ensemble.m, pair_count, seed)
    for x in ensemble.trajectories:
        pairs.add(x)
    return pairs.check(H)
