"""Estimates that the tests and acceptance criteria read and no lagflow run
computes.

The two-flow stability estimate, in the style of Crippa-De Lellis (2008)
for regular Lagrangian flows:

    || 1 ^ ||X1 - X2||_{C_T} ||_{L^p(box)}
        <= e^lam (int_0^T ||b1 - b2||_{L^p} dt + sup_t |gamma1 - gamma2|)
           + int_0^T ||grad b1||_{L^p} dt / lam,

with its time integrals written over the drifts' node_values (trapezoid on
N_QUAD times, a frozen pair evaluated once, as flow._trapezoid does).
Beside it: the grid L^p norm, the mollified field and the zero-padded
upsample the solver and field tests compare runs with, the divergence
defect of a spectrum, and the survival-tail slope of a flow weight."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from lagflow.fields import (
    Grid3,
    RealVectorField,
    SpectralVectorField,
    gradient_norm,
    half_modes,
    mollifier,
    to_spectral,
    wavevectors,
)
from lagflow.flow import _trapezoid, integrate_flow, sup_gap
from lagflow.forcing import ForcingPath

N_QUAD = 17           # trapezoid times of the drifts' L^p time integrals


def lp_norm(values: np.ndarray, p: float, cell_volume: float) -> float:
    """Grid L^p norm (p finite) of a scalar node array."""
    v = np.abs(np.asarray(values, dtype=np.float64).ravel())
    return float(np.sum(v ** p) * cell_volume) ** (1.0 / p)


def sup_distance(gamma1: ForcingPath, gamma2: ForcingPath) -> float:
    """sup_t |gamma1(t) - gamma2(t)| over the union of sample times."""
    ts = np.union1d(gamma1.times, gamma2.times)
    gap = gamma1.at(ts) - gamma2.at(ts)
    return float(np.max(np.sqrt(np.sum(gap ** 2, axis=1))))


def lp_difference_integral(b1, b2, p: float, T: float) -> float:
    """int_0^T ||b1_t - b2_t||_{L^p} dt (trapezoid on N_QUAD times)."""
    def gap(t):
        diff = b1.node_values(t) - b2.node_values(t)
        return lp_norm(np.sqrt(np.sum(diff ** 2, axis=0)), p, b1.grid.cell_volume)
    return _trapezoid(gap, np.linspace(0.0, T, N_QUAD), b1.frozen and b2.frozen)


def gradient_lp_integral(b, p: float, T: float) -> float:
    """int_0^T ||grad b_t||_{L^p} dt (trapezoid on N_QUAD times)."""
    def grad_lp(t):
        spec = to_spectral(RealVectorField(b.grid, b.node_values(t)))
        return lp_norm(gradient_norm(spec), p, b.grid.cell_volume)
    return _trapezoid(grad_lp, np.linspace(0.0, T, N_QUAD), b.frozen)


@dataclass
class StabilityReport:
    lam: float
    lhs: float                 # || 1 ^ ||X1 - X2||_{C_T} ||_{L^p(box)}
    drift_gap: float           # int ||b1 - b2||_{L^p} dt
    forcing_gap: float         # sup |gamma1 - gamma2|
    gradient_budget: float     # int ||grad b1||_{L^p} dt
    rhs_at_lambda: float
    lambda_opt: float
    rhs_opt: float


def _rhs(lam, drift_gap, forcing_gap, budget):
    return math.exp(lam) * (drift_gap + forcing_gap) + budget / lam


def stability_gap(b1, gamma1: ForcingPath, b2, gamma2: ForcingPath,
                  positions: np.ndarray, T: float, lam: float, p: float,
                  dt: float = 0.01, scheme: str = "rk4") -> StabilityReport:
    """Both sides of the two-flow stability estimate on the uniform box measure."""
    e1 = integrate_flow(b1, gamma1, positions, T, scheme, dt)
    e2 = integrate_flow(b2, gamma2, positions, T, scheme, dt)
    gaps = np.minimum(1.0, sup_gap(e1.trajectories, e2.trajectories))
    lhs = float(np.mean(gaps ** p) ** (1.0 / p))
    drift_gap = lp_difference_integral(b1, b2, p, T)
    forcing_gap = sup_distance(gamma1, gamma2)
    budget = gradient_lp_integral(b1, p, T)
    rhs_here = _rhs(lam, drift_gap, forcing_gap, budget)
    if drift_gap + forcing_gap > 0 and budget > 0:
        res = minimize_scalar(lambda x: _rhs(math.exp(x), drift_gap, forcing_gap, budget),
                              bounds=(math.log(1e-6), math.log(50.0)), method="bounded")
        lam_opt = math.exp(res.x)
        rhs_opt = float(res.fun)
    else:
        lam_opt, rhs_opt = lam, rhs_here
    return StabilityReport(lam, lhs, drift_gap, forcing_gap, budget,
                           rhs_here, lam_opt, rhs_opt)


def mollify(F: SpectralVectorField, n_moll: float) -> SpectralVectorField:
    """F times its grid's mollifier (a copy of F for n_moll = inf)."""
    mult = mollifier(F.grid, n_moll)
    return SpectralVectorField(F.grid, F.coeffs.copy() if mult is None else F.coeffs * mult)


def spectral_upsample(F: SpectralVectorField, n_new: int) -> SpectralVectorField:
    """Zero-padded embedding onto a finer grid: the function sample_spectral
    evaluates, with n_new modes per axis.

    A coefficient with Nyquist entries (-n/2) is split in two halves, one
    with -n/2 and one with +n/2 on all those axes, as in _spectral_table;
    the fine half layout keeps only the +n/2 half of a kz = -n/2
    coefficient (the other is its Hermitian partner's).  The result is the
    Hermitian part of the plain embedding: a real field with no Nyquist
    content, whose energy is F's less half of F's Nyquist energy."""
    n = F.grid.n
    if n_new < n:
        raise ValueError(f"n_new must be >= {n}, got {n_new}")
    if n_new == n:
        return SpectralVectorField(F.grid, F.coeffs.copy())
    N = n // 2
    mx, my, _ = half_modes(n)
    m = mx.ravel().astype(np.int64)
    minus = np.mod(m, n_new)                  # Nyquist entry at -n/2
    plus = np.where(m == -N, N, minus)        # Nyquist entry at +n/2
    c = np.where((mx == -N) | (my == -N), 0.5, 1.0) * F.coeffs
    c[..., N] = 0.5 * F.coeffs[..., N]
    out = np.zeros((3, n_new, n_new, n_new // 2 + 1), dtype=np.complex128)
    out[:, minus[:, None], minus[None, :], :N] = c[..., :N]
    out[:, plus[:, None], plus[None, :], :N + 1] = c      # kz = -n/2 goes to +n/2
    return SpectralVectorField(Grid3(n_new, F.grid.box_len), out)


def divergence_defect(F: SpectralVectorField) -> float:
    """max over modes of |k0.uhat| / |uhat| (0 for perfectly solenoidal)."""
    k0 = wavevectors(F.grid).k0
    dot = np.abs(k0[0] * F.coeffs[0] + k0[1] * F.coeffs[1] + k0[2] * F.coeffs[2])
    mag = np.sqrt(np.sum(np.abs(F.coeffs) ** 2, axis=0))
    mask = mag > 1e-14
    if not np.any(mask):
        return 0.0
    return float(np.max(dot[mask] / mag[mask]))


def survival_tail_slope(values: np.ndarray) -> float:
    """Log-log slope of the survival function between its 0.70 and 0.99
    quantiles."""
    v = np.asarray(values, dtype=np.float64).ravel()
    v = v[v > 0]
    if v.size < 100:
        raise ValueError("too few positive values for a tail fit")
    lo = np.quantile(v, 0.70)
    hi = np.quantile(v, 0.99)
    if not hi > lo > 0:
        raise ValueError("degenerate tail range")
    levels = np.geomspace(lo, hi, 12)
    frac = np.array([np.mean(v > a) for a in levels])
    keep = frac > 0
    slope, _ = np.polyfit(np.log(levels[keep]), np.log(frac[keep]), 1)
    return float(slope)
