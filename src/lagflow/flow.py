"""Particle advection for the forced ODE  X_t = x + int_0^t b(s, X_s) ds + gamma_t.

Integration always goes through the Galilean transform: Y := X - gamma
solves dY/dt = b(t, Y + gamma_t), which is the same recursion algebraically
but keeps the forcing exact (no quadrature error on gamma).  Trajectories
are kept unwrapped so sup-in-time path distances are meaningful; positions
are wrapped into the box only when sampling fields or binning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .fields import (
    Grid3,
    RealVectorField,
    SpectralVectorField,
    gradient,
    sample_trilinear,
    sample_spectral,
    to_real,
    to_spectral,
)
from .forcing import ForcingPath
from .lorentz import lp_norm


# ---------------------------------------------------------------------------
# drift samplers

class Drift:
    """The drift protocol: `grid`, `frozen` (time-independent), `velocity(t,
    pts)` -> (P, 3) and `node_values(t)` -> (3, n, n, n); the time integrals
    of the stability and Picard estimates are written once against it."""

    frozen = False

    def spectral_at(self, t: float) -> SpectralVectorField:
        return to_spectral(RealVectorField(self.grid, self.node_values(t)))

    def lp_difference_integral(self, other, p: float, T: float, n_quad: int = 17) -> float:
        """int_0^T ||b_t - other_t||_{L^p} dt."""
        def gap(t):
            diff = self.node_values(t) - other.node_values(t)
            return lp_norm(np.sqrt(np.sum(diff ** 2, axis=0)), p, self.grid.cell_volume)
        ts = np.linspace(0.0, T, n_quad)
        return float(np.trapezoid([gap(t) for t in ts], ts))

    def gradient_lp_integral(self, p: float, T: float, n_quad: int = 17) -> float:
        """int_0^T ||grad b_t||_{L^p} dt."""
        def grad_lp(t):
            mag = gradient(self.spectral_at(t)).magnitude()
            return lp_norm(mag, p, self.grid.cell_volume)
        ts = np.linspace(0.0, T, n_quad)
        return float(np.trapezoid([grad_lp(t) for t in ts], ts))

    def sup_norm_integral(self, times: np.ndarray) -> float:
        """int ||b_t||_{C0} dt on the given time grid."""
        def sup(t):
            return float(np.max(np.sqrt(np.sum(self.node_values(t) ** 2, axis=0))))
        return float(np.trapezoid([sup(t) for t in times], times))


class FrozenFieldDrift(Drift):
    """Time-independent velocity field, trilinear or spectral sampling."""

    frozen = True

    def __init__(self, field, mode: str = "trilinear"):
        if isinstance(field, SpectralVectorField):
            self.spectral = field
            self.real = to_real(field)
        else:
            self.real = field
            self.spectral = to_spectral(field)
        self.grid = self.real.grid
        self.mode = mode

    def velocity(self, t: float, pts: np.ndarray) -> np.ndarray:
        if self.mode == "spectral":
            return sample_spectral(self.spectral, pts)
        return sample_trilinear(self.real, pts)

    def node_values(self, t: float) -> np.ndarray:
        return self.real.samples

    def spectral_at(self, t: float) -> SpectralVectorField:
        return self.spectral


class SnapshotDrift(Drift):
    """Velocity from solver snapshots, linear interpolation in time."""

    def __init__(self, times, fields, mode: str = "trilinear"):
        self.times = np.asarray([float(t) for t in times])
        if self.times.size < 1 or np.any(np.diff(self.times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")
        self.fields = [f if isinstance(f, RealVectorField) else to_real(f)
                       for f in fields]
        if len(self.fields) != self.times.size:
            raise ValueError("times/fields length mismatch")
        self.grid = self.fields[0].grid
        self.mode = mode

    @classmethod
    def from_run(cls, snapshots, mode: str = "trilinear") -> "SnapshotDrift":
        times = [t for t, _ in snapshots]
        fields = [f for _, f in snapshots]
        return cls(times, fields, mode)

    def node_values(self, t: float) -> np.ndarray:
        ts = self.times
        if t <= ts[0]:
            return self.fields[0].samples
        if t >= ts[-1]:
            return self.fields[-1].samples
        i = int(np.searchsorted(ts, t, side="right")) - 1
        w = (t - ts[i]) / (ts[i + 1] - ts[i])
        return (1.0 - w) * self.fields[i].samples + w * self.fields[i + 1].samples

    def velocity(self, t: float, pts: np.ndarray) -> np.ndarray:
        if self.mode == "spectral":
            return sample_spectral(self.spectral_at(t), pts)
        return sample_trilinear(RealVectorField(self.grid, self.node_values(t)), pts)


class CallableDrift(Drift):
    """Analytic drift b(t, pts) -> (P, 3); used for negative controls."""

    def __init__(self, fn, grid: Grid3):
        self.fn = fn
        self.grid = grid

    def velocity(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self.fn(t, pts)

    def node_values(self, t: float) -> np.ndarray:
        n = self.grid.n
        nodes = np.stack([a.ravel() for a in self.grid.meshgrid()], axis=1)
        return self.fn(t, nodes).T.reshape(3, n, n, n)


# ---------------------------------------------------------------------------
# ensembles and integration

@dataclass
class ParticleEnsemble:
    """Initial positions plus unwrapped trajectories at the save times."""

    initial_positions: np.ndarray     # (P, 3)
    times: np.ndarray                 # (S,)
    trajectories: np.ndarray          # (S, P, 3), unwrapped
    box_len: float
    m: int | None = None              # particles per axis if lattice-initialized

    def __post_init__(self):
        if self.trajectories.shape != (self.times.size, self.initial_positions.shape[0], 3):
            raise ValueError("trajectory shape inconsistent with times/positions")

    @property
    def count(self) -> int:
        return self.initial_positions.shape[0]

    def wrapped(self, index: int = -1) -> np.ndarray:
        return np.mod(self.trajectories[index], self.box_len)

    def sup_gap(self, other: "ParticleEnsemble") -> np.ndarray:
        """Per-particle sup-in-time Euclidean gap (unwrapped paths)."""
        d = self.trajectories - other.trajectories
        return np.max(np.sqrt(np.sum(d ** 2, axis=2)), axis=0)


def lattice_positions(m: int, box_len: float) -> np.ndarray:
    x = (np.arange(m) + 0.5) * (box_len / m)
    g = np.meshgrid(x, x, x, indexing="ij")
    return np.stack([a.ravel() for a in g], axis=1)


def integrate_flow(b, gamma: ForcingPath, positions: np.ndarray, T: float,
                   scheme: str = "rk4", dt: float = 0.01,
                   save_count: int | None = None, m: int | None = None) -> ParticleEnsemble:
    """Advect particles under (b, gamma); returns unwrapped X trajectories."""
    if scheme not in ("rk4", "euler"):
        raise ValueError(f"unknown scheme {scheme!r}")
    pts = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    n_steps = max(1, int(round(T / dt)))
    h = T / n_steps
    if save_count is None:
        save_count = min(n_steps + 1, 65)
    save_every = max(1, n_steps // max(1, save_count - 1))
    box = b.grid.box_len

    def rhs(t, y):
        v = b.velocity(t, np.mod(y, box) + gamma.at(t))
        if not np.all(np.isfinite(v)):
            raise FloatingPointError(f"non-finite velocity at t={t}")
        return v

    y = pts.copy()   # Y = X - gamma, Y_0 = x
    t = 0.0
    times = [0.0]
    saved = [y + gamma.at(0.0)]
    for i in range(n_steps):
        if scheme == "euler":
            y = y + h * rhs(t, y)
        else:
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = (i + 1) * h
        if (i + 1) % save_every == 0 or i + 1 == n_steps:
            times.append(t)
            saved.append(y + gamma.at(t))
    return ParticleEnsemble(pts, np.array(times), np.stack(saved), box, m)


def compressibility_constant(ensemble: ParticleEnsemble, cells: int | None = None,
                             index: int = -1) -> float:
    """Max-over-mean cell occupancy of the (wrapped) positions at a save time."""
    if ensemble.count == 0:
        raise ValueError("empty ensemble")
    if cells is None:
        if ensemble.m is None:
            raise ValueError("cells required for non-lattice ensembles")
        cells = max(2, ensemble.m // 4)
    pos = ensemble.wrapped(index)
    idx = np.floor(pos / ensemble.box_len * cells).astype(np.int64)
    idx = np.clip(idx, 0, cells - 1)
    flat = (idx[:, 0] * cells + idx[:, 1]) * cells + idx[:, 2]
    counts = np.bincount(flat, minlength=cells ** 3)
    return float(counts.max() / counts.mean())


# ---------------------------------------------------------------------------
# stability / convergence of the flow in (b, gamma)

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

    def fitted_constant(self) -> float:
        return self.lhs / self.rhs_opt if self.rhs_opt > 0 else 0.0


def _rhs(lam, drift_gap, forcing_gap, budget):
    return math.exp(lam) * (drift_gap + forcing_gap) + budget / lam


def stability_gap(b1, gamma1: ForcingPath, b2, gamma2: ForcingPath,
                  positions: np.ndarray, T: float, lam: float, p: float,
                  dt: float = 0.01, scheme: str = "rk4") -> StabilityReport:
    """Both sides of the two-flow stability estimate on the uniform box measure."""
    e1 = integrate_flow(b1, gamma1, positions, T, scheme, dt)
    e2 = integrate_flow(b2, gamma2, positions, T, scheme, dt)
    gaps = np.minimum(1.0, e1.sup_gap(e2))
    lhs = float(np.mean(gaps ** p) ** (1.0 / p))
    drift_gap = b1.lp_difference_integral(b2, p, T)
    forcing_gap = gamma1.sup_distance(gamma2)
    budget = b1.gradient_lp_integral(p, T)
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


def flow_convergence_test(b_sequence, gamma_sequence, b_limit, gamma_limit: ForcingPath,
                          positions: np.ndarray, T: float, p: float,
                          dt: float = 0.01, scheme: str = "rk4"):
    """p-th-moment sup-in-time trajectory gaps against the limit flow."""
    ref = integrate_flow(b_limit, gamma_limit, positions, T, scheme, dt)
    gaps = []
    for bn, gn in zip(b_sequence, gamma_sequence):
        en = integrate_flow(bn, gn, positions, T, scheme, dt)
        g = en.sup_gap(ref)
        gaps.append(float(np.mean(g ** p) ** (1.0 / p)))
    return gaps
