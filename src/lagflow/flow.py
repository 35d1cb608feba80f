"""Drifts and particle advection for the forced ODE
X_t = x + int_0^t b(s, X_s) ds + gamma_t.

Every drift is a `Drift`.  A field drift holds the node values of (t, field)
snapshots, linear in time and frozen when there is one snapshot, and samples
them trilinearly; an analytic drift is a callable (the exact Fourier sum of
fields.sample_spectral is one, the oracle for trilinear sampling).

Integration steps on forcing.time_grid(T, dt) and saves exact strides of
it.  It goes through the Galilean transform: Y := X - gamma solves
dY/dt = b(t, Y + gamma_t), the same recursion algebraically but with the
forcing exact (no quadrature error on gamma).  Trajectories are kept
unwrapped so sup-in-time path distances are meaningful, and drifts take
unwrapped points: fields.sample_trilinear is the one place that wraps a
sampled position, and a CallableDrift wraps before calling its function.
FlowSaves is the one RK4/Euler loop: it yields each save as it is computed,
so a reader that needs one save at a time holds O(P) memory, and
integrate_flow collects its saves into a ParticleEnsemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    Grid3,
    RealVectorField,
    gradient_norm,
    sample_trilinear,
    to_real,
    to_spectral,
)
from .forcing import ForcingPath, time_grid
from .lorentz import lp_norm

N_QUAD = 17           # trapezoid times of the drift's L^p time integrals


# ---------------------------------------------------------------------------
# drift samplers

class Drift:
    """The drift protocol: `grid`, `frozen` (time-independent), `velocity(t,
    pts)` -> (P, 3) at points anywhere in space (the box is periodic) and
    `node_values(t)` -> (3, n, n, n); `velocity` is the trilinear kernel on
    the node values, and the time integrals of the stability and Picard
    estimates are written once against the protocol.
    """

    frozen = False

    def __init__(self, grid: Grid3):
        self.grid = grid

    def velocity(self, t: float, pts: np.ndarray) -> np.ndarray:
        return sample_trilinear(self.node_values(t), self.grid, pts)

    def lp_difference_integral(self, other, p: float, T: float) -> float:
        """int_0^T ||b_t - other_t||_{L^p} dt (trapezoid on N_QUAD times)."""
        def gap(t):
            diff = self.node_values(t) - other.node_values(t)
            return lp_norm(np.sqrt(np.sum(diff ** 2, axis=0)), p, self.grid.cell_volume)
        return _trapezoid(gap, np.linspace(0.0, T, N_QUAD), self.frozen and other.frozen)

    def gradient_lp_integral(self, p: float, T: float) -> float:
        """int_0^T ||grad b_t||_{L^p} dt (trapezoid on N_QUAD times)."""
        def grad_lp(t):
            spec = to_spectral(RealVectorField(self.grid, self.node_values(t)))
            return lp_norm(gradient_norm(spec), p, self.grid.cell_volume)
        return _trapezoid(grad_lp, np.linspace(0.0, T, N_QUAD), self.frozen)

    def sup_norm_integral(self, times: np.ndarray) -> float:
        """int ||b_t||_{C0} dt on the given time grid."""
        def sup(t):
            return float(np.max(np.sqrt(np.sum(self.node_values(t) ** 2, axis=0))))
        return _trapezoid(sup, times, self.frozen)


def _trapezoid(integrand, ts: np.ndarray, frozen: bool) -> float:
    """Trapezoid rule of integrand(t) on ts; a frozen integrand is evaluated
    once and repeated, the same bits as evaluating it at every time."""
    values = [integrand(ts[0])] * len(ts) if frozen else [integrand(t) for t in ts]
    return float(np.trapezoid(values, ts))


class FieldDrift(Drift):
    """Velocity from (t, field) snapshots, such as states solver.run yields,
    linear in time between them and constant outside; frozen when there is
    one snapshot.  Only node values are kept: one to_real per spectral
    snapshot, none for a real one."""

    def __init__(self, snapshots):
        if len(snapshots) == 0:
            raise ValueError("a field drift needs at least one snapshot")
        self.times = np.asarray([float(t) for t, _ in snapshots])
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("snapshot times must be strictly increasing")
        grid = snapshots[0][1].grid
        if any(f.grid != grid for _, f in snapshots):
            raise ValueError("snapshot fields lie on different grids")
        self.values = [(f if isinstance(f, RealVectorField) else to_real(f)).samples
                       for _, f in snapshots]
        self.frozen = len(self.values) == 1
        super().__init__(grid)

    def node_values(self, t: float) -> np.ndarray:
        ts = self.times
        if t <= ts[0]:
            return self.values[0]
        if t >= ts[-1]:
            return self.values[-1]
        i = int(np.searchsorted(ts, t, side="right")) - 1
        w = (t - ts[i]) / (ts[i + 1] - ts[i])
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]


class CallableDrift(Drift):
    """Analytic drift b(t, pts) -> (P, 3): negative controls and the exact
    spectral oracle.  velocity passes the points wrapped into the box, as
    such a function may not be periodic."""

    def __init__(self, fn, grid: Grid3):
        super().__init__(grid)
        self.fn = fn

    def velocity(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self.fn(t, np.mod(pts, self.grid.box_len))

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

    def sup_gap(self, other: "ParticleEnsemble") -> np.ndarray:
        """Per-particle sup-in-time Euclidean gap (unwrapped paths)."""
        return sup_gap(self.trajectories, other.trajectories)


class SupGap:
    """Running per-path sup-in-time Euclidean gap of two paths, given one
    pair of (P, 3) position arrays per save time by add, so no (S, P, 3)
    temporary is made.

    Bit for bit max_s sqrt(sum_c (a - b)^2): the squares are summed in
    numpy's order for a length-3 axis, (d0 + d1) + d2, the running max is
    exact and the sqrt, being monotone and correctly rounded, is taken after
    the max."""

    def __init__(self):
        self._top = None

    def add(self, x: np.ndarray, y: np.ndarray) -> None:
        d = x - y
        np.multiply(d, d, out=d)
        s = d[:, 0] + d[:, 1]
        s += d[:, 2]
        self._top = s if self._top is None else np.maximum(self._top, s, out=self._top)

    def value(self) -> np.ndarray:
        """The gaps so far -> (P,); raises ValueError before the first add."""
        if self._top is None:
            raise ValueError("paths with no save time")
        return np.sqrt(self._top)


def sup_gap(a, b) -> np.ndarray:
    """SupGap of two paths -> (P,): a and b are (S, P, 3) arrays or any two
    sequences of S (P, 3) position arrays, read one save at a time."""
    gap = SupGap()
    for x, y in zip(a, b, strict=True):
        gap.add(x, y)
    return gap.value()


def lattice_positions(m: int, box_len: float) -> np.ndarray:
    x = (np.arange(m) + 0.5) * (box_len / m)
    g = np.meshgrid(x, x, x, indexing="ij")
    return np.stack([a.ravel() for a in g], axis=1)


class FlowSaves:
    """The saves of one integration of particles under (b, gamma) on
    time_grid(T, dt), computed as they are read.

    `initial_positions` (P, 3) and the save `times` (S,) are known up
    front: every save_every-th grid time and T (by default every
    max(1, n_steps // 64)-th).  Iterating runs the RK4 or Euler loop once
    and yields each save's unwrapped X, a new (P, 3) array, as soon as it
    is computed; it holds O(P) memory whatever S is.  gamma is read with
    one call per set of times: the steps' starts i h, for RK4 also their
    midpoints i h + h/2 and ends i h + h, and the save times."""

    def __init__(self, b, gamma: ForcingPath, positions: np.ndarray, T: float,
                 scheme: str = "rk4", dt: float = 0.01, save_every: int | None = None):
        if scheme not in ("rk4", "euler"):
            raise ValueError(f"unknown scheme {scheme!r}")
        grid_times = time_grid(T, dt)
        n_steps = grid_times.size - 1
        if save_every is None:
            save_every = max(1, n_steps // 64)
        if save_every < 1:
            raise ValueError(f"save_every must be >= 1, got {save_every}")
        self.b, self.gamma, self.T, self.scheme = b, gamma, T, scheme
        self.initial_positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        self.box_len = b.grid.box_len
        self._steps = n_steps
        self._saves = sorted(set(range(0, n_steps + 1, save_every)) | {n_steps})
        self.times = grid_times[self._saves]

    def __iter__(self):
        b, gamma, n_steps, saves = self.b, self.gamma, self._steps, self._saves
        h = self.T / n_steps

        def rhs(t, y, g):
            v = b.velocity(t, y + g)
            if not np.all(np.isfinite(v)):
                raise FloatingPointError(f"non-finite velocity at t={t}")
            return v

        starts = np.arange(n_steps) * h
        g0 = gamma.at(starts)
        if self.scheme == "rk4":
            g_mid, g_end = gamma.at(starts + 0.5 * h), gamma.at(starts + h)
        g_save = gamma.at(self.times)
        y = self.initial_positions.copy()   # Y = X - gamma, Y_0 = x
        yield y + g_save[0]
        k = 1
        for i, t in enumerate(starts):
            if self.scheme == "euler":
                y = y + h * rhs(t, y, g0[i])
            else:
                k1 = rhs(t, y, g0[i])
                k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1, g_mid[i])
                k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2, g_mid[i])
                k4 = rhs(t + h, y + h * k3, g_end[i])
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if k < len(saves) and i + 1 == saves[k]:
                yield y + g_save[k]
                k += 1


def integrate_flow(b, gamma: ForcingPath, positions: np.ndarray, T: float,
                   scheme: str = "rk4", dt: float = 0.01,
                   save_every: int | None = None, m: int | None = None) -> ParticleEnsemble:
    """FlowSaves(b, gamma, positions, T, scheme, dt, save_every) collected:
    each save is written into the one (S, P, 3) array the ensemble keeps."""
    saves = FlowSaves(b, gamma, positions, T, scheme, dt, save_every)
    traj = np.empty((saves.times.size, saves.initial_positions.shape[0], 3))
    for k, x in enumerate(saves):
        traj[k] = x
    return ParticleEnsemble(saves.initial_positions, saves.times, traj, saves.box_len, m)


def compressibility_constant(ensemble: ParticleEnsemble, cells: int | None = None) -> float:
    """Max-over-mean cell occupancy of the (wrapped) final positions."""
    if ensemble.count == 0:
        raise ValueError("empty ensemble")
    if cells is None:
        if ensemble.m is None:
            raise ValueError("cells required for non-lattice ensembles")
        cells = max(2, ensemble.m // 4)
    pos = np.mod(ensemble.trajectories[-1], ensemble.box_len)
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
        from scipy.optimize import minimize_scalar    # scipy.optimize costs a run's start-up

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
