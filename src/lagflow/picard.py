"""Picard iterations Z(n+1) = x + int_0^t b(Z(n)) + gamma and their rates.

The fixed-point map is discretized with trapezoid quadrature on
forcing.time_grid(T, dt); the reference trajectory is an RK4 integration
at a quarter of its step, saved at every fourth step: the same grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import integrate_flow, sup_gap
from .forcing import ForcingPath, time_grid


@dataclass
class PicardRun:
    x: np.ndarray                    # (P, 3) initial points
    times: np.ndarray                # (nt+1,) time_grid(T, dt)
    last: np.ndarray                 # (nt+1, P, 3) the last iterate Z(n_iters)
    reference: np.ndarray            # (nt+1, P, 3) RK4 trajectory
    gaps: np.ndarray                 # (n_iters+1, P) sup-in-time gaps
    b_sup_integral: float            # int_0^T ||b_t||_{C0} dt


def _cumtrapz(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid along axis 0 from 0: the cumsum of
    0.5 * (v[i+1] + v[i]) * dt[i], bit for bit
    scipy.integrate.cumulative_trapezoid(values, times, axis=0, initial=0)."""
    dt = np.diff(times).reshape((-1,) + (1,) * (values.ndim - 1))
    out = np.zeros_like(values)
    np.cumsum(0.5 * (values[1:] + values[:-1]) * dt, axis=0, out=out[1:])
    return out


def _velocities_along(b, times: np.ndarray, path: np.ndarray) -> np.ndarray:
    """b evaluated along an unwrapped path array (nt, P, 3)."""
    nt, P, _ = path.shape
    if b.frozen:
        return b.velocity(0.0, path.reshape(nt * P, 3)).reshape(nt, P, 3)
    out = np.empty_like(path)
    for i, t in enumerate(times):
        out[i] = b.velocity(t, path[i])
    return out


def picard_paths(b, gamma: ForcingPath, pts: np.ndarray, times: np.ndarray,
                 n_iters: int, z0_perturbation: np.ndarray | None = None):
    """Yield the iterates Z(0), ..., Z(n_iters) on `times`, each of shape
    (len(times), P, 3), for the points pts (P, 3).

    Z(0) = x + gamma, plus z0_perturbation (shape (len(times), 3)) if given,
    which probes sensitivity to the starting path; the fixed-point map itself
    is unchanged by the perturbation.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    gvals = gamma.at(times)
    z = pts[None, :, :] + gvals[:, None, :]
    if z0_perturbation is not None:
        pert = np.asarray(z0_perturbation, dtype=np.float64)
        if pert.shape != (times.size, 3):
            raise ValueError(f"z0_perturbation shape {pert.shape} != ({times.size}, 3)")
        z = z + pert[:, None, :]
    yield z
    for n in range(1, n_iters + 1):
        v = _velocities_along(b, times, z)
        if not np.all(np.isfinite(v)):
            raise FloatingPointError(f"non-finite velocity at iterate {n}")
        z = (pts[None, :, :] + _cumtrapz(v, times)
             + gvals[:, None, :])
        yield z


def picard_iterate(b, gamma: ForcingPath, x, n_iters: int, dt: float) -> PicardRun:
    """Run n_iters Picard iterations from Z(0) = x + gamma on
    time_grid(gamma.T, dt), with their gaps to the RK4 reference.

    x may be a single point (3,) or an array of points (P, 3); the run is
    vectorized over points.  Only the gaps and the last iterate are kept.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    T = gamma.T
    times = time_grid(T, dt)
    paths = picard_paths(b, gamma, pts, times, n_iters)
    z = next(paths)                               # checks the arguments first
    # a quarter of the grid's own step: every fourth RK4 time is a grid time
    reference = integrate_flow(b, gamma, pts, T, "rk4", times[1] / 4.0,
                               save_every=4).trajectories
    gaps = [sup_gap(z, reference)]
    for z in paths:
        gaps.append(sup_gap(z, reference))
    return PicardRun(pts, times, z, reference, np.stack(gaps),
                     b.sup_norm_integral(times))


def slopes_per_point(run: PicardRun) -> np.ndarray:
    """Vectorized log-gap slope fit for every point of a lattice run; gaps at
    or below floor = 1e-12 count as converged and are left out of the fit."""
    floor = 1e-12
    g = run.gaps                                  # (N+1, P)
    N1, P = g.shape
    ns = np.arange(N1, dtype=np.float64)[:, None]
    ok = g > floor
    y = np.where(ok, np.log(np.maximum(g, floor)), 0.0)
    # masked least squares, vectorized over points
    cnt = ok.sum(axis=0)
    w = ok.astype(np.float64)
    safe = np.maximum(cnt, 1)
    nbar = (ns * w).sum(axis=0) / safe
    ybar = (y * w).sum(axis=0) / safe
    sxx = (w * (ns - nbar) ** 2).sum(axis=0)
    sxy = (w * (ns - nbar) * (y - ybar)).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.where(sxx > 0, sxy / np.where(sxx > 0, sxx, 1.0), -np.inf)
    return np.where(cnt < 3, -np.inf, slopes)   # -inf = converged immediately


def weighted_gaps(run: PicardRun, iterates, h_along: np.ndarray) -> np.ndarray:
    """Gaps in the weighted sup metric with weight exp(-e * int_0^t h(X_s) ds).

    iterates are paths (nt, P, 3) on run.times, such as picard_paths yields;
    h_along holds the weight values along the reference trajectory, shape
    (nt, P); returns (len(iterates), P) weighted distances d_T(Z(n), X).
    """
    h_along = np.asarray(h_along, dtype=np.float64)
    cum = _cumtrapz(h_along, run.times)
    w = np.exp(-math.e * cum)                     # (nt, P)
    return np.stack([np.max(w * np.sqrt(np.sum((z - run.reference) ** 2, axis=2)), axis=0)
                     for z in iterates])


def bad_set_measure(run: PicardRun) -> list:
    """Fraction of the run's points with sup-gap above e^(-n/2) per iterate
    n, as rows {n, threshold, fraction}."""
    rows = []
    for n in range(run.gaps.shape[0]):
        thr = math.exp(-n / 2.0)
        rows.append({"n": n, "threshold": thr, "fraction": float(np.mean(run.gaps[n] > thr))})
    return rows
