"""Picard iterations Z(n+1) = x + int_0^t b(Z(n)) + gamma and their rates.

The fixed-point map is discretized with trapezoid quadrature in time; the
reference trajectory is an RK4 integration at a quarter of the iteration
step, saved on the iteration time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import integrate_flow
from .forcing import ForcingPath


@dataclass
class PicardRun:
    x: np.ndarray                    # (P, 3) initial points
    times: np.ndarray                # (nt,)
    iterates: list                   # arrays (nt, P, 3), including Z(0)
    reference: np.ndarray            # (nt, P, 3) RK4 trajectory
    gaps: np.ndarray                 # (n_iters+1, P) sup-in-time gaps
    b_sup_integral: float            # int_0^T ||b_t||_{C0} dt
    H_T_at_x: np.ndarray | None = None


def _velocities_along(b, times: np.ndarray, path: np.ndarray) -> np.ndarray:
    """b evaluated along a path array (nt, P, 3), wrapped into the box."""
    box = b.grid.box_len
    nt, P, _ = path.shape
    if b.frozen:
        flat = b.velocity(0.0, np.mod(path.reshape(nt * P, 3), box))
        return flat.reshape(nt, P, 3)
    out = np.empty_like(path)
    for i, t in enumerate(times):
        out[i] = b.velocity(t, np.mod(path[i], box))
    return out


def _cumtrapz(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid along axis 0, starting at 0."""
    dt = np.diff(times)
    inc = 0.5 * (values[1:] + values[:-1]) * dt[:, None, None]
    out = np.zeros_like(values)
    np.cumsum(inc, axis=0, out=out[1:])
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
        z = pts[None, :, :] + _cumtrapz(v, times) + gvals[:, None, :]
        yield z


def picard_iterate(b, gamma: ForcingPath, x, n_iters: int, dt: float,
                   keep_iterates: bool = True,
                   z0_perturbation: np.ndarray | None = None) -> PicardRun:
    """Run n_iters Picard iterations from Z(0) = x + gamma, with their gaps
    to the RK4 reference.

    x may be a single point (3,) or an array of points (P, 3); the run is
    vectorized over points.  z0_perturbation, if given, is an (nt+1, 3)
    offset added to the zeroth iterate only (see picard_paths).  Without
    keep_iterates only Z(0) and the last iterate are kept.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    T = gamma.T
    nt = max(1, int(round(T / dt)))
    times = np.linspace(0.0, T, nt + 1)
    paths = picard_paths(b, gamma, pts, times, n_iters, z0_perturbation)
    z = next(paths)                               # checks the arguments first

    ref_ens = integrate_flow(b, gamma, pts, T, "rk4", dt / 4.0,
                             save_count=nt + 1)
    if ref_ens.times.size != times.size or np.max(np.abs(ref_ens.times - times)) > 1e-9:
        raise RuntimeError("reference save times misaligned with iteration grid")
    reference = ref_ens.trajectories              # (nt+1, P, 3)

    iterates = [z]
    gaps = [_sup_gap(z, reference)]
    for z in paths:
        if keep_iterates:
            iterates.append(z)
        gaps.append(_sup_gap(z, reference))
    if not keep_iterates:
        iterates.append(z)
    return PicardRun(pts, times, iterates, reference, np.stack(gaps),
                     b.sup_norm_integral(times))


def _sup_gap(z: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return np.max(np.sqrt(np.sum((z - ref) ** 2, axis=2)), axis=0)


def convergence_rate(run: PicardRun, point: int = 0, floor: float = 1e-12) -> dict:
    """Fit the per-iterate log-gap slope on the pre-round-off range."""
    if run.gaps.shape[0] < 5:
        raise ValueError("need at least 5 iterates for a rate fit")
    g = run.gaps[:, point]
    usable = np.nonzero(g > max(floor, 1e-10 * max(g[0], floor)))[0]
    rhs = (math.exp(math.e * float(run.H_T_at_x[point])) * run.b_sup_integral
           if run.H_T_at_x is not None else None)
    if usable.size < 3:
        return {"converged_immediately": True, "slope": -math.inf,
                "gaps": g, "bound_rhs": rhs}
    ns = usable
    slope, _ = np.polyfit(ns, np.log(g[ns]), 1)
    return {"converged_immediately": False, "slope": float(slope),
            "gaps": g, "bound_rhs": rhs}


def slopes_per_point(run: PicardRun, floor: float = 1e-12) -> np.ndarray:
    """Vectorized log-gap slope fit for every point of a lattice run."""
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


def weighted_gaps(run: PicardRun, h_along: np.ndarray) -> np.ndarray:
    """Gaps in the weighted sup metric with weight exp(-e * int_0^t h(X_s) ds).

    h_along holds the weight values along the reference trajectory, shape
    (nt, P); returns (n_iters+1, P) weighted distances d_T(Z(n), X).
    """
    h_along = np.asarray(h_along, dtype=np.float64)
    dtv = np.diff(run.times)
    cum = np.zeros_like(h_along)
    np.cumsum(0.5 * (h_along[1:] + h_along[:-1]) * dtv[:, None], axis=0, out=cum[1:])
    w = np.exp(-math.e * cum)                     # (nt, P)
    out = np.empty((len(run.iterates), run.x.shape[0]))
    for i, z in enumerate(run.iterates):
        out[i] = np.max(w * np.sqrt(np.sum((z - run.reference) ** 2, axis=2)), axis=0)
    return out


def bad_set_measure(b, gamma: ForcingPath, lattice: np.ndarray, n_iters: int,
                    dt: float, threshold_rule: str = "exp",
                    absolute_threshold: float | None = None,
                    run: PicardRun | None = None) -> dict:
    """Fraction of lattice points with sup-gap above e^(-n/2) per iterate n.

    threshold_rule "exp" uses e^(-n/2); "absolute" uses the given fixed
    threshold for every n.  Pass a precomputed run to reuse its gaps.
    """
    if run is None:
        run = picard_iterate(b, gamma, lattice, n_iters, dt, keep_iterates=False)
    rows = []
    for n in range(run.gaps.shape[0]):
        if threshold_rule == "exp":
            thr = math.exp(-n / 2.0)
        elif threshold_rule == "absolute":
            if absolute_threshold is None:
                raise ValueError("absolute threshold_rule needs absolute_threshold")
            thr = absolute_threshold
        else:
            raise ValueError(f"unknown threshold_rule {threshold_rule!r}")
        frac = float(np.mean(run.gaps[n] > thr))
        rows.append({"n": n, "threshold": thr, "fraction": frac})
    # mid-range log-log slope over iterates with nonzero, non-unit fraction
    ns = np.array([r["n"] for r in rows[1:]], dtype=np.float64)
    fr = np.array([r["fraction"] for r in rows[1:]])
    ok = (fr > 0) & (fr < 1) & (ns > 0)
    slope = float(np.polyfit(np.log(ns[ok]), np.log(fr[ok]), 1)[0]) if ok.sum() >= 2 else None
    return {"rows": rows, "slope": slope, "gaps": run.gaps}
