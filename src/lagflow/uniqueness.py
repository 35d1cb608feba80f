"""Almost-everywhere uniqueness probes for the forced trajectory ODE.

Several independent candidate solutions are computed per starting point —
different integrators, step sizes, and Picard starts — all driven by the
byte-identical forcing path.  A point "branches" when the candidates
disagree by more than a discretization-sized tolerance; genuine uniqueness
shows up as a branching fraction that vanishes under step refinement,
while a rough drift (the negative control) keeps a persistent branch set.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .flow import CallableDrift, integrate_flow, sup_gap
from .forcing import ForcingPath, sample_brownian, time_grid
from .picard import picard_paths


def forcing_digest(gamma: ForcingPath) -> str:
    """SHA-256 over the raw sample bytes; candidates must share this."""
    h = hashlib.sha256()
    h.update(gamma.times.tobytes())
    h.update(gamma.values.tobytes())
    return h.hexdigest()


def multi_scheme_solutions(b, gamma: ForcingPath, x, T: float, dt: float,
                           picard_n: int = 10) -> dict:
    """Candidate trajectories on the common grid time_grid(T, 2*dt): each
    steps at its step or at half of it, saved every second time.

    Returns {"times": (S,), "candidates": {name: (S, P, 3)},
    "failed": [names], "forcing_digest": str}.  Candidates that blow up
    (NaN/Inf) are reported in "failed" and excluded.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    save_times = time_grid(T, 2.0 * dt)
    step = save_times[1]             # 2*dt, snapped to a divisor of T
    digest = forcing_digest(gamma)

    candidates, failed = {}, []

    def _try(name, fn):
        try:
            traj = fn()
        except FloatingPointError:
            failed.append(name)
            return
        if not np.all(np.isfinite(traj)):
            failed.append(name)
            return
        candidates[name] = traj

    def _ode(scheme, h, save_every):
        return integrate_flow(b, gamma, pts, T, scheme, h, save_every).trajectories

    _try("rk4_dt", lambda: _ode("rk4", step / 2.0, 2))
    _try("rk4_2dt", lambda: _ode("rk4", step, 1))
    _try("euler_dt", lambda: _ode("euler", step / 2.0, 2))

    pic_times = time_grid(T, step / 2.0)   # subsampled to the common grid

    def _picard(pert):
        for z in picard_paths(b, gamma, pts, pic_times, picard_n, pert):
            pass                     # hold one iterate at a time, keep the last
        return z[::2]

    _try("picard", lambda: _picard(None))
    bump = 0.05 * np.sin(math.pi * pic_times / T)   # vanishes at both endpoints
    pert = np.stack([bump, -bump, 0.5 * bump], axis=1)
    _try("picard_perturbed", lambda: _picard(pert))

    return {"times": save_times, "candidates": candidates, "failed": failed,
            "forcing_digest": digest}


def candidate_spread(solutions: dict) -> np.ndarray:
    """Per-point max over candidate pairs of the sup-in-time gap."""
    trajs = list(solutions["candidates"].values())
    if len(trajs) < 2:
        raise ValueError("need at least two surviving candidates")
    P = trajs[0].shape[1]
    spread = np.zeros(P)
    for i in range(len(trajs)):
        for j in range(i + 1, len(trajs)):
            np.maximum(spread, sup_gap(trajs[i], trajs[j]), out=spread)
    return spread


def ae_uniqueness_probe(b, gamma: ForcingPath, lattice: np.ndarray, T: float,
                        dt: float) -> dict:
    """Branching fraction of a lattice under the multi-candidate spread.

    A point branches when its spread exceeds tol = 10*dt, the scale at which
    scheme disagreement is pure discretization error.
    """
    tol = 10.0 * dt
    sols = multi_scheme_solutions(b, gamma, lattice, T, dt)
    spread = candidate_spread(sols)
    return {
        "dt": dt,
        "tol": tol,
        "spread": spread,
        "branching_fraction": float(np.mean(spread > tol)),
        "max_spread": float(np.max(spread)),
        "failed": sols["failed"],
        "forcing_digest": sols["forcing_digest"],
    }


def refinement_sweep(b, gamma: ForcingPath, lattice: np.ndarray, T: float,
                     dt: float, halvings: int = 2) -> list:
    """ae_uniqueness_probe at dt, dt/2, ..., dt/2^halvings."""
    out = []
    step = dt
    for _ in range(halvings + 1):
        out.append(ae_uniqueness_probe(b, gamma, lattice, T, step))
        step *= 0.5
    return out


def sde_uniqueness_probe(b, lattice: np.ndarray, T: float, dt: float,
                         epsilon: float, seeds) -> dict:
    """Branching fractions with Brownian forcing, one probe per noise seed.

    Every candidate within one probe consumes the same ForcingPath object;
    the per-seed digest certifies the forcing bytes are shared.
    """
    probes = []
    for seed in seeds:
        gamma = sample_brownian(T, dt / 2.0, epsilon, seed)
        probes.append(ae_uniqueness_probe(b, gamma, lattice, T, dt))
    fracs = [p["branching_fraction"] for p in probes]
    return {
        "epsilon": epsilon,
        "probes": probes,
        "branching_fractions": fracs,
        "mean_branching_fraction": float(np.mean(fracs)),
    }


def negative_control_drift(grid, c: float = 2.0) -> CallableDrift:
    """Square-root-singular drift with a genuinely non-unique ODE.

    With s = z1 - L/2,

        b(z) = (-c sign(s) sqrt(|s|),  c sign(s),  0).

    The square-root attraction brings every trajectory onto the plane s = 0
    in finite time (t* = 2 sqrt(|s0|)/c); after arrival the tangential
    component admits a whole Filippov continuum of continuations, so
    candidate solvers keep disagreeing at O(1) no matter how small the
    step — the opposite of the refinement-vanishing branching of a
    Lusin-Lipschitz drift.
    """
    half = 0.5 * grid.box_len

    def fn(t, pts):
        s = pts[:, 0] - half
        out = np.zeros_like(pts)
        out[:, 0] = -c * np.sign(s) * np.sqrt(np.abs(s))
        out[:, 1] = c * np.sign(s)
        return out

    return CallableDrift(fn, grid)
