"""Almost-everywhere uniqueness probes for the forced trajectory ODE.

Several independent candidate solutions are computed per starting point —
different integrators, step sizes, and Picard starts — all driven by the
byte-identical forcing path.  A point "branches" when the candidates
disagree by more than a discretization-sized tolerance; genuine uniqueness
shows up as a branching fraction that vanishes under step refinement,
while a rough drift (the negative control) keeps a persistent branch set.

A Picard candidate iterates until its successive-iterate sup gap is at
round-off, 8 eps max(1, max|z|), or until picard_n iterates; further
iterates only move its last bits.  Each candidate's iteration count and
last residual are reported, so a candidate that never converged (as on the
negative control) can be told from one that did.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .flow import CallableDrift, integrate_flow, sup_gap
from .forcing import ForcingPath, sample_brownian, time_grid
from .picard import picard_paths

_ROUNDOFF = 8.0 * np.finfo(np.float64).eps     # Picard stop, relative to max(1, max|z|)


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

    A Picard candidate is the first iterate k <= picard_n whose sup gap to
    iterate k - 1 is at round-off (see the module docstring), or iterate
    picard_n.

    Returns {"times": (S,), "candidates": {name: (S, P, 3)},
    "failed": [names], "forcing_digest": str, "picard_iterations": {name:
    k}, "picard_residuals": {name: last sup gap}}, the last two for the
    Picard candidates that ran to the end (a non-finite velocity raises in
    picard_paths).  Candidates that blow up (NaN/Inf) are reported in
    "failed" and excluded.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    save_times = time_grid(T, 2.0 * dt)
    step = save_times[1]             # 2*dt, snapped to a divisor of T
    digest = forcing_digest(gamma)

    candidates, failed, iterations, residuals = {}, [], {}, {}

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

    def _picard(name, pert):
        paths = picard_paths(b, gamma, pts, pic_times, picard_n, pert)
        prev = next(paths)           # hold two iterates at a time
        for k, z in enumerate(paths, 1):
            residual = float(np.max(sup_gap(z, prev)))
            if residual <= _ROUNDOFF * max(1.0, float(np.max(np.abs(z)))):
                break
            prev = z
        iterations[name], residuals[name] = k, residual
        return z[::2]

    _try("picard", lambda: _picard("picard", None))
    bump = 0.05 * np.sin(math.pi * pic_times / T)   # vanishes at both endpoints
    pert = np.stack([bump, -bump, 0.5 * bump], axis=1)
    _try("picard_perturbed", lambda: _picard("picard_perturbed", pert))

    return {"times": save_times, "candidates": candidates, "failed": failed,
            "forcing_digest": digest, "picard_iterations": iterations,
            "picard_residuals": residuals}


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
    scheme disagreement is pure discretization error.  picard_iterations and
    picard_residual are the largest over the Picard candidates (0 and inf
    when none survived).
    """
    tol = 10.0 * dt
    sols = multi_scheme_solutions(b, gamma, lattice, T, dt)
    spread = candidate_spread(sols)
    return {
        "dt": dt,
        "tol": tol,
        "spread": spread,
        "branching_fraction": float(np.mean(spread > tol)),
        "failed": sols["failed"],
        "forcing_digest": sols["forcing_digest"],
        "picard_iterations": max(sols["picard_iterations"].values(), default=0),
        "picard_residual": max(sols["picard_residuals"].values(), default=math.inf),
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
    return {
        "probes": probes,
        "mean_branching_fraction": float(np.mean([p["branching_fraction"] for p in probes])),
    }


def negative_control_drift(grid, c: float = 2.0) -> CallableDrift:
    """Square-root-singular drift whose Picard candidates never converge.

    With s = z1 - L/2 (z wrapped into the box, as CallableDrift passes it),

        b(z) = (-c sign(s) sqrt(|s|),  c sign(s),  0).

    The square-root attraction brings every trajectory onto the plane s = 0
    in finite time (t* = 2 sqrt(|s0|)/c).  The classical solution then stays
    there, with z2' = c sign(0) = 0, so the ODE is forward-unique in the
    classical sense; only its Filippov relaxation, z2' anywhere in [-c, c],
    has a continuum of continuations.  The ODE candidates agree more closely
    as the step shrinks.  The probe's branching comes from the Picard
    candidates: their successive-iterate gap stays O(1) up to picard_n
    (multi_scheme_solutions reports it), so they stay O(1) from the ODE
    paths at every step.
    """
    half = 0.5 * grid.box_len

    def fn(t, pts):
        s = pts[:, 0] - half
        out = np.zeros_like(pts)
        out[:, 0] = -c * np.sign(s) * np.sqrt(np.abs(s))
        out[:, 1] = c * np.sign(s)
        return out

    return CallableDrift(fn, grid)
