"""Pseudo-spectral time stepping of the mollified Leray scheme.

One step integrates  du/dt = -P[(rho_n * u) . grad u] + nu Laplacian u
with the nonlinear term advanced by Heun's method (explicit RK2) and the
diffusion by the exact integrating factor exp(-nu |k|^2 dt).  The pressure
never appears: the Leray projection P enforces the divergence constraint.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson, cumulative_trapezoid

from .fields import (
    Grid3,
    RealVectorField,
    SpectralVectorField,
    _k_arrays,
    fourier_lebesgue_norm,
    gradient,
    l2_norm,
    leray_project,
    mollify,
    sobolev_norm,
    to_real,
    to_spectral,
)
from .lorentz import InequalityReport, lorentz_norm

log = logging.getLogger(__name__)


@dataclass
class SolverConfig:
    grid: Grid3
    nu: float
    dt: float
    t_end: float
    n_moll: float = math.inf
    dealias: bool = True
    seed: int = 0
    snapshot_count: int = 20
    cfl: float = 0.5
    max_halvings: int = 12

    def __post_init__(self):
        if not self.nu > 0:
            raise ValueError(f"nu must be > 0, got {self.nu}")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not self.t_end > 0:
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        if not self.n_moll >= 1:
            raise ValueError(f"n_moll must be >= 1 (or inf), got {self.n_moll}")


@dataclass
class DiagnosticsRecord:
    t: float
    energy: float      # ||u||_L2^2
    enstrophy: float   # ||grad u||_L2^2
    h2: float          # ||u||_H2
    grad_l31: float    # || |grad u| ||_{L^{3,1}}
    fl1: float         # ||u||_{FL1}

    FIELDS = ("t", "energy", "enstrophy", "h2", "grad_l31", "fl1")

    def as_row(self):
        return [self.t, self.energy, self.enstrophy, self.h2, self.grad_l31, self.fl1]


def _dealias_mask(grid: Grid3) -> np.ndarray:
    m = np.fft.fftfreq(grid.n) * grid.n
    cut = grid.n / 3.0
    keep = np.abs(m) <= cut
    return keep[:, None, None] & keep[None, :, None] & keep[None, None, :]


def _nonlinear(u: SpectralVectorField, cfg: SolverConfig, mask: np.ndarray) -> np.ndarray:
    """-P[(rho_n * u) . grad u] in spectral space (coeffs array)."""
    n = u.grid.n
    v = to_real(mollify(u, cfg.n_moll)).samples
    du = gradient(u).comps                     # du[i, j] = d_j u_i
    w = v[0] * du[:, 0] + v[1] * du[:, 1] + v[2] * du[:, 2]
    what = np.fft.fftn(w, axes=(1, 2, 3)) / n ** 3
    if cfg.dealias:
        what *= mask
    return -leray_project(SpectralVectorField(u.grid, what)).coeffs


def max_speed(u: SpectralVectorField) -> float:
    return float(np.max(to_real(u).magnitude()))


def step(u: SpectralVectorField, cfg: SolverConfig, dt: float | None = None,
         mask: np.ndarray | None = None) -> SpectralVectorField:
    """One IMEX RK2 step of size dt (defaults to cfg.dt)."""
    if dt is None:
        dt = cfg.dt
    if mask is None:
        mask = _dealias_mask(cfg.grid)
    _, _, _, k_sq = _k_arrays(cfg.grid.n, cfg.grid.box_len)
    E = np.exp(-cfg.nu * k_sq * dt)
    k1 = _nonlinear(u, cfg, mask)
    u_pred = SpectralVectorField(u.grid, E * (u.coeffs + dt * k1), True)
    k2 = _nonlinear(u_pred, cfg, mask)
    out = E * u.coeffs + 0.5 * dt * (E * k1 + k2)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(
            f"NaN/Inf in solver step (dt={dt}, nu={cfg.nu}, n={cfg.grid.n})")
    return SpectralVectorField(u.grid, out, divergence_free=True)


def diagnostics(u: SpectralVectorField, t: float) -> DiagnosticsRecord:
    grad = gradient(u)
    return DiagnosticsRecord(
        t=t,
        energy=l2_norm(u) ** 2,
        enstrophy=sobolev_norm(u, 1.0) ** 2,
        h2=sobolev_norm(u, 2.0),
        grad_l31=lorentz_norm(grad.magnitude(), 3.0, 1.0, u.grid.cell_volume),
        fl1=fourier_lebesgue_norm(u),
    )


def run(u0: SpectralVectorField, cfg: SolverConfig):
    """Integrate to t_end; returns (snapshots, diagnostics).

    snapshots is a list of (t, SpectralVectorField) at the configured
    cadence (always including t=0 and t_end); diagnostics has one record
    per accepted outer step.  Deterministic given (u0, cfg).
    """
    mask = _dealias_mask(cfg.grid)
    n_steps = max(1, int(round(cfg.t_end / cfg.dt)))
    dt = cfg.t_end / n_steps
    snap_every = max(1, n_steps // max(1, cfg.snapshot_count - 1))

    u = u0.copy()
    t = 0.0
    snapshots = [(0.0, u.copy())]
    diags = [diagnostics(u, 0.0)]
    for i in range(n_steps):
        # advective CFL guard: halve the substep until it fits
        speed = max_speed(u)
        sub_dt, n_sub = dt, 1
        halvings = 0
        while speed * sub_dt > cfg.cfl * cfg.grid.spacing:
            sub_dt *= 0.5
            n_sub *= 2
            halvings += 1
            if halvings > cfg.max_halvings:
                raise FloatingPointError(
                    f"CFL guard failed after {halvings} halvings at t={t} "
                    f"(speed={speed}, dt={dt})")
        if n_sub > 1:
            log.info("CFL guard at t=%.4f: dt %.3g -> %d substeps of %.3g",
                     t, dt, n_sub, sub_dt)
        for _ in range(n_sub):
            u = step(u, cfg, sub_dt, mask)
        t = (i + 1) * dt
        diags.append(diagnostics(u, t))
        if (i + 1) % snap_every == 0 or i + 1 == n_steps:
            snapshots.append((t, u.copy()))
    return snapshots, diags


# ---------------------------------------------------------------------------
# a priori estimate checks

def check_energy_inequality(diags, nu: float, tol: float = 1e-3) -> InequalityReport:
    """energy(t) + 2 nu int_s^t enstrophy <= energy(s) (1+tol) for all s < t."""
    t = np.array([d.t for d in diags])
    energy = np.array([d.energy for d in diags])
    enst = np.array([d.enstrophy for d in diags])
    if t.size >= 3:
        # Simpson: trapezoid's O(dt^2) overshoot on the convex decaying
        # enstrophy would register as a spurious energy gain
        diss = cumulative_simpson(enst, x=t, initial=0.0)
    else:
        diss = cumulative_trapezoid(enst, x=t, initial=0)
    a = energy + 2.0 * nu * diss          # should be non-increasing
    suffix_max = np.maximum.accumulate(a[::-1])[::-1]
    lhs = suffix_max
    rhs = energy * (1.0 + tol) + 2.0 * nu * diss
    scale = max(energy[0], 1e-30)
    margin = float(np.max(lhs - rhs)) / scale
    worst = int(np.argmax(lhs - rhs))
    return InequalityReport("energy_inequality", float(lhs[worst]), float(rhs[worst]),
                            float(lhs[worst] / rhs[worst]) if rhs[worst] > 0 else 0.0,
                            margin <= 0.0,
                            {"worst_margin_rel": margin, "worst_s": float(t[worst])})


def check_fgt_bound(diags, u0_energy: float, T: float) -> InequalityReport:
    """int_0^T h2^(2/3) dt over (1 + ||u0||^2) T^(1/3); fitted-constant ratio."""
    if T < 1.0:
        raise ValueError(f"FGT bound requires T >= 1, got {T}")
    t = np.array([d.t for d in diags])
    h2 = np.array([d.h2 for d in diags])
    sel = t <= T + 1e-12
    lhs = float(np.trapezoid(h2[sel] ** (2.0 / 3.0), t[sel]))
    rhs = (1.0 + u0_energy) * T ** (1.0 / 3.0)
    ratio = lhs / rhs
    return InequalityReport("fgt_bound", lhs, rhs, ratio, math.isfinite(ratio))


def check_gradient_lorentz_integral(diags, u0_energy: float, T: float) -> InequalityReport:
    """int_0^T (||grad u||_{3,1} + ||u||_{FL1}) dt over the energy budget."""
    t = np.array([d.t for d in diags])
    integrand = np.array([d.grad_l31 + d.fl1 for d in diags])
    sel = t <= T + 1e-12
    lhs = float(np.trapezoid(integrand[sel], t[sel]))
    rhs = u0_energy ** 0.25 * (1.0 + u0_energy) ** 0.75 * T ** 0.25
    ratio = lhs / rhs if rhs > 0 else 0.0
    return InequalityReport("gradient_lorentz_integral", lhs, rhs, ratio,
                            math.isfinite(ratio))


# ---------------------------------------------------------------------------
# initial data

def make_initial_data(kind: str, grid: Grid3, params: dict | None = None,
                      seed: int = 0) -> SpectralVectorField:
    """Divergence-free, band-limited initial data, reproducible from seed."""
    params = dict(params or {})
    L = grid.box_len
    c = 2.0 * math.pi / L
    if kind == "taylor_green":
        amp = params.pop("amplitude", 1.0)
        _check_empty(kind, params)
        x, y, z = grid.meshgrid()
        u = np.stack([
            amp * np.sin(c * x) * np.cos(c * y) * np.cos(c * z),
            -amp * np.cos(c * x) * np.sin(c * y) * np.cos(c * z),
            np.zeros_like(x),
        ])
        F = to_spectral(RealVectorField(grid, u))
        F.divergence_free = True
        return F
    if kind == "shear":
        amp = params.pop("amplitude", 1.0)
        _check_empty(kind, params)
        x, _, _ = grid.meshgrid()
        u = np.stack([np.zeros_like(x), amp * np.sin(c * x), np.zeros_like(x)])
        F = to_spectral(RealVectorField(grid, u))
        F.divergence_free = True
        return F
    if kind == "random_band":
        energy = params.pop("energy", 1.0)
        k_band = params.pop("k_band", grid.n // 4)
        _check_empty(kind, params)
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((3, grid.n, grid.n, grid.n))
        F = to_spectral(RealVectorField(grid, noise))
        m = np.fft.fftfreq(grid.n) * grid.n
        mag = np.sqrt(m[:, None, None] ** 2 + m[None, :, None] ** 2
                      + m[None, None, :] ** 2)
        band = (mag <= k_band) & (mag > 0)
        F = SpectralVectorField(grid, F.coeffs * band)
        F = leray_project(F)
        cur = l2_norm(F) ** 2
        if cur == 0:
            raise ValueError("random_band produced a zero field")
        F.coeffs *= math.sqrt(energy / cur)
        return F
    raise ValueError(f"unknown initial data kind {kind!r}")


def _check_empty(kind, params):
    if params:
        raise ValueError(f"unknown params for {kind!r}: {sorted(params)}")
