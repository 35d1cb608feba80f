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

from . import fft
from .fields import (
    Grid3,
    RealVectorField,
    SpectralVectorField,
    derivatives,
    gradient_norm,
    half_modes,
    l2_norm,
    leray_project,
    mollifier,
    to_spectral,
    wavevectors,
)
from .forcing import time_grid
from .lorentz import lorentz_norm

log = logging.getLogger(__name__)

CFL = 0.5             # advective Courant number each substep must fit under
MAX_HALVINGS = 12     # substep halvings before the CFL guard gives up


@dataclass
class SolverConfig:
    grid: Grid3
    nu: float
    dt: float
    t_end: float
    n_moll: float = math.inf
    dealias: bool = True

    def __post_init__(self):
        for name in ("nu", "dt", "t_end"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be > 0 and finite, got {value}")
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
    dissipation: float = 0.0   # energy the viscous factor removed since the last record

    FIELDS = ("t", "energy", "enstrophy", "h2", "grad_l31", "fl1", "dissipation")

    def as_row(self):
        return [self.t, self.energy, self.enstrophy, self.h2, self.grad_l31, self.fl1,
                self.dissipation]


def _dealias_mask(grid: Grid3) -> np.ndarray:
    """2/3-rule mask on the half-spectrum layout."""
    cut = grid.n / 3.0
    mx, my, mz = half_modes(grid.n)
    return (np.abs(mx) <= cut) & (np.abs(my) <= cut) & (np.abs(mz) <= cut)


class _Operators:
    """Half-spectrum multipliers of one solver configuration."""

    def __init__(self, cfg: SolverConfig):
        grid = cfg.grid
        self.grid, self.nu, self.k_sq = grid, cfg.nu, wavevectors(grid).k_sq
        self.mask = _dealias_mask(grid) if cfg.dealias else None
        self.moll = mollifier(grid, cfg.n_moll)
        self._factors = {}

    def factors(self, dt: float):
        """(exp(-nu |k|^2 dt), V w_k (1 - exp(-2 nu |k|^2 dt))): the
        integrating factor, and per unit |u_k|^2 the energy it removes."""
        if dt not in self._factors:
            lost = -np.expm1(-2.0 * self.nu * self.k_sq * dt)
            self._factors[dt] = (np.exp(-self.nu * self.k_sq * dt),
                                 self.grid.volume * fft.plane_weights(self.grid.n) * lost)
        return self._factors[dt]


@dataclass
class _State:
    """An accepted state: its coefficients, power[k] = sum_i |u_i(k)|^2,
    its nonlinear term (the next step's first stage), |grad u| at the nodes
    and sup |u| over the nodes (the CFL speed)."""

    coeffs: np.ndarray
    power: np.ndarray
    nonlinear: np.ndarray
    grad_norm: np.ndarray
    speed: float


def _accept(coeffs: np.ndarray, ops: _Operators) -> _State:
    """Evaluate a state that the solver keeps, failing closed first: the sum
    of |u_k|^2 is NaN or Inf when any coefficient is (or a square
    overflows), so one pass over the half spectrum stands in for an
    isfinite scan, and power is kept for the diagnostics and dissipation."""
    power = np.sum(coeffs.real ** 2 + coeffs.imag ** 2, axis=0)
    if not math.isfinite(float(np.sum(power))):
        raise FloatingPointError(f"NaN/Inf/overflow in solver state (n={ops.grid.n})")
    return _State(coeffs, power, *_nonlinear(coeffs, ops, with_state=True))


def _nonlinear(coeffs: np.ndarray, ops: _Operators, with_state: bool = False):
    """(-P[(rho_n * u) . grad u] on the half spectrum, |grad u| at the nodes,
    sup |u| over the nodes), the last two None unless with_state.

    u at the nodes takes one inverse transform when it is read: for sup |u|
    and as the advecting velocity v when there is no mollifier; rho_n * u
    takes its own.  Each w_i = v_0 d_0 u_i + v_1 d_1 u_i + v_2 d_2 u_i is
    built from fields.derivatives one derivative at a time, in one reused
    node buffer, and forward-transformed as soon as it is complete;
    with_state takes |grad u| from the same stream (fields.gradient_norm).
    No node array outlives the products."""
    n = ops.grid.n
    F = SpectralVectorField(ops.grid, coeffs)
    v = fft.inverse(coeffs, n) if with_state or ops.moll is None else None
    speed = float(np.sqrt(np.max(np.sum(v ** 2, axis=0)))) if with_state else None
    if ops.moll is not None:
        v = None                       # u goes before rho_n * u is formed
        v = fft.inverse(coeffs * ops.moll, n)
    w = np.empty((n, n, n))
    what = np.empty_like(coeffs)

    def product(i, j, g):          # g = d_j u_i, ours to overwrite
        if j == 0:
            np.multiply(v[0], g, out=w)
        else:
            np.add(w, np.multiply(v[j], g, out=g), out=w)
        if j == 2:
            what[i] = fft.forward(w)

    if with_state:
        grad_norm = gradient_norm(F, product)
    else:
        grad_norm = None
        for i, j, g in derivatives(F):
            product(i, j, g)
    del v, w
    if ops.mask is not None:
        what *= ops.mask
    what = leray_project(SpectralVectorField(ops.grid, what)).coeffs
    return np.negative(what, out=what), grad_norm, speed


def _step(s: _State, ops: _Operators, dt: float) -> _State:
    """One IMEX RK2 step from the state s, whose nonlinear term is k1; the
    predictor keeps only its nonlinear term k2, and its coefficient array
    then holds E k1 and E c in turn."""
    E, _ = ops.factors(dt)
    pred = dt * s.nonlinear
    pred += s.coeffs
    pred *= E
    k2, _, _ = _nonlinear(pred, ops)
    k2 += np.multiply(E, s.nonlinear, out=pred)
    k2 *= 0.5 * dt
    k2 += np.multiply(E, s.coeffs, out=pred)
    del pred
    return _accept(k2, ops)


def _record(s: _State, grid: Grid3, t: float, dissipation: float) -> DiagnosticsRecord:
    """Diagnostics of an accepted state: Hermitian-weighted half-spectrum
    sums and the L^{3,1} norm of its |grad u|."""
    k_sq = wavevectors(grid).k_sq
    w = fft.plane_weights(grid.n)
    power = s.power * w
    return DiagnosticsRecord(
        t=t,
        energy=grid.volume * float(np.sum(power)),
        enstrophy=grid.volume * float(np.sum(k_sq * power)),
        h2=math.sqrt(grid.volume * float(np.sum(k_sq ** 2 * power))),
        grad_l31=lorentz_norm(s.grad_norm, 3.0, 1.0, grid.cell_volume),
        fl1=float(np.sum(w * np.sqrt(s.power))),
        dissipation=dissipation,
    )


def run(u0: SpectralVectorField, cfg: SolverConfig):
    """Integrate to t_end, yielding (SpectralVectorField, DiagnosticsRecord)
    per accepted outer step, starting with u0 itself at t = 0.

    Nothing earlier than the current state is kept: callers keep what they
    read.  The state lives on the half spectrum and each accepted state is
    evaluated once, on acceptance: one inverse transform for its velocity
    (and one for rho_n * u) and one stream of its nine derivatives give
    sup |u| (the CFL speed), |grad u| (the diagnostics) and the nonlinear
    term (the next step's first stage).  A state keeps those and its coefficients, no node
    array of u or of its gradient.  Outer steps land on
    forcing.time_grid(t_end, dt), so the last record's t is t_end.  The
    yielded field wraps the state's own coefficients, which the solver never
    writes: a caller holding it keeps no node arrays alive while the next
    step runs, and evaluates what it needs.  Deterministic given (u0, cfg).
    """
    grid = cfg.grid
    ops = _Operators(cfg)
    times = time_grid(cfg.t_end, cfg.dt)
    dt = cfg.t_end / (times.size - 1)

    s = _accept(u0.coeffs, ops)
    yield u0, _record(s, grid, 0.0, 0.0)
    for t, t_next in zip(times[:-1], times[1:]):
        # advective CFL guard: halve the substep until it fits
        speed = s.speed
        sub_dt, n_sub = dt, 1
        halvings = 0
        while speed * sub_dt > CFL * grid.spacing:
            sub_dt *= 0.5
            n_sub *= 2
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise FloatingPointError(
                    f"CFL guard failed after {halvings} halvings at t={t} "
                    f"(speed={speed}, dt={dt})")
        if n_sub > 1:
            log.info("CFL guard at t=%.4f: dt %.3g -> %d substeps of %.3g",
                     t, dt, n_sub, sub_dt)
        _, lost = ops.factors(sub_dt)
        dissipation = 0.0
        for _ in range(n_sub):
            dissipation += float(np.sum(lost * s.power))
            s = _step(s, ops, sub_dt)
        yield (SpectralVectorField(grid, s.coeffs),
               _record(s, grid, float(t_next), dissipation))


# ---------------------------------------------------------------------------
# a priori estimate checks

def check_energy_inequality(diags, tol: float = 1e-3) -> float:
    """The worst margin of energy(t) + D(s, t) <= energy(s) (1 + tol) over
    s < t, relative to energy(0): the inequality holds where it is <= 0.

    D(s, t) sums the records' dissipation column: the energy the scheme's
    exact viscous factor removed, the discrete counterpart of
    2 nu int_s^t enstrophy.
    """
    energy = np.array([d.energy for d in diags])
    diss = np.cumsum([d.dissipation for d in diags])
    a = energy + diss                     # should be non-increasing
    lhs = np.maximum.accumulate(a[::-1])[::-1]
    rhs = energy * (1.0 + tol) + diss
    return float(np.max(lhs - rhs)) / max(energy[0], 1e-30)


def check_fgt_bound(diags, u0_energy: float, T: float) -> float:
    """int_0^T h2^(2/3) dt over (1 + ||u0||^2) T^(1/3); fitted-constant ratio."""
    if T < 1.0:
        raise ValueError(f"FGT bound requires T >= 1, got {T}")
    t = np.array([d.t for d in diags])
    h2 = np.array([d.h2 for d in diags])
    sel = t <= T + 1e-12
    lhs = float(np.trapezoid(h2[sel] ** (2.0 / 3.0), t[sel]))
    return lhs / ((1.0 + u0_energy) * T ** (1.0 / 3.0))


def check_gradient_lorentz_integral(diags, u0_energy: float, T: float) -> float:
    """int_0^T (||grad u||_{3,1} + ||u||_{FL1}) dt over the energy budget."""
    t = np.array([d.t for d in diags])
    integrand = np.array([d.grad_l31 + d.fl1 for d in diags])
    sel = t <= T + 1e-12
    lhs = float(np.trapezoid(integrand[sel], t[sel]))
    rhs = u0_energy ** 0.25 * (1.0 + u0_energy) ** 0.75 * T ** 0.25
    return lhs / rhs if rhs > 0 else 0.0


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
        return to_spectral(RealVectorField(grid, u))
    if kind == "shear":
        amp = params.pop("amplitude", 1.0)
        _check_empty(kind, params)
        x, _, _ = grid.meshgrid()
        u = np.stack([np.zeros_like(x), amp * np.sin(c * x), np.zeros_like(x)])
        return to_spectral(RealVectorField(grid, u))
    if kind == "random_band":
        energy = params.pop("energy", 1.0)
        k_band = params.pop("k_band", grid.n // 4)
        _check_empty(kind, params)
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((3, grid.n, grid.n, grid.n))
        F = to_spectral(RealVectorField(grid, noise))
        mx, my, mz = half_modes(grid.n)
        mag = np.sqrt(mx ** 2 + my ** 2 + mz ** 2)
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
