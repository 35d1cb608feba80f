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
    EvaluatedField,
    Grid3,
    RealVectorField,
    SpectralVectorField,
    evaluate,
    gradient_norm,
    half_modes,
    l2_norm,
    leray_project,
    to_spectral,
    wavevectors,
)
from .forcing import time_grid
from .lorentz import InequalityReport, lorentz_norm

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
        k_sq = wavevectors(grid).k_sq
        self.grid, self.nu, self.k_sq = grid, cfg.nu, k_sq
        self.mask = _dealias_mask(grid) if cfg.dealias else None
        self.moll = (None if math.isinf(cfg.n_moll)
                     else np.exp(-k_sq / (2.0 * cfg.n_moll ** 2)))
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
    """An accepted state: its evaluation and power[k] = sum_i |u_i(k)|^2."""

    field: EvaluatedField
    power: np.ndarray


def _accept(coeffs: np.ndarray, grid: Grid3) -> _State:
    """Evaluate a state that the solver keeps, failing closed first: the sum
    of |u_k|^2 is NaN or Inf when any coefficient is (or a square
    overflows), so one pass over the half spectrum stands in for an
    isfinite scan, and power is kept for the diagnostics and dissipation."""
    power = np.sum(coeffs.real ** 2 + coeffs.imag ** 2, axis=0)
    if not math.isfinite(float(np.sum(power))):
        raise FloatingPointError(f"NaN/Inf/overflow in solver state (n={grid.n})")
    return _State(evaluate(SpectralVectorField(grid, coeffs)), power)


def _nonlinear(u: EvaluatedField, ops: _Operators) -> np.ndarray:
    """-P[(rho_n * u) . grad u] on the half spectrum."""
    c = u.spectral.coeffs
    v = u.velocity if ops.moll is None else fft.inverse(c * ops.moll, ops.grid.n)
    w = np.empty_like(u.velocity)
    for wi, gi in zip(w, u.grad):              # gi[j] = d_j u_i
        np.multiply(v[0], gi[0], out=wi)
        wi += v[1] * gi[1]
        wi += v[2] * gi[2]
    what = fft.forward(w)
    if ops.mask is not None:
        what *= ops.mask
    what = leray_project(SpectralVectorField(ops.grid, what)).coeffs
    return np.negative(what, out=what)


def _step(u: EvaluatedField, ops: _Operators, dt: float) -> _State:
    """One IMEX RK2 step from the evaluated state u; k1 reads u."""
    E, _ = ops.factors(dt)
    c = u.spectral.coeffs
    k1 = _nonlinear(u, ops)
    pred = dt * k1
    pred += c
    pred *= E
    k2 = _nonlinear(evaluate(SpectralVectorField(ops.grid, pred)), ops)
    k2 += E * k1
    k2 *= 0.5 * dt
    k2 += E * c
    return _accept(k2, ops.grid)


def _record(s: _State, grid: Grid3, t: float, dissipation: float) -> DiagnosticsRecord:
    """Diagnostics of an accepted state: Hermitian-weighted half-spectrum
    sums and the L^{3,1} norm of its evaluation's gradient."""
    k_sq = wavevectors(grid).k_sq
    w = fft.plane_weights(grid.n)
    power = s.power * w
    return DiagnosticsRecord(
        t=t,
        energy=grid.volume * float(np.sum(power)),
        enstrophy=grid.volume * float(np.sum(k_sq * power)),
        h2=math.sqrt(grid.volume * float(np.sum(k_sq ** 2 * power))),
        grad_l31=lorentz_norm(gradient_norm(s.field.grad), 3.0, 1.0, grid.cell_volume),
        fl1=float(np.sum(w * np.sqrt(s.power))),
        dissipation=dissipation,
    )


def run(u0: SpectralVectorField, cfg: SolverConfig):
    """Integrate to t_end, yielding (SpectralVectorField, DiagnosticsRecord)
    per accepted outer step, starting with u0 itself at t = 0.

    Nothing earlier than the current state is kept: callers keep what they
    read.  The state lives on the half spectrum and each accepted state is
    evaluated once (fields.evaluate): the CFL speed, the diagnostics and the
    next step's first stage read that one evaluation.  Outer steps land on
    forcing.time_grid(t_end, dt), so the last record's t is t_end.  The
    yielded field is the state's own spectral field, which the solver never
    writes, not its evaluation: a caller holding it keeps no node arrays
    alive while the next step runs, and evaluates what it needs.  Deterministic given
    (u0, cfg).
    """
    grid = cfg.grid
    ops = _Operators(cfg)
    times = time_grid(cfg.t_end, cfg.dt)
    dt = cfg.t_end / (times.size - 1)

    s = _accept(u0.coeffs, grid)
    yield u0, _record(s, grid, 0.0, 0.0)
    for t, t_next in zip(times[:-1], times[1:]):
        # advective CFL guard: halve the substep until it fits
        speed = float(np.sqrt(np.max(np.sum(s.field.velocity ** 2, axis=0))))
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
            s = _step(s.field, ops, sub_dt)
        yield s.field.spectral, _record(s, grid, float(t_next), dissipation)


# ---------------------------------------------------------------------------
# a priori estimate checks

def check_energy_inequality(diags, nu: float, tol: float = 1e-3) -> InequalityReport:
    """energy(t) + D(s, t) <= energy(s) (1+tol) for all s < t.

    D(s, t) sums the records' dissipation column: the energy the scheme's
    exact viscous factor removed, the discrete counterpart of
    2 nu int_s^t enstrophy.  The details also give the margin with that
    integral taken by Simpson's rule over the records, which overshoots on
    under-resolved data, and the largest rise of energy + D between records.
    """
    t = np.array([d.t for d in diags])
    energy = np.array([d.energy for d in diags])
    scale = max(energy[0], 1e-30)

    def margins(diss):
        a = energy + diss                 # should be non-increasing
        lhs = np.maximum.accumulate(a[::-1])[::-1]
        rhs = energy * (1.0 + tol) + diss
        return a, lhs, rhs, lhs - rhs

    simpson = _cumulative_simpson(np.array([d.enstrophy for d in diags]), t)
    simpson_margin = float(np.max(margins(2.0 * nu * simpson)[3])) / scale
    a, lhs, rhs, gap = margins(np.cumsum([d.dissipation for d in diags]))
    margin = float(np.max(gap)) / scale
    worst = int(np.argmax(gap))
    rise = float(np.max(np.diff(a))) / scale if t.size >= 2 else 0.0
    return InequalityReport("energy_inequality", float(lhs[worst]), float(rhs[worst]),
                            float(lhs[worst] / rhs[worst]) if rhs[worst] > 0 else 0.0,
                            margin <= 0.0,
                            {"worst_margin_rel": margin, "worst_s": float(t[worst]),
                             "simpson_margin_rel": simpson_margin,
                             "max_step_rise_rel": rise})


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """int_{x0}^{x_i} y for every node of a strictly increasing 1-D x, by
    Simpson's rule on unequal intervals, bit for bit
    scipy.integrate.cumulative_simpson(y, x=x, initial=0.0), of which it is
    a port of the 1-D path: each interval's integral is the quadratic
    through it and its neighbour, the left one (h2, from the reversed
    arrays) for the odd intervals and the last, the right one (h1)
    otherwise; below 3 nodes, the trapezoid."""
    dx = np.diff(x)
    if y.size < 3:
        return np.concatenate(([0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0) + 0.0))

    def h1(y, dx):
        x21, x32 = dx[:-1], dx[1:]
        x21_x31 = x21 / (x21 + x32)
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                          - x21x21_x31x32 * y[2:])

    forward, backward = h1(y, dx), h1(y[::-1], dx[::-1])[::-1]
    parts = np.empty(y.size - 1)
    parts[:-1:2] = forward[::2]
    parts[1::2] = backward[::2]
    parts[-1] = backward[-1]
    return np.concatenate(([0.0], np.cumsum(parts) + 0.0))


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
