"""Continuous forcing paths gamma on [0, T] (deterministic or Brownian), and
the uniform time grid that the solver and every Lagrangian layer step on."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ForcingPath:
    """Piecewise-linear path gamma: [0,T] -> R^3 sampled on a uniform grid."""

    times: np.ndarray
    values: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("times must be a 1-D grid with >= 2 samples")
        if self.values.shape != (self.times.size, 3):
            raise ValueError(f"values shape {self.values.shape} != ({self.times.size}, 3)")
        if not np.all(np.isfinite(self.times)) or not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be finite and strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def at(self, t) -> np.ndarray:
        """Linear interpolation; t scalar -> (3,), t array (m,) -> (m, 3)."""
        t_arr = np.asarray(t, dtype=np.float64)
        if np.any(t_arr < self.times[0] - 1e-12) or np.any(t_arr > self.T + 1e-12):
            raise ValueError(f"time {t} outside path range [0, {self.T}]")
        out = np.stack([np.interp(t_arr, self.times, self.values[:, c])
                        for c in range(3)], axis=-1)
        return out

    def sup_distance(self, other: "ForcingPath") -> float:
        """sup_t |gamma1(t) - gamma2(t)| over the union of sample times."""
        ts = np.union1d(self.times, other.times)
        gap = self.at(ts) - other.at(ts)
        return float(np.max(np.sqrt(np.sum(gap ** 2, axis=1))))


def time_grid(T: float, dt: float) -> np.ndarray:
    """The uniform grid 0 = t_0 < ... < t_n = T with n = max(1, round(T/dt)):
    the one time axis of the solver and of every Lagrangian layer."""
    n = max(1, int(round(T / dt)))
    return np.linspace(0.0, T, n + 1)


def zero_path(T: float, dt: float) -> ForcingPath:
    times = time_grid(T, dt)
    return ForcingPath(times, np.zeros((times.size, 3)), "zero")


def sample_brownian(T: float, dt: float, epsilon: float, seed: int) -> ForcingPath:
    """epsilon * W_t sampled at step dt: gamma_0 = 0, iid Gaussian increments
    with per-component variance epsilon^2 * dt."""
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    times = time_grid(T, dt)
    if epsilon == 0.0:
        return ForcingPath(times, np.zeros((times.size, 3)), "zero")
    rng = np.random.default_rng(seed)
    steps = np.diff(times)
    incr = rng.standard_normal((steps.size, 3)) * (epsilon * np.sqrt(steps))[:, None]
    values = np.concatenate([np.zeros((1, 3)), np.cumsum(incr, axis=0)])
    return ForcingPath(times, values, "brownian")
