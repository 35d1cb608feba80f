"""Continuous forcing paths gamma on [0, T] (deterministic or Brownian)."""

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
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

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
        return float(np.max(np.sqrt(np.sum(gap ** 2, axis=1)))) if ts.size else 0.0

    def shifted(self, offset) -> "ForcingPath":
        return ForcingPath(self.times, self.values + np.asarray(offset), "custom")


def zero_path(T: float, dt: float) -> ForcingPath:
    nt = max(1, int(round(T / dt)))
    times = np.linspace(0.0, T, nt + 1)
    return ForcingPath(times, np.zeros((nt + 1, 3)), "zero")


def sample_brownian(T: float, dt: float, epsilon: float, seed: int) -> ForcingPath:
    """epsilon * W_t sampled at step dt: gamma_0 = 0, iid Gaussian increments
    with per-component variance epsilon^2 * dt."""
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    nt = max(1, int(round(T / dt)))
    times = np.linspace(0.0, T, nt + 1)
    if epsilon == 0.0:
        return ForcingPath(times, np.zeros((nt + 1, 3)), "zero")
    rng = np.random.default_rng(seed)
    steps = np.diff(times)
    incr = rng.standard_normal((nt, 3)) * (epsilon * np.sqrt(steps))[:, None]
    values = np.concatenate([np.zeros((1, 3)), np.cumsum(incr, axis=0)])
    return ForcingPath(times, values, "brownian")
