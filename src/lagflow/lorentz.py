"""Rearrangement-based Lorentz norms and interpolation inequality checks.

Lorentz norms use the prefactor-free convention

    ||f||_{p,q}^q = int_0^inf r^(q-1) meas(|f| > r)^(q/p) dr

evaluated exactly on the empirical (piecewise-constant) node distribution:
the integral reduces to a closed-form sum over the sorted levels, with no
binning error.  For q = inf the norm is sup_r r * meas(|f| > r)^(1/p),
attained at one of the n^3 distinct levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    EvaluatedField,
    SpectralVectorField,
    fourier_lebesgue_norm,
    l2_norm,
    sobolev_norm,
)


@dataclass
class InequalityReport:
    """The two sides of an inequality and their ratio; the verdict is the
    caller's (pipeline.StageRecord.check)."""

    name: str
    lhs: float
    rhs: float
    ratio: float


def _report(name: str, lhs: float, rhs: float) -> InequalityReport:
    """lhs / rhs, with 0 / 0 -> 0 (both sides vanish) and x / 0 -> inf."""
    if lhs == 0.0 and rhs == 0.0:
        return InequalityReport(name, 0.0, 0.0, 0.0)
    return InequalityReport(name, lhs, rhs, lhs / rhs if rhs > 0 else math.inf)


def _descending(values) -> np.ndarray:
    """|values| sorted in descending order: the empirical distribution."""
    return np.sort(np.abs(np.asarray(values, dtype=np.float64).ravel()))[::-1]


def lorentz_norm(values, p: float, q: float, cell_volume: float) -> float:
    """Lorentz L^{p,q} quasi-norm of a grid function given by its node values."""
    return _sorted_lorentz_norm(_descending(values), p, q, cell_volume)


def _sorted_lorentz_norm(a: np.ndarray, p: float, q: float, cell_volume: float) -> float:
    """lorentz_norm of the node magnitudes a, already in descending order."""
    if not (0.0 < p < math.inf):
        raise ValueError(f"p must be finite positive, got {p}")
    if not q > 0.0:
        raise ValueError(f"q must be positive, got {q}")
    nz = int(np.count_nonzero(a))
    if nz == 0:
        return 0.0
    a = a[:nz]
    meas = np.arange(1, nz + 1, dtype=np.float64) * cell_volume
    if math.isinf(q):
        return float(np.max(a * meas ** (1.0 / p)))
    aq = a ** q
    drops = aq - np.append(aq[1:], 0.0)
    total = float(np.sum(meas ** (q / p) * drops)) / q
    return total ** (1.0 / q)


# ---------------------------------------------------------------------------
# interpolation inequalities

def interpolation_constant(p0: float, p1: float, theta: float) -> float:
    """Explicit constant of the weak-to-L^{p_theta,1} interpolation bound."""
    if not p0 < p1:
        raise ValueError(f"need p0 < p1, got {p0} >= {p1}")
    if not (1.0 <= p0 and math.isfinite(p1)):
        raise ValueError("need 1 <= p0 < p1 < inf")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    expo = (p1 / p0) * (1.0 - theta) / theta
    return 2.0 * (p0 / (p1 - p0)) / (1.0 - theta) * expo ** expo


def p_intermediate(p0: float, p1: float, theta: float) -> float:
    return 1.0 / ((1.0 - theta) / p0 + theta / p1)


def check_lorentz_interpolation(values, cell_volume: float, p0: float, p1: float,
                                theta: float) -> InequalityReport:
    """||f||_{p_theta,1} <= C(p0,p1,theta) ||f||_{p0,inf}^(1-theta) ||f||_{p1,inf}^theta."""
    C = interpolation_constant(p0, p1, theta)
    a = _descending(values)
    lhs = _sorted_lorentz_norm(a, p_intermediate(p0, p1, theta), 1.0, cell_volume)
    rhs = (C * _sorted_lorentz_norm(a, p0, math.inf, cell_volume) ** (1.0 - theta)
           * _sorted_lorentz_norm(a, p1, math.inf, cell_volume) ** theta)
    return _report("lorentz_interpolation", lhs, rhs)


def check_refined_inequality(u: EvaluatedField) -> InequalityReport:
    """Raw ratio of ||f||_{3,1} against ||f||_{L2}^(1/2) ||grad f||_{L2}^(1/2):
    the node magnitude of the evaluation against the spectral norms.

    The inequality constant is implicit: callers compare the ratio across
    fields and resolutions (fitted-constant protocol).
    """
    lhs = lorentz_norm(u.speed, 3.0, 1.0, u.grid.cell_volume)
    return _report("refined_l31", lhs,
                   l2_norm(u.spectral) ** 0.5 * sobolev_norm(u.spectral, 1.0) ** 0.5)


def check_agmon(F: SpectralVectorField, s0: float, s1: float) -> InequalityReport:
    """Sup-norm vs Fourier-Lebesgue vs Sobolev interpolation chain.

    theta solves 3/2 = theta*s1 + (1-theta)*s0.  The report's ratio is
    ||f||_{FL1} / (||f||_{Hs0}^(1-theta) ||f||_{Hs1}^theta), a fitted
    constant.
    """
    d_half = 1.5
    if not (0.0 <= s0 < d_half < s1):
        raise ValueError(f"need 0 <= s0 < 3/2 < s1, got s0={s0}, s1={s1}")
    theta = (d_half - s0) / (s1 - s0)
    return _report("agmon", fourier_lebesgue_norm(F),
                   sobolev_norm(F, s0) ** (1.0 - theta) * sobolev_norm(F, s1) ** theta)
