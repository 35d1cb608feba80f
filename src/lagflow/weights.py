"""Asymmetric Lusin-Lipschitz weights and flow-weight propagation.

The weight is h = c * (M|grad b| + g), with |grad b| = fields.gradient_norm
(an EvaluatedField's grad_norm), M a discrete Hardy-Littlewood maximal
function over dyadic ball radii and g the Stein-type maximal ratio of local
L^{3,1} norms, both node arrays.  Exact sups over all radii are infeasible;
the dyadic sup under-estimates by a bounded factor which is absorbed into
the fitted constant c.

g takes each radius one of two ways.  Balls of up to _EXACT_RADIUS cells
take the exact ratio: each node's ball is gathered as one row, sorted and
reduced on its own.  Larger balls take the layer-cake form
||f 1_B||_{3,1} = int_0^inf mu({|f| > t} cap B)^(1/3) dt on _LEVELS
whole-field quantile levels.  The ball counts of each level are one FFT
convolution with the ball kernel, rounded to integers; they do not increase
with t, so the sums at the left and right ends of each level interval
bracket the exact ratio, and g takes the upper sum, which dominates it.
Both forms reduce each node elementwise, with no matrix product, so h does
not depend on the thread count.  The pair sample evaluates b off the grid
with fields.sample_spectral cropped at _PAIR_TOL; the crop's mode cube and
tail bound are reported with the verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import fft
from .fields import (
    EvaluatedField,
    Grid3,
    periodic_distance,
    sample_spectral,
    sample_trilinear,
    spectral_crop,
)
from .flow import SupGap
from .lorentz import lorentz_norm


@dataclass
class WeightField:
    """Node values of h; bracket_widths maps each layer-cake radius (cells)
    of its Stein term to the largest relative bracket width
    (upper - lower) / lower over the nodes."""
    grid: Grid3
    values: np.ndarray
    bracket_widths: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        n = self.grid.n
        if self.values.shape != (n, n, n):
            raise ValueError(f"values shape {self.values.shape} != ({n},{n},{n})")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("weight values must be finite and non-negative")


@dataclass
class FlowWeight:
    """Per-particle integral H_T(x) of the weight along the trajectory."""
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if np.any(self.values < 0):
            raise ValueError("flow weights must be non-negative")


def dyadic_radii_cells(n: int):
    """Dyadic ball radii in cell units: 1, 2, ..., n/4 (plus the singleton)."""
    j_max = int(math.log2(n / 4))
    return [2 ** j for j in range(j_max + 1)]


@lru_cache(maxsize=64)
def _ball_offsets(radius_cells: int):
    r = radius_cells
    ax = np.arange(-r, r + 1)
    ox, oy, oz = np.meshgrid(ax, ax, ax, indexing="ij")
    keep = ox ** 2 + oy ** 2 + oz ** 2 <= r ** 2
    return np.stack([ox[keep], oy[keep], oz[keep]], axis=1)


@lru_cache(maxsize=64)
def _ball_kernel_hat(n: int, radius_cells: int):
    """Half-spectrum multiplier of the ball average: the unnormalized
    transform of the normalized ball-indicator stencil.  A ball that wraps
    the box counts a node once per offset that reaches it, as the exact
    gather of _local_lorentz_ratio does."""
    kern = np.zeros((n, n, n))
    offs = _ball_offsets(radius_cells)
    np.add.at(kern, (np.mod(-offs[:, 0], n), np.mod(-offs[:, 1], n), np.mod(-offs[:, 2], n)),
              1.0)
    kern /= offs.shape[0]
    return fft.forward(kern) * n ** 3


_SLAB_ELEMS = 2_000_000     # gathered ball values per Stein slab: 15 MiB, and as much index
_EXACT_RADIUS = 4           # cells: larger Stein balls take the layer-cake bracket
_LEVELS = 32                # whole-field quantile levels of the layer-cake sums
_COUNT_SLACK = 0.25         # largest distance of a convolved count from its integer
_PAIR_TOL = 1e-14           # relative FL1 tail of the pair sample's spectral crop


def maximal_function(values: np.ndarray, grid: Grid3) -> np.ndarray:
    """Discrete Hardy-Littlewood maximal function over the dyadic radii.

    The singleton "ball" (the node itself) is always included, so the
    output dominates |f| pointwise.
    """
    f = np.abs(np.asarray(values, dtype=np.float64))
    out = f.copy()
    fhat = fft.forward(f)
    for r in dyadic_radii_cells(grid.n):
        avg = fft.inverse(fhat * _ball_kernel_hat(grid.n, r), grid.n)
        np.maximum(out, avg, out=out)
    return out


def _local_lorentz_ratio(values: np.ndarray, grid: Grid3, radius_cells: int) -> np.ndarray:
    """||f 1_{B_r(x)}||_{L^{3,1}} / ||1_{B_r(x)}||_{L^{3,1}} at every node."""
    n = grid.n
    f = np.abs(np.asarray(values, dtype=np.float64))
    offs = _ball_offsets(radius_cells)
    K = offs.shape[0]
    V = grid.cell_volume
    # L^{3,1} of a restricted sample multiset via Abel summation over order
    # stats, the j-th largest weighing (jV)^(1/3) - ((j-1)V)^(1/3): j = K..1
    j = np.arange(K, 0, -1, dtype=np.float64)
    w = ((j * V) ** (1.0 / 3.0) - ((j - 1) * V) ** (1.0 / 3.0))
    denom = (K * V) ** (1.0 / 3.0)

    # periodic padding by r makes every ball one flat offset from its centre
    r = radius_cells
    m = n + 2 * r
    table = np.pad(f, r, mode="wrap").ravel()
    shift = (offs[:, 0] * m + offs[:, 1]) * m + offs[:, 2]       # (K,)
    axis = np.arange(r, n + r)
    centre = ((axis[:, None, None] * m + axis[None, :, None]) * m
              + axis[None, None, :]).ravel()                      # (n^3,)
    out = np.empty(n ** 3)
    slab = max(1, _SLAB_ELEMS // K)       # a memory bound only: rows are independent
    for lo in range(0, n ** 3, slab):
        vals = table[centre[lo:lo + slab, None] + shift]            # (S, K): a ball per row
        vals.sort(axis=1)                                           # ascending, as j = K..1
        out[lo:lo + slab] = np.einsum("sk,k->s", vals, w) / denom
        del vals    # so that the next gather holds at most its index and its values
    return out.reshape(n, n, n)


def _ball_counts(indicator: np.ndarray, n: int, radius_cells: int) -> np.ndarray:
    """Number of nodes of each node's ball where indicator holds: one FFT
    convolution with the ball kernel, rounded; a count farther than
    _COUNT_SLACK from its integer raises FloatingPointError."""
    K = _ball_offsets(radius_cells).shape[0]
    counts = K * fft.inverse(fft.forward(indicator) * _ball_kernel_hat(n, radius_cells), n)
    rounded = np.rint(counts)
    miss = float(np.max(np.abs(counts - rounded)))
    if not miss < _COUNT_SLACK:
        raise FloatingPointError(f"ball count {miss} away from an integer at radius "
                                 f"{radius_cells}")
    return rounded


def _layer_cake_bracket(values: np.ndarray, grid: Grid3, radius_cells: int):
    """(lower, upper) sums bracketing _local_lorentz_ratio at every node.

    With levels 0 = t_0 < ... < t_m = max|f| (0 and the whole-field
    quantiles at l / _LEVELS) and N(t) the ball count of {|f| > t}, the
    ratio is int_0^{t_m} (N(t) / K)^(1/3) dt; N does not increase, so the
    interval [t_l, t_{l+1}) contributes between its length times
    (N(t_{l+1}) / K)^(1/3) and times (N(t_l) / K)^(1/3), and N(t_m) = 0."""
    n = grid.n
    f = np.abs(np.asarray(values, dtype=np.float64))
    K = _ball_offsets(radius_cells).shape[0]
    levels = np.unique(np.append(0.0, np.quantile(f, np.arange(_LEVELS + 1) / _LEVELS)))
    lower, upper = np.zeros((n, n, n)), np.zeros((n, n, n))
    for l in range(levels.size - 1):
        share = np.cbrt(_ball_counts((f > levels[l]).astype(np.float64), n, radius_cells) / K)
        upper += (levels[l + 1] - levels[l]) * share
        if l > 0:
            lower += (levels[l] - levels[l - 1]) * share
    return lower, upper


def stein_maximal(mag: np.ndarray, grid: Grid3):
    """Sup over dyadic radii of the local L^{3,1}-norm ratio of mag =
    |grad b|: exact up to _EXACT_RADIUS cells, the layer-cake upper sum
    beyond.  Returns (values, {radius_cells: largest relative bracket width
    (upper - lower) / lower}) with one width per layer-cake radius; a node
    whose lower sum is 0 under a positive upper sum makes it inf."""
    out = np.abs(np.asarray(mag, dtype=np.float64))   # singleton radius gives |grad b|(x)
    widths = {}
    for r in dyadic_radii_cells(grid.n):
        if r <= _EXACT_RADIUS:
            ratio = _local_lorentz_ratio(mag, grid, r)
        else:
            lower, ratio = _layer_cake_bracket(mag, grid, r)
            with np.errstate(divide="ignore", invalid="ignore"):
                widths[r] = float(np.max(np.where(ratio > lower, (ratio - lower) / lower, 0.0)))
        np.maximum(out, ratio, out=out)
    return out, widths


# ---------------------------------------------------------------------------
# weight construction and verification

def _sample_pairs(b: EvaluatedField, pair_count: int, seed: int):
    """Node indices idx of points x and uniform points y, with |b(x) - b(y)|
    and the periodic |x - y|: b's node values at x, its spectral sum at y,
    cropped at _PAIR_TOL."""
    grid = b.grid
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, grid.n, size=(pair_count, 3))
    y = rng.uniform(0.0, grid.box_len, size=(pair_count, 3))
    bx = b.velocity[:, idx[:, 0], idx[:, 1], idx[:, 2]].T
    by = sample_spectral(b.spectral, y, _PAIR_TOL)
    return (idx, np.sqrt(np.sum((bx - by) ** 2, axis=1)),
            periodic_distance(idx * grid.spacing, y, grid.box_len))


def asymmetric_weight(b: EvaluatedField, c_fit: float | None = None,
                      pair_count: int = 100_000, seed: int = 0):
    """Weight h = c (M|grad b| + g); c fitted on a pair sample if not given.

    The fitted constant is the max difference-quotient ratio over the pair
    sample, inflated by a margin of 1.3: a finite-sample max underestimates
    the essential sup, and the margin keeps fresh-sample violations rare
    even for small pair counts.  A caller-supplied c_fit is used verbatim.
    |grad b| is b's cached grad_norm.

    Returns (WeightField, fitted_c); the field carries the Stein term's
    bracket widths.
    """
    if pair_count < 1:
        raise ValueError("pair_count must be >= 1")
    grid = b.grid
    mag = b.grad_norm
    stein, widths = stein_maximal(mag, grid)
    base = maximal_function(mag, grid) + stein
    if c_fit is None:
        if np.all(base == 0.0):
            c_fit = 1.0
        else:
            idx, num, dist = _sample_pairs(b, pair_count, seed)
            den = base[idx[:, 0], idx[:, 1], idx[:, 2]] * dist
            ok = den > 1e-14
            c_fit = 1.3 * float(np.max(num[ok] / den[ok])) if np.any(ok) else 1.0
    return WeightField(grid, c_fit * base, widths), c_fit


def verify_asymmetric(b: EvaluatedField, h: WeightField,
                      pair_count: int = 100_000, seed: int = 1) -> dict:
    """Fresh-sample check of |b(x)-b(y)| <= h(x) |x-y| (periodic distance),
    with the spectral crop's mode cube K and its tail bound on |b(y)|'s
    error (fields.spectral_crop at _PAIR_TOL)."""
    if pair_count < 1:
        raise ValueError("pair_count must be >= 1")
    idx, num, dist = _sample_pairs(b, pair_count, seed)
    rhs = h.values[idx[:, 0], idx[:, 1], idx[:, 2]] * dist
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(num > 0, num / np.where(rhs > 0, rhs, np.inf), 0.0)
    violations = int(np.count_nonzero(ratio > 1.0 + 1e-10))
    crop_modes, tail_bound = spectral_crop(b.spectral, _PAIR_TOL)
    return {
        "pair_count": pair_count,
        "crop_modes": crop_modes,
        "tail_bound": tail_bound,
        "violations": violations,
        "violation_fraction": violations / pair_count,
        "worst_ratio": float(np.max(ratio)) if ratio.size else 0.0,
    }


# ---------------------------------------------------------------------------
# weight along the flow

class FlowWeightSum:
    """Running trapezoid quadrature of h(X_t(x)) along the saves at `times`,
    given one (P, 3) array of unwrapped positions per save by add, in
    order; value() after the last save is H_T.

    Bit for bit np.trapezoid of the (S, P) samples along the saves: each
    interval adds dt * (cur + prev) / 2.0, and the sum starts from the first
    interval's term and adds the others in order, as numpy's sum over the
    outer axis of a C-contiguous array does."""

    def __init__(self, h: WeightField, times: np.ndarray):
        self.h, self.times = h, times
        self._k, self._prev, self._total = 0, None, None

    def add(self, x: np.ndarray) -> None:
        t, k = self.times, self._k
        cur = sample_trilinear(self.h.values, self.h.grid, x)
        if k > 0:
            term = (t[k] - t[k - 1]) * (cur + self._prev) / 2.0
            self._total = term if k == 1 else np.add(self._total, term, out=self._total)
        self._prev, self._k = cur, k + 1

    def value(self) -> FlowWeight:
        """H_T; raises ValueError unless every save, and at least one, was added."""
        if self._k != self.times.size or self._k == 0:
            raise ValueError(f"{self._k} of {self.times.size} saves added")
        return FlowWeight(np.zeros(self._prev.size) if self._total is None else self._total)


class LatticePairs:
    """The check sup_t |X_t(x)-X_t(y)| <= e^{H_T(x)} |x-y| on nearest-neighbor
    lattice pairs, fed one save at a time.  The pairs are drawn from `seed`
    on construction, add keeps each pair's running sup gap (flow.SupGap)
    and check compares the gaps with H after the last save."""

    def __init__(self, initial_positions: np.ndarray, m: int | None,
                 pair_count: int = 20_000, seed: int = 2):
        if m is None or m < 4:
            raise ValueError("flow-Lipschitz check needs a lattice ensemble")
        P = initial_positions.shape[0]
        rng = np.random.default_rng(seed)
        self.count = min(pair_count, P)
        i = rng.integers(0, P, size=self.count)
        # +1 neighbor along the z (fastest) lattice axis; trajectories are
        # unwrapped, so shift away from the seam instead of pairing across it
        self.i = np.where(i % m == m - 1, i - 1, i)
        self.j = self.i + 1
        self.d0 = np.sqrt(np.sum((initial_positions[self.i]
                                  - initial_positions[self.j]) ** 2, axis=1))
        self._gap = SupGap()

    def add(self, x: np.ndarray) -> None:
        self._gap.add(x[self.i], x[self.j])

    def check(self, H: FlowWeight) -> dict:
        gap = self._gap.value()
        rhs = np.exp(H.values[self.i]) * self.d0
        with np.errstate(over="ignore"):
            bad = gap > rhs * (1.0 + 1e-10)
        ratio = gap / rhs
        return {
            "pair_count": self.count,
            "violations": int(np.count_nonzero(bad)),
            "violation_fraction": float(np.count_nonzero(bad)) / self.count,
            "worst_ratio": float(np.max(ratio)),
        }


def weak_tail_check(H: FlowWeight, budget: float, box_volume: float) -> dict:
    """Weak-L^3 size of H_T against the time-integrated gradient budget."""
    quasi = lorentz_norm(H.values, 3.0, math.inf, box_volume / H.values.size)
    return {
        "weak_l3": quasi,
        "budget": budget,
        "ratio": quasi / budget if budget > 0 else 0.0,
    }


def survival_tail_slope(values: np.ndarray) -> float:
    """Log-log slope of the survival function between its 0.70 and 0.99
    quantiles."""
    v = np.asarray(values, dtype=np.float64).ravel()
    v = v[v > 0]
    if v.size < 100:
        raise ValueError("too few positive values for a tail fit")
    lo = np.quantile(v, 0.70)
    hi = np.quantile(v, 0.99)
    if not hi > lo > 0:
        raise ValueError("degenerate tail range")
    levels = np.geomspace(lo, hi, 12)
    frac = np.array([np.mean(v > a) for a in levels])
    keep = frac > 0
    slope, _ = np.polyfit(np.log(levels[keep]), np.log(frac[keep]), 1)
    return float(slope)
