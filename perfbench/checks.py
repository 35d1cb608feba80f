"""Output checks made apart from lagflow: each compares an artifact with an
independent computation (own readers, own FFT via ``scipy.fft``, own exact
trigonometric sums) or with a property the method must have.  None compares
with a stored copy of an earlier output.

Each check returns (passed, value, limit); ``run_checks`` turns exceptions
(a missing or truncated artifact) into failed checks.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.fft

from artifacts import RunOutputs

ROUND_OFF = 1e-10         # relative tolerance for identities exact in exact arithmetic
VIOLATION_LIMIT = 1e-3    # same fraction lagflow's weights stage accepts
FRESH_PAIRS = 2000
_MODE_FLOOR = 1e-13       # modes below this share of the largest are round-off


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float = math.nan
    limit: float = math.nan
    error: str = ""


def _wavevectors(n: int, box_len: float):
    """Physical wavevectors for the rfftn of an (n, n, n) array, with the
    Nyquist entries zeroed: odd derivatives of a real field drop that mode."""
    m = np.fft.fftfreq(n, d=1.0 / n)
    m[n // 2] = 0.0
    kz = np.arange(n // 2 + 1, dtype=np.float64)
    kz[-1] = 0.0
    c = 2.0 * math.pi / box_len
    return c * m[:, None, None], c * m[None, :, None], c * kz[None, None, :]


def grad_magnitude(u: np.ndarray, box_len: float) -> np.ndarray:
    """|grad u| at the nodes, by real-to-complex spectral differentiation."""
    n = u.shape[1]
    ks = _wavevectors(n, box_len)
    uhat = scipy.fft.rfftn(u, axes=(1, 2, 3))
    total = np.zeros(u.shape[1:])
    for i in range(3):
        for k in ks:
            total += scipy.fft.irfftn(1j * k * uhat[i], s=(n, n, n)) ** 2
    return np.sqrt(total)


# ---------------------------------------------------------------------------
# solve stage

def check_parseval(run: RunOutputs, ctx: dict):
    """Grid energy V*mean|u|^2 of the final field equals the last spectral energy."""
    u, box_len, _t, _nu = run.field_final
    grid_energy = box_len ** 3 * float(np.mean(np.sum(u ** 2, axis=0)))
    last = float(run.diagnostics["energy"][-1])
    rel = abs(grid_energy - last) / max(abs(last), 1e-300)
    return rel <= ROUND_OFF, rel, ROUND_OFF


def check_solenoidal(run: RunOutputs, ctx: dict):
    """max|k.uhat| / (max|k| max|uhat|) of the final field is at round-off."""
    u, box_len, _t, _nu = run.field_final
    n = u.shape[1]
    uhat = scipy.fft.rfftn(u, axes=(1, 2, 3))
    kx, ky, kz = _wavevectors(n, box_len)
    dot = np.abs(kx * uhat[0] + ky * uhat[1] + kz * uhat[2])
    kmax = math.pi * n / box_len * math.sqrt(3.0)
    scale = kmax * float(np.max(np.sqrt(np.sum(np.abs(uhat) ** 2, axis=0))))
    defect = float(np.max(dot)) / scale if scale > 0 else 0.0
    return defect <= ROUND_OFF, defect, ROUND_OFF


def check_energy_monotone(run: RunOutputs, ctx: dict):
    """Viscous decay: energy never rises by more than round-off."""
    e = run.diagnostics["energy"]
    rise = float(np.max(np.diff(e))) / e[0]
    return rise <= ROUND_OFF, rise, ROUND_OFF


def _simpson(y: np.ndarray, t: np.ndarray) -> float:
    """Composite Simpson on a uniform grid; a trailing odd interval is a trapezoid."""
    h = t[1] - t[0]
    if not np.allclose(np.diff(t), h, rtol=1e-9, atol=0.0):
        raise ValueError("diagnostics times are not uniform")
    even = (len(y) - 1) // 2 * 2
    s = h / 3.0 * (y[0] + y[even] + 4.0 * y[1:even:2].sum() + 2.0 * y[2:even:2].sum())
    if even < len(y) - 1:
        s += 0.5 * h * (y[-2] + y[-1])
    return float(s)


def check_energy_balance(run: RunOutputs, ctx: dict):
    """E(T) + 2 nu int_0^T enstrophy = E(0) up to the time-quadrature scale.

    The limit (lam h)^2 / 12, with lam = 2 nu enstrophy(0) / E(0) the initial
    decay rate and h the diagnostics spacing, is the trapezoid rule's
    relative error on exp(-lam t); Simpson's error is (lam h)^4 / 180, far
    below, so what the limit admits is the scheme's own O(h^2) error.
    """
    d = run.diagnostics
    t, e, ens = d["t"], d["energy"], d["enstrophy"]
    nu = run.field_final[3]
    resid = abs(e[-1] + 2.0 * nu * _simpson(ens, t) - e[0]) / e[0]
    lam_h = 2.0 * nu * ens[0] / e[0] * (t[1] - t[0])
    limit = lam_h ** 2 / 12.0
    return resid <= limit, resid, limit


def check_taylor_green_t0(run: RunOutputs, ctx: dict):
    """Row 0: energy A^2 L^3 / 4, enstrophy 3 (2 pi / L)^2 E0, FL1 sqrt(2) A."""
    d = run.diagnostics
    a, box_len = ctx["amplitude"], ctx["box_len"]
    e0 = a ** 2 * box_len ** 3 / 4.0
    want = {"energy": e0, "enstrophy": 3.0 * (2.0 * math.pi / box_len) ** 2 * e0,
            "fl1": math.sqrt(2.0) * a}
    worst = max(abs(d[k][0] - v) / v for k, v in want.items())
    return worst <= ROUND_OFF, worst, ROUND_OFF


# ---------------------------------------------------------------------------
# weights stage

def _fitted_c(run: RunOutputs) -> float:
    _header, rows = run.report("weights.csv")
    return float({r[0]: r[1] for r in rows}["fitted_c"])


def check_weight_domination(run: RunOutputs, ctx: dict):
    """h >= 2 fitted_c |grad b| at every node: h = c (M|grad b| + S|grad b|),
    and each maximal function includes the node itself, so dominates |grad b|."""
    u, box_len, _t, _nu = run.field_final
    h = run.weight[0]
    floor = 2.0 * _fitted_c(run) * grad_magnitude(u, box_len)
    slack = ROUND_OFF * float(np.max(floor))
    shortfall = float(np.max(floor - h))
    return shortfall <= slack, shortfall, slack


def exact_field_sum(u: np.ndarray, box_len: float, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of node samples u at points,
    by a direct sum over the modes that are not round-off."""
    n = u.shape[1]
    coef = scipy.fft.fftn(u, axes=(1, 2, 3)) / n ** 3
    mag = np.sqrt(np.sum(np.abs(coef) ** 2, axis=0))
    keep = np.nonzero(mag > _MODE_FLOOR * mag.max())
    m = np.fft.fftfreq(n, d=1.0 / n)
    kvec = 2.0 * math.pi / box_len * np.stack([m[i] for i in keep], axis=1)   # (K, 3)
    c = coef[:, keep[0], keep[1], keep[2]].T                                   # (K, 3)
    out = np.empty((points.shape[0], 3))
    for lo in range(0, points.shape[0], 256):
        phase = np.exp(1j * (points[lo:lo + 256] @ kvec.T))
        out[lo:lo + 256] = np.real(phase @ c)
    return out


def check_fresh_pairs(run: RunOutputs, ctx: dict):
    """|b(x) - b(y)| <= h(x)|x - y| on a pair sample drawn from the benchmark's seed."""
    u, box_len, _t, _nu = run.field_final
    h = run.weight[0]
    n = u.shape[1]
    rng = np.random.default_rng([ctx["seed"], 0x9A1B])
    idx = rng.integers(0, n, size=(FRESH_PAIRS, 3))
    x = idx * (box_len / n)
    y = rng.uniform(0.0, box_len, size=(FRESH_PAIRS, 3))
    bx = u[:, idx[:, 0], idx[:, 1], idx[:, 2]].T
    by = exact_field_sum(u, box_len, y)
    d = x - y
    d -= box_len * np.round(d / box_len)
    rhs = h[idx[:, 0], idx[:, 1], idx[:, 2]] * np.sqrt(np.sum(d ** 2, axis=1))
    lhs = np.sqrt(np.sum((bx - by) ** 2, axis=1))
    frac = float(np.mean(lhs > rhs * (1.0 + ROUND_OFF)))
    return frac <= VIOLATION_LIMIT, frac, VIOLATION_LIMIT


# ---------------------------------------------------------------------------
# advect stage

def check_lattice_start(run: RunOutputs, ctx: dict):
    """Frame 0 is the lattice (i + 1/2) L / m, z index fastest."""
    _times, traj, box_len, _T = run.trajectories
    P = traj.shape[1]
    m = round(P ** (1.0 / 3.0))
    if m ** 3 != P:
        raise ValueError(f"{P} particles is not a cubic lattice")
    x = (np.arange(m) + 0.5) * (box_len / m)
    lattice = np.stack([a.ravel() for a in np.meshgrid(x, x, x, indexing="ij")], axis=1)
    err = float(np.max(np.abs(traj[0] - lattice))) / box_len
    return err <= ROUND_OFF, err, ROUND_OFF


def check_speed_bound(run: RunOutputs, ctx: dict):
    """|X_t - x| <= t max_nodes|u|: RK4 stages and trilinear samples are convex
    combinations of node values, so no step outruns the fastest node."""
    times, traj, _box_len, _T = run.trajectories
    u = run.field_final[0]
    umax = float(np.max(np.sqrt(np.sum(u ** 2, axis=0))))
    travel = np.sqrt(np.sum((traj[1:] - traj[0]) ** 2, axis=2))      # (S-1, P)
    reach = times[1:, None] * umax
    if umax > 0:
        worst = float(np.max(travel / reach))
    else:
        worst = math.inf if travel.any() else 0.0
    return worst <= 1.0 + ROUND_OFF, worst, 1.0 + ROUND_OFF


# ---------------------------------------------------------------------------
# probe stage

def check_negative_control(run: RunOutputs, ctx: dict):
    """The rough drift keeps branching: manifest reads 'expected-fail: pass'
    and probe.csv's control fraction is above the 0.05 threshold."""
    status = {c["name"]: c["status"] for c in run.manifest["checks"]}
    _header, rows = run.report("probe.csv")
    frac = float(next(r[2] for r in rows if r[0] == "negative_control"))
    ok = status.get("negative_control_branching") == "expected-fail: pass" and frac > 0.05
    return ok, frac, 0.05


def check_branching_refines(run: RunOutputs, ctx: dict):
    """The finest deterministic branching fraction is <= the coarsest."""
    _header, rows = run.report("probe.csv")
    det = sorted((float(r[1]), float(r[2])) for r in rows if r[0] == "deterministic")
    if len(det) < 2:
        raise ValueError("probe.csv holds fewer than two deterministic rows")
    finest, coarsest = det[0][1], det[-1][1]
    return finest <= coarsest, finest - coarsest, 0.0


# (name, stage whose artifacts it reads, check)
CHECKS = (
    ("parseval", "solve", check_parseval),
    ("solenoidal", "solve", check_solenoidal),
    ("energy_monotone", "solve", check_energy_monotone),
    ("energy_balance", "solve", check_energy_balance),
    ("taylor_green_t0", "solve", check_taylor_green_t0),
    ("weight_domination", "weights", check_weight_domination),
    ("fresh_pairs", "weights", check_fresh_pairs),
    ("lattice_start", "advect", check_lattice_start),
    ("speed_bound", "advect", check_speed_bound),
    ("negative_control", "probe", check_negative_control),
    ("branching_refines", "probe", check_branching_refines),
)


def run_checks(out_dir, stages, ctx: dict) -> list:
    """Every check whose stage ran; ctx holds seed, amplitude and box_len."""
    run = RunOutputs(out_dir)
    results = []
    for name, stage, fn in CHECKS:
        if stage not in stages:
            continue
        try:
            passed, value, limit = fn(run, ctx)
            results.append(CheckResult(name, bool(passed), float(value), float(limit)))
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            results.append(CheckResult(name, False, error=f"{type(exc).__name__}: {exc}"))
    return results


def csv_digests(out_dir) -> dict:
    """File name -> sha256 of every CSV a run wrote."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).glob("*.csv"))}
