"""Memory guards: a collected Lagrangian ensemble holds one (S, P, 3)
trajectory array and the advect stage none (one save at a time), the
exact Stein kernel one slab at a time, and neither the solver nor the
weights hold a (3, 3, n, n, n) gradient.  tracemalloc sees numpy's
buffers, so its peak counts every array a step makes."""

import math
import tracemalloc

import numpy as np
import pytest

from lagflow import weights
from lagflow.config import parse_config_text
from lagflow.fields import Grid3, evaluate
from lagflow.flow import FieldDrift, integrate_flow, lattice_positions
from lagflow.forcing import zero_path
from lagflow.pipeline import RunManifest, StageRecord, _stage_advect
from lagflow.solver import SolverConfig, make_initial_data, run
from lagflow.weights import (
    WeightField,
    _ball_offsets,
    _local_lorentz_ratio,
)
from oracles import check_flow_lipschitz, flow_weight, write_trajectories

SLAB_BYTES = 16_000_000     # the Stein slab's budget: index and values each stay within it


def traced_peak(fn, *args):
    """(fn(*args), the largest traced allocation total while it ran, counted
    from what was allocated when it started)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_lagrangian_path_holds_one_trajectory_array(tmp_path):
    """integrate_flow, write_trajectories, flow_weight and
    check_flow_lipschitz on a 16^3 lattice with 101 saves (9.9 MB of
    trajectories) peak below 1.5 trajectory arrays."""
    grid = Grid3(16, 1.0)
    drift = FieldDrift([(0.0, make_initial_data("taylor_green", grid, {"amplitude": 1.0}))])
    gamma = zero_path(1.0, 0.01)
    lattice = lattice_positions(16, 1.0)
    h = WeightField(grid, 1.0 + np.random.default_rng(0).random((16, 16, 16)))

    def lagrangian_path():
        ens = integrate_flow(drift, gamma, lattice, 1.0, "rk4", 0.01, m=16)
        write_trajectories(tmp_path / "t.lgt1", ens)
        check_flow_lipschitz(ens, flow_weight(h, ens), seed=0)
        return ens.trajectories.nbytes

    traj_bytes, peak = traced_peak(lagrangian_path)
    assert traj_bytes >= 8 * 2 ** 20
    assert peak <= 1.5 * traj_bytes, (peak, traj_bytes)


def test_advect_stage_holds_one_save(tmp_path):
    """The advect stage on the same 16^3 lattice with 101 saves (9.9 MB as
    one array) streams each save through its readers and keeps only the
    last: it peaks below 24 (P, 3) arrays (2.4 MB), a bound that does not
    grow with the save count.  The RK4 stages and the trilinear kernel's
    buffers make about 20 at the peak (1.9 MB); holding the (S, P, 3)
    array, as a collected ensemble does, makes more than 101."""
    grid = Grid3(16, 1.0)
    cfg = parse_config_text("flow.m = 16\nflow.dt = 0.01\n")
    ctx = {"grid": grid, "T": 1.0,
           "drift": FieldDrift([(0.0, make_initial_data("taylor_green", grid,
                                                        {"amplitude": 1.0}))]),
           "h": WeightField(grid, 1.0 + np.random.default_rng(0).random((16, 16, 16)))}
    record = StageRecord(RunManifest("h", "v", str(tmp_path)), "advect")
    _, peak = traced_peak(_stage_advect, cfg, tmp_path, record, ctx)
    save_bytes = 16 ** 3 * 3 * 8
    assert (tmp_path / "trajectories.lgt1").stat().st_size == 32 + 101 * (8 + save_bytes)
    assert [c["name"] for c in record.manifest.checks] == [
        "compressibility_rk4", "compressibility_euler", "flow_lipschitz_violation_fraction"]
    assert peak <= 24 * save_bytes, peak / save_bytes


def test_stein_kernel_holds_one_slab():
    """The exact ratio at n = 32, r = 4 (5 slabs) peaks below 2.5 slabs of
    gathered values plus its padded table, and below 2.5 SLAB_BYTES plus
    the table."""
    n, r = 32, 4
    grid = Grid3(n, 1.0)
    f = np.random.default_rng(1).standard_normal((n, n, n))
    table_bytes = (n + 2 * r) ** 3 * 8
    _, peak = traced_peak(_local_lorentz_ratio, f, grid, r)
    assert peak <= 2.5 * SLAB_BYTES + table_bytes, peak
    assert peak <= 2.5 * weights._SLAB_ELEMS * 8 + table_bytes, peak
    K = _ball_offsets(r).shape[0]
    assert n ** 3 * K > 4 * weights._SLAB_ELEMS      # the balls span several slabs



@pytest.mark.parametrize("n_moll", [math.inf, 3.0])
def test_solver_streams_the_gradient(n_moll):
    """solver.run at n = 32 to t = 0.1 peaks below 36 node arrays of n^3
    doubles (9 MiB).  A state keeps its coefficients, power, nonlinear term
    and |grad u| (about 8 such arrays), and the next one is built from one
    derivative at a time: about 27 at the peak.  Holding a state's velocity
    and its 9-array gradient, as a cached evaluation did, peaks at 47-51."""
    n = 32
    grid = Grid3(n, 1.0)
    u = make_initial_data("taylor_green", grid, {"amplitude": 1.0})
    cfg = SolverConfig(grid, 0.05, 0.01, 0.1, n_moll)

    def solve():
        for _ in run(u, cfg):
            pass

    _, peak = traced_peak(solve)
    assert peak < 36 * n ** 3 * 8, peak / (n ** 3 * 8)


def test_weight_holds_no_gradient(monkeypatch):
    """asymmetric_weight on a fresh evaluation at n = 32, with the maximal
    functions (which see |grad b| alone) stubbed out, peaks below one
    (3, 3, n, n, n) array: |grad b| comes from the derivatives stream, so no
    whole gradient is ever held (about 6 n^3 doubles at the peak)."""
    n = 32
    grid = Grid3(n, 1.0)
    b = evaluate(make_initial_data("random_band", grid, {"energy": 1.0, "k_band": 8}))
    monkeypatch.setattr(weights, "stein_maximal", lambda mag, grid: (np.zeros_like(mag), {}))
    monkeypatch.setattr(weights, "maximal_function", lambda mag, grid: np.zeros_like(mag))
    (h, _), peak = traced_peak(weights.asymmetric_weight, b, None, 1000, 0)
    assert np.all(h.values == 0.0) and "grad_norm" in vars(b)
    assert peak < 9 * n ** 3 * 8, peak / (n ** 3 * 8)
