"""Memory guards: the Lagrangian path holds one (S, P, 3) trajectory array
and the exact Stein kernel one slab at a time.  tracemalloc sees numpy's
buffers, so its peak counts every array a step makes."""

import tracemalloc

import numpy as np

from lagflow import weights
from lagflow.fields import Grid3
from lagflow.flow import FieldDrift, integrate_flow, lattice_positions
from lagflow.forcing import zero_path
from lagflow.io import write_trajectories
from lagflow.solver import make_initial_data
from lagflow.weights import (
    WeightField,
    _ball_offsets,
    _local_lorentz_ratio,
    check_flow_lipschitz,
    flow_weight,
)

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

