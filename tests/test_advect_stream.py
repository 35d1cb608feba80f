"""The advect stage's one streamed pass against the collected ensemble: the
saves of flow.FlowSaves, read one at a time by io.write_saves,
weights.FlowWeightSum and weights.LatticePairs as pipeline._stage_advect
reads them, give the LGT1 bytes, H_T and flow-Lipschitz verdict of
integrate_flow and of the oracles write_trajectories, flow_weight and
check_flow_lipschitz (tests/oracles.py), bit for bit, and those of the
whole-array encodings."""

import struct

import numpy as np
import pytest

from lagflow import io
from lagflow.fields import Grid3, sample_trilinear
from lagflow.flow import FieldDrift, FlowSaves, ParticleEnsemble, integrate_flow, lattice_positions
from lagflow.forcing import sample_brownian, zero_path
from lagflow.pipeline import _read_each
from lagflow.solver import make_initial_data
from lagflow.weights import FlowWeightSum, LatticePairs, WeightField
from oracles import check_flow_lipschitz, flow_weight, write_trajectories

GRID = Grid3(16, 1.0)
M = 8


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.fixture(scope="module")
def drift_and_weight():
    """A frozen Taylor-Green drift, and a weight small enough that some
    lattice pairs violate the bound."""
    drift = FieldDrift([(0.0, make_initial_data("taylor_green", GRID, {"amplitude": 1.0}))])
    return drift, WeightField(GRID, 0.3 * np.random.default_rng(6).random((16, 16, 16)))


def streamed(path, saves, h, seed):
    """The stage's pass: each save to the LGT1 writer, H's trapezoid and the
    pairs' gaps as it is computed; returns (last save, H, Lipschitz dict)."""
    H = FlowWeightSum(h, saves.times)
    pairs = LatticePairs(saves.initial_positions, M, 300, seed)
    last = io.write_saves(path, saves.times, saves.box_len, _read_each(saves, H.add, pairs.add))
    H = H.value()
    return last, H, pairs.check(H)


def assert_same_dict(a, b):
    assert a.keys() == b.keys()
    for key, value in b.items():
        assert type(a[key]) is type(value), key
        assert bits(a[key]) == bits(value), key


@pytest.mark.parametrize("scheme", ["rk4", "euler"])
@pytest.mark.parametrize("kind", ["zero", "brownian"])
@pytest.mark.parametrize("T", [0.5, 0.02], ids=["26-saves", "one-step"])
def test_streamed_pass_is_the_ensemble_path(tmp_path, drift_and_weight, scheme, kind, T):
    drift, h = drift_and_weight
    dt = 0.02
    gamma = zero_path(T, dt) if kind == "zero" else sample_brownian(T, dt, 0.05, seed=3)
    lattice = lattice_positions(M, 1.0)
    last, H, lip = streamed(tmp_path / "s.lgt1", FlowSaves(drift, gamma, lattice, T, scheme, dt),
                            h, seed=4)

    ens = integrate_flow(drift, gamma, lattice, T, scheme, dt, m=M)
    assert ens.times.size == (26 if T == 0.5 else 2)
    write_trajectories(tmp_path / "e.lgt1", ens)
    assert (tmp_path / "s.lgt1").read_bytes() == (tmp_path / "e.lgt1").read_bytes() == (
        b"LGT1" + struct.pack("<IIIdd", 1, ens.count, ens.times.size, 1.0, T)
        + ens.times.astype("<f8").tobytes() + ens.trajectories.astype("<f8").tobytes())
    assert np.array_equal(bits(last), bits(ens.trajectories[-1]))
    samples = np.stack([sample_trilinear(h.values, h.grid, x) for x in ens.trajectories])
    assert np.array_equal(bits(H.values), bits(flow_weight(h, ens).values))
    assert np.array_equal(bits(H.values), bits(np.trapezoid(samples, ens.times, axis=0)))
    assert_same_dict(lip, check_flow_lipschitz(ens, flow_weight(h, ens), 300, seed=4))
    if T == 0.5 and kind == "zero":
        assert 0 < lip["violations"] < lip["pair_count"]


def test_one_save_pass(tmp_path, drift_and_weight):
    """A pass of a single save (t = 0) writes that save, integrates H to 0
    and compares the initial gaps with |x - y|, as the ensemble forms do."""
    drift, h = drift_and_weight
    ens = integrate_flow(drift, zero_path(0.5, 0.02), lattice_positions(M, 1.0), 0.5,
                         "rk4", 0.02, m=M)
    one = ParticleEnsemble(ens.initial_positions, ens.times[:1], ens.trajectories[:1],
                           ens.box_len, M)

    class OneSave:
        times, initial_positions, box_len = one.times, one.initial_positions, one.box_len

        def __iter__(self):
            yield one.trajectories[0]

    last, H, lip = streamed(tmp_path / "s.lgt1", OneSave(), h, seed=4)
    write_trajectories(tmp_path / "e.lgt1", one)
    assert (tmp_path / "s.lgt1").read_bytes() == (tmp_path / "e.lgt1").read_bytes()
    assert np.array_equal(bits(last), bits(one.trajectories[0]))
    assert not np.any(H.values)
    assert np.array_equal(bits(H.values), bits(flow_weight(h, one).values))
    assert_same_dict(lip, check_flow_lipschitz(one, flow_weight(h, one), 300, seed=4))


def test_readers_need_every_save(drift_and_weight):
    drift, h = drift_and_weight
    saves = FlowSaves(drift, zero_path(0.1, 0.02), lattice_positions(M, 1.0), 0.1)
    H = FlowWeightSum(h, saves.times)
    with pytest.raises(ValueError):
        H.value()
    pairs = LatticePairs(saves.initial_positions, M)
    with pytest.raises(ValueError):
        pairs.check(H)
    for x in list(saves)[:-1]:
        H.add(x)
    with pytest.raises(ValueError):
        H.value()
    with pytest.raises(ValueError):
        LatticePairs(saves.initial_positions, None)
