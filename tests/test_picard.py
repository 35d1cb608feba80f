import math

import numpy as np
import pytest

from lagflow import picard
from lagflow.config import parse_config_text
from lagflow.fields import Grid3, RealVectorField, sample_scalar_trilinear
from lagflow.flow import FrozenFieldDrift, lattice_positions
from lagflow.forcing import sample_brownian, zero_path
from lagflow.pipeline import pipeline_paper_check
from lagflow.picard import (
    bad_set_measure,
    convergence_rate,
    picard_iterate,
    slopes_per_point,
    weighted_gaps,
)
from lagflow.solver import make_initial_data
from lagflow.weights import asymmetric_weight

GRID = Grid3(16, 1.0)


def constant_drift(v):
    samples = np.ones((3, 16, 16, 16)) * np.asarray(v)[:, None, None, None]
    return FrozenFieldDrift(RealVectorField(GRID, samples))


@pytest.fixture(scope="module")
def tg_drift():
    return FrozenFieldDrift(make_initial_data("taylor_green", GRID,
                                              {"amplitude": 1.0}), "spectral")


class TestPicardIterate:
    def test_zero_drift_immediate(self):
        gamma = sample_brownian(1.0, 0.05, 0.2, 0)
        run = picard_iterate(constant_drift([0, 0, 0]), gamma,
                             [0.5, 0.5, 0.5], 5, 0.05)
        assert np.max(run.gaps) < 1e-12
        rep = convergence_rate(run)
        assert rep["converged_immediately"]

    def test_constant_drift_one_step(self):
        # Z1 already equals the exact trajectory for a constant field
        run = picard_iterate(constant_drift([0.2, 0.1, -0.3]), zero_path(1.0, 0.1),
                             [0.5, 0.5, 0.5], 4, 0.1)
        assert run.gaps[0, 0] > 0.1          # Z0 misses by |v| T scale
        assert np.max(run.gaps[1:]) < 1e-9   # all later iterates exact

    def test_geometric_convergence(self, tg_drift):
        run = picard_iterate(tg_drift, zero_path(1.0, 0.02), [0.3, 0.6, 0.2],
                             10, 0.02)
        rep = convergence_rate(run)
        assert not rep["converged_immediately"]
        assert rep["slope"] <= -0.8

    def test_z0_gap_bounded_by_drift_budget(self, tg_drift):
        lat = lattice_positions(4, 1.0)
        run = picard_iterate(tg_drift, zero_path(1.0, 0.05), lat, 2, 0.05)
        assert np.max(run.gaps[0]) <= run.b_sup_integral * (1 + 1e-9)

    def test_perturbation_shape_checked(self, tg_drift):
        with pytest.raises(ValueError):
            picard_iterate(tg_drift, zero_path(1.0, 0.1), [0.5, 0.5, 0.5], 2, 0.1,
                           z0_perturbation=np.zeros((3, 3)))

    def test_vanishing_perturbation_still_converges(self, tg_drift):
        nt = 20
        times = np.linspace(0, 1.0, nt + 1)
        bump = 0.1 * np.sin(math.pi * times)
        pert = np.stack([bump, bump, bump], axis=1)
        run = picard_iterate(tg_drift, zero_path(1.0, 1.0 / nt), [0.3, 0.6, 0.2],
                             10, 1.0 / nt, z0_perturbation=pert)
        assert run.gaps[-1, 0] < run.gaps[0, 0] * 1e-2

    def test_n_iters_validated(self, tg_drift):
        with pytest.raises(ValueError):
            picard_iterate(tg_drift, zero_path(1.0, 0.1), [0.5, 0.5, 0.5], 0, 0.1)


class TestSlopesPerPoint:
    def test_lattice_slopes(self, tg_drift):
        lat = lattice_positions(4, 1.0)
        run = picard_iterate(tg_drift, zero_path(1.0, 0.02), lat, 10, 0.02,
                             keep_iterates=False)
        slopes = slopes_per_point(run)
        assert slopes.shape == (64,)
        assert np.mean(slopes <= -0.8) >= 0.9

    def test_matches_scalar_fit(self, tg_drift):
        run = picard_iterate(tg_drift, zero_path(1.0, 0.02), [0.3, 0.6, 0.2],
                             10, 0.02)
        rep = convergence_rate(run)
        vec = slopes_per_point(run)
        assert vec[0] == pytest.approx(rep["slope"], rel=1e-9)


class TestWeightedContraction:
    def test_contraction_factor(self, tg_drift):
        # in the metric weighted by exp(-e * int h), each Picard iterate
        # contracts by at least e^-1 (up to discretization slack)
        h, _ = asymmetric_weight(tg_drift.spectral, pair_count=5_000, seed=0)
        run = picard_iterate(tg_drift, zero_path(1.0, 0.02), [0.3, 0.6, 0.2],
                             8, 0.02)
        pos = np.mod(run.reference[:, 0, :], GRID.box_len)
        h_along = sample_scalar_trilinear(h.values, GRID, pos)[:, None]
        d = weighted_gaps(run, h_along)[:, 0]
        # iterates converge to the discrete fixed point, so the gap to the
        # RK4 reference plateaus at quadrature error; measure the factor
        # only while well above that floor
        usable = (d[:-1] > 50 * d[-1]) & (d[1:] > 50 * d[-1])
        assert np.any(usable)
        factors = d[1:][usable] / d[:-1][usable]
        assert np.all(factors <= math.exp(-1.0) * 1.2)


class TestBadSet:
    def test_fractions_non_increasing(self, tg_drift):
        lat = lattice_positions(4, 1.0)
        res = bad_set_measure(tg_drift, zero_path(1.0, 0.05), lat, 8, 0.05)
        # n = 0 is vacuous (threshold 1 exceeds the a-priori Z0 bound);
        # the decay statement concerns n >= 1
        fr = [r["fraction"] for r in res["rows"][1:]]
        assert all(b <= a + 1e-12 for a, b in zip(fr, fr[1:]))
        assert fr[-1] == 0.0

    def test_threshold_rules(self, tg_drift):
        lat = lattice_positions(2, 1.0)
        res = bad_set_measure(tg_drift, zero_path(1.0, 0.1), lat, 3, 0.1)
        assert res["rows"][2]["threshold"] == pytest.approx(math.exp(-1.0))
        res_abs = bad_set_measure(tg_drift, zero_path(1.0, 0.1), lat, 3, 0.1,
                                  threshold_rule="absolute", absolute_threshold=0.5)
        assert all(r["threshold"] == 0.5 for r in res_abs["rows"])
        with pytest.raises(ValueError):
            bad_set_measure(tg_drift, zero_path(1.0, 0.1), lat, 3, 0.1,
                            threshold_rule="absolute")
        with pytest.raises(ValueError):
            bad_set_measure(tg_drift, zero_path(1.0, 0.1), lat, 3, 0.1,
                            threshold_rule="median")

    def test_reuses_given_run(self, tg_drift):
        lat = lattice_positions(2, 1.0)
        run = picard_iterate(tg_drift, zero_path(1.0, 0.1), lat, 3, 0.1,
                             keep_iterates=False)
        res = bad_set_measure(tg_drift, zero_path(1.0, 0.1), lat, 3, 0.1, run=run)
        np.testing.assert_array_equal(res["gaps"], run.gaps)


class TestResidualIdentity:
    def test_iterate_recomputation_matches(self, tg_drift):
        # recomputing Z(n+1) from a stored Z(n) reproduces the stored Z(n+1)
        gamma = zero_path(1.0, 0.05)
        run = picard_iterate(tg_drift, gamma, [0.3, 0.6, 0.2], 4, 0.05)
        from lagflow.picard import _cumtrapz, _velocities_along
        z_prev = run.iterates[2]
        v = _velocities_along(tg_drift, run.times, z_prev)
        z_next = run.x[None, :, :] + _cumtrapz(v, run.times) + gamma.at(run.times)[:, None, :]
        np.testing.assert_allclose(z_next, run.iterates[3], atol=1e-12)


class TestPicardStage:
    def test_stage_runs_picard_once(self, tmp_path, monkeypatch):
        calls = []
        inner = picard.picard_iterate

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(picard, "picard_iterate", counted)
        cfg = parse_config_text(f"output_dir = {tmp_path}\nsolver.n = 16\n"
                                "solver.t_end = 0.2\npicard.m = 2\npicard.dt = 0.05\n")
        manifest = pipeline_paper_check(cfg, {"picard"})
        assert manifest.complete
        assert len(calls) == 1
