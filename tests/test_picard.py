import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from lagflow import picard
from lagflow.config import parse_config_text
from lagflow.fields import (
    Grid3,
    RealVectorField,
    evaluate,
    sample_spectral,
    sample_trilinear,
    to_real,
)
from lagflow import flow
from lagflow.flow import CallableDrift, FieldDrift, lattice_positions, sup_gap
from lagflow.forcing import sample_brownian, time_grid, zero_path
from lagflow.pipeline import pipeline_paper_check
from lagflow.picard import (
    _cumtrapz,
    _velocities_along,
    bad_set_measure,
    picard_iterate,
    picard_paths,
    slopes_per_point,
    weighted_gaps,
)
from lagflow.solver import make_initial_data
from lagflow.weights import asymmetric_weight

GRID = Grid3(16, 1.0)


def constant_drift(v):
    samples = np.ones((3, 16, 16, 16)) * np.asarray(v)[:, None, None, None]
    return FieldDrift([(0.0, RealVectorField(GRID, samples))])


@pytest.fixture(scope="module")
def tg_field():
    return make_initial_data("taylor_green", GRID, {"amplitude": 1.0})


class ExactDrift(CallableDrift):
    """The exact Fourier sum of F.  It does not depend on t, so it is frozen
    (Picard samples all time levels in one batch), and its node values are
    to_real(F) once rather than the exact sum at every node and time."""

    frozen = True

    def __init__(self, F):
        super().__init__(lambda t, pts: sample_spectral(F, pts), F.grid)
        self.nodes = to_real(F).samples

    def node_values(self, t):
        return self.nodes


@pytest.fixture(scope="module")
def tg_drift(tg_field):
    return ExactDrift(tg_field)


def log_gap_slope(gaps, floor=1e-12):
    """np.polyfit slope of log(gaps) against the iterate index, over the
    iterates with gaps above the floor."""
    ns = np.nonzero(gaps > floor)[0]
    return float(np.polyfit(ns, np.log(gaps[ns]), 1)[0])


class TestPicardIterate:
    def test_zero_drift_immediate(self):
        gamma = sample_brownian(1.0, 0.05, 0.2, 0)
        run = picard_iterate(constant_drift([0, 0, 0]), gamma,
                             [0.5, 0.5, 0.5], 5, 0.05)
        assert np.max(run.gaps) < 1e-12
        assert slopes_per_point(run)[0] == -math.inf   # converged immediately

    def test_constant_drift_one_step(self):
        # Z1 already equals the exact trajectory for a constant field
        run = picard_iterate(constant_drift([0.2, 0.1, -0.3]), zero_path(1.0, 0.1),
                             [0.5, 0.5, 0.5], 4, 0.1)
        assert run.gaps[0, 0] > 0.1          # Z0 misses by |v| T scale
        assert np.max(run.gaps[1:]) < 1e-9   # all later iterates exact

    def test_geometric_convergence(self, tg_drift):
        run = picard_iterate(tg_drift, zero_path(1.0, 0.02), [0.3, 0.6, 0.2],
                             10, 0.02)
        slope = slopes_per_point(run)[0]
        assert math.isfinite(slope)
        assert slope <= -0.8

    def test_z0_gap_bounded_by_drift_budget(self, tg_drift):
        lat = lattice_positions(4, 1.0)
        run = picard_iterate(tg_drift, zero_path(1.0, 0.05), lat, 2, 0.05)
        assert np.max(run.gaps[0]) <= run.b_sup_integral * (1 + 1e-9)

    def test_perturbation_shape_checked(self, tg_drift):
        paths = picard_paths(tg_drift, zero_path(1.0, 0.1), np.array([[0.5, 0.5, 0.5]]),
                             time_grid(1.0, 0.1), 2, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            next(paths)

    def test_vanishing_perturbation_still_converges(self, tg_drift):
        gamma = zero_path(1.0, 0.05)
        run = picard_iterate(tg_drift, gamma, [0.3, 0.6, 0.2], 10, 0.05)
        bump = 0.1 * np.sin(math.pi * run.times)
        pert = np.stack([bump, bump, bump], axis=1)
        gaps = [sup_gap(z, run.reference)[0]
                for z in picard_paths(tg_drift, gamma, run.x, run.times, 10, pert)]
        assert gaps[-1] < gaps[0] * 1e-2

    def test_last_iterate_is_last_path(self, tg_drift):
        gamma = sample_brownian(1.0, 0.05, 0.2, 3)
        lat = lattice_positions(2, 1.0)
        run = picard_iterate(tg_drift, gamma, lat, 4, 0.05)
        paths = list(picard_paths(tg_drift, gamma, lat, run.times, 4))
        np.testing.assert_array_equal(run.last, paths[-1])
        np.testing.assert_array_equal(run.gaps, np.stack([sup_gap(z, run.reference)
                                                          for z in paths]))

    @pytest.mark.parametrize("T", [0.5, 1.0])
    @pytest.mark.parametrize("dt", [0.005, 0.01, 0.02, 0.025, 0.03, 0.05, 0.1])
    def test_reference_on_iteration_grid(self, T, dt, monkeypatch):
        # the RK4 reference is saved at the iteration grid's times, bit for bit
        saved = []
        inner = flow.integrate_flow

        def recorded(*args, **kwargs):
            ens = inner(*args, **kwargs)
            saved.append(ens.times)
            return ens

        monkeypatch.setattr(picard, "integrate_flow", recorded)
        run = picard_iterate(constant_drift([0.1, 0.0, 0.0]), zero_path(T, dt),
                             [0.5, 0.5, 0.5], 1, dt)
        np.testing.assert_array_equal(run.times, time_grid(T, dt))
        np.testing.assert_array_equal(saved[0], run.times)
        assert run.reference.shape == (run.times.size, 1, 3)

    def test_n_iters_validated(self, tg_drift):
        with pytest.raises(ValueError):
            picard_iterate(tg_drift, zero_path(1.0, 0.1), [0.5, 0.5, 0.5], 0, 0.1)


class TestSlopesPerPoint:
    def test_lattice_slopes(self, tg_drift):
        lat = lattice_positions(4, 1.0)
        run = picard_iterate(tg_drift, zero_path(1.0, 0.02), lat, 10, 0.02)
        slopes = slopes_per_point(run)
        assert slopes.shape == (64,)
        assert np.mean(slopes <= -0.8) >= 0.9

    def test_matches_scalar_fit(self, tg_drift):
        run = picard_iterate(tg_drift, zero_path(1.0, 0.02), [0.3, 0.6, 0.2],
                             10, 0.02)
        vec = slopes_per_point(run)
        assert vec[0] == pytest.approx(log_gap_slope(run.gaps[:, 0]), rel=1e-9)


class TestWeightedContraction:
    def test_contraction_factor(self, tg_field, tg_drift):
        # in the metric weighted by exp(-e * int h), each Picard iterate
        # contracts by at least e^-1 (up to discretization slack)
        h, _ = asymmetric_weight(evaluate(tg_field), pair_count=5_000, seed=0)
        gamma = zero_path(1.0, 0.02)
        run = picard_iterate(tg_drift, gamma, [0.3, 0.6, 0.2], 8, 0.02)
        pos = np.mod(run.reference[:, 0, :], GRID.box_len)
        h_along = sample_trilinear(h.values, GRID, pos)[:, None]
        iterates = picard_paths(tg_drift, gamma, run.x, run.times, 8)
        d = weighted_gaps(run, iterates, h_along)[:, 0]
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
        rows = bad_set_measure(picard_iterate(tg_drift, zero_path(1.0, 0.05), lat, 8,
                                              0.05))
        # n = 0 is vacuous (threshold 1 exceeds the a-priori Z0 bound);
        # the decay statement concerns n >= 1
        fr = [r["fraction"] for r in rows[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(fr, fr[1:]))
        assert fr[-1] == 0.0

    def test_threshold_rules(self, tg_drift):
        lat = lattice_positions(2, 1.0)
        rows = bad_set_measure(picard_iterate(tg_drift, zero_path(1.0, 0.1), lat, 3, 0.1))
        assert rows[2]["threshold"] == pytest.approx(math.exp(-1.0))

    def test_reuses_given_run(self, tg_drift):
        lat = lattice_positions(2, 1.0)
        run = picard_iterate(tg_drift, zero_path(1.0, 0.1), lat, 3, 0.1)
        rows = bad_set_measure(run)
        assert len(rows) == run.gaps.shape[0]
        for n, row in enumerate(rows):
            assert row["fraction"] == float(np.mean(run.gaps[n] > row["threshold"]))


class TestResidualIdentity:
    def test_iterate_recomputation_matches(self, tg_drift):
        # recomputing Z(n+1) from a stored Z(n) reproduces the stored Z(n+1)
        gamma = zero_path(1.0, 0.05)
        x, times = np.array([[0.3, 0.6, 0.2]]), time_grid(1.0, 0.05)
        iterates = list(picard_paths(tg_drift, gamma, x, times, 4))
        v = _velocities_along(tg_drift, times, iterates[2])
        z_next = (x[None, :, :] + cumulative_trapezoid(v, times, axis=0, initial=0)
                  + gamma.at(times)[:, None, :])
        np.testing.assert_allclose(z_next, iterates[3], atol=1e-12)


def explicit_cumtrapz(values, times):
    """Cumulative trapezoid along axis 0 written out as a cumsum of
    0.5 * (v[i+1] + v[i]) * dt[i], starting at 0."""
    dt = np.diff(times).reshape((-1,) + (1,) * (values.ndim - 1))
    out = np.zeros_like(values)
    np.cumsum(0.5 * (values[1:] + values[:-1]) * dt, axis=0, out=out[1:])
    return out


class TestTrapezoidSites:
    @pytest.mark.parametrize("nodes", [2, 3, 101])
    @pytest.mark.parametrize("shape", [(), (7,), (7, 3)])
    def test_cumulative_trapezoid_is_explicit_cumsum(self, nodes, shape):
        rng = np.random.default_rng(nodes)
        times = np.sort(rng.uniform(0.0, 2.0, nodes))
        values = rng.standard_normal((nodes,) + shape)
        np.testing.assert_array_equal(
            cumulative_trapezoid(values, times, axis=0, initial=0),
            explicit_cumtrapz(values, times))
        np.testing.assert_array_equal(_cumtrapz(values, times),
                                      explicit_cumtrapz(values, times))

    def test_picard_iterates_are_explicit_cumsum(self, tg_drift):
        gamma = sample_brownian(1.0, 0.05, 0.2, 3)
        x, times = lattice_positions(2, 1.0), time_grid(1.0, 0.05)
        iterates = list(picard_paths(tg_drift, gamma, x, times, 4))
        for prev, nxt in zip(iterates, iterates[1:]):
            v = _velocities_along(tg_drift, times, prev)
            expect = (x[None, :, :] + explicit_cumtrapz(v, times)
                      + gamma.at(times)[:, None, :])
            np.testing.assert_array_equal(nxt, expect)

    def test_weighted_gaps_are_explicit_cumsum(self, tg_drift):
        gamma = zero_path(1.0, 0.05)
        run = picard_iterate(tg_drift, gamma, lattice_positions(2, 1.0), 3, 0.05)
        iterates = list(picard_paths(tg_drift, gamma, run.x, run.times, 3))
        h_along = np.random.default_rng(4).uniform(0.0, 3.0, size=(run.times.size, 8))
        w = np.exp(-math.e * explicit_cumtrapz(h_along, run.times))
        expect = [np.max(w * np.sqrt(np.sum((z - run.reference) ** 2, axis=2)), axis=0)
                  for z in iterates]
        np.testing.assert_array_equal(weighted_gaps(run, iterates, h_along),
                                      np.stack(expect))


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
