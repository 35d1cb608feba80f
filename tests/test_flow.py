import math

import numpy as np
import pytest

from lagflow.fields import Grid3, RealVectorField, gradient, to_spectral
from lagflow.flow import (
    CallableDrift,
    FrozenFieldDrift,
    ParticleEnsemble,
    SnapshotDrift,
    compressibility_constant,
    flow_convergence_test,
    integrate_flow,
    lattice_positions,
    stability_gap,
)
from lagflow.fields import mollify
from lagflow.forcing import ForcingPath, sample_brownian, zero_path
from lagflow.lorentz import lp_norm
from lagflow.solver import SolverConfig, make_initial_data, run

GRID = Grid3(16, 1.0)


def constant_drift(v):
    samples = np.ones((3, 16, 16, 16)) * np.asarray(v)[:, None, None, None]
    return FrozenFieldDrift(RealVectorField(GRID, samples))


def shear_drift(amp=1.0, mode="trilinear"):
    return FrozenFieldDrift(make_initial_data("shear", GRID, {"amplitude": amp}), mode)


class TestForcingPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            ForcingPath(np.array([0.0]), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            ForcingPath(np.array([0.0, 0.0]), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            ForcingPath(np.array([0.0, 1.0]), np.zeros((3, 3)))

    def test_interpolation(self):
        p = ForcingPath(np.array([0.0, 1.0]), np.array([[0.0, 0, 0], [2.0, 4.0, 6.0]]))
        np.testing.assert_allclose(p.at(0.5), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(p.at([0.0, 1.0]),
                                   [[0, 0, 0], [2.0, 4.0, 6.0]])
        with pytest.raises(ValueError):
            p.at(1.5)

    def test_sup_distance(self):
        p = zero_path(1.0, 0.1)
        q = p.shifted([0.3, 0.0, 0.4])
        assert p.sup_distance(q) == pytest.approx(0.5)

    def test_brownian_moments(self):
        T, dt, eps, n_paths = 1.0, 0.01, 0.3, 10_000
        finals = np.array([sample_brownian(T, dt, eps, seed).values[-1]
                           for seed in range(n_paths)])
        sigma = eps * math.sqrt(T)
        assert np.max(np.abs(finals.mean(axis=0))) < 4 * sigma / math.sqrt(n_paths) * 1.5
        np.testing.assert_allclose(finals.var(axis=0), eps ** 2 * T, rtol=0.05)

    def test_brownian_reproducible_and_zero(self):
        a = sample_brownian(1.0, 0.1, 0.2, 7)
        b = sample_brownian(1.0, 0.1, 0.2, 7)
        np.testing.assert_array_equal(a.values, b.values)
        assert np.all(a.values[0] == 0.0)
        z = sample_brownian(1.0, 0.1, 0.0, 7)
        assert np.all(z.values == 0.0)


class TestIntegrateFlow:
    def test_zero_drift_follows_forcing(self):
        gamma = sample_brownian(1.0, 0.05, 0.2, 1)
        drift = constant_drift([0.0, 0.0, 0.0])
        x0 = np.array([[0.2, 0.4, 0.6]])
        ens = integrate_flow(drift, gamma, x0, 1.0, "rk4", 0.05)
        for i, t in enumerate(ens.times):
            np.testing.assert_allclose(ens.trajectories[i, 0], x0[0] + gamma.at(t),
                                       atol=1e-12)

    def test_constant_drift_linear_motion(self):
        v = [0.3, -0.2, 0.1]
        ens = integrate_flow(constant_drift(v), zero_path(1.0, 0.1),
                             np.array([[0.5, 0.5, 0.5]]), 1.0, "euler", 0.1)
        np.testing.assert_allclose(ens.trajectories[-1, 0],
                                   np.array([0.5, 0.5, 0.5]) + np.array(v), atol=1e-12)

    def test_shear_exact(self):
        # b = (0, a sin(2 pi x), 0): x is conserved, so y grows linearly
        amp = 0.7
        drift = shear_drift(amp, "spectral")
        x0 = np.array([[0.3, 0.1, 0.9]])
        ens = integrate_flow(drift, zero_path(1.0, 0.05), x0, 1.0, "rk4", 0.05)
        expect = x0[0] + [0.0, amp * math.sin(2 * math.pi * 0.3), 0.0]
        np.testing.assert_allclose(ens.trajectories[-1, 0], expect, atol=1e-9)

    def test_galilean_consistency(self):
        # X under (b, gamma) = Y under b(t, . + gamma_t) with no forcing, plus gamma
        gamma = sample_brownian(0.5, 0.05, 0.1, 3)
        drift = shear_drift(1.0)
        x0 = lattice_positions(4, 1.0)
        e1 = integrate_flow(drift, gamma, x0, 0.5, "rk4", 0.05)
        shifted = CallableDrift(lambda t, p: drift.velocity(t, p + gamma.at(t)), GRID)
        e2 = integrate_flow(shifted, zero_path(0.5, 0.05), x0, 0.5, "rk4", 0.05)
        np.testing.assert_array_equal(e1.times, e2.times)
        np.testing.assert_array_equal(e1.trajectories,
                                      e2.trajectories + gamma.at(e2.times)[:, None, :])
        assert np.max(np.abs(e1.trajectories - e2.trajectories)) > 1e-3

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            integrate_flow(constant_drift([0, 0, 0]), zero_path(1.0, 0.1),
                           np.zeros((1, 3)), 1.0, "heun", 0.1)

    def test_ensemble_shape_validation(self):
        with pytest.raises(ValueError):
            ParticleEnsemble(np.zeros((4, 3)), np.array([0.0, 1.0]),
                             np.zeros((3, 4, 3)), 1.0)


class TestLattice:
    def test_positions(self):
        pts = lattice_positions(4, 2.0)
        assert pts.shape == (64, 3)
        assert pts.min() == pytest.approx(0.25)
        assert pts.max() == pytest.approx(1.75)


class TestCompressibility:
    def test_volume_preserving_shear(self):
        ens = integrate_flow(shear_drift(1.0), zero_path(1.0, 0.05),
                             lattice_positions(16, 1.0), 1.0, "rk4", 0.05, m=16)
        assert compressibility_constant(ens) <= 1.2

    def test_contracting_control_exceeds_threshold(self):
        # drift pulling every particle toward the box center is compressible
        def fn(t, pts):
            return 0.5 - pts

        ens = integrate_flow(CallableDrift(fn, GRID), zero_path(1.0, 0.05),
                             lattice_positions(16, 1.0), 1.0, "rk4", 0.05, m=16)
        assert compressibility_constant(ens) > 1.5

    def test_needs_cells_for_scatter(self):
        ens = integrate_flow(shear_drift(), zero_path(0.1, 0.05),
                             np.random.default_rng(0).uniform(0, 1, (100, 3)),
                             0.1, "rk4", 0.05)
        with pytest.raises(ValueError):
            compressibility_constant(ens)
        assert compressibility_constant(ens, cells=2) > 0


@pytest.fixture(scope="module")
def ns_drift():
    u = make_initial_data("taylor_green", GRID, {"amplitude": 1.0})
    snaps, _ = run(u, SolverConfig(GRID, 0.05, 0.02, 0.5))
    return SnapshotDrift.from_run(snaps)


class TestStability:
    def test_identical_inputs_zero_gap(self, ns_drift):
        pts = lattice_positions(4, 1.0)
        rep = stability_gap(ns_drift, zero_path(0.5, 0.05), ns_drift,
                            zero_path(0.5, 0.05), pts, 0.5, 1.0, 2.0)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.drift_gap == pytest.approx(0.0, abs=1e-12)

    def test_bound_holds_for_mollified_drift(self, ns_drift):
        u = ns_drift.fields[-1]
        b1 = FrozenFieldDrift(to_spectral(u))
        b2 = FrozenFieldDrift(mollify(to_spectral(u), 4))
        pts = lattice_positions(6, 1.0)
        rep = stability_gap(b1, zero_path(0.5, 0.05), b2, zero_path(0.5, 0.05),
                            pts, 0.5, 1.0, 2.0)
        assert rep.lhs <= rep.rhs_opt * (1 + 1e-9)
        assert 0 < rep.fitted_constant() <= 1.0 + 1e-9

    def test_forcing_gap_enters(self, ns_drift):
        b = FrozenFieldDrift(to_spectral(ns_drift.fields[0]))
        g1 = zero_path(0.5, 0.05)
        g2 = g1.shifted([0.1, 0.0, 0.0])
        pts = lattice_positions(4, 1.0)
        rep = stability_gap(b, g1, b, g2, pts, 0.5, 1.0, 2.0)
        assert rep.forcing_gap == pytest.approx(0.1)
        assert rep.lhs > 0


class TestDriftProtocol:
    def test_frozen_integrals_match_explicit_quadrature(self, ns_drift):
        # the protocol's integrals must equal the trapezoid rule over 17
        # explicit evaluations, bit for bit
        b1 = FrozenFieldDrift(to_spectral(ns_drift.fields[-1]))
        b2 = FrozenFieldDrift(mollify(b1.spectral, 4))
        T, p, vol = 0.5, 2.0, GRID.cell_volume
        ts = np.linspace(0.0, T, 17)
        gaps, grads, sups = [], [], []
        for t in ts:
            diff = b1.node_values(t) - b2.node_values(t)
            gaps.append(lp_norm(np.sqrt(np.sum(diff ** 2, axis=0)), p, vol))
            grads.append(lp_norm(gradient(b1.spectral).magnitude(), p, vol))
            sups.append(float(np.max(np.sqrt(np.sum(b1.node_values(t) ** 2, axis=0)))))
        assert b1.lp_difference_integral(b2, p, T) == float(np.trapezoid(gaps, ts))
        assert b1.gradient_lp_integral(p, T) == float(np.trapezoid(grads, ts))
        assert b1.sup_norm_integral(ts) == float(np.trapezoid(sups, ts))

    def test_frozen_flags(self, ns_drift):
        assert FrozenFieldDrift(ns_drift.fields[0]).frozen
        assert not ns_drift.frozen
        assert not CallableDrift(lambda t, p: p, GRID).frozen

    def test_stability_gap_accepts_callable_drift(self):
        # analytic shear against the same shear frozen on the grid
        amp = 0.7

        def fn(t, pts):
            out = np.zeros_like(pts)
            out[:, 1] = amp * np.sin(2 * math.pi * pts[:, 0])
            return out

        analytic, frozen = CallableDrift(fn, GRID), shear_drift(amp)
        zp = zero_path(0.5, 0.05)
        pts = lattice_positions(4, 1.0)
        rep = stability_gap(analytic, zp, frozen, zp, pts, 0.5, 1.0, 2.0)
        assert rep.drift_gap == pytest.approx(0.0, abs=1e-12)
        assert rep.gradient_budget == pytest.approx(frozen.gradient_lp_integral(2.0, 0.5),
                                                    rel=1e-12)
        assert rep.gradient_budget > 0
        assert rep.lhs < 1e-2


class TestFlowConvergence:
    def test_gaps_decrease_with_mollifier(self):
        u = make_initial_data("taylor_green", GRID, {"amplitude": 1.0})
        limit = FrozenFieldDrift(u)
        seq = [FrozenFieldDrift(mollify(u, nm)) for nm in (2, 4, 8)]
        pts = lattice_positions(6, 1.0)
        gammas = [zero_path(0.5, 0.05)] * 3
        gaps = flow_convergence_test(seq, gammas, limit, zero_path(0.5, 0.05),
                                     pts, 0.5, 2.0, dt=0.05)
        assert gaps[0] > gaps[1] > gaps[2]
