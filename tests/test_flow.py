import math

import numpy as np
import pytest

from lagflow.fields import (
    Grid3,
    RealVectorField,
    sample_spectral,
    sample_trilinear,
    to_real,
    to_spectral,
)
from lagflow import fft
from lagflow.flow import (
    CallableDrift,
    Drift,
    FieldDrift,
    ParticleEnsemble,
    compressibility_constant,
    flow_convergence_test,
    integrate_flow,
    lattice_positions,
    stability_gap,
    sup_gap,
)
from lagflow.fields import mollify
from lagflow.forcing import ForcingPath, sample_brownian, time_grid, zero_path
from lagflow.lorentz import lp_norm
from lagflow.solver import SolverConfig, make_initial_data, run
from oracles import gradient, gradient_norm

GRID = Grid3(16, 1.0)


def constant_drift(v):
    samples = np.ones((3, 16, 16, 16)) * np.asarray(v)[:, None, None, None]
    return FieldDrift([(0.0, RealVectorField(GRID, samples))])


def shear_field(amp=1.0):
    return make_initial_data("shear", GRID, {"amplitude": amp})


def shear_drift(amp=1.0):
    return FieldDrift([(0.0, shear_field(amp))])


class TestForcingPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            ForcingPath(np.array([0.0]), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            ForcingPath(np.array([0.0, 0.0]), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            ForcingPath(np.array([0.0, 1.0]), np.zeros((3, 3)))

    @pytest.mark.parametrize("times", [[0.0, math.nan, 1.0], [0.0, 1.0, math.inf],
                                       [math.nan, 0.5, 1.0]])
    def test_non_finite_times_rejected(self, times):
        with pytest.raises(ValueError, match="finite"):
            ForcingPath(np.array(times), np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        values = np.zeros((3, 3))
        values[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            ForcingPath(np.array([0.0, 0.5, 1.0]), values)

    def test_brownian_rejects_nan_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            sample_brownian(1.0, 0.1, math.nan, 0)

    def test_interpolation(self):
        p = ForcingPath(np.array([0.0, 1.0]), np.array([[0.0, 0, 0], [2.0, 4.0, 6.0]]))
        np.testing.assert_allclose(p.at(0.5), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(p.at([0.0, 1.0]),
                                   [[0, 0, 0], [2.0, 4.0, 6.0]])
        with pytest.raises(ValueError):
            p.at(1.5)

    def test_sup_distance(self):
        p = zero_path(1.0, 0.1)
        q = ForcingPath(p.times, p.values + [0.3, 0.0, 0.4])
        assert p.sup_distance(q) == pytest.approx(0.5)

    def test_brownian_moments(self):
        T, dt, eps, n_paths = 1.0, 0.01, 0.3, 10_000
        finals = np.array([sample_brownian(T, dt, eps, seed).values[-1]
                           for seed in range(n_paths)])
        sigma = eps * math.sqrt(T)
        assert np.max(np.abs(finals.mean(axis=0))) < 4 * sigma / math.sqrt(n_paths) * 1.5
        np.testing.assert_allclose(finals.var(axis=0), eps ** 2 * T, rtol=0.05)

    @pytest.mark.parametrize("T, dt, n", [(1.0, 0.01, 100), (0.5, 0.03, 17),
                                          (1.0, 0.7, 1), (0.1, 1.0, 1)])
    def test_time_grid(self, T, dt, n):
        grid = time_grid(T, dt)
        np.testing.assert_array_equal(grid, np.linspace(0.0, T, n + 1))
        np.testing.assert_array_equal(zero_path(T, dt).times, grid)
        np.testing.assert_array_equal(sample_brownian(T, dt, 0.2, 0).times, grid)

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
        F = shear_field(amp)
        drift = CallableDrift(lambda t, pts: sample_spectral(F, pts), GRID)   # exact sum
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

        class Shifted(Drift):     # periodic through drift's kernel: no wrap of its own
            def velocity(self, t, p):
                return drift.velocity(t, p + gamma.at(t))

        e2 = integrate_flow(Shifted(GRID), zero_path(0.5, 0.05), x0, 0.5, "rk4", 0.05)
        np.testing.assert_array_equal(e1.times, e2.times)
        np.testing.assert_array_equal(e1.trajectories,
                                      e2.trajectories + gamma.at(e2.times)[:, None, :])
        assert np.max(np.abs(e1.trajectories - e2.trajectories)) > 1e-3

    @pytest.mark.parametrize("T", [0.5, 1.0])
    @pytest.mark.parametrize("dt", [0.005, 0.01, 0.02, 0.025, 0.03, 0.05, 0.1])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_saves_are_strides_of_time_grid(self, T, dt, k):
        grid = time_grid(T, dt)
        ens = integrate_flow(constant_drift([0.1, 0.0, 0.0]), zero_path(T, dt),
                             np.array([[0.5, 0.5, 0.5]]), T, "euler", dt, k)
        expect = grid[::k] if (grid.size - 1) % k == 0 else np.append(grid[::k], T)
        np.testing.assert_array_equal(ens.times, expect)

    def test_default_save_cadence(self):
        # every max(1, n_steps // 64)-th grid time: every step at T/dt = 100,
        # every third plus T at T/dt = 200
        x0 = np.array([[0.5, 0.5, 0.5]])
        drift = constant_drift([0.1, 0.0, 0.0])
        ens = integrate_flow(drift, zero_path(1.0, 0.01), x0, 1.0, "euler", 0.01)
        np.testing.assert_array_equal(ens.times, time_grid(1.0, 0.01))
        ens = integrate_flow(drift, zero_path(1.0, 0.005), x0, 1.0, "euler", 0.005)
        np.testing.assert_array_equal(ens.times, np.append(time_grid(1.0, 0.005)[::3], 1.0))
        assert ens.times.size == 68

    @pytest.mark.parametrize("scheme,calls", [("rk4", 4), ("euler", 2)])
    @pytest.mark.parametrize("kind", ["zero", "brownian"])
    @pytest.mark.parametrize("save_every", [None, 3])
    def test_forcing_read_once_per_set_of_times(self, scheme, calls, kind, save_every,
                                                monkeypatch):
        # a time-dependent drift, and a Brownian path on a grid finer than dt
        drift = FieldDrift([(0.0, shear_field(1.0)), (1.0, shear_field(-0.5))])
        gamma = (zero_path(1.0, 0.05) if kind == "zero"
                 else sample_brownian(1.0, 0.05 / 3, 0.2, seed=8))
        x0 = lattice_positions(3, 1.0)
        want = scalar_forcing_flow(drift, gamma, x0, 1.0, scheme, 0.05, save_every)
        at, seen = ForcingPath.at, []
        monkeypatch.setattr(ForcingPath, "at", lambda self, t: seen.append(t) or at(self, t))
        ens = integrate_flow(drift, gamma, x0, 1.0, scheme, 0.05, save_every)
        assert len(seen) == calls
        assert ens.trajectories.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scheme", ["rk4", "euler"])
    def test_kernel_wrap_equals_caller_wrap_on_unit_box(self, scheme):
        # box_len = 1 makes the spacing a power of two: a path that leaves the
        # box through its upper faces, with no forcing, samples the same nodes
        # and weights whether the caller wraps it first or the kernel does
        rng = np.random.default_rng(31)
        samples = rng.uniform(0.4, 1.2, (3, 16, 16, 16))
        drift = FieldDrift([(0.0, RealVectorField(GRID, samples))])
        x0 = lattice_positions(4, 1.0)
        ens = integrate_flow(drift, zero_path(1.0, 0.05), x0, 1.0, scheme, 0.05, 1)
        assert np.mean(ens.trajectories[-1] > 1.0) > 0.5      # most crossed an upper face
        want = scalar_forcing_flow(drift, zero_path(1.0, 0.05), x0, 1.0, scheme, 0.05, 1,
                                   caller_wrap=True)
        assert ens.trajectories.tobytes() == want.tobytes()

    @pytest.mark.parametrize("box_len", [1.0, 2.0 * math.pi])
    def test_kernel_wrap_near_caller_wrap(self, box_len):
        # forced, or leaving through a lower face, or at any other box length,
        # caller wrapping rounded mod(y, L) + gamma twice: paths agree to round-off
        grid = Grid3(16, box_len)
        rng = np.random.default_rng(32)
        samples = box_len * rng.uniform(-1.2, 1.2, (3, 16, 16, 16))
        drift = FieldDrift([(0.0, RealVectorField(grid, samples))])
        gamma = sample_brownian(1.0, 0.025, 0.3 * box_len, seed=4)
        x0 = lattice_positions(4, box_len)
        ens = integrate_flow(drift, gamma, x0, 1.0, "rk4", 0.05, 1)
        want = scalar_forcing_flow(drift, gamma, x0, 1.0, "rk4", 0.05, 1, caller_wrap=True)
        np.testing.assert_allclose(ens.trajectories, want, rtol=0.0, atol=1e-12 * box_len)

    @pytest.mark.parametrize("save_every", [0, -1])
    def test_save_every_below_one_rejected(self, save_every):
        with pytest.raises(ValueError, match="save_every"):
            integrate_flow(constant_drift([0.1, 0, 0]), zero_path(1.0, 0.1),
                           np.zeros((2, 3)), 1.0, "rk4", 0.1, save_every)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            integrate_flow(constant_drift([0, 0, 0]), zero_path(1.0, 0.1),
                           np.zeros((1, 3)), 1.0, "heun", 0.1)

    def test_ensemble_shape_validation(self):
        with pytest.raises(ValueError):
            ParticleEnsemble(np.zeros((4, 3)), np.array([0.0, 1.0]),
                             np.zeros((3, 4, 3)), 1.0)


def scalar_forcing_flow(b, gamma, x0, T, scheme, dt, save_every, caller_wrap=False):
    """integrate_flow's trajectories with gamma read at one time per call;
    with caller_wrap, the drift samples mod(Y, L) + gamma, as integrate_flow
    did before the trilinear kernel wrapped positions itself."""
    grid_times = time_grid(T, dt)
    n_steps = grid_times.size - 1
    h = T / n_steps
    every = save_every or max(1, n_steps // 64)
    saves = set(range(0, n_steps + 1, every)) | {n_steps}
    box = b.grid.box_len

    def rhs(t, y):
        return b.velocity(t, (np.mod(y, box) if caller_wrap else y) + gamma.at(t))

    y = x0.copy()
    saved = [y + gamma.at(grid_times[0])]
    for i in range(n_steps):
        t = i * h
        if scheme == "euler":
            y = y + h * rhs(t, y)
        else:
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if i + 1 in saves:
            saved.append(y + gamma.at(grid_times[i + 1]))
    return np.stack(saved)


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
def ns_snaps():
    u = make_initial_data("taylor_green", GRID, {"amplitude": 1.0})
    return [(record.t, f) for f, record in run(u, SolverConfig(GRID, 0.05, 0.02, 0.5))]


@pytest.fixture(scope="module")
def ns_drift(ns_snaps):
    return FieldDrift(ns_snaps)


class TestStability:
    def test_identical_inputs_zero_gap(self, ns_drift):
        pts = lattice_positions(4, 1.0)
        rep = stability_gap(ns_drift, zero_path(0.5, 0.05), ns_drift,
                            zero_path(0.5, 0.05), pts, 0.5, 1.0, 2.0)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.drift_gap == pytest.approx(0.0, abs=1e-12)

    def test_bound_holds_for_mollified_drift(self, ns_snaps):
        u = ns_snaps[-1][1]
        b1 = FieldDrift([(0.0, u)])
        b2 = FieldDrift([(0.0, mollify(u, 4))])
        pts = lattice_positions(6, 1.0)
        rep = stability_gap(b1, zero_path(0.5, 0.05), b2, zero_path(0.5, 0.05),
                            pts, 0.5, 1.0, 2.0)
        assert rep.lhs <= rep.rhs_opt * (1 + 1e-9)
        assert 0 < rep.lhs / rep.rhs_opt <= 1.0 + 1e-9

    def test_forcing_gap_enters(self, ns_snaps):
        b = FieldDrift(ns_snaps[:1])
        g1 = zero_path(0.5, 0.05)
        g2 = ForcingPath(g1.times, g1.values + [0.1, 0.0, 0.0])
        pts = lattice_positions(4, 1.0)
        rep = stability_gap(b, g1, b, g2, pts, 0.5, 1.0, 2.0)
        assert rep.forcing_gap == pytest.approx(0.1)
        assert rep.lhs > 0


class TestDriftProtocol:
    def test_frozen_integrals_match_explicit_quadrature(self, ns_snaps):
        # the protocol's integrals must equal the trapezoid rule over 17
        # explicit evaluations, bit for bit
        u = ns_snaps[-1][1]
        b1 = FieldDrift([(0.0, u)])
        b2 = FieldDrift([(0.0, mollify(u, 4))])
        T, p, vol = 0.5, 2.0, GRID.cell_volume
        ts = np.linspace(0.0, T, 17)
        gaps, grads, sups = [], [], []
        for t in ts:
            diff = b1.node_values(t) - b2.node_values(t)
            gaps.append(lp_norm(np.sqrt(np.sum(diff ** 2, axis=0)), p, vol))
            spec = to_spectral(RealVectorField(GRID, b1.node_values(t)))
            grads.append(lp_norm(gradient_norm(gradient(spec)), p, vol))
            sups.append(float(np.max(np.sqrt(np.sum(b1.node_values(t) ** 2, axis=0)))))
        assert b1.lp_difference_integral(b2, p, T) == float(np.trapezoid(gaps, ts))
        assert b1.gradient_lp_integral(p, T) == float(np.trapezoid(grads, ts))
        assert b1.sup_norm_integral(ts) == float(np.trapezoid(sups, ts))

    def test_frozen_integrals_evaluate_once(self, ns_snaps, ns_drift, monkeypatch):
        # a frozen drift's integrand is the same at every quadrature time
        frozen = FieldDrift(ns_snaps[-1:])
        calls = {"forward": 0, "inverse": 0, "node_values": 0}
        for owner, name in ((fft, "forward"), (fft, "inverse"), (frozen, "node_values")):
            inner = getattr(owner, name)

            def counted(*args, _name=name, _inner=inner, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        frozen.gradient_lp_integral(2.0, 0.5)
        # one derivatives stream: an inverse transform per derivative d_j u_i
        assert calls == {"forward": 1, "inverse": 9, "node_values": 1}
        frozen.sup_norm_integral(np.linspace(0.0, 1.0, 51))
        assert calls["node_values"] == 2
        frozen.lp_difference_integral(frozen, 2.0, 0.5)
        assert calls["node_values"] == 4
        frozen.lp_difference_integral(ns_drift, 2.0, 0.5)   # not frozen: 17 times
        assert calls["node_values"] == 4 + 17

    def test_frozen_flags(self, ns_snaps, ns_drift):
        assert FieldDrift(ns_snaps[:1]).frozen
        assert not ns_drift.frozen
        assert not CallableDrift(lambda t, p: p, GRID).frozen

    def test_one_snapshot_is_one_inverse_transform(self, ns_snaps, monkeypatch):
        calls = {"forward": 0, "inverse": 0}
        for name in calls:
            inner = getattr(fft, name)

            def counted(*args, _name=name, _inner=inner, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(fft, name, counted)
        FieldDrift(ns_snaps[-1:])
        assert calls == {"forward": 0, "inverse": 1}
        # node values are stored as given: a real snapshot needs no transform
        FieldDrift([(0.0, RealVectorField(GRID, np.zeros((3, 16, 16, 16))))])
        assert calls == {"forward": 0, "inverse": 1}

    def test_frozen_node_values_constant(self, ns_snaps):
        drift = FieldDrift(ns_snaps[-1:])
        nodes = drift.node_values(0.0)
        np.testing.assert_array_equal(nodes, to_real(ns_snaps[-1][1]).samples)
        for t in (-1.0, 0.137, 0.5, 7.0):
            assert drift.node_values(t) is nodes

    def test_snapshot_interpolation_linear_in_time(self, ns_snaps, ns_drift):
        (t0, f0), (t1, f1) = ns_snaps[:2]
        w = 0.25
        expect = (1.0 - w) * to_real(f0).samples + w * to_real(f1).samples
        np.testing.assert_array_equal(ns_drift.node_values(t0 + w * (t1 - t0)), expect)
        np.testing.assert_array_equal(ns_drift.node_values(-1.0), to_real(f0).samples)

    def test_rejects_bad_snapshots(self, ns_snaps):
        u = ns_snaps[0][1]
        with pytest.raises(ValueError, match="at least one"):
            FieldDrift([])
        with pytest.raises(ValueError, match="strictly increasing"):
            FieldDrift([(0.1, u), (0.1, u)])
        with pytest.raises(ValueError, match="strictly increasing"):
            FieldDrift([(0.2, u), (0.1, u)])
        with pytest.raises(ValueError, match="strictly increasing"):
            FieldDrift([(0.0, u), (math.nan, u)])
        # same n, different box: must not interpolate as if on one grid
        other = RealVectorField(Grid3(16, 2.0), to_real(u).samples)
        with pytest.raises(ValueError, match="different grids"):
            FieldDrift([(0.0, u), (0.1, other)])
        with pytest.raises(ValueError, match="different grids"):
            FieldDrift([(0.0, u), (0.1, make_initial_data("shear", Grid3(8, 1.0),
                                                         {"amplitude": 1.0}))])

    def test_velocity_is_direct_sampling(self, ns_snaps, ns_drift):
        # Drift.velocity is the trilinear kernel on node_values
        pts = np.random.default_rng(5).uniform(-0.5, 1.5, size=(40, 3))
        frozen = FieldDrift(ns_snaps[-1:])
        cases = [(frozen, 0.3), (ns_drift, 0.0), (ns_drift, 0.137), (ns_drift, 0.5)]
        for drift, t in cases:
            expect = sample_trilinear(drift.node_values(t), GRID, pts)
            np.testing.assert_array_equal(drift.velocity(t, pts), expect)

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


class TestSupGap:
    def test_matches_explicit_expression(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 9, 25, 3))
        expect = np.max(np.sqrt(np.sum((a - b) ** 2, axis=2)), axis=0)
        np.testing.assert_array_equal(sup_gap(a, b), expect)
        ea = ParticleEnsemble(a[0], np.linspace(0, 1, 9), a, 1.0)
        eb = ParticleEnsemble(b[0], np.linspace(0, 1, 9), b, 1.0)
        np.testing.assert_array_equal(ea.sup_gap(eb), expect)

    @pytest.mark.parametrize("shape", [(1, 1), (9, 25), (41, 512)])
    def test_bit_equal_to_the_formula_with_temporaries(self, shape):
        """One squared difference summed as (d0 + d1) + d2, with the sqrt after
        the max, gives the bits of the per-time sqrt of numpy's axis sum, on
        gaps of widely spread magnitudes and on zero gaps."""
        rng = np.random.default_rng(shape[1])
        a = rng.standard_normal(shape + (3,)) * 10.0 ** rng.integers(-9, 9, shape + (3,))
        b = rng.standard_normal(shape + (3,))
        for other in (b, a.copy(), a + 1e-300 * b):
            np.testing.assert_array_equal(
                sup_gap(a, other), np.max(np.sqrt(np.sum((a - other) ** 2, axis=2)), axis=0))
        assert not np.any(sup_gap(a, a.copy()))


class TestEndpointSaves:
    @pytest.mark.parametrize("scheme", ["rk4", "euler"])
    def test_endpoint_ensemble_ends_where_the_full_one_does(self, scheme):
        """save_every = the step count saves t = 0 and T only: the same bits
        of the first and last positions as every save gives, and the same
        compressibility constant."""
        T, dt = 0.5, 0.01
        drift = FieldDrift([(0.0, make_initial_data("taylor_green", GRID, {"amplitude": 1.0}))])
        gamma = sample_brownian(T, dt, 0.05, seed=3)
        lattice = lattice_positions(8, 1.0)
        full = integrate_flow(drift, gamma, lattice, T, scheme, dt, m=8)
        ends = integrate_flow(drift, gamma, lattice, T, scheme, dt,
                              save_every=time_grid(T, dt).size - 1, m=8)
        assert full.times.size > 2
        np.testing.assert_array_equal(ends.times, full.times[[0, -1]])
        assert np.array_equal(ends.trajectories.view(np.int64),
                              full.trajectories[[0, -1]].view(np.int64))
        c_full, c_ends = compressibility_constant(full), compressibility_constant(ends)
        assert np.float64(c_ends).view(np.int64) == np.float64(c_full).view(np.int64)

    def test_sequences_of_saves_give_the_array_gap(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 7, 30, 3))
        i = rng.integers(0, 30, 12)
        assert np.array_equal(sup_gap((x[i] for x in a), (x[i] for x in b)).view(np.int64),
                              sup_gap(a[:, i], b[:, i]).view(np.int64))
        with pytest.raises(ValueError):
            sup_gap(a, b[:-1])
        with pytest.raises(ValueError):
            sup_gap(a[:0], b[:0])


class TestFlowConvergence:
    def test_gaps_decrease_with_mollifier(self):
        u = make_initial_data("taylor_green", GRID, {"amplitude": 1.0})
        limit = FieldDrift([(0.0, u)])
        seq = [FieldDrift([(0.0, mollify(u, nm))]) for nm in (2, 4, 8)]
        pts = lattice_positions(6, 1.0)
        gammas = [zero_path(0.5, 0.05)] * 3
        gaps = flow_convergence_test(seq, gammas, limit, zero_path(0.5, 0.05),
                                     pts, 0.5, 2.0, dt=0.05)
        assert gaps[0] > gaps[1] > gaps[2]
