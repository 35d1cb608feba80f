import math

import numpy as np
import pytest

from lagflow import uniqueness
from lagflow.fields import Grid3
from lagflow.flow import CallableDrift, FieldDrift, lattice_positions, sup_gap
from lagflow.forcing import sample_brownian, time_grid, zero_path
from lagflow.picard import picard_iterate, picard_paths
from lagflow.solver import make_initial_data
from lagflow.uniqueness import (
    ae_uniqueness_probe,
    candidate_spread,
    forcing_digest,
    multi_scheme_solutions,
    negative_control_drift,
    refinement_sweep,
    sde_uniqueness_probe,
)

GRID = Grid3(16, 1.0)


@pytest.fixture(scope="module")
def smooth_drift():
    return FieldDrift([(0.0, make_initial_data("taylor_green", GRID,
                                               {"amplitude": 0.5}))])


class TestForcingDigest:
    def test_identity_and_sensitivity(self):
        a = sample_brownian(1.0, 0.05, 0.2, 1)
        b = sample_brownian(1.0, 0.05, 0.2, 1)
        c = sample_brownian(1.0, 0.05, 0.2, 2)
        assert forcing_digest(a) == forcing_digest(b)
        assert forcing_digest(a) != forcing_digest(c)


class TestMultiScheme:
    def test_zero_drift_all_agree(self):
        zero = FieldDrift([(0.0, make_initial_data("shear", GRID, {"amplitude": 0.0}))])
        gamma = sample_brownian(1.0, 0.01, 0.1, 5)
        sols = multi_scheme_solutions(zero, gamma, [[0.5, 0.5, 0.5]], 1.0, 0.02)
        assert len(sols["candidates"]) == 5
        assert not sols["failed"]
        spread = candidate_spread(sols)
        assert np.max(spread) < 1e-9

    def test_candidate_names(self, smooth_drift):
        sols = multi_scheme_solutions(smooth_drift, zero_path(0.5, 0.02),
                                      [[0.3, 0.3, 0.3]], 0.5, 0.02)
        assert set(sols["candidates"]) == {"rk4_dt", "rk4_2dt", "euler_dt",
                                           "picard", "picard_perturbed"}

    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_picard_candidates_match_picard_iterate(self, smooth_drift, time_dependent):
        # the candidates come from the shared iterator: picard_iterate's grid,
        # and the iterate each candidate reports stopping at
        b = smooth_drift
        if time_dependent:
            b = CallableDrift(lambda t, p: (1.0 + t) * smooth_drift.velocity(t, p), GRID)
        gamma = sample_brownian(0.5, 0.01, 0.1, 4)
        pts = lattice_positions(2, 1.0)
        T, dt, picard_n = 0.5, 0.02, 6
        sols = multi_scheme_solutions(b, gamma, pts, T, dt, picard_n)
        nt = 2 * (sols["times"].size - 1)      # the Picard grid halves the common step
        run = picard_iterate(b, gamma, pts, picard_n, T / nt)
        np.testing.assert_array_equal(run.times[::2], sols["times"])
        bump = 0.05 * np.sin(math.pi * run.times / T)
        pert = np.stack([bump, -bump, 0.5 * bump], axis=1)
        for name, p in (("picard", None), ("picard_perturbed", pert)):
            iterates = list(picard_paths(b, gamma, pts, run.times, picard_n, p))
            k = sols["picard_iterations"][name]
            np.testing.assert_array_equal(sols["candidates"][name], iterates[k][::2])

    @pytest.mark.parametrize("control", [False, True])
    def test_picard_candidates_stop_at_round_off(self, control):
        # a smooth frozen drift reaches round-off before picard_n; the
        # negative control's candidate never converges and runs to the cap
        b = (negative_control_drift(GRID) if control else
             FieldDrift([(0.0, make_initial_data("taylor_green", GRID, {"amplitude": 0.01}))]))
        gamma = zero_path(1.0, 0.02)
        pts = lattice_positions(3, 1.0)
        T, dt, picard_n = 1.0, 0.02, 10
        sols = multi_scheme_solutions(b, gamma, pts, T, dt, picard_n)
        times = time_grid(T, sols["times"][1] / 2.0)
        bump = 0.05 * np.sin(math.pi * times / T)
        pert = np.stack([bump, -bump, 0.5 * bump], axis=1)

        def round_off(z):
            return 8.0 * np.finfo(np.float64).eps * max(1.0, float(np.max(np.abs(z))))

        for name, p in (("picard", None), ("picard_perturbed", pert)):
            iterates = list(picard_paths(b, gamma, pts, times, picard_n, p))
            gaps = [float(np.max(sup_gap(z, prev))) for prev, z in zip(iterates, iterates[1:])]
            k = sols["picard_iterations"][name]
            np.testing.assert_array_equal(sols["candidates"][name], iterates[k][::2])
            assert sols["picard_residuals"][name] == gaps[k - 1]
            # no earlier iterate was at round-off
            assert all(g > round_off(z) for g, z in zip(gaps[:k - 1], iterates[1:k]))
            if control:
                assert k == picard_n and gaps[-1] > 0.1
            else:
                assert k < picard_n and gaps[k - 1] <= round_off(iterates[k])

    @pytest.mark.parametrize("T", [0.5, 1.0])
    @pytest.mark.parametrize("dt", [0.005, 0.01, 0.02, 0.025, 0.03, 0.05])
    def test_candidates_share_the_common_grid(self, T, dt, monkeypatch):
        # every candidate is saved, or subsampled, at the common grid's times
        ode_times, picard_times = [], []
        ode, paths = uniqueness.integrate_flow, uniqueness.picard_paths

        def recorded_ode(*args, **kwargs):
            ens = ode(*args, **kwargs)
            ode_times.append(ens.times)
            return ens

        def recorded_paths(b, gamma, pts, times, *args):
            picard_times.append(times)
            return paths(b, gamma, pts, times, *args)

        monkeypatch.setattr(uniqueness, "integrate_flow", recorded_ode)
        monkeypatch.setattr(uniqueness, "picard_paths", recorded_paths)
        drift = CallableDrift(lambda t, p: np.full_like(p, 0.1), GRID)
        sols = multi_scheme_solutions(drift, zero_path(T, dt), [[0.5, 0.5, 0.5]], T, dt, 2)
        np.testing.assert_array_equal(sols["times"], time_grid(T, 2.0 * dt))
        assert len(ode_times) == 3 and len(picard_times) == 2
        for times in ode_times + [t[::2] for t in picard_times]:
            np.testing.assert_array_equal(times, sols["times"])
        assert all(c.shape == (sols["times"].size, 1, 3)
                   for c in sols["candidates"].values())

    def test_blowup_candidates_flagged(self):
        def fn(t, pts):
            return np.full_like(pts, np.nan)

        bad = CallableDrift(fn, GRID)
        sols = multi_scheme_solutions(bad, zero_path(0.5, 0.05),
                                      [[0.5, 0.5, 0.5]], 0.5, 0.05)
        assert len(sols["failed"]) == 5
        with pytest.raises(ValueError):
            candidate_spread(sols)


class TestAeProbe:
    def test_smooth_drift_no_branching(self, smooth_drift):
        lat = lattice_positions(4, 1.0)
        res = ae_uniqueness_probe(smooth_drift, zero_path(1.0, 0.02), lat, 1.0, 0.02)
        assert res["branching_fraction"] == 0.0
        assert res["tol"] == pytest.approx(0.2)

    def test_refinement_non_increasing(self, smooth_drift):
        lat = lattice_positions(4, 1.0)
        sweep = refinement_sweep(smooth_drift, zero_path(1.0, 0.04), lat, 1.0,
                                 0.04, halvings=2)
        fr = [p["branching_fraction"] for p in sweep]
        assert len(fr) == 3
        assert all(b <= a + 1e-12 for a, b in zip(fr, fr[1:]))

    def test_brownian_forcing_no_branching(self, smooth_drift):
        lat = lattice_positions(3, 1.0)
        res = sde_uniqueness_probe(smooth_drift, lat, 1.0, 0.02, 0.05, [0, 1])
        assert res["mean_branching_fraction"] == 0.0
        assert all(p["forcing_digest"] for p in res["probes"])
        # distinct seeds must use distinct forcing realizations
        digests = {p["forcing_digest"] for p in res["probes"]}
        assert len(digests) == 2


class TestNegativeControl:
    def test_branching_persists_under_refinement(self):
        rough = negative_control_drift(GRID)
        lat = lattice_positions(4, 1.0)
        for dt in (0.04, 0.02, 0.01):
            res = ae_uniqueness_probe(rough, zero_path(1.0, dt), lat, 1.0, dt)
            assert res["branching_fraction"] > 0.05, f"dt={dt}"

    def test_drift_profile(self):
        rough = negative_control_drift(GRID, c=2.0)
        pts = np.array([[0.75, 0.1, 0.1], [0.25, 0.1, 0.1]])
        v = rough.velocity(0.0, pts)
        np.testing.assert_allclose(v[0], [-2.0 * 0.5, 2.0, 0.0])
        np.testing.assert_allclose(v[1], [2.0 * 0.5, -2.0, 0.0])
