import csv
import math
import weakref

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from lagflow import fft
from lagflow.fields import (
    Grid3,
    SpectralVectorField,
    gradient_norm,
    l2_norm,
    leray_project,
    to_real,
)
from lagflow.forcing import time_grid
from lagflow.io import write_diagnostics_csv
from lagflow.lorentz import lorentz_norm
from lagflow.solver import (
    DiagnosticsRecord,
    _accept,
    _nonlinear,
    _Operators,
    _State,
    _step,
    SolverConfig,
    check_energy_inequality,
    check_fgt_bound,
    check_gradient_lorentz_integral,
    make_initial_data,
    run,
)
from estimates import divergence_defect, spectral_upsample
from oracles import gradient

GRID = Grid3(16, 1.0)


def records(u, cfg):
    return [record for _, record in run(u, cfg)]


def first_step(u, cfg):
    """The state after run's first outer step."""
    states = run(u, cfg)
    next(states)
    return next(states)[0]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(GRID, -0.1, 0.01, 1.0)
        with pytest.raises(ValueError):
            SolverConfig(GRID, 0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            SolverConfig(GRID, 0.1, 0.01, -1.0)
        with pytest.raises(ValueError):
            SolverConfig(GRID, 0.1, 0.01, 1.0, n_moll=0.5)
        # non-finite values fail closed before any step: an infinite t_end
        # would overflow the time grid, an infinite nu warn and then fail,
        # and an infinite dt run one step
        for name in ("nu", "dt", "t_end"):
            for value in (math.inf, math.nan, -math.inf):
                args = dict(nu=0.1, dt=0.01, t_end=1.0)
                args[name] = value
                with pytest.raises(ValueError, match=name):
                    SolverConfig(GRID, **args)


class TestStep:
    def test_zero_is_fixed_point(self):
        u = make_initial_data("shear", GRID, {"amplitude": 0.0})
        cfg = SolverConfig(GRID, 0.05, 0.01, 1.0)
        out = first_step(u, cfg)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_shear_decays_exactly(self):
        # unidirectional shear: self-advection vanishes, pure heat flow
        amp, nu, dt = 1.0, 0.05, 0.02
        u = make_initial_data("shear", GRID, {"amplitude": amp})
        cfg = SolverConfig(GRID, nu, dt, 1.0)
        k = 2.0 * math.pi / GRID.box_len
        states = run(u, cfg)
        next(states)
        for i in range(1, 6):
            cur, _ = next(states)
            expect = l2_norm(u) * math.exp(-nu * k * k * dt * i)
            assert l2_norm(cur) == pytest.approx(expect, rel=1e-12)

    def test_output_divergence_free(self):
        u = make_initial_data("random_band", GRID, {"energy": 1.0, "k_band": 4}, seed=0)
        cfg = SolverConfig(GRID, 0.05, 0.01, 1.0)
        assert divergence_defect(first_step(u, cfg)) < 1e-10

    @pytest.mark.parametrize("n", [8, 16])
    def test_undealiased_step_is_projected(self, n):
        # without the 2/3 mask the Nyquist planes are live: the step's output
        # is still a fixed point of the projector, with zero nodal divergence
        grid = Grid3(n, 1.0)
        u = make_initial_data("random_band", grid, {"energy": 1.0, "k_band": n}, seed=2)
        assert np.max(np.abs(u.coeffs[:, n // 2])) > 1e-3
        out = first_step(u, SolverConfig(grid, 0.05, 0.01, 1.0, dealias=False))
        np.testing.assert_allclose(leray_project(out).coeffs, out.coeffs, rtol=0,
                                   atol=1e-14 * np.max(np.abs(out.coeffs)))
        G = gradient(out)
        assert np.max(np.abs(G[0, 0] + G[1, 1] + G[2, 2])) <= 1e-12 * np.max(np.abs(G))


def nonlinear_oracle(coeffs, ops):
    """-P[(rho_n * u) . grad u] from the whole gradient, with all three
    products formed and then forward-transformed in one batch: the term the
    solver built before it streamed the derivatives."""
    n = ops.grid.n
    velocity = fft.inverse(coeffs, n)
    v = velocity if ops.moll is None else fft.inverse(coeffs * ops.moll, n)
    w = np.empty_like(velocity)
    for wi, gi in zip(w, gradient(SpectralVectorField(ops.grid, coeffs))):
        np.multiply(v[0], gi[0], out=wi)
        wi += v[1] * gi[1]
        wi += v[2] * gi[2]
    what = fft.forward(w)
    if ops.mask is not None:
        what *= ops.mask
    what = leray_project(SpectralVectorField(ops.grid, what)).coeffs
    return np.negative(what, out=what)


def step_oracle(coeffs, ops, dt):
    """The IMEX RK2 step written with fresh temporaries and nonlinear_oracle."""
    E, _ = ops.factors(dt)
    k1 = nonlinear_oracle(coeffs, ops)
    pred = dt * k1
    pred += coeffs
    pred *= E
    k2 = nonlinear_oracle(pred, ops)
    k2 += E * k1
    k2 *= 0.5 * dt
    k2 += E * coeffs
    return k2


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestStreamedState:
    """A state's nonlinear term, |grad u| and CFL speed come from one stream
    of derivatives; each has the bits of the whole-gradient computation."""

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("n_moll", [math.inf, 3.0])
    @pytest.mark.parametrize("kind, params", [
        ("taylor_green", {"amplitude": 1.0}), ("shear", {"amplitude": 1.0}),
        ("random_band", {"energy": 1.0, "k_band": 6})])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_state_matches_whole_gradient(self, n, kind, params, n_moll, dealias):
        grid = Grid3(n, 1.0)
        cfg = SolverConfig(grid, 0.05, 0.01, 1.0, n_moll=n_moll, dealias=dealias)
        ops = _Operators(cfg)
        coeffs = make_initial_data(kind, grid, params, seed=n).coeffs
        s = _accept(coeffs, ops)
        np.testing.assert_array_equal(bits(s.nonlinear), bits(nonlinear_oracle(coeffs, ops)))
        np.testing.assert_array_equal(bits(_nonlinear(coeffs, ops)[0]), bits(s.nonlinear))
        G = gradient(SpectralVectorField(grid, coeffs))
        want_norm = np.sqrt(sum(np.sum(g ** 2, axis=0) for g in G))
        np.testing.assert_array_equal(bits(s.grad_norm), bits(want_norm))
        velocity = fft.inverse(coeffs, n)
        assert s.speed == float(np.sqrt(np.max(np.sum(velocity ** 2, axis=0))))
        nxt = _step(s, ops, cfg.dt)
        np.testing.assert_array_equal(bits(nxt.coeffs), bits(step_oracle(coeffs, ops, cfg.dt)))


class TestRun:
    def test_zero_data_zero_diagnostics(self):
        u = make_initial_data("shear", GRID, {"amplitude": 0.0})
        cfg = SolverConfig(GRID, 0.05, 0.05, 0.2)
        for d in records(u, cfg):
            assert d.energy == d.enstrophy == d.h2 == d.fl1 == 0.0

    def test_shear_enstrophy_energy_relation(self):
        u = make_initial_data("shear", GRID, {"amplitude": 1.0})
        cfg = SolverConfig(GRID, 0.05, 0.02, 0.3)
        k2 = (2.0 * math.pi / GRID.box_len) ** 2
        for d in records(u, cfg):
            assert d.enstrophy == pytest.approx(k2 * d.energy, rel=1e-10)

    def test_determinism(self):
        u = make_initial_data("random_band", GRID, {"energy": 1.0, "k_band": 4}, seed=3)
        cfg = SolverConfig(GRID, 0.05, 0.02, 0.2)
        d1 = records(u, cfg)
        d2 = records(u, cfg)
        assert [a.as_row() for a in d1] == [b.as_row() for b in d2]

    def test_snapshot_endpoints(self):
        u = make_initial_data("taylor_green", GRID, {"amplitude": 1.0})
        cfg = SolverConfig(GRID, 0.05, 0.02, 0.3)
        states = list(run(u, cfg))
        assert len(states) == 16
        assert states[0][0] is u and states[0][1].t == 0.0
        assert states[-1][1].t == pytest.approx(0.3)

    def test_records_on_the_time_grid(self):
        # 70 * (0.7 / 70) is 0.7000000000000001; the grid's last time is 0.7
        u = make_initial_data("taylor_green", GRID, {"amplitude": 1.0})
        ts = [d.t for d in records(u, SolverConfig(GRID, 0.05, 0.01, 0.7))]
        assert ts == time_grid(0.7, 0.01).tolist()
        assert ts[-1] == 0.7

    def test_grad_l31_reads_gradient_norm(self):
        # the diagnostics' |grad u| is fields.gradient_norm, bit for bit
        u = make_initial_data("random_band", GRID, {"energy": 1.0, "k_band": 4}, seed=3)
        *_, (u_T, last) = run(u, SolverConfig(GRID, 0.05, 0.02, 0.2))
        assert last.grad_l31 == lorentz_norm(gradient_norm(u_T), 3.0, 1.0, GRID.cell_volume)

    def test_holds_no_earlier_state(self):
        u = make_initial_data("taylor_green", GRID, {"amplitude": 1.0})
        states = run(u, SolverConfig(GRID, 0.05, 0.02, 0.1))
        next(states)
        field, _ = next(states)
        ref = weakref.ref(field.coeffs)
        del field
        next(states)
        assert ref() is None

    def test_cfl_guard_subdivides(self):
        # large amplitude forces speed * dt above the advective limit
        u = make_initial_data("taylor_green", GRID, {"amplitude": 20.0})
        cfg = SolverConfig(GRID, 0.5, 0.05, 0.05)
        assert all(math.isfinite(d.energy) for d in records(u, cfg))

    def test_refinement_oracle_taylor_green(self):
        # same trigonometric initial data on a finer grid at a quarter step
        nu, T = 0.05, 0.5
        u16 = make_initial_data("taylor_green", GRID, {"amplitude": 1.0})
        d16 = records(u16, SolverConfig(GRID, nu, 0.02, T))
        g32 = Grid3(32, 1.0)
        u32 = spectral_upsample(u16, 32)
        d32 = records(u32, SolverConfig(g32, nu, 0.005, T))
        assert d16[-1].energy == pytest.approx(d32[-1].energy, rel=5e-3)


@pytest.fixture(scope="module")
def tg_diags():
    u = make_initial_data("taylor_green", GRID, {"amplitude": 1.0})
    return records(u, SolverConfig(GRID, 0.05, 0.01, 1.0))


class TestAPrioriChecks:
    def test_energy_inequality(self, tg_diags):
        assert check_energy_inequality(tg_diags) <= 0.0

    def test_fgt_requires_long_horizon(self, tg_diags):
        with pytest.raises(ValueError):
            check_fgt_bound(tg_diags, tg_diags[0].energy, 0.5)

    def test_fgt_finite_ratio(self, tg_diags):
        assert 0 < check_fgt_bound(tg_diags, tg_diags[0].energy, 1.0) < 100

    def test_gradient_budget(self, tg_diags):
        ratio = check_gradient_lorentz_integral(tg_diags, tg_diags[0].energy, 1.0)
        assert math.isfinite(ratio) and ratio > 0

    def test_mollified_run_dissipates(self):
        u = make_initial_data("taylor_green", GRID, {"amplitude": 1.0})
        diags = records(u, SolverConfig(GRID, 0.05, 0.02, 0.5, n_moll=4))
        assert check_energy_inequality(diags) <= 0.0

    @pytest.mark.parametrize("energy1", [0.9, 1.2])
    def test_energy_inequality_two_records(self, energy1):
        # the margin reads the dissipation column, not the enstrophy
        tol = 1e-3
        energy = np.array([1.0, energy1])
        dissipation = np.array([0.0, 0.05])
        diags = [DiagnosticsRecord(ti, e, z, 0.0, 0.0, 0.0, d)
                 for ti, e, z, d in zip([0.0, 0.3], energy, [2.0, 1.7], dissipation)]
        a = energy + np.cumsum(dissipation)
        lhs = np.maximum.accumulate(a[::-1])[::-1]
        rhs = energy * (1.0 + tol) + np.cumsum(dissipation)
        margin = check_energy_inequality(diags, tol)
        assert margin == float(np.max(lhs - rhs))
        assert (margin <= 0.0) == (energy1 < 0.95)


class TestEnergyDissipation:
    def test_under_resolved_band_passes(self):
        # enstrophy of this band at n = 32 is under-resolved in time: Simpson's
        # rule on it overshoots the energy drop, the scheme's own dissipation
        # does not (the enstrophy-quadrature verdict failed with margin +0.091)
        g = Grid3(32, 1.0)
        u = make_initial_data("random_band", g, {"energy": 1.0, "k_band": 8}, seed=0)
        diags = records(u, SolverConfig(g, 0.05, 0.01, 0.1))
        assert check_energy_inequality(diags) <= 0.0
        assert all(d.dissipation > 0 for d in diags[1:])
        energy = np.array([d.energy for d in diags])
        diss = 2.0 * 0.05 * cumulative_simpson([d.enstrophy for d in diags],
                                               x=[d.t for d in diags], initial=0.0)
        a = energy + diss
        margin = np.max(np.maximum.accumulate(a[::-1])[::-1] - energy * (1.0 + 1e-3) - diss)
        assert margin / energy[0] > 0.05

    def test_shear_dissipation_closes_balance(self):
        # pure heat flow: the viscous factor removes exactly the energy lost
        u = make_initial_data("shear", GRID, {"amplitude": 1.0})
        diags = records(u, SolverConfig(GRID, 0.05, 0.02, 0.3))
        removed = np.cumsum([d.dissipation for d in diags])
        for d, r in zip(diags, removed):
            assert d.energy + r == pytest.approx(diags[0].energy, rel=1e-13)


class TestFailClosed:
    @pytest.mark.parametrize("index, value", [
        ((0, 0, 0, 0), complex(0.0, math.nan)),      # imaginary part of the mean
        ((1, 2, 3, 4), complex(math.inf, 0.0)),
        ((2, GRID.n - 3, GRID.n - 1, 2), complex(math.nan, 1.0)),
    ])
    def test_non_finite_coefficient_raises(self, index, value):
        u = make_initial_data("taylor_green", GRID, {"amplitude": 1.0})
        u.coeffs[index] = value
        cfg = SolverConfig(GRID, 0.05, 0.01, 0.05)
        with pytest.raises(FloatingPointError):
            list(run(u, cfg))

    def test_step_output_checked(self):
        # a state that was never accepted: the step's own output check fires
        u = make_initial_data("taylor_green", GRID, {"amplitude": 1.0})
        coeffs = u.coeffs.copy()
        coeffs[0, 1, 0, 0] = math.nan
        cfg = SolverConfig(GRID, 0.05, 0.01, 0.05)
        with pytest.raises(FloatingPointError):
            ops = _Operators(cfg)
            # unchecked: power is read by run only
            s = _State(coeffs, None, *_nonlinear(coeffs, ops, with_state=True))
            _step(s, ops, cfg.dt)


class TestInitialData:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_initial_data("vortex_ring", GRID)

    def test_unknown_param(self):
        with pytest.raises(ValueError):
            make_initial_data("shear", GRID, {"amp": 1.0})

    def test_random_band_energy_and_divergence(self):
        u = make_initial_data("random_band", GRID, {"energy": 2.5, "k_band": 4}, seed=1)
        assert l2_norm(u) ** 2 == pytest.approx(2.5, rel=1e-10)
        assert divergence_defect(u) < 1e-12

    def test_random_band_nyquist_energy(self, tmp_path):
        # k_band >= n/2 reaches the Nyquist planes: the configured energy is
        # the nodal energy, and the first diagnostics row reads it
        g = Grid3(16, 1.0)
        u = make_initial_data("random_band", g, {"energy": 1.0, "k_band": 12}, seed=0)
        f = to_real(u)
        nodal = g.volume * float(np.mean(np.sum(f.samples ** 2, axis=0)))
        assert l2_norm(u) ** 2 == pytest.approx(nodal, rel=1e-12)
        assert nodal == pytest.approx(1.0, rel=1e-12)
        diags = records(u, SolverConfig(g, 0.05, 0.01, 0.01))
        write_diagnostics_csv(tmp_path / "diagnostics.csv", diags)
        with open(tmp_path / "diagnostics.csv") as fh:
            row0 = next(csv.DictReader(fh))
        assert float(row0["energy"]) == pytest.approx(1.0, rel=1e-12)

    def test_random_band_reproducible(self):
        a = make_initial_data("random_band", GRID, {"energy": 1.0, "k_band": 4}, seed=9)
        b = make_initial_data("random_band", GRID, {"energy": 1.0, "k_band": 4}, seed=9)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_taylor_green_divergence_free(self):
        u = make_initial_data("taylor_green", GRID, {"amplitude": 1.5})
        assert divergence_defect(u) < 1e-10

    def test_diagnostics_record_fields(self):
        u = make_initial_data("shear", GRID, {"amplitude": 1.0})
        _, d = next(run(u, SolverConfig(GRID, 0.05, 0.01, 0.25)))
        assert DiagnosticsRecord.FIELDS == ("t", "energy", "enstrophy", "h2",
                                            "grad_l31", "fl1", "dissipation")
        assert d.as_row()[0] == 0.0
        assert all(v >= 0 for v in d.as_row())
