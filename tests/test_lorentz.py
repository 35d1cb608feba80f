import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagflow.fields import (
    Grid3,
    RealVectorField,
    SpectralVectorField,
    evaluate,
    fourier_lebesgue_norm,
    to_spectral,
)
from lagflow.lorentz import (
    _descending,
    check_agmon,
    check_lorentz_interpolation,
    check_refined_inequality,
    interpolation_constant,
    lorentz_norm,
    lp_norm,
    p_intermediate,
    split_weak_lp,
)
from lagflow.solver import make_initial_data

GRID = Grid3(16, 1.0)
VOL = GRID.cell_volume


def indicator(count):
    v = np.zeros(GRID.n ** 3)
    v[:count] = 1.0
    return v


class TestLorentzNorm:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("count", [1, 10, 100])
    def test_indicator_q1(self, p, count):
        m = count * VOL
        assert lorentz_norm(indicator(count), p, 1.0, VOL) == pytest.approx(m ** (1 / p))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_indicator_weak(self, p):
        m = 50 * VOL
        assert lorentz_norm(indicator(50), p, math.inf, VOL) == pytest.approx(m ** (1 / p))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0])
    def test_diagonal_matches_lp(self, p):
        # layer-cake identity: ||f||_{p,p} = p^(-1/p) ||f||_{L^p}
        rng = np.random.default_rng(0)
        v = rng.exponential(size=GRID.n ** 3)
        expect = lp_norm(v, p, VOL) * p ** (-1.0 / p)
        assert lorentz_norm(v, p, p, VOL) == pytest.approx(expect, rel=1e-10)

    def test_zero_field(self):
        assert lorentz_norm(np.zeros(10), 3.0, 1.0, VOL) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lorentz_norm(indicator(5), -1.0, 1.0, VOL)
        with pytest.raises(ValueError):
            lorentz_norm(indicator(5), 2.0, 0.0, VOL)
        with pytest.raises(ValueError):
            lorentz_norm(indicator(5), math.inf, 1.0, VOL)
        with pytest.raises(TypeError):
            lorentz_norm(indicator(5), 2.0, 1.0)   # missing cell volume

    def test_distribution_measure(self):
        mags = _descending(-indicator(7))
        assert np.count_nonzero(mags > 0.5) * VOL == pytest.approx(7 * VOL)
        assert np.count_nonzero(mags > 1.0) == 0
        assert np.all(np.diff(mags) <= 0)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, scale):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(500)
        base = lorentz_norm(v, 3.0, 1.0, VOL)
        assert lorentz_norm(scale * v, 3.0, 1.0, VOL) == pytest.approx(
            scale * base, rel=1e-9)

    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_weak_below_strong(self, seed):
        # ||f||_{p,inf} <= ||f||_{p,q} for q <= p is the standard nesting
        rng = np.random.default_rng(seed)
        v = rng.exponential(size=200)
        assert lorentz_norm(v, 3.0, math.inf, VOL) <= lorentz_norm(v, 3.0, 1.0, VOL) * (1 + 1e-12)


class TestInterpolationConstant:
    def test_reference_value(self):
        assert interpolation_constant(2.0, 6.0, 0.5) == pytest.approx(54.0, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            interpolation_constant(6.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            interpolation_constant(2.0, 6.0, 0.0)
        with pytest.raises(ValueError):
            interpolation_constant(2.0, 6.0, 1.0)
        with pytest.raises(ValueError):
            interpolation_constant(2.0, math.inf, 0.5)

    def test_positivity_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p0 = rng.uniform(1.0, 5.0)
            p1 = p0 + rng.uniform(0.5, 5.0)
            theta = rng.uniform(0.05, 0.95)
            assert interpolation_constant(p0, p1, theta) > 0.0

    def test_p_intermediate(self):
        assert p_intermediate(2.0, 6.0, 0.5) == pytest.approx(3.0)


class TestInterpolationInequality:
    def test_random_fields(self):
        for seed in range(20):
            u = make_initial_data("random_band", GRID, {"energy": 1.0, "k_band": 5},
                                  seed=seed)
            mag = evaluate(u).speed
            rep = check_lorentz_interpolation(mag, VOL, 2.0, 6.0, 0.5)
            assert rep.ratio <= 1.0 + 1e-9, f"seed {seed}: ratio {rep.ratio}"

    def test_indicator_identity(self):
        # for an indicator both sides collapse; the ratio is exactly 1/C
        rep = check_lorentz_interpolation(indicator(37), VOL, 2.0, 6.0, 0.5)
        assert rep.ratio == pytest.approx(1.0 / 54.0, abs=1e-10)


class TestRefinedInequality:
    def test_amplitude_invariance(self):
        u = make_initial_data("shear", GRID, {"amplitude": 1.0})
        r1 = check_refined_inequality(evaluate(u)).ratio
        u2 = SpectralVectorField(GRID, 173.0 * u.coeffs)
        r2 = check_refined_inequality(evaluate(u2)).ratio
        assert r2 == pytest.approx(r1, abs=1e-10)

    def test_finite_on_random_fields(self):
        for seed in range(5):
            u = make_initial_data("random_band", GRID, {"energy": 2.0, "k_band": 5},
                                  seed=seed)
            rep = check_refined_inequality(evaluate(u))
            assert math.isfinite(rep.ratio) and rep.ratio > 0


class TestWeakLpSplit:
    def test_reconstruction_and_sup_bound(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(1000)
        small, large, rep = split_weak_lp(v, 3.0, 0.5, 2.0, VOL)
        np.testing.assert_allclose(small + large, v)
        assert rep["sup_small"] <= rep["threshold"] * (1 + 1e-12)

    def test_large_part_only_above_threshold(self):
        rng = np.random.default_rng(3)
        v = rng.exponential(size=1000)
        _, large, rep = split_weak_lp(v, 3.0, 0.25, 1.0, VOL)
        nz = large[large != 0]
        assert np.all(np.abs(nz) > rep["threshold"])

    def test_domain_errors(self):
        v = np.ones(10)
        with pytest.raises(ValueError):
            split_weak_lp(v, 2.0, 0.5, 3.0, VOL)   # q >= p
        with pytest.raises(ValueError):
            split_weak_lp(v, 3.0, 0.0, 2.0, VOL)


class TestAgmon:
    def test_domain(self):
        u = make_initial_data("shear", GRID, {"amplitude": 1.0})
        with pytest.raises(ValueError):
            check_agmon(u, 1.6, 2.0)
        with pytest.raises(ValueError):
            check_agmon(u, 1.0, 1.4)

    def test_single_mode(self):
        # one mode at |k| = 2 pi: FL1 = amp, H^s = 2^(-1/2) amp (2 pi)^s ...
        amp = 2.0
        u = make_initial_data("shear", GRID, {"amplitude": amp})
        rep = check_agmon(u, 1.0, 2.0)
        assert rep.lhs == pytest.approx(amp, rel=1e-12)
        denom = amp / math.sqrt(2) * (2 * math.pi) ** 1.5
        assert rep.rhs == pytest.approx(denom, rel=1e-10)

    def test_ratio_finite_random(self):
        for seed in range(5):
            u = make_initial_data("random_band", GRID, {"energy": 1.0, "k_band": 5},
                                  seed=seed)
            rep = check_agmon(u, 1.0, 2.0)
            assert math.isfinite(rep.ratio) and rep.ratio > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lhs_is_fl1_with_nyquist_content(self, seed):
        # every kz plane of the half layout is weighted as in the FL1 norm
        rng = np.random.default_rng(seed)
        u = to_spectral(RealVectorField(GRID, rng.standard_normal((3, 16, 16, 16))))
        assert check_agmon(u, 1.0, 2.0).lhs == fourier_lebesgue_norm(u)


class TestRatioRule:
    """0 / 0 -> 0 and x / 0 -> inf, for the interpolation, refined and Agmon
    checks alike."""

    def test_zero_field(self):
        u = evaluate(SpectralVectorField(GRID, np.zeros((3, 16, 16, 9), dtype=complex)))
        reps = [check_lorentz_interpolation(u.speed, VOL, 2.0, 6.0, 0.5),
                check_refined_inequality(u), check_agmon(u.spectral, 1.0, 2.0)]
        assert [(r.lhs, r.rhs, r.ratio) for r in reps] == [(0.0, 0.0, 0.0)] * 3

    def test_mean_only_field(self):
        # a constant field has no gradient: the Sobolev factors vanish
        coeffs = np.zeros((3, 16, 16, 9), dtype=complex)
        coeffs[:, 0, 0, 0] = [0.7, -0.2, 0.1]
        u = evaluate(SpectralVectorField(GRID, coeffs))
        for rep in (check_refined_inequality(u), check_agmon(u.spectral, 1.0, 2.0)):
            assert rep.lhs > 0 and rep.rhs == 0.0 and rep.ratio == math.inf
