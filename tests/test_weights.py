import numpy as np
import pytest

from lagflow.fields import Grid3, evaluate, gradient_norm, sample_trilinear
from lagflow.flow import FieldDrift, ParticleEnsemble, integrate_flow, lattice_positions
from lagflow.forcing import zero_path
from lagflow.solver import SolverConfig, make_initial_data, run
from lagflow import fft, weights
from lagflow.weights import (
    FlowWeight,
    WeightField,
    _ball_counts,
    _ball_offsets,
    _layer_cake_bracket,
    _local_lorentz_ratio,
    asymmetric_weight,
    dyadic_radii_cells,
    maximal_function,
    stein_maximal,
    survival_tail_slope,
    verify_asymmetric,
    weak_tail_check,
)
import oracles
from oracles import check_flow_lipschitz, flow_weight

GRID = Grid3(16, 1.0)


@pytest.fixture(scope="module")
def tg_field():
    return make_initial_data("taylor_green", GRID, {"amplitude": 1.0})


@pytest.fixture(scope="module")
def tg_eval(tg_field):
    return evaluate(tg_field)


class TestWeightTypes:
    def test_weight_field_validation(self):
        with pytest.raises(ValueError):
            WeightField(GRID, -np.ones((16, 16, 16)))
        with pytest.raises(ValueError):
            WeightField(GRID, np.ones((8, 8, 8)))

    def test_flow_weight_validation(self):
        with pytest.raises(ValueError):
            FlowWeight(np.array([-1.0]))


class TestMaximalFunction:
    def test_dyadic_radii(self):
        assert dyadic_radii_cells(16) == [1, 2, 4]
        assert dyadic_radii_cells(64) == [1, 2, 4, 8, 16]

    def test_dominates_pointwise(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((16, 16, 16))
        M = maximal_function(f, GRID)
        assert np.all(M >= np.abs(f) - 1e-12)

    def test_constant_is_fixed_point(self):
        M = maximal_function(3.0 * np.ones((16, 16, 16)), GRID)
        np.testing.assert_allclose(M, 3.0, atol=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((16, 16, 16))
        M1 = maximal_function(f, GRID)
        M2 = maximal_function(5.0 * f, GRID)
        np.testing.assert_allclose(M2, 5.0 * M1, rtol=1e-12)

    def test_spreads_point_mass(self):
        f = np.zeros((16, 16, 16))
        f[8, 8, 8] = 1.0
        M = maximal_function(f, GRID)
        # neighbor is covered by the radius-1 ball (7 nodes): average 1/7
        assert M[9, 8, 8] == pytest.approx(1.0 / 7.0, rel=1e-12)
        assert M[8, 8, 8] == pytest.approx(1.0)


class TestSteinMaximal:
    def test_dominates_gradient_magnitude(self, tg_field):
        mag = gradient_norm(tg_field)
        g, _ = stein_maximal(mag, GRID)
        assert np.all(g >= mag - 1e-12)

    def test_constant_gradient_magnitude(self):
        # |grad b| constant: every local ratio is bounded by that constant
        mag = 2.0 * np.ones((16, 16, 16))
        g, _ = stein_maximal(mag, GRID)
        np.testing.assert_allclose(g, 2.0, rtol=1e-10)


def _ratio_by_modular_gather(f, grid, radius_cells):
    """Reference for _local_lorentz_ratio: every ball gathered with
    per-axis modular indices into one (n^3, K) block, each row sorted
    ascending and reduced with the Abel weights in reverse."""
    n = grid.n
    offs = _ball_offsets(radius_cells)
    K = offs.shape[0]
    V = grid.cell_volume
    j = np.arange(1, K + 1, dtype=np.float64)
    w = (j * V) ** (1.0 / 3.0) - ((j - 1) * V) ** (1.0 / 3.0)
    c = np.indices((n, n, n)).reshape(3, -1)
    ix = np.mod(c[0][:, None] + offs[:, 0][None, :], n)
    iy = np.mod(c[1][:, None] + offs[:, 1][None, :], n)
    iz = np.mod(c[2][:, None] + offs[:, 2][None, :], n)
    vals = np.sort(np.abs(f).ravel()[(ix * n + iy) * n + iz], axis=1)
    ratio = np.einsum("sk,k->s", vals, w[::-1].copy()) / (K * V) ** (1.0 / 3.0)
    return ratio.reshape(n, n, n)


class TestLocalLorentzRatio:
    @pytest.mark.parametrize("n,radius", [(8, 0), (8, 1), (8, 3), (8, 5), (8, 9),
                                          (16, 2), (16, 4)])
    def test_padded_gather_is_modular_gather(self, n, radius):
        # radii beyond n/2 (and beyond n) wrap the box more than once
        grid = Grid3(n, 1.0)
        f = np.random.default_rng(n + radius).standard_normal((n, n, n))
        assert np.array_equal(_local_lorentz_ratio(f, grid, radius),
                              _ratio_by_modular_gather(f, grid, radius))

    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    def test_bits_independent_of_slab_width(self, radius, monkeypatch):
        # widths of 1, 3 and 7 rows; 3 and 7 leave a one-row tail of 16^3 nodes
        f = np.random.default_rng(radius).standard_normal((16, 16, 16))
        whole = _local_lorentz_ratio(f, GRID, radius)
        K = _ball_offsets(radius).shape[0]
        for budget in (1, 3 * K, 7 * K + 1):
            monkeypatch.setattr(weights, "_SLAB_ELEMS", budget)
            assert np.array_equal(_local_lorentz_ratio(f, GRID, radius), whole), budget

    def test_bits_of_the_small_slab_are_the_large_slab_bits(self, monkeypatch):
        # n = 32, r = 4: 2 slabs of 8 000 000 gathered values, 5 of 2 000 000
        grid = Grid3(32, 1.0)
        f = np.random.default_rng(32).standard_normal((32, 32, 32))
        ratios = []
        for budget in (8_000_000, 2_000_000):
            monkeypatch.setattr(weights, "_SLAB_ELEMS", budget)
            ratios.append(_local_lorentz_ratio(f, grid, 4))
        assert np.array_equal(ratios[0], ratios[1])


@pytest.fixture(scope="module")
def decayed_mags():
    """|grad b| of Taylor-Green and random_band states after 0.2 time units
    of the solver, at n = 16 and 32, keyed (kind, n)."""
    out = {}
    for kind, params in (("taylor_green", {"amplitude": 1.0}),
                         ("random_band", {"energy": 1.0, "k_band": 4})):
        for n in (16, 32):
            grid = Grid3(n, 1.0)
            for state, _ in run(make_initial_data(kind, grid, params, seed=5),
                                SolverConfig(grid, 0.05, 0.01, 0.2)):
                pass
            out[kind, n] = gradient_norm(state)
    return out


def ball_counts_by_gather(indicator, radius_cells):
    """Exact per-node ball counts: every offset gathered with modular indices."""
    total = np.zeros(indicator.shape)
    for ox, oy, oz in _ball_offsets(radius_cells):
        total += np.roll(indicator, (-ox, -oy, -oz), axis=(0, 1, 2))
    return total


class TestLayerCake:
    @pytest.mark.parametrize("kind", ["taylor_green", "random_band"])
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("radius", [4, 8])
    def test_brackets_exact_ratio_at_every_node(self, decayed_mags, kind, n, radius):
        mag = decayed_mags[kind, n]
        grid = Grid3(n, 1.0)
        exact = _local_lorentz_ratio(mag, grid, radius)
        lower, upper = _layer_cake_bracket(mag, grid, radius)
        slack = 1e-12 * np.max(exact)       # the two sums round in different orders
        assert np.all(lower <= exact + slack)
        assert np.all(exact <= upper + slack)

    @pytest.mark.parametrize("radius", [1, 4, 8, 9])
    def test_counts_are_exact_integers(self, decayed_mags, radius):
        # 9 cells wraps the n = 16 box: a node reached by two offsets counts twice
        mag = decayed_mags["random_band", 16]
        indicator = (mag > np.median(mag)).astype(np.float64)
        K = _ball_offsets(radius).shape[0]
        raw = K * fft.inverse(fft.forward(indicator) * weights._ball_kernel_hat(16, radius), 16)
        assert np.max(np.abs(raw - np.rint(raw))) < 0.5
        np.testing.assert_array_equal(_ball_counts(indicator, 16, radius),
                                      ball_counts_by_gather(indicator, radius))

    def test_count_off_an_integer_raises(self, monkeypatch):
        hat = weights._ball_kernel_hat
        monkeypatch.setattr(weights, "_ball_kernel_hat", lambda n, r: 1.4 * hat(n, r))
        indicator = np.random.default_rng(6).integers(0, 2, (16, 16, 16)).astype(np.float64)
        with pytest.raises(FloatingPointError):
            _ball_counts(indicator, 16, 2)

    def test_zero_and_constant_fields(self):
        grid = Grid3(32, 1.0)
        lower, upper = _layer_cake_bracket(np.zeros((32, 32, 32)), grid, 8)
        assert np.all(lower == 0.0) and np.all(upper == 0.0)
        lower, upper = _layer_cake_bracket(3.0 * np.ones((32, 32, 32)), grid, 8)
        assert np.all(lower == 0.0)
        np.testing.assert_allclose(upper, 3.0, rtol=1e-14)

    def test_stein_takes_upper_sum_beyond_exact_radius(self, decayed_mags):
        mag = decayed_mags["taylor_green", 32]
        grid = Grid3(32, 1.0)
        g, widths = stein_maximal(mag, grid)
        ratios = [_local_lorentz_ratio(mag, grid, r) for r in (1, 2, 4)]
        lower, upper = _layer_cake_bracket(mag, grid, 8)
        np.testing.assert_array_equal(g, np.maximum.reduce([mag, *ratios, upper]))
        assert list(widths) == [8]
        assert widths[8] == np.max((upper - lower) / lower)
        assert stein_maximal(mag[::2, ::2, ::2], Grid3(16, 1.0))[1] == {}


class TestAsymmetricWeight:
    def test_pointwise_violations_rare(self, tg_eval):
        h, c = asymmetric_weight(tg_eval, pair_count=20_000, seed=0)
        assert c > 0
        rep = verify_asymmetric(tg_eval, h, pair_count=50_000, seed=1)
        assert rep["violation_fraction"] < 1e-3

    def test_given_constant_respected(self, tg_eval):
        h1, c = asymmetric_weight(tg_eval, pair_count=5_000, seed=0)
        h2, c2 = asymmetric_weight(tg_eval, c_fit=2.0 * c, pair_count=5_000, seed=0)
        assert c2 == 2.0 * c
        np.testing.assert_allclose(h2.values, 2.0 * h1.values, rtol=1e-12)

    def test_zero_field(self):
        u = make_initial_data("shear", GRID, {"amplitude": 0.0})
        h, c = asymmetric_weight(evaluate(u), pair_count=100, seed=0)
        assert np.all(h.values == 0.0)

    def test_reads_cached_gradient_norm(self, tg_field):
        # |grad b| is the field's grad_norm, computed on first read and kept:
        # the whole-gradient formula's bits, and a planted one is what h reads
        ev = evaluate(tg_field)
        h, c = asymmetric_weight(ev, pair_count=1000, seed=0)
        assert "grad_norm" in vars(ev)
        want = oracles.gradient_norm(oracles.gradient(tg_field))
        np.testing.assert_array_equal(ev.grad_norm.view(np.int64), want.view(np.int64))
        planted = evaluate(tg_field)
        planted.grad_norm = 2.0 * want
        h2, _ = asymmetric_weight(planted, c_fit=c, pair_count=1000, seed=0)
        np.testing.assert_allclose(h2.values, 2.0 * h.values, rtol=1e-12)

    @pytest.mark.parametrize("pair_count", [0, -1])
    def test_pair_count_must_be_positive(self, tg_eval, pair_count):
        with pytest.raises(ValueError):
            asymmetric_weight(tg_eval, pair_count=pair_count, seed=0)
        with pytest.raises(ValueError):
            verify_asymmetric(tg_eval, WeightField(GRID, np.ones((16, 16, 16))),
                              pair_count=pair_count)


class TestFlowWeight:
    def test_constant_weight_integrates_to_hT(self):
        drift = FieldDrift([(0.0, make_initial_data("shear", GRID, {"amplitude": 1.0}))])
        ens = integrate_flow(drift, zero_path(1.0, 0.1), lattice_positions(4, 1.0),
                             1.0, "rk4", 0.1, m=4)
        h = WeightField(GRID, 2.0 * np.ones((16, 16, 16)))
        H = flow_weight(h, ens)
        np.testing.assert_allclose(H.values, 2.0, rtol=1e-12)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.fixture(scope="module")
def tg_ensemble():
    """An RK4 Taylor-Green ensemble on an 8^3 lattice with 26 saves, and a
    weight field small enough that some lattice pairs violate the bound."""
    drift = FieldDrift([(0.0, make_initial_data("taylor_green", GRID, {"amplitude": 1.0}))])
    ens = integrate_flow(drift, zero_path(0.5, 0.02), lattice_positions(8, 1.0), 0.5,
                         "rk4", 0.02, m=8)
    h = WeightField(GRID, 0.3 * np.random.default_rng(6).random((16, 16, 16)))
    return ens, h


class TestStreamedReductions:
    """flow_weight and check_flow_lipschitz read one save at a time; their
    bits are those of the whole-array reductions."""

    def test_flow_weight_is_trapezoid_of_stacked_samples(self, tg_ensemble):
        ens, h = tg_ensemble
        samples = np.stack([sample_trilinear(h.values, h.grid, x) for x in ens.trajectories])
        assert np.array_equal(bits(flow_weight(h, ens).values),
                              bits(np.trapezoid(samples, ens.times, axis=0)))

    def test_one_save_integrates_to_zero(self, tg_ensemble):
        ens, h = tg_ensemble
        one = ParticleEnsemble(ens.initial_positions, ens.times[:1], ens.trajectories[:1],
                               ens.box_len, ens.m)
        samples = sample_trilinear(h.values, h.grid, one.trajectories[0])[None]
        assert np.array_equal(bits(flow_weight(h, one).values),
                              bits(np.trapezoid(samples, one.times, axis=0)))

    def test_flow_lipschitz_is_the_gathered_pair_path(self, tg_ensemble, monkeypatch):
        ens, h = tg_ensemble
        H = flow_weight(h, ens)
        streamed = check_flow_lipschitz(ens, H, pair_count=300, seed=4)

        class Gathered:
            """The (S, pairs, 3) gathers traj[:, i] and traj[:, j], reduced
            whole: max over saves of (d0^2 + d1^2) + d2^2, then sqrt."""

            def __init__(self):
                self.a, self.b = [], []

            def add(self, x, y):
                self.a.append(x)
                self.b.append(y)

            def value(self):
                d = np.stack(self.a) - np.stack(self.b)
                np.multiply(d, d, out=d)
                s = d[..., 0] + d[..., 1]
                s += d[..., 2]
                return np.sqrt(np.max(s, axis=0))

        monkeypatch.setattr(weights, "SupGap", Gathered)
        whole = check_flow_lipschitz(ens, H, pair_count=300, seed=4)
        assert 0 < streamed["violations"] < streamed["pair_count"]
        assert streamed.keys() == whole.keys()
        for key, value in whole.items():
            assert type(streamed[key]) is type(value), key
            assert bits(streamed[key]) == bits(value), key


class TestFlowLipschitz:
    def test_zero_drift_no_violations(self):
        u = make_initial_data("shear", GRID, {"amplitude": 0.0})
        ens = integrate_flow(FieldDrift([(0.0, u)]), zero_path(1.0, 0.1),
                             lattice_positions(8, 1.0), 1.0, "rk4", 0.1, m=8)
        H = FlowWeight(np.zeros(ens.count))
        rep = check_flow_lipschitz(ens, H, pair_count=2_000, seed=0)
        assert rep["violations"] == 0
        assert rep["worst_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_needs_lattice(self):
        ens_pts = np.random.default_rng(0).uniform(0, 1, (10, 3))
        u = make_initial_data("shear", GRID, {"amplitude": 0.0})
        ens = integrate_flow(FieldDrift([(0.0, u)]), zero_path(0.1, 0.05), ens_pts,
                             0.1, "rk4", 0.05)
        with pytest.raises(ValueError):
            check_flow_lipschitz(ens, FlowWeight(np.zeros(10)))


class TestWeakTail:
    def test_indicator_quasinorm(self):
        v = np.zeros(1000)
        v[:27] = 2.0
        # sup at level just below 2: measure 27/1000 of the box
        expect = 2.0 * (27 / 1000) ** (1.0 / 3.0)
        rep = weak_tail_check(FlowWeight(v), budget=1.0, box_volume=1.0)
        assert rep["weak_l3"] == pytest.approx(expect, rel=1e-12)

    def test_zero(self):
        rep = weak_tail_check(FlowWeight(np.zeros(10)), budget=1.0, box_volume=1.0)
        assert rep["weak_l3"] == 0.0

    def test_tail_check_ratio(self):
        H = FlowWeight(np.ones(100))
        rep = weak_tail_check(H, budget=2.0, box_volume=1.0)
        assert rep["ratio"] == pytest.approx(rep["weak_l3"] / 2.0)

    def test_survival_slope_power_law(self):
        # P(V > a) = a^-3 for V = U^(-1/3): the fitted slope is -3
        rng = np.random.default_rng(4)
        v = rng.uniform(size=200_000) ** (-1.0 / 3.0)
        slope = survival_tail_slope(v)
        assert slope == pytest.approx(-3.0, abs=0.15)

    def test_survival_slope_needs_data(self):
        with pytest.raises(ValueError):
            survival_tail_slope(np.ones(10))
