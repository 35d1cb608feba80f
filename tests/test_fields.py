import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagflow.fields import (
    _SAMPLE_ELEMS,
    Grid3,
    RealVectorField,
    SpectralVectorField,
    _spectral_table,
    derivatives,
    fourier_lebesgue_norm,
    gradient_norm,
    half_modes,
    l2_norm,
    leray_project,
    mollifier,
    periodic_delta,
    periodic_distance,
    sample_spectral,
    sample_trilinear,
    sobolev_norm,
    spectral_crop,
    to_real,
    to_spectral,
    wavevectors,
)
from lagflow.solver import SolverConfig, _Operators, make_initial_data, run
from estimates import divergence_defect, mollify, spectral_upsample
import oracles

GRID = Grid3(16, 1.0)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return RealVectorField(grid, rng.standard_normal((3, grid.n, grid.n, grid.n)))


def nodal_energy(f):
    """V * mean |f|^2 over the nodes."""
    return f.grid.volume * float(np.mean(np.sum(f.samples ** 2, axis=0)))


def dealias_box(n):
    """Half-layout modes inside the 2/3 box (no Nyquist entry)."""
    mx, my, mz = half_modes(n)
    cut = n / 3.0
    return (np.abs(mx) <= cut) & (np.abs(my) <= cut) & (np.abs(mz) <= cut)


def streamed_gradient(F):
    """The derivatives(F) stream stacked as a (3, 3, n, n, n) array, checking
    that it comes in (i, j) order."""
    n = F.grid.n
    G = np.empty((3, 3, n, n, n))
    order = []
    for i, j, g in derivatives(F):
        order.append((i, j))
        G[i, j] = g
    assert order == [(i, j) for i in range(3) for j in range(3)]
    return G


def single_mode(grid, amp=1.0):
    """u = (0, amp*sin(2 pi x / L), 0): one Fourier mode, divergence-free."""
    x, _, _ = grid.meshgrid()
    c = 2.0 * math.pi / grid.box_len
    u = np.stack([np.zeros_like(x), amp * np.sin(c * x), np.zeros_like(x)])
    return RealVectorField(grid, u)


class TestGrid:
    def test_basic_geometry(self):
        g = Grid3(16, 2.0)
        assert g.spacing == pytest.approx(0.125)
        assert g.cell_volume == pytest.approx(0.125 ** 3)
        assert g.volume == pytest.approx(8.0)
        assert g.axes().shape == (16,)
        assert g.axes()[-1] == pytest.approx(2.0 - 0.125)

    @pytest.mark.parametrize("n", [0, 7, 12, 4])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ValueError):
            Grid3(n, 1.0)

    def test_bad_box_rejected(self):
        with pytest.raises(ValueError):
            Grid3(16, 0.0)


class TestTransforms:
    def test_round_trip(self):
        f = random_field(GRID)
        back = to_real(to_spectral(f))
        np.testing.assert_allclose(back.samples, f.samples, atol=1e-12)

    def test_constant_field_single_coefficient(self):
        f = RealVectorField(GRID, np.ones((3, 16, 16, 16)))
        F = to_spectral(f)
        assert F.coeffs[0, 0, 0, 0] == pytest.approx(1.0)
        assert np.sum(np.abs(F.coeffs)) == pytest.approx(3.0, abs=1e-12)

    def test_parseval(self):
        f = random_field(GRID, seed=3)
        assert l2_norm(to_spectral(f)) ** 2 == pytest.approx(nodal_energy(f), rel=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RealVectorField(GRID, np.zeros((3, 8, 8, 8)))
        with pytest.raises(ValueError):
            SpectralVectorField(GRID, np.zeros((2, 16, 16, 9)))

    def test_full_layout_rejected(self):
        # a (3, n, n, n) array is the stale full layout: fail closed, naming
        # the half shape
        with pytest.raises(ValueError, match=r"\(3, 16, 16, 9\).*half spectrum"):
            SpectralVectorField(GRID, np.zeros((3, 16, 16, 16), dtype=complex))

    def test_nonfinite_rejected(self):
        bad = np.zeros((3, 16, 16, 16))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            RealVectorField(GRID, bad)


class TestLerayProjection:
    def test_output_divergence_free(self):
        F = to_spectral(random_field(GRID, seed=1))
        P = leray_project(F)
        assert divergence_defect(P) < 1e-12

    def test_idempotent(self):
        F = to_spectral(random_field(GRID, seed=2))
        P1 = leray_project(F)
        P2 = leray_project(P1)
        np.testing.assert_allclose(P2.coeffs, P1.coeffs, atol=1e-13)

    def test_fixes_solenoidal_fields(self):
        F = to_spectral(single_mode(GRID))
        P = leray_project(F)
        np.testing.assert_allclose(P.coeffs, F.coeffs, atol=1e-13)

    @pytest.mark.parametrize("n", [8, 16])
    def test_projector_on_nyquist_modes(self, n):
        # P = I - k0 k0^T / |k0|^2 is idempotent and its output has zero
        # nodal divergence in the derivative gradient uses, Nyquist planes
        # included
        grid = Grid3(n, 1.3)
        for seed in (0, 1):
            F = to_spectral(random_field(grid, seed=seed))
            assert np.max(np.abs(F.coeffs[:, n // 2])) > 1e-3
            P = leray_project(F)
            np.testing.assert_allclose(leray_project(P).coeffs, P.coeffs, rtol=0,
                                       atol=1e-14 * np.max(np.abs(P.coeffs)))
            G = streamed_gradient(P)
            div = G[0, 0] + G[1, 1] + G[2, 2]
            assert np.max(np.abs(div)) <= 1e-12 * np.max(np.abs(G))
            assert divergence_defect(P) <= 1e-12 * math.pi * n / grid.box_len

    def test_kills_gradients(self):
        # grad phi with phi = sin(2 pi x / L) is pure-gradient: projects to 0
        x, _, _ = GRID.meshgrid()
        c = 2.0 * math.pi
        g = np.stack([c * np.cos(c * x), np.zeros_like(x), np.zeros_like(x)])
        P = leray_project(to_spectral(RealVectorField(GRID, g)))
        assert np.max(np.abs(P.coeffs)) < 1e-12


class TestMollify:
    def test_infinite_index_is_identity(self):
        F = to_spectral(random_field(GRID, seed=4))
        M = mollify(F, math.inf)
        np.testing.assert_allclose(M.coeffs, F.coeffs)

    def test_damps_high_modes_monotonically(self):
        F = to_spectral(random_field(GRID, seed=5))
        norms = [sobolev_norm(mollify(F, nm), 2.0) for nm in (2, 4, 8)]
        assert norms[0] < norms[1] < norms[2] <= sobolev_norm(F, 2.0) + 1e-12

    def test_preserves_mean(self):
        F = to_spectral(random_field(GRID, seed=6))
        M = mollify(F, 3)
        np.testing.assert_allclose(M.coeffs[:, 0, 0, 0], F.coeffs[:, 0, 0, 0])

    def test_bad_index_rejected(self):
        F = to_spectral(random_field(GRID))
        with pytest.raises(ValueError):
            mollify(F, 0.5)
        with pytest.raises(ValueError):
            mollifier(GRID, math.nan)

    @pytest.mark.parametrize("n_moll", [1, 3, 4, 8.5])
    def test_one_multiplier_for_solver_and_mollify(self, n_moll):
        """The solver's rho_n and mollify's multiplier are one array, with
        the bits of exp(-|k|^2 / (2 n_moll^2)) as each built it inline."""
        F = to_spectral(random_field(GRID, seed=7))
        want = np.exp(-wavevectors(GRID).k_sq / (2.0 * n_moll ** 2))
        ops = _Operators(SolverConfig(GRID, 0.05, 0.01, 1.0, n_moll=n_moll))
        assert np.array_equal(ops.moll.view(np.int64), want.view(np.int64))
        assert np.array_equal(mollify(F, n_moll).coeffs.view(np.int64),
                              (F.coeffs * want).view(np.int64))
        assert mollifier(GRID, math.inf) is None
        assert _Operators(SolverConfig(GRID, 0.05, 0.01, 1.0)).moll is None


class TestGradientAndNorms:
    @pytest.mark.parametrize("kind, params", [
        ("taylor_green", {"amplitude": 1.0}), ("shear", {"amplitude": 1.0}),
        ("random_band", {"energy": 1.0, "k_band": 6})])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_stream_matches_whole_gradient(self, n, kind, params):
        # each streamed derivative, and |grad u| read from the stream, has
        # the bits of the whole-gradient oracle (one batched inverse per
        # component); random_band's band reaches the Nyquist planes at n = 8
        grid = Grid3(n, 1.3)
        F = make_initial_data(kind, grid, params, seed=n)
        want = oracles.gradient(F)
        np.testing.assert_array_equal(streamed_gradient(F).view(np.int64),
                                      want.view(np.int64))
        np.testing.assert_array_equal(gradient_norm(F).view(np.int64),
                                      oracles.gradient_norm(want).view(np.int64))

    def test_gradient_norm_hands_each_derivative_on(self):
        # each(i, j, g) sees the stream in order, after its square is taken:
        # overwriting g does not change |grad u|
        F = to_spectral(random_field(GRID, seed=3))
        seen = []

        def each(i, j, g):
            seen.append((i, j, g.copy()))
            g[...] = np.nan

        got = gradient_norm(F, each)
        np.testing.assert_array_equal(got, gradient_norm(F))
        want = oracles.gradient(F)
        assert [(i, j) for i, j, _ in seen] == [(i, j) for i in range(3) for j in range(3)]
        for i, j, g in seen:
            np.testing.assert_array_equal(g, want[i, j])

    def test_single_mode_gradient(self):
        amp = 1.7
        F = to_spectral(single_mode(GRID, amp))
        G = streamed_gradient(F)
        x, _, _ = GRID.meshgrid()
        c = 2.0 * math.pi
        # d u2 / d x = amp * c * cos(c x); every other entry zero
        np.testing.assert_allclose(G[1, 0], amp * c * np.cos(c * x), atol=1e-10)
        others = np.delete(G.reshape(9, -1), 3, axis=0)
        assert np.max(np.abs(others)) < 1e-10

    def test_h1_matches_gradient_l2(self):
        # band-limit: the unpaired Nyquist mode breaks the discrete identity
        F = to_spectral(random_field(GRID, seed=7))
        F = SpectralVectorField(GRID, F.coeffs * dealias_box(GRID.n))
        grad_sq = float(np.mean(np.sum(streamed_gradient(F) ** 2, axis=(0, 1))))
        assert sobolev_norm(F, 1.0) ** 2 == pytest.approx(GRID.volume * grad_sq, rel=1e-10)

    def test_single_mode_norms(self):
        # ||a sin(c x)||_L2^2 = a^2 V / 2; |k| = c on both live modes
        amp, c = 2.0, 2.0 * math.pi
        F = to_spectral(single_mode(GRID, amp))
        assert l2_norm(F) ** 2 == pytest.approx(amp ** 2 / 2.0, rel=1e-12)
        assert sobolev_norm(F, 1.0) == pytest.approx(c * l2_norm(F), rel=1e-12)
        assert sobolev_norm(F, 2.0) == pytest.approx(c ** 2 * l2_norm(F), rel=1e-12)
        assert fourier_lebesgue_norm(F) == pytest.approx(amp, rel=1e-12)

    def test_fl1_dominates_sup(self):
        for seed in range(5):
            f = random_field(GRID, seed=seed)
            F = to_spectral(f)
            sup = float(np.max(np.sqrt(np.sum(f.samples ** 2, axis=0))))
            assert fourier_lebesgue_norm(F) >= sup - 1e-10

    def test_sobolev_domain(self):
        F = to_spectral(random_field(GRID))
        with pytest.raises(ValueError):
            sobolev_norm(F, 5.0)

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_norm_homogeneity(self, scale):
        F = to_spectral(random_field(GRID, seed=11))
        S = SpectralVectorField(GRID, scale * F.coeffs)
        assert l2_norm(S) == pytest.approx(scale * l2_norm(F), rel=1e-10)
        assert sobolev_norm(S, 1.5) == pytest.approx(scale * sobolev_norm(F, 1.5), rel=1e-10)


class TestUpsample:
    PTS = np.random.default_rng(0).uniform(0, 1.0, size=(50, 3))

    def test_same_function_on_finer_grid(self):
        F = to_spectral(random_field(Grid3(8, 1.0), seed=8))
        assert np.max(np.abs(F.coeffs[..., 4])) > 1e-3          # Nyquist content
        want = sample_spectral(F, self.PTS)
        for n_new in (16, 32):
            U = spectral_upsample(F, n_new)
            np.testing.assert_allclose(sample_spectral(U, self.PTS), want, rtol=0,
                                       atol=1e-13 * np.max(np.abs(want)))
            # U is a real field's spectrum: its norm is its nodal energy
            assert l2_norm(U) ** 2 == pytest.approx(nodal_energy(to_real(U)), rel=1e-12)
        # the Nyquist coefficients are split between -n/2 and +n/2, so the
        # norm drops by half of F's Nyquist energy
        assert l2_norm(U) < l2_norm(F) * (1 - 1e-3)

    def test_norm_kept_without_nyquist_content(self):
        F = to_spectral(random_field(Grid3(8, 1.0), seed=8))
        F = SpectralVectorField(F.grid, F.coeffs * dealias_box(8))
        U = spectral_upsample(F, 16)
        assert l2_norm(U) == pytest.approx(l2_norm(F), rel=1e-12)
        np.testing.assert_allclose(sample_spectral(U, self.PTS), sample_spectral(F, self.PTS),
                                   atol=1e-13)

    def test_downsample_rejected(self):
        F = to_spectral(random_field(GRID))
        with pytest.raises(ValueError):
            spectral_upsample(F, 8)


class TestSampling:
    def test_spectral_exact_at_nodes(self):
        f = random_field(GRID, seed=9)
        F = to_spectral(f)
        idx = np.array([[0, 0, 0], [3, 7, 11], [15, 15, 15]])
        pts = idx * GRID.spacing
        expect = f.samples[:, idx[:, 0], idx[:, 1], idx[:, 2]].T
        np.testing.assert_allclose(sample_spectral(F, pts), expect, atol=1e-10)

    def test_spectral_exact_off_nodes_single_mode(self):
        amp = 1.3
        F = to_spectral(single_mode(GRID, amp))
        pts = np.random.default_rng(1).uniform(0, 1.0, size=(40, 3))
        vals = sample_spectral(F, pts)
        expect = amp * np.sin(2.0 * math.pi * pts[:, 0])
        np.testing.assert_allclose(vals[:, 1], expect, atol=1e-10)
        np.testing.assert_allclose(vals[:, [0, 2]], 0.0, atol=1e-10)

    def test_trilinear_exact_at_nodes(self):
        f = random_field(GRID, seed=10)
        idx = np.array([[1, 2, 3], [0, 15, 8]])
        pts = idx * GRID.spacing
        expect = f.samples[:, idx[:, 0], idx[:, 1], idx[:, 2]].T
        np.testing.assert_allclose(sample_trilinear(f.samples, GRID, pts), expect, atol=1e-12)

    def test_trilinear_midpoint_average(self):
        f = random_field(GRID, seed=12)
        p = np.array([[0.5 * GRID.spacing, 0.0, 0.0]])
        expect = 0.5 * (f.samples[:, 0, 0, 0] + f.samples[:, 1, 0, 0])
        np.testing.assert_allclose(sample_trilinear(f.samples, GRID, p)[0], expect,
                                   atol=1e-12)



def trilinear_reference(values, grid, points):
    """The 8-corner sum written out: strided gathers, weights (wx*wy)*wz."""
    u = values if values.ndim == 4 else values[None]
    pts = np.atleast_2d(points)
    s = pts / grid.spacing
    i0 = np.floor(s).astype(np.int64)
    w = s - i0
    i0 = np.mod(i0, grid.n)
    i1 = np.mod(i0 + 1, grid.n)
    out = np.zeros((pts.shape[0], u.shape[0]))
    for dx, ix in ((0, i0[:, 0]), (1, i1[:, 0])):
        wx = (1.0 - w[:, 0]) if dx == 0 else w[:, 0]
        for dy, iy in ((0, i0[:, 1]), (1, i1[:, 1])):
            wy = (1.0 - w[:, 1]) if dy == 0 else w[:, 1]
            for dz, iz in ((0, i0[:, 2]), (1, i1[:, 2])):
                wz = (1.0 - w[:, 2]) if dz == 0 else w[:, 2]
                out += (wx * wy * wz)[:, None] * u[:, ix, iy, iz].T
    return out if values.ndim == 4 else out[:, 0]


class TestTrilinearKernel:
    @staticmethod
    def points():
        rng = np.random.default_rng(21)
        inside = rng.uniform(0.0, 1.0, size=(50, 3))
        on_nodes = rng.integers(0, GRID.n, size=(10, 3)) * GRID.spacing
        negative = rng.uniform(-2.5, 0.0, size=(20, 3))
        beyond = rng.uniform(1.0, 3.5, size=(20, 3))
        return np.concatenate([inside, on_nodes, negative, beyond])

    def test_vector_bit_equal_to_reference(self):
        f = random_field(GRID, seed=20)
        pts = self.points()
        got = sample_trilinear(f.samples, GRID, pts)
        assert got.shape == (pts.shape[0], 3)
        np.testing.assert_array_equal(got, trilinear_reference(f.samples, GRID, pts))

    def test_scalar_bit_equal_to_reference(self):
        values = random_field(GRID, seed=22).samples[1]
        pts = self.points()
        got = sample_trilinear(values, GRID, pts)
        assert got.shape == (pts.shape[0],)
        np.testing.assert_array_equal(got, trilinear_reference(values, GRID, pts))

    @pytest.mark.parametrize("count", [1, 512, 100_003])
    @pytest.mark.parametrize("scalar", [False, True])
    def test_kernel_wraps_points_anywhere(self, count, scalar):
        # unwrapped points, the edge cases first: -0.0, just below L, +-7L
        L = GRID.box_len
        below = np.nextafter(L, 0.0)
        edges = np.array([[-0.0, below, 7.0 * L], [-7.0 * L, -0.0, below],
                          [np.nextafter(-7.0 * L, 0.0), 7.0 * L + 1e-3, -0.0]])
        rng = np.random.default_rng(count)
        pts = np.concatenate([edges, rng.uniform(-7.0 * L, 7.0 * L, (count, 3))])[:count]
        f = random_field(GRID, seed=26)
        values = f.samples[2] if scalar else f.samples
        np.testing.assert_array_equal(sample_trilinear(values, GRID, pts),
                                      trilinear_reference(values, GRID, pts))

    def test_real_samples_are_a_flat_table(self):
        # to_real's samples are read by the kernel as a (3, n^3) view, not a copy
        samples = to_real(to_spectral(random_field(GRID, seed=25))).samples
        assert samples.flags.c_contiguous
        assert np.shares_memory(samples.reshape(-1, GRID.n ** 3), samples)

    def test_single_point(self):
        f = random_field(GRID, seed=24)
        p = np.array([0.3, 0.7, 0.1])
        assert sample_trilinear(f.samples, GRID, p).shape == (1, 3)
        assert sample_trilinear(f.samples[0], GRID, p).shape == (1,)


def spectral_reference(F, points, chunk=2048):
    """The exact sum over the raw (unflushed) table: per chunk of points,
    one np.tensordot over the x axis, then the same two einsums."""
    pts = np.atleast_2d(points)
    n, N = F.grid.n, F.grid.n // 2
    k = wavevectors(F.grid).k
    kxy = np.append(k[0], -k[0].flat[N])
    table = _spectral_table(F)
    out = np.empty((pts.shape[0], 3))
    for lo in range(0, pts.shape[0], chunk):
        c = pts[lo:lo + chunk]
        ex, ey = (np.exp(1j * np.outer(c[:, i], kxy)) for i in range(2))
        ez = np.exp(1j * np.outer(c[:, 2], k[2]))
        a = np.tensordot(ex, table, axes=([1], [0]))
        b = np.einsum("pcjk,pj->pck", a, ey)
        out[lo:lo + chunk] = np.real(np.einsum("pck,pk->pc", b, ez))
    return out


def subnormal_tail_coeffs(grid, seed):
    """Random half-layout coefficients whose modes outside the 2/3 dealias
    box hold 5e-324, 1e-310 and 1e-300 (in turn) in both parts, as a
    dissipated solution's do."""
    rng = np.random.default_rng(seed)
    shape = (3, grid.n, grid.n, grid.n // 2 + 1)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tail = ~dealias_box(grid.n)
    tiny = np.resize([5e-324, 1e-310, 1e-300], (3, int(tail.sum())))
    c[:, tail] = tiny * (1.0 - 1.0j)
    return c


class TestSpectralKernel:
    ROWS = max(16, _SAMPLE_ELEMS // (3 * (GRID.n + 1) * (GRID.n // 2 + 1)))

    @staticmethod
    def field(seed=30):
        return SpectralVectorField(GRID, subnormal_tail_coeffs(GRID, seed))

    def test_subnormal_tail_bit_equal_to_reference(self):
        F = self.field()
        assert np.count_nonzero(np.abs(F.coeffs.real) < np.finfo(float).tiny) > 0
        pts = np.random.default_rng(31).uniform(-1.0, 2.5, size=(300, 3))
        np.testing.assert_array_equal(sample_spectral(F, pts), spectral_reference(F, pts))

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_chunk_edges_bit_equal(self, extra):
        # rows + 1 leaves a chunk of one point; a single (3,) point is one too
        F = self.field()
        pts = np.random.default_rng(32).uniform(0.0, 1.0, size=(self.ROWS + extra, 3))
        got = sample_spectral(F, pts)
        assert got.shape == (pts.shape[0], 3)
        np.testing.assert_array_equal(got, spectral_reference(F, pts))
        for i in (0, 1, self.ROWS - 2, pts.shape[0] - 1):
            np.testing.assert_array_equal(sample_spectral(F, pts[i]), got[i:i + 1])

    @pytest.mark.parametrize("transposed", [False, True])
    def test_coeffs_unchanged(self, transposed):
        c = subnormal_tail_coeffs(GRID, 34)
        if transposed:
            # stored so that coeffs.transpose(1, 0, 2, 3) is C-contiguous
            c = np.ascontiguousarray(c.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        F = SpectralVectorField(GRID, c)
        assert F.coeffs.transpose(1, 0, 2, 3).flags.c_contiguous == transposed
        before = F.coeffs.tobytes()
        sample_spectral(F, np.random.default_rng(35).uniform(0.0, 1.0, size=(40, 3)))
        assert F.coeffs.tobytes() == before

    @pytest.mark.parametrize("shape", [(5, 4), (5, 2), (3, 1), (4,), (2, 3, 3), ()])
    def test_bad_point_shape_rejected(self, shape):
        F = to_spectral(random_field(GRID, seed=36))
        pts = np.full(shape, 0.25)
        with pytest.raises(ValueError):
            sample_spectral(F, pts)
        with pytest.raises(ValueError):
            sample_trilinear(to_real(F).samples, GRID, pts)

    def test_empty_points(self):
        F = to_spectral(random_field(GRID, seed=37))
        assert sample_spectral(F, np.empty((0, 3))).shape == (0, 3)
        assert sample_trilinear(to_real(F).samples, GRID, np.empty((0, 3))).shape == (0, 3)


@pytest.fixture(scope="module")
def decayed_states():
    """Taylor-Green, shear and random_band states at t = 1 at n = 16 and 32,
    keyed (kind, n), as the default pipeline's final state: their spectra
    decay inside the dealiased cube."""
    out = {}
    for kind, params in (("taylor_green", {"amplitude": 1.0}), ("shear", {"amplitude": 1.0}),
                         ("random_band", {"energy": 1.0, "k_band": 4})):
        for n in (16, 32):
            grid = Grid3(n, 1.0)
            for state, _ in run(make_initial_data(kind, grid, params, seed=7),
                                SolverConfig(grid, 0.05, 0.01, 1.0)):
                pass
            out[kind, n] = state
    return out


class TestSpectralCrop:
    TOL = 1e-14
    # round-off allowance of the cropped and the full sum against each
    # other: 64 float64 units of the largest possible sum, the FL1 norm
    ROUND_OFF = 64 * np.finfo(np.float64).eps

    @pytest.mark.parametrize("kind", ["taylor_green", "shear", "random_band"])
    @pytest.mark.parametrize("n", [16, 32])
    def test_gap_within_tail_bound(self, decayed_states, kind, n):
        F = decayed_states[kind, n]
        K, tail = spectral_crop(F, self.TOL)
        assert 0 <= K <= n // 2 and 0.0 <= tail <= self.TOL * fourier_lebesgue_norm(F)
        pts = np.random.default_rng(n).uniform(-0.5, 1.5, size=(2000, 3))
        exact = sample_spectral(F, pts)
        gap = np.sqrt(np.sum((sample_spectral(F, pts, self.TOL) - exact) ** 2, axis=1))
        assert np.max(gap) <= tail + self.ROUND_OFF * fourier_lebesgue_norm(F)

    def test_decayed_field_is_cropped(self, decayed_states):
        K, tail = spectral_crop(decayed_states["random_band", 32], self.TOL)
        assert K < 16 and tail > 0.0

    def test_smallest_cube_and_its_tail(self):
        # one interior-plane mode per shell 1, 3 and 5, of masses 1, 1e-10, 1e-20
        c = np.zeros((3, 16, 16, 9), dtype=np.complex128)
        c[0, 1, 0, 1], c[1, 0, 3, 2], c[2, 5, 0, 3] = 0.5, 0.5e-10, 0.5e-20j
        F = SpectralVectorField(GRID, c)
        assert spectral_crop(F, 1e-9) == (1, pytest.approx(1e-10 + 1e-20, rel=1e-12))
        assert spectral_crop(F, 1e-14) == (3, pytest.approx(1e-20, rel=1e-12))
        assert spectral_crop(F, 0.0) == (5, 0.0)
        assert spectral_crop(SpectralVectorField(GRID, 0 * c), 1e-14) == (0, 0.0)

    def test_zero_tolerance_is_the_full_sum(self, decayed_states):
        F = decayed_states["random_band", 16]
        pts = np.random.default_rng(3).uniform(0.0, 1.0, size=(300, 3))
        np.testing.assert_array_equal(sample_spectral(F, pts, 0.0), spectral_reference(F, pts))

    def test_single_point_matches_its_batch(self, decayed_states):
        F = decayed_states["taylor_green", 32]
        pts = np.random.default_rng(4).uniform(0.0, 1.0, size=(40, 3))
        got = sample_spectral(F, pts, self.TOL)
        for i in (0, 17, 39):
            np.testing.assert_array_equal(sample_spectral(F, pts[i], self.TOL), got[i:i + 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        # unchecked, a NaN norm fails every tail comparison and K = 0 keeps the mean alone
        c = to_spectral(random_field(GRID, seed=39)).coeffs
        c[1, 3, 2, 1] = bad
        F = SpectralVectorField(GRID, c)
        with pytest.raises(ValueError, match="finite"):
            spectral_crop(F, 1e-14)
        with pytest.raises(ValueError, match="finite"):
            sample_spectral(F, np.zeros((1, 3)), 1e-14)

    @pytest.mark.parametrize("tol", [-1e-14, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, tol):
        F = to_spectral(random_field(GRID, seed=38))
        with pytest.raises(ValueError):
            spectral_crop(F, tol)
        with pytest.raises(ValueError):
            sample_spectral(F, np.zeros((1, 3)), tol)


class TestPeriodicGeometry:
    def test_minimal_image(self):
        a = np.array([0.05, 0.5, 0.5])
        b = np.array([0.95, 0.5, 0.5])
        assert periodic_distance(a, b, 1.0) == pytest.approx(0.1)
        np.testing.assert_allclose(periodic_delta(a, b, 1.0), [0.1, 0.0, 0.0],
                                   atol=1e-14)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_distance_bounds_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0, 1.0, size=(2, 3))
        d1 = periodic_distance(a, b, 1.0)
        d2 = periodic_distance(b, a, 1.0)
        assert d1 == pytest.approx(d2)
        assert d1 <= math.sqrt(3) / 2 + 1e-12
