import math
import struct

import numpy as np
import pytest

from lagflow.fields import Grid3, RealVectorField
from lagflow.flow import FieldDrift, integrate_flow, lattice_positions
from lagflow.forcing import zero_path
from lagflow.io import (
    read_diagnostics_csv,
    read_field,
    read_scalar,
    read_trajectories,
    write_diagnostics_csv,
    write_field,
    write_scalar,
    write_trajectories,
)
from lagflow.solver import DiagnosticsRecord, make_initial_data

GRID = Grid3(8, 2.0)


def random_real_field(seed=0):
    rng = np.random.default_rng(seed)
    return RealVectorField(GRID, rng.standard_normal((3, 8, 8, 8)))


class TestFieldFormat:
    def test_round_trip_lossless(self, tmp_path):
        f = random_real_field()
        p = tmp_path / "f.lgf1"
        write_field(p, f, time=0.75, nu=0.05)
        g, t, nu = read_field(p)
        np.testing.assert_array_equal(g.samples, f.samples)
        assert (t, nu) == (0.75, 0.05)
        assert g.grid == GRID

    def test_header_layout(self, tmp_path):
        f = random_real_field(1)
        p = tmp_path / "f.lgf1"
        write_field(p, f, time=1.5, nu=0.1)
        raw = p.read_bytes()
        assert raw[:4] == b"LGF1"
        version, n = struct.unpack_from("<II", raw, 4)
        box, t, nu = struct.unpack_from("<ddd", raw, 12)
        assert (version, n, box, t, nu) == (1, 8, 2.0, 1.5, 0.1)
        assert len(raw) == 36 + 3 * 8 ** 3 * 8

    def test_x_fastest_payload_order(self, tmp_path):
        f = random_real_field(2)
        p = tmp_path / "f.lgf1"
        write_field(p, f)
        raw = p.read_bytes()
        payload = np.frombuffer(raw[36:], dtype="<f8")
        n = 8
        # element (c, x, y, z) sits at c*n^3 + x + n*y + n^2*z
        for c, x, y, z in [(0, 3, 0, 0), (1, 0, 5, 0), (2, 1, 2, 3)]:
            idx = c * n ** 3 + x + n * y + n * n * z
            assert payload[idx] == f.samples[c, x, y, z]

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(ValueError, match="magic"):
            read_field(p)

    def test_truncated_rejected(self, tmp_path):
        f = random_real_field(3)
        p = tmp_path / "f.lgf1"
        write_field(p, f)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            read_field(p)

    def test_non_finite_box_len_rejected(self, tmp_path):
        p = tmp_path / "f.lgf1"
        write_field(p, random_real_field(4))
        raw = bytearray(p.read_bytes())
        struct.pack_into("<d", raw, 12, float("inf"))
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="box_len"):
            read_field(p)


class TestScalarFormat:
    def test_round_trip(self, tmp_path):
        vals = np.random.default_rng(4).exponential(size=(8, 8, 8))
        p = tmp_path / "h.lgs1"
        write_scalar(p, GRID, vals, time=0.25)
        grid, back, t, nu = read_scalar(p)
        np.testing.assert_array_equal(back, vals)
        assert grid == GRID and t == 0.25 and nu == 0.0
        assert p.read_bytes()[:4] == b"LGS1"

    def test_shape_checked(self, tmp_path):
        with pytest.raises(ValueError):
            write_scalar(tmp_path / "h.lgs1", GRID, np.zeros((4, 4, 4)))


class TestTrajectoryFormat:
    def test_round_trip(self, tmp_path):
        drift = FieldDrift([(0.0, make_initial_data("shear", GRID, {"amplitude": 1.0}))])
        ens = integrate_flow(drift, zero_path(1.0, 0.1), lattice_positions(3, 2.0),
                             1.0, "rk4", 0.1)
        p = tmp_path / "t.lgt1"
        write_trajectories(p, ens)
        back = read_trajectories(p)
        np.testing.assert_array_equal(back.trajectories, ens.trajectories)
        np.testing.assert_array_equal(back.times, ens.times)
        assert back.box_len == ens.box_len
        assert p.read_bytes()[:4] == b"LGT1"

    @pytest.mark.parametrize("box_len", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_box_len_rejected(self, tmp_path, box_len):
        drift = FieldDrift([(0.0, make_initial_data("shear", GRID, {"amplitude": 1.0}))])
        p = tmp_path / "t.lgt1"
        write_trajectories(p, integrate_flow(drift, zero_path(0.2, 0.1), np.zeros((2, 3)),
                                             0.2, "euler", 0.1))
        raw = bytearray(p.read_bytes())
        struct.pack_into("<d", raw, 16, box_len)
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="box_len"):
            read_trajectories(p)

    def test_header_counts(self, tmp_path):
        drift = FieldDrift([(0.0, make_initial_data("shear", GRID, {"amplitude": 0.0}))])
        ens = integrate_flow(drift, zero_path(0.5, 0.1), np.zeros((7, 3)),
                             0.5, "euler", 0.1)
        p = tmp_path / "t.lgt1"
        write_trajectories(p, ens)
        raw = p.read_bytes()
        _, P, S = struct.unpack_from("<III", raw, 4)
        assert P == 7 and S == ens.times.size


@pytest.mark.parametrize("fmt", ["lgf1", "lgs1", "lgt1"])
@pytest.mark.parametrize("cut", [2, 6, 10], ids=["magic", "version", "counts"])
def test_truncated_header_rejected(tmp_path, fmt, cut):
    p = tmp_path / f"x.{fmt}"
    if fmt == "lgf1":
        write_field(p, random_real_field(5))
        reader = read_field
    elif fmt == "lgs1":
        write_scalar(p, GRID, np.ones((8, 8, 8)))
        reader = read_scalar
    else:
        drift = FieldDrift([(0.0, make_initial_data("shear", GRID, {"amplitude": 1.0}))])
        write_trajectories(p, integrate_flow(drift, zero_path(0.2, 0.1), np.zeros((2, 3)),
                                             0.2, "euler", 0.1))
        reader = read_trajectories
    p.write_bytes(p.read_bytes()[:cut])
    with pytest.raises(ValueError):
        reader(p)


@pytest.mark.parametrize("fmt,bad", [("lgf1", math.nan), ("lgs1", math.nan), ("lgs1", math.inf),
                                     ("lgt1", math.inf), ("lgt1", -math.inf)])
def test_non_finite_payload_rejected(tmp_path, fmt, bad):
    # the last payload value is a position (LGT1) or a sample (LGF1, LGS1)
    p = tmp_path / f"x.{fmt}"
    if fmt == "lgf1":
        write_field(p, random_real_field(6))
        reader = read_field
    elif fmt == "lgs1":
        write_scalar(p, GRID, np.ones((8, 8, 8)))
        reader = read_scalar
    else:
        drift = FieldDrift([(0.0, make_initial_data("shear", GRID, {"amplitude": 1.0}))])
        write_trajectories(p, integrate_flow(drift, zero_path(0.2, 0.1), np.zeros((2, 3)),
                                             0.2, "euler", 0.1))
        reader = read_trajectories
    raw = bytearray(p.read_bytes())
    struct.pack_into("<d", raw, len(raw) - 8, bad)
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="non-finite"):
        reader(p)


class TestDiagnosticsCsv:
    def test_round_trip_and_determinism(self, tmp_path):
        diags = [DiagnosticsRecord(0.1 * i, 1.0 / (i + 1), 2.0, 3.0, 4.0, 5.0)
                 for i in range(5)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_diagnostics_csv(p1, diags)
        write_diagnostics_csv(p2, diags)
        assert p1.read_bytes() == p2.read_bytes()
        header, rows = read_diagnostics_csv(p1)
        assert header == DiagnosticsRecord.FIELDS
        np.testing.assert_allclose(rows[3], diags[3].as_row(), rtol=1e-16)
