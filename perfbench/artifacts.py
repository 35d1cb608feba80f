"""Readers for lagflow's output files, written from the format description
alone (struct + numpy), so that output checks do not trust ``lagflow.io``.

LGF1: "LGF1", u32 version, u32 n, f64 box_len, f64 time, f64 nu, then the
      3 components, each n^3 f64 with the x index fastest.
LGS1: "LGS1", same header, n^3 f64 with the x index fastest.
LGT1: "LGT1", u32 version, u32 particles P, u32 saves S, f64 box_len, f64 T,
      S f64 save times, S*P*3 f64 positions (time-major, xyz fastest).
"""

from __future__ import annotations

import csv
import json
import struct
from functools import cached_property
from pathlib import Path

import numpy as np

GRID_HEADER = struct.Struct("<4sIIddd")     # magic, version, n, box_len, time, nu
TRAJ_HEADER = struct.Struct("<4sIIIdd")     # magic, version, P, S, box_len, T


def _payload(data: bytes, offset: int, count: int, what: str) -> np.ndarray:
    if len(data) != offset + 8 * count:
        raise ValueError(f"{what}: {len(data)} bytes, expected {offset + 8 * count}")
    return np.frombuffer(data, dtype="<f8", offset=offset, count=count)


def _grid_file(path, magic: bytes, components: int):
    data = Path(path).read_bytes()
    if len(data) < GRID_HEADER.size:
        raise ValueError(f"{path}: header truncated")
    got, _version, n, box_len, time, nu = GRID_HEADER.unpack_from(data)
    if got != magic:
        raise ValueError(f"{path}: magic {got!r}, expected {magic!r}")
    raw = _payload(data, GRID_HEADER.size, components * n ** 3, str(path))
    # x fastest in the file means Fortran order for (x, y, z) arrays
    values = raw.reshape((components, n, n, n), order="C").transpose(0, 3, 2, 1)
    return np.ascontiguousarray(values), box_len, time, nu


def read_lgf1(path):
    """Vector field: (samples (3, n, n, n) indexed [c, ix, iy, iz], box_len, time, nu)."""
    return _grid_file(path, b"LGF1", 3)


def read_lgs1(path):
    """Scalar field: (values (n, n, n) indexed [ix, iy, iz], box_len, time, nu)."""
    values, box_len, time, nu = _grid_file(path, b"LGS1", 1)
    return values[0], box_len, time, nu


def read_lgt1(path):
    """Trajectories: (times (S,), positions (S, P, 3), box_len, T)."""
    data = Path(path).read_bytes()
    if len(data) < TRAJ_HEADER.size:
        raise ValueError(f"{path}: header truncated")
    got, _version, P, S, box_len, T = TRAJ_HEADER.unpack_from(data)
    if got != b"LGT1":
        raise ValueError(f"{path}: magic {got!r}, expected b'LGT1'")
    raw = _payload(data, TRAJ_HEADER.size, S + 3 * S * P, str(path))
    return raw[:S].copy(), raw[S:].reshape(S, P, 3).copy(), box_len, T


def read_csv(path):
    """(header list, rows as lists of strings)."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    return rows[0], rows[1:]


class RunOutputs:
    """Lazily loaded artifacts of one CLI run directory."""

    def __init__(self, out_dir):
        self.dir = Path(out_dir)

    @cached_property
    def manifest(self) -> dict:
        return json.loads((self.dir / "manifest.json").read_text())

    @cached_property
    def field_final(self):
        return read_lgf1(self.dir / "field_final.lgf1")

    @cached_property
    def weight(self):
        return read_lgs1(self.dir / "weight.lgs1")

    @cached_property
    def trajectories(self):
        return read_lgt1(self.dir / "trajectories.lgt1")

    @cached_property
    def diagnostics(self) -> dict:
        """Column name -> float array."""
        header, rows = read_csv(self.dir / "diagnostics.csv")
        table = np.array([[float(v) for v in row] for row in rows])
        return {name: table[:, j] for j, name in enumerate(header)}

    def report(self, name: str):
        return read_csv(self.dir / name)
