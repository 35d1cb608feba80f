"""Binary field/trajectory formats and CSV diagnostics.

All binary formats are little-endian with a 4-byte ASCII magic:

LGF1 (vector field):  magic "LGF1", version u32, n u32, box_len f64,
    time f64, nu f64, then 3 * n^3 f64 samples, component-major with the
    x index fastest within each component.
LGS1 (scalar field):  magic "LGS1", same header, n^3 f64 samples.
LGT1 (trajectories):  magic "LGT1", version u32, particle count u32,
    save count u32, box_len f64, T f64, then the save times (S f64) and
    the positions (S * P * 3 f64, time-major, xyz fastest).
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np

from .fields import Grid3, RealVectorField
from .flow import ParticleEnsemble

FORMAT_VERSION = 1


def _unpack(f, fmt: str) -> tuple:
    """Read and unpack one header block; a short read raises ValueError."""
    size = struct.calcsize(fmt)
    raw = f.read(size)
    if len(raw) != size:
        raise ValueError(f"truncated header: {len(raw)} of {size} bytes")
    return struct.unpack(fmt, raw)


def _expect(f, magic: bytes):
    got = f.read(4)
    if got != magic:
        raise ValueError(f"bad magic {got!r}, expected {magic!r}")
    (version,) = _unpack(f, "<I")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")


def _payload(f, count: int, magic: bytes) -> np.ndarray:
    """Read count little-endian f64 values; a short read or a non-finite
    value raises ValueError."""
    raw = np.frombuffer(f.read(count * 8), dtype="<f8")
    if raw.size != count:
        raise ValueError(f"truncated {magic.decode()} payload")
    if not np.all(np.isfinite(raw)):
        raise ValueError(f"non-finite {magic.decode()} payload")
    return raw


def _write_grid(path, magic: bytes, grid: Grid3, comps, time: float, nu: float) -> None:
    """Write the LGF1/LGS1 header, then each (n, n, n) component of comps."""
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<II", FORMAT_VERSION, grid.n))
        f.write(struct.pack("<ddd", grid.box_len, time, nu))
        # axis order in memory is (x, y, z); x fastest means Fortran order
        for c in comps:
            f.write(np.asfortranarray(c).astype("<f8").tobytes("F"))


def _read_grid(path, magic: bytes, ncomp: int):
    """Read an LGF1/LGS1 file; returns (Grid3, (ncomp, n, n, n) array, time, nu)."""
    with open(path, "rb") as f:
        _expect(f, magic)
        n, box_len, time, nu = _unpack(f, "<Iddd")
        raw = _payload(f, ncomp * n ** 3, magic)
    # component-major, x fastest: (c, z, y, x) in C order
    return Grid3(n, box_len), raw.reshape(ncomp, n, n, n).transpose(0, 3, 2, 1), time, nu


def write_field(path, field: RealVectorField, time: float = 0.0,
                nu: float = 0.0) -> None:
    """Write a real vector field as LGF1."""
    _write_grid(path, b"LGF1", field.grid, field.samples, time, nu)


def read_field(path):
    """Read an LGF1 file; returns (RealVectorField, time, nu)."""
    grid, samples, time, nu = _read_grid(path, b"LGF1", 3)
    return RealVectorField(grid, samples), time, nu


def write_scalar(path, grid: Grid3, values: np.ndarray, time: float = 0.0,
                 nu: float = 0.0) -> None:
    """Write a scalar grid field as LGS1."""
    n = grid.n
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (n, n, n):
        raise ValueError(f"scalar shape {values.shape} != ({n},{n},{n})")
    _write_grid(path, b"LGS1", grid, [values], time, nu)


def read_scalar(path):
    """Read an LGS1 file; returns (Grid3, values, time, nu)."""
    grid, values, time, nu = _read_grid(path, b"LGS1", 1)
    return grid, values[0], time, nu


def write_trajectories(path, ensemble: ParticleEnsemble) -> None:
    """Write a particle ensemble as LGT1."""
    S, P = ensemble.times.size, ensemble.count
    with open(path, "wb") as f:
        f.write(b"LGT1")
        f.write(struct.pack("<III", FORMAT_VERSION, P, S))
        f.write(struct.pack("<dd", ensemble.box_len, float(ensemble.times[-1])))
        f.write(ensemble.times.astype("<f8").tobytes())
        f.write(np.ascontiguousarray(ensemble.trajectories).astype("<f8").tobytes())


def read_trajectories(path) -> ParticleEnsemble:
    """Read an LGT1 file back into a ParticleEnsemble."""
    with open(path, "rb") as f:
        _expect(f, b"LGT1")
        P, S, box_len, _T = _unpack(f, "<IIdd")
        if not 0 < box_len < math.inf:
            raise ValueError(f"LGT1 box_len must be positive and finite, got {box_len}")
        raw = _payload(f, S * (1 + 3 * P), b"LGT1")
    times = raw[:S].copy()
    traj = raw[S:].reshape(S, P, 3).copy()
    return ParticleEnsemble(traj[0].copy(), times, traj, box_len)


def write_diagnostics_csv(path, diags) -> None:
    """One row per record, header from the record field names; '%.17g'
    formatting makes the file byte-stable across identical runs."""
    from .solver import DiagnosticsRecord
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(DiagnosticsRecord.FIELDS)
        for d in diags:
            w.writerow([f"{v:.17g}" for v in d.as_row()])


def read_diagnostics_csv(path):
    """Returns (header tuple, rows as float arrays)."""
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = tuple(next(r))
        rows = [np.array([float(v) for v in row]) for row in r]
    return header, rows


def write_report_csv(path, rows, header) -> None:
    """Generic report CSV: rows of (str | float) cells."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
