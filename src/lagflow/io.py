"""Binary field/trajectory formats and CSV diagnostics.

All binary formats are little-endian with a 4-byte ASCII magic:

LGF1 (vector field):  magic "LGF1", version u32, n u32, box_len f64,
    time f64, nu f64, then 3 * n^3 f64 samples, component-major with the
    x index fastest within each component.
LGS1 (scalar field):  magic "LGS1", same header, n^3 f64 samples.
LGT1 (trajectories):  magic "LGT1", version u32, particle count u32,
    save count u32, box_len f64, T f64, then the save times (S f64) and
    the positions (S * P * 3 f64, time-major, xyz fastest).

write_saves streams an LGT1 file: the header and times first, then each
save as it arrives, so a writer fed by flow.FlowSaves never holds the
(S, P, 3) array; the layout and the bytes are those of the whole array
written at once.
Every LGT1 is written to a temporary name and renamed only once complete,
so a pass that raises leaves no file.
"""

from __future__ import annotations

import csv
import math
import os
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


def _payload(f, shape: tuple, magic: bytes) -> np.ndarray:
    """Read the next prod(shape) little-endian f64 values of f, C order,
    straight into one new writable array of that shape; a payload shorter
    than that (checked against the file's size before the array is made) or
    a non-finite value raises ValueError."""
    nbytes = 8 * math.prod(shape)
    if os.fstat(f.fileno()).st_size - f.tell() < nbytes:
        raise ValueError(f"truncated {magic.decode()} payload")
    out = np.empty(shape, dtype="<f8")
    if f.readinto(out) != nbytes:
        raise ValueError(f"truncated {magic.decode()} payload")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"non-finite {magic.decode()} payload")
    return out


def _write_f8(f, values: np.ndarray) -> None:
    """Write values in C order as little-endian f64 from one contiguous
    buffer: values itself when it is one, else a single copy."""
    f.write(np.ascontiguousarray(values, dtype="<f8").data)


def _write_grid(path, magic: bytes, grid: Grid3, comps, time: float, nu: float) -> None:
    """Write the LGF1/LGS1 header, then each (n, n, n) component of comps."""
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<II", FORMAT_VERSION, grid.n))
        f.write(struct.pack("<ddd", grid.box_len, time, nu))
        # axis order in memory is (x, y, z); x fastest is the C order of c.T
        for c in comps:
            _write_f8(f, np.transpose(c))


def _read_grid(path, magic: bytes, ncomp: int):
    """Read an LGF1/LGS1 file; returns (Grid3, (ncomp, n, n, n) array, time, nu)."""
    with open(path, "rb") as f:
        _expect(f, magic)
        n, box_len, time, nu = _unpack(f, "<Iddd")
        # component-major, x fastest: (c, z, y, x) in C order
        raw = _payload(f, (ncomp, n, n, n), magic)
    return Grid3(n, box_len), raw.transpose(0, 3, 2, 1), time, nu


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


def write_saves(path, times: np.ndarray, box_len: float, saves) -> np.ndarray:
    """Write LGT1 from `saves`, an iterable of the S (P, 3) position arrays
    at `times`, each as it arrives; P is the first save's.  Returns the last
    save.  The file is written to path + ".tmp" and renamed to path once all
    S saves are in; if `saves` raises, or yields a save of another shape or
    another number of saves, the temporary file is removed and nothing is
    written at path."""
    S = times.size
    if S == 0:
        raise ValueError("LGT1 save count must be positive, got 0")
    tmp = Path(str(path) + ".tmp")
    try:
        with open(tmp, "wb") as f:
            k = 0
            for x in saves:
                if k == 0:
                    P = x.shape[0]
                    f.write(b"LGT1")
                    f.write(struct.pack("<III", FORMAT_VERSION, P, S))
                    f.write(struct.pack("<dd", box_len, float(times[-1])))
                    _write_f8(f, times)
                if k == S or x.shape != (P, 3):
                    raise ValueError(f"save {k} of shape {x.shape}: expected {S} of ({P}, 3)")
                _write_f8(f, x)
                k += 1
            if k != S:
                raise ValueError(f"{k} saves for {S} save times")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    return x


def read_trajectories(path) -> ParticleEnsemble:
    """Read an LGT1 file back into a ParticleEnsemble."""
    with open(path, "rb") as f:
        _expect(f, b"LGT1")
        P, S, box_len, _T = _unpack(f, "<IIdd")
        if not 0 < box_len < math.inf:
            raise ValueError(f"LGT1 box_len must be positive and finite, got {box_len}")
        if S == 0:
            raise ValueError("LGT1 save count must be positive, got 0")
        times = _payload(f, (S,), b"LGT1")
        traj = _payload(f, (S, P, 3), b"LGT1")
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
