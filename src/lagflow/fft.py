"""The one FFT layer: real-to-complex transforms of periodic grid arrays.

Every transform in lagflow goes through this module.  Transforms act on the
last three axes of an (..., n, n, n) array and are forward-normalized: a
coefficient is the forward sum divided by n^3, so the zero mode is the mean
and the inverse carries no factor.

A real field's coefficients are Hermitian, c(-k) = conj(c(k)), so the
half-spectrum layout (..., n, n, n//2 + 1) of scipy.fft.rfftn, which keeps
kz >= 0 only, holds all of them; it is the only spectral layout in lagflow.
In a sum over all modes, each interior kz plane of that layout stands for
itself and its mirror image (weight 2); the kz = 0 and kz = n/2 planes stand
for themselves only (weight 1).  A half array whose kz = 0 or kz = n/2
plane is not Hermitian in (kx, ky) belongs to no real field; the inverse
returns the real part of the complex field it describes.

The transforms are the r2c and c2r kernels of scipy's compiled pocketfft
module, called with exactly the arguments scipy.fft.rfftn(norm="forward")
and irfftn(s=(n, n, n), norm="forward") pass them on one thread, so every
bit is scipy.fft's.  The module is loaded from its file inside the installed
scipy, without running the scipy or scipy.fft package __init__: that import
also loads scipy.special, scipy's array-API layer and numpy.f2py, numpy.ma
and numpy.testing, about 0.25 s and 20 MiB of every run's start-up, none of
which a transform uses.  It is registered under its own dotted name, so a
later `import scipy.fft` shares it (and an earlier one is reused).  The
tests compare forward and inverse with scipy.fft's public rfftn and irfftn,
bit for bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

_KERNEL = "scipy.fft._pocketfft.pypocketfft"
_STEM = _KERNEL.rsplit(".", 1)[1]
_FORWARD_NORM, _INVERSE_NORM = 2, 0   # pocketfft's inorm: 2 divides by n^3, 0 by 1
_THREADS = 1


def _kernel_file(folder: Path) -> Path:
    """The one pypocketfft extension file in folder; none or several raise
    ImportError naming the folder."""
    found = sorted(p for p in folder.glob(_STEM + ".*")
                   if p.name[len(_STEM):] in importlib.machinery.EXTENSION_SUFFIXES)
    if len(found) != 1:
        names = ", ".join(p.name for p in found) or "none"
        raise ImportError(f"expected one {_STEM} extension module in {folder}, "
                          f"found {len(found)} ({names})")
    return found[0]


def _load_kernel():
    """scipy's compiled pocketfft module, from sys.modules if it is there,
    else loaded from its file without importing the scipy package."""
    if _KERNEL in sys.modules:
        return sys.modules[_KERNEL]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("lagflow.fft needs scipy's pocketfft module; scipy is not installed")
    folder = Path(scipy_spec.submodule_search_locations[0]) / "fft" / "_pocketfft"
    spec = importlib.util.spec_from_file_location(_KERNEL, _kernel_file(folder))
    module = importlib.util.module_from_spec(spec)
    sys.modules[_KERNEL] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_KERNEL]
        raise
    return module


_pocketfft = _load_kernel()
_r2c, _c2r = _pocketfft.r2c, _pocketfft.c2r


def forward(values: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients of a real float64 (..., n, n, n) array."""
    if values.dtype != np.float64:
        raise TypeError(f"fft.forward takes a real float64 array, got {values.dtype}")
    nd = values.ndim
    return _r2c(values, (nd - 3, nd - 2, nd - 1), True, _FORWARD_NORM, None, _THREADS)


def inverse(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Real (..., n, n, n) array of (..., n, n, n//2 + 1) half-spectrum
    coefficients; any other trailing shape raises ValueError."""
    if coeffs.shape[-3:] != (n, n, n // 2 + 1):
        raise ValueError(f"fft.inverse at n = {n} takes (..., {n}, {n}, {n // 2 + 1}) "
                         f"coefficients, got shape {coeffs.shape}")
    nd = coeffs.ndim
    return _c2r(coeffs, (nd - 3, nd - 2, nd - 1), n, False, _INVERSE_NORM, None, _THREADS)


@lru_cache(maxsize=32)
def plane_weights(n: int) -> np.ndarray:
    """Multiplicity of each kz plane of the half layout in a sum over all
    modes, shaped (1, 1, n//2 + 1) to broadcast."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    w.setflags(write=False)
    return w[None, None, :]
