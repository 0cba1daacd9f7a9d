"""The four orthonormal transforms the package runs, straight from
scipy's compiled pocketfft core.

Importing scipy.fft costs about 0.3 s, mostly scipy.special and scipy's
array-API layer, none of which the package calls; the extension itself
loads in a few milliseconds. Nor is scipy itself imported: find_spec
locates its directory without running scipy's __init__, which took
13-15 ms under -X importtime only to give that path. If scipy or the
extension is not found, importing the package raises ImportError. The
extension is loaded by path under its real name, or reused if scipy.fft
already loaded it, so both share one module; if scipy.fft comes later,
its modules find this one in sys.modules, though the package
scipy.fft._pocketfft then lacks the attribute pypocketfft, which scipy
only reads through from-imports. Each function runs pocketfft as
scipy.fft's numpy backend does for norm="ortho" over axes (0, 1) at one
thread, but a complex DCT is one call, on a float view with the parts on
a trailing axis ([..., None] is contiguous at any strides), where scipy
makes one per part; tests pin that the bits agree. None checks its input.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

_NAME = "scipy.fft._pocketfft.pypocketfft"
_AXES = (0, 1)

_pocketfft = sys.modules.get(_NAME)
if _pocketfft is None:
    _scipy = importlib.util.find_spec("scipy")
    _spec = _scipy and importlib.machinery.PathFinder.find_spec(
        _NAME, [os.path.join(_scipy.submodule_search_locations[0], "fft", "_pocketfft")])
    if _spec is None:
        raise ImportError(f"fresnelstego needs scipy's compiled pocketfft core, {_NAME}, "
                          "and it was not found", name=_NAME)
    _pocketfft = sys.modules[_NAME] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_pocketfft)


def fft2(a: np.ndarray) -> np.ndarray:
    """Into a new complex grid; a real grid takes the real-input path."""
    return _pocketfft.c2c(a, _AXES, True, 1, None, 1)


def ifft2(a: np.ndarray) -> np.ndarray:
    """In place on a complex grid; returns a."""
    return _pocketfft.c2c(a, _AXES, False, 1, a, 1)


def _dct(a: np.ndarray, kind: int, overwrite: bool) -> np.ndarray:
    out = a if overwrite else np.empty(a.shape, a.dtype)
    _pocketfft.dct(a[..., None].view(np.float64), kind, _AXES, 1,
                   out[..., None].view(np.float64), 1)
    return out


def dctn(a: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """DCT-II, of a complex grid part by part; with overwrite, in place."""
    return _dct(a, 2, overwrite)


def idctn(a: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """DCT-III, the inverse of dctn."""
    return _dct(a, 3, overwrite)
