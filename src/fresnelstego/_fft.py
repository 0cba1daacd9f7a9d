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

Padded rows. At a power-of-two side a pass down axis 0 walks rows exactly
2**k bytes apart, which fall into the same cache sets. On a 512 x 512
complex grid (one thread, 2-vCPU Xeon guest) the DCT-III's axis-0 pass
took 4.63 ms against 1.66 ms for axis 1. padded gives stego_pipeline a
grid whose rows are followed by ROW_PAD float64 (64 bytes) each; pocketfft
takes any strides and gives the same bits, and there the axis-0 pass took
1.96 ms, idctn 3.57 ms instead of 6.14 and an in-place fft2 2.47 instead
of 3.67. No transform here reads or writes a pad sample. padded zeroes
the pad, so stego_pipeline scales the whole flat buffer in one pass,
where numpy runs an element-wise product on the strided grid row by row:
at a 1024 host, 0.19 ms against 0.51-0.62 for (1 + i) * s and 0.41-0.45
against 0.76-0.79 for the division. Garbage there could overflow or be a
signalling NaN, and warn where no _quiet is active.

A padded buffer is a size no other grid of the pipeline has (8 KiB more
than the grid at a 256 host), so a new one fits the holes that embed and
extract leave in glibc's heap less well. Where glibc has just trimmed
the heap, as in some benchmark loop processes it did each time another
copy of the package ran between two calls, an embed that allocated it
took 224 minor page faults instead of 96, and the processes that fell
into that state ran 11-13% slower than the rest. padded therefore takes
within: embed hands it the output image, which holds at least as many
floats as the padded grid at any side from 8 up, and the transforms run
there before the image is written; its faults in that state are 96
again.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

_NAME = "scipy.fft._pocketfft.pypocketfft"
_AXES = (0, 1)
ROW_PAD = 8  # float64 samples after each row of a padded grid

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


def padded(rows: int, cols: int,
           within: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(flat, grid): a flat float64 buffer and the rows x cols complex view
    of it, each of whose rows is followed in flat by ROW_PAD pad floats,
    zero; the grid's samples are uninitialized. The buffer is the start of
    within, a C-ordered float64 array, if that is long enough, and new
    otherwise."""
    size = rows * (2 * cols + ROW_PAD)
    if within is not None and within.size >= size:
        flat = within.reshape(-1)[:size]
    else:
        flat = np.empty(size)
    flat.reshape(rows, -1)[:, 2 * cols:] = 0.0  # so a scaling of flat meets no garbage
    return flat, flat.view(np.complex128).reshape(rows, -1)[:, :cols]


def fft2(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Into out, or a new complex grid; a real grid takes the real-input path."""
    return _pocketfft.c2c(a, _AXES, True, 1, out, 1)


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
