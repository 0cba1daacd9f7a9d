"""The package's transforms load scipy's pocketfft core without the
scipy.fft package, and give scipy.fft's bits."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import fresnelstego
from fresnelstego import _fft, dct2, idct2
from fresnelstego.numerics import as_image

SRC = str(Path(fresnelstego.__file__).resolve().parents[1])
POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


def run_python(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-W", "error::ImportWarning", "-c", code],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_import_leaves_scipy_fft_unloaded(tmp_path):
    # scipy's own init does not run either, and a float embed and extract
    # through the CLI, with either reader, load nothing more of it; nor do they
    # load fractions (about 2.5 ms) or decimal: the exact Fresnel factor reduces
    # its phases in plain integers
    run_python(f"""
import sys
import fresnelstego, fresnelstego.cli
def check():
    loaded = [name for name in ("scipy", "scipy.fft", "scipy.special", "scipy.sparse",
                                "fractions", "decimal") if name in sys.modules]
    assert not loaded, loaded
    assert {POCKETFFT!r} in sys.modules
check()
import numpy as np
from fresnelstego import default_key_path, write_pgm
rng = np.random.default_rng(0)
d = {str(tmp_path)!r}
write_pgm(rng.integers(0, 256, (16, 16)), d + "/host.pgm")
write_pgm(rng.integers(0, 256, (8, 8)), d + "/secret.pgm")
key = str(default_key_path())
assert fresnelstego.cli.cli_main(["embed", "--host", d + "/host.pgm", "--secret",
    d + "/secret.pgm", "--key", key, "--out", d + "/embedded.fimg"]) == 0
assert fresnelstego.cli.cli_main(["extract", "--embedded", d + "/embedded.fimg", "--host",
    d + "/host.pgm", "--key", key, "--out", d + "/secret.fimg"]) == 0
assert fresnelstego.cli.cli_main(["extract", "--embedded", d + "/embedded.fimg", "--host",
    d + "/host.pgm", "--key", key, "--out", d + "/signed.fimg", "--reader", "coherent"]) == 0
check()
""")


def test_missing_scipy_or_pocketfft_is_a_named_import_error(tmp_path):
    # hidden scipy, then a scipy package without the compiled core
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    for hide in ('sys.modules["scipy"] = None', f"sys.path.insert(0, {str(tmp_path)!r})"):
        run_python(f"""
import sys
{hide}
try:
    import fresnelstego
except ImportError as exc:
    assert exc.name == {POCKETFFT!r} and {POCKETFFT!r} in str(exc), repr(exc)
else:
    raise AssertionError("imported without pocketfft")
""")


@pytest.mark.parametrize("first, second", [
    pytest.param("scipy.fft", "fresnelstego", id="scipy.fft"),
    pytest.param("fresnelstego", "scipy.fft", id="fresnelstego"),
    pytest.param("scipy", "fresnelstego", id="scipy"),
    pytest.param("fresnelstego", "scipy.sparse.linalg",
                 id="fresnelstego-scipy.sparse.linalg")])
def test_one_pocketfft_module_in_either_import_order(first, second):
    # scipy.fft's own transforms call the very module _fft calls, and give its
    # bits, whether scipy's init runs before the extension is loaded or after
    run_python(f"""
import sys
import numpy as np
import {first}
import {second}
import scipy.fft
from fresnelstego import _fft
from scipy.fft._pocketfft import basic, realtransforms
module = sys.modules[{POCKETFFT!r}]
assert _fft._pocketfft is module
assert basic.pfft is module and realtransforms.pfft is module
x = np.random.default_rng(0).standard_normal((8, 6))
assert scipy.fft.fft2(x, norm="ortho").tobytes() == _fft.fft2(x).tobytes()
assert scipy.fft.dctn(x, norm="ortho").tobytes() == _fft.dctn(x).tobytes()
""")


def grids(side, seed):
    rng = np.random.default_rng(seed)
    real = rng.standard_normal((side, side))
    return real, real + 1j * rng.standard_normal((side, side))


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_matches_scipy(a):
    assert_same_bits(_fft.fft2(a), scipy.fft.fft2(a, norm="ortho"))
    assert_same_bits(_fft.dctn(a), scipy.fft.dctn(a, norm="ortho"))
    assert_same_bits(_fft.idctn(a), scipy.fft.idctn(a, norm="ortho"))


# 50, 128, 256 and 512 are the secret sides at hosts 100, 256, 512 and 1024
@pytest.mark.parametrize("side", [1, 2, 3, 7, 64, 50, 128, 256, 512])
def test_transforms_match_scipy_fft_bit_for_bit(side):
    for a in grids(side, side):
        assert_matches_scipy(a)
        for ours, theirs in ((_fft.dctn, scipy.fft.dctn), (_fft.idctn, scipy.fft.idctn)):
            expected = theirs(a, norm="ortho")
            b = a.copy()
            assert ours(b, overwrite=True) is b
            assert_same_bits(b, expected)
    c = grids(side, side)[1]
    expected = scipy.fft.ifft2(c, norm="ortho")
    assert _fft.ifft2(c) is c
    assert_same_bits(c, expected)


def test_rectangle_through_dct2_and_idct2():
    img = np.random.default_rng(3).uniform(0, 255, size=(6, 10))
    assert_same_bits(dct2(img), scipy.fft.dctn(img, type=2, norm="ortho"))
    assert_same_bits(idct2(img), scipy.fft.idctn(img, type=2, norm="ortho"))


def test_strided_views():
    for big in grids(40, 5):
        view = big[1::3, ::2]
        assert not view.flags.c_contiguous
        assert_matches_scipy(view)
        expected = scipy.fft.dctn(view, norm="ortho")
        b = big.copy()[1::3, ::2]
        assert _fft.dctn(b, overwrite=True) is b
        assert_same_bits(b, expected)
    # the public transforms return C-ordered grids for any layout
    image = np.asfortranarray(grids(40, 5)[0])
    assert dct2(image).flags.c_contiguous and idct2(image).flags.c_contiguous
    # a Fortran-ordered complex grid: each part is a strided view of its buffer
    c = np.asfortranarray(grids(40, 5)[1])
    assert_matches_scipy(c)
    for ours, theirs in ((_fft.dctn, scipy.fft.dctn), (_fft.idctn, scipy.fft.idctn)):
        expected = theirs(c, norm="ortho")
        b = c.copy(order="F")
        assert ours(b, overwrite=True) is b
        assert_same_bits(b, expected)


def unaligned_copy(a):
    out = np.zeros(a.nbytes + 1, np.uint8)[1:].view(a.dtype).reshape(a.shape)
    out[...] = a
    assert not out.flags.aligned
    return out


def test_unaligned_buffers():
    for a in grids(16, 6):
        assert_matches_scipy(unaligned_copy(a))
        assert_same_bits(_fft.fft2(unaligned_copy(a)), _fft.fft2(a))
    # as_image hands such a buffer on uncopied, so dct2 transforms it as it is
    real = grids(16, 6)[0]
    buffer = unaligned_copy(real)
    assert as_image(buffer) is buffer
    assert_same_bits(dct2(buffer), scipy.fft.dctn(real, norm="ortho"))
    assert_same_bits(idct2(buffer), scipy.fft.idctn(real, norm="ortho"))


def test_padded_takes_the_start_of_within_when_it_is_long_enough():
    # embed passes its output image: from side 8 up it holds the padded grid
    for side in (4, 8, 256):
        rows = side // 2
        size = rows * (side + _fft.ROW_PAD)
        within = np.full((side, side), np.nan)
        flat, grid = _fft.padded(rows, rows, within)
        # the pad floats are zero, so a scaling of the whole buffer meets no garbage
        assert not np.any(flat.reshape(rows, -1)[:, side:])
        assert flat.size == size and grid.shape == (rows, rows)
        assert grid.dtype == np.complex128 and not grid.flags.owndata
        assert np.shares_memory(flat, within) == (within.size >= size), side
        if within.size >= size:
            assert flat.ctypes.data == within.ctypes.data
        else:
            assert flat.flags.owndata
        flat[...] = np.arange(size)
        # each row of the grid is followed by ROW_PAD pad floats in flat
        assert np.array_equal(grid.view(np.float64),
                              np.arange(size).reshape(rows, -1)[:, :side])
