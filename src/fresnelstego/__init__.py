"""Hide a grayscale image inside a cover image.

The secret is carried as the real and imaginary parts of its complex
wave-propagated wavelet coefficients, scrambled into and out of the host
by a cat-map permutation and inserted into the DCT coefficients of the
host's wavelet bands. Recovery needs the original host plus the exact
key: propagation geometry, scrambling count, and strength.
"""

from .arnold import ArnoldSpec, period, scramble, unscramble
from .errors import (DataError, FormatError, KeyFileError, ParameterError,
                     ShapeError, StegoError, UndefinedCorrelationError)
from .formats import (default_key_path, load_key, parse_key_text, quantize_u8,
                      read_float_image, read_image, read_pgm,
                      write_float_image, write_image, write_pgm)
from .fresnel import FresnelParams, propagate, propagate_inverse
from .fresnelet import fresnelet_analyze, fresnelet_synthesize, magnitude
from .metrics import (DEFAULT_C1, DEFAULT_C2, MetricsReport, SsimBreakdown,
                      cc, compare, mse, psnr, psnr_from_mse, ssim)
from .numerics import ComplexGrid, ImageGrid, fft2, ifft2
from .stego_pipeline import EmbedResult, StegoKey, embed, extract
from .wavelet_dct import QuadBands, dct2, dwt2, idct2, idwt2

__version__ = "0.1.0"

__all__ = [
    "ArnoldSpec", "ComplexGrid", "DEFAULT_C1", "DEFAULT_C2",
    "DataError", "EmbedResult", "FormatError", "FresnelParams", "ImageGrid",
    "KeyFileError", "MetricsReport", "ParameterError", "QuadBands",
    "ShapeError", "SsimBreakdown", "StegoError", "StegoKey",
    "UndefinedCorrelationError", "cc", "compare", "dct2", "default_key_path",
    "dwt2", "embed", "extract", "fft2", "fresnelet_analyze",
    "fresnelet_synthesize", "idct2", "idwt2", "ifft2", "load_key",
    "magnitude", "mse", "parse_key_text", "period", "propagate",
    "propagate_inverse", "psnr", "psnr_from_mse", "quantize_u8",
    "read_float_image", "read_image", "read_pgm", "scramble", "ssim",
    "unscramble", "write_float_image", "write_image", "write_pgm",
]
