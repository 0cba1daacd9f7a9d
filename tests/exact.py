"""An exact reference for the Fresnel transfer factor, for the tests.

exact_factor's phases over pi, alpha * (k**2 + l**2) mod 2, are reduced in
Fraction arithmetic from the parameters' exact binary values, so the one
rounding left is that of the float exponential of each reduced phase:
within about 1e-15 of the true factor. It takes one Fraction step per
distinct k**2 + l**2, 0.05 s at N = 256.
"""
from fractions import Fraction

import numpy as np


def exact_alpha(side, params):
    return (Fraction(params.wavelength) * Fraction(params.distance)
            / (side * Fraction(params.pitch)) ** 2)


def exact_factor(side, params):
    """The side x side factor exp(-i pi alpha (k**2 + l**2)) of the forward
    transform, bin k being frequency +-k, as fftfreq gives it."""
    alpha = exact_alpha(side, params) % 2  # alpha * m mod 2 for integer m needs no more
    k = np.minimum(np.arange(side), side - np.arange(side))
    m, where = np.unique(k[:, None] ** 2 + k ** 2, return_inverse=True)
    # each phase over pi in [-1, 1), exactly, then rounded once
    turns = np.array([float((alpha * int(j) + 1) % 2 - 1) for j in m])
    return np.exp(-1j * np.pi * turns[where].reshape(side, side))
