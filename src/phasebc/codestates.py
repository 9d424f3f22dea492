"""State family of the phase-grid commitment scheme.

The sender encodes a bit b by picking a coherent amplitude t*exp(i*theta)
with theta on an M-point phase grid, offset by half a step when b = 1.
This module holds the rules of the parameter domain, the code book (the
phase of each grid index) and the eigensystem of the average code states
sigma_b, the uniform mixtures over the grid, grouped by photon-number
residue classes mod M.  The dense sigma_b, the phase-averaged state and
their difference are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .fock import _log_poisson_weights, density_cutoff


# Python and NumPy integer types, matched exactly so that bool is not one
_INT_TYPES = frozenset({int} | {t for t in np.sctypeDict.values()
                                if issubclass(t, np.integer) and t is not np.timedelta64})
# Python and NumPy float types; bool and the integer types are not among them
_FLOAT_TYPES = frozenset({float} | {t for t in np.sctypeDict.values()
                                    if issubclass(t, np.floating)})
# a real is one of these exact types, so bools and strings are refused
_REAL_TYPES = _INT_TYPES | _FLOAT_TYPES
# commit draws indices with rng.integers(0, M), whose int64 high is at most 2**63
_MAX_ORDER = 2 ** 63


def _double(x) -> float:
    """A real as a Python float; NaN for a non-real or an int beyond the double range."""
    real = type(x) in _FLOAT_TYPES or (type(x) in _INT_TYPES
                                       and -sys.float_info.max <= x <= sys.float_info.max)
    return float(x) if real else math.nan


# The domain of both security bounds, one rule each.  A rule returns the value it
# checked as a Python int or float, which callers keep, so NumPy scalars do not
# wrap, overflow or lose precision downstream.  Comparisons refuse NaN.
def _check_nonnegative(x, name: str) -> float:
    """An amplitude t or an energy E: a finite real >= 0."""
    if not 0 <= (value := _double(x)) < math.inf:
        raise ValueError(f"{name} must be a finite number >= 0, got {x!r}")
    return value


def _check_order(M, name: str = "modulation order") -> int:
    """A grid order M: an exact integer in 2..2**63."""
    if type(M) not in _INT_TYPES or not 2 <= M <= _MAX_ORDER:
        raise ValueError(f"{name} must be an integer in 2..2**63, got {M!r}")
    return int(M)


def _check_count(k, name: str = "repetition count") -> int:
    """A repetition count k: an exact integer >= 1 that converts to a double,
    since the bounds multiply k into one."""
    if type(k) not in _INT_TYPES or not 1 <= k <= sys.float_info.max:
        raise ValueError(f"{name} must be an integer >= 1 in the double range, got {k!r}")
    return int(k)


def _check_probability(p, name: str = "epsilon") -> float:
    """A security parameter or tolerance: a real in (0, 1)."""
    if not 0 < (value := _double(p)) < 1:
        raise ValueError(f"{name} must be a number in (0, 1), got {p!r}")
    return value


def _check_transmittivity(tau) -> float:
    """A channel transmittivity: a real in (0, 1]."""
    if not 0 < (value := _double(tau)) <= 1:
        raise ValueError(f"transmittivity must be a number in (0, 1], got {tau!r}")
    return value


@dataclass(frozen=True)
class CodeParams:
    """Field amplitude t (t^2 = received energy), grid order M, cutoff N."""

    t: float
    M: int
    cutoff: int

    def __post_init__(self):
        object.__setattr__(self, "t", _check_nonnegative(self.t, "amplitude t"))
        object.__setattr__(self, "M", _check_order(self.M))
        if type(self.cutoff) not in _INT_TYPES or self.cutoff < 0:
            raise ValueError(f"cutoff must be a non-negative integer, got {self.cutoff!r}")
        object.__setattr__(self, "cutoff", int(self.cutoff))

    @property
    def energy(self) -> float:
        return self.t * self.t

    @classmethod
    def from_energy(cls, energy: float, M: int) -> "CodeParams":
        return cls(math.sqrt(energy), M, density_cutoff(energy))


def _check_bit(b: int) -> int:
    if type(b) not in _INT_TYPES or b not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {b}")
    return int(b)


def code_phases(m, b: int, M: int) -> np.ndarray:
    """Phase angles 2*pi*(m + b/2)/M of the code amplitudes, elementwise over
    integer indices m in [0, M): a float, bool or string index raises
    ValueError instead of being truncated."""
    seq, m = m, np.asarray(m)
    if m.dtype.kind not in "iu":  # signed or unsigned integers; bool is "b"
        raise ValueError(f"phase indices need an integer dtype, got {m.dtype}")
    # NumPy reads [0, True] as int64, so a sequence's elements are typed one by one
    if m.ndim and m is not seq and not set(map(type, seq)) <= _INT_TYPES:
        raise ValueError(f"phase indices must be integers, got {seq!r}")
    b = _check_bit(b)
    outside = (m < 0) | (m >= M)
    if np.count_nonzero(outside):  # cheaper than .any() on short arrays
        raise ValueError(f"phase index {m[outside][0]} outside [0, {M})")
    return _phase_angles(m, b, M)


def _phase_angles(m: np.ndarray, b: int, M: int) -> np.ndarray:
    """code_phases without its checks, for an integer array m in [0, M) and a bit b."""
    return 2.0 * math.pi * (m + b / 2.0) / M


def _by_class(values: np.ndarray, M: int) -> np.ndarray:
    """Photon-number values in class-major layout, shape (M, ceil(len/M)).

    Row r holds the values at r, r+M, r+2M, ..., zero-padded past the end.
    """
    padded = np.zeros(-(-values.size // M) * M, dtype=values.dtype)
    padded[: values.size] = values
    return padded.reshape(-1, M).T


def _signs(b: int, params: CodeParams) -> np.ndarray:
    """(-1)^{b j} at photon number r + jM: the phase e^{i pi b j} of sigma_b, exactly."""
    return 1 - 2 * (b * (np.arange(params.cutoff + 1) // params.M) % 2)


def eigen_sigma(b: int, params: CodeParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of sigma_b over photon-number residue classes.

    Returns (values, amps): amps[n] = e^{-t^2/2} t^n (-1)^{b j}/sqrt(n!) at
    n = r + jM, so the class-r part of amps is the eigenvector for
    values[r], its squared norm.
    """
    weights = _log_poisson_weights(params.energy, params.cutoff)
    amps = np.exp(weights / 2.0) * _signs(_check_bit(b), params)
    return (_by_class(amps, params.M) ** 2).sum(axis=1), amps
