"""State family of the phase-grid commitment scheme.

The sender encodes a bit b by picking a coherent amplitude t*exp(i*theta)
with theta on an M-point phase grid, offset by half a step when b = 1.
This module builds the uniform mixtures over the grid (the average code
states), the fully phase-averaged diagonal state, their difference, and
the eigensystem of the average code states grouped by photon-number
residue classes mod M.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import (FockOperator, FockVector, _log_poisson_weights, coherent_vector,
                   density_cutoff, poisson_weights)


@dataclass(frozen=True)
class CodeParams:
    """Field amplitude t (t^2 = received energy), grid order M, cutoff N."""

    t: float
    M: int
    cutoff: int

    def __post_init__(self):
        if not math.isfinite(self.t) or self.t < 0:
            raise ValueError(f"invalid amplitude t={self.t}")
        if self.M < 2:
            raise ValueError(f"modulation order M must be >= 2, got {self.M}")
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")

    @property
    def energy(self) -> float:
        return self.t * self.t

    @classmethod
    def from_energy(cls, energy: float, M: int) -> "CodeParams":
        return cls(math.sqrt(energy), M, density_cutoff(energy))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvectors and eigenvalues of an average code state.

    vectors[r] is sub-normalized with squared norm values[r]; its support
    is the photon-number residue class {r, r+M, r+2M, ...}.
    """

    b: int
    vectors: tuple[FockVector, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "vectors", tuple(self.vectors))

    def normalized_vector(self, r: int) -> np.ndarray:
        return self.vectors[r].amps / math.sqrt(self.values[r])


def _check_bit(b: int) -> int:
    if b not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {b}")
    return int(b)


def code_phase(m: int, b: int, M: int) -> float:
    """Phase angle 2*pi*(m + b/2)/M of the code amplitude."""
    _check_bit(b)
    if not 0 <= m < M:
        raise ValueError(f"phase index {m} outside [0, {M})")
    return 2.0 * math.pi * (m + b / 2.0) / M


def code_amplitude(m: int, b: int, t: float, M: int) -> complex:
    return t * cmath.exp(1j * code_phase(m, b, M))


def build_ideal_rho(t: float, cutoff: int) -> FockOperator:
    """Phase-averaged coherent state: diagonal Poisson mixture."""
    return FockOperator(cutoff, np.diag(poisson_weights(t * t, cutoff)).astype(complex))


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


def _amplitudes(b: int, params: CodeParams) -> np.ndarray:
    """sigma_b's eigenvector amplitudes at every photon number; class r of them
    is eigen_sigma's vectors[r]."""
    return np.exp(_log_poisson_weights(params.energy, params.cutoff) / 2.0) * _signs(b, params)


def _sigma_entries(params: CodeParams, b: int) -> np.ndarray:
    """<m|sigma_b|n> = e^{-t^2} t^{m+n}/sqrt(m! n!) (-1)^{b (m-n)/M} on the
    stride-M off-diagonals (m = n mod M), exactly zero elsewhere."""
    half = _log_poisson_weights(params.energy, params.cutoff) / 2.0
    signs = _signs(b, params)
    r = np.arange(params.cutoff + 1) % params.M
    return np.where(r[:, None] == r, np.outer(signs, signs) * np.exp(half[:, None] + half), 0.0)


def build_sigma(b: int, params: CodeParams) -> FockOperator:
    """Average code state for bit b from its explicit matrix elements."""
    _check_bit(b)
    return FockOperator(params.cutoff, _sigma_entries(params, b))


def build_sigma_mixture(b: int, params: CodeParams) -> FockOperator:
    """Same state built the defining way: uniform mixture of the M code states."""
    _check_bit(b)
    d = params.cutoff + 1
    acc = np.zeros((d, d), dtype=complex)
    for m in range(params.M):
        v = coherent_vector(code_amplitude(m, b, params.t, params.M), params.cutoff)
        acc += np.outer(v.amps, v.amps.conj())
    return FockOperator(params.cutoff, acc / params.M)


def build_D(params: CodeParams) -> FockOperator:
    """Difference between the phase-averaged state and sigma_0.

    The diagonals cancel exactly, leaving minus the stride-M off-diagonal
    part of sigma_0.
    """
    mat = -_sigma_entries(params, 0)
    np.fill_diagonal(mat, 0.0)
    return FockOperator(params.cutoff, mat)


def eigen_sigma(b: int, params: CodeParams) -> EigenSystem:
    """Eigendecomposition of sigma_b over photon-number residue classes.

    vectors[r] has amplitude e^{-t^2/2} t^{r+jM} (-1)^{b j}/sqrt((r+jM)!)
    at photon number r + jM; its squared norm is the eigenvalue.
    """
    _check_bit(b)
    M, N = params.M, params.cutoff
    amps = _amplitudes(b, params)
    per_class = np.where(np.arange(N + 1) % M == np.arange(M)[:, None], amps, 0.0)
    values = (_by_class(amps, M) ** 2).sum(axis=1)
    return EigenSystem(b, tuple(FockVector(N, v) for v in per_class), values)
