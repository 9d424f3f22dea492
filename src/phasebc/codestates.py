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
from scipy.special import gammaln

from .fock import FockOperator, FockVector, coherent_vector, density_cutoff, poisson_weights


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


def _sigma_entries(params: CodeParams, b: int) -> np.ndarray:
    """<m|sigma_b|n> = e^{-t^2} t^{m+n}/sqrt(m! n!) e^{i pi b (m-n)/M} on the
    stride-M off-diagonals (m = n mod M), exactly zero elsewhere."""
    t, M, N = params.t, params.M, params.cutoff
    n = np.arange(N + 1)
    if t == 0.0:
        mat = np.zeros((N + 1, N + 1), dtype=complex)
        mat[0, 0] = 1.0
        return mat
    log_amp = -t * t / 2.0 + n * math.log(t) - 0.5 * gammaln(n + 1)
    radial = np.exp(log_amp[:, None] + log_amp[None, :])
    diff = n[:, None] - n[None, :]
    phase = np.exp(1j * math.pi * b * diff / M)
    mask = (diff % M) == 0
    mat = np.where(mask, radial * phase, 0.0 + 0.0j)
    return mat


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

    vectors[r] has amplitude e^{-t^2/2} t^{r+jM} e^{i pi b j}/sqrt((r+jM)!)
    at photon number r + jM; its squared norm is the eigenvalue.
    """
    _check_bit(b)
    t, M, N = params.t, params.M, params.cutoff
    vectors = []
    values = np.zeros(M)
    for r in range(M):
        amps = np.zeros(N + 1, dtype=complex)
        ns = np.arange(r, N + 1, M)
        if t == 0.0:
            if r == 0:
                amps[0] = 1.0
        else:
            js = (ns - r) // M
            log_amp = -t * t / 2.0 + ns * math.log(t) - 0.5 * gammaln(ns + 1)
            amps[ns] = np.exp(log_amp) * np.exp(1j * math.pi * b * js)
        values[r] = float(np.vdot(amps, amps).real)
        vectors.append(FockVector(N, amps))
    return EigenSystem(b, tuple(vectors), values)
