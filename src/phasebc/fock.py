"""Truncated single-mode Fock-space numerics.

Dense complex linear algebra on span{|0>, ..., |N>}: coherent states,
displacement operators, trace norm, Helstrom discrimination, photon
counting, tensor products and partial traces.  Everything here is a pure
function of its inputs; stochastic operations take an explicit seeded
``numpy.random.Generator``, so identical seeds give identical results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, xlogy

# Numeric tolerances: double precision headroom over truncation error.
HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
TRACE_TOL = 1e-9
NORM_SLACK = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FockVector:
    """Complex amplitude vector on the truncated number basis.

    Sub-normalized vectors are allowed (truncations of normalized states);
    the squared norm may not exceed 1 beyond rounding slack.
    """

    cutoff: int
    amps: np.ndarray

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.shape != (self.cutoff + 1,):
            raise ValueError(
                f"expected {self.cutoff + 1} amplitudes, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        n2 = float(np.vdot(amps, amps).real)
        if n2 > 1.0 + NORM_SLACK:
            raise ValueError(f"squared norm {n2} exceeds 1")
        object.__setattr__(self, "amps", _readonly(amps))

    @property
    def dim(self) -> int:
        return self.cutoff + 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def inner(self, other: "FockVector") -> complex:
        if other.cutoff != self.cutoff:
            raise ValueError("cutoff mismatch")
        return complex(np.vdot(self.amps, other.amps))

    def outer(self) -> "FockOperator":
        return FockOperator(self.cutoff, np.outer(self.amps, self.amps.conj()))


@dataclass(frozen=True)
class FockOperator:
    """Dense complex matrix on the truncated number basis."""

    cutoff: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        m = np.array(self.matrix, dtype=np.complex128)
        d = self.cutoff + 1
        if m.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def dim(self) -> int:
        return self.cutoff + 1

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


def assert_hermitian(op: FockOperator) -> None:
    defect = float(np.abs(op.matrix - op.matrix.conj().T).max())
    if defect > HERMITICITY_TOL:
        raise ValueError(f"operator is not hermitian (defect {defect:.3e})")


def assert_density(op: FockOperator) -> None:
    """Check hermiticity, positivity and unit trace of a density."""
    assert_hermitian(op)
    eigs = np.linalg.eigvalsh(op.matrix)
    if eigs.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"negative eigenvalue {eigs.min():.3e}")
    tr = float(np.trace(op.matrix).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr} deviates from 1")


def cutoff_for_energy(energy: float, tail_tol: float) -> int:
    """Smallest N whose Poisson(energy) tail beyond N is below tail_tol."""
    if not math.isfinite(energy) or energy < 0:
        raise ValueError(f"invalid energy {energy}")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    if energy == 0.0:
        return 0
    # P(X > n) for Poisson(E) is the regularized lower incomplete gamma,
    # decreasing in n: bracket the first n below tail_tol, then bisect.
    # Invariant: P(X > lo) >= tail_tol > P(X > hi); P(X > -1) = 1.
    lo, hi = -1, math.ceil(energy) + 1
    while gammainc(hi + 1, energy) >= tail_tol:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gammainc(mid + 1, energy) >= tail_tol:
            lo = mid
        else:
            hi = mid
    return hi


def density_cutoff(energy: float) -> int:
    """Truncation policy for density-matrix work: tail cutoff plus margin."""
    return cutoff_for_energy(energy, 1e-12) + math.ceil(6.0 * math.sqrt(energy)) + 10


# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 1..15, from mpmath
# at 40 digits; above 15 its asymptotic series is exact to double precision
_STIRLERR = np.array([
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_BD0_TERMS = 18  # the series below runs for |v| < 1/3, and (1/3)^36 < 1e-17


def _log_poisson_weights(energy: float, cutoff: int) -> np.ndarray:
    """log(e^-E E^n / n!) for n = 0..cutoff, -inf where the weight is 0: every
    photon-number weight is exp of it and every coherent amplitude exp of half.

    Loader's saddle-point form (C. Loader, "Fast and Accurate Computation of
    Binomial Probabilities", 2000; R's dpois): -E at n = 0, else
    -stirlerr(n) - bd0(n, E) - log(2 pi n)/2.  The direct -E + n log E - log n!
    cancels terms of size n log E and loses about 1e-9 relative at E = 1e6.
    bd0(n, E) = n log(n/E) + E - n would cancel too near n = E, so there it is
    summed as d v + 2 n v sum_j v^2j / (2j + 1) with d = n - E, v = d/(n + E).
    Every step runs in place: the cutoff reaches 4e6 under the CLI's cap.
    """
    out = np.empty(cutoff + 1)
    out[0] = -energy
    bd0 = out[1:]
    n = np.arange(1.0, cutoff + 1.0)
    dv = n - energy
    v = n + energy
    np.divide(dv, v, out=v)
    dv *= v
    v2 = v * v
    bd0.fill(1.0 / (2 * _BD0_TERMS + 1))
    for j in range(_BD0_TERMS - 1, 0, -1):
        bd0 *= v2
        bd0 += 1.0 / (2 * j + 1)
    bd0 *= v2
    bd0 *= v
    bd0 *= n
    bd0 *= 2.0
    bd0 += dv
    far = np.abs(v, out=v2) >= 1.0 / 3.0
    del dv, v, v2
    m = n[far]
    # E/m, not m/E: at E = 0 the weight is exactly 0 with no division by zero
    bd0[far] = energy - m - xlogy(m, energy / m)
    # stirlerr: the asymptotic series in 1/n^2, then the table up to 15
    u = np.reciprocal(n * n)
    stirlerr = u * (1.0 / 1188)
    for c in (1.0 / 1680, 1.0 / 1260, 1.0 / 360):
        np.subtract(c, stirlerr, out=stirlerr)
        stirlerr *= u
    np.subtract(1.0 / 12, stirlerr, out=stirlerr)
    stirlerr /= n
    stirlerr[:15] = _STIRLERR[:cutoff]
    bd0 += stirlerr
    np.multiply(n, 2.0 * math.pi, out=stirlerr)
    np.log(stirlerr, out=stirlerr)
    stirlerr *= 0.5
    bd0 += stirlerr
    np.negative(bd0, out=bd0)
    return out


def coherent_vector(alpha: complex, cutoff: int) -> FockVector:
    """Coherent state |alpha> truncated at the given photon number."""
    alpha = complex(alpha)
    radial = np.exp(_log_poisson_weights(abs(alpha) ** 2, cutoff) / 2.0)
    return FockVector(cutoff, radial * np.exp(1j * cmath.phase(alpha) * np.arange(cutoff + 1)))


def poisson_weights(energy: float, cutoff: int) -> np.ndarray:
    """Photon number distribution e^-E E^n / n! for n = 0..cutoff."""
    return np.exp(_log_poisson_weights(energy, cutoff))


def overlap_prob(alpha: complex, beta: complex) -> float:
    """|<alpha|beta>|^2 = exp(-|alpha-beta|^2) for coherent states."""
    return math.exp(-abs(complex(alpha) - complex(beta)) ** 2)


def annihilation_matrix(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=np.float64)), k=1).astype(
        np.complex128
    )


def displacement_matrix(beta: complex, cutoff: int) -> FockOperator:
    """Displacement operator on the truncated space.

    Built as the matrix exponential of the truncated generator
    beta*a^dag - conj(beta)*a.  Exact only in the limit of large cutoff;
    accurate on the low-photon-number subspace (see the unitarity checks
    in the tests).
    """
    from scipy.linalg import expm  # only caller; keeps scipy.linalg off the import path

    beta = complex(beta)
    a = annihilation_matrix(cutoff)
    gen = beta * a.conj().T - beta.conjugate() * a
    return FockOperator(cutoff, expm(gen))


def trace_norm(op: FockOperator) -> float:
    """Sum of absolute eigenvalues of a hermitian operator."""
    assert_hermitian(op)
    return float(np.abs(np.linalg.eigvalsh(op.matrix)).sum())


def helstrom_success(rho0: FockOperator, rho1: FockOperator) -> float:
    """Optimal success probability of discriminating two equiprobable states."""
    if rho0.cutoff != rho1.cutoff:
        raise ValueError("cutoff mismatch")
    assert_density(rho0)
    assert_density(rho1)
    diff = FockOperator(rho0.cutoff, rho0.matrix - rho1.matrix)
    return 0.5 + trace_norm(diff) / 4.0


def sample_photon_count(alpha: complex, rng: np.random.Generator) -> int:
    """Photon-number measurement on |alpha>: Poisson with mean |alpha|^2."""
    return int(rng.poisson(abs(complex(alpha)) ** 2))


def tensor_vectors(vectors: list[FockVector]) -> FockVector:
    if not vectors:
        raise ValueError("empty tensor product")
    amps = vectors[0].amps
    for v in vectors[1:]:
        amps = np.kron(amps, v.amps)
    return FockVector(amps.shape[0] - 1, amps)


def tensor_operators(ops: list[FockOperator]) -> FockOperator:
    if not ops:
        raise ValueError("empty tensor product")
    m = ops[0].matrix
    for op in ops[1:]:
        m = np.kron(m, op.matrix)
    return FockOperator(m.shape[0] - 1, m)


def partial_trace(op: FockOperator, dims: tuple[int, int],
                  keep: int) -> FockOperator:
    """Reduce a bipartite operator to the kept subsystem (0 = first)."""
    d0, d1 = dims
    if d0 * d1 != op.dim:
        raise ValueError(f"dims {dims} incompatible with dimension {op.dim}")
    if keep not in (0, 1):
        raise ValueError("keep must be 0 or 1")
    m = op.matrix.reshape(d0, d1, d0, d1)
    if keep == 0:
        red = np.einsum("ikjk->ij", m)
        return FockOperator(d0 - 1, red)
    red = np.einsum("kikj->ij", m)
    return FockOperator(d1 - 1, red)
