"""References that only tests compare the package against: the dense
operator type, the dense forms of what the package keeps as vectors or
class sums, the closed-form and sampled acceptance laws of a fixed reveal
offset, and a transcript reader."""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from phasebc.codestates import _check_bit, _signs, code_phases, eigen_sigma
from phasebc.fock import (FockVector, _log_poisson_weights, _readonly, coherent_vector,
                          poisson_weights)
from phasebc.mayers import build_kit
from phasebc.transport import DecodeError, decode_line

# Numeric tolerances: double precision headroom over truncation error.
HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
TRACE_TOL = 1e-9


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


def outer(v):
    """|v><v| of a FockVector as a dense operator."""
    return FockOperator(v.cutoff, np.outer(v.amps, v.amps.conj()))


def assert_hermitian(op):
    defect = float(np.abs(op.matrix - op.matrix.conj().T).max())
    if defect > HERMITICITY_TOL:
        raise ValueError(f"operator is not hermitian (defect {defect:.3e})")


def assert_density(op):
    """Check hermiticity, positivity and unit trace of a density."""
    assert_hermitian(op)
    eigs = np.linalg.eigvalsh(op.matrix)
    if eigs.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"negative eigenvalue {eigs.min():.3e}")
    tr = float(np.trace(op.matrix).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr} deviates from 1")


def annihilation_matrix(cutoff):
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=np.float64)), k=1).astype(
        np.complex128
    )


def displacement_matrix(beta, cutoff):
    """Displacement operator on the truncated space.

    Built as the matrix exponential of the truncated generator
    beta*a^dag - conj(beta)*a.  Exact only in the limit of large cutoff;
    accurate on the low-photon-number subspace (see the unitarity checks
    in the tests).
    """
    from scipy.linalg import expm

    beta = complex(beta)
    a = annihilation_matrix(cutoff)
    gen = beta * a.conj().T - beta.conjugate() * a
    return FockOperator(cutoff, expm(gen))


def trace_norm(op):
    """Sum of absolute eigenvalues of a hermitian operator."""
    assert_hermitian(op)
    return float(np.abs(np.linalg.eigvalsh(op.matrix)).sum())


def helstrom_success(rho0, rho1):
    """Optimal success probability of discriminating two equiprobable states."""
    if rho0.cutoff != rho1.cutoff:
        raise ValueError("cutoff mismatch")
    assert_density(rho0)
    assert_density(rho1)
    diff = FockOperator(rho0.cutoff, rho0.matrix - rho1.matrix)
    return 0.5 + trace_norm(diff) / 4.0


def stellar_coefficients(v):
    """c_n / sqrt(n!) for n = 0..cutoff, with log n! from scipy's log-gamma
    instead of the package's Poisson kernel."""
    return np.asarray(v.amps) * np.exp(-0.5 * gammaln(np.arange(v.cutoff + 1) + 1))


# The code states as dense matrices

def build_ideal_rho(t, cutoff):
    """Phase-averaged coherent state: diagonal Poisson mixture."""
    return FockOperator(cutoff, np.diag(poisson_weights(t * t, cutoff)).astype(complex))


def _sigma_entries(params, b):
    """<m|sigma_b|n> = e^{-t^2} t^{m+n}/sqrt(m! n!) (-1)^{b (m-n)/M} on the
    stride-M off-diagonals (m = n mod M), exactly zero elsewhere."""
    half = _log_poisson_weights(params.energy, params.cutoff) / 2.0
    signs = _signs(b, params)
    r = np.arange(params.cutoff + 1) % params.M
    return np.where(r[:, None] == r, np.outer(signs, signs) * np.exp(half[:, None] + half), 0.0)


def build_sigma(b, params):
    """Average code state for bit b from its explicit matrix elements."""
    _check_bit(b)
    return FockOperator(params.cutoff, _sigma_entries(params, b))


def build_sigma_mixture(b, params):
    """Same state built the defining way: uniform mixture of the M code states."""
    d = params.cutoff + 1
    acc = np.zeros((d, d), dtype=complex)
    for m in range(params.M):
        amp = params.t * cmath.exp(1j * float(code_phases(m, b, params.M)))
        v = coherent_vector(amp, params.cutoff)
        acc += np.outer(v.amps, v.amps.conj())
    return FockOperator(params.cutoff, acc / params.M)


def build_D(params):
    """Difference between the phase-averaged state and sigma_0.

    The diagonals cancel exactly, leaving minus the stride-M off-diagonal
    part of sigma_0.
    """
    mat = -_sigma_entries(params, 0)
    np.fill_diagonal(mat, 0.0)
    return FockOperator(params.cutoff, mat)


# Acceptance laws of the displace-and-count check, without sessions

def residual_energies(params, delta_m, committed_b, revealed_b):
    """Per-mode residual energy 4E sin^2(pi (dm + (b - b_hat)/2) / M)."""
    dm = np.atleast_1d(np.asarray(delta_m, dtype=np.float64))
    half = (committed_b - revealed_b) / 2.0
    s = np.sin(math.pi * (dm + half) / params.M)
    return 4.0 * params.energy * s * s


def _per_mode_energies(params, delta_m, committed_b, revealed_b):
    energies = residual_energies(params, delta_m, committed_b, revealed_b)
    if energies.size == 1:
        return np.full(params.k, float(energies[0]))
    if energies.size != params.k:
        raise ValueError(f"offset pattern length {energies.size} != k={params.k}")
    return energies


def acceptance_probability(params, delta_m, committed_b, revealed_b):
    """Closed-form all-zeros probability for a fixed reveal offset pattern.

    A scalar delta_m applies to every mode.
    """
    return float(np.exp(-_per_mode_energies(params, delta_m, committed_b,
                                            revealed_b).sum()))


def mc_acceptance(params, delta_m, committed_b, revealed_b, trials, rng):
    """Monte-Carlo acceptance frequency for a fixed reveal offset pattern.

    Draws the actual per-mode Poisson counts, exactly as bob_verify does,
    vectorized over trials.
    """
    lam = _per_mode_energies(params, delta_m, committed_b, revealed_b)
    counts = rng.poisson(np.broadcast_to(lam, (trials, params.k)))
    return float(np.all(counts == 0, axis=1).mean())


def pca_approx(energy, k, M):
    """Large-M expansion 1 - E k pi^2 / M^2 of the opening-attack probability."""
    return 1.0 - energy * k * math.pi ** 2 / (M * M)


# The eigensystem and measurements as dense objects


def class_vectors(b, params):
    """sigma_b's sub-normalized eigenvectors, one FockVector per residue class."""
    _, amps = eigen_sigma(b, params)
    r = np.arange(params.cutoff + 1) % params.M
    return tuple(FockVector(params.cutoff, np.where(r == s, amps, 0.0))
                 for s in range(params.M))


def normalized_vector(b, params, r):
    """sigma_b's unit eigenvector on residue class r."""
    values, amps = eigen_sigma(b, params)
    on_class = np.arange(params.cutoff + 1) % params.M == r
    return np.where(on_class, amps, 0.0) / np.sqrt(values[r])


def projectors(chi, cutoff):
    """Rank-1 projectors onto the rows of chi plus the remainder element."""
    elems = [FockOperator(cutoff, np.outer(c, c.conj())) for c in chi]
    total = sum(e.matrix for e in elems)
    elems.append(FockOperator(cutoff, np.eye(cutoff + 1, dtype=complex) - total))
    return tuple(elems)


def helstrom_projector(bob):
    """The dense projector of a HelstromBob: the sum of its per-class |u_r><u_r|."""
    r = np.arange(bob.u.size) % bob._M
    return np.where(r[:, None] == r, np.outer(bob.u, bob.u), 0.0)


# The Mayers kit's dense objects, rebuilt from its factored form

def purification_matrix(kit, b):
    """|Phi_b> as a complex (N+1) x (N+1) matrix, A factor major:
    sqrt(lambda_r) u_{r,b} u_{r,b}^T on each kept class r."""
    unit = kit.unit1 if _check_bit(b) else kit.unit0
    r = np.arange(kit.params.cutoff + 1) % kit.params.M
    psi = np.where(r[:, None] == r, np.outer(unit, unit * np.sqrt(kit.values)[r]), 0.0)
    return psi.astype(complex)


def build_purification(b, params):
    """|Phi_b> as one FockVector of (N+1)^2 amplitudes."""
    psi = purification_matrix(build_kit(params), b)
    return FockVector(psi.size - 1, psi.reshape(-1))


def build_U(params):
    """Switching unitary sum_r |u_{r,1}><u_{r,0}| as a dense operator."""
    kit = build_kit(params)
    r = np.arange(params.cutoff + 1) % params.M
    return FockOperator(params.cutoff, np.where(r[:, None] == r,
                                                np.outer(kit.unit1, kit.unit0), 0.0))


def povm_vectors(kit, b):
    """The bit-b measurement's |chi_m>, one per row, shape (M, N+1)."""
    M = kit.params.M
    n = np.arange(kit.params.cutoff + 1)
    chi = np.exp(2j * math.pi * np.outer(np.arange(M), n % M) / M) * kit.unit0
    chi /= math.sqrt(M)
    return np.exp(1j * math.pi * n / M) * chi if _check_bit(b) else chi


def dense_povm(kit, b):
    """The bit-b measurement family of a Mayers kit as dense operators."""
    return projectors(povm_vectors(kit, b), kit.params.cutoff)


def switch_fidelities(params):
    """(|<Phi_1|(1 x U)|Phi_0>|, |<Phi_1|(U x U)|Phi_0>|)."""
    kit = build_kit(params)
    psi0 = purification_matrix(kit, 0)
    psi1 = purification_matrix(kit, 1)
    u = build_U(params).matrix
    # (1 x U)|Phi_0> has matrix psi0 @ U^T; (U x U)|Phi_0> is U @ psi0 @ U^T
    return (float(abs(np.vdot(psi1, psi0 @ u.T))),
            float(abs(np.vdot(psi1, u @ psi0 @ u.T))))


def outcome_distribution(b, params):
    """The M probabilities |psi^dagger chi_m|^2 of the bit-b measurement on
    |Phi_b>, and the mass |psi|^2 - sum p on the remainder element."""
    kit = build_kit(params)
    psi = purification_matrix(kit, b)
    probs = (np.abs(povm_vectors(kit, b).conj() @ psi) ** 2).sum(axis=1)
    return probs, float(np.vdot(psi, psi).real - probs.sum())


def conditional_bob_state(m, b, params):
    """Best fidelity of the receiver's state after outcome m against the M
    bit-b code states, and the first index achieving it."""
    kit = build_kit(params)
    cond = purification_matrix(kit, b).T @ povm_vectors(kit, b)[m].conj()
    cond = cond / np.linalg.norm(cond)
    # the M code states share one radial profile and differ in phase only
    theta = code_phases(np.arange(params.M), b, params.M)
    n = np.arange(params.cutoff + 1)
    codes = eigen_sigma(0, params)[1] * np.exp(1j * np.outer(theta, n))
    fids = np.abs(codes.conj() @ cond) ** 2
    return float(fids.max()), int(fids.argmax())


def steering_table(b, params):
    """conditional_bob_state for every outcome m."""
    return {m: conditional_bob_state(m, b, params) for m in range(params.M)}


def dense_report(params):
    """The Mayers verification report from the dense objects above."""
    kit = build_kit(params)
    d = params.cutoff + 1
    # the mass of sigma_0 that the purification leaves out: trace(sigma_0) - |psi_0|^2
    discarded = (np.trace(build_sigma(0, params).matrix).real
                 - np.linalg.norm(purification_matrix(kit, 0)) ** 2)
    report = {"t": params.t, "M": params.M, "cutoff": params.cutoff,
              "discarded_mass": float(discarded)}
    for b in (0, 1):
        psi = purification_matrix(kit, b)
        sigma = build_sigma(b, params).matrix
        report[f"norm_{b}"] = float(np.linalg.norm(psi))
        report[f"marginal_a_residual_{b}"] = float(
            np.abs(np.linalg.eigvalsh(psi @ psi.conj().T - sigma)).sum())
        report[f"marginal_b_residual_{b}"] = float(
            np.abs(np.linalg.eigvalsh(psi.T @ psi.conj() - sigma)).sum())
        chi = povm_vectors(kit, b)
        total = chi.T @ chi.conj()  # sum of the M projectors; the remainder is 1 - total
        report[f"povm_completeness_residual_{b}"] = float(
            np.abs(total + (np.eye(d) - total) - np.eye(d)).max())
        probs, rest = outcome_distribution(b, params)
        report[f"outcome_probs_{b}"] = [float(p) for p in probs]
        report[f"outcome_remainder_{b}"] = rest
        table = steering_table(b, params)
        report[f"steering_min_fidelity_{b}"] = min(f for f, _ in table.values())
        report[f"steering_map_{b}"] = [table[m][1] for m in range(params.M)]
        report[f"steering_bijective_{b}"] = sorted(
            mp for _, mp in table.values()) == list(range(params.M))
    report["switch_fidelity_one_sided"], report["switch_fidelity_two_sided"] = (
        switch_fidelities(params))
    return report


def decode_stream(data):
    """The messages of a transcript's bytes, line by line; a DecodeError
    names the byte offset of the line it came from."""
    messages = []
    offset = 0
    for line in data.split(b"\n"):
        if line:
            try:
                messages.append(decode_line(line))
            except DecodeError as exc:
                raise DecodeError(f"{exc} (byte offset {offset})") from exc
        offset += len(line) + 1
    return messages
