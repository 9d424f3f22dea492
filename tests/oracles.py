"""Dense forms that the package keeps only as vectors or class sums, rebuilt for tests."""

import math

import numpy as np

from phasebc.codestates import _check_bit, build_sigma, code_phases, eigen_sigma
from phasebc.fock import FockOperator, FockVector
from phasebc.mayers import build_kit


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
    report = {"t": params.t, "M": params.M, "cutoff": params.cutoff,
              "discarded_mass": kit.discarded_mass}
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
