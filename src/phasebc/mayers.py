"""Delayed-choice attack kit: purifications, switching unitary, POVMs.

A dishonest sender can hold a purification of the average code state and
postpone her bit choice.  This module builds the two purifications, the
unitary that switches between them, and the two measurement families that
steer the receiver's half onto code states, then verifies the whole
construction numerically in the truncated space.

Sector conventions.  The average code state for bit b has rank M; its
eigenvectors phi_{r,b} live on disjoint photon-number residue classes
r mod M.  The switching unitary is assembled from the b=1 eigenprojectors
(the only choice that maps the b=0 sectors onto the b=1 sectors), composed
with the half-step number-phase rotation R = exp(i pi n/M).  The second
POVM is obtained from the first by conjugation with R alone: R shifts the
measurement's phase grid by the half step that separates the two code
books, which is exactly what makes the receiver's conditional states land
on b=1 code states.  Conjugating with the full switching unitary instead
would cancel that half step and steer onto the wrong grid; the distinction
only matters for the conditional states, not for the outcome law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codestates import CodeParams, _check_bit, _signs, build_sigma, code_phases, eigen_sigma
from .fock import FockOperator, FockVector

LAMBDA_FLOOR = 1e-14
KIT_T_LIMIT = 2.0
KIT_M_LIMIT = 8


@dataclass(frozen=True)
class MayersKit:
    """Everything needed to run and verify the delayed-choice attack."""

    params: CodeParams
    purification0: FockVector     # (N+1)^2 amplitudes, A factor major
    purification1: FockVector
    U: FockOperator               # switching unitary on the truncated space
    chi0: np.ndarray              # (M, N+1): the b=0 measurement's |chi_m>, one per row
    chi1: np.ndarray
    discarded_mass: float

    @property
    def dim(self) -> int:
        return self.params.cutoff + 1

    def purification_matrix(self, b: int) -> np.ndarray:
        vec = self.purification1 if _check_bit(b) else self.purification0
        d = self.dim
        return vec.amps.reshape(d, d)


def _sectors(b: int, params: CodeParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma_b's eigenvalues lambda_r; its normalized eigenvectors
    phi_{r,b}/sqrt(lambda_r) in one vector, zero on sectors at or below the
    floor; and the class r = n mod M of each photon number n."""
    values, amps = eigen_sigma(b, params)
    r = np.arange(params.cutoff + 1) % params.M
    kept = np.where(values > LAMBDA_FLOOR, values, np.inf)
    return values, amps / np.sqrt(kept)[r], r


def build_purification(b: int, params: CodeParams) -> FockVector:
    """Rank-M purification sum_r lambda_r^{-1/2} phi_{r,b} (x) phi_{r,b}.

    A sector whose eigenvalue is at or below the floor is omitted, so the
    vector then carries slightly less than unit norm (the kit reports the
    discarded mass).
    """
    values, unit, r = _sectors(b, params)
    # lambda^{-1/2} phi phi^T is lambda^{1/2} times the normalized outer product
    psi = np.where(r[:, None] == r, np.outer(unit, unit * np.sqrt(values)[r]), 0.0)
    return FockVector(psi.size - 1, psi.reshape(-1))


def build_U(params: CodeParams) -> FockOperator:
    """Switching unitary: b=1 eigenprojector phases after the half-step rotation.

    Maps each normalized b=0 eigenvector onto its b=1 counterpart, hence
    conjugates sigma_0 into sigma_1 and sends one purification to the other
    when applied to both factors.  On class r the sector phase e^{-i pi r/M}
    and the rotation e^{i pi n/M} combine to (-1)^j at n = r + jM.
    """
    _, unit, r = _sectors(1, params)
    U = np.where(r[:, None] == r, np.outer(unit, unit * _signs(1, params)), 0.0)
    return FockOperator(params.cutoff, U)


def _povm_vectors(params: CodeParams) -> tuple[np.ndarray, np.ndarray]:
    """The vectors chi of both measurement families, one per row.

    The first family's vectors are discrete-Fourier combinations of the
    normalized b=0 eigenvectors; the second family's are their images under
    the half-step rotation (see the module docstring for why not the full
    switching unitary).
    """
    _, unit, r = _sectors(0, params)
    chi0 = np.exp(2j * math.pi * np.outer(np.arange(params.M), r) / params.M) * unit
    chi0 /= math.sqrt(params.M)
    chi1 = np.exp(1j * math.pi * np.arange(params.cutoff + 1) / params.M) * chi0
    # the kit is cached and shared between callers
    chi0.setflags(write=False)
    chi1.setflags(write=False)
    return chi0, chi1


@lru_cache(maxsize=8)
def build_kit(params: CodeParams) -> MayersKit:
    """Assemble and cache the full kit at desk scale.

    Amplitude and grid order are capped (the CLI rejects larger values).
    """
    if params.t > KIT_T_LIMIT or params.M > KIT_M_LIMIT:
        raise ValueError(
            f"kit restricted to t <= {KIT_T_LIMIT}, M <= {KIT_M_LIMIT} "
            f"(got t={params.t}, M={params.M})"
        )
    values = eigen_sigma(0, params)[0]
    chi0, chi1 = _povm_vectors(params)
    return MayersKit(
        params=params,
        purification0=build_purification(0, params),
        purification1=build_purification(1, params),
        U=build_U(params),
        chi0=chi0,
        chi1=chi1,
        discarded_mass=float(values[values <= LAMBDA_FLOOR].sum()),
    )


def switch_fidelities(params: CodeParams) -> tuple[float, float]:
    """(|<Phi_1|(1 x U)|Phi_0>|, |<Phi_1|(U x U)|Phi_0>|).

    The two-sided overlap is 1 up to truncation; the one-sided overlap is
    strictly below 1 and is reported, not asserted.
    """
    kit = build_kit(params)
    psi0 = kit.purification_matrix(0)
    psi1 = kit.purification_matrix(1)
    u = kit.U.matrix
    # (1 x U)|Phi_0> has matrix psi0 @ U^T; (U x U)|Phi_0> is U @ psi0 @ U^T
    one_sided = abs(np.vdot(psi1, psi0 @ u.T))
    two_sided = abs(np.vdot(psi1, u @ psi0 @ u.T))
    return float(one_sided), float(two_sided)


def outcome_distribution(b: int, params: CodeParams) -> tuple[np.ndarray, float]:
    """Outcome law of the bit-b measurement on the bit-b purification.

    Returns the M probabilities p_m = |psi^dagger chi_m|^2 (uniform up to
    truncation) and the mass |psi|^2 - sum p on the remainder element.
    """
    kit = build_kit(params)
    psi = kit.purification_matrix(b)
    probs = (np.abs((kit.chi1 if b else kit.chi0).conj() @ psi) ** 2).sum(axis=1)
    return probs, float(np.vdot(psi, psi).real - probs.sum())


def conditional_bob_state(m: int, b: int, params: CodeParams) -> tuple[float, int]:
    """Receiver's conditional state after the sender's outcome m.

    Returns the best fidelity against the M bit-b code states and the
    index achieving it.  The index map m -> m' is a bijection on [M].
    """
    kit = build_kit(params)
    if not 0 <= m < params.M:
        raise ValueError(f"outcome index {m} outside [0, {params.M})")
    psi = kit.purification_matrix(b)
    chi = (kit.chi1 if b else kit.chi0)[m]
    cond = psi.T @ chi.conj()
    nrm = np.linalg.norm(cond)
    if nrm == 0.0:
        raise ValueError("conditional state has zero mass")
    cond = cond / nrm
    # the M code states share one radial profile and differ in phase only
    theta = code_phases(np.arange(params.M), b, params.M)
    n = np.arange(params.cutoff + 1)
    codes = eigen_sigma(0, params)[1] * np.exp(1j * np.outer(theta, n))
    fids = np.abs(codes.conj() @ cond) ** 2
    return float(fids.max()), int(fids.argmax())


def steering_table(b: int, params: CodeParams) -> dict[int, tuple[float, int]]:
    return {m: conditional_bob_state(m, b, params) for m in range(params.M)}


def verification_report(params: CodeParams) -> dict:
    """Full numeric verification document for one parameter point."""
    kit = build_kit(params)
    d = kit.dim
    report: dict = {"t": params.t, "M": params.M, "cutoff": params.cutoff,
                    "discarded_mass": kit.discarded_mass}
    for b in (0, 1):
        psi = kit.purification_matrix(b)
        sigma = build_sigma(b, params).matrix
        marg_a = psi @ psi.conj().T
        marg_b = psi.T @ psi.conj()
        report[f"norm_{b}"] = float(np.linalg.norm(psi))
        report[f"marginal_a_residual_{b}"] = float(
            np.abs(np.linalg.eigvalsh(marg_a - sigma)).sum())
        report[f"marginal_b_residual_{b}"] = float(
            np.abs(np.linalg.eigvalsh(marg_b - sigma)).sum())
        chi = kit.chi1 if b else kit.chi0
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
    one_sided, two_sided = switch_fidelities(params)
    report["switch_fidelity_one_sided"] = one_sided
    report["switch_fidelity_two_sided"] = two_sided
    return report
