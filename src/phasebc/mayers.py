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

from .codestates import CodeParams, EigenSystem, _amplitudes, _signs, eigen_sigma
from .fock import FockOperator, FockVector

LAMBDA_FLOOR = 1e-14
KIT_T_LIMIT = 2.0
KIT_M_LIMIT = 8


class DegenerateEigenvalue(Exception):
    """An eigenvalue fell below the floor where 1/sqrt(lambda) is unusable."""


@dataclass(frozen=True)
class MayersKit:
    """Everything needed to run and verify the delayed-choice attack."""

    params: CodeParams
    eigen0: EigenSystem
    eigen1: EigenSystem
    purification0: FockVector     # (N+1)^2 amplitudes, A factor major
    purification1: FockVector
    U: FockOperator               # switching unitary on the truncated space
    povm0: tuple[FockOperator, ...]   # M projectors plus the remainder element
    povm1: tuple[FockOperator, ...]
    chi0: np.ndarray              # (M, N+1): povm0[m] projects onto chi0[m]
    chi1: np.ndarray
    discarded_mass: float

    @property
    def dim(self) -> int:
        return self.params.cutoff + 1

    def purification_matrix(self, b: int) -> np.ndarray:
        vec = self.purification1 if b else self.purification0
        d = self.dim
        return vec.amps.reshape(d, d)


def _sectors(b: int, params: CodeParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma_b's eigenvalues lambda_r; its normalized eigenvectors
    phi_{r,b}/sqrt(lambda_r) in one vector, zero on sectors at or below the
    floor; and the class r = n mod M of each photon number n."""
    values = eigen_sigma(b, params).values
    r = np.arange(params.cutoff + 1) % params.M
    kept = np.where(values > LAMBDA_FLOOR, values, np.inf)
    return values, _amplitudes(b, params) / np.sqrt(kept)[r], r


def build_purification(b: int, params: CodeParams,
                       drop_below_floor: bool = False) -> FockVector:
    """Rank-M purification sum_r lambda_r^{-1/2} phi_{r,b} (x) phi_{r,b}.

    Raises DegenerateEigenvalue when a sector eigenvalue is at or below the
    floor, unless drop_below_floor is set, in which case that sector is
    omitted (the vector then carries slightly less than unit norm).
    """
    values, unit, r = _sectors(b, params)
    low = values <= LAMBDA_FLOOR
    if low.any() and not drop_below_floor:
        first = int(np.argmax(low))
        raise DegenerateEigenvalue(
            f"lambda_{first} = {values[first]:.3e} at or below floor {LAMBDA_FLOOR}"
        )
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


def _projectors(chi: np.ndarray, cutoff: int) -> tuple[FockOperator, ...]:
    """Rank-1 projectors onto the rows of chi plus the remainder element."""
    elems = [FockOperator(cutoff, np.outer(c, c.conj())) for c in chi]
    total = sum(e.matrix for e in elems)
    elems.append(FockOperator(cutoff, np.eye(cutoff + 1, dtype=complex) - total))
    return tuple(elems)


def build_povm(params: CodeParams) -> tuple[tuple[FockOperator, ...], tuple[FockOperator, ...]]:
    """Both measurement families, each M rank-1 projectors plus a remainder."""
    chi0, chi1 = _povm_vectors(params)
    return _projectors(chi0, params.cutoff), _projectors(chi1, params.cutoff)


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
    eigen0 = eigen_sigma(0, params)
    eigen1 = eigen_sigma(1, params)
    discarded = float(eigen0.values[eigen0.values <= LAMBDA_FLOOR].sum())
    chi0, chi1 = _povm_vectors(params)
    return MayersKit(
        params=params,
        eigen0=eigen0,
        eigen1=eigen1,
        purification0=build_purification(0, params, drop_below_floor=True),
        purification1=build_purification(1, params, drop_below_floor=True),
        U=build_U(params),
        povm0=_projectors(chi0, params.cutoff),
        povm1=_projectors(chi1, params.cutoff),
        chi0=chi0,
        chi1=chi1,
        discarded_mass=discarded,
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

    Returns the M probabilities (uniform up to truncation) and the mass on
    the remainder element.
    """
    kit = build_kit(params)
    psi = kit.purification_matrix(b)
    rho_a = psi @ psi.conj().T
    povm = kit.povm1 if b else kit.povm0
    probs = np.array([float(np.trace(rho_a @ e.matrix).real) for e in povm])
    return probs[:-1], float(probs[-1])


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
    theta = 2.0 * math.pi * (np.arange(params.M) + b / 2.0) / params.M
    codes = _amplitudes(0, params) * np.exp(1j * np.outer(theta, np.arange(params.cutoff + 1)))
    fids = np.abs(codes.conj() @ cond) ** 2
    return float(fids.max()), int(fids.argmax())


def steering_table(b: int, params: CodeParams) -> dict[int, tuple[float, int]]:
    return {m: conditional_bob_state(m, b, params) for m in range(params.M)}


def verification_report(params: CodeParams) -> dict:
    """Full numeric verification document for one parameter point."""
    from .codestates import build_sigma  # local import keeps module load light

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
        povm = kit.povm1 if b else kit.povm0
        total = sum(e.matrix for e in povm)
        report[f"povm_completeness_residual_{b}"] = float(
            np.abs(total - np.eye(d)).max())
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
