"""Delayed-choice attack kit in factored form, and its verification report.

A dishonest sender can hold a purification of the average code state and
postpone her bit choice.  The average code state sigma_b has rank M: its
eigenvectors phi_{r,b} live on the disjoint photon-number residue classes
r mod M, with eigenvalues lambda_r shared by both bits.  Every object of the
attack is block-diagonal over these classes, so the kit keeps only lambda_r
and the unit eigenvectors u_{r,b} = phi_{r,b}/sqrt(lambda_r), laid out over
photon numbers (u_{r,1} = (-1)^j u_{r,0} at n = r + jM):

  purification   |Phi_b> = sum_r sqrt(lambda_r) u_{r,b} (x) u_{r,b};
  switching      U = sum_r |u_{r,1}><u_{r,0}|, the b=1 eigenprojector phases
                 composed with the half-step rotation R = exp(i pi n/M);
  measurement    chi_m = M^{-1/2} sum_r e^{2 pi i m r/M} u_{r,0} for b=0,
                 and R chi_m for b=1.

The second measurement is the first conjugated with R alone: R shifts the
phase grid by the half step that separates the two code books, which is
what makes the receiver's conditional states land on b=1 code states.
Conjugating with the full switching unitary would cancel that half step.

A sector with lambda_r = 0 (a class with no photon number up to the cutoff,
or one whose weights underflow) has zero unit vectors and drops out of all of
them; every other sector is kept.  The report below evaluates each quantity
from the class sums in O(cutoff + M log M) time and memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codestates import CodeParams, _signs, eigen_sigma


@dataclass(frozen=True)
class MayersKit:
    """sigma_b's sectors, from which every object of the attack is built."""

    params: CodeParams
    values: np.ndarray    # lambda_r for r = 0..M-1, the same for both bits
    unit0: np.ndarray     # u_{r,0} at every photon number, zero where lambda_r = 0
    unit1: np.ndarray     # u_{r,1}, likewise


def build_kit(params: CodeParams) -> MayersKit:
    """The kit at any amplitude and grid order, in O(cutoff + M)."""
    values, amps = eigen_sigma(0, params)
    r = np.arange(params.cutoff + 1) % params.M
    unit0 = amps / np.sqrt(np.where(values > 0.0, values, np.inf))[r]
    return MayersKit(params, values, unit0, unit0 * _signs(1, params))


def _steering_map(ties: np.ndarray, b: int, M: int) -> np.ndarray:
    """For each outcome m, the smallest m' with m + m' + b mod M in ties.

    argmax over equal fidelities picks the first code state, so this is the
    index the receiver's conditional state is closest to.
    """
    c = (np.arange(M) + b) % M
    return np.append(ties, ties[0] + M)[np.searchsorted(ties, c)] - c


def verification_report(params: CodeParams) -> dict:
    """Numeric verification document for one parameter point.

    With K = sum of the lambda_r, and E_r, O_r the class-r Poisson mass at
    even and odd j in n = r + jM:
      - |Phi_b| = sqrt(K), and both marginals are sigma_b;
      - each outcome has probability K/M, leaving nothing on the remainder
        element, and each measurement sums to the identity with it;
      - |<Phi_1|(U x U)|Phi_0>| = K and |<Phi_1|(1 x U)|Phi_0>| =
        |sum_r (E_r - O_r)|;
      - after outcome m, the receiver's fidelity with code state m' is
        |Lambda_s|^2 / K, where Lambda is the length-M DFT of the lambda_r
        and s = m + m' + b mod M.
    """
    kit = build_kit(params)
    M = params.M
    mass = float(kit.values.sum())
    power = np.abs(np.fft.fft(kit.values)) ** 2
    best = power.max()
    ties = np.flatnonzero(power == best)
    r = np.arange(params.cutoff + 1) % M
    # lambda_r u_{r,0} u_{r,1} at n = r + jM is (-1)^j p_n
    one_sided = abs(float(np.dot(kit.values[r] * kit.unit0, kit.unit1)))
    # the literal zeros hold by construction and are not computed: the kit is
    # exactly P sigma_b P on the truncated space, so nothing is discarded and
    # both marginals are sigma_b; the POVM is rank-1 per residue class, and
    # each outcome has mass / M exactly
    report: dict = {"t": params.t, "M": M, "cutoff": params.cutoff,
                    "discarded_mass": 0.0}
    for b in (0, 1):
        report[f"norm_{b}"] = math.sqrt(mass)
        report[f"marginal_a_residual_{b}"] = 0.0
        report[f"marginal_b_residual_{b}"] = 0.0
        report[f"povm_completeness_residual_{b}"] = 0.0
        report[f"outcome_probs_{b}"] = [mass / M] * M
        report[f"outcome_remainder_{b}"] = 0.0
        report[f"steering_min_fidelity_{b}"] = float(best) / mass
        report[f"steering_map_{b}"] = _steering_map(ties, b, M).tolist()
        # each s in ties sends outcome s - b to m' = 0: one-to-one only for one tie
        report[f"steering_bijective_{b}"] = bool(ties.size == 1)
    report["switch_fidelity_one_sided"] = one_sided
    report["switch_fidelity_two_sided"] = mass
    return report
