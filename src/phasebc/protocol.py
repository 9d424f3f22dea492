"""Commit/open state machines for the two parties.

Alice encodes her bit in k coherent-state phases; Bob checks a reveal by
displacing each received mode back to vacuum and photon counting, and
accepts only an all-zeros count record.  Photon counting on coherent
states is simulated exactly by per-mode Poisson draws, so no density
matrices appear on this path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codestates import (_INT_TYPES, _check_bit, _check_count, _check_nonnegative,
                         _check_order, _check_probability, _check_transmittivity, code_phases)

# NumPy's Poisson sampler rejects a rate above int64 max - 10 sqrt(int64 max);
# the relative 1e-9 covers the rounding (a few ulps) by which a count's
# rate |sent - target|^2 can exceed 4E
POISSON_RATE_LIMIT = (float(np.iinfo(np.int64).max)
                      - 10.0 * math.sqrt(np.iinfo(np.int64).max)) * (1.0 - 1e-9)
# |sent - target| of a valid count is within a few ulps of sqrt(4E) and
# passes; any amplitude that passes squares to below the sampler's limit
_AMPLITUDE_LIMIT = math.sqrt(POISSON_RATE_LIMIT) * (1.0 + 1e-10)


class ProtocolAbort(Exception):
    """Raised when a message violates the protocol contract."""


@dataclass(frozen=True)
class ProtocolParams:
    """Session parameters agreed between the parties.

    energy is the *received* mean photon number per mode; tau is the
    channel transmittivity the sender pre-compensates for.  The sent modes
    carry E/tau, and a count's Poisson rate is at most 4E/tau (a reveal
    half a turn off), which must stay within NumPy's sampler range.
    """

    energy: float
    M: int
    k: int
    epsilon: float = 1e-2
    tau: float = 1.0

    def __post_init__(self):
        for name, value in (("energy", _check_nonnegative(self.energy, "energy")),
                            ("M", _check_order(self.M)), ("k", _check_count(self.k)),
                            ("epsilon", _check_probability(self.epsilon)),
                            ("tau", _check_transmittivity(self.tau))):
            object.__setattr__(self, name, value)
        if not 4.0 * self.energy / self.tau <= POISSON_RATE_LIMIT:  # also inf
            raise ValueError(
                f"4E/tau = {4.0 * self.energy / self.tau!r} exceeds the Poisson "
                f"sampler's limit {POISSON_RATE_LIMIT:.6g}")

    @property
    def t(self) -> float:
        return math.sqrt(self.energy)


@dataclass(frozen=True)
class Commitment:
    b: int
    m: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "b", _check_bit(self.b))
        m = tuple(self.m)
        if not set(map(type, m)) <= _INT_TYPES:
            raise ValueError(f"phase indices must be integers, got {m!r}")
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(self.counts)
        # exact integer types, so that 0.5 and True are refused, not read as 0 and 1
        if not set(map(type, counts)) <= _INT_TYPES:
            raise ValueError(f"photon counts must be integers, got {counts!r}")
        object.__setattr__(self, "counts", counts)
        if self.accepted != (not any(counts)):
            raise ValueError("verdict inconsistent with counts")


class QuantumPayload:
    """The k transmitted modes, sealed against direct inspection.

    The honest receiver interface is measurement-only: displace each mode
    by a chosen amplitude and count photons.  Raw amplitudes are reachable
    only through the module-private accessor used by the session runner
    (channel scaling, adversarial receivers in bound-validation runs).
    """

    __slots__ = ("_amps",)
    sealed = True

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("payload needs a non-empty amplitude vector")
        amps.setflags(write=False)
        self._amps = amps

    def __len__(self) -> int:
        return self._amps.size

    def count_after_displacement(self, displacements,
                                 rng: np.random.Generator) -> np.ndarray:
        """Displace mode j by displacements[j], then photon count each mode."""
        disp = np.asarray(displacements, dtype=np.complex128)
        if disp.shape != self._amps.shape:
            raise ProtocolAbort(
                f"displacement record length {disp.size} != payload length {len(self)}"
            )
        # compared before squaring, which overflows above about 1e154
        mag = np.abs(self._amps + disp)
        peak = mag.max()
        if not peak <= _AMPLITUDE_LIMIT:  # also NaN
            raise ProtocolAbort(f"displaced amplitude {peak:.6g} exceeds the Poisson "
                                f"sampler's limit {_AMPLITUDE_LIMIT:.6g}")
        return rng.poisson(mag * mag)  # bitwise mag ** 2

    def __repr__(self) -> str:
        return f"QuantumPayload(k={len(self)}, sealed={self.sealed})"


def _raw_amplitudes(payload: QuantumPayload) -> np.ndarray:
    # Runner-side accessor; strategies must not call this on sealed payloads.
    return payload._amps


def scale_payload(payload: QuantumPayload, factor: float) -> QuantumPayload:
    """Pure-loss channel action: every amplitude scaled by sqrt(tau)."""
    return QuantumPayload(_raw_amplitudes(payload) * factor)


def commit(b: int, params: ProtocolParams,
           rng: np.random.Generator) -> tuple[Commitment, QuantumPayload]:
    """Sample the phase string and prepare the pre-channel payload.

    Amplitudes carry energy E/tau so that the received energy is E after
    the sqrt(tau) channel scaling.
    """
    m = rng.integers(0, params.M, size=params.k)
    amp = math.sqrt(params.energy / params.tau)
    payload = QuantumPayload(amp * np.exp(1j * code_phases(m, b, params.M)))
    return Commitment(b, tuple(m.tolist())), payload


def expected_amplitudes(revealed_b: int, revealed_m, params: ProtocolParams) -> np.ndarray:
    """t exp(i theta_j) for the code phases theta = code_phases(m, b, M), in one array pass.

    A bad bit or phase index raises code_phases' ValueError.
    """
    return params.t * np.exp(1j * code_phases(revealed_m, revealed_b, params.M))


def bob_verify(payload: QuantumPayload, revealed: tuple[int, tuple[int, ...]],
               params: ProtocolParams, rng: np.random.Generator) -> Verdict:
    """Displace each mode back by the claimed code amplitude and count.

    Accepts only if every mode yields zero photons.
    """
    revealed_b, revealed_m = revealed
    if len(revealed_m) != len(payload):
        raise ProtocolAbort(
            f"reveal length {len(revealed_m)} != payload length {len(payload)}"
        )
    try:
        targets = expected_amplitudes(revealed_b, revealed_m, params)
    except ValueError as exc:
        raise ProtocolAbort(f"malformed reveal: {exc}") from exc
    counts = payload.count_after_displacement(-targets, rng)
    return Verdict(not counts.any(), tuple(counts.tolist()))


def cheat_open(commitment: Commitment, target_b: int) -> tuple[int, tuple[int, ...]]:
    """Optimal dishonest reveal: claim target_b but keep the committed phases.

    Keeping m unchanged maximizes the all-zeros probability; with
    target_b == commitment.b this is just the honest open.
    """
    return _check_bit(target_b), commitment.m


class AliceStrategy:
    """Commit-phase behavior plus the reveal rule; subclass to extend."""

    name = "abstract"

    def commitment_bit(self, params: ProtocolParams, rng: np.random.Generator) -> int:
        raise NotImplementedError

    def reveal(self, commitment: Commitment) -> tuple[int, tuple[int, ...]]:
        raise NotImplementedError


class HonestAlice(AliceStrategy):
    name = "honest"

    def __init__(self, b: int):
        self.b = _check_bit(b)

    def commitment_bit(self, params, rng):
        return self.b

    def reveal(self, commitment):
        return commitment.b, commitment.m


class CheatOpenAlice(AliceStrategy):
    """Commits to one bit, then opens the other with the optimal reveal."""

    name = "cheat-open"

    def __init__(self, commit_b: int):
        self.commit_b = _check_bit(commit_b)

    def commitment_bit(self, params, rng):
        return self.commit_b

    def reveal(self, commitment):
        return cheat_open(commitment, 1 - commitment.b)


class RandomBitAlice(AliceStrategy):
    """Honest behavior with a per-session uniformly random bit."""

    name = "honest-random"

    def commitment_bit(self, params, rng):
        return int(rng.integers(0, 2))

    def reveal(self, commitment):
        return commitment.b, commitment.m
