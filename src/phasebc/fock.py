"""Truncated single-mode Fock-space numerics.

Amplitude arrays on span{|0>, ..., |N>} as plain complex128 arrays, the
truncation policy for a given energy, and the Poisson photon-number weights
from which every coherent amplitude is built.  Everything here is a pure
function of its inputs.  The dense operators the package does not use
(density matrices, displacement, trace norm, Helstrom success) are test
oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# The most photon numbers a truncation may hold: a bounds report keeps about 46
# bytes per photon number up to the density cutoff, and peaks near 250 MB here.
_MAX_CUTOFF = 2 ** 22


def cutoff_for_energy(energy: float, tail_tol: float) -> int:
    """Smallest N whose Poisson(energy) tail beyond N is below tail_tol."""
    from .codestates import _check_nonnegative, _check_probability  # codestates imports fock

    energy = _check_nonnegative(energy, "energy")
    tail_tol = _check_probability(tail_tol, "tail_tol")
    # Bernstein: P(X >= E + d), P(X <= E - d) <= exp(-d^2 / (2 (E + d/3))) = e^-L
    # = tail_tol e^-37, below the tail's rounding: [lo, hi] holds the answer
    L = 37 - math.log(tail_tol)
    d = L / 3 + math.sqrt((L / 3) ** 2 + 2 * L * energy)
    if 2 * d > _MAX_CUTOFF:
        raise ValueError(f"energy {energy!r} needs over 2^22 photon numbers in its tail sum")
    lo, hi = max(0, math.floor(energy - d)), math.ceil(energy + d)
    # tails[i] = P(X >= lo + i), summed from the top, where the terms are least
    tails = np.cumsum(np.exp(_log_poisson_weights(energy, hi, lo))[::-1])[::-1]
    return lo + int(np.count_nonzero(tails[1:] >= tail_tol))


def density_cutoff(energy: float) -> int:
    """Truncation policy for density-matrix work: tail cutoff plus margin.

    The cutoff is at least E: the Poisson median is at least E - ln 2 and the
    margin adds at least 10, so an energy above the cap is refused unsummed.
    """
    from .codestates import _check_nonnegative  # codestates imports fock

    if _check_nonnegative(energy, "energy") > _MAX_CUTOFF:
        raise ValueError(f"energy {energy!r} needs a cutoff over 2^22")
    cutoff = cutoff_for_energy(energy, 1e-12) + math.ceil(6.0 * math.sqrt(energy)) + 10
    if cutoff > _MAX_CUTOFF:
        raise ValueError(f"energy {energy!r} needs a cutoff of {cutoff}, over 2^22")
    return cutoff


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


def _log_poisson_weights(energy: float, cutoff: int, start: int = 0) -> np.ndarray:
    """log(e^-E E^n / n!) for n = start..cutoff, -inf where the weight is 0:
    each photon-number weight is exp of it, each coherent amplitude exp of half.

    Loader's saddle-point form (C. Loader, "Fast and Accurate Computation of
    Binomial Probabilities", 2000; R's dpois): -E at n = 0, else
    -stirlerr(n) - bd0(n, E) - log(2 pi n)/2.  The direct -E + n log E - log n!
    cancels terms of size n log E and loses about 1e-9 relative at E = 1e6.
    bd0(n, E) = n log(n/E) + E - n would cancel too near n = E, so there it is
    summed as d v + 2 n v sum_j v^2j / (2j + 1) with d = n - E, v = d/(n + E).
    Every step runs in place: the cutoff reaches 4e6 under the CLI's cap.
    """
    out = np.empty(cutoff + 1 - start)
    first = max(start, 1)
    out[:first - start] = -energy  # n = 0, when the range holds it
    bd0 = out[first - start:]
    n = np.arange(float(first), cutoff + 1.0)
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
    # m log(E/m) with libm's log, as scipy's xlogy: np.log moves the last printed
    # bit of about 1 element in 2,000.  E/m falls, so its zeros (E = 0 or tiny) are last.
    logs = energy / m
    k = np.count_nonzero(logs)
    logs[:k] = np.fromiter(map(math.log, memoryview(logs[:k])), float, k)
    logs[k:] = -math.inf
    bd0[far] = energy - m - m * logs
    # stirlerr: the asymptotic series in 1/n^2, then the table up to 15
    u = np.reciprocal(n * n)
    stirlerr = u * (1.0 / 1188)
    for c in (1.0 / 1680, 1.0 / 1260, 1.0 / 360):
        np.subtract(c, stirlerr, out=stirlerr)
        stirlerr *= u
    np.subtract(1.0 / 12, stirlerr, out=stirlerr)
    stirlerr /= n
    stirlerr[:max(16 - first, 0)] = _STIRLERR[first - 1:cutoff]
    bd0 += stirlerr
    np.multiply(n, 2.0 * math.pi, out=stirlerr)
    np.log(stirlerr, out=stirlerr)
    stirlerr *= 0.5
    bd0 += stirlerr
    np.negative(bd0, out=bd0)
    return out


def coherent_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Amplitudes <n|alpha> of the coherent state |alpha> for n = 0..cutoff."""
    alpha = complex(alpha)
    radial = np.exp(_log_poisson_weights(abs(alpha) ** 2, cutoff) / 2.0)
    return radial * np.exp(1j * cmath.phase(alpha) * np.arange(cutoff + 1))


def poisson_weights(energy: float, cutoff: int) -> np.ndarray:
    """Photon number distribution e^-E E^n / n! for n = 0..cutoff."""
    return np.exp(_log_poisson_weights(energy, cutoff))
