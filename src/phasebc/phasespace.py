"""Phase-space views of the code states.

Wigner grids for mixtures of coherent states (a Gaussian bump per mixture
point, normalized to unit integral) and the stellar polynomial of a
truncated state, whose root at the origin has multiplicity r for the
class-r eigenvector of the average code state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .codestates import CodeParams, _check_order, _double, code_phases
from .fock import FockVector, _log_poisson_weights


@dataclass(frozen=True)
class GridSpec:
    x_range: tuple[float, float]
    p_range: tuple[float, float]
    points: int = 201

    def __post_init__(self):
        object.__setattr__(self, "points", _check_order(self.points, "grid points"))
        for name in ("x_range", "p_range"):
            lo, hi = map(_double, getattr(self, name))  # Python floats: inf, not a warning
            if not 0 < hi - lo < math.inf:
                raise ValueError(f"{name} must span a finite width > 0, "
                                 f"got {getattr(self, name)!r}")
            object.__setattr__(self, name, (lo, hi))

    @classmethod
    def centered(cls, halfwidth: float, points: int = 201) -> "GridSpec":
        return cls((-halfwidth, halfwidth), (-halfwidth, halfwidth), points)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        xs = np.linspace(self.x_range[0], self.x_range[1], self.points)
        ps = np.linspace(self.p_range[0], self.p_range[1], self.points)
        return xs, ps


@dataclass(frozen=True)
class WignerGrid:
    xs: np.ndarray
    ps: np.ndarray
    values: np.ndarray    # shape (len(xs), len(ps))

    def __post_init__(self):
        for name in ("xs", "ps", "values"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.values.shape != (self.xs.size, self.ps.size):
            raise ValueError("values shape does not match axes")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite grid values")

    def integral(self) -> float:
        dx = self.xs[1] - self.xs[0]
        dp = self.ps[1] - self.ps[0]
        return float(self.values.sum() * dx * dp)


def wigner_mixture(points: list[tuple[float, complex]], grid: GridSpec) -> WignerGrid:
    """Wigner function of sum_j w_j |alpha_j><alpha_j| on a uniform grid.

    W(x, p) = (1/pi) sum_j w_j exp(-|alpha_j - (x + i p)|^2), which
    integrates to sum_j w_j.
    """
    if not points:
        raise ValueError("empty mixture")
    weights = np.array([w for w, _ in points], dtype=np.float64)
    if weights.min() < 0:
        raise ValueError("negative mixture weight")
    alphas = np.array([complex(a) for _, a in points])
    xs, ps = grid.axes()
    z = xs[:, None] + 1j * ps[None, :]
    vals = np.zeros(z.shape)
    for w, a in zip(weights, alphas):
        # exp(-28^2) is 0.0 already, and clamping keeps a far grid from overflowing
        vals += w * np.exp(-np.minimum(np.abs(a - z), 28.0) ** 2)
    return WignerGrid(xs, ps, vals / math.pi)


def code_state_points(b: int, params: CodeParams) -> list[tuple[float, complex]]:
    w = 1.0 / params.M
    phases = code_phases(np.arange(params.M), b, params.M)
    return [(w, params.t * cmath.exp(1j * phase)) for phase in phases]


def wigner_sigma(b: int, params: CodeParams, grid: GridSpec | None = None) -> WignerGrid:
    """Wigner grid of the average code state; default window [-(t+4), t+4]^2."""
    if grid is None:
        grid = GridSpec.centered(params.t + 4.0)
    return wigner_mixture(code_state_points(b, params), grid)


@dataclass(frozen=True)
class StellarPolynomial:
    """Coefficients d_n = c_n / sqrt(n!) of the state's stellar function."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        if c.size == 0 or c[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def origin_multiplicity(self) -> int:
        return int(np.flatnonzero(self.coeffs)[0])


def stellar_polynomial(v: FockVector) -> StellarPolynomial:
    """Polynomial sum_n d_n alpha^n, d_n = c_n / sqrt(n!), with the trailing zeros
    of d stripped: d_n can underflow to 0 where c_n does not (from n = 178 for
    a coherent state at alpha = 1)."""
    c = np.asarray(v.amps)
    if not c.any():
        raise ValueError("zero state has no stellar polynomial")
    # log(1/n!) = log(e^-1 1^n / n!) + 1, the Poisson(1) log weight plus 1
    d = c * np.exp(0.5 * (_log_poisson_weights(1.0, v.cutoff) + 1.0))
    nz = np.flatnonzero(d)
    if nz.size == 0:
        raise ValueError("every coefficient c_n / sqrt(n!) underflows to 0")
    return StellarPolynomial(d[: nz[-1] + 1])
