"""Security bounds and parameter selection.

Closed-form bounds on both cheating probabilities, numeric trace-norm
verification of the receiver-side bound, the two-condition epsilon
security check, and the upward scan that picks the smallest workable
(M, k) for a target epsilon.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .codestates import (_by_class, _check_count, _check_nonnegative, _check_order,
                         _check_probability)
from .fock import density_cutoff, poisson_weights


class SearchExhausted(Exception):
    """No feasible modulation order below the scan limit."""


@dataclass(frozen=True)
class TraceNormBound:
    """Endpoint bound on ||rho - sigma_0||_1 and its validity flags."""

    value: float
    valid: bool           # (2 e t^2 / M)^{M/2} < 1/2, required for the bound
    simplified: float | None  # 2^{-M/2}, applicable once M > 4 e t^2 + 1


def trace_norm_bound(t: float, M: int) -> TraceNormBound:
    """2 (2 e t^2 / M)^{M/2}, with the simplified power-of-two variant.

    The value is inf (and invalid) where the power overflows a double.
    """
    t, M = _check_nonnegative(t, "amplitude t"), _check_order(M)
    try:
        q = (2.0 * math.e * t * t / M) ** (M / 2.0)
    except OverflowError:
        q = math.inf
    simplified = 2.0 ** (-M / 2.0) if M > 4.0 * math.e * t * t + 1.0 else None
    return TraceNormBound(2.0 * q, q < 0.5, simplified)


# Newton from the lower bound converges in at most 6 steps for t <= 100 and
# 2 <= M <= 4096; the cap only bounds the loop.
_NEWTON_STEPS = 50
_STEP_TOL = 4.0 * np.finfo(float).eps


def _secular_trace_norm(weights: np.ndarray, M: int) -> float:
    """||rho - sigma_0||_1 from the Poisson weights w_n, n = 0..N.

    rho - sigma_0 splits into one block per photon-number residue class
    {r, r+M, ...}.  Each block is diag(w) - v v^T with w = v^2 and trace 0,
    so it has a single negative eigenvalue -mu_r and the trace norm is
    2 sum_r mu_r.  Scaled by the class's largest weight w_p, nu = mu_r / w_p
    is the root of the rank-one secular equation in pivoted form

        g(nu) = sum_{i != p} u_i / (u_i + nu) - nu / (1 + nu),  u_i = w_i / w_p,

    (Golub, SIAM Rev. 15, 1973; Bunch, Nielsen and Sorensen, Numer. Math.
    31, 1978).  g is convex and decreasing on nu > 0, so Newton steps from a
    lower bound rise monotonically onto the root.  Two lower bounds are
    used: nu >= s = sum u_i, by eigenvalue interlacing, and nu (q + nu) >= s
    with q = max u_i, which is tight once the other weights are small.
    Classes with fewer than two nonzero weights contribute 0; weights that
    underflow to exact zeros drop out of the sums.
    """
    # past the cutoff every class is a single weight, however large M is
    w = _by_class(weights, min(M, weights.size))
    w = w[np.count_nonzero(w, axis=1) >= 2]
    # Weights are at most 1, so u_i = w_i / w_p cannot underflow to zero.
    index = np.arange(w.shape[0])
    pivot = w.argmax(axis=1)
    top = w[index, pivot]
    u = w / top[:, None]
    u[index, pivot] = 0.0
    s = u.sum(axis=1)
    q = u.max(axis=1)
    nu = np.maximum(s, 2.0 * s / (q + np.sqrt(q * q + 4.0 * s)))
    for _ in range(_NEWTON_STEPS):
        frac = u / (u + nu[:, None])
        g = frac.sum(axis=1) - nu / (1.0 + nu)
        slope = (frac / (u + nu[:, None])).sum(axis=1) + 1.0 / (1.0 + nu) ** 2
        step = g / slope
        nu += step
        if np.all(np.abs(step) <= _STEP_TOL * nu):
            break
    return 2.0 * math.fsum(top * nu)


def numeric_trace_norm_check(t: float, M: int) -> tuple[float, float, bool]:
    """Numeric ||rho - sigma_0||_1 against the closed-form bound.

    ok is vacuously true when the bound's validity condition fails.  Warns
    if the truncation tail is too heavy for the comparison to be trusted.
    """
    t, M = _check_nonnegative(t, "amplitude t"), _check_order(M)
    bound = trace_norm_bound(t, M)
    cutoff = density_cutoff(t * t)
    weights = poisson_weights(t * t, cutoff)
    tail = 1.0 - float(weights.sum())
    if tail > 1e-10:
        warnings.warn(
            f"truncation tail {tail:.3e} above 1e-10 at cutoff {cutoff}",
            RuntimeWarning,
        )
    numeric = _secular_trace_norm(weights, M)
    ok = (not bound.valid) or numeric <= bound.value + 1e-10
    return numeric, bound.value, ok


def pcb_bound(t: float, M: int, k: int) -> float:
    """Receiver cheating bound: k times the single-copy trace-norm bound."""
    k = _check_count(k)
    return k * trace_norm_bound(t, M).value


def pca_exact(energy: float, k: int, M: int) -> float:
    """Sender's optimal opening-attack success probability."""
    energy, k, M = _check_nonnegative(energy, "energy"), _check_count(k), _check_order(M)
    s = math.sin(math.pi / (2.0 * M))
    return math.exp(-energy * k * 4.0 * s * s)


@dataclass(frozen=True)
class SecurityCheck:
    ok: bool
    pca: float
    pcb: float
    failed: tuple[str, ...]              # subset of {"binding", "concealing"}
    sufficient_pair: tuple[bool, bool] | None  # unit-energy shortcut conditions


def epsilon_secure_check(t: float, M: int, k: int, epsilon: float) -> SecurityCheck:
    """Both cheating probabilities at or below epsilon.

    Evaluates the general pair exp(-4 t^2 k sin^2(pi/2M)) <= eps and
    2 k (2 e t^2/M)^{M/2} <= eps.  At t = 1 the coarser sufficient pair
    exp(-k/M^2) <= eps and same second condition is reported as well.
    """
    epsilon = _check_probability(epsilon)
    t, M, k = _check_nonnegative(t, "amplitude t"), _check_order(M), _check_count(k)
    pcb = pcb_bound(t, M, k)
    pca = pca_exact(t * t, k, M)
    failed = []
    if pca > epsilon:
        failed.append("binding")
    if pcb > epsilon:
        failed.append("concealing")
    sufficient = None
    if t == 1.0:
        sufficient = (
            math.exp(-k / (M * M)) <= epsilon,
            pcb <= epsilon,
        )
    return SecurityCheck(not failed, pca, pcb, tuple(failed), sufficient)


def _log_k_max(epsilon: float, t: float, M: int) -> float:
    # k <= (eps/2) (M / 2 e t^2)^{M/2}, kept in log space against overflow
    return math.log(epsilon / 2.0) + (M / 2.0) * (math.log(M) - math.log(2.0 * math.e * t * t))


def _k_min(epsilon: float, t: float, M: int) -> int:
    if t == 1.0:
        # unit-energy sufficient condition k >= M^2 ln(1/eps)
        return max(1, math.ceil(M * M * math.log(1.0 / epsilon)))
    s = math.sin(math.pi / (2.0 * M))
    need, per_mode = math.log(1.0 / epsilon), 4.0 * t * t * s * s
    k = need / per_mode
    if k == math.inf:  # beyond double range: the exact quotient of the two doubles
        from fractions import Fraction  # imported here: it loads decimal

        return math.ceil(Fraction(need) / Fraction(per_mode))
    return max(1, math.ceil(k))


@dataclass(frozen=True)
class PlanRow:
    M: int
    k_min: int
    log10_k_max: float
    k_max: int | None     # None when too large for an exact integer
    nonempty: bool
    m_cubed_in_window: bool


def plan_row(epsilon: float, t: float, M: int) -> PlanRow:
    k_min = _k_min(epsilon, t, M)
    log_k_max = _log_k_max(epsilon, t, M)
    # exact integer only while floor(exp(.)) is below the float53 limit
    k_max = math.floor(math.exp(log_k_max)) if log_k_max < 35.0 else None
    nonempty = log_k_max >= math.log(k_min)
    m3 = M ** 3
    m3_in = nonempty and k_min <= m3 and math.log(m3) <= log_k_max
    return PlanRow(M, k_min, log_k_max / math.log(10.0), k_max, nonempty, m3_in)


@dataclass(frozen=True)
class Plan:
    M: int
    k: int
    rows: tuple[PlanRow, ...]  # every scanned order, 2..M; the chosen one last


def find_params(epsilon: float, t: float, scan_limit: int = 512) -> Plan:
    """Smallest M with a nonempty k-window, then the smallest k inside it."""
    epsilon = _check_probability(epsilon)
    t = _check_nonnegative(t, "amplitude t")
    if t == 0:  # the planner's own rule: no window opens at t = 0
        raise ValueError(f"amplitude must be positive, got {t}")
    scan_limit = _check_order(scan_limit, "scan limit")
    rows = []
    for M in range(2, scan_limit + 1):
        rows.append(plan_row(epsilon, t, M))
        if rows[-1].nonempty:
            return Plan(M, rows[-1].k_min, tuple(rows))
    raise SearchExhausted(
        f"no feasible modulation order up to {scan_limit} for epsilon={epsilon}, t={t}"
    )


@dataclass(frozen=True)
class SecurityReport:
    t: float
    M: int
    k: int
    epsilon: float
    pcb_bound: float
    pca_exact: float
    trace_norm_numeric: float
    trace_norm_bound: float
    bound_valid: bool
    simplified_bound: float | None
    feasible: bool

    def as_document(self) -> dict:
        """Report fields; a bound beyond double range is written as null."""
        doc = asdict(self)
        for key in ("pcb_bound", "trace_norm_bound"):
            if not math.isfinite(doc[key]):
                doc[key] = None
        return doc


def security_report(t: float, M: int, k: int, epsilon: float) -> SecurityReport:
    epsilon = _check_probability(epsilon)
    t, M, k = _check_nonnegative(t, "amplitude t"), _check_order(M), _check_count(k)
    check = epsilon_secure_check(t, M, k, epsilon)  # refuses t * t = inf before the solve
    numeric, bound_value, _ = numeric_trace_norm_check(t, M)
    b = trace_norm_bound(t, M)
    return SecurityReport(
        t=t, M=M, k=k, epsilon=epsilon,
        pcb_bound=check.pcb,
        pca_exact=check.pca,
        trace_norm_numeric=numeric,
        trace_norm_bound=bound_value,
        bound_valid=b.valid,
        simplified_bound=b.simplified,
        feasible=check.ok,
    )
