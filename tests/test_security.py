import math

import mpmath as mp
import numpy as np
import pytest

from phasebc.codestates import CodeParams
from phasebc.fock import density_cutoff, poisson_weights
from phasebc.security import (
    SearchExhausted,
    TraceNormBound,
    _secular_trace_norm,
    epsilon_secure_check,
    find_params,
    numeric_trace_norm_check,
    pca_exact,
    pcb_bound,
    plan_row,
    security_report,
    trace_norm_bound,
)

from oracles import (FockOperator, build_D, build_sigma, helstrom_success, pca_approx,
                     trace_norm)


class TestTraceNormBound:
    def test_unit_amplitude_m8(self):
        # high-precision evaluation of 2 (2e/8)^4
        expected = float(2 * (2 * mp.e / 8) ** 4)
        b = trace_norm_bound(1.0, 8)
        assert abs(b.value - expected) < 1e-15
        assert abs(b.value - 0.4265480471339393) < 1e-15
        assert b.valid
        assert b.simplified is None  # 8 < 4e + 1

    def test_simplified_regime(self):
        b = trace_norm_bound(1.0, 12)
        assert 12 > 4 * math.e + 1
        assert b.simplified == 2.0 ** -6 == 0.015625

    def test_zero_amplitude(self):
        b = trace_norm_bound(0.0, 6)
        assert b.value == 0.0 and b.valid

    @pytest.mark.parametrize("M", [2, 3, 8, 512, 4096])
    def test_zero_amplitude_every_field(self, M):
        # 2^{-M/2} underflows to 0.0 at M = 4096
        assert trace_norm_bound(0.0, M) == TraceNormBound(0.0, True, 2.0 ** (-M / 2.0))

    def test_validity_flag(self):
        assert not trace_norm_bound(1.0, 6).valid   # (2e/6)^3 > 1/2
        assert trace_norm_bound(1.0, 8).valid
        assert not trace_norm_bound(2.0, 16).valid

    def test_beyond_double_range(self):
        # 2 (2e 10^4 / 512)^256 is about 10^512
        b = trace_norm_bound(100.0, 512)
        assert b.value == math.inf and not b.valid
        assert pcb_bound(100.0, 512, 3) == math.inf


class TestNumericTraceNorm:
    @pytest.mark.parametrize("M", [6, 8, 10, 12, 16])
    def test_unit_amplitude_grid(self, M):
        numeric, bound, ok = numeric_trace_norm_check(1.0, M)
        assert ok
        if trace_norm_bound(1.0, M).valid:
            assert numeric <= bound + 1e-10

    @pytest.mark.parametrize("M", [24, 32])
    def test_amplitude_two_grid(self, M):
        numeric, bound, ok = numeric_trace_norm_check(2.0, M)
        assert ok

    def test_zero_amplitude(self):
        numeric, _, ok = numeric_trace_norm_check(0.0, 8)
        assert numeric == 0.0 and ok

    @pytest.mark.parametrize("energy, M", [(1.0, 40), (0.0, 2), (1.0, 31), (0.3, 1000)])
    def test_single_weight_classes_give_exact_zero(self, energy, M):
        # M at or above the number of weights, or a vacuum with one nonzero weight
        weights = poisson_weights(energy, density_cutoff(energy))
        assert _secular_trace_norm(weights, M) == 0.0

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.0, 4.0, 8.0])
    @pytest.mark.parametrize("M", [2, 3, 6, 8, 16, "above-cutoff"])
    def test_secular_solve_matches_dense_oracle(self, t, M):
        cutoff = density_cutoff(t * t)
        if M == "above-cutoff":
            M = cutoff + 5  # every residue class holds at most one weight
        dense = trace_norm(build_D(CodeParams(t, M, cutoff)))
        numeric, _, _ = numeric_trace_norm_check(t, M)
        assert abs(numeric - dense) <= max(1e-12 * dense, 1e-18)


class TestPcb:
    def test_single_copy_value(self):
        assert abs(pcb_bound(1.0, 8, 1) - 0.4265480471339393) < 1e-15

    def test_linearity_in_k(self):
        for k in (1, 3, 10):
            assert pcb_bound(1.0, 8, 2 * k) == 2 * pcb_bound(1.0, 8, k)

    def test_single_copy_tightness(self):
        params = CodeParams.from_energy(1.0, 8)
        diff = build_sigma(0, params).matrix - build_sigma(1, params).matrix
        half_norm = 0.5 * trace_norm(FockOperator(params.cutoff, diff))
        assert half_norm <= pcb_bound(1.0, 8, 1)

    def test_two_copy_telescoping(self):
        # k = 2 at desk scale: 0.5 ||sigma0 x sigma0 - sigma1 x sigma1||_1
        params = CodeParams.from_energy(0.36, 4)
        s0 = build_sigma(0, params).matrix
        s1 = build_sigma(1, params).matrix
        diff = np.kron(s0, s0) - np.kron(s1, s1)
        half_norm = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
        assert half_norm <= pcb_bound(0.6, 4, 2)


class TestPca:
    def test_reference_point(self):
        p = pca_exact(1.0, 10, 4)
        assert abs(p - math.exp(-40 * math.sin(math.pi / 8) ** 2)) < 1e-18
        assert abs(p - 2.86e-3) < 2e-5

    def test_m2(self):
        assert abs(pca_exact(1.0, 1, 2) - math.exp(-2.0)) < 1e-16

    def test_taylor_remainder(self):
        for energy in (0.5, 1.0, 2.0):
            for k in (1, 5, 20):
                for M in range(6, 120, 7):
                    x = energy * k * math.pi ** 2 / M ** 2
                    if x > 0.1:
                        continue
                    gap = abs(pca_exact(energy, k, M) - pca_approx(energy, k, M))
                    assert gap <= 2.0 * x * x

    def test_monotonicity(self):
        for k in (1, 4):
            vals = [pca_exact(1.0, k, M) for M in range(2, 40)]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        for M in (4, 9):
            vals = [pca_exact(1.0, k, M) for k in range(1, 30)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            vals = [pca_exact(e, 3, M) for e in np.linspace(0.1, 4.0, 25)]
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestEpsilonSecure:
    def test_planned_point_passes(self):
        check = epsilon_secure_check(1.0, 20, 1843, 1e-2)
        assert check.ok and check.failed == ()
        assert check.sufficient_pair == (True, True)

    def test_small_m_fails_binding(self):
        check = epsilon_secure_check(1.0, 4, 10, 1e-3)
        assert not check.ok
        assert "binding" in check.failed
        # the unit-energy shortcut condition fails too: exp(-10/16) ~ 0.535
        assert abs(math.exp(-10 / 16) - 0.5352614285189903) < 1e-15
        assert check.sufficient_pair[0] is False

    def test_sufficient_pair_implies_general(self):
        # sin(x) >= 2x/pi makes the shortcut conditions stronger
        for M in range(2, 64, 3):
            for k in (1, 10, 100, 2000, 50000):
                for eps in (1e-1, 1e-2, 1e-4):
                    sufficient = (math.exp(-k / M ** 2) <= eps
                                  and 2 * k * (2 * math.e / M) ** (M / 2) <= eps)
                    if sufficient:
                        assert epsilon_secure_check(1.0, M, k, eps).ok


class TestFindParams:
    def test_reference_scan(self):
        # independent high-precision re-derivation of the M=20, k=1843 point
        eps = mp.mpf("1e-2")
        chosen = None
        for M in range(2, 64):
            k_min = int(mp.ceil(M ** 2 * mp.log(1 / eps)))
            k_max = mp.floor((eps / 2) * (mp.mpf(M) / (2 * mp.e)) ** (mp.mpf(M) / 2))
            if k_max >= k_min:
                chosen = (M, k_min, int(k_max))
                break
        assert chosen == (20, 1843, 2269)
        plan = find_params(1e-2, 1.0)
        assert (plan.M, plan.k) == (20, 1843)
        assert plan.rows[-1].k_max == 2269

    def test_result_passes_check(self):
        for eps in (1e-1, 1e-2, 1e-3):
            plan = find_params(eps, 1.0)
            assert epsilon_secure_check(1.0, plan.M, plan.k, eps).ok

    def test_monotone_in_epsilon(self):
        eps_grid = [1e-1, 3e-2, 1e-2, 1e-3, 1e-4, 1e-6]
        ms = [find_params(e, 1.0).M for e in eps_grid]
        assert all(a <= b for a, b in zip(ms, ms[1:]))

    def test_m_cubed_report(self):
        plan = find_params(1e-2, 1.0)
        # 20^3 = 8000 exceeds k_max = 2269, so the standard choice is outside
        assert plan.rows[-1].m_cubed_in_window is False
        later = plan_row(1e-2, 1.0, 24)
        assert later.nonempty and later.m_cubed_in_window

    def test_search_exhausted(self):
        with pytest.raises(SearchExhausted):
            find_params(1e-2, 1.0, scan_limit=10)

    def test_nonunit_amplitude(self):
        plan = find_params(1e-2, 1.5)
        check = epsilon_secure_check(1.5, plan.M, plan.k, 1e-2)
        assert check.ok
        assert plan.M > 20  # larger energy forces a larger grid


class TestHelstromConsistency:
    @pytest.mark.parametrize("t,M", [(0.5, 6), (1.0, 8), (1.0, 12)])
    def test_guessing_advantage_below_bound(self, t, M):
        params = CodeParams.from_energy(t * t, M)
        s0 = build_sigma(0, params)
        s1 = build_sigma(1, params)
        assert helstrom_success(s0, s1) - 0.5 <= pcb_bound(t, M, 1) / 2.0


class TestSecurityReport:
    def test_feasibility_invariant(self):
        rep = security_report(1.0, 20, 1843, 1e-2)
        assert rep.feasible == (max(rep.pca_exact, rep.pcb_bound) <= rep.epsilon)
        assert rep.feasible
        doc = rep.as_document()
        assert doc["M"] == 20 and doc["k"] == 1843

    def test_infeasible_point(self):
        rep = security_report(1.0, 8, 1, 1e-2)
        assert not rep.feasible
