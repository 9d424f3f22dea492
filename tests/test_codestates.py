import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from phasebc.codestates import CodeParams, code_phases, eigen_sigma

from oracles import (assert_density, build_D, build_ideal_rho, build_sigma,
                     build_sigma_mixture, class_vectors, trace_norm)


class TestCodePhase:
    def test_grid_origin(self):
        assert float(code_phases(0, 0, 8)) == 0.0

    def test_half_step_offset(self):
        assert abs(float(code_phases(0, 1, 8)) - math.pi / 8) < 1e-15

    def test_last_point(self):
        assert abs(float(code_phases(7, 1, 8)) - 15 * math.pi / 8) < 1e-15

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            code_phases(8, 0, 8)
        with pytest.raises(ValueError):
            code_phases(-1, 0, 8)
        with pytest.raises(ValueError):
            code_phases(0, 2, 8)

    @pytest.mark.parametrize("m", [1.5, True, "3"])
    def test_index_is_not_coerced(self, m):
        # 1.5 once gave an off-grid phase
        with pytest.raises(ValueError, match="integer dtype"):
            code_phases(m, 0, 8)

    @pytest.mark.parametrize("b", [1.0, True, False, np.float64(0.0), np.True_])
    def test_bit_is_not_coerced(self, b):
        # 1.0 and True once gave the b=1 phase
        with pytest.raises(ValueError, match="bit must be 0 or 1"):
            code_phases(0, b, 8)

    @pytest.mark.parametrize("m", [[0, True], (True, 1), [np.True_, 0]])
    def test_bool_in_a_sequence_is_rejected(self, m):
        # NumPy reads [0, True] as an int64 array
        with pytest.raises(ValueError, match="phase indices"):
            code_phases(m, 0, 8)

    @pytest.mark.parametrize("b", [True, 1.0])
    def test_eigen_sigma_checks_the_bit(self, b):
        with pytest.raises(ValueError, match="bit must be 0 or 1"):
            eigen_sigma(b, CodeParams.from_energy(1.0, 4))


class TestCodeParams:
    @pytest.mark.parametrize("M, cutoff", [
        (8.5, 30), (8.0, 30), (True, 30), ("8", 30), (8, 30.0), (8, True), (8, np.float64(30.0)),
    ], ids=["M=8.5", "M=8.0", "M=True", "M='8'", "cutoff=30.0", "cutoff=True",
            "cutoff=np.float64"])
    def test_order_and_cutoff_are_exact_integers(self, M, cutoff):
        # a float M once reached _by_class, where np.zeros raised TypeError
        with pytest.raises(ValueError, match="integer"):
            CodeParams(1.0, M, cutoff)

    def test_numpy_integers_are_accepted(self):
        params = CodeParams(1.0, np.int64(8), np.uint16(30))
        assert (params.M, params.cutoff) == (8, 30)


class TestIdealRho:
    def test_vacuum(self):
        rho = build_ideal_rho(0.0, 6)
        assert rho.matrix[0, 0] == 1.0
        assert np.abs(rho.matrix).sum() == 1.0

    def test_poisson_diagonal(self):
        rho = build_ideal_rho(1.0, 30)
        diag = np.diag(rho.matrix).real
        n = np.arange(31)
        expected = np.exp(-1.0) / np.array([math.factorial(int(i)) for i in n])
        assert np.abs(diag - expected).max() < 1e-15
        assert abs(diag.sum() - 1.0) < 1e-12
        assert_density(rho)

    def test_is_large_m_limit_of_sigma(self):
        # ||sigma_0 - rho||_1 <= 2^{-M/2} once M > 4 e t^2 + 1
        t = 1.0
        for m in (12, 16):
            assert m > 4 * math.e * t * t + 1
            params = CodeParams.from_energy(t * t, m)
            diff = build_sigma(0, params).matrix - build_ideal_rho(t, params.cutoff).matrix
            from oracles import FockOperator

            assert trace_norm(FockOperator(params.cutoff, diff)) <= 2.0 ** (-m / 2)


class TestSigma:
    @pytest.mark.parametrize("b", [0, 1])
    def test_two_constructions_agree(self, b):
        params = CodeParams.from_energy(1.0, 6)
        a = build_sigma(b, params).matrix
        c = build_sigma_mixture(b, params).matrix
        assert np.abs(a - c).max() < 1e-12

    def test_b0_entries_real_nonnegative(self):
        params = CodeParams.from_energy(1.0, 5)
        m = build_sigma(0, params).matrix
        assert np.abs(m.imag).max() == 0.0
        assert m.real.min() >= 0.0

    @pytest.mark.parametrize("t,M", [(0.5, 4), (1.0, 6), (1.5, 3)])
    def test_diagonal_equals_rho(self, t, M):
        params = CodeParams.from_energy(t * t, M)
        for b in (0, 1):
            sig = build_sigma(b, params).matrix
            rho = build_ideal_rho(t, params.cutoff).matrix
            assert np.abs(np.diag(sig) - np.diag(rho)).max() == 0.0

    def test_off_stride_exactly_zero(self):
        params = CodeParams.from_energy(1.0, 5)
        m = build_sigma(1, params).matrix
        n = np.arange(params.cutoff + 1)
        off_stride = (n[:, None] - n[None, :]) % params.M != 0
        assert np.all(m[off_stride] == 0.0)

    def test_mixture_relabeling_invariance(self):
        # shifting every mixture index by one reproduces the same state
        params = CodeParams.from_energy(1.0, 6)
        base = build_sigma_mixture(0, params).matrix
        d = params.cutoff + 1
        rolled = np.zeros((d, d), dtype=complex)
        for m in range(params.M):
            phase = float(code_phases((m + 1) % params.M, 0, params.M))
            amp = params.t * cmath.exp(1j * phase)
            from phasebc.fock import coherent_vector

            v = coherent_vector(amp, params.cutoff)
            rolled += np.outer(v, v.conj()) / params.M
        assert np.abs(base - rolled).max() < 1e-15

    def test_density_contract(self):
        params = CodeParams.from_energy(2.0, 7)
        for b in (0, 1):
            assert_density(build_sigma(b, params))

    def test_vacuum_amplitude(self):
        params = CodeParams(0.0, 4, 8)
        sig = build_sigma(0, params).matrix
        assert sig[0, 0] == 1.0
        assert np.abs(sig).sum() == 1.0


class TestDifferenceOperator:
    def test_zero_diagonal(self):
        params = CodeParams.from_energy(1.0, 8)
        assert np.all(np.diag(build_D(params).matrix) == 0.0)

    def test_first_stride_entry(self):
        params = CodeParams.from_energy(1.0, 8)
        d = build_D(params).matrix
        expected = -math.exp(-1.0) / math.sqrt(math.factorial(8))
        assert abs(d[8, 0] - expected) < 1e-18

    def test_support_only_on_stride(self):
        params = CodeParams.from_energy(1.0, 6)
        d = build_D(params).matrix
        n = np.arange(params.cutoff + 1)
        diff = np.abs(n[:, None] - n[None, :])
        outside = (diff % params.M != 0) | (diff == 0)
        assert np.all(d[outside] == 0.0)

    def test_trace_norm_below_bound(self):
        # 2 (2e/8)^4 evaluated directly; numeric norm is far below it
        params = CodeParams.from_energy(1.0, 8)
        bound = 2.0 * (2.0 * math.e / 8.0) ** 4
        assert abs(bound - 0.4265480471339393) < 1e-15
        assert trace_norm(build_D(params)) <= bound

    def test_equals_rho_minus_sigma(self):
        params = CodeParams.from_energy(1.5, 5)
        lhs = build_D(params).matrix
        rhs = build_ideal_rho(params.t, params.cutoff).matrix - build_sigma(0, params).matrix
        assert np.abs(lhs - rhs).max() < 1e-16


class TestEigenSystem:
    def test_m2_closed_form(self):
        values, _ = eigen_sigma(0, CodeParams.from_energy(1.0, 2))
        assert abs(values[0] - math.exp(-1.0) * math.cosh(1.0)) < 1e-12
        assert abs(values[1] - math.exp(-1.0) * math.sinh(1.0)) < 1e-12
        assert abs(values[0] - (1.0 + math.exp(-2.0)) / 2.0) < 1e-12

    @pytest.mark.parametrize("t,M", [(0.7, 3), (1.0, 6), (1.4, 5)])
    def test_values_sum_to_one(self, t, M):
        values, _ = eigen_sigma(1, CodeParams.from_energy(t * t, M))
        assert abs(values.sum() - 1.0) < 1e-11

    @pytest.mark.parametrize("b", [0, 1])
    def test_reconstruction(self, b):
        params = CodeParams.from_energy(1.0, 6)
        acc = np.zeros((params.cutoff + 1,) * 2, dtype=complex)
        for v in class_vectors(b, params):
            acc += np.outer(v, v.conj())
        diff = acc - build_sigma(b, params).matrix
        from oracles import FockOperator

        assert trace_norm(FockOperator(params.cutoff, diff)) <= 1e-10

    def test_vectors_exactly_orthogonal(self):
        vectors = class_vectors(0, CodeParams.from_energy(1.0, 4))
        for r in range(4):
            for s in range(r + 1, 4):
                assert np.vdot(vectors[r], vectors[s]) == 0.0

    def test_squared_norm_equals_value(self):
        params = CodeParams.from_energy(1.0, 5)
        values, _ = eigen_sigma(1, params)
        vectors = class_vectors(1, params)
        for r in range(5):
            assert abs(np.linalg.norm(vectors[r]) ** 2 - values[r]) < 1e-15

    def test_same_spectrum_both_bits(self):
        params = CodeParams.from_energy(1.3, 7)
        e0 = np.sort(np.linalg.eigvalsh(build_sigma(0, params).matrix))
        e1 = np.sort(np.linalg.eigvalsh(build_sigma(1, params).matrix))
        assert np.abs(e0 - e1).max() < 1e-12

    @pytest.mark.parametrize("energy, M, empty", [(1.0, 20, 0), (100.0, 512, 263)])
    def test_values_match_mpmath_class_sums(self, energy, M, empty):
        # lambda_r is a class sum of exp'd log weights with no cancellation, so
        # even the smallest class is accurate and nothing needs a floor
        params = CodeParams.from_energy(energy, M)
        values = eigen_sigma(0, params)[0]
        with mp.workdps(50):
            ref = [mp.fsum(mp.exp(n * mp.log(energy) - energy - mp.loggamma(n + 1))
                           for n in range(r, params.cutoff + 1, M)) for r in range(M)]
        assert sum(r == 0 for r in ref) == empty
        for r, (value, exact) in enumerate(zip(values.tolist(), ref)):
            if exact == 0:  # a class past the cutoff holds no photon number
                assert value == 0.0, r
            else:
                assert abs(float(value / exact - 1)) <= 1e-13, r

    def test_odd_and_even_m(self):
        for M in (3, 4):
            values, _ = eigen_sigma(0, CodeParams.from_energy(0.8, M))
            assert len(values) == M
            assert abs(values.sum() - 1.0) < 1e-11
