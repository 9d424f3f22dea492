import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammainc, gammaln

from phasebc import fock
from phasebc.fock import (
    FockOperator,
    FockVector,
    coherent_vector,
    cutoff_for_energy,
    displacement_matrix,
    helstrom_success,
    overlap_prob,
    partial_trace,
    sample_photon_count,
    tensor_operators,
    tensor_vectors,
    trace_norm,
)


def poisson_tail(energy, n_max):
    # independent oracle: forward summation of the tail terms
    return sum(
        math.exp(-energy + n * math.log(energy) - gammaln(n + 1))
        for n in range(n_max + 1, n_max + 200)
    )


class TestCutoffForEnergy:
    def test_vacuum(self):
        assert cutoff_for_energy(0.0, 1e-12) == 0

    def test_unit_energy_tail(self):
        n = cutoff_for_energy(1.0, 1e-12)
        assert n == 14  # frozen from the tail-sum oracle
        assert poisson_tail(1.0, n) < 1e-12
        assert poisson_tail(1.0, n - 1) >= 1e-12

    def test_energy_four_minimality(self):
        n = cutoff_for_energy(4.0, 1e-6)
        assert n == 17  # frozen from the tail-sum oracle
        assert poisson_tail(4.0, n) < 1e-6
        assert poisson_tail(4.0, n - 1) >= 1e-6

    @pytest.mark.parametrize("energy,tol", [(0.5, 1e-10), (2.0, 1e-12), (4.0, 1e-12)])
    def test_matches_oracle(self, energy, tol):
        n = cutoff_for_energy(energy, tol)
        assert poisson_tail(energy, n) < tol
        assert n == 0 or poisson_tail(energy, n - 1) >= tol

    def test_search_matches_photon_number_walk(self):
        # the walk the search replaced: first n with gammainc(n + 1, E) < tol,
        # here one ufunc call over every n instead of one call per n
        energies = np.concatenate([np.logspace(-6, 4, 161), np.linspace(1.0, 1e4, 150)])
        for energy in energies:
            tails = gammainc(np.arange(1, 2 * energy + 200), energy)
            for tol in (0.5, 1e-6, 1e-12, 1e-15):
                assert tails[-1] < tol
                expected = int(np.argmax(tails < tol))
                assert cutoff_for_energy(float(energy), tol) == expected, (energy, tol)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            cutoff_for_energy(float("nan"), 1e-12)
        with pytest.raises(ValueError):
            cutoff_for_energy(-1.0, 1e-12)
        with pytest.raises(ValueError):
            cutoff_for_energy(1.0, 0.0)


class TestCoherentVector:
    def test_vacuum(self):
        v = coherent_vector(0.0, 5)
        assert v.amps[0] == 1.0
        assert np.all(v.amps[1:] == 0.0)

    def test_normalization(self):
        v = coherent_vector(1.0, 40)
        assert abs(v.norm() ** 2 - 1.0) < 1e-12

    def test_overlap_closed_form(self):
        alpha, beta = 1.0, 1.0j
        n = cutoff_for_energy(1.0, 1e-14)
        ip = coherent_vector(alpha, n).inner(coherent_vector(beta, n))
        expected = np.exp(-(abs(alpha) ** 2 + abs(beta) ** 2) / 2
                          + np.conj(alpha) * beta)
        assert abs(ip - expected) < 1e-12

    def test_tail_matches_cutoff_contract(self):
        n = cutoff_for_energy(2.0, 1e-10)
        v = coherent_vector(math.sqrt(2.0), n)
        assert 1.0 - v.norm() ** 2 < 1e-10

    def test_large_amplitude_does_not_underflow(self):
        # e^{-|alpha|^2/2} alone underflows to 0 beyond |alpha|^2 of about 1490
        alpha = 45.0 * np.exp(0.3j)
        v = coherent_vector(alpha, cutoff_for_energy(45.0 ** 2, 1e-12))
        assert abs(v.norm() ** 2 - 1.0) < 1e-10
        n = int(np.argmax(np.abs(v.amps)))
        assert abs(v.amps[n + 1] / v.amps[n] - alpha / math.sqrt(n + 1)) < 1e-12


class TestPoissonWeights:
    @pytest.mark.parametrize("energy", [0.0, 1.0, 576.0, 1e4, 1e6, 4.1e6])
    def test_match_mpmath(self, energy):
        # Rounding the log weight l alone costs |l| eps relative; the direct
        # -E + n log E - log n! was off by 2.6e-9 relative at E = 1e6.
        cutoff = fock.density_cutoff(energy)
        w = fock.poisson_weights(energy, cutoff)
        ns = np.unique(np.concatenate([
            np.linspace(0, cutoff, 200).astype(int),
            np.arange(max(0, int(energy) - 40), min(cutoff, int(energy) + 40) + 1)]))
        with mp.workdps(40):
            for n in ns.tolist():
                if energy == 0.0:
                    assert w[n] == float(n == 0)
                    continue
                log_ref = n * mp.log(energy) - energy - mp.loggamma(n + 1)
                if log_ref < math.log(1e-300):
                    continue
                rel = abs(float(mp.mpf(float(w[n])) / mp.exp(log_ref) - 1))
                assert rel <= 4 * np.finfo(float).eps * (1 - float(log_ref)), (n, rel)


class TestOverlapProb:
    def test_identical(self):
        assert overlap_prob(0.3 + 0.4j, 0.3 + 0.4j) == 1.0

    def test_vacuum_vs_unit(self):
        assert abs(overlap_prob(0.0, 1.0) - math.exp(-1.0)) < 1e-15

    def test_against_truncated_inner_product(self):
        n = cutoff_for_energy(1.0, 1e-14)
        ip = coherent_vector(1.0, n).inner(coherent_vector(-1.0, n))
        assert abs(overlap_prob(1.0, -1.0) - math.exp(-4.0)) < 1e-15
        assert abs(abs(ip) ** 2 - overlap_prob(1.0, -1.0)) < 1e-10


class TestDisplacement:
    def test_zero_is_identity(self):
        d = displacement_matrix(0.0, 10)
        assert np.abs(d.matrix - np.eye(11)).max() == 0.0

    def test_vacuum_to_coherent(self):
        n = cutoff_for_energy(1.0, 1e-12)
        d = displacement_matrix(1.0, n)
        target = coherent_vector(1.0, n)
        overlap = abs(np.vdot(target.amps, d.matrix[:, 0]))
        assert overlap >= 1.0 - 10e-12

    def test_unitarity_defect_low_subspace(self):
        n = 40
        d = displacement_matrix(1.0, n).matrix
        g = d.conj().T @ d - np.eye(n + 1)
        half = n // 2 + 1
        assert np.linalg.norm(g[:half, :half], 2) <= 1e-8

    def test_composition_inverse(self):
        n = 40
        c = displacement_matrix(0.7 + 0.2j, n).matrix @ displacement_matrix(-0.7 - 0.2j, n).matrix
        half = n // 2 + 1
        assert np.abs((c - np.eye(n + 1))[:half, :half]).max() <= 1e-8


class TestTraceNorm:
    def test_zero_operator(self):
        assert trace_norm(FockOperator(3, np.zeros((4, 4)))) == 0.0

    def test_state_minus_itself(self):
        rho = coherent_vector(0.8, 20).outer()
        diff = FockOperator(20, rho.matrix - rho.matrix)
        assert trace_norm(diff) == 0.0

    def test_diagonal(self):
        assert abs(trace_norm(FockOperator(1, np.diag([0.5, -0.5]))) - 1.0) < 1e-15

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            trace_norm(FockOperator(1, np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_norm_properties_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            mats = []
            for _ in range(3):
                a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
                mats.append((a + a.conj().T) / 2)
            na = trace_norm(FockOperator(5, mats[0]))
            nb = trace_norm(FockOperator(5, mats[1]))
            nab = trace_norm(FockOperator(5, mats[0] + mats[1]))
            assert na >= 0.0
            assert nab <= na + nb + 1e-12


class TestHelstrom:
    def test_indistinguishable(self):
        rho = coherent_vector(0.0, 8).outer()
        assert helstrom_success(rho, rho) == 0.5

    def test_orthogonal(self):
        d = 8
        zero = np.zeros((d + 1, d + 1), dtype=complex)
        r0, r1 = zero.copy(), zero.copy()
        r0[0, 0] = 1.0
        r1[1, 1] = 1.0
        assert abs(helstrom_success(FockOperator(d, r0), FockOperator(d, r1)) - 1.0) < 1e-12

    def test_pure_state_closed_form(self):
        # equal-prior pure states: 1/2 + sqrt(1 - |<a|b>|^2)/2
        n = 40
        rho0 = coherent_vector(0.0, n).outer()
        rho1 = coherent_vector(1.0, n).outer()
        expected = 0.5 + math.sqrt(1.0 - math.exp(-1.0)) / 2.0
        assert abs(helstrom_success(rho0, rho1) - expected) < 1e-10

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            rho0 = a @ a.conj().T
            rho1 = b @ b.conj().T
            rho0 /= np.trace(rho0).real
            rho1 /= np.trace(rho1).real
            p = helstrom_success(FockOperator(4, rho0), FockOperator(4, rho1))
            assert 0.5 <= p <= 1.0 + 1e-12

    def test_cutoff_mismatch(self):
        with pytest.raises(ValueError):
            helstrom_success(coherent_vector(0, 4).outer(), coherent_vector(0, 5).outer())


class TestPhotonSampling:
    def test_vacuum_always_zero(self):
        rng = np.random.default_rng(0)
        assert all(sample_photon_count(0.0, rng) == 0 for _ in range(100))

    def test_mean_five_sigma(self):
        rng = np.random.default_rng(123)
        n = 10 ** 6
        samples = np.array([sample_photon_count(1.0, rng) for _ in range(n)])
        # Poisson(1): std 1, so 5 sigma of the mean estimate is 5/sqrt(n)
        assert abs(samples.mean() - 1.0) < 5.0 / math.sqrt(n)
        p0 = (samples == 0).mean()
        sigma = math.sqrt(math.exp(-1.0) * (1.0 - math.exp(-1.0)) / n)
        assert abs(p0 - math.exp(-1.0)) < 5.0 * sigma

    def test_determinism(self):
        a = [sample_photon_count(1.2, np.random.default_rng(7)) for _ in range(10)]
        b = [sample_photon_count(1.2, np.random.default_rng(7)) for _ in range(10)]
        assert a == b

    @pytest.mark.parametrize("energy", [0.5, 1.0, 2.0])
    def test_chi_square_vs_poisson(self, energy):
        from scipy.stats import chisquare

        rng = np.random.default_rng(9000 + int(10 * energy))
        n = 10 ** 5
        samples = np.array([sample_photon_count(math.sqrt(energy), rng) for _ in range(n)])
        top = int(samples.max()) + 1
        observed = np.bincount(samples, minlength=top + 1).astype(float)
        expected = fock.poisson_weights(energy, top) * n
        # fold the sparse upper tail into one bin
        keep = expected >= 5.0
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], n - expected[keep].sum())
        _, p_value = chisquare(obs, exp)
        assert p_value > 0.0027  # 3 sigma


class TestTensorAndPartialTrace:
    def test_partial_trace_product(self):
        v0 = FockVector(1, np.array([1.0, 0.0]))
        v1 = FockVector(1, np.array([0.0, 1.0]))
        joint = tensor_operators([v0.outer(), v1.outer()])
        reduced = partial_trace(joint, (2, 2), keep=0)
        assert np.abs(reduced.matrix - v0.outer().matrix).max() < 1e-15

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        x = FockOperator(5, a @ a.conj().T)
        x2 = FockOperator(5, np.asarray(x.matrix) / np.trace(x.matrix).real)
        joint = tensor_operators([x2, coherent_vector(0.5, 2).outer()])
        for keep in (0, 1):
            red = partial_trace(joint, (6, 3), keep=keep)
            assert abs(red.trace() - joint.trace()) < 1e-12

    def test_tensor_scaling_rule(self):
        # tracing out the second factor leaves the first scaled by tr(B)
        a = coherent_vector(0.3, 3).outer()
        b = FockOperator(2, 0.5 * coherent_vector(0.0, 2).outer().matrix)
        joint = tensor_operators([a, b])
        red = partial_trace(joint, (4, 3), keep=0)
        assert np.abs(red.matrix - 0.5 * a.matrix).max() < 1e-14

    def test_vector_tensor(self):
        v = tensor_vectors([coherent_vector(0.0, 2), coherent_vector(0.0, 2)])
        assert v.dim == 9
        assert v.amps[0] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(coherent_vector(0.0, 5).outer(), (2, 2), keep=0)


class TestDomainTypes:
    def test_vector_length_invariant(self):
        with pytest.raises(ValueError):
            FockVector(3, np.zeros(3))

    def test_vector_norm_invariant(self):
        with pytest.raises(ValueError):
            FockVector(1, np.array([1.0, 1.0]))

    def test_operator_shape_invariant(self):
        with pytest.raises(ValueError):
            FockOperator(2, np.zeros((3, 4)))

    def test_density_validation(self):
        good = coherent_vector(0.5, 10).outer()
        fock.assert_density(good)
        with pytest.raises(ValueError):
            fock.assert_density(FockOperator(1, np.diag([1.5, -0.5])))

    def test_amps_readonly(self):
        v = coherent_vector(0.5, 4)
        with pytest.raises(ValueError):
            v.amps[0] = 0.0
