import hashlib
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammainc, gammaln

from phasebc import fock
from phasebc.codestates import CodeParams
from phasebc.fock import coherent_vector, cutoff_for_energy
from phasebc.protocol import QuantumPayload
from phasebc.security import security_report

import oracles
from oracles import FockOperator, displacement_matrix, helstrom_success, outer, trace_norm


def poisson_tail(energy, n_max):
    # independent oracle: forward summation of the tail terms
    return sum(
        math.exp(-energy + n * math.log(energy) - gammaln(n + 1))
        for n in range(n_max + 1, n_max + 200)
    )


def exact_tail(energy, n):
    """P(X > n) for X ~ Poisson(energy) and n > energy, summed term by term at
    40 digits until a term falls below 1e-25 of the sum."""
    with mp.workdps(40):
        term = mp.exp(-energy + (n + 1) * mp.log(energy) - mp.loggamma(n + 2))
        tail, m = mp.mpf(0), n + 1
        while term > tail * mp.mpf(1e-25):
            tail += term
            m += 1
            term *= energy / mp.mpf(m)
        return tail


class TestCutoffForEnergy:
    def test_vacuum(self):
        assert cutoff_for_energy(0.0, 1e-12) == 0

    @pytest.mark.parametrize("tol", [0.5, 1e-6, 1e-300])
    def test_vacuum_at_any_tolerance(self, tol):
        assert cutoff_for_energy(0.0, tol) == 0

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

    @pytest.mark.parametrize("energy", [1e5, 4167676.7])
    def test_tail_matches_exact_sum(self, energy):
        # at 4167676.7 gammainc read P(X > 4182045) 5.6e-4 low, below 1e-12,
        # where the exact sum is 1.00035e-12
        n = cutoff_for_energy(energy, 1e-12)
        assert exact_tail(energy, n) < 1e-12 <= exact_tail(energy, n - 1)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            cutoff_for_energy(float("nan"), 1e-12)
        with pytest.raises(ValueError):
            cutoff_for_energy(-1.0, 1e-12)
        with pytest.raises(ValueError):
            cutoff_for_energy(1.0, 0.0)

    @pytest.mark.parametrize("energy", [1e11, 1e300])
    def test_energy_beyond_the_window_cap(self, energy):
        # the tail window would hold more than 2^22 photon numbers
        with pytest.raises(ValueError, match="over 2\\^22 photon numbers"):
            cutoff_for_energy(energy, 1e-12)

    def test_density_cutoff_above_the_cap_raises_before_allocating(self):
        # E = 1e8 needs a density cutoff of 100,130,363, arrays of 1e8 doubles.
        # The cutoff is at least E, so it is refused before the tail sum, whose
        # window under 2^18 wide once peaked at 9.3 MB.
        calls = [lambda: fock.density_cutoff(1e8), lambda: CodeParams.from_energy(1e8, 8),
                 lambda: security_report(1e4, 8, 1, 1e-2)]
        for call in calls:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="needs a cutoff.* over 2\\^22"):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10 ** 6


class TestCoherentVector:
    @pytest.mark.parametrize("alpha, cutoff, digest", [
        (0.0, 5, "c92580fa06fd712f4a92543961a7768f652e8cb6b79fce266bc2726475a3f6f7"),
        (1.0, 40, "c6246ee945bb059385e9f1325ea03a3858468550e7a505c8ec37a4bf2dd322b1"),
        (0.3 + 0.4j, 30, "38223ecac7e7dec29efd23ae3a5c089b986c97c03a3ff5ce8d3b7751372e5df0"),
        (12.0, 300, "fb02c6b1b9e788043ce6491f236bc77725e9ad6897fd86e8e7301faf91a763f5"),
    ])
    def test_bits_pinned(self, alpha, cutoff, digest):
        # the Helstrom receiver's guesses read these bits; the tolerance tests
        # below would pass a change in the last place
        v = coherent_vector(alpha, cutoff)
        assert v.dtype == np.complex128 and v.shape == (cutoff + 1,)
        assert hashlib.sha256(v.tobytes()).hexdigest() == digest

    def test_vacuum(self):
        v = coherent_vector(0.0, 5)
        assert v[0] == 1.0
        assert np.all(v[1:] == 0.0)

    def test_normalization(self):
        v = coherent_vector(1.0, 40)
        assert abs(np.linalg.norm(v) ** 2 - 1.0) < 1e-12

    def test_overlap_closed_form(self):
        alpha, beta = 1.0, 1.0j
        n = cutoff_for_energy(1.0, 1e-14)
        ip = np.vdot(coherent_vector(alpha, n), coherent_vector(beta, n))
        expected = np.exp(-(abs(alpha) ** 2 + abs(beta) ** 2) / 2
                          + np.conj(alpha) * beta)
        assert abs(ip - expected) < 1e-12

    def test_tail_matches_cutoff_contract(self):
        n = cutoff_for_energy(2.0, 1e-10)
        v = coherent_vector(math.sqrt(2.0), n)
        assert 1.0 - np.linalg.norm(v) ** 2 < 1e-10

    def test_large_amplitude_does_not_underflow(self):
        # e^{-|alpha|^2/2} alone underflows to 0 beyond |alpha|^2 of about 1490
        alpha = 45.0 * np.exp(0.3j)
        v = coherent_vector(alpha, cutoff_for_energy(45.0 ** 2, 1e-12))
        assert abs(np.linalg.norm(v) ** 2 - 1.0) < 1e-10
        n = int(np.argmax(np.abs(v)))
        assert abs(v[n + 1] / v[n] - alpha / math.sqrt(n + 1)) < 1e-12


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

    @pytest.mark.parametrize("energy, cutoff, tail",
                             [(1.0, 30, 4.618e-35), (100.0, 248, 4.786e-36)])
    def test_tail_beyond_density_cutoff(self, energy, cutoff, tail):
        # the mass density work leaves out, summed from the top with the kernel's
        # start index; terms past cutoff + 200 are below 1e-80 of it
        assert fock.density_cutoff(energy) == cutoff
        terms = np.exp(fock._log_poisson_weights(energy, cutoff + 200, cutoff + 1))
        got = math.fsum(terms[::-1])
        with mp.workdps(40):  # P(X > cutoff), the regularized lower gamma
            exact = float(mp.gammainc(cutoff + 1, 0, energy, regularized=True))
        assert got < 1e-12
        assert abs(got / exact - 1) <= 1e-13
        assert abs(exact / tail - 1) <= 1e-3

    @pytest.mark.parametrize("energy", [1.0, 1e2, 1e4, 1e6])
    def test_normalization_defect(self, energy):
        # 1 - sum(w) over the density cutoff reads the kernel's rounding, not the
        # truncation tail, which is near 1e-35 (the test above)
        w = fock.poisson_weights(energy, fock.density_cutoff(energy))
        assert abs(1.0 - math.fsum(w)) <= 4.5e-16


class TestOverlapProb:
    def test_against_truncated_inner_product(self):
        # |<alpha|beta>|^2 = exp(-|alpha - beta|^2)
        n = cutoff_for_energy(1.0, 1e-14)
        ip = np.vdot(coherent_vector(1.0, n), coherent_vector(-1.0, n))
        assert abs(abs(ip) ** 2 - math.exp(-4.0)) < 1e-10


class TestDisplacement:
    def test_zero_is_identity(self):
        d = displacement_matrix(0.0, 10)
        assert np.abs(d.matrix - np.eye(11)).max() == 0.0

    def test_vacuum_to_coherent(self):
        n = cutoff_for_energy(1.0, 1e-12)
        d = displacement_matrix(1.0, n)
        target = coherent_vector(1.0, n)
        overlap = abs(np.vdot(target, d.matrix[:, 0]))
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
        rho = outer(coherent_vector(0.8, 20))
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
        rho = outer(coherent_vector(0.0, 8))
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
        rho0 = outer(coherent_vector(0.0, n))
        rho1 = outer(coherent_vector(1.0, n))
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
            helstrom_success(outer(coherent_vector(0, 4)), outer(coherent_vector(0, 5)))


def photon_counts(alpha, n, rng):
    """n photon counts of the coherent state alpha, by the receiver's
    displace-and-count with no displacement: one Poisson(|alpha|^2) draw each,
    the same draws as n scalar rng.poisson calls."""
    return QuantumPayload(np.full(n, complex(alpha))).count_after_displacement(
        np.zeros(n), rng)


class TestPhotonSampling:
    def test_vacuum_always_zero(self):
        rng = np.random.default_rng(0)
        assert not photon_counts(0.0, 100, rng).any()

    def test_mean_five_sigma(self):
        rng = np.random.default_rng(123)
        n = 10 ** 6
        samples = photon_counts(1.0, n, rng)
        # Poisson(1): std 1, so 5 sigma of the mean estimate is 5/sqrt(n)
        assert abs(samples.mean() - 1.0) < 5.0 / math.sqrt(n)
        p0 = (samples == 0).mean()
        sigma = math.sqrt(math.exp(-1.0) * (1.0 - math.exp(-1.0)) / n)
        assert abs(p0 - math.exp(-1.0)) < 5.0 * sigma

    def test_determinism(self):
        a = photon_counts(1.2, 10, np.random.default_rng(7)).tolist()
        b = photon_counts(1.2, 10, np.random.default_rng(7)).tolist()
        assert a == b

    @pytest.mark.parametrize("energy", [0.5, 1.0, 2.0])
    def test_chi_square_vs_poisson(self, energy):
        from scipy.stats import chisquare

        rng = np.random.default_rng(9000 + int(10 * energy))
        n = 10 ** 5
        samples = photon_counts(math.sqrt(energy), n, rng)
        top = int(samples.max()) + 1
        observed = np.bincount(samples, minlength=top + 1).astype(float)
        expected = fock.poisson_weights(energy, top) * n
        # fold the sparse upper tail into one bin
        keep = expected >= 5.0
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], n - expected[keep].sum())
        _, p_value = chisquare(obs, exp)
        assert p_value > 0.0027  # 3 sigma


class TestDomainTypes:
    def test_operator_shape_invariant(self):
        with pytest.raises(ValueError):
            FockOperator(2, np.zeros((3, 4)))

    def test_density_validation(self):
        good = outer(coherent_vector(0.5, 10))
        oracles.assert_density(good)
        with pytest.raises(ValueError):
            oracles.assert_density(FockOperator(1, np.diag([1.5, -0.5])))
