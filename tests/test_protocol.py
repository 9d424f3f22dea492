import math

import numpy as np
import pytest

from phasebc import protocol as proto
from phasebc.codestates import code_phases
from phasebc.protocol import (
    CheatOpenAlice,
    Commitment,
    HonestAlice,
    ProtocolParams,
    QuantumPayload,
    Verdict,
    bob_verify,
    cheat_open,
    commit,
)

from oracles import acceptance_probability, displacement_matrix, mc_acceptance


def three_sigma(p, n):
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


class TestCommit:
    def test_deterministic_for_fixed_seed(self):
        params = ProtocolParams(1.0, 8, 12)
        c1, p1 = commit(1, params, np.random.default_rng(42))
        c2, p2 = commit(1, params, np.random.default_rng(42))
        assert c1 == c2
        assert np.array_equal(proto._raw_amplitudes(p1), proto._raw_amplitudes(p2))

    @pytest.mark.parametrize("tau", [1.0, 0.7, 0.25])
    def test_received_energy(self, tau):
        params = ProtocolParams(1.0, 8, 20, tau=tau)
        _, payload = commit(0, params, np.random.default_rng(1))
        # the link's scaling, as AliceSession applies it to the COMMIT
        received = proto._raw_amplitudes(payload) * math.sqrt(tau)
        energies = np.abs(received) ** 2
        assert np.abs(energies - params.energy).max() < 1e-12

    def test_phase_string_uniform(self):
        params = ProtocolParams(1.0, 8, 5)
        rng = np.random.default_rng(7)
        draws = np.concatenate(
            [commit(0, params, rng)[0].m for _ in range(2 * 10 ** 4)])
        n = draws.size
        counts = np.bincount(draws, minlength=params.M)
        p = 1.0 / params.M
        sigma = math.sqrt(p * (1.0 - p) * n)
        assert np.abs(counts - n * p).max() < 5.0 * sigma

    def test_commitment_validation(self):
        with pytest.raises(ValueError):
            Commitment(2, (0, 1))


class TestBobVerify:
    def test_honest_always_accepts(self):
        params = ProtocolParams(1.0, 8, 16)
        rng = np.random.default_rng(3)
        for _ in range(10 ** 4):
            c, payload = commit(0, params, rng)
            verdict = bob_verify(payload, (c.b, c.m), params, rng)
            assert verdict.accepted
            assert all(x == 0 for x in verdict.counts)

    def test_flipped_bit_acceptance_law(self):
        # committed b, revealed 1-b with unchanged phases
        params = ProtocolParams(1.0, 4, 10)
        p = math.exp(-4.0 * params.energy * params.k
                     * math.sin(math.pi / (2 * params.M)) ** 2)
        assert abs(p - 2.86e-3) < 2e-5
        n = 10 ** 5
        freq = mc_acceptance(params, 0, 1, 0, n, np.random.default_rng(21))
        assert abs(freq - p) < three_sigma(p, n)

    def test_half_grid_offset_law(self):
        # b unchanged, every phase index shifted by M/2: residual 4E per mode
        params = ProtocolParams(0.05, 4, 1)
        p = math.exp(-4.0 * params.energy * params.k)
        n = 10 ** 5
        freq = mc_acceptance(params, params.M // 2, 0, 0, n,
                             np.random.default_rng(22))
        assert abs(freq - p) < three_sigma(p, n)

    def test_length_mismatch_aborts(self):
        params = ProtocolParams(1.0, 4, 3)
        _, payload = commit(0, params, np.random.default_rng(0))
        with pytest.raises(proto.ProtocolAbort):
            bob_verify(payload, (0, (0, 1)), params, np.random.default_rng(1))

    def test_fractional_index_is_a_malformed_reveal(self):
        # the index was truncated, so m0 + 0.4 opened as m0 and was accepted
        params = ProtocolParams(1.0, 8, 1)
        c, payload = commit(0, params, np.random.default_rng(4))
        with pytest.raises(proto.ProtocolAbort) as err:
            bob_verify(payload, (0, (c.m[0] + 0.4,)), params, np.random.default_rng(5))
        assert str(err.value).startswith("malformed reveal")

    def test_verdict_consistency_invariant(self):
        with pytest.raises(ValueError):
            Verdict(True, (0, 1, 0))

    @pytest.mark.parametrize("counts", [(0.5,), (True, 0), ("0",), (0, np.float64(0.0))],
                             ids=["0.5", "True", "'0'", "np.float64"])
    def test_verdict_counts_are_not_coerced(self, counts):
        # int() once stored (0.5,) as (0,), (True, 0) as (1, 0) and ("0",) as (0,)
        with pytest.raises(ValueError, match="photon counts must be integers"):
            Verdict(not any(counts), counts)

    @pytest.mark.parametrize("accepted, counts", [
        (1, (0,)), ("false", (0,)), (None, (0,)), (True, ""), (True, {}), (True, None),
        (True, 0)], ids=["1", "'false'", "None", "empty-string", "dict", "None-counts", "int"])
    def test_verdict_refuses_other_types(self, accepted, counts):
        # Verdict alone tests a VERDICT body: the receiving sender passes it the
        # decoded fields as they came
        with pytest.raises(ValueError):
            Verdict(accepted, counts)

    def test_verdict_takes_numpy_integer_counts(self):
        assert Verdict(False, (np.int64(2), 0)).counts == (2, 0)


class TestCommitmentTypes:
    @pytest.mark.parametrize("b", [True, False, 1.0])
    def test_bit_is_not_coerced(self, b):
        with pytest.raises(ValueError, match="bit must be 0 or 1"):
            Commitment(b, (1,))

    def test_numpy_bit_is_kept_as_the_rules_int(self):
        # the OPEN body once carried np.int64(1), the bit as given
        one = np.int64(1)
        commitment = Commitment(one, (1,))
        bits = (commitment.b, HonestAlice(one).b, CheatOpenAlice(one).commit_b,
                cheat_open(commitment, one)[0])
        assert bits == (1, 1, 1, 1) and set(map(type, bits)) == {int}

    @pytest.mark.parametrize("m", [1.5, 1.0, True, "1", np.float64(2.0)])
    def test_index_is_not_coerced(self, m):
        # int() once turned 1.5 into 1
        with pytest.raises(ValueError, match="phase indices must be integers"):
            Commitment(0, (0, m))


class TestExpectedAmplitudes:
    @pytest.mark.parametrize("M", [2, 3, 8, 20])
    def test_matches_code_phase_loop_bit_for_bit(self, M):
        params = ProtocolParams(1.7, M, 2 * M)
        m = list(range(M)) * 2
        for b in (0, 1):
            loop = params.t * np.exp(1j * np.array([float(code_phases(mj, b, M)) for mj in m]))
            vectorised = proto.expected_amplitudes(b, m, params)
            assert vectorised.tobytes() == loop.tobytes()

    def test_errors_are_code_phase_errors(self):
        # the message is the ABORT reason a bad reveal leaves in the transcript
        params = ProtocolParams(1.0, 8, 4)
        for b, m in ((2, [0, 1, 2, 3]), (0, [0, 8, -1, 3]), (1, [0, 1, -3, 9]),
                     (-1, [9, 0, 0, 0])):
            with pytest.raises(ValueError) as loop:
                for mj in m:
                    float(code_phases(mj, b, params.M))
            with pytest.raises(ValueError) as vectorised:
                proto.expected_amplitudes(b, m, params)
            assert str(vectorised.value) == str(loop.value)

    @pytest.mark.parametrize("m", [1.5, True, "3"])
    def test_index_is_not_coerced(self, m):
        # int64 conversion truncated 1.5 and accepted "3" and True
        params = ProtocolParams(1.0, 8, 1)
        with pytest.raises(ValueError, match="integer dtype"):
            proto.expected_amplitudes(0, [m], params)


class TestCheatOpen:
    def test_keeps_phase_string(self):
        c = Commitment(0, (1, 2, 3))
        assert cheat_open(c, 1) == (1, (1, 2, 3))

    def test_acceptance_matches_opening_attack_law(self):
        from phasebc.security import pca_exact

        for energy, k, M in [(1.0, 10, 4), (2.0, 20, 8), (0.5, 5, 6)]:
            params = ProtocolParams(energy, M, k)
            p = acceptance_probability(params, 0, 1, 0)
            assert abs(p - pca_exact(energy, k, M)) < 1e-15

    @pytest.mark.parametrize("M", range(3, 13))
    def test_optimal_offset_brute_force(self, M):
        # all reveal offsets for E=1, k=1, committed 1 revealed 0
        params = ProtocolParams(1.0, M, 1)
        probs = [acceptance_probability(params, delta, 1, 0) for delta in range(M)]
        best = max(probs)
        winners = {d for d, p in enumerate(probs) if abs(p - best) < 1e-12}
        assert winners == {0, M - 1}
        assert abs(best - math.exp(-4.0 * math.sin(math.pi / (2 * M)) ** 2)) < 1e-15

    def test_m2_closed_form(self):
        for energy in (0.5, 1.0, 2.0):
            params = ProtocolParams(energy, 2, 1)
            assert abs(acceptance_probability(params, 0, 1, 0)
                       - math.exp(-2.0 * energy)) < 1e-15


class TestAcceptanceProductLaw:
    def test_random_small_instances(self):
        rng = np.random.default_rng(77)
        n = 4 * 10 ** 4
        for trial in range(4):
            M = int(rng.integers(3, 7))
            k = int(rng.integers(1, 4))
            energy = float(rng.uniform(0.05, 0.3))
            params = ProtocolParams(energy, M, k)
            b, bhat = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            deltas = rng.integers(0, M, size=k)
            expected = math.exp(
                -sum(4.0 * energy * math.sin(math.pi * (d + (b - bhat) / 2) / M) ** 2
                     for d in deltas))
            freq = mc_acceptance(params, deltas, b, bhat, n,
                                 np.random.default_rng(100 + trial))
            assert abs(freq - expected) < three_sigma(expected, n)

    def test_full_verify_path_matches_vectorized(self):
        # the per-session displace-and-count path obeys the same law
        params = ProtocolParams(0.2, 4, 2)
        rng = np.random.default_rng(5)
        n = 2 * 10 ** 4
        hits = 0
        for _ in range(n):
            c, payload = commit(1, params, rng)
            revealed = cheat_open(c, 0)
            if bob_verify(payload, revealed, params, rng).accepted:
                hits += 1
        p = acceptance_probability(params, 0, 1, 0)
        assert abs(hits / n - p) < three_sigma(p, n)


class TestDisplaceCountAgainstMatrixRoute:
    def test_zero_count_probability_two_routes(self):
        # the verifier's Poisson shortcut against the truncated-operator route
        from phasebc.fock import coherent_vector

        n = 40
        cases = [
            (math.sqrt(1.0) * np.exp(2j * math.pi * (2 + 0.5) / 8), math.sqrt(1.0)),
            (0.8 * np.exp(0.3j), 0.5 * np.exp(-0.9j)),
        ]
        for alpha, target in cases:
            shifted = displacement_matrix(-target, n).matrix @ coherent_vector(
                alpha, n).amps
            p_matrix = abs(shifted[0]) ** 2
            p_poisson = math.exp(-abs(alpha - target) ** 2)
            assert abs(p_matrix - p_poisson) < 1e-10


class TestPayloadSealing:
    def test_no_public_amplitude_surface(self):
        _, payload = commit(0, ProtocolParams(1.0, 4, 5), np.random.default_rng(0))
        public = [n for n in dir(payload) if not n.startswith("_")]
        assert sorted(public) == ["count_after_displacement", "sealed"]
        assert payload.sealed
        with pytest.raises(AttributeError):
            payload.amplitudes

    def test_measurement_only_interface(self):
        params = ProtocolParams(1.0, 4, 5)
        c, payload = commit(0, params, np.random.default_rng(0))
        counts = payload.count_after_displacement(
            -proto.expected_amplitudes(c.b, c.m, params), np.random.default_rng(1))
        assert np.all(counts == 0)


class TestDisplacedAmplitudeLimit:
    @pytest.mark.parametrize("amplitude", [1e10, 1e155, 1.7e308, -1.7e308 + 1.7e308j])
    def test_beyond_the_sampler_aborts(self, amplitude):
        payload = proto.QuantumPayload([amplitude])
        with pytest.raises(proto.ProtocolAbort, match="Poisson sampler's limit"):
            payload.count_after_displacement([0.0], np.random.default_rng(0))

    def test_valid_draws_unchanged(self):
        # the same draws as a rate of |a + d| ** 2, up to the largest valid amplitude
        rng = np.random.default_rng(5)
        amps = (rng.normal(size=64) + 1j * rng.normal(size=64)) * np.logspace(-3, 9, 64)
        amps[-1] = 2.0 * math.sqrt(proto.POISSON_RATE_LIMIT / 4.0)
        disp = rng.normal(size=64) * 1e-3
        counts = proto.QuantumPayload(amps).count_after_displacement(
            disp, np.random.default_rng(6))
        expected = np.random.default_rng(6).poisson(np.abs(amps + disp) ** 2)
        assert np.array_equal(counts, expected)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolParams(-1.0, 8, 1)
        with pytest.raises(ValueError):
            ProtocolParams(1.0, 1, 1)
        with pytest.raises(ValueError):
            ProtocolParams(1.0, 8, 0)
        with pytest.raises(ValueError):
            ProtocolParams(1.0, 8, 1, tau=0.0)
        with pytest.raises(ValueError):
            ProtocolParams(1.0, 8, 1, epsilon=1.0)

    @pytest.mark.parametrize("M, k", [(10 ** 20, 1), (2 ** 63 + 1, 1), (8.5, 1), (8.0, 1),
                                      (True, 1), (8, True), (8, 1.0)])
    def test_order_and_count_are_exact_integers(self, M, k):
        # a session once raised on 10**20 (rng.integers high out of bounds) and
        # on k = True, and aborted on 8.5, which HELLO sent as 8
        with pytest.raises(ValueError, match="must be an integer"):
            ProtocolParams(1.0, M, k)

    @pytest.mark.parametrize("M", [2 ** 63, np.uint64(2 ** 63), np.int64(8)])
    def test_largest_order_runs_a_session(self, M):
        from phasebc import transport as tp

        params = ProtocolParams(1.0, M, 3)
        transcript = tp.run_session(HonestAlice(1), tp.BobStrategy(), params, seed=1)
        assert transcript.verdict is not None and transcript.verdict.accepted

    @pytest.mark.parametrize("energy, tau", [(1e300, 0.5), (1e19, 1.0), (1.0, 1e-320),
                                             (1.5e308, 1.0)])
    def test_rate_beyond_poisson_limit(self, energy, tau):
        with pytest.raises(ValueError, match="Poisson"):
            ProtocolParams(energy, 8, 1, tau=tau)

    def test_largest_rate_samples(self):
        # at the limit, a reveal half a turn off (rate 4E, rounded up by a few
        # ulps) still draws; one ulp above the limit is refused
        energy = proto.POISSON_RATE_LIMIT / 4.0
        with pytest.raises(ValueError):
            ProtocolParams(np.nextafter(energy, math.inf), 8, 1)
        for M in (2, 4, 8, 20):
            params = ProtocolParams(energy, M, 2000)
            c, payload = commit(0, params, np.random.default_rng(M))
            far = [(m + M // 2) % M for m in c.m]
            counts = payload.count_after_displacement(
                -proto.expected_amplitudes(0, far, params), np.random.default_rng(0))
            assert counts.min() > 0
