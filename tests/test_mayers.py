import cmath
import json
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

from phasebc.codestates import CodeParams, code_phases, eigen_sigma
from phasebc.fock import coherent_vector
from phasebc.mayers import build_kit, verification_report

from oracles import (
    FockOperator,
    build_purification,
    build_sigma,
    build_U,
    conditional_bob_state,
    dense_povm,
    dense_report,
    normalized_vector,
    outcome_distribution,
    purification_matrix,
    steering_table,
    switch_fidelities,
    trace_norm,
)

M_GRID = [2, 3, 4, 6]


def params_for(M, energy=1.0):
    return CodeParams.from_energy(energy, M)


def one_sided_overlap_oracle(t, M, n_terms=80):
    # analytic value of <Phi_1|(1 x U)|Phi_0>: alternating Poisson sum
    ns = np.arange(n_terms)
    signs = (-1.0) ** (ns // M)
    return abs(float(np.sum(signs * np.exp(-t * t + 2 * ns * np.log(t) - gammaln(ns + 1)))))


class TestPurification:
    @pytest.mark.parametrize("M", M_GRID)
    def test_unit_norm(self, M):
        psi = build_purification(0, params_for(M))
        assert abs(psi.norm() - 1.0) < 1e-10

    @pytest.mark.parametrize("M", M_GRID)
    @pytest.mark.parametrize("b", [0, 1])
    def test_both_marginals_equal_sigma(self, M, b):
        params = params_for(M)
        psi = purification_matrix(build_kit(params), b)
        sigma = build_sigma(b, params).matrix
        for marginal in (psi @ psi.conj().T, psi.T @ psi.conj()):
            residual = trace_norm(FockOperator(params.cutoff, marginal - sigma))
            assert residual <= 1e-8

    def test_schmidt_coefficients(self):
        params = params_for(4)
        singular = np.linalg.svd(purification_matrix(build_kit(params), 0),
                                 compute_uv=False)
        lam = np.sort(eigen_sigma(0, params)[0])[::-1]
        assert np.abs(np.sort(singular ** 2)[::-1][: params.M] - lam).max() < 1e-10

    @pytest.mark.parametrize("energy, M", [(1, 64), (0.0225, 32)])
    def test_empty_classes_have_zero_unit_vectors(self, energy, M):
        # M > cutoff + 1: the classes past the cutoff hold no photon number, so
        # lambda_r = 0 there, and every other class is kept whatever its size
        params = CodeParams.from_energy(energy, M)
        kit = build_kit(params)
        empty = np.arange(M) > params.cutoff
        assert empty.any() and np.all((kit.values == 0.0) == empty)
        for unit in (kit.unit0, kit.unit1):
            assert np.all(np.isfinite(unit))
            norms = np.zeros(M)
            np.add.at(norms, np.arange(params.cutoff + 1) % M, unit ** 2)
            assert np.all(norms[empty] == 0.0)
            np.testing.assert_allclose(norms[~empty], 1.0, rtol=0.0, atol=1e-14)


class TestSwitchingUnitary:
    @pytest.mark.parametrize("M", M_GRID)
    def test_isometric_on_sigma0_support(self, M):
        params = params_for(M)
        u = build_U(params).matrix
        basis = np.stack([normalized_vector(0, params, r) for r in range(M)], axis=1)
        gram = (u @ basis).conj().T @ (u @ basis)
        assert np.abs(gram - np.eye(M)).max() <= 1e-8

    def test_maps_sector_zero(self):
        params = params_for(4)
        u = build_U(params).matrix
        v0 = normalized_vector(0, params, 0)
        v1 = normalized_vector(1, params, 0)
        assert np.abs(u @ v0 - v1).max() <= 1e-8

    @pytest.mark.parametrize("M", M_GRID)
    def test_maps_every_sector(self, M):
        params = params_for(M)
        u = build_U(params).matrix
        for r in range(M):
            assert np.abs(u @ normalized_vector(0, params, r)
                          - normalized_vector(1, params, r)).max() <= 1e-8

    def test_conjugates_sigma0_to_sigma1(self):
        params = params_for(4)
        u = build_U(params).matrix
        s0 = build_sigma(0, params).matrix
        s1 = build_sigma(1, params).matrix
        residual = trace_norm(FockOperator(params.cutoff, u @ s0 @ u.conj().T - s1))
        assert residual <= 1e-8

    def test_block_diagonal_across_sectors(self):
        params = params_for(4)
        u = build_U(params).matrix
        n = np.arange(params.cutoff + 1)
        cross = (n[:, None] % params.M) != (n[None, :] % params.M)
        assert np.all(u[cross] == 0.0)


class TestSwitchFidelities:
    @pytest.mark.parametrize("M", M_GRID)
    def test_two_sided_is_one(self, M):
        one_sided, two_sided = switch_fidelities(params_for(M))
        assert abs(two_sided - 1.0) <= 1e-8
        assert one_sided <= two_sided + 1e-12

    @pytest.mark.parametrize("M", M_GRID)
    def test_one_sided_matches_alternating_sum(self, M):
        one_sided, _ = switch_fidelities(params_for(M))
        assert abs(one_sided - one_sided_overlap_oracle(1.0, M)) < 1e-10

    def test_one_sided_strictly_below_one(self):
        one_sided, _ = switch_fidelities(params_for(4))
        assert one_sided < 1.0 - 1e-3

    def test_global_phase_invariance(self):
        params = params_for(3)
        kit = build_kit(params)
        psi0 = purification_matrix(kit, 0)
        psi1 = purification_matrix(kit, 1)
        u = build_U(params).matrix
        for phase in (1.0, np.exp(0.7j)):
            up = phase * u
            assert abs(abs(np.vdot(psi1, up @ psi0 @ up.T))
                       - abs(np.vdot(psi1, u @ psi0 @ u.T))) < 1e-12


class TestPovm:
    @pytest.mark.parametrize("M", M_GRID)
    def test_projector_family(self, M):
        kit = build_kit(params_for(M))
        for povm in (dense_povm(kit, 0), dense_povm(kit, 1)):
            assert len(povm) == M + 1
            for theta in povm[:-1]:
                t = theta.matrix
                assert np.abs(t @ t - t).max() <= 1e-10       # projector
                assert abs(np.trace(t).real - 1.0) <= 1e-10   # rank 1

    @pytest.mark.parametrize("M", M_GRID)
    def test_orthogonality(self, M):
        kit = build_kit(params_for(M))
        for povm in (dense_povm(kit, 0), dense_povm(kit, 1)):
            for i in range(M):
                for j in range(M):
                    prod = np.trace(povm[i].matrix @ povm[j].matrix).real
                    assert abs(prod - (1.0 if i == j else 0.0)) <= 1e-10

    @pytest.mark.parametrize("M", M_GRID)
    def test_completeness_with_remainder(self, M):
        kit = build_kit(params_for(M))
        d = kit.params.cutoff + 1
        for povm in (dense_povm(kit, 0), dense_povm(kit, 1)):
            total = sum(t.matrix for t in povm)
            assert np.abs(total - np.eye(d)).max() <= 1e-8
            # remainder must itself be a valid POVM element
            eigs = np.linalg.eigvalsh(povm[-1].matrix)
            assert eigs.min() >= -1e-10


class TestOutcomeLaw:
    @pytest.mark.parametrize("M", M_GRID)
    @pytest.mark.parametrize("b", [0, 1])
    def test_uniform(self, M, b):
        probs, remainder = outcome_distribution(b, params_for(M))
        assert np.abs(probs - 1.0 / M).max() <= 1e-8
        assert abs(remainder) <= 1e-10
        assert abs(probs.sum() + remainder - 1.0) <= 1e-10


class TestSteering:
    @pytest.mark.parametrize("M", M_GRID)
    @pytest.mark.parametrize("b", [0, 1])
    def test_conditional_states_are_code_states(self, M, b):
        table = steering_table(b, params_for(M))
        fidelities = [f for f, _ in table.values()]
        targets = [mp for _, mp in table.values()]
        assert min(fidelities) >= 1.0 - 1e-8
        assert sorted(targets) == list(range(M))  # bijection

    @pytest.mark.parametrize("M", M_GRID)
    @pytest.mark.parametrize("b", [0, 1])
    def test_matches_projector_eigenvector_reference(self, M, b):
        # reference: recover chi from each projector, one code state at a time
        params = params_for(M)
        kit = build_kit(params)
        psi = purification_matrix(kit, b)
        povm = dense_povm(kit, b)
        for m in range(M):
            chi = np.linalg.eigh(povm[m].matrix)[1][:, -1]
            cond = psi.T @ chi.conj()
            cond /= np.linalg.norm(cond)
            amps = [params.t * cmath.exp(1j * float(code_phases(mp, b, M))) for mp in range(M)]
            fids = [abs(np.vdot(coherent_vector(amp, params.cutoff).amps, cond)) ** 2
                    for amp in amps]
            fid, mp = conditional_bob_state(m, b, params)
            assert mp == int(np.argmax(fids))
            assert abs(fid - max(fids)) <= 1e-12

    @pytest.mark.parametrize("M", M_GRID)
    def test_index_maps(self, M):
        # reflection for b=0, shifted reflection for b=1
        params = params_for(M)
        for m in range(M):
            _, mp0 = conditional_bob_state(m, 0, params)
            _, mp1 = conditional_bob_state(m, 1, params)
            assert mp0 == (-m) % M
            assert mp1 == (-m - 1) % M


class TestReceiverMarginalInvariance:
    @pytest.mark.parametrize("which", ["povm0", "povm1", "nothing"])
    def test_no_selection_average_is_sigma0(self, which):
        # the receiver cannot tell whether (or which way) the sender measured
        params = params_for(4)
        kit = build_kit(params)
        psi = purification_matrix(kit, 0)
        sigma0 = build_sigma(0, params).matrix
        if which == "nothing":
            reduced = psi.T @ psi.conj()
        else:
            reduced = np.zeros_like(sigma0)
            for theta in dense_povm(kit, int(which[-1])):
                post = theta.matrix @ psi  # (theta x 1)|Phi_0> as a matrix
                reduced += post.T @ post.conj()
        assert np.abs(reduced - sigma0).max() <= 1e-8


# (E, M) points at which the closed-form report is checked against the dense one;
# E = 0 ties every code state, at 0.0225 (t = 0.15) and 0.09 some lambda_r are
# below 1e-14, and at (1, 64) and (0.0225, 32) classes past the cutoff are empty
ORACLE_POINTS = [(1, 2), (1, 4), (1, 8), (4, 3), (0.3, 6), (4, 8), (9, 16), (0.0225, 8),
                 (1, 20), (16, 64), (0.09, 12), (2.25, 5), (0, 4), (25, 7), (64, 64),
                 (1, 64), (0.0225, 32)]
# the grid order, cutoff, steering maps and flags; every other field is a float
EXACT = ("M", "cutoff", "steering_map_0", "steering_map_1",
         "steering_bijective_0", "steering_bijective_1")


class TestKit:
    @pytest.mark.parametrize("energy, M", ORACLE_POINTS)
    def test_report_matches_dense_oracle(self, energy, M):
        params = CodeParams.from_energy(energy, M)
        report = verification_report(params)
        expected = dense_report(params)
        assert list(report) == list(expected)
        for key, value in expected.items():
            if key in EXACT:
                assert json.dumps(report[key]) == json.dumps(value), key
            else:
                np.testing.assert_allclose(report[key], value, rtol=0.0, atol=1e-12,
                                           err_msg=key)

    def test_report_memory_is_linear(self):
        # t = 100, M = 512: the dense (N+1)^2 purification alone would take 2 GB
        params = CodeParams.from_energy(1e4, 512)
        tracemalloc.start()
        try:
            report = verification_report(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["steering_bijective_0"] and report["steering_bijective_1"]
        assert peak <= 100 * (params.cutoff + 1 + params.M)

    def test_report_document(self):
        report = verification_report(params_for(4))
        assert report["steering_bijective_0"] and report["steering_bijective_1"]
        assert report["switch_fidelity_two_sided"] >= 1.0 - 1e-8
        assert report["switch_fidelity_one_sided"] < 1.0
        assert max(report["marginal_a_residual_0"],
                   report["marginal_b_residual_1"]) <= 1e-8
        assert report["discarded_mass"] == 0.0


class TestBitChecks:
    # each of these once read a bad bit as 0 or 1
    @pytest.mark.parametrize("b", [2, -1, True, 1.0])
    def test_outcome_distribution(self, b):
        with pytest.raises(ValueError, match="bit must be 0 or 1"):
            outcome_distribution(b, params_for(4))

    @pytest.mark.parametrize("b", [7, -1, True, 0.0])
    def test_purification_matrix(self, b):
        with pytest.raises(ValueError, match="bit must be 0 or 1"):
            purification_matrix(build_kit(params_for(4)), b)

    @pytest.mark.parametrize("b", [2, True])
    def test_build_purification(self, b):
        with pytest.raises(ValueError, match="bit must be 0 or 1"):
            build_purification(b, params_for(4))
