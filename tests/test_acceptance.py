"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from phasebc import protocol as proto
from phasebc import transport as tp
from phasebc.codestates import CodeParams, _by_class
from phasebc.fock import poisson_weights
from phasebc.mayers import build_kit
from phasebc.phasespace import GridSpec, stellar_polynomial, wigner_sigma
from phasebc.security import (
    epsilon_secure_check,
    find_params,
    pca_exact,
    pcb_bound,
    trace_norm_bound,
)

from oracles import (FockOperator, acceptance_probability, build_D, build_sigma, class_vectors,
                     dense_povm, helstrom_success, mc_acceptance, outcome_distribution,
                     purification_matrix, steering_table, switch_fidelities, trace_norm)

GRID_T = (0.5, 1.0, 2.0)
GRID_M = (6, 8, 12, 16, 24)


def three_sigma(p, n):
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


def test_criterion_1_bound_soundness():
    checked = 0
    for t in GRID_T:
        for M in GRID_M:
            bound = trace_norm_bound(t, M)
            if not bound.valid:
                continue
            params = CodeParams.from_energy(t * t, M)
            numeric = trace_norm(build_D(params))
            assert numeric <= bound.value + 1e-10, (t, M)
            if bound.simplified is not None:
                assert M > 4 * math.e * t * t + 1
                assert numeric <= bound.simplified + 1e-10, (t, M)
            checked += 1
    assert checked >= 8
    print(f"\ncriterion 1 PASS: numeric ||D||_1 under the bound on "
          f"{checked} valid grid points")


def test_criterion_2_honest_completeness():
    params = proto.ProtocolParams(1.0, 8, 16, tau=1.0)
    n = 10 ** 4
    for i in range(n):
        transcript = tp.run_session(proto.HonestAlice(i % 2), tp.BobStrategy(), params,
                                    seed=(2026, i))
        assert transcript.verdict is not None and transcript.verdict.accepted
    print(f"criterion 2 PASS: {n}/{n} honest sessions accepted at tau=1")


def test_criterion_3_opening_attack_law():
    cases = [(1.0, 10, 4), (1.0, 50, 8), (2.0, 20, 8)]
    n = 10 ** 5
    for j, (energy, k, M) in enumerate(cases):
        params = proto.ProtocolParams(energy, M, k)
        p = pca_exact(energy, k, M)
        freq = mc_acceptance(params, 0, 1, 0, n,
                             np.random.default_rng(300 + j))
        assert abs(freq - p) <= three_sigma(p, n), (energy, k, M, freq, p)
    print(f"criterion 3 PASS: cheat-open acceptance within 3 sigma of "
          f"exp(-4Ek sin^2(pi/2M)) for {len(cases)} cases, {n} trials each")


def test_criterion_4_offset_optimality_brute_force():
    for M in range(3, 13):
        params = proto.ProtocolParams(1.0, M, 1)
        probs = [acceptance_probability(params, d, 1, 0) for d in range(M)]
        best = max(probs)
        winners = {d for d, p in enumerate(probs) if abs(p - best) < 1e-12}
        assert winners == {0, M - 1}, M
    print("criterion 4 PASS: exhaustive offsets confirm maximizers {0, M-1} "
          "for M in 3..12")


def test_criterion_5_mayers_kit():
    one_sided_values = {}
    for M in (2, 3, 4, 6):
        params = CodeParams.from_energy(1.0, M)
        kit = build_kit(params)
        d = params.cutoff + 1
        for b in (0, 1):
            psi = purification_matrix(kit, b)
            sigma = build_sigma(b, params).matrix
            for marginal in (psi @ psi.conj().T, psi.T @ psi.conj()):
                assert trace_norm(FockOperator(params.cutoff,
                                               marginal - sigma)) <= 1e-8
            povm = dense_povm(kit, b)
            total = sum(e.matrix for e in povm)
            assert np.abs(total - np.eye(d)).max() <= 1e-8
            probs, _ = outcome_distribution(b, params)
            assert np.abs(probs - 1.0 / M).max() <= 1e-8
            table = steering_table(b, params)
            assert min(f for f, _ in table.values()) >= 1.0 - 1e-8
            assert sorted(mp_ for _, mp_ in table.values()) == list(range(M))
        one_sided, two_sided = switch_fidelities(params)
        assert abs(two_sided - 1.0) <= 1e-8
        one_sided_values[M] = one_sided
    reported = ", ".join(f"M={m}: {v:.6f}" for m, v in one_sided_values.items())
    print("criterion 5 PASS: purification marginals, POVM completeness, "
          f"uniform outcomes, steering bijections; one-sided switch overlap [{reported}]")


def test_criterion_6_parameter_planner():
    eps = mp.mpf("1e-2")
    rederived = None
    for M in range(2, 64):
        k_min = int(mp.ceil(M ** 2 * mp.log(1 / eps)))
        k_max = mp.floor((eps / 2) * (mp.mpf(M) / (2 * mp.e)) ** (mp.mpf(M) / 2))
        if k_max >= k_min:
            rederived = (M, k_min)
            break
    assert rederived == (20, 1843)
    plan = find_params(1e-2, 1.0)
    assert (plan.M, plan.k) == rederived
    assert epsilon_secure_check(1.0, plan.M, plan.k, 1e-2).ok
    # sin(x) >= 2x/pi: the coarse pair implies the general pair at t = 1
    implications = 0
    for M in range(2, 64, 3):
        for k in (1, 10, 100, 2000, 50000):
            for eps_f in (1e-1, 1e-2, 1e-4):
                if (math.exp(-k / M ** 2) <= eps_f
                        and 2 * k * (2 * math.e / M) ** (M / 2) <= eps_f):
                    assert epsilon_secure_check(1.0, M, k, eps_f).ok
                    implications += 1
    assert implications > 0
    print(f"criterion 6 PASS: planner returns (M, k) = {rederived} matching the "
          f"independent scan; implication verified on {implications} grid points")


def test_criterion_7_helstrom_consistency():
    for t in GRID_T:
        for M in GRID_M:
            params = CodeParams.from_energy(t * t, M)
            s0, s1 = build_sigma(0, params), build_sigma(1, params)
            assert helstrom_success(s0, s1) - 0.5 <= pcb_bound(t, M, 1) / 2.0, (t, M)
    code = CodeParams.from_energy(1.0, 8)
    params = proto.ProtocolParams(1.0, 8, 1)
    bob = tp.HelstromBob(code)
    alice = proto.RandomBitAlice()
    channel = tp.ChannelModel(adversarial_bob=True)
    n = 10 ** 5
    hits = 0
    for i in range(n):
        transcript = tp.run_session(alice, bob, params, channel=channel,
                                    seed=(700, i), session_id=f"s{i}")
        opened = next(m for m in transcript.messages if m.kind == "OPEN")
        hits += int(bob.guesses[-1] == opened.body["bit"])
    rate = hits / n
    limit = 0.5 + pcb_bound(1.0, 8, 1) / 2.0 + 3.0 * math.sqrt(0.25 / n)
    assert rate <= limit
    print(f"criterion 7 PASS: guessing advantage bounded on the grid; "
          f"empirical adversarial rate {rate:.5f} <= {limit:.5f} over {n} sessions")


@pytest.mark.parametrize("energy, M", [(1, 2), (1, 8), (4, 3), (0.3, 6), (4, 8), (9, 16),
                                       (16, 64), (64, 64), (1, 20)])
def test_helstrom_success_closed_form(energy, M):
    # On class r, sigma_0 - sigma_1 = 2(|e_r><o_r| + |o_r><e_r|), with e_r and o_r
    # the amplitudes at n = r + jM for even and odd j, orthogonal with squared
    # norms E_r and O_r.  Its trace norm is 4 sqrt(E_r O_r), so the Helstrom
    # success 1/2 + ||sigma_0 - sigma_1||_1 / 4 is 1/2 + sum_r sqrt(E_r O_r).
    params = CodeParams.from_energy(energy, M)
    mass = _by_class(poisson_weights(energy, params.cutoff), M)
    closed = 0.5 + np.sqrt(mass[:, 0::2].sum(axis=1) * mass[:, 1::2].sum(axis=1)).sum()
    dense = helstrom_success(build_sigma(0, params), build_sigma(1, params))
    assert abs(closed - dense) <= 1e-14, (closed, dense)


def test_criterion_8_phase_space():
    spec = GridSpec.centered(5.0, 201)
    gaps = {}
    for M in (6, 32):
        params = CodeParams.from_energy(1.0, M)
        g0 = wigner_sigma(0, params, spec)
        g1 = wigner_sigma(1, params, spec)
        for g in (g0, g1):
            assert abs(g.integral() - 1.0) <= 1e-4
            assert g.values.min() >= -1e-15
        gaps[M] = float(np.abs(g0.values - g1.values).max())
    assert gaps[6] > 100.0 * gaps[32]
    params = CodeParams.from_energy(1.0, 4)
    vectors = class_vectors(0, params)
    for r in range(4):
        assert stellar_polynomial(vectors[r]).origin_multiplicity() == r
    print(f"criterion 8 PASS: unit-integral nonnegative grids; code-book gap "
          f"{gaps[6]:.2e} (M=6) vs {gaps[32]:.2e} (M=32); origin multiplicities 0..3")


def test_criterion_9_determinism():
    params = proto.ProtocolParams(1.0, 8, 8)
    for seed in (0, 1, 12345):
        loop = tp.run_session(proto.HonestAlice(0), tp.BobStrategy(), params,
                              seed=seed)
        loop2 = tp.run_session(proto.HonestAlice(0), tp.BobStrategy(), params,
                               seed=seed)
        stream = tp.run_session(proto.HonestAlice(0), tp.BobStrategy(), params,
                                seed=seed, transport="tcp")
        assert loop.to_bytes() == loop2.to_bytes() == stream.to_bytes()
    from phasebc import cli

    import contextlib
    import io

    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["simulate", "-E", "1", "-M", "4", "-k", "2",
                             "-n", "50", "--seed", "9"]) == 0
            cli.main(["wigner", "-t", "1", "-M", "6", "-b", "1",
                      "--points", "31"])
            cli.main(["bounds", "-t", "1", "-M", "12", "-k", "1",
                      "--format", "structured"])
        outputs.append(buf.getvalue())
    assert outputs[0] and outputs[0] == outputs[1]
    print("criterion 9 PASS: transcripts identical across reruns and transports; "
          "command output byte-identical across reruns")
