"""Golden CLI outputs: each command's exit code and stdout, pinned.

A change that is meant to keep the program's output must leave these
unchanged.  Most commands are pinned by the sha256 of their stdout, and two
simulate runs also by that of the transcript they write; the
mayers reports were recorded from dense eigensolvers whose last bits
depend on the BLAS, and the closed forms that compute them agree with
those only to within 1e-15, so their parsed fields are compared instead:
maps and flags exactly, floats within 1e-12.
"""

import hashlib
import json

import numpy as np
import pytest

from phasebc import cli

DIGESTS = {
    "bounds -t 1":
        (1, "9fcd66717d3f048cb9372124370451209716e12a30a5d15f319120dc2ca13808"),
    "bounds -t 0":
        (1, "53f8f706dc6af488949a890a129bd0b82e45745e9bd7dfff6b56bfdf1e79607f"),
    "bounds -t 0 --format structured":
        (1, "613f88f9f5886b19429339723505de378029853f3be38e2ea63cb53fa231e9ef"),
    "bounds -t 24 -M 16 --format structured":
        (1, "9352c607d28c45d8387c25886b484db508aa2dee0aa302df9511fd7ec0a7046b"),
    "bounds -t 100 -M 512 --format structured":
        (1, "74f119c10bbb890f639270725adddff9c0e03793990d45d3e01444ac852dc6ff"),
    "plan --epsilon 1e-2 -t 1 --format structured":
        (0, "4f244cc6034c36701a385d0dbb4dedd06e3c3741db534f70134b9c68c5bacdc9"),
    # the dense-reports benchmark checks the same digest
    "wigner -t 1 -M 6":
        (0, "c97a9a4f5c56679dd7b85e4e18f34af13bd0b612128b7bef7bb122e9b86f87f7"),
    # 6,300 lines whose value is an exact 0, and a 0 on each axis
    "wigner -t 1 -M 6 --halfwidth 40 --points 101":
        (0, "9caecbabed6eb1655903f4adf0e33a75e072f52cac7540c07d81319f83c6b967"),
    # the smallest grid, two points per axis
    "wigner -E 4 -M 3 -b 1 --points 2":
        (0, "fe5f5b308fb1ce6dd0f25ba5c89d6e04045db8ac07b37c923b6bab6181354bd2"),
    "simulate -E 1 -M 20 -k 1843 -n 3 --seed 5 --format structured":
        (0, "9fbc74eacf743a5a60cdb06b09179b37bdc6c754a4c19cbaf5c627662b4855b1"),
    "simulate --strategy cheat-open -E 1 -M 4 -k 10 -n 50 --seed 9":
        (0, "6367b2c896d9992d13abf1540c1c5603db617e030bb3ddab934410e9c28be4e0"),
}

# the sha256 of the --transcript file: the COMMIT at the planner point, and
# one that is signed zeros throughout
TRANSCRIPTS = {
    "simulate -E 1 -M 20 -k 1843 -n 1 --seed 5":
        "b7c65e3a1daeb335c20d51c78946f0830ce98f09c2fb5be2865af14d4026787f",
    "simulate -E 0 -M 8 -k 64 -n 1 --seed 5":
        "20f51363da65661246d8ed6c01d9a52b99941d5706f21013f39ca1ca29a21700",
}

MAYERS_REPORTS = {
    "mayers -t 1 -M 4": (
        '{"t":1,"M":4,"cutoff":30,"discarded_mass":0.0,"norm_0":1,'
        '"marginal_a_residual_0":2.3118551797548304e-16,'
        '"marginal_b_residual_0":2.3118586710991762e-16,'
        '"povm_completeness_residual_0":0.0,'
        '"outcome_probs_0":[0.24999999999999997,0.24999999999999997,'
        '0.24999999999999997,0.24999999999999997],'
        '"outcome_remainder_0":-1.9216798078399895e-17,"steering_min_fidelity_0":1,'
        '"steering_map_0":[0,3,2,1],"steering_bijective_0":true,"norm_1":1,'
        '"marginal_a_residual_1":2.3118551797548304e-16,'
        '"marginal_b_residual_1":2.3118586710991762e-16,'
        '"povm_completeness_residual_1":0.0,'
        '"outcome_probs_1":[0.24999999999999997,0.24999999999999997,'
        '0.24999999999999997,0.25],'
        '"outcome_remainder_1":2.7411371475806693e-17,"steering_min_fidelity_1":1,'
        '"steering_map_1":[3,2,1,0],"steering_bijective_1":true,'
        '"switch_fidelity_one_sided":0.96204418297785732,'
        '"switch_fidelity_two_sided":0.99999999999999978}'),
    "mayers -t 2 -M 8": (
        '{"t":2,"M":8,"cutoff":47,"discarded_mass":0.0,"norm_0":0.99999999999999989,'
        '"marginal_a_residual_0":1.5459615553237544e-16,'
        '"marginal_b_residual_0":1.5046514109122352e-16,'
        '"povm_completeness_residual_0":0.0,'
        '"outcome_probs_0":[0.12499999999999994,0.12499999999999994,'
        '0.12499999999999994,0.12499999999999994,0.12499999999999994,'
        '0.12499999999999994,0.12499999999999994,0.12499999999999994],'
        '"outcome_remainder_0":1.8792850477283912e-16,'
        '"steering_min_fidelity_0":0.99999999999999956,'
        '"steering_map_0":[0,7,6,5,4,3,2,1],"steering_bijective_0":true,'
        '"norm_1":0.99999999999999989,'
        '"marginal_a_residual_1":1.5459615553237544e-16,'
        '"marginal_b_residual_1":1.5046514109122352e-16,'
        '"povm_completeness_residual_1":0.0,'
        '"outcome_probs_1":[0.12499999999999994,0.12499999999999994,'
        '0.12499999999999994,0.12499999999999994,0.12499999999999994,'
        '0.12499999999999994,0.12499999999999994,0.12499999999999994],'
        '"outcome_remainder_1":1.886874557519173e-16,'
        '"steering_min_fidelity_1":0.99999999999999933,'
        '"steering_map_1":[7,6,5,4,3,2,1,0],"steering_bijective_1":true,'
        '"switch_fidelity_one_sided":0.89774255361598798,'
        '"switch_fidelity_two_sided":0.99999999999999989}'),
    "mayers -t 0.15 -M 8": (
        # recorded while sectors with lambda_r <= 1e-14 were dropped, here one of
        # 5.7e-16; the kit now keeps every sector with lambda_r > 0, and the
        # report reads discarded_mass 0.0, within 1e-12 of this record
        '{"t":0.14999999999999999,"M":8,"cutoff":16,'
        '"discarded_mass":5.6633768925831541e-16,"norm_0":0.99999999999999967,'
        '"marginal_a_residual_0":6.7736020516259822e-16,'
        '"marginal_b_residual_0":6.7736020516259822e-16,'
        '"povm_completeness_residual_0":0.0,'
        '"outcome_probs_0":[0.12499999999999989,0.12499999999999989,'
        '0.12499999999999989,0.12499999999999989,0.12499999999999989,'
        '0.12499999999999989,0.12499999999999989,0.12499999999999989],'
        '"outcome_remainder_0":1.0942548667159878e-16,'
        '"steering_min_fidelity_0":0.99999999999999911,'
        '"steering_map_0":[0,7,6,5,4,3,2,1],"steering_bijective_0":true,'
        '"norm_1":0.99999999999999967,'
        '"marginal_a_residual_1":6.7736020516259822e-16,'
        '"marginal_b_residual_1":6.7736020516259822e-16,'
        '"povm_completeness_residual_1":0.0,'
        '"outcome_probs_1":[0.12499999999999988,0.12499999999999989,'
        '0.12499999999999988,0.12499999999999989,0.12499999999999988,'
        '0.12499999999999989,0.12499999999999989,0.12499999999999989],'
        '"outcome_remainder_1":1.0942548667159878e-16,'
        '"steering_min_fidelity_1":0.99999999999999911,'
        '"steering_map_1":[7,6,5,4,3,2,1,0],"steering_bijective_1":true,'
        '"switch_fidelity_one_sided":0.99999999999999933,'
        '"switch_fidelity_two_sided":0.99999999999999933}'),
}


def run(command, capsys):
    code = cli.main(command.split())
    return code, capsys.readouterr().out


@pytest.mark.parametrize("command", DIGESTS)
def test_stdout_digest(command, capsys):
    code, out = run(command, capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[command]


@pytest.mark.parametrize("command", TRANSCRIPTS)
def test_transcript_digest(command, tmp_path):
    path = tmp_path / "transcript"
    code = cli.main(command.split() + ["--transcript", str(path)])
    assert (code, hashlib.sha256(path.read_bytes()).hexdigest()) == (0, TRANSCRIPTS[command])


# the grid order, cutoff, steering maps and flags; every other field is a float
EXACT = ("M", "cutoff", "steering_map_0", "steering_map_1",
         "steering_bijective_0", "steering_bijective_1")


@pytest.mark.parametrize("command", MAYERS_REPORTS)
def test_mayers_report(command, capsys):
    code, out = run(command + " --format structured", capsys)
    assert code == 0
    report = json.loads(out)
    expected = json.loads(MAYERS_REPORTS[command])
    assert list(report) == list(expected)
    for key, value in expected.items():
        if key in EXACT:
            assert json.dumps(report[key]) == json.dumps(value), key
        else:
            np.testing.assert_allclose(report[key], value, rtol=0.0, atol=1e-12,
                                       err_msg=key)
