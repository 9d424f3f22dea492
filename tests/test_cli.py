import contextlib
import json
import math
import os
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from phasebc import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


class TestSimulate:
    def test_honest_all_accept(self, capsys):
        code, out = run_cli(["simulate", "--strategy", "honest", "-E", "1",
                             "-M", "8", "-k", "16", "-n", "1000",
                             "--format", "structured"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["accepted"] == 1000 and doc["sessions"] == 1000
        assert doc["acceptance_rate"] == 1.0

    def test_cheat_open_rate_in_ci(self, capsys):
        code, out = run_cli(["simulate", "--strategy", "cheat-open", "-E", "1",
                             "-M", "4", "-k", "10", "-n", "20000",
                             "--format", "structured"], capsys)
        assert code == 0
        doc = json.loads(out)
        p = math.exp(-40.0 * math.sin(math.pi / 8.0) ** 2)
        assert doc["ci95_low"] <= p <= doc["ci95_high"]

    def test_deterministic_reruns(self, capsys, tmp_path):
        argv = ["simulate", "--strategy", "cheat-open", "-E", "0.25", "-M", "4",
                "-k", "2", "-n", "500", "--seed", "5"]
        outputs = []
        for name in ("a", "b"):
            path = tmp_path / name
            code, out = run_cli(argv + ["--out", str(path)], capsys)
            assert code == 0
            outputs.append((out, path.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_transcript_file(self, capsys, tmp_path):
        path = tmp_path / "transcript"
        code, _ = run_cli(["simulate", "-E", "1", "-M", "4", "-k", "2", "-n", "3",
                           "--transcript", str(path)], capsys)
        assert code == 0
        from phasebc.transport import decode_stream

        kinds = [m.kind for m in decode_stream(path.read_bytes())]
        assert kinds == ["HELLO", "HELLO", "COMMIT", "OPEN", "VERDICT"]

    def test_amplitude_energy_exclusive(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["simulate", "-E", "1", "-t", "1"])
        assert err.value.code == 2

    def test_listen_connect_round_trip(self, capsys):
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        results = {}

        def listen():
            results["code"] = cli.main(["simulate", "--listen", str(port),
                                        "-E", "1", "-M", "8", "-k", "4",
                                        "--seed", "3"])

        thread = threading.Thread(target=listen)
        thread.start()
        code = None
        for _ in range(50):  # wait for the listener to come up
            try:
                code = cli.main(["simulate", "--connect", f"127.0.0.1:{port}",
                                 "-E", "1", "-M", "8", "-k", "4", "--seed", "3"])
                break
            except OSError:
                time.sleep(0.1)
        thread.join(10.0)
        out = capsys.readouterr().out
        assert code == 0 and results["code"] == 0
        # both endpoints printed the same five-message transcript
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 10
        assert sorted(lines[:5]) == sorted(lines[5:])


class TestTextFormat:
    def test_text_values_are_the_structured_json(self, capsys):
        argv = ["simulate", "-E", "1", "-M", "4", "-k", "2", "-n", "20"]
        _, text = run_cli(argv, capsys)
        _, structured = run_cli(argv + ["--format", "structured"], capsys)
        doc = json.loads(structured)
        width = max(len(k) for k in doc)
        rows = text.splitlines()
        assert [row[:width].rstrip() for row in rows] == list(doc)
        assert [json.loads(row[width + 2:]) for row in rows] == list(doc.values())
        assert rows[0] == "strategy".ljust(width) + '  "honest"'


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["simulate", "-n", "0"],
        ["simulate", "--listen", "abc"],
        ["simulate", "--connect", "nohost"],
        ["bounds", "-k", "0"],
        ["bounds", "-M", "1"],
        ["bounds", "--epsilon", "0"],
        ["plan", "--epsilon", "2"],
        ["bounds", "-E", "-1"],
        ["wigner", "--points", "1"],
        ["plan", "-E", "0"],
        ["plan", "-t", "0"],
        ["mayers", "-M", "16"],
        ["mayers", "-t", "3"],
        ["plan", "-t", "1e-170"],
        ["plan", "-E", "1e-320"],
        ["bounds", "-t", "1e200"],
        ["bounds", "-E", "1e300"],
        # 4E/tau beyond NumPy's Poisson limit, or E/tau overflowing to inf
        ["simulate", "-E", "1e300", "--tau", "0.5", "-n", "1"],
        ["simulate", "--strategy", "cheat-open", "-E", "1e19", "-M", "2", "-n", "1"],
        ["simulate", "-M", "3", "-k", "2", "--tau", "1e-320", "-n", "3"],
        # one past the allocation caps
        ["simulate", "-k", str(cli._MAX_MODES + 1)],
        ["wigner", "--points", str(cli._MAX_POINTS + 1)],
        ["wigner", "-M", str(cli._MAX_MIXTURE + 1)],
        # k beyond the double range, which pcb_bound multiplies into a float
        pytest.param(["bounds", "-k", str(10 ** 309)], id="bounds -k 10**309"),
    ], ids=" ".join)
    def test_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert "error: argument" in capsys.readouterr().err

    # options the command's handler never read
    @pytest.mark.parametrize("argv", [
        ["bounds", "--tau", "0.5"],
        ["bounds", "--seed", "4"],
        ["plan", "--tau", "0.5"],
        ["plan", "--seed", "4"],
        ["mayers", "-k", "7"],
        ["mayers", "--epsilon", "0.3"],
        ["mayers", "--tau", "0.1"],
        ["mayers", "--seed", "1"],
        ["wigner", "-k", "9"],
        ["wigner", "--epsilon", "0.3"],
        ["wigner", "--tau", "0.2"],
        ["wigner", "--seed", "5"],
        ["wigner", "--format", "structured"],
    ], ids=" ".join)
    def test_unread_option_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestAllocationCaps:
    @pytest.mark.parametrize("command, option, cap", [
        ("simulate", "-k", cli._MAX_MODES),
        ("wigner", "--points", cli._MAX_POINTS),
        ("wigner", "-M", cli._MAX_MIXTURE),
    ], ids=["simulate -k", "wigner --points", "wigner -M"])
    def test_cap_checked_at_parse_time(self, command, option, cap, capsys):
        # parse_args alone: no command body runs at the cap
        parser = cli.build_parser()
        args = parser.parse_args([command, option, str(cap)])
        assert vars(args)[option.lstrip("-")] == cap
        with pytest.raises(SystemExit) as err:
            parser.parse_args([command, option, str(cap + 1)])
        assert err.value.code == 2
        assert f"got '{cap + 1}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, size, cap", [
        (["simulate", "--strategy", "cheat-open", "-k", "5000", "-n", "2",
          "--format", "structured"], 5000, cli._MAX_MODES),
        (["wigner", "--points", "101"], 101 ** 2, cli._MAX_POINTS ** 2),
        (["wigner", "--points", "2", "-M", "20000"], 20000, cli._MAX_MIXTURE),
    ], ids=["simulate -k", "wigner --points", "wigner -M"])
    def test_cap_keeps_budget(self, argv, size, cap, tmp_path):
        # the traced peak at a small size, scaled to the cap, stays near the budget
        argv = argv + ["--out", str(tmp_path / "out")]
        if argv[0] == "simulate":
            argv += ["--transcript", str(tmp_path / "transcript")]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak / size * cap <= 1.1 * cli._BUDGET


def test_import_leaves_out_lazy_modules():
    # scipy.linalg (expm) and fractions (exact plan k) load only when used
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, phasebc.cli; "
            "print(sorted({'scipy.linalg', 'fractions'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out == "[]\n"


class TestBounds:
    def test_no_tail_warning_at_large_energy(self, capsys):
        # rounding in the Poisson weights once read here as a 5.5e-10 tail
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["bounds", "-E", "1e6"]) == 1
        assert "trace_norm_numeric" in capsys.readouterr().out

    def test_beyond_double_range(self, capsys):
        # the dense eigensolve at this cutoff (11,321) needs about 2 GB
        tracemalloc.start()
        try:
            code, out = run_cli(["bounds", "-t", "100", "-M", "512",
                                 "--format", "structured"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1  # binding fails: pca_exact is about 0.69
        doc = json.loads(out)
        assert 0.0 <= doc["trace_norm_numeric"] <= 2.0
        assert doc["trace_norm_bound"] is None and doc["pcb_bound"] is None
        assert doc["bound_valid"] is False and doc["feasible"] is False
        assert peak < 50 * 2 ** 20

    def test_report_values(self, capsys):
        code, out = run_cli(["bounds", "-t", "1", "-M", "8", "-k", "1",
                             "--format", "structured"], capsys)
        assert code == 1  # not feasible at epsilon 0.01
        doc = json.loads(out)
        assert abs(doc["pcb_bound"] - 0.4265480471339393) < 1e-12
        assert doc["trace_norm_numeric"] <= doc["trace_norm_bound"]
        assert doc["bound_valid"] is True

    def test_feasible_exit_zero(self, capsys):
        code, out = run_cli(["bounds", "-t", "1", "-M", "20", "-k", "1843",
                             "--epsilon", "1e-2", "--format", "structured"], capsys)
        assert code == 0
        assert json.loads(out)["feasible"] is True


class TestPlan:
    def test_reference_plan(self, capsys):
        code, out = run_cli(["plan", "--epsilon", "1e-2", "-t", "1",
                             "--format", "structured"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["M"], doc["k"]) == (20, 1843)
        assert doc["k_max"] == 2269
        assert doc["m_cubed_in_window"] is False
        assert doc["scanned"][-1]["nonempty"] is True
        assert all(not row["nonempty"] for row in doc["scanned"][:-1])

    def test_k_beyond_double_range(self, capsys):
        # log(1/eps) / (4 t^2 sin^2(pi/2M)) overflows a double; k is its exact ceiling
        from fractions import Fraction

        code, out = run_cli(["plan", "-E", "3e-308", "--epsilon", "1e-300",
                             "--format", "structured"], capsys)
        assert code == 0
        doc = json.loads(out)
        s = math.sin(math.pi / (2.0 * doc["M"]))
        per_mode = 4.0 * doc["t"] * doc["t"] * s * s
        assert math.log(1e300) / per_mode == math.inf
        assert doc["k"] == math.ceil(Fraction(math.log(1e300)) / Fraction(per_mode))

    def test_search_exhausted_exit(self, capsys):
        code = cli.main(["plan", "--epsilon", "1e-2", "-t", "1",
                         "--scan-limit", "8"])
        capsys.readouterr()
        assert code == 1


class TestMayers:
    def test_verification_passes(self, capsys):
        code, out = run_cli(["mayers", "-t", "1", "-M", "4",
                             "--format", "structured"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["steering_min_fidelity_0"] >= 1 - 1e-8
        assert doc["switch_fidelity_two_sided"] >= 1 - 1e-8
        assert sorted(doc["steering_map_1"]) == [0, 1, 2, 3]


class TestWigner:
    def gap(self, capsys, m):
        grids = {}
        for b in (0, 1):
            code, out = run_cli(["wigner", "-t", "1", "-M", str(m), "-b", str(b),
                                 "--points", "121"], capsys)
            assert code == 0
            rows = out.strip().splitlines()
            assert rows[0] == "x,p,w"
            grids[b] = np.array([float(r.split(",")[2]) for r in rows[1:]])
        return np.abs(grids[0] - grids[1]).max()

    def test_code_book_gap_ordering(self, capsys):
        assert self.gap(capsys, 6) > 100.0 * self.gap(capsys, 32)

    def test_deterministic(self, capsys):
        a = run_cli(["wigner", "-t", "1", "-M", "6", "-b", "0", "--points", "41"],
                    capsys)
        b = run_cli(["wigner", "-t", "1", "-M", "6", "-b", "0", "--points", "41"],
                    capsys)
        assert a == b
