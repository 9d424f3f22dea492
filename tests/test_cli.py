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
from phasebc.codestates import (_check_count, _check_nonnegative, _check_probability,
                                _check_transmittivity)
from phasebc.fock import density_cutoff
from phasebc.protocol import Verdict
from phasebc.transport import SessionTranscript

from oracles import decode_stream


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

    @pytest.mark.parametrize("accepted, n, low, high", [
        (0, 50, 0.0, 0.0711217),
        (3, 1000, 0.000619100, 0.00874202),
        (0, 1000, 0.0, 0.00368208),
        (3, 3, 0.292402, 1.0),
    ])
    def test_exact_interval(self, accepted, n, low, high, capsys, monkeypatch):
        # sessions i < accepted accept; the Wald interval gave 0.0392 at 0/50
        def run_session(strategy, receiver, params, seed, session_id):
            verdict = Verdict(seed[1] < accepted, (0,) if seed[1] < accepted else (1,))
            return SessionTranscript(session_id, (), verdict)

        monkeypatch.setattr(cli.transport, "run_session", run_session)
        code, out = run_cli(["simulate", "-n", str(n), "--format", "structured"], capsys)
        doc = json.loads(out)
        assert code == 0 and doc["accepted"] == accepted
        assert [float(f"{doc[k]:.6g}") for k in ("ci95_low", "ci95_high")] == [low, high]

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
        out = ""
        for _ in range(50):  # wait for the listener: until then, exit 1 and no transcript
            code = cli.main(["simulate", "--connect", f"127.0.0.1:{port}",
                             "-E", "1", "-M", "8", "-k", "4", "--seed", "3"])
            out = capsys.readouterr().out
            if out:
                break
            time.sleep(0.1)
        thread.join(10.0)
        out += capsys.readouterr().out
        assert code == 0 and results["code"] == 0
        # both endpoints printed the same five-message transcript
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 10
        assert sorted(lines[:5]) == sorted(lines[5:])

    def _closed_port(self):
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def _assert_failed_session(self, code, capsys):
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("session failed: ") and captured.err.count("\n") == 1

    def test_connect_refused_exits_one(self, capsys):
        # once a ConnectionRefusedError traceback
        code = cli.main(["simulate", "--connect", f"127.0.0.1:{self._closed_port()}"])
        self._assert_failed_session(code, capsys)

    def test_unknown_host_exits_one(self, monkeypatch, capsys):
        # the resolver's error, raised without a lookup
        def unknown(address, timeout=None):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(socket, "create_connection", unknown)
        code = cli.main(["simulate", "--connect", "nosuchhost.invalid:7777"])
        self._assert_failed_session(code, capsys)

    def test_peer_closing_mid_session_exits_one(self, capsys):
        # a listener that reads the HELLO and closes; once a ProtocolStateError traceback
        server = socket.create_server(("127.0.0.1", 0))

        def close_after_hello():
            conn, _ = server.accept()
            with conn, conn.makefile("rb") as rfile:
                rfile.readline()

        thread = threading.Thread(target=close_after_hello)
        thread.start()
        with server:
            code = cli.main(["simulate", "--connect", f"127.0.0.1:{server.getsockname()[1]}"])
            thread.join(10.0)
        self._assert_failed_session(code, capsys)

    def test_listen_on_a_port_in_use_exits_one(self, capsys):
        with socket.create_server(("127.0.0.1", 0)) as held:
            code = cli.main(["simulate", "--listen", str(held.getsockname()[1])])
        self._assert_failed_session(code, capsys)


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
        # one past the grid order cap, and an energy whose density cutoff passes 2^22
        ["mayers", "-M", str(cli._MAX_ORDER + 1)],
        ["mayers", "-E", "4200000"],
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
        ["simulate", "-M", str(cli._MAX_ORDER + 1)],
        ["bounds", "-M", str(cli._MAX_ORDER + 1)],
        ["plan", "--scan-limit", str(cli._MAX_SCAN + 1)],
        # an order beyond int64 once reached rng.integers and _by_class
        ["simulate", "-M", "100000000000000000000", "-n", "1"],
        ["bounds", "-M", "100000000000000000000"],
        # a scan limit below 2 once ran no scan and exited 1
        ["plan", "--scan-limit", "-5"],
        ["plan", "--scan-limit", "1"],
        # k beyond the double range, which pcb_bound multiplies into a float
        pytest.param(["bounds", "-k", str(10 ** 309)], id="bounds -k 10**309"),
        # options one networked session would ignore, even at their defaults
        ["simulate", "--listen", "5000", "-n", "1000"],
        ["simulate", "--listen", "5000", "--transcript", "t"],
        ["simulate", "--listen", "5000", "--out", "o"],
        ["simulate", "--listen", "5000", "--format", "text"],
        ["simulate", "--listen", "5000", "--strategy", "honest"],
        ["simulate", "--listen", "5000", "--bit", "0"],
        ["simulate", "--connect", "127.0.0.1:5000", "-n", "1000"],
        ["simulate", "--connect", "127.0.0.1:5000", "--transcript", "t"],
        ["simulate", "--connect", "127.0.0.1:5000", "--out", "o"],
        ["simulate", "--connect", "127.0.0.1:5000", "--format", "text"],
        ["simulate", "--listen", "5000", "--connect", "127.0.0.1:5000"],
        # points^2 * M one past the work cap at the default 201-point grid
        ["wigner", "-M", str(cli._MAX_WORK // 201 ** 2 + 1)],
        # a grid whose span 2 * halfwidth overflows once raised from linspace
        ["wigner", "--halfwidth", "1e308", "--points", "3"],
        ["wigner", "--halfwidth", "8.99e307", "--points", "3"],
    ], ids=" ".join)
    def test_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert "error: argument" in capsys.readouterr().err

    # the exit-2 text is the library rule's own message, not a restatement
    @pytest.mark.parametrize("argv, rule", [
        pytest.param(["bounds", "--epsilon", "0"], lambda: _check_probability(0.0),
                     id="bounds --epsilon 0"),
        pytest.param(["simulate", "--tau", "0"], lambda: _check_transmittivity(0.0),
                     id="simulate --tau 0"),
        pytest.param(["bounds", "-E", "-1"], lambda: _check_nonnegative(-1.0, "energy"),
                     id="bounds -E -1"),
        pytest.param(["bounds", "-k", "0"], lambda: _check_count(0), id="bounds -k 0"),
    ])
    def test_exit_two_text_is_the_rules(self, argv, rule, capsys):
        with pytest.raises(ValueError) as refused:
            rule()
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert f"{refused.value}; got '{argv[-1]}'" in capsys.readouterr().err

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
        ("simulate", "-M", cli._MAX_ORDER),
        ("bounds", "-M", cli._MAX_ORDER),
        ("mayers", "-M", cli._MAX_ORDER),
        ("plan", "--scan-limit", cli._MAX_SCAN),
    ], ids=["simulate -k", "wigner --points", "wigner -M", "simulate -M", "bounds -M",
            "mayers -M", "plan --scan-limit"])
    def test_cap_checked_at_parse_time(self, command, option, cap, capsys):
        # parse_args alone: no command body runs at the cap
        parser = cli.build_parser()
        args = parser.parse_args([command, option, str(cap)])
        assert vars(args)[option.lstrip("-").replace("-", "_")] == cap
        with pytest.raises(SystemExit) as err:
            parser.parse_args([command, option, str(cap + 1)])
        assert err.value.code == 2
        assert f"got '{cap + 1}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, size, cap", [
        (["simulate", "--strategy", "cheat-open", "-k", "5000", "-n", "2",
          "--format", "structured"], 5000, cli._MAX_MODES),
        (["wigner", "--points", "101"], 101 ** 2, cli._MAX_POINTS ** 2),
        (["wigner", "--points", "2", "-M", "20000"], 20000, cli._MAX_MIXTURE),
        (["mayers", "-M", "80000"], 80000, cli._MAX_ORDER),
        # density cutoff 104,141 at E = 1e5, against the cap of 2^22 photon numbers
        (["mayers", "-E", "100000", "-M", "2"], 104141, cli._MAX_CUTOFF),
        # the plan at t = 30 is M = 4923, after scanning 4922 orders
        (["plan", "-t", "30", "--scan-limit", "10000"], 4922, cli._MAX_SCAN),
    ], ids=["simulate -k", "wigner --points", "wigner -M", "mayers -M", "mayers -E",
            "plan --scan-limit"])
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


def test_report_energy_cap_is_the_last_double_within_the_cutoff_cap():
    # the cap replaces a density_cutoff call at parse time
    assert density_cutoff(cli._MAX_REPORT_ENERGY) <= cli._MAX_CUTOFF
    assert density_cutoff(math.nextafter(cli._MAX_REPORT_ENERGY, math.inf)) > cli._MAX_CUTOFF


def test_import_leaves_out_lazy_modules():
    # scipy.special (Poisson tails, log-gamma and the simulate interval) and
    # fractions (exact plan k) load only when used; scipy.linalg never does
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, phasebc.cli; print(sorted("
            "{'scipy.linalg', 'scipy.special', 'fractions'} & set(sys.modules)))")
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

    @pytest.mark.parametrize("argv", [["-E", "1", "-M", "20"], ["-E", "16", "-M", "64"],
                                      ["-t", "100", "-M", "512"]], ids=" ".join)
    def test_passes_beyond_the_old_limits(self, argv, capsys):
        code, out = run_cli(["mayers", *argv, "--format", "structured"], capsys)
        assert code == 0
        doc = json.loads(out)
        for b in (0, 1):
            assert doc[f"steering_bijective_{b}"] is True
            assert doc[f"steering_min_fidelity_{b}"] >= 1 - 1e-8

    def test_vacuum_fails_steering(self, capsys):
        # at E = 0 every code state is the vacuum: all tie, argmax takes the first
        code, out = run_cli(["mayers", "-E", "0", "-M", "4", "--format", "structured"],
                            capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["steering_map_0"] == doc["steering_map_1"] == [0, 0, 0, 0]
        assert doc["steering_bijective_0"] is False and doc["steering_bijective_1"] is False


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

    def test_far_grid_runs_without_warning(self, capsys):
        # |alpha - z|^2 once overflowed to inf in the Gaussian of each mixture point
        values = {}
        for halfwidth in ("1e200", "1"):
            code, out = run_cli(["wigner", "--halfwidth", halfwidth, "--points", "3"], capsys)
            assert code == 0
            values[halfwidth] = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
        # only the origin lies near the code states; it reads as on a small grid
        assert values["1e200"] == ["0"] * 4 + values["1"][4:5] + ["0"] * 4

    def test_deterministic(self, capsys):
        a = run_cli(["wigner", "-t", "1", "-M", "6", "-b", "0", "--points", "41"],
                    capsys)
        b = run_cli(["wigner", "-t", "1", "-M", "6", "-b", "0", "--points", "41"],
                    capsys)
        assert a == b
