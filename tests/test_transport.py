import collections
import hashlib
import math
import os
import socket
import threading
import time

import numpy as np
import pytest

from phasebc import protocol as proto
from phasebc import transport as tp
from phasebc.codestates import CodeParams, build_sigma, code_amplitude
from phasebc.fock import coherent_vector, helstrom_success
from phasebc.security import pcb_bound


def make_params(**kw):
    defaults = dict(energy=1.0, M=8, k=4)
    defaults.update(kw)
    return proto.ProtocolParams(**defaults)


class TestWireFormat:
    def sample_messages(self):
        return [
            tp.WireMessage("HELLO", "s", {"role": "alice", "energy": 1.0,
                                          "modulation": 8, "repetitions": 2,
                                          "epsilon": 0.01, "tau": 1.0}),
            tp.WireMessage("COMMIT", "s", {"amplitudes": [[0.1, -0.2], [1.0, 0.0]]}),
            tp.WireMessage("OPEN", "s", {"bit": 1, "phases": [3, 7]}),
            tp.WireMessage("VERDICT", "s", {"accepted": False, "counts": [0, 2]}),
            tp.WireMessage("ABORT", "s", {"reason": "x"}),
        ]

    def test_round_trip_every_kind(self):
        for msg in self.sample_messages():
            assert tp.decode_line(tp.encode(msg)) == msg

    def test_unknown_kind(self):
        with pytest.raises(tp.DecodeError):
            tp.decode_line(b'{"kind": "NOPE", "session": "s"}\n')

    def test_non_object_line(self):
        with pytest.raises(tp.DecodeError):
            tp.decode_line(b"[1, 2]\n")
        with pytest.raises(tp.DecodeError):
            tp.decode_line(b'{"kind": "HELLO"}\n')  # missing session id

    def test_non_finite_numbers_rejected(self):
        # encode refuses these, so decode must too
        for literal in (b"NaN", b"Infinity", b"-Infinity", b"1e400"):
            line = b'{"kind": "COMMIT", "session": "s", "amplitudes": [[' + literal + b', 0.0]]}\n'
            with pytest.raises(tp.DecodeError):
                tp.decode_line(line)
        with pytest.raises(ValueError):
            tp.encode(tp.WireMessage("COMMIT", "s", {"amplitudes": [[math.nan, 0.0]]}))

    def test_malformed_line_offset(self):
        first = tp.encode(self.sample_messages()[0])
        data = first + b"{broken\n"
        with pytest.raises(tp.DecodeError) as err:
            tp.decode_stream(data)
        assert err.value.offset == len(first)

    def test_amplitudes_bit_exact(self):
        rng = np.random.default_rng(0)
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        msg = tp.WireMessage("COMMIT", "s",
                             {"amplitudes": [[a.real, a.imag] for a in amps]})
        back = tp.decode_line(tp.encode(msg))
        decoded = np.array([complex(re, im) for re, im in back.body["amplitudes"]])
        assert np.array_equal(decoded, amps)

    def test_decoded_message_encodes_canonically(self):
        # a received line is re-encoded, never logged as it came in
        msg = tp.decode_line(b'{ "kind": "COMMIT", "session": "s", '
                             b'"amplitudes": [[1.0, -0.0], [2.50, 0]] }\n')
        assert tp.encode(msg) == (b'{"kind":"COMMIT","session":"s",'
                                  b'"amplitudes":[[1,-0.0],[2.5,0]]}\n')

    def test_stream_round_trip(self):
        msgs = self.sample_messages()
        data = b"".join(tp.encode(m) for m in msgs)
        assert tp.decode_stream(data) == msgs

    def test_float_round_trip_fuzz(self):
        import struct

        rng = np.random.default_rng(13)
        values = np.concatenate([
            rng.normal(size=300),
            np.exp(rng.uniform(-700, 700, size=300)) * rng.choice([-1, 1], 300),
            np.array([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                      2.2250738585072014e-308]),
        ])
        msg = tp.WireMessage("COMMIT", "s",
                             {"amplitudes": [[float(v), 0.0] for v in values]})
        back = tp.decode_line(tp.encode(msg))
        for original, (re, _) in zip(values, back.body["amplitudes"]):
            a = struct.pack("<d", float(original))
            b = struct.pack("<d", float(re))
            assert a == b, original


class TestSessions:
    def test_honest_loopback_accepts(self):
        t = tp.run_session(proto.HonestAlice(0), tp.BobStrategy(), make_params(), seed=1)
        assert t.verdict.accepted and not t.aborted
        assert [m.kind for m in t.messages] == ["HELLO", "HELLO", "COMMIT",
                                                "OPEN", "VERDICT"]

    def test_tcp_equals_loopback(self):
        for seed in (0, 1, 2):
            a = tp.run_session(proto.HonestAlice(1), tp.BobStrategy(), make_params(),
                               seed=seed)
            b = tp.run_session(proto.HonestAlice(1), tp.BobStrategy(), make_params(),
                               seed=seed, transport="tcp")
            assert a.to_bytes() == b.to_bytes()

    def test_tcp_sets_nodelay_on_both_ends(self, monkeypatch):
        # without it the sender's OPEN waits on the receiver's delayed ACK
        drive = tp._drive
        nodelay = {}

        def recording_drive(session, sock):
            log = drive(session, sock)
            nodelay[type(session).__name__] = sock.getsockopt(socket.IPPROTO_TCP,
                                                              socket.TCP_NODELAY)
            return log

        monkeypatch.setattr(tp, "_drive", recording_drive)
        t = tp.run_session(proto.HonestAlice(0), tp.BobStrategy(), make_params(),
                           seed=1, transport="tcp")
        assert t.verdict.accepted
        assert set(nodelay) == {"AliceSession", "BobSession"}
        assert all(nodelay.values())

    def test_tcp_sends_one_write_per_turn(self, monkeypatch):
        sendall = socket.socket.sendall
        writes = []

        def recording_sendall(sock, data, *args):
            writes.append(bytes(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", recording_sendall)
        t = tp.run_session(proto.HonestAlice(0), tp.BobStrategy(), make_params(),
                           seed=1, transport="tcp")
        kinds = sorted(tuple(m.kind for m in tp.decode_stream(w)) for w in writes)
        assert kinds == [("COMMIT", "OPEN"), ("HELLO",), ("HELLO",), ("VERDICT",)]
        assert b"".join(writes) == t.to_bytes()

    def test_tcp_session_formats_each_sent_message_once(self, monkeypatch):
        # the driver's encoding of a sent message is the one to_bytes() writes;
        # only the messages Alice received are encoded again, for her log
        format_document = tp.format_document
        formatted = collections.Counter()

        def counting_format(doc):
            if isinstance(doc, dict) and "kind" in doc:
                formatted[doc["kind"]] += 1
            return format_document(doc)

        monkeypatch.setattr(tp, "format_document", counting_format)
        t = tp.run_session(proto.HonestAlice(0), tp.BobStrategy(), make_params(k=16),
                           seed=1, transport="tcp")
        assert t.to_bytes() == t.to_bytes()
        assert formatted == {"HELLO": 3, "COMMIT": 1, "OPEN": 1, "VERDICT": 2}

    @pytest.mark.skipif(not os.path.exists("/proc/net/tcp"),
                        reason="reads Linux's TCP socket table")
    def test_tcp_time_wait_stays_off_the_listening_port(self, monkeypatch):
        # the side that closes first keeps the connection in TIME_WAIT for
        # 60 s; on the listener's side that was one such socket per session
        drive = tp._drive
        ports = {}

        def recording_drive(session, sock):
            ports[type(session).__name__] = sock.getsockname()[1]
            return drive(session, sock)

        monkeypatch.setattr(tp, "_drive", recording_drive)
        tp.run_session(proto.HonestAlice(0), tp.BobStrategy(), make_params(),
                       seed=1, transport="tcp")
        pair = {ports["AliceSession"], ports["BobSession"]}
        deadline = time.monotonic() + 5.0
        while True:
            with open("/proc/net/tcp") as fh:
                rows = [line.split() for line in fh.readlines()[1:]]
            local = [(int(r[1].split(":")[1], 16), int(r[2].split(":")[1], 16), r[3])
                     for r in rows]
            time_wait = {lp for lp, rp, state in local
                         if state == "06" and {lp, rp} == pair}
            if time_wait or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert time_wait == {ports["AliceSession"]}

    def test_replay_byte_identical(self):
        a = tp.run_session(proto.CheatOpenAlice(0), tp.BobStrategy(), make_params(),
                           seed=9)
        b = tp.run_session(proto.CheatOpenAlice(0), tp.BobStrategy(), make_params(),
                           seed=9)
        assert a.to_bytes() == b.to_bytes()

    def test_transcript_decodes_to_messages(self):
        t = tp.run_session(proto.HonestAlice(0), tp.BobStrategy(), make_params(), seed=4)
        assert tuple(tp.decode_stream(t.to_bytes())) == t.messages

    def test_parameter_mismatch_aborts(self):
        t = tp.run_session(proto.HonestAlice(0), tp.BobStrategy(), make_params(),
                           seed=1, bob_params=make_params(k=5))
        assert t.aborted and t.verdict is None
        assert "parameter mismatch" in t.abort_reason
        assert [m.kind for m in t.messages] == ["HELLO", "ABORT"]

    def test_lossy_channel_still_accepts(self):
        # pre-compensation keeps residuals at rounding scale, counts stay zero
        params = make_params(tau=0.5)
        channel = tp.ChannelModel(tau=0.5)
        for seed in range(20):
            t = tp.run_session(proto.HonestAlice(0), tp.BobStrategy(), params,
                               channel=channel, seed=seed)
            assert t.verdict.accepted

    def test_default_channel_follows_params_tau(self):
        params = make_params(tau=0.25)
        for seed in range(10):
            t = tp.run_session(proto.HonestAlice(1), tp.BobStrategy(), params,
                               seed=seed)
            assert t.verdict.accepted
        commit = next(m for m in t.messages if m.kind == "COMMIT")
        received = np.array([complex(re, im) for re, im in
                             commit.body["amplitudes"]])
        assert np.abs(np.abs(received) ** 2 - params.energy).max() < 1e-12

    def test_serve_connect_sockets(self):
        params = make_params()
        results = {}

        # race-free enough for a test: grab a free port, then listen on it
        import socket as socketlib

        srv = socketlib.create_server(("127.0.0.1", 0))
        port = srv.getsockname()[1]
        srv.close()

        def serve_on_port():
            results["bob"] = tp.serve_single_session("127.0.0.1", port,
                                                     tp.BobStrategy(), params, seed=3)

        thread = threading.Thread(target=serve_on_port)
        thread.start()
        import time

        alice_t = None
        for _ in range(50):  # wait for the listener to come up
            try:
                alice_t = tp.connect_single_session("127.0.0.1", port,
                                                    proto.HonestAlice(0),
                                                    params, seed=3)
                break
            except OSError:
                time.sleep(0.1)
        thread.join(10.0)
        assert alice_t is not None and alice_t.verdict.accepted
        assert results["bob"].to_bytes() == alice_t.to_bytes()


# sha256 of to_bytes() for three fixed sessions.  Transcript bytes must stay
# the same across commits, not only across reruns and transports.
GOLDEN = {
    "honest": "73659c8b21914772c2218392af1914cc09ffc0ac49861fbcc9dcda5ab9f49266",
    "cheat": "3807e24d54352ac3e0e03e868e052a459f95fc436e8be86b5bd4aab4ab8cb1d1",
    "mismatch": "cb93c8e188383e1f34ca656862ac3dcafbc5461849bb10c313af3c7ec4ded5a2",
}


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_transcripts(case, transport):
    sessions = {
        "honest": dict(alice_strategy=proto.HonestAlice(1), params=make_params(),
                       seed=7),
        "cheat": dict(alice_strategy=proto.CheatOpenAlice(0),
                      params=make_params(M=4, k=10), seed=(31, 5)),
        "mismatch": dict(alice_strategy=proto.HonestAlice(0), params=make_params(),
                         seed=1, bob_params=make_params(k=5)),
    }
    t = tp.run_session(bob_strategy=tp.BobStrategy(), session_id=f"golden-{case}",
                       transport=transport, **sessions[case])
    assert hashlib.sha256(t.to_bytes()).hexdigest() == GOLDEN[case]
    assert t.aborted == (case == "mismatch")


def free_port():
    with socket.create_server(("127.0.0.1", 0)) as srv:
        return srv.getsockname()[1]


class TestDriverAborts:
    """A line the driver cannot read is answered with an ABORT, not an exception."""

    # (line, abort reason); the limit for k=4 is 4096 + 64*4 bytes
    BAD_LINES = [(b"{broken\n", "malformed message line"),
                 (b'{"kind": "HELLO", "session": "' + b"s" * 5000 + b'"}\n',
                  "exceeds 4352 bytes")]

    @pytest.mark.parametrize("line, reason", BAD_LINES, ids=["malformed", "over-long"])
    def test_serve_answers_bad_line(self, line, reason):
        port = free_port()
        results = {}
        thread = threading.Thread(target=lambda: results.update(
            bob=tp.serve_single_session("127.0.0.1", port, tp.BobStrategy(),
                                        make_params(), seed=3)))
        thread.start()
        for _ in range(50):  # wait for the listener to come up
            try:
                sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
                break
            except OSError:
                time.sleep(0.1)
        else:
            pytest.fail("listener never came up")
        with sock:
            sock.sendall(line)
            reply = sock.makefile("rb").readline()
        thread.join(10.0)
        assert not thread.is_alive()
        t = results["bob"]
        assert t.aborted and t.verdict is None
        assert [m.kind for m in t.messages] == ["ABORT"]
        assert reason in t.abort_reason
        assert tp.decode_line(reply) == t.messages[0]

    @pytest.mark.parametrize("line, reason", BAD_LINES, ids=["malformed", "over-long"])
    def test_connect_answers_bad_line(self, line, reason):
        with socket.create_server(("127.0.0.1", 0)) as srv:
            def reply_garbage():
                conn, _ = srv.accept()
                with conn:
                    conn.makefile("rb").readline()
                    conn.sendall(line)
                    conn.makefile("rb").readline()

            thread = threading.Thread(target=reply_garbage)
            thread.start()
            t = tp.connect_single_session("127.0.0.1", srv.getsockname()[1],
                                          proto.HonestAlice(0), make_params(), seed=3)
            thread.join(10.0)
        assert not thread.is_alive()
        assert t.aborted and t.verdict is None
        assert [m.kind for m in t.messages] == ["HELLO", "ABORT"]
        assert reason in t.abort_reason


class TestStateMachine:
    def bob(self, params=None):
        return tp.BobSession(tp.BobStrategy(), params or make_params(),
                             tp.ChannelModel(), np.random.default_rng(0), "s")

    def test_out_of_order_aborts(self):
        bob = self.bob()
        replies = bob.handle(tp.WireMessage("OPEN", "s", {"bit": 0, "phases": [0]}))
        assert len(replies) == 1 and replies[0].kind == "ABORT"
        assert "protocol-state error" in replies[0].body["reason"]

    def test_abort_is_terminal(self):
        bob = self.bob()
        bob.handle(tp.WireMessage("OPEN", "s", {"bit": 0, "phases": [0]}))
        with pytest.raises(tp.ProtocolStateError):
            bob.handle(tp.WireMessage("HELLO", "s", {}))

    def test_session_id_mismatch(self):
        bob = self.bob()
        replies = bob.handle(tp.WireMessage("HELLO", "other", {}))
        assert replies[0].kind == "ABORT"

    def feed_to_open_state(self, bob, k=4):
        hello = tp.WireMessage("HELLO", "s", tp._params_body(make_params(k=k), "alice"))
        bob.handle(hello)
        amps = [[1.0, 0.0]] * k
        bob.handle(tp.WireMessage("COMMIT", "s", {"amplitudes": amps}))

    def test_hello_field_types_checked(self):
        # JSON true equals 1 and 1.0; an energy of 1.0 arrives as the int 1
        params = make_params(k=1)
        good = tp._params_body(params, "alice")
        for key, value, accepted in (("energy", True, False),
                                     ("repetitions", True, False),
                                     ("modulation", 8.0, False),
                                     ("tau", "1", False),
                                     ("energy", 1, True)):
            bob = self.bob(params)
            body = dict(good, **{key: value})
            replies = bob.handle(tp.WireMessage("HELLO", "s", body))
            if accepted:
                assert [r.kind for r in replies] == ["HELLO"]
                assert bob.state == "wait_commit"
            else:
                assert [r.kind for r in replies] == ["ABORT"], (key, value)
                assert "parameter mismatch" in replies[0].body["reason"]
        # NumPy-typed parameters still agree over loopback
        numpy_params = make_params(energy=np.float64(1.0), M=np.int64(8))
        t = tp.run_session(proto.HonestAlice(0), tp.BobStrategy(), numpy_params, seed=2)
        assert not t.aborted and t.verdict.accepted

    def test_malformed_commit_body_aborts(self):
        for body in ({"nope": 1},
                     {"amplitudes": [[math.nan, 0.0]] * 4},
                     {"amplitudes": [[1.0, -math.inf]] * 4},
                     {"amplitudes": [[10 ** 400, 0]] * 4}):
            bob = self.bob()
            bob.handle(tp.WireMessage("HELLO", "s",
                                      tp._params_body(make_params(), "alice")))
            replies = bob.handle(tp.WireMessage("COMMIT", "s", body))
            assert replies[0].kind == "ABORT"
            assert "malformed COMMIT" in replies[0].body["reason"]

    def test_out_of_range_phase_aborts(self):
        for phases in ([0, 1, 2, 99], [0, 1, 2, 10 ** 30]):
            bob = self.bob()
            self.feed_to_open_state(bob)
            replies = bob.handle(tp.WireMessage("OPEN", "s",
                                                {"bit": 0, "phases": phases}))
            assert replies[0].kind == "ABORT"
            assert "malformed reveal" in replies[0].body["reason"]

    def test_missing_open_keys_abort(self):
        # wrong types are not coerced: a float phase 0.9 once opened as 0
        for body in ({"bit": 0},
                     {"bit": 0, "phases": [0.9, 0, 0, 0]},
                     {"bit": 0, "phases": ["0", 0, 0, 0]},
                     {"bit": 0, "phases": [False, 0, 0, 0]},
                     {"bit": 0, "phases": "0000"},
                     {"bit": True, "phases": [0, 0, 0, 0]},
                     {"bit": 0.0, "phases": [0, 0, 0, 0]},
                     {"bit": "0", "phases": [0, 0, 0, 0]}):
            bob = self.bob()
            self.feed_to_open_state(bob)
            replies = bob.handle(tp.WireMessage("OPEN", "s", body))
            assert replies[0].kind == "ABORT"
            assert "malformed OPEN" in replies[0].body["reason"]

    def test_random_message_sequences_never_crash(self):
        # any valid-kind garbage either advances the session or aborts it
        rng = np.random.default_rng(99)
        bodies = [
            {}, {"bit": 7}, {"amplitudes": "zzz"}, {"phases": [1, 2]},
            {"amplitudes": [[1.0, 0.0]]}, {"accepted": True},
            {"reason": "fuzz"}, {"counts": [0]},
            tp._params_body(make_params(), "alice"),
        ]
        for trial in range(300):
            bob = self.bob()
            alice = tp.AliceSession(proto.HonestAlice(0), make_params(),
                                    tp.ChannelModel(), np.random.default_rng(trial),
                                    "s")
            alice.start()
            for session in (bob, alice):
                while not session.done:
                    kind = tp.KINDS[rng.integers(0, len(tp.KINDS))]
                    body = bodies[rng.integers(0, len(bodies))]
                    replies = session.handle(tp.WireMessage(kind, "s", dict(body)))
                    assert all(isinstance(r, tp.WireMessage) for r in replies)
                with pytest.raises(tp.ProtocolStateError):
                    session.handle(tp.WireMessage("ABORT", "s", {}))

    def test_alice_rejects_unexpected_kind(self):
        alice = tp.AliceSession(proto.HonestAlice(0), make_params(),
                                tp.ChannelModel(), np.random.default_rng(0), "s")
        alice.start()
        replies = alice.handle(tp.WireMessage("VERDICT", "s",
                                              {"accepted": True, "counts": []}))
        assert replies[0].kind == "ABORT"
        with pytest.raises(tp.ProtocolStateError):
            alice.handle(tp.WireMessage("HELLO", "s", {}))

    def test_malformed_verdict_body_aborts(self):
        # "false" is a truthy string; it must not read as an acceptance
        for body in ({"accepted": "false", "counts": [0, 0, 0, 0]},
                     {"accepted": 1, "counts": [0, 0, 0, 0]},
                     {"accepted": True, "counts": [0.0, 0, 0, 0]},
                     {"accepted": True, "counts": [False, 0, 0, 0]},
                     {"accepted": True, "counts": "0000"},
                     {"accepted": True, "counts": [1, 0, 0, 0]},
                     {"counts": [0, 0, 0, 0]}):
            alice = tp.AliceSession(proto.HonestAlice(0), make_params(),
                                    tp.ChannelModel(), np.random.default_rng(0), "s")
            alice.start()
            alice.handle(tp.WireMessage("HELLO", "s",
                                        tp._params_body(make_params(), "bob")))
            replies = alice.handle(tp.WireMessage("VERDICT", "s", body))
            assert replies[0].kind == "ABORT"
            assert "malformed VERDICT" in replies[0].body["reason"]
            assert alice.verdict is None


class TestSealing:
    def test_honest_strategy_gets_sealed_payload_only(self):
        seen = {}

        class Probe(tp.BobStrategy):
            def observe_commit(self, payload, params, rng):
                seen["payload"] = payload

        tp.run_session(proto.HonestAlice(0), Probe(), make_params(), seed=0)
        payload = seen["payload"]
        assert payload.sealed
        public = [n for n in dir(payload) if not n.startswith("_")]
        assert sorted(public) == ["count_after_displacement", "sealed"]

    def test_honest_strategy_never_offered_raw_amplitudes(self):
        with pytest.raises(tp.ProtocolStateError):
            tp.run_session(proto.HonestAlice(0), tp.BobStrategy(), make_params(),
                           channel=tp.ChannelModel(adversarial_bob=True), seed=0)


class TestAdversarialBob:
    def test_helstrom_guess_rate_below_bound(self):
        code = CodeParams.from_energy(1.0, 8)
        params = make_params(M=8, k=1)
        bob = tp.HelstromBob(code)
        alice = proto.RandomBitAlice()
        channel = tp.ChannelModel(adversarial_bob=True)
        n = 10 ** 4
        hits = 0
        for i in range(n):
            t = tp.run_session(alice, bob, params, channel=channel, seed=(50, i),
                               session_id=f"s{i}")
            opened = next(m for m in t.messages if m.kind == "OPEN")
            hits += int(bob.guesses[-1] == opened.body["bit"])
        rate = hits / n
        sigma = math.sqrt(0.25 / n)
        optimum = helstrom_success(build_sigma(0, code), build_sigma(1, code))
        assert rate <= 0.5 + pcb_bound(1.0, 8, 1) / 2.0 + 3.0 * sigma
        assert abs(rate - optimum) <= 5.0 * sigma


    def test_helstrom_lookup_matches_direct_computation(self):
        code = CodeParams.from_energy(1.0, 8)

        class DirectHelstromBob(tp.HelstromBob):
            def observe_raw_amplitudes(self, amplitudes, params, rng):
                v = coherent_vector(complex(amplitudes[0]), self._cutoff).amps
                p_zero = float(np.real(np.vdot(v, self._projector @ v)))
                self.guesses.append(0 if rng.random() < p_zero else 1)

        params = make_params(M=8, k=1)
        channel = tp.ChannelModel(adversarial_bob=True)
        looked_up, direct = tp.HelstromBob(code), DirectHelstromBob(code)
        for bob in (looked_up, direct):
            for i in range(400):
                tp.run_session(proto.RandomBitAlice(), bob, params, channel=channel,
                               seed=(51, i), session_id=f"s{i}")
        assert looked_up.guesses == direct.guesses
        assert len(looked_up._p_zero) == 2 * params.M  # one entry per code amplitude
        # amplitudes off the grid, 0.0 and -0.0 parts included: same guesses,
        # and the table stops growing at its cap
        rng = np.random.default_rng(3)
        amps = [complex(x, y) for x, y in rng.normal(size=(300, 2))]
        amps += [complex(1.0, 0.0), complex(1.0, -0.0), complex(-0.0, 1.0)]
        for bob in (looked_up, direct):
            draws = np.random.default_rng(4)
            for a in amps + amps:
                bob.observe_raw_amplitudes(np.array([a]), params, draws)
        assert looked_up.guesses == direct.guesses
        assert len(looked_up._p_zero) == 8 * params.M

    @pytest.mark.parametrize("energy, M", [(1.0, 8), (1.0, 4), (4.0, 8)])
    def test_projector_matches_dense_eigh(self, energy, M):
        # Oracle: the positive eigenspace of the dense sigma_0 - sigma_1.
        # Eigenvalues below the numerical-rank tolerance span its null space,
        # which rounding splits between both signs.
        code = CodeParams.from_energy(energy, M)
        diff = build_sigma(0, code).matrix - build_sigma(1, code).matrix
        vals, vecs = np.linalg.eigh(diff)
        plus = vecs[:, vals > np.abs(vals).max() * diff.shape[0] * np.finfo(float).eps]
        dense = plus @ plus.conj().T
        projector = tp.HelstromBob(code)._projector
        assert abs(np.trace(projector).real - plus.shape[1]) < 1e-12
        # On the grid, off it on the code circle and at half its radius, and
        # zeros of either sign.  Farther out the oracle itself drifts: at
        # E=1, M=8 the eigenvector of the smallest eigenvalue (9e-9) is good
        # to about eps |diff| / 9e-9, which moves p by up to 8e-13 at |alpha| = 3.
        rng = np.random.default_rng(6)
        amps = [code_amplitude(m, b, code.t, M) for m in range(M) for b in (0, 1)]
        amps += [r * code.t * np.exp(1j * phi) for r in (1.0, 0.5)
                 for phi in rng.uniform(0.0, 2.0 * math.pi, 50)]
        amps += [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
        for alpha in amps:
            v = coherent_vector(alpha, code.cutoff).amps
            p_dense = np.vdot(v, dense @ v).real
            assert abs(np.vdot(v, projector @ v).real - p_dense) <= 1e-14, alpha


class TestChannelModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            tp.ChannelModel(tau=0.0)
        with pytest.raises(ValueError):
            tp.ChannelModel(tau=1.5)


class TestFullSessionAttackLaw:
    def test_cheat_open_sessions_match_pca(self):
        # end-to-end sessions, not the vectorized sampler
        from phasebc.security import pca_exact

        params = make_params(M=4, k=10)
        p = pca_exact(params.energy, params.k, params.M)
        n = 10 ** 5
        hits = 0
        alice = proto.CheatOpenAlice(0)
        for i in range(n):
            t = tp.run_protocol(alice, params, seed=(31, i), session_id=f"c{i}")
            hits += int(t.verdict.accepted)
        sigma = math.sqrt(max(p * (1 - p), 1.0 / n) / n)
        assert abs(hits / n - p) <= 3.0 * sigma
