import cmath
import collections
import hashlib
import json
import math
import os
import queue
import socket
import threading
import time

import numpy as np
import pytest

from phasebc import protocol as proto
from phasebc import transport as tp
from phasebc.codestates import CodeParams, code_phases
from phasebc.fock import coherent_vector
from phasebc.security import pcb_bound

from oracles import build_sigma, decode_stream, helstrom_projector, helstrom_success


def make_params(**kw):
    defaults = dict(energy=1.0, M=8, k=4)
    defaults.update(kw)
    return proto.ProtocolParams(**defaults)


def run_mismatched(alice_strategy, seed, transport, session_id="session-0"):
    """A session whose receiver holds k = 5 against the sender's k = 4; run_session
    gives both endpoints one parameter set, so this builds the pair itself."""
    alice, bob = tp._endpoints(alice_strategy, tp.BobStrategy(), make_params(), None, seed,
                               session_id)
    bob.params = make_params(k=5)
    return {"loopback": tp._run_loopback, "tcp": tp._run_tcp}[transport](alice, bob)


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
        # WireMessage refuses the kind; decode_line turns that into a DecodeError
        with pytest.raises(tp.DecodeError, match="'NOPE'"):
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

    # A HELLO with an extra field 600 lists deep is 1.3 KB, under the line limit
    # even at k = 1; it decodes and is logged as it came. At 1,500 deep
    # json.loads raises RecursionError.
    NESTED = [b'{"kind":"HELLO","session":"s","role":"alice","x":'
              + b"[" * 600 + b"]" * 600 + b"}\n",
              b"[" * 1500 + b"]" * 1500 + b"\n"]

    @pytest.mark.parametrize("line", NESTED[1:], ids=["1500"])
    def test_nesting_deeper_than_commit_pairs_refused(self, line):
        # a line is refused only where json.loads runs out of recursion
        with pytest.raises(tp.DecodeError, match="recursion"):
            tp.decode_line(line)

    def test_malformed_line_offset(self):
        first = tp.encode(self.sample_messages()[0])
        data = first + b"{broken\n"
        with pytest.raises(tp.DecodeError) as err:
            decode_stream(data)
        assert str(err.value).endswith(f"(byte offset {len(first)})")

    def test_amplitudes_bit_exact(self):
        rng = np.random.default_rng(0)
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        msg = tp.WireMessage("COMMIT", "s",
                             {"amplitudes": [[a.real, a.imag] for a in amps]})
        back = tp.decode_line(tp.encode(msg))
        decoded = np.array([complex(re, im) for re, im in back.body["amplitudes"]])
        assert np.array_equal(decoded, amps)

    def test_decoded_message_keeps_its_line(self, monkeypatch):
        # a received line is logged as it came in, never formatted again
        monkeypatch.setattr(tp, "format_document", None)
        line = (b'{ "kind": "COMMIT", "session": "s", '
                b'"amplitudes": [[1.0, -0.0], [2.50, 0]] }\n')
        assert tp.encode(tp.decode_line(line)) == line
        assert tp.encode(tp.decode_line(line[:-1])) == line

    def test_stream_round_trip(self):
        msgs = self.sample_messages()
        data = b"".join(tp.encode(m) for m in msgs)
        assert decode_stream(data) == msgs

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


class PhaseIndexMReveal(proto.HonestAlice):
    """Opens with phase index M, one past the grid, in the first mode."""

    def reveal(self, commitment):
        return commitment.b, (make_params().M,) + commitment.m[1:]


class TestSeedSplit:
    @pytest.mark.parametrize("seed", [0, 2 ** 64 + 5, (7, 5), (31, 10 ** 6), [1, 2, 3]])
    def test_endpoints_take_the_spawned_children(self, seed):
        alice, bob = tp._endpoints(None, None, make_params(), None, seed, "s")
        for endpoint, child in zip((alice, bob), np.random.SeedSequence(seed).spawn(2)):
            expected = np.random.default_rng(child)
            assert endpoint.rng.bit_generator.state == expected.bit_generator.state
            assert (endpoint.rng.integers(0, 2 ** 63, size=8).tolist()
                    == expected.integers(0, 2 ** 63, size=8).tolist())
            assert (endpoint.rng.poisson(4.0, size=8).tolist()
                    == expected.poisson(4.0, size=8).tolist())

    def test_unseeded_children_share_one_entropy(self):
        alice, bob = tp._endpoints(None, None, make_params(), None, None, "s")
        seeds = [e.rng.bit_generator.seed_seq for e in (alice, bob)]
        assert seeds[0].entropy == seeds[1].entropy
        assert [s.spawn_key for s in seeds] == [(0,), (1,)]
        spawned = np.random.SeedSequence(seeds[0].entropy).spawn(2)
        assert ([e.rng.bit_generator.state for e in (alice, bob)]
                == [np.random.default_rng(c).bit_generator.state for c in spawned])


class TestSessions:
    def test_honest_loopback_accepts(self):
        t = tp.run_session(proto.HonestAlice(0), tp.BobStrategy(), make_params(), seed=1)
        assert t.verdict.accepted and not t.aborted
        assert [m.kind for m in t.messages] == ["HELLO", "HELLO", "COMMIT",
                                                "OPEN", "VERDICT"]

    def test_tcp_equals_loopback(self):
        # honest, aborting and cheating sessions: the loopback driver hands each
        # turn to the peer in wire order and stops where the socket driver stops
        def agreed(alice, seed, transport):
            return tp.run_session(alice, tp.BobStrategy(), make_params(), seed=seed,
                                  transport=transport)

        full = ["HELLO", "HELLO", "COMMIT", "OPEN"]
        cases = [(agreed, proto.HonestAlice(1), (0, 1, 2), full + ["VERDICT"]),
                 (run_mismatched, proto.HonestAlice(0), (0, 3), ["HELLO", "ABORT"]),
                 (agreed, PhaseIndexMReveal(0), (0, 3), full + ["ABORT"]),
                 (agreed, proto.CheatOpenAlice(1), (0, 3), full + ["VERDICT"])]
        for run, alice, seeds, kinds in cases:
            for seed in seeds:
                a, b = (run(alice, seed, transport) for transport in ("loopback", "tcp"))
                assert [m.kind for m in a.messages] == kinds
                assert a.to_bytes() == b.to_bytes()
                assert (a.verdict, a.aborted, a.abort_reason) == (b.verdict, b.aborted,
                                                                  b.abort_reason)

    def test_hello_built_per_params_object(self):
        # equal parameters, other bytes: ProtocolParams(0.0, ...) == ProtocolParams(-0.0, ...)
        zero, minus_zero = proto.ProtocolParams(0.0, 8, 4), proto.ProtocolParams(-0.0, 8, 4)
        assert zero == minus_zero

        def session(params, seed=1):
            return tp.run_session(proto.HonestAlice(0), tp.BobStrategy(), params, seed=seed)

        hellos = [tp.encode(session(p).messages[0]) for p in (zero, minus_zero)]
        assert b'"energy":0.0,' in hellos[0] and b'"energy":-0.0,' in hellos[1]
        first, expected = session(zero), session(zero, seed=2).to_bytes()
        for hello in first.messages[:2]:
            hello.body["energy"] = 5.0  # an edit of one transcript
        assert session(zero, seed=2).to_bytes() == expected

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
        kinds = sorted(tuple(m.kind for m in decode_stream(w)) for w in writes)
        assert kinds == [("COMMIT", "OPEN"), ("HELLO",), ("HELLO",), ("VERDICT",)]
        assert b"".join(writes) == t.to_bytes()

    def test_tcp_session_formats_each_sent_message_once(self, monkeypatch):
        # the driver's encoding of a sent message is the one to_bytes() writes,
        # and a received message keeps the line it came in
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
        assert formatted == {"HELLO": 2, "COMMIT": 1, "OPEN": 1, "VERDICT": 1}

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
        assert tuple(decode_stream(t.to_bytes())) == t.messages

    def test_parameter_mismatch_aborts(self):
        t = run_mismatched(proto.HonestAlice(0), 1, "loopback")
        assert t.aborted and t.verdict is None
        assert "parameter mismatch" in t.abort_reason
        assert [m.kind for m in t.messages] == ["HELLO", "ABORT"]

    def test_lossy_channel_still_accepts(self):
        # over a link of the agreed tau, pre-compensation keeps residuals at
        # rounding scale and counts stay zero
        params = make_params(tau=0.5)
        for seed in range(20):
            t = tp.run_session(proto.HonestAlice(0), tp.BobStrategy(), params, seed=seed)
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


# sha256 of to_bytes() for four fixed sessions.  Transcript bytes must stay
# the same across commits, not only across reruns and transports.
GOLDEN = {
    "honest": "73659c8b21914772c2218392af1914cc09ffc0ac49861fbcc9dcda5ab9f49266",
    "cheat": "3807e24d54352ac3e0e03e868e052a459f95fc436e8be86b5bd4aab4ab8cb1d1",
    "mismatch": "cb93c8e188383e1f34ca656862ac3dcafbc5461849bb10c313af3c7ec4ded5a2",
    "lossy": "b48eae6cc84d45caddb8cd7fd3a89f57272d540048c34ac2b91757c029d5da88",
}


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_transcripts(case, transport):
    sessions = {
        "honest": dict(alice_strategy=proto.HonestAlice(1), params=make_params(),
                       seed=7),
        "cheat": dict(alice_strategy=proto.CheatOpenAlice(0),
                      params=make_params(M=4, k=10), seed=(31, 5)),
        "lossy": dict(alice_strategy=proto.HonestAlice(0), params=make_params(tau=0.5),
                      seed=11),
    }
    if case == "mismatch":
        t = run_mismatched(proto.HonestAlice(0), 1, transport, session_id="golden-mismatch")
    else:
        t = tp.run_session(bob_strategy=tp.BobStrategy(), session_id=f"golden-{case}",
                           transport=transport, **sessions[case])
    assert hashlib.sha256(t.to_bytes()).hexdigest() == GOLDEN[case]
    assert t.aborted == (case == "mismatch")


def free_port():
    with socket.create_server(("127.0.0.1", 0)) as srv:
        return srv.getsockname()[1]


class TestDriverAborts:
    """A line the driver cannot read is answered with an ABORT, not an exception;
    one it reads is logged as it came."""

    # (line, abort reason, whether the line decodes and is logged); the limit
    # for k=4 is 4096 + 64*4 bytes
    BAD_LINES = [(b"{broken\n", "malformed message line", False),
                 (b'{"kind": "HELLO", "session": "' + b"s" * 5000 + b'"}\n',
                  "exceeds 4352 bytes", False),
                 (TestWireFormat.NESTED[0], "session id mismatch", True),
                 (TestWireFormat.NESTED[1], "maximum recursion depth exceeded", False)]
    IDS = ["malformed", "over-long", "nested-600", "nested-1500"]

    @staticmethod
    def serve(*lines):
        """Send each line to a listening receiver and read one reply line after
        each; returns the receiver's transcript and the replies."""
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
        replies = []
        with sock, sock.makefile("rb") as rfile:
            for line in lines:
                sock.sendall(line)
                replies.append(rfile.readline())
        thread.join(10.0)
        assert not thread.is_alive()
        return results["bob"], replies

    @pytest.mark.parametrize("line, reason, logged", BAD_LINES, ids=IDS)
    def test_serve_answers_bad_line(self, line, reason, logged):
        t, (reply,) = self.serve(line)
        assert t.aborted and t.verdict is None
        assert [m.kind for m in t.messages] == ["HELLO"] * logged + ["ABORT"]
        assert reason in t.abort_reason
        assert t.to_bytes() == line * logged + reply

    def test_reason_for_a_bad_line_after_hello_names_no_offset(self):
        # only a stream reader knows where a line lies, so the driver's ABORT
        # names no offset, here for a line that follows a HELLO
        hello = tp.encode(tp.WireMessage("HELLO", "session-0",
                                         tp._params_body(make_params(), "alice")))
        t, replies = self.serve(hello, b"{broken\n")
        assert [m.kind for m in t.messages] == ["HELLO", "HELLO", "ABORT"]
        assert "malformed message line" in t.abort_reason
        assert "byte offset" not in t.abort_reason
        assert t.to_bytes() == hello + b"".join(replies)

    @pytest.mark.parametrize("line, reason, logged", BAD_LINES, ids=IDS)
    def test_connect_answers_bad_line(self, line, reason, logged):
        sent = []
        with socket.create_server(("127.0.0.1", 0)) as srv:
            def reply_garbage():
                conn, _ = srv.accept()
                with conn, conn.makefile("rb") as rfile:
                    sent.append(rfile.readline())
                    conn.sendall(line)
                    sent.append(rfile.readline())

            thread = threading.Thread(target=reply_garbage)
            thread.start()
            t = tp.connect_single_session("127.0.0.1", srv.getsockname()[1],
                                          proto.HonestAlice(0), make_params(), seed=3)
            thread.join(10.0)
        assert not thread.is_alive()
        assert t.aborted and t.verdict is None
        assert [m.kind for m in t.messages] == ["HELLO"] * (1 + logged) + ["ABORT"]
        assert reason in t.abort_reason
        assert t.to_bytes() == sent[0] + line * logged + sent[1]


def _deepest_accepted() -> int:
    """The deepest list, as a field of a message, that decode_line accepts when
    called from here: a caller's _drive calls it at the same stack depth."""
    lo, hi = 0, 4096
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            tp.decode_line(b'{"kind":"ABORT","session":"s","reason":'
                           + b"[" * mid + b"]" * mid + b"}")
            lo = mid
        except tp.DecodeError:
            hi = mid
    return lo


class TestDepthAtTheDecoderLimit:
    """A value nested up to the decoder's own limit, and past it, ends the session
    in an ABORT in every state that reads a message, and the transcript holds
    the lines as they crossed the wire."""

    PARAMS = make_params(k=1)
    BODIES = {"HELLO": None, "COMMIT": {"amplitudes": [[1.0, 0.0]]},
              "OPEN": {"bit": 0, "phases": [0]},
              "VERDICT": {"accepted": True, "counts": [0]}, "ABORT": {"reason": "x"}}
    # (endpoint, peer messages before the nested one with the number of lines the
    # endpoint answers each with, the nested message's kind and field)
    CASES = {
        "bob-wait_hello-role": ("bob", [], "HELLO", "role"),
        "bob-wait_hello-reason": ("bob", [], "ABORT", "reason"),
        "bob-wait_commit-amplitudes": ("bob", [("HELLO", 1)], "COMMIT", "amplitudes"),
        "bob-wait_commit-reason": ("bob", [("HELLO", 1)], "ABORT", "reason"),
        "bob-wait_open-phases": ("bob", [("HELLO", 1), ("COMMIT", 0)], "OPEN", "phases"),
        "bob-wait_open-bit": ("bob", [("HELLO", 1), ("COMMIT", 0)], "OPEN", "bit"),
        "bob-wait_open-reason": ("bob", [("HELLO", 1), ("COMMIT", 0)], "ABORT", "reason"),
        "alice-wait_hello-energy": ("alice", [], "HELLO", "energy"),
        "alice-wait_hello-reason": ("alice", [], "ABORT", "reason"),
        "alice-wait_verdict-counts": ("alice", [("HELLO", 2)], "VERDICT", "counts"),
        "alice-wait_verdict-accepted": ("alice", [("HELLO", 2)], "VERDICT", "accepted"),
        "alice-wait_verdict-reason": ("alice", [("HELLO", 2)], "ABORT", "reason"),
    }

    def body(self, kind, peer):
        body = self.BODIES[kind]
        return tp._params_body(self.PARAMS, peer) if body is None else body

    @staticmethod
    def endpoint(session, sock, out):
        # _deepest_accepted and _drive are called from this one frame
        with sock:
            out.put(_deepest_accepted())
            try:
                out.put(tp._drive(session, sock))
            except Exception as exc:  # surfaced in the test
                out.put(exc)

    def run(self, srv, role, lead, kind, field, depth_offset):
        """One session: the value's depth, whether the nested line decoded, the
        transcript and the bytes that crossed the wire, in wire order."""
        if role == "bob":
            session = tp.BobSession(tp.BobStrategy(), self.PARAMS, tp.ChannelModel(),
                                    np.random.default_rng(0), "s")
            peer, initial = "alice", 0
        else:
            session = tp.AliceSession(proto.HonestAlice(0), self.PARAMS, tp.ChannelModel(),
                                      np.random.default_rng(0), "s")
            peer, initial = "bob", 1
        out = queue.Queue()
        with socket.create_connection(srv.getsockname(), timeout=10.0) as sock:
            conn, _ = srv.accept()
            thread = threading.Thread(target=self.endpoint, args=(session, conn, out))
            thread.start()
            depth = out.get(timeout=10.0) + depth_offset
            doc = {"kind": kind, "session": "s", **self.body(kind, peer), field: "@"}
            nested = (json.dumps(doc, separators=(",", ":"))
                      .replace('"@"', "[" * depth + "]" * depth).encode() + b"\n")
            lines = [tp.encode(tp.WireMessage(k, "s", self.body(k, peer))) for k, _ in lead]
            assert len(nested) < tp._line_limit(session)
            sock.sendall(b"".join(lines) + nested)
            with sock.makefile("rb") as rfile:
                replies = rfile.readlines()
            thread.join(10.0)
        assert not thread.is_alive()
        log = out.get(timeout=10.0)
        if isinstance(log, Exception):
            raise log
        # the wire order: the endpoint's first lines, then each line it read and
        # its answers to that line
        crossed = replies[:initial]
        for line, (_, answers) in zip(lines, lead):
            crossed += [line] + replies[initial:initial + answers]
            initial += answers
        decoded = "maximum recursion depth exceeded" not in session.abort_reason
        crossed += [nested] * decoded + replies[initial:]
        return depth, decoded, tp._transcript(log, session), b"".join(crossed)

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_every_depth_ends_in_an_abort(self, case):
        outcomes = {}
        with socket.create_server(("127.0.0.1", 0)) as srv:
            for depth_offset in range(-12, 3):
                depth, decoded, t, crossed = self.run(srv, *case, depth_offset)
                assert t.aborted and t.messages[-1].kind == "ABORT", depth
                assert t.to_bytes() == crossed, depth
                outcomes[depth_offset] = decoded
        # the limit measured in the thread is the one _drive met
        assert outcomes == {offset: offset <= 0 for offset in range(-12, 3)}


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

    @pytest.mark.parametrize("endpoint, role", [
        ("alice", "alice"), ("alice", None), ("alice", "eve"),
        ("bob", "bob"), ("bob", None), ("bob", "eve"),
    ], ids=["alice-reflected", "alice-missing", "alice-foreign",
            "bob-reflected", "bob-missing", "bob-foreign"])
    def test_hello_from_another_role_aborts(self, endpoint, role):
        # a HELLO counts only from the peer: an endpoint's own HELLO handed
        # back, one with no role and one from a third role end the session
        params = make_params()
        body = {key: value for key, value in tp._params_body(params, role).items()
                if value is not None}
        if endpoint == "bob":
            session = self.bob(params)
        else:
            session = tp.AliceSession(proto.HonestAlice(0), params, tp.ChannelModel(),
                                      np.random.default_rng(0), "s")
            session.start()
        replies = session.handle(tp.WireMessage("HELLO", "s", body))
        assert [r.kind for r in replies] == ["ABORT"]
        assert session.state == "aborted" and session.verdict is None
        assert repr(role) in replies[0].body["reason"]

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

    def test_bool_amplitude_aborts(self):
        # complex(true, 0.5) once read JSON true as amplitude 1.0
        line = (b'{"kind":"COMMIT","session":"s","amplitudes":'
                b'[[true,0.5],[1.0,0.0],[1.0,0.0],[1.0,0.0]]}')
        bob = self.bob()
        bob.handle(tp.WireMessage("HELLO", "s", tp._params_body(make_params(), "alice")))
        replies = bob.handle(tp.decode_line(line))
        assert replies[0].kind == "ABORT"
        assert replies[0].body["reason"] == "malformed COMMIT body"

    @pytest.mark.parametrize("run", [tp._run_loopback, tp._run_tcp],
                             ids=["loopback", "tcp"])
    def test_bool_amplitude_aborts_session(self, run):
        class BoolAmplitudeAlice(tp.AliceSession):
            def handle(self, message):
                replies = super().handle(message)
                for reply in replies:
                    if reply.kind == "COMMIT":
                        reply.body["amplitudes"][0] = [True, 0.5]
                return replies

        params = make_params()
        alice = BoolAmplitudeAlice(proto.HonestAlice(0), params, tp.ChannelModel(),
                                   np.random.default_rng(1), "s")
        transcript = run(alice, self.bob(params))
        assert transcript.aborted and transcript.verdict is None
        assert transcript.abort_reason == "malformed COMMIT body"

    @pytest.mark.parametrize("amplitude", [1e10, 1e155, 1.7e308])
    @pytest.mark.parametrize("run", [tp._run_loopback, tp._run_tcp],
                             ids=["loopback", "tcp"])
    def test_large_amplitude_aborts_session(self, run, amplitude):
        # a finite amplitude whose displaced energy NumPy's Poisson sampler
        # rejects, or whose square overflows, once escaped Bob's handle
        class LargeAmplitudeAlice(tp.AliceSession):
            def handle(self, message):
                replies = super().handle(message)
                for reply in replies:
                    if reply.kind == "COMMIT":
                        reply.body["amplitudes"] = [[amplitude, 0.0]]
                return replies

        params = make_params(k=1)
        alice = LargeAmplitudeAlice(proto.HonestAlice(0), params, tp.ChannelModel(),
                                    np.random.default_rng(1), "s")
        transcript = run(alice, self.bob(params))
        assert transcript.aborted and transcript.verdict is None
        assert "exceeds the Poisson sampler's limit" in transcript.abort_reason
        assert [m.kind for m in transcript.messages] == ["HELLO", "HELLO", "COMMIT",
                                                         "OPEN", "ABORT"]

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

    def endpoint_in(self, endpoint, state):
        """An endpoint of a k = 4 session driven by valid messages into state."""
        params = make_params()
        if endpoint == "alice":
            session = tp.AliceSession(proto.HonestAlice(0), params, tp.ChannelModel(),
                                      np.random.default_rng(0), "s")
            steps = {"init": [], "wait_hello": ["start"],
                     "wait_verdict": ["start", ("HELLO", tp._params_body(params, "bob"))],
                     "done": ["start", ("HELLO", tp._params_body(params, "bob")),
                              ("VERDICT", {"accepted": True, "counts": [0] * 4})]}[state]
        else:
            session = self.bob(params)
            feed = [("HELLO", tp._params_body(params, "alice")),
                    ("COMMIT", {"amplitudes": [[1.0, 0.0]] * 4}),
                    ("OPEN", {"bit": 0, "phases": [0] * 4})]
            steps = feed[:["wait_hello", "wait_commit", "wait_open", "done"].index(state)]
        for step in steps:
            if step == "start":
                session.start()
            else:
                session.handle(tp.WireMessage(step[0], "s", step[1]))
        assert session.state == state
        return session

    # the one kind each endpoint reads in each state, besides ABORT
    READS = {("alice", "wait_hello"): "HELLO", ("alice", "wait_verdict"): "VERDICT",
             ("bob", "wait_hello"): "HELLO", ("bob", "wait_commit"): "COMMIT",
             ("bob", "wait_open"): "OPEN"}

    @pytest.mark.parametrize("endpoint, state, kind", [
        (endpoint, state, kind) for (endpoint, state), read in READS.items()
        for kind in tp.KINDS if kind not in (read, "ABORT")])
    def test_wrong_kind_aborts_with_the_state_error(self, endpoint, state, kind):
        session = self.endpoint_in(endpoint, state)
        replies = session.handle(tp.WireMessage(kind, "s", {}))
        reason = f"protocol-state error: {kind} arrived in state {state}"
        assert [(r.kind, r.body) for r in replies] == [("ABORT", {"reason": reason})]
        assert session.state == "aborted" and session.abort_reason == reason

    @pytest.mark.parametrize("endpoint, state", [
        ("alice", "init"), ("alice", "done"), ("bob", "done")])
    @pytest.mark.parametrize("kind", tp.KINDS)
    def test_endpoint_that_reads_nothing_raises(self, endpoint, state, kind):
        session = self.endpoint_in(endpoint, state)
        with pytest.raises(tp.ProtocolStateError, match=f"{kind} arrived in state {state}"):
            session.handle(tp.WireMessage(kind, "s", {}))
        assert session.state == state

    @pytest.mark.parametrize("counts", [[], [0] * 5])
    def test_verdict_of_the_wrong_length_aborts(self, counts):
        # a k = 4 COMMIT is answered by 4 counts, no fewer and no more
        alice = self.endpoint_in("alice", "wait_verdict")
        replies = alice.handle(tp.WireMessage("VERDICT", "s",
                                              {"accepted": True, "counts": counts}))
        reason = f"verdict counts length {len(counts)} != payload length 4"
        assert [(r.kind, r.body) for r in replies] == [("ABORT", {"reason": reason})]
        assert alice.state == "aborted" and alice.verdict is None

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


class WrongLengthReveal(proto.HonestAlice):
    def reveal(self, commitment):
        return commitment.b, commitment.m[:-1]


class TestWrongLengthReveal:
    REASON = "displacement record length 3 != payload length 4"

    def test_bob_verify_aborts(self):
        params = make_params()
        c, amps = proto.commit(0, params, np.random.default_rng(0))
        with pytest.raises(proto.ProtocolAbort) as err:
            proto.bob_verify(proto.QuantumPayload(amps), WrongLengthReveal(0).reveal(c), params,
                             np.random.default_rng(1))
        assert str(err.value) == self.REASON

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_session_aborts_once(self, transport):
        t = tp.run_session(WrongLengthReveal(0), tp.BobStrategy(), make_params(), seed=3,
                           transport=transport)
        assert [m.kind for m in t.messages] == ["HELLO", "HELLO", "COMMIT", "OPEN", "ABORT"]
        assert t.aborted and t.verdict is None and t.abort_reason == self.REASON
        assert t.messages[-1].body == {"reason": self.REASON}


class TestSealing:
    def test_honest_strategy_gets_sealed_payload_only(self):
        seen = {}

        class Probe(tp.BobStrategy):
            def observe_commit(self, payload, params, rng):
                seen["payload"] = payload

        tp.run_session(proto.HonestAlice(0), Probe(), make_params(), seed=0)
        public = [n for n in dir(seen["payload"]) if not n.startswith("_")]
        assert public == ["count_after_displacement"]

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
                v = coherent_vector(complex(amplitudes[0]), self._cutoff)
                p_zero = float(np.real(np.vdot(v, helstrom_projector(self) @ v)))
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

    @staticmethod
    def dense_positive_projector(code):
        # Oracle: the positive eigenspace of the dense sigma_0 - sigma_1.
        # Eigenvalues below the numerical-rank tolerance span its null space,
        # which rounding splits between both signs.
        diff = build_sigma(0, code).matrix - build_sigma(1, code).matrix
        vals, vecs = np.linalg.eigh(diff)
        plus = vecs[:, vals > np.abs(vals).max() * diff.shape[0] * np.finfo(float).eps]
        return plus @ plus.conj().T, plus.shape[1]

    @staticmethod
    def probe_amplitudes(code):
        # On the grid, off it on the code circle and at half its radius, and
        # zeros of either sign.  Farther out the oracle itself drifts: at
        # E=1, M=8 the eigenvector of the smallest eigenvalue (9e-9) is good
        # to about eps |diff| / 9e-9, which moves p by up to 8e-13 at |alpha| = 3.
        rng = np.random.default_rng(6)
        M = code.M
        amps = [code.t * cmath.exp(1j * float(code_phases(m, b, M)))
                for m in range(M) for b in (0, 1)]
        amps += [r * code.t * np.exp(1j * phi) for r in (1.0, 0.5)
                 for phi in rng.uniform(0.0, 2.0 * math.pi, 50)]
        amps += [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
        return amps

    @pytest.mark.parametrize("energy, M", [(1.0, 8), (1.0, 4), (4.0, 8)])
    def test_projector_matches_dense_eigh(self, energy, M):
        code = CodeParams.from_energy(energy, M)
        dense, rank = self.dense_positive_projector(code)
        projector = helstrom_projector(tp.HelstromBob(code))
        assert abs(np.trace(projector).real - rank) < 1e-12
        for alpha in self.probe_amplitudes(code):
            v = coherent_vector(alpha, code.cutoff)
            p_dense = np.vdot(v, dense @ v).real
            assert abs(np.vdot(v, projector @ v).real - p_dense) <= 1e-14, alpha

    @pytest.mark.parametrize("energy, M", [(1.0, 8), (1.0, 4), (4.0, 8), (0.3, 6),
                                           (9.0, 3)])
    def test_rank_one_p_zero_matches_dense_eigh(self, energy, M):
        # The receiver's own p_0, summed per class from its vectors u.  Far
        # below E = 0.3 the oracle fails instead: at E = 0.02, M = 8 two
        # classes' eigenvalues fall under its rank tolerance, and it drops them.
        code = CodeParams.from_energy(energy, M)
        dense, _ = self.dense_positive_projector(code)
        bob = tp.HelstromBob(code)
        for alpha in self.probe_amplitudes(code):
            v = coherent_vector(alpha, code.cutoff)
            assert abs(bob._p_zero_at(alpha) - np.vdot(v, dense @ v).real) <= 1e-14, alpha


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
            t = tp.run_session(alice, tp.BobStrategy(), params, seed=(31, i),
                               session_id=f"c{i}")
            hits += int(t.verdict.accepted)
        sigma = math.sqrt(max(p * (1 - p), 1.0 / n) / n)
        assert abs(hits / n - p) <= 3.0 * sigma
