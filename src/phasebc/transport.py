"""Wire schema and two-party session runner.

Messages are single JSON objects, one per line, with a kind tag; floats
are printed with 17 significant digits so decoding reproduces them bit
for bit.  The same endpoint state machines run either over an in-process
loopback or over a TCP stream, and both log the session's messages in
wire order, so transcripts are byte-identical across backends for equal
seeds.  A sent message is formatted once; a received one is logged as the
line it came in, which a phasebc peer formats the same way.

The commitment payload travels on the wire (this is a simulation), but
the receiving endpoint seals it before its strategy sees it: the sealed
object's only public operation is displace-and-count.  Raw amplitudes reach a receiver
strategy only when the channel model is explicitly marked adversarial,
which exists to validate the concealment bound empirically.
"""

from __future__ import annotations

import json
import math
import operator
import socket
import threading
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import protocol as proto
from .codestates import (_FLOAT_TYPES, _INT_TYPES, _REAL_TYPES, CodeParams, _by_class,
                         eigen_sigma)
from .fock import coherent_vector

KINDS = ("HELLO", "COMMIT", "OPEN", "VERDICT", "ABORT")


class DecodeError(Exception):
    """A line that is not a message; only a stream reader knows where it lies."""


class ProtocolStateError(Exception):
    """A message arrived that the session state machine cannot accept."""


@dataclass(frozen=True)
class WireMessage:
    kind: str
    session_id: str
    body: dict

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown message kind {self.kind!r}")

    @cached_property
    def _encoded(self) -> bytes:
        # formatted on first use, so a sent message is formatted once;
        # decode_line fills it in with the line a message came in
        doc = {"kind": self.kind, "session": self.session_id}
        doc.update(self.body)
        return (format_document(doc) + "\n").encode("utf-8")


@dataclass(frozen=True)
class ChannelModel:
    """The adversarial-receiver switch of a session's link.

    The link scales every amplitude by sqrt(tau), with tau the agreed
    ProtocolParams.tau.  Only the session runner constructs one of these;
    strategies never see it, mirroring a provider-secured line.
    """

    adversarial_bob: bool = False


# the one spec that turns a double into text; it writes the zeros as "0" and
# "-0", and json reads a bare 0 as an int
_FLOAT_SPEC = "%.17g"
_ZERO_TEXT = {"0": "0.0", "-0": "-0.0"}
# Shorter lists format value by value. Honest lists at M = 8 (timeit, best of 9,
# 2 vCPUs), np.unique vs per value: 14.9 vs 4.4 us at 8 floats, 17.1 vs 15.4 at
# 32, 17.5 vs 19.7 at 40, 18.1 vs 30.6 at 64; at M = 20 they cross near 48.
_UNIQUE_MIN = 40


def _float_texts(values, zeros: dict[str, str] = _ZERO_TEXT) -> list[str]:
    """A sequence or 1-D array of doubles at 17 significant digits, the zeros
    respelled by zeros. From _UNIQUE_MIN values on, each distinct value, told
    apart by bit pattern (0.0 from -0.0), is formatted once: an honest COMMIT
    holds at most M distinct amplitudes among its 2k floats."""
    inverse = None
    if len(values) >= _UNIQUE_MIN:
        bits, inverse = np.unique(np.asarray(values, dtype=np.float64).view(np.int64),
                                  return_inverse=True)
        values = bits.view(np.float64).tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite float in message")
    texts = list(map(_FLOAT_SPEC.__mod__, values))
    if zeros and 0.0 in values:  # a zero, of either sign
        texts = list(map(zeros.get, texts, texts))
    return texts if inverse is None else np.array(texts, dtype=object)[inverse].tolist()


def _bulk_text(doc: list | tuple) -> str | None:
    """The elements of a list of ints, of floats or of float pairs, joined
    without a call per element; None for any other list."""
    types = set(map(type, doc))
    if types == {int}:  # exactly int: bools print as true/false
        return ",".join(map(str, doc))
    pairs = types == {list} and set(map(len, doc)) == {2}  # the COMMIT amplitudes
    if pairs:
        doc = list(chain.from_iterable(doc))
        types = set(map(type, doc))
    if not types or not types <= _FLOAT_TYPES:
        return None
    texts = _float_texts(doc if types == {float} else list(map(float, doc)))
    if pairs:
        return "[" + "],[".join(map(",".join, zip(texts[0::2], texts[1::2]))) + "]"
    return ",".join(texts)


def format_document(doc) -> str:
    """One structure as a single JSON text, floats at 17 significant digits.

    Numeric lists are formatted in bulk; other values recurse.
    """
    if doc is None:
        return "null"
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if isinstance(doc, (int, np.integer)):
        return str(int(doc))
    if isinstance(doc, (float, np.floating)):
        return _float_texts([float(doc)])[0]
    if isinstance(doc, str):
        return json.dumps(doc)
    if isinstance(doc, (list, tuple)):
        text = _bulk_text(doc)
        if text is None:
            text = ",".join(map(format_document, doc))
        return "[" + text + "]"
    if isinstance(doc, dict):
        items = (f"{json.dumps(str(k))}:{format_document(v)}" for k, v in doc.items())
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot encode {type(doc).__name__}")


def encode(message: WireMessage) -> bytes:
    return message._encoded


def _finite_float(text: str) -> float:
    # also sees NaN and +-Infinity, and literals beyond the double range (1e400)
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {text}")
    return x


class _FloatLiterals(dict):
    """The float literals of one line, each parsed and checked once.

    Its bound __getitem__ is json's parse_float: a repeated literal is a
    dict hit, and a new one goes through _finite_float.  It lives for one
    line, so it holds at most one entry per literal, and over TCP _drive
    bounds a line by _line_limit.
    """

    def __missing__(self, text: str) -> float:
        x = self[text] = _finite_float(text)
        return x


def decode_line(line: bytes) -> WireMessage:
    try:
        doc = json.loads(line.decode("utf-8"), parse_float=_FloatLiterals().__getitem__,
                         parse_constant=_finite_float)
    except (ValueError, RecursionError) as exc:  # ValueError covers UnicodeDecodeError
        raise DecodeError(f"malformed message line: {exc}") from exc
    if not isinstance(doc, dict):
        raise DecodeError("message is not an object")
    kind = doc.pop("kind", None)
    session = doc.pop("session", None)
    if not isinstance(session, str):
        raise DecodeError("missing session id")
    try:
        msg = WireMessage(kind, session, doc)
    except ValueError as exc:  # an unknown kind
        raise DecodeError(str(exc)) from exc
    # the transcript logs the line as it came: a phasebc peer's line is its canonical
    # encoding, and a received message is never formatted, however deep its values
    msg.__dict__["_encoded"] = line if line.endswith(b"\n") else line + b"\n"
    return msg


@dataclass(frozen=True)
class SessionTranscript:
    session_id: str
    messages: tuple[WireMessage, ...]
    verdict: proto.Verdict | None
    aborted: bool = False
    abort_reason: str = ""

    def to_bytes(self) -> bytes:
        return b"".join(encode(m) for m in self.messages)


# HELLO's fields after the role: wire name, ProtocolParams attribute and the exact
# types it may arrive as (bool is an int subclass, and JSON true == 1 == 1.0; a
# real may arrive as an int, since 1.0 is written as 1)
_HELLO_NAMES, _HELLO_ATTRS, _HELLO_TYPES = zip(
    ("energy", "energy", {int, float}), ("modulation", "M", {int}),
    ("repetitions", "k", {int}), ("epsilon", "epsilon", {int, float}),
    ("tau", "tau", {int, float}))
_agreed = operator.attrgetter(*_HELLO_ATTRS)


def _params_body(params: proto.ProtocolParams, role: str) -> dict:
    return dict(zip(("role", *_HELLO_NAMES), (role, *_agreed(params))))


def _hello_mismatch(body: dict, params: proto.ProtocolParams, peer: str) -> str:
    if body.get("role") != peer:
        return f"HELLO from role {body.get('role')!r}, expected {peer!r}"
    stated = tuple(map(body.get, _HELLO_NAMES))  # None for a field left out
    agreed = stated == _agreed(params) and all(map(set.__contains__, _HELLO_TYPES,
                                                map(type, stated)))
    return "" if agreed else "parameter mismatch in HELLO"


class BobStrategy:
    """Receiver behavior; the honest one only ever displaces and counts."""

    def observe_commit(self, payload: proto.QuantumPayload,
                       params: proto.ProtocolParams,
                       rng: np.random.Generator) -> None:
        pass

    def observe_raw_amplitudes(self, amplitudes: np.ndarray,
                               params: proto.ProtocolParams,
                               rng: np.random.Generator) -> None:
        raise ProtocolStateError("honest receiver must not see raw amplitudes")

    def verify(self, payload, revealed, params, rng) -> proto.Verdict:
        return proto.bob_verify(payload, revealed, params, rng)


class HelstromBob(BobStrategy):
    """Adversarial receiver guessing the bit from the commitment alone.

    Applies the optimal two-state measurement for sigma_0 vs sigma_1 to
    the single received mode (k = 1 only).  Guesses are appended to
    .guesses so a caller can tally them against the opened bits.

    The measurement projects onto the positive eigenspace of sigma_0 -
    sigma_1.  On each residue class r mod M the difference is
    2(|e_r><o_r| + |o_r><e_r|), where e_r and o_r are the even-j and odd-j
    parts of the class's amplitudes at photon numbers r + jM; they are
    orthogonal, so the class contributes the single positive eigenvector
    (e_r/|e_r| + o_r/|o_r|)/sqrt(2), or none when either part is zero.

    The probability of guessing 0 depends only on the received amplitude,
    which over a fixed channel takes 2M values, so it is kept per exact
    amplitude (its bytes, which also tell 0.0 from -0.0), for a few times
    2M amplitudes at most.
    """

    def __init__(self, code_params: CodeParams):
        M, N = code_params.M, code_params.cutoff
        n = np.arange(N + 1)
        r = n % M
        amps = eigen_sigma(0, code_params)[1]
        parts = _by_class(amps, M)
        norms = np.stack([np.linalg.norm(parts[:, 0::2], axis=1),   # |e_r|
                          np.linalg.norm(parts[:, 1::2], axis=1)])  # |o_r|
        both = norms.min(axis=0)[r] > 0.0
        # class r of u is the class's positive eigenvector, or zero
        self.u = amps / (math.sqrt(2.0) * np.where(both, norms[n // M % 2, r], np.inf))
        self._M = M
        self._cutoff = N
        self._p_zero: dict[bytes, float] = {}
        self._p_zero_cap = 8 * code_params.M
        self.guesses: list[int] = []

    def observe_raw_amplitudes(self, amplitudes, params, rng):
        if amplitudes.size != 1:
            raise ValueError("Helstrom receiver handles single-mode sessions only")
        alpha = np.complex128(amplitudes[0])
        key = alpha.tobytes()
        p_zero = self._p_zero.get(key)
        if p_zero is None:
            p_zero = self._p_zero_at(alpha)
            if len(self._p_zero) < self._p_zero_cap:
                self._p_zero[key] = p_zero
        self.guesses.append(0 if rng.random() < p_zero else 1)

    def _p_zero_at(self, alpha) -> float:
        """p_0 = sum_r |<u_r|v>|^2 for the coherent state v of amplitude alpha."""
        v = coherent_vector(complex(alpha), self._cutoff)
        return float((np.abs(_by_class(self.u * v, self._M).sum(axis=1)) ** 2).sum())


def _is_list_of(value, types) -> bool:
    return type(value) is list and set(map(type, value)) <= types


class _Endpoint:
    """State shared by both endpoint state machines: expects maps each state
    that reads a message to the one kind it reads besides ABORT, role is the
    role this endpoint's HELLO states and peer the one the peer's must."""

    initial_state = ""
    expects: dict[str, str] = {}
    role = peer = ""

    def __init__(self, strategy, params: proto.ProtocolParams,
                 channel: ChannelModel, rng: np.random.Generator, session_id: str):
        self.strategy = strategy
        self.params = params
        self.channel = channel
        self.rng = rng
        self.session_id = session_id
        self.state = self.initial_state
        self.verdict: proto.Verdict | None = None
        self.abort_reason = ""

    def _msg(self, kind: str, body: dict) -> WireMessage:
        return WireMessage(kind, self.session_id, body)

    def _abort(self, reason: str) -> list[WireMessage]:
        self.state = "aborted"
        self.abort_reason = reason
        return [self._msg("ABORT", {"reason": reason})]

    @property
    def done(self) -> bool:
        return self.state in ("done", "aborted")

    def start(self) -> list[WireMessage]:
        """Messages this endpoint sends before it has received any."""
        return []

    def _prologue(self, message: WireMessage) -> list[WireMessage] | None:
        """Replies for a message that ends the session here (an ABORT, a foreign
        session id, a kind out of order, a HELLO that disagrees), else None."""
        expected = self.expects.get(self.state)
        if expected is None:  # not started, or finished
            raise ProtocolStateError(f"{message.kind} arrived in state {self.state}")
        if message.session_id != self.session_id:
            return self._abort("session id mismatch")
        if message.kind == "ABORT":
            self.state = "aborted"
            self.abort_reason = str(message.body.get("reason", ""))
            return []
        if message.kind != expected:
            return self._abort(
                f"protocol-state error: {message.kind} arrived in state {self.state}")
        reason = expected == "HELLO" and _hello_mismatch(message.body, self.params, self.peer)
        return self._abort(reason) if reason else None


class AliceSession(_Endpoint):
    """Sender state machine; drives the session."""

    initial_state = "init"
    expects = {"wait_hello": "HELLO", "wait_verdict": "VERDICT"}
    role, peer = "alice", "bob"

    def start(self) -> list[WireMessage]:
        if self.state != "init":
            raise ProtocolStateError("session already started")
        self.state = "wait_hello"
        return [self._msg("HELLO", _params_body(self.params, self.role))]

    def handle(self, message: WireMessage) -> list[WireMessage]:
        replies = self._prologue(message)
        if replies is not None:
            return replies
        if self.state == "wait_hello":
            bit = self.strategy.commitment_bit(self.params, self.rng)
            commitment, sent = proto.commit(bit, self.params, self.rng)
            received = sent * math.sqrt(self.params.tau)
            revealed_b, revealed_m = self.strategy.reveal(commitment)
            self.state = "wait_verdict"
            pairs = received.view(np.float64).reshape(-1, 2).tolist()  # [re, im] per mode
            return [self._msg("COMMIT", {"amplitudes": pairs}),
                    self._msg("OPEN", {"bit": revealed_b, "phases": list(revealed_m)})]
        try:  # wait_verdict
            verdict = proto.Verdict(message.body.get("accepted"), message.body.get("counts"))
        except ValueError:
            return self._abort("malformed VERDICT body")
        if len(verdict.counts) != self.params.k:
            return self._abort(f"verdict counts length {len(verdict.counts)} "
                               f"!= payload length {self.params.k}")
        self.verdict = verdict
        self.state = "done"
        return []


class BobSession(_Endpoint):
    """Receiver state machine; responds to the sender's messages."""

    initial_state = "wait_hello"
    expects = {"wait_hello": "HELLO", "wait_commit": "COMMIT", "wait_open": "OPEN"}
    role, peer = "bob", "alice"
    _payload: proto.QuantumPayload | None = None

    def handle(self, message: WireMessage) -> list[WireMessage]:
        replies = self._prologue(message)
        if replies is not None:
            return replies
        if self.state == "wait_hello":
            self.state = "wait_commit"
            return [self._msg("HELLO", _params_body(self.params, self.role))]
        if self.state == "wait_commit":
            pairs = message.body.get("amplitudes")
            flat = (list(chain.from_iterable(pairs))
                    if _is_list_of(pairs, {list}) and set(map(len, pairs)) <= {2} else None)
            try:  # each [re, im] pair of doubles is laid out as one complex128
                amps = (np.array(flat, dtype=np.float64).view(np.complex128)
                        if _is_list_of(flat, _REAL_TYPES) else None)
            except OverflowError:  # an int beyond the double range
                amps = None
            if amps is None or not np.isfinite(amps).all():
                return self._abort("malformed COMMIT body")
            if amps.size != self.params.k:
                return self._abort("payload length mismatch")
            self._payload = proto.QuantumPayload(amps)
            if self.channel.adversarial_bob:
                self.strategy.observe_raw_amplitudes(amps, self.params, self.rng)
            else:
                self.strategy.observe_commit(self._payload, self.params, self.rng)
            self.state = "wait_open"
            return []
        bit = message.body.get("bit")
        phases = message.body.get("phases")
        if not (type(bit) in _INT_TYPES and _is_list_of(phases, _INT_TYPES)):
            return self._abort("malformed OPEN body")
        try:  # the elements are typed, so verify gets them as one array
            self.verdict = self.strategy.verify(self._payload, (bit, np.asarray(phases)),
                                                self.params, self.rng)
        except proto.ProtocolAbort as exc:
            return self._abort(str(exc))
        self.state = "done"
        return [self._msg("VERDICT", {"accepted": self.verdict.accepted,
                                      "counts": list(self.verdict.counts)})]


def _endpoints(alice_strategy: proto.AliceStrategy | None,
               bob_strategy: BobStrategy | None, params: proto.ProtocolParams,
               channel: ChannelModel | None, seed, session_id: str
               ) -> tuple[AliceSession, BobSession]:
    """Both endpoints of one session, seeded as by SeedSequence(seed).spawn(2)."""
    channel = channel or ChannelModel()
    entropy = np.random.SeedSequence().entropy if seed is None else seed
    alice_rng, bob_rng = (np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy, spawn_key=(j,)))) for j in (0, 1))
    return (AliceSession(alice_strategy, params, channel, alice_rng, session_id),
            BobSession(bob_strategy, params, channel, bob_rng, session_id))


def _transcript(log: list[WireMessage], *endpoints: _Endpoint) -> SessionTranscript:
    """The session as the given endpoints saw it; an abort on either side counts."""
    verdict, aborted, reason = None, False, ""
    for e in endpoints:
        verdict = verdict or e.verdict
        aborted = aborted or e.state == "aborted"
        reason = reason or e.abort_reason
    return SessionTranscript(endpoints[0].session_id, tuple(log), verdict, aborted, reason)


def run_session(alice_strategy: proto.AliceStrategy, bob_strategy: BobStrategy,
                params: proto.ProtocolParams, channel: ChannelModel | None = None,
                seed=0, session_id: str = "session-0",
                transport: str = "loopback") -> SessionTranscript:
    """Run one full session and return its transcript.

    transport="loopback" pumps the two state machines in process;
    transport="tcp" runs the receiver on a localhost socket in a thread.
    Transcripts are identical between the two for equal seeds.  The link
    scales the amplitudes by sqrt(params.tau), the transmittivity the sender
    pre-compensates for.
    """
    alice, bob = _endpoints(alice_strategy, bob_strategy, params, channel, seed, session_id)
    if transport == "loopback":
        return _run_loopback(alice, bob)
    if transport == "tcp":
        return _run_tcp(alice, bob)
    raise ValueError(f"unknown transport {transport!r}")


def _run_loopback(alice: AliceSession, bob: BobSession) -> SessionTranscript:
    log = batch = alice.start()
    receiver, sender = bob, alice
    while batch:  # one turn: the receiver reads the sender's messages until it is done
        batch = [reply for msg in batch if not receiver.done for reply in receiver.handle(msg)]
        log += batch
        receiver, sender = sender, receiver
    return _transcript(log, alice, bob)


def _drive(session: _Endpoint, sock: socket.socket) -> list[WireMessage]:
    """Run one endpoint over a connected socket; returns the messages in wire order.

    A line that does not decode, or that is longer than any valid message
    for the session's k, is answered with an ABORT.

    Each turn's messages go out in one send with Nagle's algorithm off.
    Sent as separate small writes, the sender's OPEN waits for the ACK of
    its COMMIT, which the receiver delays because it has no reply to
    COMMIT (RFC 896, RFC 1122 4.2.3.2): about 40 ms per session.
    """
    sock.settimeout(30.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    limit = _line_limit(session)
    log: list[WireMessage] = []
    with sock.makefile("rb") as rfile:
        outgoing = session.start()
        while True:
            if outgoing:
                sock.sendall(b"".join([encode(msg) for msg in outgoing]))
                log.extend(outgoing)
            if session.done:
                return log
            line = rfile.readline(limit)
            if not line:
                raise ProtocolStateError("stream closed mid-session")
            if len(line) == limit and not line.endswith(b"\n"):
                outgoing = session._abort(f"message line exceeds {limit} bytes")
                continue
            try:
                msg = decode_line(line)
            except DecodeError as exc:
                outgoing = session._abort(str(exc))
                continue
            log.append(msg)
            outgoing = session.handle(msg)


def _line_limit(session: _Endpoint) -> int:
    return 4096 + 64 * session.params.k


def _accept(server: socket.socket, session: _Endpoint) -> list[WireMessage]:
    """Run the receiver on one accepted connection, then wait for the peer to close.

    The side that closes first holds the connection in TIME_WAIT for 60 s
    (RFC 793).  Reading to the peer's EOF first puts that state on the
    connecting side's ephemeral port, not on the listening port.  The read
    stops after one line limit of bytes, at the 30 s timeout or on a reset.
    """
    conn, _ = server.accept()
    with conn:
        log = _drive(session, conn)
        left = _line_limit(session)
        try:
            while left > 0 and (data := conn.recv(left)):
                left -= len(data)
        except (TimeoutError, ConnectionError):
            pass
        return log


def _connect(host: str, port: int, session: _Endpoint) -> list[WireMessage]:
    with socket.create_connection((host, port), timeout=30.0) as sock:
        return _drive(session, sock)


def _run_tcp(alice: AliceSession, bob: BobSession) -> SessionTranscript:
    failures: list[BaseException] = []

    def serve():
        try:
            _accept(server, bob)
        except BaseException as exc:  # surfaced after join
            failures.append(exc)

    with socket.create_server(("127.0.0.1", 0)) as server:
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        log = _connect("127.0.0.1", server.getsockname()[1], alice)
        thread.join(timeout=30.0)
    if failures:
        raise failures[0]
    return _transcript(log, alice, bob)


def serve_single_session(host: str, port: int, bob_strategy: BobStrategy,
                         params: proto.ProtocolParams, seed=0) -> SessionTranscript:
    """Accept one TCP session as the receiver (CLI --listen mode)."""
    _, bob = _endpoints(None, bob_strategy, params, None, seed, "session-0")
    with socket.create_server((host, port)) as server:
        return _transcript(_accept(server, bob), bob)


def connect_single_session(host: str, port: int, alice_strategy: proto.AliceStrategy,
                           params: proto.ProtocolParams, seed=0) -> SessionTranscript:
    """Run the sender against a listening receiver (CLI --connect mode)."""
    alice, _ = _endpoints(alice_strategy, None, params, None, seed, "session-0")
    return _transcript(_connect(host, port, alice), alice)
