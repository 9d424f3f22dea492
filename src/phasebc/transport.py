"""Wire schema and two-party session runner.

Messages are single JSON objects, one per line, with a kind tag; floats
are printed with 17 significant digits so decoding reproduces them bit
for bit.  The same endpoint state machines run either over an in-process
loopback or over a TCP stream, and both log the session's messages in
wire order, so transcripts are byte-identical across backends for equal
seeds.

The commitment payload travels on the wire (this is a simulation), but
the receiving endpoint hands its strategy a sealed object whose only
public operation is displace-and-count.  Raw amplitudes reach a receiver
strategy only when the channel model is explicitly marked adversarial,
which exists to validate the concealment bound empirically.
"""

from __future__ import annotations

import json
import math
import socket
import threading
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import protocol as proto
from .codestates import (_FLOAT_TYPES, _INT_TYPES, _REAL_TYPES, CodeParams, _by_class,
                         _check_transmittivity, eigen_sigma)
from .fock import coherent_vector

KINDS = ("HELLO", "COMMIT", "OPEN", "VERDICT", "ABORT")


class DecodeError(Exception):
    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


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
        # formatted on first use, so a sent message is formatted once; a
        # decoded one is re-encoded canonically, not kept as the line it came in
        doc = {"kind": self.kind, "session": self.session_id}
        doc.update(self.body)
        return (format_document(doc) + "\n").encode("utf-8")


@dataclass(frozen=True)
class ChannelModel:
    """Link transmittivity plus the adversarial-receiver switch.

    Only the session runner constructs one of these; strategies never see
    it, mirroring a provider-secured line.
    """

    tau: float = 1.0
    adversarial_bob: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tau", _check_transmittivity(self.tau))


# format() drops the sign of -0.0 and json reads bare 0 as int
_ZERO_TEXT = {"0": "0.0", "-0": "-0.0"}


def _float_text(x: float) -> str:
    """One Python float at 17 significant digits."""
    if not math.isfinite(x):
        raise ValueError("non-finite float in message")
    text = "{:.17g}".format(x)
    return _ZERO_TEXT.get(text, text)


def _float_texts(values: list[float]) -> list[str]:
    """Python floats at 17 significant digits, each distinct value formatted once.

    An honest COMMIT holds at most M distinct amplitudes among its 2k floats.
    Values are told apart by bit pattern, which keeps 0.0 apart from -0.0.
    """
    bits, inverse = np.unique(np.array(values, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    distinct = bits.view(np.float64)
    if not np.isfinite(distinct).all():
        raise ValueError("non-finite float in message")
    texts = list(map("{:.17g}".format, distinct.tolist()))
    if not distinct.all():  # a zero, of either sign
        texts = list(map(_ZERO_TEXT.get, texts, texts))
    return list(map(texts.__getitem__, inverse.tolist()))


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
        return _float_text(float(doc))
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


def decode_line(line: bytes, offset: int = 0) -> WireMessage:
    try:
        doc = json.loads(line.decode("utf-8"), parse_float=_FloatLiterals().__getitem__,
                         parse_constant=_finite_float)
    except ValueError as exc:  # covers UnicodeDecodeError and JSONDecodeError
        raise DecodeError(f"malformed message line: {exc}", offset) from exc
    if not isinstance(doc, dict):
        raise DecodeError("message is not an object", offset)
    kind = doc.pop("kind", None)
    session = doc.pop("session", None)
    if kind not in KINDS:
        raise DecodeError(f"unknown kind tag {kind!r}", offset)
    if not isinstance(session, str):
        raise DecodeError("missing session id", offset)
    return WireMessage(kind, session, doc)


@dataclass(frozen=True)
class SessionTranscript:
    session_id: str
    messages: tuple[WireMessage, ...]
    verdict: proto.Verdict | None
    aborted: bool = False
    abort_reason: str = ""

    def to_bytes(self) -> bytes:
        return b"".join(encode(m) for m in self.messages)


def _params_body(params: proto.ProtocolParams, role: str) -> dict:
    return {"role": role, "energy": params.energy, "modulation": params.M,
            "repetitions": params.k, "epsilon": params.epsilon, "tau": params.tau}


def _params_match(body: dict, params: proto.ProtocolParams) -> bool:
    # Exact type() tests: bool is an int subclass, and JSON true == 1 == 1.0.
    # A real field may arrive as int because 1.0 is written as 1.
    return (
        type(body.get("modulation")) is int
        and type(body.get("repetitions")) is int
        and type(body.get("energy")) in (int, float)
        and type(body.get("epsilon")) in (int, float)
        and type(body.get("tau")) in (int, float)
        and body.get("energy") == params.energy
        and body.get("modulation") == params.M
        and body.get("repetitions") == params.k
        and body.get("epsilon") == params.epsilon
        and body.get("tau") == params.tau
    )


class BobStrategy:
    """Receiver behavior; the honest one only ever displaces and counts."""

    name = "honest"

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

    name = "helstrom"

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
        v = coherent_vector(complex(alpha), self._cutoff).amps
        return float((np.abs(_by_class(self.u * v, self._M).sum(axis=1)) ** 2).sum())


def _is_list_of(value, types) -> bool:
    return type(value) is list and set(map(type, value)) <= types


class _Endpoint:
    """State shared by both endpoint state machines."""

    initial_state = ""

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
        """Replies for a message that ends the session whatever the state, else None."""
        if self.done:
            raise ProtocolStateError("session is terminal")
        if message.session_id != self.session_id:
            return self._abort("session id mismatch")
        if message.kind == "ABORT":
            self.state = "aborted"
            self.abort_reason = str(message.body.get("reason", ""))
            return []
        return None


class AliceSession(_Endpoint):
    """Sender state machine; drives the session."""

    initial_state = "init"
    commitment: proto.Commitment | None = None

    def start(self) -> list[WireMessage]:
        if self.state != "init":
            raise ProtocolStateError("session already started")
        self.state = "wait_hello"
        return [self._msg("HELLO", _params_body(self.params, "alice"))]

    def handle(self, message: WireMessage) -> list[WireMessage]:
        replies = self._prologue(message)
        if replies is not None:
            return replies
        if self.state == "wait_hello":
            if message.kind != "HELLO":
                return self._abort(f"expected HELLO, got {message.kind}")
            if not _params_match(message.body, self.params):
                return self._abort("parameter mismatch in HELLO")
            bit = self.strategy.commitment_bit(self.params, self.rng)
            self.commitment, payload = proto.commit(bit, self.params, self.rng)
            received = proto.scale_payload(payload, math.sqrt(self.channel.tau))
            amps = proto._raw_amplitudes(received)
            revealed_b, revealed_m = self.strategy.reveal(self.commitment)
            self.state = "wait_verdict"
            return [
                self._msg("COMMIT", {
                    "amplitudes": np.column_stack((amps.real, amps.imag)).tolist(),
                }),
                self._msg("OPEN", {"bit": revealed_b, "phases": list(revealed_m)}),
            ]
        if self.state == "wait_verdict":
            if message.kind != "VERDICT":
                return self._abort(f"expected VERDICT, got {message.kind}")
            accepted = message.body.get("accepted")
            counts = message.body.get("counts")
            if not (isinstance(accepted, bool) and _is_list_of(counts, _INT_TYPES)):
                return self._abort("malformed VERDICT body")
            try:
                self.verdict = proto.Verdict(accepted, tuple(counts))
            except ValueError:
                return self._abort("malformed VERDICT body")
            self.state = "done"
            return []
        raise ProtocolStateError(f"unhandled state {self.state}")


class BobSession(_Endpoint):
    """Receiver state machine; responds to the sender's messages."""

    initial_state = "wait_hello"
    _payload: proto.QuantumPayload | None = None

    def handle(self, message: WireMessage) -> list[WireMessage]:
        replies = self._prologue(message)
        if replies is not None:
            return replies
        if message.kind != {"wait_hello": "HELLO", "wait_commit": "COMMIT",
                            "wait_open": "OPEN"}[self.state]:
            return self._abort(
                f"protocol-state error: {message.kind} arrived in state {self.state}"
            )
        if self.state == "wait_hello":
            if not _params_match(message.body, self.params):
                return self._abort("parameter mismatch in HELLO")
            self.state = "wait_commit"
            return [self._msg("HELLO", _params_body(self.params, "bob"))]
        if self.state == "wait_commit":
            pairs = message.body.get("amplitudes")
            flat = (list(chain.from_iterable(pairs))
                    if _is_list_of(pairs, {list}) and set(map(len, pairs)) <= {2} else None)
            if not _is_list_of(flat, _REAL_TYPES):
                return self._abort("malformed COMMIT body")
            try:  # each [re, im] pair of doubles is laid out as one complex128
                amps = np.array(flat, dtype=np.float64).view(np.complex128)
            except OverflowError:  # an int beyond the double range
                return self._abort("malformed COMMIT body")
            if not np.isfinite(amps).all():
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
        try:
            self.verdict = self.strategy.verify(self._payload, (bit, tuple(phases)),
                                                self.params, self.rng)
        except proto.ProtocolAbort as exc:
            return self._abort(str(exc))
        self.state = "done"
        return [self._msg("VERDICT", {
            "accepted": self.verdict.accepted,
            "counts": list(self.verdict.counts),
        })]


def _endpoints(alice_strategy: proto.AliceStrategy | None,
               bob_strategy: BobStrategy | None, params: proto.ProtocolParams,
               channel: ChannelModel | None, seed, session_id: str,
               bob_params: proto.ProtocolParams | None = None
               ) -> tuple[AliceSession, BobSession]:
    """Both endpoints of one session, each with its half of the split seed."""
    channel = channel or ChannelModel(tau=params.tau)
    alice_seed, bob_seed = np.random.SeedSequence(seed).spawn(2)
    return (AliceSession(alice_strategy, params, channel,
                         np.random.default_rng(alice_seed), session_id),
            BobSession(bob_strategy, bob_params or params, channel,
                       np.random.default_rng(bob_seed), session_id))


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
                transport: str = "loopback",
                bob_params: proto.ProtocolParams | None = None) -> SessionTranscript:
    """Run one full session and return its transcript.

    transport="loopback" pumps the two state machines in process;
    transport="tcp" runs the receiver on a localhost socket in a thread.
    Transcripts are identical between the two for equal seeds.  The
    default channel matches the transmittivity the sender pre-compensates
    for.
    """
    alice, bob = _endpoints(alice_strategy, bob_strategy, params, channel, seed,
                            session_id, bob_params)
    if transport == "loopback":
        return _run_loopback(alice, bob)
    if transport == "tcp":
        return _run_tcp(alice, bob)
    raise ValueError(f"unknown transport {transport!r}")


def _run_loopback(alice: AliceSession, bob: BobSession) -> SessionTranscript:
    log = alice.start()
    queue = deque([(bob, msg) for msg in log])
    while queue:
        receiver, msg = queue.popleft()
        if receiver.done:
            continue
        replies = receiver.handle(msg)
        log.extend(replies)
        peer = alice if receiver is bob else bob
        queue.extend([(peer, reply) for reply in replies])
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
