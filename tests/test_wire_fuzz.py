"""Whatever bytes reach an endpoint, it replies, aborts, or the decoder refuses the line."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebc import protocol as proto
from phasebc import transport as tp

PARAMS = proto.ProtocolParams(energy=1.0, M=4, k=1)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)

# near-valid field values, so the fuzz reaches the later states too
plausible = {
    "amplitudes": st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=2),
    "bit": st.integers(-1, 2),
    "phases": st.lists(st.integers(-1, PARAMS.M), max_size=2),
    "accepted": st.booleans(),
    "counts": st.lists(st.integers(-1, 2), max_size=2),
}
fields = ("role", "energy", "modulation", "repetitions", "epsilon", "tau",
          "amplitudes", "bit", "phases", "accepted", "counts", "reason")
documents = st.fixed_dictionaries(
    {"kind": st.sampled_from(tp.KINDS + ("NOPE",)), "session": st.sampled_from(["s", "t"])},
    optional={f: plausible[f] | json_values if f in plausible else json_values
              for f in fields},
)
hellos = st.sampled_from([
    tp.encode(tp.WireMessage("HELLO", "s", tp._params_body(PARAMS, role)))
    for role in ("alice", "bob")
])
lines = st.one_of(
    st.binary(max_size=48),
    documents.map(lambda doc: json.dumps(doc).encode() + b"\n"),
    hellos,
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(role=st.sampled_from(["alice", "bob"]), stream=st.lists(lines, min_size=1, max_size=6))
def test_any_bytes_end_in_replies_abort_or_decode_error(role, stream):
    cls, strategy = ((tp.AliceSession, proto.HonestAlice(0)) if role == "alice"
                     else (tp.BobSession, tp.BobStrategy()))
    session = cls(strategy, PARAMS, tp.ChannelModel(), np.random.default_rng(0), "s")
    session.start()
    for line in stream:
        if session.done:
            break
        try:
            msg = tp.decode_line(line)
        except tp.DecodeError:
            continue
        assert tp.decode_line(tp.encode(msg)) == msg  # a received line stays loggable
        replies = session.handle(msg)
        assert all(isinstance(r, tp.WireMessage) for r in replies)
        if session.state == "aborted" and replies:
            assert [r.kind for r in replies] == ["ABORT"]
