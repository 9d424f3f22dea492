"""Whatever bytes reach an endpoint, it replies, aborts, or the decoder refuses the line.

The bulk paths of the formatter write the same text as formatting one value at a time,
and the decoder's per-line literal memo reads the same values as parsing each literal.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebc import protocol as proto
from phasebc import transport as tp

from oracles import decode_stream

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
        # logged as it came, a missing end of line added
        assert tp.encode(msg) == (line if line.endswith(b"\n") else line + b"\n")
        replies = session.handle(msg)
        assert all(isinstance(r, tp.WireMessage) for r in replies)
        if session.state == "aborted" and replies:
            assert [r.kind for r in replies] == ["ABORT"]


def reference_format(doc) -> str:
    """The formatter as one recursive call per value: the oracle for the bulk paths."""
    if doc is None:
        return "null"
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if isinstance(doc, (int, np.integer)):
        return str(int(doc))
    if isinstance(doc, (float, np.floating)):
        x = float(doc)
        if not math.isfinite(x):
            raise ValueError("non-finite float in message")
        if x == 0.0:
            return "-0.0" if math.copysign(1.0, x) < 0 else "0.0"
        return format(x, ".17g")
    if isinstance(doc, str):
        return json.dumps(doc)
    if isinstance(doc, (list, tuple)):
        return "[" + ",".join(reference_format(v) for v in doc) + "]"
    if isinstance(doc, dict):
        items = (f"{json.dumps(str(k))}:{reference_format(v)}" for k, v in doc.items())
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot encode {type(doc).__name__}")


finite = st.floats(allow_nan=False, allow_infinity=False)
edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                               -1e-310, 1.7976931348623157e308])
any_float = st.one_of(
    finite, edge_floats,
    (finite | edge_floats).map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.floats(width=16, allow_nan=False, allow_infinity=False).map(np.float16),
    # more bits, or a wider range, than a double
    st.integers(1, 10 ** 6).map(lambda n: np.longdouble(n) / 3),
    st.sampled_from(["1e-400", "-1e-400"]).map(np.longdouble),
)
ints = st.integers() | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
pairs = st.lists(any_float, min_size=2, max_size=2)
# lists that take each bulk path, and near misses that must not
bulk_lists = st.one_of(
    st.lists(st.integers()), st.lists(any_float), st.lists(pairs),
    st.lists(st.integers() | st.booleans()), st.lists(ints), st.lists(any_float | ints),
    st.lists(st.lists(any_float, max_size=3)), st.lists(st.tuples(any_float, any_float)),
)
structures = st.recursive(
    st.none() | st.booleans() | ints | any_float | st.text(max_size=3) | bulk_lists,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(structures)
def test_bulk_formatter_matches_per_value_reference(doc):
    assert tp.format_document(doc) == reference_format(doc)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(values=st.lists(any_float, min_size=1, max_size=8),
       size=st.integers(1, 2 * tp._UNIQUE_MIN),
       bad=st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, np.float32("nan"),
                            np.float64("inf")]),
       at=st.integers(0, 2 * tp._UNIQUE_MIN), as_pairs=st.booleans())
def test_non_finite_in_a_bulk_list_raises(values, size, bad, at, as_pairs):
    # lists on both sides of the length from which distinct values are formatted once
    values = (values * size)[:size]
    values = values[:at] + [bad] + values[at:]
    doc = [[v, v] for v in values] if as_pairs else values
    with pytest.raises(ValueError, match="non-finite float in message"):
        tp.format_document({"amplitudes": doc})


# a few distinct values, as an honest COMMIT holds: both signed zeros and the
# smallest subnormal, then float32 values (as NumPy scalars and as Python
# floats) and doubles
pools = st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    finite,
), max_size=10).map(lambda values: [0.0, -0.0, 5e-324] + values)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pool=pools, size=st.integers(100, 4000),
       seed=st.integers(0, 2 ** 32 - 1), as_pairs=st.booleans())
def test_long_lists_of_repeated_values_match_reference(pool, size, seed, as_pairs):
    values = [pool[i] for i in np.random.default_rng(seed).integers(len(pool), size=size)]
    doc = [values[i:i + 2] for i in range(0, size - 1, 2)] if as_pairs else values
    assert tp.format_document(doc) == reference_format(doc)


def test_transcript_with_a_non_canonical_line_round_trips():
    # a line spaced and spelled as no phasebc peer writes it encodes to itself,
    # so the transcript's bytes are the bytes that came over the wire
    hello, commit = (tp.encode(tp.WireMessage("HELLO", "s", tp._params_body(PARAMS, "alice"))),
                     b'{ "kind" : "COMMIT", "amplitudes": [[1.0, -0.00], [2.50e0, 0]],'
                     b' "session": "s" }\n')
    data = hello + commit + b'{"kind":"ABORT","session":"s","reason":"\\u0078"}\n'
    messages = decode_stream(data)
    assert [m.kind for m in messages] == ["HELLO", "COMMIT", "ABORT"]
    assert b"".join(map(tp.encode, messages)) == data


@pytest.mark.parametrize("bad", ["1e400", "-1e400", "1E+400"])
def test_non_finite_literal_after_repeats_raises(bad):
    # the repeated literal is parsed once; the new one still gets the check
    line = ('{"kind":"COMMIT","session":"s","amplitudes":'
            f'[[0.5,0.5],[0.5,-0.0],[-0.0,0.5],[0.5,{bad}]]}}\n').encode()
    with pytest.raises(tp.DecodeError, match=re.escape(f"non-finite number {bad}")):
        tp.decode_line(line)


def per_literal_decode(line: bytes) -> tp.WireMessage:
    """decode_line as one checked float() per literal: the oracle for the memo."""
    doc = json.loads(line.decode("utf-8"), parse_float=tp._finite_float,
                     parse_constant=tp._finite_float)
    return tp.WireMessage(doc.pop("kind"), doc.pop("session"), doc)


@pytest.mark.parametrize("energy, M, k", [(1.0, 20, 1843), (0.0, 8, 64)])
def test_honest_commit_decodes_as_per_literal_parse(energy, M, k):
    t = tp.run_session(proto.HonestAlice(0), tp.BobStrategy(),
                       proto.ProtocolParams(energy, M, k), seed=5)
    line = tp.encode(next(m for m in t.messages if m.kind == "COMMIT"))
    got, expected = tp.decode_line(line), per_literal_decode(line)
    assert got == expected
    # == takes -0.0 for 0.0, so the sign bits are compared too
    bits = [np.array(m.body["amplitudes"]).view(np.int64) for m in (got, expected)]
    assert np.array_equal(*bits)
