"""A stateful fuzz of both endpoints: valid framing into every state, then
adversarial values in each field.

The machine pairs a sender with a receiver and delivers their messages one
at a time, each encoded and decoded as a line on the wire.  Before a
delivery it may replace one field, or one element of a list field, with an
extreme value; it may also inject a message of any kind.  Every handle must
end in replies or an ABORT.  The run must reach every state of both
endpoints and the receiver's verify step, also after an adversarial COMMIT.
"""

import collections

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, precondition, rule,
                                 run_state_machine_as_test)

from phasebc import protocol as proto
from phasebc import transport as tp

PARAMS = proto.ProtocolParams(energy=1.0, M=4, k=2)
ADVERSARIAL = [1.7e308, -1.7e308, 1e10, 5e-324, -0.0, 2 ** 63, 10 ** 30, True, False]
ENDPOINT_STATES = {("alice", "wait_hello"), ("alice", "wait_verdict"),
                   ("bob", "wait_hello"), ("bob", "wait_commit"), ("bob", "wait_open")}

reached = collections.Counter()


def paths(value, path=()):
    """The path to a value and to every field and list element inside it."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from paths(item, path + (key,))


def replaced(body: dict, path, new) -> dict:
    """A deep copy of body with the value at path replaced."""
    def copy(value, rest):
        if not rest:
            return new
        head, tail = rest[0], rest[1:]
        if isinstance(value, dict):
            return {k: copy(v, tail) if k == head else v for k, v in value.items()}
        return [copy(v, tail) if i == head else v for i, v in enumerate(value)]
    return copy(body, path)


class VerifyingBob(tp.BobStrategy):
    def __init__(self, machine):
        self.machine = machine

    def verify(self, payload, revealed, params, rng):
        reached["verify"] += 1
        if self.machine.adversarial_commit:
            reached["verify after an adversarial COMMIT"] += 1
        return super().verify(payload, revealed, params, rng)


class SessionMachine(RuleBasedStateMachine):
    sessions = dict(bit=st.sampled_from([0, 1]), cheat=st.booleans(), seed=st.integers(0, 3))

    @initialize(**sessions)
    def start(self, bit, cheat, seed):
        sender = proto.CheatOpenAlice(bit) if cheat else proto.HonestAlice(bit)
        rngs = np.random.default_rng(seed).spawn(2)
        self.alice = tp.AliceSession(sender, PARAMS, tp.ChannelModel(), rngs[0], "s")
        self.bob = tp.BobSession(VerifyingBob(self), PARAMS, tp.ChannelModel(), rngs[1], "s")
        self.adversarial_commit = False
        self.pending = collections.deque((self.bob, m) for m in self.alice.start())

    def handle(self, receiver, message: tp.WireMessage) -> None:
        message = tp.decode_line(tp.encode(message))  # the line the receiver reads
        name = "alice" if receiver is self.alice else "bob"
        reached[(name, receiver.state)] += 1
        replies = receiver.handle(message)
        assert all(isinstance(r, tp.WireMessage) for r in replies)
        if receiver.state == "aborted":
            assert [r.kind for r in replies] in ([], ["ABORT"])
        for reply in replies:
            tp.encode(reply)  # every reply can be sent
        peer = self.bob if receiver is self.alice else self.alice
        self.pending.extend((peer, reply) for reply in replies)

    @precondition(lambda self: self.pending)
    @rule(data=st.data())
    def deliver(self, data):
        receiver, message = self.pending.popleft()
        if receiver.done:
            return
        body = message.body
        if data.draw(st.booleans(), label="tamper"):
            path = data.draw(st.sampled_from(list(paths(body))[1:]), label="field")
            body = replaced(body, path, data.draw(st.sampled_from(ADVERSARIAL),
                                                  label="value"))
            self.adversarial_commit |= message.kind == "COMMIT"
        self.handle(receiver, tp.WireMessage(message.kind, message.session_id, body))

    @precondition(lambda self: not (self.alice.done and self.bob.done))
    @rule(to_bob=st.booleans(), kind=st.sampled_from(tp.KINDS),
          field=st.sampled_from(["amplitudes", "bit", "phases", "accepted", "counts",
                                 "energy", "modulation", "reason"]),
          value=st.sampled_from(ADVERSARIAL) | st.lists(st.sampled_from(ADVERSARIAL),
                                                        min_size=1, max_size=2))
    def inject(self, to_bob, kind, field, value):
        receiver = self.bob if to_bob else self.alice
        if receiver.done:
            receiver = self.alice if to_bob else self.bob
        self.handle(receiver, tp.WireMessage(kind, "s", {field: value}))

    @precondition(lambda self: self.alice.done and self.bob.done)
    @rule(**sessions)
    def restart(self, bit, cheat, seed):
        self.start(bit, cheat, seed)


def test_every_state_and_verify_reached():
    reached.clear()
    run_state_machine_as_test(SessionMachine, settings=settings(
        max_examples=150, stateful_step_count=8, deadline=None, derandomize=True,
        database=None))
    assert ENDPOINT_STATES <= set(reached)
    assert reached["verify"] > 0
    assert reached["verify after an adversarial COMMIT"] > 0
