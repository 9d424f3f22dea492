"""In-memory spans around phasebc's public entry points.

The tracer replaces module and class attributes of phasebc with timing
wrappers for the duration of a traced block and restores them afterwards;
nothing under ``src/`` is edited.  Each span records its name, a label,
start and end (``perf_counter_ns``), the span that caused it and the
operation (session or report pass) it belongs to.  Spans stay in memory
until the block ends.

A span opened on a thread with no open span of its own (the receiver
thread of a TCP session) takes the current root span (``run_session`` or
``cli.main``) as its parent, so a session's spans form one tree across
both threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    label: str
    start: int
    end: int
    op: int | None

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.op: int | None = None
        self._root: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, label=None, root=False):
        """A wrapper that records one span per call while the tracer is enabled.

        label(*args, **kwargs) names the span's variant.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span_id = next(tracer._ids)
            tag = label(*args, **kwargs) if label else ""
            stack.append(span_id)
            if root:
                tracer._root = span_id
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if root:
                    tracer._root = None
                tracer.spans.append(Span(span_id, parent, name, tag, start, end, tracer.op))

        return traced

    def patch(self, owner, attr, name, **kwargs):
        """Wrap owner.attr; an entry point the program no longer has is skipped,
        and the metrics built from its spans read 0."""
        if attr in owner.__dict__:
            self.replace(owner, attr, self.wrap(owner.__dict__[attr], name, **kwargs))

    def replace(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(list(span)) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every public entry point the workloads reach."""
    from phasebc import cli, mayers, security, transport
    from phasebc import protocol as proto

    def t_label(t, *_args, **_kwargs):
        return repr(float(t))

    tracer.patch(transport, "run_session", "transport.run_session", root=True)
    tracer.patch(transport.AliceSession, "handle", "transport.alice_handle")
    tracer.patch(transport.BobSession, "handle", "transport.bob_handle")
    tracer.patch(transport.HelstromBob, "observe_raw_amplitudes",
                 "transport.helstrom_observe")
    tracer.patch(transport, "coherent_vector", "fock.coherent_vector")
    tracer.patch(transport, "encode", "transport.encode")
    tracer.patch(transport, "decode_line", "transport.decode_line")
    tracer.patch(transport.SessionTranscript, "to_bytes", "transport.to_bytes")
    tracer.patch(proto, "commit", "protocol.commit")
    tracer.patch(proto, "bob_verify", "protocol.bob_verify")

    tracer.patch(cli, "main", "cli.main", root=True,
                 label=lambda argv=None: argv[0] if argv else "")
    build_parser = cli.__dict__.get("build_parser")

    def traced_build_parser():
        parser = tracer.wrap(build_parser, "cli.parse")()
        parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse")
        return parser

    if build_parser is not None:
        tracer.replace(cli, "build_parser", traced_build_parser)
    tracer.patch(cli, "render_document", "cli.render_document")
    tracer.patch(cli, "cmd_wigner", "cli.cmd_wigner")
    tracer.patch(cli, "wigner_sigma", "phasespace.wigner_sigma")
    tracer.patch(cli, "verification_report", "mayers.verification_report")
    tracer.patch(mayers, "build_kit", "mayers.build_kit")
    tracer.patch(mayers, "conditional_bob_state", "mayers.conditional_bob_state")
    tracer.patch(security, "numeric_trace_norm_check", "security.trace_norm_check",
                 label=t_label)
    tracer.patch(security, "build_D", "codestates.build_D")
    tracer.patch(security, "trace_norm", "fock.trace_norm")
    tracer.patch(security, "find_params", "security.find_params")


def _covered(intervals, lo, hi) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {s.id: s.duration - _covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}
