"""The four benchmark workloads.

Each workload is a closed loop with one client that waits for every
result, drives only phasebc's public functions, and checks every output.
An operation is one session (three session workloads) or one pass over
the report commands (dense-reports).  A block runs operations 0, 1, 2,
... for a given time; operation i of a session workload uses the seed
(workload seed, i), so two blocks of the same seed repeat the same work.

Why these four:
  mc-loopback    in-process sessions over the three Monte-Carlo traffic
                 kinds; per-session Python in transport and protocol,
                 no wire encoding, sockets or dense algebra.
  tcp-demo       honest sessions over TCP at the README's socket example;
                 the time is the socket round trip (stall after two
                 back-to-back small writes), the codec is negligible.
  tcp-secure     the same loop at the planner's epsilon=1e-2 point with a
                 ~68 KB COMMIT plus one to_bytes() per session; the time
                 is mostly encode, decode and to_bytes.
  dense-reports  bounds/mayers/wigner/plan through cli.main; dense
                 eigendecompositions (cubic in the cutoff), kit
                 construction and CSV emit, no sessions.
"""

from __future__ import annotations

import array
import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from phasebc import cli, mayers, security, transport
from phasebc import protocol as proto
from phasebc.codestates import CodeParams

import speed
from tracer import Span, self_times

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())
# Span label of numeric_trace_norm_check(t, M) -> its density cutoff, as
# recorded in reference.json.
CUTOFF_LABEL = {repr(float(row["t"])): f"N{row['cutoff']}"
                for row in REFERENCE["bounds"]["ladder"]}
# Exact counts printed as per-layer metrics.  transport.aborts is counted
# and compared between blocks too, but an aborted session already fails.
COUNT_METRICS = ("transport.messages", "protocol.modes_verified",
                 "transport.encode_bytes", "transport.decode_bytes")

MAX_PROBLEMS = 20
PROBE_INTERVAL_S = 0.25   # between speed probes, checked between operations
# Chance that a statistical check fails a correct program on a given seed.
# The tests are exact: at a few tens of accepted cheats per window the
# binomial is skewed, and a normal 3-sigma test fails about 0.3% of seeds.
# With a 9000-session window this level still flags a cheat acceptance
# above 2.1 or below 0.19 times pca_exact.
FALSE_ALARM = 1e-6


def binomial_tails(hits: int, n: int, p: float) -> tuple[float, float]:
    """P(X <= hits) and P(X >= hits) for X ~ Binomial(n, p), 0 < p < 1."""
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    pmf = [math.exp(log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + k * log_p + (n - k) * log_q) for k in range(n + 1)]
    return math.fsum(pmf[:hits + 1]), math.fsum(pmf[hits:])


@dataclass
class Block:
    """What one timed block did.

    wall_s leaves out the speed probes; probe_ns is their mean time.
    """

    latencies_ns: array.array
    wall_s: float
    attempted: int
    failed: int
    counts: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    probe_ns: float = 0.0


class Workload:
    name = ""
    min_ops = 1        # operations every block runs, however long they take
    cpu_bound = True   # its time is CPU work, reported scaled to the reference CPU
    count_prefix = 0   # operations whose exact counts are compared between blocks

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None
        self.problems: list[str] = []
        self.failed = 0

    def fail(self, op: int, message: str, weight: int = 1) -> None:
        self.failed += weight
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{self.name} op {op}: {message}")

    @contextlib.contextmanager
    def quiet(self):
        """Run checks without recording spans."""
        enabled = self.tracer is not None and self.tracer.enabled
        if enabled:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if enabled:
                self.tracer.enabled = True

    def setup(self) -> None:
        raise NotImplementedError

    def begin_block(self) -> None:
        pass

    def op(self, i: int) -> int:
        """Run operation i with its checks; return its latency in ns."""
        raise NotImplementedError

    def end_block(self, ops: int) -> None:
        pass

    def block_counts(self) -> dict:
        return {}

    def block_extra(self) -> dict:
        return {}

    def run_block(self, seconds: float) -> Block:
        self.begin_block()
        self.failed = 0
        latencies = array.array("q")   # compact, so peak RSS barely grows with the run
        probes = []
        probe_wall = 0.0
        start = time.perf_counter()
        probed = start - PROBE_INTERVAL_S
        i = 0
        while i < self.min_ops or time.perf_counter() - start - probe_wall < seconds:
            if time.perf_counter() - probed >= PROBE_INTERVAL_S:
                probes.append(speed.probe_ns())
                probed = time.perf_counter()
                probe_wall += probes[-1] * 1e-9
            if self.tracer is not None:
                self.tracer.op = i
            try:
                latencies.append(self.op(i))
            except Exception as exc:  # an operation that raises counts as failed
                self.fail(i, f"raised {exc!r}")
            i += 1
        wall = time.perf_counter() - start - probe_wall
        with self.quiet():
            self.end_block(i)
        return Block(latencies, wall, i, self.failed, self.block_counts(),
                     self.block_extra(), statistics.fmean(probes))

    def layer_metrics(self, spans: list[Span], block: Block) -> dict:
        raise NotImplementedError


def _session_counts(transcript) -> dict:
    verdict = transcript.verdict
    return {
        "transport.messages": len(transcript.messages),
        "transport.aborts": sum(m.kind == "ABORT" for m in transcript.messages),
        "protocol.modes_verified": len(verdict.counts) if verdict else 0,
    }


def _sum_counts(rows) -> dict:
    total = defaultdict(int)
    for row in rows:
        for key, value in row.items():
            total[key] += value
    return dict(total)


class SessionWorkload(Workload):
    """Shared span accounting of the three session workloads."""

    @staticmethod
    def count_metrics(block: Block) -> dict:
        """The exact counts of the block's first count_prefix transcripts."""
        return {name: (value, "bytes" if name.endswith("_bytes") else "count")
                for name, value in block.counts.items() if name in COUNT_METRICS}

    def per_session(self, spans: list[Span], selfs: dict[int, int], sessions: int,
                    name: str, own: bool = False, wire_only: bool = False) -> float:
        """Mean time per session spent in spans of one name, in ns."""
        to_bytes = {s.id for s in spans if s.name == "transport.to_bytes"}
        total = sum(selfs[s.id] if own else s.duration for s in spans
                    if s.name == name and not (wire_only and s.parent in to_bytes))
        return total / sessions


class McLoopback(SessionWorkload):
    """Loopback sessions, round robin over honest, cheat-open and Helstrom."""

    name = "mc-loopback"
    window = 9000            # sessions of each kind in the statistical checks
    min_ops = 3 * window
    count_prefix = 30

    def setup(self) -> None:
        self.params = (
            proto.ProtocolParams(1.0, 8, 16),   # honest, as in simulate
            proto.ProtocolParams(1.0, 4, 10),   # cheat-open, as in the attack-law test
            proto.ProtocolParams(1.0, 8, 1),    # Helstrom receiver, k = 1
        )
        self.honest = (proto.HonestAlice(0), proto.HonestAlice(1))
        self.cheat = (proto.CheatOpenAlice(0), proto.CheatOpenAlice(1))
        self.random_bit = proto.RandomBitAlice()
        self.receiver = transport.BobStrategy()
        self.helstrom = transport.HelstromBob(CodeParams.from_energy(1.0, 8))
        self.adversarial = transport.ChannelModel(adversarial_bob=True)
        self.pca = security.pca_exact(1.0, 10, 4)
        self.guess_bound = 0.5 + security.pcb_bound(1.0, 8, 1) / 2.0
        self.begin_block()
        for i in range(30):
            self.op(i)

    def begin_block(self) -> None:
        self.cheat_accepted = 0
        self.guess_hits = 0
        self.prefix_counts: list[dict] = []

    def op(self, i: int) -> int:
        kind, b = i % 3, (i // 3) % 2
        bob, channel = self.receiver, None
        if kind == 0:
            alice = self.honest[b]
        elif kind == 1:
            alice = self.cheat[b]
        else:
            alice, bob, channel = self.random_bit, self.helstrom, self.adversarial
        start = time.perf_counter_ns()
        tr = transport.run_session(alice, bob, self.params[kind], channel=channel,
                                   seed=(self.seed, i), session_id=f"s{i}")
        elapsed = time.perf_counter_ns() - start
        guesses = self.helstrom.guesses
        guess = guesses[-1] if kind == 2 and guesses else None
        guesses.clear()
        in_window = i // 3 < self.window
        if tr.aborted or tr.verdict is None:
            self.fail(i, f"session aborted: {tr.abort_reason!r}")
        elif kind == 0 and not tr.verdict.accepted:
            self.fail(i, "honest session rejected")
        elif kind == 1 and in_window:
            self.cheat_accepted += tr.verdict.accepted
        elif kind == 2 and in_window:
            opened = next(m.body["bit"] for m in tr.messages if m.kind == "OPEN")
            self.guess_hits += guess == opened
        if i < self.count_prefix:
            self.prefix_counts.append(_session_counts(tr))
        return elapsed

    def end_block(self, ops: int) -> None:
        """Exact binomial tests over the window, each at level FALSE_ALARM."""
        n = self.window
        below, above = binomial_tails(self.cheat_accepted, n, self.pca)
        if 2.0 * min(below, above) < FALSE_ALARM:
            self.fail(ops, f"cheat-open acceptance {self.cheat_accepted}/{n} is "
                           f"inconsistent with pca_exact {self.pca}", weight=n)
        if binomial_tails(self.guess_hits, n, self.guess_bound)[1] < FALSE_ALARM:
            self.fail(ops, f"Helstrom guess rate {self.guess_hits}/{n} exceeds "
                           f"the bound {self.guess_bound}", weight=n)

    def block_counts(self) -> dict:
        return _sum_counts(self.prefix_counts)

    def layer_metrics(self, spans: list[Span], block: Block) -> dict:
        selfs = self_times(spans)
        n = block.attempted
        helstrom_sessions = len(range(2, n, 3))
        us = 1e-3
        out = {
            "transport.run_session.self_us":
                self.per_session(spans, selfs, n, "transport.run_session", own=True) * us,
            "transport.alice_handle.self_us":
                self.per_session(spans, selfs, n, "transport.alice_handle", own=True) * us,
            "transport.bob_handle.self_us":
                self.per_session(spans, selfs, n, "transport.bob_handle", own=True) * us,
            "transport.helstrom_observe_us":
                self.per_session(spans, selfs, helstrom_sessions,
                                 "transport.helstrom_observe") * us,
            "fock.coherent_vector_us":
                self.per_session(spans, selfs, helstrom_sessions,
                                 "fock.coherent_vector") * us,
            "protocol.commit_us":
                self.per_session(spans, selfs, n, "protocol.commit") * us,
            "protocol.bob_verify_us":
                self.per_session(spans, selfs, n, "protocol.bob_verify") * us,
        }
        out = {name: (value, "us") for name, value in out.items()}
        out.update(self.count_metrics(block))
        return out


class TcpSessions(SessionWorkload):
    """Honest sessions, one TCP connection each."""

    count_prefix = 8
    min_ops = count_prefix
    params: proto.ProtocolParams
    to_bytes_in_op = False

    def setup(self) -> None:
        self.senders = (proto.HonestAlice(0), proto.HonestAlice(1))
        self.receiver = transport.BobStrategy()
        self.begin_block()
        for i in range(2):
            self.op(i)

    def begin_block(self) -> None:
        self.digests: list[tuple[int, bytes]] = []
        self.prefix_counts: list[dict] = []

    def _session(self, i: int, backend: str):
        return transport.run_session(self.senders[i % 2], self.receiver, self.params,
                                     seed=(self.seed, i), session_id=f"s{i}",
                                     transport=backend)

    def op(self, i: int) -> int:
        start = time.perf_counter_ns()
        tr = self._session(i, "tcp")
        if self.to_bytes_in_op:
            data = tr.to_bytes()
        elapsed = time.perf_counter_ns() - start
        with self.quiet():
            if not self.to_bytes_in_op:
                data = tr.to_bytes()
            self.digests.append((i, hashlib.sha256(data).digest()))
        if tr.aborted or tr.verdict is None:
            self.fail(i, f"session aborted: {tr.abort_reason!r}")
        elif not tr.verdict.accepted:
            self.fail(i, "honest session rejected")
        if i < self.count_prefix:
            counts = _session_counts(tr)
            counts["transport.encode_bytes"] = counts["transport.decode_bytes"] = len(data)
            self.prefix_counts.append(counts)
        return elapsed

    def end_block(self, ops: int) -> None:
        """Each TCP transcript must equal the loopback one byte for byte."""
        for i, digest in self.digests:
            loop = self._session(i, "loopback").to_bytes()
            if hashlib.sha256(loop).digest() != digest:
                self.fail(i, "TCP transcript differs from the loopback transcript")

    def block_counts(self) -> dict:
        return _sum_counts(self.prefix_counts)

    def layer_metrics(self, spans: list[Span], block: Block) -> dict:
        selfs = self_times(spans)
        n = block.attempted
        out = {"transport.tcp_wait_ms": (
            self.per_session(spans, selfs, n, "transport.run_session", own=True) * 1e-6,
            "ms")}
        out.update(self.count_metrics(block))
        return out


class TcpDemo(TcpSessions):
    name = "tcp-demo"
    cpu_bound = False   # a session waits ~40 ms on the kernel's delayed-ACK timer
    params = proto.ProtocolParams(1.0, 8, 4)


class TcpSecure(TcpSessions):
    name = "tcp-secure"
    params = proto.ProtocolParams(1.0, 20, 1843)   # plan --epsilon 1e-2 -t 1
    to_bytes_in_op = True

    def layer_metrics(self, spans: list[Span], block: Block) -> dict:
        out = super().layer_metrics(spans, block)
        selfs = self_times(spans)
        n = block.attempted
        for metric, name, wire_only in (
                ("transport.encode_us", "transport.encode", True),
                ("transport.decode_line_us", "transport.decode_line", False),
                ("transport.to_bytes_us", "transport.to_bytes", False),
                ("protocol.commit_us", "protocol.commit", False),
                ("protocol.bob_verify_us", "protocol.bob_verify", False)):
            value = self.per_session(spans, selfs, n, name, wire_only=wire_only)
            out[metric] = (value * 1e-3, "us")
        return out


REPORT_KINDS = ("bounds", "mayers", "wigner", "plan")
# Spans timed per bounds cutoff: span name -> metric name.
LADDER_SPANS = {"security.trace_norm_check": "security.trace_norm_check_ms",
                "codestates.build_D": "codestates.build_D_ms",
                "fock.trace_norm": "fock.trace_norm_ms"}
# Other spans of a pass: span name -> (metric, ns to its unit, self time only).
PASS_SPANS = {
    "mayers.build_kit": ("mayers.build_kit_ms", 1e-6, False),
    "mayers.conditional_bob_state": ("mayers.conditional_bob_state_ms", 1e-6, False),
    "mayers.verification_report": ("mayers.verification_report.self_ms", 1e-6, True),
    "phasespace.wigner_sigma": ("phasespace.wigner_sigma_ms", 1e-6, False),
    "cli.cmd_wigner": ("phasespace.csv_emit_ms", 1e-6, True),
    "security.find_params": ("security.find_params_us", 1e-3, False),
    "cli.parse": ("cli.parse_ms", 1e-6, False),
    "cli.render_document": ("cli.render_document_ms", 1e-6, False),
}


class DenseReports(Workload):
    """One pass runs the bounds ladder, three mayers points, wigner and plan."""

    name = "dense-reports"

    def setup(self) -> None:
        ref = REFERENCE
        bounds = ref["bounds"]
        self.commands = []
        for row in bounds["ladder"]:
            argv = ["bounds", "-t", str(row["t"]), "-M", str(bounds["M"]),
                    "-k", str(bounds["k"]), "--format", "structured"]
            self.commands.append(("bounds", argv, self._bounds_check(row)))
        for t, M in ref["mayers"]:
            argv = ["mayers", "-t", str(t), "-M", str(M), "--format", "structured"]
            self.commands.append(("mayers", argv, self._mayers_check(M)))
        w = ref["wigner"]
        argv = ["wigner", "-t", str(w["t"]), "-M", str(w["M"]), "-b", str(w["bit"])]
        self.commands.append(("wigner", argv, self._wigner_check))
        p = ref["plan"]
        argv = ["plan", "--epsilon", str(p["epsilon"]), "-t", str(p["t"]),
                "--format", "structured"]
        self.commands.append(("plan", argv, self._plan_check))
        # The kit cache would hide kit construction after the first pass;
        # each CLI invocation pays it, so the cache is emptied per command.
        self.clear_kit_cache = getattr(mayers.build_kit, "cache_clear", None)
        self.begin_block()
        first = {}
        for command in self.commands:
            first.setdefault(command[0], command)
        for command in first.values():
            problem = self._run(command)[1]
            if problem:
                raise RuntimeError(f"warm-up {' '.join(command[1])}: {problem}")

    def begin_block(self) -> None:
        self.pass_ms: list[dict] = []
        self.csv_bytes: list[int] = []

    def _run(self, command) -> tuple[int, str]:
        kind, argv, check = command
        if kind == "mayers" and self.clear_kit_cache is not None:
            self.clear_kit_cache()
        buf = io.StringIO()
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:
            return time.perf_counter_ns() - start, f"raised {exc!r}"
        elapsed = time.perf_counter_ns() - start
        try:
            return elapsed, check(rc, buf.getvalue())
        except (ValueError, KeyError, TypeError) as exc:
            return elapsed, f"unreadable output: {exc!r}"

    def op(self, i: int) -> int:
        times = dict.fromkeys(REPORT_KINDS, 0)
        problems = []
        for command in self.commands:
            elapsed, problem = self._run(command)
            times[command[0]] += elapsed
            if problem:
                problems.append(f"{' '.join(command[1])}: {problem}")
        if problems:
            self.fail(i, "; ".join(problems))
        self.pass_ms.append({k: v * 1e-6 for k, v in times.items()})
        return sum(times.values())

    @staticmethod
    def _bounds_check(row):
        def check(rc, out):
            doc = json.loads(out)
            numeric, ref = doc["trace_norm_numeric"], row["trace_norm_numeric"]
            if abs(numeric - ref) > 1e-9 * abs(ref):
                return f"trace_norm_numeric {numeric!r} != reference {ref!r}"
            if doc["bound_valid"] and numeric > doc["trace_norm_bound"] + 1e-10:
                return f"trace_norm_numeric {numeric!r} above the valid bound"
            expected = 0 if doc["feasible"] else 1
            if rc != expected:
                return f"exit code {rc}, feasible={doc['feasible']}"
            return ""
        return check

    @staticmethod
    def _mayers_check(M):
        def check(rc, out):
            if rc != 0:
                return f"exit code {rc}"
            doc = json.loads(out)
            for b in (0, 1):
                probs = doc[f"outcome_probs_{b}"]
                if len(probs) != M or max(abs(p - 1.0 / M) for p in probs) > 1e-8:
                    return f"outcome_probs_{b} not uniform: {probs}"
            return ""
        return check

    def _wigner_check(self, rc, out):
        ref = REFERENCE["wigner"]
        self.csv_bytes.append(len(out.encode()))
        if rc != 0:
            return f"exit code {rc}"
        rows = out.count("\n")
        if rows != ref["points"] ** 2 + 1:
            return f"{rows} CSV rows"
        if hashlib.sha256(out.encode()).hexdigest() != ref["sha256"]:
            return "CSV differs from the recorded digest"
        return ""

    @staticmethod
    def _plan_check(rc, out):
        ref = REFERENCE["plan"]
        doc = json.loads(out)
        if rc != 0 or (doc["M"], doc["k"]) != (ref["M"], ref["k"]):
            return f"exit code {rc}, (M, k) = ({doc['M']}, {doc['k']})"
        return ""

    def block_counts(self) -> dict:
        sizes = set(self.csv_bytes)
        return {"csv_bytes": sizes.pop() if len(sizes) == 1 else -1}

    def block_extra(self) -> dict:
        if not self.pass_ms:
            return {}
        return {f"{kind}_ms": statistics.median(p[kind] for p in self.pass_ms)
                for kind in REPORT_KINDS}

    def layer_metrics(self, spans: list[Span], block: Block) -> dict:
        selfs = self_times(spans)
        by_id = {s.id: s for s in spans}

        def ladder_label(span):
            """Cutoff label of the trace_norm_check span that encloses span."""
            while span is not None and span.name != "security.trace_norm_check":
                span = by_id.get(span.parent)
            return span and CUTOFF_LABEL.get(span.label)

        # Every metric is reported; a span the program no longer reaches reads 0.
        names = [f"{metric}.{label}" for metric in LADDER_SPANS.values()
                 for label in CUTOFF_LABEL.values()]
        names += [metric for metric, _, _ in PASS_SPANS.values()]
        names += [f"cli.{kind}_ms" for kind in REPORT_KINDS]
        per_pass = defaultdict(lambda: dict.fromkeys(names, 0.0))
        for s in spans:
            row = per_pass[s.op]
            if s.name in LADDER_SPANS:
                label = ladder_label(s)
                if label:
                    row[f"{LADDER_SPANS[s.name]}.{label}"] += s.duration * 1e-6
            elif s.name in PASS_SPANS:
                metric, scale, own = PASS_SPANS[s.name]
                row[metric] += (selfs[s.id] if own else s.duration) * scale
            elif s.name == "cli.main" and s.label in REPORT_KINDS:
                row[f"cli.{s.label}_ms"] += s.duration * 1e-6
        out = {}
        for name in names:
            value = statistics.median(per_pass[op][name] for op in range(block.attempted))
            out[name] = (value, "us" if name.endswith("_us") else "ms")
        for label in CUTOFF_LABEL.values():
            out[f"security.dense_bytes.{label}"] = (16 * (int(label[1:]) + 1) ** 2, "bytes")
        out["phasespace.csv_bytes"] = (block.counts["csv_bytes"], "bytes")
        return out

WORKLOADS = {cls.name: cls for cls in (McLoopback, TcpDemo, TcpSecure, DenseReports)}
