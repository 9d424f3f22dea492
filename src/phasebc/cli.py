"""Command-line surface.

Subcommands: simulate (session Monte-Carlo or a single networked session),
bounds (security report for one parameter point), plan (epsilon-driven
parameter search), mayers (attack-kit verification report), wigner
(phase-space grid CSV).  Every run is deterministic given its flags and
seed; numeric output carries 17 significant digits.

Exit codes: 0 success, 1 security-check or plan failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import security, transport
from . import protocol as proto
from .codestates import CodeParams
from .fock import density_cutoff
from .mayers import KIT_M_LIMIT, KIT_T_LIMIT, verification_report
from .phasespace import GridSpec, wigner_sigma

DEFAULT_SEED = 20260809  # documented default; override with --seed


class _UsageError(Exception):
    """Arguments that each parse but do not run together; main exits 2."""


def render_document(doc: dict, fmt: str) -> str:
    """One report document as aligned text or a single JSON object."""
    if fmt == "text":
        width = max(len(k) for k in doc)
        return "".join(f"{k.ljust(width)}  {transport.format_document(v)}\n"
                       for k, v in doc.items())
    return transport.format_document(doc) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _checked(parse, ok, expected: str):
    """argparse type: parse the text and require ok(value), else exit 2."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return convert


def _host_port(text: str) -> tuple[str, int]:
    host, port = text.rsplit(":", 1)
    return host, int(port)


def _energy_types(ok, rule: str):
    """The -E and -t converters, both requiring ok(E) of the energy E = t^2."""
    return (_checked(float, ok, f"an energy E {rule}"),
            _checked(float, lambda t: t >= 0.0 and ok(t * t),
                     f"an amplitude t >= 0 with E = t^2 {rule}"))


_POSITIVE_INT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_ORDER = _checked(int, lambda v: v >= 2, "an integer >= 2")
_SEED = _checked(int, lambda v: v >= 0, "an integer >= 0")
_PROBABILITY = _checked(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_TRANSMITTIVITY = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
_POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_ENERGY = _energy_types(lambda e: 0.0 <= e < math.inf, "finite and >= 0")
# bounds keeps about 46 bytes per photon number up to the density cutoff;
# at this cap (E up to about 4.1e6) a report peaks near 250 MB
_MAX_CUTOFF = 2 ** 22
_REPORT_ENERGY = _energy_types(
    lambda e: 0.0 <= e <= _MAX_CUTOFF and density_cutoff(e) <= _MAX_CUTOFF,
    f">= 0 with a density cutoff of at most {_MAX_CUTOFF}")
# pcb_bound multiplies k into a double
_REPORT_MODES = _checked(int, lambda v: 1 <= v <= sys.float_info.max,
                         "an integer >= 1 within the double range")
# a subnormal E carries fewer than 53 significant bits
_PLAN_ENERGY = _energy_types(lambda e: sys.float_info.min <= e < math.inf,
                             f"finite and >= {sys.float_info.min!r}")
# the Mayers kit is built only up to these limits
_KIT_ENERGY = _energy_types(lambda e: 0.0 <= e <= KIT_T_LIMIT ** 2,
                            f"in [0, {KIT_T_LIMIT ** 2:g}]")
_KIT_ORDER = _checked(int, lambda v: 2 <= v <= KIT_M_LIMIT,
                      f"an integer in 2..{KIT_M_LIMIT}")
# Allocation caps for a budget of about 250 MB, from tracemalloc peaks at
# small sizes scaled linearly: a simulate run keeps about 580 bytes per mode
# (k = 5,000 to 80,000, transcript and report written; a TCP session keeps
# less), a wigner run about 185 bytes per grid point (points = 101 to 601,
# CSV text included) and 130 bytes per mixture point (M = 20,000 to 80,000)
_BUDGET = 250 * 10 ** 6
_MAX_MODES = _BUDGET // 580
_MAX_POINTS = math.isqrt(_BUDGET // 185)
_MAX_MIXTURE = _BUDGET // 130
_SESSION_MODES = _checked(int, lambda v: 1 <= v <= _MAX_MODES,
                          f"an integer in 1..{_MAX_MODES}")
_GRID_POINTS = _checked(int, lambda v: 2 <= v <= _MAX_POINTS,
                        f"an integer in 2..{_MAX_POINTS}")
_MIXTURE_ORDER = _checked(int, lambda v: 2 <= v <= _MAX_MIXTURE,
                          f"an integer in 2..{_MAX_MIXTURE}")
_PORT = _checked(int, lambda v: 1 <= v <= 65535, "a port in 1..65535")
_ADDRESS = _checked(_host_port, lambda v: v[0] and 1 <= v[1] <= 65535, "HOST:PORT")


def _add_options(parser: argparse.ArgumentParser, *names: str, energy=_ENERGY,
                 order=_ORDER, modes=_POSITIVE_INT) -> None:
    """The -E/-t pair and the named options, which the command's handler reads."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("-E", "--energy", type=energy[0], default=None,
                       help="received mean photon number per mode")
    group.add_argument("-t", "--amplitude", type=energy[1], default=None,
                       help="field amplitude t = sqrt(E)")
    options = {
        "-M": dict(type=order, default=8, help="phase grid order"),
        "-k": dict(type=modes, default=1, help="modes per commitment"),
        "--epsilon": dict(type=_PROBABILITY, default=1e-2),
        "--tau": dict(type=_TRANSMITTIVITY, default=1.0),
        "--seed": dict(type=_SEED, default=DEFAULT_SEED),
        "--out": dict(default=None, help="also write output to this file"),
        "--format": dict(choices=("text", "structured"), default="text"),
    }
    for name in names:
        parser.add_argument(name, **options[name])


def _energy_of(args) -> float:
    if args.amplitude is not None:
        return args.amplitude * args.amplitude
    if args.energy is not None:
        return args.energy
    return 1.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phasebc")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run commitment sessions")
    _add_options(p_sim, "-M", "-k", "--epsilon", "--tau", "--seed", "--out",
                 "--format", modes=_SESSION_MODES)
    p_sim.add_argument("--strategy", choices=("honest", "cheat-open"),
                       default="honest")
    p_sim.add_argument("-n", "--sessions", type=_POSITIVE_INT, default=1000)
    p_sim.add_argument("--bit", type=int, choices=(0, 1), default=0)
    p_sim.add_argument("--transcript", default=None,
                       help="write the first session's transcript here")
    p_sim.add_argument("--listen", type=_PORT, default=None, metavar="PORT",
                       help="serve one session as the receiver on this port")
    p_sim.add_argument("--connect", type=_ADDRESS, default=None, metavar="HOST:PORT",
                       help="run one session as the sender against a listener")

    p_bounds = sub.add_parser("bounds", help="security report for one point")
    _add_options(p_bounds, "-M", "-k", "--epsilon", "--out", "--format",
                 energy=_REPORT_ENERGY, modes=_REPORT_MODES)

    p_plan = sub.add_parser("plan", help="smallest (M, k) for a target epsilon")
    _add_options(p_plan, "--epsilon", "--out", "--format", energy=_PLAN_ENERGY)
    p_plan.add_argument("--scan-limit", type=int, default=512)

    p_mayers = sub.add_parser("mayers", help="verify the delayed-choice attack kit")
    _add_options(p_mayers, "-M", "--out", "--format", energy=_KIT_ENERGY,
                 order=_KIT_ORDER)

    p_wigner = sub.add_parser("wigner", help="phase-space grid CSV for sigma_b")
    _add_options(p_wigner, "-M", "--out", order=_MIXTURE_ORDER)
    p_wigner.add_argument("-b", "--bit", type=int, choices=(0, 1), default=0)
    p_wigner.add_argument("--halfwidth", type=_POSITIVE, default=None)
    p_wigner.add_argument("--points", type=_GRID_POINTS, default=201)
    return parser


def _alice_strategy(args) -> proto.AliceStrategy:
    if args.strategy == "honest":
        return proto.HonestAlice(args.bit)
    return proto.CheatOpenAlice(args.bit)


def cmd_simulate(args) -> int:
    try:
        params = proto.ProtocolParams(_energy_of(args), args.M, args.k,
                                      args.epsilon, args.tau)
    except ValueError as exc:  # the converters leave only the E/tau rule to fail
        raise _UsageError(f"argument -E/-t with --tau: {exc}") from exc
    strategy = _alice_strategy(args)
    if args.listen or args.connect:
        if args.listen:
            transcript = transport.serve_single_session(
                "127.0.0.1", args.listen, transport.BobStrategy(), params,
                seed=args.seed)
        else:
            host, port = args.connect
            transcript = transport.connect_single_session(
                host, port, strategy, params, seed=args.seed)
        sys.stdout.buffer.write(transcript.to_bytes())
        return 0 if transcript.verdict and transcript.verdict.accepted else 1

    accepted = 0
    first = None
    for i in range(args.sessions):
        transcript = transport.run_protocol(strategy, params, seed=(args.seed, i),
                                            session_id=f"session-{i}")
        if first is None:
            first = transcript
        if transcript.verdict and transcript.verdict.accepted:
            accepted += 1
    n = args.sessions
    rate = accepted / n
    half = 1.96 * math.sqrt(max(rate * (1.0 - rate), 1.0 / n) / n)
    doc = {
        "strategy": strategy.name,
        "energy": params.energy,
        "M": params.M,
        "k": params.k,
        "tau": params.tau,
        "seed": args.seed,
        "sessions": n,
        "accepted": accepted,
        "acceptance_rate": rate,
        "ci95_low": max(0.0, rate - half),
        "ci95_high": min(1.0, rate + half),
    }
    if args.transcript and first is not None:
        with open(args.transcript, "wb") as fh:
            fh.write(first.to_bytes())
    _emit(render_document(doc, args.format), args.out)
    return 0


def cmd_bounds(args) -> int:
    energy = _energy_of(args)
    report = security.security_report(math.sqrt(energy), args.M, args.k,
                                      args.epsilon)
    _emit(render_document(report.as_document(), args.format), args.out)
    return 0 if report.feasible else 1


def cmd_plan(args) -> int:
    t = math.sqrt(_energy_of(args))
    try:
        plan = security.find_params(args.epsilon, t, args.scan_limit)
    except security.SearchExhausted as exc:
        sys.stderr.write(f"search exhausted: {exc}\n")
        return 1
    rows = [security.plan_row(args.epsilon, t, M) for M in range(2, plan.M + 1)]
    doc = {
        "epsilon": args.epsilon,
        "t": t,
        "M": plan.M,
        "k": plan.k,
        "k_min": plan.row.k_min,
        "k_max": plan.row.k_max,
        "log10_k_max": plan.row.log10_k_max,
        "m_cubed_in_window": plan.row.m_cubed_in_window,
        "scanned": [
            {"M": r.M, "k_min": r.k_min, "log10_k_max": r.log10_k_max,
             "nonempty": r.nonempty, "m_cubed_in_window": r.m_cubed_in_window}
            for r in rows
        ],
    }
    _emit(render_document(doc, args.format), args.out)
    return 0


def cmd_mayers(args) -> int:
    params = CodeParams.from_energy(_energy_of(args), args.M)
    report = verification_report(params)
    _emit(render_document(report, args.format), args.out)
    ok = (
        min(report["steering_min_fidelity_0"], report["steering_min_fidelity_1"])
        >= 1.0 - 1e-8
        and report["switch_fidelity_two_sided"] >= 1.0 - 1e-8
        and report["steering_bijective_0"] and report["steering_bijective_1"]
    )
    return 0 if ok else 1


def cmd_wigner(args) -> int:
    params = CodeParams.from_energy(_energy_of(args), args.M)
    halfwidth = args.halfwidth if args.halfwidth is not None else params.t + 4.0
    grid = wigner_sigma(args.bit, params, GridSpec.centered(halfwidth, args.points))
    text = "\n".join(grid.csv_lines()) + "\n"
    _emit(text, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "bounds": cmd_bounds,
        "plan": cmd_plan,
        "mayers": cmd_mayers,
        "wigner": cmd_wigner,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
