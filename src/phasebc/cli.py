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
from .codestates import (CodeParams, _check_count, _check_nonnegative, _check_order,
                         _check_probability, _check_transmittivity)
from .mayers import verification_report
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


def _checked(parse, rule, low=-math.inf, high=math.inf):
    """argparse type: rule(parse(text)), which returns the value or raises ValueError,
    then the CLI's own limit low <= value <= high; a failure exits 2 with the text."""
    def convert(text: str):
        try:
            value = rule(parse(text))
            if not low <= value <= high:
                raise ValueError(f"must be at least {low!r}" if value < low
                                 else f"must be at most {high!r}")
            return value
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{exc}; got {text!r}") from None
    return convert


def _energy_types(**limits):
    """The -E and -t converters, both giving the energy: -t checks t, and then
    its square E = t^2 as -E checks E, limits included."""
    def amplitude_energy(t):
        t = _check_nonnegative(t, "amplitude t")
        return _check_nonnegative(t * t, "energy")
    return (_checked(float, lambda e: _check_nonnegative(e, "energy"), **limits),
            _checked(float, amplitude_energy, **limits))


def _host_port(text: str) -> tuple[str, int]:
    """argparse type of --connect: HOST:PORT, with a port as --listen takes it."""
    host, _, port = text.rpartition(":")
    if not host:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, _PORT(port)


_COUNT = _checked(int, _check_count)
_SEED = _checked(int, int, low=0)
_PORT = _checked(int, int, 1, 65535)
_PROBABILITY = _checked(float, _check_probability)
_TRANSMITTIVITY = _checked(float, _check_transmittivity)
_ENERGY = _energy_types()
# bounds keeps about 46 bytes per photon number up to the density cutoff, and
# at this cap a report peaks near 250 MB.  _MAX_REPORT_ENERGY is the largest
# double E with density_cutoff(E) <= _MAX_CUTOFF, found by bisection.
_MAX_CUTOFF = 2 ** 22
_MAX_REPORT_ENERGY = 4167676.760438968
_REPORT_ENERGY = _energy_types(high=_MAX_REPORT_ENERGY)
# a subnormal E carries fewer than 53 significant bits
_PLAN_ENERGY = _energy_types(low=sys.float_info.min)
# Allocation caps for a budget of about 250 MB, from tracemalloc peaks at
# small sizes scaled linearly: a simulate run keeps about 580 bytes per mode
# (k = 5,000 to 80,000, transcript and report written; a TCP session keeps
# less), a wigner run about 185 bytes per grid point (points = 101 to 601,
# CSV text included) and 130 bytes per mixture point (M = 20,000 to 80,000),
# a mayers report about 230 bytes per unit of the grid order (M = 80,000 to
# 320,000, its lists and their text; bounds keeps about 17 and simulate none)
# and a plan about 720 bytes per scanned order (t = 10 to 60)
_BUDGET = 250 * 10 ** 6
_MAX_MODES = _BUDGET // 580
_MAX_POINTS = math.isqrt(_BUDGET // 185)
_MAX_MIXTURE = _BUDGET // 130
_MAX_ORDER = _BUDGET // 230
_MAX_SCAN = _BUDGET // 720
_ORDER = _checked(int, _check_order, high=_MAX_ORDER)
_SCAN_LIMIT = _checked(int, lambda v: _check_order(v, "scan limit"), high=_MAX_SCAN)
_SESSION_MODES = _checked(int, _check_count, high=_MAX_MODES)
_GRID_POINTS = _checked(int, lambda v: _check_order(v, "grid points"), high=_MAX_POINTS)
_MIXTURE_ORDER = _checked(int, _check_order, high=_MAX_MIXTURE)
# wigner costs points^2 * M Gaussian evaluations plus a fixed cost per mixture
# point.  Capping points^2 * M at its value for -M at its cap with --points 2,
# the slowest run the caps above allow, keeps every run within its time.
_MAX_WORK = 2 ** 2 * _MAX_MIXTURE


def _add_options(parser: argparse.ArgumentParser, *names: str, energy=_ENERGY,
                 order=_ORDER, modes=_COUNT) -> None:
    """The -E/-t pair, both giving the energy (default 1), and the named options."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("-E", "--energy", type=energy[0], default=1.0,
                       help="received mean photon number per mode")
    group.add_argument("-t", "--amplitude", type=energy[1], dest="energy", default=1.0,
                       metavar="AMPLITUDE", help="field amplitude t = sqrt(E)")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phasebc")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run commitment sessions")
    _add_options(p_sim, "-M", "-k", "--epsilon", "--tau", "--seed", "--out",
                 "--format", modes=_SESSION_MODES)
    p_sim.add_argument("--strategy", choices=("honest", "cheat-open"))
    p_sim.add_argument("-n", "--sessions", type=_checked(
        int, lambda n: _check_count(n, "session count")))
    p_sim.add_argument("--bit", type=int, choices=(0, 1))
    p_sim.add_argument("--transcript", help="write the first session's transcript here")
    p_sim.set_defaults(format=None)  # the defaults are in _SIMULATE_DEFAULTS
    network = p_sim.add_mutually_exclusive_group()
    network.add_argument("--listen", type=_PORT, default=None, metavar="PORT",
                         help="serve one session as the receiver on this port")
    network.add_argument("--connect", type=_host_port, default=None, metavar="HOST:PORT",
                         help="run one session as the sender against a listener")

    p_bounds = sub.add_parser("bounds", help="security report for one point")
    _add_options(p_bounds, "-M", "-k", "--epsilon", "--out", "--format",
                 energy=_REPORT_ENERGY)

    p_plan = sub.add_parser("plan", help="smallest (M, k) for a target epsilon")
    _add_options(p_plan, "--epsilon", "--out", "--format", energy=_PLAN_ENERGY)
    p_plan.add_argument("--scan-limit", type=_SCAN_LIMIT, default=512)

    p_mayers = sub.add_parser("mayers", help="verify the delayed-choice attack kit")
    _add_options(p_mayers, "-M", "--out", "--format", energy=_REPORT_ENERGY)

    p_wigner = sub.add_parser("wigner", help="phase-space grid CSV for sigma_b")
    _add_options(p_wigner, "-M", "--out", order=_MIXTURE_ORDER)
    p_wigner.add_argument("-b", "--bit", type=int, choices=(0, 1), default=0)
    p_wigner.add_argument("--halfwidth", type=float, default=None)
    p_wigner.add_argument("--points", type=_GRID_POINTS, default=201)
    return parser


def _alice_strategy(args) -> proto.AliceStrategy:
    if args.strategy == "honest":
        return proto.HonestAlice(args.bit)
    return proto.CheatOpenAlice(args.bit)


# simulate options that one networked session does not read, except the
# sender's with --connect.  They parse as None when not given, so that an
# explicit value, even the default, can be rejected.
_SIMULATE_DEFAULTS = {"sessions": 1000, "transcript": None, "out": None,
                      "format": "text", "strategy": "honest", "bit": 0}
_SENDER_OPTIONS = ("strategy", "bit")


def _mode_options(args) -> None:
    """Reject the options the chosen mode does not read; default the others."""
    for dest, default in _SIMULATE_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif args.listen or (args.connect and dest not in _SENDER_OPTIONS):
            mode = "--listen" if args.listen else "--connect"
            raise _UsageError(f"argument --{dest}: not allowed with argument {mode}")


def cmd_simulate(args) -> int:
    from scipy.special import betaincinv  # imported here, as in fock.cutoff_for_energy

    _mode_options(args)
    try:
        params = proto.ProtocolParams(args.energy, args.M, args.k,
                                      args.epsilon, args.tau)
    except ValueError as exc:  # the converters leave only the E/tau rule to fail
        raise _UsageError(f"argument -E/-t with --tau: {exc}") from exc
    strategy = _alice_strategy(args)
    if args.listen or args.connect:
        try:
            if args.listen:
                transcript = transport.serve_single_session(
                    "127.0.0.1", args.listen, transport.BobStrategy(), params,
                    seed=args.seed)
            else:
                host, port = args.connect
                transcript = transport.connect_single_session(
                    host, port, strategy, params, seed=args.seed)
        except (OSError, transport.ProtocolStateError) as exc:  # no session ran
            sys.stderr.write(f"session failed: {exc}\n")
            return 1
        sys.stdout.buffer.write(transcript.to_bytes())
        return 0 if transcript.verdict and transcript.verdict.accepted else 1

    receiver = transport.BobStrategy()
    accepted = 0
    first = None
    for i in range(args.sessions):
        transcript = transport.run_session(strategy, receiver, params, seed=(args.seed, i),
                                           session_id=f"session-{i}")
        if first is None:
            first = transcript
        if transcript.verdict and transcript.verdict.accepted:
            accepted += 1
    n = args.sessions
    # exact (Clopper-Pearson) limits: beta quantiles, or 0 and 1 at the ends
    low = betaincinv(accepted, n - accepted + 1, 0.025) if accepted else 0.0
    high = betaincinv(accepted + 1, n - accepted, 0.975) if accepted < n else 1.0
    doc = {
        "strategy": strategy.name,
        "energy": params.energy,
        "M": params.M,
        "k": params.k,
        "tau": params.tau,
        "seed": args.seed,
        "sessions": n,
        "accepted": accepted,
        "acceptance_rate": accepted / n,
        "ci95_low": float(low),
        "ci95_high": float(high),
    }
    if args.transcript and first is not None:
        with open(args.transcript, "wb") as fh:
            fh.write(first.to_bytes())
    _emit(render_document(doc, args.format), args.out)
    return 0


def cmd_bounds(args) -> int:
    report = security.security_report(math.sqrt(args.energy), args.M, args.k,
                                      args.epsilon)
    _emit(render_document(report.as_document(), args.format), args.out)
    return 0 if report.feasible else 1


def cmd_plan(args) -> int:
    t = math.sqrt(args.energy)
    try:
        plan = security.find_params(args.epsilon, t, args.scan_limit)
    except security.SearchExhausted as exc:
        sys.stderr.write(f"search exhausted: {exc}\n")
        return 1
    row = plan.rows[-1]
    doc = {
        "epsilon": args.epsilon,
        "t": t,
        "M": plan.M,
        "k": plan.k,
        "k_min": row.k_min,
        "k_max": row.k_max,
        "log10_k_max": row.log10_k_max,
        "m_cubed_in_window": row.m_cubed_in_window,
        "scanned": [
            {"M": r.M, "k_min": r.k_min, "log10_k_max": r.log10_k_max,
             "nonempty": r.nonempty, "m_cubed_in_window": r.m_cubed_in_window}
            for r in plan.rows
        ],
    }
    _emit(render_document(doc, args.format), args.out)
    return 0


def cmd_mayers(args) -> int:
    params = CodeParams.from_energy(args.energy, args.M)
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
    work = args.points ** 2 * args.M
    if work > _MAX_WORK:
        raise _UsageError(f"argument -M with --points: points^2 * M = {work} "
                          f"exceeds {_MAX_WORK}")
    params = CodeParams.from_energy(args.energy, args.M)
    halfwidth = args.halfwidth if args.halfwidth is not None else params.t + 4.0
    try:
        spec = GridSpec.centered(halfwidth, args.points)
    except ValueError as exc:  # the grid's own rule, on the one option not yet checked
        raise _UsageError(f"argument --halfwidth: {exc}") from exc
    grid = wigner_sigma(args.bit, params, spec)
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
