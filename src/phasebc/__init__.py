"""Phase-encoded coherent-state bit commitment: numerics and simulation.

Layout:
  fock        truncated Fock-space vectors and the Poisson photon-number weights
  codestates  the parameter rules, the code book and the code states' eigensystem
  protocol    commit/open state machines and the displace-and-count check
  security    cheating bounds, epsilon-security, parameter search
  mayers      delayed-choice attack kit and its closed-form verification
  phasespace  Wigner grids and the stellar polynomial
  transport   wire schema and two-party session runner
  cli         command-line entry points

Dense operators that only tests compare against live in tests/oracles.py.
"""

from .codestates import CodeParams, code_phases, eigen_sigma
from .fock import FockVector, coherent_vector, cutoff_for_energy, density_cutoff
from .mayers import MayersKit, build_kit, verification_report
from .phasespace import (
    GridSpec,
    WignerGrid,
    stellar_polynomial,
    wigner_mixture,
    wigner_sigma,
)
from .protocol import (
    CheatOpenAlice,
    Commitment,
    HonestAlice,
    ProtocolParams,
    QuantumPayload,
    RandomBitAlice,
    Verdict,
    bob_verify,
    cheat_open,
    commit,
)
from .security import (
    SecurityReport,
    epsilon_secure_check,
    find_params,
    numeric_trace_norm_check,
    pca_exact,
    pcb_bound,
    security_report,
    trace_norm_bound,
)
from .transport import (
    BobStrategy,
    ChannelModel,
    HelstromBob,
    SessionTranscript,
    WireMessage,
    decode_line,
    encode,
    run_session,
)

__version__ = "0.1.0"
