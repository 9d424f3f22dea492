"""Phase-encoded coherent-state bit commitment: numerics and simulation.

Layout:
  fock        truncated Fock-space linear algebra and photon statistics
  codestates  the protocol's state family and its eigensystem
  protocol    commit/open state machines and acceptance laws
  security    cheating bounds, epsilon-security, parameter search
  mayers      delayed-choice attack kit and its closed-form verification
  phasespace  Wigner grids and stellar-polynomial root analysis
  transport   wire schema and two-party session runner
  cli         command-line entry points
"""

from .codestates import (
    CodeParams,
    build_D,
    build_ideal_rho,
    build_sigma,
    build_sigma_mixture,
    code_phase,
    eigen_sigma,
)
from .fock import (
    FockOperator,
    FockVector,
    coherent_vector,
    cutoff_for_energy,
    density_cutoff,
    displacement_matrix,
    helstrom_success,
    overlap_prob,
    partial_trace,
    sample_photon_count,
    tensor_operators,
    tensor_vectors,
    trace_norm,
)
from .mayers import MayersKit, build_kit, verification_report
from .phasespace import (
    GridSpec,
    WignerGrid,
    root_report,
    stellar_polynomial,
    stellar_roots,
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
    pca_approx,
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
    decode_stream,
    encode,
    run_protocol,
    run_session,
)

__version__ = "0.1.0"
