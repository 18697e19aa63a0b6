"""Colored-permutation routing: encoding, feasibility, energies, a
statevector simulator, spectral analysis, and a grid-sweep solver."""

from .analysis import (
    EnvelopeState,
    FejerReport,
    PhaseProfile,
    circle_distance,
    dephased_kernel,
    envelope,
    fejer_bound,
    fejer_kernel,
    phase_profile,
    phase_profile_from_energies,
    required_shots,
)
from .encoding import (
    CodecError,
    ColoredAssignment,
    EncodingParams,
    MultiHotError,
    NotOnceEachError,
    PaddingLeakError,
    ZeroHotError,
    assignment_label,
    binary_to_label,
    compress,
    decode_bitstring,
    decompress,
    encode_assignment,
    grouped,
    label_assignment,
    label_to_binary,
    label_to_onehot,
    permutation_view,
    symbol_index,
    symbol_unindex,
)
from .feasibility import (
    FeasibilityVerdict,
    decode_binary_and_check,
    feasible_global_positions,
)
from .hamiltonian import (
    EnergyModel,
    PenaltyWeights,
    QuboExport,
    edge_cost,
    edge_cost_matrix,
    energy_capacity,
    energy_components,
    energy_objective,
    energy_once,
    energy_table,
    energy_total,
    export_qubo,
)
from .instances import (
    Instance,
    ParseError,
    build_matrices,
    from_matrices,
    load_instance,
    parse_vrp,
    qubit_counts,
)
from .simulator import (
    AmplitudeBudgetError,
    EncodedState,
    SampleSet,
    Schedule,
    block_mixer_matrix,
    exact_distribution,
    initial_state,
    run_ansatz,
    sample,
)
from .solver import (
    ExactSolution,
    GridSpec,
    PhqcResult,
    default_shots,
    exact_solve,
    phqc,
    phqc_histogram,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
