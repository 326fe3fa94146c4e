"""qsinglet: singlet-based eigenstate location for unknown controlled gates.

A dense state-vector simulator for registers of mixed qubit/qudit subsystems,
plus the protocol family that feeds singlet states through controlled powers
of a gate to drop exact eigenstates on the output wires: the +-1 protocol and
its fourth-root variants, unambiguous-discrimination readout for known
eigenphase pairs, double phase estimation on a singlet, the qudit -1 locator,
and a shot-counting tomography baseline to compare against.
"""

__version__ = "0.1.0"

from .discrimination import (
    Povm,
    build_idp_povm,
    equatorial_state,
    idp_success_probability,
)
from .linalg import (
    EigenSystem,
    eigendecompose_2x2_unitary,
    generate_gate,
    haar_random_unitary,
    is_unitary,
    load_unitary,
    save_unitary,
    tensor_product,
    unitary_from_eigensystem,
)
from .phase_estimation import (
    GridDecomposition,
    PeBranch,
    PeReport,
    g_amplitude,
    inverse_qft,
    nearest_grid,
    run_double_pe,
)
from .protocols import (
    ProtocolReport,
    SpectrumError,
    TomographyEstimate,
    eta_state,
    protocol_known_phases,
    protocol_pm1,
    protocol_quartet,
    protocol_square_trick,
    tomography_baseline,
)
from .qudit import (
    householder_reflection,
    run_qudit_minus_one,
    spectrum_check_minus_one,
)
from .register import (
    ControlledGate,
    EntangledSubsystemError,
    State,
    apply_controlled,
    apply_unitary,
    extract_subsystem,
    fidelity,
    outcome_distribution,
    product_state,
)
from .singlet import make_singlet

__all__ = [
    "ControlledGate",
    "EigenSystem",
    "EntangledSubsystemError",
    "GridDecomposition",
    "PeBranch",
    "PeReport",
    "Povm",
    "ProtocolReport",
    "SpectrumError",
    "State",
    "TomographyEstimate",
    "apply_controlled",
    "apply_unitary",
    "build_idp_povm",
    "eigendecompose_2x2_unitary",
    "equatorial_state",
    "eta_state",
    "extract_subsystem",
    "fidelity",
    "g_amplitude",
    "generate_gate",
    "haar_random_unitary",
    "householder_reflection",
    "idp_success_probability",
    "inverse_qft",
    "is_unitary",
    "load_unitary",
    "make_singlet",
    "nearest_grid",
    "outcome_distribution",
    "product_state",
    "protocol_known_phases",
    "protocol_pm1",
    "protocol_quartet",
    "protocol_square_trick",
    "run_double_pe",
    "run_qudit_minus_one",
    "save_unitary",
    "spectrum_check_minus_one",
    "tensor_product",
    "tomography_baseline",
    "unitary_from_eigensystem",
]
