"""qsinglet: singlet-based eigenstate location for unknown controlled gates.

The protocol family feeds singlet states through controlled powers of a gate
to drop exact eigenstates on the output wires: the +-1 protocol and its
fourth-root variants, unambiguous-discrimination readout for known eigenphase
pairs, double phase estimation on a singlet, the qudit -1 locator, and a
shot-counting tomography baseline to compare against. Every run reads the
gate's eigenphases and computes the exact Born analysis in closed form.

The package exports the seven runners, their report types, ``SpectrumError``,
and gate construction and file I/O. Everything else is importable from its
own module; the dense state-vector simulator that the tests check the closed
forms against lives in ``qsinglet.register`` and ``qsinglet.singlet``.
"""

__version__ = "0.1.0"

from .linalg import SpectrumError, generate_gate, load_unitary, save_unitary
from .phase_estimation import PeBranch, PeReport, run_double_pe
from .protocols import (
    ProtocolReport,
    TomographyEstimate,
    protocol_known_phases,
    protocol_pm1,
    protocol_quartet,
    protocol_square_trick,
    tomography_baseline,
)
from .qudit import householder_reflection, run_qudit_minus_one

__all__ = [
    "PeBranch",
    "PeReport",
    "ProtocolReport",
    "SpectrumError",
    "TomographyEstimate",
    "generate_gate",
    "householder_reflection",
    "load_unitary",
    "protocol_known_phases",
    "protocol_pm1",
    "protocol_quartet",
    "protocol_square_trick",
    "run_double_pe",
    "run_qudit_minus_one",
    "save_unitary",
    "tomography_baseline",
]
