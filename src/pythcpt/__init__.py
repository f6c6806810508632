"""pythcpt: Pythagorean-triple couplings and complete population
transfer between maximally entangled states in multi-level systems.

The package builds coupled two-factor Hamiltonians whose detunings and
Rabi frequencies come from Pythagorean triples, constructs the
symmetric orthogonal entangled frames that turn them into sparse
lab-frame systems, and certifies the resulting complete population
transfers numerically, including the doubled-space (retrograde)
generalizations.
"""

from .linalg import (
    complete_orthogonal,
    kron,
    matexp_unitary,
    propagator_elements,
    unvectorize,
    vectorize,
)
from .su2 import SigmaSet, SpinRep, sigma_set, spin_generators, y_matrix
from .triples import (
    CouplingParams,
    OddPair,
    PythTriple,
    coupling_params,
    enumerate_primitive_pairs,
    lab_couplings,
    params_from_lab_couplings,
    params_from_pair,
    triple_from_pair,
)
from .frames import (
    EntangledFrame,
    FrameValidation,
    build_w,
    entanglement_entropy,
    general_even_frame,
    lab_frame,
    label_to_column,
    validate_frame,
)
from .dynamics import (
    CouplingGraph,
    CptCertificate,
    ForbiddenScanReport,
    SimulationResult,
    SystemSpec,
    build_h_single,
    build_h_tp,
    coupling_graph,
    forbidden_scan,
    lab_hamiltonian,
    simulate,
    verify_cpt,
)
from .retrograde import (
    BasicCptRecord,
    BasicCptReport,
    EquivalenceReport,
    OddDimReport,
    PulseSchedule,
    RecipeResult,
    RetrogradeSystem,
    TimeIndependentReport,
    basic_cpts,
    check_equivalence,
    general_recipe,
    odd_dim_demo,
    ordered_propagator,
    pythagorean_pulse,
    time_independent_conditions,
)
from .suite import CheckResult, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BasicCptRecord",
    "BasicCptReport",
    "CheckResult",
    "CouplingGraph",
    "CouplingParams",
    "CptCertificate",
    "EntangledFrame",
    "EquivalenceReport",
    "ForbiddenScanReport",
    "FrameValidation",
    "OddDimReport",
    "OddPair",
    "PulseSchedule",
    "PythTriple",
    "RecipeResult",
    "RetrogradeSystem",
    "SigmaSet",
    "SimulationResult",
    "SpinRep",
    "SuiteReport",
    "SystemSpec",
    "TimeIndependentReport",
    "basic_cpts",
    "build_h_single",
    "build_h_tp",
    "build_w",
    "check_equivalence",
    "complete_orthogonal",
    "coupling_graph",
    "coupling_params",
    "enumerate_primitive_pairs",
    "entanglement_entropy",
    "forbidden_scan",
    "general_even_frame",
    "general_recipe",
    "kron",
    "lab_couplings",
    "lab_frame",
    "lab_hamiltonian",
    "label_to_column",
    "matexp_unitary",
    "odd_dim_demo",
    "ordered_propagator",
    "params_from_lab_couplings",
    "params_from_pair",
    "propagator_elements",
    "pythagorean_pulse",
    "run_suite",
    "sigma_set",
    "simulate",
    "spin_generators",
    "triple_from_pair",
    "unvectorize",
    "validate_frame",
    "vectorize",
    "verify_cpt",
    "y_matrix",
]
