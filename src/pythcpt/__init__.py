"""pythcpt: Pythagorean-triple couplings and complete population
transfer between maximally entangled states in multi-level systems.

The package builds coupled two-factor Hamiltonians whose detunings and
Rabi frequencies come from Pythagorean triples, constructs the
symmetric orthogonal entangled frames that turn them into sparse
lab-frame systems, and certifies the resulting complete population
transfers numerically, including the doubled-space (retrograde)
generalizations.

Each public name is declared once, in ``_EXPORTS``, and its layer is
imported when a name of it (or the layer, ``pythcpt.frames``) is first
read, so ``import pythcpt.triples`` loads no numpy. Nothing is cached
here: a function patched in its layer is what the package returns.
"""

import importlib
import sys

__version__ = "0.1.0"

# {layer module: the names it exports}
_EXPORTS = {
    "linalg": (
        "chiral_amplitude",
        "complete_orthogonal",
        "kron",
        "matexp_unitary",
        "unvectorize",
        "vectorize",
    ),
    "su2": ("SigmaSet", "SpinRep", "sigma_set", "spin_generators", "y_matrix"),
    "triples": (
        "CouplingParams",
        "OddPair",
        "PythTriple",
        "coupling_params",
        "enumerate_primitive_pairs",
        "lab_couplings",
        "params_from_lab_couplings",
        "params_from_pair",
        "triple_from_pair",
    ),
    "frames": (
        "EntangledFrame",
        "FrameValidation",
        "build_w",
        "entanglement_entropy",
        "general_even_frame",
        "lab_frame",
        "label_to_column",
        "validate_frame",
    ),
    "dynamics": (
        "CouplingGraph",
        "CptCertificate",
        "ForbiddenScanReport",
        "SimulationResult",
        "SystemSpec",
        "build_h_single",
        "build_h_tp",
        "coupling_graph",
        "forbidden_scan",
        "lab_hamiltonian",
        "simulate",
        "verify_cpt",
    ),
    "retrograde": (
        "BasicCptRecord",
        "BasicCptReport",
        "EquivalenceReport",
        "PulseSchedule",
        "RecipeResult",
        "RetrogradeSystem",
        "TimeIndependentReport",
        "basic_cpts",
        "check_equivalence",
        "general_recipe",
        "ordered_propagator",
        "pythagorean_pulse",
        "time_independent_conditions",
    ),
    "suite": ("CheckResult", "SuiteReport", "run_suite"),
}
_MODULE_OF = {name: f"{__name__}.{layer}" for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module_name = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # sys.modules first: for a loaded layer this halves the cost of a read through import_module
    module = sys.modules.get(module_name) or importlib.import_module(module_name)
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
