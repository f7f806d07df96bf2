"""Analysis toolkit for two-party, two-setting, two-outcome behavior boxes.

A behavior is a 16-cell table of joint outcome probabilities, four cells
per setting pair.  The package checks its structure (normalization, the
no-signaling marginal conditions, the rank-8 constraint system and its
eight completion variants), scans the 64 cell-quadruple inequalities and
the CHSH and CH forms, searches two-qubit quantum models for extremal
values, and simulates trial-level data with reproducible counter-based
streams.  See the command-line entry point ``hardybox`` for the same
functionality on JSON files.

``import hardybox`` loads `behavior`, `bell`, `boxes` and `locality`.  The
simulator, `montecarlo`, and the quantum searches, `quantum`, load on first
use: the first access to one of their public names through the package, or
an import of the submodule, imports it (PEP 562).  ``hardybox check``,
``enumerate``, ``complete`` and ``examples`` load neither, and ``simulate``
loads no `quantum`.
"""

from .behavior import (
    DEFAULT_TOL,
    OUTCOME_ORDER,
    Behavior,
    ConvergenceError,
    CorrelationVector,
    Marginals,
    Party,
    SchemaError,
    behavior_from_json_dict,
    behavior_to_json_dict,
    block_sums,
    cell_of,
    correlation,
    correlation_vector,
    index_of,
    is_no_signaling,
    is_normalized,
    is_valid,
    load_behavior,
    marginals,
    save_behavior,
    uniform_behavior,
)
from .bell import (
    HARDY_QUADRUPLES,
    SIGMA_PRIME_SUPPORTS,
    SIGMA_SUPPORTS,
    ChReport,
    ChshReport,
    ChValues,
    DeltaValues,
    EquivalenceAudit,
    HardyQuadruple,
    InequalityCheck,
    SigmaShift,
    SigmaValues,
    ViolationReport,
    ch_check,
    ch_values,
    ch_values_full,
    chsh_check,
    delta_values,
    enumerate_hardy_inequalities,
    equivalence_audit,
    hardy_check,
    hardy_witness,
    local_deterministic_behavior,
    local_vertices,
    quadruple_for,
    sigma_shift_of_hardy,
    sigma_values,
)
from .boxes import (
    BOX_NAMES,
    NamedBox,
    available_boxes,
    hardy_pattern_a_box,
    hardy_pattern_b_box,
    kwiat_hardy_box,
    load_box,
    mermin_box,
    pr_box,
)
from .locality import (
    ConstraintResiduals,
    FreeSetId,
    NsBoundResult,
    NsBoundTriple,
    SideCheck,
    complete_from_free_set,
    completion_roundtrip,
    completion_signs,
    constraint_matrix,
    constraint_residuals,
    constraint_rhs,
    free_values_of,
    nonneg_side_checks,
    ns_bound_check,
    random_no_signaling_behavior,
    system_rank,
)

#: the public names of `montecarlo` and `quantum`, in `__all__` order, each
#: with the submodule `__getattr__` imports it from.  `ConvergenceError`,
#: which `quantum` raises, is defined in `behavior` and bound above.
_LAZY = dict.fromkeys((
    "SETTINGS_SUBSTREAM", "InequalityTestResult", "SampleStats", "SignalingReport",
    "SignalingTestRow", "TrialLog", "TrialRecord", "block_rng", "estimate",
    "settings_sequence", "simulate", "test_inequality", "test_signaling",
), "montecarlo") | dict.fromkeys((
    "HARDY_MAX_PROBABILITY", "SIGMA_QUANTUM_MAX", "SIGMA_QUANTUM_MIN", "BlochDirection",
    "ConvergenceError", "HardyOptimum", "MeasurementSettings", "OptimizerConfig",
    "PerfectCorrelationReport", "SearchDiagnostics", "SigmaOptimum", "TwoQubitState",
    "all_z_settings", "born_behavior", "maximize_hardy", "maximize_sigma", "singlet",
    "singlet_perfect_correlation_check",
), "quantum")

__version__ = "0.1.0"

#: every public name: the imported ones, then those loaded on first use; the
#: submodules, bound here too, are left out
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and name not in _LAZY and type(value) is not type(behavior)
] + list(_LAZY)


def __getattr__(name: str) -> object:
    """A public name of `montecarlo` or `quantum`, from that submodule, which
    this first access imports; the name is then bound here."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module("." + _LAZY[name], __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
