"""Staged construction of additive bases with prescribed representation
counts, plus exhaustive verification of every step."""

from types import ModuleType as _ModuleType

from .construct import (
    DEFAULT_SEARCH_CAP,
    base_case,
    build,
    densify,
    extend_target,
)
from .errors import (
    DensityUnreachableError,
    EmptySetError,
    InputTooLargeError,
    InputTooSmallError,
    MalformedTraceError,
    PhiTooSlowError,
    PreconditionViolatedError,
    RepbasisError,
)
from .repcore import (
    INFINITY,
    FiniteBasis,
    PhiSpec,
    RepTarget,
    TargetSequence,
    counting,
    d0_of,
    density_demand,
    density_exceeds,
    rep_function,
    rep_profile,
    sum_counter,
    target_prefix,
)
from .sidon import (
    SidonLadder,
    SidonSet,
    erdos_turan_sidon,
    greedy_sidon,
    is_sidon,
    sidon_for_density,
)
from .trace import (
    KIND_BASE,
    KIND_DENSIFICATION,
    KIND_EXTENSION,
    ConstructionTrace,
    StageRecord,
    trace_dumps,
    trace_from_dict,
    trace_loads,
    trace_to_dict,
)
from .verify import (
    CheckResult,
    DecompositionReport,
    EqualityReport,
    InvariantReport,
    VerificationReport,
    check_decomposition,
    check_equality_coverage,
    check_invariants,
    upper_bound_check,
    verify_trace,
)

__version__ = "0.1.0"

# every public name bound above, the submodules aside
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
