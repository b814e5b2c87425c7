"""The end-to-end design flow of Fig. 1.

:class:`~repro.flow.design_flow.DesignFlow` chains the whole pipeline --
application model + architecture -> SDF3 mapping -> MAMPS generation ->
synthesis (platform simulator) -> measurement -- and records the wall-clock
time of each automated step (the lower half of Table 1).
"""

from repro.flow.design_flow import DesignFlow, FlowResult
from repro.flow.effort import EffortReport, StepTiming, TABLE1_MANUAL_STEPS
from repro.flow.report import (
    ThroughputComparison,
    compare_throughput,
    exploration_csv,
    format_exploration_report,
    format_throughput_table,
)
from repro.flow.backend import (
    BACKENDS,
    BackendError,
    ExecutionBackend,
    ProcessBackend,
    ThreadBackend,
    backend_task,
    create_backend,
)
from repro.flow.dse import (
    COMPACT_MIX,
    CandidatePoint,
    DesignPoint,
    DesignSpace,
    EvaluationCache,
    Evaluator,
    ExplorationResult,
    ParallelExplorer,
    ParetoFront,
    TileMix,
    UNIFORM_MIX,
    UseCaseEvaluator,
    explore_design_space,
)
from repro.flow.fingerprint import (
    application_fingerprint,
    architecture_fingerprint,
    flow_request_key,
)
from repro.flow.spec import (
    AppSpec,
    ArchSpec,
    FlowSpec,
    FlowSpecError,
    build_case_study_app,
    load_flow_spec,
)
from repro.mapping.pipeline import (
    DEFAULT_STRATEGIES,
    MappingPipeline,
    StrategyTuple,
)
from repro.flow.usecases import (
    UseCaseMapping,
    build_use_case_mapping,
    generate_use_case_platform,
    map_use_cases,
)
from repro.flow.session import (
    BatchEntry,
    BatchReport,
    FlowSession,
    SessionResult,
    StageRecord,
    execute_spec,
    run_batch,
)

__all__ = [
    "BACKENDS",
    "BackendError",
    "ExecutionBackend",
    "ProcessBackend",
    "ThreadBackend",
    "backend_task",
    "create_backend",
    "DesignFlow",
    "FlowResult",
    "EffortReport",
    "StepTiming",
    "TABLE1_MANUAL_STEPS",
    "ThroughputComparison",
    "compare_throughput",
    "exploration_csv",
    "format_exploration_report",
    "format_throughput_table",
    "CandidatePoint",
    "COMPACT_MIX",
    "DesignPoint",
    "DesignSpace",
    "EvaluationCache",
    "Evaluator",
    "ExplorationResult",
    "ParallelExplorer",
    "ParetoFront",
    "TileMix",
    "UNIFORM_MIX",
    "application_fingerprint",
    "architecture_fingerprint",
    "explore_design_space",
    "flow_request_key",
    "AppSpec",
    "ArchSpec",
    "DEFAULT_STRATEGIES",
    "FlowSpec",
    "FlowSpecError",
    "MappingPipeline",
    "StrategyTuple",
    "build_case_study_app",
    "load_flow_spec",
    "UseCaseEvaluator",
    "UseCaseMapping",
    "build_use_case_mapping",
    "map_use_cases",
    "generate_use_case_platform",
    "BatchEntry",
    "BatchReport",
    "FlowSession",
    "SessionResult",
    "StageRecord",
    "execute_spec",
    "run_batch",
]
