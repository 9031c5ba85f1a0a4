"""Tolerance-aware labeling, training, and retention analysis for
implicit-feedback recommenders."""

from .events import (
    ACTION_VOCABULARY,
    EventParseError,
    EventValidationError,
    IngestResult,
    InteractionEvent,
    LogFormatError,
    Platform,
    TimeWindow,
    event_to_json,
    ingest_log,
    parse_event,
)
from .labeling import (
    CausalLabeler,
    Label,
    LabeledSample,
    LabelingConfig,
    LabelingMode,
    LabelingResult,
    RuleMode,
    UserProfile,
    label_log,
    watch_ratio,
)
from .trainer import (
    DivergenceError,
    Objective,
    RankingModel,
    TrainConfig,
    TrainResult,
    train,
)
from .cohort import CohortConfig, CohortReport, analyze
from .simulation import (
    Population,
    SimConfig,
    SimReport,
    generate_population,
    simulate_experiment,
    user_response,
)

__version__ = "0.1.0"

__all__ = [
    "ACTION_VOCABULARY",
    "CausalLabeler",
    "CohortConfig",
    "CohortReport",
    "DivergenceError",
    "EventParseError",
    "EventValidationError",
    "IngestResult",
    "InteractionEvent",
    "Label",
    "LabeledSample",
    "LabelingConfig",
    "LabelingMode",
    "LabelingResult",
    "LogFormatError",
    "Objective",
    "Platform",
    "Population",
    "RankingModel",
    "RuleMode",
    "SimConfig",
    "SimReport",
    "TimeWindow",
    "TrainConfig",
    "TrainResult",
    "UserProfile",
    "analyze",
    "event_to_json",
    "generate_population",
    "ingest_log",
    "label_log",
    "parse_event",
    "simulate_experiment",
    "train",
    "user_response",
    "watch_ratio",
    "__version__",
]
