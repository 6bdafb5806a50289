"""Training loop and time-aware filtered evaluation."""

from repro.training.metrics import (
    RankingResult,
    filtered_ranks,
    hits_at,
    mrr,
    summarize_ranks,
)
from repro.training.evaluator import TimelineEvaluator, build_time_filter
from repro.training.loader import QueryBatchLoader, SamplerConfig
from repro.training.trainer import Trainer, TrainResult
from repro.training.seeding import seed_everything
from repro.training.history import EpochRecord, TrainingHistory
from repro.training.multiseed import AggregateMetric, run_seeds, significant_difference

__all__ = [
    "RankingResult",
    "filtered_ranks",
    "hits_at",
    "mrr",
    "summarize_ranks",
    "TimelineEvaluator",
    "build_time_filter",
    "QueryBatchLoader",
    "SamplerConfig",
    "Trainer",
    "TrainResult",
    "seed_everything",
    "EpochRecord",
    "TrainingHistory",
    "AggregateMetric",
    "run_seeds",
    "significant_difference",
]
