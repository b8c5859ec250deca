"""The persistent prediction service.

Turns the batch-tool substrate into a long-lived server: warm models
(:class:`ModelRegistry`), tiered caching and batched inference
(:class:`PredictionEngine`), greedy micro-batching of cache misses
(:class:`MicroBatcher`), a stdlib HTTP front end
(:class:`PredictionServer`) and its client (:class:`ServeClient`).
"""

from .batching import BatchStats, MicroBatcher
from .client import ServeClient
from .engine import (
    EngineStats,
    ModelRegistry,
    ModelSpec,
    PredictionEngine,
    PredictRequest,
)
from .server import PredictionServer, params_from_payload, prediction_payload

__all__ = [
    "BatchStats",
    "MicroBatcher",
    "ServeClient",
    "EngineStats",
    "ModelRegistry",
    "ModelSpec",
    "PredictionEngine",
    "PredictRequest",
    "PredictionServer",
    "params_from_payload",
    "prediction_payload",
]
