"""Heterogeneity-oblivious robust federated learning on low-rank adapters.

The package splits into spectral primitives (:mod:`horus.spectral`), the
adapter data model (:mod:`horus.lora`), poisoning detection
(:mod:`horus.detection`), server aggregation rules (:mod:`horus.aggregation`),
attack implementations (:mod:`horus.attacks`), the synthetic federation
(:mod:`horus.sim`), and a CLI (:mod:`horus.cli`).
"""

from .aggregation import (
    AggregatorKind,
    HorusConfig,
    baseline_aggregate,
    horus_aggregate,
    masked_mean,
    projection_weights,
    update_global_directions,
)
from .attacks import AttackConfig, AttackKind
from .detection import (
    MatrixSource,
    Percentile,
    RoundDetection,
    TopM,
    client_features,
    decompose_round,
    flag_clients,
    hops_scores,
)
from .errors import ConfigurationError, SimulationError
from .lora import (
    ClientUpdate,
    GlobalState,
    LayerDims,
    LayerId,
    LoraPair,
    pad_round,
    payload_bytes,
    trim_to_local,
)
from .sim import Simulation, TaskConfig, generate_task
from .spectral import (
    decompose_many,
    inverse_normal_cdf,
    percentile,
    spectral_entropy,
    topk_energy_ratio,
)

__all__ = [
    "AggregatorKind", "HorusConfig", "baseline_aggregate", "horus_aggregate",
    "masked_mean", "projection_weights", "update_global_directions",
    "AttackConfig", "AttackKind",
    "MatrixSource", "Percentile", "RoundDetection", "TopM", "client_features",
    "decompose_round", "flag_clients", "hops_scores",
    "ConfigurationError", "SimulationError",
    "ClientUpdate", "GlobalState", "LayerDims", "LayerId", "LoraPair", "pad_round",
    "payload_bytes", "trim_to_local",
    "Simulation", "TaskConfig", "generate_task",
    "decompose_many", "inverse_normal_cdf", "percentile", "spectral_entropy",
    "topk_energy_ratio",
]

__version__ = "0.1.0"
