"""Run configuration: a strict, human-editable YAML tree.

The tree mirrors the config dataclasses. A mapping's keys are the fields of
its dataclass, read with the field's type and defaulting to the field's
default, so ``parse_config`` and ``config_to_dict`` work from one schema and
round-trip exactly. Every dataclass validates itself on construction, and a
parse error names its field path once. Unknown keys are rejected so typos
fail fast instead of silently using defaults.
"""

from __future__ import annotations

import dataclasses
import math
import types
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, get_args, get_origin, get_type_hints

import yaml

from .aggregation import AggregatorKind, HorusConfig
from .attacks import AttackConfig, AttackKind, lie_z
from .detection import DetectionMode, Percentile, TopM
from .errors import ConfigurationError
from .sim import TaskConfig

__all__ = [
    "ClientTemplate",
    "RunConfig",
    "parse_config",
    "load_config",
    "config_to_dict",
    "AGGREGATOR_DEFAULTS",
]

# Parameter defaults applied when a config or sweep names an aggregator
# without giving them.
AGGREGATOR_DEFAULTS: dict[str, dict[str, Any]] = {
    "horus": {},
    "fedavg": {},
    "krum": {"f": 2},
    "multi_krum": {"f": 2, "m": 4},
    "median": {},
    "trimmed_mean": {"beta": 0.2},
}

# The two keys that differ from their field names.
_KEYS = {(HorusConfig, "lam"): "lambda", (AggregatorKind, "name"): "kind"}

# ``detection.mode`` is written as {percentile: p} or {top_m: m}.
_MODE_KEYS = {Percentile: "percentile", TopM: "top_m"}


@dataclass(frozen=True)
class ClientTemplate:
    """Expands to ``count`` clients sharing one architecture.

    ``participation_rate=None`` draws each client's rate from the default
    pool {1.0, 0.75, 0.5} at setup time.
    """

    count: int
    hidden_width: int
    participation_rate: float | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ConfigurationError(f"client count must be >= 1, got {self.count}")
        if self.hidden_width < 1:
            raise ConfigurationError(
                f"hidden_width must be >= 1, got {self.hidden_width}"
            )
        if self.participation_rate is not None and not 0.0 < self.participation_rate <= 1.0:
            raise ConfigurationError(
                f"participation_rate must be in (0, 1], got {self.participation_rate}"
            )


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    task: TaskConfig = TaskConfig()
    clients: tuple[ClientTemplate, ...]
    aggregator: AggregatorKind = AggregatorKind("horus")
    detection: HorusConfig = HorusConfig()
    attack: AttackConfig = AttackConfig()
    rounds: int
    lr: float = 0.3
    epochs: int = 1
    batch: int = 256
    rank: int = 8
    warmup_epochs: int = 10
    warmup_lr: float | None = None  # None: warm up at ``lr``
    workers: int = 0
    master_seed: int = 0
    output_dir: str = "runs/out"

    def expand_clients(self) -> list[tuple[int, int, float | None]]:
        """(arch_id, hidden_width, participation_rate) per client, in id order."""
        out = []
        for arch_id, tpl in enumerate(self.clients):
            out.extend(
                (arch_id, tpl.hidden_width, tpl.participation_rate)
                for _ in range(tpl.count)
            )
        return out

    @property
    def num_clients(self) -> int:
        return sum(t.count for t in self.clients)

    def __post_init__(self):
        n = self.num_clients
        if n < 1:
            raise ConfigurationError("clients: at least one client required")
        pool = self.task.num_classes * self.task.samples_per_class
        if n > pool:
            raise ConfigurationError(
                f"clients: {n} clients need at least one sample each, "
                f"but the task pool holds {pool}"
            )
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        if not 0 <= self.lr < math.inf:  # NaN fails too
            raise ConfigurationError(f"lr must be finite and >= 0, got {self.lr}")
        if self.warmup_lr is not None and not 0 <= self.warmup_lr < math.inf:
            raise ConfigurationError(
                f"warmup_lr must be finite and >= 0, got {self.warmup_lr}")
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {self.batch}")
        if self.rank < 1:
            raise ConfigurationError(f"rank must be >= 1, got {self.rank}")
        if self.warmup_epochs < 0:
            raise ConfigurationError("warmup_epochs must be >= 0")
        if self.workers < 0:
            raise ConfigurationError("workers must be >= 0")
        bad = [a for a in self.attack.attacker_ids if not 0 <= a < n]
        if bad:
            raise ConfigurationError(
                f"attack.attacker_ids: ids {sorted(bad)} outside [0, {n})"
            )
        if self.attack.kind is AttackKind.LIE and self.attack.z_override is None:
            try:
                lie_z(n, len(self.attack.attacker_ids))
            except ConfigurationError as exc:
                raise ConfigurationError(f"attack: {exc}") from None
        self.aggregator.check_feasible(n)


def _build(cls, kwargs: dict, path: str):
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def _read_dataclass(cls, data, path: str):
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{path}: expected a mapping")
    fields = {_KEYS.get((cls, f.name), f.name): f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigurationError(
            f"{path}: unknown key(s) {sorted(unknown, key=str)}; "
            f"allowed: {sorted(fields)}"
        )
    hints = get_type_hints(cls)
    kwargs = {}
    for key, f in fields.items():
        if key in data:
            kwargs[f.name] = _read(hints[f.name], data[key], f"{path}.{key}")
        elif f.default is dataclasses.MISSING:
            raise ConfigurationError(f"{path}.{key}: required key missing")
    return _build(cls, kwargs, path)


def _read_mode(spec, path: str) -> DetectionMode:
    if not isinstance(spec, Mapping) or len(spec) != 1:
        raise ConfigurationError(
            f"{path}: expected exactly one of {{percentile: p}} or {{top_m: m}}"
        )
    ((key, value),) = spec.items()
    cls = next((c for c, k in _MODE_KEYS.items() if k == key), None)
    if cls is None:
        raise ConfigurationError(f"{path}: unknown mode {key!r}")
    (f,) = dataclasses.fields(cls)
    path = f"{path}.{key}"
    return _build(cls, {f.name: _read(get_type_hints(cls)[f.name], value, path)}, path)


def _read(tp, value, path: str):
    """``value`` read as a ``tp``, or a ConfigurationError naming ``path``."""
    if tp == DetectionMode:
        return _read_mode(value, path)
    if tp is AggregatorKind:
        if isinstance(value, str):
            value = {"kind": value}
        if isinstance(value, Mapping) and isinstance(value.get("kind"), str):
            value = {**AGGREGATOR_DEFAULTS.get(value["kind"], {}), **value}
    if dataclasses.is_dataclass(tp):
        return _read_dataclass(tp, value, path)
    origin, args = get_origin(tp), get_args(tp)
    if origin is types.UnionType:  # ``X | None``
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _read(tp, value, path)
    if origin in (tuple, frozenset):
        if not isinstance(value, list):
            raise ConfigurationError(
                f"{path}: expected a list, got {type(value).__name__} ({value!r})"
            )
        return origin(_read(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise ConfigurationError(
                f"{path}: expected one of {[m.value for m in tp]}, got {value!r}"
            ) from None
    if tp is float and type(value) is int:
        return float(value)
    if not isinstance(value, tp) or (isinstance(value, bool) and tp is not bool):
        raise ConfigurationError(
            f"{path}: expected {tp.__name__}, got {type(value).__name__} ({value!r})"
        )
    return value


def parse_config(data: Mapping, *, path: str = "config") -> RunConfig:
    """Build and validate a RunConfig from a parsed YAML/JSON mapping."""
    return _read_dataclass(RunConfig, data, path)


def load_config(
    path: str | Path,
    *,
    seed_override: int | None = None,
    output_override: str | None = None,
) -> RunConfig:
    """Parse a YAML config file, applying CLI overrides before validation."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: YAML parse error: {exc}") from None
    if data is None:
        raise ConfigurationError(f"{path}: empty configuration file")
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    if seed_override is not None:
        data["master_seed"] = seed_override
    if output_override is not None:
        data["output_dir"] = output_override
    return parse_config(data, path=str(path))


def _write(value):
    if type(value) in _MODE_KEYS:
        (f,) = dataclasses.fields(value)
        return {_MODE_KEYS[type(value)]: getattr(value, f.name)}
    if dataclasses.is_dataclass(value):
        return {
            _KEYS.get((type(value), f.name), f.name): _write(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if getattr(value, f.name) is not None or f.default is not None
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_write(v) for v in value]
    return value


def config_to_dict(cfg: RunConfig) -> dict:
    """Serialize a RunConfig back to the mapping form parse_config accepts.

    A field is left out only when it is None and None is its default.
    """
    return _write(cfg)
