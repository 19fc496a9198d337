"""Data model for per-layer low-rank adapter pairs across heterogeneous clients.

A layer's update is factored as ``delta_W = B @ A`` with ``A`` of shape
(rank, d_in) and ``B`` of shape (d_out, rank). Clients with different layer
widths exchange these pairs after zero-padding to declared global maximum
shapes; binary masks record which entries are real so that aggregation never
averages padding into the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "LayerId",
    "LayerDims",
    "LoraPair",
    "ClientUpdate",
    "GlobalLayer",
    "GlobalState",
    "round_layout",
    "pad_round",
    "trim_to_local",
    "payload_bytes",
    "unflatten_padded",
]


class LayerId(str, Enum):
    """The two instrumented layers every client exposes."""

    FEATURE_FIRST = "feature_first"
    CLASSIFIER = "classifier"


class LayerDims(NamedTuple):
    """Input/output widths of one instrumented layer."""

    d_in: int
    d_out: int


def _as_float_matrix(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite entries")
    return x


@dataclass(frozen=True)
class LoraPair:
    """One layer's adapter pair: ``a`` (rank x d_in) and ``b`` (d_out x rank)."""

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    rank: int

    def __post_init__(self):
        a = _as_float_matrix(self.a, "a")
        b = _as_float_matrix(self.b, "b")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")
        if a.shape[0] != self.rank:
            raise ValueError(f"a has {a.shape[0]} rows, expected rank {self.rank}")
        if b.shape[1] != self.rank:
            raise ValueError(f"b has {b.shape[1]} columns, expected rank {self.rank}")

    @classmethod
    def _trusted(cls, a: np.ndarray, b: np.ndarray, rank: int) -> "LoraPair":
        """A pair from finite 2-D float matrices its caller has already checked."""
        pair = object.__new__(cls)
        pair.__dict__.update(a=a, b=b, rank=rank)
        return pair

    def delta(self) -> np.ndarray:
        """The dense update ``B @ A`` this pair represents."""
        return self.b @ self.a


@dataclass(frozen=True)
class ClientUpdate:
    """A client's per-round submission: one adapter pair per instrumented layer."""

    client_id: int
    arch_id: int
    layers: Mapping[LayerId, LoraPair]

    def __post_init__(self):
        missing = [lid for lid in LayerId if lid not in self.layers]
        if missing:
            raise ValueError(f"client {self.client_id} missing layers: {missing}")
        ranks = {pair.rank for pair in self.layers.values()}
        if len(ranks) != 1:
            raise ValueError(f"client {self.client_id} has mixed ranks {ranks}")
        object.__setattr__(self, "layers", dict(self.layers))


@dataclass
class GlobalLayer:
    """Server-side aggregate for one layer at global maximum dimensions.

    ``v_a`` / ``v_b`` are the tracked first right singular directions of the
    aggregated pair; ``None`` until the first aggregation completes.
    """

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    v_a: np.ndarray | None = field(default=None, repr=False)
    v_b: np.ndarray | None = field(default=None, repr=False)


@dataclass
class GlobalState:
    """Aggregated adapter pairs per layer plus tracked global directions."""

    layers: dict[LayerId, GlobalLayer]
    rank: int

    @property
    def directions_initialized(self) -> bool:
        return all(g.v_a is not None and g.v_b is not None
                   for g in self.layers.values())

    def dims(self) -> dict[LayerId, LayerDims]:
        return {lid: LayerDims(g.a.shape[1], g.b.shape[0])
                for lid, g in self.layers.items()}

    def flat(self) -> np.ndarray:
        """Every layer's A and B as one row in the :func:`pad_round` layout."""
        return np.concatenate([
            getattr(self.layers[lid], factor).ravel()
            for lid, factor, _ in round_layout(self.dims(), self.rank)
        ])

    @classmethod
    def zeros(cls, dims: Mapping[LayerId, LayerDims], rank: int) -> "GlobalState":
        layers = {
            lid: GlobalLayer(a=np.zeros((rank, d.d_in)), b=np.zeros((d.d_out, rank)))
            for lid, d in dims.items()
        }
        return cls(layers=layers, rank=rank)


def trim_to_local(g: GlobalState, layer: LayerId, dims: LayerDims) -> LoraPair:
    """Top-left block of the global aggregate at a client's local shape, as a
    checked copy whose arrays are read-only, so that clients of one shape can
    share it."""
    glayer = g.layers[layer]
    d_in_max, d_out_max = g.dims()[layer]
    if dims.d_in > d_in_max or dims.d_out > d_out_max:
        raise ConfigurationError(
            f"local dims {tuple(dims)} exceed global maxima "
            f"({d_in_max}, {d_out_max}) on layer {layer.value}"
        )
    pair = LoraPair(
        a=glayer.a[:, : dims.d_in].copy(),
        b=glayer.b[: dims.d_out, :].copy(),
        rank=g.rank,
    )
    pair.a.flags.writeable = pair.b.flags.writeable = False
    return pair


def payload_bytes(u: ClientUpdate) -> int:
    """Upload size in bytes at 8 bytes per matrix entry, both layers, A and B."""
    return 8 * sum(pair.a.size + pair.b.size for pair in u.layers.values())


def round_layout(
    dims: Mapping[LayerId, LayerDims], rank: int
) -> list[tuple[LayerId, str, tuple[int, int]]]:
    """(layer, factor, global shape) of each block of a flat round row: every
    layer's A in declaration order, then every layer's B in the same order."""
    return [(lid, "a", (rank, dims[lid].d_in)) for lid in LayerId] + [
        (lid, "b", (dims[lid].d_out, rank)) for lid in LayerId
    ]


def pad_round(
    updates: Sequence[ClientUpdate], dims: Mapping[LayerId, LayerDims], rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """One round's submissions as an (n, P) value matrix and an (n, P) 0/1 mask.

    Row i holds update i's matrices zero-padded top-left to the global shapes
    and laid out as :func:`round_layout` lists them; the mask marks the real
    entries. :func:`unflatten_padded` inverts a row of values.
    """
    layout = round_layout(dims, rank)
    sizes = [rows * cols for _, _, (rows, cols) in layout]
    values = np.zeros((len(updates), sum(sizes)))
    masks = np.zeros_like(values)
    offset = 0
    for (lid, factor, shape), size in zip(layout, sizes):
        block = (len(updates),) + shape
        vals = values[:, offset : offset + size].reshape(block)
        mask = masks[:, offset : offset + size].reshape(block)
        for i, u in enumerate(updates):
            m = getattr(u.layers[lid], factor)
            if m.shape[0] > shape[0] or m.shape[1] > shape[1]:
                raise ConfigurationError(
                    f"client {u.client_id} layer {lid.value} {factor.upper()} "
                    f"shape {m.shape} exceeds global maxima {shape}"
                )
            vals[i, : m.shape[0], : m.shape[1]] = m
            mask[i, : m.shape[0], : m.shape[1]] = 1.0
        offset += size
    return values, masks


def unflatten_padded(
    vec: np.ndarray, dims: Mapping[LayerId, LayerDims], rank: int
) -> dict[LayerId, tuple[np.ndarray, np.ndarray]]:
    """Rebuild global-shape (A, B) matrices from a flat row of :func:`pad_round`."""
    blocks: dict[tuple[LayerId, str], np.ndarray] = {}
    offset = 0
    for lid, factor, (rows, cols) in round_layout(dims, rank):
        blocks[lid, factor] = vec[offset : offset + rows * cols].reshape(rows, cols)
        offset += rows * cols
    if offset != vec.size:
        raise ValueError(f"vector length {vec.size} does not match dims (need {offset})")
    return {lid: (blocks[lid, "a"].copy(), blocks[lid, "b"].copy()) for lid in LayerId}
