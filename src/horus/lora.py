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
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "LayerId",
    "LayerDims",
    "LoraPair",
    "ClientUpdate",
    "PaddedPair",
    "GlobalLayer",
    "GlobalState",
    "pad_to_global",
    "trim_to_local",
    "payload_bytes",
    "flatten_padded",
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
    if not np.all(np.isfinite(x)):
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

    @property
    def d_in(self) -> int:
        return self.a.shape[1]

    @property
    def d_out(self) -> int:
        return self.b.shape[0]

    @property
    def dims(self) -> LayerDims:
        return LayerDims(self.d_in, self.d_out)

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

    @property
    def rank(self) -> int:
        return next(iter(self.layers.values())).rank

    def dims(self) -> dict[LayerId, LayerDims]:
        return {lid: pair.dims for lid, pair in self.layers.items()}


@dataclass(frozen=True)
class PaddedPair:
    """A pair zero-padded to global shapes plus 0/1 masks over real entries."""

    a_padded: np.ndarray = field(repr=False)
    b_padded: np.ndarray = field(repr=False)
    mask_a: np.ndarray = field(repr=False)
    mask_b: np.ndarray = field(repr=False)


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
    round_index: int = 0

    @property
    def directions_initialized(self) -> bool:
        return all(g.v_a is not None and g.v_b is not None
                   for g in self.layers.values())

    def dims(self) -> dict[LayerId, LayerDims]:
        return {lid: LayerDims(g.a.shape[1], g.b.shape[0])
                for lid, g in self.layers.items()}

    @classmethod
    def zeros(cls, dims: Mapping[LayerId, LayerDims], rank: int) -> "GlobalState":
        layers = {
            lid: GlobalLayer(a=np.zeros((rank, d.d_in)), b=np.zeros((d.d_out, rank)))
            for lid, d in dims.items()
        }
        return cls(layers=layers, rank=rank, round_index=0)

    def copy(self) -> "GlobalState":
        layers = {
            lid: GlobalLayer(
                a=g.a.copy(),
                b=g.b.copy(),
                v_a=None if g.v_a is None else g.v_a.copy(),
                v_b=None if g.v_b is None else g.v_b.copy(),
            )
            for lid, g in self.layers.items()
        }
        return GlobalState(layers=layers, rank=self.rank, round_index=self.round_index)


def pad_to_global(
    u: ClientUpdate, dims: Mapping[LayerId, LayerDims]
) -> dict[LayerId, PaddedPair]:
    """Zero-pad a client's pairs to the global maximum shapes, top-left anchored."""
    out: dict[LayerId, PaddedPair] = {}
    for lid, pair in u.layers.items():
        d_in_max, d_out_max = dims[lid]
        if pair.d_in > d_in_max or pair.d_out > d_out_max:
            raise ConfigurationError(
                f"client {u.client_id} layer {lid.value} shape "
                f"({pair.d_in}, {pair.d_out}) exceeds global maxima "
                f"({d_in_max}, {d_out_max})"
            )
        r = pair.rank
        a_pad = np.zeros((r, d_in_max))
        a_pad[:, : pair.d_in] = pair.a
        b_pad = np.zeros((d_out_max, r))
        b_pad[: pair.d_out, :] = pair.b
        mask_a = np.zeros((r, d_in_max))
        mask_a[:, : pair.d_in] = 1.0
        mask_b = np.zeros((d_out_max, r))
        mask_b[: pair.d_out, :] = 1.0
        out[lid] = PaddedPair(a_pad, b_pad, mask_a, mask_b)
    return out


def trim_to_local(g: GlobalState, layer: LayerId, dims: LayerDims) -> LoraPair:
    """Top-left block of the global aggregate at a client's local shape."""
    glayer = g.layers[layer]
    d_in_max, d_out_max = g.dims()[layer]
    if dims.d_in > d_in_max or dims.d_out > d_out_max:
        raise ConfigurationError(
            f"local dims {tuple(dims)} exceed global maxima "
            f"({d_in_max}, {d_out_max}) on layer {layer.value}"
        )
    return LoraPair(
        a=glayer.a[:, : dims.d_in].copy(),
        b=glayer.b[: dims.d_out, :].copy(),
        rank=g.rank,
    )


def payload_bytes(u: ClientUpdate) -> int:
    """Upload size in bytes at 8 bytes per matrix entry, both layers, A and B."""
    return 8 * sum(pair.a.size + pair.b.size for pair in u.layers.values())


def flatten_padded(padded: Mapping[LayerId, PaddedPair]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate a client's padded pair into one flat vector plus its mask.

    Layout: A matrices in layer declaration order, then B matrices in the
    same order. :func:`unflatten_padded` inverts the value part.
    """
    vec = np.concatenate(
        [padded[lid].a_padded.ravel() for lid in LayerId]
        + [padded[lid].b_padded.ravel() for lid in LayerId]
    )
    mask = np.concatenate(
        [padded[lid].mask_a.ravel() for lid in LayerId]
        + [padded[lid].mask_b.ravel() for lid in LayerId]
    )
    return vec, mask


def unflatten_padded(
    vec: np.ndarray, dims: Mapping[LayerId, LayerDims], rank: int
) -> dict[LayerId, tuple[np.ndarray, np.ndarray]]:
    """Rebuild global-shape (A, B) matrices from a flat vector."""
    out: dict[LayerId, tuple[np.ndarray, np.ndarray]] = {}
    offset = 0
    a_parts: dict[LayerId, np.ndarray] = {}
    for lid in LayerId:
        n = rank * dims[lid].d_in
        a_parts[lid] = vec[offset : offset + n].reshape(rank, dims[lid].d_in)
        offset += n
    for lid in LayerId:
        n = dims[lid].d_out * rank
        b = vec[offset : offset + n].reshape(dims[lid].d_out, rank)
        offset += n
        out[lid] = (a_parts[lid].copy(), b.copy())
    if offset != vec.size:
        raise ValueError(f"vector length {vec.size} does not match dims (need {offset})")
    return out
