"""Data model for per-layer low-rank adapter pairs across heterogeneous clients.

A layer's update is factored as ``delta_W = B @ A`` with ``A`` of shape
(rank, d_in) and ``B`` of shape (d_out, rank). Clients with different layer
widths exchange these pairs after zero-padding to declared global maximum
shapes; binary masks record which entries are real so that aggregation never
averages padding into the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
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


@dataclass(frozen=True, eq=False)
class LoraPair:
    """One layer's adapter pair: ``a`` (rank x d_in) and ``b`` (d_out x rank).

    A pair is a value: nothing writes its arrays after construction, so its
    delta is computed once. Pairs compare and hash by identity.
    """

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = _as_float_matrix(self.a, "a")
        b = _as_float_matrix(self.b, "b")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not a.shape[0] == b.shape[1] >= 1:
            raise ValueError(f"a {a.shape} and b {b.shape} share no positive rank")

    @property
    def rank(self) -> int:
        return self.a.shape[0]

    @classmethod
    def _trusted(cls, a: np.ndarray, b: np.ndarray) -> "LoraPair":
        """A pair from finite 2-D float matrices its caller has already checked."""
        pair = object.__new__(cls)
        pair.__dict__.update(a=a, b=b)
        return pair

    @cached_property
    def delta(self) -> np.ndarray:
        """The dense update ``B @ A`` this pair represents, read-only."""
        delta = self.b @ self.a
        delta.flags.writeable = False
        return delta


@dataclass(frozen=True)
class ClientUpdate:
    """A client's per-round submission: one adapter pair per instrumented layer."""

    layers: Mapping[LayerId, LoraPair]

    def __post_init__(self):
        missing = [lid for lid in LayerId if lid not in self.layers]
        if missing:
            raise ValueError(f"update is missing layers: {missing}")
        ranks = {pair.rank for pair in self.layers.values()}
        if len(ranks) != 1:
            raise ValueError(f"update has mixed ranks {ranks}")
        object.__setattr__(self, "layers", dict(self.layers))

    @classmethod
    def _trusted(cls, layers: dict[LayerId, LoraPair]) -> "ClientUpdate":
        """An update that takes over ``layers``, which its caller has checked."""
        update = object.__new__(cls)
        update.__dict__.update(layers=layers)
        return update


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

    @property
    def directions_initialized(self) -> bool:
        return all(g.v_a is not None and g.v_b is not None
                   for g in self.layers.values())

    def flat(self) -> np.ndarray:
        """Every layer's A and B as one row in the :func:`round_layout`."""
        return np.concatenate([
            getattr(self.layers[block.layer], block.factor).ravel()
            for block in round_layout(self)
        ])

    def with_flat(self, row: np.ndarray) -> "GlobalState":
        """A state of copies of the blocks of ``row``, a row in this state's
        :func:`round_layout`, with this state's tracked directions."""
        layout = round_layout(self)
        if row.shape != (layout[-1].cols.stop,):
            raise ValueError(f"row of shape {row.shape} does not fit the round layout")
        state = GlobalState({lid: replace(layer) for lid, layer in self.layers.items()})
        for lid, factor, shape, cols in layout:
            setattr(state.layers[lid], factor, row[cols].reshape(shape).copy())
        return state

    @classmethod
    def zeros(cls, dims: Mapping[LayerId, LayerDims], rank: int) -> "GlobalState":
        layers = {
            lid: GlobalLayer(a=np.zeros((rank, d.d_in)), b=np.zeros((d.d_out, rank)))
            for lid, d in dims.items()
        }
        return cls(layers)


def trim_to_local(g: GlobalState, layer: LayerId, dims: LayerDims) -> LoraPair:
    """Top-left block of the global aggregate at a client's local shape, as a
    checked copy whose arrays are read-only, so that clients of one shape can
    share it."""
    glayer = g.layers[layer]
    d_in_max, d_out_max = glayer.a.shape[1], glayer.b.shape[0]
    if dims.d_in > d_in_max or dims.d_out > d_out_max:
        raise ConfigurationError(
            f"local dims {tuple(dims)} exceed global maxima "
            f"({d_in_max}, {d_out_max}) on layer {layer.value}"
        )
    pair = LoraPair(
        a=glayer.a[:, : dims.d_in].copy(),
        b=glayer.b[: dims.d_out, :].copy(),
    )
    pair.a.flags.writeable = pair.b.flags.writeable = False
    return pair


def payload_bytes(u: ClientUpdate) -> int:
    """Upload size in bytes at 8 bytes per matrix entry, both layers, A and B."""
    return 8 * sum(pair.a.size + pair.b.size for pair in u.layers.values())


class Block(NamedTuple):
    """One global matrix's place in a flat round row."""

    layer: LayerId
    factor: str  # "a" | "b"
    shape: tuple[int, int]
    cols: slice


def round_layout(g: GlobalState) -> list[Block]:
    """The blocks of a flat round row at the global shapes of ``g``: every
    layer's A in declaration order, then every layer's B in the same order."""
    blocks, end = [], 0
    for factor in ("a", "b"):
        for lid in LayerId:
            shape = getattr(g.layers[lid], factor).shape
            start, end = end, end + shape[0] * shape[1]
            blocks.append(Block(lid, factor, shape, slice(start, end)))
    return blocks


def pad_round(
    updates: Sequence[ClientUpdate], g: GlobalState
) -> tuple[np.ndarray, np.ndarray]:
    """One round's submissions as an (n, P) value matrix and an (n, P) 0/1 mask.

    Row i holds update i's matrices zero-padded top-left to the global shapes
    of ``g`` and laid out in its :func:`round_layout`; the mask marks the real
    entries. :meth:`GlobalState.with_flat` reads a row of values back.
    """
    layout = round_layout(g)
    values = np.zeros((len(updates), layout[-1].cols.stop))
    masks = np.zeros_like(values)
    for lid, factor, shape, cols in layout:
        block = (len(updates),) + shape
        vals = values[:, cols].reshape(block)
        mask = masks[:, cols].reshape(block)
        by_shape: dict[tuple[int, int], list[int]] = {}
        ms = [getattr(u.layers[lid], factor) for u in updates]
        for i, m in enumerate(ms):
            by_shape.setdefault(m.shape, []).append(i)
        # in order of first update, so the first too large is the first named
        for (p, q), idx in by_shape.items():
            if p > shape[0] or q > shape[1]:
                raise ConfigurationError(
                    f"update {idx[0]} layer {lid.value} {factor.upper()} "
                    f"shape {(p, q)} exceeds global maxima {shape}"
                )
            vals[idx, :p, :q] = np.concatenate([ms[i] for i in idx]).reshape(-1, p, q)
            mask[idx, :p, :q] = 1.0
    return values, masks
