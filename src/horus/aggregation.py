"""Server-side aggregation: masked averaging, projection-guided weighting,
global-direction tracking, and classical robust baselines.

All reductions iterate clients in ascending id order, so results are
independent of dict insertion order and of any upstream parallelism. Entries
of the global matrices that no (weighted) client covers in a round keep their
previous values, which keeps the broadcast well-defined when participation
varies across architectures.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .detection import (
    DetectionMode,
    MatrixSource,
    Percentile,
    RoundDetection,
    SpectralFeatures,
    client_features,
    detect_round,
)
from .errors import ConfigurationError
from .lora import (
    ClientUpdate,
    GlobalLayer,
    GlobalState,
    LayerId,
    PaddedPair,
    flatten_padded,
    pad_to_global,
)
from .spectral import first_right_singular_vector

__all__ = [
    "LayerWeights",
    "ProjectionWeights",
    "AggregatorKind",
    "HorusConfig",
    "AggregationOutcome",
    "masked_average",
    "projection_weights",
    "weighted_masked_average",
    "update_global_directions",
    "horus_aggregate",
    "baseline_aggregate",
    "masked_sq_distances",
    "krum_select",
    "masked_median",
    "masked_trimmed_mean",
]

log = logging.getLogger(__name__)

WEIGHT_DENOMINATOR_GUARD = 1e-12


@dataclass(frozen=True)
class LayerWeights:
    """Consistency weights for one client on one layer."""

    alpha_a: float
    alpha_b: float


@dataclass(frozen=True)
class ProjectionWeights:
    """Per-client, per-layer projection magnitudes onto the global directions."""

    by_client: Mapping[int, Mapping[LayerId, LayerWeights]]
    uniform: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "by_client", {c: dict(lw) for c, lw in self.by_client.items()}
        )

    def layer(self, lid: LayerId) -> dict[int, LayerWeights]:
        return {c: lw[lid] for c, lw in self.by_client.items()}

    def all_alphas(self) -> list[float]:
        return [
            a
            for lw in self.by_client.values()
            for w in lw.values()
            for a in (w.alpha_a, w.alpha_b)
        ]

    @classmethod
    def ones(cls, client_ids) -> "ProjectionWeights":
        return cls(
            by_client={
                c: {lid: LayerWeights(1.0, 1.0) for lid in LayerId}
                for c in client_ids
            },
            uniform=True,
        )


@dataclass(frozen=True)
class AggregatorKind:
    """Which server aggregation rule to run, with its parameters."""

    name: str  # horus | fedavg | krum | multi_krum | median | trimmed_mean
    f: int = 0
    m: int = 1
    beta: float = 0.0

    _NAMES = ("horus", "fedavg", "krum", "multi_krum", "median", "trimmed_mean")

    def __post_init__(self):
        if self.name not in self._NAMES:
            raise ConfigurationError(
                f"unknown aggregator {self.name!r}; expected one of {self._NAMES}"
            )
        if self.name in ("krum", "multi_krum") and self.f < 0:
            raise ConfigurationError(f"f must be >= 0, got {self.f}")
        if self.name == "multi_krum" and self.m < 1:
            raise ConfigurationError(f"m must be >= 1, got {self.m}")
        if self.name == "trimmed_mean" and not 0.0 <= self.beta < 0.5:
            raise ConfigurationError(f"beta must be in [0, 0.5), got {self.beta}")

    def check_feasible(self, n_clients: int) -> None:
        """Validate parameters against the client population size."""
        if self.name in ("krum", "multi_krum"):
            if not self.f < n_clients / 2 - 1:
                raise ConfigurationError(
                    f"{self.name} needs f < n/2 - 1 (f={self.f}, n={n_clients})"
                )
        if self.name == "multi_krum" and self.m > n_clients:
            raise ConfigurationError(
                f"multi_krum m={self.m} exceeds client count {n_clients}"
            )


@dataclass(frozen=True)
class HorusConfig:
    """Detection and weighting parameters for the full pipeline."""

    lam: float = 0.5
    k: int = 5
    mode: DetectionMode = Percentile(95.0)
    source: MatrixSource = MatrixSource.A


@dataclass(frozen=True)
class AggregationOutcome:
    """Result of one server-side aggregation step."""

    state: GlobalState
    detection: RoundDetection
    alpha_summary: dict[str, float] | None = None
    skipped: bool = False
    features: Mapping[int, "SpectralFeatures"] | None = None


def _masked_ratio(num_stack: np.ndarray, den_stack: np.ndarray, prev, guard: float):
    num = num_stack.sum(axis=0)
    den = den_stack.sum(axis=0)
    covered = den > guard
    safe_den = np.where(covered, den, 1.0)
    base = np.zeros_like(num) if prev is None else np.asarray(prev, dtype=float)
    return np.where(covered, num / safe_den, base)


def masked_average(
    padded: Mapping[int, PaddedPair],
    previous: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise mean over each entry's covering clients, for one layer.

    Entries covered by no client keep the corresponding entry of ``previous``
    (zero if no previous aggregate is supplied).
    """
    if not padded:
        raise ValueError("masked_average requires at least one client")
    cids = sorted(padded)
    prev_a, prev_b = previous if previous is not None else (None, None)
    a_vals = np.stack([padded[c].a_padded for c in cids])
    a_masks = np.stack([padded[c].mask_a for c in cids])
    b_vals = np.stack([padded[c].b_padded for c in cids])
    b_masks = np.stack([padded[c].mask_b for c in cids])
    a_bar = _masked_ratio(a_vals * a_masks, a_masks, prev_a, guard=0.0)
    b_bar = _masked_ratio(b_vals * b_masks, b_masks, prev_b, guard=0.0)
    return a_bar, b_bar


def projection_weights(
    padded: Mapping[int, Mapping[LayerId, PaddedPair]], g: GlobalState
) -> ProjectionWeights:
    """Absolute inner products of client first right singular vectors with the
    tracked global directions.

    Falls back to uniform weights (all ones) while the global directions are
    uninitialized, i.e. before the first aggregate exists.
    """
    if not g.directions_initialized:
        log.info("global directions uninitialized; using uniform weights")
        return ProjectionWeights.ones(sorted(padded))
    by_client: dict[int, dict[LayerId, LayerWeights]] = {}
    for c in sorted(padded):
        lw: dict[LayerId, LayerWeights] = {}
        for lid, pp in padded[c].items():
            glayer = g.layers[lid]
            v_a, _ = first_right_singular_vector(pp.a_padded)
            v_b, _ = first_right_singular_vector(pp.b_padded)
            alpha_a = float(np.clip(abs(np.dot(v_a, glayer.v_a)), 0.0, 1.0))
            alpha_b = float(np.clip(abs(np.dot(v_b, glayer.v_b)), 0.0, 1.0))
            lw[lid] = LayerWeights(alpha_a=alpha_a, alpha_b=alpha_b)
        by_client[c] = lw
    return ProjectionWeights(by_client=by_client)


def weighted_masked_average(
    padded: Mapping[int, PaddedPair],
    weights: Mapping[int, LayerWeights],
    previous: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Masked averaging with per-client consistency weights, for one layer.

    Entries whose weighted coverage falls below the denominator guard keep
    the previous global value.
    """
    if not padded:
        raise ValueError("weighted_masked_average requires at least one client")
    missing = [c for c in padded if c not in weights]
    if missing:
        raise ValueError(f"missing weights for clients {missing}")
    cids = sorted(padded)
    prev_a, prev_b = previous if previous is not None else (None, None)
    w_a = np.array([weights[c].alpha_a for c in cids])[:, None, None]
    w_b = np.array([weights[c].alpha_b for c in cids])[:, None, None]
    a_vals = np.stack([padded[c].a_padded for c in cids])
    a_masks = np.stack([padded[c].mask_a for c in cids])
    b_vals = np.stack([padded[c].b_padded for c in cids])
    b_masks = np.stack([padded[c].mask_b for c in cids])
    a_bar = _masked_ratio(
        w_a * (a_vals * a_masks), w_a * a_masks, prev_a,
        guard=WEIGHT_DENOMINATOR_GUARD,
    )
    b_bar = _masked_ratio(
        w_b * (b_vals * b_masks), w_b * b_masks, prev_b,
        guard=WEIGHT_DENOMINATOR_GUARD,
    )
    return a_bar, b_bar


def update_global_directions(
    g: GlobalState, aggregates: Mapping[LayerId, tuple[np.ndarray, np.ndarray]]
) -> GlobalState:
    """New global state from this round's aggregates, with refreshed tracked
    directions and an incremented round index.

    A degenerate (all-zero) aggregate matrix keeps the previous direction for
    that factor rather than inventing one.
    """
    layers: dict[LayerId, GlobalLayer] = {}
    for lid, (a_bar, b_bar) in aggregates.items():
        prev = g.layers[lid]
        v_a, degen_a = first_right_singular_vector(a_bar)
        v_b, degen_b = first_right_singular_vector(b_bar)
        if degen_a and prev.v_a is not None:
            log.info("layer %s: zero aggregate A, keeping previous direction", lid.value)
            v_a = prev.v_a
        if degen_b and prev.v_b is not None:
            log.info("layer %s: zero aggregate B, keeping previous direction", lid.value)
            v_b = prev.v_b
        layers[lid] = GlobalLayer(a=a_bar.copy(), b=b_bar.copy(), v_a=v_a, v_b=v_b)
    return GlobalState(layers=layers, rank=g.rank, round_index=g.round_index + 1)


def _summarize(alphas: list[float]) -> dict[str, float]:
    arr = np.asarray(alphas)
    return {"min": float(arr.min()), "mean": float(arr.mean()), "max": float(arr.max())}


def horus_aggregate(
    updates: Mapping[int, ClientUpdate], g: GlobalState, cfg: HorusConfig
) -> AggregationOutcome:
    """Full server step: score, flag, align, weight, aggregate, track.

    Flagged clients contribute nothing to the aggregate. If every client is
    flagged the round is skipped and the global state is returned unchanged.
    """
    if not updates:
        raise ValueError("horus_aggregate requires at least one update")
    dims = g.dims()
    features = {
        c: client_features(u, cfg.k, cfg.source) for c, u in sorted(updates.items())
    }
    detection = detect_round(features, cfg.lam, cfg.mode)
    benign = sorted(set(updates) - detection.flagged)
    if not benign:
        log.warning(
            "all %d clients flagged; aggregation skipped, global state unchanged",
            len(updates),
        )
        return AggregationOutcome(
            state=g, detection=detection, alpha_summary=None, skipped=True,
            features=features,
        )
    padded = {c: pad_to_global(updates[c], dims) for c in benign}
    weights = projection_weights(padded, g)
    aggregates: dict[LayerId, tuple[np.ndarray, np.ndarray]] = {}
    for lid in LayerId:
        layer_padded = {c: padded[c][lid] for c in benign}
        prev = (g.layers[lid].a, g.layers[lid].b)
        aggregates[lid] = weighted_masked_average(
            layer_padded, weights.layer(lid), previous=prev
        )
    state = update_global_directions(g, aggregates)
    summary = None if weights.uniform else _summarize(weights.all_alphas())
    return AggregationOutcome(
        state=state, detection=detection, alpha_summary=summary, features=features
    )


# --- classical baselines -------------------------------------------------


def masked_sq_distances(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """(n, n) squared distances between rows on each pair's common support.

    With 0/1 masks, d2_ij = (m*v^2)_i.m_j + m_i.(m*v^2)_j - 2 (m*v)_i.(m*v)_j,
    in O(n^2 + nP) memory. Values are first centred on each coordinate's
    masked mean: differences on common support are unchanged, and the
    products do not cancel when rows sit far from the origin.
    """
    masks = np.asarray(masks, dtype=float)
    mean = np.einsum("ij,ij->j", values, masks) / np.maximum(masks.sum(axis=0), 1.0)
    centred = values - mean
    centred *= masks
    gram = centred @ centred.T
    sq = np.square(centred, out=centred) @ masks.T
    d2 = sq + sq.T - 2.0 * gram
    return np.maximum(d2, 0.0, out=d2)  # rounding can leave tiny negatives


def krum_select(
    vectors: np.ndarray, masks: np.ndarray, f: int, m: int = 1
) -> tuple[list[int], np.ndarray]:
    """Krum selection over flattened client vectors with 0/1 masks.

    Squared distances on both clients' common support come from
    :func:`masked_sq_distances`. Each client's score is the sum of squared
    distances to its n - f - 2 nearest neighbours; the ``m`` lowest-scoring
    clients win, ties broken toward lower index. Returns (winners, scores).
    """
    n = len(vectors)
    n_neighbors = n - f - 2
    if n_neighbors < 1:
        raise ConfigurationError(
            f"krum needs n - f - 2 >= 1 neighbours (n={n}, f={f})"
        )
    vectors, masks = np.asarray(vectors, dtype=float), np.asarray(masks, dtype=float)
    m = min(m, n)
    d2 = masked_sq_distances(vectors, masks)
    # A Gram distance is within 4 (P + 2) eps (s_i + s_j) of the exact one,
    # where s_i <= sum_j d2_ij is client i's centred squared norm. Every client
    # whose score could be among the m best is re-scored exactly, so ties
    # break as they do on exact distances.
    eps = np.finfo(float).eps
    err = 16.0 * n_neighbors * (vectors.shape[1] + 2) * eps * d2.sum(axis=1).max()
    np.fill_diagonal(d2, np.inf)
    scores = np.sort(d2, axis=1)[:, :n_neighbors].sum(axis=1)
    for i in np.flatnonzero(scores <= np.partition(scores, m - 1)[m - 1] + err):
        exact = np.square((vectors - vectors[i]) * masks * masks[i]).sum(axis=1)
        exact[i] = np.inf
        scores[i] = np.sort(exact)[:n_neighbors].sum()
    return np.argsort(scores, kind="stable")[:m].tolist(), scores


def masked_median(stack: np.ndarray, masks: np.ndarray, prev) -> np.ndarray:
    """Entry-wise median over covering clients; uncovered entries keep prev."""
    vals = np.where(masks > 0, stack, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN slices
        med = np.nanmedian(vals, axis=0)
    covered = masks.sum(axis=0) > 0
    base = np.zeros_like(med) if prev is None else np.asarray(prev, dtype=float)
    return np.where(covered, med, base)


def masked_trimmed_mean(
    stack: np.ndarray, masks: np.ndarray, beta: float, prev
) -> np.ndarray:
    """Entry-wise beta-trimmed mean over covering clients.

    For each entry with c covering clients, drops floor(beta * c) values from
    each tail of the ascending sort and averages the remainder. Uncovered
    entries keep prev.
    """
    if not 0.0 <= beta < 0.5:
        raise ConfigurationError(f"beta must be in [0, 0.5), got {beta}")
    counts = masks.sum(axis=0).astype(int)
    vals = np.where(masks > 0, stack, np.nan)
    ordered = np.sort(vals, axis=0)  # NaNs sort to the end
    filled = np.nan_to_num(ordered, nan=0.0)
    csum = np.concatenate([np.zeros((1,) + filled.shape[1:]), np.cumsum(filled, axis=0)])
    t = np.floor(beta * counts).astype(int)
    hi = np.clip(counts - t, 0, len(stack))
    lo = np.minimum(t, hi)
    kept = np.maximum(hi - lo, 1)
    total = np.take_along_axis(csum, hi[None], axis=0)[0] - np.take_along_axis(
        csum, lo[None], axis=0
    )[0]
    out = total / kept
    covered = counts > 0
    base = np.zeros_like(out) if prev is None else np.asarray(prev, dtype=float)
    return np.where(covered, out, base)


def baseline_aggregate(
    kind: AggregatorKind, updates: Mapping[int, ClientUpdate], g: GlobalState
) -> GlobalState:
    """Classical aggregation rules on dimension-aligned updates.

    Updates are padded to the global shapes first; selection rules (krum,
    multi_krum) operate on the flattened concatenation of both layers' A and
    B with distances restricted to common support, while coordinate rules
    (median, trimmed_mean) act entry-wise over covering clients.
    """
    if not updates:
        raise ValueError("baseline_aggregate requires at least one update")
    if kind.name == "horus":
        raise ValueError("use horus_aggregate for the horus pipeline")
    kind.check_feasible(len(updates))
    dims = g.dims()
    cids = sorted(updates)
    padded = {c: pad_to_global(updates[c], dims) for c in cids}

    selected = cids
    if kind.name in ("krum", "multi_krum"):
        flat = [flatten_padded(padded[c]) for c in cids]
        vectors = np.stack([v for v, _ in flat])
        masks = np.stack([mk for _, mk in flat])
        n_best = 1 if kind.name == "krum" else kind.m
        winners, _ = krum_select(vectors, masks, kind.f, m=n_best)
        selected = [cids[i] for i in winners]

    aggregates: dict[LayerId, tuple[np.ndarray, np.ndarray]] = {}
    for lid in LayerId:
        prev_a, prev_b = g.layers[lid].a, g.layers[lid].b
        if kind.name in ("fedavg", "krum", "multi_krum"):
            layer_padded = {c: padded[c][lid] for c in selected}
            aggregates[lid] = masked_average(layer_padded, previous=(prev_a, prev_b))
        else:
            a_stack = np.stack([padded[c][lid].a_padded for c in cids])
            a_masks = np.stack([padded[c][lid].mask_a for c in cids])
            b_stack = np.stack([padded[c][lid].b_padded for c in cids])
            b_masks = np.stack([padded[c][lid].mask_b for c in cids])
            if kind.name == "median":
                a_bar = masked_median(a_stack, a_masks, prev_a)
                b_bar = masked_median(b_stack, b_masks, prev_b)
            else:
                a_bar = masked_trimmed_mean(a_stack, a_masks, kind.beta, prev_a)
                b_bar = masked_trimmed_mean(b_stack, b_masks, kind.beta, prev_b)
            aggregates[lid] = (a_bar, b_bar)

    layers = {
        lid: GlobalLayer(
            a=aggregates[lid][0].copy(),
            b=aggregates[lid][1].copy(),
            v_a=g.layers[lid].v_a,
            v_b=g.layers[lid].v_b,
        )
        for lid in LayerId
    }
    return GlobalState(layers=layers, rank=g.rank, round_index=g.round_index + 1)
