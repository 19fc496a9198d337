"""Server-side aggregation: masked averaging, projection-guided weighting,
global-direction tracking, and classical robust baselines.

Every rule reduces one (clients x entries) round matrix built by
:func:`horus.lora.pad_round`, with rows in ascending client id order, so
results are independent of dict insertion order and of any upstream
parallelism. Entries of the global matrices that no (weighted) client covers
in a round keep their previous values, which keeps the broadcast well-defined
when participation varies across architectures.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .detection import (
    DetectionMode,
    LayerFeatures,
    MatrixSource,
    Percentile,
    RoundDetection,
    UpdateDecomposition,
    client_features,
    decompose_round,
    detect_round,
)
from .errors import ConfigurationError
from .lora import (
    ClientUpdate,
    GlobalLayer,
    GlobalState,
    LayerId,
    pad_round,
    round_layout,
)
from .spectral import decompose_many

__all__ = [
    "AggregatorKind",
    "HorusConfig",
    "AggregationOutcome",
    "masked_mean",
    "projection_weights",
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

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigurationError(f"lambda must be in [0, 1], got {self.lam}")
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class AggregationOutcome:
    """Result of one server step; a baseline rule detects and decomposes
    nothing, and a skipped step returns the state it was given."""

    state: GlobalState
    detection: RoundDetection | None
    alpha_summary: dict[str, float] | None = None
    skipped: bool = False
    features: Mapping[int, dict[LayerId, LayerFeatures]] | None = None
    decompositions: Mapping[int, UpdateDecomposition] | None = None


def masked_mean(
    values: np.ndarray, masks: np.ndarray, weights: np.ndarray, previous: np.ndarray
) -> np.ndarray:
    """Weighted mean of each column over the rows that cover it.

    ``values`` and the 0/1 ``masks`` are (n, P), with ``values`` zero
    wherever ``masks`` is, as :func:`horus.lora.pad_round` pads them;
    ``weights`` broadcasts against them, (n, 1) for one weight per row or
    (n, P) per entry. Columns whose weighted coverage ``sum(weights * masks)``
    does not exceed the denominator guard keep the entry of ``previous``.
    """
    num = (weights * values).sum(axis=0)
    den = (weights * masks).sum(axis=0)
    covered = den > WEIGHT_DENOMINATOR_GUARD
    return np.where(covered, num / np.where(covered, den, 1.0), previous)


def projection_weights(
    decompositions: Sequence[UpdateDecomposition], g: GlobalState
) -> np.ndarray:
    """Absolute inner products of client first right singular vectors with the
    tracked global directions, as an (n, 2 * layers) array with one column
    per block of the :func:`horus.lora.round_layout`.

    Each vector comes from the decomposition of the client's unpadded matrix
    (:func:`horus.detection.decompose_round`) and is zero-extended to the
    global width; zero-padding a matrix's columns pads its right singular
    vectors the same way, so no padded matrix is decomposed. Falls back to
    uniform weights (all ones) while the global directions are
    uninitialized, i.e. before the first aggregate exists.
    """
    layout = round_layout(g)
    if not g.directions_initialized:
        log.info("global directions uninitialized; using uniform weights")
        return np.ones((len(decompositions), len(layout)))
    alphas = np.empty((len(decompositions), len(layout)))
    for j, (lid, factor, _, _) in enumerate(layout):
        g_v = getattr(g.layers[lid], "v_" + factor)
        vs = np.zeros((len(decompositions), len(g_v)))
        for i, d in enumerate(decompositions):
            v = d[lid, factor][1]
            vs[i, : len(v)] = v
        # (1, q) @ (q, 1) products, each the dot np.dot forms; gemv rounds differently
        np.abs(np.matmul(vs[:, None, :], g_v[:, None])[:, 0, 0], out=alphas[:, j])
    return np.clip(alphas, 0.0, 1.0, out=alphas)


def update_global_directions(g: GlobalState) -> GlobalState:
    """``g`` with each tracked direction refreshed from its aggregate matrix,
    as a new state that shares the matrices of ``g``; ``g`` is not changed.

    A degenerate (all-zero) aggregate matrix keeps the direction ``g`` holds
    for that factor rather than inventing one.
    """
    vectors = iter(decompose_many(m for p in g.layers.values() for m in (p.a, p.b)))
    layers: dict[LayerId, GlobalLayer] = {}
    for lid, prev in g.layers.items():
        (_, v_a), (_, v_b) = next(vectors), next(vectors)
        if not prev.a.any() and prev.v_a is not None:
            log.info("layer %s: zero aggregate A, keeping previous direction", lid.value)
            v_a = prev.v_a
        if not prev.b.any() and prev.v_b is not None:
            log.info("layer %s: zero aggregate B, keeping previous direction", lid.value)
            v_b = prev.v_b
        layers[lid] = GlobalLayer(prev.a, prev.b, v_a, v_b)
    return GlobalState(layers)


def _summarize(alphas: np.ndarray) -> dict[str, float]:
    # per client, each layer's (A, B) pair in turn: summed in block order
    # instead, the mean changes in its last bits, and so do rounds.jsonl bytes
    arr = alphas.reshape(len(alphas), 2, -1).transpose(0, 2, 1).ravel()
    return {"min": float(arr.min()), "mean": float(arr.mean()), "max": float(arr.max())}


def horus_aggregate(
    updates: Mapping[int, ClientUpdate], g: GlobalState, cfg: HorusConfig
) -> AggregationOutcome:
    """Full server step: decompose, score, flag, align, weight, aggregate, track.

    Each submitted factor is decomposed once; detection, the consistency
    weights and the outcome's ``decompositions`` all read that one result.
    Flagged clients contribute nothing to the aggregate. If every client is
    flagged the round is skipped and the global state is returned unchanged.
    """
    if not updates:
        raise ValueError("horus_aggregate requires at least one update")
    decompositions = decompose_round(updates)
    features = client_features(decompositions, cfg.k, cfg.source)
    detection = detect_round(features, cfg.lam, cfg.mode)
    benign = sorted(set(updates) - detection.flagged)
    if not benign:
        log.warning(
            "all %d clients flagged; aggregation skipped, global state unchanged",
            len(updates),
        )
        return AggregationOutcome(
            state=g, detection=detection, alpha_summary=None, skipped=True,
            features=features, decompositions=decompositions,
        )
    values, masks = pad_round([updates[c] for c in benign], g)
    alphas = projection_weights([decompositions[c] for c in benign], g)
    previous = g.flat()
    # block by block, each with its (n, 1) weight column: for memory. One
    # call with the weights repeated per entry gives the same bits, but holds
    # an (n, P) weight matrix and (n, P) products at once (a 300-client round
    # peaked ~5 MB higher)
    flat = np.concatenate([
        masked_mean(values[:, cols], masks[:, cols], alphas[:, j, None], previous[cols])
        for j, (_, _, _, cols) in enumerate(round_layout(g))
    ])
    state = update_global_directions(g.with_flat(flat))
    summary = _summarize(alphas) if g.directions_initialized else None
    return AggregationOutcome(
        state=state, detection=detection, alpha_summary=summary, features=features,
        decompositions=decompositions,
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
    # A Gram distance is within 4 (P + 2) eps (s_i + s_j) of the exact one,
    # where s_i <= sum_j d2_ij is client i's centred squared norm. Every client
    # whose score could be among the m best is re-scored exactly, so ties
    # break as they do on exact distances. Rows so large that the Gram
    # products overflow leave the bound non-finite: then every client is
    # re-scored, and a distance past float range counts as inf.
    eps = np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = masked_sq_distances(vectors, masks)
        err = 16.0 * n_neighbors * (vectors.shape[1] + 2) * eps * d2.sum(axis=1).max()
        np.fill_diagonal(d2, np.inf)
        scores = np.sort(d2, axis=1)[:, :n_neighbors].sum(axis=1)
        near = scores <= np.partition(scores, m - 1)[m - 1] + err
        for i in np.flatnonzero(near) if np.isfinite(err) else range(n):
            exact = np.square((vectors - vectors[i]) * masks * masks[i]).sum(axis=1)
            exact[i] = np.inf
            scores[i] = np.sort(exact)[:n_neighbors].sum()
    return np.argsort(scores, kind="stable")[:m].tolist(), scores


def masked_median(stack: np.ndarray, masks: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Entry-wise median over covering clients (uncovered entries keep prev),
    with the bits of ``np.nanmedian``, whose masked sum makes a zero +0.0."""
    vals = np.full(stack.shape, np.nan)
    np.copyto(vals, stack, where=masks > 0)
    vals.sort(axis=0)  # covering values first, ascending
    counts = masks.sum(axis=0).astype(int)
    low = np.take_along_axis(vals, (counts - 1)[None] // 2, axis=0)[0]
    high = np.take_along_axis(vals, counts[None] // 2, axis=0)[0]
    return np.where(counts > 0, (low + high + 0.0) / 2.0, prev)


def masked_trimmed_mean(
    stack: np.ndarray, masks: np.ndarray, beta: float, prev: np.ndarray
) -> np.ndarray:
    """Entry-wise beta-trimmed mean over covering clients.

    For each entry with c covering clients, drops floor(beta * c) values from
    each tail of the ascending sort and averages the remainder. Uncovered
    entries keep prev.
    """
    if not 0.0 <= beta < 0.5:
        raise ConfigurationError(f"beta must be in [0, 0.5), got {beta}")
    counts = masks.sum(axis=0).astype(int)
    # one (n + 1, P) buffer: row 0 is zero, and below it the covering values
    # are sorted (NaNs to the end), zero-filled and summed in place
    csum = np.full((len(stack) + 1,) + stack.shape[1:], np.nan)
    csum[0] = 0.0
    vals = csum[1:]
    np.copyto(vals, stack, where=masks > 0)
    vals.sort(axis=0)
    np.nan_to_num(vals, copy=False, nan=0.0)
    np.cumsum(vals, axis=0, out=vals)
    t = np.floor(beta * counts).astype(int)
    hi = np.clip(counts - t, 0, len(stack))
    lo = np.minimum(t, hi)
    kept = np.maximum(hi - lo, 1)
    total = np.take_along_axis(csum, hi[None], axis=0)[0] - np.take_along_axis(
        csum, lo[None], axis=0
    )[0]
    return np.where(counts > 0, total / kept, prev)


def baseline_aggregate(
    kind: AggregatorKind, updates: Mapping[int, ClientUpdate], g: GlobalState,
    *, padded: tuple[np.ndarray, np.ndarray] | None = None,
) -> AggregationOutcome:
    """Classical aggregation rules on dimension-aligned updates.

    All rules reduce the padded round matrix: fedavg is a masked mean with
    unit weights, krum and multi_krum put unit weights on their winners
    (distances restricted to common support), and median and trimmed_mean act
    entry-wise over covering clients. ``padded`` is that matrix, if the caller
    holds it: ``pad_round`` of the updates in ascending id order.
    """
    if not updates:
        raise ValueError("baseline_aggregate requires at least one update")
    if kind.name == "horus":
        raise ValueError("use horus_aggregate for the horus pipeline")
    kind.check_feasible(len(updates))
    values, masks = padded or pad_round([updates[c] for c in sorted(updates)], g)
    previous = g.flat()
    if kind.name == "median":
        flat = masked_median(values, masks, previous)
    elif kind.name == "trimmed_mean":
        flat = masked_trimmed_mean(values, masks, kind.beta, previous)
    else:
        weights = np.ones((len(values), 1))
        if kind.name in ("krum", "multi_krum"):
            n_best = 1 if kind.name == "krum" else kind.m
            winners, _ = krum_select(values, masks, kind.f, m=n_best)
            weights[:] = 0.0
            weights[winners] = 1.0
        flat = masked_mean(values, masks, weights, previous)
    return AggregationOutcome(g.with_flat(flat), detection=None)
