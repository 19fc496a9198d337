"""Per-client poisoning scores from adapter spectra, with adaptive flagging.

Each client's score combines two per-layer spectral indicators of its LoRA-A
matrices: the top-k energy ratio (concentration along dominant directions)
and the spectral entropy (dispersion across directions). Both are read from
the singular-value arrays that :func:`decompose_round` gets for the whole
round at once, one stacked SVD per shape, and computed for the whole round
in one array pass per layer; the scores are computed over arrays too. Both
are reduced to absolute deviations from round-wise reference statistics, so
the score is insensitive to matrix shape and to anything shared by the whole
round's population. Only LoRA-A is read; LoRA-B is deliberately never
touched here (an optional ablation source exists for comparison experiments).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import ConfigurationError
from .lora import ClientUpdate, LayerId
from .spectral import decompose_many, percentile, spectral_entropy, topk_energy_ratio

__all__ = [
    "MatrixSource",
    "LayerFeatures",
    "HopsScore",
    "Percentile",
    "TopM",
    "DetectionMode",
    "RoundDetection",
    "UpdateDecomposition",
    "decompose_round",
    "client_features",
    "hops_scores",
    "flag_clients",
    "detect_round",
]

log = logging.getLogger(__name__)

SIGMA_GUARD = 1e-12


class MatrixSource(str, Enum):
    """Which adapter factor feeds detection. A is the default; B exists only
    for ablation runs."""

    A = "a"
    B = "b"


@dataclass(frozen=True)
class LayerFeatures:
    entropy_h: float
    ratio_rk: float


@dataclass(frozen=True)
class HopsScore:
    """A client's outlier score: the mean of its per-layer sub-scores."""

    score: float
    per_layer: Mapping[LayerId, float]

    def __post_init__(self):
        object.__setattr__(self, "per_layer", dict(self.per_layer))


@dataclass(frozen=True)
class Percentile:
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 100.0:
            raise ConfigurationError(f"expected p in [0, 100], got {self.p}")


@dataclass(frozen=True)
class TopM:
    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ConfigurationError(f"top-m count must be >= 0, got {self.m}")


DetectionMode = Percentile | TopM


@dataclass(frozen=True)
class RoundDetection:
    """Outcome of one round of detection."""

    scores: Mapping[int, HopsScore]
    threshold_theta: float
    flagged: frozenset[int]
    mode: DetectionMode
    skipped: bool = False

    def __post_init__(self):
        object.__setattr__(self, "scores", dict(self.scores))
        object.__setattr__(self, "flagged", frozenset(self.flagged))


# One submission's factors, each as the (singular values, first right
# singular vector) pair :func:`horus.spectral.decompose_many` returns, keyed
# (layer, factor) like the blocks of :func:`horus.lora.round_layout`.
UpdateDecomposition = dict[tuple[LayerId, str], tuple[np.ndarray, np.ndarray]]


def decompose_round(
    updates: Mapping[int, ClientUpdate],
) -> dict[int, UpdateDecomposition]:
    """Every adapter factor of every submission, decomposed once at its own
    shape, by one stacked SVD per distinct shape; keyed by ascending id."""
    cids = sorted(updates)
    keys = [
        (cid, lid, factor)
        for cid in cids
        for lid in updates[cid].layers
        for factor in ("a", "b")
    ]
    results = decompose_many(
        getattr(updates[cid].layers[lid], factor) for cid, lid, factor in keys
    )
    out: dict[int, UpdateDecomposition] = {cid: {} for cid in cids}
    for (cid, lid, factor), result in zip(keys, results):
        out[cid][lid, factor] = result
    return out


def client_features(
    decompositions: Mapping[int, UpdateDecomposition], k: int,
    source: MatrixSource = MatrixSource.A,
) -> dict[int, dict[LayerId, LayerFeatures]]:
    """Spectral entropy and top-k energy ratio per client and instrumented
    layer, from a round's decompositions (:func:`decompose_round`).

    Features read the layer's A spectrum alone (``source=B`` swaps in B for
    ablation runs). Per layer, the spectra of one length are stacked and
    reduced by rows, bit for bit :func:`horus.spectral.spectral_entropy` and
    :func:`horus.spectral.topk_energy_ratio` (``k`` clamped to the length)
    of each spectrum alone.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    out: dict[int, dict[LayerId, LayerFeatures]] = {c: {} for c in decompositions}
    for lid in LayerId:
        by_len: dict[int, list[tuple[int, np.ndarray]]] = {}
        for c, d in decompositions.items():
            values, _ = d[lid, source.value]
            by_len.setdefault(len(values), []).append((c, values))
        for group in by_len.values():
            entropies, ratios = _row_features(np.stack([s for _, s in group]), k)
            for (c, _), h, r in zip(group, entropies, ratios):
                out[c][lid] = LayerFeatures(entropy_h=h, ratio_rk=r)
    return out


def _row_features(s: np.ndarray, k: int) -> tuple[list[float], list[float]]:
    """Entropy and top-k ratio of each row of ``s``. Rows with a zero
    normalized value take the 1-D functions, which sum fewer entropy terms."""
    total = s.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = s / total[:, None]
        entropies = -(p * np.log(p)).sum(axis=1)
        ratios = s[:, :k].sum(axis=1) / total
    for i in np.flatnonzero(~(p > 0.0).all(axis=1)):
        entropies[i] = spectral_entropy(s[i])
        ratios[i] = topk_energy_ratio(s[i], k)
    return entropies.tolist(), ratios.tolist()


def hops_scores(
    features: Mapping[int, Mapping[LayerId, LayerFeatures]], lam: float
) -> dict[int, HopsScore]:
    """Outlier scores as absolute deviations from round-wise statistics.

    Per layer, with deviations d_c = 1 - R_k and entropies H_c over the
    participating clients:

        sub_c = lam * |d_c - mean(d)| + (1 - lam) * |(H_c - mean(H)) / std(H)|

    where std is the population form (divisor n). If std(H) is below the
    degeneracy guard the entropy term is zero for everyone. The client score
    is the arithmetic mean of its two layer sub-scores.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    if len(features) < 2:
        raise ValueError("round statistics need at least 2 participating clients")
    cids = sorted(features)
    per_layer_subs: dict[LayerId, np.ndarray] = {}
    for lid in LayerId:
        dev = np.array([1.0 - features[c][lid].ratio_rk for c in cids])
        ent = np.array([features[c][lid].entropy_h for c in cids])
        mu_r = dev.mean()
        mu_h = ent.mean()
        sigma_h = ent.std()
        energy_term = np.abs(dev - mu_r)
        if sigma_h <= SIGMA_GUARD:
            entropy_term = np.zeros_like(ent)
        else:
            entropy_term = np.abs((ent - mu_h) / sigma_h)
        per_layer_subs[lid] = lam * energy_term + (1.0 - lam) * entropy_term
    # summed in layer order and halved: np.mean's bits for each client's pair
    scores = (sum(per_layer_subs.values()) / len(per_layer_subs)).tolist()
    columns = {lid: subs.tolist() for lid, subs in per_layer_subs.items()}
    return {
        c: HopsScore(score, {lid: col[i] for lid, col in columns.items()})
        for i, (c, score) in enumerate(zip(cids, scores))
    }


def flag_clients(
    scores: Mapping[int, HopsScore], mode: DetectionMode
) -> RoundDetection:
    """Flag outliers either above an adaptive percentile or as the top m scores.

    Percentile mode flags strictly above the threshold. TopM mode flags the
    min(m, n) highest scores, breaking ties toward lower client ids, and
    reports the highest unflagged score as the threshold.
    """
    if not scores:
        raise ValueError("flag_clients requires a non-empty score map")
    if isinstance(mode, Percentile):
        theta = percentile([s.score for s in scores.values()], mode.p)
        flagged = frozenset(c for c, s in scores.items() if s.score > theta)
    elif isinstance(mode, TopM):
        ordered = sorted(scores.items(), key=lambda cs: (-cs[1].score, cs[0]))
        m = min(mode.m, len(ordered))
        flagged = frozenset(c for c, _ in ordered[:m])
        theta = ordered[m][1].score if m < len(ordered) else float("-inf")
    else:
        raise TypeError(f"unknown detection mode: {mode!r}")
    return RoundDetection(
        scores=scores, threshold_theta=float(theta), flagged=flagged, mode=mode
    )


def detect_round(
    features: Mapping[int, Mapping[LayerId, LayerFeatures]], lam: float,
    mode: DetectionMode,
) -> RoundDetection:
    """Score and flag one round's population, skipping degenerate rounds.

    Detection needs at least three participants and is skipped below that,
    letting every client pass. With one there are no round statistics to
    deviate from. With two, both clients sit symmetrically around the round
    mean: their energy deviations are equal and their entropy z-scores are
    +1 and -1, so their scores differ only by rounding, and rounding would
    decide which one is flagged.
    """
    if len(features) < 3:
        log.warning(
            "detection skipped: %d participant(s), need at least 3", len(features)
        )
        zero = {
            c: HopsScore(0.0, {lid: 0.0 for lid in LayerId}) for c in features
        }
        return RoundDetection(
            scores=zero,
            threshold_theta=float("inf"),
            flagged=frozenset(),
            mode=mode,
            skipped=True,
        )
    return flag_clients(hops_scores(features, lam), mode)
