"""Data- and model-poisoning attacks for the colluding cohort.

Model-poisoning attacks operate on flattened, dimension-aligned update
vectors: the cohort's benign-style updates (its knowledge set) are reduced
to coordinate-wise mean and standard deviation, from which a malicious point
is crafted. The caller reshapes the result back into adapter pairs and trims
to each attacker's local shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .aggregation import masked_sq_distances
from .errors import ConfigurationError, SimulationError
from .spectral import inverse_normal_cdf

__all__ = [
    "AttackKind",
    "PerturbationDirection",
    "AttackConfig",
    "flip_labels",
    "lie_attack",
    "min_max_attack",
    "min_sum_attack",
    "fang_trimmed_attack",
    "craft_malicious_vectors",
]

GAMMA_SLACK_REL = 1e-6


class AttackKind(str, Enum):
    NONE = "none"
    LABEL_FLIP = "label_flip"
    LIE = "lie"
    MIN_MAX = "min_max"
    MIN_SUM = "min_sum"
    FANG_TRIMMED = "fang_trimmed"


class PerturbationDirection(str, Enum):
    """Direction of the crafted deviation for the min-max/min-sum attacks."""

    NEG_STD = "neg_std"
    INVERSE_UNIT = "inverse_unit"


@dataclass(frozen=True)
class AttackConfig:
    """Which attack runs, when it starts, and who colludes."""

    kind: AttackKind = AttackKind.NONE
    start_round: int = 1
    attacker_ids: frozenset[int] = frozenset()
    z_override: float | None = None
    gamma_init: float = 1.0
    search_iters: int = 20
    direction: PerturbationDirection = PerturbationDirection.NEG_STD
    knowledge: str = "own"  # "own": attacker cohort only; "all": every participant

    def __post_init__(self):
        object.__setattr__(self, "attacker_ids", frozenset(self.attacker_ids))
        if self.start_round < 1:
            raise ConfigurationError(f"start_round must be >= 1, got {self.start_round}")
        if self.gamma_init <= 0:
            raise ConfigurationError(f"gamma_init must be > 0, got {self.gamma_init}")
        if self.search_iters < 1:
            raise ConfigurationError(f"search_iters must be >= 1, got {self.search_iters}")
        if self.knowledge not in ("own", "all"):
            raise ConfigurationError(f"knowledge must be 'own' or 'all', got {self.knowledge!r}")
        if self.kind is not AttackKind.NONE and not self.attacker_ids:
            raise ConfigurationError("attack configured but attacker_ids is empty")


def flip_labels(labels, num_classes: int):
    """Mirror class ids: y -> C - 1 - y. Applying twice restores the input."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    return num_classes - 1 - labels


def _cohort_stats(benign) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    benign = np.asarray(benign, dtype=float)
    if benign.ndim != 2 or len(benign) < 2:
        raise ValueError("need at least 2 benign-style vectors")
    return benign, benign.mean(axis=0), benign.std(axis=0)


def lie_attack(benign, n: int, m: int, z_override: float | None = None) -> np.ndarray:
    """Craft mean + z * std over the cohort's benign-style vectors.

    Without an override, z = Phi^{-1}((n - m - s) / (n - m)) with
    s = floor(n/2) + 1 - m; this targets the largest coordinate-wise shift
    that a majority-based defense would still accept. All attackers submit
    the identical vector.
    """
    benign, mu, sigma = _cohort_stats(benign)
    if z_override is not None:
        z = float(z_override)
    else:
        if n - m < 1:
            raise ConfigurationError(f"need n > m for the z formula (n={n}, m={m})")
        s = n // 2 + 1 - m
        q = (n - m - s) / (n - m)
        if s <= 0 or not 0.0 < q < 1.0:
            raise ConfigurationError(
                f"z undefined for n={n}, m={m} (s={s}); provide z_override"
            )
        z = inverse_normal_cdf(q)
    return mu + z * sigma


def _maximize_gamma(
    value_fn: Callable[[float], float], bound: float, gamma_init: float, iters: int
) -> float:
    """Largest gamma with value_fn(gamma) <= bound, by doubling then bisection.

    Assumes the feasible set is an interval [0, gamma*] (value_fn is convex
    in gamma and feasible at 0). Iterates past `iters` steps if needed until
    the result is maximal within 0.5% and the constraint slack is below
    GAMMA_SLACK_REL relative to the bound.
    """
    if value_fn(0.0) > bound:
        raise SimulationError("cohort mean violates the distance constraint")
    hi = float(gamma_init)
    doublings = 0
    while value_fn(hi) <= bound:
        hi *= 2.0
        doublings += 1
        if doublings > 30:
            raise SimulationError("distance constraint never binds")
    lo = hi / 2.0 if doublings else 0.0
    steps = 0
    while steps < 300:
        if (
            steps >= iters
            and hi <= lo * 1.005 + 1e-15
            and bound - value_fn(lo) <= GAMMA_SLACK_REL * bound
        ):
            break
        mid = 0.5 * (lo + hi)
        if value_fn(mid) <= bound:
            lo = mid
        else:
            hi = mid
        steps += 1
    return lo


def _perturbation(mu: np.ndarray, sigma: np.ndarray,
                  direction: PerturbationDirection) -> np.ndarray | None:
    p = -sigma if direction is PerturbationDirection.NEG_STD else -mu
    norm = np.linalg.norm(p)
    if norm == 0.0:
        return None
    return p / norm


def min_max_attack(
    benign,
    direction: PerturbationDirection = PerturbationDirection.NEG_STD,
    gamma_init: float = 1.0,
    iters: int = 20,
) -> np.ndarray:
    """Push mean + gamma * p as far as possible while staying no farther from
    any benign vector than the benign vectors are from each other.

    The farthest pair comes from :func:`masked_sq_distances` (all-ones masks)
    and the bound is its exact distance. With c = benign - mean, each search
    step reads ||mean + gamma p - b_i||^2 = gamma^2 p.p - 2 gamma c_i.p + c_i.c_i.
    """
    benign, mu, sigma = _cohort_stats(benign)
    d2 = masked_sq_distances(benign, np.ones_like(benign))
    i, j = np.unravel_index(np.argmax(d2), d2.shape)
    bound = float(np.linalg.norm(benign[i] - benign[j]))
    p = _perturbation(mu, sigma, direction)
    if bound == 0.0 or p is None:
        return mu.copy()
    c = benign - mu
    c_sq, c_p, p_sq = np.einsum("ij,ij->i", c, c), c @ p, float(p @ p)

    def value_fn(gamma: float) -> float:
        d_sq = (gamma * gamma * p_sq - 2.0 * gamma * c_p + c_sq).max()
        return float(np.sqrt(max(d_sq, 0.0)))

    gamma = _maximize_gamma(value_fn, bound, gamma_init, iters)
    return mu + gamma * p


def min_sum_attack(
    benign,
    direction: PerturbationDirection = PerturbationDirection.NEG_STD,
    gamma_init: float = 1.0,
    iters: int = 20,
) -> np.ndarray:
    """As min_max_attack, but bounded by the worst benign sum of squared
    distances to the rest of the cohort.

    With c = benign - mean (sum_j c_j = 0) that bound is
    max_i (n c_i.c_i + sum_j c_j.c_j), so no pairwise matrix is formed.
    """
    benign, mu, sigma = _cohort_stats(benign)
    n, c = len(benign), benign - mu
    c_sq = np.einsum("ij,ij->i", c, c)
    bound = float((n * c_sq + c_sq.sum()).max())
    p = _perturbation(mu, sigma, direction)
    if bound == 0.0 or p is None:
        return mu.copy()
    sum_sq, sum_p, p_sq = float(c_sq.sum()), float((c @ p).sum()), float(p @ p)

    def value_fn(gamma: float) -> float:
        return n * gamma * gamma * p_sq - 2.0 * gamma * sum_p + sum_sq

    gamma = _maximize_gamma(value_fn, bound, gamma_init, iters)
    return mu + gamma * p


def fang_trimmed_attack(benign, rng: np.random.Generator) -> np.ndarray:
    """Per-coordinate draw just outside the benign spread, opposing its sign.

    Coordinates with positive benign mean are sampled uniformly from
    [mu - 4 sigma, mu - 3 sigma], negative ones from [mu + 3 sigma,
    mu + 4 sigma] (sign(0) counts as positive). Each attacker calls this
    with its own stream, so draws differ across attackers.
    """
    benign, mu, sigma = _cohort_stats(benign)
    toward_neg = mu >= 0.0
    low = np.where(toward_neg, mu - 4.0 * sigma, mu + 3.0 * sigma)
    high = np.where(toward_neg, mu - 3.0 * sigma, mu + 4.0 * sigma)
    return low + rng.random(mu.shape) * (high - low)


def craft_malicious_vectors(
    cfg: AttackConfig,
    knowledge: np.ndarray,
    n_total: int,
    attacker_ids: list[int],
    rngs: Mapping[int, np.random.Generator],
) -> dict[int, np.ndarray]:
    """One malicious flattened vector per attacker for a model-poisoning kind.

    ``knowledge`` stacks the benign-style vectors visible to the cohort.
    LIE and min-max/min-sum yield one shared vector; the trimming attack
    draws independently per attacker from its own stream.
    """
    kind = cfg.kind
    if kind is AttackKind.LIE:
        v = lie_attack(knowledge, n_total, len(cfg.attacker_ids), cfg.z_override)
        return {a: v.copy() for a in attacker_ids}
    if kind is AttackKind.MIN_MAX:
        v = min_max_attack(knowledge, cfg.direction, cfg.gamma_init, cfg.search_iters)
        return {a: v.copy() for a in attacker_ids}
    if kind is AttackKind.MIN_SUM:
        v = min_sum_attack(knowledge, cfg.direction, cfg.gamma_init, cfg.search_iters)
        return {a: v.copy() for a in attacker_ids}
    if kind is AttackKind.FANG_TRIMMED:
        return {a: fang_trimmed_attack(knowledge, rngs[a]) for a in sorted(attacker_ids)}
    raise ValueError(f"{kind} is not a model-poisoning attack")
