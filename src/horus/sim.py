"""Synthetic hyper-heterogeneous federated simulation.

Clients of the backbone widths the config lists (the shipped configs run
from 10 clients of two widths to 300 of three) train low-rank adapters on
Dirichlet-skewed shards of a Gaussian-mixture classification task. Each round
the server runs the configured aggregation rule (optionally with poisoning
detection) and broadcasts the result; an attacker cohort can replace its
submissions from a configured round onward.

Everything is driven by seeded, per-purpose random streams so that the full
metric trace is a pure function of the configuration, independent of the
client-level thread pool.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

import numpy as np

from . import attacks as atk
from .aggregation import AggregationOutcome, baseline_aggregate, horus_aggregate
from .attacks import AttackKind
from .detection import decompose_round
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
from .spectral import topk_energy_ratio

if TYPE_CHECKING:
    from .config import RunConfig

__all__ = [
    "Dataset",
    "TaskConfig",
    "ClientProfile",
    "LocalModel",
    "RoundMetrics",
    "RoundResult",
    "Simulation",
    "generate_task",
    "dirichlet_partition",
    "adapter_gradients",
    "local_train",
    "warmup",
]

log = logging.getLogger(__name__)

PARTICIPATION_POOL = (1.0, 0.75, 0.5)

# Initial adapter-A: a random rank-(r/2) product of uniform factors, scaled
# to the Frobenius norm an iid uniform(+-scale/sqrt(d_in)) draw would have.
# With B = 0, A's gradient B^T dW and B's dW A^T stay in that rank-(r/2)
# span, so every benign A keeps exact rank r/2 for the whole run: its tail
# singular values are ~1e-16 of the first, and criterion 11 compares A and B
# CoVs of ~3e-16, rounding noise. A full-rank init does not blind detection:
# under a full-rank geometric (q = 0.5) init, LIE recall stayed 1.0 on three
# seeds. Replacing this init is ROADMAP item 2.
LORA_A_INIT_SCALE = 0.1


class Dataset(NamedTuple):
    x: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class TaskConfig:
    """Synthetic classification task: Gaussian clusters on random directions.

    The class-mean directions live inside a ``signal_dim``-dimensional
    subspace of the feature space, mimicking the low intrinsic dimension of
    real data; this is what makes learned adapter updates concentrate their
    energy in a few directions. ``signal_dim=None`` uses the full space.
    """

    feature_dim: int = 64
    num_classes: int = 10
    samples_per_class: int = 4000
    class_separation: float = 3.5
    noise_scale: float = 0.8
    dirichlet_alpha: float = 0.3
    signal_dim: int | None = 5
    seed: int = 0

    def __post_init__(self):
        if self.feature_dim < 2:
            raise ConfigurationError(f"feature_dim must be >= 2, got {self.feature_dim}")
        if self.num_classes < 2:
            raise ConfigurationError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.samples_per_class < 1:
            raise ConfigurationError("samples_per_class must be >= 1")
        # written so that NaN fails each check
        if not (0 < self.class_separation < math.inf and 0 < self.noise_scale < math.inf):
            raise ConfigurationError("class_separation and noise_scale must be finite and > 0")
        if not 0 < self.dirichlet_alpha < math.inf:
            raise ConfigurationError("dirichlet_alpha must be finite and > 0")
        if self.signal_dim is not None and not 1 <= self.signal_dim <= self.feature_dim:
            raise ConfigurationError(
                f"signal_dim must be in [1, feature_dim], got {self.signal_dim}"
            )


@dataclass
class ClientProfile:
    """One client's participation rate and data shards; its id, architecture
    and width are its :class:`LocalModel`'s."""

    participation_rate: float
    train: Dataset
    test: Dataset


def generate_task(
    cfg: TaskConfig, *, order: np.ndarray | None = None
) -> tuple[Dataset, Dataset]:
    """Training pool plus a class-balanced global test set.

    Class means are random unit directions scaled by the separation factor;
    samples add isotropic Gaussian noise. The pool's samples are drawn class
    by class, ``samples_per_class`` of each, so class c is drawn as rows
    [c * m, (c + 1) * m). The test set holds one fifth of the per-class
    training count (at least 10, at most 200) per class, in the same layout.

    ``order`` (a permutation of the pool's rows) returns the pool as
    ``pool[order]``, without a second copy: each class's draw is written
    straight to its rows in that order.
    """
    rng = np.random.default_rng(cfg.seed)
    if cfg.signal_dim is not None and cfg.signal_dim < cfg.feature_dim:
        basis, _ = np.linalg.qr(rng.normal(size=(cfg.feature_dim, cfg.signal_dim)))
        means = rng.normal(size=(cfg.num_classes, cfg.signal_dim)) @ basis.T
    else:
        means = rng.normal(size=(cfg.num_classes, cfg.feature_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    means *= cfg.class_separation

    def sample(per_class: int, rows: np.ndarray | None = None) -> Dataset:
        n = cfg.num_classes * per_class
        x = np.empty((n, cfg.feature_dim))
        y = np.empty(n, dtype=int)
        for c in range(cfg.num_classes):
            drawn = slice(c * per_class, (c + 1) * per_class)
            dest = drawn if rows is None else rows[drawn]
            noise = rng.normal(size=(per_class, cfg.feature_dim))
            noise *= cfg.noise_scale
            noise += means[c]  # the bits of means[c] + noise_scale * noise
            x[dest] = noise
            y[dest] = c
        return Dataset(x, y)

    rows = None
    if order is not None:
        n = cfg.num_classes * cfg.samples_per_class
        order = np.asarray(order)
        rows = np.full(n, -1, dtype=np.intp)  # where each drawn sample goes
        if order.shape == (n,) and order.min() >= 0 and order.max() < n:
            rows[order] = np.arange(n)
        if (rows < 0).any():  # a repeated row leaves another unwritten
            raise ValueError(f"order must be a permutation of the {n} pool rows")
    train = sample(cfg.samples_per_class, rows)
    test = sample(min(200, max(10, cfg.samples_per_class // 5)))
    return train, test


def dirichlet_partition(
    labels: np.ndarray, num_clients: int, alpha: float, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shards of the indices of ``labels``, with per-class proportions drawn
    from Dirichlet(alpha).

    Draws are Gamma(alpha, 1) normalized per class. If some client ends up
    with an empty shard the draw is repeated (up to 100 times), after which
    the largest shards donate one sample each round-robin until every client
    has at least one; so there must be at least one sample per client.
    """
    if not 0 < alpha < math.inf:  # NaN fails too
        raise ConfigurationError(f"alpha must be finite and > 0, got {alpha}")
    if num_clients < 1:
        raise ConfigurationError("need at least one client")
    if num_clients > len(labels):
        raise ConfigurationError(
            f"{num_clients} clients need at least as many samples, got {len(labels)}"
        )
    class_indices = [np.flatnonzero(labels == c) for c in np.unique(labels)]

    shards: list[np.ndarray] = []
    for _ in range(100):
        pieces: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
        for idx in class_indices:
            idx = rng.permutation(idx)
            gammas = rng.gamma(alpha, 1.0, size=num_clients)
            total = gammas.sum()
            props = gammas / total if total > 0 else np.full(num_clients, 1.0 / num_clients)
            counts = np.floor(props * len(idx)).astype(int)
            remainder = len(idx) - counts.sum()
            fractional = props * len(idx) - counts
            for i in np.argsort(-fractional, kind="stable")[:remainder]:
                counts[i] += 1
            for cl, piece in enumerate(np.split(idx, np.cumsum(counts)[:-1])):
                pieces[cl].append(piece)
        shards = [np.concatenate(p) for p in pieces]
        if all(len(s) > 0 for s in shards):
            break
    while any(len(s) == 0 for s in shards):
        empty = min(i for i, s in enumerate(shards) if len(s) == 0)
        donor = max(range(num_clients), key=lambda i: (len(shards[i]), -i))
        # which sample moves is part of the partition: the donor's last one
        shards[empty], shards[donor] = shards[donor][-1:], shards[donor][:-1]
    return [np.sort(s) for s in shards]


def _split_shard(
    indices: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """80/20 (train, test) split of one client's shard indices."""
    perm = rng.permutation(indices)
    n_test = max(1, len(perm) // 5) if len(perm) >= 2 else 0
    return perm[n_test:], perm[:n_test]


# --- local model ----------------------------------------------------------


@dataclass
class LocalModel:
    """Frozen two-layer backbone with trainable adapter pairs.

    Forward pass: logits = (W2 + B2 A2) relu((W1 + B1 A1) x).
    """

    client_id: int
    arch_id: int
    w1: np.ndarray = field(repr=False)  # (h, d)
    w2: np.ndarray = field(repr=False)  # (C, h)
    lora: dict[LayerId, LoraPair] | None = None  # installed by warm-up

    def layer_dims(self) -> dict[LayerId, LayerDims]:
        h, d = self.w1.shape
        c = self.w2.shape[0]
        return {
            LayerId.FEATURE_FIRST: LayerDims(d_in=d, d_out=h),
            LayerId.CLASSIFIER: LayerDims(d_in=h, d_out=c),
        }


def new_model(client_id: int, arch_id: int, feature_dim: int, num_classes: int,
              hidden_width: int, rng: np.random.Generator) -> LocalModel:
    w1 = rng.normal(0.0, 1.0 / np.sqrt(feature_dim), size=(hidden_width, feature_dim))
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden_width), size=(num_classes, hidden_width))
    return LocalModel(client_id=client_id, arch_id=arch_id, w1=w1, w2=w2)


def _class_sum(g: np.ndarray) -> np.ndarray:
    """Sum of a class-major (C, n) array over its classes, bit for bit what
    numpy's pairwise sum gives for each contiguous row of the (n, C) array:
    fewer than 8 items in sequence; up to 128 in 8 interleaved accumulators,
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest one by
    one; more by halving at a multiple of 8. The sum is then added to 0.0."""
    c = len(g)
    if c < 8:
        return g.sum(axis=0)  # along the outer axis numpy adds in sequence
    if c > 128:
        half = c // 2 - c // 2 % 8
        return _class_sum(g[:half]) + _class_sum(g[half:])
    stop = c - c % 8
    acc = g[:8]
    for start in range(8, stop, 8):
        acc = acc + g[start : start + 8]
    pairs = acc[0::2] + acc[1::2]
    quads = pairs[0::2] + pairs[1::2]
    total = quads[0] + quads[1]
    for row in g[stop:]:
        total += row
    total += 0.0
    return total


def _softmax_gradient(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy w.r.t. class-major (C, n) logits,
    computed in place, with the bits of the row-major computation."""
    n = logits.shape[1]
    logits -= logits.max(axis=0)
    np.exp(logits, out=logits)
    logits /= _class_sum(logits)
    logits.reshape(-1)[y * n + np.arange(n)] -= 1.0  # the true classes
    logits /= n
    return logits


def _backprop(w1: np.ndarray, w2: np.ndarray, x: np.ndarray,
              y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the mean cross-entropy w.r.t. both dense weight matrices.

    The softmax gradient is computed class-major and copied back, so that
    BLAS gets every product in its row-major layout. The copy stays because
    OpenBLAS rounds a product differently when an operand comes transposed,
    at many small shapes: handing the class-major array to both backward
    products as a transposed operand kept the shipped configs' bits but
    changed those of 17-class training at h = 9 and of warm-up.
    """
    hact = x @ w1.T
    np.maximum(hact, 0.0, out=hact)
    dlogits = _softmax_gradient((hact @ w2.T).T.copy(), y).T.copy()
    dw2 = dlogits.T @ hact
    dz1 = dlogits @ w2
    np.multiply(dz1, hact > 0.0, out=dz1)
    return dz1.T @ x, dw2


def adapter_gradients(w1, w2, a1, b1, a2, b2, x, y, *, deltas=None, out=None):
    """(dA1, dB1, dA2, dB2) of the mean cross-entropy, backbone held fixed.

    ``deltas``, if given, are the products ``(b1 @ a1, b2 @ a2)`` already
    formed; ``out``, if given, holds four arrays that receive the gradients.
    """
    if deltas is None:
        w1_eff, w2_eff = b1 @ a1, b2 @ a2
        w1_eff += w1
        w2_eff += w2
    else:
        w1_eff, w2_eff = w1 + deltas[0], w2 + deltas[1]
    dw1, dw2 = _backprop(w1_eff, w2_eff, x, y)
    da1, db1, da2, db2 = (None,) * 4 if out is None else out
    return (np.matmul(b1.T, dw1, out=da1), np.matmul(dw1, a1.T, out=db1),
            np.matmul(b2.T, dw2, out=da2), np.matmul(dw2, a2.T, out=db2))


def warmup(
    model: LocalModel,
    shard: Dataset,
    lora_init: Mapping[LayerId, LoraPair],
    epochs: int,
    lr: float,
    batch: int,
    rng: np.random.Generator,
) -> LocalModel:
    """Train the full backbone on local data, then freeze it and install the
    initial adapters (B zero, A from the shared server init). A frozen layer is
    a read-only view of immutable bytes: it changes only by being rebound."""
    if model.lora is not None:
        raise SimulationError(f"client {model.client_id}: backbone already frozen")
    if shard.n == 0:
        log.warning("client %d: empty shard, warm-up skipped", model.client_id)
    for _ in range(epochs):
        perm = rng.permutation(shard.n)
        for start in range(0, shard.n, batch):
            idx = perm[start : start + batch]
            dw1, dw2 = _backprop(model.w1, model.w2, shard.x.take(idx, axis=0),
                                 shard.y.take(idx))
            model.w1 -= lr * dw1
            model.w2 -= lr * dw2
    model.w1, model.w2 = (np.frombuffer(w.tobytes(), dtype=w.dtype).reshape(w.shape)
                          for w in (model.w1, model.w2))
    model.lora = {lid: pair for lid, pair in lora_init.items()}
    return model


@functools.lru_cache(maxsize=None)
def _flat_layout(shapes: tuple[tuple[int, int], ...]) -> tuple[tuple[slice, tuple], ...]:
    """Where each matrix of ``shapes`` sits in one flat buffer, in order."""
    ends = accumulate(p * q for p, q in shapes)
    return tuple((slice(end - p * q, end), (p, q)) for (p, q), end in zip(shapes, ends))


def local_train(
    model: LocalModel,
    shard: Dataset,
    epochs: int,
    lr: float,
    batch: int,
    rng: np.random.Generator,
) -> ClientUpdate:
    """Mini-batch gradient descent on the adapters only; backbone untouched.

    Returns the trained pairs as the client's submission (the model keeps
    them too). An empty shard leaves the adapters unchanged. Training stops
    at the first step that leaves a non-finite entry, keeping the adapters
    from before it; later epochs draw no batch permutation.

    The four adapters are matrix views of one flat buffer, and each step is
    formed in a second buffer of the same layout, with its views made once
    per call: a step writes its four gradient products straight into the
    second buffer's views, scales it and subtracts it from the first, so
    that it is one scale, one subtract and one finiteness check; a finite
    step makes the second buffer the adapters' and the first the next
    step's. The first step adds the broadcast pairs' cached deltas to the
    backbone instead of forming B @ A again. Every product keeps the
    operands, layout and order of a loop that builds each step from new
    arrays, so the bits are that loop's; for the same reason ``_backprop``
    keeps its copy back to row-major.
    """
    if model.lora is None:
        raise SimulationError(f"client {model.client_id}: warm-up must run first")
    if shard.n == 0:
        log.warning("client %d: empty shard, returning adapters unchanged", model.client_id)
        return ClientUpdate(dict(model.lora))
    pairs = model.lora[LayerId.FEATURE_FIRST], model.lora[LayerId.CLASSIFIER]
    adapters = [pairs[0].a, pairs[0].b, pairs[1].a, pairs[1].b]
    layout = _flat_layout(tuple(m.shape for m in adapters))
    flat, step = np.concatenate(adapters, axis=None), np.empty(layout[-1][0].stop)
    views, step_views = ([buf[cols].reshape(shape) for cols, shape in layout]
                         for buf in (flat, step))
    n = shard.n
    per_epoch = -(-n // batch)
    # a poisoned broadcast can overflow anything from the cached deltas on
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = [pair.delta for pair in pairs]
        for i in range(epochs * per_epoch):
            start = i % per_epoch * batch
            if start == 0:
                perm = rng.permutation(n)
            idx = perm[start : start + batch]
            adapter_gradients(model.w1, model.w2, *adapters, shard.x.take(idx, axis=0),
                              shard.y.take(idx), deltas=deltas, out=step_views)
            step *= lr
            np.subtract(flat, step, out=step)  # flat - lr * grads
            # keep the last finite adapters instead of submitting garbage
            if not np.isfinite(step).all():
                log.warning("client %d: non-finite training step, stopping early",
                            model.client_id)
                break
            flat, step = step, flat
            views, step_views = step_views, views
            adapters, deltas = views, None
    # every step was checked finite above, and the views are 2-D
    a1, b1, a2, b2 = views
    model.lora = {
        LayerId.FEATURE_FIRST: LoraPair._trusted(a1, b1),
        LayerId.CLASSIFIER: LoraPair._trusted(a2, b2),
    }
    return ClientUpdate._trusted(dict(model.lora))


# unit roundoffs, and the ranges within which certify's float32 error bound
# holds (see its docstring)
U32, U64 = 2.0**-24, 2.0**-53
NORM_RANGE = (1e-30, 1e30)
MAX_WIDTH = 2**20
ROW_NORM_RANGE = (2.0**-64, 2.0**64)


class Float32Copy(NamedTuple):
    """A dataset's features cast once to float32 for :func:`certify`."""

    xt: np.ndarray  # (d, n) float32, feature-major
    norms: np.ndarray  # (n,) float32 Euclidean norms of the float64 rows
    truth: np.ndarray  # (n,) flat index of (y_i, i) in (C, n) class-major logits


def float32_copy(dataset: Dataset) -> Float32Copy | None:
    """``dataset`` cast for :func:`certify`, or None if a row's norm is not
    finite or lies outside ``ROW_NORM_RANGE``, or the rows are wider than
    ``MAX_WIDTH``: there the float32 error bound would not hold."""
    x = dataset.x
    norms = np.linalg.norm(x, axis=1)
    lo, hi = ROW_NORM_RANGE
    if x.shape[1] > MAX_WIDTH or not ((lo <= norms) & (norms <= hi)).all():
        return None
    return Float32Copy(
        xt=np.ascontiguousarray(x.T, dtype=np.float32),
        norms=norms.astype(np.float32),
        truth=dataset.y * dataset.n + np.arange(dataset.n),
    )


def _gamma(n: int, u: float) -> float:
    return n * u / (1 - n * u)


@functools.cache
def _bound_factors(d: int, h: int) -> tuple[float, float]:
    """K / (max_c ||W2,c|| ||W1||_F) for the margins of float32 logits and
    of float64 logits recomputed by row, each against the margins of the
    plain float64 path and with the safety factor 2 (see :func:`certify`)."""
    c32 = 2 * U32 + U32**2 + _gamma(d, U32) * (1 + U32) ** 2
    c64 = _gamma(d, U64)
    from32 = (_gamma(h, U32) * (1 + U32) + U32) * (1 + c32) + c32  # |L32 - L|
    from64 = _gamma(h, U64) * (1 + c64) + c64  # |L64 - L|
    return 4 * (from32 + from64), 4 * (from64 + from64)


def _margins(logits: np.ndarray, truth: np.ndarray, axis: int = 0) -> np.ndarray:
    """True-class logit minus the best other one, per row of the data:
    ``axis`` is the class axis of ``logits`` (0 for class-major, 1 for
    row-major), and ``truth`` holds the flat index of each row's true class.
    The logits are overwritten."""
    true = logits.take(truth)
    logits.put(truth, -np.inf)
    true -= logits.max(axis=axis)
    return true


class Norms(NamedTuple):
    """``||W1||_F`` and ``max_c ||W2,c||`` of each of a stack of models'
    effective weights, and whether the error bounds of :func:`certify` hold
    for it: both norms in ``NORM_RANGE`` (so finite) and the hidden layer no
    wider than ``MAX_WIDTH``."""

    f: np.ndarray  # (g,)
    m: np.ndarray  # (g,)
    ok: np.ndarray  # (g,) bool


def _layer_norms(w1: np.ndarray, w2: np.ndarray) -> Norms:
    """The :class:`Norms` of the layer stacks ``w1`` (g, h, d) and ``w2``
    (g, C, h)."""
    flat = w1.reshape(len(w1), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.sqrt(np.einsum("ij,ij->i", flat, flat))
        m = np.sqrt(np.square(w2).sum(axis=2).max(axis=1))
    lo, hi = NORM_RANGE
    return Norms(f, m, (lo <= f) & (f <= hi) & (lo <= m) & (m <= hi)
                 & (w1.shape[1] <= MAX_WIDTH))


def _recomputed(w1: np.ndarray, w2: np.ndarray, fm: np.ndarray, xmax: np.ndarray,
                x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's float64 margin less the float64 bound, and whether the
    margin is positive, for the rows ``x`` (g, r, d) with labels ``y`` (g,
    r) of each of a stack of models with layers ``w1`` (g, h, d) and ``w2``
    (g, C, h), whose norms f, m multiply to ``fm`` (g,); ``xmax`` (g,)
    bounds each model's row norms. A row is decided, a hit exactly when its
    margin is positive, where the first is positive (NaN decides nothing).
    The products are stacked, in whatever summation order BLAS takes: the
    bound holds in any."""
    hidden = np.matmul(x, w1.transpose(0, 2, 1))
    np.maximum(hidden, 0.0, out=hidden)
    logits = np.matmul(hidden, w2.transpose(0, 2, 1))
    c = logits.shape[2]
    margin = _margins(logits.reshape(-1, c), np.arange(0, logits.size, c) + y.ravel(),
                      axis=1).reshape(y.shape)
    _, k64 = _bound_factors(w1.shape[2], w1.shape[1])
    slack = np.abs(margin)
    slack -= (k64 * fm * xmax)[:, None]
    return slack, margin > 0


def _certified_hits(w1: np.ndarray, w2: np.ndarray, norms: tuple[float, float],
                    dataset: Dataset, cast: Float32Copy
                    ) -> tuple[np.ndarray, np.ndarray] | None:
    """Each row's slack (see :class:`Certificate`) under the plain float64
    path and whether it is a hit, decided from float32 logits and float64
    row recomputes; None where that cannot decide every row. ``norms`` are
    the layers' f and m (see :class:`Norms`). The slacks are float64 lower
    bounds, and never 0."""
    # scale both layers by powers of two, exactly, to norms in [1/2, 1)
    (f, e1), (m, e2) = map(math.frexp, norms)
    w1, w2 = np.ldexp(w1, -e1), np.ldexp(w2, -e2)
    k32, _ = _bound_factors(w1.shape[1], w1.shape[0])
    hidden = w1.astype(np.float32) @ cast.xt
    np.maximum(hidden, 0.0, out=hidden)
    margin = _margins(w2.astype(np.float32) @ hidden, cast.truth)
    hit = margin > 0
    bound = cast.norms * np.float32(k32 * f * m)
    slack = np.abs(margin) - bound  # a float32 difference never underflows to 0
    rows = np.flatnonzero(~(slack > 0))  # NaN decides nothing
    slack = slack.astype(np.float64)
    if rows.size:
        (again,), (again_hit,) = _recomputed(
            w1[None], w2[None], np.array([f * m]), cast.norms.max(keepdims=True).astype(float),
            dataset.x.take(rows, axis=0)[None], dataset.y.take(rows)[None])
        if not (again > 0).all():  # NaN decides nothing
            return None
        slack[rows] = again
        hit[rows] = again_hit
    slack /= np.float64(f * m) * cast.norms
    return slack, hit


def _plain_pass(w1: np.ndarray, w2: np.ndarray, fm: float, dataset: Dataset) -> Certificate:
    """The full pass of :func:`certify` from the plain float64 logits
    ``relu(x W1^T) W2^T`` themselves, for the layers ``w1``, ``w2`` whose
    norms f, m multiply to ``fm`` (NaN where they leave ``NORM_RANGE``). A
    row is a hit where the argmax of its logits is its label, ties going to
    the lowest class. Its margins are the plain margins, so a row's slack is
    |margin_i| / (||x_i|| f m) with no error term. A margin of 0 gets slack
    0, which decides nothing, and so does every row if ``fm`` is NaN or a
    row's norm lies outside ``ROW_NORM_RANGE``."""
    x, y = dataset
    hidden = x @ w1.T
    np.maximum(hidden, 0.0, out=hidden)
    logits = hidden @ w2.T
    hit = logits.argmax(axis=1) == y
    margin = _margins(logits, np.arange(0, logits.size, logits.shape[1]) + y, axis=1)
    norms = np.linalg.norm(x, axis=1)
    slack = np.abs(margin, out=margin)
    lo, hi = ROW_NORM_RANGE
    # NaN fails each test; where all pass, every margin is finite
    if not math.isnan(fm) and lo <= norms.min() and norms.max() <= hi:
        slack /= fm * norms
    else:  # the drift bound need not hold: nothing carries
        slack[:] = 0.0
    return _nearest(slack, hit, fm, float(norms.max()))


def _toward_zero16(slack: np.ndarray) -> np.ndarray:
    """Float16 lower bounds on the nonnegative ``slack``.

    Rounding to float16 moves a normal value by at most 2^-11 of itself, so
    each entry is first shrunk by 2^-10 of itself, which also covers the
    float32 or float64 rounding of its making; entries below float16's
    normal range become 0. No slack comes near float16's largest value: a
    margin is at most about 2 f m ||x_i||. The map is monotone, so sorted
    slacks give sorted bounds.
    """
    shrunk = slack * (1 - 2.0**-10)
    shrunk[shrunk < 2.0**-14] = 0
    return shrunk.astype(np.float16)


# the largest share of the rows a carried certificate recomputes in float64;
# past it, the full pass is cheaper
RECOMPUTE_SHARE = 1 / 8


class Certificate(NamedTuple):
    """What a full pass over a test set proved about one model's plain
    float64 margins, and the drift carried since (see :func:`certify`).

    A row's slack is |margin_i| / (||x_i|| f m): its true-class margin over
    its norm and the full pass's layer norms f = ``||W1||_F`` and m =
    ``max_c ||W2,c||``. The certificate keeps only the rows a carry reads:
    the k = floor(n ``RECOMPUTE_SHARE``) rows of smallest slack. A carry
    shares these arrays with its prior.
    """

    hits: int  # the plain float64 hit count of the weights certified
    recomputed: int | None  # rows the carry recomputed; None after a full pass
    spent: float  # the drift bounds delta summed over the carries since the full pass
    fm: float  # f m at the full pass; NaN where f or m left NORM_RANGE
    passed: int  # the full pass's hit count
    bound: np.ndarray  # (k,) float16 lower bounds on the kept rows' slacks, ascending
    rows: np.ndarray  # (k,) the kept rows' ids
    hit: np.ndarray  # (k,) whether each kept row was a hit at the full pass
    cut: float  # a lower bound on every other row's slack
    xmax: float  # the largest row norm ||x_i||


def _nearest(slack: np.ndarray, hit: np.ndarray, fm: float, xmax: float) -> Certificate:
    """The certificate of a full pass whose rows have the slack lower bounds
    ``slack`` (0 where undecided) and the hits ``hit``, with f m = ``fm``
    and the row norms at most ``xmax``."""
    k = math.floor(RECOMPUTE_SHARE * slack.size)
    near = np.argpartition(slack, k)[: k + 1]  # k < n, so k + 1 rows exist
    near = near[np.argsort(slack[near])]
    bound = _toward_zero16(slack[near])
    kept = near[:k].astype(np.int32)  # half the bytes of an index array
    hits = int(np.count_nonzero(hit))
    return Certificate(hits, None, 0.0, fm, hits, bound[:k], kept, hit[kept], float(bound[k]),
                       xmax)


def certify(weights: tuple[np.ndarray, np.ndarray], norms: Norms,
            datasets: Dataset | Sequence[Dataset], cast: Float32Copy | None,
            priors: Sequence[Certificate | None], drift: np.ndarray,
            ) -> list[Certificate | None]:
    """The plain float64 hit counts of a stack of g models, with the
    effective weights ``weights`` ((g, h, d) and (g, C, h)), each on its set
    (``datasets`` holds one set for all or one per model), as certificates;
    None exactly for an empty set. ``norms`` are the weights'
    :func:`_layer_norms`. A model's certificate in ``priors``, of the same
    backbone on the same set, is carried first, ``drift`` (g,) holding the
    :func:`_drift_bound` from the weights it certified to these; all the
    carries take one stack (see :func:`_carried`). Where the carry cannot
    decide, a full pass counts, one model at a time: in float32 with
    ``cast``, the :func:`float32_copy` of the one set (below), and otherwise,
    or where the float32 pass cannot decide, from the plain float64 logits
    themselves (:func:`_plain_pass`). A full pass reads every row, so its
    products amortise their call, and a stack of them would hold g models'
    logits over the whole set. A full pass keeps the rows of smallest slack
    (see :class:`Certificate`).

    The float32 count is the float64 count exactly. With u32 = 2^-24, u64
    = 2^-53, g(n, u) = nu / (1 - nu) (the dot-product error bound of Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, section
    3.1), d the input and h the hidden width, let

        c32 = 2 u32 + u32^2 + g(d, u32) (1 + u32)^2,    c64 = g(d, u64),
        K = 4 max_c ||W2,c|| ||W1||_F [(g(h, u32) (1 + u32) + u32) (1 + c32)
                                       + g(h, u64) (1 + c64) + c32 + c64].

    Every float32 logit of row i lies within E_i / 4 = K ||x_i|| / 4 of the
    logit the plain float64 path computes, in any summation order: casting
    costs u32 per factor, a relu moves a value no further than its input
    error, and |W2,c| |W1| |x_i| <= ||W2,c|| ||W1||_F ||x_i||. So a margin,
    one logit less another, lies within E_i / 2, and the safety factor 2
    more than covers the rounding of K, of the margins and of the norms. A
    norm is a square root of a sum of at most h d squares, so in any
    summation order (one stack's reduction need not add them as one
    matrix's norm does) it lies within a relative g(h d + 2, u64) of the
    exact norm, far below the factor 2 at any width up to ``MAX_WIDTH``. A
    row whose true-class margin exceeds E_i is a hit and one whose margin
    is below -E_i a miss; a NaN margin decides neither. Rows left are
    recomputed in float64, against K with both float32 terms replaced by
    their float64 ones, and if any is still undecided (an exact tie, a dead
    relu layer) the plain pass counts them all.

    The plain pass also takes models whose ``||W1||_F`` or ``max ||W2,c||``
    lies outside ``NORM_RANGE`` (or is not finite), where its own logits
    could overflow or underflow, and models wider than ``MAX_WIDTH``. Their
    certificates keep every slack 0 and ``cut`` 0, so they never carry. Both
    layers are scaled by powers of two to norms in [1/2, 1) before the cast,
    which changes no argmax and keeps every float32 value within about
    ||x_i|| <= 2^64 and the subnormal rounding far below E_i.
    """
    g = len(priors)
    sets = [datasets] * g if isinstance(datasets, Dataset) else datasets
    ok = norms.ok.tolist()
    certs: list[Certificate | None] = [None] * g
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fm = np.where(norms.ok, norms.f * norms.m, np.nan)
        carry = [i for i in range(g) if ok[i] and sets[i].n and priors[i] is not None]
        if carry:
            members = np.array(carry)
            carried = _carried([priors[i] for i in carry], drift[members], weights,
                               members, fm, datasets)
            for i, cert in zip(carry, carried):
                certs[i] = cert
        for i in range(g):
            if certs[i] is not None or not sets[i].n:
                continue
            w1, w2 = weights[0][i], weights[1][i]
            decided = None
            if cast is not None and ok[i]:
                decided = _certified_hits(w1, w2, (float(norms.f[i]), float(norms.m[i])),
                                          sets[i], cast)
            certs[i] = (_plain_pass(w1, w2, float(fm[i]), sets[i]) if decided is None
                        else _nearest(*decided, float(fm[i]), float(cast.norms.max())))
    return certs


def _drift_bound(d: int, h: int, old: tuple[np.ndarray, np.ndarray],
                 new: tuple[np.ndarray, np.ndarray], moved: tuple[np.ndarray, np.ndarray]
                 ) -> np.ndarray:
    """delta of :func:`_carried`, per model: the plain float64 margin of a
    row x moves by at most delta ||x|| when the layer norms (f, m) go from
    ``old`` to ``new`` and the deltas move by ``moved``, (||D1' - D1||_F,
    max_c ||D2,c' - D2,c||). Each is an array over the models (or a float)."""
    (f, m), (f1, m1) = old, new
    dw1 = moved[0] + U64 * (f1 + f)
    dw2 = moved[1] + U64 * (m1 + m)
    _, k64 = _bound_factors(d, h)
    return 4 * (dw2 * f1 + m * dw1) + k64 / 2 * (f1 * m1 + f * m)


def delta_moves(old: tuple[LoraPair, ...], new: tuple[LoraPair, ...]) -> tuple[float, float]:
    """(||D1' - D1||_F, max_c ||D2,c' - D2,c||) from the deltas of the pairs
    ``old`` to those of ``new``."""
    (old1, old2), (new1, new2) = old, new
    with np.errstate(over="ignore", invalid="ignore"):
        return (float(np.linalg.norm(new1.delta - old1.delta)),
                float(np.linalg.norm(new2.delta - old2.delta, axis=1).max()))


# a carry recomputes the undecided rows of several models in one stacked
# product, in runs of models sorted by their count of undecided rows: a
# run's longest count at most RUN_SPREAD times its shortest (the others are
# padded to it), and its temporaries at most RUN_ELEMENTS float64 values
RUN_SPREAD = 2
RUN_ELEMENTS = 2**18


def _runs(counts: list[int], per_model: int, per_row: int) -> list[slice]:
    """The runs of the ascending ``counts`` (see ``RUN_SPREAD``), for
    temporaries of ``per_model`` values a model and ``per_row`` a padded
    row. A model whose rows alone pass ``RUN_ELEMENTS`` is a run of its own."""
    runs, start = [], 0
    for i, n in enumerate(counts):
        if i > start and (n > RUN_SPREAD * counts[start]
                          or (i + 1 - start) * (per_model + n * per_row) > RUN_ELEMENTS):
            runs.append(slice(start, i))
            start = i
    runs.append(slice(start, len(counts)))
    return runs


def _gathered(datasets: Dataset | Sequence[Dataset], members: np.ndarray,
              rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``rows`` (g, r) of each of the sets ``members`` of
    ``datasets`` (one set for all, or one per model), as (g, r, d) features
    and (g, r) labels."""
    if isinstance(datasets, Dataset):
        return datasets.x.take(rows, axis=0), datasets.y.take(rows)
    sets = [datasets[i] for i in members.tolist()]
    return (np.stack([s.x.take(r, axis=0) for s, r in zip(sets, rows)]),
            np.stack([s.y.take(r) for s, r in zip(sets, rows)]))


def _carried(priors: Sequence[Certificate], drift: np.ndarray,
             weights: tuple[np.ndarray, np.ndarray], members: np.ndarray, fm: np.ndarray,
             datasets: Dataset | Sequence[Dataset]) -> list[Certificate | None]:
    """Each of ``priors`` carried to the same backbone's new effective
    weights, those of the stack member ``members[j]`` of ``weights`` (whose
    f m are ``fm``, over the whole stack) on its set of ``datasets``; None
    where the full pass of :func:`certify` must decide (see below). ``drift``
    holds the :func:`_drift_bound` from the weights each prior certified to
    these.

    One step. With the backbone frozen, the effective weights W = W0 + D
    move only with the adapters' deltas D = B A. Write f, m for
    ``||W1||_F`` and ``max_c ||W2,c||`` of the old weights and f', m' for
    the new ones. For every row i the plain float64 margin moves by at most

        delta ||x_i||,   delta = 4 (dW2 f' + m dW1) + k64 (f' m' + f m) / 2,

    where dW1 = ||D1' - D1||_F + u64 (f' + f) and dW2 = max_c ||D2,c' -
    D2,c|| + u64 (m' + m) bound the change of the rounded sums W0 + D, and
    k64 is the float64 factor of :func:`_bound_factors`. Proof sketch: logit
    c of the exact path moves by W2,c' relu(W1' x) - W2,c relu(W1 x) =
    (W2,c' - W2,c) relu(W1' x) + W2,c (relu(W1' x) - relu(W1 x)); relu is
    1-Lipschitz, so that is at most (dW2 f' + m dW1) ||x_i||, and a margin,
    one logit less another, moves at most twice that. At either end the
    plain path's margin lies within k64 f m ||x_i|| / 4 of the exact one
    (k64 bounds two float64 margins against each other, with the safety
    factor 2). The whole is doubled, the safety factor of :func:`certify`.

    The chain. Let W^0 be the weights of the prior's full pass, with norms
    f0, m0, and W^1, ..., W^t those of the carries since, W^t the new ones,
    with delta_s the step bound from W^(s-1) to W^s. By the triangle
    inequality the plain margin of row i at W^t lies within

        spent ||x_i||,   spent = delta_1 + ... + delta_t,

    of its margin at W^0. The full pass proved |margin_i(W^0)| >= b_i f0 m0
    ||x_i||, with b_i a kept row's ``bound`` and b_i >= ``cut`` for every
    other row, and its count ``passed`` holds each row's hit or miss (a
    kept row's also in ``hit``). So a row with b_i f0 m0 > spent keeps a
    nonzero margin of the same sign, and with it its hit or miss (a nonzero
    margin is a hit exactly when it is positive). With limit = spent /
    (f0 m0):

    - limit >= ``cut``: more than k rows may be undecided; the full pass
      must decide, at no cost beyond this test.
    - otherwise every row not kept, and every kept row with b_i > limit,
      keeps its full-pass outcome; the kept rows with b_i <= limit, a prefix
      of the sorted bounds, are recomputed in float64 against the float64
      bound at W^t (:func:`_recomputed`), and the full pass must
      decide if one of them is still undecided. The count is the full
      pass's, less the prefix's full-pass hits, plus its recomputed hits.

    Nothing is written back: the next carry recomputes the prefix under its
    own, larger limit. The rounded sum ``spent`` and quotient ``limit``
    stay above the true moves, since each delta carries the safety factor
    2, and the bounds were rounded toward zero.

    One stack. Every step above is elementwise over the priors: their
    limits, their refusals and their prefix lengths are arrays, and the
    prefixes are recomputed in the runs of :func:`_runs`, each checked
    against its own model's float64 bound. A padded row is computed and
    ignored.
    """
    fields = Certificate(*zip(*priors))  # each field over the priors
    spent = np.array(fields.spent) + drift
    limit = spent / np.array(fields.fm)
    carried = limit < np.array(fields.cut)  # NaN decides nothing
    # each prefix counts the kept bounds at most its limit, over every
    # prior's bounds at once; the float64 probe keeps the limit from being
    # rounded to float16
    sizes = np.array([b.size for b in fields.bound])
    below = np.concatenate(fields.bound) <= np.repeat(limit, sizes)
    ends = np.cumsum(sizes)
    total = np.concatenate(([0], np.cumsum(below)))
    undecided = np.where(carried, total[ends] - total[ends - sizes], 0)
    hits = np.array(fields.passed)
    todo = np.flatnonzero(undecided)
    todo = todo[np.argsort(undecided[todo], kind="stable")]
    if todo.size:
        xmax = np.array(fields.xmax)
        _, c, h = weights[1].shape
        d = weights[0].shape[2]
        for run in _runs(undecided[todo].tolist(), h * (d + c), d + h + c):
            j = todo[run]
            counts = undecided[j]
            valid = np.arange(counts[-1]) < counts[:, None]
            rows = np.zeros(valid.shape, dtype=np.intp)  # padded with row 0
            rows[valid] = np.concatenate([fields.rows[i][:n]
                                          for i, n in zip(j.tolist(), counts.tolist())])
            was = np.zeros(valid.shape, dtype=bool)
            was[valid] = np.concatenate([fields.hit[i][:n]
                                         for i, n in zip(j.tolist(), counts.tolist())])
            stack = members[j]
            slack, hit = _recomputed(weights[0].take(stack, axis=0),
                                     weights[1].take(stack, axis=0), fm[stack], xmax[j],
                                     *_gathered(datasets, stack, rows))
            carried[j] &= ((slack > 0) | ~valid).all(axis=1)  # NaN decides nothing
            hits[j] += np.count_nonzero(hit & valid, axis=1) - np.count_nonzero(was, axis=1)
    return [Certificate._make((n, k, s) + prior[3:]) if go else None
            for prior, go, n, k, s in zip(priors, carried.tolist(), hits.tolist(),
                                          undecided.tolist(), spent.tolist())]


# --- round loop -----------------------------------------------------------


def _frobenius_norm(m: np.ndarray) -> float:
    """Frobenius norm that stays finite for any finite matrix.

    The plain norm overflows once the sum of squares passes float range (a
    diverged run can hold entries near 1e175); only then is it recomputed
    as max|m| * ||m / max|m|||, so ordinary values keep their exact bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(m))
        if not np.isfinite(norm):
            scale = float(np.abs(m).max())
            norm = scale * float(np.linalg.norm(m / scale))
    return norm


def finite_or_none(x: float | None) -> float | None:
    """``x``, or ``None`` (JSON ``null``) when it is missing or not finite."""
    return x if x is not None and np.isfinite(x) else None


@dataclass
class RoundMetrics:
    round: int
    global_accuracy: float
    mean_local_accuracy: float
    precision: float
    recall: float
    fpr: float
    payload_bytes: int
    participants: list[int]
    flagged: list[int]
    positives: list[int]
    theta: float | None
    alpha_summary: dict[str, float] | None
    frob: dict[str, dict[str, float]]
    aggregator: str
    detection_skipped: bool = False
    aggregation_skipped: bool = False

    def to_record(self) -> dict:
        rec = asdict(self)
        rec["alpha"] = rec.pop("alpha_summary")
        rec["theta"] = finite_or_none(rec["theta"])
        for norms in rec["frob"].values():
            for factor, norm in norms.items():
                norms[factor] = finite_or_none(norm)
        return rec


@dataclass
class DiagnosticRow:
    round: int
    client_id: int
    arch_id: int
    layer: str
    matrix: str
    topk_ratio: float
    flagged: bool


@dataclass
class RoundResult:
    metrics: RoundMetrics
    outcome: AggregationOutcome | None  # None if the server step did not run
    diagnostics: list[DiagnosticRow]


class Measurement(NamedTuple):
    """One client's hit counts, and the adapters they were measured with."""

    pairs: tuple[LoraPair, ...]  # in LayerId order
    norms: tuple[float, float] | None  # the effective weights' f, m; None if not ok
    # of the global and the local test set; the local one None for an empty shard
    certificates: tuple[Certificate, Certificate | None]


def _tally(tally: Counter, priors: Sequence[Certificate | None],
           certs: Sequence[Certificate]) -> None:
    """Counts in ``tally`` how :func:`certify` measured each model from its
    prior: carried (and the rows it recomputed) or refused, and in a full
    pass."""
    for prior, cert in zip(priors, certs):
        carried = cert.recomputed is not None
        tally["refused"] += prior is not None and not carried
        if carried:
            tally["carried"] += 1
            tally["recomputed"] += cert.recomputed
        else:
            tally["full"] += 1


class Simulation:
    """Deterministic round-based federation over synthetic clients.

    Per-client diagnostic rows are built only with ``diagnostics=True``
    (``horus diagnose``); otherwise every ``RoundResult.diagnostics`` is
    empty.
    """

    def __init__(self, cfg: "RunConfig", diagnostics: bool = False):
        self.cfg = cfg
        self.diagnostics = diagnostics
        root = np.random.SeedSequence(cfg.master_seed)
        ss_profiles, ss_partition, ss_clients, ss_attack, ss_partic, ss_init = (
            root.spawn(6)
        )
        profile_rng = np.random.default_rng(ss_profiles)
        self._participation_rng = np.random.default_rng(ss_partic)

        templates = cfg.expand_clients()
        n = len(templates)
        # partitioning reads only labels, and the pool draws class c as rows
        # [c * m, (c + 1) * m): every client's rows are known before any x is
        # drawn, so the pool is written once, in client order (client 0's
        # train rows, its test rows, client 1's train rows, ...), and each
        # shard is a row block of it
        task = cfg.task
        labels = np.repeat(np.arange(task.num_classes), task.samples_per_class)
        shards = dirichlet_partition(
            labels, n, task.dirichlet_alpha, np.random.default_rng(ss_partition)
        )
        split_rng = np.random.default_rng(ss_partition.spawn(1)[0])
        blocks = [idx for shard in shards for idx in _split_shard(shard, split_rng)]
        bounds = [0, *accumulate(len(idx) for idx in blocks)]
        order = np.concatenate(blocks)
        del labels, shards, blocks  # freed before the pool is drawn
        pool, self.global_test = generate_task(task, order=order)
        pool.x.flags.writeable = False  # shared by every client's views
        pool.y.flags.writeable = False
        views = [Dataset(pool.x[lo:hi], pool.y[lo:hi])
                 for lo, hi in zip(bounds, bounds[1:])]
        self._client_rngs = [np.random.default_rng(s) for s in ss_clients.spawn(n)]

        self.profiles: list[ClientProfile] = []
        self.models: list[LocalModel] = []
        for cid, (arch_id, hidden, rate) in enumerate(templates):
            if rate is None:
                rate = float(profile_rng.choice(PARTICIPATION_POOL))
            self.profiles.append(ClientProfile(rate, views[2 * cid], views[2 * cid + 1]))
            self.models.append(new_model(cid, arch_id, task.feature_dim, task.num_classes,
                                         hidden, self._client_rngs[cid]))
        self.state = self._initial_state(np.random.default_rng(ss_init))
        # each model's layer dims in LayerId order, the key of its local shape
        self._layer_dims = [tuple(m.layer_dims().values()) for m in self.models]
        attacker_ids = sorted(cfg.attack.attacker_ids)
        self._attack_rngs = {
            a: np.random.default_rng(seq)
            for a, seq in zip(attacker_ids, ss_attack.spawn(max(1, len(attacker_ids))))
        }
        self.round_index = 0
        self._backbones: list[tuple[np.ndarray, np.ndarray]] | None = None
        # each client's accuracies, from the adapters it was last measured with
        self._measured: dict[int, Measurement] = {}
        # the global test set cast for certify's float32 pass, made by
        # warm_up, after the set-up's memory peak
        self._global_cast: Float32Copy | None = None

    def _initial_state(self, rng: np.random.Generator) -> GlobalState:
        width = max(m.w1.shape[0] for m in self.models)
        task, rank = self.cfg.task, self.cfg.rank
        dims = {LayerId.FEATURE_FIRST: LayerDims(task.feature_dim, width),
                LayerId.CLASSIFIER: LayerDims(width, task.num_classes)}
        state = GlobalState.zeros(dims, rank)
        half = max(1, rank // 2)
        for lid in LayerId:
            d_in = dims[lid].d_in
            left = rng.uniform(-1.0, 1.0, size=(rank, half))
            right = rng.uniform(-1.0, 1.0, size=(half, d_in))
            a = left @ right
            a *= LORA_A_INIT_SCALE * np.sqrt(rank / 3.0) / np.linalg.norm(a)
            state.layers[lid].a = a
        return state

    def warm_up(self) -> None:
        cfg = self.cfg
        lr = cfg.warmup_lr if cfg.warmup_lr is not None else cfg.lr
        inits = self._local_states(range(len(self.models)), self.state)
        for p, model, rng in zip(self.profiles, self.models, self._client_rngs):
            # B is zero in the initial state, so delta starts at exactly 0.
            warmup(model, p.train, inits[model.client_id], cfg.warmup_epochs, lr, cfg.batch,
                   rng)
        self._backbones = [(m.w1, m.w2) for m in self.models]
        self._global_cast = float32_copy(self.global_test)

    def _check_backbones(self) -> None:
        """Frozen layers cannot be written, only rebound: compare identities."""
        assert self._backbones is not None
        for m, (w1, w2) in zip(self.models, self._backbones):
            if m.w1 is not w1 or m.w2 is not w2:
                raise SimulationError(
                    f"backbone of client {m.client_id} changed after warm-up"
                )

    def _sample_participants(self) -> list[int]:
        draws = self._participation_rng.random(len(self.profiles))
        return [cid for cid, (p, u) in enumerate(zip(self.profiles, draws))
                if u < p.participation_rate]

    def _local_states(self, client_ids, g: GlobalState) -> dict[int, dict[LayerId, LoraPair]]:
        """Each client's top-left block of ``g`` in a dict of its own,
        trimmed (and checked) once per distinct set of local layer dims:
        clients of one shape share its read-only pairs."""
        shared: dict[tuple[LayerDims, ...], dict[LayerId, LoraPair]] = {}
        states = {}
        for cid in client_ids:
            key = self._layer_dims[cid]
            if key not in shared:
                shared[key] = {lid: trim_to_local(g, lid, dims)
                               for lid, dims in zip(LayerId, key)}
            states[cid] = dict(shared[key])
        return states

    def _broadcast(self, client_ids: list[int]) -> None:
        for cid, pairs in self._local_states(client_ids, self.state).items():
            self.models[cid].lora = pairs

    def _train_participants(self, participants: list[int]) -> dict[int, ClientUpdate]:
        cfg = self.cfg
        attack = cfg.attack
        flip_active = (attack.kind is AttackKind.LABEL_FLIP
                       and attack.active(self.round_index))

        def run_one(cid: int) -> ClientUpdate:
            shard = self.profiles[cid].train
            if flip_active and cid in attack.attacker_ids:
                shard = Dataset(
                    shard.x, atk.flip_labels(shard.y, cfg.task.num_classes)
                )
            return local_train(
                self.models[cid], shard, cfg.epochs, cfg.lr, cfg.batch,
                self._client_rngs[cid],
            )

        if cfg.workers > 1 and len(participants) > 1:
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                return dict(zip(participants, pool.map(run_one, participants)))
        return {cid: run_one(cid) for cid in participants}

    def _apply_model_poisoning(
        self, submissions: dict[int, ClientUpdate], participants: list[int]
    ) -> None:
        attack = self.cfg.attack
        if attack.kind is AttackKind.LABEL_FLIP or not attack.active(self.round_index):
            return
        present = sorted(attack.attacker_ids & set(participants))
        knowledge_ids = present if attack.knowledge == "own" else sorted(participants)
        if not present or len(knowledge_ids) < 2:
            log.warning(
                "round %d: %d attacker(s) and %d knowledge vector(s); attack skipped",
                self.round_index, len(present), len(knowledge_ids),
            )
            return
        vectors, _ = pad_round([submissions[c] for c in knowledge_ids], self.state)
        with np.errstate(over="ignore", invalid="ignore"):
            crafted = atk.craft_malicious_vectors(
                attack, vectors, len(self.profiles), present, self._attack_rngs,
            )
        log.info("round %d: %s attack active for clients %s",
                 self.round_index, attack.kind.value, present)
        # equal rows (LIE, distance attacks) share pairs by shape, as a broadcast does
        by_row: dict[bytes, list[int]] = {}
        for a, vec in crafted.items():
            if not np.all(np.isfinite(vec)):
                log.warning("round %d: crafted vector for client %d is non-finite; "
                            "submitting the benign-style update", self.round_index, a)
                continue
            by_row.setdefault(vec.tobytes(), []).append(a)
        for ids in by_row.values():
            poisoned = self.state.with_flat(crafted[ids[0]])
            for a, layers in self._local_states(ids, poisoned).items():
                submissions[a] = ClientUpdate._trusted(layers)

    def _diagnostics(
        self, submissions: dict[int, ClientUpdate], outcome: AggregationOutcome | None
    ) -> list[DiagnosticRow]:
        """Top-k energy ratio of every submitted factor, read from the server
        step's decompositions; rules that decompose nothing get them here."""
        decompositions = outcome.decompositions if outcome else None
        if decompositions is None:
            decompositions = decompose_round(submissions)
        detection = outcome.detection if outcome else None
        flagged = detection.flagged if detection else frozenset()
        rows = []
        k = self.cfg.detection.k
        for cid in sorted(submissions):
            for lid in LayerId:
                for name in ("A", "B"):
                    values, _ = decompositions[cid][lid, name.lower()]
                    rows.append(
                        DiagnosticRow(
                            round=self.round_index,
                            client_id=cid,
                            arch_id=self.models[cid].arch_id,
                            layer=lid.value,
                            matrix=name,
                            topk_ratio=topk_energy_ratio(values, k),
                            flagged=cid in flagged,
                        )
                    )
        return rows

    def _aggregation_feasible(self, n_participants: int) -> bool:
        """Whether the rule can run on this round's participants; logs if not."""
        try:
            self.cfg.aggregator.check_feasible(n_participants)
            return True
        except ConfigurationError as exc:
            log.warning("round %d: %s; aggregation skipped", self.round_index, exc)
            return False

    def run_round(self) -> RoundResult:
        """One communication round: broadcast, train, attack, aggregate, measure."""
        if self._backbones is None:
            raise SimulationError("warm_up() must run before the round loop")
        cfg = self.cfg
        self.round_index += 1
        participants = self._sample_participants()
        outcome: AggregationOutcome | None = None
        diagnostics: list[DiagnosticRow] = []
        payload = 0

        if participants:
            self._broadcast(participants)
            submissions = self._train_participants(participants)
            self._apply_model_poisoning(submissions, participants)
            payload = sum(payload_bytes(u) for u in submissions.values())
            if self._aggregation_feasible(len(participants)):
                if cfg.aggregator.name == "horus":
                    outcome = horus_aggregate(submissions, self.state, cfg.detection)
                else:
                    outcome = baseline_aggregate(cfg.aggregator, submissions, self.state)
                self.state = outcome.state  # a skipped step returns the old state
            self._broadcast(participants)
            if self.diagnostics:
                diagnostics = self._diagnostics(submissions, outcome)
        else:
            log.warning("round %d: no participants, round skipped", self.round_index)

        self._check_backbones()
        metrics = self._measure(participants, outcome, payload)
        return RoundResult(metrics=metrics, outcome=outcome, diagnostics=diagnostics)

    def _measure_group(self, pairs: tuple[LoraPair, ...], ids: list[int],
                       moves: dict[tuple[LoraPair, ...], tuple[float, float]],
                       tallies: dict[str, Counter] | None) -> None:
        """Measure the models ``ids``, which hold the adapters ``pairs``, on
        both test sets, with one stack of effective weights and one drift
        bound each (see :func:`certify`); ``tallies`` counts how, if given."""
        models = [self.models[cid] for cid in ids]
        w1, w2 = np.stack([m.w1 for m in models]), np.stack([m.w2 for m in models])
        with np.errstate(over="ignore", invalid="ignore"):
            w1 += pairs[0].delta  # the bits of each model's own w1 + delta
            w2 += pairs[1].delta
        norms = _layer_norms(w1, w2)
        ok = norms.ok.tolist()
        records = [self._measured.get(cid) for cid in ids]
        # a record's certificates carry only where its norms were in range
        carry = [i for i, r in enumerate(records)
                 if r is not None and r.norms is not None and ok[i]]
        drift = np.full(len(ids), np.nan)
        priors = [(None, None)] * len(ids)
        if carry:
            moved = []
            for i in carry:
                key = records[i].pairs + pairs
                if key not in moves:
                    moves[key] = delta_moves(records[i].pairs, pairs)
                moved.append(moves[key])
                priors[i] = records[i].certificates
            old = np.array([records[i].norms for i in carry]).T
            h, d = w1.shape[1:]
            drift[carry] = _drift_bound(d, h, old, (norms.f[carry], norms.m[carry]),
                                        np.array(moved).T)
        on_global, on_local = zip(*priors)
        test, local = self.global_test, [self.profiles[cid].test for cid in ids]
        certs = (certify((w1, w2), norms, test, self._global_cast, on_global, drift),
                 certify((w1, w2), norms, local, None, on_local, drift))
        f, m = norms.f.tolist(), norms.m.tolist()
        for i, cid in enumerate(ids):
            self._measured[cid] = Measurement(pairs, (f[i], m[i]) if ok[i] else None,
                                              (certs[0][i], certs[1][i]))
        if tallies is not None:
            _tally(tallies["global set"], on_global, certs[0])
            nonempty = [i for i, dataset in enumerate(local) if dataset.n]
            _tally(tallies["local sets"], [on_local[i] for i in nonempty],
                   [certs[1][i] for i in nonempty])

    def _measure(
        self, participants: list[int], outcome: AggregationOutcome | None, payload: int
    ) -> RoundMetrics:
        cfg = self.cfg
        # a model is measured again exactly when its adapters are not the
        # pairs of its record; those that share their pairs (after a
        # broadcast, every participant of one width) are measured as one
        # stack. Models last measured with the same pairs share how far the
        # deltas moved, keyed by the old and new pairs themselves
        groups: dict[tuple[LoraPair, ...], list[int]] = {}
        by_layer = operator.itemgetter(*LayerId)
        for m in self.models:
            pairs = by_layer(m.lora)
            record = self._measured.get(m.client_id)
            if record is None or record.pairs != pairs:  # by identity
                groups.setdefault(pairs, []).append(m.client_id)
        moves: dict[tuple[LoraPair, ...], tuple[float, float]] = {}
        tallies = ({"global set": Counter(), "local sets": Counter()}
                   if log.isEnabledFor(logging.DEBUG) else None)
        for pairs, ids in groups.items():
            self._measure_group(pairs, ids, moves, tallies)
        if tallies is not None:
            log.debug("round %d: %s", self.round_index, "; ".join(
                f"{name}: {t['carried']} carried ({t['recomputed']} row(s) recomputed), "
                f"{t['refused']} refused, {t['full']} full pass(es)"
                for name, t in tallies.items()))
        certs = [self._measured[m.client_id].certificates for m in self.models]
        global_acc = float(np.mean([on.hits / self.global_test.n for on, _ in certs]))
        local_accs = [local.hits / p.test.n for (_, local), p in zip(certs, self.profiles)
                      if local is not None]
        local_acc = float(np.mean(local_accs)) if local_accs else 0.0

        positives = (
            sorted(cfg.attack.attacker_ids & set(participants))
            if cfg.attack.active(self.round_index)
            else []
        )
        detection = outcome.detection if outcome else None
        flagged = sorted(detection.flagged) if detection else []
        tp = len(set(flagged) & set(positives))
        precision = tp / len(flagged) if flagged and positives else 0.0
        recall = tp / len(positives) if positives else 0.0
        benign = set(participants) - set(positives)
        fp = len(set(flagged) - set(positives))
        fpr = fp / len(benign) if benign else 0.0

        frob = {
            lid.value: {
                "a": _frobenius_norm(self.state.layers[lid].a),
                "b": _frobenius_norm(self.state.layers[lid].b),
            }
            for lid in LayerId
        }
        return RoundMetrics(
            round=self.round_index,
            global_accuracy=global_acc,
            mean_local_accuracy=local_acc,
            precision=precision,
            recall=recall,
            fpr=fpr,
            payload_bytes=payload,
            participants=participants,
            flagged=flagged,
            positives=positives,
            theta=detection.threshold_theta if detection else None,
            alpha_summary=outcome.alpha_summary if outcome else None,
            frob=frob,
            aggregator=cfg.aggregator.name,
            detection_skipped=detection.skipped if detection else False,
            aggregation_skipped=outcome is None or outcome.skipped,
        )

    def run(self, on_round=None) -> list[RoundResult]:
        """Warm up (if needed) and execute the configured number of rounds."""
        if self._backbones is None:
            self.warm_up()
        results = []
        for _ in range(self.cfg.rounds):
            result = self.run_round()
            results.append(result)
            if on_round is not None:
                on_round(result)
        return results
