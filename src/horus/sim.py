"""Synthetic hyper-heterogeneous federated simulation.

Ten-ish clients with two different backbone widths train low-rank adapters on
Dirichlet-skewed shards of a Gaussian-mixture classification task. Each round
the server runs the configured aggregation rule (optionally with poisoning
detection) and broadcasts the result; an attacker cohort can replace its
submissions from a configured round onward.

Everything is driven by seeded, per-purpose random streams so that the full
metric trace is a pure function of the configuration, independent of the
client-level thread pool.
"""

from __future__ import annotations

import hashlib
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Mapping, NamedTuple

import numpy as np

from . import attacks as atk
from .aggregation import (
    AggregationOutcome,
    HorusConfig,
    baseline_aggregate,
    horus_aggregate,
)
from .attacks import AttackConfig, AttackKind
from .detection import RoundDetection, SpectralFeatures
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
    unflatten_padded,
)
from .spectral import thin_svd, topk_energy_ratio

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
    "local_train",
    "warmup",
    "evaluate",
]

log = logging.getLogger(__name__)

PARTICIPATION_POOL = (1.0, 0.75, 0.5)

# Initial adapter-A: a random rank-(r/2) product of uniform factors, scaled
# to the Frobenius norm an iid uniform(+-scale/sqrt(d_in)) draw would have.
# A full-rank iid init pins every tail singular value at a common floor that
# training never washes out (the bilinear dynamics are init-scale
# self-similar), which would hide the low-rank structure of learned updates
# from the spectral features; the low-rank init leaves the tail to training.
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
        if self.class_separation <= 0 or self.noise_scale <= 0:
            raise ConfigurationError("class_separation and noise_scale must be > 0")
        if self.dirichlet_alpha <= 0:
            raise ConfigurationError("dirichlet_alpha must be > 0")
        if self.signal_dim is not None and not 1 <= self.signal_dim <= self.feature_dim:
            raise ConfigurationError(
                f"signal_dim must be in [1, feature_dim], got {self.signal_dim}"
            )


@dataclass
class ClientProfile:
    """One client's identity, architecture, data shards and stream seed."""

    client_id: int
    arch_id: int
    hidden_width: int
    participation_rate: float
    train: Dataset
    test: Dataset
    seed: np.random.SeedSequence = field(repr=False)


def generate_task(cfg: TaskConfig) -> tuple[Dataset, Dataset]:
    """Training pool plus a class-balanced global test set.

    Class means are random unit directions scaled by the separation factor;
    samples add isotropic Gaussian noise. The test set holds one fifth of the
    per-class training count (at least 10) per class.
    """
    rng = np.random.default_rng(cfg.seed)
    if cfg.signal_dim is not None and cfg.signal_dim < cfg.feature_dim:
        basis, _ = np.linalg.qr(rng.normal(size=(cfg.feature_dim, cfg.signal_dim)))
        means = rng.normal(size=(cfg.num_classes, cfg.signal_dim)) @ basis.T
    else:
        means = rng.normal(size=(cfg.num_classes, cfg.feature_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    means *= cfg.class_separation

    def sample(per_class: int) -> Dataset:
        xs, ys = [], []
        for c in range(cfg.num_classes):
            noise = rng.normal(size=(per_class, cfg.feature_dim))
            xs.append(means[c] + cfg.noise_scale * noise)
            ys.append(np.full(per_class, c, dtype=int))
        return Dataset(np.concatenate(xs), np.concatenate(ys))

    train = sample(cfg.samples_per_class)
    test = sample(min(200, max(10, cfg.samples_per_class // 5)))
    return train, test


def dirichlet_partition(
    pool: Dataset, num_clients: int, alpha: float, rng: np.random.Generator
) -> list[np.ndarray]:
    """Index shards with per-class proportions drawn from Dirichlet(alpha).

    Draws are Gamma(alpha, 1) normalized per class. If some client ends up
    with an empty shard the draw is repeated (up to 100 times), after which
    the largest shards donate one sample each round-robin until every client
    has at least one.
    """
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be > 0, got {alpha}")
    if num_clients < 1:
        raise ConfigurationError("need at least one client")
    class_indices = [np.flatnonzero(pool.y == c) for c in np.unique(pool.y)]

    shards: list[list[int]] = []
    for _ in range(100):
        shards = [[] for _ in range(num_clients)]
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
            start = 0
            for cl, cnt in enumerate(counts):
                shards[cl].extend(idx[start : start + cnt].tolist())
                start += cnt
        if all(len(s) > 0 for s in shards):
            break
    while any(len(s) == 0 for s in shards):
        empty = min(i for i, s in enumerate(shards) if len(s) == 0)
        donor = max(range(num_clients), key=lambda i: (len(shards[i]), -i))
        shards[empty].append(shards[donor].pop())
    return [np.array(sorted(s), dtype=int) for s in shards]


def _split_shard(
    pool: Dataset, indices: np.ndarray, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """80/20 train/test split of one client's shard."""
    perm = rng.permutation(indices)
    n_test = max(1, len(perm) // 5) if len(perm) >= 2 else 0
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return (
        Dataset(pool.x[train_idx], pool.y[train_idx]),
        Dataset(pool.x[test_idx], pool.y[test_idx]),
    )


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
    lora: dict[LayerId, LoraPair] | None = None
    frozen: bool = False

    @property
    def hidden_width(self) -> int:
        return self.w1.shape[0]

    def layer_dims(self) -> dict[LayerId, LayerDims]:
        h, d = self.w1.shape
        c = self.w2.shape[0]
        return {
            LayerId.FEATURE_FIRST: LayerDims(d_in=d, d_out=h),
            LayerId.CLASSIFIER: LayerDims(d_in=h, d_out=c),
        }

    def effective_weights(self) -> tuple[np.ndarray, np.ndarray]:
        if self.lora is None:
            return self.w1, self.w2
        return (
            self.w1 + self.lora[LayerId.FEATURE_FIRST].delta(),
            self.w2 + self.lora[LayerId.CLASSIFIER].delta(),
        )

    def backbone_hash(self) -> str:
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self.w1).tobytes())
        digest.update(np.ascontiguousarray(self.w2).tobytes())
        return digest.hexdigest()


def new_model(client_id: int, arch_id: int, feature_dim: int, num_classes: int,
              hidden_width: int, rng: np.random.Generator) -> LocalModel:
    w1 = rng.normal(0.0, 1.0 / np.sqrt(feature_dim), size=(hidden_width, feature_dim))
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden_width), size=(num_classes, hidden_width))
    return LocalModel(client_id=client_id, arch_id=arch_id, w1=w1, w2=w2)


def _softmax_gradient(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy w.r.t. the logits, computed in place."""
    n = len(y)
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    logits[np.arange(n), y] -= 1.0
    logits /= n
    return logits


def _backprop(w1: np.ndarray, w2: np.ndarray, x: np.ndarray,
              y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the mean cross-entropy w.r.t. both dense weight matrices."""
    z1 = x @ w1.T
    hact = np.maximum(z1, 0.0)
    dlogits = _softmax_gradient(hact @ w2.T, y)
    dw2 = dlogits.T @ hact
    dz1 = (dlogits @ w2) * (z1 > 0.0)
    return dz1.T @ x, dw2


def _adapter_gradients(w1, w2, a1, b1, a2, b2, x, y):
    """(dA1, dB1, dA2, dB2) of the mean cross-entropy, backbone held fixed."""
    dw1, dw2 = _backprop(w1 + b1 @ a1, w2 + b2 @ a2, x, y)
    return b1.T @ dw1, dw1 @ a1.T, b2.T @ dw2, dw2 @ a2.T


def lora_loss(model: LocalModel, lora: Mapping[LayerId, LoraPair],
              x: np.ndarray, y: np.ndarray) -> float:
    """Cross-entropy of the model with the given adapter values."""
    w1_eff = model.w1 + lora[LayerId.FEATURE_FIRST].delta()
    w2_eff = model.w2 + lora[LayerId.CLASSIFIER].delta()
    logits = np.maximum(x @ w1_eff.T, 0.0) @ w2_eff.T
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    return float((logsumexp - shifted[np.arange(len(y)), y]).mean())


def lora_gradients(
    model: LocalModel, lora: Mapping[LayerId, LoraPair], x: np.ndarray, y: np.ndarray
) -> tuple[float, dict[LayerId, tuple[np.ndarray, np.ndarray]]]:
    """Loss and gradients w.r.t. every adapter matrix, backbone held fixed.

    Overflow is tolerated: a poisoned broadcast can push weights past float
    range, and the training loop detects the resulting non-finite step.
    """
    ff, cl = lora[LayerId.FEATURE_FIRST], lora[LayerId.CLASSIFIER]
    with np.errstate(over="ignore", invalid="ignore"):
        loss = lora_loss(model, lora, x, y)
        da1, db1, da2, db2 = _adapter_gradients(
            model.w1, model.w2, ff.a, ff.b, cl.a, cl.b, x, y
        )
    return loss, {
        LayerId.FEATURE_FIRST: (da1, db1),
        LayerId.CLASSIFIER: (da2, db2),
    }


def _minibatches(n: int, batch: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch):
        yield perm[start : start + batch]


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
    initial adapters (B zero, A from the shared server init)."""
    if model.frozen:
        raise SimulationError(f"client {model.client_id}: backbone already frozen")
    if shard.n == 0:
        log.warning("client %d: empty shard, warm-up skipped", model.client_id)
    for _ in range(epochs):
        for idx in _minibatches(shard.n, batch, rng):
            dw1, dw2 = _backprop(model.w1, model.w2, shard.x[idx], shard.y[idx])
            model.w1 -= lr * dw1
            model.w2 -= lr * dw2
    model.lora = {lid: pair for lid, pair in lora_init.items()}
    model.frozen = True
    return model


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
    """
    if not model.frozen or model.lora is None:
        raise SimulationError(f"client {model.client_id}: warm-up must run first")
    if shard.n == 0:
        log.warning("client %d: empty shard, returning adapters unchanged", model.client_id)
        return ClientUpdate(model.client_id, model.arch_id, dict(model.lora))
    ff, cl = model.lora[LayerId.FEATURE_FIRST], model.lora[LayerId.CLASSIFIER]
    adapters = (ff.a, ff.b, cl.a, cl.b)
    batches = (idx for _ in range(epochs) for idx in _minibatches(shard.n, batch, rng))
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in batches:
            grads = _adapter_gradients(model.w1, model.w2, *adapters,
                                       shard.x[idx], shard.y[idx])
            stepped = tuple(m - lr * g for m, g in zip(adapters, grads))
            # a poisoned broadcast can push gradients past float range; keep
            # the last finite adapters instead of submitting garbage
            if not all(np.isfinite(m).all() for m in stepped):
                log.warning("client %d: non-finite training step, stopping early",
                            model.client_id)
                break
            adapters = stepped
    a1, b1, a2, b2 = adapters
    model.lora = {
        LayerId.FEATURE_FIRST: LoraPair(a1, b1, ff.rank),
        LayerId.CLASSIFIER: LoraPair(a2, b2, cl.rank),
    }
    return ClientUpdate(model.client_id, model.arch_id, dict(model.lora))


def evaluate(model: LocalModel, dataset: Dataset) -> float:
    """Fraction of argmax-correct predictions (ties go to the lowest class)."""
    if dataset.n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    with np.errstate(over="ignore", invalid="ignore"):
        w1_eff, w2_eff = model.effective_weights()
        hact = np.maximum(dataset.x @ w1_eff.T, 0.0)
        preds = np.argmax(hact @ w2_eff.T, axis=1)
    return float((preds == dataset.y).mean())


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
        if rec["theta"] is not None and not np.isfinite(rec["theta"]):
            rec["theta"] = None
        for norms in rec["frob"].values():
            for factor, norm in norms.items():
                if not np.isfinite(norm):
                    norms[factor] = None
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
    detection: RoundDetection | None
    features: Mapping[int, SpectralFeatures] | None
    diagnostics: list[DiagnosticRow]


class Simulation:
    """Deterministic round-based federation over synthetic clients."""

    def __init__(self, cfg: "RunConfig"):
        cfg.validate()
        self.cfg = cfg
        root = np.random.SeedSequence(cfg.master_seed)
        ss_profiles, ss_partition, ss_clients, ss_attack, ss_partic, ss_init = (
            root.spawn(6)
        )
        self._profile_rng = np.random.default_rng(ss_profiles)
        self._participation_rng = np.random.default_rng(ss_partic)

        self.pool, self.global_test = generate_task(cfg.task)
        templates = cfg.expand_clients()
        n = len(templates)
        shards = dirichlet_partition(
            self.pool, n, cfg.task.dirichlet_alpha, np.random.default_rng(ss_partition)
        )
        split_rng = np.random.default_rng(ss_partition.spawn(1)[0])
        client_seqs = ss_clients.spawn(n)

        self.profiles: list[ClientProfile] = []
        for cid, (arch_id, hidden, rate) in enumerate(templates):
            if rate is None:
                rate = float(self._profile_rng.choice(PARTICIPATION_POOL))
            train, test = _split_shard(self.pool, shards[cid], split_rng)
            self.profiles.append(
                ClientProfile(
                    client_id=cid,
                    arch_id=arch_id,
                    hidden_width=hidden,
                    participation_rate=rate,
                    train=train,
                    test=test,
                    seed=client_seqs[cid],
                )
            )

        self.models: list[LocalModel] = []
        self._client_rngs: list[np.random.Generator] = []
        for p in self.profiles:
            rng = np.random.default_rng(p.seed)
            self._client_rngs.append(rng)
            self.models.append(
                new_model(p.client_id, p.arch_id, cfg.task.feature_dim,
                          cfg.task.num_classes, p.hidden_width, rng)
            )

        self.global_dims = {
            LayerId.FEATURE_FIRST: LayerDims(
                d_in=cfg.task.feature_dim,
                d_out=max(p.hidden_width for p in self.profiles),
            ),
            LayerId.CLASSIFIER: LayerDims(
                d_in=max(p.hidden_width for p in self.profiles),
                d_out=cfg.task.num_classes,
            ),
        }
        self.state = self._initial_state(np.random.default_rng(ss_init))
        attacker_ids = sorted(cfg.attack.attacker_ids)
        self._attack_rngs = {
            a: np.random.default_rng(seq)
            for a, seq in zip(attacker_ids, ss_attack.spawn(max(1, len(attacker_ids))))
        }
        self.round_index = 0
        self._backbone_hashes: list[str] | None = None

    def _initial_state(self, rng: np.random.Generator) -> GlobalState:
        state = GlobalState.zeros(self.global_dims, self.cfg.rank)
        rank = self.cfg.rank
        half = max(1, rank // 2)
        for lid in LayerId:
            d_in = self.global_dims[lid].d_in
            left = rng.uniform(-1.0, 1.0, size=(rank, half))
            right = rng.uniform(-1.0, 1.0, size=(half, d_in))
            a = left @ right
            a *= LORA_A_INIT_SCALE * np.sqrt(rank / 3.0) / np.linalg.norm(a)
            state.layers[lid].a = a
        return state

    def warm_up(self) -> None:
        cfg = self.cfg
        lr = cfg.warmup_lr if cfg.warmup_lr is not None else cfg.lr
        for p, model, rng in zip(self.profiles, self.models, self._client_rngs):
            init = {
                lid: trim_to_local(self.state, lid, model.layer_dims()[lid])
                for lid in LayerId
            }
            # B is zero in the initial state, so delta starts at exactly 0.
            warmup(model, p.train, init, cfg.warmup_epochs, lr, cfg.batch, rng)
        self._backbone_hashes = [m.backbone_hash() for m in self.models]

    def _check_backbones(self) -> None:
        assert self._backbone_hashes is not None
        for m, expected in zip(self.models, self._backbone_hashes):
            if m.backbone_hash() != expected:
                raise SimulationError(
                    f"backbone of client {m.client_id} changed after warm-up"
                )

    def _sample_participants(self) -> list[int]:
        draws = self._participation_rng.random(len(self.profiles))
        return [
            p.client_id
            for p, u in zip(self.profiles, draws)
            if u < p.participation_rate
        ]

    def _broadcast(self, client_ids: list[int]) -> None:
        for cid in client_ids:
            model = self.models[cid]
            model.lora = {
                lid: trim_to_local(self.state, lid, model.layer_dims()[lid])
                for lid in LayerId
            }

    def _train_participants(self, participants: list[int]) -> dict[int, ClientUpdate]:
        cfg = self.cfg
        attack = cfg.attack
        flip_active = (
            attack.kind is AttackKind.LABEL_FLIP
            and self.round_index >= attack.start_round
        )

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
                results = list(pool.map(run_one, participants))
            return {u.client_id: u for u in results}
        return {cid: run_one(cid) for cid in participants}

    def _apply_model_poisoning(
        self, submissions: dict[int, ClientUpdate], participants: list[int]
    ) -> None:
        attack = self.cfg.attack
        if attack.kind in (AttackKind.NONE, AttackKind.LABEL_FLIP):
            return
        if self.round_index < attack.start_round:
            return
        present = sorted(attack.attacker_ids & set(participants))
        if not present:
            return
        knowledge_ids = (
            present if attack.knowledge == "own" else sorted(participants)
        )
        if len(knowledge_ids) < 2:
            log.warning(
                "round %d: only %d knowledge vector(s); attack skipped",
                self.round_index, len(knowledge_ids),
            )
            return
        vectors, _ = pad_round(
            [submissions[c] for c in knowledge_ids], self.global_dims, self.cfg.rank
        )
        with np.errstate(over="ignore", invalid="ignore"):
            crafted = atk.craft_malicious_vectors(
                attack, vectors, len(self.profiles), present, self._attack_rngs,
            )
        log.info("round %d: %s attack active for clients %s",
                 self.round_index, attack.kind.value, present)
        for a, vec in crafted.items():
            if not np.all(np.isfinite(vec)):
                log.warning("round %d: crafted vector for client %d is non-finite; "
                            "submitting the benign-style update", self.round_index, a)
                continue
            matrices = unflatten_padded(vec, self.global_dims, self.cfg.rank)
            dims = self.models[a].layer_dims()
            layers = {
                lid: LoraPair(
                    a=matrices[lid][0][:, : dims[lid].d_in],
                    b=matrices[lid][1][: dims[lid].d_out, :],
                    rank=self.cfg.rank,
                )
                for lid in LayerId
            }
            submissions[a] = ClientUpdate(a, self.models[a].arch_id, layers)

    def _diagnostics(
        self, submissions: dict[int, ClientUpdate], flagged: frozenset[int]
    ) -> list[DiagnosticRow]:
        rows = []
        k = self.cfg.detection.k
        for cid in sorted(submissions):
            u = submissions[cid]
            for lid in LayerId:
                for name, mat in (("A", u.layers[lid].a), ("B", u.layers[lid].b)):
                    _, spectrum, _ = thin_svd(mat)
                    rows.append(
                        DiagnosticRow(
                            round=self.round_index,
                            client_id=cid,
                            arch_id=u.arch_id,
                            layer=lid.value,
                            matrix=name,
                            topk_ratio=topk_energy_ratio(spectrum, k),
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
        if self._backbone_hashes is None:
            raise SimulationError("warm_up() must run before the round loop")
        cfg = self.cfg
        self.round_index += 1
        participants = self._sample_participants()
        detection: RoundDetection | None = None
        features = None
        alpha_summary = None
        diagnostics: list[DiagnosticRow] = []
        payload = 0
        skipped = False

        if participants:
            self._broadcast(participants)
            submissions = self._train_participants(participants)
            self._apply_model_poisoning(submissions, participants)
            payload = sum(payload_bytes(u) for u in submissions.values())

            if not self._aggregation_feasible(len(participants)):
                skipped = True
            elif cfg.aggregator.name == "horus":
                outcome: AggregationOutcome = horus_aggregate(
                    submissions, self.state, cfg.detection
                )
                detection = outcome.detection
                features = outcome.features
                alpha_summary = outcome.alpha_summary
                skipped = outcome.skipped
                if skipped:
                    log.warning("round %d: all clients flagged, state unchanged",
                                self.round_index)
                else:
                    self.state = outcome.state
            else:
                self.state = baseline_aggregate(cfg.aggregator, submissions, self.state)
            self._broadcast(participants)
            diagnostics = self._diagnostics(
                submissions, detection.flagged if detection else frozenset()
            )
        else:
            log.warning("round %d: no participants, round skipped", self.round_index)
            skipped = True

        self._check_backbones()
        metrics = self._measure(participants, detection, alpha_summary, payload,
                                skipped)
        return RoundResult(
            metrics=metrics,
            detection=detection,
            features=features,
            diagnostics=diagnostics,
        )

    def _measure(
        self,
        participants: list[int],
        detection: RoundDetection | None,
        alpha_summary: dict[str, float] | None,
        payload: int,
        aggregation_skipped: bool,
    ) -> RoundMetrics:
        cfg = self.cfg
        global_acc = float(
            np.mean([evaluate(m, self.global_test) for m in self.models])
        )
        local_accs = [
            evaluate(m, p.test)
            for m, p in zip(self.models, self.profiles)
            if p.test.n > 0
        ]
        local_acc = float(np.mean(local_accs)) if local_accs else 0.0

        attack_active = (
            cfg.attack.kind is not AttackKind.NONE
            and self.round_index >= cfg.attack.start_round
        )
        positives = (
            sorted(cfg.attack.attacker_ids & set(participants))
            if attack_active
            else []
        )
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
            alpha_summary=alpha_summary,
            frob=frob,
            aggregator=cfg.aggregator.name,
            detection_skipped=detection.skipped if detection else False,
            aggregation_skipped=aggregation_skipped,
        )

    def run(self, on_round=None) -> list[RoundResult]:
        """Warm up (if needed) and execute the configured number of rounds."""
        if self._backbone_hashes is None:
            self.warm_up()
        results = []
        for _ in range(self.cfg.rounds):
            result = self.run_round()
            results.append(result)
            if on_round is not None:
                on_round(result)
        return results
