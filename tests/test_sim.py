"""Unit tests for the synthetic federation: task, partition, training, rounds."""

import copy
import dataclasses
import json
import logging
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import horus.attacks
import horus.sim
from horus.config import ClientTemplate, config_to_dict, load_config, parse_config
from horus.errors import ConfigurationError, SimulationError
from horus.lora import GlobalLayer, GlobalState, LayerDims, LayerId, LoraPair, trim_to_local
from horus.sim import (
    _class_sum,
    Dataset,
    LocalModel,
    Simulation,
    TaskConfig,
    adapter_gradients,
    dirichlet_partition,
    generate_task,
    local_train,
    new_model,
    warmup,
)

FF, CL = LayerId.FEATURE_FIRST, LayerId.CLASSIFIER
ROOT = Path(__file__).resolve().parents[1]


def lora_loss(model, lora, x, y):
    """Mean cross-entropy of ``model`` with the adapters ``lora``, written
    out here from the forward pass, so that the finite-difference oracle
    shares no code with the gradients it checks."""
    w1 = model.w1 + lora[FF].b @ lora[FF].a
    w2 = model.w2 + lora[CL].b @ lora[CL].a
    logits = np.maximum(x @ w1.T, 0.0) @ w2.T
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    return float((logsumexp - shifted[np.arange(len(y)), y]).mean())


def effective_weights(model):
    """The backbone of ``model`` plus its adapters' deltas, as the round
    loop measures it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return model.w1 + model.lora[FF].delta, model.w2 + model.lora[CL].delta


def tiny_config(**overrides):
    d = {
        "task": {"feature_dim": 8, "num_classes": 3, "samples_per_class": 40,
                 "class_separation": 4.0, "noise_scale": 0.5,
                 "dirichlet_alpha": 0.5, "signal_dim": 3, "seed": 1},
        "clients": [
            {"count": 2, "hidden_width": 6, "participation_rate": 1.0},
            {"count": 2, "hidden_width": 8, "participation_rate": 1.0},
        ],
        "aggregator": "horus",
        "detection": {"lambda": 0.5, "k": 2, "mode": {"top_m": 1}},
        "attack": {"kind": "none"},
        "rounds": 3,
        "lr": 0.1,
        "epochs": 1,
        "batch": 16,
        "rank": 2,
        "warmup_epochs": 3,
        "master_seed": 11,
    }
    d.update(overrides)
    return parse_config(d)


class TestGenerateTask:
    def test_deterministic_for_fixed_seed(self):
        cfg = TaskConfig(feature_dim=6, num_classes=3, samples_per_class=20, seed=9)
        t1, g1 = generate_task(cfg)
        t2, g2 = generate_task(cfg)
        np.testing.assert_array_equal(t1.x, t2.x)
        np.testing.assert_array_equal(g1.x, g2.x)

    def test_test_set_class_balanced(self):
        cfg = TaskConfig(feature_dim=6, num_classes=4, samples_per_class=100, seed=2)
        _, test = generate_task(cfg)
        counts = np.bincount(test.y, minlength=4)
        assert len(set(counts.tolist())) == 1

    def test_separated_task_is_centroid_classifiable(self):
        cfg = TaskConfig(feature_dim=16, num_classes=5, samples_per_class=200,
                         class_separation=10.0, noise_scale=0.1, seed=3)
        train, test = generate_task(cfg)
        centroids = np.stack([train.x[train.y == c].mean(axis=0) for c in range(5)])
        d2 = ((test.x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        acc = (np.argmin(d2, axis=1) == test.y).mean()
        assert acc >= 0.99

    def test_means_live_in_signal_subspace(self):
        cfg = TaskConfig(feature_dim=20, num_classes=6, samples_per_class=300,
                         class_separation=8.0, noise_scale=0.05, signal_dim=3,
                         seed=4)
        train, _ = generate_task(cfg)
        centroids = np.stack([train.x[train.y == c].mean(axis=0) for c in range(6)])
        # 6 centroids spanning only a 3-dim subspace: 4th singular value tiny
        s = np.linalg.svd(centroids, compute_uv=False)
        assert s[3] / s[0] < 0.05


class TestDirichletPartition:
    def _pool(self, n_per_class=200, classes=4):
        y = np.repeat(np.arange(classes), n_per_class)
        x = np.zeros((len(y), 2))
        return Dataset(x, y)

    def test_partition_is_exact(self):
        pool = self._pool()
        shards = dirichlet_partition(pool.y, 5, 0.5, np.random.default_rng(0))
        joined = np.concatenate(shards)
        assert len(joined) == pool.n
        assert len(np.unique(joined)) == pool.n

    def test_every_client_nonempty(self):
        pool = self._pool(n_per_class=10, classes=2)
        for seed in range(10):
            shards = dirichlet_partition(pool.y, 8, 0.05, np.random.default_rng(seed))
            assert all(len(s) >= 1 for s in shards)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_alpha_outside_the_positive_reals_rejected(self, alpha):
        with pytest.raises(ConfigurationError, match="alpha"):
            dirichlet_partition(self._pool().y, 3, alpha, np.random.default_rng(0))

    def test_huge_alpha_near_uniform(self):
        pool = self._pool(n_per_class=500, classes=4)
        shards = dirichlet_partition(pool.y, 4, 1e6, np.random.default_rng(1))
        for shard in shards:
            hist = np.bincount(pool.y[shard], minlength=4) / len(shard)
            tv = 0.5 * np.abs(hist - 0.25).sum()
            assert tv <= 0.05

    def test_more_clients_than_samples_rejected(self):
        # 4 samples cannot give 6 clients one each; the donor loop would
        # hand one sample round forever
        pool = self._pool(n_per_class=2, classes=2)
        with pytest.raises(ConfigurationError, match="6 clients"):
            dirichlet_partition(pool.y, 6, 0.5, np.random.default_rng(0))
        shards = dirichlet_partition(pool.y, 4, 0.5, np.random.default_rng(0))
        assert sorted(len(s) for s in shards) == [1, 1, 1, 1]

    def test_small_alpha_produces_skew(self):
        pool = self._pool(n_per_class=500, classes=4)
        skewed = False
        for seed in range(5):
            shards = dirichlet_partition(pool.y, 4, 0.1, np.random.default_rng(seed))
            for shard in shards:
                hist = np.bincount(pool.y[shard], minlength=4) / len(shard)
                if hist.max() > 0.5:
                    skewed = True
        assert skewed

    @staticmethod
    def assert_same_shards(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=40), st.integers(1, 12),
           st.sampled_from([0.05, 0.3, 1.0, 1e3]), st.integers(0, 2**32 - 1))
    def test_matches_list_reference(self, labels, clients, alpha, seed):
        labels = np.array(labels)
        assume(clients <= len(labels))
        got = dirichlet_partition(labels, clients, alpha, np.random.default_rng(seed))
        want, _, _ = list_partition(labels, clients, alpha, np.random.default_rng(seed))
        self.assert_same_shards(got, want)

    def test_retry_and_donor_paths_match_list_reference(self):
        # 10 samples for 5 clients at alpha 0.1 often leave a client empty:
        # most seeds redraw, and seed 13 fails 100 draws and takes donations
        labels = np.repeat(np.arange(2), 5)
        attempts, donated = [], 0
        for seed in range(20):
            got = dirichlet_partition(labels, 5, 0.1, np.random.default_rng(seed))
            want, tries, given_up = list_partition(
                labels, 5, 0.1, np.random.default_rng(seed)
            )
            self.assert_same_shards(got, want)
            attempts.append(tries)
            donated += given_up
        assert any(1 < a < 100 for a in attempts)
        assert 100 in attempts and donated > 0


def list_partition(labels, num_clients, alpha, rng):
    """Reference for :func:`dirichlet_partition`: the same draws, with each
    shard built as a Python list of ints. Also returns the number of draws
    made and of samples donated, so that a test can tell which path ran."""
    class_indices = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    for attempt in range(1, 101):
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
    donated = 0
    while any(len(s) == 0 for s in shards):
        empty = min(i for i, s in enumerate(shards) if len(s) == 0)
        donor = max(range(num_clients), key=lambda i: (len(shards[i]), -i))
        shards[empty].append(shards[donor].pop())
        donated += 1
    return [np.array(sorted(s), dtype=int) for s in shards], attempt, donated


def finite_difference_grads(model, lora, x, y, eps=1e-5):
    grads = {}
    for lid in LayerId:
        for name in ("a", "b"):
            base = getattr(lora[lid], name)
            g = np.zeros_like(base)
            for idx in np.ndindex(*base.shape):
                bumped_plus = {k: LoraPair(p.a.copy(), p.b.copy())
                               for k, p in lora.items()}
                bumped_minus = {k: LoraPair(p.a.copy(), p.b.copy())
                                for k, p in lora.items()}
                getattr(bumped_plus[lid], name)[idx] += eps
                getattr(bumped_minus[lid], name)[idx] -= eps
                g[idx] = (lora_loss(model, bumped_plus, x, y)
                          - lora_loss(model, bumped_minus, x, y)) / (2 * eps)
            grads.setdefault(lid, {})[name] = g
    return grads


def concatenated_task(cfg):
    """The pool and test set as a list of per-class arrays, concatenated:
    the reference that the in-place build must match byte for byte."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.signal_dim is not None and cfg.signal_dim < cfg.feature_dim:
        basis, _ = np.linalg.qr(rng.normal(size=(cfg.feature_dim, cfg.signal_dim)))
        means = rng.normal(size=(cfg.num_classes, cfg.signal_dim)) @ basis.T
    else:
        means = rng.normal(size=(cfg.num_classes, cfg.feature_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    means *= cfg.class_separation

    def sample(per_class):
        xs, ys = [], []
        for c in range(cfg.num_classes):
            noise = rng.normal(size=(per_class, cfg.feature_dim))
            xs.append(means[c] + cfg.noise_scale * noise)
            ys.append(np.full(per_class, c, dtype=int))
        return Dataset(np.concatenate(xs), np.concatenate(ys))

    return sample(cfg.samples_per_class), sample(
        min(200, max(10, cfg.samples_per_class // 5)))


def gathered_shards(cfg):
    """Each client's (train, test) gathered out of the pool after an 80/20
    split of its shard's permutation, from the same seed streams."""
    pool, test = concatenated_task(cfg.task)
    ss_partition = np.random.SeedSequence(cfg.master_seed).spawn(6)[1]
    shards = dirichlet_partition(pool.y, cfg.num_clients, cfg.task.dirichlet_alpha,
                                 np.random.default_rng(ss_partition))
    split_rng = np.random.default_rng(ss_partition.spawn(1)[0])
    out = []
    for shard in shards:
        perm = split_rng.permutation(shard)
        n_test = max(1, len(perm) // 5) if len(perm) >= 2 else 0
        out.append(tuple(Dataset(pool.x[idx], pool.y[idx])
                         for idx in (perm[n_test:], perm[:n_test])))
    return out, test


def same_bytes(got: Dataset, want: Dataset) -> bool:
    return (got.x.shape == want.x.shape and got.x.tobytes() == want.x.tobytes()
            and got.y.dtype == want.y.dtype and got.y.tobytes() == want.y.tobytes())


class TestTaskInClientOrder:
    """The pool is written once, in client order, and every shard is a row
    block of it holding the bytes the gathered construction gave."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        feature_dim=st.integers(2, 5),
        num_classes=st.integers(2, 4),
        samples_per_class=st.integers(1, 12),
        signal_dim=st.one_of(st.none(), st.integers(1, 2)),
        alpha=st.sampled_from([0.05, 0.5, 5.0]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    # four 1-sample shards: every client's test set is empty
    @example(feature_dim=3, num_classes=2, samples_per_class=2, signal_dim=None,
             alpha=0.5, seed=0, data=None)
    def test_shards_equal_the_gathered_construction(
        self, feature_dim, num_classes, samples_per_class, signal_dim, alpha,
        seed, data,
    ):
        pool_size = num_classes * samples_per_class
        n = pool_size if data is None else data.draw(st.integers(1, min(8, pool_size)))
        task = {"feature_dim": feature_dim, "num_classes": num_classes,
                "samples_per_class": samples_per_class, "signal_dim": signal_dim,
                "dirichlet_alpha": alpha, "seed": seed}
        cfg = tiny_config(
            task=task, aggregator="fedavg", master_seed=seed + 1,
            clients=[{"count": n, "hidden_width": 4, "participation_rate": 1.0}],
        )
        sim = Simulation(cfg)
        want, want_test = gathered_shards(cfg)
        assert same_bytes(sim.global_test, want_test)
        buffer = sim.profiles[0].train.x.base
        assert buffer is not None and not buffer.flags.writeable
        for p, (train, test) in zip(sim.profiles, want, strict=True):
            assert same_bytes(p.train, train) and same_bytes(p.test, test)
            assert p.train.x.base is buffer and p.test.x.base is buffer
        if data is None:
            assert all(p.train.n == 1 and p.test.n == 0 for p in sim.profiles)

        pool, test = generate_task(cfg.task)
        want_pool, want_test = concatenated_task(cfg.task)
        assert same_bytes(pool, want_pool) and same_bytes(test, want_test)
        order = np.random.default_rng(seed).permutation(pool_size)
        shuffled, _ = generate_task(cfg.task, order=order)
        assert same_bytes(shuffled, Dataset(want_pool.x[order], want_pool.y[order]))

    def test_order_must_be_a_permutation(self):
        task = TaskConfig(feature_dim=3, num_classes=2, samples_per_class=3,
                          signal_dim=None)
        for order in ([0, 1, 2, 3, 4, 4], [0, 1, 2], [5, 4, 3, 2, 1, 6],
                      [0, 1, 2, 3, 4, -1]):
            with pytest.raises(ValueError, match="permutation"):
                generate_task(task, order=np.array(order))

    def test_setup_holds_the_pool_about_once(self):
        # the gathered construction peaked at 2.2x the pool
        cfg = load_config(ROOT / "configs" / "lie_attack.yaml")
        tracemalloc.start()
        try:
            sim = Simulation(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pool = sum(d.x.nbytes + d.y.nbytes
                   for p in sim.profiles for d in (p.train, p.test))
        assert pool == cfg.task.num_classes * cfg.task.samples_per_class * (
            cfg.task.feature_dim + 1) * 8
        assert peak <= 1.5 * pool


class TestTraining:
    def _model_and_batch(self, seed, d=6, c=3, h=5, rank=2, n=10):
        rng = np.random.default_rng(seed)
        model = new_model(0, 0, d, c, h, rng)
        model.lora = {
            FF: LoraPair(0.3 * rng.normal(size=(rank, d)),
                         0.3 * rng.normal(size=(h, rank))),
            CL: LoraPair(0.3 * rng.normal(size=(rank, h)),
                         0.3 * rng.normal(size=(c, rank))),
        }
        x = rng.normal(size=(n, d))
        y = rng.integers(0, c, size=n)
        return model, x, y

    def test_gradients_match_finite_differences(self):
        for seed in range(3):
            model, x, y = self._model_and_batch(seed)
            ff, cl = model.lora[FF], model.lora[CL]
            da1, db1, da2, db2 = adapter_gradients(model.w1, model.w2, ff.a, ff.b,
                                                   cl.a, cl.b, x, y)
            grads = {FF: (da1, db1), CL: (da2, db2)}
            fd = finite_difference_grads(model, model.lora, x, y)
            for lid in LayerId:
                for i, name in enumerate(("a", "b")):
                    ana = grads[lid][i]
                    num = fd[lid][name]
                    denom = np.maximum(1.0, np.maximum(np.abs(ana), np.abs(num)))
                    assert np.max(np.abs(ana - num) / denom) <= 1e-4

    def test_zero_lr_leaves_adapters(self):
        model, x, y = self._model_and_batch(5)
        before = {lid: (p.a.copy(), p.b.copy()) for lid, p in model.lora.items()}
        update = local_train(model, Dataset(x, y), epochs=2, lr=0.0, batch=4,
                             rng=np.random.default_rng(0))
        for lid in LayerId:
            np.testing.assert_array_equal(update.layers[lid].a, before[lid][0])
            np.testing.assert_array_equal(update.layers[lid].b, before[lid][1])

    def test_full_batch_loss_decreases(self):
        model, x, y = self._model_and_batch(6, n=20)
        shard = Dataset(x, y)
        losses = [lora_loss(model, model.lora, x, y)]
        for _ in range(10):
            local_train(model, shard, epochs=1, lr=0.05, batch=64,
                        rng=np.random.default_rng(1))
            losses.append(lora_loss(model, model.lora, x, y))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_empty_shard_returns_unchanged(self):
        model, x, y = self._model_and_batch(7)
        before = {lid: p.a.copy() for lid, p in model.lora.items()}
        update = local_train(model, Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int)),
                             epochs=1, lr=0.1, batch=4, rng=np.random.default_rng(2))
        for lid in LayerId:
            np.testing.assert_array_equal(update.layers[lid].a, before[lid])

    def test_unfrozen_model_rejected(self):
        rng = np.random.default_rng(8)
        model = new_model(0, 0, 6, 3, 5, rng)
        with pytest.raises(SimulationError):
            local_train(model, Dataset(np.zeros((2, 6)), np.zeros(2, dtype=int)),
                        1, 0.1, 4, rng)


class TestClassSum:
    """The class-major softmax sum adds the classes in numpy's order."""

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(c=st.integers(1, 300), n=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1), zero_row=st.booleans())
    # the edges of numpy's three branches: in sequence below 8, eight
    # accumulators up to 128, halving above
    @example(c=7, n=3, seed=0, zero_row=True)
    @example(c=8, n=3, seed=1, zero_row=True)
    @example(c=9, n=3, seed=2, zero_row=False)
    @example(c=16, n=3, seed=3, zero_row=True)
    @example(c=128, n=3, seed=4, zero_row=False)
    @example(c=129, n=3, seed=5, zero_row=True)
    @example(c=256, n=3, seed=6, zero_row=False)
    @example(c=257, n=3, seed=7, zero_row=True)
    def test_equals_numpy_row_sums(self, c, n, seed, zero_row):
        rng = np.random.default_rng(seed)
        row_major = rng.normal(size=(n, c)) * 10.0 ** rng.uniform(-6, 6, size=(n, c))
        row_major[rng.random((n, c)) < 0.05] = -0.0
        if zero_row:  # numpy's sum of negative zeros is +0.0
            row_major[-1] = -0.0
        class_major = np.ascontiguousarray(row_major.T)
        assert _class_sum(class_major).tobytes() == row_major.sum(axis=1).tobytes()


def oracle_local_train(model, shard, epochs, lr, batch, rng):
    """The adapter loop in plain numpy, one ``LoraPair`` per step.

    Same math, same order of operations and same RNG draws as the training
    loop, including the full softmax with its loss. Returns the last finite
    pairs and the number of steps taken before the first non-finite one.
    """
    lora = {lid: LoraPair(p.a.copy(), p.b.copy())
            for lid, p in model.lora.items()}
    steps = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            perm = rng.permutation(shard.n)
            for start in range(0, shard.n, batch):
                idx = perm[start : start + batch]
                x, y = shard.x[idx], shard.y[idx]
                n = len(y)
                a1, b1, a2, b2 = lora[FF].a, lora[FF].b, lora[CL].a, lora[CL].b
                w1_eff = model.w1 + b1 @ a1
                w2_eff = model.w2 + b2 @ a2
                z1 = x @ w1_eff.T
                hact = np.maximum(z1, 0.0)
                logits = hact @ w2_eff.T
                shifted = logits - logits.max(axis=1, keepdims=True)
                expz = np.exp(shifted)
                probs = expz / expz.sum(axis=1, keepdims=True)
                # the loss the loop computed and discarded on every step
                _loss = float((np.log(expz.sum(axis=1))
                               - shifted[np.arange(n), y]).mean())
                dlogits = probs
                dlogits[np.arange(n), y] -= 1.0
                dlogits /= n
                dw2_eff = dlogits.T @ hact
                db2 = dw2_eff @ a2.T
                da2 = b2.T @ dw2_eff
                dh = dlogits @ w2_eff
                dz1 = dh * (z1 > 0.0)
                dw1_eff = dz1.T @ x
                db1 = dw1_eff @ a1.T
                da1 = b1.T @ dw1_eff
                stepped = {FF: (a1 - lr * da1, b1 - lr * db1),
                           CL: (a2 - lr * da2, b2 - lr * db2)}
                if not all(np.all(np.isfinite(m)) for pair in stepped.values()
                           for m in pair):
                    return lora, steps
                lora = {lid: LoraPair(*stepped[lid]) for lid in lora}
                steps += 1
    return lora, steps


class TestTrainingLoopOracle:
    """``local_train`` against the plain-numpy loop, bit for bit."""

    classes = 3  # numpy sums fewer than 8 classes in sequence

    def _model_and_shard(self, seed, h, scale=0.3, d=8, rank=2, n=37):
        c = self.classes
        rng = np.random.default_rng(seed)
        model = new_model(0, 0, d, c, h, rng)
        model.lora = {
            FF: LoraPair(scale * rng.normal(size=(rank, d)),
                         scale * rng.normal(size=(h, rank))),
            CL: LoraPair(scale * rng.normal(size=(rank, h)),
                         scale * rng.normal(size=(c, rank))),
        }
        return model, Dataset(rng.normal(size=(n, d)), rng.integers(0, c, size=n))

    @staticmethod
    def _train_as_the_oracle(model, shard, seed, epochs, lr, batch, steps):
        rng_oracle = np.random.default_rng(seed)
        expected, taken = oracle_local_train(model, shard, epochs, lr, batch, rng_oracle)
        assert taken == steps
        rng = np.random.default_rng(seed)
        update = local_train(model, shard, epochs=epochs, lr=lr, batch=batch, rng=rng)
        for lid in LayerId:
            for name in ("a", "b"):
                want = getattr(expected[lid], name).tobytes()
                assert getattr(update.layers[lid], name).tobytes() == want
                assert getattr(model.lora[lid], name).tobytes() == want
        assert rng.bit_generator.state == rng_oracle.bit_generator.state

    @pytest.mark.parametrize("h", [5, 9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_submission_and_rng_match_the_oracle(self, seed, h):
        model, shard = self._model_and_shard(seed, h)
        # 37 samples in batches of 8: four full batches and a ragged one of 5
        self._train_as_the_oracle(model, shard, seed, 3, 0.1, 8, steps=15)

    @pytest.mark.parametrize("h", [32, 48, 64])
    @pytest.mark.parametrize("n, epochs, steps", [
        (600, 3, 9),  # batches of 256, 256 and a ragged 88, three epochs
        (107, 1, 1),  # one step on a shard smaller than the batch, as crowd's
    ])
    def test_benchmark_shapes_match_the_oracle(self, h, n, epochs, steps):
        """The shipped configs' shapes: 64 features, rank 8, batches of 256
        and the benchmark's widths (they run 10 classes)."""
        model, shard = self._model_and_shard(4, h, d=64, rank=8, n=n)
        self._train_as_the_oracle(model, shard, 4, epochs, 0.3, 256, steps)

    @pytest.mark.parametrize("h", [5, 9])
    def test_diverging_client_keeps_last_finite_adapters(self, h, caplog):
        # adapters near 1e20 make B @ A near 1e40; the logits overflow within
        # a few steps of the first epoch
        model, shard = self._model_and_shard(3, h, scale=1e20)
        expected, steps = oracle_local_train(model, shard, 3, 0.1, 8,
                                             np.random.default_rng(0))
        # five batches an epoch: the overflow follows a finite step of epoch 1
        assert 1 <= steps < 5
        rng = np.random.default_rng(0)
        with caplog.at_level("WARNING", logger="horus.sim"), warnings.catch_warnings():
            warnings.simplefilter("error")
            update = local_train(model, shard, epochs=3, lr=0.1, batch=8, rng=rng)
        for lid in LayerId:
            assert update.layers[lid].a.tobytes() == expected[lid].a.tobytes()
            assert update.layers[lid].b.tobytes() == expected[lid].b.tobytes()
        diverged = [r for r in caplog.records
                    if "non-finite training step" in r.getMessage()]
        assert len(diverged) == 1
        # only the first epoch's permutation was drawn
        one_epoch = np.random.default_rng(0)
        one_epoch.permutation(shard.n)
        assert rng.bit_generator.state == one_epoch.bit_generator.state


class TestTrainingLoopOracle10Classes(TestTrainingLoopOracle):
    classes = 10  # numpy's 8 accumulators, then a tail of 2


class TestTrainingLoopOracle17Classes(TestTrainingLoopOracle):
    classes = 17  # two blocks of 8 accumulated, then a tail of 1


class TestSharedBroadcastPair:
    """Clients of one shape train from the same read-only broadcast pairs, as
    after ``Simulation._broadcast``: training neither writes them nor hands
    their memory, or another client's, to a submission."""

    def _clients(self, d=64, h=32, c=10, rank=8, n=300):
        rng = np.random.default_rng(11)
        state = GlobalState({
            FF: GlobalLayer(0.3 * rng.normal(size=(rank, d)), 0.3 * rng.normal(size=(h, rank))),
            CL: GlobalLayer(0.3 * rng.normal(size=(rank, h)), 0.3 * rng.normal(size=(c, rank))),
        })
        dims = {FF: LayerDims(d, h), CL: LayerDims(h, c)}
        shared = {lid: trim_to_local(state, lid, dims[lid]) for lid in LayerId}
        clients = [(new_model(i, 0, d, c, h, rng),
                    Dataset(rng.normal(size=(n, d)), rng.integers(0, c, size=n)))
                   for i in range(2)]
        return shared, clients

    def test_shared_pairs_train_as_private_copies(self):
        shared, clients = self._clients()
        before = {lid: (p.a.tobytes(), p.b.tobytes(), (p.b @ p.a).tobytes())
                  for lid, p in shared.items()}
        private, updates = [], []
        for seed, (model, shard) in enumerate(clients):
            model.lora = {lid: LoraPair(p.a.copy(), p.b.copy()) for lid, p in shared.items()}
            private.append(local_train(model, shard, 2, 0.3, 256, np.random.default_rng(seed)))
        for seed, (model, shard) in enumerate(clients):
            model.lora = dict(shared)
            updates.append(local_train(model, shard, 2, 0.3, 256, np.random.default_rng(seed)))
        for want, got in zip(private, updates):
            for lid in LayerId:
                assert got.layers[lid].a.tobytes() == want.layers[lid].a.tobytes()
                assert got.layers[lid].b.tobytes() == want.layers[lid].b.tobytes()
        for lid, pair in shared.items():
            assert (pair.a.tobytes(), pair.b.tobytes(), pair.delta.tobytes()) == before[lid]
            for m in (pair.a, pair.b, pair.delta):
                assert not m.flags.writeable
        held = [m for p in shared.values() for m in (p.a, p.b, p.delta)]
        first, second = ([m for p in u.layers.values() for m in (p.a, p.b)] for u in updates)
        assert not any(np.shares_memory(m, o) for m in first + second for o in held)
        assert not any(np.shares_memory(m, o) for m in first for o in second)

    def test_threads_sharing_the_pairs_train_as_private_copies(self):
        # whichever thread reads a shared pair's delta first caches it
        shared, clients = self._clients()
        jobs = [(copy.copy(clients[i % 2][0]), clients[i % 2][1], i % 2) for i in range(8)]
        want = []
        for model, shard, seed in jobs[:2]:
            model.lora = {lid: LoraPair(p.a.copy(), p.b.copy()) for lid, p in shared.items()}
            want.append(local_train(model, shard, 2, 0.3, 256, np.random.default_rng(seed)))

        def train(job):
            model, shard, seed = job
            model.lora = dict(shared)
            return local_train(model, shard, 2, 0.3, 256, np.random.default_rng(seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                futures = [pool.submit(train, job) for job in jobs]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for i, update in enumerate(got):
            for lid in LayerId:
                assert update.layers[lid].a.tobytes() == want[i % 2].layers[lid].a.tobytes()
                assert update.layers[lid].b.tobytes() == want[i % 2].layers[lid].b.tobytes()

    def test_an_overflowing_delta_stops_the_first_step_without_a_warning(self, caplog):
        # B @ A of entries +-1e200 overflows; pytest makes a RuntimeWarning an error
        shared, [(model, shard), _] = self._clients()
        huge = {lid: LoraPair(np.full_like(p.a, 1e200), np.full_like(p.b, -1e200))
                for lid, p in shared.items()}
        model.lora = dict(huge)
        with caplog.at_level("WARNING", logger="horus.sim"):
            update = local_train(model, shard, 2, 0.3, 256, np.random.default_rng(0))
        for lid, pair in huge.items():
            assert np.isneginf(pair.delta).all()
            assert update.layers[lid].a.tobytes() == pair.a.tobytes()
            assert update.layers[lid].b.tobytes() == pair.b.tobytes()
        assert ["non-finite training step" in r.getMessage() for r in caplog.records] == [True]


def oracle_warmup(w1, w2, shard, epochs, lr, batch, rng):
    """Full-backbone mini-batch descent in plain row-major numpy."""
    w1, w2 = w1.copy(), w2.copy()
    for _ in range(epochs):
        perm = rng.permutation(shard.n)
        for start in range(0, shard.n, batch):
            idx = perm[start : start + batch]
            x, y = shard.x[idx], shard.y[idx]
            n = len(y)
            z1 = x @ w1.T
            hact = np.maximum(z1, 0.0)
            logits = hact @ w2.T
            expz = np.exp(logits - logits.max(axis=1, keepdims=True))
            dlogits = expz / expz.sum(axis=1, keepdims=True)
            dlogits[np.arange(n), y] -= 1.0
            dlogits /= n
            dw2 = dlogits.T @ hact
            dw1 = ((dlogits @ w2) * (z1 > 0.0)).T @ x
            w1 -= lr * dw1
            w2 -= lr * dw2
    return w1, w2


class TestWarmup:
    def _setup(self, seed=3):
        rng = np.random.default_rng(seed)
        task = TaskConfig(feature_dim=8, num_classes=3, samples_per_class=100,
                          class_separation=5.0, noise_scale=0.4, signal_dim=3,
                          seed=seed)
        train, test = generate_task(task)
        model = new_model(0, 0, 8, 3, 6, rng)
        init = {
            FF: LoraPair(0.01 * rng.normal(size=(2, 8)), np.zeros((6, 2))),
            CL: LoraPair(0.01 * rng.normal(size=(2, 6)), np.zeros((3, 2))),
        }
        return model, train, test, init, rng

    def test_warmup_improves_local_accuracy(self):
        model, train, test, init, rng = self._setup()
        before = float64_hits(*test, model.w1, model.w2)
        warmup(model, train, init, epochs=10, lr=0.1, batch=32, rng=rng)
        assert float64_hits(*test, *effective_weights(model)) > before

    def test_backbone_frozen_and_adapters_installed(self):
        model, train, _, init, rng = self._setup()
        warmup(model, train, init, epochs=2, lr=0.1, batch=32, rng=rng)
        assert model.lora is not None
        for w in (model.w1, model.w2):
            with pytest.raises(ValueError):
                w.flags.writeable = True
        w1, w2 = model.w1.tobytes(), model.w2.tobytes()
        local_train(model, train, 1, 0.1, 32, rng)
        assert model.w1.tobytes() == w1 and model.w2.tobytes() == w2

    def test_zero_b_means_effective_equals_backbone(self):
        model, train, _, init, rng = self._setup()
        warmup(model, train, init, epochs=1, lr=0.1, batch=32, rng=rng)
        w1_eff, w2_eff = effective_weights(model)
        np.testing.assert_array_equal(w1_eff, model.w1)
        np.testing.assert_array_equal(w2_eff, model.w2)

    @pytest.mark.parametrize("h", [6, 9])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_backbone_and_rng_match_the_oracle(self, seed, h):
        rng = np.random.default_rng(seed)
        model = new_model(0, 0, 8, 10, h, rng)
        # 53 samples in batches of 16: three full batches and a ragged one of 5
        shard = Dataset(rng.normal(size=(53, 8)), rng.integers(0, 10, size=53))
        init = {FF: LoraPair(np.zeros((2, 8)), np.zeros((h, 2))),
                CL: LoraPair(np.zeros((2, h)), np.zeros((10, 2)))}
        rng_oracle = np.random.default_rng(seed)
        w1, w2 = oracle_warmup(model.w1, model.w2, shard, 3, 0.2, 16, rng_oracle)
        rng = np.random.default_rng(seed)
        warmup(model, shard, init, epochs=3, lr=0.2, batch=16, rng=rng)
        assert model.w1.tobytes() == w1.tobytes()
        assert model.w2.tobytes() == w2.tobytes()
        assert rng.bit_generator.state == rng_oracle.bit_generator.state

    def test_double_warmup_rejected(self):
        model, train, _, init, rng = self._setup()
        warmup(model, train, init, epochs=1, lr=0.1, batch=32, rng=rng)
        with pytest.raises(SimulationError):
            warmup(model, train, init, epochs=1, lr=0.1, batch=32, rng=rng)


def float64_hits(x, y, w1, w2):
    """The plain float64 count, written out as the oracle of the float32 path."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.count_nonzero(np.argmax(np.maximum(x @ w1.T, 0) @ w2.T, axis=1) == y)


def assert_float64_accuracies(sim, metrics):
    """The round's accuracies are the means of every model's float64 count
    over each set, the local sets that are not empty."""
    x, y = sim.global_test
    on_global, on_local = [], []
    for mod, p in zip(sim.models, sim.profiles):
        weights = effective_weights(mod)
        on_global.append(float64_hits(x, y, *weights) / len(y))
        if p.test.n:
            on_local.append(float64_hits(*p.test, *weights) / p.test.n)
    assert metrics.global_accuracy == float(np.mean(on_global))
    assert metrics.mean_local_accuracy == float(np.mean(on_local))


def plain_margins(x, y, w1, w2):
    """Each row's true-class logit less the best other one, from the plain
    float64 logits, taken in extended precision."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = (np.maximum(x @ w1.T, 0) @ w2.T).astype(np.longdouble)
    rows = np.arange(len(y))
    true = logits[rows, y]
    logits[rows, y] = -np.inf
    return true - logits.max(axis=1)


def assert_certificate_bounds_margins(cert, x, y, weights):
    """The certificate keeps the floor(n/8) rows of smallest slack, and what
    it proved at its full pass, less the drift spent since, still bounds
    the plain float64 margins: every kept row has (bound f m - spent)
    ||x_i|| <= |margin|, with the kept hit flag's sign wherever that is
    positive, and every other row has |margin| >= (cut f m - spent) ||x_i||."""
    n = len(y)
    k = n // 8
    assert cert.bound.dtype == np.float16 and cert.bound.shape == cert.rows.shape == (k,)
    assert cert.hit.shape == (k,) and len(set(cert.rows.tolist())) == k
    assert (np.diff(cert.bound.astype(float)) >= 0).all() and cert.bound.max(initial=0) <= cert.cut
    if math.isnan(cert.fm):  # norms out of range: a certificate that cannot carry
        assert cert.cut == 0 and not cert.bound.any()
        return
    margin = plain_margins(x, y, *weights)
    norms = np.sqrt((x.astype(np.longdouble) ** 2).sum(axis=1))
    fm, spent = np.longdouble(cert.fm), np.longdouble(cert.spent)
    kept = (cert.bound.astype(np.longdouble) * fm - spent) * norms[cert.rows]
    assert (kept <= np.abs(margin[cert.rows])).all()
    decided = kept > 0
    assert ((margin[cert.rows] > 0) == cert.hit)[decided].all()
    others = np.ones(n, dtype=bool)
    others[cert.rows] = False
    assert (np.abs(margin[others]) >= (np.longdouble(cert.cut) * fm - spent) * norms[others]).all()


WEIGHT_SCALES = [1e-200, 1e-25, 1e-3, 1.0, 1e3, 1e25, 1e200]


@st.composite
def certified_cases(draw, cases=("random", "tied", "near_tie", "dead", "nan"),
                    scales=WEIGHT_SCALES):
    """(x, y, w1, w2) of random shapes; the weights may tie classes exactly or
    nearly, kill the relu layer, hold a NaN or sit far from unit scale."""
    n, d = draw(st.integers(1, 300)), draw(st.integers(1, 40))
    h, c = draw(st.integers(1, 40)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, d)) + rng.normal(size=d)
    y = rng.integers(0, c, size=n)
    w1, w2 = rng.normal(size=(h, d)), rng.normal(size=(c, h))
    i, j = rng.choice(c, size=2, replace=False)
    case = draw(st.sampled_from(cases))
    if case == "tied":  # exact ties in float64 too
        w2[j] = w2[i]
    elif case == "near_tie":  # too close for float32, not for float64
        w2[j] = w2[i] * (1 + 1e-9 * rng.normal(size=h))
    elif case == "dead":  # all logits 0: class 0 wins every row
        w1[:] = 0.0
    elif case == "nan":
        w1[rng.integers(h), rng.integers(d)] = np.nan
    w1 *= draw(st.sampled_from(scales))
    w2 *= draw(st.sampled_from(scales))
    return x, y, w1, w2


def stacked(weights):
    """Models' effective weights ``[(w1, w2), ...]`` as the two layer stacks
    of :func:`horus.sim.certify`, and their norms."""
    stack = tuple(np.stack(layer) for layer in zip(*weights))
    return stack, horus.sim._layer_norms(*stack)


def certify_once(w1, w2, data, float32):
    """The certificate of one model's full pass over ``data``, in float32
    from the set's copy or else from the plain float64 logits."""
    cast = horus.sim.float32_copy(data) if float32 else None
    assert cast is not None or not float32
    stack, norms = stacked([(w1, w2)])
    (cert,) = horus.sim.certify(stack, norms, data, cast, [None], np.array([np.nan]))
    return cert


class TestCertifiedEvaluate:
    """Both full passes of certify, from float32 logits and from the plain
    float64 ones, count exactly what float64 counts."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(certified_cases(), st.booleans())
    def test_certified_count_is_the_float64_count(self, case, float32):
        # whatever the weights, NaN, ties and dead relu layers included
        x, y, w1, w2 = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = certify_once(w1, w2, Dataset(x, y), float32)
        assert cert.hits == cert.passed == float64_hits(x, y, w1, w2)
        assert cert.recomputed is None and cert.spent == 0
        assert_certificate_bounds_margins(cert, x, y, (w1, w2))

    @pytest.mark.parametrize("float32", [True, False])
    def test_norms_out_of_range_leave_nothing_to_carry(self, float32):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(40, 6)), rng.integers(0, 3, size=40)
        for scale in (0.0, 1e-40, 1e40, np.inf):
            w1, w2 = scale * rng.normal(size=(8, 6)), rng.normal(size=(3, 8))
            cert = certify_once(w1, w2, Dataset(x, y), float32)
            assert cert.hits == float64_hits(x, y, w1, w2)
            assert math.isnan(cert.fm) and cert.cut == 0 and not cert.bound.any()

    @settings(max_examples=200, derandomize=True, deadline=None)
    # scales at which float32 neither overflows nor underflows unscaled
    @given(certified_cases(cases=("random", "tied", "near_tie"), scales=[1e-3, 1.0, 1e3]))
    def test_float32_logits_lie_within_the_bound(self, case):
        x, y, w1, w2 = case
        f, m = np.linalg.norm(w1), np.linalg.norm(w2, axis=1).max()
        l32 = np.maximum(x.astype(np.float32) @ w1.T.astype(np.float32), 0)
        l32 = l32 @ w2.T.astype(np.float32)
        l64 = np.maximum(x @ w1.T, 0) @ w2.T
        k32, _ = horus.sim._bound_factors(x.shape[1], w1.shape[0])
        # k32 bounds a margin, two logits, with the safety factor 2 on top
        e = k32 / 4 * f * m * np.linalg.norm(x, axis=1)
        assert (np.abs(l32 - l64).max(axis=1) <= e).all()

    def test_rows_the_bound_cannot_cover_get_no_copy(self):
        x = np.ones((4, 3))
        y = np.zeros(4, dtype=int)
        assert horus.sim.float32_copy(Dataset(x, y)) is not None
        for bad in (0.0, 1e-30, 1e30, np.inf, np.nan):
            x[2] = bad
            assert horus.sim.float32_copy(Dataset(x, y)) is None


class TestEvaluate:
    """Accuracy as certify counts it, through either full pass, and as a
    round measures it."""

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(st.integers(1, 200_000), st.data())
    @example(n=2000, data=None)
    def test_hit_count_over_n_is_the_mean_of_the_hits(self, n, data):
        # an accuracy is a certificate's hit count over n; the mean of the
        # 0/1 array it replaced sums them exactly in float64, and both
        # divide once by n
        hits = n // 3 if data is None else data.draw(st.integers(0, n))
        correct = np.zeros(n, dtype=bool)
        correct[:hits] = True
        got = np.count_nonzero(correct) / n
        assert isinstance(got, float) and got.hex() == float(correct.mean()).hex()

    def test_constant_predictor_scores_one_over_c(self):
        x = np.random.default_rng(0).normal(size=(300, 6))
        y = np.repeat(np.arange(3), 100)
        # all-zero logits: argmax ties resolve to class 0
        for float32 in (True, False):
            cert = certify_once(np.zeros((4, 6)), np.zeros((3, 4)), Dataset(x, y), float32)
            assert cert.hits / len(y) == pytest.approx(1 / 3)

    def test_shuffle_invariance(self):
        rng = np.random.default_rng(1)
        w1, w2 = rng.normal(size=(4, 6)), rng.normal(size=(3, 4))
        x = rng.normal(size=(50, 6))
        y = rng.integers(0, 3, size=50)
        perm = rng.permutation(50)
        for float32 in (True, False):
            assert (certify_once(w1, w2, Dataset(x, y), float32).hits
                    == certify_once(w1, w2, Dataset(x[perm], y[perm]), float32).hits)

    def test_empty_dataset_rejected(self):
        # an empty set is the one set certify gives no certificate
        w1, w2 = np.full((4, 6), np.nan), np.zeros((3, 4))
        empty = Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int))
        full = Dataset(np.ones((8, 6)), np.zeros(8, dtype=int))
        for float32 in (True, False):
            assert certify_once(w1, w2, empty, float32) is None
            assert certify_once(w1, w2, full, float32).hits == 8  # NaN logits: class 0

    def test_overflowing_adapters_leak_no_warning(self):
        sim = Simulation(tiny_config(rounds=1))
        sim.run()
        sim.models[0].lora = {
            FF: LoraPair(np.full((2, 8), 1e200), np.full((6, 2), 1e200)),
            CL: LoraPair(np.full((2, 6), 1e200), np.full((3, 2), -1e200)),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            metrics = sim._measure([], None, 0)
        assert sim._measured[0].norms is None
        assert_float64_accuracies(sim, metrics)

    def test_centroid_aligned_backbone_near_perfect(self):
        task = TaskConfig(feature_dim=12, num_classes=4, samples_per_class=400,
                          class_separation=10.0, noise_scale=0.1, signal_dim=4,
                          seed=5)
        train, test = generate_task(task)
        centroids = np.stack([train.x[train.y == c].mean(axis=0) for c in range(4)])
        # hidden unit per class, classifier reads it off directly
        for float32 in (True, False):
            assert certify_once(centroids, np.eye(4), test, float32).hits / test.n >= 0.99


DRIFTS = {"tiny": 1e-9, "small": 1e-4, "medium": 1e-2}
STEPS = ("same", *DRIFTS, "jump", "zero", "nan", "inf")


@st.composite
def adapter_walks(draw):
    """1-4 backbones of one shape, from certified_cases and that case's
    backbone with its first layer scaled entrywise, and a walk of adapter
    pairs they all hold, from B = 0. Each step keeps the pairs (as new
    arrays), drifts B by one of ``DRIFTS`` times the backbone's scale, jumps
    to a fresh B of that scale, goes back to B = 0, or puts a NaN or an inf
    in B."""
    x, y, w1, w2 = draw(certified_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, 3))
    members = draw(st.integers(1, 4))
    w1s = [w1] + [w1 * (1 + 0.1 * rng.normal(size=w1.shape)) for _ in range(members - 1)]
    steps = draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=8))
    walk, bs = [], []
    for w in (w1, w2):
        biggest = np.nanmax(np.abs(w))
        bs.append((biggest if biggest > 0 else 1.0, np.zeros((w.shape[0], rank)),
                   rng.normal(size=(rank, w.shape[1])) / np.sqrt(w.shape[1])))

    def pairs(bs):
        return tuple(LoraPair._trusted(a.copy(), b.copy()) for _, b, a in bs)

    walk.append(pairs(bs))
    for step in steps:
        stepped = []
        for scale, b, a in bs:
            noise = scale * rng.normal(size=b.shape)
            if step in DRIFTS:
                b = b + DRIFTS[step] * noise
            elif step == "jump":
                b = noise
            elif step == "zero":
                b = np.zeros_like(b)
            elif step in ("nan", "inf"):
                b = b.copy()
                b[rng.integers(b.shape[0]), rng.integers(rank)] = (
                    np.nan if step == "nan" else np.inf)
            stepped.append((scale, b, a))
        bs = stepped
        walk.append(pairs(bs))
    return x, y, w1s, w2, walk


def weights_of(w1, w2, pairs):
    return effective_weights(LocalModel(0, 0, w1, w2, dict(zip(LayerId, pairs))))


def certify_walk(w1s, w2s, walk, data, cast):
    """Each step of ``walk`` (adapter pairs that the backbones ``w1s``,
    ``w2s`` all hold): every model's effective weights and certificate, the
    models certified as one stack and each carried from the last step as
    the round loop carries it. A carry has spent at least the drift bounds
    of every carry since the full pass, its own included."""
    certs = old = norms = None
    h, d = w1s[0].shape
    for pairs in walk:
        weights = [weights_of(w1, w2, pairs) for w1, w2 in zip(w1s, w2s)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            last = norms
            stack, norms = stacked(weights)
            priors, drift = [None] * len(weights), np.full(len(weights), np.nan)
            # as the round loop, carry only from norms in range to norms in range
            carry = [i for i, c in enumerate(certs or ()) if last.ok[i] and norms.ok[i]]
            if carry:
                moved = horus.sim.delta_moves(old, pairs)
                drift[carry] = horus.sim._drift_bound(
                    d, h, (last.f[carry], last.m[carry]), (norms.f[carry], norms.m[carry]), moved)
                for i in carry:
                    priors[i] = certs[i]
            certs = horus.sim.certify(stack, norms, data, cast, priors, drift)
        for prior, step, cert in zip(priors, drift, certs):
            if cert is not None and cert.recomputed is not None:
                assert cert.spent >= prior.spent + step
        old = pairs
        yield weights, certs


def certify_one_walk(w1, w2, walk, data, cast):
    """:func:`certify_walk` of one backbone: its weights and certificate."""
    for weights, certs in certify_walk([w1], [w2], walk, data, cast):
        yield weights[0], certs[0]


class TestRecertify:
    """A certificate carried across adapter steps counts what float64
    counts, and what it keeps stays a bound on the plain margins."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(adapter_walks(), st.booleans())
    def test_every_step_counts_the_float64_hits(self, walk, float32):
        # float32: the global test set's pass; otherwise a local set's, from
        # the plain float64 logits
        x, y, w1s, w2, steps = walk
        data = Dataset(x, y)
        cast = horus.sim.float32_copy(data) if float32 else None
        for weights, certs in certify_walk(w1s, [w2] * len(w1s), steps, data, cast):
            for model, cert in zip(weights, certs):
                assert cert.hits == float64_hits(x, y, *model)
                assert_certificate_bounds_margins(cert, x, y, model)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(certified_cases(cases=("random", "tied", "near_tie", "dead"),
                           scales=[1e-25, 1e-3, 1.0, 1e3, 1e25]),
           st.integers(0, 2**32 - 1), st.sampled_from([1e-12, 1e-6, 1e-2, 1.0]))
    def test_plain_margins_move_within_the_drift_bound(self, case, seed, size):
        x, y, w1, w2 = case
        rng = np.random.default_rng(seed)
        ends = []
        for _ in range(2):
            pairs = tuple(
                LoraPair(rng.normal(size=(2, w.shape[1])),
                         size * np.abs(w).max() * rng.normal(size=(w.shape[0], 2)))
                for w in (w1, w2))
            weights = weights_of(w1, w2, pairs)
            _, norms = stacked([weights])
            assume(norms.ok[0])
            ends.append((pairs, weights, (norms.f[0], norms.m[0])))
        (old, old_weights, old_norms), (new, new_weights, new_norms) = ends
        moved = horus.sim.delta_moves(old, new)
        delta = horus.sim._drift_bound(x.shape[1], w1.shape[0], old_norms, new_norms, moved)
        change = np.abs(plain_margins(x, y, *new_weights)
                        - plain_margins(x, y, *old_weights))
        row_norms = np.sqrt((x.astype(np.longdouble) ** 2).sum(axis=1))
        assert (change <= np.longdouble(delta) * row_norms).all()

    def test_a_small_drift_is_carried_and_a_jump_is_not(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(500, 8))
        y = rng.integers(0, 4, size=500)
        # wide enough that no row's relu layer is dead, which would tie it
        w1, w2 = rng.normal(size=(32, 8)), rng.normal(size=(4, 32))
        data = Dataset(x, y)
        a1, a2 = rng.normal(size=(2, 8)), rng.normal(size=(2, 32))
        b1, b2 = rng.normal(size=(32, 2)), rng.normal(size=(4, 2))
        walk = [(LoraPair(a1, scale * b1), LoraPair(a2, scale * b2))
                for scale in (1e-3, 1.001e-3, 1.0)]
        for cast in (horus.sim.float32_copy(data), None):
            steps = list(certify_one_walk(w1, w2, walk, data, cast))
            for weights, cert in steps:
                assert cert.hits == float64_hits(x, y, *weights)
            (_, cert), (_, carried), (_, jumped) = steps
            assert cert.recomputed is None  # no prior: the full pass
            assert carried.recomputed is not None  # carried, not passed in full
            assert carried.recomputed <= horus.sim.RECOMPUTE_SHARE * len(y)
            # a carry shares its prior's arrays
            assert carried.rows is cert.rows and carried.bound is cert.bound
            assert jumped.recomputed is None

    @pytest.mark.parametrize("bad", [0.0, 1e30])
    def test_a_row_norm_out_of_range_leaves_nothing_to_carry(self, bad):
        # the float32 copy refuses such a set, and its float64 full pass
        # counts it but proves nothing a carry could use
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 6))
        x[7] = bad
        y = rng.integers(0, 3, size=40)
        data = Dataset(x, y)
        assert horus.sim.float32_copy(data) is None
        w1, w2 = rng.normal(size=(8, 6)), rng.normal(size=(3, 8))
        a1, a2 = rng.normal(size=(1, 6)), rng.normal(size=(1, 8))
        walk = [(LoraPair(a1, s * rng.normal(size=(8, 1))), LoraPair(a2, np.zeros((3, 1))))
                for s in (0.0, 1e-9)]
        for weights, cert in certify_one_walk(w1, w2, walk, data, None):
            assert cert.hits == float64_hits(x, y, *weights)
            assert cert.recomputed is None and cert.cut == 0 and not cert.bound.any()

    @pytest.mark.parametrize("float32", [True, False])
    def test_the_drift_of_every_carry_adds_up(self, float32):
        # logits relu(x) W2^T with W2 = [[1, 0], [0, 1 + t]]: row 0's margin
        # 0.01 - t 0.99 falls by ~0.001 a step and turns negative at step
        # 11, while every step's bound alone stays below what the full pass
        # proved about it; the other rows' margins stay far from 0
        x = np.array([[1.0, 0.99]] + [[4.0 + i, 0.5] for i in range(7)])
        y = np.zeros(8, dtype=int)
        data = Dataset(x, y)
        w1, w2 = np.eye(2), np.eye(2)
        a = np.array([[0.0, 1.0]])
        zero = LoraPair(a, np.zeros((2, 1)))
        walk = [(zero, LoraPair(a, np.array([[0.0], [1e-3 * s]]))) for s in range(16)]
        cast = horus.sim.float32_copy(data) if float32 else None
        steps = list(certify_one_walk(w1, w2, walk, data, cast))
        first = steps[0][1]
        assert list(first.rows) == [0] and first.hit.tolist() == [True]
        hits = []
        for s, (weights, cert) in enumerate(steps):
            assert cert.hits == float64_hits(x, y, *weights)
            hits.append(cert.hits)
            if s > 0:  # every step carried, and no step's bound alone reaches row 0
                assert cert.recomputed is not None and cert.rows is first.rows
                alone = cert.spent - steps[s - 1][1].spent
                assert alone < first.bound[0] * first.fm
            if s > 1:  # the bounds added up past it, so it is recomputed
                assert cert.recomputed == 1
        assert hits == [8] * 11 + [7] * 5


class TestSimulation:
    def test_heterogeneous_shapes_on_both_layers(self):
        sim = Simulation(tiny_config())
        dims = [m.layer_dims() for m in sim.models]
        assert dims[0][FF] != dims[2][FF]
        assert dims[0][CL] != dims[2][CL]

    def test_metric_trace_deterministic_and_parallel_safe(self):
        runs = []
        for workers in (0, 4):
            sim = Simulation(tiny_config(workers=workers))
            results = sim.run()
            runs.append(json.dumps([r.metrics.to_record() for r in results],
                                   sort_keys=True))
        assert runs[0] == runs[1]

    def test_first_round_fedavg_matches_manual_average(self):
        cfg = tiny_config(
            aggregator="fedavg",
            clients=[{"count": 3, "hidden_width": 6, "participation_rate": 1.0}],
        )
        sim = Simulation(cfg)
        sim.warm_up()
        sim.run_round()
        twin = Simulation(cfg)
        twin.warm_up()
        participants = twin._sample_participants()
        twin._broadcast(participants)
        twin.round_index += 1
        subs = twin._train_participants(participants)
        for lid in LayerId:
            expected = np.mean([subs[c].layers[lid].a for c in participants], axis=0)
            np.testing.assert_allclose(sim.state.layers[lid].a, expected,
                                       atol=1e-12)

    def test_attack_before_start_round_is_identity(self):
        benign = Simulation(tiny_config(attack={"kind": "none"})).run()
        attacked = Simulation(tiny_config(attack={
            "kind": "lie", "start_round": 50, "attacker_ids": [0, 2],
            "z_override": 1.5,
        })).run()
        a = [r.metrics.to_record() for r in benign]
        b = [r.metrics.to_record() for r in attacked]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_recall_zero_by_convention_before_start(self):
        cfg = tiny_config(rounds=4, attack={
            "kind": "lie", "start_round": 3, "attacker_ids": [0, 2],
            "z_override": 1.0,
        })
        results = Simulation(cfg).run()
        assert results[0].metrics.positives == []
        assert results[0].metrics.recall == 0.0
        assert results[2].metrics.positives == [0, 2]

    def test_label_flip_changes_training_only_after_start(self):
        cfg = tiny_config(rounds=4, attack={
            "kind": "label_flip", "start_round": 3, "attacker_ids": [1],
        })
        results = Simulation(cfg).run()
        assert len(results) == 4  # smoke: flipped path exercised without error

    @pytest.mark.parametrize("layer", ["w1", "w2"])
    def test_frozen_backbone_refuses_writes(self, layer):
        sim = Simulation(tiny_config())
        sim.warm_up()
        w = getattr(sim.models[0], layer)
        with pytest.raises(ValueError):
            w[0, 0] += 1.0

    def test_frozen_backbone_cannot_be_made_writeable(self):
        sim = Simulation(tiny_config())
        sim.warm_up()
        for m in sim.models:
            for w in (m.w1, m.w2):
                with pytest.raises(ValueError):
                    w.flags.writeable = True
                assert not w.flags.writeable

    def test_rebound_backbone_checked_every_round(self):
        sim = Simulation(tiny_config())
        sim.warm_up()
        sim.run_round()
        sim.models[0].w1 = sim.models[0].w1.copy()  # equal bytes, another array
        with pytest.raises(SimulationError):
            sim.run_round()

    def test_round_loop_requires_warmup(self):
        sim = Simulation(tiny_config())
        with pytest.raises(SimulationError):
            sim.run_round()

    def test_payload_counts_participants(self):
        sim = Simulation(tiny_config())
        results = sim.run()
        expected = 0
        for model in sim.models:
            dims = model.layer_dims()
            r = sim.cfg.rank
            expected += 8 * sum(r * d.d_in + d.d_out * r for d in dims.values())
        assert results[0].metrics.payload_bytes == expected

    def test_diagnostics_rows_schema(self):
        sim = Simulation(tiny_config(), diagnostics=True)
        results = sim.run()
        rows = results[0].diagnostics
        assert len(rows) == 4 * 2 * 2  # clients x layers x matrices
        assert {d.matrix for d in rows} == {"A", "B"}
        assert all(r.diagnostics == [] for r in Simulation(tiny_config()).run())

    @pytest.mark.parametrize("aggregator, diagnostics, attack", [
        pytest.param("horus", True, None, id="horus"),
        pytest.param("median", True, None, id="median"),
        pytest.param("horus", False, None, id="horus-plain"),
        pytest.param("median", False, None, id="median-plain"),
        pytest.param("horus", True, "lie", id="horus-lie"),
        pytest.param("median", True, "lie", id="median-lie"),
    ])
    def test_each_submitted_factor_is_decomposed_once(
        self, aggregator, diagnostics, attack, monkeypatch
    ):
        # four factors a submission: horus decomposes each distinct array once
        # for detection, weights and diagnostics, plus the four aggregates it
        # tracks; other rules decompose only for the diagnostics. LIE
        # attackers of one width submit one set of arrays. Matrices are
        # counted over the leading dimension of each stacked LAPACK call.
        calls, submitted = [], {}
        svd = np.linalg.svd
        poison = Simulation._apply_model_poisoning

        def counting_svd(*args, **kwargs):
            a = args[0]
            calls.append(a.shape[0] if a.ndim == 3 else 1)
            return svd(*args, **kwargs)

        def spying_poison(sim, submissions, participants):
            poison(sim, submissions, participants)
            submitted.clear()
            submitted.update(submissions)

        overrides = {}
        if attack:  # two attackers in each of the two widths
            overrides = {
                "clients": [{"count": 5, "hidden_width": w, "participation_rate": 1.0}
                            for w in (6, 8)],
                "attack": {"kind": attack, "start_round": 1, "attacker_ids": [0, 1, 5, 6]},
            }
        sim = Simulation(tiny_config(aggregator=aggregator, rounds=3, **overrides),
                         diagnostics=diagnostics)
        sim.warm_up()
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(Simulation, "_apply_model_poisoning", spying_poison)
        for _ in range(sim.cfg.rounds):
            calls.clear()
            result = sim.run_round()
            participants = result.metrics.participants
            n = len(participants)
            arrays = {id(getattr(u.layers[lid], factor))
                      for u in submitted.values() for lid in LayerId for factor in "ab"}
            shapes = {
                getattr(sim.models[c].lora[lid], factor).shape
                for c in participants for lid in LayerId for factor in "ab"
            }
            if attack:
                assert n == 10 and len(arrays) == 4 * (n - 4) + 4 * 2
            else:
                assert len(arrays) == 4 * n
            if aggregator == "horus":
                tracked = 0 if result.outcome.skipped else 4
                assert sum(calls) == len(arrays) + tracked
            elif diagnostics:
                assert sum(calls) == len(arrays)
            else:
                assert sum(calls) == 0
            assert len(calls) <= len(shapes) + 4

    def test_krum_rounds_with_too_few_participants_are_skipped(self):
        # f=2 is feasible for all 8 clients but not for fewer than 7
        cfg = tiny_config(
            clients=[{"count": 4, "hidden_width": 6, "participation_rate": 1.0},
                     {"count": 4, "hidden_width": 8, "participation_rate": 0.5}],
            aggregator={"kind": "krum", "f": 2}, rounds=8,
        )
        sim = Simulation(cfg)
        sim.warm_up()
        skipped = 0
        for _ in range(cfg.rounds):
            before = {lid: (layer.a.copy(), layer.b.copy())
                      for lid, layer in sim.state.layers.items()}
            r = sim.run_round()
            m = r.metrics
            infeasible = len(m.participants) < 7
            assert m.aggregation_skipped == infeasible
            assert m.to_record()["aggregation_skipped"] is infeasible
            if infeasible:
                skipped += 1
                assert r.outcome is None  # the server step did not run
                for lid, layer in sim.state.layers.items():
                    np.testing.assert_array_equal(layer.a, before[lid][0])
                    np.testing.assert_array_equal(layer.b, before[lid][1])
            else:
                assert r.outcome.detection is None and not r.outcome.skipped
                assert r.outcome.state is sim.state
        assert 0 < skipped < cfg.rounds
        # a round nobody joins has no server step either
        sim._sample_participants = lambda: []
        r = sim.run_round()
        assert r.metrics.participants == [] and r.outcome is None
        assert r.metrics.to_record()["aggregation_skipped"] is True

    def test_all_flagged_round_records_aggregation_skipped(self, caplog):
        cfg = tiny_config(detection={"lambda": 0.5, "k": 2, "mode": {"top_m": 4}},
                          rounds=2)
        sim = Simulation(cfg)
        sim.warm_up()
        for _ in range(cfg.rounds):
            before = sim.state
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="horus"):
                r = sim.run_round()
            assert r.outcome.detection.flagged == frozenset(r.metrics.participants)
            assert r.outcome.skipped and r.outcome.state is before is sim.state
            assert r.metrics.aggregation_skipped
            assert r.metrics.to_record()["aggregation_skipped"] is True
            warnings = [rec for rec in caplog.records if rec.levelno >= logging.WARNING]
            assert len(warnings) == 1, [rec.getMessage() for rec in warnings]
            assert "flagged" in warnings[0].getMessage()

    def test_non_finite_crafted_vector_submits_the_trained_update(
        self, monkeypatch, caplog
    ):
        cfg = tiny_config(rounds=1, attack={
            "kind": "lie", "start_round": 1, "attacker_ids": [0, 2],
            "z_override": 1.5,
        })
        benign = Simulation(tiny_config(rounds=1)).run()[0].metrics.to_record()

        def non_finite(attack, knowledge, n_total, attacker_ids, rngs):
            bad = {0: np.nan, 2: np.inf}
            return {a: np.full(knowledge.shape[1], bad[a]) for a in attacker_ids}

        trained, submitted, _, _ = self.spy_round(monkeypatch)
        monkeypatch.setattr(horus.attacks, "craft_malicious_vectors", non_finite)
        sim = Simulation(cfg)
        with caplog.at_level(logging.WARNING, logger="horus.sim"):
            rec = sim.run()[0].metrics.to_record()
        warned = [r.args[1] for r in caplog.records
                  if "crafted vector" in r.getMessage()]
        assert warned == [0, 2]
        assert submitted[0] is trained[0] and submitted[2] is trained[2]
        for layer in sim.state.layers.values():
            assert np.isfinite(layer.a).all() and np.isfinite(layer.b).all()
        assert rec.keys() == benign.keys()
        assert rec["positives"] == [0, 2]

    @staticmethod
    def spy_round(monkeypatch):
        """(trained, submitted, crafted, states): every ``local_train`` result,
        the submissions and state the server step gets, and every crafted
        vector of the round."""
        trained, submitted, crafted, states = {}, {}, {}, []
        real_train, real_aggregate = horus.sim.local_train, horus.sim.horus_aggregate
        real_craft = horus.attacks.craft_malicious_vectors

        def spying_train(model, *args, **kwargs):
            trained[model.client_id] = real_train(model, *args, **kwargs)
            return trained[model.client_id]

        def spying_aggregate(submissions, g, *args, **kwargs):
            submitted.update(submissions)
            states.append(g)
            return real_aggregate(submissions, g, *args, **kwargs)

        def spying_craft(*args, **kwargs):
            crafted.update(real_craft(*args, **kwargs))
            return crafted

        monkeypatch.setattr(horus.sim, "local_train", spying_train)
        monkeypatch.setattr(horus.sim, "horus_aggregate", spying_aggregate)
        monkeypatch.setattr(horus.attacks, "craft_malicious_vectors", spying_craft)
        return trained, submitted, crafted, states

    @pytest.mark.parametrize("attackers, knowledge", [
        pytest.param([0], "all", id="no-attacker-present"),
        pytest.param([0, 1], "own", id="one-knowledge-vector"),
    ])
    def test_a_skipped_attack_submits_the_trained_updates(
        self, monkeypatch, caplog, attackers, knowledge
    ):
        cfg = tiny_config(rounds=1, attack={
            "kind": "min_max", "attacker_ids": attackers, "knowledge": knowledge,
        })
        trained, submitted, crafted, _ = self.spy_round(monkeypatch)
        sim = Simulation(cfg)
        sim.warm_up()
        # client 1 sits out: attacker 0 is absent, or alone in its cohort
        participants = [1, 2, 3] if attackers == [0] else [0, 2, 3]
        sim._sample_participants = lambda: participants
        with caplog.at_level(logging.WARNING, logger="horus"):
            sim.run_round()
        assert not crafted
        assert sorted(submitted) == participants
        assert all(submitted[c] is trained[c] for c in participants)
        warned = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warned) == 1 and "attack skipped" in warned[0]

    def test_attackers_of_two_widths_submit_their_block_of_the_crafted_row(
        self, monkeypatch
    ):
        # two attackers of width 6 and two of width 8; fang draws a different
        # row for each attacker, LIE crafts one row for all
        clients = [{"count": 3, "hidden_width": w, "participation_rate": 1.0} for w in (6, 8)]
        attackers = [0, 1, 3, 4]
        _, submitted, crafted, states = self.spy_round(monkeypatch)
        for kind, extra in (("fang_trimmed", {}), ("lie", {"z_override": 1.5})):
            cfg = tiny_config(rounds=2, clients=clients, attack={
                "kind": kind, "attacker_ids": attackers, "knowledge": "all", **extra,
            })
            sim = Simulation(cfg)
            sim.warm_up()
            for _ in range(cfg.rounds):
                crafted.clear()
                sim.run_round()
                assert sorted(crafted) == attackers
                g = states[-1]
                for a, row in crafted.items():
                    # the row by hand: every layer's A, then every B, at g's shapes
                    blocks, offset = {}, 0
                    for factor in ("a", "b"):
                        for lid in LayerId:
                            rows, cols = getattr(g.layers[lid], factor).shape
                            block = row[offset : offset + rows * cols].reshape(rows, cols)
                            blocks[lid, factor] = block
                            offset += rows * cols
                    assert offset == row.size
                    for lid, dims in sim.models[a].layer_dims().items():
                        pair = submitted[a].layers[lid]
                        want_a = blocks[lid, "a"][:, : dims.d_in]
                        want_b = blocks[lid, "b"][: dims.d_out, :]
                        assert pair.a.shape == want_a.shape and pair.b.shape == want_b.shape
                        assert pair.a.tobytes() == want_a.tobytes()
                        assert pair.b.tobytes() == want_b.tobytes()
                for same_width in ((0, 1), (3, 4)):
                    first, second = (submitted[a].layers for a in same_width)
                    for lid in LayerId:
                        if kind == "lie":  # one set of read-only pairs a width
                            assert first[lid] is second[lid]
                            for m in (first[lid].a, first[lid].b):
                                with pytest.raises(ValueError, match="read-only"):
                                    m[0, 0] = 1.0
                        else:
                            assert not np.shares_memory(first[lid].a, second[lid].a)
                            assert not np.shares_memory(first[lid].b, second[lid].b)
                assert submitted[0].layers[LayerId.CLASSIFIER].a.shape != (
                    submitted[3].layers[LayerId.CLASSIFIER].a.shape)

    def test_frob_of_a_huge_finite_state_is_finite_and_json_safe(self):
        sim = Simulation(tiny_config(aggregator="fedavg", rounds=1))
        sim.warm_up()
        for layer in sim.state.layers.values():
            layer.a[:] = 1e200
            layer.b[:] = -1e200
        rec = sim.run_round().metrics.to_record()
        for lid, layer in sim.state.layers.items():
            for factor in ("a", "b"):
                m = getattr(layer, factor)
                assert np.all(np.isfinite(m)) and np.abs(m).max() >= 1e199
                scale = float(np.abs(m).max())
                expected = scale * math.sqrt(float(((m / scale) ** 2).sum()))
                assert rec["frob"][lid.value][factor] == pytest.approx(
                    expected, rel=1e-12
                )
        json.dumps(rec, allow_nan=False)

    def test_non_finite_frob_recorded_as_null(self):
        sim = Simulation(tiny_config(rounds=1))
        metrics = sim.run()[0].metrics
        frob = {"feature_first": {"a": math.inf, "b": 1.0},
                "classifier": {"a": math.nan, "b": 2.0}}
        rec = dataclasses.replace(metrics, frob=frob).to_record()
        assert rec["frob"] == {"feature_first": {"a": None, "b": 1.0},
                               "classifier": {"a": None, "b": 2.0}}
        json.dumps(rec, allow_nan=False)


class TestRoundWork:
    """A round re-evaluates and re-trims only the clients it broadcasts to."""

    def pool_config(self, rounds=6):
        # rates drawn from the default pool, so some clients sit rounds out
        return tiny_config(clients=[{"count": 4, "hidden_width": 6},
                                    {"count": 4, "hidden_width": 8}],
                           rounds=rounds)

    def test_cached_accuracies_equal_a_fresh_evaluation(self, monkeypatch):
        sim = Simulation(self.pool_config())
        sim.warm_up()
        assert sim._global_cast is not None  # global accuracies take float32
        assert all(p.test.n > 0 for p in sim.profiles)
        stacks, on_local, on_global = [], [], []  # client ids per stack, and outcomes per set
        measure_group, certify = Simulation._measure_group, horus.sim.certify

        def counting_group(self, pairs, ids, *args):
            stacks.append(list(ids))
            return measure_group(self, pairs, ids, *args)

        def on(datasets):
            return on_global if datasets is sim.global_test else on_local

        def counting_certify(weights, norms, datasets, *args):
            certs = certify(weights, norms, datasets, *args)
            assert len(certs) == len(weights[0]) == len(stacks[-1])
            on(datasets).extend("certified" for cert in certs if cert is not None)
            return certs

        monkeypatch.setattr(Simulation, "_measure_group", counting_group)
        monkeypatch.setattr(horus.sim, "certify", counting_certify)
        partial = 0
        for _ in range(sim.cfg.rounds):
            for calls in (stacks, on_local, on_global):
                calls.clear()
            m = sim.run_round().metrics
            measured = list(range(len(sim.models))) if m.round == 1 else m.participants
            # each measured model is in one stack, with every measured model
            # that holds its pairs (after a broadcast, each participant of
            # its width), and is certified once on each set
            assert sorted(cid for ids in stacks for cid in ids) == sorted(measured)
            held = [{tuple(map(id, sim.models[cid].lora.values())) for cid in ids}
                    for ids in stacks]
            assert all(len(pairs) == 1 for pairs in held)
            assert len(set.union(*held)) == len(stacks)
            assert len(on_local) == len(on_global) == len(measured)
            assert_float64_accuracies(sim, m)
            partial += len(m.participants) < len(sim.models)
        assert partial > 0

    def test_every_participant_trains_from_the_current_state(self, monkeypatch):
        sim = Simulation(self.pool_config(rounds=8))
        sim.warm_up()
        seen = {}
        train = horus.sim.local_train

        def spying(model, *args, **kwargs):
            seen[model.client_id] = {lid: (p.a.copy(), p.b.copy())
                                     for lid, p in model.lora.items()}
            return train(model, *args, **kwargs)

        monkeypatch.setattr(horus.sim, "local_train", spying)
        previous: set[int] = set()
        returning = 0
        for _ in range(sim.cfg.rounds):
            if sim.round_index > 0:  # the state may be edited in place between rounds
                sim.state.layers[FF].a *= 0.5
            state = copy.deepcopy(sim.state)
            seen.clear()
            m = sim.run_round().metrics
            assert sorted(seen) == m.participants
            for cid in m.participants:
                dims = sim.models[cid].layer_dims()
                for lid in LayerId:
                    want = trim_to_local(state, lid, dims[lid])
                    assert seen[cid][lid][0].tobytes() == want.a.tobytes()
                    assert seen[cid][lid][1].tobytes() == want.b.tobytes()
            if m.round > 1:  # absent last round, so not sent last round's state
                returning += len(set(m.participants) - previous)
            previous = set(m.participants)
        assert returning > 0

    SETS = ("global set", "local sets")

    def spy_certificates(self, monkeypatch, sim):
        """The set, the prior certificate and the result of every model that
        certify measured on a set that is not empty; each has a result."""
        calls = []
        certify = horus.sim.certify

        def spying(weights, norms, datasets, cast, priors, drift):
            certs = certify(weights, norms, datasets, cast, priors, drift)
            name = self.SETS[datasets is not sim.global_test]
            sets = [datasets] * len(certs) if name == "global set" else datasets
            calls.extend((name, prior, cert)
                         for dataset, prior, cert in zip(sets, priors, certs) if dataset.n)
            assert all(cert is not None for _, _, cert in calls)
            return certs

        monkeypatch.setattr(horus.sim, "certify", spying)
        return calls

    @staticmethod
    def carried(calls, name=None):
        """The rows each carried certificate (of the set ``name``) recomputed."""
        return [c.recomputed for n, _, c in calls
                if c.recomputed is not None and name in (None, n)]

    def test_recertified_accuracies_follow_a_state_edited_in_place(self, monkeypatch,
                                                                   caplog):
        sim = Simulation(self.pool_config(rounds=8))
        sim.warm_up()
        calls = self.spy_certificates(monkeypatch, sim)
        totals = dict.fromkeys(["carried", "recomputed", "refused", "full"], 0)
        for _ in range(sim.cfg.rounds):
            if sim.round_index > 0:  # the state may be edited in place between rounds
                sim.state.layers[FF].a *= 0.5
            calls.clear()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="horus.sim"):
                m = sim.run_round().metrics
            assert_float64_accuracies(sim, m)
            # one line a round; per set, the models carried and the rows they
            # recomputed, the carries refused and the full passes, each as
            # the spy counted them
            measured = len(sim.models) if m.round == 1 else len(m.participants)
            assert len(calls) == 2 * measured
            parts = []
            for name in self.SETS:
                mine = [(prior, c) for n, prior, c in calls if n == name]
                carried = self.carried(calls, name)
                refused = sum(prior is not None for prior, _ in mine) - len(carried)
                full = sum(c.recomputed is None for _, c in mine)
                parts.append(f"{name}: {len(carried)} carried ({sum(carried)} row(s) "
                             f"recomputed), {refused} refused, {full} full pass(es)")
                totals["carried"] += len(carried)
                totals["recomputed"] += sum(carried)
                totals["refused"] += refused
                totals["full"] += full
            lines = [r.getMessage() for r in caplog.records if "carried" in r.getMessage()]
            assert lines == [f"round {m.round}: " + "; ".join(parts)]
        assert all(totals.values()), totals

    def test_a_jump_takes_the_full_path(self, monkeypatch):
        sim = Simulation(self.pool_config(rounds=3))
        sim.warm_up()
        calls = self.spy_certificates(monkeypatch, sim)
        for _ in range(sim.cfg.rounds):
            if sim.round_index == 2:  # every delta grows a hundredfold
                for layer in sim.state.layers.values():
                    layer.b *= 100.0
            calls.clear()
            m = sim.run_round().metrics
            assert_float64_accuracies(sim, m)
            with_prior = [(prior, c) for n, prior, c in calls
                          if prior is not None and n == "global set"]
            if m.round == 2:  # every prior that proved a cut above 0 carries
                assert any(prior.cut > 0 for prior, _ in with_prior)
                assert all(c.recomputed is not None for prior, c in with_prior if prior.cut > 0)
        # every participant was measured on both sets, and none carried
        assert len(calls) == 2 * len(m.participants)
        assert len(m.participants) >= len(with_prior) > 0
        assert self.carried(calls, "global set") == []  # each took the full pass

    def test_replaced_adapters_are_measured_again(self):
        sim = Simulation(self.pool_config(rounds=1))
        sim.run()
        rng = np.random.default_rng(0)
        model = sim.models[0]
        model.lora = {lid: LoraPair(p.a, 50 * rng.normal(size=p.b.shape))
                      for lid, p in model.lora.items()}
        assert_float64_accuracies(sim, sim._measure([], None, 0))

    def test_two_participant_horus_round_skips_detection(self, caplog):
        cfg = tiny_config(
            clients=[{"count": 1, "hidden_width": 6, "participation_rate": 1.0},
                     {"count": 1, "hidden_width": 8, "participation_rate": 1.0}],
            rounds=2,
        )
        sim = Simulation(cfg)
        with caplog.at_level(logging.WARNING, logger="horus.detection"):
            results = sim.run()
        assert sum("detection skipped" in r.getMessage()
                   for r in caplog.records) == cfg.rounds
        for r in results:
            assert r.metrics.participants == [0, 1]
            assert r.outcome.detection.skipped
            assert r.outcome.detection.flagged == frozenset()
            rec = r.metrics.to_record()
            assert rec["detection_skipped"] is True and rec["flagged"] == []
            assert rec["theta"] is None and rec["aggregation_skipped"] is False


@st.composite
def measured_federations(draw):
    """A federation of one to three widths with partial participation, the
    in-place state edit made before each round, the round after which every
    model of the first width gets adapters that cancel one of their first
    layers, that model, and a client whose local test set is emptied."""
    widths = draw(st.lists(st.sampled_from([3, 5, 8]), min_size=1, max_size=3, unique=True))
    counts = [draw(st.integers(2, 3))] + [draw(st.integers(1, 3)) for _ in widths[1:]]
    clients = [{"count": n, "hidden_width": w,
                "participation_rate": draw(st.sampled_from(horus.sim.PARTICIPATION_POOL))}
               for n, w in zip(counts, widths)]
    edits = draw(st.lists(st.sampled_from(["none", "halve_a", "jump"]), min_size=3, max_size=5))
    cfg = tiny_config(
        task={"feature_dim": 6, "num_classes": 3, "samples_per_class": 150,
              "class_separation": 3.0, "noise_scale": 0.8, "dirichlet_alpha": 0.5,
              "signal_dim": 3, "seed": draw(st.integers(0, 2**16))},
        clients=clients, rounds=len(edits), master_seed=draw(st.integers(0, 2**16)))
    return (cfg, edits, draw(st.integers(0, len(edits) - 1)),
            draw(st.integers(0, counts[0] - 1)), draw(st.integers(0, sum(counts) - 1)))


class TestStackedMeasuring:
    """Measuring each round's models as one stack per shared-adapter group
    counts what float64 counts, whatever the federation and its edits."""

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(measured_federations())
    def test_every_round_counts_the_float64_hits(self, federation):
        cfg, edits, replaced_after, target, emptied = federation
        sim = Simulation(cfg)
        sim.warm_up()
        p = sim.profiles[emptied]
        sim.profiles[emptied] = horus.sim.ClientProfile(
            p.participation_rate, p.train, Dataset(p.test.x[:0], p.test.y[:0]))
        for r, edit in enumerate(edits):
            # the state may be edited in place between rounds: halving A
            # drifts the deltas a little, and a hundredfold B jumps past
            # every certificate
            if edit == "halve_a":
                sim.state.layers[FF].a *= 0.5
            elif edit == "jump":
                for layer in sim.state.layers.values():
                    layer.b *= 100.0
            assert_float64_accuracies(sim, sim.run_round().metrics)
            if r == replaced_after:
                # B1 A1 = -W1 of the target: its first layer is exactly 0, a
                # norm below NORM_RANGE, in the stack of its whole width
                model = sim.models[target]
                d = model.w1.shape[1]
                shared = {FF: LoraPair(np.eye(d), -model.w1), CL: model.lora[CL]}
                for mate in sim.models:
                    if mate.w1.shape == model.w1.shape:
                        mate.lora = dict(shared)
                assert not effective_weights(model)[0].any()
                assert_float64_accuracies(sim, sim._measure([], None, 0))
                record = sim._measured[target]
                assert record.norms is None  # never offered as a prior
                for cert in record.certificates:
                    assert cert is None or (cert.cut == 0 and not cert.bound.any())
                # so its next measurement is a full pass on both sets, not a carry
                sim._broadcast([target])
                assert_float64_accuracies(sim, sim._measure([], None, 0))
                assert all(cert is None or cert.recomputed is None
                           for cert in sim._measured[target].certificates)


class TestDegenerateRounds:
    """Rounds at the edges of detection and aggregation run through
    ``run_round`` to one documented outcome."""

    PERCENTILE = {"lambda": 0.5, "k": 2, "mode": {"percentile": 95}}

    @staticmethod
    def spy_submissions(monkeypatch):
        submitted = {}
        aggregate = horus.sim.horus_aggregate

        def spying(updates, *args, **kwargs):
            submitted.clear()
            submitted.update(updates)
            return aggregate(updates, *args, **kwargs)

        monkeypatch.setattr(horus.sim, "horus_aggregate", spying)
        return submitted

    def test_one_participant_skips_detection_and_becomes_the_state(self, monkeypatch):
        cfg = tiny_config(clients=[{"count": 1, "hidden_width": 8,
                                    "participation_rate": 1.0}], rounds=2)
        submitted = self.spy_submissions(monkeypatch)
        sim = Simulation(cfg)
        sim.warm_up()
        for _ in range(cfg.rounds):
            r = sim.run_round()
            rec = r.metrics.to_record()
            assert rec["participants"] == [0] and rec["flagged"] == []
            assert rec["detection_skipped"] is True and rec["theta"] is None
            assert rec["aggregation_skipped"] is False
            assert r.outcome.detection.skipped and r.outcome.state is sim.state
            # the one client covers the whole state: its weighted mean is itself
            for lid, layer in sim.state.layers.items():
                pair = submitted[0].layers[lid]
                np.testing.assert_allclose(layer.a, pair.a, rtol=1e-15, atol=0)
                np.testing.assert_allclose(layer.b, pair.b, rtol=1e-15, atol=0)

    def test_rank_above_the_input_width_runs_a_full_round(self):
        cfg = tiny_config(rank=10)  # input widths 8 (features) and 6 or 8
        sim = Simulation(cfg)
        sim.warm_up()
        for _ in range(cfg.rounds):
            r = sim.run_round()
            rec = r.metrics.to_record()
            assert not rec["detection_skipped"] and not rec["aggregation_skipped"]
            assert len(rec["flagged"]) == 1 and np.isfinite(rec["theta"])
            for cid, decomposition in r.outcome.decompositions.items():
                dims = sim.models[cid].layer_dims()
                for lid in LayerId:
                    values, _ = decomposition[lid, "a"]
                    assert len(values) == dims[lid].d_in < cfg.rank
            for lid, layer in sim.state.layers.items():
                assert layer.a.shape[0] == layer.b.shape[1] == cfg.rank
                assert np.isfinite(layer.a).all() and np.isfinite(layer.b).all()
            json.dumps(rec, allow_nan=False)

    def test_identical_updates_score_equal_and_none_is_flagged(self, monkeypatch):
        # lr 0: every client of the one width submits the broadcast state, so
        # the entropies' spread is 0 and the guard zeroes the entropy term
        cfg = tiny_config(lr=0.0, detection=self.PERCENTILE, rounds=2, clients=[
            {"count": 4, "hidden_width": 8, "participation_rate": 1.0}])
        submitted = self.spy_submissions(monkeypatch)
        sim = Simulation(cfg)
        sim.warm_up()
        for _ in range(cfg.rounds):
            before = copy.deepcopy(sim.state)
            r = sim.run_round()
            pairs = [[(u.layers[lid].a.tobytes(), u.layers[lid].b.tobytes())
                      for lid in LayerId] for u in submitted.values()]
            assert len(submitted) == 4 and all(p == pairs[0] for p in pairs)
            scores = r.outcome.detection.scores.values()
            assert len({(s.score, *s.per_layer.values()) for s in scores}) == 1
            assert all(np.isfinite(s.score) for s in scores)
            rec = r.metrics.to_record()
            assert rec["flagged"] == [] and not rec["detection_skipped"]
            assert not rec["aggregation_skipped"]
            for lid, layer in sim.state.layers.items():
                np.testing.assert_allclose(layer.a, before.layers[lid].a, rtol=1e-15)
                np.testing.assert_allclose(layer.b, before.layers[lid].b, rtol=1e-15)

    def test_all_zero_updates_aggregate_to_zero_and_keep_directions(self, monkeypatch):
        def zero_train(model, *args, **kwargs):
            layers = {lid: LoraPair(np.zeros_like(p.a), np.zeros_like(p.b))
                      for lid, p in model.lora.items()}
            return horus.sim.ClientUpdate(layers)

        monkeypatch.setattr(horus.sim, "local_train", zero_train)
        cfg = tiny_config(detection=self.PERCENTILE, rounds=2)
        sim = Simulation(cfg)
        sim.warm_up()
        for _ in range(cfg.rounds):
            r = sim.run_round()
            rec = r.metrics.to_record()
            assert rec["flagged"] == [] and not rec["aggregation_skipped"]
            assert len({s.score for s in r.outcome.detection.scores.values()}) == 1
            assert all(v == {"a": 0.0, "b": 0.0} for v in rec["frob"].values())
            # a zero aggregate has no direction: e1 first, then the one kept
            for layer in sim.state.layers.values():
                assert not layer.a.any() and not layer.b.any()
                for v in (layer.v_a, layer.v_b):
                    np.testing.assert_array_equal(v, np.eye(1, len(v))[0])
            json.dumps(rec, allow_nan=False)


class TestSharedBroadcast:
    """A broadcast trims the state once per client shape, and clients of one
    shape share the read-only result."""

    def config(self, widths):
        return tiny_config(clients=[
            {"count": 1, "hidden_width": w, "participation_rate": 1.0} for w in widths
        ])

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(st.lists(st.sampled_from([5, 6, 8]), min_size=1, max_size=6), st.data())
    def test_clients_of_one_width_share_read_only_pairs(self, widths, data):
        sim = Simulation(self.config(widths))
        ids = data.draw(st.lists(st.sampled_from(range(len(widths))), unique=True))
        trims = []

        def counting(*args):
            trims.append(args)
            return trim_to_local(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(horus.sim, "trim_to_local", counting)
            sim._broadcast(ids)
        assert len(trims) == len(LayerId) * len({widths[c] for c in ids})
        for c in ids:
            lora = sim.models[c].lora
            for d in ids:
                same = widths[c] == widths[d]
                assert (sim.models[d].lora is lora) == (c == d)
                for lid in LayerId:
                    assert (sim.models[d].lora[lid] is lora[lid]) == same
            dims = sim.models[c].layer_dims()
            for lid, pair in lora.items():
                want = trim_to_local(sim.state, lid, dims[lid])
                for m, w in ((pair.a, want.a), (pair.b, want.b)):
                    assert m.tobytes() == w.tobytes() and not m.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        m[0, 0] = 1.0

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.sampled_from(list(LayerId)), st.sampled_from("ab"), st.data())
    def test_a_nan_in_any_block_a_client_receives_raises(self, lid, factor, data):
        widths = [5, 6, 8, 8]
        sim = Simulation(self.config(widths))
        m = getattr(sim.state.layers[lid], factor)
        row = data.draw(st.integers(0, m.shape[0] - 1))
        col = data.draw(st.integers(0, m.shape[1] - 1))
        ids = data.draw(st.lists(st.sampled_from(range(len(widths))), unique=True))
        m[row, col] = np.nan

        def receives(c):
            dims = sim.models[c].layer_dims()[lid]
            rows, cols = (sim.cfg.rank, dims.d_in) if factor == "a" else (
                dims.d_out, sim.cfg.rank)
            return row < rows and col < cols

        if any(receives(c) for c in ids):
            with pytest.raises(ValueError, match="non-finite"):
                sim._broadcast(ids)
        else:
            sim._broadcast(ids)

    def test_a_round_leaves_clients_of_one_width_sharing_pairs(self):
        sim = Simulation(self.config([6, 6, 8, 8]))
        results = sim.run()
        assert all(r.metrics.participants == [0, 1, 2, 3] for r in results)
        models = sim.models
        for lid in LayerId:
            assert models[0].lora[lid] is models[1].lora[lid]
            assert models[2].lora[lid] is models[3].lora[lid]
            assert not models[0].lora[lid].a.flags.writeable


class TestClientTemplates:
    def test_participation_pool_draw(self):
        cfg = tiny_config(clients=[{"count": 6, "hidden_width": 6}])
        sim = Simulation(cfg)
        assert all(p.participation_rate in (1.0, 0.75, 0.5)
                   for p in sim.profiles)

    def test_template_expansion_order(self):
        tpl = (ClientTemplate(2, 6, 1.0), ClientTemplate(1, 8, 0.5))
        cfg = dataclasses.replace(tiny_config(), clients=tpl)
        assert cfg.expand_clients() == [(0, 6, 1.0), (0, 6, 1.0), (1, 8, 0.5)]


AGGREGATORS = ("horus", "fedavg", "krum", "multi_krum", "median", "trimmed_mean")
ATTACKS = ("none", "label_flip", "lie", "min_max", "min_sum", "fang_trimmed")
NON_FINITE = (math.nan, math.inf, -math.inf)


def rarely_non_finite(draw, values):
    """A draw from ``values``, or one time in 16 NaN, inf or -inf."""
    if draw(st.integers(0, 15)) == 0:
        return draw(st.sampled_from(NON_FINITE))
    return draw(values)


@st.composite
def small_configs(draw):
    """Config mappings of 1-18 clients of widths 1-12, ranks 1-8, every
    aggregator and attack kind, lr up to 50 and 4 rounds; some are invalid,
    among them those with a non-finite float."""
    clients = [
        {"count": draw(st.integers(1, 6)), "hidden_width": draw(st.integers(1, 12)),
         "participation_rate": draw(st.sampled_from([None, 1.0, 0.5]))}
        for _ in range(draw(st.integers(1, 3)))
    ]
    n = sum(c["count"] for c in clients)
    attack = {"kind": draw(st.sampled_from(ATTACKS))}
    if attack["kind"] != "none":
        attack.update(
            start_round=draw(st.integers(1, 4)),
            attacker_ids=draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True)),
            knowledge=draw(st.sampled_from(["own", "all"])),
            direction=draw(st.sampled_from(["neg_std", "inverse_unit"])),
        )
        if draw(st.booleans()):
            attack["z_override"] = rarely_non_finite(draw, st.floats(-3.0, 3.0))
    mode = draw(st.sampled_from([{"top_m": m} for m in range(4)]
                                + [{"percentile": 50.0}, {"percentile": 95.0}]))
    return {
        "task": {"feature_dim": 6, "num_classes": 3,
                 "samples_per_class": draw(st.integers(4, 50)), "signal_dim": 3,
                 "seed": draw(st.integers(0, 3)),
                 "class_separation": rarely_non_finite(draw, st.just(3.5)),
                 "noise_scale": rarely_non_finite(draw, st.just(0.8)),
                 "dirichlet_alpha": rarely_non_finite(draw, st.just(0.3))},
        "clients": clients,
        "aggregator": {"kind": draw(st.sampled_from(AGGREGATORS)),
                       "f": draw(st.integers(0, 3)), "m": draw(st.integers(1, 4)),
                       "beta": draw(st.sampled_from([0.0, 0.2, 0.4]))},
        "detection": {"lambda": draw(st.sampled_from([0.0, 0.3, 1.0])),
                      "k": draw(st.integers(1, 6)), "mode": mode,
                      "source": draw(st.sampled_from(["a", "b"]))},
        "attack": attack,
        "rounds": 4,
        "lr": rarely_non_finite(draw, st.sampled_from([0.0, 0.1, 0.3, 1.0, 5.0, 20.0, 50.0])),
        "warmup_lr": rarely_non_finite(draw, st.sampled_from([None, 0.1, 1.0, -1.0])),
        "epochs": 1,
        "batch": 16,
        "rank": draw(st.integers(1, 8)),
        "warmup_epochs": 1,
        "master_seed": draw(st.integers(0, 3)),
    }


# two configs that parsed and then aborted mid-run: a LIE z the n/m formula
# leaves undefined, and a min-max search whose distance bound outgrew 2**30
LIE_Z_UNDEFINED = {
    "task": {"feature_dim": 6, "num_classes": 3, "samples_per_class": 20},
    "clients": [{"count": 2, "hidden_width": 4}], "aggregator": "fedavg",
    "attack": {"kind": "lie", "attacker_ids": [0], "knowledge": "all"},
    "rounds": 4, "batch": 16, "rank": 2, "warmup_epochs": 1,
}
MIN_MAX_UNBOUND = {
    "task": {"feature_dim": 6, "num_classes": 3, "samples_per_class": 50},
    "clients": [{"count": 8, "hidden_width": 6, "participation_rate": 1.0}],
    "aggregator": "median",
    "attack": {"kind": "min_max", "attacker_ids": [0, 1], "knowledge": "all"},
    "rounds": 4, "lr": 50.0, "batch": 16, "rank": 4, "warmup_epochs": 1,
}


def non_finite(section, key, value):
    """A 4-client, 3-class LIE config that once parsed with ``value`` (NaN
    or inf) at ``key``: the infinities leaked a RuntimeWarning from
    training, and NaN ran without a word (``lr`` to chance accuracy,
    ``dirichlet_alpha`` as a uniform split, ``z_override`` with every
    crafted vector non-finite and the attack skipped)."""
    data = {
        "task": {"feature_dim": 6, "num_classes": 3, "samples_per_class": 20},
        "clients": [{"count": 4, "hidden_width": 4, "participation_rate": 1.0}],
        "aggregator": "fedavg",
        "attack": {"kind": "lie", "attacker_ids": [0], "z_override": 1.0},
        "rounds": 2, "batch": 16, "rank": 2, "warmup_epochs": 1,
    }
    (data if section is None else data[section])[key] = value
    return data


def float_leaves(tree):
    """Every float in a nested mapping or list."""
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, list):
        return [leaf for item in tree for leaf in float_leaves(item)]
    return [tree] if isinstance(tree, float) else []


class TestConfigFuzz:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(small_configs())
    @example(LIE_Z_UNDEFINED)
    @example(MIN_MAX_UNBOUND)
    @example(non_finite(None, "lr", math.nan))
    @example(non_finite(None, "lr", math.inf))
    @example(non_finite(None, "warmup_lr", math.inf))
    @example(non_finite(None, "warmup_lr", math.nan))
    @example(non_finite("task", "class_separation", math.nan))
    @example(non_finite("task", "noise_scale", math.inf))
    @example(non_finite("task", "dirichlet_alpha", math.nan))
    @example(non_finite("attack", "z_override", math.nan))
    def test_a_config_is_rejected_at_parse_or_runs_to_the_end(self, data):
        try:
            cfg = parse_config(data)
        except ConfigurationError:
            return
        assert all(map(math.isfinite, float_leaves(config_to_dict(cfg))))
        traces = []
        for workers in (0, 3):
            results = Simulation(dataclasses.replace(cfg, workers=workers)).run()
            traces.append([r.metrics.to_record() for r in results])
        assert traces[0] == traces[1]
        for rec in traces[0]:
            json.dumps(rec, allow_nan=False)  # every float finite or null
            assert set(rec["flagged"]) <= set(rec["participants"])
