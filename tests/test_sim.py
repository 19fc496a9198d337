"""Unit tests for the synthetic federation: task, partition, training, rounds."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from horus.config import ClientTemplate, parse_config
from horus.errors import SimulationError
from horus.lora import LayerId, LoraPair
from horus.sim import (
    Dataset,
    LocalModel,
    Simulation,
    TaskConfig,
    dirichlet_partition,
    evaluate,
    generate_task,
    local_train,
    lora_gradients,
    lora_loss,
    new_model,
    warmup,
)

FF, CL = LayerId.FEATURE_FIRST, LayerId.CLASSIFIER


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
        shards = dirichlet_partition(pool, 5, 0.5, np.random.default_rng(0))
        joined = np.concatenate(shards)
        assert len(joined) == pool.n
        assert len(np.unique(joined)) == pool.n

    def test_every_client_nonempty(self):
        pool = self._pool(n_per_class=10, classes=2)
        for seed in range(10):
            shards = dirichlet_partition(pool, 8, 0.05, np.random.default_rng(seed))
            assert all(len(s) >= 1 for s in shards)

    def test_huge_alpha_near_uniform(self):
        pool = self._pool(n_per_class=500, classes=4)
        shards = dirichlet_partition(pool, 4, 1e6, np.random.default_rng(1))
        for shard in shards:
            hist = np.bincount(pool.y[shard], minlength=4) / len(shard)
            tv = 0.5 * np.abs(hist - 0.25).sum()
            assert tv <= 0.05

    def test_small_alpha_produces_skew(self):
        pool = self._pool(n_per_class=500, classes=4)
        skewed = False
        for seed in range(5):
            shards = dirichlet_partition(pool, 4, 0.1, np.random.default_rng(seed))
            for shard in shards:
                hist = np.bincount(pool.y[shard], minlength=4) / len(shard)
                if hist.max() > 0.5:
                    skewed = True
        assert skewed


def finite_difference_grads(model, lora, x, y, eps=1e-5):
    grads = {}
    for lid in LayerId:
        for name in ("a", "b"):
            base = getattr(lora[lid], name)
            g = np.zeros_like(base)
            for idx in np.ndindex(*base.shape):
                bumped_plus = {k: LoraPair(p.a.copy(), p.b.copy(), p.rank)
                               for k, p in lora.items()}
                bumped_minus = {k: LoraPair(p.a.copy(), p.b.copy(), p.rank)
                                for k, p in lora.items()}
                getattr(bumped_plus[lid], name)[idx] += eps
                getattr(bumped_minus[lid], name)[idx] -= eps
                g[idx] = (lora_loss(model, bumped_plus, x, y)
                          - lora_loss(model, bumped_minus, x, y)) / (2 * eps)
            grads.setdefault(lid, {})[name] = g
    return grads


class TestTraining:
    def _model_and_batch(self, seed, d=6, c=3, h=5, rank=2, n=10):
        rng = np.random.default_rng(seed)
        model = new_model(0, 0, d, c, h, rng)
        model.frozen = True
        model.lora = {
            FF: LoraPair(0.3 * rng.normal(size=(rank, d)),
                         0.3 * rng.normal(size=(h, rank)), rank),
            CL: LoraPair(0.3 * rng.normal(size=(rank, h)),
                         0.3 * rng.normal(size=(c, rank)), rank),
        }
        x = rng.normal(size=(n, d))
        y = rng.integers(0, c, size=n)
        return model, x, y

    def test_gradients_match_finite_differences(self):
        for seed in range(3):
            model, x, y = self._model_and_batch(seed)
            _, grads = lora_gradients(model, model.lora, x, y)
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


def oracle_local_train(model, shard, epochs, lr, batch, rng):
    """The adapter loop in plain numpy, one ``LoraPair`` per step.

    Same math, same order of operations and same RNG draws as the training
    loop, including the full softmax with its loss. Returns the last finite
    pairs and the number of steps taken before the first non-finite one.
    """
    lora = {lid: LoraPair(p.a.copy(), p.b.copy(), p.rank)
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
                lora = {lid: LoraPair(*stepped[lid], lora[lid].rank) for lid in lora}
                steps += 1
    return lora, steps


class TestTrainingLoopOracle:
    """``local_train`` against the plain-numpy loop, bit for bit."""

    def _model_and_shard(self, seed, h, scale=0.3, d=8, c=3, rank=2, n=37):
        rng = np.random.default_rng(seed)
        model = new_model(0, 0, d, c, h, rng)
        model.frozen = True
        model.lora = {
            FF: LoraPair(scale * rng.normal(size=(rank, d)),
                         scale * rng.normal(size=(h, rank)), rank),
            CL: LoraPair(scale * rng.normal(size=(rank, h)),
                         scale * rng.normal(size=(c, rank)), rank),
        }
        return model, Dataset(rng.normal(size=(n, d)), rng.integers(0, c, size=n))

    @pytest.mark.parametrize("h", [5, 9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_submission_and_rng_match_the_oracle(self, seed, h):
        model, shard = self._model_and_shard(seed, h)
        # 37 samples in batches of 8: four full batches and a ragged one of 5
        rng_oracle = np.random.default_rng(seed)
        expected, steps = oracle_local_train(model, shard, 3, 0.1, 8, rng_oracle)
        assert steps == 15
        rng = np.random.default_rng(seed)
        update = local_train(model, shard, epochs=3, lr=0.1, batch=8, rng=rng)
        for lid in LayerId:
            for name in ("a", "b"):
                want = getattr(expected[lid], name).tobytes()
                assert getattr(update.layers[lid], name).tobytes() == want
                assert getattr(model.lora[lid], name).tobytes() == want
        assert rng.bit_generator.state == rng_oracle.bit_generator.state

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


class TestWarmup:
    def _setup(self, seed=3):
        rng = np.random.default_rng(seed)
        task = TaskConfig(feature_dim=8, num_classes=3, samples_per_class=100,
                          class_separation=5.0, noise_scale=0.4, signal_dim=3,
                          seed=seed)
        train, test = generate_task(task)
        model = new_model(0, 0, 8, 3, 6, rng)
        init = {
            FF: LoraPair(0.01 * rng.normal(size=(2, 8)), np.zeros((6, 2)), 2),
            CL: LoraPair(0.01 * rng.normal(size=(2, 6)), np.zeros((3, 2)), 2),
        }
        return model, train, test, init, rng

    def test_warmup_improves_local_accuracy(self):
        model, train, test, init, rng = self._setup()
        before = evaluate(model, test)
        warmup(model, train, init, epochs=10, lr=0.1, batch=32, rng=rng)
        assert evaluate(model, test) > before

    def test_backbone_frozen_and_adapters_installed(self):
        model, train, _, init, rng = self._setup()
        warmup(model, train, init, epochs=2, lr=0.1, batch=32, rng=rng)
        assert model.frozen
        h = model.backbone_hash()
        local_train(model, train, 1, 0.1, 32, rng)
        assert model.backbone_hash() == h

    def test_zero_b_means_effective_equals_backbone(self):
        model, train, _, init, rng = self._setup()
        warmup(model, train, init, epochs=1, lr=0.1, batch=32, rng=rng)
        w1_eff, w2_eff = model.effective_weights()
        np.testing.assert_array_equal(w1_eff, model.w1)
        np.testing.assert_array_equal(w2_eff, model.w2)

    def test_double_warmup_rejected(self):
        model, train, _, init, rng = self._setup()
        warmup(model, train, init, epochs=1, lr=0.1, batch=32, rng=rng)
        with pytest.raises(SimulationError):
            warmup(model, train, init, epochs=1, lr=0.1, batch=32, rng=rng)


class TestEvaluate:
    def test_constant_predictor_scores_one_over_c(self):
        model = LocalModel(0, 0, np.zeros((4, 6)), np.zeros((3, 4)))
        x = np.random.default_rng(0).normal(size=(300, 6))
        y = np.repeat(np.arange(3), 100)
        # all-zero logits: argmax ties resolve to class 0
        assert evaluate(model, Dataset(x, y)) == pytest.approx(1 / 3)

    def test_shuffle_invariance(self):
        rng = np.random.default_rng(1)
        model = LocalModel(0, 0, rng.normal(size=(4, 6)), rng.normal(size=(3, 4)))
        x = rng.normal(size=(50, 6))
        y = rng.integers(0, 3, size=50)
        perm = rng.permutation(50)
        assert evaluate(model, Dataset(x, y)) == evaluate(
            model, Dataset(x[perm], y[perm])
        )

    def test_empty_dataset_rejected(self):
        model = LocalModel(0, 0, np.zeros((4, 6)), np.zeros((3, 4)))
        with pytest.raises(ValueError):
            evaluate(model, Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int)))

    def test_overflowing_adapters_leak_no_warning(self):
        rng = np.random.default_rng(2)
        model = LocalModel(0, 0, rng.normal(size=(4, 6)), rng.normal(size=(3, 4)))
        model.lora = {
            FF: LoraPair(np.full((2, 6), 1e200), np.full((4, 2), 1e200), 2),
            CL: LoraPair(np.full((2, 4), 1e200), np.full((3, 2), -1e200), 2),
        }
        data = Dataset(rng.normal(size=(20, 6)), rng.integers(0, 3, size=20))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acc = evaluate(model, data)
        assert isinstance(acc, float)

    def test_centroid_aligned_backbone_near_perfect(self):
        task = TaskConfig(feature_dim=12, num_classes=4, samples_per_class=400,
                          class_separation=10.0, noise_scale=0.1, signal_dim=4,
                          seed=5)
        train, test = generate_task(task)
        centroids = np.stack([train.x[train.y == c].mean(axis=0) for c in range(4)])
        # hidden unit per class, classifier reads it off directly
        model = LocalModel(0, 0, w1=centroids, w2=np.eye(4))
        assert evaluate(model, test) >= 0.99


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

    def test_backbone_hash_checked_every_round(self):
        sim = Simulation(tiny_config())
        sim.warm_up()
        sim.run_round()
        sim.models[0].w1[0, 0] += 1.0
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
        sim = Simulation(tiny_config())
        results = sim.run()
        rows = results[0].diagnostics
        assert len(rows) == 4 * 2 * 2  # clients x layers x matrices
        assert {d.matrix for d in rows} == {"A", "B"}

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
            m = sim.run_round().metrics
            infeasible = len(m.participants) < 7
            assert m.aggregation_skipped == infeasible
            if infeasible:
                skipped += 1
                for lid, layer in sim.state.layers.items():
                    np.testing.assert_array_equal(layer.a, before[lid][0])
                    np.testing.assert_array_equal(layer.b, before[lid][1])
        assert 0 < skipped < cfg.rounds

    def test_all_flagged_round_records_aggregation_skipped(self):
        cfg = tiny_config(detection={"lambda": 0.5, "k": 2, "mode": {"top_m": 4}},
                          rounds=2)
        results = Simulation(cfg).run()
        for r in results:
            assert r.detection.flagged == frozenset(r.metrics.participants)
            assert r.metrics.aggregation_skipped
            assert r.metrics.to_record()["aggregation_skipped"] is True

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
