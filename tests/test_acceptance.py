"""Acceptance suite: one test per release criterion, with a printed verdict.

The simulation-backed criteria (9-13) share one scenario: the default
synthetic task, 10 clients split 5/5 across two hidden widths, two LIE
attackers (ids 0 and 5, one per architecture) with z_override=1.5 from round
20, top-2 flagging at lambda=0.3, 100 rounds, three master seeds. Runs are
cached across tests.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from horus.aggregation import (
    AggregatorKind,
    HorusConfig,
    baseline_aggregate,
    horus_aggregate,
    krum_select,
    masked_mean,
)
from horus.attacks import min_max_attack, min_sum_attack
from horus.cli import main
from horus.config import parse_config
from horus.detection import TopM, client_features, decompose_round, detect_round
from horus.lora import (
    ClientUpdate,
    GlobalState,
    LayerDims,
    LayerId,
    LoraPair,
    pad_round,
    round_layout,
)
from horus.sim import Simulation, adapter_gradients, new_model
from horus.spectral import spectral_entropy, topk_energy_ratio

FF, CL = LayerId.FEATURE_FIRST, LayerId.CLASSIFIER
SEEDS = (1, 2, 3)


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


_RUN_CACHE: dict = {}


def report(num: int, ok: bool) -> None:
    print(f"acceptance criterion {num:02d}: {'PASS' if ok else 'FAIL'}")


def verdict(num):
    """Print the pass/fail line for a criterion based on test outcome."""
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            report(num, exc_type is None)
            return False

    return _Ctx()


def scenario_config(seed, aggregator="horus", attack=True, source="a", rank=8):
    return parse_config({
        "task": {"feature_dim": 64, "num_classes": 10, "samples_per_class": 4000,
                 "class_separation": 3.5, "noise_scale": 0.8,
                 "dirichlet_alpha": 0.3, "signal_dim": 5, "seed": 0},
        "clients": [
            {"count": 5, "hidden_width": 32, "participation_rate": 1.0},
            {"count": 5, "hidden_width": 48, "participation_rate": 1.0},
        ],
        "aggregator": aggregator,
        "detection": {"lambda": 0.3, "k": 5, "mode": {"top_m": 2},
                      "source": source},
        "attack": (
            {"kind": "lie", "start_round": 20, "attacker_ids": [0, 5],
             "z_override": 1.5}
            if attack else {"kind": "none"}
        ),
        "rounds": 100,
        "lr": 0.3,
        "epochs": 3,
        "batch": 256,
        "rank": rank,
        "warmup_epochs": 10,
        "warmup_lr": 0.15,
        "master_seed": seed,
    })


def run_scenario(seed, aggregator="horus", attack=True, source="a", rank=8):
    """A cached run; horus runs also carry the per-round diagnostic rows,
    read from the server step's own decompositions, which change nothing
    else in the run."""
    key = (seed, aggregator, attack, source, rank)
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = Simulation(
            scenario_config(seed, aggregator, attack, source, rank),
            diagnostics=aggregator == "horus",
        ).run()
    return _RUN_CACHE[key]


def tail_accuracy(results):
    return float(np.mean([r.metrics.global_accuracy for r in results[-10:]]))


def attack_round_mean(results, field):
    vals = [getattr(r.metrics, field) for r in results if r.metrics.round >= 20]
    return float(np.mean(vals))


def test_criterion_01_spectral_correctness():
    with verdict(1):
        start = time.perf_counter()
        uniform = np.ones(4)
        assert abs(spectral_entropy(uniform) - math.log(4)) <= 1e-9
        single = np.array([5.0, 0.0, 0.0, 0.0])
        assert abs(spectral_entropy(single)) <= 1e-9
        rng = np.random.default_rng(0)
        for _ in range(1000):
            r = int(rng.integers(1, 12))
            spec = np.sort(rng.random(r))[::-1]
            ratios = [topk_energy_ratio(spec, k) for k in range(1, r + 1)]
            assert all(0.0 <= x <= 1.0 + 1e-12 for x in ratios)
            assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
        assert time.perf_counter() - start < 1.0


def _random_update(rng, rank=8, ff=(64, 32), cl=(32, 10)):
    layers = {}
    for lid, (d_in, d_out) in ((FF, ff), (CL, cl)):
        layers[lid] = LoraPair(rng.normal(size=(rank, d_in)),
                               rng.normal(size=(d_out, rank)))
    return ClientUpdate(layers)


def test_criterion_02_obliviousness_invariants():
    with verdict(2):
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        for _ in range(10):  # 10 populations x 10 clients = 100 matrices
            updates = {c: _random_update(rng) for c in range(10)}
            feats = client_features(decompose_round(updates), 5)
            base = detect_round(feats, 0.3, TopM(2))

            transformed = {}
            for c, u in updates.items():
                scale = float(rng.uniform(0.1, 10.0))
                layers = {}
                for lid, p in u.layers.items():
                    a_pad = np.zeros((p.rank, p.a.shape[1] + 9))
                    a_pad[:, : p.a.shape[1]] = scale * p.a
                    layers[lid] = LoraPair(a_pad, p.b)
                transformed[c] = ClientUpdate(layers)
            tfeats = client_features(decompose_round(transformed), 5)
            for c in updates:
                for lid in LayerId:
                    assert abs(tfeats[c][lid].entropy_h
                               - feats[c][lid].entropy_h) <= 1e-10
                    assert abs(tfeats[c][lid].ratio_rk
                               - feats[c][lid].ratio_rk) <= 1e-10
            tdet = detect_round(tfeats, 0.3, TopM(2))
            for c in updates:
                assert abs(tdet.scores[c].score - base.scores[c].score) <= 1e-10
            assert tdet.flagged == base.flagged
        assert time.perf_counter() - start < 5.0


def test_criterion_03_hops_hand_oracle():
    with verdict(3):
        from horus.detection import LayerFeatures, hops_scores

        feats = {}
        for cid, ratio in enumerate((0.9, 0.9, 0.6)):
            lf = LayerFeatures(entropy_h=1.0, ratio_rk=ratio)
            feats[cid] = {FF: lf, CL: lf}
        scores = hops_scores(feats, lam=0.7)
        dev = np.array([1.0 - 0.9, 1.0 - 0.9, 1.0 - 0.6])
        expected = 0.7 * np.abs(dev - dev.mean())  # sigma guard zeroes entropy
        for cid in feats:
            assert scores[cid].score == expected[cid]
        assert scores[0].score == pytest.approx(0.07, abs=1e-12)
        assert scores[1].score == pytest.approx(0.07, abs=1e-12)
        assert scores[2].score == pytest.approx(0.14, abs=1e-12)


def test_criterion_04_aggregation_reductions():
    with verdict(4):
        rng = np.random.default_rng(2)
        dims = {FF: LayerDims(20, 12), CL: LayerDims(12, 5)}
        updates = {
            c: _random_update(rng, rank=4,
                              ff=(20 if c % 2 else 14, 12 if c % 2 else 8),
                              cl=(12 if c % 2 else 8, 5))
            for c in range(6)
        }
        state = GlobalState.zeros(dims, 4)
        values, masks = pad_round(list(updates.values()), state)
        zeros = np.zeros(values.shape[1])
        # unit weights, per row (fedavg) and per client and block (horus)
        plain = masked_mean(values, masks, np.ones((len(values), 1)), zeros)
        sizes = [b.cols.stop - b.cols.start for b in round_layout(state)]
        ones = np.repeat(np.ones((len(values), len(sizes))), sizes, axis=1)
        weighted = masked_mean(values, masks, ones, zeros)
        assert plain.tobytes() == weighted.tobytes()

        homogeneous = [_random_update(rng, rank=4, ff=(20, 12), cl=(12, 5))
                       for _ in range(5)]
        values, masks = pad_round(homogeneous, state)
        means = state.with_flat(masked_mean(values, masks, np.ones((5, 1)), zeros))
        for lid in LayerId:
            a_bar, b_bar = means.layers[lid].a, means.layers[lid].b
            mean_a = np.mean([u.layers[lid].a for u in homogeneous], axis=0)
            mean_b = np.mean([u.layers[lid].b for u in homogeneous], axis=0)
            assert np.abs(a_bar - mean_a).max() <= 1e-12
            assert np.abs(b_bar - mean_b).max() <= 1e-12

        # one client covering 2 of 6 A columns and B rows keeps the rest
        small = {FF: LayerDims(6, 6), CL: LayerDims(6, 3)}
        only = _random_update(rng, rank=4, ff=(2, 2), cl=(2, 3))
        prev = GlobalState.zeros(small, 4)
        prev.layers[FF].a[:] = 3.5
        prev.layers[FF].b[:] = -2.5
        values, masks = pad_round([only], prev)
        mean = prev.with_flat(masked_mean(values, masks, np.ones((1, 1)), prev.flat()))
        a_bar, b_bar = mean.layers[FF].a, mean.layers[FF].b
        assert np.array_equal(a_bar[:, 2:], np.full((4, 4), 3.5))
        assert np.array_equal(b_bar[2:, :], np.full((4, 4), -2.5))


def _brute_force_krum(vectors, f):
    n = len(vectors)
    scores = []
    for i in range(n):
        dists = sorted(
            float(((vectors[i] - vectors[j]) ** 2).sum())
            for j in range(n) if j != i
        )
        scores.append(sum(dists[: n - f - 2]))
    best = min(range(n), key=lambda i: (scores[i], i))
    return best, scores


def test_criterion_05_krum_oracle():
    with verdict(5):
        rng = np.random.default_rng(3)
        for _ in range(50):
            vectors = rng.normal(size=(5, 6))
            masks = np.ones_like(vectors)
            winners, scores = krum_select(vectors, masks, f=1)
            oracle_winner, oracle_scores = _brute_force_krum(vectors, 1)
            assert winners[0] == oracle_winner
            np.testing.assert_allclose(scores, oracle_scores, rtol=1e-12)


def test_criterion_06_attack_constraints():
    with verdict(6):
        rng = np.random.default_rng(4)
        for _ in range(20):
            benign = rng.normal(size=(int(rng.integers(3, 8)), 12))
            diffs = benign[:, None, :] - benign[None, :, :]
            d2 = (diffs**2).sum(axis=-1)

            mal = min_max_attack(benign)
            bound = float(np.sqrt(d2.max()))
            value = float(np.linalg.norm(mal - benign, axis=1).max())
            assert value <= bound * (1.0 + 1e-12)
            assert (bound - value) <= 1e-6 * bound
            mu = benign.mean(axis=0)
            gamma = float(np.linalg.norm(mal - mu))
            direction = (mal - mu) / gamma
            pushed = mu + 1.01 * gamma * direction
            assert float(np.linalg.norm(pushed - benign, axis=1).max()) > bound

            mal = min_sum_attack(benign)
            bound = float(d2.sum(axis=1).max())
            value = float(((mal - benign) ** 2).sum())
            assert value <= bound * (1.0 + 1e-12)
            assert (bound - value) <= 1e-6 * bound
            gamma = float(np.linalg.norm(mal - mu))
            direction = (mal - mu) / gamma
            pushed = mu + 1.01 * gamma * direction
            assert float(((pushed - benign) ** 2).sum()) > bound


def test_criterion_07_gradient_check():
    with verdict(7):
        eps = 1e-5
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            d, c, h, rank = 6, 3, 5, 2
            model = new_model(0, 0, d, c, h, rng)
            lora = {
                FF: LoraPair(0.4 * rng.normal(size=(rank, d)),
                             0.4 * rng.normal(size=(h, rank))),
                CL: LoraPair(0.4 * rng.normal(size=(rank, h)),
                             0.4 * rng.normal(size=(c, rank))),
            }
            x = rng.normal(size=(10, d))
            y = rng.integers(0, c, size=10)
            da1, db1, da2, db2 = adapter_gradients(
                model.w1, model.w2, lora[FF].a, lora[FF].b, lora[CL].a, lora[CL].b, x, y
            )
            grads = {FF: (da1, db1), CL: (da2, db2)}
            for lid in LayerId:
                for part, name in ((0, "a"), (1, "b")):
                    analytic = grads[lid][part]
                    base = getattr(lora[lid], name)
                    for idx in np.ndindex(*base.shape):
                        plus = {k: LoraPair(p.a.copy(), p.b.copy())
                                for k, p in lora.items()}
                        minus = {k: LoraPair(p.a.copy(), p.b.copy())
                                 for k, p in lora.items()}
                        getattr(plus[lid], name)[idx] += eps
                        getattr(minus[lid], name)[idx] -= eps
                        fd = (lora_loss(model, plus, x, y)
                              - lora_loss(model, minus, x, y)) / (2 * eps)
                        scale = max(1.0, abs(analytic[idx]), abs(fd))
                        assert abs(analytic[idx] - fd) / scale <= 1e-4


def test_criterion_08_determinism_with_parallelism(tmp_path):
    with verdict(8):
        data = {
            "task": {"feature_dim": 8, "num_classes": 3, "samples_per_class": 60,
                     "class_separation": 4.0, "noise_scale": 0.5,
                     "dirichlet_alpha": 0.5, "signal_dim": 3, "seed": 1},
            "clients": [
                {"count": 3, "hidden_width": 6, "participation_rate": 1.0},
                {"count": 3, "hidden_width": 8, "participation_rate": 0.75},
            ],
            "aggregator": {"kind": "horus"},
            "detection": {"lambda": 0.5, "k": 2, "mode": {"top_m": 1}},
            "attack": {"kind": "lie", "start_round": 3, "attacker_ids": [0, 3],
                       "z_override": 1.5},
            "rounds": 8,
            "lr": 0.1,
            "epochs": 1,
            "batch": 16,
            "rank": 2,
            "warmup_epochs": 2,
            "master_seed": 5,
            "workers": 4,
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        outs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            assert main(["run", str(path), "--output-dir", str(out)]) == 0
            outs.append((out / "rounds.jsonl").read_bytes())
        assert outs[0] == outs[1]


def test_criterion_09_detection_efficacy():
    with verdict(9):
        start = time.perf_counter()
        recalls, precisions = [], []
        for seed in SEEDS:
            results = run_scenario(seed)
            recalls.append(attack_round_mean(results, "recall"))
            precisions.append(attack_round_mean(results, "precision"))
        elapsed = time.perf_counter() - start
        assert float(np.mean(recalls)) >= 0.9
        assert float(np.mean(precisions)) >= 0.8
        assert elapsed < 180.0


def test_criterion_10_robustness_gap():
    with verdict(10):
        start = time.perf_counter()
        for seed in SEEDS:
            horus_acc = tail_accuracy(run_scenario(seed, "horus", attack=True))
            fedavg_acc = tail_accuracy(run_scenario(seed, "fedavg", attack=True))
            assert horus_acc - fedavg_acc >= 0.05
        for seed in SEEDS:
            horus_b = tail_accuracy(run_scenario(seed, "horus", attack=False))
            fedavg_b = tail_accuracy(run_scenario(seed, "fedavg", attack=False))
            assert abs(horus_b - fedavg_b) <= 0.02
        assert time.perf_counter() - start < 600.0


def _cov_wins_from_rows(rows):
    """Per client: mean-over-layers CoV of the A ratio series vs the B series."""
    series: dict = {}
    for row in rows:
        series.setdefault(
            (row["client_id"], row["layer"], row["matrix"]), []
        ).append(row["topk_ratio"])
    clients = sorted({cid for cid, _, _ in series})
    wins = 0
    for cid in clients:
        cov = {}
        for matrix in ("A", "B"):
            per_layer = []
            for layer in ("feature_first", "classifier"):
                xs = np.array(series[(cid, layer, matrix)])
                per_layer.append(xs.std() / max(abs(xs.mean()), 1e-12))
            cov[matrix] = float(np.mean(per_layer))
        wins += cov["A"] < cov["B"]
    return wins, len(clients)


def test_criterion_11_adapter_a_stability():
    with verdict(11):
        total_wins, total_clients = 0, 0
        for seed in SEEDS:
            rows = [
                {"client_id": d.client_id, "layer": d.layer, "matrix": d.matrix,
                 "topk_ratio": d.topk_ratio}
                for r in run_scenario(seed)
                for d in r.diagnostics
            ]
            wins, clients = _cov_wins_from_rows(rows)
            total_wins += wins
            total_clients += clients
        assert total_wins / total_clients >= 0.8


def test_criterion_12_rank_sweep_shape():
    with verdict(12):
        start = time.perf_counter()
        mean_acc = {}
        for rank in (4, 8, 16, 32):
            accs = [tail_accuracy(run_scenario(seed, rank=rank)) for seed in SEEDS]
            mean_acc[rank] = float(np.mean(accs))
        assert mean_acc[8] > mean_acc[4]
        assert mean_acc[32] <= max(mean_acc[8], mean_acc[16]) + 0.01
        assert time.perf_counter() - start < 1800.0


def test_attacker_energy_sits_below_benign_mean():
    """In most attack rounds each configured attacker's (ids 0 and 5, flagged
    or not) feature-first A energy ratio is below the benign clients' mean,
    matching the qualitative shape the diagnostics should show. The ratio is
    read from the detection features, which hold the same top-k ratio of A
    as the diagnostic rows."""
    cfg = scenario_config(1)
    attackers = cfg.attack.attacker_ids
    attack_rounds = cfg.rounds - cfg.attack.start_round + 1
    results = run_scenario(1)
    below, total = 0, 0
    for r in results:
        feats = r.outcome.features if r.outcome else None
        if r.metrics.round < cfg.attack.start_round or not feats:
            continue
        ratios = {c: f[FF].ratio_rk for c, f in feats.items()}
        benign_mean = np.mean([v for c, v in ratios.items() if c not in attackers])
        total += len(attackers)
        # Count as ints: np.bool_ + np.bool_ is a logical OR, not a sum.
        below += sum(int(ratios[a] < benign_mean) for a in attackers)
    assert total == len(attackers) * attack_rounds
    assert below / total >= 0.6


def test_criterion_13_adapter_b_ablation():
    with verdict(13):
        rec_a, rec_b, fpr_a, fpr_b = [], [], [], []
        for seed in SEEDS:
            res_a = run_scenario(seed, source="a")
            res_b = run_scenario(seed, source="b")
            rec_a.append(attack_round_mean(res_a, "recall"))
            rec_b.append(attack_round_mean(res_b, "recall"))
            fpr_a.append(attack_round_mean(res_a, "fpr"))
            fpr_b.append(attack_round_mean(res_b, "fpr"))
        assert float(np.mean(rec_b)) <= float(np.mean(rec_a)) + 1e-9
        assert float(np.mean(fpr_b)) >= float(np.mean(fpr_a)) - 1e-9
