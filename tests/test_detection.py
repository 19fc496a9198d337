"""Unit tests for poisoning scores and flagging."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horus.detection import (
    HopsScore,
    LayerFeatures,
    MatrixSource,
    Percentile,
    TopM,
    client_features,
    decompose_round,
    detect_round,
    flag_clients,
    hops_scores,
)
from horus.lora import ClientUpdate, LayerId, LoraPair
from horus.spectral import percentile, spectral_entropy, topk_energy_ratio

FF, CL = LayerId.FEATURE_FIRST, LayerId.CLASSIFIER


def make_update(rng, rank=8, ff=(16, 12), cl=(12, 4), a_maps=None):
    layers = {}
    for lid, (d_in, d_out) in ((FF, ff), (CL, cl)):
        a = a_maps[lid] if a_maps else rng.normal(size=(rank, d_in))
        layers[lid] = LoraPair(a=a, b=rng.normal(size=(d_out, rank)))
    return ClientUpdate(layers)


def features_of(u, k=5, source=MatrixSource.A):
    """client_features of an update decomposed as the server step does it."""
    return client_features(decompose_round({0: u}), k, source)[0]


def features_from(ratios, entropies):
    """Hand-built per-client features with equal values on both layers."""
    out = {}
    for cid, (r, h) in enumerate(zip(ratios, entropies)):
        lf = LayerFeatures(entropy_h=h, ratio_rk=r)
        out[cid] = {FF: lf, CL: lf}
    return out


class TestClientFeatures:
    def test_rank_one_a(self):
        rng = np.random.default_rng(0)
        a_maps = {
            FF: np.outer(np.arange(1, 9, dtype=float), rng.normal(size=16)),
            CL: np.outer(np.arange(1, 9, dtype=float), rng.normal(size=12)),
        }
        feats = features_of(make_update(rng, a_maps=a_maps))
        for lid in LayerId:
            assert feats[lid].ratio_rk == pytest.approx(1.0, abs=1e-10)
            assert feats[lid].entropy_h == pytest.approx(0.0, abs=1e-8)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        u = make_update(rng)
        scaled_layers = {
            lid: LoraPair(10.0 * pair.a, pair.b)
            for lid, pair in u.layers.items()
        }
        scaled = ClientUpdate(scaled_layers)
        f1, f2 = features_of(u), features_of(scaled)
        for lid in LayerId:
            assert f1[lid].entropy_h == pytest.approx(
                f2[lid].entropy_h, abs=1e-10
            )
            assert f1[lid].ratio_rk == pytest.approx(
                f2[lid].ratio_rk, abs=1e-10
            )

    def test_matches_two_step_oracle(self):
        # oracle: full numpy SVD then the ratio/entropy arithmetic inline
        rng = np.random.default_rng(2)
        u = make_update(rng, rank=8)
        feats = features_of(u)
        for lid in LayerId:
            s = np.linalg.svd(u.layers[lid].a, compute_uv=False)
            p = s / s.sum()
            h = float(-(p[p > 0] * np.log(p[p > 0])).sum())
            r5 = float(s[:5].sum() / s.sum())
            assert feats[lid].entropy_h == pytest.approx(h, abs=1e-10)
            assert feats[lid].ratio_rk == pytest.approx(r5, abs=1e-10)

    def test_never_reads_b(self):
        rng = np.random.default_rng(3)
        u = make_update(rng)
        decomposed = decompose_round({0: u})
        before = client_features(decomposed, 5)
        a_only = {0: {key: d for key, d in decomposed[0].items() if key[1] == "a"}}
        after = client_features(a_only, 5)  # a B lookup would raise KeyError
        assert before == after

    def test_source_b_reads_b(self):
        rng = np.random.default_rng(4)
        u = make_update(rng)
        fa = features_of(u, source=MatrixSource.A)
        fb = features_of(u, source=MatrixSource.B)
        assert fa != fb


# singular values with exact zeros, ties, a subnormal whose normalized value
# underflows to zero, and spread magnitudes
SPECTRUM_VALUES = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 1.0, 0.5, 3.0, 5e-324]),
    st.floats(1e-6, 1e3),
)


def spectra():
    """Non-increasing spectra of 1-10 values; all-zero ones included."""
    return st.lists(SPECTRUM_VALUES, min_size=1, max_size=10).map(
        lambda xs: np.array(sorted(xs, reverse=True))
    )


def decomposed_rounds(min_clients=1):
    """A round's decompositions, with spectra of mixed lengths per layer and
    factor; the vectors are never read by the features."""
    factors = st.fixed_dictionaries({
        (lid, f): spectra().map(lambda s: (s, np.zeros(1)))
        for lid in LayerId for f in ("a", "b")
    })
    return st.lists(factors, min_size=min_clients, max_size=12).map(
        lambda ds: dict(enumerate(ds))
    )


class TestArrayFeaturesProperty:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(decomposed_rounds(), st.integers(1, 12), st.sampled_from(list(MatrixSource)))
    def test_equal_the_one_dimensional_functions(self, decompositions, k, source):
        feats = client_features(decompositions, k, source)
        assert list(feats) == list(decompositions)
        for c, d in decompositions.items():
            for lid in LayerId:
                s, _ = d[lid, source.value]
                assert feats[c][lid].entropy_h.hex() == spectral_entropy(s).hex()
                assert feats[c][lid].ratio_rk.hex() == topk_energy_ratio(s, k).hex()

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(decomposed_rounds(min_clients=2), st.integers(1, 12), st.floats(0.0, 1.0))
    def test_scores_equal_the_per_client_mean(self, decompositions, k, lam):
        scores = hops_scores(client_features(decompositions, k), lam)
        assert list(scores) == list(decompositions)
        for s in scores.values():
            want = float(np.mean([s.per_layer[lid] for lid in LayerId]))
            assert type(s.score) is float and s.score.hex() == want.hex()
            assert all(type(v) is float for v in s.per_layer.values())

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            client_features(decompose_round({0: make_update(np.random.default_rng(9))}), 0)


class TestHopsScores:
    def test_identical_features_score_zero(self):
        feats = features_from([0.8, 0.8, 0.8], [1.2, 1.2, 1.2])
        scores = hops_scores(feats, lam=0.5)
        assert all(s.score == 0.0 for s in scores.values())

    def test_lambda_endpoints(self):
        feats = features_from([0.9, 0.6, 0.8], [1.0, 1.5, 1.1])
        only_energy = hops_scores(feats, lam=1.0)
        only_entropy = hops_scores(feats, lam=0.0)
        dev = np.array([0.1, 0.4, 0.2])
        ent = np.array([1.0, 1.5, 1.1])
        z = np.abs((ent - ent.mean()) / ent.std())
        for cid in feats:
            assert only_energy[cid].score == pytest.approx(
                abs(dev[cid] - dev.mean()), abs=1e-12
            )
            assert only_entropy[cid].score == pytest.approx(z[cid], abs=1e-12)

    def test_hand_worked_three_clients(self):
        # (1 - R_k) = {0.1, 0.1, 0.4}, equal entropies, lambda = 0.7
        feats = features_from([0.9, 0.9, 0.6], [1.0, 1.0, 1.0])
        scores = hops_scores(feats, lam=0.7)
        dev = np.array([1.0 - 0.9, 1.0 - 0.9, 1.0 - 0.6])
        expected = 0.7 * np.abs(dev - dev.mean())
        for cid in feats:
            assert scores[cid].score == expected[cid]
        assert scores[0].score == pytest.approx(0.07, abs=1e-12)
        assert scores[1].score == pytest.approx(0.07, abs=1e-12)
        assert scores[2].score == pytest.approx(0.14, abs=1e-12)

    def test_sigma_guard_zeroes_entropy_term(self):
        feats = features_from([0.9, 0.8], [1.0, 1.0 + 1e-14])
        scores = hops_scores(feats, lam=0.0)
        assert all(s.score == 0.0 for s in scores.values())

    def test_score_is_mean_of_layer_subscores(self):
        rng = np.random.default_rng(5)
        feats = {}
        for cid in range(4):
            feats[cid] = {
                FF: LayerFeatures(float(rng.random()), float(rng.random())),
                CL: LayerFeatures(float(rng.random()), float(rng.random())),
            }
        for s in hops_scores(feats, 0.4).values():
            assert s.score == pytest.approx(
                (s.per_layer[FF] + s.per_layer[CL]) / 2.0, abs=1e-15
            )

    def test_requires_two_clients(self):
        with pytest.raises(ValueError):
            hops_scores(features_from([0.9], [1.0]), 0.5)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            hops_scores(features_from([0.9, 0.8], [1.0, 1.1]), 1.5)


def scores_of(values):
    return {
        cid: HopsScore(v, {FF: v, CL: v}) for cid, v in enumerate(values)
    }


class TestFlagClients:
    def test_equal_scores_percentile_flags_none(self):
        det = flag_clients(scores_of([0.3] * 10), Percentile(95))
        assert det.flagged == frozenset()

    def test_topm_separation(self):
        det = flag_clients(scores_of([0.01] * 8 + [0.9, 0.95]), TopM(2))
        assert det.flagged == frozenset({8, 9})
        assert det.threshold_theta == 0.01

    def test_percentile_worked_example(self):
        values = [0.01 * (i + 1) for i in range(8)] + [0.9, 0.95]
        det = flag_clients(scores_of(values), Percentile(95))
        theta = percentile(values, 95)  # independent threshold computation
        expected = frozenset(i for i, v in enumerate(values) if v > theta)
        assert det.flagged == expected == frozenset({9})
        assert det.threshold_theta == pytest.approx(theta)

    def test_topm_tie_break_low_ids_first(self):
        det = flag_clients(scores_of([0.5, 0.5, 0.5, 0.1]), TopM(2))
        assert det.flagged == frozenset({0, 1})

    def test_topm_exceeding_population_flags_all(self):
        det = flag_clients(scores_of([0.1, 0.2]), TopM(5))
        assert det.flagged == frozenset({0, 1})
        assert det.threshold_theta == float("-inf")

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            flag_clients({}, TopM(1))


class TestDetectRound:
    def test_single_client_skipped(self):
        det = detect_round(features_from([0.9], [1.0]), 0.5, TopM(2))
        assert det.skipped and det.flagged == frozenset()

    def test_two_clients_skipped(self):
        # two clients sit symmetrically around the round mean, so their
        # scores tie up to rounding; detection takes the skip path instead
        feats = features_from([0.9, 0.6], [1.0, 1.7])
        scores = hops_scores(feats, 0.5)
        assert scores[0].score == pytest.approx(scores[1].score, rel=1e-12)
        det = detect_round(feats, 0.5, TopM(1))
        assert det.skipped and det.flagged == frozenset()
        assert det.threshold_theta == math.inf
        assert all(s.score == 0.0 for s in det.scores.values())

    def test_three_clients_scored(self):
        det = detect_round(features_from([0.9, 0.6, 0.8], [1.0, 1.7, 1.1]),
                           0.5, TopM(1))
        assert not det.skipped and len(det.flagged) == 1

    def test_composition_matches_stages(self):
        feats = features_from([0.9, 0.7, 0.8, 0.5], [1.0, 1.4, 1.1, 1.9])
        det = detect_round(feats, 0.3, TopM(1))
        staged = flag_clients(hops_scores(feats, 0.3), TopM(1))
        assert det.flagged == staged.flagged
        assert det.threshold_theta == staged.threshold_theta


def hops_score_maps():
    """Score maps over distinct client ids, ties included."""
    ids = st.lists(st.integers(0, 500), min_size=1, max_size=12, unique=True)
    values = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5])  # repeats give ties
    return ids.flatmap(lambda cids: st.lists(
        values, min_size=len(cids), max_size=len(cids),
    ).map(lambda vals: {
        c: HopsScore(v, {lid: v for lid in LayerId}) for c, v in zip(cids, vals)
    }))


class TestTopMProperty:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(hops_score_maps(), st.integers(0, 15))
    def test_flags_exactly_min_m_n(self, scores, m):
        det = flag_clients(scores, TopM(m))
        assert len(det.flagged) == min(m, len(scores))
        assert det.flagged <= set(scores)
        # nobody unflagged outranks a flagged client
        unflagged = [scores[c].score for c in scores if c not in det.flagged]
        assert all(scores[c].score >= max(unflagged, default=-math.inf)
                   for c in det.flagged)


class TestDetectionInvariances:
    def _updates(self, rng, n=6):
        return {
            cid: make_update(rng, ff=(16, 12), cl=(12, 4))
            for cid in range(n)
        }

    def test_per_client_rescaling_keeps_flags(self):
        rng = np.random.default_rng(6)
        updates = self._updates(rng)
        feats = {c: features_of(u) for c, u in updates.items()}
        base = detect_round(feats, 0.5, TopM(2))
        scales = {c: float(rng.uniform(0.1, 10.0)) for c in updates}
        scaled_feats = {}
        for c, u in updates.items():
            layers = {
                lid: LoraPair(scales[c] * p.a, p.b)
                for lid, p in u.layers.items()
            }
            scaled_feats[c] = features_of(ClientUpdate(layers))
        scaled = detect_round(scaled_feats, 0.5, TopM(2))
        assert scaled.flagged == base.flagged
        for c in updates:
            assert scaled.scores[c].score == pytest.approx(
                base.scores[c].score, abs=1e-9
            )

    def test_zero_padding_keeps_scores(self):
        rng = np.random.default_rng(7)
        updates = self._updates(rng)
        feats = {c: features_of(u) for c, u in updates.items()}
        base = detect_round(feats, 0.5, TopM(2))
        padded_feats = {}
        for c, u in updates.items():
            layers = {}
            for lid, p in u.layers.items():
                a_pad = np.zeros((p.rank, p.a.shape[1] + 7))
                a_pad[:, : p.a.shape[1]] = p.a
                layers[lid] = LoraPair(a_pad, p.b)
            padded_feats[c] = features_of(ClientUpdate(layers))
        padded = detect_round(padded_feats, 0.5, TopM(2))
        assert padded.flagged == base.flagged
        for c in updates:
            assert abs(padded.scores[c].score - base.scores[c].score) <= 1e-10

    def test_client_order_permutation_is_symmetric(self):
        rng = np.random.default_rng(8)
        updates = self._updates(rng)
        feats = {c: features_of(u) for c, u in updates.items()}
        base = detect_round(feats, 0.5, Percentile(80))
        reordered = dict(reversed(list(feats.items())))
        permuted = detect_round(reordered, 0.5, Percentile(80))
        assert permuted.flagged == base.flagged
        assert permuted.threshold_theta == base.threshold_theta
        for c in feats:
            assert permuted.scores[c].score == base.scores[c].score
