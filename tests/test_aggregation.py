"""Unit tests for the masked mean, consistency weights, direction tracking,
baselines."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from horus.aggregation import (
    AggregatorKind,
    HorusConfig,
    baseline_aggregate,
    horus_aggregate,
    krum_select,
    masked_mean,
    masked_median,
    masked_trimmed_mean,
    projection_weights,
    update_global_directions,
)
from horus.detection import Percentile, TopM, decompose_round
from horus.errors import ConfigurationError
from horus.lora import (
    ClientUpdate,
    GlobalLayer,
    GlobalState,
    LayerDims,
    LayerId,
    LoraPair,
    pad_round,
    round_layout,
)

FF, CL = LayerId.FEATURE_FIRST, LayerId.CLASSIFIER
DIMS = {FF: LayerDims(10, 8), CL: LayerDims(8, 3)}


def make_update(rng, rank=4, ff=(10, 8), cl=(8, 3), fill=None):
    layers = {}
    for lid, (d_in, d_out) in ((FF, ff), (CL, cl)):
        if fill is None:
            a = rng.normal(size=(rank, d_in))
            b = rng.normal(size=(d_out, rank))
        else:
            a = np.full((rank, d_in), float(fill))
            b = np.full((d_out, rank), float(fill))
        layers[lid] = LoraPair(a, b)
    return ClientUpdate(layers)


ZEROS = GlobalState.zeros(DIMS, 4)


def block_sizes(g):
    return [b.cols.stop - b.cols.start for b in round_layout(g)]


def as_pairs(flat, g=ZEROS):
    """{layer: (A, B)} of a flat row in the round layout of ``g``."""
    return {lid: (p.a, p.b) for lid, p in g.with_flat(flat).layers.items()}


def with_aggregates(g, aggregates):
    """``g`` with each layer's (A, B) replaced by the given aggregates."""
    return GlobalState({lid: GlobalLayer(a, b, g.layers[lid].v_a, g.layers[lid].v_b)
                        for lid, (a, b) in aggregates.items()})


def unit_mean(updates):
    """masked_mean with unit weights over the round matrix of ``updates``."""
    values, masks = pad_round(updates, ZEROS)
    zeros = np.zeros(values.shape[1])
    return as_pairs(masked_mean(values, masks, np.ones((len(values), 1)), zeros))


def block_weighted_mean(updates, alphas, previous=None):
    """masked_mean with one weight per client and block, as horus passes them."""
    values, masks = pad_round(updates, ZEROS)
    prev = np.zeros(values.shape[1]) if previous is None else previous
    weights = np.repeat(np.asarray(alphas, dtype=float), block_sizes(ZEROS), axis=1)
    return as_pairs(masked_mean(values, masks, weights, prev))


class TestMaskedAverage:
    """``masked_mean`` with unit weights: the fedavg reduction."""

    def test_same_shape_equals_plain_mean(self):
        rng = np.random.default_rng(0)
        updates = [make_update(rng) for _ in range(4)]
        a_bar, b_bar = unit_mean(updates)[FF]
        np.testing.assert_allclose(
            a_bar, np.mean([u.layers[FF].a for u in updates], axis=0)
        )
        np.testing.assert_allclose(
            b_bar, np.mean([u.layers[FF].b for u in updates], axis=0)
        )

    def test_exclusive_column_keeps_single_value(self):
        rng = np.random.default_rng(1)
        small = make_update(rng, ff=(8, 8), cl=(8, 3))
        big = make_update(rng, ff=(10, 8), cl=(8, 3))
        a_bar, _ = unit_mean([small, big])[FF]
        np.testing.assert_array_equal(a_bar[:, 8:], big.layers[FF].a[:, 8:])

    def test_hand_example_ones_and_threes(self):
        # 2 clients, A shapes 8x2 and 8x3, all-ones vs all-threes
        pad1 = np.zeros((8, 3)); pad1[:, :2] = 1.0
        m1 = np.zeros((8, 3)); m1[:, :2] = 1.0
        values = np.stack([pad1.ravel(), 3.0 * np.ones(24)])
        masks = np.stack([m1.ravel(), np.ones(24)])
        a_bar = masked_mean(values, masks, np.ones((2, 1)), np.zeros(24)).reshape(8, 3)
        # oracle: per-entry hand computation
        np.testing.assert_array_equal(a_bar[:, :2], 2.0 * np.ones((8, 2)))
        np.testing.assert_array_equal(a_bar[:, 2], 3.0 * np.ones(8))

    def test_zero_coverage_keeps_previous(self):
        mask = np.zeros((4, 6))
        mask[:, :3] = 1.0
        # one client: an A block (4 x 6) and a B block (6 x 4) covering 3 of 6
        values = np.concatenate([mask.ravel(), mask.T.ravel()])[None]
        masks = values.copy()
        prev = np.concatenate([7.0 * np.ones(24), 9.0 * np.ones(24)])
        out = masked_mean(values, masks, np.ones((1, 1)), prev)
        a_bar, b_bar = out[:24].reshape(4, 6), out[24:].reshape(6, 4)
        np.testing.assert_array_equal(a_bar[:, :3], 1.0)
        np.testing.assert_array_equal(a_bar[:, 3:], 7.0)
        np.testing.assert_array_equal(b_bar[3:, :], 9.0)


class TestWeightedMaskedAverage:
    """``masked_mean`` with per-client, per-block weights: the horus reduction."""

    def test_all_ones_weights_reduce_bitwise(self):
        rng = np.random.default_rng(2)
        updates = [make_update(rng, ff=(10, 8) if c % 2 else (8, 8))
                   for c in range(5)]
        plain = unit_mean(updates)
        weighted = block_weighted_mean(updates, np.ones((5, len(round_layout(ZEROS)))))
        for lid in LayerId:
            assert plain[lid][0].tobytes() == weighted[lid][0].tobytes()
            assert plain[lid][1].tobytes() == weighted[lid][1].tobytes()

    def test_zero_weight_excludes_client(self):
        rng = np.random.default_rng(3)
        u0 = make_update(rng)
        u1 = make_update(rng)
        out = block_weighted_mean([u0, u1], [[0.0] * 4, [1.0] * 4])
        for lid in LayerId:
            np.testing.assert_allclose(out[lid][0], u1.layers[lid].a)
            np.testing.assert_allclose(out[lid][1], u1.layers[lid].b)

    def test_hand_example_quarter_three_quarters(self):
        zeros = make_update(np.random.default_rng(4), fill=0.0)
        fours = make_update(np.random.default_rng(5), fill=4.0)
        out = block_weighted_mean([zeros, fours], [[0.25] * 4, [0.75] * 4])
        for lid in LayerId:
            np.testing.assert_allclose(out[lid][0], 3.0)  # (0.25*0 + 0.75*4) / 1
            np.testing.assert_allclose(out[lid][1], 3.0)

    def test_all_tiny_weights_keep_previous(self):
        u = make_update(np.random.default_rng(6))
        state = GlobalState.zeros(DIMS, 4)
        for lid in LayerId:
            state.layers[lid].a[:] = 5.0
            state.layers[lid].b[:] = 6.0
        out = block_weighted_mean([u], [[0.0] * 4], previous=state.flat())
        for lid in LayerId:
            np.testing.assert_array_equal(out[lid][0], 5.0)
            np.testing.assert_array_equal(out[lid][1], 6.0)


def state_with_directions(rng, rank=4):
    state = GlobalState.zeros(DIMS, rank)
    for lid in LayerId:
        state.layers[lid].a = rng.normal(size=state.layers[lid].a.shape)
        state.layers[lid].b = rng.normal(size=state.layers[lid].b.shape)
        state.layers[lid].v_a = np.zeros(DIMS[lid].d_in)
        state.layers[lid].v_a[0] = 1.0
        state.layers[lid].v_b = np.zeros(rank)
        state.layers[lid].v_b[0] = 1.0
    return state


def block_weights(u, state):
    """{(layer, factor): alpha} of one client's consistency weights."""
    weights = projection_weights([decompose_round({0: u})[0]], state)
    keys = [(b.layer, b.factor) for b in round_layout(state)]
    assert weights.shape == (1, len(keys))
    return dict(zip(keys, weights[0]))


class TestProjectionWeights:
    def _aligned_update(self, v_a, v_b, rank=4):
        layers = {}
        for lid in LayerId:
            d_in, d_out = DIMS[lid]
            a = np.outer(np.arange(1, rank + 1, dtype=float), v_a[lid])
            b = np.outer(np.arange(1, d_out + 1, dtype=float), v_b[lid])
            layers[lid] = LoraPair(a, b)
        return ClientUpdate(layers)

    def test_aligned_rank_one_gives_alpha_one(self):
        rng = np.random.default_rng(7)
        state = state_with_directions(rng)
        v_a = {lid: state.layers[lid].v_a for lid in LayerId}
        v_b = {lid: state.layers[lid].v_b for lid in LayerId}
        u = self._aligned_update(v_a, v_b)
        weights = block_weights(u, state)
        for lid in LayerId:
            assert weights[lid, "a"] == pytest.approx(1.0, abs=1e-10)
            assert weights[lid, "b"] == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_rank_one_gives_alpha_zero(self):
        rng = np.random.default_rng(8)
        state = state_with_directions(rng)
        v_a = {}
        v_b = {}
        for lid in LayerId:
            e1 = np.zeros(DIMS[lid].d_in); e1[1] = 1.0
            v_a[lid] = e1
            f1 = np.zeros(4); f1[1] = 1.0
            v_b[lid] = f1
        u = self._aligned_update(v_a, v_b)
        weights = block_weights(u, state)
        for lid in LayerId:
            assert weights[lid, "a"] == pytest.approx(0.0, abs=1e-10)
            assert weights[lid, "b"] == pytest.approx(0.0, abs=1e-10)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(9)
        state = state_with_directions(rng)
        u = make_update(rng)
        flipped_layers = {
            lid: LoraPair(-p.a, -p.b) for lid, p in u.layers.items()
        }
        flipped = ClientUpdate(flipped_layers)
        w1 = block_weights(u, state)
        w2 = block_weights(flipped, state)
        for lid in LayerId:
            assert w1[lid, "a"] == pytest.approx(w2[lid, "a"], abs=1e-10)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(10)
        state = state_with_directions(rng)
        u = make_update(rng)
        scaled_layers = {
            lid: LoraPair(3.5 * p.a, 3.5 * p.b) for lid, p in u.layers.items()
        }
        scaled = ClientUpdate(scaled_layers)
        w1 = block_weights(u, state)
        w2 = block_weights(scaled, state)
        for lid in LayerId:
            assert w1[lid, "a"] == pytest.approx(w2[lid, "a"], abs=1e-10)

    def test_uninitialized_directions_fall_back_to_uniform(self):
        rng = np.random.default_rng(11)
        state = GlobalState.zeros(DIMS, 4)
        u = make_update(rng)
        weights = block_weights(u, state)
        assert all(w == 1.0 for w in weights.values())
        # uniform weights are not summarized
        out = horus_aggregate({0: u}, state, HorusConfig(mode=TopM(0)))
        assert out.alpha_summary is None

    def test_narrow_client_matches_padded_decomposition(self):
        rng = np.random.default_rng(26)
        state = state_with_directions(rng)
        for lid in LayerId:
            state.layers[lid].v_a = rng.normal(size=DIMS[lid].d_in)
            state.layers[lid].v_a /= np.linalg.norm(state.layers[lid].v_a)
        u = make_update(rng, ff=(7, 5), cl=(5, 3))
        weights = block_weights(u, state)
        for lid in LayerId:
            # the right singular vector of the zero-padded A, by numpy directly
            a_pad = np.zeros((4, DIMS[lid].d_in))
            a_pad[:, : u.layers[lid].a.shape[1]] = u.layers[lid].a
            v = np.linalg.svd(a_pad)[2][0]
            expected = abs(v @ state.layers[lid].v_a)
            assert weights[lid, "a"] == pytest.approx(expected, abs=1e-12)


class TestUpdateGlobalDirections:
    def test_rank_one_aggregate(self):
        rng = np.random.default_rng(12)
        state = GlobalState.zeros(DIMS, 4)
        w = rng.normal(size=10)
        a_bar = np.outer(np.arange(1, 5, dtype=float), w)
        b_bar = rng.normal(size=(8, 4))
        new = update_global_directions(with_aggregates(state, {
            FF: (a_bar, b_bar), CL: (rng.normal(size=(4, 8)), rng.normal(size=(3, 4)))
        }))
        expected = w / np.linalg.norm(w)
        v = new.layers[FF].v_a
        assert min(np.linalg.norm(v - expected), np.linalg.norm(v + expected)) < 1e-10

    def test_scaling_leaves_direction(self):
        rng = np.random.default_rng(13)
        state = GlobalState.zeros(DIMS, 4)
        aggs = {lid: (rng.normal(size=(4, DIMS[lid].d_in)),
                      rng.normal(size=(DIMS[lid].d_out, 4))) for lid in LayerId}
        doubled = {lid: (2.0 * a, 2.0 * b) for lid, (a, b) in aggs.items()}
        n1 = update_global_directions(with_aggregates(state, aggs))
        n2 = update_global_directions(with_aggregates(state, doubled))
        for lid in LayerId:
            np.testing.assert_allclose(n1.layers[lid].v_a, n2.layers[lid].v_a,
                                       atol=1e-10)

    def test_power_iteration_oracle(self):
        rng = np.random.default_rng(14)
        state = GlobalState.zeros(DIMS, 4)
        aggs = {lid: (rng.normal(size=(4, DIMS[lid].d_in)),
                      rng.normal(size=(DIMS[lid].d_out, 4))) for lid in LayerId}
        new = update_global_directions(with_aggregates(state, aggs))
        for lid in LayerId:
            gram = aggs[lid][0].T @ aggs[lid][0]
            v = np.ones(gram.shape[0]) / np.sqrt(gram.shape[0])
            for _ in range(2000):
                nxt = gram @ v
                nxt /= np.linalg.norm(nxt)
                if np.linalg.norm(nxt - v) < 1e-12:
                    break
                v = nxt
            assert abs(np.dot(new.layers[lid].v_a, v)) >= 1.0 - 1e-8

    def test_degenerate_keeps_previous_direction(self):
        rng = np.random.default_rng(15)
        state = state_with_directions(rng)
        prev_va = {lid: state.layers[lid].v_a.copy() for lid in LayerId}
        zero_aggs = {lid: (np.zeros((4, DIMS[lid].d_in)),
                           np.zeros((DIMS[lid].d_out, 4))) for lid in LayerId}
        new = update_global_directions(with_aggregates(state, zero_aggs))
        for lid in LayerId:
            np.testing.assert_array_equal(new.layers[lid].v_a, prev_va[lid])

    def test_shares_the_matrices_and_leaves_the_argument(self):
        rng = np.random.default_rng(16)
        state = state_with_directions(rng)
        before = {lid: (layer.a, layer.b, layer.v_a.copy(), layer.v_b.copy())
                  for lid, layer in state.layers.items()}
        new = update_global_directions(state)
        assert new is not state
        for lid, (a, b, v_a, v_b) in before.items():
            assert new.layers[lid].a is a and new.layers[lid].b is b
            layer = state.layers[lid]
            assert layer.a is a and layer.b is b
            np.testing.assert_array_equal(layer.v_a, v_a)
            np.testing.assert_array_equal(layer.v_b, v_b)
            assert not np.array_equal(new.layers[lid].v_a, v_a)


def coherent_update(rng, rank=4, eps=0.02):
    """Benign-style client: A dominated by one shared direction per layer."""
    layers = {}
    for lid in LayerId:
        d_in, d_out = DIMS[lid]
        direction = np.sin(np.arange(d_in) + 1.0)  # shared across clients
        a = np.outer(rng.normal(1.0, 0.1, size=rank), direction)
        a += eps * rng.normal(size=(rank, d_in))
        layers[lid] = LoraPair(a, rng.normal(size=(d_out, rank)))
    return ClientUpdate(layers)


def staged_oracle(updates, cids, state):
    """Expected horus aggregate per layer: each client's matrices zero-padded
    by hand, weighted by |v . v_global| with v the first right singular vector
    of the padded matrix (1 before the global directions exist), averaged
    over covering clients; uncovered entries keep the state's."""
    out = {}
    for lid in LayerId:
        glayer = state.layers[lid]
        means = []
        for factor, g_mat, g_v in (("a", glayer.a, glayer.v_a),
                                   ("b", glayer.b, glayer.v_b)):
            num, den = np.zeros_like(g_mat), np.zeros_like(g_mat)
            for c in cids:
                m = getattr(updates[c].layers[lid], factor)
                padded, cover = np.zeros_like(g_mat), np.zeros_like(g_mat)
                padded[: m.shape[0], : m.shape[1]] = m
                cover[: m.shape[0], : m.shape[1]] = 1.0
                w = 1.0
                if state.directions_initialized:
                    w = min(1.0, abs(np.linalg.svd(padded)[2][0] @ g_v))
                num += w * padded
                den += w * cover
            covered = den > 1e-12
            means.append(np.where(covered, num / np.where(covered, den, 1.0), g_mat))
        out[lid] = tuple(means)
    return out


class TestHorusAggregate:
    def test_single_client_round_one(self):
        rng = np.random.default_rng(16)
        u = make_update(rng, ff=(8, 8), cl=(8, 3))
        state = GlobalState.zeros(DIMS, 4)
        out = horus_aggregate({0: u}, state, HorusConfig(mode=TopM(0)))
        np.testing.assert_array_equal(out.state.layers[FF].a[:, :8],
                                      u.layers[FF].a)
        # uncovered columns keep the (zero) previous global
        np.testing.assert_array_equal(out.state.layers[FF].a[:, 8:], 0.0)
        # classifier B is at its global shape already: nothing padded
        np.testing.assert_array_equal(out.state.layers[CL].b, u.layers[CL].b)
        assert out.detection.skipped  # single participant

    def test_identical_clients_unflagged_and_averaged(self):
        rng = np.random.default_rng(17)
        base = make_update(rng)
        updates = {
            c: ClientUpdate(dict(base.layers)) for c in range(10)
        }
        state = GlobalState.zeros(DIMS, 4)
        out = horus_aggregate(updates, state, HorusConfig())
        assert out.detection.flagged == frozenset()
        assert all(s.score == 0.0 for s in out.detection.scores.values())
        np.testing.assert_allclose(out.state.layers[FF].a, base.layers[FF].a)

    def test_flags_lie_outliers_and_matches_staged_oracle(self):
        rng = np.random.default_rng(18)
        updates = {c: coherent_update(rng) for c in range(8)}
        # the colluding pair submits an identical dispersive (full-rank) A
        for c in (8, 9):
            layers = {
                lid: LoraPair(
                    np.random.default_rng(99).normal(size=(4, DIMS[lid].d_in)),
                    rng.normal(size=(DIMS[lid].d_out, 4)),
                )
                for lid in LayerId
            }
            updates[c] = ClientUpdate(layers)

        state = GlobalState.zeros(DIMS, 4)
        cfg = HorusConfig(lam=0.3, k=2, mode=TopM(2))
        out = horus_aggregate(updates, state, cfg)
        assert out.detection.flagged == frozenset({8, 9})

        # oracle: the pipeline stages in test-local numpy, on the 8 benign
        # clients; round 1 has uniform weights, round 2 consistency weights
        for _ in range(2):
            expected = staged_oracle(updates, range(8), state)
            for lid in LayerId:
                a_bar, b_bar = expected[lid]
                assert np.linalg.norm(out.state.layers[lid].a - a_bar) <= 1e-9
                assert np.linalg.norm(out.state.layers[lid].b - b_bar) <= 1e-9
            state = out.state
            out = horus_aggregate(updates, state, cfg)
            assert out.detection.flagged == frozenset({8, 9})

    def test_flagged_client_perturbation_changes_nothing(self):
        rng = np.random.default_rng(19)
        updates = {c: make_update(rng) for c in range(6)}
        outlier_layers = {
            lid: LoraPair(np.outer(np.arange(1, 5), np.ones(DIMS[lid].d_in)),
                          updates[5].layers[lid].b)
            for lid in LayerId
        }
        updates[5] = ClientUpdate(outlier_layers)
        state = GlobalState.zeros(DIMS, 4)
        cfg = HorusConfig(mode=TopM(1))
        out1 = horus_aggregate(updates, state, cfg)
        flagged = set(out1.detection.flagged)
        assert flagged  # top-1 always flags someone
        cid = flagged.pop()
        wild_layers = {
            lid: LoraPair(1e6 * np.ones_like(updates[cid].layers[lid].a),
                          -1e6 * np.ones_like(updates[cid].layers[lid].b))
            for lid in LayerId
        }
        # keep the perturbed client just as flaggable: wildly concentrated
        updates2 = dict(updates)
        updates2[cid] = ClientUpdate(wild_layers)
        out2 = horus_aggregate(updates2, state, cfg)
        if out2.detection.flagged == out1.detection.flagged:
            for lid in LayerId:
                np.testing.assert_array_equal(out1.state.layers[lid].a,
                                              out2.state.layers[lid].a)
                np.testing.assert_array_equal(out1.state.layers[lid].b,
                                              out2.state.layers[lid].b)

    def test_homogeneous_uniform_weights_equal_fedavg(self):
        rng = np.random.default_rng(20)
        updates = {c: make_update(rng) for c in range(5)}
        state = GlobalState.zeros(DIMS, 4)
        out = horus_aggregate(updates, state, HorusConfig(mode=TopM(0)))
        fedavg = baseline_aggregate(AggregatorKind("fedavg"), updates, state).state
        for lid in LayerId:
            assert np.abs(out.state.layers[lid].a - fedavg.layers[lid].a).max() <= 1e-12
            assert np.abs(out.state.layers[lid].b - fedavg.layers[lid].b).max() <= 1e-12

    def test_all_flagged_skips_round(self):
        rng = np.random.default_rng(21)
        updates = {c: make_update(rng) for c in range(3)}
        state = GlobalState.zeros(DIMS, 4)
        before = {lid: state.layers[lid].a.copy() for lid in LayerId}
        out = horus_aggregate(updates, state, HorusConfig(mode=TopM(3)))
        assert out.skipped
        for lid in LayerId:
            np.testing.assert_array_equal(out.state.layers[lid].a, before[lid])

    def test_client_permutation_invariance(self):
        rng = np.random.default_rng(22)
        updates = {c: make_update(rng) for c in range(6)}
        state = GlobalState.zeros(DIMS, 4)
        out1 = horus_aggregate(updates, state, HorusConfig(mode=TopM(1)))
        reordered = dict(reversed(list(updates.items())))
        out2 = horus_aggregate(reordered, state, HorusConfig(mode=TopM(1)))
        for lid in LayerId:
            np.testing.assert_array_equal(out1.state.layers[lid].a,
                                          out2.state.layers[lid].a)


class TestHorusRelabellingProperty:
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 7),
        st.sampled_from([TopM(1), TopM(2), Percentile(50.0), Percentile(95.0)]),
        st.booleans(),
        st.data(),
    )
    def test_relabelled_ids_flag_the_same_clients(self, seed, n, mode, tracked, data):
        rng = np.random.default_rng(seed)
        widths = [((8, 8), (8, 3)), ((10, 8), (8, 3))]
        updates = {}
        for c in range(n):
            ff, cl = widths[int(rng.integers(2))]
            updates[c] = make_update(rng, ff=ff, cl=cl)
        state = state_with_directions(rng) if tracked else GlobalState.zeros(DIMS, 4)
        ids = data.draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n,
                                 unique=True))
        relabelled = {ids[c]: u for c, u in updates.items()}
        cfg = HorusConfig(lam=0.3, k=2, mode=mode)
        base = horus_aggregate(updates, state, cfg)
        # equal scores are ranked by client id, which relabelling changes; a
        # skipped detection (fewer than 3 clients) ranks nobody
        scores = sorted(s.score for s in base.detection.scores.values())
        assume(base.detection.skipped or all(
            b - a > 1e-9 * max(1.0, b) for a, b in zip(scores, scores[1:])
        ))
        out = horus_aggregate(relabelled, state, cfg)
        assert out.detection.flagged == {ids[c] for c in base.detection.flagged}
        assert out.skipped == base.skipped
        if base.skipped:  # every client flagged: the state is handed back
            assert out.state is state
            return
        for lid in LayerId:
            for name in ("a", "b", "v_a", "v_b"):
                want = getattr(base.state.layers[lid], name)
                got = getattr(out.state.layers[lid], name)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestPlainMeanReduction:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 7),
        st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 5)),
        st.integers(1, 4),
        st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_horus_fedavg_and_plain_mean_agree_at_equal_shapes(
        self, seed, n, widths, rank, scale
    ):
        # uninitialised directions give unit weights, and TopM(0) flags nobody
        d, h, c = widths
        dims = {FF: LayerDims(d, h), CL: LayerDims(h, c)}
        rng = np.random.default_rng(seed)
        updates = {}
        for cid in range(n):
            u = make_update(rng, rank=rank, ff=(d, h), cl=(h, c))
            updates[cid] = ClientUpdate({
                lid: LoraPair(scale * p.a, scale * p.b)
                for lid, p in u.layers.items()
            })
        state = GlobalState.zeros(dims, rank)
        out = horus_aggregate(updates, state, HorusConfig(mode=TopM(0)))
        assert not out.detection.flagged and not out.skipped
        fedavg = baseline_aggregate(AggregatorKind("fedavg"), updates, state).state
        for lid in LayerId:
            for name in ("a", "b"):
                mean = np.mean([getattr(u.layers[lid], name)
                                for u in updates.values()], axis=0)
                for got in (out.state.layers[lid], fedavg.layers[lid]):
                    diff = np.linalg.norm(getattr(got, name) - mean)
                    assert diff <= 1e-12 * np.linalg.norm(mean)


def mixed_width_round(seed, n, rank):
    """A round of n clients of random widths under random global maxima, with
    each client's matrices at its own scale, and a state whose directions are
    tracked: (updates, state)."""
    rng = np.random.default_rng(seed)
    d, h_max, c = (int(x) for x in rng.integers([2, 2, 2], [70, 70, 12]))
    dims = {FF: LayerDims(d, h_max), CL: LayerDims(h_max, c)}
    updates = {}
    for cid in range(n):
        h = int(rng.integers(1, h_max + 1))
        u = make_update(rng, rank=rank, ff=(d, h), cl=(h, c))
        scale = 10.0 ** rng.uniform(-3, 3)
        updates[cid] = ClientUpdate({
            lid: LoraPair(scale * p.a, scale * p.b) for lid, p in u.layers.items()
        })
    state = GlobalState.zeros(dims, rank)
    for lid, layer in state.layers.items():
        layer.a = rng.normal(size=layer.a.shape)
        layer.b = rng.normal(size=layer.b.shape)
        layer.v_a = rng.normal(size=dims[lid].d_in)
        layer.v_b = rng.normal(size=rank)
        layer.v_a /= np.linalg.norm(layer.v_a)
        layer.v_b /= np.linalg.norm(layer.v_b)
    return updates, state


def per_entry_weights(decompositions, g):
    """Consistency weights entry by entry: each vector zero-extended on its
    own, one dot product, clipped to [0, 1]."""
    layout = round_layout(g)
    out = np.empty((len(decompositions), len(layout)))
    for i, d in enumerate(decompositions):
        for j, (lid, factor, _, _) in enumerate(layout):
            _, v = d[lid, factor]
            g_v = getattr(g.layers[lid], "v_" + factor)
            v_global = np.zeros(len(g_v))
            v_global[: len(v)] = v
            out[i, j] = np.clip(abs(np.dot(v_global, g_v)), 0.0, 1.0)
    return out


class TestServerStepBitOracles:
    """The horus server step keeps the bits of its per-entry formulation."""

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 8))
    def test_projection_weights_equal_the_per_entry_oracle(self, seed, n, rank):
        updates, state = mixed_width_round(seed, n, rank)
        decompositions = decompose_round(updates)
        ordered = [decompositions[c] for c in sorted(updates)]
        got = projection_weights(ordered, state)
        assert got.tobytes() == per_entry_weights(ordered, state).tobytes()

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300))
    def test_projection_weights_equal_the_dot_oracle_up_to_300_clients(self, seed, n):
        # vectors drawn directly: up to 512 entries, mixed widths, zero tails
        rng = np.random.default_rng(seed)
        d, h_max, rank = (int(x) for x in rng.integers([1, 1, 1], [513, 513, 9]))
        state = GlobalState.zeros({FF: LayerDims(d, h_max), CL: LayerDims(h_max, 10)}, rank)
        for layer in state.layers.values():
            layer.v_a, layer.v_b = rng.normal(size=layer.a.shape[1]), rng.normal(size=rank)
        decompositions = []
        for _ in range(n):
            h = int(rng.integers(1, h_max + 1))
            widths = {(FF, "a"): d, (FF, "b"): rank, (CL, "a"): h, (CL, "b"): rank}
            d_vs = {}
            for key, q in widths.items():
                v = rng.normal(size=q) * 10.0 ** rng.uniform(-3, 3)
                v[int(rng.integers(0, q + 1)):] = 0.0
                d_vs[key] = (None, v)
            decompositions.append(d_vs)
        got = projection_weights(decompositions, state)
        assert got.tobytes() == per_entry_weights(decompositions, state).tobytes()

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 8),
           st.booleans())
    def test_block_weighted_mean_equals_the_repeated_weight_mean(
        self, seed, n, rank, tracked
    ):
        updates, state = mixed_width_round(seed, n, rank)
        if not tracked:  # unit weights before the first aggregate
            for layer in state.layers.values():
                layer.v_a = layer.v_b = None
        out = horus_aggregate(updates, state, HorusConfig(mode=TopM(0)))
        assert not out.detection.flagged
        cids = sorted(updates)
        values, masks = pad_round([updates[c] for c in cids], state)
        decompositions = decompose_round(updates)
        alphas = projection_weights([decompositions[c] for c in cids], state)
        want = masked_mean(values, masks, np.repeat(alphas, block_sizes(state), axis=1),
                           state.flat())
        assert out.state.flat().tobytes() == want.tobytes()


def brute_force_krum(vectors, masks, f):
    """Exhaustive oracle: all pairwise distances, explicit neighbour sums."""
    n = len(vectors)
    best, best_score = None, None
    all_scores = []
    for i in range(n):
        dists = []
        for j in range(n):
            if i == j:
                continue
            both = masks[i] * masks[j]
            dists.append(float((((vectors[i] - vectors[j]) * both) ** 2).sum()))
        dists.sort()
        score = sum(dists[: n - f - 2])
        all_scores.append(score)
        if best_score is None or score < best_score:
            best, best_score = i, score
    return best, all_scores


@st.composite
def krum_instances(draw):
    """(vectors, 0/1 masks, f, m): tenths, or evenly spaced points, so that
    exact ties occur, optionally shifted to 1e3 + 1e-3 x; random or
    padding-style prefix supports."""
    n = draw(st.integers(4, 9))
    p = draw(st.integers(1, 10))
    tenths = st.integers(-40, 40).map(lambda k: k / 10)
    if draw(st.booleans()):
        vectors = draw(arrays(float, (n, p), elements=tenths))
    else:  # points on a line, evenly spaced, in a drawn order
        step = draw(arrays(float, (p,), elements=tenths))
        vectors = np.outer(draw(st.permutations(range(n))), step)
    if draw(st.booleans()):
        vectors = 1e3 + 1e-3 * vectors
    if draw(st.booleans()):
        masks = draw(arrays(float, (n, p), elements=st.sampled_from([0.0, 1.0])))
    else:
        widths = draw(st.lists(st.integers(1, p), min_size=n, max_size=n))
        masks = (np.arange(p) < np.array(widths)[:, None]).astype(float)
    f = draw(st.integers(0, n - 3))
    return vectors, masks, f, draw(st.integers(1, n))


class TestKrumProperties:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(krum_instances())
    def test_matches_brute_force(self, instance):
        vectors, masks, f, m = instance
        winners, scores = krum_select(vectors, masks, f, m=1)
        oracle_winner, oracle_scores = brute_force_krum(vectors, masks, f)
        assert winners == [oracle_winner]
        np.testing.assert_allclose(scores, oracle_scores, rtol=1e-9,
                                   atol=1e-12 * max(oracle_scores))
        # the m best in order, ties toward the lower index
        winners, _ = krum_select(vectors, masks, f, m=m)
        order = sorted(range(len(vectors)), key=lambda i: (oracle_scores[i], i))
        assert winners == order[:m]


@st.composite
def masked_rounds(draw):
    """(values, 0/1 masks, previous) of an (n, P) round matrix with random
    coverage, uncovered columns included."""
    n = draw(st.integers(1, 8))
    p = draw(st.integers(1, 12))
    finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    values = draw(arrays(float, (n, p), elements=finite))
    masks = draw(arrays(float, (n, p), elements=st.sampled_from([0.0, 1.0])))
    return values, masks, draw(arrays(float, (p,), elements=finite))


def covering(values, masks, j):
    """The values of the rows covering column j, by plain Python."""
    return [float(v) for v, m in zip(values[:, j], masks[:, j]) if m > 0]


class TestFlatReductionProperties:
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(masked_rounds())
    def test_median_matches_entrywise_loop(self, rnd):
        values, masks, previous = rnd
        expected = []
        for j in range(values.shape[1]):
            vals = covering(values, masks, j)
            expected.append(statistics.median(vals) if vals else previous[j])
        np.testing.assert_allclose(masked_median(values, masks, previous), expected,
                                   rtol=1e-12, atol=1e-12)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(masked_rounds(), st.sampled_from([0.0, 0.1, 0.2, 0.25, 1 / 3, 0.45]))
    def test_trimmed_mean_matches_entrywise_loop(self, rnd, beta):
        values, masks, previous = rnd
        expected = []
        for j in range(values.shape[1]):
            vals = sorted(covering(values, masks, j))
            t = math.floor(beta * len(vals))
            kept = vals[t : len(vals) - t]
            expected.append(sum(kept) / len(kept) if vals else previous[j])
        out = masked_trimmed_mean(values, masks, beta, previous)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(masked_rounds(), st.data(), st.floats(1e-3, 1e3))
    def test_scaling_horus_weights_changes_nothing(self, rnd, data, scale):
        values, masks, previous = rnd
        values = values * masks  # masked_mean takes zero padding, as pad_round gives
        # nonzero weights times the scale stay far above the coverage guard
        alpha = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
        weights = data.draw(arrays(float, values.shape, elements=alpha))
        base = masked_mean(values, masks, weights, previous)
        scaled = masked_mean(values, masks, scale * weights, previous)
        magnitude = max(1.0, float(np.abs(values).max()), float(np.abs(previous).max()))
        np.testing.assert_allclose(scaled, base, rtol=1e-12, atol=1e-12 * magnitude)


class TestBaselines:
    def _as_updates(self, values):
        # embed 1-D values as constant adapter pairs so shapes stay trivial
        return {
            i: make_update(np.random.default_rng(i), fill=v)
            for i, v in enumerate(values)
        }

    def test_krum_one_dimensional_example(self):
        values = [0.0, 0.1, 0.2, 10.0]
        vectors = np.array([[v] for v in values])
        masks = np.ones_like(vectors)
        winners, scores = krum_select(vectors, masks, f=1)
        oracle_winner, oracle_scores = brute_force_krum(vectors, masks, 1)
        assert winners[0] == oracle_winner
        np.testing.assert_allclose(scores, oracle_scores)

    def test_krum_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            vectors = rng.normal(size=(5, 6))
            masks = np.ones_like(vectors)
            winners, _ = krum_select(vectors, masks, f=1)
            oracle_winner, _ = brute_force_krum(vectors, masks, 1)
            assert winners[0] == oracle_winner

    def test_krum_rows_past_float_range_score_inf_without_warnings(self):
        rng = np.random.default_rng(30)
        vectors = rng.normal(size=(8, 10))
        vectors[6:] = 1e200  # two equal rows whose Gram products overflow
        masks = np.ones_like(vectors)
        winners, scores = krum_select(vectors, masks, f=2, m=3)
        with np.errstate(over="ignore"):
            _, oracle_scores = brute_force_krum(vectors, masks, 2)
        assert winners == np.argsort(oracle_scores, kind="stable")[:3].tolist()
        np.testing.assert_allclose(scores, oracle_scores)
        np.testing.assert_array_equal(scores[6:], np.inf)

    def test_krum_infeasible_population(self):
        vectors = np.zeros((3, 2))
        with pytest.raises(ConfigurationError):
            krum_select(vectors, np.ones_like(vectors), f=1)

    def test_coordinate_median(self):
        stack = np.array([[[1.0]], [[2.0]], [[100.0]]])
        masks = np.ones_like(stack)
        np.testing.assert_array_equal(masked_median(stack, masks, np.zeros((1, 1))),
                                      [[2.0]])

    def test_trimmed_mean_drops_tails(self):
        stack = np.array([[[1.0]], [[2.0]], [[100.0]]])
        masks = np.ones_like(stack)
        np.testing.assert_array_equal(
            masked_trimmed_mean(stack, masks, 1.0 / 3.0, np.zeros((1, 1))), [[2.0]]
        )

    def test_trimmed_mean_partial_coverage(self):
        stack = np.array([[[1.0, 5.0]], [[2.0, 0.0]], [[100.0, 0.0]]])
        masks = np.array([[[1.0, 1.0]], [[1.0, 0.0]], [[1.0, 0.0]]])
        out = masked_trimmed_mean(stack, masks, 1.0 / 3.0, np.zeros((1, 2)))
        assert out[0, 0] == 2.0  # trims 1 and 100
        assert out[0, 1] == 5.0  # single covering client, beta*1 trims nothing

    def test_median_uncovered_keeps_previous(self):
        stack = np.zeros((2, 1, 2))
        masks = np.zeros((2, 1, 2))
        masks[:, :, 0] = 1.0
        prev = np.array([[42.0, 7.0]])
        out = masked_median(stack, masks, prev)
        assert out[0, 1] == 7.0

    def test_multi_krum_averages_selected(self):
        rng = np.random.default_rng(24)
        updates = {c: make_update(rng) for c in range(5)}
        state = GlobalState.zeros(DIMS, 4)
        kind = AggregatorKind("multi_krum", f=1, m=2)
        result = baseline_aggregate(kind, updates, state).state
        values, masks = pad_round([updates[c] for c in sorted(updates)], state)
        winners, _ = krum_select(values, masks, f=1, m=2)
        chosen = {sorted(updates)[i] for i in winners}
        expected_a = np.mean([updates[c].layers[FF].a for c in chosen], axis=0)
        np.testing.assert_allclose(result.layers[FF].a, expected_a)

    @pytest.mark.parametrize("kind", [
        AggregatorKind("fedavg"),
        AggregatorKind("krum", f=1),
        AggregatorKind("multi_krum", f=1, m=3),
        AggregatorKind("median"),
        AggregatorKind("trimmed_mean", beta=0.2),
    ], ids=lambda k: k.name)
    def test_permutation_invariance_on_mixed_widths(self, kind):
        rng = np.random.default_rng(25)
        # two architectures: hidden width 8 and 6, so the masks differ
        updates = {
            c: make_update(rng, ff=(10, 8), cl=(8, 3)) if c % 2
            else make_update(rng, ff=(10, 6), cl=(6, 3))
            for c in range(7)
        }
        state = state_with_directions(rng)
        r1 = baseline_aggregate(kind, updates, state).state
        r2 = baseline_aggregate(kind, dict(reversed(list(updates.items()))), state).state
        for lid in LayerId:
            np.testing.assert_array_equal(r1.layers[lid].a, r2.layers[lid].a)
            np.testing.assert_array_equal(r1.layers[lid].b, r2.layers[lid].b)

    def test_kind_validation(self):
        with pytest.raises(ConfigurationError):
            AggregatorKind("bogus")
        with pytest.raises(ConfigurationError):
            AggregatorKind("trimmed_mean", beta=0.6)
        AggregatorKind("krum", f=2).check_feasible(10)
        with pytest.raises(ConfigurationError):
            AggregatorKind("krum", f=4).check_feasible(10)
