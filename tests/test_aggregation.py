"""Unit tests for masked/weighted aggregation, direction tracking, baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from horus.aggregation import (
    AggregatorKind,
    HorusConfig,
    LayerWeights,
    ProjectionWeights,
    baseline_aggregate,
    horus_aggregate,
    krum_select,
    masked_average,
    masked_median,
    masked_trimmed_mean,
    projection_weights,
    update_global_directions,
    weighted_masked_average,
)
from horus.detection import TopM
from horus.errors import ConfigurationError
from horus.lora import (
    ClientUpdate,
    GlobalState,
    LayerDims,
    LayerId,
    LoraPair,
    PaddedPair,
    pad_to_global,
)

FF, CL = LayerId.FEATURE_FIRST, LayerId.CLASSIFIER
DIMS = {FF: LayerDims(10, 8), CL: LayerDims(8, 3)}


def make_update(rng, cid, rank=4, ff=(10, 8), cl=(8, 3), fill=None):
    layers = {}
    for lid, (d_in, d_out) in ((FF, ff), (CL, cl)):
        if fill is None:
            a = rng.normal(size=(rank, d_in))
            b = rng.normal(size=(d_out, rank))
        else:
            a = np.full((rank, d_in), float(fill))
            b = np.full((d_out, rank), float(fill))
        layers[lid] = LoraPair(a, b, rank)
    return ClientUpdate(cid, 0, layers)


def padded_layer(rng, cid_values, shapes, rank=4):
    """Per-client PaddedPair for a single layer from (value, (d_in, d_out))."""
    out = {}
    d_in_max = max(s[0] for _, s in cid_values.items())
    d_out_max = max(s[1] for _, s in cid_values.items())
    for cid, ((d_in, d_out)) in cid_values.items():
        a = np.zeros((rank, d_in_max))
        a[:, :d_in] = shapes[cid]
        mask_a = np.zeros((rank, d_in_max))
        mask_a[:, :d_in] = 1.0
        b = np.zeros((d_out_max, rank))
        b[:d_out, :] = shapes[cid]
        mask_b = np.zeros((d_out_max, rank))
        mask_b[:d_out, :] = 1.0
        out[cid] = PaddedPair(a, b, mask_a, mask_b)
    return out


class TestMaskedAverage:
    def test_same_shape_equals_plain_mean(self):
        rng = np.random.default_rng(0)
        updates = {c: make_update(rng, c) for c in range(4)}
        padded = {c: pad_to_global(u, DIMS)[FF] for c, u in updates.items()}
        a_bar, b_bar = masked_average(padded)
        np.testing.assert_allclose(
            a_bar, np.mean([u.layers[FF].a for u in updates.values()], axis=0)
        )
        np.testing.assert_allclose(
            b_bar, np.mean([u.layers[FF].b for u in updates.values()], axis=0)
        )

    def test_exclusive_column_keeps_single_value(self):
        rng = np.random.default_rng(1)
        small = make_update(rng, 0, ff=(8, 8), cl=(8, 3))
        big = make_update(rng, 1, ff=(10, 8), cl=(8, 3))
        padded = {
            0: pad_to_global(small, DIMS)[FF],
            1: pad_to_global(big, DIMS)[FF],
        }
        a_bar, _ = masked_average(padded)
        np.testing.assert_array_equal(a_bar[:, 8:], big.layers[FF].a[:, 8:])

    def test_hand_example_ones_and_threes(self):
        # 2 clients, A shapes 8x2 and 8x3, all-ones vs all-threes
        ones = np.ones((8, 2))
        threes = 3.0 * np.ones((8, 3))
        pad1 = np.zeros((8, 3)); pad1[:, :2] = ones
        m1 = np.zeros((8, 3)); m1[:, :2] = 1.0
        padded = {
            0: PaddedPair(pad1, pad1.T.copy(), m1, m1.T.copy()),
            1: PaddedPair(threes, threes.T.copy(), np.ones((8, 3)), np.ones((3, 8))),
        }
        a_bar, _ = masked_average(padded)
        # oracle: per-entry hand computation
        np.testing.assert_array_equal(a_bar[:, :2], 2.0 * np.ones((8, 2)))
        np.testing.assert_array_equal(a_bar[:, 2], 3.0 * np.ones(8))

    def test_zero_coverage_keeps_previous(self):
        a = np.ones((4, 6))
        mask = np.zeros((4, 6))
        mask[:, :3] = 1.0
        prev_a = 7.0 * np.ones((4, 6))
        prev_b = 9.0 * np.ones((6, 4))
        padded = {0: PaddedPair(a * mask, (a * mask).T.copy(), mask, mask.T.copy())}
        a_bar, b_bar = masked_average(padded, previous=(prev_a, prev_b))
        np.testing.assert_array_equal(a_bar[:, :3], 1.0)
        np.testing.assert_array_equal(a_bar[:, 3:], 7.0)
        np.testing.assert_array_equal(b_bar[3:, :], 9.0)


class TestWeightedMaskedAverage:
    def test_all_ones_weights_reduce_bitwise(self):
        rng = np.random.default_rng(2)
        updates = {c: make_update(rng, c, ff=(10, 8) if c % 2 else (8, 8))
                   for c in range(5)}
        padded = {c: pad_to_global(u, DIMS)[FF] for c, u in updates.items()}
        weights = {c: LayerWeights(1.0, 1.0) for c in padded}
        plain = masked_average(padded)
        weighted = weighted_masked_average(padded, weights)
        assert plain[0].tobytes() == weighted[0].tobytes()
        assert plain[1].tobytes() == weighted[1].tobytes()

    def test_zero_weight_excludes_client(self):
        rng = np.random.default_rng(3)
        u0 = make_update(rng, 0)
        u1 = make_update(rng, 1)
        padded = {0: pad_to_global(u0, DIMS)[FF], 1: pad_to_global(u1, DIMS)[FF]}
        weights = {0: LayerWeights(0.0, 0.0), 1: LayerWeights(1.0, 1.0)}
        a_bar, b_bar = weighted_masked_average(padded, weights)
        np.testing.assert_allclose(a_bar, u1.layers[FF].a)
        np.testing.assert_allclose(b_bar, u1.layers[FF].b)

    def test_hand_example_quarter_three_quarters(self):
        zeros = make_update(np.random.default_rng(4), 0, fill=0.0)
        fours = make_update(np.random.default_rng(5), 1, fill=4.0)
        padded = {0: pad_to_global(zeros, DIMS)[FF], 1: pad_to_global(fours, DIMS)[FF]}
        weights = {0: LayerWeights(0.25, 0.25), 1: LayerWeights(0.75, 0.75)}
        a_bar, b_bar = weighted_masked_average(padded, weights)
        np.testing.assert_allclose(a_bar, 3.0)  # (0.25*0 + 0.75*4) / 1
        np.testing.assert_allclose(b_bar, 3.0)

    def test_all_tiny_weights_keep_previous(self):
        u = make_update(np.random.default_rng(6), 0)
        padded = {0: pad_to_global(u, DIMS)[FF]}
        weights = {0: LayerWeights(0.0, 0.0)}
        prev = (5.0 * np.ones((4, 10)), 6.0 * np.ones((8, 4)))
        a_bar, b_bar = weighted_masked_average(padded, weights, previous=prev)
        np.testing.assert_array_equal(a_bar, 5.0)
        np.testing.assert_array_equal(b_bar, 6.0)


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


class TestProjectionWeights:
    def _aligned_update(self, v_a, v_b, rank=4):
        layers = {}
        for lid in LayerId:
            d_in, d_out = DIMS[lid]
            a = np.outer(np.arange(1, rank + 1, dtype=float), v_a[lid])
            b = np.outer(np.arange(1, d_out + 1, dtype=float), v_b[lid])
            layers[lid] = LoraPair(a, b, rank)
        return ClientUpdate(0, 0, layers)

    def test_aligned_rank_one_gives_alpha_one(self):
        rng = np.random.default_rng(7)
        state = state_with_directions(rng)
        v_a = {lid: state.layers[lid].v_a for lid in LayerId}
        v_b = {lid: state.layers[lid].v_b for lid in LayerId}
        u = self._aligned_update(v_a, v_b)
        weights = projection_weights({0: pad_to_global(u, DIMS)}, state)
        for lid in LayerId:
            assert weights.by_client[0][lid].alpha_a == pytest.approx(1.0, abs=1e-10)
            assert weights.by_client[0][lid].alpha_b == pytest.approx(1.0, abs=1e-10)

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
        weights = projection_weights({0: pad_to_global(u, DIMS)}, state)
        for lid in LayerId:
            assert weights.by_client[0][lid].alpha_a == pytest.approx(0.0, abs=1e-10)
            assert weights.by_client[0][lid].alpha_b == pytest.approx(0.0, abs=1e-10)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(9)
        state = state_with_directions(rng)
        u = make_update(rng, 0)
        flipped_layers = {
            lid: LoraPair(-p.a, -p.b, p.rank) for lid, p in u.layers.items()
        }
        flipped = ClientUpdate(0, 0, flipped_layers)
        w1 = projection_weights({0: pad_to_global(u, DIMS)}, state)
        w2 = projection_weights({0: pad_to_global(flipped, DIMS)}, state)
        for lid in LayerId:
            assert w1.by_client[0][lid].alpha_a == pytest.approx(
                w2.by_client[0][lid].alpha_a, abs=1e-10
            )

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(10)
        state = state_with_directions(rng)
        u = make_update(rng, 0)
        scaled_layers = {
            lid: LoraPair(3.5 * p.a, 3.5 * p.b, p.rank) for lid, p in u.layers.items()
        }
        scaled = ClientUpdate(0, 0, scaled_layers)
        w1 = projection_weights({0: pad_to_global(u, DIMS)}, state)
        w2 = projection_weights({0: pad_to_global(scaled, DIMS)}, state)
        for lid in LayerId:
            assert w1.by_client[0][lid].alpha_a == pytest.approx(
                w2.by_client[0][lid].alpha_a, abs=1e-10
            )

    def test_uninitialized_directions_fall_back_to_uniform(self):
        rng = np.random.default_rng(11)
        state = GlobalState.zeros(DIMS, 4)
        u = make_update(rng, 0)
        weights = projection_weights({0: pad_to_global(u, DIMS)}, state)
        assert weights.uniform
        assert weights.by_client[0][FF] == LayerWeights(1.0, 1.0)


class TestUpdateGlobalDirections:
    def test_rank_one_aggregate(self):
        rng = np.random.default_rng(12)
        state = GlobalState.zeros(DIMS, 4)
        w = rng.normal(size=10)
        a_bar = np.outer(np.arange(1, 5, dtype=float), w)
        b_bar = rng.normal(size=(8, 4))
        new = update_global_directions(state, {FF: (a_bar, b_bar),
                                               CL: (rng.normal(size=(4, 8)),
                                                    rng.normal(size=(3, 4)))})
        expected = w / np.linalg.norm(w)
        v = new.layers[FF].v_a
        assert min(np.linalg.norm(v - expected), np.linalg.norm(v + expected)) < 1e-10
        assert new.round_index == 1

    def test_scaling_leaves_direction(self):
        rng = np.random.default_rng(13)
        state = GlobalState.zeros(DIMS, 4)
        aggs = {lid: (rng.normal(size=(4, DIMS[lid].d_in)),
                      rng.normal(size=(DIMS[lid].d_out, 4))) for lid in LayerId}
        doubled = {lid: (2.0 * a, 2.0 * b) for lid, (a, b) in aggs.items()}
        n1 = update_global_directions(state, aggs)
        n2 = update_global_directions(state, doubled)
        for lid in LayerId:
            np.testing.assert_allclose(n1.layers[lid].v_a, n2.layers[lid].v_a,
                                       atol=1e-10)

    def test_power_iteration_oracle(self):
        rng = np.random.default_rng(14)
        state = GlobalState.zeros(DIMS, 4)
        aggs = {lid: (rng.normal(size=(4, DIMS[lid].d_in)),
                      rng.normal(size=(DIMS[lid].d_out, 4))) for lid in LayerId}
        new = update_global_directions(state, aggs)
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
        new = update_global_directions(state, zero_aggs)
        for lid in LayerId:
            np.testing.assert_array_equal(new.layers[lid].v_a, prev_va[lid])


def coherent_update(rng, cid, rank=4, eps=0.02):
    """Benign-style client: A dominated by one shared direction per layer."""
    layers = {}
    for lid in LayerId:
        d_in, d_out = DIMS[lid]
        direction = np.sin(np.arange(d_in) + 1.0)  # shared across clients
        a = np.outer(rng.normal(1.0, 0.1, size=rank), direction)
        a += eps * rng.normal(size=(rank, d_in))
        layers[lid] = LoraPair(a, rng.normal(size=(d_out, rank)), rank)
    return ClientUpdate(cid, 0, layers)


class TestHorusAggregate:
    def test_single_client_round_one(self):
        rng = np.random.default_rng(16)
        u = make_update(rng, 0, ff=(8, 8), cl=(8, 3))
        state = GlobalState.zeros(DIMS, 4)
        out = horus_aggregate({0: u}, state, HorusConfig(mode=TopM(0)))
        padded = pad_to_global(u, DIMS)
        np.testing.assert_array_equal(out.state.layers[FF].a[:, :8],
                                      u.layers[FF].a)
        # uncovered columns keep the (zero) previous global
        np.testing.assert_array_equal(out.state.layers[FF].a[:, 8:], 0.0)
        np.testing.assert_array_equal(out.state.layers[CL].b, padded[CL].b_padded)
        assert out.detection.skipped  # single participant

    def test_identical_clients_unflagged_and_averaged(self):
        rng = np.random.default_rng(17)
        base = make_update(rng, 0)
        updates = {
            c: ClientUpdate(c, 0, dict(base.layers)) for c in range(10)
        }
        state = GlobalState.zeros(DIMS, 4)
        out = horus_aggregate(updates, state, HorusConfig())
        assert out.detection.flagged == frozenset()
        assert all(s.score == 0.0 for s in out.detection.scores.values())
        np.testing.assert_allclose(out.state.layers[FF].a, base.layers[FF].a)

    def test_flags_lie_outliers_and_matches_staged_oracle(self):
        rng = np.random.default_rng(18)
        updates = {c: coherent_update(rng, c) for c in range(8)}
        # the colluding pair submits an identical dispersive (full-rank) A
        for c in (8, 9):
            layers = {
                lid: LoraPair(
                    np.random.default_rng(99).normal(size=(4, DIMS[lid].d_in)),
                    rng.normal(size=(DIMS[lid].d_out, 4)),
                    4,
                )
                for lid in LayerId
            }
            updates[c] = ClientUpdate(c, 0, layers)

        state = GlobalState.zeros(DIMS, 4)
        cfg = HorusConfig(lam=0.3, k=2, mode=TopM(2))
        out = horus_aggregate(updates, state, cfg)
        assert out.detection.flagged == frozenset({8, 9})

        # oracle: run the pipeline stages independently on the 8 benign clients
        benign = {c: pad_to_global(updates[c], DIMS) for c in range(8)}
        weights = projection_weights(benign, state)
        for lid in LayerId:
            prev = (state.layers[lid].a, state.layers[lid].b)
            a_bar, b_bar = weighted_masked_average(
                {c: benign[c][lid] for c in benign}, weights.layer(lid), prev
            )
            assert np.linalg.norm(out.state.layers[lid].a - a_bar) <= 1e-9
            assert np.linalg.norm(out.state.layers[lid].b - b_bar) <= 1e-9

    def test_flagged_client_perturbation_changes_nothing(self):
        rng = np.random.default_rng(19)
        updates = {c: make_update(rng, c) for c in range(6)}
        outlier_layers = {
            lid: LoraPair(np.outer(np.arange(1, 5), np.ones(DIMS[lid].d_in)),
                          updates[5].layers[lid].b, 4)
            for lid in LayerId
        }
        updates[5] = ClientUpdate(5, 0, outlier_layers)
        state = GlobalState.zeros(DIMS, 4)
        cfg = HorusConfig(mode=TopM(1))
        out1 = horus_aggregate(updates, state, cfg)
        flagged = set(out1.detection.flagged)
        assert flagged  # top-1 always flags someone
        cid = flagged.pop()
        wild_layers = {
            lid: LoraPair(1e6 * np.ones_like(updates[cid].layers[lid].a),
                          -1e6 * np.ones_like(updates[cid].layers[lid].b), 4)
            for lid in LayerId
        }
        # keep the perturbed client just as flaggable: wildly concentrated
        updates2 = dict(updates)
        updates2[cid] = ClientUpdate(cid, 0, wild_layers)
        out2 = horus_aggregate(updates2, state, cfg)
        if out2.detection.flagged == out1.detection.flagged:
            for lid in LayerId:
                np.testing.assert_array_equal(out1.state.layers[lid].a,
                                              out2.state.layers[lid].a)
                np.testing.assert_array_equal(out1.state.layers[lid].b,
                                              out2.state.layers[lid].b)

    def test_homogeneous_uniform_weights_equal_fedavg(self):
        rng = np.random.default_rng(20)
        updates = {c: make_update(rng, c) for c in range(5)}
        state = GlobalState.zeros(DIMS, 4)
        out = horus_aggregate(updates, state, HorusConfig(mode=TopM(0)))
        fedavg = baseline_aggregate(AggregatorKind("fedavg"), updates, state)
        for lid in LayerId:
            assert np.abs(out.state.layers[lid].a - fedavg.layers[lid].a).max() <= 1e-12
            assert np.abs(out.state.layers[lid].b - fedavg.layers[lid].b).max() <= 1e-12

    def test_all_flagged_skips_round(self):
        rng = np.random.default_rng(21)
        updates = {c: make_update(rng, c) for c in range(3)}
        state = GlobalState.zeros(DIMS, 4)
        before = {lid: state.layers[lid].a.copy() for lid in LayerId}
        out = horus_aggregate(updates, state, HorusConfig(mode=TopM(3)))
        assert out.skipped
        for lid in LayerId:
            np.testing.assert_array_equal(out.state.layers[lid].a, before[lid])

    def test_client_permutation_invariance(self):
        rng = np.random.default_rng(22)
        updates = {c: make_update(rng, c) for c in range(6)}
        state = GlobalState.zeros(DIMS, 4)
        out1 = horus_aggregate(updates, state, HorusConfig(mode=TopM(1)))
        reordered = dict(reversed(list(updates.items())))
        out2 = horus_aggregate(reordered, state, HorusConfig(mode=TopM(1)))
        for lid in LayerId:
            np.testing.assert_array_equal(out1.state.layers[lid].a,
                                          out2.state.layers[lid].a)


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


class TestBaselines:
    def _as_updates(self, values):
        # embed 1-D values as constant adapter pairs so shapes stay trivial
        return {
            i: make_update(np.random.default_rng(i), i, fill=v)
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

    def test_krum_infeasible_population(self):
        vectors = np.zeros((3, 2))
        with pytest.raises(ConfigurationError):
            krum_select(vectors, np.ones_like(vectors), f=1)

    def test_coordinate_median(self):
        stack = np.array([[[1.0]], [[2.0]], [[100.0]]])
        masks = np.ones_like(stack)
        np.testing.assert_array_equal(masked_median(stack, masks, None), [[2.0]])

    def test_trimmed_mean_drops_tails(self):
        stack = np.array([[[1.0]], [[2.0]], [[100.0]]])
        masks = np.ones_like(stack)
        np.testing.assert_array_equal(
            masked_trimmed_mean(stack, masks, 1.0 / 3.0, None), [[2.0]]
        )

    def test_trimmed_mean_partial_coverage(self):
        stack = np.array([[[1.0, 5.0]], [[2.0, 0.0]], [[100.0, 0.0]]])
        masks = np.array([[[1.0, 1.0]], [[1.0, 0.0]], [[1.0, 0.0]]])
        out = masked_trimmed_mean(stack, masks, 1.0 / 3.0, None)
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
        updates = {c: make_update(rng, c) for c in range(5)}
        state = GlobalState.zeros(DIMS, 4)
        kind = AggregatorKind("multi_krum", f=1, m=2)
        result = baseline_aggregate(kind, updates, state)
        from horus.lora import flatten_padded
        padded = {c: pad_to_global(u, DIMS) for c, u in updates.items()}
        flat = [flatten_padded(padded[c]) for c in sorted(padded)]
        winners, _ = krum_select(np.stack([v for v, _ in flat]),
                                 np.stack([m for _, m in flat]), f=1, m=2)
        chosen = {sorted(padded)[i] for i in winners}
        expected_a = np.mean([updates[c].layers[FF].a for c in chosen], axis=0)
        np.testing.assert_allclose(result.layers[FF].a, expected_a)

    def test_fedavg_permutation_invariance(self):
        rng = np.random.default_rng(25)
        updates = {c: make_update(rng, c) for c in range(4)}
        state = GlobalState.zeros(DIMS, 4)
        r1 = baseline_aggregate(AggregatorKind("fedavg"), updates, state)
        r2 = baseline_aggregate(
            AggregatorKind("fedavg"), dict(reversed(list(updates.items()))), state
        )
        for lid in LayerId:
            np.testing.assert_array_equal(r1.layers[lid].a, r2.layers[lid].a)

    def test_kind_validation(self):
        with pytest.raises(ConfigurationError):
            AggregatorKind("bogus")
        with pytest.raises(ConfigurationError):
            AggregatorKind("trimmed_mean", beta=0.6)
        AggregatorKind("krum", f=2).check_feasible(10)
        with pytest.raises(ConfigurationError):
            AggregatorKind("krum", f=4).check_feasible(10)
